//! The wire protocol of the socket front end: newline framing, request
//! parsing, response rendering, and the deterministic transport-fault
//! harness.
//!
//! The protocol is the JSONL batch format made conversational. A frame is
//! one line (LF-terminated, optional CR stripped); a request frame is
//! either a **bare [`ScenarioSpec`] object** — in which case the response
//! frame is byte-identical to the line [`crate::cli::render_results`] would
//! emit for that spec — or an **envelope** `{"id":N,"spec":{…}}`, in which
//! case the response is the same object with `"id":N` prepended so
//! concurrent clients can address errors to requests. Responses stream back
//! per request, in request order, as each scenario completes.
//!
//! Protocol-level failures (a line that is not a request, a shed, a drain
//! notice) render as error frames that reuse the CLI's error-line shape
//! minus the `name` key — there is no spec to name.
//!
//! [`FrameReader`] is the parsing half: an incremental splitter that
//! tolerates arbitrary chunking (byte-at-a-time tricklers, torn frames,
//! many frames per read) and sheds oversize frames without buffering them,
//! so a client cannot balloon server memory by never sending a newline.
//! `tests/proto_fuzz.rs` pins that it never panics and that frame
//! boundaries are invariant under re-chunking.

use rome_telemetry::trace::TraceLevel;

use crate::error::ServerError;
use crate::json::{self, Json};
use crate::spec::{ScenarioResult, ScenarioSpec};

/// Default cap on a single frame's length in bytes (1 MiB). Oversize
/// frames are discarded as they stream in and reported as
/// [`FrameEvent::Oversize`] once their terminating newline arrives.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// One complete frame (or the structured reason there isn't one) popped
/// from a [`FrameReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete line, CR/LF stripped. May be empty.
    Line(String),
    /// A frame longer than the reader's limit; its bytes were discarded as
    /// they arrived (`bytes` counts every discarded byte of the frame).
    Oversize {
        /// Total length of the discarded frame in bytes.
        bytes: usize,
    },
    /// A complete frame that was not valid UTF-8.
    NotUtf8 {
        /// Length of the rejected frame in bytes.
        bytes: usize,
    },
}

/// Incremental newline-delimited frame splitter with bounded buffering.
///
/// Feed it raw socket bytes in whatever chunks the transport delivers;
/// it yields one [`FrameEvent`] per terminated line. The internal buffer
/// never grows past the frame limit: once a partial frame exceeds it, the
/// buffer is dropped and subsequent bytes are counted-and-discarded until
/// the newline, which yields [`FrameEvent::Oversize`].
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: usize,
    /// When `Some(n)`, the current frame already overflowed and `n` bytes
    /// of it have been discarded so far.
    discarding: Option<usize>,
}

impl FrameReader {
    /// A reader with the given per-frame byte limit.
    pub fn new(max_frame: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            max_frame,
            discarding: None,
        }
    }

    /// Append a chunk of transport bytes and pop every frame it completes,
    /// in order. Chunk boundaries are invisible: any re-chunking of the
    /// same byte stream yields the same events.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<FrameEvent> {
        let mut events = Vec::new();
        for &byte in chunk {
            if byte == b'\n' {
                events.push(self.complete_frame());
                continue;
            }
            match self.discarding {
                Some(ref mut n) => *n = n.saturating_add(1),
                None => {
                    if self.buf.len() >= self.max_frame {
                        self.discarding = Some(self.buf.len().saturating_add(1));
                        self.buf.clear();
                    } else {
                        self.buf.push(byte);
                    }
                }
            }
        }
        events
    }

    /// Whether a partial (unterminated) frame is buffered or being
    /// discarded. Used by connection idle accounting, which counts idle
    /// time from the last *complete* frame so a byte-trickling client
    /// cannot hold a connection open indefinitely.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty() || self.discarding.is_some()
    }

    /// Bytes currently buffered for the partial frame (0 while discarding
    /// an oversize frame — that is the point).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn complete_frame(&mut self) -> FrameEvent {
        if let Some(discarded) = self.discarding.take() {
            self.buf.clear();
            return FrameEvent::Oversize { bytes: discarded };
        }
        let mut bytes = std::mem::take(&mut self.buf);
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        let len = bytes.len();
        match String::from_utf8(bytes) {
            Ok(line) => FrameEvent::Line(line),
            Err(_) => FrameEvent::NotUtf8 { bytes: len },
        }
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new(DEFAULT_MAX_FRAME_BYTES)
    }
}

/// One parsed request frame: a scenario to serve, optionally tagged with a
/// client-chosen id that will be echoed on the response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The envelope id, if the client used the envelope form.
    pub id: Option<u64>,
    /// The scenario to serve.
    pub spec: ScenarioSpec,
    /// Whether the envelope asked for per-phase trace spans
    /// (`"trace":true`): the response frame gains a `trace` object of
    /// wall-clock phase timings. Off for bare-spec frames, so their
    /// responses stay byte-identical to the CLI's.
    pub trace: bool,
    /// The envelope's `"record"` member, if present: run the scenario with
    /// the sim-time flight recorder armed and return the event list on the
    /// response frame. `None` (bare specs and envelopes without the member)
    /// serves exactly as before, byte-identical responses included.
    pub record: Option<RecordSpec>,
}

/// A parsed `"record"` envelope member: how to arm the sim-time flight
/// recorder for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpec {
    /// Verbosity to record at (`"requests"` or `"commands"`; never `Off` —
    /// omitting the member is how recording is turned off).
    pub level: TraceLevel,
    /// Cap on the events returned on the response frame, keeping the most
    /// recent (a flight recorder keeps the end of the story). `None` returns
    /// everything the bounded recorder retained.
    pub limit: Option<usize>,
}

/// One parsed inbound frame: a scenario request, or a control operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A scenario request (bare spec or envelope).
    Request(Request),
    /// The `{"op":"stats"}` control frame: answer with a live metrics
    /// snapshot ([`crate::engine::ScenarioEngine::stats_json`]), echoing
    /// the optional envelope id.
    Stats {
        /// The envelope id to echo, if the client sent one.
        id: Option<u64>,
    },
    /// The `{"op":"flight"}` control frame: answer with the engine's
    /// wall-clock black box — the ring of recently served requests
    /// ([`crate::engine::ScenarioEngine::flight_json`]) — echoing the
    /// optional envelope id.
    Flight {
        /// The envelope id to echo, if the client sent one.
        id: Option<u64>,
    },
}

/// Parse one inbound frame: the `{"op":"stats"}` control form (optionally
/// carrying an `id` to echo), the bare-spec request form, or the request
/// envelope `{"id":N,"spec":{…}[,"trace":true]}`. Anything else is a
/// protocol error described by the returned string.
pub fn parse_frame(line: &str) -> Result<Frame, String> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    if let Some(op) = value.get("op") {
        match op.as_str() {
            Some(name @ ("stats" | "flight")) => {
                let id = match value.get("id") {
                    Some(idv) => Some(
                        idv.as_u64()
                            .ok_or_else(|| "envelope id must be an unsigned integer".to_string())?,
                    ),
                    None => None,
                };
                return Ok(if name == "stats" {
                    Frame::Stats { id }
                } else {
                    Frame::Flight { id }
                });
            }
            Some(other) => return Err(format!("unknown op {other:?}")),
            None => return Err("op must be a string".to_string()),
        }
    }
    request_from_value(&value).map(Frame::Request)
}

/// Parse one request frame. Accepts the bare-spec form (any object carrying
/// a `scenario` tag) and the envelope form `{"id":N,"spec":{…}}`; anything
/// else is a protocol error described by the returned string.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    request_from_value(&value)
}

fn request_from_value(value: &Json) -> Result<Request, String> {
    if let Some(spec_value) = value.get("spec") {
        let id = match value.get("id") {
            Some(idv) => Some(
                idv.as_u64()
                    .ok_or_else(|| "envelope id must be an unsigned integer".to_string())?,
            ),
            None => return Err("envelope with \"spec\" must also carry \"id\"".to_string()),
        };
        let trace = match value.get("trace") {
            Some(tv) => tv
                .as_bool()
                .ok_or_else(|| "envelope trace must be a boolean".to_string())?,
            None => false,
        };
        let record = match value.get("record") {
            Some(rv) => Some(record_from_value(rv)?),
            None => None,
        };
        let spec = ScenarioSpec::from_json(spec_value).map_err(|e| e.to_string())?;
        return Ok(Request {
            id,
            spec,
            trace,
            record,
        });
    }
    let spec = ScenarioSpec::from_json(value).map_err(|e| e.to_string())?;
    Ok(Request {
        id: None,
        spec,
        trace: false,
        record: None,
    })
}

/// Parse a `"record"` envelope member: `{"level":"requests"|"commands"
/// [,"limit":N]}`. The level defaults to `"requests"` when omitted.
fn record_from_value(value: &Json) -> Result<RecordSpec, String> {
    let level = match value.get("level") {
        Some(lv) => {
            let s = lv
                .as_str()
                .ok_or_else(|| "record level must be a string".to_string())?;
            match TraceLevel::parse(s) {
                Some(TraceLevel::Off) | None => {
                    return Err(format!(
                        "record level must be \"requests\" or \"commands\", got {s:?}"
                    ));
                }
                Some(level) => level,
            }
        }
        None => TraceLevel::Requests,
    };
    let limit = match value.get("limit") {
        Some(nv) => Some(
            nv.as_u64()
                .ok_or_else(|| "record limit must be an unsigned integer".to_string())?
                as usize,
        ),
        None => None,
    };
    Ok(RecordSpec { level, limit })
}

/// Render one response frame (no trailing newline). For bare requests this
/// is byte-identical to the corresponding [`crate::cli::render_results`]
/// line; for envelope requests the same object gains a leading `"id"`.
pub fn render_response(
    id: Option<u64>,
    spec: &ScenarioSpec,
    result: &Result<ScenarioResult, ServerError>,
) -> String {
    render_observed_response(id, spec, result, None, None)
}

/// Render one response frame with the observations its request asked for:
/// the [`render_response`] object, then a trailing `"trace"` member (the
/// wall-clock span object, for `"trace":true`) and a trailing `"record"`
/// member (the sim-time event list, for `"record":{…}`). With neither it is
/// [`render_response`] byte for byte, and the members never touch the
/// result bytes before them.
pub fn render_observed_response(
    id: Option<u64>,
    spec: &ScenarioSpec,
    result: &Result<ScenarioResult, ServerError>,
    trace: Option<Json>,
    record: Option<Json>,
) -> String {
    let line = match crate::cli::result_json(spec, result) {
        Json::Obj(mut members) => {
            members.extend(trace.map(|trace| ("trace".to_string(), trace)));
            members.extend(record.map(|record| ("record".to_string(), record)));
            Json::Obj(members)
        }
        other => other,
    };
    with_id(id, line).emit()
}

/// Render a harvested trace buffer as the `"record"` response member:
/// `{"level":…,"dropped":N,"events":[…]}`, events in the canonical
/// [`rome_telemetry::trace::TraceEvent`] order. When `limit` is set, only
/// the most recent `limit` events are kept (a flight recorder keeps the end
/// of the story) and the trimmed ones are counted into `dropped`.
pub fn record_json(
    level: TraceLevel,
    buffer: &rome_telemetry::trace::TraceBuffer,
    limit: Option<usize>,
) -> Json {
    let keep = limit.unwrap_or(buffer.events.len());
    let start = buffer.events.len().saturating_sub(keep);
    let trimmed = start as u64;
    let events: Vec<Json> = buffer.events[start..]
        .iter()
        .map(|ev| {
            Json::obj([
                ("ts", Json::from(ev.ts)),
                ("dur", Json::from(ev.dur)),
                ("kind", Json::from(ev.kind.as_str())),
                ("channel", Json::from(u64::from(ev.channel))),
                ("bank", Json::from(u64::from(ev.bank))),
                ("row", Json::from(u64::from(ev.row))),
                ("id", Json::from(ev.id)),
                ("bytes", Json::from(ev.bytes)),
                ("write", Json::from(ev.write)),
            ])
        })
        .collect();
    Json::obj([
        ("level", Json::from(level.as_str())),
        ("dropped", Json::from(buffer.dropped + trimmed)),
        ("events", Json::Arr(events)),
    ])
}

/// Render one stats response frame (no trailing newline): the snapshot
/// body, gaining a leading `"id"` when the control frame carried one.
pub fn render_stats_frame(id: Option<u64>, body: Json) -> String {
    with_id(id, body).emit()
}

/// Render one flight (black-box) response frame (no trailing newline): the
/// engine's [`crate::engine::ScenarioEngine::flight_json`] body, gaining a
/// leading `"id"` when the `{"op":"flight"}` control frame carried one.
pub fn render_flight_frame(id: Option<u64>, body: Json) -> String {
    with_id(id, body).emit()
}

/// Render a protocol-level error frame (no trailing newline): the CLI error
/// shape minus `name` — there is no spec to name. Carries the envelope id
/// when the offending request had one.
pub fn error_frame(id: Option<u64>, err: &ServerError) -> String {
    let mut members = vec![
        ("scenario", Json::from("error")),
        ("error", Json::from(err.detail.as_str())),
        ("code", Json::from(err.code.as_str())),
    ];
    if let Some(ms) = err.retry_after_ms {
        members.push(("retry_after_ms", Json::from(ms)));
    }
    with_id(id, Json::obj(members)).emit()
}

fn with_id(id: Option<u64>, line: Json) -> Json {
    match (id, line) {
        (Some(id), Json::Obj(mut members)) => {
            members.insert(0, ("id".to_string(), Json::from(id)));
            Json::Obj(members)
        }
        (_, line) => line,
    }
}

/// A deterministic misbehaving-client script, the transport-layer analogue
/// of [`crate::engine::FaultPlan`]: tests derive reproducible client faults
/// (where to tear a frame, how slowly to trickle bytes, when to disconnect)
/// from a seed and a connection ordinal instead of from a real flaky
/// network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransportFaultPlan {
    seed: u64,
    faults: Vec<(usize, TransportFault)>,
}

/// One scripted client misbehavior, addressed to a connection ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// Close the socket after writing exactly `bytes` bytes of the request
    /// stream (mid-frame when `bytes` lands inside a line).
    DisconnectAfter {
        /// Bytes written before the abrupt close.
        bytes: usize,
    },
    /// Write the request stream `chunk` bytes at a time, sleeping
    /// `delay_ms` between chunks (a slow-loris when `chunk` is 1).
    SlowWriter {
        /// Bytes per write.
        chunk: usize,
        /// Milliseconds between writes.
        delay_ms: u64,
    },
    /// Write the stream in two writes torn at byte `at`, with a pause
    /// between them long enough for the server to observe the torn frame.
    TornFrame {
        /// Byte offset of the tear.
        at: usize,
        /// Milliseconds to pause at the tear.
        pause_ms: u64,
    },
}

impl TransportFaultPlan {
    /// An empty plan with a seed for derived placements.
    pub fn new(seed: u64) -> Self {
        TransportFaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Arm `fault` on the connection at `conn_index`.
    pub fn with_fault(mut self, conn_index: usize, fault: TransportFault) -> Self {
        self.faults.push((conn_index, fault));
        self
    }

    /// The fault armed at `conn_index`, if any (latest arming wins).
    pub fn fault_for(&self, conn_index: usize) -> Option<TransportFault> {
        self.faults
            .iter()
            .rev()
            .find(|(i, _)| *i == conn_index)
            .map(|(_, f)| *f)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A reproducible pseudo-random offset in `[0, span)` derived from the
    /// seed and the connection index (splitmix64), for seeded-but-arbitrary
    /// tear/disconnect placement.
    pub fn derived_offset(&self, conn_index: usize, span: usize) -> usize {
        let mut z = self
            .seed
            .wrapping_add((conn_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if span == 0 {
            0
        } else {
            (z % span as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_on_newlines_regardless_of_chunking() {
        let stream = b"first\nsecond\r\n\nthird";
        let whole = {
            let mut r = FrameReader::default();
            r.push(stream)
        };
        let byte_at_a_time = {
            let mut r = FrameReader::default();
            let mut events = Vec::new();
            for b in stream {
                events.extend(r.push(&[*b]));
            }
            events
        };
        assert_eq!(whole, byte_at_a_time);
        assert_eq!(
            whole,
            vec![
                FrameEvent::Line("first".into()),
                FrameEvent::Line("second".into()),
                FrameEvent::Line(String::new()),
            ]
        );
    }

    #[test]
    fn partial_frames_are_tracked_but_not_emitted() {
        let mut r = FrameReader::default();
        assert!(r.push(b"unterminated").is_empty());
        assert!(r.has_partial());
        assert_eq!(r.buffered(), "unterminated".len());
        assert_eq!(r.push(b"\n"), vec![FrameEvent::Line("unterminated".into())]);
        assert!(!r.has_partial());
    }

    #[test]
    fn oversize_frames_are_discarded_not_buffered() {
        let mut r = FrameReader::new(8);
        let events = r.push(b"0123456789abcdef");
        assert!(events.is_empty());
        // The buffer stopped growing at the limit.
        assert_eq!(r.buffered(), 0);
        assert!(r.has_partial());
        let events = r.push(b"\nok\n");
        assert_eq!(
            events,
            vec![
                FrameEvent::Oversize { bytes: 16 },
                FrameEvent::Line("ok".into()),
            ]
        );
    }

    #[test]
    fn invalid_utf8_frames_are_structured_errors() {
        let mut r = FrameReader::default();
        let events = r.push(&[0xFF, 0xFE, b'\n', b'o', b'k', b'\n']);
        assert_eq!(
            events,
            vec![
                FrameEvent::NotUtf8 { bytes: 2 },
                FrameEvent::Line("ok".into()),
            ]
        );
    }

    #[test]
    fn bare_and_envelope_requests_parse() {
        let bare = "{\"scenario\":\"calibration\",\"name\":\"c\",\"system\":\"hbm4\"}";
        let req = parse_request(bare).unwrap();
        assert_eq!(req.id, None);
        assert_eq!(req.spec.name(), "c");

        let envelope = format!("{{\"id\":7,\"spec\":{bare}}}");
        let req = parse_request(&envelope).unwrap();
        assert_eq!(req.id, Some(7));
        assert_eq!(req.spec.name(), "c");

        assert!(parse_request("{\"spec\":{}}").is_err());
        assert!(parse_request("{\"id\":\"x\",\"spec\":{}}").is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn stats_and_trace_frames_parse() {
        assert_eq!(
            parse_frame("{\"op\":\"stats\"}").unwrap(),
            Frame::Stats { id: None }
        );
        assert_eq!(
            parse_frame("{\"op\":\"stats\",\"id\":9}").unwrap(),
            Frame::Stats { id: Some(9) }
        );
        assert!(parse_frame("{\"op\":\"flush\"}").is_err());
        assert!(parse_frame("{\"op\":7}").is_err());
        assert!(parse_frame("{\"op\":\"stats\",\"id\":\"x\"}").is_err());

        let bare = "{\"scenario\":\"calibration\",\"name\":\"c\",\"system\":\"hbm4\"}";
        let Frame::Request(req) = parse_frame(bare).unwrap() else {
            panic!("bare spec must parse as a request");
        };
        assert!(!req.trace, "bare requests never trace");

        let traced = format!("{{\"id\":2,\"trace\":true,\"spec\":{bare}}}");
        let Frame::Request(req) = parse_frame(&traced).unwrap() else {
            panic!("envelope must parse as a request");
        };
        assert_eq!(req.id, Some(2));
        assert!(req.trace);
        assert!(parse_frame(&format!("{{\"id\":2,\"trace\":1,\"spec\":{bare}}}")).is_err());
    }

    #[test]
    fn error_frames_carry_code_hint_and_id() {
        let err = ServerError::overloaded(0, "write queue full".into(), Some(10));
        assert_eq!(
            error_frame(Some(3), &err),
            "{\"id\":3,\"scenario\":\"error\",\"error\":\"write queue full\",\
             \"code\":\"overloaded\",\"retry_after_ms\":10}"
        );
        let err = ServerError::unavailable(0, "draining");
        assert_eq!(
            error_frame(None, &err),
            "{\"scenario\":\"error\",\"error\":\"draining\",\"code\":\"unavailable\"}"
        );
    }

    #[test]
    fn derived_offsets_are_reproducible_and_bounded() {
        let plan = TransportFaultPlan::new(42);
        let a = plan.derived_offset(5, 1000);
        assert_eq!(a, TransportFaultPlan::new(42).derived_offset(5, 1000));
        assert!(a < 1000);
        assert_eq!(plan.derived_offset(5, 0), 0);
        let plan = plan
            .with_fault(1, TransportFault::DisconnectAfter { bytes: 10 })
            .with_fault(
                1,
                TransportFault::SlowWriter {
                    chunk: 1,
                    delay_ms: 2,
                },
            );
        assert_eq!(
            plan.fault_for(1),
            Some(TransportFault::SlowWriter {
                chunk: 1,
                delay_ms: 2
            })
        );
        assert_eq!(plan.fault_for(0), None);
    }
}
