//! One connection's lifecycle: the hardened request/response loop.
//!
//! Each accepted socket gets one [`handle_connection`] call on its own
//! thread. The loop is sequential per connection — requests are served one
//! at a time, responses stream back in request order as each completes —
//! and concurrency comes from many connections multiplexing onto the one
//! warm engine, whose [`crate::engine::AdmissionConfig`] therefore gates
//! socket traffic and in-process batches with the same model.
//!
//! Robustness invariants, each pinned by a unit or integration test:
//!
//! * **Slow-loris defense** — idle time is counted from the last *complete*
//!   frame, so a client trickling bytes without ever finishing a line is
//!   closed at `idle_timeout` like a silent one.
//! * **Stalled-reader defense** — responses go through a bounded write
//!   queue drained by a dedicated writer thread with a write timeout. When
//!   the queue is full at request time the request is *shed* to a
//!   structured `overloaded` frame (with a retry hint) instead of burning
//!   engine time; when even an error frame cannot be enqueued within
//!   `enqueue_wait`, the connection is closed
//!   ([`ConnClose::StalledReader`]). A worker thread never blocks
//!   indefinitely on a client that stopped reading.
//! * **Drain awareness** — between requests the loop probes the engine's
//!   [`rome_engine::DrainSignal`]; once draining, the client gets one
//!   `unavailable` frame and the connection closes. The request in flight
//!   when drain starts finishes normally or aborts with a `drained` partial
//!   through its budget — never dropped silently.
//!
//! Transport I/O is abstracted behind [`ConnRead`]/[`ConnWrite`] so the
//! loop's failure modes are unit-testable with scripted doubles; real
//! sockets come in via [`split_tcp`].

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::ScenarioEngine;
use crate::error::ServerError;
use crate::json::Json;
use crate::proto::{self, FrameEvent, FrameReader};
use crate::spec::SpecError;

/// Per-connection knobs. The defaults are safe for tests and local use;
/// production front ends tune them via [`crate::net::NetConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnConfig {
    /// Read poll quantum: how long one blocking read waits before the loop
    /// re-checks idle and drain state. Small values tighten drain latency.
    pub read_timeout: Duration,
    /// Per-write stall bound on the socket's write side.
    pub write_timeout: Duration,
    /// Close the connection when no *complete* frame has arrived for this
    /// long (partial bytes do not count — the slow-loris rule).
    pub idle_timeout: Duration,
    /// Response frames buffered ahead of the writer thread before the
    /// connection counts as stalled.
    pub write_queue_cap: usize,
    /// How long a frame may wait for queue space before the connection is
    /// closed as a stalled reader.
    pub enqueue_wait: Duration,
    /// Per-frame byte limit (oversize frames shed, never buffered).
    pub max_frame_bytes: usize,
    /// Retry hint stamped on `overloaded` shed frames.
    pub overload_retry_after_ms: u64,
    /// When set, every recorded scenario (a request carrying `"record"`)
    /// also writes its flight-recorder buffer as Chrome trace-event JSON to
    /// this file (truncating: the file holds the most recent recorded
    /// scenario's trace), ready for chrome://tracing or Perfetto. The
    /// `--trace-out` flag of `rome-server`.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            write_queue_cap: 64,
            enqueue_wait: Duration::from_secs(2),
            max_frame_bytes: proto::DEFAULT_MAX_FRAME_BYTES,
            overload_retry_after_ms: 25,
            trace_out: None,
        }
    }
}

/// Why a connection's loop ended. Stable names (`as_str`) feed server
/// statistics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnClose {
    /// The peer closed cleanly between frames.
    Eof,
    /// The peer closed mid-frame (a torn frame; bytes were discarded).
    EofMidFrame,
    /// No complete frame within the idle timeout.
    IdleTimeout,
    /// The transport read side failed.
    ReadError,
    /// The write side stalled or died past its bounds — the peer stopped
    /// reading (or the socket broke) and the bounded queue protected the
    /// worker by closing instead of blocking.
    StalledReader,
    /// The server is draining; the peer was notified and disconnected.
    Draining,
}

impl ConnClose {
    /// Stable snake_case name.
    pub fn as_str(self) -> &'static str {
        match self {
            ConnClose::Eof => "eof",
            ConnClose::EofMidFrame => "eof_mid_frame",
            ConnClose::IdleTimeout => "idle_timeout",
            ConnClose::ReadError => "read_error",
            ConnClose::StalledReader => "stalled_reader",
            ConnClose::Draining => "draining",
        }
    }
}

/// The read half of a connection: one bounded-blocking read.
pub trait ConnRead: Send {
    /// Read up to `buf.len()` bytes. `Ok(0)` is EOF; `WouldBlock` /
    /// `TimedOut` means the poll quantum elapsed with no data (the loop
    /// uses these ticks to check idle and drain state).
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize>;
}

/// The write half of a connection: frame writes and teardown.
pub trait ConnWrite: Send {
    /// Write one frame (`line` + `\n`) and flush, within the configured
    /// write timeout.
    fn write_frame(&mut self, line: &str) -> io::Result<()>;
    /// Tear the transport down (both directions where applicable).
    fn shutdown(&mut self);
}

/// The read half of a real socket.
#[derive(Debug)]
pub struct TcpConnRead {
    stream: TcpStream,
}

impl ConnRead for TcpConnRead {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

/// The write half of a real socket (a `try_clone` of the read half).
#[derive(Debug)]
pub struct TcpConnWrite {
    stream: TcpStream,
}

impl ConnWrite for TcpConnWrite {
    fn write_frame(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }

    fn shutdown(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Split a socket into its two halves with the config's timeouts applied.
pub fn split_tcp(
    stream: TcpStream,
    config: &ConnConfig,
) -> io::Result<(TcpConnRead, TcpConnWrite)> {
    // Responses are written as one frame per request on a ping-pong
    // connection; with Nagle on, a multi-segment frame stalls behind the
    // peer's delayed ACK (~40 ms per request on loopback).
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    let write = stream.try_clone()?;
    write.set_write_timeout(Some(config.write_timeout))?;
    Ok((TcpConnRead { stream }, TcpConnWrite { stream: write }))
}

/// Run one connection to completion: read frames, serve requests
/// sequentially on `engine`, stream responses through the bounded write
/// queue. Returns why the connection closed. Never panics outward for
/// transport misbehavior; scenario panics are already isolated inside
/// [`ScenarioEngine::serve_observed`].
pub fn handle_connection(
    engine: &ScenarioEngine,
    mut reader: impl ConnRead,
    writer: impl ConnWrite + 'static,
    config: &ConnConfig,
) -> ConnClose {
    let (tx, rx) = mpsc::sync_channel::<String>(config.write_queue_cap.max(1));
    let depth = Arc::new(AtomicUsize::new(0));
    let writer_depth = Arc::clone(&depth);
    std::thread::scope(|scope| {
        scope.spawn(move || writer_loop(writer, rx, &writer_depth));
        // `tx` moves into the loop and drops when it returns, which
        // disconnects the channel, ends the writer thread, and bounds the
        // scope join — no connection outlives its loop.
        run_loop(engine, &mut reader, tx, &depth, config)
    })
}

/// The dedicated writer: drains the queue one frame at a time so a stalled
/// peer stalls this thread (bounded by the write timeout), never the
/// serving thread. On a write failure it exits, disconnecting the channel;
/// the serving loop observes that as a stalled reader.
fn writer_loop(mut writer: impl ConnWrite, rx: Receiver<String>, depth: &AtomicUsize) {
    while let Ok(line) = rx.recv() {
        let result = writer.write_frame(&line);
        depth.fetch_sub(1, Ordering::AcqRel);
        if result.is_err() {
            break;
        }
    }
    writer.shutdown();
}

enum Enqueue {
    Sent,
    Stalled,
    Closed,
}

/// Bounded-wait enqueue onto the writer queue. `depth` counts frames
/// enqueued but not yet written, so the serving loop can observe queue
/// pressure without consuming the channel.
fn enqueue(tx: &SyncSender<String>, depth: &AtomicUsize, line: String, wait: Duration) -> Enqueue {
    let deadline = Instant::now() + wait;
    let mut line = line;
    loop {
        depth.fetch_add(1, Ordering::AcqRel);
        match tx.try_send(line) {
            Ok(()) => return Enqueue::Sent,
            Err(TrySendError::Full(back)) => {
                depth.fetch_sub(1, Ordering::AcqRel);
                if Instant::now() >= deadline {
                    return Enqueue::Stalled;
                }
                std::thread::sleep(Duration::from_millis(1));
                line = back;
            }
            Err(TrySendError::Disconnected(_)) => {
                depth.fetch_sub(1, Ordering::AcqRel);
                return Enqueue::Closed;
            }
        }
    }
}

fn run_loop(
    engine: &ScenarioEngine,
    reader: &mut impl ConnRead,
    tx: SyncSender<String>,
    depth: &AtomicUsize,
    config: &ConnConfig,
) -> ConnClose {
    let mut frames = FrameReader::new(config.max_frame_bytes);
    let mut last_frame = Instant::now();
    let mut buf = [0u8; 4096];
    loop {
        if engine.is_draining() {
            let err = ServerError::unavailable(0, "server draining: connection closing");
            let _ = enqueue(
                &tx,
                depth,
                proto::error_frame(None, &err),
                config.enqueue_wait,
            );
            return ConnClose::Draining;
        }
        let n = match reader.read_chunk(&mut buf) {
            Ok(0) => {
                return if frames.has_partial() {
                    ConnClose::EofMidFrame
                } else {
                    ConnClose::Eof
                };
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_frame.elapsed() >= config.idle_timeout {
                    let err =
                        ServerError::unavailable(0, "idle timeout: no complete frame received");
                    let _ = enqueue(
                        &tx,
                        depth,
                        proto::error_frame(None, &err),
                        config.enqueue_wait,
                    );
                    return ConnClose::IdleTimeout;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnClose::ReadError,
        };
        for event in frames.push(&buf[..n]) {
            // Only complete frames reset the idle clock (slow-loris rule).
            last_frame = Instant::now();
            if let Some(close) = handle_event(engine, event, &tx, depth, config) {
                return close;
            }
        }
    }
}

/// Serve one frame event; `Some(close)` ends the connection. The time from
/// frame receipt to response enqueue is recorded into the registry's
/// `net.frame_rtt_us` histogram (wall-clock ops data — it never touches a
/// scenario payload).
fn handle_event(
    engine: &ScenarioEngine,
    event: FrameEvent,
    tx: &SyncSender<String>,
    depth: &AtomicUsize,
    config: &ConnConfig,
) -> Option<ConnClose> {
    let received = Instant::now();
    let frame = match event {
        FrameEvent::Line(line) => {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                return None;
            }
            let parse_start = Instant::now();
            let parsed = proto::parse_frame(trimmed);
            let parse_us = parse_start.elapsed().as_micros() as u64;
            match parsed {
                Ok(proto::Frame::Stats { id }) => {
                    proto::render_stats_frame(id, engine.stats_json())
                }
                Ok(proto::Frame::Flight { id }) => {
                    proto::render_flight_frame(id, engine.flight_json())
                }
                Ok(proto::Frame::Request(req)) => {
                    if depth.load(Ordering::Acquire) >= config.write_queue_cap {
                        // The peer is not keeping up with its own responses:
                        // shed before burning engine time on output nobody
                        // is reading.
                        let err = ServerError::overloaded(
                            0,
                            "write queue full: request shed".to_string(),
                            Some(config.overload_retry_after_ms),
                        );
                        proto::error_frame(req.id, &err)
                    } else {
                        serve_request(engine, &req, parse_us, config)
                    }
                }
                Err(message) => {
                    let err = ServerError::invalid_spec(0, SpecError(message));
                    proto::error_frame(None, &err)
                }
            }
        }
        FrameEvent::Oversize { bytes } => {
            let err = ServerError::invalid_spec(
                0,
                SpecError(format!(
                    "frame of {bytes} bytes exceeds the {} byte limit",
                    config.max_frame_bytes
                )),
            );
            proto::error_frame(None, &err)
        }
        FrameEvent::NotUtf8 { bytes } => {
            let err = ServerError::invalid_spec(
                0,
                SpecError(format!("frame of {bytes} bytes is not valid UTF-8")),
            );
            proto::error_frame(None, &err)
        }
    };
    engine
        .registry()
        .histogram("net.frame_rtt_us")
        .record(received.elapsed().as_micros() as u64);
    match enqueue(tx, depth, frame, config.enqueue_wait) {
        Enqueue::Sent => None,
        Enqueue::Stalled | Enqueue::Closed => Some(ConnClose::StalledReader),
    }
}

/// Serve one request frame through the engine's one serving path and
/// render its response. The envelope's `"trace"` and `"record"` members
/// only choose what rides back on the frame: the wall-clock spans (led by
/// the frame's parse time) and the sim-time event list, which with
/// `--trace-out` is also written as a Chrome trace. The result bytes are
/// the same either way.
fn serve_request(
    engine: &ScenarioEngine,
    req: &proto::Request,
    parse_us: u64,
    config: &ConnConfig,
) -> String {
    engine
        .registry()
        .histogram("server.span.parse_us")
        .record(parse_us);
    let level = req.record.map(|record| record.level);
    let Some(served) = engine
        .serve_observed(std::slice::from_ref(&req.spec), level)
        .pop()
    else {
        let err = ServerError::internal(0, "no result for a one-spec batch".to_string());
        return proto::error_frame(req.id, &err);
    };
    if let (Some(_), Some(path)) = (req.record, &config.trace_out) {
        let chrome = rome_telemetry::trace::chrome_trace_json(&served.trace.events);
        if std::fs::write(path, chrome).is_err() {
            engine.registry().counter("net.trace_out_errors").inc();
        }
    }
    let trace = req.trace.then(|| match served.spans.to_json() {
        Json::Obj(mut members) => {
            members.insert(0, ("parse_us".to_string(), Json::from(parse_us)));
            Json::Obj(members)
        }
        other => other,
    });
    let record = req
        .record
        .map(|record| proto::record_json(record.level, &served.trace, record.limit));
    proto::render_observed_response(req.id, &req.spec, &served.result, trace, record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// A scripted read half: replays chunks, timeout ticks, and EOF.
    enum ReadStep {
        Chunk(Vec<u8>),
        /// Sleep `read_timeout`-ish, then report a timed-out poll.
        Timeout(Duration),
    }

    struct ScriptedRead {
        steps: VecDeque<ReadStep>,
    }

    impl ScriptedRead {
        fn new(steps: Vec<ReadStep>) -> Self {
            ScriptedRead {
                steps: steps.into(),
            }
        }
    }

    impl ConnRead for ScriptedRead {
        fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0), // EOF after the script
                Some(ReadStep::Chunk(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(ReadStep::Chunk(bytes[n..].to_vec()));
                    }
                    Ok(n)
                }
                Some(ReadStep::Timeout(pause)) => {
                    std::thread::sleep(pause);
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "poll quantum"))
                }
            }
        }
    }

    /// A recording write half with scriptable misbehavior.
    #[derive(Clone)]
    struct SinkWrite {
        lines: Arc<Mutex<Vec<String>>>,
        /// Sleep this long inside the first write (stalls the writer
        /// thread deterministically while the serving loop races ahead).
        first_write_stall: Duration,
        /// Fail every write.
        fail: bool,
        shutdowns: Arc<AtomicUsize>,
        writes: Arc<AtomicUsize>,
    }

    impl SinkWrite {
        fn new() -> Self {
            SinkWrite {
                lines: Arc::new(Mutex::new(Vec::new())),
                first_write_stall: Duration::ZERO,
                fail: false,
                shutdowns: Arc::new(AtomicUsize::new(0)),
                writes: Arc::new(AtomicUsize::new(0)),
            }
        }

        fn lines(&self) -> Vec<String> {
            self.lines.lock().unwrap().clone()
        }
    }

    impl ConnWrite for SinkWrite {
        fn write_frame(&mut self, line: &str) -> io::Result<()> {
            if self.writes.fetch_add(1, Ordering::AcqRel) == 0 {
                std::thread::sleep(self.first_write_stall);
            }
            if self.fail {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "peer gone"));
            }
            self.lines.lock().unwrap().push(line.to_string());
            Ok(())
        }

        fn shutdown(&mut self) {
            self.shutdowns.fetch_add(1, Ordering::AcqRel);
        }
    }

    const SPEC: &str =
        "{\"scenario\":\"sweep\",\"name\":\"s\",\"kind\":\"figure13\",\"seq_len\":4096}";

    fn quick_config() -> ConnConfig {
        ConnConfig {
            read_timeout: Duration::from_millis(5),
            idle_timeout: Duration::from_secs(10),
            enqueue_wait: Duration::from_millis(250),
            ..ConnConfig::default()
        }
    }

    #[test]
    fn happy_path_serves_and_closes_on_eof() {
        let engine = ScenarioEngine::new();
        let reader = ScriptedRead::new(vec![ReadStep::Chunk(format!("{SPEC}\n").into_bytes())]);
        let sink = SinkWrite::new();
        let close = handle_connection(&engine, reader, sink.clone(), &quick_config());
        assert_eq!(close, ConnClose::Eof);
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"name\":\"s\",\"scenario\":\"sweep\""));
        assert_eq!(sink.shutdowns.load(Ordering::Acquire), 1);
    }

    #[test]
    fn eof_inside_a_frame_is_a_torn_frame_close() {
        let engine = ScenarioEngine::new();
        let reader = ScriptedRead::new(vec![ReadStep::Chunk(b"{\"scenario\":".to_vec())]);
        let close = handle_connection(&engine, reader, SinkWrite::new(), &quick_config());
        assert_eq!(close, ConnClose::EofMidFrame);
    }

    #[test]
    fn byte_trickling_without_complete_frames_hits_idle_timeout() {
        let engine = ScenarioEngine::new();
        // A slow-loris: keeps the socket warm with single bytes, never
        // finishes a line. Partial bytes must not reset the idle clock.
        let mut steps = Vec::new();
        for _ in 0..20 {
            steps.push(ReadStep::Chunk(b"{".to_vec()));
            steps.push(ReadStep::Timeout(Duration::from_millis(10)));
        }
        let reader = ScriptedRead::new(steps);
        let sink = SinkWrite::new();
        let config = ConnConfig {
            idle_timeout: Duration::from_millis(40),
            ..quick_config()
        };
        let close = handle_connection(&engine, reader, sink.clone(), &config);
        assert_eq!(close, ConnClose::IdleTimeout);
        let lines = sink.lines();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("\"code\":\"unavailable\""));
        assert!(lines[0].contains("idle timeout"));
    }

    #[test]
    fn full_write_queue_sheds_requests_to_overloaded_frames() {
        let engine = ScenarioEngine::new();
        // Two parse-error lines then a valid spec, all in one chunk. The
        // writer stalls 300 ms inside its first write, so by the time the
        // valid spec arrives the first error frame is still in flight and
        // the queue (cap 1) counts as full: the spec must be shed without
        // touching the engine.
        let chunk = format!("not json\n{SPEC}\n");
        let reader = ScriptedRead::new(vec![ReadStep::Chunk(chunk.into_bytes())]);
        let mut sink = SinkWrite::new();
        sink.first_write_stall = Duration::from_millis(300);
        let config = ConnConfig {
            write_queue_cap: 1,
            overload_retry_after_ms: 7,
            enqueue_wait: Duration::from_secs(2),
            ..quick_config()
        };
        let close = handle_connection(&engine, reader, sink.clone(), &config);
        assert_eq!(close, ConnClose::Eof);
        let lines = sink.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"code\":\"invalid_spec\""));
        assert!(lines[1].contains("\"code\":\"overloaded\""), "{}", lines[1]);
        assert!(lines[1].contains("\"retry_after_ms\":7"));
    }

    #[test]
    fn dead_write_side_closes_as_stalled_reader() {
        let engine = ScenarioEngine::new();
        let mut sink = SinkWrite::new();
        sink.fail = true;
        // First line's frame is accepted then fails to write, killing the
        // writer; the pause guarantees the serving loop observes the dead
        // channel on the second line.
        let reader = ScriptedRead::new(vec![
            ReadStep::Chunk(b"not json\n".to_vec()),
            ReadStep::Timeout(Duration::from_millis(50)),
            ReadStep::Chunk(b"also not json\n".to_vec()),
        ]);
        let close = handle_connection(&engine, reader, sink.clone(), &quick_config());
        assert_eq!(close, ConnClose::StalledReader);
        assert!(sink.lines().is_empty());
        assert_eq!(sink.shutdowns.load(Ordering::Acquire), 1);
    }

    #[test]
    fn draining_engine_notifies_and_closes() {
        let engine = ScenarioEngine::new();
        engine.start_drain(Duration::from_secs(5));
        let reader = ScriptedRead::new(vec![ReadStep::Chunk(format!("{SPEC}\n").into_bytes())]);
        let sink = SinkWrite::new();
        let close = handle_connection(&engine, reader, sink.clone(), &quick_config());
        assert_eq!(close, ConnClose::Draining);
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"code\":\"unavailable\""));
        assert!(lines[0].contains("draining"));
    }

    #[test]
    fn traced_and_recorded_requests_pass_the_same_admission_gate() {
        let mut limits = crate::engine::EngineLimits::default();
        limits.admission.max_batch_specs = 0;
        let engine = ScenarioEngine::with_limits(limits);
        let frames = format!(
            "{SPEC}\n{{\"id\":1,\"trace\":true,\"spec\":{SPEC}}}\n\
             {{\"id\":2,\"record\":{{\"level\":\"requests\"}},\"spec\":{SPEC}}}\n"
        );
        let reader = ScriptedRead::new(vec![ReadStep::Chunk(frames.into_bytes())]);
        let sink = SinkWrite::new();
        let close = handle_connection(&engine, reader, sink.clone(), &quick_config());
        assert_eq!(close, ConnClose::Eof);
        // A plain, a traced and a recorded request: all three are shed by
        // the spec-count limit, none of them runs.
        let lines = sink.lines();
        assert_eq!(lines.len(), 3, "{lines:?}");
        for line in &lines {
            assert!(line.contains("\"code\":\"rejected\""), "{line}");
        }
        let registry = engine.registry();
        assert_eq!(registry.counter("admission.rejected_permanent").get(), 3);
        assert_eq!(registry.counter("serve.errors.rejected").get(), 3);
        assert_eq!(registry.counter("serve.ok").get(), 0);
    }

    #[test]
    fn close_reasons_have_stable_names() {
        assert_eq!(ConnClose::Eof.as_str(), "eof");
        assert_eq!(ConnClose::EofMidFrame.as_str(), "eof_mid_frame");
        assert_eq!(ConnClose::IdleTimeout.as_str(), "idle_timeout");
        assert_eq!(ConnClose::ReadError.as_str(), "read_error");
        assert_eq!(ConnClose::StalledReader.as_str(), "stalled_reader");
        assert_eq!(ConnClose::Draining.as_str(), "draining");
    }
}
