//! The flight-recorder acceptance suite: recorded serves return the
//! request lifecycle without perturbing the result, the recorder is
//! deterministic in sim time, and the engine's wall-clock black box
//! reconstructs what was served — including the panicked request a crash
//! investigation starts from.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rome_engine::EngineFault;
use rome_server::conn::{handle_connection, ConnConfig, ConnRead, ConnWrite};
use rome_server::engine::spec_fingerprint;
use rome_server::json::{self, Json};
use rome_server::{FaultPlan, ResultPayload, ScenarioEngine, ScenarioSpec, Served};
use rome_telemetry::trace::{chrome_trace_json, TraceLevel};

/// Serve `spec` alone with the flight recorder armed at `level`.
fn serve_with_recorder(engine: &ScenarioEngine, spec: &ScenarioSpec, level: TraceLevel) -> Served {
    let mut served = engine.serve_observed(std::slice::from_ref(spec), Some(level));
    assert_eq!(served.len(), 1);
    served.remove(0)
}

fn queue_depth_spec(name: &str) -> ScenarioSpec {
    ScenarioSpec::QueueDepth {
        name: name.into(),
        system: rome_sim::MemorySystemKind::Hbm4,
        depths: vec![8],
        total_bytes: 64 * 1024,
        granularity: 4096,
    }
}

#[test]
fn recorded_serve_returns_events_matching_the_report() {
    let engine = ScenarioEngine::new();
    let spec = queue_depth_spec("rec");
    let Served {
        result,
        trace: buffer,
        ..
    } = serve_with_recorder(&engine, &spec, TraceLevel::Requests);
    let result = result.expect("recorded serve succeeds");
    let ResultPayload::QueueDepth(rows) = &result.payload else {
        panic!("wrong payload");
    };
    assert!(!buffer.events.is_empty(), "recorder captured no events");
    let completions = buffer
        .events
        .iter()
        .filter(|e| e.kind.as_str() == "complete")
        .count() as u64;
    // Every completed request of the run left exactly one completion span.
    assert_eq!(completions, rows[0].report.requests_completed);
    // Requests level records the request lifecycle, not bank commands.
    assert!(buffer
        .events
        .iter()
        .all(|e| !matches!(e.kind.as_str(), "row_open" | "refresh")));
}

#[test]
fn commands_level_additionally_records_bank_activity() {
    let engine = ScenarioEngine::new();
    // Enough sequential traffic to revisit every bank: row conflicts force
    // precharges, which close (and therefore emit) row-open spans.
    let spec = ScenarioSpec::QueueDepth {
        name: "cmd".into(),
        system: rome_sim::MemorySystemKind::Hbm4,
        depths: vec![8],
        total_bytes: 1024 * 1024,
        granularity: 4096,
    };
    let Served {
        result,
        trace: buffer,
        ..
    } = serve_with_recorder(&engine, &spec, TraceLevel::Commands);
    result.expect("recorded serve succeeds");
    assert!(buffer.events.iter().any(|e| e.kind.as_str() == "issue"));
    assert!(buffer.events.iter().any(|e| e.kind.as_str() == "row_open"));
}

#[test]
fn recording_never_perturbs_the_result() {
    let engine = ScenarioEngine::new();
    let spec = queue_depth_spec("bit");
    let plain = engine.serve_batch(std::slice::from_ref(&spec)).remove(0);
    let plain = plain.expect("plain serve succeeds");
    let render = |r: &rome_server::spec::ScenarioResult| {
        rome_server::proto::render_response(Some(1), &spec, &Ok(r.clone()))
    };
    // The recorder is a pure observation: the payload is bit-identical to
    // the unrecorded serve of the same spec, byte-for-byte on the wire,
    // whether it is plumbed through but disarmed (`Off`) or records every
    // command.
    for level in [TraceLevel::Off, TraceLevel::Commands] {
        let Served {
            result,
            trace: buffer,
            ..
        } = serve_with_recorder(&engine, &spec, level);
        let recorded = result.expect("recorded serve succeeds");
        assert_eq!(plain, recorded, "{level:?}");
        assert_eq!(buffer.events.is_empty(), level == TraceLevel::Off);
        assert_eq!(render(&plain), render(&recorded));
    }
}

#[test]
fn same_spec_yields_a_byte_identical_trace() {
    let engine = ScenarioEngine::new();
    let spec = queue_depth_spec("det");
    let a = serve_with_recorder(&engine, &spec, TraceLevel::Commands).trace;
    let b = serve_with_recorder(&engine, &spec, TraceLevel::Commands).trace;
    assert!(!a.events.is_empty());
    assert_eq!(a.events, b.events);
    assert_eq!(chrome_trace_json(&a.events), chrome_trace_json(&b.events));
}

#[test]
fn flight_box_reconstructs_a_panicked_request() {
    let mut engine = ScenarioEngine::new();
    engine.set_fault_plan(Some(
        FaultPlan::new(7).with_fault(0, EngineFault::panic_at(3)),
    ));
    let spec = queue_depth_spec("boom");
    let results = engine.serve_batch(std::slice::from_ref(&spec));
    let err = results[0].as_ref().unwrap_err();
    assert_eq!(err.code.as_str(), "panicked");
    let records = engine.flight_records();
    let last = records.last().expect("black box recorded the serve");
    assert_eq!(last.outcome, "panicked");
    assert_eq!(last.name, "boom");
    assert_eq!(last.spec_hash, spec_fingerprint(&spec));
    // The wire body carries the same reconstruction, hash as fixed hex.
    let body = engine.flight_json().emit();
    let parsed = json::parse(&body).expect("flight body is valid JSON");
    let recs = parsed.get("records").and_then(Json::as_arr).unwrap();
    let wire_last = recs.last().unwrap();
    assert_eq!(
        wire_last.get("spec_hash").and_then(Json::as_str).unwrap(),
        format!("{:016x}", spec_fingerprint(&spec))
    );
    assert_eq!(
        wire_last.get("outcome").and_then(Json::as_str).unwrap(),
        "panicked"
    );
}

#[test]
fn flight_box_is_a_bounded_ring() {
    let engine = ScenarioEngine::new();
    let spec = ScenarioSpec::Calibration {
        name: "c".into(),
        system: rome_sim::MemorySystemKind::Hbm4,
    };
    for _ in 0..70 {
        engine.serve_batch(std::slice::from_ref(&spec));
    }
    let records = engine.flight_records();
    assert_eq!(records.len(), 64, "ring retains the last 64 serves");
    // Seqs keep counting past eviction: the dump states what it is missing.
    assert_eq!(records.last().unwrap().seq, 69);
    let served = engine
        .flight_json()
        .get("served")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(served, 70);
}

#[test]
fn stats_carry_uptime_and_a_monotone_sequence() {
    let engine = ScenarioEngine::new();
    let seq_of = |body: &Json| {
        body.get("counters")
            .and_then(|c| c.get("stats.seq"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let first = engine.stats_json();
    let second = engine.stats_json();
    assert_eq!(seq_of(&first) + 1, seq_of(&second));
    let uptime = first
        .get("gauges")
        .and_then(|g| g.get("server.uptime_s"))
        .and_then(Json::as_f64)
        .expect("uptime gauge present");
    assert!(uptime >= 0.0);
}

// ---- wire-level coverage through the connection loop ----

struct OneShotRead {
    payload: Option<Vec<u8>>,
}

impl ConnRead for OneShotRead {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.payload.take() {
            Some(bytes) => {
                assert!(bytes.len() <= buf.len(), "test payload fits one chunk");
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
            None => Ok(0),
        }
    }
}

#[derive(Clone)]
struct CollectWrite {
    lines: Arc<Mutex<Vec<String>>>,
    shutdowns: Arc<AtomicUsize>,
}

impl CollectWrite {
    fn new() -> Self {
        CollectWrite {
            lines: Arc::new(Mutex::new(Vec::new())),
            shutdowns: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl ConnWrite for CollectWrite {
    fn write_frame(&mut self, line: &str) -> io::Result<()> {
        self.lines.lock().unwrap().push(line.to_string());
        Ok(())
    }

    fn shutdown(&mut self) {
        self.shutdowns.fetch_add(1, Ordering::AcqRel);
    }
}

fn serve_lines(engine: &ScenarioEngine, input: &str, config: &ConnConfig) -> Vec<String> {
    let reader = OneShotRead {
        payload: Some(input.as_bytes().to_vec()),
    };
    let sink = CollectWrite::new();
    let lines = Arc::clone(&sink.lines);
    handle_connection(engine, reader, sink, config);
    let collected = lines.lock().unwrap().clone();
    collected
}

const QD_SPEC: &str = "{\"scenario\":\"queue_depth\",\"name\":\"q\",\"system\":\"hbm4\",\
                       \"depths\":[8],\"total_bytes\":65536,\"granularity\":4096}";

#[test]
fn record_envelope_rides_events_on_an_otherwise_identical_response() {
    let engine = ScenarioEngine::new();
    let config = ConnConfig::default();
    let plain = serve_lines(
        &engine,
        &format!("{{\"id\":1,\"spec\":{QD_SPEC}}}\n"),
        &config,
    );
    let recorded = serve_lines(
        &engine,
        &format!(
            "{{\"id\":1,\"record\":{{\"level\":\"requests\",\"limit\":4}},\"spec\":{QD_SPEC}}}\n"
        ),
        &config,
    );
    assert_eq!(plain.len(), 1);
    assert_eq!(recorded.len(), 1);
    // The recorded frame is the plain frame plus one trailing "record"
    // member: strip it and the bytes match exactly.
    let parsed = json::parse(&recorded[0]).expect("recorded frame is valid JSON");
    let record = parsed.get("record").expect("record member present");
    let events = record.get("events").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), 4, "limit keeps the most recent events");
    assert!(record.get("dropped").and_then(Json::as_u64).unwrap() > 0);
    let stripped = match parsed {
        Json::Obj(members) => {
            Json::Obj(members.into_iter().filter(|(k, _)| k != "record").collect())
        }
        other => other,
    };
    assert_eq!(stripped.emit(), plain[0]);
}

#[test]
fn flight_op_answers_over_the_wire() {
    let engine = ScenarioEngine::new();
    let config = ConnConfig::default();
    let input = format!("{{\"id\":1,\"spec\":{QD_SPEC}}}\n{{\"op\":\"flight\",\"id\":9}}\n");
    let lines = serve_lines(&engine, &input, &config);
    assert_eq!(lines.len(), 2);
    let flight = json::parse(&lines[1]).expect("flight frame is valid JSON");
    assert_eq!(flight.get("id").and_then(Json::as_u64), Some(9));
    assert_eq!(
        flight.get("scenario").and_then(Json::as_str),
        Some("flight")
    );
    let recs = flight.get("records").and_then(Json::as_arr).unwrap();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].get("outcome").and_then(Json::as_str), Some("ok"));
    assert_eq!(recs[0].get("name").and_then(Json::as_str), Some("q"));
}

#[test]
fn trace_out_writes_chrome_json_per_recorded_scenario() {
    let engine = ScenarioEngine::new();
    let path = std::env::temp_dir().join(format!(
        "rome_flight_recorder_test_{}.json",
        std::process::id()
    ));
    let config = ConnConfig {
        trace_out: Some(path.clone()),
        ..ConnConfig::default()
    };
    let input = format!("{{\"id\":1,\"record\":{{\"level\":\"commands\"}},\"spec\":{QD_SPEC}}}\n");
    let lines = serve_lines(&engine, &input, &config);
    assert_eq!(lines.len(), 1);
    let written = std::fs::read_to_string(&path).expect("--trace-out file written");
    let _ = std::fs::remove_file(&path);
    let parsed = json::parse(&written).expect("trace file is valid JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(!events.is_empty());
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
}

#[test]
fn invalid_record_levels_are_structured_errors() {
    let engine = ScenarioEngine::new();
    let config = ConnConfig::default();
    let input = format!("{{\"id\":1,\"record\":{{\"level\":\"nope\"}},\"spec\":{QD_SPEC}}}\n");
    let lines = serve_lines(&engine, &input, &config);
    assert_eq!(lines.len(), 1);
    assert!(
        lines[0].contains("\"code\":\"invalid_spec\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("record level"), "{}", lines[0]);
}
