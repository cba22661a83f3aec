//! Regression suite of the scenario-serving subsystem.
//!
//! Pins the two serving contracts:
//!
//! 1. **Front-end byte identity** — a JSONL batch through the CLI path
//!    (`serve_jsonl`: parse → serve → render) and the same specs through
//!    the in-process `serve_batch` produce byte-identical JSONL, run after
//!    run (the output is a deterministic function of the input bytes).
//! 2. **Direct-call bit identity** — every served payload is bit-for-bit
//!    the result of calling the pre-existing direct path yourself:
//!    `ScenarioSet::run_nominal`, `closed_loop_sweep`, `Calibrator`,
//!    `decode_tpot`, and the §V-A queue-depth runs.

use rome::server::{
    render_results, serve_jsonl, ResultPayload, ScenarioEngine, ScenarioResult, ScenarioSpec,
    WorkloadSpec,
};
use rome::sim::serving::closed_loop_sweep;
use rome::sim::sweep::{Scenario, SweepKind};
use rome::sim::{AcceleratorSpec, Calibrator, MemoryModel, MemorySystemKind, ScenarioSet};
use rome::workload::{MoeRoutingConfig, MoeRoutingSource};

/// Serve `spec` as a one-spec batch and unwrap its result.
fn serve(engine: &ScenarioEngine, spec: &ScenarioSpec) -> ScenarioResult {
    let mut results = engine.serve_batch(std::slice::from_ref(spec));
    assert_eq!(results.len(), 1);
    results.remove(0).unwrap()
}

fn moe_cfg() -> MoeRoutingConfig {
    MoeRoutingConfig {
        experts: 8,
        top_k: 2,
        expert_bytes: 4096,
        layers: 2,
        tokens_per_step: 8,
        steps: 2,
        step_period_ns: 0,
        granularity: 4096,
        base: 0,
        zipf_exponent: 1.0,
        seed: 11,
    }
}

/// The acceptance batch: at least one sweep, one closed-loop workload
/// scenario, and one calibration point (plus the other variants).
fn acceptance_batch() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::Sweep {
            name: "fig13-4k".into(),
            kind: SweepKind::Figure13,
            seq_len: 4096,
            calibrated: false,
        },
        ScenarioSpec::ClosedLoop {
            name: "moe-windows".into(),
            system: MemorySystemKind::Hbm4,
            channels: 4,
            windows: vec![1, 8],
            max_ns: 10_000_000,
            workload: WorkloadSpec::Moe(moe_cfg()),
        },
        ScenarioSpec::Calibration {
            name: "cal-hbm4".into(),
            system: MemorySystemKind::Hbm4,
        },
        ScenarioSpec::QueueDepth {
            name: "qd-rome".into(),
            system: MemorySystemKind::Rome,
            depths: vec![1, 2, 4],
            total_bytes: 256 * 1024,
            granularity: 4096,
        },
        ScenarioSpec::Tpot {
            name: "tpot-grok".into(),
            model: "grok-1".into(),
            batch: 64,
            seq_len: 8192,
            calibrated: false,
        },
        ScenarioSpec::MultiCube {
            name: "two-cubes".into(),
            system: MemorySystemKind::Rome,
            cubes: 2,
            channels_per_cube: 4,
            bytes_per_cube: 128 * 1024,
            max_ns: 5_000_000,
        },
    ]
}

fn batch_jsonl(specs: &[ScenarioSpec]) -> String {
    specs.iter().map(|s| s.to_json().emit() + "\n").collect()
}

#[test]
fn cli_and_serve_batch_are_byte_identical_and_deterministic() {
    let specs = acceptance_batch();
    let input = batch_jsonl(&specs);
    let engine = ScenarioEngine::new();

    // The CLI path: parse the JSONL, serve, render.
    let cli_out = serve_jsonl(&engine, &input).expect("batch parses");
    // The in-process path on the same (warm) engine, rendered identically.
    let in_process = render_results(&specs, &engine.serve_batch(&specs));
    assert_eq!(cli_out, in_process, "CLI and serve_batch diverged");

    // Deterministic run to run, warm or cold.
    assert_eq!(cli_out, serve_jsonl(&engine, &input).unwrap());
    let cold = ScenarioEngine::new();
    assert_eq!(cli_out, serve_jsonl(&cold, &input).unwrap());

    // One result line per spec, in input order, none of them errors.
    let lines: Vec<&str> = cli_out.lines().collect();
    assert_eq!(lines.len(), specs.len());
    for (line, spec) in lines.iter().zip(&specs) {
        assert!(
            line.starts_with(&format!(
                "{{\"name\":\"{}\",\"scenario\":\"{}\"",
                spec.name(),
                spec.tag()
            )),
            "out-of-order or failed line: {line}"
        );
    }
}

#[test]
fn served_sweep_matches_scenario_set_bit_for_bit() {
    let engine = ScenarioEngine::new();
    let spec = ScenarioSpec::Sweep {
        name: "fig13-4k".into(),
        kind: SweepKind::Figure13,
        seq_len: 4096,
        calibrated: false,
    };
    let served = serve(&engine, &spec);
    let direct = ScenarioSet::new(AcceleratorSpec::paper_default())
        .with(Scenario {
            name: "fig13-4k".into(),
            kind: SweepKind::Figure13,
            seq_len: 4096,
        })
        .run_nominal()
        .pop()
        .unwrap();
    assert_eq!(served.payload, ResultPayload::Sweep(direct));
}

#[test]
fn served_closed_loop_matches_the_direct_sweep_bit_for_bit() {
    let engine = ScenarioEngine::new();
    let spec = ScenarioSpec::ClosedLoop {
        name: "moe-windows".into(),
        system: MemorySystemKind::Hbm4,
        channels: 4,
        windows: vec![1, 8],
        max_ns: 10_000_000,
        workload: WorkloadSpec::Moe(moe_cfg()),
    };
    let served = serve(&engine, &spec);
    let direct = closed_loop_sweep(MemorySystemKind::Hbm4, 4, &[1, 8], 10_000_000, |_| {
        MoeRoutingSource::new(moe_cfg())
    });
    assert_eq!(served.payload, ResultPayload::ClosedLoop(direct));
}

#[test]
fn served_calibration_and_tpot_match_the_direct_paths_bit_for_bit() {
    let engine = ScenarioEngine::new();

    let served = serve(
        &engine,
        &ScenarioSpec::Calibration {
            name: "cal".into(),
            system: MemorySystemKind::Hbm4,
        },
    );
    assert_eq!(
        served.payload,
        ResultPayload::Calibration(Calibrator::new().hbm4())
    );
    // The engine's cache is now warm: calibrated scenarios reuse it.
    assert!(engine.calibration().is_warm(MemorySystemKind::Hbm4));

    let served = serve(
        &engine,
        &ScenarioSpec::Tpot {
            name: "tpot".into(),
            model: "grok-1".into(),
            batch: 64,
            seq_len: 8192,
            calibrated: false,
        },
    );
    let accel = AcceleratorSpec::paper_default();
    let model = rome::llm::ModelConfig::grok_1();
    let direct_hbm4 = rome::sim::decode_tpot(
        &model,
        64,
        8192,
        &accel,
        &MemoryModel::hbm4_baseline(&accel),
    );
    let direct_rome = rome::sim::decode_tpot(&model, 64, 8192, &accel, &MemoryModel::rome(&accel));
    assert_eq!(
        served.payload,
        ResultPayload::Tpot {
            hbm4: direct_hbm4,
            rome: direct_rome,
        }
    );
}

#[test]
fn served_queue_depth_matches_the_direct_runs_bit_for_bit() {
    let engine = ScenarioEngine::new();
    let served = serve(
        &engine,
        &ScenarioSpec::QueueDepth {
            name: "qd".into(),
            system: MemorySystemKind::Rome,
            depths: vec![1, 4],
            total_bytes: 256 * 1024,
            granularity: 4096,
        },
    );
    let ResultPayload::QueueDepth(rows) = &served.payload else {
        panic!("wrong payload");
    };
    for row in rows {
        let mut ctrl = rome::core::RomeController::new(
            rome::core::RomeControllerConfig::with_queue_depth(row.depth),
        );
        let direct = rome::core::simulate::run_to_completion(
            &mut ctrl,
            rome::mc::workload::streaming_reads(0, 256 * 1024, 4096),
        );
        assert_eq!(row.report, direct, "depth {} diverged", row.depth);
    }
}

#[test]
fn trace_workloads_serve_through_the_whole_stack() {
    // A recorded trace as an inline closed-loop workload: the spec
    // round-trips through JSONL and the served points match the direct
    // closed-loop run over the same trace.
    use rome::workload::{TraceRecord, TraceSource};

    let records: Vec<TraceRecord> = (0..24)
        .map(|i| TraceRecord {
            arrival: i * 100,
            kind: rome::engine::request::RequestKind::Read,
            addr: (i % 8) * 4096,
            bytes: 4096,
            tag: (i % 3) as u16,
        })
        .collect();
    let spec = ScenarioSpec::ClosedLoop {
        name: "trace".into(),
        system: MemorySystemKind::Rome,
        channels: 2,
        windows: vec![2],
        max_ns: 10_000_000,
        workload: WorkloadSpec::Trace(records.clone()),
    };
    let engine = ScenarioEngine::new();
    let input = batch_jsonl(std::slice::from_ref(&spec));
    let out = serve_jsonl(&engine, &input).unwrap();
    assert!(out.starts_with("{\"name\":\"trace\",\"scenario\":\"closed_loop\""));

    let served = serve(&engine, &spec);
    let direct = closed_loop_sweep(MemorySystemKind::Rome, 2, &[2], 10_000_000, |_| {
        TraceSource::from_records(&records)
    });
    assert_eq!(served.payload, ResultPayload::ClosedLoop(direct));
    let ResultPayload::ClosedLoop(points) = &served.payload else {
        panic!("wrong payload");
    };
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].completed, 24);
}
