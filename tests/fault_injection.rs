//! The deterministic fault-injection harness: proves the hardened serving
//! path's acceptance properties end to end.
//!
//! * **Isolation** — an injected panic in scenario `k` of an `N`-scenario
//!   batch yields `N` results with exactly one structured error at `k`, the
//!   `N−1` healthy payloads bit-identical to an uninjected run, and the warm
//!   engine still serves the next batch.
//! * **Abort semantics** — a budget-bounded runaway spec returns a partial
//!   report tagged with the tripped [`AbortReason`] instead of hanging, and
//!   a lying `TrafficSource` aborts as `stalled_source` rather than
//!   spinning.
//! * **Zero-cost when unarmed** — fault-free runs with the harness compiled
//!   in are bit-identical to runs without it: unlimited budgets delegate
//!   through the same loop bodies, and a `SlowdownUs` fault perturbs only
//!   wall-clock time, never simulated state.

use rome::engine::simulate::{run_to_completion, run_with_budget, run_with_source_budgeted};
use rome::engine::{
    AbortReason, EngineFault, HostCompletion, MemoryRequest, RunBudget, TrafficSource,
};
use rome::hbm::Cycle;
use rome::mc::controller::{ChannelController, ControllerConfig};
use rome::server::{
    parse_batch, serve_jsonl, EngineLimits, ErrorCode, FaultPlan, ResultPayload, ScenarioEngine,
    ScenarioSpec,
};

/// A cheap five-scenario batch covering every execution shape: analytic
/// sweep, analytic TPOT, inline queue-depth loop, sharded multi-cube run,
/// and a parallel closed-loop window sweep.
const BATCH: &str = concat!(
    "{\"scenario\":\"sweep\",\"name\":\"s0\",\"kind\":\"figure13\",\"seq_len\":4096}\n",
    "{\"scenario\":\"tpot\",\"name\":\"s1\",\"model\":\"grok-1\",\"batch\":8,\"seq_len\":4096}\n",
    "{\"scenario\":\"queue_depth\",\"name\":\"s2\",\"system\":\"hbm4\",\"depths\":[4],",
    "\"total_bytes\":65536,\"granularity\":4096}\n",
    "{\"scenario\":\"multi_cube\",\"name\":\"s3\",\"system\":\"rome\",\"cubes\":2,",
    "\"channels_per_cube\":2,\"bytes_per_cube\":65536,\"max_ns\":5000000}\n",
    "{\"scenario\":\"closed_loop\",\"name\":\"s4\",\"system\":\"rome\",\"channels\":2,",
    "\"windows\":[2],\"max_ns\":1000000,\"workload\":{\"type\":\"burst\",\"base\":0,",
    "\"span\":1048576,\"bytes_per_burst\":32768,\"granularity\":4096,\"period_ns\":0,",
    "\"bursts\":2,\"write_period\":0}}\n",
);

fn batch_specs() -> Vec<ScenarioSpec> {
    parse_batch(BATCH).expect("harness batch parses")
}

/// A runaway spec: 65536 streaming requests against one channel, far more
/// events than any of the budgets used below allow.
const RUNAWAY: &str = concat!(
    "{\"scenario\":\"queue_depth\",\"name\":\"runaway\",\"system\":\"hbm4\",\"depths\":[4],",
    "\"total_bytes\":4194304,\"granularity\":64}\n",
);

#[test]
fn injected_panic_in_scenario_k_is_isolated_from_its_batch() {
    let specs = batch_specs();
    let mut engine = ScenarioEngine::new();
    let baseline = engine.serve_batch(&specs);
    for r in &baseline {
        assert!(r.is_ok(), "baseline batch is healthy: {r:?}");
    }

    // Panic in scenario 2 (the inline queue-depth loop) at event 10.
    let k = 2;
    engine.set_fault_plan(Some(
        FaultPlan::new(1).with_fault(k, EngineFault::panic_at(10)),
    ));
    let injected = engine.serve_batch(&specs);
    assert_eq!(injected.len(), specs.len(), "N scenarios, N results");
    let err = injected[k].as_ref().expect_err("scenario k fails");
    assert_eq!(err.code, ErrorCode::Panicked);
    assert_eq!(err.scenario_index, k);
    assert!(!err.detail.is_empty());
    for (i, (inj, base)) in injected.iter().zip(&baseline).enumerate() {
        if i != k {
            assert_eq!(
                inj.as_ref().expect("healthy sibling"),
                base.as_ref().expect("baseline"),
                "scenario {i} must be bit-identical to the uninjected run"
            );
        }
    }

    // The warm engine survives the panic: with the plan cleared, the same
    // batch serves bit-identically to the baseline again.
    engine.set_fault_plan(None);
    let after = engine.serve_batch(&specs);
    for (a, b) in after.iter().zip(&baseline) {
        assert_eq!(
            a.as_ref().expect("still healthy"),
            b.as_ref().expect("baseline")
        );
    }
    assert_eq!(engine.in_flight(), 0, "no leaked admission slots");
}

#[test]
fn entry_faults_reach_analytic_loop_free_scenarios() {
    let specs = batch_specs();
    let mut engine = ScenarioEngine::new();
    // Scenario 1 is the analytic TPOT path: no run loop, so only an
    // entry fault (event 0) can fire there.
    engine.set_fault_plan(Some(
        FaultPlan::new(2).with_fault(1, EngineFault::panic_at(0)),
    ));
    let results = engine.serve_batch(&specs);
    let err = results[1].as_ref().expect_err("entry fault fires");
    assert_eq!(err.code, ErrorCode::Panicked);
    assert!(results[0].is_ok() && results[2].is_ok());
}

#[test]
fn event_budget_bounds_a_runaway_scenario() {
    let specs = parse_batch(RUNAWAY).expect("runaway batch parses");
    let limits = EngineLimits {
        budget: RunBudget::default().with_max_events(1_000),
        ..EngineLimits::default()
    };
    let engine = ScenarioEngine::with_limits(limits);
    let result = engine
        .serve_batch(&specs)
        .remove(0)
        .expect("partial result");
    let ResultPayload::QueueDepth(rows) = &result.payload else {
        panic!("wrong payload");
    };
    let report = &rows[0].report;
    assert_eq!(report.aborted, Some(AbortReason::EventBudget));
    assert!(
        report.requests_completed < 65_536,
        "partial: {} of 65536",
        report.requests_completed
    );
}

#[test]
fn event_budget_tags_a_bounded_multi_cube_run() {
    let specs = batch_specs();
    let limits = EngineLimits {
        budget: RunBudget::default().with_max_events(8),
        ..EngineLimits::default()
    };
    let engine = ScenarioEngine::with_limits(limits);
    let result = engine
        .serve_batch(&specs)
        .remove(3)
        .expect("partial result");
    let ResultPayload::MultiCube(report) = &result.payload else {
        panic!("wrong payload");
    };
    // Every channel of every cube metered out; merge propagates the tag.
    assert_eq!(report.per_cube[0].aborted, Some(AbortReason::EventBudget));
    assert_eq!(report.merged.aborted, Some(AbortReason::EventBudget));
}

#[test]
fn sim_time_budget_aborts_within_budget() {
    let reqs = rome::mc::workload::streaming_reads(0, 1 << 20, 64);
    let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
    let full = run_to_completion(&mut ctrl, reqs.clone());
    assert_eq!(full.aborted, None);

    let budget = RunBudget::default().with_max_sim_ns(1_000);
    let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
    let partial = run_with_budget(&mut ctrl, reqs, 50_000_000, &budget);
    assert_eq!(partial.aborted, Some(AbortReason::SimTimeBudget));
    assert!(partial.requests_completed < full.requests_completed);
    assert!(
        partial.finish_time <= 2_000,
        "aborted near the budget, not at max_ns: {}",
        partial.finish_time
    );
}

#[test]
fn exhaust_fault_forces_the_injected_fault_abort() {
    let specs = batch_specs();
    let mut engine = ScenarioEngine::new();
    engine.set_fault_plan(Some(
        FaultPlan::new(3).with_fault(2, EngineFault::exhaust_at(10)),
    ));
    let results = engine.serve_batch(&specs);
    let result = results[2].as_ref().expect("exhaustion is not an error");
    let ResultPayload::QueueDepth(rows) = &result.payload else {
        panic!("wrong payload");
    };
    assert_eq!(rows[0].report.aborted, Some(AbortReason::InjectedFault));
}

#[test]
fn slowdown_fault_never_perturbs_simulated_state() {
    let specs = batch_specs();
    let mut engine = ScenarioEngine::new();
    let baseline = engine.serve_batch(&specs);
    engine.set_fault_plan(Some(
        FaultPlan::new(4).with_fault(2, EngineFault::slowdown_at(10, 100)),
    ));
    let slowed = engine.serve_batch(&specs);
    for (s, b) in slowed.iter().zip(&baseline) {
        assert_eq!(
            s.as_ref().expect("slowdown is invisible"),
            b.as_ref().expect("baseline"),
            "a slowdown fault costs wall-clock time only"
        );
    }
}

/// A source that violates the `TrafficSource` contract in the worst
/// possible way: it forever promises an arrival at cycle 1 that never
/// becomes pullable and never reports exhaustion.
struct LyingSource;

impl TrafficSource for LyingSource {
    fn next_arrival_at(&self) -> Option<Cycle> {
        Some(1)
    }

    fn pull_into(&mut self, _now: Cycle, _out: &mut Vec<MemoryRequest>) {}

    fn on_completion(&mut self, _completion: &HostCompletion) {}

    fn is_exhausted(&self) -> bool {
        false
    }
}

/// A source that claims more work will come (`is_exhausted` false) while
/// never scheduling an arrival — the "waiting on a completion that can
/// never happen" deadlock shape.
struct DeadlockedSource;

impl TrafficSource for DeadlockedSource {
    fn next_arrival_at(&self) -> Option<Cycle> {
        None
    }

    fn pull_into(&mut self, _now: Cycle, _out: &mut Vec<MemoryRequest>) {}

    fn is_exhausted(&self) -> bool {
        false
    }
}

#[test]
fn stalled_sources_abort_instead_of_hanging() {
    // This test finishing at all is the point: a lying source used to spin
    // the driver until max_ns (here a simulated second) without making
    // progress. The stall detector turns both shapes into a tagged abort.
    let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
    let report = run_with_source_budgeted(
        &mut ctrl,
        &mut LyingSource,
        1_000_000_000,
        &RunBudget::unlimited(),
    );
    assert_eq!(report.aborted, Some(AbortReason::StalledSource));
    assert_eq!(report.requests_completed, 0);

    let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
    let report = run_with_source_budgeted(
        &mut ctrl,
        &mut DeadlockedSource,
        1_000_000_000,
        &RunBudget::unlimited(),
    );
    assert_eq!(report.aborted, Some(AbortReason::StalledSource));
}

#[test]
fn injected_faults_show_up_as_exact_counter_deltas() {
    // The telemetry registry must agree with the structured results: k
    // injected panics leave `serve.errors.panicked` at exactly k, with
    // every healthy sibling counted under `serve.ok` and every admitted
    // spec under `admission.accepted`.
    let specs = batch_specs();
    let mut engine = ScenarioEngine::new();
    engine.set_fault_plan(Some(
        FaultPlan::new(1).with_fault(2, EngineFault::panic_at(10)),
    ));
    let k = 3;
    for _ in 0..k {
        engine.serve_batch(&specs);
    }
    let registry = engine.registry();
    assert_eq!(registry.counter("serve.errors.panicked").get(), k);
    assert_eq!(
        registry.counter("serve.ok").get(),
        k * (specs.len() as u64 - 1)
    );
    assert_eq!(
        registry.counter("admission.accepted").get(),
        k * specs.len() as u64
    );
    assert_eq!(registry.counter("admission.rejected_transient").get(), 0);
    // The loop scenarios ran under sinking budgets: run-level engine
    // counters accumulated.
    assert!(registry.counter("engine.runs").get() > 0);
    assert!(registry.counter("engine.events").get() > 0);
    // The injected panics interrupt the queue-depth rows before their
    // reports fold in, but the healthy loop scenarios still feed the
    // aggregate sim-latency histogram.
    assert!(registry.histogram("engine.read_latency_ns").count() > 0);
    // Calibration cache classification: the first consult is a miss, every
    // repeat is a hit.
    let calib = parse_batch("{\"scenario\":\"calibration\",\"name\":\"c\",\"system\":\"hbm4\"}\n")
        .expect("calibration spec parses");
    engine.set_fault_plan(None);
    engine.serve_batch(&calib);
    engine.serve_batch(&calib);
    let (hits, misses) = engine.calibration().stats();
    assert_eq!(misses, 1, "first consult calibrates cold");
    assert_eq!(hits, 1, "repeat consult hits the warm cache");
}

#[test]
fn drained_batches_are_counted_per_spec() {
    let specs = batch_specs();
    let engine = ScenarioEngine::new();
    engine.start_drain(std::time::Duration::from_millis(1));
    let results = engine.serve_batch(&specs);
    assert!(results.iter().all(|r| r.is_err()));
    assert_eq!(
        engine
            .registry()
            .counter("admission.rejected_draining")
            .get(),
        specs.len() as u64
    );
    assert_eq!(engine.registry().counter("admission.accepted").get(), 0);
}

#[test]
fn fault_free_runs_are_bit_identical_with_the_harness_compiled_in() {
    // Engine level: an explicitly unlimited budget must be bit-identical to
    // `run_to_completion` (same loop body, no tag), and so must an armed
    // budget that never trips — a wall-clock deadline an hour out, probed
    // periodically, and an event ceiling no run reaches.
    let reqs = rome::mc::workload::streaming_reads(0, 1 << 18, 256);
    let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
    let legacy = run_to_completion(&mut ctrl, reqs.clone());
    let armed = RunBudget::default()
        .with_wall_clock(std::time::Duration::from_secs(3600))
        .with_max_events(u64::MAX);
    for budget in [RunBudget::unlimited(), armed] {
        let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
        let budgeted = run_with_budget(&mut ctrl, reqs.clone(), 50_000_000, &budget);
        assert_eq!(legacy, budgeted);
        assert_eq!(budgeted.aborted, None);
    }

    // Serving level: a default engine and one with every limit explicitly
    // set to its permissive default render byte-identical JSONL.
    let default_engine = ScenarioEngine::new();
    let explicit_engine = ScenarioEngine::with_limits(EngineLimits::default());
    let a = serve_jsonl(&default_engine, BATCH).expect("batch serves");
    let b = serve_jsonl(&explicit_engine, BATCH).expect("batch serves");
    assert_eq!(a, b);
    assert!(
        !a.contains("\"aborted\""),
        "fault-free output carries no abort tags"
    );
}
