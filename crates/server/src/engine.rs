//! The long-lived scenario engine: warm calibration state plus a sharded,
//! fault-isolated executor.
//!
//! A [`ScenarioEngine`] is the process-wide serving state. It owns a
//! [`CalibrationCache`] — the expensive cycle-accurate calibrations, keyed
//! and computed at most once, shared by every scenario of every batch — and
//! fans batches out across a worker pool: scenarios run concurrently,
//! results come back in batch order, and a multi-cube scenario additionally
//! shards its cubes across threads via [`rome_engine::run_cubes`] (one
//! `MultiChannelSystem` per cube, the same share-nothing split
//! `run_until_idle` applies to channels).
//!
//! Every scenario variant routes through the *pre-existing* direct-call
//! path — `ScenarioSet` sweeps, `rome_mc`/`rome_core` queue-depth runs,
//! closed-loop points, `decode_tpot`, the calibrator — so a served result
//! is bit-for-bit the result of calling that path yourself; the regression
//! suite pins this.
//!
//! # One serving path
//!
//! [`ScenarioEngine::serve_observed`] is the only way a request is served;
//! [`ScenarioEngine::serve_batch`] is its projection onto the results. Every
//! batch — from the CLI, from a socket connection, traced, recorded or
//! plain — passes the same admission gate, runs each spec through the same
//! per-spec step, and folds every outcome into the same `serve.*` counters,
//! `server.span.*` histograms and black box. So every request carries real
//! [`ServeSpans`], and what a front end attaches to a response (spans,
//! recorded events) is a choice of rendering, not of path.
//!
//! Three robustness layers sit between a batch and the run loops:
//!
//! * **Admission control** ([`AdmissionConfig`]): a batch is rejected as a
//!   whole — before anything runs — when the engine is draining, when it
//!   exceeds the spec-count or estimated-cost limits (permanent rejection:
//!   the same batch would fail again) or when admitting it would push the
//!   engine over its in-flight scenario limit (transient rejection,
//!   carrying a retry hint the CLI's bounded-backoff loop keys on).
//! * **Budgets** ([`RunBudget`] via [`EngineLimits`]): every scenario's run
//!   loops are metered, so a runaway spec returns a partial result tagged
//!   `aborted` instead of occupying a worker forever.
//! * **Panic isolation**: each scenario executes under `catch_unwind`, so a
//!   panicking scenario becomes one structured [`ServerError`] in its batch
//!   slot while its siblings' results are unaffected, and the engine (and
//!   its warm calibration cache, whose mutex recovers from poisoning)
//!   remains healthy for the next batch.
//!
//! A [`FaultPlan`] deterministically injects faults (panic at event K,
//! artificial slowdown, forced budget exhaustion) into chosen scenarios of
//! the next batches — the harness `tests/fault_injection.rs` uses to prove
//! all of the above without nondeterministic scaffolding.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use rome_core::controller::{RomeController, RomeControllerConfig};
use rome_core::system::{RomeMemorySystem, RomeSystemConfig};
use rome_engine::{merge_reports, report_from_host_completions, run_cubes, MemoryRequest};
use rome_engine::{DrainSignal, EngineFault, RunBudget, RunSink, TraceSink};
use rome_mc::controller::{ChannelController, ControllerConfig};
use rome_mc::system::{MemorySystem, MemorySystemConfig};
use rome_sim::serving::closed_loop_points;
use rome_sim::sweep::Scenario;
use rome_sim::tpot::decode_tpot;
use rome_sim::{AcceleratorSpec, CalibrationCache, MemoryModel, MemorySystemKind, ScenarioSet};
use rome_telemetry::trace::{TraceBuffer, TraceConfig, TraceLevel};
use rome_telemetry::Registry;

use crate::error::{panic_message, ErrorCode, ServerError};
use crate::json::Json;
use crate::spec::{
    model_by_name, MultiCubeReport, QueueDepthRow, ResultPayload, ScenarioResult, ScenarioSpec,
    SpecError,
};

/// Admission limits for [`ScenarioEngine::serve_batch`]. The defaults are
/// permissive enough that every pre-existing workload admits unchanged; a
/// deployment fronting untrusted batches tightens them via
/// [`ScenarioEngine::with_limits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum scenarios admitted concurrently across all in-flight batches.
    /// A batch that would exceed this is shed with a transient rejection
    /// carrying [`AdmissionConfig::retry_after_ms`].
    pub max_in_flight: usize,
    /// Maximum specs in one batch (permanent rejection above it).
    pub max_batch_specs: usize,
    /// Maximum summed [`ScenarioSpec::estimated_cost`] of one batch
    /// (permanent rejection above it).
    pub max_batch_cost: u64,
    /// Retry hint attached to transient (in-flight) rejections.
    pub retry_after_ms: u64,
    /// Maximum concurrent socket connections the network front end will
    /// hold open (see `crate::net`). Living here keeps transport and
    /// engine backpressure in one model: a connection over this limit is
    /// shed at accept time with a structured `overloaded` frame carrying
    /// [`AdmissionConfig::retry_after_ms`], exactly as an over-admitted
    /// batch is shed by [`ScenarioEngine::serve_batch`]. Ignored by the
    /// in-process and CLI front ends, which have no connections.
    pub max_connections: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_in_flight: 4096,
            max_batch_specs: 1024,
            max_batch_cost: u64::MAX,
            retry_after_ms: 25,
            max_connections: 256,
        }
    }
}

/// Operational limits of a [`ScenarioEngine`]: the [`RunBudget`] every
/// scenario's run loops are metered against, and the admission gate. The
/// default (unlimited budget, permissive admission) keeps every output
/// byte-identical to an engine without the robustness layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineLimits {
    /// Budget applied to every served scenario's run loops.
    pub budget: RunBudget,
    /// The admission gate for batches.
    pub admission: AdmissionConfig,
}

/// A deterministic, spec-addressable fault-injection plan: which scenario
/// indices of the next batches receive which [`EngineFault`]. Installed via
/// [`ScenarioEngine::set_fault_plan`]; the engine composes the fault into
/// the addressed scenario's [`RunBudget`], so it fires at an exact event
/// ordinal of that scenario's run loops (entry faults fire even on analytic,
/// loop-free paths). The seed exists so harnesses can derive arbitrary but
/// reproducible target events ([`FaultPlan::derived_event`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<(usize, EngineFault)>,
}

impl FaultPlan {
    /// An empty plan with a seed for derived target events.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Arm `fault` on the scenario at `scenario_index` of served batches.
    pub fn with_fault(mut self, scenario_index: usize, fault: EngineFault) -> Self {
        self.faults.push((scenario_index, fault));
        self
    }

    /// The fault armed at `scenario_index`, if any (latest arming wins).
    pub fn fault_for(&self, scenario_index: usize) -> Option<EngineFault> {
        self.faults
            .iter()
            .rev()
            .find(|(i, _)| *i == scenario_index)
            .map(|(_, f)| *f)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A reproducible pseudo-random event ordinal in `[0, span)` derived
    /// from the seed and the scenario index (splitmix64), for harnesses
    /// that want seeded-but-arbitrary fault placement.
    pub fn derived_event(&self, scenario_index: usize, span: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((scenario_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if span == 0 {
            0
        } else {
            z % span
        }
    }
}

/// RAII release of admitted in-flight slots; `Drop` runs even when a worker
/// panic unwinds through `serve_observed`, so a faulty batch can never leak
/// admission capacity.
struct AdmissionGuard<'a> {
    counter: &'a AtomicUsize,
    admitted: usize,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(self.admitted, Ordering::AcqRel);
    }
}

/// The warm scenario-serving engine. See the module docs.
#[derive(Debug)]
pub struct ScenarioEngine {
    calibration: CalibrationCache,
    accel: AcceleratorSpec,
    limits: EngineLimits,
    fault_plan: Option<FaultPlan>,
    in_flight: AtomicUsize,
    drain: DrainSignal,
    /// The engine's unified metrics registry: admission and serve-outcome
    /// counters, run-level engine counters (via each budget's [`RunSink`]),
    /// the aggregate sim-time request-latency histogram, trace-span
    /// histograms, and — recorded by the socket front end — the transport
    /// counters. Shared with front ends for live stats.
    registry: Arc<Registry>,
    /// Process start, for the `server.uptime_s` stats gauge.
    started: Instant,
    /// Monotone snapshot counter: every [`ScenarioEngine::stats_json`] call
    /// bumps it, so a consumer can order snapshots and detect missed ones.
    stats_seq: AtomicU64,
    /// The wall-clock black box: a ring of the last served requests (spec
    /// hash, phase spans, outcome), dumped on panic and on drain and served
    /// by the `{"op":"flight"}` control frame.
    black_box: Mutex<BlackBox>,
}

impl Default for ScenarioEngine {
    fn default() -> Self {
        ScenarioEngine::new()
    }
}

/// How many served requests the engine's black box retains.
const BLACK_BOX_CAPACITY: usize = 64;

/// The black-box ring behind [`ScenarioEngine::flight_records`]: bounded,
/// oldest-evicted, with a total-served counter that keeps counting after
/// eviction so a dump states how much history it is missing.
#[derive(Debug, Default)]
struct BlackBox {
    served: u64,
    records: VecDeque<ServedRecord>,
}

/// One entry of the engine's wall-clock black box: what was served, how it
/// went, and how long each phase took. Everything here is an ops-side
/// observation — the sim-time trace lives in [`TraceBuffer`], not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedRecord {
    /// Position in the engine's served-request sequence (0-based, monotone).
    pub seq: u64,
    /// The spec's scenario name.
    pub name: String,
    /// FNV-1a hash of the spec's canonical debug form, so a dump identifies
    /// the exact request shape without storing (possibly large) specs.
    pub spec_hash: u64,
    /// Wall-clock phase spans of the serve.
    pub spans: ServeSpans,
    /// `"ok"` or the structured error code (`"panicked"`, `"rejected"`, …).
    pub outcome: &'static str,
}

impl ServedRecord {
    /// The record as a JSON object. The hash renders as a fixed-width hex
    /// string: `Json::Num` is an f64 and would corrupt high-entropy u64s.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("name", Json::Str(self.name.clone())),
            ("spec_hash", Json::Str(format!("{:016x}", self.spec_hash))),
            ("outcome", Json::from(self.outcome)),
            ("spans", self.spans.to_json()),
        ])
    }
}

/// FNV-1a over the spec's debug form: stable for identical specs within and
/// across runs (the derived `Debug` output is a pure function of the spec's
/// fields), cheap, and dependency-free.
pub fn spec_fingerprint(spec: &ScenarioSpec) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{spec:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl ScenarioEngine {
    /// A cold engine modelling the paper's accelerator, with default
    /// (permissive) limits. Calibration warms on first use and stays warm
    /// for the life of the engine.
    pub fn new() -> Self {
        ScenarioEngine {
            calibration: CalibrationCache::new(),
            accel: AcceleratorSpec::paper_default(),
            limits: EngineLimits::default(),
            fault_plan: None,
            in_flight: AtomicUsize::new(0),
            drain: DrainSignal::new(),
            registry: Arc::new(Registry::new()),
            started: Instant::now(),
            stats_seq: AtomicU64::new(0),
            black_box: Mutex::new(BlackBox::default()),
        }
    }

    /// A cold engine with explicit operational limits.
    pub fn with_limits(limits: EngineLimits) -> Self {
        ScenarioEngine {
            limits,
            ..ScenarioEngine::new()
        }
    }

    /// The warm calibration cache (shared, thread-safe).
    pub fn calibration(&self) -> &CalibrationCache {
        &self.calibration
    }

    /// The engine's metrics registry (shared, thread-safe). Front ends
    /// record their own counters here (the socket layer's close reasons,
    /// frame RTTs) so one snapshot covers the whole serving stack.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The engine's operational limits.
    pub fn limits(&self) -> &EngineLimits {
        &self.limits
    }

    /// Install (or, with `None`, clear) a deterministic fault-injection
    /// plan applied to subsequently served batches.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Scenarios currently admitted and not yet finished.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// The engine's shared drain signal. Every served scenario's
    /// [`RunBudget`] meters against a clone of it, so
    /// [`ScenarioEngine::start_drain`] converts in-flight work to partial
    /// reports tagged `drained` once the grace expires — the graceful half
    /// of shutdown. Front ends clone this to coordinate their own drain
    /// (stop accepting, notify clients) with the engine's.
    pub fn drain_signal(&self) -> &DrainSignal {
        &self.drain
    }

    /// Begin graceful drain: new batches are rejected permanently
    /// ([`ErrorCode::Unavailable`]),
    /// in-flight scenarios get `grace` to finish before their budgets abort
    /// them with tagged partials. Idempotent; the earliest deadline wins.
    pub fn start_drain(&self, grace: std::time::Duration) {
        let first = !self.drain.is_draining();
        self.drain.start_drain(grace);
        if first {
            self.dump_black_box("drain");
        }
    }

    /// Whether [`ScenarioEngine::start_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.drain.is_draining()
    }

    /// Serve one batch: scenarios fan out across the worker pool, results
    /// return in batch order (deterministic however the pool schedules).
    /// Each element is the scenario's result or the structured error that
    /// kept it from producing one — an invalid spec, an isolated worker
    /// panic, or a batch-wide admission rejection. One bad spec never
    /// poisons the batch, and one bad batch never poisons the engine.
    ///
    /// This is [`ScenarioEngine::serve_observed`] without a recorder, keeping
    /// only the results.
    pub fn serve_batch(&self, specs: &[ScenarioSpec]) -> Vec<Result<ScenarioResult, ServerError>> {
        self.serve_observed(specs, None)
            .into_iter()
            .map(|served| served.result)
            .collect()
    }

    /// The one serving path. The batch passes one admission gate; each
    /// admitted spec then runs on the worker pool, with a sim-time flight
    /// recorder at `record`'s level when given; and every outcome, admitted
    /// or not, is folded into the `serve.*` counters, the `server.span.*`
    /// histograms and the black box. Results come back in batch order with
    /// their wall-clock [`ServeSpans`]. Neither the spans nor the recorder
    /// touch a result: it is byte-identical to an unobserved serve, and the
    /// recorded events are deterministic in sim time.
    pub fn serve_observed(
        &self,
        specs: &[ScenarioSpec],
        record: Option<TraceLevel>,
    ) -> Vec<Served> {
        let t = Instant::now();
        let admitted = self.admit(specs);
        let admission_us = t.elapsed().as_micros() as u64;
        let served: Vec<Served> = match admitted {
            // The guard releases the slots once every spec has finished,
            // panicked ones included.
            Ok(_guard) => specs
                .iter()
                .enumerate()
                .collect::<Vec<(usize, &ScenarioSpec)>>()
                .into_par_iter()
                .map(|(index, spec)| self.serve_one(index, spec, record, admission_us))
                .collect(),
            Err(err) => (0..specs.len())
                .map(|index| Served {
                    result: Err(err.clone().at_index(index)),
                    spans: ServeSpans {
                        admission_us,
                        ..ServeSpans::default()
                    },
                    trace: TraceBuffer::default(),
                })
                .collect(),
        };
        for (spec, served) in specs.iter().zip(&served) {
            self.record_outcome(&served.result);
            self.record_spans(&served.spans);
            self.record_flight(spec, served.spans, &served.result);
        }
        served
    }

    /// The admission gate, applied to a whole batch before anything runs:
    /// the drain check, then the spec-count and cost limits (permanent
    /// rejections: the same batch would fail again), then the in-flight
    /// slots (a transient rejection carrying the retry hint). The verdict
    /// is counted once per spec under `admission.*`.
    fn admit(&self, specs: &[ScenarioSpec]) -> Result<AdmissionGuard<'_>, ServerError> {
        let admission = &self.limits.admission;
        let permanent = |detail: String| {
            (
                "admission.rejected_permanent",
                ServerError::rejected(0, detail, None),
            )
        };
        let verdict = if self.drain.is_draining() {
            Err((
                "admission.rejected_draining",
                ServerError::unavailable(0, "engine draining: no new work accepted"),
            ))
        } else if specs.len() > admission.max_batch_specs {
            Err(permanent(format!(
                "batch of {} specs exceeds the per-batch limit of {}",
                specs.len(),
                admission.max_batch_specs
            )))
        } else {
            let cost: u64 = specs
                .iter()
                .map(ScenarioSpec::estimated_cost)
                .fold(0, u64::saturating_add);
            if cost > admission.max_batch_cost {
                Err(permanent(format!(
                    "batch cost estimate {cost} exceeds the per-batch limit of {}",
                    admission.max_batch_cost
                )))
            } else {
                self.try_admit(specs.len()).map_err(|detail| {
                    (
                        "admission.rejected_transient",
                        ServerError::rejected(0, detail, Some(admission.retry_after_ms)),
                    )
                })
            }
        };
        let counter = match &verdict {
            Ok(_) => "admission.accepted",
            Err((counter, _)) => counter,
        };
        self.registry.counter(counter).add(specs.len() as u64);
        verdict.map_err(|(_, err)| err)
    }

    /// Fold one served outcome into the registry: an outcome counter
    /// (`serve.ok` / `serve.errors.<code>`) and, for payloads carrying
    /// unified reports, their sim-time read-latency histograms merged into
    /// `engine.read_latency_ns` — the aggregate the stats endpoint extracts
    /// p50/p95/p99 from.
    fn record_outcome(&self, result: &Result<ScenarioResult, ServerError>) {
        match result {
            Ok(ok) => {
                self.registry.counter("serve.ok").inc();
                let hist = self.registry.histogram("engine.read_latency_ns");
                match &ok.payload {
                    ResultPayload::QueueDepth(rows) => {
                        for row in rows {
                            hist.merge_from(&row.report.read_latency);
                        }
                    }
                    // The merged report's histogram is already the merge of
                    // the per-cube ones; folding it alone avoids counting a
                    // cube twice.
                    ResultPayload::MultiCube(mc) => hist.merge_from(&mc.merged.read_latency),
                    _ => {}
                }
            }
            Err(err) => {
                self.registry
                    .counter(&format!("serve.errors.{}", err.code.as_str()))
                    .inc();
            }
        }
    }

    /// Atomically reserve `n` in-flight slots, or explain why not.
    fn try_admit(&self, n: usize) -> Result<AdmissionGuard<'_>, String> {
        let max = self.limits.admission.max_in_flight;
        let mut current = self.in_flight.load(Ordering::Acquire);
        loop {
            if current.saturating_add(n) > max {
                return Err(format!(
                    "engine saturated: {current} scenarios in flight, \
                     admitting {n} more would exceed the limit of {max}"
                ));
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + n,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Ok(AdmissionGuard {
                        counter: &self.in_flight,
                        admitted: n,
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Serve the admitted spec at `index` of its batch. Its budget is the
    /// engine-wide one plus the drain signal, the telemetry sink, any fault
    /// the installed [`FaultPlan`] addresses to `index` and, when `record`
    /// asks, a trace sink. The spec runs under `catch_unwind`, and its
    /// calibration lookups are timed apart from the rest of the run.
    fn serve_one(
        &self,
        index: usize,
        spec: &ScenarioSpec,
        record: Option<TraceLevel>,
        admission_us: u64,
    ) -> Served {
        let mut budget = self
            .limits
            .budget
            .clone()
            .with_drain(self.drain.clone())
            .with_sink(RunSink::new(Arc::clone(&self.registry)));
        if let Some(fault) = self
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.fault_for(index))
        {
            budget = budget.with_fault(fault);
        }
        let sink = record.map(|level| TraceSink::new(TraceConfig::with_level(level)));
        if let Some(sink) = &sink {
            budget = budget.with_trace(sink.clone());
        }
        let mut calibration = Duration::ZERO;
        let start = Instant::now();
        // catch_unwind sits INSIDE the per-scenario worker closure: a panic
        // anywhere below (including one propagated up from a nested
        // per-channel or per-cube worker) unwinds to here and becomes this
        // scenario's structured error, never the batch's.
        let result = match catch_unwind(AssertUnwindSafe(|| {
            self.run(spec, &budget, &mut calibration)
        })) {
            Ok(Ok(payload)) => Ok(ScenarioResult {
                name: spec.name().to_string(),
                payload,
            }),
            Ok(Err(err)) => Err(ServerError::invalid_spec(index, err)),
            Err(payload) => Err(ServerError::panicked(
                index,
                panic_message(payload.as_ref()),
            )),
        };
        let simulate = start.elapsed().saturating_sub(calibration);
        Served {
            result,
            spans: ServeSpans {
                admission_us,
                calibration_us: calibration.as_micros() as u64,
                simulate_us: simulate.as_micros() as u64,
            },
            trace: sink.map(|sink| sink.take()).unwrap_or_default(),
        }
    }

    /// Run one scenario through its pre-existing direct-call path under
    /// `budget`. Loop scenarios thread the budget through their runners
    /// (each run loop meters independently); analytic scenarios have no
    /// loop to meter and honor only entry faults
    /// ([`RunBudget::entry_fault`]), which fire before any calibration
    /// lookup. The lookups add their wall-clock time to `calibration`.
    fn run(
        &self,
        spec: &ScenarioSpec,
        budget: &RunBudget,
        calibration: &mut Duration,
    ) -> Result<ResultPayload, SpecError> {
        let payload = match spec {
            ScenarioSpec::Sweep {
                name,
                kind,
                seq_len,
                calibrated,
            } => {
                budget.entry_fault();
                let (hbm4, rome) = timed(calibration, || self.models(*calibrated));
                let set = ScenarioSet::new(self.accel).with(Scenario {
                    name: name.clone(),
                    kind: *kind,
                    seq_len: *seq_len,
                });
                let report = set
                    .run_with_models(&hbm4, &rome)
                    .pop()
                    .ok_or_else(|| SpecError("internal: sweep produced no report".into()))?;
                ResultPayload::Sweep(report)
            }
            ScenarioSpec::QueueDepth {
                system,
                depths,
                total_bytes,
                granularity,
                ..
            } => {
                if depths.is_empty() || depths.contains(&0) {
                    return Err(SpecError("queue-depth sweep needs non-zero depths".into()));
                }
                if *granularity == 0 || *total_bytes == 0 {
                    return Err(SpecError("queue-depth sweep needs traffic".into()));
                }
                ResultPayload::QueueDepth(queue_depth_sweep(
                    *system,
                    depths,
                    *total_bytes,
                    *granularity,
                    budget,
                ))
            }
            ScenarioSpec::ClosedLoop {
                system,
                channels,
                windows,
                max_ns,
                workload,
                ..
            } => {
                if *channels == 0 || windows.is_empty() || windows.contains(&0) {
                    return Err(SpecError(
                        "closed-loop sweep needs channels and non-zero windows".into(),
                    ));
                }
                // Build one fresh, identically-seeded source per window up
                // front: a workload that fails to lower is a structured
                // error before any simulation runs.
                let mut sources = Vec::with_capacity(windows.len());
                for &window in windows {
                    sources.push((window, workload.build_source()?));
                }
                ResultPayload::ClosedLoop(closed_loop_points(
                    *system, *channels, sources, *max_ns, budget,
                ))
            }
            ScenarioSpec::Calibration { system, .. } => {
                budget.entry_fault();
                ResultPayload::Calibration(timed(calibration, || {
                    self.calibration.get_or_calibrate(*system)
                }))
            }
            ScenarioSpec::Tpot {
                model,
                batch,
                seq_len,
                calibrated,
                ..
            } => {
                budget.entry_fault();
                let model = model_by_name(model)?;
                let (hbm4, rome) = timed(calibration, || self.models(*calibrated));
                ResultPayload::Tpot {
                    hbm4: decode_tpot(&model, *batch, *seq_len, &self.accel, &hbm4),
                    rome: decode_tpot(&model, *batch, *seq_len, &self.accel, &rome),
                }
            }
            ScenarioSpec::MultiCube {
                system,
                cubes,
                channels_per_cube,
                bytes_per_cube,
                max_ns,
                ..
            } => {
                if *cubes == 0 || *channels_per_cube == 0 || *bytes_per_cube == 0 {
                    return Err(SpecError(
                        "multi-cube run needs cubes, channels, and traffic".into(),
                    ));
                }
                ResultPayload::MultiCube(Box::new(run_multi_cube(
                    *system,
                    *cubes,
                    *channels_per_cube,
                    *bytes_per_cube,
                    *max_ns,
                    budget,
                )))
            }
        };
        Ok(payload)
    }

    /// The `(hbm4, rome)` memory models a sweep or TPOT spec runs against:
    /// nominal, or calibrated through the engine's cache (one lookup per
    /// system).
    fn models(&self, calibrated: bool) -> (MemoryModel, MemoryModel) {
        if calibrated {
            MemoryModel::calibrated_pair_cached(&self.accel, &self.calibration)
        } else {
            (
                MemoryModel::hbm4_baseline(&self.accel),
                MemoryModel::rome(&self.accel),
            )
        }
    }

    /// Append one served request to the black box; a panicked serve dumps
    /// the box to stderr immediately (the crash-adjacent moment the black
    /// box exists for).
    fn record_flight(
        &self,
        spec: &ScenarioSpec,
        spans: ServeSpans,
        result: &Result<ScenarioResult, ServerError>,
    ) {
        let outcome = match result {
            Ok(_) => "ok",
            Err(err) => err.code.as_str(),
        };
        {
            let mut bb = self.black_box.lock().unwrap_or_else(|p| p.into_inner());
            let record = ServedRecord {
                seq: bb.served,
                name: spec.name().to_string(),
                spec_hash: spec_fingerprint(spec),
                spans,
                outcome,
            };
            bb.served += 1;
            if bb.records.len() == BLACK_BOX_CAPACITY {
                bb.records.pop_front();
            }
            bb.records.push_back(record);
        }
        if matches!(result, Err(err) if err.code == ErrorCode::Panicked) {
            self.dump_black_box("panic");
        }
    }

    /// The black box's current contents, oldest first.
    pub fn flight_records(&self) -> Vec<ServedRecord> {
        let bb = self.black_box.lock().unwrap_or_else(|p| p.into_inner());
        bb.records.iter().cloned().collect()
    }

    /// The black box as a canonical-JSON object — the body of the
    /// `{"op":"flight"}` control frame and of each stderr dump: total
    /// requests ever served (so a reader knows how much history the bounded
    /// ring has shed) and the retained records, oldest first.
    pub fn flight_json(&self) -> Json {
        let bb = self.black_box.lock().unwrap_or_else(|p| p.into_inner());
        let records: Vec<Json> = bb.records.iter().map(ServedRecord::to_json).collect();
        Json::obj([
            ("scenario", Json::from("flight")),
            ("served", Json::from(bb.served)),
            ("records", Json::Arr(records)),
        ])
    }

    /// Write the black box to stderr, tagged with why it was dumped.
    fn dump_black_box(&self, why: &str) {
        eprintln!(
            "rome-server black box ({why}): {}",
            self.flight_json().emit()
        );
    }

    fn record_spans(&self, spans: &ServeSpans) {
        self.registry
            .histogram("server.span.admission_us")
            .record(spans.admission_us);
        self.registry
            .histogram("server.span.calibration_us")
            .record(spans.calibration_us);
        self.registry
            .histogram("server.span.simulate_us")
            .record(spans.simulate_us);
    }

    /// A canonical-JSON snapshot of the serving stack's metrics: every
    /// registry counter, gauge, and histogram, plus point-in-time figures
    /// the registry doesn't own (the calibration cache's hit/miss totals,
    /// the in-flight and uptime gauges, and the monotone `stats.seq`
    /// snapshot counter a consumer orders snapshots by). Keys render in
    /// lexicographic order. This is the body of the `{"op":"stats"}`
    /// control frame and of each `--stats-interval` JSONL line.
    pub fn stats_json(&self) -> Json {
        let mut snap = self.registry.snapshot();
        let (hits, misses) = self.calibration.stats();
        snap.counters.push(("cache.calibration.hits".into(), hits));
        snap.counters
            .push(("cache.calibration.misses".into(), misses));
        snap.counters.push((
            "stats.seq".into(),
            self.stats_seq.fetch_add(1, Ordering::AcqRel) + 1,
        ));
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges
            .push(("engine.in_flight".into(), self.in_flight() as i64));
        snap.gauges.push((
            "server.uptime_s".into(),
            self.started.elapsed().as_secs() as i64,
        ));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let counters = Json::Obj(
            snap.counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::from(v)))
                .collect(),
        );
        let gauges = Json::Obj(
            snap.gauges
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                .collect(),
        );
        let histograms = Json::Obj(
            snap.histograms
                .into_iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(k, h)| (k.to_string(), histogram_json(&h)))
                .collect(),
        );
        Json::obj([
            ("scenario", Json::from("stats")),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

/// One request as [`ScenarioEngine::serve_observed`] served it.
#[derive(Debug)]
pub struct Served {
    /// The scenario's result, or the structured error that kept it from
    /// producing one.
    pub result: Result<ScenarioResult, ServerError>,
    /// Wall-clock phase spans of the serve.
    pub spans: ServeSpans,
    /// The sim-time flight recorder's events; empty unless the serve was
    /// recorded.
    pub trace: TraceBuffer,
}

/// Wall-clock phase timings of one serve, in microseconds. Every served
/// request has them, and they feed the `server.span.*` histograms and the
/// black box. These are ops measurements — nondeterministic by nature — and
/// are kept strictly outside [`ScenarioResult`]; a front end attaches them
/// to a response only when the request's `trace` flag asked for them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSpans {
    /// Time in the admission gate (drain check, spec-count and cost limits,
    /// slot reserve), shared by every spec of the batch.
    pub admission_us: u64,
    /// Time in the calibration lookups the spec makes (≈0 on a warm cache).
    pub calibration_us: u64,
    /// The rest of the time in the scenario's direct-call serving path.
    pub simulate_us: u64,
}

impl ServeSpans {
    /// The spans as a JSON object (stable keys, µs integers).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("admission_us", Json::from(self.admission_us)),
            ("calibration_us", Json::from(self.calibration_us)),
            ("simulate_us", Json::from(self.simulate_us)),
        ])
    }
}

/// Run `f`, adding its wall-clock time to `elapsed`.
fn timed<T>(elapsed: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *elapsed += start.elapsed();
    out
}

/// The summary of one histogram a stats snapshot renders: sample count,
/// exact max, mean, and bucket-resolution p50/p95/p99 (the `sum` stays
/// internal — it can exceed JSON's exact-integer range).
fn histogram_json(h: &rome_telemetry::LatencyHistogram) -> Json {
    Json::obj([
        ("count", Json::from(h.count())),
        ("max", Json::from(h.max())),
        ("mean", Json::Num(h.mean())),
        ("p50", Json::from(h.p50())),
        ("p95", Json::from(h.p95())),
        ("p99", Json::from(h.p99())),
    ])
}

/// The §V-A queue-depth sweep: one streaming-read run per depth on a fresh
/// single-channel controller (the exact shape of the pre-existing
/// `queue_depth_table` experiment). Each depth's run is metered against its
/// own meter of `budget`, so an armed fault fires once per row.
fn queue_depth_sweep(
    system: MemorySystemKind,
    depths: &[usize],
    total_bytes: u64,
    granularity: u64,
    budget: &RunBudget,
) -> Vec<QueueDepthRow> {
    depths
        .iter()
        .map(|&depth| {
            let reqs = rome_mc::workload::streaming_reads(0, total_bytes, granularity);
            let report = match system {
                MemorySystemKind::Hbm4 => {
                    let mut ctrl =
                        ChannelController::new(ControllerConfig::hbm4_with_queue_depth(depth));
                    rome_engine::simulate::run_with_budget(&mut ctrl, reqs, 50_000_000, budget)
                }
                MemorySystemKind::Rome | MemorySystemKind::RomeIsoBandwidth => {
                    let mut ctrl =
                        RomeController::new(RomeControllerConfig::with_queue_depth(depth));
                    rome_engine::simulate::run_with_budget(&mut ctrl, reqs, 50_000_000, budget)
                }
            };
            QueueDepthRow { depth, report }
        })
        .collect()
}

/// The sharded multi-cube run: one multi-channel system per cube, each fed
/// one `bytes_per_cube` sequential read (DMA-style, fragmented at the
/// system's access granularity across its channels), cubes run in parallel
/// threads, per-cube reports merged. Every channel of every cube meters
/// independently against `budget`; an aborted channel tags its cube's
/// report, and [`merge_reports`] propagates the tag to the merged report.
fn run_multi_cube(
    system: MemorySystemKind,
    cubes: u16,
    channels_per_cube: u16,
    bytes_per_cube: u64,
    max_ns: u64,
    budget: &RunBudget,
) -> MultiCubeReport {
    let per_cube = match system {
        MemorySystemKind::Hbm4 => {
            let mut systems: Vec<MemorySystem> = (0..cubes)
                .map(|_| MemorySystem::new(MemorySystemConfig::hbm4(channels_per_cube)))
                .collect();
            for sys in &mut systems {
                sys.submit(MemoryRequest::read(1, 0, bytes_per_cube, 0));
            }
            run_cubes(&mut systems, |_, sys| {
                let (done, _, aborted) = sys.run_until_idle(max_ns, budget);
                report_from_host_completions(&sys.stats_snapshot(), &done).with_abort(aborted)
            })
        }
        MemorySystemKind::Rome | MemorySystemKind::RomeIsoBandwidth => {
            let mut systems: Vec<RomeMemorySystem> = (0..cubes)
                .map(|_| RomeMemorySystem::new(RomeSystemConfig::with_channels(channels_per_cube)))
                .collect();
            for sys in &mut systems {
                sys.submit(MemoryRequest::read(1, 0, bytes_per_cube, 0));
            }
            run_cubes(&mut systems, |_, sys| {
                let (done, _, aborted) = sys.run_until_idle(max_ns, budget);
                report_from_host_completions(&sys.stats_snapshot(), &done).with_abort(aborted)
            })
        }
    };
    MultiCubeReport {
        merged: merge_reports(&per_cube),
        per_cube,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorCode;
    use rome_sim::sweep::SweepKind;

    #[test]
    fn multi_cube_shards_and_merges() {
        let engine = ScenarioEngine::new();
        let spec = ScenarioSpec::MultiCube {
            name: "cubes".into(),
            system: MemorySystemKind::Rome,
            cubes: 2,
            channels_per_cube: 4,
            bytes_per_cube: 256 * 1024,
            max_ns: 5_000_000,
        };
        let result = engine.serve_batch(&[spec]).remove(0).unwrap();
        let ResultPayload::MultiCube(report) = &result.payload else {
            panic!("wrong payload");
        };
        assert_eq!(report.per_cube.len(), 2);
        // Identical cubes fed identical traffic produce identical reports.
        assert_eq!(report.per_cube[0], report.per_cube[1]);
        assert_eq!(report.merged.requests_completed, 2);
        assert_eq!(report.merged.bytes_read, 2 * 256 * 1024);
        // Parallel shards: merged elapsed time is a cube's, not the sum.
        assert_eq!(report.merged.finish_time, report.per_cube[0].finish_time);
        // Merged bandwidth is the cube aggregate at matched finish times.
        assert!(
            (report.merged.achieved_bandwidth_gbps
                - 2.0 * report.per_cube[0].achieved_bandwidth_gbps)
                .abs()
                < 1e-9
        );
        assert_eq!(report.merged.aborted, None);
    }

    fn queue_depth(name: &str) -> ScenarioSpec {
        ScenarioSpec::QueueDepth {
            name: name.into(),
            system: MemorySystemKind::Hbm4,
            depths: vec![4],
            total_bytes: 256 * 1024,
            granularity: 4096,
        }
    }

    #[test]
    fn untraced_batches_carry_real_spans() {
        let engine = ScenarioEngine::new();
        let results = engine.serve_batch(&[queue_depth("a"), queue_depth("b")]);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        // Nobody asked for spans, yet both specs were timed: the black box
        // and the span histograms see every request.
        let records = engine.flight_records();
        assert_eq!(records.len(), 2);
        for record in &records {
            assert!(record.spans.simulate_us > 0, "{record:?}");
        }
        let simulate = engine.registry().histogram("server.span.simulate_us");
        assert_eq!(simulate.count(), 2);
    }

    #[test]
    fn drained_batches_are_counted_and_recorded_per_spec() {
        let engine = ScenarioEngine::new();
        engine.start_drain(Duration::from_millis(1));
        let results = engine.serve_batch(&[queue_depth("a"), queue_depth("b")]);
        for (i, result) in results.iter().enumerate() {
            let err = result.as_ref().unwrap_err();
            assert_eq!(err.code, ErrorCode::Unavailable);
            assert_eq!(err.scenario_index, i);
        }
        let registry = engine.registry();
        assert_eq!(registry.counter("serve.errors.unavailable").get(), 2);
        assert_eq!(registry.counter("admission.rejected_draining").get(), 2);
        let records = engine.flight_records();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.outcome == "unavailable"));
    }

    #[test]
    fn bad_specs_do_not_poison_a_batch() {
        let engine = ScenarioEngine::new();
        let specs = vec![
            ScenarioSpec::Tpot {
                name: "bad-model".into(),
                model: "gpt-2".into(),
                batch: 8,
                seq_len: 4096,
                calibrated: false,
            },
            ScenarioSpec::Sweep {
                name: "fig13".into(),
                kind: SweepKind::Figure13,
                seq_len: 4096,
                calibrated: false,
            },
        ];
        let results = engine.serve_batch(&specs);
        let err = results[0].as_ref().unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidSpec);
        assert_eq!(err.scenario_index, 0);
        let ok = results[1].as_ref().unwrap();
        assert_eq!(ok.name, "fig13");
        assert!(matches!(&ok.payload, ResultPayload::Sweep(r) if r.figure13.is_some()));
    }

    #[test]
    fn oversized_batches_are_rejected_permanently() {
        let mut limits = EngineLimits::default();
        limits.admission.max_batch_specs = 1;
        let engine = ScenarioEngine::with_limits(limits);
        let spec = |name: &str| ScenarioSpec::Tpot {
            name: name.into(),
            model: "grok-1".into(),
            batch: 8,
            seq_len: 4096,
            calibrated: false,
        };
        let results = engine.serve_batch(&[spec("a"), spec("b")]);
        assert_eq!(results.len(), 2);
        for (i, r) in results.iter().enumerate() {
            let err = r.as_ref().unwrap_err();
            assert_eq!(err.code, ErrorCode::Rejected);
            assert_eq!(err.scenario_index, i);
            assert!(
                !err.is_transient(),
                "size rejection never succeeds on retry"
            );
        }
        // Rejection sheds before admission: nothing stays in flight and a
        // conforming batch still serves.
        assert_eq!(engine.in_flight(), 0);
        assert!(engine.serve_batch(&[spec("ok")])[0].is_ok());
    }

    #[test]
    fn saturation_rejections_carry_a_retry_hint() {
        let mut limits = EngineLimits::default();
        limits.admission.max_in_flight = 0;
        limits.admission.retry_after_ms = 7;
        let engine = ScenarioEngine::with_limits(limits);
        let specs = vec![ScenarioSpec::Tpot {
            name: "t".into(),
            model: "grok-1".into(),
            batch: 8,
            seq_len: 4096,
            calibrated: false,
        }];
        let results = engine.serve_batch(&specs);
        let err = results[0].as_ref().unwrap_err();
        assert_eq!(err.code, ErrorCode::Rejected);
        assert_eq!(err.retry_after_ms, Some(7));
        assert!(err.is_transient());
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn cost_estimates_scale_with_spec_shape() {
        let small = ScenarioSpec::QueueDepth {
            name: "s".into(),
            system: MemorySystemKind::Rome,
            depths: vec![1],
            total_bytes: 4096,
            granularity: 4096,
        };
        let big = ScenarioSpec::QueueDepth {
            name: "b".into(),
            system: MemorySystemKind::Rome,
            depths: vec![1, 2, 4, 8],
            total_bytes: 1 << 30,
            granularity: 64,
        };
        assert!(big.estimated_cost() > small.estimated_cost());
        let mut limits = EngineLimits::default();
        limits.admission.max_batch_cost = small.estimated_cost();
        let engine = ScenarioEngine::with_limits(limits);
        let results = engine.serve_batch(std::slice::from_ref(&big));
        assert_eq!(results[0].as_ref().unwrap_err().code, ErrorCode::Rejected);
    }

    #[test]
    fn fault_plans_address_specific_scenarios() {
        let plan = FaultPlan::new(42)
            .with_fault(1, EngineFault::panic_at(3))
            .with_fault(1, EngineFault::exhaust_at(9));
        assert_eq!(plan.fault_for(0), None);
        // Latest arming wins.
        assert_eq!(plan.fault_for(1), Some(EngineFault::exhaust_at(9)));
        assert_eq!(plan.seed(), 42);
        // Derived events are reproducible and bounded.
        let a = plan.derived_event(5, 1000);
        assert_eq!(a, FaultPlan::new(42).derived_event(5, 1000));
        assert!(a < 1000);
        assert_eq!(plan.derived_event(5, 0), 0);
    }
}
