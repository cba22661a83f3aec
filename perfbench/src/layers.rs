//! Layer accounting from outside the program: wrappers that implement the
//! engine's public traits by delegation and time the calls a driver makes
//! into them, and the per-layer tally the traced runs fill.
//!
//! Nothing here changes what the wrapped code computes: every call is
//! forwarded unchanged, so a traced run must produce reports identical to
//! an untraced one (the workloads check that they do).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rome_engine::request::{CompletedRequest, MemoryRequest, RequestKind};
use rome_engine::simulate::run_with_budget;
use rome_engine::{
    HostCompletion, MemoryController, RunBudget, RunSink, SimulationReport, StatsSnapshot,
    TrafficSource,
};
use rome_hbm::units::Cycle;
use rome_telemetry::trace::{TraceBuffer, TraceConfig};
use rome_telemetry::Registry;

/// Calls into one wrapped controller: time in `tick_into` and
/// `next_event_at`, and how many ticks issued a command.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ControllerCalls {
    pub tick_ns: u64,
    pub ticks: u64,
    pub issued_ticks: u64,
    pub next_event_ns: u64,
}

impl ControllerCalls {
    /// Seconds spent inside the controller.
    pub fn busy_s(&self) -> f64 {
        (self.tick_ns + self.next_event_ns) as f64 * 1e-9
    }
}

/// A [`MemoryController`] that forwards every call to `inner` and times
/// `tick_into` and `next_event_at`.
#[derive(Debug)]
pub struct TimedController<C> {
    inner: C,
    tick_ns: u64,
    ticks: u64,
    issued_ticks: u64,
    // `next_event_at` takes `&self`.
    next_event_ns: Cell<u64>,
}

impl<C> TimedController<C> {
    pub fn new(inner: C) -> Self {
        TimedController {
            inner,
            tick_ns: 0,
            ticks: 0,
            issued_ticks: 0,
            next_event_ns: Cell::new(0),
        }
    }

    pub fn calls(&self) -> ControllerCalls {
        ControllerCalls {
            tick_ns: self.tick_ns,
            ticks: self.ticks,
            issued_ticks: self.issued_ticks,
            next_event_ns: self.next_event_ns.get(),
        }
    }
}

impl<C: MemoryController> MemoryController for TimedController<C> {
    type Entry = C::Entry;

    fn enqueue(&mut self, request: MemoryRequest) -> bool {
        self.inner.enqueue(request)
    }

    fn enqueue_entry(&mut self, entry: Self::Entry) -> bool {
        self.inner.enqueue_entry(entry)
    }

    fn entry_kind(entry: &Self::Entry) -> RequestKind {
        C::entry_kind(entry)
    }

    fn tick_into(&mut self, now: Cycle, completed: &mut Vec<CompletedRequest>) -> bool {
        let start = Instant::now();
        let issued = self.inner.tick_into(now, completed);
        self.tick_ns += start.elapsed().as_nanos() as u64;
        self.ticks += 1;
        self.issued_ticks += u64::from(issued);
        issued
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let start = Instant::now();
        let next = self.inner.next_event_at(now);
        self.next_event_ns
            .set(self.next_event_ns.get() + start.elapsed().as_nanos() as u64);
        next
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn slots_free(&self) -> usize {
        self.inner.slots_free()
    }

    fn slots_free_for(&self, kind: RequestKind) -> usize {
        self.inner.slots_free_for(kind)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    fn set_trace(&mut self, config: TraceConfig) {
        self.inner.set_trace(config)
    }

    fn take_trace(&mut self) -> TraceBuffer {
        self.inner.take_trace()
    }
}

/// A [`TrafficSource`] that forwards every call to `inner`, timing all of
/// them and counting `pull_into` calls.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    pull_ns: u64,
    pulls: u64,
    // `next_arrival_at` and `is_exhausted` take `&self`.
    query_ns: Cell<u64>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            pull_ns: 0,
            pulls: 0,
            query_ns: Cell::new(0),
        }
    }

    /// Seconds spent inside the source.
    pub fn busy_s(&self) -> f64 {
        (self.pull_ns + self.query_ns.get()) as f64 * 1e-9
    }

    pub fn pulls(&self) -> u64 {
        self.pulls
    }
}

impl<S: TrafficSource> TrafficSource for TimedSource<S> {
    fn next_arrival_at(&self) -> Option<Cycle> {
        let start = Instant::now();
        let next = self.inner.next_arrival_at();
        self.query_ns
            .set(self.query_ns.get() + start.elapsed().as_nanos() as u64);
        next
    }

    fn pull_into(&mut self, now: Cycle, out: &mut Vec<MemoryRequest>) {
        let start = Instant::now();
        self.inner.pull_into(now, out);
        self.pull_ns += start.elapsed().as_nanos() as u64;
        self.pulls += 1;
    }

    fn on_completion(&mut self, completion: &HostCompletion) {
        let start = Instant::now();
        self.inner.on_completion(completion);
        self.pull_ns += start.elapsed().as_nanos() as u64;
    }

    fn is_exhausted(&self) -> bool {
        let start = Instant::now();
        let done = self.inner.is_exhausted();
        self.query_ns
            .set(self.query_ns.get() + start.elapsed().as_nanos() as u64);
        done
    }
}

/// Per-layer totals of one traced pass: self times in seconds and exact
/// work counts, keyed by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub seconds: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tally {
    pub fn add_s(&mut self, name: &'static str, seconds: f64) {
        *self.seconds.entry(name).or_default() += seconds;
    }

    pub fn add_n(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn s(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    pub fn n(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Fold one wrapped controller's calls in under its layer's metrics.
    pub fn add_controller(&mut self, layer: Layer, calls: &ControllerCalls) {
        let (tick, next, ticks, issued) = match layer {
            Layer::Mc => (
                "mc.tick_s",
                "mc.next_event_s",
                "mc.ticks",
                "mc.issued_ticks",
            ),
            Layer::Core => (
                "core.tick_s",
                "core.next_event_s",
                "core.ticks",
                "core.issued_ticks",
            ),
        };
        self.add_s(tick, calls.tick_ns as f64 * 1e-9);
        self.add_s(next, calls.next_event_ns as f64 * 1e-9);
        self.add_n(ticks, calls.ticks);
        self.add_n(issued, calls.issued_ticks);
    }

    /// The sum of every self time: what the layers account for.
    pub fn self_total_s(&self) -> f64 {
        self.seconds.values().sum()
    }
}

/// Drive `controller` with `requests` through the engine's single-channel
/// driver, exactly as `run_to_completion` does, with the controller wrapped
/// and a [`RunSink`] on a private registry attached to the budget. Folds the
/// controller's calls, the driver's self time and the sink's event counts
/// into `tally`; returns the report and the run's wall-clock seconds.
pub fn run_single_traced<C: MemoryController>(
    controller: C,
    requests: Vec<MemoryRequest>,
    layer: Layer,
    tally: &mut Tally,
) -> (SimulationReport, f64) {
    let registry = Arc::new(Registry::new());
    let budget = RunBudget::unlimited().with_sink(RunSink::new(Arc::clone(&registry)));
    let mut timed = TimedController::new(controller);
    let start = Instant::now();
    let report = run_with_budget(&mut timed, requests, RUN_LIMIT_NS, &budget);
    let total = start.elapsed().as_secs_f64();
    let calls = timed.calls();
    tally.add_controller(layer, &calls);
    tally.add_s("engine.driver_self_s", total - calls.busy_s());
    tally.add_sink(&registry);
    (report, total)
}

/// The time limit `run_to_completion` applies, in simulated ns.
pub const RUN_LIMIT_NS: Cycle = 50_000_000;

impl Tally {
    /// Fold a [`RunSink`] registry's run-level counters in.
    pub fn add_sink(&mut self, registry: &Registry) {
        self.add_n("engine.events", registry.counter("engine.events").get());
        self.add_n(
            "engine.idle_wakeups",
            registry.counter("engine.idle_wakeups").get(),
        );
    }
}

/// Which controller layer a wrapped controller belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The conventional HBM4 controller (`rome-mc`).
    Mc,
    /// The RoMe row-granularity controller (`rome-core`).
    Core,
}
