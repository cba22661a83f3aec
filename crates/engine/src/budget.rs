//! Cooperative run budgets: bounded simulation with tagged partial results.
//!
//! Every driver in [`crate::simulate`] and [`crate::system`] historically ran
//! until its workload drained or a hard `max_ns` cutoff hit — and a runaway
//! scenario (a huge sweep, a stuck source) simply ran forever or silently
//! truncated. A [`RunBudget`] makes the bound explicit and *observable*: it
//! limits simulated time, event-loop iterations, and wall-clock time, and a
//! run that trips any limit returns its partial report tagged with an
//! [`AbortReason`] instead of hanging or pretending it finished.
//!
//! The budget is checked *cooperatively*: the run loop calls
//! [`BudgetMeter::on_step`] once per iteration. The hot path is exactly two
//! integer compares — the meter precomputes `next_slow`, the earliest event
//! ordinal at which *anything* (armed fault, event ceiling, wall-clock
//! probe) needs attention, and only an ordinal reaching it (or the simulated
//! clock reaching `max_sim_ns`) takes the out-of-line slow path, which
//! re-runs the original check sequence and recomputes `next_slow`. An
//! unlimited budget ([`RunBudget::unlimited`], also the `Default`) therefore
//! costs two always-false compares per event — no `Option` branching, no
//! per-event wall-clock probe — and keeps every legacy driver bit-identical:
//! no limit ever trips, no report is tagged, and the equivalence suites pin
//! that the meter's presence does not perturb a single cycle. Wall-clock
//! time is the only expensive probe (`Instant::now` is a syscall on some
//! platforms), so it is sampled every [`RunBudget::check_interval`] events
//! rather than every event.
//!
//! The same meter doubles as the deterministic fault-injection harness: an
//! [`EngineFault`] rides on the budget and fires at an exact event ordinal
//! (panic, artificial slowdown, or forced budget exhaustion), which is what
//! lets `tests/fault_injection.rs` prove panic isolation and abort semantics
//! without any nondeterministic scaffolding. The hooks are compiled in
//! unconditionally — the fault-free bit-identity guarantee above is exactly
//! the claim that this costs nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rome_telemetry::trace::{TraceBuffer, TraceConfig};

use rome_hbm::units::Cycle;

/// Why a budgeted run stopped before its workload drained.
///
/// Carried on `SimulationReport::aborted` (and the closed-loop point type);
/// serialized as the snake_case string from [`AbortReason::as_str`]. A report
/// with `aborted: None` ran to its natural end (or to a legacy untagged
/// `max_ns` cutoff, which predates budgets and keeps its old meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The simulated clock reached [`RunBudget::max_sim_ns`].
    SimTimeBudget,
    /// The run loop executed [`RunBudget::max_events`] iterations.
    EventBudget,
    /// The wall-clock deadline of [`RunBudget::wall_clock`] passed.
    WallClockDeadline,
    /// A [`crate::source::TrafficSource`] kept promising an arrival that
    /// never became pullable; the driver gave up instead of spinning.
    StalledSource,
    /// An [`EngineFault`] with [`FaultAction::ExhaustBudget`] fired.
    InjectedFault,
    /// A [`DrainSignal`] attached to the run's budget passed its drain
    /// deadline: the host is shutting down and in-flight work converts to
    /// partial results instead of being dropped.
    Drained,
}

impl AbortReason {
    /// Stable snake_case name, used verbatim in serialized reports.
    pub fn as_str(self) -> &'static str {
        match self {
            AbortReason::SimTimeBudget => "sim_time_budget",
            AbortReason::EventBudget => "event_budget",
            AbortReason::WallClockDeadline => "wall_clock_deadline",
            AbortReason::StalledSource => "stalled_source",
            AbortReason::InjectedFault => "injected_fault",
            AbortReason::Drained => "drained",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic in the worker thread — the isolation case: the serving layer
    /// must convert this into one structured error without losing the batch.
    Panic,
    /// Sleep this many wall-clock microseconds, once, then continue. The
    /// simulated schedule is untouched, so results stay bit-identical — this
    /// models a slow worker, not a slow memory system.
    SlowdownUs(u64),
    /// Abort the run as if its budget were exhausted
    /// ([`AbortReason::InjectedFault`]).
    ExhaustBudget,
}

/// A deterministic fault armed at an exact event ordinal of a run loop.
///
/// `at_event == 0` fires before the first event, which is also how analytic
/// (loop-free) paths honor an entry fault via [`RunBudget::entry_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineFault {
    /// Event ordinal (0-based loop iteration) at which the fault fires.
    pub at_event: u64,
    /// What happens when it fires.
    pub action: FaultAction,
}

impl EngineFault {
    /// A panic armed at event `at_event`.
    pub fn panic_at(at_event: u64) -> Self {
        EngineFault {
            at_event,
            action: FaultAction::Panic,
        }
    }

    /// A one-shot wall-clock slowdown of `us` microseconds at `at_event`.
    pub fn slowdown_at(at_event: u64, us: u64) -> Self {
        EngineFault {
            at_event,
            action: FaultAction::SlowdownUs(us),
        }
    }

    /// Forced budget exhaustion at `at_event`.
    pub fn exhaust_at(at_event: u64) -> Self {
        EngineFault {
            at_event,
            action: FaultAction::ExhaustBudget,
        }
    }
}

/// Default number of events between wall-clock deadline probes.
pub const DEFAULT_CHECK_INTERVAL: u64 = 8192;

/// A shared, late-binding drain deadline: the graceful-shutdown half of the
/// budget layer.
///
/// A [`RunBudget`]'s other limits are fixed when the run starts; a drain
/// signal is the one that *arrives mid-run* — a serving front end hands every
/// admitted scenario a clone of its signal, and on shutdown calls
/// [`DrainSignal::start_drain`] with a grace period. Runs already in flight
/// keep going until the grace expires, then abort with
/// [`AbortReason::Drained`] and return their partial reports (PR 6 abort
/// semantics: work converts to tagged partials, never silent drops). A signal
/// that never starts draining costs one atomic load per deadline probe
/// (every [`RunBudget::check_interval`] events, on the metering slow path)
/// and perturbs nothing.
///
/// Clones share state; `start_drain` is idempotent and the earliest deadline
/// wins, so racing shutdown paths cannot extend the grace.
#[derive(Debug, Clone)]
pub struct DrainSignal {
    inner: Arc<DrainInner>,
}

#[derive(Debug)]
struct DrainInner {
    /// Anchor for the atomic deadline: deadlines are stored as nanoseconds
    /// after this instant (`u64::MAX` = not draining).
    epoch: Instant,
    deadline_ns: AtomicU64,
}

impl DrainSignal {
    /// A fresh signal, not draining.
    pub fn new() -> Self {
        DrainSignal {
            inner: Arc::new(DrainInner {
                epoch: Instant::now(),
                deadline_ns: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Begin draining: in-flight runs metering against this signal abort
    /// with [`AbortReason::Drained`] once `grace` has elapsed. Idempotent;
    /// the earliest deadline across all callers wins.
    pub fn start_drain(&self, grace: Duration) {
        let now = self.inner.epoch.elapsed();
        let deadline = now.saturating_add(grace);
        let ns = u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX - 1);
        // Never store the MAX sentinel as a real deadline.
        self.inner
            .deadline_ns
            .fetch_min(ns.min(u64::MAX - 1), Ordering::AcqRel);
    }

    /// Whether [`DrainSignal::start_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.inner.deadline_ns.load(Ordering::Acquire) != u64::MAX
    }

    /// Whether the drain deadline has passed (always `false` while not
    /// draining).
    pub fn deadline_passed(&self) -> bool {
        let ns = self.inner.deadline_ns.load(Ordering::Acquire);
        ns != u64::MAX && self.inner.epoch.elapsed() >= Duration::from_nanos(ns)
    }

    /// Time until the drain deadline: `None` while not draining,
    /// `Some(ZERO)` once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        let ns = self.inner.deadline_ns.load(Ordering::Acquire);
        if ns == u64::MAX {
            return None;
        }
        Some(Duration::from_nanos(ns).saturating_sub(self.inner.epoch.elapsed()))
    }
}

impl Default for DrainSignal {
    fn default() -> Self {
        DrainSignal::new()
    }
}

impl PartialEq for DrainSignal {
    /// Signals compare by identity: two clones of one signal are equal, two
    /// independently created signals are not (matching the sharing
    /// semantics, which is what budget equality cares about).
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// A shared telemetry sink for run-level engine counters.
///
/// Attached to a [`RunBudget`] by a serving layer that wants aggregate ops
/// metrics; the drivers call [`RunSink::on_run_end`] exactly once per
/// finished run (never inside the event loop), so an attached sink costs a
/// handful of counter adds per *run*, not per event, and cannot perturb
/// simulated state. Budgets without a sink skip even that.
#[derive(Debug, Clone)]
pub struct RunSink {
    registry: Arc<rome_telemetry::Registry>,
}

impl RunSink {
    /// A sink recording into `registry` under the `engine.*` namespace.
    pub fn new(registry: Arc<rome_telemetry::Registry>) -> Self {
        RunSink { registry }
    }

    /// The registry this sink records into.
    pub fn registry(&self) -> &Arc<rome_telemetry::Registry> {
        &self.registry
    }

    /// Record one finished run: `events` metered loop iterations, of which
    /// `idle_wakeups` issued nothing (pure event-horizon jumps), plus the
    /// abort reason when the run was cut short (counted per
    /// [`AbortReason::as_str`] name).
    pub fn on_run_end(&self, events: u64, idle_wakeups: u64, aborted: Option<AbortReason>) {
        self.registry.counter("engine.runs").inc();
        self.registry.counter("engine.events").add(events);
        self.registry
            .counter("engine.idle_wakeups")
            .add(idle_wakeups);
        if let Some(reason) = aborted {
            self.registry
                .counter(&format!("engine.aborted.{}", reason.as_str()))
                .inc();
        }
    }
}

impl PartialEq for RunSink {
    /// Sinks compare by identity, like [`DrainSignal`]: what budget equality
    /// cares about is whether two budgets feed the same registry.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.registry, &other.registry)
    }
}

/// A shared sink for sim-time flight-recorder events, attached to a
/// [`RunBudget`] like [`RunSink`].
///
/// The sink carries the [`TraceConfig`] the drivers arm their controllers
/// with at run *start*, and accumulates the harvested [`TraceBuffer`]s at run
/// *end* — never inside the event loop, so an attached sink costs one
/// harvest-and-merge per run. The buffer is behind a mutex because the
/// sharded multi-cube path harvests from rayon workers; [`TraceBuffer::absorb`]
/// re-sorts on every merge, so the harvest order (and therefore thread
/// scheduling) cannot leak into the final event order.
#[derive(Debug, Clone)]
pub struct TraceSink {
    config: TraceConfig,
    buffer: Arc<Mutex<TraceBuffer>>,
}

impl TraceSink {
    /// A sink arming runs with `config` and collecting into a fresh buffer.
    pub fn new(config: TraceConfig) -> Self {
        TraceSink {
            config,
            buffer: Arc::new(Mutex::new(TraceBuffer::default())),
        }
    }

    /// The recorder configuration drivers arm controllers with.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Merge a harvested buffer into the sink (sorted canonically).
    pub fn absorb(&self, harvested: TraceBuffer) {
        let mut guard = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
        guard.absorb(harvested);
    }

    /// Take the accumulated events, leaving the sink empty for reuse.
    pub fn take(&self) -> TraceBuffer {
        let mut guard = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut guard)
    }
}

impl PartialEq for TraceSink {
    /// Trace sinks compare by buffer identity, like [`RunSink`].
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buffer, &other.buffer)
    }
}

/// Consecutive fully-idle driver wake-ups (nothing pulled, nothing issued,
/// nothing completed, controller idle, no pending requests, source not
/// exhausted) after which a source-driven loop declares the source stalled
/// and aborts with [`AbortReason::StalledSource`]. The `TrafficSource` contract
/// allows spuriously early `next_arrival_at` lower bounds, so a handful of
/// idle wake-ups is legal; tens of thousands in a row with no progress means
/// the source is promising an arrival it will never deliver.
pub const STALLED_SOURCE_WAKEUPS: u64 = 65_536;

/// Limits for one simulation run. All limits are optional; the default is
/// unlimited, which is guaranteed not to perturb or tag any run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunBudget {
    /// Abort once the simulated clock reaches this cycle.
    pub max_sim_ns: Option<Cycle>,
    /// Abort after this many run-loop iterations. In the sharded multi-cube
    /// path each channel worker meters independently, so this bounds events
    /// *per channel*, not per system.
    pub max_events: Option<u64>,
    /// Abort once this much wall-clock time has elapsed since the run
    /// started (probed every [`RunBudget::check_interval`] events).
    pub wall_clock: Option<Duration>,
    /// Events between wall-clock probes; `0` means
    /// [`DEFAULT_CHECK_INTERVAL`].
    pub check_interval: u64,
    /// Optional deterministic fault armed on this run's meter.
    pub fault: Option<EngineFault>,
    /// Optional shared drain signal: unlike the fixed limits above, its
    /// deadline can be set (once) *after* the run starts, which is how a
    /// serving front end converts in-flight work to tagged partials on
    /// graceful shutdown. Probed alongside the wall-clock deadline.
    pub drain: Option<DrainSignal>,
    /// Optional telemetry sink: drivers record run-level counters (events,
    /// idle wakeups, abort reasons) into it exactly once, at run end. Not a
    /// limit — it never trips, and a budget with only a sink is still
    /// [`RunBudget::is_unlimited`].
    pub sink: Option<RunSink>,
    /// Optional flight-recorder sink: drivers arm controllers with its
    /// [`TraceConfig`] at run start and absorb the harvested events at run
    /// end. Like `sink`, it is an observation, not a limit — a budget with
    /// only a trace sink is still [`RunBudget::is_unlimited`].
    pub trace: Option<TraceSink>,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget::unlimited()
    }
}

impl RunBudget {
    /// No limits, no fault: bit-identical to the pre-budget drivers.
    pub const fn unlimited() -> Self {
        RunBudget {
            max_sim_ns: None,
            max_events: None,
            wall_clock: None,
            check_interval: DEFAULT_CHECK_INTERVAL,
            fault: None,
            drain: None,
            sink: None,
            trace: None,
        }
    }

    /// Limit simulated time.
    pub fn with_max_sim_ns(mut self, ns: Cycle) -> Self {
        self.max_sim_ns = Some(ns);
        self
    }

    /// Limit run-loop iterations (per channel in sharded runs).
    pub fn with_max_events(mut self, events: u64) -> Self {
        self.max_events = Some(events);
        self
    }

    /// Limit wall-clock time.
    pub fn with_wall_clock(mut self, deadline: Duration) -> Self {
        self.wall_clock = Some(deadline);
        self
    }

    /// Probe the wall clock every `events` events instead of the default.
    pub fn with_check_interval(mut self, events: u64) -> Self {
        self.check_interval = events;
        self
    }

    /// Arm a deterministic fault on this budget's meter.
    pub fn with_fault(mut self, fault: EngineFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Attach a shared drain signal to this budget's meters.
    pub fn with_drain(mut self, drain: DrainSignal) -> Self {
        self.drain = Some(drain);
        self
    }

    /// Attach a telemetry sink recording run-level counters at run end.
    pub fn with_sink(mut self, sink: RunSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a flight-recorder sink collecting sim-time trace events.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }

    /// `true` when no limit and no fault is set (a never-started drain
    /// signal is not a limit: it cannot trip unless the host starts
    /// draining).
    pub fn is_unlimited(&self) -> bool {
        self.max_sim_ns.is_none()
            && self.max_events.is_none()
            && self.wall_clock.is_none()
            && self.fault.is_none()
            && self.drain.as_ref().is_none_or(|d| !d.is_draining())
    }

    /// Start metering one run against this budget. Each run (each channel
    /// worker, in sharded paths) gets its own meter; the wall-clock deadline
    /// is anchored at this call.
    pub fn meter(&self) -> BudgetMeter {
        let interval = if self.check_interval == 0 {
            DEFAULT_CHECK_INTERVAL
        } else {
            self.check_interval
        };
        let mut meter = BudgetMeter {
            max_sim_ns: self.max_sim_ns.unwrap_or(Cycle::MAX),
            max_events: self.max_events.unwrap_or(u64::MAX),
            deadline: self.wall_clock.map(|d| Instant::now() + d),
            drain: self.drain.clone(),
            interval,
            next_check: interval,
            events: 0,
            fault: self.fault,
            next_slow: u64::MAX,
        };
        meter.recompute_next_slow();
        meter
    }

    /// Fire an entry fault (`at_event == 0`) for analytic paths that have no
    /// run loop to meter. [`FaultAction::ExhaustBudget`] is meaningless
    /// without a loop to abort and is ignored here.
    pub fn entry_fault(&self) {
        if let Some(fault) = self.fault {
            if fault.at_event == 0 {
                match fault.action {
                    FaultAction::Panic => {
                        panic!("injected fault: panic at entry")
                    }
                    FaultAction::SlowdownUs(us) => std::thread::sleep(Duration::from_micros(us)),
                    FaultAction::ExhaustBudget => {}
                }
            }
        }
    }
}

/// Per-run metering state for one [`RunBudget`]. Created by
/// [`RunBudget::meter`]; the run loop calls [`BudgetMeter::on_step`] once
/// per iteration and aborts on `Some(reason)`.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    max_sim_ns: Cycle,
    max_events: u64,
    deadline: Option<Instant>,
    drain: Option<DrainSignal>,
    interval: u64,
    next_check: u64,
    events: u64,
    fault: Option<EngineFault>,
    /// Earliest event ordinal at which the slow path must run: the minimum
    /// of the armed fault ordinal, the event ceiling, and (when a wall-clock
    /// deadline is set) the next deadline probe. `u64::MAX` when nothing is
    /// pending, which is the unlimited case.
    next_slow: u64,
}

impl BudgetMeter {
    /// Meter one run-loop iteration at simulated time `now`. Returns the
    /// abort reason when a limit trips or an armed fault fires; the caller
    /// stops *before* processing the iteration, so the partial report
    /// reflects only fully processed events.
    ///
    /// Hot path: two integer compares. Everything that can trip or fire is
    /// folded into `next_slow` (recomputed whenever the slow path runs), so
    /// the unlimited meter never branches on `Option`s or probes the wall
    /// clock per event.
    #[inline]
    pub fn on_step(&mut self, now: Cycle) -> Option<AbortReason> {
        let event = self.events;
        self.events += 1;
        if event < self.next_slow && now < self.max_sim_ns {
            return None;
        }
        self.on_step_slow(event, now)
    }

    /// Fold every event-ordinal trigger into `next_slow`. Must be called
    /// after anything that changes `fault` or `next_check`.
    fn recompute_next_slow(&mut self) {
        let fault_at = self.fault.map_or(u64::MAX, |f| f.at_event);
        let probe_at = if self.deadline.is_some() || self.drain.is_some() {
            self.next_check
        } else {
            u64::MAX
        };
        self.next_slow = fault_at.min(self.max_events).min(probe_at);
    }

    /// Out-of-line slow path: the original check sequence, verbatim — fault
    /// fire/disarm, simulated-time ceiling, event ceiling, deadline probe —
    /// followed by a `next_slow` refresh. Order matters: the fault and probe
    /// ordinals are pinned by the fault-injection suite.
    #[cold]
    fn on_step_slow(&mut self, event: u64, now: Cycle) -> Option<AbortReason> {
        let result = self.slow_checks(event, now);
        self.recompute_next_slow();
        result
    }

    fn slow_checks(&mut self, event: u64, now: Cycle) -> Option<AbortReason> {
        if let Some(fault) = self.fault {
            if event >= fault.at_event {
                self.fault = None;
                match fault.action {
                    FaultAction::Panic => {
                        panic!("injected fault: panic at event {event}")
                    }
                    FaultAction::SlowdownUs(us) => std::thread::sleep(Duration::from_micros(us)),
                    FaultAction::ExhaustBudget => return Some(AbortReason::InjectedFault),
                }
            }
        }
        if now >= self.max_sim_ns {
            return Some(AbortReason::SimTimeBudget);
        }
        if event >= self.max_events {
            return Some(AbortReason::EventBudget);
        }
        if (self.deadline.is_some() || self.drain.is_some()) && event >= self.next_check {
            self.next_check = event + self.interval;
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Some(AbortReason::WallClockDeadline);
                }
            }
            if let Some(drain) = &self.drain {
                if drain.deadline_passed() {
                    return Some(AbortReason::Drained);
                }
            }
        }
        None
    }

    /// Iterations metered so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_trips() {
        let mut meter = RunBudget::unlimited().meter();
        for now in 0..100_000u64 {
            assert_eq!(meter.on_step(now), None);
        }
        assert_eq!(meter.events(), 100_000);
        assert!(RunBudget::unlimited().is_unlimited());
        assert!(RunBudget::default().is_unlimited());
    }

    #[test]
    fn event_budget_trips_at_the_exact_ordinal() {
        let mut meter = RunBudget::unlimited().with_max_events(3).meter();
        assert_eq!(meter.on_step(0), None);
        assert_eq!(meter.on_step(1), None);
        assert_eq!(meter.on_step(2), None);
        assert_eq!(meter.on_step(3), Some(AbortReason::EventBudget));
    }

    #[test]
    fn sim_time_budget_trips_when_now_reaches_the_limit() {
        let mut meter = RunBudget::unlimited().with_max_sim_ns(10).meter();
        assert_eq!(meter.on_step(9), None);
        assert_eq!(meter.on_step(10), Some(AbortReason::SimTimeBudget));
    }

    #[test]
    fn zero_wall_clock_deadline_trips_at_the_first_probe() {
        let mut meter = RunBudget::unlimited()
            .with_wall_clock(Duration::from_secs(0))
            .with_check_interval(4)
            .meter();
        // Probes happen every 4 events starting at event 4.
        assert_eq!(meter.on_step(0), None);
        assert_eq!(meter.on_step(1), None);
        assert_eq!(meter.on_step(2), None);
        assert_eq!(meter.on_step(3), None);
        assert_eq!(meter.on_step(4), Some(AbortReason::WallClockDeadline));
    }

    #[test]
    fn generous_wall_clock_deadline_does_not_trip() {
        let mut meter = RunBudget::unlimited()
            .with_wall_clock(Duration::from_secs(3600))
            .with_check_interval(1)
            .meter();
        for now in 0..64u64 {
            assert_eq!(meter.on_step(now), None);
        }
    }

    #[test]
    fn exhaust_fault_aborts_and_disarms() {
        let mut meter = RunBudget::unlimited()
            .with_fault(EngineFault::exhaust_at(2))
            .meter();
        assert_eq!(meter.on_step(0), None);
        assert_eq!(meter.on_step(1), None);
        assert_eq!(meter.on_step(2), Some(AbortReason::InjectedFault));
        // One-shot: a caller that chooses to continue is not re-aborted.
        assert_eq!(meter.on_step(3), None);
    }

    #[test]
    #[should_panic(expected = "injected fault: panic at event 1")]
    fn panic_fault_panics_at_its_ordinal() {
        let mut meter = RunBudget::unlimited()
            .with_fault(EngineFault::panic_at(1))
            .meter();
        assert_eq!(meter.on_step(0), None);
        let _ = meter.on_step(1);
    }

    #[test]
    #[should_panic(expected = "injected fault: panic at entry")]
    fn entry_fault_fires_only_at_event_zero() {
        // A fault armed past entry is a no-op for analytic paths…
        RunBudget::unlimited()
            .with_fault(EngineFault::panic_at(5))
            .entry_fault();
        // …but an entry fault fires.
        RunBudget::unlimited()
            .with_fault(EngineFault::panic_at(0))
            .entry_fault();
    }

    #[test]
    fn slowdown_fault_continues_without_aborting() {
        let mut meter = RunBudget::unlimited()
            .with_fault(EngineFault::slowdown_at(1, 1))
            .meter();
        assert_eq!(meter.on_step(0), None);
        assert_eq!(meter.on_step(1), None);
        assert_eq!(meter.on_step(2), None);
        RunBudget::unlimited()
            .with_fault(EngineFault::slowdown_at(0, 1))
            .entry_fault();
    }

    #[test]
    fn fast_path_does_not_skip_a_fault_at_a_large_ordinal() {
        // 10_000 fast-path steps must still land the fault on its exact
        // ordinal — the `next_slow` precomputation may defer checks, never
        // drop them.
        let mut meter = RunBudget::unlimited()
            .with_fault(EngineFault::exhaust_at(10_000))
            .meter();
        for now in 0..10_000u64 {
            assert_eq!(meter.on_step(now), None);
        }
        assert_eq!(meter.on_step(10_000), Some(AbortReason::InjectedFault));
        assert_eq!(meter.on_step(10_001), None);
        assert_eq!(meter.events(), 10_002);
    }

    #[test]
    fn deadline_probes_advance_across_many_intervals() {
        // A generous deadline with a small interval must take the slow path
        // exactly at each probe ordinal and nowhere else; `next_check`
        // re-arming has to keep feeding `next_slow`.
        let mut meter = RunBudget::unlimited()
            .with_wall_clock(Duration::from_secs(3600))
            .with_check_interval(3)
            .meter();
        for now in 0..20u64 {
            assert_eq!(meter.on_step(now), None);
        }
        assert_eq!(meter.events(), 20);
    }

    #[test]
    fn event_budget_still_trips_after_an_earlier_fault_disarms() {
        // Fault at 1, event budget at 4: the disarm must not leave
        // `next_slow` pointing at the dead fault and the budget must trip on
        // its own ordinal.
        let mut meter = RunBudget::unlimited()
            .with_max_events(4)
            .with_fault(EngineFault::slowdown_at(1, 1))
            .meter();
        assert_eq!(meter.on_step(0), None);
        assert_eq!(meter.on_step(1), None); // slowdown fires, run continues
        assert_eq!(meter.on_step(2), None);
        assert_eq!(meter.on_step(3), None);
        assert_eq!(meter.on_step(4), Some(AbortReason::EventBudget));
    }

    #[test]
    fn drain_signal_aborts_in_flight_meters_after_the_grace() {
        let signal = DrainSignal::new();
        let mut meter = RunBudget::unlimited()
            .with_drain(signal.clone())
            .with_check_interval(2)
            .meter();
        assert!(!signal.is_draining());
        assert!(signal.remaining().is_none());
        // Not draining: probes pass.
        for now in 0..10u64 {
            assert_eq!(meter.on_step(now), None);
        }
        // Drain with zero grace: the deadline has already passed, so the
        // next probe ordinal aborts. Probes land every 2 events.
        signal.start_drain(Duration::from_secs(0));
        assert!(signal.is_draining());
        assert!(signal.deadline_passed());
        assert_eq!(signal.remaining(), Some(Duration::ZERO));
        let mut aborted = None;
        for now in 10..14u64 {
            if let Some(reason) = meter.on_step(now) {
                aborted = Some(reason);
                break;
            }
        }
        assert_eq!(aborted, Some(AbortReason::Drained));
    }

    #[test]
    fn drain_signal_with_generous_grace_does_not_trip() {
        let signal = DrainSignal::new();
        signal.start_drain(Duration::from_secs(3600));
        assert!(signal.is_draining());
        assert!(!signal.deadline_passed());
        let mut meter = RunBudget::unlimited()
            .with_drain(signal.clone())
            .with_check_interval(1)
            .meter();
        for now in 0..64u64 {
            assert_eq!(meter.on_step(now), None);
        }
        // A budget with a never-started signal still counts as unlimited; a
        // draining one does not.
        assert!(RunBudget::unlimited()
            .with_drain(DrainSignal::new())
            .is_unlimited());
        assert!(!RunBudget::unlimited().with_drain(signal).is_unlimited());
    }

    #[test]
    fn earliest_drain_deadline_wins() {
        let signal = DrainSignal::new();
        signal.start_drain(Duration::from_secs(0));
        // A later, longer grace must not extend the already-passed deadline.
        signal.start_drain(Duration::from_secs(3600));
        assert!(signal.deadline_passed());
    }

    #[test]
    fn drain_signal_clones_share_state_and_compare_by_identity() {
        let a = DrainSignal::new();
        let b = a.clone();
        let c = DrainSignal::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
        b.start_drain(Duration::from_secs(0));
        assert!(a.is_draining(), "clones share the drain state");
        assert!(!c.is_draining());
    }

    #[test]
    fn abort_reasons_have_stable_snake_case_names() {
        assert_eq!(AbortReason::SimTimeBudget.as_str(), "sim_time_budget");
        assert_eq!(AbortReason::EventBudget.as_str(), "event_budget");
        assert_eq!(
            AbortReason::WallClockDeadline.as_str(),
            "wall_clock_deadline"
        );
        assert_eq!(AbortReason::StalledSource.as_str(), "stalled_source");
        assert_eq!(AbortReason::InjectedFault.as_str(), "injected_fault");
        assert_eq!(AbortReason::Drained.as_str(), "drained");
        assert_eq!(AbortReason::StalledSource.to_string(), "stalled_source");
    }
}
