//! Generic simulation drivers for a single channel controller.
//!
//! These helpers feed a request stream into any [`MemoryController`] as fast
//! as its queues accept it and summarize the outcome in one unified
//! [`SimulationReport`]. They are used directly by the queue-depth and VBA
//! design-space experiments and as calibration kernels by `rome-sim`, for
//! both the conventional HBM4 controller and the RoMe controller.
//!
//! # Drivers
//!
//! There is one single-controller event loop, [`run_with_source_budgeted`],
//! which drives any [`TrafficSource`]. The vector drivers are that loop over
//! a [`ReplaySource`]: [`run_with_budget`] takes a time limit and a
//! [`RunBudget`], and [`run_to_completion`] is [`run_with_budget`] with the
//! 50 ms safety limit and [`RunBudget::unlimited`].
//!
//! # Event-driven time skipping
//!
//! After a tick in which the controller issued nothing and no new request
//! can enqueue, the loop asks [`MemoryController::next_event_at`] (and the
//! source's [`TrafficSource::next_arrival_at`]) for the next cycle at which
//! any state can change (a data burst completing, a timing constraint
//! expiring, a refresh coming due, a request arriving) and jumps straight
//! there, instead of burning one no-op `tick` per nanosecond. Because both
//! hints lower-bound the next state change, the loop executes the exact
//! command schedule of a cycle-by-cycle loop and produces bit-identical
//! [`SimulationReport`]s — `tests/event_driven_equivalence.rs` pins this
//! against a test-only stepped reference. perfbench's `engine.events` and
//! `engine.idle_frac` count the work the event-driven loop does.
//!
//! # Bounded runs
//!
//! The loop is metered against a [`RunBudget`]: simulated-time,
//! event-count, and wall-clock limits plus the deterministic
//! fault-injection hooks. A tripped limit stops the loop and tags the
//! partial report via [`SimulationReport::aborted`].
//! [`RunBudget::unlimited`] trips nothing and tags nothing. The `max_ns`
//! cutoff leaves the report untagged, so a caller that needs a finished run
//! checks it with [`SimulationReport::expect_complete`].

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use rome_hbm::units::{bytes_per_ns_to_gbps, Cycle};
use rome_telemetry::trace::{FlightRecorder, TraceEvent, TraceEventKind};
use rome_telemetry::LatencyHistogram;

use crate::budget::{AbortReason, RunBudget, STALLED_SOURCE_WAKEUPS};
use crate::controller::MemoryController;
use crate::request::{MemoryRequest, RequestKind};
use crate::source::{ReplaySource, TrafficSource};
use crate::system::HostCompletion;

/// Summary of one single-channel run, identical in shape for every
/// controller (fields a controller does not model report their neutral
/// value: `bytes_transferred == bytes_read + bytes_written` for a controller
/// without overfetch, `row_hit_rate == 0` for one without a row buffer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Total requests completed.
    pub requests_completed: u64,
    /// Useful bytes read.
    pub bytes_read: u64,
    /// Useful bytes written.
    pub bytes_written: u64,
    /// Bytes moved over the DRAM interface (≥ useful bytes; the difference
    /// is overfetch).
    pub bytes_transferred: u64,
    /// Cycle at which the last request completed.
    pub finish_time: Cycle,
    /// Achieved useful bandwidth over the whole run in decimal GB/s
    /// (1 byte/ns = 1 GB/s), via [`rome_hbm::units::bytes_per_ns_to_gbps`] —
    /// the same definition for every memory system.
    pub achieved_bandwidth_gbps: f64,
    /// Mean read latency in ns.
    pub mean_read_latency: f64,
    /// Row-buffer hit rate (0 for controllers without a row buffer).
    pub row_hit_rate: f64,
    /// Activations issued per KiB of useful data transferred.
    pub activates_per_kib: f64,
    /// `Some(reason)` when the run stopped early because a [`RunBudget`]
    /// limit tripped (or the source stalled); `None` for a run that drained
    /// naturally or hit only the legacy untagged `max_ns` cutoff. An aborted
    /// report is a valid *partial* summary of the work completed before the
    /// abort.
    pub aborted: Option<AbortReason>,
    /// Distribution of per-request end-to-end read latencies in simulated ns
    /// (enqueue to completion), as a mergeable log₂-bucket histogram —
    /// p50/p95/p99/max alongside the `mean_read_latency` mean. Sim-time data
    /// only, so it is deterministic: bit-identical run-to-run and against
    /// the stepped reference. Empty when
    /// [`rome_telemetry::sim_sampling`] is off (the default stays on), which
    /// is pinned to leave every other field untouched.
    pub read_latency: LatencyHistogram,
}

impl SimulationReport {
    /// Tag this report with an abort reason (`None` clears the tag).
    pub fn with_abort(mut self, aborted: Option<AbortReason>) -> Self {
        self.aborted = aborted;
        self
    }

    /// Attach a read-latency histogram to this report.
    pub fn with_read_latency(mut self, read_latency: LatencyHistogram) -> Self {
        self.read_latency = read_latency;
        self
    }

    /// This report, checked to cover a finished run: all `requests`
    /// completed and no budget limit tripped. A run cut short — by its
    /// `max_ns` limit, which leaves the report untagged, or by an abort —
    /// panics with a message naming `run`, so a table or a calibration
    /// never passes a partial run off as a result.
    pub fn expect_complete(self, requests: usize, run: impl std::fmt::Display) -> Self {
        assert!(
            self.requests_completed == requests as u64 && self.aborted.is_none(),
            "{run}: incomplete run, {} of {requests} requests completed (abort: {:?})",
            self.requests_completed,
            self.aborted
        );
        self
    }
}

/// Drive `controller` with `requests` until every request has completed or
/// an internal safety limit of 50 ms elapses: [`run_with_budget`] with
/// [`RunBudget::unlimited`].
///
/// Requests are offered in order; a request whose queue is full simply waits
/// (back-pressure), which is how a DMA engine behaves.
pub fn run_to_completion<C: MemoryController>(
    controller: &mut C,
    requests: Vec<MemoryRequest>,
) -> SimulationReport {
    run_with_budget(controller, requests, 50_000_000, &RunBudget::unlimited())
}

/// Drive `controller` with `requests` until every request has completed or
/// `max_ns` elapses, metered against `budget`: the run stops as soon as a
/// budget limit trips (or an armed fault fires) and the partial report is
/// tagged via [`SimulationReport::aborted`]. A `max_ns` cutoff leaves the
/// report untagged.
///
/// This is [`run_with_source_budgeted`] over [`ReplaySource::from`]
/// `(requests)`: each request is released at its `arrival` cycle (clamped
/// to keep submission order) and offered as fast as the queues accept it.
/// The vector's buffer becomes the loop's pending queue without a copy.
pub fn run_with_budget<C: MemoryController>(
    controller: &mut C,
    requests: Vec<MemoryRequest>,
    max_ns: Cycle,
    budget: &RunBudget,
) -> SimulationReport {
    run_with_source_budgeted(
        controller,
        &mut ReplaySource::from(requests),
        max_ns,
        budget,
    )
}

/// Arm `controller`'s flight recorder from the budget's trace sink (when one
/// is attached) and return the driver-side recorder for host-edge events
/// (arrival, backlog). Without a sink both stay disarmed no-ops.
fn arm_trace<C: MemoryController>(controller: &mut C, budget: &RunBudget) -> FlightRecorder {
    match &budget.trace {
        Some(sink) => {
            let config = sink.config();
            controller.set_trace(config);
            FlightRecorder::new(config)
        }
        None => FlightRecorder::disabled(),
    }
}

/// Record the host-side arrival of `req` (offered at `arrived`, admitted at
/// `now`), plus a backlog span when admission waited on queue space.
fn record_arrival(recorder: &mut FlightRecorder, req: &MemoryRequest, arrived: Cycle, now: Cycle) {
    let base = TraceEvent {
        id: req.id.0,
        bytes: req.bytes,
        write: !req.kind.is_read(),
        ..TraceEvent::at(TraceEventKind::Arrival, arrived)
    };
    recorder.record(base);
    if now > arrived {
        recorder.record(TraceEvent {
            kind: TraceEventKind::Backlog,
            dur: now - arrived,
            ..base
        });
    }
}

/// Harvest the controller's and the driver's recorders into the budget's
/// trace sink (no-op without one). Called once, at run end.
fn harvest_trace<C: MemoryController>(
    controller: &mut C,
    budget: &RunBudget,
    mut driver: FlightRecorder,
) {
    if let Some(sink) = &budget.trace {
        let mut buffer = controller.take_trace();
        buffer.absorb(driver.harvest());
        sink.absorb(buffer);
    }
}

/// Drive `controller` from a [`TrafficSource`] until the source is
/// exhausted and every pulled request has completed, or `max_ns` elapses,
/// metered against `budget`. This is the one single-controller event loop:
/// [`run_with_budget`] and [`run_to_completion`] replay vectors through it.
///
/// After a tick in which nothing was issued and no pulled request can
/// enqueue, the loop jumps to the earlier of
/// [`MemoryController::next_event_at`] and
/// [`TrafficSource::next_arrival_at`]. Completions are fed back to the
/// source via [`TrafficSource::on_completion`] (as single-fragment
/// [`HostCompletion`]s), which is what closed-loop sources key their next
/// release on.
///
/// Stall detection is active even under an unlimited budget: a source that
/// keeps promising an arrival which never becomes pullable (or that waits
/// on a completion no in-flight work can deliver) aborts the run with
/// [`AbortReason::StalledSource`] instead of spinning to `max_ns`. Spurious
/// early wake-ups are legal under the [`TrafficSource`] contract, so the
/// stall verdict needs [`STALLED_SOURCE_WAKEUPS`] consecutive fully idle
/// wake-ups — no pull, no issue, no completion, empty queues — before it
/// fires.
pub fn run_with_source_budgeted<C: MemoryController, S: TrafficSource>(
    controller: &mut C,
    source: &mut S,
    max_ns: Cycle,
    budget: &RunBudget,
) -> SimulationReport {
    let mut pending: VecDeque<MemoryRequest> = VecDeque::new();
    let mut pulled: Vec<MemoryRequest> = Vec::new();
    let mut now: Cycle = 0;
    let mut completed = 0u64;
    let mut bytes_read = 0u64;
    let mut bytes_written = 0u64;
    let mut finish_time = 0;
    let mut completions = Vec::new();
    let mut meter = budget.meter();
    let mut aborted = None;
    let mut idle_wakeups: u64 = 0;
    let sampling = rome_telemetry::sim_sampling();
    let mut read_latency = LatencyHistogram::new();
    let mut idle_steps: u64 = 0;
    let mut recorder = arm_trace(controller, budget);

    loop {
        source.pull_into(now, &mut pulled);
        let pulled_any = !pulled.is_empty();
        if pulled_any && pending.is_empty() {
            // Adopt the pulled buffer as the queue, so a replayed vector
            // handed over whole is never copied, and keep the old queue's
            // allocation for the next pull.
            let spare = Vec::from(std::mem::take(&mut pending));
            pending = VecDeque::from(std::mem::replace(&mut pulled, spare));
        } else if pulled_any {
            pending.extend(pulled.drain(..));
        }
        // The exit test comes before the meter, so the step that finds the
        // run finished is not counted as an event.
        if (pending.is_empty() && source.is_exhausted() && controller.is_idle()) || now >= max_ns {
            break;
        }
        if let Some(reason) = meter.on_step(now) {
            aborted = Some(reason);
            break;
        }
        // Offer as many pulled requests as the queues accept this cycle, in
        // order (back-pressure).
        while let Some(next) = pending.front() {
            if controller.slots_free_for(next.kind) == 0 {
                break;
            }
            let mut req = *next;
            req.arrival = now;
            if recorder.enabled() {
                record_arrival(&mut recorder, &req, next.arrival, now);
            }
            let ok = controller.enqueue(req);
            debug_assert!(ok, "enqueue must succeed when a slot is free");
            pending.pop_front();
        }
        let issued = controller.tick_into(now, &mut completions);
        let completed_any = !completions.is_empty();
        for done in completions.drain(..) {
            completed += 1;
            finish_time = finish_time.max(done.completed);
            match done.kind {
                RequestKind::Read => {
                    bytes_read += done.bytes;
                    if sampling {
                        read_latency.record(done.completed.saturating_sub(done.arrival));
                    }
                }
                RequestKind::Write => bytes_written += done.bytes,
            }
            source.on_completion(&HostCompletion {
                id: done.id,
                kind: done.kind,
                bytes: done.bytes,
                arrival: done.arrival,
                completed: done.completed,
            });
        }
        // Stall detection: a wake-up in which no *data* moved. A live run
        // resets the streak on any request progress; only a source that
        // keeps scheduling wake-ups without ever delivering can accumulate
        // STALLED_SOURCE_WAKEUPS of them. `issued` deliberately does not
        // reset the streak: autonomous upkeep (refresh) issues commands
        // forever on an otherwise empty controller and must not mask a
        // stuck source.
        if pulled_any || completed_any || !pending.is_empty() || !controller.is_idle() {
            idle_wakeups = 0;
        } else {
            idle_wakeups += 1;
            if idle_wakeups >= STALLED_SOURCE_WAKEUPS {
                aborted = Some(AbortReason::StalledSource);
                break;
            }
        }
        let arrival_next = pending
            .front()
            .is_some_and(|next| controller.slots_free_for(next.kind) > 0);
        idle_steps += (!issued) as u64;
        now = if issued || arrival_next {
            now + 1
        } else {
            let mut horizon = controller.next_event_at(now);
            if let Some(at) = source.next_arrival_at() {
                let at = at.max(now + 1);
                horizon = Some(horizon.map_or(at, |h| h.min(at)));
            }
            match horizon {
                Some(t) => t.max(now + 1),
                // No controller event and no scheduled arrival: if the
                // controller is idle and nothing waits to enqueue, nothing
                // can ever change (completions only come from in-flight
                // work), so a source gated on one is stuck — abort with a
                // tagged reason instead of crawling one cycle per
                // iteration to max_ns.
                None if controller.is_idle() && pending.is_empty() => {
                    if !source.is_exhausted() {
                        aborted = Some(AbortReason::StalledSource);
                    }
                    break;
                }
                None => now + 1,
            }
        };
    }

    if let Some(sink) = &budget.sink {
        sink.on_run_end(meter.events(), idle_steps, aborted);
    }
    harvest_trace(controller, budget, recorder);
    report_from_stats(
        &controller.stats_snapshot(),
        completed,
        bytes_read,
        bytes_written,
        finish_time,
    )
    .with_abort(aborted)
    .with_read_latency(read_latency)
}

/// Fold driver-side counters and a (possibly channel-merged)
/// [`crate::controller::StatsSnapshot`] into the unified report. This is the one place the
/// derived report fields (bandwidth, activates/KiB) are defined, shared by
/// the single-channel drivers and the system/multi-cube reporters.
pub fn report_from_stats(
    stats: &crate::controller::StatsSnapshot,
    completed: u64,
    bytes_read: u64,
    bytes_written: u64,
    finish_time: Cycle,
) -> SimulationReport {
    let elapsed = finish_time.max(1);
    let useful = bytes_read + bytes_written;
    SimulationReport {
        requests_completed: completed,
        bytes_read,
        bytes_written,
        bytes_transferred: stats.bytes_transferred,
        finish_time,
        achieved_bandwidth_gbps: bytes_per_ns_to_gbps(useful, elapsed),
        mean_read_latency: stats.mean_read_latency,
        row_hit_rate: stats.row_hit_rate,
        activates_per_kib: if useful == 0 {
            0.0
        } else {
            stats.activates as f64 / (useful as f64 / 1024.0)
        },
        aborted: None,
        read_latency: LatencyHistogram::new(),
    }
}

/// Summarize a system-level run — host completions plus the system's merged
/// statistics snapshot — as the same unified [`SimulationReport`] the
/// single-channel drivers produce, so multi-channel and multi-cube results
/// are directly comparable (and mergeable via [`merge_reports`]).
pub fn report_from_host_completions(
    stats: &crate::controller::StatsSnapshot,
    completions: &[HostCompletion],
) -> SimulationReport {
    let mut bytes_read = 0u64;
    let mut bytes_written = 0u64;
    let mut finish_time = 0;
    let sampling = rome_telemetry::sim_sampling();
    let mut read_latency = LatencyHistogram::new();
    for c in completions {
        match c.kind {
            RequestKind::Read => {
                bytes_read += c.bytes;
                if sampling {
                    read_latency.record(c.completed.saturating_sub(c.arrival));
                }
            }
            RequestKind::Write => bytes_written += c.bytes,
        }
        finish_time = finish_time.max(c.completed);
    }
    report_from_stats(
        stats,
        completions.len() as u64,
        bytes_read,
        bytes_written,
        finish_time,
    )
    .with_read_latency(read_latency)
}

/// Merge per-shard [`SimulationReport`]s (one per cube of a multi-cube
/// system, or any set of independent runs that executed concurrently) into
/// one summary report:
///
/// * counts and byte totals are summed;
/// * `finish_time` is the maximum (the shards ran in parallel);
/// * `achieved_bandwidth_gbps` is recomputed from the merged totals over the
///   merged finish time — *not* the sum of per-shard bandwidths, which would
///   overstate a straggling shard;
/// * `mean_read_latency` is weighted by per-shard read bytes and
///   `row_hit_rate` by per-shard interface bytes (the per-request counts are
///   not in the report, so bytes are the closest available weights);
/// * `activates_per_kib` is recomputed from the implied per-shard activation
///   counts over the merged useful bytes;
/// * `aborted` is the first shard's abort reason, if any shard aborted (a
///   merged report over partial shards is itself partial).
pub fn merge_reports(reports: &[SimulationReport]) -> SimulationReport {
    let mut merged = SimulationReport {
        requests_completed: 0,
        bytes_read: 0,
        bytes_written: 0,
        bytes_transferred: 0,
        finish_time: 0,
        achieved_bandwidth_gbps: 0.0,
        mean_read_latency: 0.0,
        row_hit_rate: 0.0,
        activates_per_kib: 0.0,
        aborted: None,
        read_latency: LatencyHistogram::new(),
    };
    let mut latency_weight = 0.0;
    let mut latency_sum = 0.0;
    let mut hit_weight = 0.0;
    let mut hit_sum = 0.0;
    let mut activates = 0.0;
    for r in reports {
        merged.requests_completed += r.requests_completed;
        merged.bytes_read += r.bytes_read;
        merged.bytes_written += r.bytes_written;
        merged.bytes_transferred += r.bytes_transferred;
        merged.finish_time = merged.finish_time.max(r.finish_time);
        merged.aborted = merged.aborted.or(r.aborted);
        merged.read_latency.merge(&r.read_latency);
        latency_sum += r.mean_read_latency * r.bytes_read as f64;
        latency_weight += r.bytes_read as f64;
        hit_sum += r.row_hit_rate * r.bytes_transferred as f64;
        hit_weight += r.bytes_transferred as f64;
        activates += r.activates_per_kib * (r.bytes_read + r.bytes_written) as f64 / 1024.0;
    }
    let useful = merged.bytes_read + merged.bytes_written;
    merged.achieved_bandwidth_gbps = bytes_per_ns_to_gbps(useful, merged.finish_time.max(1));
    if latency_weight > 0.0 {
        merged.mean_read_latency = latency_sum / latency_weight;
    }
    if hit_weight > 0.0 {
        merged.row_hit_rate = hit_sum / hit_weight;
    }
    if useful > 0 {
        merged.activates_per_kib = activates / (useful as f64 / 1024.0);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::StatsSnapshot;
    use crate::request::RequestId;

    fn shard(reads: u64, latency: f64, finish: Cycle) -> SimulationReport {
        SimulationReport {
            requests_completed: reads / 32,
            bytes_read: reads,
            bytes_written: 0,
            bytes_transferred: reads,
            finish_time: finish,
            achieved_bandwidth_gbps: reads as f64 / finish as f64,
            mean_read_latency: latency,
            row_hit_rate: 0.5,
            activates_per_kib: 1.0,
            aborted: None,
            read_latency: LatencyHistogram::new(),
        }
    }

    #[test]
    fn merge_reports_sums_totals_and_recomputes_rates() {
        let merged = merge_reports(&[shard(1024, 100.0, 1000), shard(3072, 200.0, 2000)]);
        assert_eq!(merged.requests_completed, 128);
        assert_eq!(merged.bytes_read, 4096);
        assert_eq!(merged.finish_time, 2000, "parallel shards: max, not sum");
        // Bandwidth over the merged totals, not the sum of shard bandwidths.
        assert_eq!(merged.achieved_bandwidth_gbps, 4096.0 / 2000.0);
        // Read-byte-weighted mean latency: (100*1 + 200*3) / 4 = 175.
        assert_eq!(merged.mean_read_latency, 175.0);
        assert_eq!(merged.row_hit_rate, 0.5);
        assert!((merged.activates_per_kib - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_propagates_any_shard_abort_tag() {
        let healthy = shard(1024, 100.0, 1000);
        let partial = shard(512, 50.0, 500).with_abort(Some(AbortReason::EventBudget));
        assert_eq!(
            merge_reports(&[healthy.clone(), partial]).aborted,
            Some(AbortReason::EventBudget),
            "a merge over a partial shard is itself partial"
        );
        assert_eq!(merge_reports(&[healthy]).aborted, None);
    }

    #[test]
    fn merge_of_empty_and_single_is_neutral() {
        let empty = merge_reports(&[]);
        assert_eq!(empty.requests_completed, 0);
        assert_eq!(empty.achieved_bandwidth_gbps, 0.0);
        let one = shard(2048, 150.0, 500);
        assert_eq!(merge_reports(std::slice::from_ref(&one)), one);
    }

    #[test]
    fn report_from_host_completions_folds_kinds_and_finish() {
        let stats = StatsSnapshot {
            bytes_read: 64,
            bytes_written: 32,
            bytes_transferred: 96,
            mean_read_latency: 40.0,
            row_hit_rate: 0.25,
            activates: 3,
        };
        let completions = vec![
            HostCompletion {
                id: RequestId(1),
                kind: RequestKind::Read,
                bytes: 64,
                arrival: 0,
                completed: 80,
            },
            HostCompletion {
                id: RequestId(2),
                kind: RequestKind::Write,
                bytes: 32,
                arrival: 0,
                completed: 40,
            },
        ];
        let report = report_from_host_completions(&stats, &completions);
        assert_eq!(report.requests_completed, 2);
        assert_eq!(report.bytes_read, 64);
        assert_eq!(report.bytes_written, 32);
        assert_eq!(report.finish_time, 80);
        assert_eq!(report.achieved_bandwidth_gbps, 96.0 / 80.0);
        assert_eq!(report.row_hit_rate, 0.25);
        assert!((report.activates_per_kib - 32.0).abs() < 1e-12);
    }
}
