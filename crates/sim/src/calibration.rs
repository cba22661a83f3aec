//! Calibration of effective memory-system behaviour by sampled
//! cycle-accurate simulation.
//!
//! Replaying a full multi-gigabyte decode step through the cycle-accurate
//! models would take hours without changing the outcome: what the end-to-end
//! model needs from the detailed simulation is (a) the *effective bandwidth
//! utilization* each memory system achieves on LLM-like traffic and (b) the
//! number of row activations each performs per kilobyte moved (which drives
//! the ACT energy difference of Figure 14). Both are measured here by running
//! a sampled window — a few megabytes of interleaved streams standing in for
//! the concurrent tensors of a decode step — through the real controllers.
//!
//! Mirroring the paper's methodology (§VI-A), the conventional controller is
//! calibrated over a sweep of candidate address mappings and the
//! best-performing one is used, as Ramulator 2.0 and DRAMSim3 sweep address
//! mappings too. The candidates are independent runs, so they run
//! concurrently through `rayon`; the pick (highest bandwidth utilization,
//! ties to the lower candidate index) cannot depend on which run finishes
//! first.
//!
//! The sampled window is never materialized. Each run pulls it from a
//! generator that computes every request from its index and keeps at most
//! a fixed window of requests released and not yet completed, so a run
//! holds a few KiB of trace rather than a 1.25 MiB request vector — which
//! also keeps concurrent candidates from adding trace copies to the peak
//! memory.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use rome_core::controller::{RomeController, RomeControllerConfig};
use rome_engine::simulate::run_with_source_budgeted;
use rome_engine::{HostCompletion, MemoryController, RunBudget, SimulationReport, TrafficSource};
use rome_hbm::units::Cycle;
use rome_mc::controller::{ChannelController, ControllerConfig};
use rome_mc::mapping::MappingScheme;
use rome_mc::request::MemoryRequest;

use crate::memory_model::MemorySystemKind;

/// The measured behaviour of one memory system on LLM-like streaming traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationResult {
    /// Fraction of the channel's peak bandwidth achieved (0..1].
    pub bandwidth_utilization: f64,
    /// Row activations per KiB of useful data moved.
    pub activates_per_kib: f64,
    /// Mean read latency observed, in ns.
    pub mean_read_latency_ns: f64,
}

impl CalibrationResult {
    /// The calibration a finished run measured on a channel of `peak_gbps`.
    fn from_report(report: &SimulationReport, peak_gbps: f64) -> Self {
        CalibrationResult {
            bandwidth_utilization: (report.achieved_bandwidth_gbps / peak_gbps).min(1.0),
            activates_per_kib: report.activates_per_kib,
            mean_read_latency_ns: report.mean_read_latency,
        }
    }
}

/// Runs the sampled calibrations and caches their results.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    hbm4: Option<CalibrationResult>,
    rome: Option<CalibrationResult>,
}

/// Number of interleaved request streams used to emulate the concurrent
/// tensors (weights, KV cache of many sequences, activations) that a decode
/// step keeps in flight.
const CALIBRATION_STREAMS: u64 = 8;
/// Bytes per stream in the sampled window.
const CALIBRATION_BYTES_PER_STREAM: u64 = 128 * 1024;
/// Seed for the stream base addresses (4 KiB-aligned, as a real allocator
/// would place tensors).
const CALIBRATION_SEED: u64 = 0x0520_2026;
/// Simulated-time safety limit of one calibration run, in ns: the limit
/// `run_to_completion` applies. A run it cuts short panics (see
/// [`SimulationReport::expect_complete`]) instead of calibrating.
const CALIBRATION_LIMIT_NS: Cycle = 50_000_000;
/// Requests a calibration run keeps released and not yet completed: four
/// HBM4 baseline read queues.
///
/// The driver offers released requests in order whenever a queue slot is
/// free. A streamed run therefore replays the materialized trace exactly —
/// same report, same visited ticks — as long as released requests are
/// still waiting in the driver whenever a slot frees, that is as long as
/// the window exceeds what the controller holds: its queue plus the
/// transfers it has issued and not finished. On the calibration trace the
/// HBM4 controller holds at most 98 requests (mapping candidate 3); a
/// window of 100 replays all four candidates exactly, and at 96 candidate
/// 3 diverges. Four queues keep more than twice what the controller
/// holds. RoMe's controller holds at most 6. The tests pin the
/// replay, the 2× margin and the divergence.
const CALIBRATION_WINDOW: usize = 4 * ControllerConfig::BASELINE_QUEUE_CAPACITY;

/// The calibration trace as a [`TrafficSource`]: `streams` sequential
/// streams at independent (seeded-random, 4 KiB-aligned) base addresses
/// whose granules are interleaved round-robin — the arrival order a DMA
/// engine serving several tensors produces. Request `id` is granule
/// `id / streams` of stream `id % streams`, computed when it is pulled;
/// nothing else is stored.
///
/// Every request is due at cycle 0, but at most `window` of them are
/// released and not yet completed. The first pull releases a full window;
/// after that each completion frees a slot that the next pull — at the
/// driver's next wake-up — refills. The source schedules no wake-up of its
/// own: with the window above what the controller can hold (see
/// `CALIBRATION_WINDOW`), a refill one wake-up after its completion is
/// never observed, because requests released earlier are still waiting in
/// the driver when a queue slot frees.
#[derive(Debug, Clone)]
struct InterleavedStreams {
    /// Base address of each stream.
    bases: Vec<u64>,
    /// Bytes per request.
    granularity: u64,
    /// Requests in the whole trace.
    total: u64,
    /// Id of the next request to release.
    next: u64,
    /// Released requests that have completed.
    completed: u64,
    /// Cap on released requests not yet completed.
    window: u64,
}

impl InterleavedStreams {
    /// `streams` streams of `bytes_per_stream` bytes each, in requests of
    /// `granularity` bytes, bases drawn from `seed`, at most `window`
    /// requests outstanding.
    fn new(
        streams: u64,
        bytes_per_stream: u64,
        granularity: u64,
        seed: u64,
        window: usize,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bases = (0..streams)
            .map(|_| rng.gen_range(0..(1u64 << 22)) * 4096)
            .collect();
        InterleavedStreams {
            bases,
            granularity,
            total: streams * (bytes_per_stream / granularity),
            next: 0,
            completed: 0,
            window: window as u64,
        }
    }

    /// The calibration trace at `granularity` bytes per request.
    fn calibration(granularity: u64) -> Self {
        InterleavedStreams::new(
            CALIBRATION_STREAMS,
            CALIBRATION_BYTES_PER_STREAM,
            granularity,
            CALIBRATION_SEED,
            CALIBRATION_WINDOW,
        )
    }

    /// Requests in the whole trace.
    fn len(&self) -> usize {
        self.total as usize
    }

    /// Request `id` of the trace.
    fn request(&self, id: u64) -> MemoryRequest {
        let streams = self.bases.len() as u64;
        let base = self.bases[(id % streams) as usize];
        MemoryRequest::read(
            id,
            base + id / streams * self.granularity,
            self.granularity,
            0,
        )
    }
}

impl TrafficSource for InterleavedStreams {
    fn next_arrival_at(&self) -> Option<Cycle> {
        // Every request is due at cycle 0; after the first pull each
        // release waits on a completion.
        (self.next == 0 && self.total > 0).then_some(0)
    }

    fn pull_into(&mut self, _now: Cycle, out: &mut Vec<MemoryRequest>) {
        let end = self.total.min(self.completed + self.window);
        out.extend((self.next..end).map(|id| self.request(id)));
        self.next = self.next.max(end);
    }

    fn on_completion(&mut self, _completion: &HostCompletion) {
        self.completed += 1;
    }

    fn is_exhausted(&self) -> bool {
        self.next == self.total
    }
}

/// Stream the calibration trace at `granularity` bytes per request through
/// `controller`, stopping at `max_ns`, and check that every request
/// completed: a run cut short panics with a message naming `run`.
fn calibration_run<C: MemoryController>(
    controller: &mut C,
    granularity: u64,
    max_ns: Cycle,
    run: &str,
) -> SimulationReport {
    let mut trace = InterleavedStreams::calibration(granularity);
    let requests = trace.len();
    run_with_source_budgeted(controller, &mut trace, max_ns, &RunBudget::unlimited())
        .expect_complete(requests, run)
}

/// Calibrate the HBM4 baseline controller under mapping candidate `index`
/// of the sweep. Panics, naming the candidate and its field order, if the
/// run does not finish within `max_ns`.
fn hbm4_candidate(index: usize, mapping: MappingScheme, max_ns: Cycle) -> CalibrationResult {
    let run = format!("HBM4 calibration candidate {index} {:?}", mapping.order());
    let mut cfg = ControllerConfig::hbm4_baseline();
    cfg.mapping = mapping;
    let mut ctrl = ChannelController::new(cfg);
    let report = calibration_run(&mut ctrl, 32, max_ns, &run);
    CalibrationResult::from_report(&report, ctrl.config().organization.channel_bandwidth_gbps())
}

/// Every HBM4 mapping candidate's calibration, in sweep order. The
/// candidates run concurrently; a panic in any of them reaches the caller
/// with its own message.
fn hbm4_candidates(max_ns: Cycle) -> Vec<CalibrationResult> {
    let organization = ControllerConfig::hbm4_baseline().organization;
    MappingScheme::sweep_candidates(organization, 1)
        .into_iter()
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(index, mapping)| hbm4_candidate(index, mapping, max_ns))
        .collect()
}

/// The candidate a mapping sweep keeps, as `(index, result)`: the highest
/// bandwidth utilization, a tie going to the lower index, so the pick does
/// not depend on the order the results arrive in. `None` for no
/// candidates.
fn best_candidate(
    candidates: impl IntoIterator<Item = (usize, CalibrationResult)>,
) -> Option<(usize, CalibrationResult)> {
    candidates.into_iter().max_by(|(i, a), (j, b)| {
        a.bandwidth_utilization
            .total_cmp(&b.bandwidth_utilization)
            .then(j.cmp(i))
    })
}

impl Calibrator {
    /// Create an empty calibrator (results are computed lazily).
    pub fn new() -> Self {
        Calibrator::default()
    }

    /// Calibrate the conventional HBM4 channel controller, sweeping the
    /// candidate address mappings and keeping the best (the paper's
    /// methodology): the highest bandwidth utilization, ties to the
    /// earlier candidate of [`MappingScheme::sweep_candidates`].
    ///
    /// The candidates run concurrently, each streaming its own copy of the
    /// calibration trace through its own controller, so the result is the
    /// one a serial sweep gives. Panics, naming the candidate, if any
    /// candidate's run is cut short.
    pub fn hbm4(&mut self) -> CalibrationResult {
        if let Some(r) = self.hbm4 {
            return r;
        }
        let (_, result) = best_candidate(
            hbm4_candidates(CALIBRATION_LIMIT_NS)
                .into_iter()
                .enumerate(),
        )
        .expect("at least one mapping candidate");
        self.hbm4 = Some(result);
        result
    }

    /// Calibrate the RoMe channel controller on the same interleaved
    /// streams, one row per request.
    pub fn rome(&mut self) -> CalibrationResult {
        if let Some(r) = self.rome {
            return r;
        }
        let mut ctrl = RomeController::new(RomeControllerConfig::paper_default());
        let row = ctrl.config().row_bytes();
        let report = calibration_run(&mut ctrl, row, CALIBRATION_LIMIT_NS, "RoMe calibration");
        let result = CalibrationResult::from_report(
            &report,
            ctrl.config().organization.channel_bandwidth_gbps(),
        );
        self.rome = Some(result);
        result
    }

    /// Published-order fallback values, for callers that need a result
    /// without paying for the cycle simulation (documentation examples,
    /// smoke tests). The measured values are used by the benches.
    pub fn nominal_hbm4() -> CalibrationResult {
        CalibrationResult {
            bandwidth_utilization: 0.88,
            activates_per_kib: 1.55,
            mean_read_latency_ns: 250.0,
        }
    }

    /// Nominal RoMe calibration (see [`Calibrator::nominal_hbm4`]).
    pub fn nominal_rome() -> CalibrationResult {
        CalibrationResult {
            bandwidth_utilization: 0.96,
            activates_per_kib: 1.0,
            mean_read_latency_ns: 160.0,
        }
    }
}

/// A persistent, concurrent calibration cache — the warm state a
/// scenario-serving process keeps across batches.
///
/// [`Calibrator`] memoizes within one `&mut` borrow; a `CalibrationCache` is
/// the sharable form: keyed by [`MemorySystemKind`] (the system config that
/// determines the sampled run — the iso-bandwidth RoMe ablation shares the
/// RoMe entry, since calibration is per-channel), callable concurrently from
/// a worker pool, and long-lived. Each key is computed at most once: workers
/// racing on a cold key block on a per-key [`OnceLock`] while exactly one of
/// them runs the sampled simulation; different keys calibrate in parallel.
#[derive(Debug, Default)]
pub struct CalibrationCache {
    entries: Mutex<HashMap<MemorySystemKind, Arc<OnceLock<CalibrationResult>>>>,
    /// Lookups answered from an already-computed slot.
    hits: AtomicU64,
    /// Lookups that found the slot cold and (raced to) run the calibration.
    misses: AtomicU64,
}

impl CalibrationCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        CalibrationCache::default()
    }

    /// The cache key of a kind: the iso-bandwidth ablation runs the same
    /// per-channel RoMe controller, so it shares RoMe's entry.
    fn key(kind: MemorySystemKind) -> MemorySystemKind {
        match kind {
            MemorySystemKind::RomeIsoBandwidth => MemorySystemKind::Rome,
            k => k,
        }
    }

    /// Whether `kind` is already calibrated (without triggering a run).
    pub fn is_warm(&self, kind: MemorySystemKind) -> bool {
        // A panic while the map lock was held (a worker dying mid-insert)
        // poisons the mutex but cannot leave the map itself inconsistent —
        // the critical sections only clone/insert Arc slots — so recover the
        // guard instead of propagating the poison to every later scenario.
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&Self::key(kind))
            .is_some_and(|slot| slot.get().is_some())
    }

    /// The measured calibration of `kind`, running the sampled
    /// cycle-accurate simulation on the first request and reusing the result
    /// for every later one.
    pub fn get_or_calibrate(&self, kind: MemorySystemKind) -> CalibrationResult {
        let key = Self::key(kind);
        let slot = {
            // See `is_warm` for why poisoning is recoverable here. A panic
            // *inside* a calibration run leaves the OnceLock slot empty, so
            // the next request simply retries the calibration.
            let mut entries = self
                .entries
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(entries.entry(key).or_default())
        };
        // Classify before initializing: a cold slot counts as a miss for
        // every worker that raced on it (they all paid the wait), a warm one
        // as a hit.
        if slot.get().is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        *slot.get_or_init(|| match key {
            MemorySystemKind::Hbm4 => Calibrator::new().hbm4(),
            MemorySystemKind::Rome | MemorySystemKind::RomeIsoBandwidth => Calibrator::new().rome(),
        })
    }

    /// Lifetime `(hits, misses)` counters of [`CalibrationCache::get_or_calibrate`]:
    /// the cache's ops metrics, snapshotted atomically mid-run.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rome_engine::simulate::run_to_completion;
    use rome_mc::AddressMapping;

    /// The calibration trace materialized as a vector: the reference the
    /// streamed generator is pinned against.
    fn interleaved_streams(
        streams: u64,
        bytes_per_stream: u64,
        granularity: u64,
        seed: u64,
    ) -> Vec<MemoryRequest> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bases: Vec<u64> = (0..streams)
            .map(|_| rng.gen_range(0..(1u64 << 22)) * 4096)
            .collect();
        let chunks_per_stream = bytes_per_stream / granularity;
        let mut out = Vec::with_capacity((streams * chunks_per_stream) as usize);
        let mut id = 0u64;
        for chunk in 0..chunks_per_stream {
            for base in &bases {
                out.push(MemoryRequest::read(
                    id,
                    base + chunk * granularity,
                    granularity,
                    0,
                ));
                id += 1;
            }
        }
        out
    }

    /// The materialized calibration trace at `granularity` bytes per request.
    fn calibration_trace(granularity: u64) -> Vec<MemoryRequest> {
        interleaved_streams(
            CALIBRATION_STREAMS,
            CALIBRATION_BYTES_PER_STREAM,
            granularity,
            CALIBRATION_SEED,
        )
    }

    /// The request stream the HBM4 calibration runs, materialized.
    fn hbm4_calibration_trace() -> Vec<MemoryRequest> {
        calibration_trace(32)
    }

    /// The HBM4 baseline controller under mapping candidate `mapping`.
    fn hbm4_controller(mapping: MappingScheme) -> ChannelController {
        let mut cfg = ControllerConfig::hbm4_baseline();
        cfg.mapping = mapping;
        ChannelController::new(cfg)
    }

    fn hbm4_mappings() -> Vec<MappingScheme> {
        MappingScheme::sweep_candidates(ControllerConfig::hbm4_baseline().organization, 1)
    }

    /// Forwards every call to `inner` and tracks the requests it holds
    /// (enqueued and not completed).
    struct Held<C> {
        inner: C,
        held: usize,
        peak: usize,
    }

    impl<C> Held<C> {
        fn new(inner: C) -> Self {
            Held {
                inner,
                held: 0,
                peak: 0,
            }
        }

        fn admit(&mut self, ok: bool) -> bool {
            self.held += usize::from(ok);
            self.peak = self.peak.max(self.held);
            ok
        }
    }

    impl<C: rome_engine::MemoryController> rome_engine::MemoryController for Held<C> {
        type Entry = C::Entry;

        fn enqueue(&mut self, request: MemoryRequest) -> bool {
            let ok = self.inner.enqueue(request);
            self.admit(ok)
        }

        fn enqueue_entry(&mut self, entry: Self::Entry) -> bool {
            let ok = self.inner.enqueue_entry(entry);
            self.admit(ok)
        }

        fn entry_kind(entry: &Self::Entry) -> rome_mc::RequestKind {
            C::entry_kind(entry)
        }

        fn tick_into(
            &mut self,
            now: Cycle,
            completed: &mut Vec<rome_mc::request::CompletedRequest>,
        ) -> bool {
            let before = completed.len();
            let issued = self.inner.tick_into(now, completed);
            self.held -= completed.len() - before;
            issued
        }

        fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
            self.inner.next_event_at(now)
        }

        fn is_idle(&self) -> bool {
            self.inner.is_idle()
        }

        fn slots_free(&self) -> usize {
            self.inner.slots_free()
        }

        fn slots_free_for(&self, kind: rome_mc::RequestKind) -> usize {
            self.inner.slots_free_for(kind)
        }

        fn stats_snapshot(&self) -> rome_engine::StatsSnapshot {
            self.inner.stats_snapshot()
        }
    }

    /// Stream the calibration trace through `ctrl` with an explicit window.
    fn streamed<C: rome_engine::MemoryController>(
        ctrl: &mut C,
        granularity: u64,
        window: usize,
    ) -> SimulationReport {
        let mut trace = InterleavedStreams::new(
            CALIBRATION_STREAMS,
            CALIBRATION_BYTES_PER_STREAM,
            granularity,
            CALIBRATION_SEED,
            window,
        );
        run_with_source_budgeted(
            ctrl,
            &mut trace,
            CALIBRATION_LIMIT_NS,
            &RunBudget::unlimited(),
        )
    }

    #[test]
    fn interleaved_streams_round_robin_across_streams() {
        let reqs = interleaved_streams(4, 1024, 32, 1);
        assert_eq!(reqs.len(), 4 * 32);
        // The same four base addresses repeat every four requests, advancing
        // by one granule per round.
        let first: Vec<u64> = reqs.iter().take(4).map(|r| r.address.raw()).collect();
        let second: Vec<u64> = reqs
            .iter()
            .skip(4)
            .take(4)
            .map(|r| r.address.raw())
            .collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(b - a, 32);
        }
        // All bases are 4 KiB aligned and distinct.
        assert!(first.iter().all(|a| a % 4096 == 0));
        let dedup: std::collections::HashSet<u64> = first.iter().copied().collect();
        assert_eq!(dedup.len(), 4);
        // Deterministic for a given seed, different across seeds.
        assert_eq!(reqs, interleaved_streams(4, 1024, 32, 1));
        assert_ne!(reqs, interleaved_streams(4, 1024, 32, 2));
    }

    #[test]
    fn the_generator_releases_the_vector_trace_one_window_at_a_time() {
        let mut source = InterleavedStreams::new(4, 1024, 32, 1, 8);
        assert_eq!(source.len(), 4 * 32);
        assert_eq!(source.next_arrival_at(), Some(0));
        let mut pulled = Vec::new();
        source.pull_into(0, &mut pulled);
        assert_eq!(pulled.len(), 8, "the first pull releases one window");
        assert_eq!(
            source.next_arrival_at(),
            None,
            "later releases wait on completions"
        );
        source.pull_into(1, &mut pulled);
        assert_eq!(pulled.len(), 8, "a full window releases nothing");
        while !source.is_exhausted() {
            let done = pulled[source.completed as usize];
            source.on_completion(&HostCompletion {
                id: done.id,
                kind: done.kind,
                bytes: done.bytes,
                arrival: done.arrival,
                completed: 2,
            });
            source.pull_into(2, &mut pulled);
        }
        assert_eq!(pulled, interleaved_streams(4, 1024, 32, 1));
    }

    #[test]
    fn streamed_hbm4_candidates_replay_the_vector_trace_tick_for_tick() {
        // The streamed run must equal the replay of the materialized trace:
        // the same report and the same visited ticks. `total_cycles` counts
        // the controller ticks the event-driven driver visits, so the golden
        // counts also pin the wakeup hint exactly: a looser hint adds
        // spurious ticks, a tighter one skips needed ones (and then usually
        // changes the schedule too).
        let mut ticks = Vec::new();
        for mapping in hbm4_mappings() {
            let mut vector = hbm4_controller(mapping.clone());
            let replayed = run_to_completion(&mut vector, hbm4_calibration_trace());
            let mut stream = Held::new(hbm4_controller(mapping.clone()));
            let report = streamed(&mut stream, 32, CALIBRATION_WINDOW);
            assert_eq!(report, replayed, "candidate {:?}", mapping.order());
            assert_eq!(
                stream.inner.stats(),
                vector.stats(),
                "candidate {:?}",
                mapping.order()
            );
            // The window's documented margin: at least twice what the
            // controller ever holds.
            assert!(
                2 * stream.peak <= CALIBRATION_WINDOW,
                "candidate {:?} holds {} requests",
                mapping.order(),
                stream.peak
            );
            ticks.push(vector.stats().total_cycles);
        }
        assert_eq!(ticks, [41_325, 40_572, 41_206, 20_963]);
    }

    #[test]
    fn streamed_rome_calibration_replays_the_vector_trace() {
        let mut vector = RomeController::new(RomeControllerConfig::paper_default());
        let row = vector.config().row_bytes();
        let replayed = run_to_completion(&mut vector, calibration_trace(row));
        let mut stream = Held::new(RomeController::new(RomeControllerConfig::paper_default()));
        let report = streamed(&mut stream, row, CALIBRATION_WINDOW);
        assert_eq!(report, replayed);
        assert_eq!(stream.inner.stats(), vector.stats());
        assert!(
            2 * stream.peak <= CALIBRATION_WINDOW,
            "holds {}",
            stream.peak
        );
    }

    #[test]
    fn a_window_below_what_the_controller_holds_changes_the_run() {
        // The replay pin can fail: with a window of 96 the driver runs dry
        // while candidate 3's queue has free slots.
        let mapping = hbm4_mappings().swap_remove(3);
        let mut vector = hbm4_controller(mapping.clone());
        let replayed = run_to_completion(&mut vector, hbm4_calibration_trace());
        let report = streamed(&mut hbm4_controller(mapping), 32, 96);
        assert_eq!(report.requests_completed, replayed.requests_completed);
        assert_ne!(report, replayed);
    }

    #[test]
    fn the_best_candidate_is_the_highest_utilization_ties_to_the_lower_index() {
        let result = |utilization: f64, acts: f64| CalibrationResult {
            bandwidth_utilization: utilization,
            activates_per_kib: acts,
            mean_read_latency_ns: 100.0,
        };
        let candidates = [
            (0, result(0.6, 1.0)),
            (1, result(0.8, 2.0)),
            (2, result(0.7, 1.0)),
            (3, result(0.8, 3.0)),
        ];
        // Every input order: rotations of both directions.
        for rotation in 0..candidates.len() {
            let mut order = candidates.to_vec();
            order.rotate_left(rotation);
            assert_eq!(best_candidate(order.clone()), Some(candidates[1]));
            order.reverse();
            assert_eq!(best_candidate(order), Some(candidates[1]));
        }
        assert_eq!(best_candidate([candidates[2]]), Some(candidates[2]));
        assert_eq!(best_candidate([]), None);
    }

    #[test]
    fn the_concurrent_sweep_picks_what_a_serial_fold_picks() {
        // The sweep as it ran before the candidates ran concurrently: one
        // candidate after another over the materialized trace, a later
        // candidate replacing the best only when strictly better.
        let mut best: Option<CalibrationResult> = None;
        for mapping in hbm4_mappings() {
            let mut ctrl = hbm4_controller(mapping);
            let report = run_to_completion(&mut ctrl, hbm4_calibration_trace());
            let candidate = CalibrationResult::from_report(
                &report,
                ctrl.config().organization.channel_bandwidth_gbps(),
            );
            if best.is_none_or(|b| candidate.bandwidth_utilization > b.bandwidth_utilization) {
                best = Some(candidate);
            }
        }
        assert_eq!(Some(Calibrator::new().hbm4()), best);
    }

    #[test]
    fn a_cut_short_candidate_panics_with_its_index_and_mapping_order() {
        // The same concurrent path as `Calibrator::hbm4`, with a limit no
        // candidate can meet: the panic that reaches the caller is the
        // first candidate's own, not a worker-join error.
        let payload = std::panic::catch_unwind(|| hbm4_candidates(1_000))
            .expect_err("a cut-short candidate must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("the candidate's formatted message");
        let order = format!("{:?}", hbm4_mappings()[0].order());
        assert!(
            message.starts_with(&format!(
                "HBM4 calibration candidate 0 {order}: incomplete run"
            )),
            "{message}"
        );
    }

    #[test]
    fn hbm4_calibration_is_reasonable_and_cached() {
        let mut cal = Calibrator::new();
        let a = cal.hbm4();
        let b = cal.hbm4();
        assert_eq!(a, b);
        assert!(
            a.bandwidth_utilization > 0.5 && a.bandwidth_utilization <= 1.0,
            "utilization {}",
            a.bandwidth_utilization
        );
        assert!(
            a.activates_per_kib >= 0.9,
            "acts/KiB {}",
            a.activates_per_kib
        );
        assert!(a.mean_read_latency_ns > 0.0);
    }

    #[test]
    fn rome_calibration_beats_hbm4_on_activates_and_utilization() {
        let mut cal = Calibrator::new();
        let hbm4 = cal.hbm4();
        let rome = cal.rome();
        assert!(
            rome.bandwidth_utilization >= hbm4.bandwidth_utilization - 0.05,
            "rome {} vs hbm4 {}",
            rome.bandwidth_utilization,
            hbm4.bandwidth_utilization
        );
        assert!(
            rome.activates_per_kib <= hbm4.activates_per_kib + 0.01,
            "rome {} vs hbm4 {}",
            rome.activates_per_kib,
            hbm4.activates_per_kib
        );
        assert!(rome.bandwidth_utilization > 0.85);
        assert!((rome.activates_per_kib - 1.0).abs() < 0.05);
    }

    #[test]
    fn calibration_cache_is_warm_after_first_use_and_matches_the_calibrator() {
        let cache = CalibrationCache::new();
        assert!(!cache.is_warm(MemorySystemKind::Hbm4));
        let a = cache.get_or_calibrate(MemorySystemKind::Hbm4);
        assert!(cache.is_warm(MemorySystemKind::Hbm4));
        assert_eq!(
            a,
            Calibrator::new().hbm4(),
            "cache must match the direct path"
        );
        assert_eq!(a, cache.get_or_calibrate(MemorySystemKind::Hbm4));
        // The iso-bandwidth ablation shares RoMe's entry (same per-channel
        // controller).
        assert!(!cache.is_warm(MemorySystemKind::Rome));
        let iso = cache.get_or_calibrate(MemorySystemKind::RomeIsoBandwidth);
        assert!(cache.is_warm(MemorySystemKind::Rome));
        assert_eq!(iso, cache.get_or_calibrate(MemorySystemKind::Rome));
    }

    /// Feeds requests to a [`ChannelController`] through `enqueue_mapped`
    /// with every entry tagged as channel `channel` — the way a
    /// multi-channel `MemorySystem` hands a controller its share.
    struct TaggedChannel {
        ctrl: ChannelController,
        channel: u16,
    }

    impl rome_engine::MemoryController for TaggedChannel {
        type Entry = rome_mc::queue::QueueEntry;

        fn enqueue(&mut self, request: MemoryRequest) -> bool {
            let mut dram = self.ctrl.config().mapping.map(request.address);
            dram.channel = self.channel;
            self.enqueue_entry(rome_mc::queue::QueueEntry { request, dram })
        }

        fn enqueue_entry(&mut self, entry: Self::Entry) -> bool {
            self.ctrl.enqueue_mapped(entry)
        }

        fn entry_kind(entry: &Self::Entry) -> rome_mc::RequestKind {
            entry.request.kind
        }

        fn tick_into(
            &mut self,
            now: rome_hbm::units::Cycle,
            completed: &mut Vec<rome_mc::request::CompletedRequest>,
        ) -> bool {
            self.ctrl.tick_into(now, completed)
        }

        fn next_event_at(&self, now: rome_hbm::units::Cycle) -> Option<rome_hbm::units::Cycle> {
            self.ctrl.next_event_at(now)
        }

        fn is_idle(&self) -> bool {
            self.ctrl.is_idle()
        }

        fn slots_free(&self) -> usize {
            self.ctrl.slots_free()
        }

        fn slots_free_for(&self, kind: rome_mc::RequestKind) -> usize {
            rome_engine::MemoryController::slots_free_for(&self.ctrl, kind)
        }

        fn stats_snapshot(&self) -> rome_engine::StatsSnapshot {
            rome_engine::MemoryController::stats_snapshot(&self.ctrl)
        }
    }

    #[test]
    fn refresh_postponement_does_not_depend_on_the_channel_id() {
        // A controller inside a multi-channel system holds entries tagged
        // with its global channel id. Whether a due per-bank refresh is
        // postponed for pending work — or a row kept open for a pending hit
        // — must not depend on that tag.
        let run = |channel: u16| {
            let mut tagged = TaggedChannel {
                ctrl: ChannelController::new(ControllerConfig::hbm4_baseline()),
                channel,
            };
            let report = run_to_completion(&mut tagged, hbm4_calibration_trace());
            (report, tagged.ctrl.stats().clone())
        };
        let (report0, stats0) = run(0);
        let (report5, stats5) = run(5);
        assert_eq!(report0, report5);
        assert_eq!(stats0, stats5);
        assert!(stats0.refreshes_issued > 0);
    }

    #[test]
    fn nominal_values_are_sane() {
        let h = Calibrator::nominal_hbm4();
        let r = Calibrator::nominal_rome();
        assert!(r.bandwidth_utilization > h.bandwidth_utilization);
        assert!(r.activates_per_kib < h.activates_per_kib);
    }
}
