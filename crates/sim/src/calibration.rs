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
//! best-performing one is used.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use rome_core::controller::{RomeController, RomeControllerConfig};
use rome_core::simulate as rome_simulate;
use rome_mc::controller::{ChannelController, ControllerConfig};
use rome_mc::mapping::MappingScheme;
use rome_mc::request::MemoryRequest;
use rome_mc::simulate as mc_simulate;

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

/// Build the interleaved multi-stream request trace used for calibration:
/// `streams` sequential streams at independent (seeded-random, 4 KiB-aligned)
/// base addresses whose granules are interleaved round-robin — the arrival
/// order a DMA engine serving several tensors produces.
pub fn interleaved_streams(
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

/// The request stream the HBM4 calibration replays: the interleaved
/// streams at cache-line (32 B) granularity.
fn hbm4_calibration_trace() -> Vec<MemoryRequest> {
    interleaved_streams(
        CALIBRATION_STREAMS,
        CALIBRATION_BYTES_PER_STREAM,
        32,
        CALIBRATION_SEED,
    )
}

impl Calibrator {
    /// Create an empty calibrator (results are computed lazily).
    pub fn new() -> Self {
        Calibrator::default()
    }

    /// Calibrate the conventional HBM4 channel controller, sweeping the
    /// candidate address mappings and keeping the best (the paper's
    /// methodology).
    pub fn hbm4(&mut self) -> CalibrationResult {
        if let Some(r) = self.hbm4 {
            return r;
        }
        let reqs = hbm4_calibration_trace();
        let base_cfg = ControllerConfig::hbm4_baseline();
        let mut best: Option<CalibrationResult> = None;
        for mapping in MappingScheme::sweep_candidates(base_cfg.organization, 1) {
            let mut cfg = base_cfg.clone();
            cfg.mapping = mapping;
            let mut ctrl = ChannelController::new(cfg);
            let report = mc_simulate::run_to_completion(&mut ctrl, reqs.clone());
            let peak = ctrl.config().organization.channel_bandwidth_gbps();
            let candidate = CalibrationResult {
                bandwidth_utilization: (report.achieved_bandwidth_gbps / peak).min(1.0),
                activates_per_kib: report.activates_per_kib,
                mean_read_latency_ns: report.mean_read_latency,
            };
            if best
                .map(|b| candidate.bandwidth_utilization > b.bandwidth_utilization)
                .unwrap_or(true)
            {
                best = Some(candidate);
            }
        }
        let result = best.expect("at least one mapping candidate");
        self.hbm4 = Some(result);
        result
    }

    /// Calibrate the RoMe channel controller.
    pub fn rome(&mut self) -> CalibrationResult {
        if let Some(r) = self.rome {
            return r;
        }
        let mut ctrl = RomeController::new(RomeControllerConfig::paper_default());
        let row = ctrl.config().row_bytes();
        let reqs = interleaved_streams(
            CALIBRATION_STREAMS,
            CALIBRATION_BYTES_PER_STREAM,
            row,
            CALIBRATION_SEED,
        );
        let report = rome_simulate::run_to_completion(&mut ctrl, reqs);
        let peak = ctrl.config().organization.channel_bandwidth_gbps();
        let result = CalibrationResult {
            bandwidth_utilization: (report.achieved_bandwidth_gbps / peak).min(1.0),
            activates_per_kib: report.activates_per_kib,
            mean_read_latency_ns: report.mean_read_latency,
        };
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
    use rome_mc::AddressMapping;

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

    #[test]
    fn hbm4_calibration_candidates_take_their_golden_tick_counts() {
        // `total_cycles` counts the controller ticks the event-driven driver
        // visits, so it pins the wakeup hint exactly: a looser hint adds
        // spurious ticks, a tighter one skips needed ones (and then usually
        // changes the schedule too).
        let base = ControllerConfig::hbm4_baseline();
        let ticks: Vec<u64> = MappingScheme::sweep_candidates(base.organization, 1)
            .into_iter()
            .map(|mapping| {
                let mut cfg = base.clone();
                cfg.mapping = mapping;
                let mut ctrl = ChannelController::new(cfg);
                mc_simulate::run_to_completion(&mut ctrl, hbm4_calibration_trace());
                ctrl.stats().total_cycles
            })
            .collect();
        assert_eq!(ticks, [41_325, 40_572, 41_206, 20_963]);
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
        // — must not depend on that tag, in the SoA scans or in the oracle
        // scans' CAM walk.
        let run = |channel: u16, soa: bool| {
            let mut config = ControllerConfig::hbm4_baseline();
            config.soa = soa;
            let mut tagged = TaggedChannel {
                ctrl: ChannelController::new(config),
                channel,
            };
            let report = mc_simulate::run_to_completion(&mut tagged, hbm4_calibration_trace());
            (report, tagged.ctrl.stats().clone())
        };
        let [soa_report, oracle_report] = [true, false].map(|soa| {
            let (report0, stats0) = run(0, soa);
            let (report5, stats5) = run(5, soa);
            assert_eq!(report0, report5, "soa {soa}");
            assert_eq!(stats0, stats5, "soa {soa}");
            assert!(stats0.refreshes_issued > 0);
            report0
        });
        // The oracle's wakeup hints may visit other idle ticks, but its
        // schedule is the same.
        assert_eq!(soa_report, oracle_report);
    }

    #[test]
    fn nominal_values_are_sane() {
        let h = Calibrator::nominal_hbm4();
        let r = Calibrator::nominal_rome();
        assert!(r.bandwidth_utilization > h.bandwidth_utilization);
        assert!(r.activates_per_kib < h.activates_per_kib);
    }
}
