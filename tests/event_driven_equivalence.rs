//! Equivalence of the event-driven simulation drivers and cycle-stepped
//! references.
//!
//! The single-controller event loop (`run_with_source_budgeted`, which the
//! vector drivers `run_with_budget` and `run_to_completion` replay through)
//! must execute the exact command schedule of a cycle-by-cycle loop. This
//! suite pins *bit-identical* `SimulationReport`s against the test-only
//! stepped reference `common::run_stepped` across workload shapes, queue
//! depths, and time limits, on both the conventional HBM4 controller and
//! the RoMe controller, which both run through the one generic loop via the
//! `MemoryController` trait.
//!
//! The stepped references run the same scheduler scans and the same
//! multi-channel event calendar as the event-driven runs; those have their
//! own from-scratch references inside their crates' test builds (every
//! scheduling decision of both controllers is checked against a test-only
//! walk of the queue, and every calendar step against a from-scratch
//! recompute and a stepped system that ticks every channel every cycle).
//! What this suite pins is the driver: jumping between the reported events
//! must execute exactly the schedule of visiting every cycle. The
//! single-controller reference ticks the controller on every cycle, so
//! a controller wakeup reported one cycle too late — a missed event —
//! surfaces here as a report mismatch. The system-level stepped baselines
//! advance the global clock every cycle through the same calendar, so they
//! pin the system's own `next_event_at` (admission probe and heap minimum);
//! the per-channel cached wakeups are pinned in `rome-engine` against its
//! stepped reference. Dense 64-entry queues and deep multi-channel backlogs
//! are among the inputs, because they are where the scans park the most
//! entries on stored bounds.

mod common;

use rome::core::controller::{RomeController, RomeControllerConfig};
use rome::core::system::{RomeMemorySystem, RomeSystemConfig};
use rome::engine::simulate::{run_to_completion, run_with_budget};
use rome::engine::{MemoryController, RunBudget};
use rome::mc::controller::{ChannelController, ControllerConfig};
use rome::mc::request::MemoryRequest;
use rome::mc::system::{HostCompletion, MemorySystem, MemorySystemConfig};
use rome::mc::workload;

/// The workload set exercised on both systems: streaming reads, streaming
/// writes, uniformly random reads, and a read/write mix.
fn workloads(total_bytes: u64, granularity: u64) -> Vec<(&'static str, Vec<MemoryRequest>)> {
    vec![
        (
            "streaming-read",
            workload::streaming_reads(0, total_bytes, granularity),
        ),
        (
            "streaming-write",
            workload::streaming_writes(0, total_bytes, granularity),
        ),
        (
            "random-read",
            workload::random_reads(0, 1 << 24, total_bytes / granularity, granularity, 7),
        ),
        (
            "mixed",
            workload::read_write_mix(0, total_bytes, granularity, 4),
        ),
    ]
}

/// Run `requests` through the event-driven vector driver and through the
/// stepped reference on two fresh controllers and require identical reports.
fn assert_equivalent<C: MemoryController>(
    make: impl Fn() -> C,
    requests: Vec<MemoryRequest>,
    max_ns: u64,
    label: &str,
) {
    let fast = run_with_budget(
        &mut make(),
        requests.clone(),
        max_ns,
        &RunBudget::unlimited(),
    );
    let slow = common::run_stepped(&mut make(), requests, max_ns);
    assert_eq!(fast, slow, "reports diverged on {label}");
}

fn assert_mc_equivalent(
    cfg: ControllerConfig,
    requests: Vec<MemoryRequest>,
    max_ns: u64,
    label: &str,
) {
    assert_equivalent(
        || ChannelController::new(cfg.clone()),
        requests,
        max_ns,
        &format!("hbm4 {label}"),
    );
}

fn assert_rome_equivalent(
    cfg: RomeControllerConfig,
    requests: Vec<MemoryRequest>,
    max_ns: u64,
    label: &str,
) {
    assert_equivalent(
        || RomeController::new(cfg.clone()),
        requests,
        max_ns,
        &format!("rome {label}"),
    );
}

#[test]
fn hbm4_reports_are_bit_identical_across_workloads() {
    for (label, reqs) in workloads(64 * 1024, 32) {
        assert_mc_equivalent(ControllerConfig::hbm4_baseline(), reqs, 50_000_000, label);
    }
}

#[test]
fn hbm4_reports_are_bit_identical_across_queue_depths() {
    for depth in [1usize, 2, 4, 64] {
        for (label, reqs) in workloads(16 * 1024, 32) {
            assert_mc_equivalent(
                ControllerConfig::hbm4_with_queue_depth(depth),
                reqs,
                50_000_000,
                &format!("{label}@depth{depth}"),
            );
        }
    }
}

#[test]
fn ready_cache_is_inert_on_the_dense_64_entry_queue() {
    // The ready cache's target workload: a 64-entry queue kept saturated, so
    // every tick sees tens of timing-blocked candidates parked on stored
    // bounds. What the cache holds depends on which cycles were visited;
    // the stepped run visits every cycle and the event-driven run only the
    // reported events, so a stored bound that changed a decision or went
    // stale across skipped cycles would split the two reports.
    for (label, reqs) in workloads(64 * 1024, 32) {
        assert_mc_equivalent(
            ControllerConfig::hbm4_with_queue_depth(64),
            reqs,
            50_000_000,
            &format!("{label}@dense64"),
        );
    }
}

#[test]
fn soa_scan_is_bit_identical_on_the_dense_64_entry_queue() {
    // The packed (SoA) scan's target workload: a 64-entry queue kept
    // saturated on a larger backlog than the ready-cache case above, so
    // every tick scans tens of candidates through the packed arrays and the
    // row-open bitmask.
    for (label, reqs) in workloads(128 * 1024, 32) {
        assert_mc_equivalent(
            ControllerConfig::hbm4_with_queue_depth(64),
            reqs,
            50_000_000,
            &format!("{label}@soa-dense64"),
        );
    }
}

#[test]
fn hbm4_reports_are_bit_identical_under_time_limits() {
    // Cutoffs landing mid-run, including ones far past the last event.
    for max_ns in [100u64, 1_000, 10_000, 1_000_000] {
        for (label, reqs) in workloads(32 * 1024, 32) {
            assert_mc_equivalent(
                ControllerConfig::hbm4_baseline(),
                reqs,
                max_ns,
                &format!("{label}@max{max_ns}"),
            );
        }
    }
}

#[test]
fn rome_reports_are_bit_identical_across_workloads() {
    for (label, reqs) in workloads(512 * 1024, 4096) {
        assert_rome_equivalent(
            RomeControllerConfig::paper_default(),
            reqs,
            50_000_000,
            label,
        );
    }
}

#[test]
fn rome_reports_are_bit_identical_across_queue_depths() {
    for depth in [1usize, 2, 8] {
        for (label, reqs) in workloads(256 * 1024, 4096) {
            assert_rome_equivalent(
                RomeControllerConfig::with_queue_depth(depth),
                reqs,
                50_000_000,
                &format!("{label}@depth{depth}"),
            );
        }
    }
}

#[test]
fn rome_reports_are_bit_identical_under_time_limits() {
    for max_ns in [100u64, 5_000, 1_000_000] {
        for (label, reqs) in workloads(256 * 1024, 4096) {
            assert_rome_equivalent(
                RomeControllerConfig::paper_default(),
                reqs,
                max_ns,
                &format!("{label}@max{max_ns}"),
            );
        }
    }
}

#[test]
fn generic_engine_driver_runs_both_stacks() {
    // Both stacks run through the one generic loop: `run_to_completion`,
    // the entry point of every table and calibration, must give the
    // stepped reference's report on either controller type.
    for (label, reqs) in workloads(16 * 1024, 32) {
        let via_engine = run_to_completion(
            &mut ChannelController::new(ControllerConfig::hbm4_baseline()),
            reqs.clone(),
        );
        let stepped = common::run_stepped(
            &mut ChannelController::new(ControllerConfig::hbm4_baseline()),
            reqs,
            50_000_000,
        );
        assert_eq!(via_engine, stepped, "hbm4 engine path diverged on {label}");
    }
    for (label, reqs) in workloads(128 * 1024, 4096) {
        let via_engine = run_to_completion(
            &mut RomeController::new(RomeControllerConfig::paper_default()),
            reqs.clone(),
        );
        let stepped = common::run_stepped(
            &mut RomeController::new(RomeControllerConfig::paper_default()),
            reqs,
            50_000_000,
        );
        assert_eq!(via_engine, stepped, "rome engine path diverged on {label}");
    }
}

#[test]
fn staggered_arrivals_stay_equivalent() {
    // A vector run releases each request at its arrival: gaps the
    // controller idles through, bursts that queue up behind a full queue,
    // and an out-of-order arrival clamped to its predecessor's.
    let reqs: Vec<MemoryRequest> = (0..256u64)
        .map(|i| {
            let arrival = (i / 16) * 700 + if i % 37 == 5 { 0 } else { i % 3 };
            if i % 4 == 3 {
                MemoryRequest::write(i + 1, i * 4096, 32, arrival)
            } else {
                MemoryRequest::read(i + 1, i * 4096, 32, arrival)
            }
        })
        .collect();
    assert_mc_equivalent(
        ControllerConfig::hbm4_baseline(),
        reqs.clone(),
        50_000_000,
        "staggered",
    );
    let rows: Vec<MemoryRequest> = reqs
        .iter()
        .map(|r| MemoryRequest { bytes: 4096, ..*r })
        .collect();
    assert_rome_equivalent(
        RomeControllerConfig::paper_default(),
        rows,
        50_000_000,
        "staggered",
    );
}

/// Host-request mix used for the multi-channel system tests: several
/// concurrent transfers of both kinds.
fn host_requests() -> Vec<MemoryRequest> {
    vec![
        MemoryRequest::read(1, 0, 48 * 1024, 0),
        MemoryRequest::write(2, 1 << 20, 32 * 1024, 0),
        MemoryRequest::read(3, 2 << 20, 8 * 1024, 0),
        MemoryRequest::write(4, 3 << 20, 4 * 1024, 0),
    ]
}

fn small_mc_system() -> MemorySystem {
    let mut cfg = MemorySystemConfig::hbm4(4);
    // Shallow queues so the backlog actually exerts back-pressure.
    cfg.controller.read_queue_capacity = 2;
    cfg.controller.write_queue_capacity = 2;
    cfg.controller.write_drain_high = 1;
    cfg.controller.write_drain_low = 0;
    MemorySystem::new(cfg)
}

fn small_rome_system() -> RomeMemorySystem {
    let mut cfg = RomeSystemConfig::with_channels(4);
    cfg.controller.queue_capacity = 2;
    RomeMemorySystem::new(cfg)
}

/// The surface of the two multi-channel memory systems the drivers below
/// need.
trait System {
    fn submit(&mut self, request: MemoryRequest);
    fn is_idle(&self) -> bool;
    fn tick_into(&mut self, now: u64, done: &mut Vec<HostCompletion>) -> bool;
    fn next_event_at(&mut self, now: u64) -> Option<u64>;
    fn bytes_per_channel(&self) -> Vec<u64>;
}

macro_rules! impl_system {
    ($ty:ty) => {
        impl System for $ty {
            fn submit(&mut self, request: MemoryRequest) {
                <$ty>::submit(self, request);
            }
            fn is_idle(&self) -> bool {
                <$ty>::is_idle(self)
            }
            fn tick_into(&mut self, now: u64, done: &mut Vec<HostCompletion>) -> bool {
                <$ty>::tick_into(self, now, done)
            }
            fn next_event_at(&mut self, now: u64) -> Option<u64> {
                <$ty>::next_event_at(self, now)
            }
            fn bytes_per_channel(&self) -> Vec<u64> {
                <$ty>::bytes_per_channel(self)
            }
        }
    };
}
impl_system!(MemorySystem);
impl_system!(RomeMemorySystem);

/// Drive `sys` one cycle at a time until idle (the stepped baseline).
fn run_stepped(sys: &mut impl System) -> Vec<HostCompletion> {
    let mut done = Vec::new();
    let mut now = 0u64;
    while !sys.is_idle() && now < 5_000_000 {
        sys.tick_into(now, &mut done);
        now += 1;
    }
    done
}

/// Drive `sys` through `tick_into` + `next_event_at`, skipping the cycles
/// the calendar reports as idle.
fn run_event(sys: &mut impl System) -> Vec<HostCompletion> {
    let mut done = Vec::new();
    let mut now = 0u64;
    while !sys.is_idle() && now < 5_000_000 {
        let issued = sys.tick_into(now, &mut done);
        now = if issued {
            now + 1
        } else {
            sys.next_event_at(now).map_or(now + 1, |t| t.max(now + 1))
        };
    }
    done
}

/// Submit `requests` to two fresh systems, run one stepped and one
/// event-driven, and require identical completions and per-channel bytes.
/// Returns the event-driven system for further checks.
fn assert_system_equivalent<S: System>(make: impl Fn() -> S, requests: &[MemoryRequest]) -> S {
    let mut stepped = make();
    let mut event = make();
    for &r in requests {
        stepped.submit(r);
        event.submit(r);
    }
    let done_stepped = run_stepped(&mut stepped);
    let done_event = run_event(&mut event);
    assert_eq!(done_event, done_stepped);
    assert_eq!(done_event.len(), requests.len(), "every request completes");
    assert_eq!(event.bytes_per_channel(), stepped.bytes_per_channel());
    event
}

/// Deep (64-entry) per-channel queues on a saturated multi-channel system.
fn dense_mc_system(channels: u16) -> MemorySystem {
    let mut cfg = MemorySystemConfig::hbm4(channels);
    cfg.controller.read_queue_capacity = 64;
    cfg.controller.write_queue_capacity = 64;
    MemorySystem::new(cfg)
}

#[test]
fn mc_system_event_stepping_is_bit_identical_to_per_cycle_ticks() {
    // Driving the system through tick_into + next_event_at is the same
    // global scheduler, merely skipping provably idle cycles — completions
    // must match the per-cycle loop exactly, so a system wakeup (admission
    // probe or heap minimum) one cycle too late would surface here.
    assert_system_equivalent(small_mc_system, &host_requests());
}

#[test]
fn soa_scan_is_bit_identical_on_dense_multi_channel_backlogs() {
    // System-level pinning of the packed (SoA) scan under saturation: deep
    // per-channel queues behind a one-line-stride read/write mix over 4
    // channels, and one streaming read split over 32 channels. Every
    // channel parks tens of entries on stored bounds, and the event-driven
    // run skips the cycles the stepped run visits.
    let dense_mix: Vec<MemoryRequest> = (0..512u64)
        .map(|i| {
            if i % 5 == 0 {
                MemoryRequest::write(i + 1, i * 32, 32, 0)
            } else {
                MemoryRequest::read(i + 1, i * 32, 32, 0)
            }
        })
        .collect();
    assert_system_equivalent(|| dense_mc_system(4), &dense_mix);
    assert_system_equivalent(
        || dense_mc_system(32),
        &[MemoryRequest::read(1, 0, 512 * 1024, 0)],
    );
}

#[test]
fn rome_system_event_stepping_is_bit_identical_to_per_cycle_ticks() {
    assert_system_equivalent(small_rome_system, &host_requests());
}

#[test]
fn long_single_channel_backlog_stays_equivalent() {
    // Every fragment lands on the same channel (stride = channels ×
    // granularity) behind a 2-entry queue, so hundreds of fragments wait in
    // a single channel's backlog — the admission-probe case that used to
    // degenerate to O(backlog) per event step.
    let requests: Vec<MemoryRequest> = (0..256u64)
        .map(|i| MemoryRequest::read(i + 1, i * 4 * 32, 32, 0))
        .collect();
    let event = assert_system_equivalent(small_mc_system, &requests);
    // The workload really was single-channel: exactly one channel moved data.
    assert_eq!(
        event.bytes_per_channel().iter().filter(|&&b| b > 0).count(),
        1
    );
}

#[test]
fn mc_system_run_until_idle_preserves_totals_vs_per_cycle_ticks() {
    // run_until_idle runs channels independently (per-kind FIFO backlogs),
    // so its schedule legitimately differs from the tick() path in arrival
    // order; every total must nevertheless agree.
    let mut ticked = small_mc_system();
    let mut parallel = small_mc_system();
    for r in host_requests() {
        ticked.submit(r);
        parallel.submit(r);
    }

    let done_ticked = run_stepped(&mut ticked);
    let (done_parallel, stop, _) = parallel.run_until_idle(5_000_000, &RunBudget::unlimited());

    assert!(stop > 0);
    assert_eq!(done_parallel.len(), done_ticked.len());
    let mut ids_a: Vec<u64> = done_parallel.iter().map(|c| c.id.0).collect();
    let mut ids_b: Vec<u64> = done_ticked.iter().map(|c| c.id.0).collect();
    ids_a.sort_unstable();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b);
    assert_eq!(parallel.bytes_per_channel(), ticked.bytes_per_channel());
    assert_eq!(parallel.stats().bytes_read, ticked.stats().bytes_read);
    assert_eq!(parallel.stats().bytes_written, ticked.stats().bytes_written);
}

#[test]
fn rome_system_run_until_idle_preserves_totals_vs_per_cycle_ticks() {
    let mut ticked = small_rome_system();
    let mut parallel = small_rome_system();
    for r in host_requests() {
        ticked.submit(r);
        parallel.submit(r);
    }

    let done_ticked = run_stepped(&mut ticked);
    let (done_parallel, stop, _) = parallel.run_until_idle(5_000_000, &RunBudget::unlimited());

    assert!(stop > 0);
    assert_eq!(done_parallel.len(), done_ticked.len());
    let mut ids_a: Vec<u64> = done_parallel.iter().map(|c| c.id.0).collect();
    let mut ids_b: Vec<u64> = done_ticked.iter().map(|c| c.id.0).collect();
    ids_a.sort_unstable();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b);
    assert_eq!(parallel.bytes_per_channel(), ticked.bytes_per_channel());
    assert_eq!(parallel.stats().bytes_read, ticked.stats().bytes_read);
    assert_eq!(parallel.stats().bytes_written, ticked.stats().bytes_written);
}

#[test]
fn refresh_heavy_idle_windows_stay_equivalent() {
    // A tiny burst of traffic followed by a long idle window forces both
    // drivers through many refresh cycles; the event-driven driver must jump
    // between them without perturbing the schedule.
    let reqs = workload::streaming_reads(0, 2 * 1024, 32);
    assert_mc_equivalent(
        ControllerConfig::hbm4_baseline(),
        reqs,
        2_000_000,
        "refresh-idle",
    );
    let reqs = workload::streaming_reads(0, 16 * 4096, 4096);
    assert_rome_equivalent(
        RomeControllerConfig::paper_default(),
        reqs,
        2_000_000,
        "refresh-idle",
    );
}
