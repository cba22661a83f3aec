//! Regression suite of the streaming workload subsystem.
//!
//! Pins three contracts:
//!
//! 1. **Replay equivalence** — `run_with_source_budgeted` over
//!    `ReplaySource::from(vec)`, the path every vector driver takes,
//!    produces a *bit-identical* `SimulationReport` to the cycle-stepped
//!    reference on the same vector, for both single-channel controllers,
//!    and a system driven from a replay gives bit-identical host
//!    completions to one fed the whole vector up front, on both
//!    multi-channel memory systems. A vector run releases each request at
//!    its arrival.
//! 2. **Seed determinism** — every source is a pure function of its seed
//!    and pull schedule: the same seed yields the same stream however the
//!    driver slices time, and different seeds diverge.
//! 3. **Closed-loop discipline** — a `ClosedLoopHost` never exceeds its
//!    window, drains completely, and wider windows never lose bandwidth.

mod common;

use proptest::prelude::*;

use rome::core::controller::{RomeController, RomeControllerConfig};
use rome::core::system::{RomeMemorySystem, RomeSystemConfig};
use rome::engine::simulate::{run_with_budget, run_with_source_budgeted};
use rome::engine::source::{ReplaySource, TrafficSource};
use rome::engine::system::HostCompletion;
use rome::engine::RunBudget;
use rome::mc::controller::{ChannelController, ControllerConfig};
use rome::mc::request::MemoryRequest;
use rome::mc::system::{MemorySystem, MemorySystemConfig};
use rome::mc::workload;
use rome::workload::{
    trace, BurstSource, ClosedLoopHost, MoeRoutingConfig, MoeRoutingSource, MultiTenantMixSource,
    PrefillDecodeConfig, PrefillDecodeInterleaveSource, SloPolicy, TenantSlo, TenantSpec,
    TraceRecord, TraceSource,
};

/// The workload set exercised on both systems.
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
        // A non-multiple total: exercises the partial-tail requests.
        (
            "partial-tail",
            workload::streaming_reads(0, total_bytes + granularity / 2, granularity),
        ),
    ]
}

#[test]
fn replay_source_is_bit_identical_on_the_hbm4_controller() {
    for (label, reqs) in workloads(32 * 1024, 32) {
        let mut a = ChannelController::new(ControllerConfig::hbm4_baseline());
        let mut b = ChannelController::new(ControllerConfig::hbm4_baseline());
        let mut source = ReplaySource::from(reqs.clone());
        let streamed =
            run_with_source_budgeted(&mut a, &mut source, 50_000_000, &RunBudget::unlimited());
        let stepped = common::run_stepped(&mut b, reqs, 50_000_000);
        assert_eq!(streamed, stepped, "hbm4 replay diverged on {label}");
        assert!(source.is_exhausted());
    }
}

#[test]
fn replay_source_is_bit_identical_on_the_rome_controller() {
    for (label, reqs) in workloads(256 * 1024, 4096) {
        let mut a = RomeController::new(RomeControllerConfig::paper_default());
        let mut b = RomeController::new(RomeControllerConfig::paper_default());
        let mut source = ReplaySource::from(reqs.clone());
        let streamed =
            run_with_source_budgeted(&mut a, &mut source, 50_000_000, &RunBudget::unlimited());
        let stepped = common::run_stepped(&mut b, reqs, 50_000_000);
        assert_eq!(streamed, stepped, "rome replay diverged on {label}");
    }
}

#[test]
fn replay_source_is_bit_identical_under_time_limits() {
    // Cutoffs landing mid-run must truncate both paths identically.
    for max_ns in [100u64, 5_000, 1_000_000] {
        for (label, reqs) in workloads(16 * 1024, 32) {
            let mut a = ChannelController::new(ControllerConfig::hbm4_baseline());
            let mut b = ChannelController::new(ControllerConfig::hbm4_baseline());
            let mut source = ReplaySource::from(reqs.clone());
            let streamed =
                run_with_source_budgeted(&mut a, &mut source, max_ns, &RunBudget::unlimited());
            let stepped = common::run_stepped(&mut b, reqs, max_ns);
            assert_eq!(streamed, stepped, "{label}@max{max_ns} diverged");
        }
    }
}

#[test]
fn vector_runs_release_each_request_at_its_arrival() {
    // A vector run replays its input: a request that arrives at cycle 1000
    // is not offered, so cannot complete, before then.
    let reqs = vec![
        MemoryRequest::read(1, 0, 32, 0),
        MemoryRequest::read(2, 1 << 20, 32, 1000),
    ];
    let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
    let report = run_with_budget(&mut ctrl, reqs.clone(), 50_000_000, &RunBudget::unlimited());
    assert_eq!(report.requests_completed, 2);
    assert!(
        report.finish_time >= 1000,
        "finished at {}",
        report.finish_time
    );
    let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
    assert_eq!(report, common::run_stepped(&mut ctrl, reqs, 50_000_000));
}

/// Host-request mix for the multi-channel comparisons.
fn host_requests() -> Vec<MemoryRequest> {
    vec![
        MemoryRequest::read(1, 0, 48 * 1024, 0),
        MemoryRequest::write(2, 1 << 20, 32 * 1024, 0),
        MemoryRequest::read(3, 2 << 20, 8 * 1024, 0),
        MemoryRequest::write(4, 3 << 20, 4 * 1024, 0),
    ]
}

/// Drive a system through the pre-existing materialized path: submit all,
/// then run the event loop.
fn run_materialized_mc(reqs: Vec<MemoryRequest>) -> (Vec<HostCompletion>, Vec<u64>) {
    let mut sys = MemorySystem::new(MemorySystemConfig::hbm4(4));
    for r in reqs {
        sys.submit(r);
    }
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
    (done, sys.bytes_per_channel())
}

#[test]
fn replay_source_is_bit_identical_on_the_mc_memory_system() {
    let (done_materialized, bytes_materialized) = run_materialized_mc(host_requests());
    let mut sys = MemorySystem::new(MemorySystemConfig::hbm4(4));
    let mut source = ReplaySource::from(host_requests());
    let (done_streamed, _) = sys.run_with_source(&mut source, 5_000_000);
    assert_eq!(done_streamed, done_materialized);
    assert_eq!(sys.bytes_per_channel(), bytes_materialized);
}

#[test]
fn replay_source_is_bit_identical_on_the_rome_memory_system() {
    let mut materialized = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
    for r in host_requests() {
        materialized.submit(r);
    }
    let mut done_materialized = Vec::new();
    let mut now = 0u64;
    while !materialized.is_idle() && now < 5_000_000 {
        let issued = materialized.tick_into(now, &mut done_materialized);
        now = if issued {
            now + 1
        } else {
            materialized
                .next_event_at(now)
                .map_or(now + 1, |t| t.max(now + 1))
        };
    }

    let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
    let mut source = ReplaySource::from(host_requests());
    let (done_streamed, _) = sys.run_with_source(&mut source, 5_000_000);
    assert_eq!(done_streamed, done_materialized);
    assert_eq!(sys.bytes_per_channel(), materialized.bytes_per_channel());
}

#[test]
fn streaming_generators_emit_the_partial_tail() {
    // Regression for the silent truncation: a non-multiple total must be
    // fully covered, and the simulated run must move every byte.
    let reqs = workload::streaming_reads(0, 100, 32);
    assert_eq!(reqs.iter().map(|r| r.bytes).sum::<u64>(), 100);
    let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
    let report = rome::engine::simulate::run_to_completion(&mut ctrl, reqs);
    assert_eq!(report.bytes_read, 100);
}

#[test]
fn closed_loop_host_respects_its_window_and_drains() {
    for window in [1usize, 2, 8, 64] {
        let inner = BurstSource::new(0, 1 << 20, 64 * 1024, 4096, 0, 2, 0);
        let total = inner.total_requests();
        let mut host = ClosedLoopHost::new(inner, window);
        let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
        let (done, _) = sys.run_with_source(&mut host, 50_000_000);
        assert_eq!(done.len() as u64, total, "window {window} lost requests");
        assert_eq!(host.completed(), total);
        assert!(host.is_exhausted());
        assert!(
            host.peak_outstanding() <= window,
            "window {window} exceeded: peak {}",
            host.peak_outstanding()
        );
    }
}

#[test]
fn wider_closed_loop_windows_do_not_lose_bandwidth() {
    let run = |window, rome: bool| {
        let cfg = MoeRoutingConfig {
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
        };
        let mut host = ClosedLoopHost::new(MoeRoutingSource::new(cfg), window);
        if rome {
            let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
            sys.run_with_source(&mut host, 50_000_000);
        } else {
            let mut sys = MemorySystem::new(MemorySystemConfig::hbm4(4));
            sys.run_with_source(&mut host, 50_000_000);
        }
        (host.achieved_gbps(), host.mean_latency_ns())
    };
    for rome in [false, true] {
        let (bw1, lat1) = run(1, rome);
        let (bw16, lat16) = run(16, rome);
        assert!(
            bw16 > bw1,
            "closed-loop bandwidth must grow (rome {rome}): {bw1} -> {bw16}"
        );
        assert!(lat1 > 0.0 && lat16 > 0.0);
        // The whole closed loop is seed-deterministic.
        assert_eq!(run(16, rome), (bw16, lat16));
    }
}

#[test]
fn slo_host_respects_per_tenant_windows_end_to_end() {
    // A two-tenant mix through an SLO-aware closed loop on a real memory
    // system: per-tenant peaks never exceed the caps, the global window
    // holds, and everything still drains.
    let mix = MultiTenantMixSource::new()
        .with_tenant(
            "background",
            BurstSource::new(0, 1 << 20, 32 * 1024, 4096, 0, 2, 0),
        )
        .with_tenant(
            "interactive",
            BurstSource::new(1 << 30, 1 << 20, 16 * 1024, 4096, 500, 3, 0),
        );
    let policy = SloPolicy::new(
        vec![
            TenantSlo {
                window: 2,
                priority: 7,
            },
            TenantSlo {
                window: 4,
                priority: 0,
            },
        ],
        rome::workload::tenants::tenant_tag,
    );
    let mut host = ClosedLoopHost::with_slo(mix, 4, policy);
    let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
    let (done, _) = sys.run_with_source(&mut host, 50_000_000);
    assert!(host.is_exhausted(), "SLO host must drain");
    assert_eq!(host.completed() as usize, done.len());
    assert_eq!(host.completed(), 16 + 12);
    assert!(host.peak_outstanding() <= 4);
    assert!(host.peak_tenant_outstanding(0) <= 2);
    assert!(host.peak_tenant_outstanding(1) <= 4);
    assert!(
        host.peak_tenant_outstanding(1) > host.peak_tenant_outstanding(0),
        "the high-priority tenant should win more window slots: {} vs {}",
        host.peak_tenant_outstanding(1),
        host.peak_tenant_outstanding(0)
    );
}

/// Drain a source by pulling along a schedule of time steps, then once more
/// far in the future.
fn drain_with_schedule<S: TrafficSource>(mut source: S, schedule: &[u64]) -> Vec<MemoryRequest> {
    let mut out = Vec::new();
    let mut now = 0u64;
    for gap in schedule {
        now += gap;
        source.pull_into(now, &mut out);
    }
    source.pull_into(u64::MAX, &mut out);
    assert!(source.is_exhausted());
    out
}

fn moe_cfg(seed: u64) -> MoeRoutingConfig {
    MoeRoutingConfig {
        experts: 16,
        top_k: 2,
        expert_bytes: 100,
        layers: 2,
        tokens_per_step: 8,
        steps: 4,
        step_period_ns: 700,
        granularity: 32,
        base: 0,
        zipf_exponent: 1.2,
        seed,
    }
}

fn phase_cfg(seed: u64) -> PrefillDecodeConfig {
    PrefillDecodeConfig {
        prefill_bytes: 4 * 4096,
        prefill_granularity: 4096,
        decode_bytes: 6 * 32,
        decode_granularity: 32,
        decode_steps_per_prefill: 3,
        rounds: 2,
        phase_period_ns: 900,
        weight_base: 0,
        weight_span: 8 * 4096,
        kv_base: 1 << 24,
        kv_span: 1 << 16,
        kv_write_period: 3,
        seed,
    }
}

fn tenant_mix(seed: u64) -> MultiTenantMixSource {
    MultiTenantMixSource::new()
        .with_tenant("moe", MoeRoutingSource::new(moe_cfg(seed)))
        .with_tenant(
            "phases",
            PrefillDecodeInterleaveSource::new(phase_cfg(seed ^ 0xABCD)),
        )
        .with_tenant(
            "burst",
            BurstSource::new(1 << 28, 1 << 20, 2048, 32, 333, 5, 4),
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every source is seed-deterministic: the same seed produces the same
    /// stream regardless of how the pull schedule slices time, and a
    /// different seed produces a different stream.
    #[test]
    fn sources_are_seed_deterministic(
        seed in 1u64..1_000,
        schedule_a in prop::collection::vec(0u64..1_500, 1..8),
        schedule_b in prop::collection::vec(0u64..1_500, 1..8),
    ) {
        // MoE routing skew.
        let a = drain_with_schedule(MoeRoutingSource::new(moe_cfg(seed)), &schedule_a);
        let b = drain_with_schedule(MoeRoutingSource::new(moe_cfg(seed)), &schedule_b);
        let c = drain_with_schedule(MoeRoutingSource::new(moe_cfg(seed + 1)), &schedule_a);
        prop_assert_eq!(&a, &b, "MoE stream depends on the pull schedule");
        prop_assert!(a != c, "MoE stream ignores its seed");

        // Prefill/decode interleave.
        let a = drain_with_schedule(PrefillDecodeInterleaveSource::new(phase_cfg(seed)), &schedule_a);
        let b = drain_with_schedule(PrefillDecodeInterleaveSource::new(phase_cfg(seed)), &schedule_b);
        let c = drain_with_schedule(PrefillDecodeInterleaveSource::new(phase_cfg(seed + 1)), &schedule_a);
        prop_assert_eq!(&a, &b, "phase stream depends on the pull schedule");
        prop_assert!(a != c, "phase stream ignores its seed");

        // Multi-tenant merge (deterministic merge order included).
        let a = drain_with_schedule(tenant_mix(seed), &schedule_a);
        let b = drain_with_schedule(tenant_mix(seed), &schedule_b);
        prop_assert_eq!(&a, &b, "tenant merge depends on the pull schedule");

        // Replay of a seeded vector.
        let reqs = workload::random_reads(0, 1 << 20, 64, 32, seed);
        let a = drain_with_schedule(ReplaySource::from(reqs.clone()), &schedule_a);
        prop_assert_eq!(a, reqs, "replay must reproduce its vector");
    }

    /// A trace replays deterministically (same records, same stream however
    /// the pull schedule slices time), releases in clamped arrival order,
    /// and survives a JSONL round-trip bit-for-bit.
    #[test]
    fn trace_replay_is_deterministic_and_ordered(
        records in prop::collection::vec(
            ((0u64..5_000, any::<bool>()), (0u64..(1 << 30), 1u64..8_192, 0u16..8)),
            1..40,
        ),
        schedule_a in prop::collection::vec(0u64..2_000, 1..8),
        schedule_b in prop::collection::vec(0u64..2_000, 1..8),
    ) {
        let records: Vec<TraceRecord> = records
            .into_iter()
            .map(|((arrival, write), (addr, bytes, tag))| TraceRecord {
                arrival,
                kind: if write {
                    rome::engine::request::RequestKind::Write
                } else {
                    rome::engine::request::RequestKind::Read
                },
                addr,
                bytes,
                tag,
            })
            .collect();
        let a = drain_with_schedule(TraceSource::from_records(&records), &schedule_a);
        let b = drain_with_schedule(TraceSource::from_records(&records), &schedule_b);
        prop_assert_eq!(&a, &b, "trace stream depends on the pull schedule");
        prop_assert_eq!(a.len(), records.len());

        // Release order is the record order with arrivals clamped
        // non-decreasing, ids non-zero, tags preserved.
        let mut watermark = 0u64;
        for (req, rec) in a.iter().zip(&records) {
            watermark = watermark.max(rec.arrival);
            prop_assert_eq!(req.arrival, rec.arrival);
            prop_assert_eq!(req.address.raw(), rec.addr);
            prop_assert_eq!(req.bytes, rec.bytes);
            prop_assert!(req.id.0 != 0);
            prop_assert_eq!(TraceSource::tag_of(req.id), rec.tag);
        }

        // JSONL round-trip: parse(render(records)) replays the same stream.
        let text: String = records.iter().map(|r| r.to_jsonl_line() + "\n").collect();
        let reparsed = trace::parse_jsonl(&text).unwrap();
        prop_assert_eq!(&reparsed, &records);
        let c = drain_with_schedule(TraceSource::from_jsonl(&text).unwrap(), &schedule_a);
        prop_assert_eq!(a, c, "JSONL round-trip changed the stream");
    }

    /// Arrivals released by any source are non-decreasing and never in the
    /// future of the pull.
    #[test]
    fn pulls_release_in_arrival_order(seed in 1u64..500, gaps in prop::collection::vec(0u64..1_000, 1..6)) {
        let mut source = tenant_mix(seed);
        let mut now = 0u64;
        let mut last_arrival = 0u64;
        let mut out = Vec::new();
        for gap in gaps {
            now += gap;
            out.clear();
            source.pull_into(now, &mut out);
            for r in &out {
                prop_assert!(r.arrival <= now, "released a future request");
                prop_assert!(r.arrival >= last_arrival, "merge broke arrival order");
                last_arrival = r.arrival;
            }
        }
    }
}

#[test]
fn multi_tenant_mix_runs_end_to_end_with_per_tenant_attribution() {
    let specs = vec![
        TenantSpec {
            name: "deepseek-small".into(),
            model: rome::llm::ModelConfig::deepseek_v3(),
            batch: 8,
            seq_len: 4096,
            period_ns: 2_000,
            steps: 3,
            scale: 1 << 16,
            granularity: 4096,
        },
        TenantSpec {
            name: "grok-large".into(),
            model: rome::llm::ModelConfig::grok_1(),
            batch: 64,
            seq_len: 4096,
            period_ns: 3_000,
            steps: 2,
            scale: 1 << 16,
            granularity: 4096,
        },
    ];
    let mut mix = MultiTenantMixSource::from_specs(&specs);
    let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
    let (done, stop) = sys.run_with_source(&mut mix, 50_000_000);
    assert!(mix.is_exhausted());
    assert!(stop > 0);
    let mut per_tenant = vec![0u64; 2];
    for c in &done {
        per_tenant[mix.tenant_of(c.id).expect("mix id")] += c.bytes;
    }
    assert!(
        per_tenant.iter().all(|&b| b > 0),
        "both tenants must complete traffic: {per_tenant:?}"
    );
}
