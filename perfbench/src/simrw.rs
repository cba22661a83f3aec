//! The `sim-rw` workload: the cycle-level simulators alone, on random and
//! write-bearing traffic (no LBR, no server). One pass runs four parts,
//! each through a public driver, with inputs drawn from `--seed`:
//!
//! * (a) one HBM4 controller with 64-entry queues, bank-conflicting random
//!   32 B reads with one write in every [`WRITE_PERIOD`] — scan-bound;
//! * (b) a 32-channel HBM4 `MemorySystem` fed a dense streaming read/write
//!   mix, driven by this benchmark's own `tick_into`/`next_event_at` loop —
//!   the event calendar and backlog;
//! * (c) an 8-channel `RomeMemorySystem` with random 4 KiB reads and
//!   writes, driven by the same loop;
//! * (d) closed-loop MoE traffic on a 4-channel HBM4 system through
//!   `run_with_source` — the `rome-workload` sources.
//!
//! Part (a) is the light operation, parts (b)–(d) the heavy ones. Every
//! pass must reproduce the first pass's reports exactly, and the traced
//! passes (wrapped controllers and source, a `RunSink` on the budget, timed
//! system calls) must reproduce the untraced reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rome_core::controller::{RomeController, RomeQueueEntry};
use rome_core::system::{RomeMemorySystem, RomeSystemConfig};
use rome_engine::request::MemoryRequest;
use rome_engine::simulate::report_from_host_completions;
use rome_engine::{
    HostCompletion, MemoryController, MultiChannelSystem, RunBudget, RunSink, SimulationReport,
};
use rome_hbm::units::Cycle;
use rome_mc::controller::{ChannelController, ControllerConfig};
use rome_mc::mapping::{AddressMapping, MappingScheme};
use rome_mc::queue::QueueEntry;
use rome_mc::system::{MemorySystem, MemorySystemConfig};
use rome_telemetry::Registry;
use rome_workload::{ClosedLoopHost, MoeRoutingConfig, MoeRoutingSource};

use crate::layers::{run_single_traced, Layer, Tally, TimedController, TimedSource, RUN_LIMIT_NS};
use crate::measure::{digest, median, quantile, timed, Outcome, Rng};
use crate::{per_layer, Args};

/// Each pass runs every seeded input this many times, round-robin: a pass
/// then lasts about two seconds while its inputs stay a few MiB.
const REPEATS: usize = 16;
/// Part (a): distinct inputs, requests per run and their address window.
const A_RUNS: u64 = 8;
const A_REQUESTS: u64 = 2 * 1024;
const A_SPAN: u64 = 16 << 20;
/// One write in every this many requests (parts a to c).
const WRITE_PERIOD: u64 = 8;
/// Part (b): distinct inputs, channels, host-request size and count.
const B_RUNS: u64 = 4;
const B_CHANNELS: u16 = 32;
const B_REQUEST: u64 = 32 * 1024;
const B_REQUESTS: u64 = 16;
/// Part (c): distinct inputs, channels, random 4 KiB requests and their
/// window.
const C_RUNS: u64 = 4;
const C_CHANNELS: u16 = 8;
const C_REQUESTS: u64 = 4 * 1024;
const C_SPAN: u64 = 256 << 20;
/// Part (d): distinct inputs, channels and the closed-loop window.
const D_RUNS: u64 = 3;
const D_CHANNELS: u16 = 4;
const D_WINDOW: usize = 8;
const MIN_PASSES: usize = 3;

/// One simulator run of a pass: which part it belongs to and its seeded
/// input.
#[derive(Debug, Clone)]
enum Op {
    A(Vec<MemoryRequest>),
    B(Vec<MemoryRequest>),
    C(Vec<MemoryRequest>),
    D(MoeRoutingConfig),
}

impl Op {
    fn part(&self) -> &'static str {
        match self {
            Op::A(_) => "a",
            Op::B(_) => "b",
            Op::C(_) => "c",
            Op::D(_) => "d",
        }
    }

    /// Part (a) runs are the light operations.
    fn light(&self) -> bool {
        matches!(self, Op::A(_))
    }

    /// Requests the run must complete (`None` for the closed loop, whose
    /// count the routing draws decide).
    fn expected_requests(&self) -> Option<u64> {
        match self {
            Op::A(r) | Op::B(r) | Op::C(r) => Some(r.len() as u64),
            Op::D(_) => None,
        }
    }
}

/// Requests of `size` bytes at random `size`-aligned addresses in
/// `[0, span)`, one write in every [`WRITE_PERIOD`] at a seeded phase.
fn random_mix(rng: &mut Rng, count: u64, span: u64, size: u64) -> Vec<MemoryRequest> {
    let phase = rng.below(WRITE_PERIOD);
    (0..count)
        .map(|i| {
            let addr = rng.below(span / size) * size;
            if i % WRITE_PERIOD == phase {
                MemoryRequest::write(i + 1, addr, size, 0)
            } else {
                MemoryRequest::read(i + 1, addr, size, 0)
            }
        })
        .collect()
}

/// The seeded inputs of a pass, in run order (see [`schedule`]).
fn make_inputs(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    for _ in 0..A_RUNS {
        ops.push(Op::A(random_mix(&mut rng, A_REQUESTS, A_SPAN, 32)));
    }
    for _ in 0..B_RUNS {
        // One dense stream of back-to-back host requests from a seeded base.
        let base = rng.below(1 << 10) << 20;
        let phase = rng.below(WRITE_PERIOD);
        ops.push(Op::B(
            (0..B_REQUESTS)
                .map(|i| {
                    let addr = base + i * B_REQUEST;
                    if i % WRITE_PERIOD == phase {
                        MemoryRequest::write(i + 1, addr, B_REQUEST, 0)
                    } else {
                        MemoryRequest::read(i + 1, addr, B_REQUEST, 0)
                    }
                })
                .collect(),
        ));
    }
    for _ in 0..C_RUNS {
        ops.push(Op::C(random_mix(&mut rng, C_REQUESTS, C_SPAN, 4096)));
    }
    for _ in 0..D_RUNS {
        // Enough tokens that nearly every expert is routed to, so the work
        // of a run hardly depends on the routing draws.
        ops.push(Op::D(MoeRoutingConfig {
            experts: 32,
            top_k: 4,
            expert_bytes: 8 * 1024,
            layers: 2,
            tokens_per_step: 64,
            steps: 1,
            step_period_ns: 0,
            granularity: 4096,
            base: 0,
            zipf_exponent: 1.2,
            seed: rng.next_u64(),
        }));
    }
    interleave(ops)
}

/// Order a pass's runs round-robin across the parts, so each part's runs
/// are spread over the whole pass rather than bunched in one stretch of it.
fn interleave(ops: Vec<Op>) -> Vec<Op> {
    let mut parts: Vec<std::collections::VecDeque<Op>> = vec![Default::default(); 4];
    for op in ops {
        let index = ["a", "b", "c", "d"].iter().position(|p| *p == op.part());
        parts[index.unwrap_or(0)].push_back(op);
    }
    let mut out = Vec::new();
    while parts.iter().any(|p| !p.is_empty()) {
        out.extend(parts.iter_mut().filter_map(|p| p.pop_front()));
    }
    out
}

/// The per-channel controller `MemorySystem::new` builds: a private
/// one-channel mapping, since the system decodes addresses first.
fn hbm4_channel_config(config: &MemorySystemConfig) -> ControllerConfig {
    let mut per_channel = config.controller.clone();
    per_channel.mapping = MappingScheme::hbm4_streaming(per_channel.organization, 1);
    per_channel
}

/// The public stepping surface the benchmark's own event loop drives:
/// `MemorySystem`, `RomeMemorySystem` and the generic engine system all
/// expose it.
trait Stepped {
    fn tick_into(&mut self, now: Cycle, completions: &mut Vec<HostCompletion>) -> bool;
    fn next_event_at(&mut self, now: Cycle) -> Option<Cycle>;
    fn is_idle(&self) -> bool;
}

macro_rules! stepped {
    ($ty:ty $(, $g:ident)?) => {
        impl$(<$g: MemoryController>)? Stepped for $ty {
            fn tick_into(&mut self, now: Cycle, completions: &mut Vec<HostCompletion>) -> bool {
                <$ty>::tick_into(self, now, completions)
            }
            fn next_event_at(&mut self, now: Cycle) -> Option<Cycle> {
                <$ty>::next_event_at(self, now)
            }
            fn is_idle(&self) -> bool {
                <$ty>::is_idle(self)
            }
        }
    };
}

stepped!(MemorySystem);
stepped!(RomeMemorySystem);
stepped!(MultiChannelSystem<C>, C);

/// This benchmark's own event loop over a system's public
/// `tick_into`/`next_event_at`, until idle. Returns the completions and
/// the loop's (steps, ns in `tick_into`, ns in `next_event_at`); the two
/// times are measured only when `timers` is set.
fn event_loop(sys: &mut impl Stepped, timers: bool) -> (Vec<HostCompletion>, [u64; 3]) {
    let mut done = Vec::new();
    let mut now: Cycle = 0;
    let (mut steps, mut tick_ns, mut next_ns) = (0u64, 0u64, 0u64);
    while !sys.is_idle() && now < RUN_LIMIT_NS {
        steps += 1;
        let issued = if timers {
            let start = Instant::now();
            let issued = sys.tick_into(now, &mut done);
            tick_ns += start.elapsed().as_nanos() as u64;
            issued
        } else {
            sys.tick_into(now, &mut done)
        };
        now = if issued {
            now + 1
        } else {
            let start = timers.then(Instant::now);
            let at = sys.next_event_at(now);
            if let Some(start) = start {
                next_ns += start.elapsed().as_nanos() as u64;
            }
            at.map_or(now + 1, |t| t.max(now + 1))
        };
    }
    (done, [steps, tick_ns, next_ns])
}

/// One untraced run, through the public facades.
fn run_op(op: &Op) -> SimulationReport {
    match op {
        Op::A(requests) => {
            let mut ctrl = ChannelController::new(ControllerConfig::hbm4_with_queue_depth(64));
            rome_engine::simulate::run_to_completion(&mut ctrl, requests.clone())
        }
        Op::B(requests) => {
            let mut sys = MemorySystem::new(MemorySystemConfig::hbm4(B_CHANNELS));
            for req in requests {
                sys.submit(*req);
            }
            let (done, _) = event_loop(&mut sys, false);
            report_from_host_completions(&sys.stats_snapshot(), &done)
        }
        Op::C(requests) => {
            let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(C_CHANNELS));
            for req in requests {
                sys.submit(*req);
            }
            let (done, _) = event_loop(&mut sys, false);
            report_from_host_completions(&sys.stats_snapshot(), &done)
        }
        Op::D(cfg) => {
            let mut sys = MemorySystem::new(MemorySystemConfig::hbm4(D_CHANNELS));
            let mut host = ClosedLoopHost::new(MoeRoutingSource::new(cfg.clone()), D_WINDOW);
            let (done, _) = sys.run_with_source(&mut host, RUN_LIMIT_NS);
            report_from_host_completions(&sys.stats_snapshot(), &done)
        }
    }
}

/// The runs of one pass: every input [`REPEATS`] times, round-robin.
fn schedule(ops: &[Op]) -> impl Iterator<Item = &Op> {
    (0..REPEATS).flat_map(move |_| ops.iter())
}

/// One untraced pass: every run's report and seconds.
fn pass(ops: &[Op]) -> (Vec<SimulationReport>, Vec<f64>) {
    schedule(ops).map(|op| timed(|| run_op(op))).unzip()
}

/// A generic system of wrapped controllers, built like the public facade
/// builds its own; the traced passes drive it so controller time can be
/// told apart from system time.
fn traced_system<C: MemoryController>(
    controllers: Vec<C>,
) -> MultiChannelSystem<TimedController<C>> {
    MultiChannelSystem::new(controllers.into_iter().map(TimedController::new).collect())
}

/// Fold a traced system loop in: system self time is the time in its
/// calls minus the time its controllers report.
fn absorb_system<C: MemoryController>(
    tally: &mut Tally,
    sys: &MultiChannelSystem<TimedController<C>>,
    layer: Layer,
    [steps, tick_ns, next_ns]: [u64; 3],
) {
    let mut busy = 0.0;
    for ctrl in sys.controllers() {
        let calls = ctrl.calls();
        busy += calls.busy_s();
        tally.add_controller(layer, &calls);
    }
    tally.add_n("system.steps", steps);
    tally.add_s("system.tick_s", tick_ns as f64 * 1e-9 - busy);
    tally.add_s("system.next_event_s", next_ns as f64 * 1e-9);
}

/// One traced run: the same simulation with every layer boundary timed.
fn traced_op(op: &Op, tally: &mut Tally) -> SimulationReport {
    match op {
        Op::A(requests) => {
            let ctrl = ChannelController::new(ControllerConfig::hbm4_with_queue_depth(64));
            run_single_traced(ctrl, requests.clone(), Layer::Mc, tally).0
        }
        Op::B(requests) => {
            // Wrapped HBM4 channels behind the facade's own address decode.
            let config = MemorySystemConfig::hbm4(B_CHANNELS);
            let mut sys = hbm4_traced_system(&config);
            for req in requests {
                sys.submit_with(*req, config.access_granularity, |frag| {
                    hbm4_decode(&config, frag)
                });
            }
            let (done, loop_calls) = event_loop(&mut sys, true);
            absorb_system(tally, &sys, Layer::Mc, loop_calls);
            report_from_host_completions(&sys.stats_merged(), &done)
        }
        Op::C(requests) => {
            // Wrapped RoMe channels behind the facade's own address decode.
            let config = RomeSystemConfig::with_channels(C_CHANNELS);
            let decoder = RomeMemorySystem::new(config.clone());
            let mut sys = traced_system(
                (0..config.channels)
                    .map(|_| RomeController::new(config.controller.clone()))
                    .collect(),
            );
            for req in requests {
                sys.submit_with(*req, config.row_bytes(), |frag| {
                    let (channel, target, row) = decoder.decode(frag.address.raw());
                    (
                        channel,
                        RomeQueueEntry {
                            request: frag,
                            target,
                            row,
                        },
                    )
                });
            }
            let (done, loop_calls) = event_loop(&mut sys, true);
            absorb_system(tally, &sys, Layer::Core, loop_calls);
            report_from_host_completions(&sys.stats_merged(), &done)
        }
        Op::D(cfg) => {
            // Wrapped channels and a wrapped source; the budget's sink
            // counts the driver's events.
            let config = MemorySystemConfig::hbm4(D_CHANNELS);
            let mut sys = hbm4_traced_system(&config);
            let host = ClosedLoopHost::new(MoeRoutingSource::new(cfg.clone()), D_WINDOW);
            let mut source = TimedSource::new(host);
            let registry = Arc::new(Registry::new());
            let budget = RunBudget::unlimited().with_sink(RunSink::new(Arc::clone(&registry)));
            let ((done, _, _), run_s) = timed(|| {
                sys.run_with_source_budgeted(
                    &mut source,
                    config.access_granularity,
                    RUN_LIMIT_NS,
                    |frag| hbm4_decode(&config, frag),
                    &budget,
                )
            });
            let mut busy = 0.0;
            for ctrl in sys.controllers() {
                busy += ctrl.calls().busy_s();
                tally.add_controller(Layer::Mc, &ctrl.calls());
            }
            tally.add_sink(&registry);
            tally.add_s("workload.source_s", source.busy_s());
            tally.add_n("workload.pulls", source.pulls());
            tally.add_s("engine.driver_self_s", run_s - busy - source.busy_s());
            report_from_host_completions(&sys.stats_merged(), &done)
        }
    }
}

/// One traced pass: every run's report, the tally and the pass seconds.
fn traced_pass(ops: &[Op]) -> (Vec<SimulationReport>, Tally, f64) {
    let mut tally = Tally::default();
    let (reports, seconds) = timed(|| schedule(ops).map(|op| traced_op(op, &mut tally)).collect());
    (reports, tally, seconds)
}

/// Wrapped HBM4 channel controllers configured as `MemorySystem::new`
/// configures its own.
fn hbm4_traced_system(
    config: &MemorySystemConfig,
) -> MultiChannelSystem<TimedController<ChannelController>> {
    let per_channel = hbm4_channel_config(config);
    traced_system(
        (0..config.channels)
            .map(|_| ChannelController::new(per_channel.clone()))
            .collect(),
    )
}

fn hbm4_decode(config: &MemorySystemConfig, frag: MemoryRequest) -> (u16, QueueEntry) {
    let dram = config.mapping.map(frag.address);
    (
        dram.channel,
        QueueEntry {
            request: frag,
            dram,
        },
    )
}

/// Print the deterministic simulated results of one pass, per part: the
/// summed counts and a digest over every run's full report.
fn model_lines(out: &mut Outcome, ops: &[Op], reports: &[SimulationReport]) {
    for part in ["a", "b", "c", "d"] {
        let runs: Vec<&SimulationReport> = schedule(ops)
            .zip(reports)
            .filter(|(op, _)| op.part() == part)
            .map(|(_, r)| r)
            .collect();
        let sum = |f: fn(&SimulationReport) -> u64| runs.iter().map(|r| f(r)).sum::<u64>();
        let mut latency = rome_telemetry::LatencyHistogram::new();
        for r in &runs {
            latency.merge(&r.read_latency);
        }
        out.line(format!(
            "model.sim_rw.{part}: runs={} finish_ns_sum={} completed={} read_bytes={} write_bytes={} \
             read_latency(count={} p50={} p99={} max={}) reports_digest={:016x}",
            runs.len(),
            sum(|r| r.finish_time),
            sum(|r| r.requests_completed),
            sum(|r| r.bytes_read),
            sum(|r| r.bytes_written),
            latency.count(),
            latency.p50(),
            latency.p99(),
            latency.max(),
            digest(format!("{runs:?}").as_bytes()),
        ));
    }
}

/// Every report must equal the reference; each differing or aborted run is
/// a failed operation.
fn check(out: &mut Outcome, reference: &[SimulationReport], got: &[SimulationReport], label: &str) {
    let mut failed = 0;
    for (i, (want, have)) in reference.iter().zip(got).enumerate() {
        if want != have || have.aborted.is_some() {
            failed += 1;
            out.problems.push(format!(
                "{label}: run {i} report differs from the first pass or aborted"
            ));
        }
    }
    out.count(got.len() as u64, failed);
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (ops, first_setup) = timed(|| make_inputs(args.seed));
    let (reference, _) = pass(&ops);
    for (i, (op, r)) in schedule(&ops).zip(&reference).enumerate() {
        if op
            .expected_requests()
            .is_some_and(|n| n != r.requests_completed)
        {
            out.fail(format!(
                "run {i} completed {} requests",
                r.requests_completed
            ));
        }
    }
    model_lines(&mut out, &ops, &reference);
    if args.trace {
        traced(&mut out, &ops, &reference, deadline);
        return out;
    }

    let mut setup = vec![first_setup];
    let mut pass_s = Vec::new();
    // Each input's fastest run so far, over its repeats in every pass.
    let mut best = vec![f64::INFINITY; ops.len()];
    let mut part_ms: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    while pass_s.len() < MIN_PASSES || Instant::now() < deadline {
        // Inputs are regenerated every pass: each generation is one set-up
        // sample, and every pass must reproduce the first one exactly.
        let (ops, s) = timed(|| make_inputs(args.seed));
        setup.push(s);
        let ((reports, times), seconds) = timed(|| pass(&ops));
        check(&mut out, &reference, &reports, "pass");
        pass_s.push(seconds);
        for (i, (op, s)) in schedule(&ops).zip(&times).enumerate() {
            part_ms.entry(op.part()).or_default().push(s * 1e3);
            let b = &mut best[i % ops.len()];
            *b = b.min(*s);
        }
    }
    // Each input's time is its fastest run, the one the host hindered
    // least: the host slows this cache-sensitive code by up to twofold for
    // seconds at a time and by a third for whole minutes, while each input
    // runs REPEATS times in every pass.
    let mut heavy_ms = Vec::new();
    let mut light_ms = Vec::new();
    for (op, s) in ops.iter().zip(&best) {
        if op.light() {
            light_ms.push(s * 1e3);
        } else {
            heavy_ms.push(s * 1e3);
        }
    }
    let wall = REPEATS as f64 * best.iter().sum::<f64>();
    let runs = (ops.len() * REPEATS) as f64;
    out.line(format!(
        "sim-rw: {} passes, median pass {:.4} s, pass at every input's fastest {wall:.4} s",
        pass_s.len(),
        median(&pass_s)
    ));
    for (part, samples) in &part_ms {
        out.line(format!(
            "sim-rw part ({part}): median run {:.3} ms",
            median(samples)
        ));
    }
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", wall, "s");
    let rss = crate::peak_rss(&mut out);
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("p50_ms", quantile(&heavy_ms, 0.5), "ms");
    out.metric("p99_ms", quantile(&heavy_ms, 0.99), "ms");
    out.metric("light_p50_ms", quantile(&light_ms, 0.5), "ms");
    out.metric("light_p99_ms", quantile(&light_ms, 0.99), "ms");
    // A batch has no offered load: throughput is the rate at which runs
    // complete back to back at every input's fastest, capacity the same
    // rate for the heavy runs alone.
    out.metric("throughput_rps", runs / wall, "1/s");
    out.metric(
        "capacity_rps",
        heavy_ms.len() as f64 * 1e3 / heavy_ms.iter().sum::<f64>(),
        "1/s",
    );
    out
}

fn traced(out: &mut Outcome, ops: &[Op], reference: &[SimulationReport], deadline: Instant) {
    let mut tallies: Vec<Tally> = Vec::new();
    let mut overheads = Vec::new();
    let mut bare_walls = Vec::new();
    let mut traced_walls = Vec::new();
    while tallies.len() < 3 || (tallies.len() < 20 && Instant::now() < deadline) {
        let ((reports, _), bare_s) = timed(|| pass(ops));
        check(out, reference, &reports, "pass");
        let (reports, tally, traced_s) = traced_pass(ops);
        check(out, reference, &reports, "traced pass");
        if let Some(prev) = tallies.last() {
            if prev.counts != tally.counts {
                out.fail("exact work counts drifted between traced passes");
            }
        }
        overheads.push(100.0 * (traced_s - bare_s) / bare_s);
        bare_walls.push(bare_s);
        traced_walls.push(traced_s);
        tallies.push(tally);
    }
    let tally = per_layer::median_tally(&tallies);
    let mut values = per_layer::Values::default();
    values.absorb(&tally);
    values.set("trace_overhead_pct", median(&overheads));
    // The residual is taken within the traced passes themselves: the part
    // of a traced pass no layer's self time covers.
    let traced_wall = median(&traced_walls);
    values.set("unexplained_s", traced_wall - tally.self_total_s());
    values.set(
        "unexplained_pct",
        100.0 * (traced_wall - tally.self_total_s()) / traced_wall,
    );
    out.line(format!(
        "sim-rw traced: {} passes, untraced pass {:.4} s, traced pass {traced_wall:.4} s, \
         layers account for {:.4} s",
        tallies.len(),
        median(&bare_walls),
        tally.self_total_s()
    ));
    values.emit(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let debug = |seed| format!("{:?}", make_inputs(seed));
        assert_eq!(debug(7), debug(7));
        assert_ne!(debug(7), debug(8));
    }

    #[test]
    fn traced_passes_repeat_reports_and_work_counts_exactly() {
        let ops = make_inputs(7);
        let (reference, _) = pass(&ops);
        let (first, tally, _) = traced_pass(&ops);
        let (second, again, _) = traced_pass(&ops);
        assert_eq!(reference, first, "tracing must not change a report");
        assert_eq!(first, second);
        assert_eq!(tally.counts, again.counts, "exact work counts drifted");
        for name in [
            "engine.events",
            "engine.idle_wakeups",
            "system.steps",
            "mc.ticks",
            "mc.issued_ticks",
            "core.ticks",
            "core.issued_ticks",
            "workload.pulls",
        ] {
            assert!(tally.n(name) > 0, "{name} was not counted");
        }
    }
}
