//! The `repro` workload: in-process passes over every `rome_bench` table
//! function, in the order `repro --calibrated` prints them. Its inputs are
//! fixed by the paper, so the seed is unused.
//!
//! Untraced: the first, cold pass is the set-up; then back-to-back passes,
//! and `wall_s` is the median pass. Every table's text must be
//! byte-identical to the first pass's. The heavy operation is a pass (the
//! summed table times); the light operation renders once every table that
//! runs no cycle simulator and no threads (the analytic tables and the
//! channel ablation), [`LIGHT_CHUNK`] of them after each table, and each
//! pass adds one light sample: their mean. Samples as long as a pass
//! average over the host's slow spells, which last about as long as a pass.
//!
//! Traced: one pass timed per table, then each table's public calls are
//! re-run with the table's own arguments and timed call by call (step
//! builds, LBR passes, calibrations, energy roll-ups) and its simulator runs
//! are re-run through wrapped controllers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rome_core::controller::{RomeController, RomeControllerConfig};
use rome_core::vba::VbaConfig;
use rome_energy::dram_energy::EnergyParams;
use rome_llm::model::ModelConfig;
use rome_llm::ops::{decode_step, prefill_step};
use rome_llm::parallelism::Parallelism;
use rome_llm::traffic::StepTraffic;
use rome_mc::controller::{ChannelController, ControllerConfig};
use rome_mc::workload::streaming_reads;
use rome_sim::lbr::{channel_load_balance, operator_lbr};
use rome_sim::overfetch::overfetch_sweep;
use rome_sim::sweep::paper_batch_sweep;
use rome_sim::{
    decode_energy, decode_tpot, prefill_time, AcceleratorSpec, Calibrator, MemoryModel,
};

use crate::layers::{run_single_traced, Layer, Tally};
use crate::measure::{median, quantile, timed, Outcome};
use crate::{per_layer, Args};

/// One table of the reproduction.
struct Table {
    name: &'static str,
    /// Part of the light operation: the table runs no cycle simulator and
    /// fans out over no threads, so its time is plain single-threaded work.
    light: bool,
    render: fn() -> String,
}

/// Every table, in the order `repro --calibrated` prints them.
const TABLES: [Table; 15] = [
    Table {
        name: "fig01",
        light: true,
        render: rome_bench::figure01_table,
    },
    Table {
        name: "fig02",
        light: true,
        render: rome_bench::figure02_table,
    },
    Table {
        name: "fig10",
        light: true,
        render: rome_bench::figure10_table,
    },
    Table {
        name: "tab04",
        light: true,
        render: rome_bench::table04,
    },
    Table {
        name: "tab05",
        light: true,
        render: rome_bench::table05,
    },
    Table {
        name: "vba",
        light: false,
        render: rome_bench::vba_design_space_table,
    },
    Table {
        name: "queue_depth",
        light: false,
        render: rome_bench::queue_depth_table,
    },
    Table {
        name: "refresh",
        light: true,
        render: rome_bench::refresh_table,
    },
    Table {
        name: "area",
        light: true,
        render: rome_bench::area_table,
    },
    Table {
        name: "fig12",
        light: false,
        render: || rome_bench::figure12_table(true),
    },
    Table {
        name: "fig13",
        light: false,
        render: rome_bench::figure13_table,
    },
    Table {
        name: "fig14",
        light: false,
        render: || rome_bench::figure14_table(true),
    },
    Table {
        name: "prefill",
        light: false,
        render: rome_bench::prefill_table,
    },
    Table {
        name: "ablation_channels",
        light: true,
        render: rome_bench::ablation_channels_table,
    },
    Table {
        name: "ablation_overfetch",
        light: false,
        render: rome_bench::ablation_overfetch_table,
    },
];

/// Light operations after each table of a pass: each renders every light
/// table once.
const LIGHT_CHUNK: usize = 2;
/// Passes measured even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;
const SEQ_LEN: u64 = 8192;

/// The per-table metric a table's time is reported under.
fn table_metric(name: &str) -> &'static str {
    match name {
        "prefill" => "repro.prefill_s",
        "fig12" => "repro.fig12_s",
        "fig14" => "repro.fig14_s",
        "queue_depth" => "repro.queue_depth_s",
        "fig13" => "repro.fig13_s",
        _ => "repro.rest_s",
    }
}

/// One pass over every table: texts and per-table seconds.
fn pass() -> (Vec<String>, Vec<f64>) {
    TABLES.iter().map(|t| timed(t.render)).unzip()
}

/// Compare a pass's texts with the reference pass; every differing table is
/// a failed operation.
fn check_pass(out: &mut Outcome, reference: &[String], texts: &[String], label: &str) {
    let mut failed = 0;
    for ((table, want), got) in TABLES.iter().zip(reference).zip(texts) {
        if want != got {
            failed += 1;
            out.problems.push(format!(
                "{label}: table {} differs from the first pass",
                table.name
            ));
        }
    }
    out.count(TABLES.len() as u64, failed);
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // The first, cold pass is the set-up: it produces the reference texts
    // every later pass is checked against, and pays any one-time cost a
    // table defers to its first call.
    let ((reference, first_times), setup) = timed(pass);
    for (table, text) in TABLES.iter().zip(&reference) {
        out.line(format!(
            "model.repro.{}.digest = {:016x}",
            table.name,
            crate::measure::digest(text.as_bytes())
        ));
    }
    if args.trace {
        traced(&mut out, &reference, &first_times, deadline);
        return out;
    }

    let mut pass_s = Vec::new();
    let mut per_table: Vec<Vec<f64>> = vec![Vec::new(); TABLES.len()];
    let mut light_ms = Vec::new();
    let mut calls = 0u64;
    let light: Vec<(&Table, &String)> = TABLES
        .iter()
        .zip(&reference)
        .filter(|(t, _)| t.light)
        .collect();
    while pass_s.len() < MIN_PASSES || Instant::now() < deadline {
        // A pass renders every table in order; after each table comes a
        // chunk of light operations, so a pass's light samples are spread
        // over the same seconds as its tables.
        let mut pass = 0.0;
        let mut texts = Vec::with_capacity(TABLES.len());
        let (mut light_s, mut light_ops) = (0.0, 0usize);
        for (table, samples) in TABLES.iter().zip(&mut per_table) {
            let (text, s) = timed(table.render);
            texts.push(text);
            samples.push(s);
            pass += s;
            let (light_texts, s) = timed(|| {
                (0..LIGHT_CHUNK)
                    .flat_map(|_| light.iter().map(|(t, _)| (t.render)()))
                    .collect::<Vec<_>>()
            });
            light_s += s;
            light_ops += LIGHT_CHUNK;
            let failed = light_texts
                .iter()
                .zip(light.iter().cycle())
                .filter(|(got, (_, want))| got != want)
                .count();
            out.count(light_texts.len() as u64, failed as u64);
        }
        check_pass(&mut out, &reference, &texts, "pass");
        pass_s.push(pass);
        light_ms.push(light_s * 1e3 / light_ops as f64);
        calls += TABLES.len() as u64;
    }
    let wall = median(&pass_s);
    let busy: f64 = pass_s.iter().sum();
    out.line(format!(
        "repro: {} passes, median pass {wall:.3} s",
        pass_s.len()
    ));
    for (table, samples) in TABLES.iter().zip(&per_table) {
        out.line(format!(
            "repro.{}: median {:.6} ms",
            table.name,
            median(samples) * 1e3
        ));
    }
    out.metric("setup_s", setup, "s");
    out.metric("wall_s", wall, "s");
    let rss = crate::peak_rss(&mut out);
    out.metric("peak_rss_mib", rss, "MiB");
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    out.metric("p50_ms", quantile(&pass_ms, 0.5), "ms");
    out.metric("p99_ms", quantile(&pass_ms, 0.99), "ms");
    out.metric("light_p50_ms", quantile(&light_ms, 0.5), "ms");
    out.metric("light_p99_ms", quantile(&light_ms, 0.99), "ms");
    out.metric("throughput_rps", calls as f64 / busy, "1/s");
    // A batch of tables has no offered load: its capacity is the rate at
    // which a median pass completes tables back to back.
    out.metric("capacity_rps", TABLES.len() as f64 / wall, "1/s");
    out
}

/// The simulator runs the queue-depth and VBA tables make, with the
/// tables' own configurations and traffic.
enum SimRun {
    Hbm4 {
        depth: usize,
    },
    Rome {
        config: RomeControllerConfig,
        bytes: u64,
    },
}

fn sim_runs() -> Vec<SimRun> {
    let mut runs: Vec<SimRun> = VbaConfig::design_space()
        .into_iter()
        .map(|cfg| SimRun::Rome {
            config: RomeControllerConfig::with_vba(cfg),
            bytes: 2 * 1024 * 1024,
        })
        .collect();
    for depth in [1usize, 2, 4, 8, 16, 32, 45, 64] {
        runs.push(SimRun::Hbm4 { depth });
        runs.push(SimRun::Rome {
            config: RomeControllerConfig::with_queue_depth(depth),
            bytes: 2 * 1024 * 1024,
        });
    }
    runs
}

impl SimRun {
    fn requests(&self) -> Vec<rome_engine::MemoryRequest> {
        match self {
            SimRun::Hbm4 { .. } => streaming_reads(0, 512 * 1024, 32),
            SimRun::Rome { config, bytes } => streaming_reads(0, *bytes, config.row_bytes()),
        }
    }

    fn bare(&self) -> rome_engine::SimulationReport {
        let reqs = self.requests();
        match self {
            SimRun::Hbm4 { depth } => rome_engine::simulate::run_to_completion(
                &mut ChannelController::new(ControllerConfig::hbm4_with_queue_depth(*depth)),
                reqs,
            ),
            SimRun::Rome { config, .. } => rome_engine::simulate::run_to_completion(
                &mut RomeController::new(config.clone()),
                reqs,
            ),
        }
    }

    fn traced(&self, tally: &mut Tally) -> rome_engine::SimulationReport {
        let reqs = self.requests();
        match self {
            SimRun::Hbm4 { depth } => {
                let ctrl = ChannelController::new(ControllerConfig::hbm4_with_queue_depth(*depth));
                run_single_traced(ctrl, reqs, Layer::Mc, tally).0
            }
            SimRun::Rome { config, .. } => {
                run_single_traced(
                    RomeController::new(config.clone()),
                    reqs,
                    Layer::Core,
                    tally,
                )
                .0
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Stage {
    Decode,
    Prefill,
}

/// Re-run one `decode_tpot` / `prefill_time` call and its parts: the step
/// build (`rome-llm`), the two LBR passes the step-time model makes (one
/// `operator_lbr` per operator, then `channel_load_balance`), and the rest
/// of the call as the TPOT model's own time.
fn tpot_point(
    out: &mut Outcome,
    tally: &mut Tally,
    stage: Stage,
    model: &ModelConfig,
    batch: u64,
    mem: &MemoryModel,
) {
    let accel = AcceleratorSpec::paper_default();
    let (report, whole) = timed(|| match stage {
        Stage::Decode => decode_tpot(model, batch, SEQ_LEN, &accel, mem),
        Stage::Prefill => prefill_time(model, batch, SEQ_LEN, &accel, mem),
    });
    let (step, build) = timed(|| build_step(stage, model, batch));
    let (_, first) = timed(|| {
        for op in &step.operators {
            black_box(operator_lbr(op, mem.channels, mem.access_granularity));
        }
    });
    let (lbr, second) = timed(|| channel_load_balance(&step, mem.channels, mem.access_granularity));
    if lbr != report.lbr {
        out.fail(format!(
            "replayed LBR of {} batch {batch} differs",
            model.name
        ));
    }
    count_lbr_work(tally, &step, true);
    tally.add_s("llm.step_build_s", build);
    tally.add_s("sim.lbr_s", first + second);
    tally.add_s("sim.tpot_s", whole - build - first - second);
}

fn build_step(stage: Stage, model: &ModelConfig, batch: u64) -> StepTraffic {
    match stage {
        Stage::Decode => decode_step(model, &Parallelism::paper_decode(model), batch, SEQ_LEN),
        Stage::Prefill => prefill_step(model, &Parallelism::paper_prefill(model), batch, SEQ_LEN),
    }
}

/// Count the tensor units a step holds (`llm.tensor_units`) and the LBR
/// calls and units over them: `channel_load_balance` visits every operator
/// with traffic; the step-time model first visits every operator once more.
fn count_lbr_work(tally: &mut Tally, step: &StepTraffic, with_first_pass: bool) {
    for op in &step.operators {
        let units = op.tensor_units().len() as u64;
        tally.add_n("llm.tensor_units", units);
        let weighted = op.bytes() * u64::from(op.repeat) > 0;
        let visits = u64::from(with_first_pass) + u64::from(weighted);
        tally.add_n("sim.lbr_calls", visits);
        tally.add_n("sim.lbr_units", visits * units);
    }
}

/// Re-run every table's public calls with timers. Returns the tally and
/// the simulator reports (in [`sim_runs`] order) with their total time.
fn replay(out: &mut Outcome) -> (Tally, Vec<rome_engine::SimulationReport>, f64) {
    let mut tally = Tally::default();
    let accel = AcceleratorSpec::paper_default();
    let models = ModelConfig::paper_models();
    let nominal_hbm4 = MemoryModel::hbm4_baseline(&accel);
    let nominal_rome = MemoryModel::rome(&accel);

    // VBA design space and queue depth: wrapped controllers.
    let start = Instant::now();
    let reports: Vec<_> = sim_runs().iter().map(|r| r.traced(&mut tally)).collect();
    let sims = start.elapsed().as_secs_f64();

    // Figure 12 and Figure 14 each calibrate both systems cold.
    let mut calibrated = None;
    for _ in 0..2 {
        let (hbm4, s) = timed(|| Calibrator::new().hbm4());
        tally.add_s("sim.calibration_hbm4_s", s);
        let (rome, s) = timed(|| Calibrator::new().rome());
        tally.add_s("sim.calibration_rome_s", s);
        calibrated = Some((
            nominal_hbm4.with_calibration(hbm4),
            nominal_rome.with_calibration(rome),
        ));
    }
    let (hbm4, rome) = calibrated.expect("two calibration rounds ran");

    // Figure 12: decode TPOT of both systems at every sweep point.
    for model in &models {
        for batch in paper_batch_sweep(model, SEQ_LEN) {
            tpot_point(out, &mut tally, Stage::Decode, model, batch, &hbm4);
            tpot_point(out, &mut tally, Stage::Decode, model, batch, &rome);
        }
    }
    // Figure 13: one step build and one LBR per sweep point.
    for model in &models {
        for batch in paper_batch_sweep(model, SEQ_LEN) {
            let (step, build) = timed(|| build_step(Stage::Decode, model, batch));
            let (_, lbr) = timed(|| {
                channel_load_balance(
                    &step,
                    nominal_rome.channels,
                    nominal_rome.access_granularity,
                )
            });
            count_lbr_work(&mut tally, &step, false);
            tally.add_s("llm.step_build_s", build);
            tally.add_s("sim.lbr_s", lbr);
        }
    }
    // Figure 14: the energy roll-up at batch 256.
    let params = EnergyParams::hbm4();
    for model in &models {
        let (step, build) = timed(|| build_step(Stage::Decode, model, 256));
        let (cmp, whole) = timed(|| decode_energy(model, 256, SEQ_LEN, &hbm4, &rome, &params));
        black_box((step, cmp));
        tally.add_s("llm.step_build_s", build);
        tally.add_s("sim.energy_s", whole - build);
    }
    // Prefill at batch 16, both nominal systems.
    for model in &models {
        tpot_point(out, &mut tally, Stage::Prefill, model, 16, &nominal_hbm4);
        tpot_point(out, &mut tally, Stage::Prefill, model, 16, &nominal_rome);
    }
    // Channel ablation at batch 64.
    let iso = MemoryModel::rome_iso_bandwidth(&accel);
    for model in &models {
        for mem in [&nominal_hbm4, &iso, &nominal_rome] {
            tpot_point(out, &mut tally, Stage::Decode, model, 64, mem);
        }
    }
    // Overfetch ablation: its runs are internal to the sweep.
    let (rows, s) = timed(overfetch_sweep);
    black_box(rows);
    tally.add_s("sim.overfetch_s", s);
    (tally, reports, sims)
}

fn traced(out: &mut Outcome, reference: &[String], first: &[f64], deadline: Instant) {
    // Untraced wall and per-table split: the mean of this run's two passes.
    let (texts, second) = pass();
    check_pass(out, reference, &texts, "pass");
    let table_s: Vec<f64> = first
        .iter()
        .zip(&second)
        .map(|(a, b)| (a + b) / 2.0)
        .collect();
    let wall: f64 = table_s.iter().sum();

    let mut tallies: Vec<Tally> = Vec::new();
    let mut overheads = Vec::new();
    while tallies.len() < 2 || (tallies.len() < 4 && Instant::now() < deadline) {
        let (bare, bare_s) = timed(|| sim_runs().iter().map(SimRun::bare).collect::<Vec<_>>());
        let (tally, reports, traced_s) = replay(out);
        out.count(reports.len() as u64, 0);
        if reports != bare {
            out.fail("traced simulator reports differ from the untraced ones");
        }
        if let Some(prev) = tallies.last() {
            if prev.counts != tally.counts {
                out.fail("exact work counts drifted between traced passes");
            }
        }
        overheads.push(100.0 * (traced_s - bare_s) / bare_s);
        tallies.push(tally);
    }

    let mut values = per_layer::Values::default();
    for (table, s) in TABLES.iter().zip(&table_s) {
        values.add(table_metric(table.name), *s);
    }
    let tally = per_layer::median_tally(&tallies);
    values.absorb(&tally);
    values.set("trace_overhead_pct", median(&overheads));
    values.set("unexplained_s", wall - tally.self_total_s());
    values.set(
        "unexplained_pct",
        100.0 * (wall - tally.self_total_s()) / wall,
    );
    out.line(format!(
        "repro traced: {} replays, pass {wall:.3} s, layers account for {:.3} s",
        tallies.len(),
        tally.self_total_s()
    ));
    values.emit(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_replay_matches_the_bare_runs_and_repeats_its_counts() {
        let bare: Vec<_> = sim_runs().iter().map(SimRun::bare).collect();
        let (mut first, mut second) = (Tally::default(), Tally::default());
        let traced: Vec<_> = sim_runs().iter().map(|r| r.traced(&mut first)).collect();
        let again: Vec<_> = sim_runs().iter().map(|r| r.traced(&mut second)).collect();
        assert_eq!(bare, traced, "tracing must not change a report");
        assert_eq!(traced, again);
        assert_eq!(first.counts, second.counts, "exact work counts drifted");
        assert!(first.n("mc.ticks") > 0 && first.n("core.ticks") > 0);
        assert!(first.n("engine.events") > 0);
    }

    #[test]
    fn lbr_work_counts_repeat() {
        let model = ModelConfig::grok_1();
        let count = || {
            let mut tally = Tally::default();
            count_lbr_work(&mut tally, &build_step(Stage::Decode, &model, 64), true);
            tally.counts
        };
        let first = count();
        assert_eq!(first, count());
        assert!(first["llm.tensor_units"] > 0);
        assert!(first["sim.lbr_calls"] > 0);
    }
}
