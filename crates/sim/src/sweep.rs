//! Batch-size sweeps producing the paper's Figure 12 and Figure 13 series,
//! and the batched [`ScenarioSet`] runner.
//!
//! Every (model, batch) point of a sweep is independent of every other, so
//! the sweeps fan the points out across all cores with rayon and collect the
//! rows back in deterministic sweep order.
//!
//! [`ScenarioSet`] batches *multiple* sweep scenarios behind one warm
//! process: the expensive shared state — the cycle-accurate calibration of
//! both memory systems — is computed once and reused by every scenario,
//! instead of one process (and one calibration) per experiment. This is the
//! serving-style API the ROADMAP's scale-out items build on.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use rome_llm::model::ModelConfig;
use rome_llm::ops::decode_step;
use rome_llm::parallelism::Parallelism;

use crate::accelerator::{AcceleratorSpec, ServerSpec};
use crate::calibration::Calibrator;
use crate::lbr::channel_load_balance;
use crate::memory_model::MemoryModel;
use crate::tpot::decode_tpot;

/// One point of Figure 12: TPOT of both systems at one (model, batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure12Row {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// HBM4 TPOT in ms.
    pub tpot_hbm4_ms: f64,
    /// RoMe TPOT in ms.
    pub tpot_rome_ms: f64,
    /// Normalized RoMe execution time (RoMe / HBM4, the y-axis of Fig. 12).
    pub normalized_rome: f64,
}

/// One point of Figure 13: RoMe's channel load-balance rates at one
/// (model, batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure13Row {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// LBR over attention layers.
    pub lbr_attention: f64,
    /// LBR over FFN layers.
    pub lbr_ffn: f64,
}

/// The batch sizes swept for `model` (powers of two from 8 up to the largest
/// batch that fits in the eight-accelerator server at 8K context — 1024 for
/// DeepSeek-V3, 512 for Grok-1, 256 for Llama-3, as in Fig. 12).
pub fn paper_batch_sweep(model: &ModelConfig, seq_len: u64) -> Vec<u64> {
    let capacity = ServerSpec::paper_default().total_capacity_bytes();
    let max = model.max_batch_for_capacity(capacity, seq_len).max(8);
    let mut out = Vec::new();
    let mut b = 8u64;
    while b <= max {
        out.push(b);
        b *= 2;
    }
    out
}

/// Produce the Figure 12 series for all three models.
pub fn figure12_sweep(
    accel: &AcceleratorSpec,
    hbm4: &MemoryModel,
    rome: &MemoryModel,
    seq_len: u64,
) -> Vec<Figure12Row> {
    sweep_points(seq_len)
        .into_par_iter()
        .map(|(model, batch)| {
            let h = decode_tpot(&model, batch, seq_len, accel, hbm4);
            let r = decode_tpot(&model, batch, seq_len, accel, rome);
            Figure12Row {
                model: model.name.clone(),
                batch,
                tpot_hbm4_ms: h.tpot_ms,
                tpot_rome_ms: r.tpot_ms,
                normalized_rome: r.tpot_ms / h.tpot_ms,
            }
        })
        .collect()
}

/// All (model, batch) points of the paper sweeps, in sweep order.
fn sweep_points(seq_len: u64) -> Vec<(ModelConfig, u64)> {
    let mut points = Vec::new();
    for model in ModelConfig::paper_models() {
        for batch in paper_batch_sweep(&model, seq_len) {
            points.push((model.clone(), batch));
        }
    }
    points
}

/// Mean TPOT reduction of RoMe over the whole sweep of one model (the paper
/// reports 10.4 % / 10.2 % / 9.0 %).
pub fn mean_reduction(rows: &[Figure12Row], model: &str) -> f64 {
    let selected: Vec<&Figure12Row> = rows.iter().filter(|r| r.model == model).collect();
    if selected.is_empty() {
        return 0.0;
    }
    let sum: f64 = selected.iter().map(|r| 1.0 - r.normalized_rome).sum();
    sum / selected.len() as f64
}

/// Produce the Figure 13 series (RoMe LBR) for all three models.
pub fn figure13_sweep(rome: &MemoryModel, seq_len: u64) -> Vec<Figure13Row> {
    sweep_points(seq_len)
        .into_par_iter()
        .map(|(model, batch)| {
            let par = Parallelism::paper_decode(&model);
            let step = decode_step(&model, &par, batch, seq_len);
            let lbr = channel_load_balance(&step, rome.channels, rome.access_granularity);
            Figure13Row {
                model: model.name.clone(),
                batch,
                lbr_attention: lbr.attention,
                lbr_ffn: lbr.ffn,
            }
        })
        .collect()
}

/// Which figure series a [`Scenario`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SweepKind {
    /// The Figure 12 TPOT comparison (both memory systems).
    Figure12,
    /// The Figure 13 channel load-balance rates (RoMe).
    Figure13,
}

/// One batched sweep scenario: a named figure series at one context length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (carried into the report).
    pub name: String,
    /// Which series to produce.
    pub kind: SweepKind,
    /// Sequence length (context) of the sweep.
    pub seq_len: u64,
}

/// The result of one [`Scenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Which series was produced.
    pub kind: SweepKind,
    /// Sequence length of the sweep.
    pub seq_len: u64,
    /// Figure 12 rows (for [`SweepKind::Figure12`] scenarios).
    pub figure12: Option<Vec<Figure12Row>>,
    /// Figure 13 rows (for [`SweepKind::Figure13`] scenarios).
    pub figure13: Option<Vec<Figure13Row>>,
}

/// A batch of sweep scenarios sharing one warm process.
///
/// The cycle-accurate calibration of both memory systems dominates the cost
/// of a sweep run; a `ScenarioSet` pays it once (in
/// [`ScenarioSet::run_calibrated`]) and reuses the calibrated
/// [`MemoryModel`]s for every scenario. Each scenario's (model, batch)
/// points fan out across all cores with rayon, so scenarios execute one
/// after the other without leaving cores idle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSet {
    /// The accelerator the sweeps model.
    pub accel: AcceleratorSpec,
    /// The scenarios to run, in order.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// An empty set for `accel`.
    pub fn new(accel: AcceleratorSpec) -> Self {
        ScenarioSet {
            accel,
            scenarios: Vec::new(),
        }
    }

    /// The paper's evaluation batch: Figure 12 and Figure 13 at the 8K
    /// context used throughout §VI.
    pub fn paper_default() -> Self {
        ScenarioSet::new(AcceleratorSpec::paper_default())
            .with(Scenario {
                name: "fig12-decode-8k".into(),
                kind: SweepKind::Figure12,
                seq_len: 8192,
            })
            .with(Scenario {
                name: "fig13-lbr-8k".into(),
                kind: SweepKind::Figure13,
                seq_len: 8192,
            })
    }

    /// Append a scenario (builder style).
    pub fn with(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Number of scenarios queued.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Run every scenario against the given memory models, in order.
    pub fn run_with_models(&self, hbm4: &MemoryModel, rome: &MemoryModel) -> Vec<ScenarioReport> {
        self.scenarios
            .iter()
            .map(|s| {
                let (figure12, figure13) = match s.kind {
                    SweepKind::Figure12 => (
                        Some(figure12_sweep(&self.accel, hbm4, rome, s.seq_len)),
                        None,
                    ),
                    SweepKind::Figure13 => (None, Some(figure13_sweep(rome, s.seq_len))),
                };
                ScenarioReport {
                    name: s.name.clone(),
                    kind: s.kind,
                    seq_len: s.seq_len,
                    figure12,
                    figure13,
                }
            })
            .collect()
    }

    /// Run every scenario with nominal (published-order) calibration values
    /// — no cycle simulation.
    pub fn run_nominal(&self) -> Vec<ScenarioReport> {
        let hbm4 = MemoryModel::hbm4_baseline(&self.accel);
        let rome = MemoryModel::rome(&self.accel);
        self.run_with_models(&hbm4, &rome)
    }

    /// Calibrate both memory systems once by sampled cycle-accurate
    /// simulation (the expensive part), then run every scenario against the
    /// warm calibrated models.
    pub fn run_calibrated(&self, calibrator: &mut Calibrator) -> Vec<ScenarioReport> {
        let (hbm4, rome) = MemoryModel::calibrated_pair(&self.accel, calibrator);
        self.run_with_models(&hbm4, &rome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_batch_sweeps_match_figure12_ranges() {
        assert_eq!(
            *paper_batch_sweep(&ModelConfig::deepseek_v3(), 8192)
                .last()
                .unwrap(),
            1024
        );
        assert_eq!(
            *paper_batch_sweep(&ModelConfig::grok_1(), 8192)
                .last()
                .unwrap(),
            512
        );
        assert_eq!(
            *paper_batch_sweep(&ModelConfig::llama3_405b(), 8192)
                .last()
                .unwrap(),
            256
        );
        assert_eq!(paper_batch_sweep(&ModelConfig::llama3_405b(), 8192)[0], 8);
    }

    #[test]
    fn figure12_shows_rome_winning_everywhere() {
        let accel = AcceleratorSpec::paper_default();
        let hbm4 = MemoryModel::hbm4_baseline(&accel);
        let rome = MemoryModel::rome(&accel);
        let rows = figure12_sweep(&accel, &hbm4, &rome, 8192);
        assert!(rows.len() >= 18);
        assert!(rows.iter().all(|r| r.normalized_rome < 1.0));
        for model in ["DeepSeek-V3", "Grok 1", "Llama 3"] {
            let red = mean_reduction(&rows, model);
            assert!(
                red > 0.04 && red < 0.25,
                "{model}: mean reduction {:.1}% out of band",
                red * 100.0
            );
        }
    }

    #[test]
    fn figure13_lbr_trends_upward_with_batch() {
        let accel = AcceleratorSpec::paper_default();
        let rome = MemoryModel::rome(&accel);
        let rows = figure13_sweep(&rome, 8192);
        for model in ["DeepSeek-V3", "Grok 1", "Llama 3"] {
            let series: Vec<&Figure13Row> = rows.iter().filter(|r| r.model == model).collect();
            assert!(series.len() >= 6);
            let first = series.first().unwrap();
            let last = series.last().unwrap();
            assert!(
                last.lbr_attention >= first.lbr_attention - 0.02,
                "{model} attention"
            );
            assert!(last.lbr_ffn >= first.lbr_ffn - 0.02, "{model} ffn");
            assert!(series
                .iter()
                .all(|r| r.lbr_attention <= 1.0 + 1e-9 && r.lbr_ffn <= 1.0 + 1e-9));
        }
    }

    #[test]
    fn mean_reduction_of_unknown_model_is_zero() {
        assert_eq!(mean_reduction(&[], "nope"), 0.0);
    }

    #[test]
    fn scenario_set_batches_multiple_sweeps_in_one_run() {
        let set = ScenarioSet::paper_default().with(Scenario {
            name: "fig13-lbr-4k".into(),
            kind: SweepKind::Figure13,
            seq_len: 4096,
        });
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        let reports = set.run_nominal();
        assert_eq!(reports.len(), 3);

        let fig12 = reports[0].figure12.as_ref().expect("figure12 scenario");
        assert!(reports[0].figure13.is_none());
        assert!(fig12.len() >= 18);
        assert!(fig12.iter().all(|r| r.normalized_rome < 1.0));

        let fig13 = reports[1].figure13.as_ref().expect("figure13 scenario");
        assert!(reports[1].figure12.is_none());
        assert!(fig13
            .iter()
            .all(|r| r.lbr_attention <= 1.0 + 1e-9 && r.lbr_ffn <= 1.0 + 1e-9));

        // The extra 4K scenario produces its own series at its own context.
        assert_eq!(reports[2].seq_len, 4096);
        assert!(reports[2].figure13.is_some());
    }

    #[test]
    fn scenario_set_reports_match_direct_sweeps() {
        // Batching must not change any row: a ScenarioSet run is exactly the
        // direct sweep calls sharing one pair of memory models.
        let set = ScenarioSet::paper_default();
        let hbm4 = MemoryModel::hbm4_baseline(&set.accel);
        let rome = MemoryModel::rome(&set.accel);
        let reports = set.run_with_models(&hbm4, &rome);
        assert_eq!(
            reports[0].figure12.as_ref().unwrap(),
            &figure12_sweep(&set.accel, &hbm4, &rome, 8192)
        );
        assert_eq!(
            reports[1].figure13.as_ref().unwrap(),
            &figure13_sweep(&rome, 8192)
        );
    }
}
