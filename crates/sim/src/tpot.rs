//! Time per output token (TPOT, Figure 12) and prefill timing.
//!
//! Each operator of a decode step contributes
//! `max(compute time, memory time)` — the accelerator overlaps compute with
//! memory fetch, so whichever resource the operator saturates determines its
//! duration. Memory time uses the memory system's calibrated effective
//! bandwidth scaled by the operator's channel load-balance rate. Tensor- and
//! expert-parallel layers additionally pay an interconnect collective per
//! layer, identical for both memory systems.

use serde::{Deserialize, Serialize};

use rome_llm::model::ModelConfig;
use rome_llm::ops::{decode_step, prefill_step};
use rome_llm::parallelism::Parallelism;
use rome_llm::traffic::StepTraffic;
use rome_llm::types::Stage;

use crate::accelerator::{AcceleratorSpec, ServerSpec};
use crate::lbr::{operator_lbr, weighted_report, LbrReport};
use crate::memory_model::MemoryModel;

/// The timing result of one decode step (or prefill pass).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TpotReport {
    /// Model name.
    pub model: String,
    /// Stage simulated.
    pub stage: Stage,
    /// Batch size.
    pub batch: u64,
    /// Sequence length.
    pub seq_len: u64,
    /// Which memory system was used (display name).
    pub memory_system: String,
    /// Total time per output token (or per prefill pass) in milliseconds.
    pub tpot_ms: f64,
    /// Portion of the total spent in memory-bound operators, ms.
    pub memory_bound_ms: f64,
    /// Portion of the total spent in compute-bound operators, ms.
    pub compute_bound_ms: f64,
    /// Interconnect collective time, ms.
    pub communication_ms: f64,
    /// Channel load-balance rates of the step on this memory system.
    pub lbr: LbrReport,
}

fn step_time(
    step: &StepTraffic,
    accel: &AcceleratorSpec,
    server: &ServerSpec,
    mem: &MemoryModel,
    par: &Parallelism,
    model: &ModelConfig,
) -> TpotReport {
    let lbrs: Vec<f64> = step
        .operators
        .iter()
        .map(|op| operator_lbr(op, mem.channels, mem.access_granularity))
        .collect();
    let mut memory_bound_ns = 0.0;
    let mut compute_bound_ns = 0.0;
    for (op, &lbr) in step.operators.iter().zip(&lbrs) {
        let bw = mem.effective_bandwidth_gbps(lbr);
        let mem_ns = op.bytes() as f64 / bw;
        let comp_ns = accel.compute_time_ns(op.flops);
        let total = mem_ns.max(comp_ns) * op.repeat as f64;
        if mem_ns >= comp_ns {
            memory_bound_ns += total;
        } else {
            compute_bound_ns += total;
        }
    }

    // Collectives: one attention all-reduce per layer under tensor
    // parallelism, and one FFN all-reduce (dense TP) or dispatch/combine
    // exchange (expert parallelism) per layer. Identical for both memory
    // systems.
    let tokens = match step.stage {
        Stage::Decode => step.batch,
        Stage::Prefill => step.batch * step.seq_len,
    };
    let payload = tokens * model.hidden as u64 * model.dtype.bytes();
    let mut comm_ns = 0.0;
    if par.attention_tp > 1 {
        comm_ns += model.layers as f64 * server.allreduce_time_ns(payload, par.attention_tp);
    }
    let ffn_group = if model.ffn.is_moe() {
        par.expert_parallel
    } else {
        par.ffn_tp
    };
    if ffn_group > 1 {
        comm_ns += model.layers as f64 * server.allreduce_time_ns(payload, ffn_group);
    }

    let total_ns = memory_bound_ns + compute_bound_ns + comm_ns;
    TpotReport {
        model: step.model.clone(),
        stage: step.stage,
        batch: step.batch,
        seq_len: step.seq_len,
        memory_system: mem.kind.to_string(),
        tpot_ms: total_ns / 1e6,
        memory_bound_ms: memory_bound_ns / 1e6,
        compute_bound_ms: compute_bound_ns / 1e6,
        communication_ms: comm_ns / 1e6,
        lbr: weighted_report(step.operators.iter().zip(lbrs)),
    }
}

/// Time per output token of one decode step of `model` at the given batch and
/// sequence length on `mem`.
pub fn decode_tpot(
    model: &ModelConfig,
    batch: u64,
    seq_len: u64,
    accel: &AcceleratorSpec,
    mem: &MemoryModel,
) -> TpotReport {
    let par = Parallelism::paper_decode(model);
    let step = decode_step(model, &par, batch, seq_len);
    step_time(&step, accel, &ServerSpec::paper_default(), mem, &par, model)
}

/// Wall-clock time of one prefill pass.
pub fn prefill_time(
    model: &ModelConfig,
    batch: u64,
    seq_len: u64,
    accel: &AcceleratorSpec,
    mem: &MemoryModel,
) -> TpotReport {
    let par = Parallelism::paper_prefill(model);
    let step = prefill_step(model, &par, batch, seq_len);
    step_time(&step, accel, &ServerSpec::paper_default(), mem, &par, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> Vec<ModelConfig> {
        ModelConfig::paper_models()
    }

    #[test]
    fn rome_reduces_decode_tpot_for_every_model() {
        let accel = AcceleratorSpec::paper_default();
        let hbm4 = MemoryModel::hbm4_baseline(&accel);
        let rome = MemoryModel::rome(&accel);
        for model in models() {
            let t_hbm4 = decode_tpot(&model, 64, 8192, &accel, &hbm4);
            let t_rome = decode_tpot(&model, 64, 8192, &accel, &rome);
            let reduction = 1.0 - t_rome.tpot_ms / t_hbm4.tpot_ms;
            assert!(
                reduction > 0.03 && reduction < 0.30,
                "{}: TPOT reduction {:.1}% outside the expected band",
                model.name,
                reduction * 100.0
            );
        }
    }

    #[test]
    fn decode_is_dominated_by_memory_time() {
        let accel = AcceleratorSpec::paper_default();
        let hbm4 = MemoryModel::hbm4_baseline(&accel);
        for model in models() {
            let t = decode_tpot(&model, 64, 8192, &accel, &hbm4);
            assert!(
                t.memory_bound_ms > t.compute_bound_ms,
                "{}: memory {} vs compute {}",
                model.name,
                t.memory_bound_ms,
                t.compute_bound_ms
            );
            assert!(
                t.tpot_ms > 0.5 && t.tpot_ms < 100.0,
                "{}: {} ms",
                model.name,
                t.tpot_ms
            );
        }
    }

    #[test]
    fn decode_tpot_magnitude_matches_the_paper_order() {
        // Fig. 12 annotates HBM4 TPOTs in the 5–20 ms range across the batch
        // sweep; check the same order of magnitude at batch 256.
        let accel = AcceleratorSpec::paper_default();
        let hbm4 = MemoryModel::hbm4_baseline(&accel);
        for model in models() {
            let t = decode_tpot(&model, 256, 8192, &accel, &hbm4);
            assert!(
                t.tpot_ms > 2.0 && t.tpot_ms < 60.0,
                "{}: TPOT {} ms at batch 256",
                model.name,
                t.tpot_ms
            );
        }
    }

    #[test]
    fn prefill_is_insensitive_to_the_memory_system() {
        let accel = AcceleratorSpec::paper_default();
        let hbm4 = MemoryModel::hbm4_baseline(&accel);
        let rome = MemoryModel::rome(&accel);
        for model in models() {
            let p_hbm4 = prefill_time(&model, 16, 8192, &accel, &hbm4);
            let p_rome = prefill_time(&model, 16, 8192, &accel, &rome);
            let diff = (p_hbm4.tpot_ms - p_rome.tpot_ms).abs() / p_hbm4.tpot_ms;
            assert!(
                diff < 0.02,
                "{}: prefill difference {:.3}%",
                model.name,
                diff * 100.0
            );
            assert!(
                p_hbm4.compute_bound_ms > p_hbm4.memory_bound_ms,
                "{}",
                model.name
            );
        }
    }

    #[test]
    fn tpot_grows_with_batch_size() {
        let accel = AcceleratorSpec::paper_default();
        let rome = MemoryModel::rome(&accel);
        let model = ModelConfig::grok_1();
        let small = decode_tpot(&model, 8, 8192, &accel, &rome);
        let large = decode_tpot(&model, 256, 8192, &accel, &rome);
        assert!(large.tpot_ms > small.tpot_ms);
    }

    #[test]
    fn report_lbr_matches_channel_load_balance_of_the_step() {
        use crate::lbr::channel_load_balance;
        let accel = AcceleratorSpec::paper_default();
        let model = ModelConfig::deepseek_v3();
        for mem in [
            MemoryModel::hbm4_baseline(&accel),
            MemoryModel::rome(&accel),
        ] {
            let t = decode_tpot(&model, 64, 8192, &accel, &mem);
            let step = decode_step(&model, &Parallelism::paper_decode(&model), 64, 8192);
            let lbr = channel_load_balance(&step, mem.channels, mem.access_granularity);
            assert_eq!(t.lbr, lbr);
        }
    }

    #[test]
    fn huge_batches_stay_cheap_and_well_formed() {
        // The LBR no longer visits one object per sequence, so a batch of
        // 2^24 costs what a batch of 8 does.
        let accel = AcceleratorSpec::paper_default();
        let rome = MemoryModel::rome(&accel);
        let t = decode_tpot(&ModelConfig::deepseek_v3(), 1 << 24, 8192, &accel, &rome);
        assert!(t.tpot_ms.is_finite() && t.tpot_ms > 0.0);
        assert!(t.lbr.overall > 0.0 && t.lbr.overall <= 1.0);
    }

    #[test]
    fn iso_bandwidth_rome_sits_between_hbm4_and_full_rome() {
        let accel = AcceleratorSpec::paper_default();
        let hbm4 = MemoryModel::hbm4_baseline(&accel);
        let rome = MemoryModel::rome(&accel);
        let iso = MemoryModel::rome_iso_bandwidth(&accel);
        let model = ModelConfig::llama3_405b();
        let t_hbm4 = decode_tpot(&model, 64, 8192, &accel, &hbm4).tpot_ms;
        let t_iso = decode_tpot(&model, 64, 8192, &accel, &iso).tpot_ms;
        let t_rome = decode_tpot(&model, 64, 8192, &accel, &rome).tpot_ms;
        assert!(
            t_rome < t_iso,
            "extra channels must help: {t_rome} vs {t_iso}"
        );
        assert!(
            t_iso <= t_hbm4 * 1.02,
            "iso-bandwidth RoMe should not be slower: {t_iso} vs {t_hbm4}"
        );
    }
}
