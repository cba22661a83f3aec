//! DRAM energy comparison for a decode step (Figure 14).
//!
//! The conventional system's command counts follow from its 32 B access
//! granularity and the calibrated activations-per-KiB of the cycle-accurate
//! controller; RoMe's counts follow exactly from the command-generator
//! expansion (4 ACTs, 128 column commands, 4 PREs per 4 KB row command) plus
//! the per-object overfetch of rounding every tensor up to whole rows.

use serde::{Deserialize, Serialize};

use rome_energy::dram_energy::{CommandCounts, EnergyBreakdown, EnergyParams};
use rome_llm::model::ModelConfig;
use rome_llm::ops::decode_step;
use rome_llm::parallelism::Parallelism;
use rome_llm::traffic::StepTraffic;

use crate::memory_model::MemoryModel;

/// Energy of one decode step on both memory systems.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyComparison {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// Command counts attributed to the HBM4 baseline.
    pub hbm4_counts: CommandCounts,
    /// Command counts attributed to RoMe.
    pub rome_counts: CommandCounts,
    /// Energy breakdown of the HBM4 baseline.
    pub hbm4: EnergyBreakdown,
    /// Energy breakdown of RoMe.
    pub rome: EnergyBreakdown,
}

impl EnergyComparison {
    /// RoMe ACT energy relative to HBM4 (the paper reports 55.5 % / 86.0 % /
    /// 84.4 % for the three models).
    pub fn act_energy_ratio(&self) -> f64 {
        if self.hbm4.act_pj == 0.0 {
            1.0
        } else {
            self.rome.act_pj / self.hbm4.act_pj
        }
    }

    /// RoMe total energy relative to HBM4 (the paper reports reductions of
    /// 1.9 % / 0.7 % / 0.7 %).
    pub fn total_energy_ratio(&self) -> f64 {
        if self.hbm4.total_pj() == 0.0 {
            1.0
        } else {
            self.rome.total_pj() / self.hbm4.total_pj()
        }
    }

    /// Command-generator energy as a fraction of RoMe's total.
    pub fn command_generator_fraction(&self) -> f64 {
        if self.rome.total_pj() == 0.0 {
            0.0
        } else {
            self.rome.command_generator_pj / self.rome.total_pj()
        }
    }
}

fn hbm4_counts(step: &StepTraffic, mem: &MemoryModel) -> CommandCounts {
    let bytes = step.total_bytes();
    let columns = bytes / 32;
    let activates = (bytes as f64 / 1024.0 * mem.calibration.activates_per_kib).round() as u64;
    CommandCounts {
        activates,
        reads: columns,
        writes: 0,
        precharges: activates,
        refreshes: 0,
        data_bytes: bytes,
        interface_commands: columns + 2 * activates,
        generated_commands: 0,
    }
}

fn rome_counts(step: &StepTraffic, row_bytes: u64) -> CommandCounts {
    // Every independently-allocated object is rounded up to whole rows.
    let mut row_commands = 0u64;
    for op in &step.operators {
        let per_exec: u64 = op
            .tensor_runs()
            .map(|(_, bytes, count)| count * bytes.div_ceil(row_bytes))
            .sum();
        row_commands += per_exec * op.repeat as u64;
    }
    let acts_per_row = 4;
    let columns_per_row = row_bytes / 32;
    CommandCounts {
        activates: row_commands * acts_per_row,
        reads: row_commands * columns_per_row,
        writes: 0,
        precharges: row_commands * acts_per_row,
        refreshes: 0,
        data_bytes: row_commands * row_bytes,
        interface_commands: row_commands,
        generated_commands: row_commands * (columns_per_row + 2 * acts_per_row),
    }
}

/// Compute the Figure 14 comparison for one decode step.
pub fn decode_energy(
    model: &ModelConfig,
    batch: u64,
    seq_len: u64,
    hbm4: &MemoryModel,
    rome: &MemoryModel,
    params: &EnergyParams,
) -> EnergyComparison {
    let par = Parallelism::paper_decode(model);
    let step = decode_step(model, &par, batch, seq_len);
    let h = hbm4_counts(&step, hbm4);
    let r = rome_counts(&step, rome.access_granularity);
    EnergyComparison {
        model: model.name.clone(),
        batch,
        hbm4: EnergyBreakdown::from_counts(&h, params),
        rome: EnergyBreakdown::from_counts(&r, params),
        hbm4_counts: h,
        rome_counts: r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::AcceleratorSpec;

    fn systems() -> (MemoryModel, MemoryModel) {
        let accel = AcceleratorSpec::paper_default();
        (
            MemoryModel::hbm4_baseline(&accel),
            MemoryModel::rome(&accel),
        )
    }

    #[test]
    fn rome_reduces_act_energy_for_every_model() {
        let (hbm4, rome) = systems();
        let params = EnergyParams::hbm4();
        for model in ModelConfig::paper_models() {
            let cmp = decode_energy(&model, 256, 8192, &hbm4, &rome, &params);
            let ratio = cmp.act_energy_ratio();
            assert!(
                ratio > 0.4 && ratio < 1.0,
                "{}: ACT ratio {ratio:.2} outside (0.4, 1.0)",
                model.name
            );
        }
    }

    #[test]
    fn rome_total_energy_is_slightly_lower() {
        let (hbm4, rome) = systems();
        let params = EnergyParams::hbm4();
        for model in ModelConfig::paper_models() {
            let cmp = decode_energy(&model, 256, 8192, &hbm4, &rome, &params);
            let ratio = cmp.total_energy_ratio();
            assert!(
                ratio > 0.85 && ratio < 1.0,
                "{}: total ratio {ratio:.3} should be a modest reduction",
                model.name
            );
        }
    }

    #[test]
    fn command_generator_energy_is_negligible() {
        let (hbm4, rome) = systems();
        let params = EnergyParams::hbm4();
        let cmp = decode_energy(&ModelConfig::grok_1(), 256, 8192, &hbm4, &rome, &params);
        assert!(cmp.command_generator_fraction() < 0.005);
        assert!(cmp.command_generator_fraction() > 0.0);
    }

    #[test]
    fn rome_interface_commands_are_orders_of_magnitude_fewer() {
        let (hbm4, rome) = systems();
        let params = EnergyParams::hbm4();
        let cmp = decode_energy(&ModelConfig::llama3_405b(), 64, 8192, &hbm4, &rome, &params);
        assert!(cmp.hbm4_counts.interface_commands > 50 * cmp.rome_counts.interface_commands);
        // Overfetch exists but is small relative to total traffic.
        let overfetch = cmp.rome_counts.data_bytes as f64 / cmp.hbm4_counts.data_bytes as f64;
        assert!(
            (1.0..1.1).contains(&overfetch),
            "overfetch factor {overfetch}"
        );
    }
}
