//! Cross-crate integration tests: the full path from LLM workload through the
//! memory-system models to TPOT, LBR, and energy.

use rome::core::controller::{RomeController, RomeControllerConfig};
use rome::core::system::{RomeMemorySystem, RomeSystemConfig};
use rome::energy::dram_energy::EnergyParams;
use rome::engine::RunBudget;
use rome::llm::{decode_step, ModelConfig, Parallelism};
use rome::mc::request::MemoryRequest;
use rome::mc::system::{MemorySystem, MemorySystemConfig};
use rome::sim::{
    channel_load_balance, decode_energy, decode_tpot, prefill_time, AcceleratorSpec, MemoryModel,
};

#[test]
fn headline_result_rome_beats_hbm4_in_decode_but_not_prefill() {
    let accel = AcceleratorSpec::paper_default();
    let hbm4 = MemoryModel::hbm4_baseline(&accel);
    let rome = MemoryModel::rome(&accel);
    for model in ModelConfig::paper_models() {
        let d_hbm4 = decode_tpot(&model, 128, 8192, &accel, &hbm4);
        let d_rome = decode_tpot(&model, 128, 8192, &accel, &rome);
        assert!(d_rome.tpot_ms < d_hbm4.tpot_ms, "{}", model.name);
        let p_hbm4 = prefill_time(&model, 16, 8192, &accel, &hbm4);
        let p_rome = prefill_time(&model, 16, 8192, &accel, &rome);
        let prefill_diff = (p_hbm4.tpot_ms - p_rome.tpot_ms).abs() / p_hbm4.tpot_ms;
        assert!(
            prefill_diff < 0.02,
            "{}: prefill difference {prefill_diff}",
            model.name
        );
    }
}

#[test]
fn rome_speedup_is_bounded_by_the_bandwidth_gain_plus_utilization_delta() {
    // RoMe's advantage comes from +12.5 % channels and a cleaner schedule;
    // the decode speedup can therefore never exceed ~25 % in this model.
    let accel = AcceleratorSpec::paper_default();
    let hbm4 = MemoryModel::hbm4_baseline(&accel);
    let rome = MemoryModel::rome(&accel);
    for model in ModelConfig::paper_models() {
        for batch in [8u64, 64, 512] {
            if batch > model.max_batch_for_capacity(8 * 256 * (1 << 30), 8192) {
                continue;
            }
            let h = decode_tpot(&model, batch, 8192, &accel, &hbm4).tpot_ms;
            let r = decode_tpot(&model, batch, 8192, &accel, &rome).tpot_ms;
            let speedup = h / r;
            assert!(
                speedup > 1.0 && speedup < 1.30,
                "{} batch {batch}: speedup {speedup}",
                model.name
            );
        }
    }
}

#[test]
fn whole_cube_memory_systems_complete_the_same_transfer() {
    // A 2 MiB transfer through a 4-channel slice of each memory system moves
    // the same payload; RoMe finishes it with two orders of magnitude fewer
    // interface commands.
    let bytes = 2 * 1024 * 1024u64;
    let mut conventional = MemorySystem::new(MemorySystemConfig::hbm4(4));
    conventional.submit(MemoryRequest::read(1, 0, bytes, 0));
    let (done, t_conv, _) = conventional.run_until_idle(10_000_000, &RunBudget::unlimited());
    assert_eq!(done.len(), 1);
    assert_eq!(conventional.stats().bytes_read, bytes);

    let mut rome_sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
    rome_sys.submit(MemoryRequest::read(1, 0, bytes, 0));
    let (done, t_rome, _) = rome_sys.run_until_idle(10_000_000, &RunBudget::unlimited());
    assert_eq!(done.len(), 1);
    assert_eq!(rome_sys.stats().bytes_read, bytes);

    // Both finish in a comparable time (same peak bandwidth per channel)…
    assert!(
        t_rome as f64 <= t_conv as f64 * 1.2,
        "RoMe {t_rome} vs conventional {t_conv}"
    );
    // …but RoMe issues one interface command per 4 KiB instead of per 32 B.
    let conv_cmds =
        conventional.stats().dram.col_ca_commands + conventional.stats().dram.row_ca_commands;
    let rome_cmds = rome_sys.stats().row_commands_issued();
    assert!(conv_cmds > 50 * rome_cmds, "{conv_cmds} vs {rome_cmds}");
}

#[test]
fn decode_traffic_drives_energy_and_lbr_consistently() {
    let accel = AcceleratorSpec::paper_default();
    let hbm4 = MemoryModel::hbm4_baseline(&accel);
    let rome = MemoryModel::rome(&accel);
    let model = ModelConfig::deepseek_v3();
    let par = Parallelism::paper_decode(&model);
    let step = decode_step(&model, &par, 256, 8192);

    let lbr = channel_load_balance(&step, rome.channels, rome.access_granularity);
    assert!(lbr.attention > 0.8 && lbr.attention <= 1.0);
    assert!(lbr.ffn > 0.8 && lbr.ffn <= 1.0);

    let cmp = decode_energy(&model, 256, 8192, &hbm4, &rome, &EnergyParams::hbm4());
    assert!(cmp.rome_counts.data_bytes >= step.total_bytes());
    assert!(cmp.act_energy_ratio() < 1.0);
    assert!(cmp.total_energy_ratio() < 1.0);
}

#[test]
fn rome_channel_controller_saturates_with_the_table_iv_queue_depth() {
    // Table IV: two outstanding row requests saturate a RoMe channel.
    let mut ctrl = RomeController::new(RomeControllerConfig::with_queue_depth(2));
    let report = rome::engine::simulate::run_to_completion(
        &mut ctrl,
        rome::mc::workload::streaming_reads(0, 4 * 1024 * 1024, 4096),
    );
    assert!(
        report.achieved_bandwidth_gbps > 0.9 * 64.0,
        "{}",
        report.achieved_bandwidth_gbps
    );
}

#[test]
fn facade_crate_re_exports_every_component() {
    // Compile-time check that the `rome` facade exposes all six crates.
    let _ = rome::hbm::Organization::hbm4();
    let _ = rome::mc::ControllerConfig::hbm4_baseline();
    let _ = rome::core::RomeControllerConfig::paper_default();
    let _ = rome::llm::ModelConfig::grok_1();
    let _ = rome::sim::AcceleratorSpec::paper_default();
    let _ = rome::energy::AreaModel::paper_default();
}
