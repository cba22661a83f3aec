//! Quickstart: stream data through one conventional HBM4 channel and one
//! RoMe channel, and compare bandwidth, activations, and controller effort.
//!
//! Run with `cargo run --release --example quickstart`.

use rome::core::controller::{RomeController, RomeControllerConfig};
use rome::core::ComplexityComparison;
use rome::mc::controller::{ChannelController, ControllerConfig};
use rome::mc::workload;

fn main() {
    let bytes: u64 = 4 * 1024 * 1024;

    // Conventional HBM4 channel: 32 B cache-line requests, FR-FCFS, 64-entry
    // queue.
    let mut hbm4 = ChannelController::new(ControllerConfig::hbm4_baseline());
    let hbm4_report = rome::engine::simulate::run_to_completion(
        &mut hbm4,
        workload::streaming_reads(0, bytes, 32),
    );

    // RoMe channel: 4 KB row-granularity requests, 4-entry queue.
    let mut rome_ctrl = RomeController::new(RomeControllerConfig::paper_default());
    let rome_report = rome::engine::simulate::run_to_completion(
        &mut rome_ctrl,
        workload::streaming_reads(0, bytes, 4096),
    );

    println!(
        "streaming {} MiB of reads through one channel (peak 64 GB/s):\n",
        bytes >> 20
    );
    println!(
        "  HBM4 : {:6.1} GB/s, {:5.0} requests, {:.2} ACT/KiB, mean latency {:5.1} ns",
        hbm4_report.achieved_bandwidth_gbps,
        hbm4_report.requests_completed as f64,
        hbm4_report.activates_per_kib,
        hbm4_report.mean_read_latency
    );
    println!(
        "  RoMe : {:6.1} GB/s, {:5.0} requests, {:.2} ACT/KiB, mean latency {:5.1} ns",
        rome_report.achieved_bandwidth_gbps,
        rome_report.requests_completed as f64,
        rome_report.activates_per_kib,
        rome_report.mean_read_latency
    );

    let cmp = ComplexityComparison::paper_default();
    println!(
        "\nRoMe reaches this with a scheduler {:.1} % the size of the conventional one",
        cmp.scheduling_area_ratio() * 100.0
    );
    println!(
        "({} timing parameters vs {}, {} bank FSMs vs {}, 4-entry queue vs 64).",
        cmp.rome.timing_parameters,
        cmp.conventional.timing_parameters,
        cmp.rome.bank_fsms,
        cmp.conventional.bank_fsms
    );
}
