//! Explore the six-point virtual-bank design space of §IV-B: every
//! combination of the Fig. 7 bank-merge options and the Fig. 8 pseudo-channel
//! options, with its bandwidth, effective row size, and area cost.
//!
//! Run with `cargo run --release --example vba_design_space`.

use rome::core::controller::{RomeController, RomeControllerConfig};
use rome::core::VbaConfig;
use rome::hbm::Organization;
use rome::mc::workload;

fn main() {
    let org = Organization::hbm4();
    println!(
        "{:<56} {:>7} {:>6} {:>10} {:>9} {:>9}",
        "configuration", "row (B)", "VBAs", "BW (GB/s)", "area ovh", "DRAM mod"
    );
    let mut best = 0.0f64;
    let mut rows = Vec::new();
    for cfg in VbaConfig::design_space() {
        let controller_cfg = RomeControllerConfig::with_vba(cfg);
        let row_bytes = controller_cfg.row_bytes();
        let mut ctrl = RomeController::new(controller_cfg);
        let report = rome::engine::simulate::run_to_completion(
            &mut ctrl,
            workload::streaming_reads(0, 4 * 1024 * 1024, row_bytes),
        );
        best = best.max(report.achieved_bandwidth_gbps);
        rows.push((cfg, row_bytes, report.achieved_bandwidth_gbps));
    }
    for (cfg, row_bytes, bw) in rows {
        println!(
            "{:<56} {:>7} {:>6} {:>10.1} {:>8.0}% {:>9}",
            cfg.label(),
            row_bytes,
            cfg.vbas_per_channel(&org),
            bw,
            cfg.area_overhead_fraction() * 100.0,
            if cfg.requires_dram_modification() {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!(
        "\nRoMe adopts Fig. 7(d) + Fig. 8(b): full bandwidth with no DRAM-array modification\n(the paper reports ≤ 3.6 % performance deviation across the design space)."
    );
}
