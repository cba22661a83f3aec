//! Fine-grained-access (overfetch) ablation (§VII).
//!
//! RoMe moves whole 4 KB rows; a workload issuing requests smaller than a row
//! wastes the difference. This module quantifies the effective-bandwidth loss
//! as a function of request size, both analytically and by running the actual
//! RoMe controller on a fine-grained request stream, and contrasts it with
//! the conventional 32 B-granularity system (which only overfetches below
//! 32 B).

use serde::{Deserialize, Serialize};

use rome_core::controller::{RomeController, RomeControllerConfig};
use rome_mc::request::MemoryRequest;

/// One row of the overfetch sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverfetchRow {
    /// Request size in bytes.
    pub request_bytes: u64,
    /// Fraction of RoMe's transferred data that is useful (request / row).
    pub rome_useful_fraction: f64,
    /// Fraction of HBM4's transferred data that is useful (request /
    /// 32 B-rounded transfer).
    pub hbm4_useful_fraction: f64,
    /// RoMe useful bandwidth measured by the cycle-level controller on a
    /// random stream of this request size, in GB/s (single channel).
    pub rome_measured_useful_gbps: f64,
}

/// Sweep request sizes from 32 B to the full 4 KB row.
pub fn overfetch_sweep() -> Vec<OverfetchRow> {
    let row_bytes = 4096u64;
    let sizes = [32u64, 64, 128, 256, 512, 1024, 2048, 4096];
    sizes
        .iter()
        .map(|&size| {
            let rome_useful = size as f64 / row_bytes as f64;
            let hbm4_transfer = size.div_ceil(32) * 32;
            let hbm4_useful = size as f64 / hbm4_transfer as f64;
            OverfetchRow {
                request_bytes: size,
                rome_useful_fraction: rome_useful,
                hbm4_useful_fraction: hbm4_useful,
                rome_measured_useful_gbps: measure_rome_useful_bandwidth(size),
            }
        })
        .collect()
}

/// Run a short stream of `size`-byte requests at row-stride addresses through
/// one RoMe channel and report the useful bandwidth achieved.
pub fn measure_rome_useful_bandwidth(size: u64) -> f64 {
    let mut ctrl = RomeController::new(RomeControllerConfig::paper_default());
    let row = ctrl.config().row_bytes();
    let count = 128u64;
    let requests: Vec<MemoryRequest> = (0..count)
        .map(|i| MemoryRequest::read(i, i * row, size.min(row), 0))
        .collect();
    let report = rome_engine::simulate::run_to_completion(&mut ctrl, requests);
    report.achieved_bandwidth_gbps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn useful_fraction_grows_with_request_size() {
        let rows = overfetch_sweep();
        assert_eq!(rows.len(), 8);
        for pair in rows.windows(2) {
            assert!(pair[1].rome_useful_fraction >= pair[0].rome_useful_fraction);
        }
        assert_eq!(rows.last().unwrap().rome_useful_fraction, 1.0);
        assert!((rows[0].rome_useful_fraction - 32.0 / 4096.0).abs() < 1e-12);
        // The conventional system never overfetches for aligned ≥32 B requests.
        assert!(rows
            .iter()
            .all(|r| (r.hbm4_useful_fraction - 1.0).abs() < 1e-12));
    }

    #[test]
    fn measured_rome_bandwidth_tracks_the_useful_fraction() {
        let full = measure_rome_useful_bandwidth(4096);
        let half = measure_rome_useful_bandwidth(2048);
        let tiny = measure_rome_useful_bandwidth(64);
        assert!(full > 50.0, "full-row useful bandwidth {full}");
        assert!(half < full && half > full * 0.4);
        assert!(
            tiny < full * 0.05,
            "64 B requests should waste almost the entire row: {tiny}"
        );
    }
}
