//! Simulation drivers for a single channel controller.
//!
//! Since the engine extraction these are the *generic* event-driven drivers
//! of [`rome_engine::simulate`], re-exported here for backwards
//! compatibility: [`ChannelController`](crate::controller::ChannelController)
//! implements [`rome_engine::MemoryController`], so
//! `rome_mc::simulate::run_with_limit(&mut ctrl, …)` is simply the generic
//! loop instantiated for the conventional controller. See the engine module
//! for the event-driven contract and the equivalence guarantees; the
//! regression suite in `tests/event_driven_equivalence.rs` pins bit-identical
//! [`SimulationReport`]s between the event-driven and cycle-stepped drivers
//! (with the FR-FCFS ready cache both on and off).

pub use rome_engine::simulate::{
    run_to_completion, run_with_budget, run_with_limit, run_with_limit_stepped, run_with_source,
    run_with_source_budgeted, SimulationReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ChannelController, ControllerConfig};
    use crate::workload;
    use rome_hbm::units::bytes_per_ns_to_gbps;

    #[test]
    fn streaming_read_run_reports_consistent_totals() {
        let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
        let reqs = workload::streaming_reads(0, 16 * 1024, 32);
        let report = run_to_completion(&mut ctrl, reqs);
        assert_eq!(report.requests_completed, 512);
        assert_eq!(report.bytes_read, 16 * 1024);
        assert_eq!(report.bytes_written, 0);
        // No overfetch at cache-line granularity.
        assert_eq!(report.bytes_transferred, 16 * 1024);
        assert!(report.achieved_bandwidth_gbps > 20.0);
        assert!(report.mean_read_latency > 0.0);
        assert!(report.finish_time > 0);
    }

    #[test]
    fn deeper_queues_do_not_reduce_bandwidth() {
        let reqs = workload::streaming_reads(0, 32 * 1024, 32);
        let mut shallow = ChannelController::new(ControllerConfig::hbm4_with_queue_depth(4));
        let mut deep = ChannelController::new(ControllerConfig::hbm4_with_queue_depth(64));
        let r_shallow = run_to_completion(&mut shallow, reqs.clone());
        let r_deep = run_to_completion(&mut deep, reqs);
        assert!(
            r_deep.achieved_bandwidth_gbps >= r_shallow.achieved_bandwidth_gbps * 0.95,
            "deep {} vs shallow {}",
            r_deep.achieved_bandwidth_gbps,
            r_shallow.achieved_bandwidth_gbps
        );
    }

    #[test]
    fn time_limit_is_respected() {
        let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
        let reqs = workload::streaming_reads(0, 1 << 20, 32);
        let report = run_with_limit(&mut ctrl, reqs, 500);
        assert!(report.finish_time <= 500 + 64);
        assert!(report.requests_completed < 32 * 1024);
    }

    #[test]
    fn write_stream_reports_written_bytes() {
        let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
        let reqs = workload::streaming_writes(0, 4 * 1024, 32);
        let report = run_to_completion(&mut ctrl, reqs);
        assert_eq!(report.bytes_written, 4 * 1024);
        assert_eq!(report.bytes_read, 0);
    }

    #[test]
    fn bandwidth_is_decimal_gb_per_second_of_useful_bytes() {
        // Pin the unit definition: achieved GB/s is total useful bytes
        // divided by elapsed ns (1 byte/ns == 1 decimal GB/s), exactly
        // rome_hbm::units::bytes_per_ns_to_gbps. rome-core uses the same
        // generic driver, so the two systems report identically-defined
        // numbers.
        let mut ctrl = ChannelController::new(ControllerConfig::hbm4_baseline());
        let report = run_to_completion(&mut ctrl, workload::streaming_reads(0, 8 * 1024, 32));
        let expected =
            (report.bytes_read + report.bytes_written) as f64 / report.finish_time.max(1) as f64;
        assert_eq!(report.achieved_bandwidth_gbps, expected);
        assert_eq!(bytes_per_ns_to_gbps(32, 1), 32.0);
    }

    #[test]
    fn event_driven_matches_stepped_on_a_small_stream() {
        let reqs = workload::streaming_reads(0, 8 * 1024, 32);
        let mut a = ChannelController::new(ControllerConfig::hbm4_baseline());
        let mut b = ChannelController::new(ControllerConfig::hbm4_baseline());
        let fast = run_with_limit(&mut a, reqs.clone(), 1_000_000);
        let slow = run_with_limit_stepped(&mut b, reqs, 1_000_000);
        assert_eq!(fast, slow);
    }

    #[test]
    fn queue_depth_runs_take_their_golden_tick_counts() {
        // The §V-A queue-depth sweep. `total_cycles` counts the ticks the
        // event-driven driver visits, so it pins the wakeup hint exactly.
        let ticks: Vec<u64> = [1usize, 2, 4, 8, 16, 32, 45, 64]
            .into_iter()
            .map(|depth| {
                let mut ctrl =
                    ChannelController::new(ControllerConfig::hbm4_with_queue_depth(depth));
                run_to_completion(&mut ctrl, workload::streaming_reads(0, 512 * 1024, 32));
                ctrl.stats().total_cycles
            })
            .collect();
        assert_eq!(
            ticks,
            [18_919, 20_608, 12_349, 11_587, 10_996, 9_459, 8_929, 8_530]
        );
    }

    #[test]
    fn ready_cache_does_not_change_reports() {
        let reqs = workload::read_write_mix(0, 16 * 1024, 32, 4);
        let mut with_cache = ChannelController::new(ControllerConfig::hbm4_baseline());
        let mut without = {
            let mut cfg = ControllerConfig::hbm4_baseline();
            cfg.ready_cache = false;
            ChannelController::new(cfg)
        };
        let cached = run_with_limit(&mut with_cache, reqs.clone(), 1_000_000);
        let plain = run_with_limit(&mut without, reqs, 1_000_000);
        assert_eq!(cached, plain);
    }
}
