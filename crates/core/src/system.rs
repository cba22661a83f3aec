//! Multi-channel RoMe memory system.
//!
//! The RoMe counterpart of `rome_mc::system::MemorySystem`: host requests of
//! arbitrary size are fragmented into effective-row-sized chunks, steered
//! across the (expanded) channel set, and executed by per-channel
//! [`RomeController`]s. Because the access granularity is 4 KB instead of
//! 32 B, the distribution of a tensor's chunks across channels is coarser —
//! the load-imbalance effect quantified by the paper's Figure 13, which the
//! `bytes_per_channel` accessor exposes.
//!
//! As on the conventional side, all event-driven plumbing — backlog
//! back-pressure, the global-clock tick path, `next_event_at`, and the
//! parallel per-channel [`RomeMemorySystem::run_until_idle`] — lives in the
//! generic [`rome_engine::MultiChannelSystem`]; this type contributes only
//! the RoMe address decode and the aggregated [`RomeStats`].

use serde::{Deserialize, Serialize};

use rome_engine::MultiChannelSystem;
use rome_hbm::units::Cycle;

use rome_mc::request::{MemoryRequest, RequestId};

use crate::channel_plan::ChannelPlan;
use crate::controller::{RomeController, RomeControllerConfig, RomeQueueEntry};
use crate::row_command::VbaAddress;
use crate::stats::RomeStats;

pub use rome_engine::HostCompletion;

/// Configuration of a multi-channel RoMe memory system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RomeSystemConfig {
    /// Number of channels instantiated (36 per cube under the paper's plan).
    pub channels: u16,
    /// Per-channel controller configuration.
    pub controller: RomeControllerConfig,
}

impl RomeSystemConfig {
    /// A single-cube RoMe system following the paper's channel plan.
    pub fn paper_cube() -> Self {
        RomeSystemConfig {
            channels: ChannelPlan::paper_default().rome_channels as u16,
            controller: RomeControllerConfig::paper_default(),
        }
    }

    /// A RoMe system with an explicit channel count (used for sampled
    /// system-level simulation and the iso-bandwidth ablation).
    pub fn with_channels(channels: u16) -> Self {
        RomeSystemConfig {
            channels,
            controller: RomeControllerConfig::paper_default(),
        }
    }

    /// Effective row size (request granularity) in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.controller.row_bytes()
    }

    /// Peak bandwidth of the instantiated system in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.controller.organization.channel_bandwidth_gbps() * self.channels as f64
    }
}

/// A multi-channel RoMe memory system on top of the generic engine system.
#[derive(Debug, Clone)]
pub struct RomeMemorySystem {
    config: RomeSystemConfig,
    inner: MultiChannelSystem<RomeController>,
}

impl RomeMemorySystem {
    /// Build the system described by `config`.
    pub fn new(config: RomeSystemConfig) -> Self {
        let controllers = (0..config.channels)
            .map(|_| RomeController::new(config.controller.clone()))
            .collect();
        RomeMemorySystem {
            inner: MultiChannelSystem::new(controllers),
            config,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &RomeSystemConfig {
        &self.config
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.inner.channels()
    }

    /// Aggregate statistics across channels.
    pub fn stats(&self) -> RomeStats {
        let mut out = RomeStats::new();
        for c in self.inner.controllers() {
            out.merge(c.stats());
        }
        out
    }

    /// Useful bytes served per channel (for the channel load-balance rate).
    pub fn bytes_per_channel(&self) -> Vec<u64> {
        self.inner.bytes_per_channel()
    }

    /// The engine-level statistics of the whole system (per-channel
    /// snapshots merged); feed to
    /// [`rome_engine::report_from_host_completions`] to summarize a system
    /// run as a unified [`rome_engine::SimulationReport`].
    pub fn stats_snapshot(&self) -> rome_engine::StatsSnapshot {
        self.inner.stats_merged()
    }

    /// Whether all work has drained.
    pub fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    /// Decode a physical address into (channel, VBA, row): consecutive
    /// row-sized chunks rotate across channels first, then VBAs, then stack
    /// IDs, then rows — the RoMe address mapping selected by the paper's
    /// mapping sweep.
    pub fn decode(&self, address: u64) -> (u16, VbaAddress, u32) {
        decode_for(&self.config, address)
    }

    /// Submit a host request; it is fragmented into row-sized chunks.
    pub fn submit(&mut self, request: MemoryRequest) -> RequestId {
        let RomeMemorySystem { config, inner } = self;
        inner.submit_with(request, config.row_bytes(), |frag| {
            let (channel, target, row) = decode_for(config, frag.address.raw());
            (
                channel,
                RomeQueueEntry {
                    request: frag,
                    target,
                    row,
                },
            )
        })
    }

    /// Advance the whole system by one nanosecond, appending completed host
    /// requests to `completions`. Returns `true` if any channel issued a row
    /// command.
    pub fn tick_into(&mut self, now: Cycle, completions: &mut Vec<HostCompletion>) -> bool {
        self.inner.tick_into(now, completions)
    }

    /// The next cycle strictly after `now` at which any channel's state can
    /// change, or at which a backlogged fragment could enter a queue. `None`
    /// when the whole system is quiescent. Takes `&mut self` because the
    /// underlying event calendar prunes stale heap entries lazily.
    pub fn next_event_at(&mut self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event_at(now)
    }

    /// Run until all submitted requests complete or `max_ns` elapses,
    /// metered against `budget` (each channel meters independently); returns
    /// the completions (sorted by completion time, then id), the cycle the
    /// run stopped at and the abort reason, if any channel's budget tripped.
    /// Channels run their event-driven loops in parallel; see
    /// [`rome_engine::MultiChannelSystem::run_until_idle`].
    pub fn run_until_idle(
        &mut self,
        max_ns: Cycle,
        budget: &rome_engine::RunBudget,
    ) -> (Vec<HostCompletion>, Cycle, Option<rome_engine::AbortReason>) {
        self.inner.run_until_idle(max_ns, budget)
    }

    /// Drive the system from a lazy [`rome_engine::TrafficSource`] until the
    /// source is exhausted and all its requests completed, or `max_ns`
    /// elapses. Completions are fed back to the source (closed-loop hosts
    /// key their next injection on them) and the source's arrivals merge
    /// into the event horizon; see
    /// [`rome_engine::MultiChannelSystem::run_with_source_budgeted`].
    pub fn run_with_source<S: rome_engine::TrafficSource>(
        &mut self,
        source: &mut S,
        max_ns: Cycle,
    ) -> (Vec<HostCompletion>, Cycle) {
        let (completions, stop, _) =
            self.run_with_source_budgeted(source, max_ns, &rome_engine::RunBudget::unlimited());
        (completions, stop)
    }

    /// Like [`RomeMemorySystem::run_with_source`] but metered against a
    /// [`rome_engine::RunBudget`] and with stalled-source detection,
    /// returning the abort reason alongside the completions; see
    /// [`rome_engine::MultiChannelSystem::run_with_source_budgeted`].
    pub fn run_with_source_budgeted<S: rome_engine::TrafficSource>(
        &mut self,
        source: &mut S,
        max_ns: Cycle,
        budget: &rome_engine::RunBudget,
    ) -> (Vec<HostCompletion>, Cycle, Option<rome_engine::AbortReason>) {
        let RomeMemorySystem { config, inner } = self;
        inner.run_with_source_budgeted(
            source,
            config.row_bytes(),
            max_ns,
            |frag| {
                let (channel, target, row) = decode_for(config, frag.address.raw());
                (
                    channel,
                    RomeQueueEntry {
                        request: frag,
                        target,
                        row,
                    },
                )
            },
            budget,
        )
    }
}

/// The address decode of [`RomeMemorySystem::decode`], as a free function so
/// `submit` can steer fragments while the inner system is mutably borrowed.
fn decode_for(config: &RomeSystemConfig, address: u64) -> (u16, VbaAddress, u32) {
    let row_bytes = config.row_bytes();
    let org = &config.controller.organization;
    let vbas_per_rank = config.controller.vba.vbas_per_rank(org).max(1) as u64;
    let chunk = address / row_bytes;
    let channel = (chunk % config.channels as u64) as u16;
    let rest = chunk / config.channels as u64;
    let vba = (rest % vbas_per_rank) as u8;
    let rest = rest / vbas_per_rank;
    let sid = (rest % org.stack_ids as u64) as u8;
    let row = ((rest / org.stack_ids as u64) % org.rows_per_bank as u64) as u32;
    (channel, VbaAddress::new(channel, sid, vba), row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rome_engine::RunBudget;

    #[test]
    fn paper_cube_has_36_channels_and_2_25_tbps() {
        let cfg = RomeSystemConfig::paper_cube();
        assert_eq!(cfg.channels, 36);
        assert_eq!(cfg.peak_bandwidth_gbps(), 2304.0);
        assert_eq!(cfg.row_bytes(), 4096);
    }

    #[test]
    fn decode_round_robins_channels_first() {
        let sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
        let (c0, _, _) = sys.decode(0);
        let (c1, _, _) = sys.decode(4096);
        let (c4, v4, _) = sys.decode(4 * 4096);
        assert_eq!(c0, 0);
        assert_eq!(c1, 1);
        assert_eq!(c4, 0);
        assert_eq!(v4.vba, 1);
    }

    #[test]
    fn large_transfer_spreads_across_channels_and_completes() {
        let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
        sys.submit(MemoryRequest::read(1, 0, 256 * 1024, 0));
        let (done, finish, _) = sys.run_until_idle(5_000_000, &RunBudget::unlimited());
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].bytes, 256 * 1024);
        let per_chan = sys.bytes_per_channel();
        let max = *per_chan.iter().max().unwrap();
        let min = *per_chan.iter().min().unwrap();
        assert_eq!(
            max, min,
            "perfectly divisible transfer must balance: {per_chan:?}"
        );
        // Aggregate bandwidth well above one channel's peak.
        let bw = (256.0 * 1024.0) / finish as f64;
        assert!(bw > 150.0, "bandwidth {bw:.1} GB/s");
    }

    #[test]
    fn small_transfer_loads_only_some_channels() {
        // A 12 KiB tensor on a 4-channel system touches only 3 channels:
        // the imbalance RoMe's Figure 13 quantifies.
        let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(4));
        sys.submit(MemoryRequest::read(1, 0, 12 * 1024, 0));
        sys.run_until_idle(1_000_000, &RunBudget::unlimited());
        let per_chan = sys.bytes_per_channel();
        let loaded = per_chan.iter().filter(|&&b| b > 0).count();
        assert_eq!(loaded, 3, "{per_chan:?}");
    }

    #[test]
    fn reads_and_writes_both_complete_with_stats() {
        let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(2));
        sys.submit(MemoryRequest::read(1, 0, 64 * 1024, 0));
        sys.submit(MemoryRequest::write(2, 1 << 20, 64 * 1024, 0));
        let (done, _, _) = sys.run_until_idle(5_000_000, &RunBudget::unlimited());
        assert_eq!(done.len(), 2);
        let stats = sys.stats();
        assert_eq!(stats.bytes_read, 64 * 1024);
        assert_eq!(stats.bytes_written, 64 * 1024);
        assert_eq!(stats.rd_rows_issued, 16);
        assert_eq!(stats.wr_rows_issued, 16);
    }

    #[test]
    fn auto_ids_are_assigned() {
        let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(2));
        let a = sys.submit(MemoryRequest::read(0, 0, 4096, 0));
        let b = sys.submit(MemoryRequest::read(0, 8192, 4096, 0));
        assert_ne!(a, b);
    }
}
