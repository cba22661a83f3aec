//! Multi-channel memory system.
//!
//! [`MemorySystem`] models the memory side of one accelerator: a set of HBM
//! channels, each with its own [`ChannelController`], fronted by a shared
//! address-mapping function. Host requests of arbitrary size are fragmented
//! into controller-granularity transactions, steered to their channel, and
//! reassembled on completion.
//!
//! All of the event-driven plumbing — backlog back-pressure, the global-clock
//! tick path, `next_event_at`, and the parallel per-channel
//! [`MemorySystem::run_until_idle`] — lives in the generic
//! [`rome_engine::MultiChannelSystem`]; this type contributes only the HBM4
//! address decode and the aggregated [`ControllerStats`].
//!
//! For the large LLM experiments the system is also used in *sampled* mode:
//! only a subset of channels is instantiated and traffic is scaled
//! accordingly (`rome-sim` handles the scaling); the per-channel behaviour is
//! identical either way.

use serde::{Deserialize, Serialize};

use rome_engine::MultiChannelSystem;
use rome_hbm::organization::Organization;
use rome_hbm::timing::TimingParams;
use rome_hbm::units::Cycle;

use crate::controller::{ChannelController, ControllerConfig};
use crate::mapping::{AddressMapping, MappingScheme};
use crate::queue::QueueEntry;
use crate::request::{MemoryRequest, RequestId};
use crate::stats::ControllerStats;

pub use rome_engine::HostCompletion;

/// Configuration of a multi-channel memory system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySystemConfig {
    /// Number of channels instantiated.
    pub channels: u16,
    /// Per-channel controller configuration.
    pub controller: ControllerConfig,
    /// System-level address mapping (across channels).
    pub mapping: MappingScheme,
    /// Fragment granularity presented to each controller, in bytes
    /// (32 B for the conventional system).
    pub access_granularity: u64,
}

impl MemorySystemConfig {
    /// A conventional HBM4 system with `channels` channels.
    pub fn hbm4(channels: u16) -> Self {
        let org = Organization::hbm4();
        let controller = ControllerConfig::hbm4_baseline();
        MemorySystemConfig {
            channels,
            mapping: MappingScheme::hbm4_streaming(org, channels),
            access_granularity: org.access_granularity as u64,
            controller,
        }
    }

    /// Peak bandwidth of the instantiated system in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.controller.organization.channel_bandwidth_gbps() * self.channels as f64
    }

    /// The DRAM timing used by every channel.
    pub fn timing(&self) -> &TimingParams {
        &self.controller.timing
    }
}

/// A multi-channel memory system: address mapping + one controller per
/// channel, on top of the generic engine system.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemorySystemConfig,
    inner: MultiChannelSystem<ChannelController>,
}

impl MemorySystem {
    /// Build the system described by `config`.
    pub fn new(config: MemorySystemConfig) -> Self {
        let mut per_channel = config.controller.clone();
        // Each controller serves exactly one channel; its private mapping is
        // never used because the system decodes addresses first.
        per_channel.mapping = MappingScheme::hbm4_streaming(per_channel.organization, 1);
        let controllers = (0..config.channels)
            .map(|_| ChannelController::new(per_channel.clone()))
            .collect();
        MemorySystem {
            inner: MultiChannelSystem::new(controllers),
            config,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &MemorySystemConfig {
        &self.config
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.inner.channels()
    }

    /// Aggregate statistics across all channels.
    pub fn stats(&self) -> ControllerStats {
        let mut out = ControllerStats::new();
        for c in self.inner.controllers() {
            out.merge(c.stats());
        }
        out
    }

    /// Per-channel bytes transferred so far (reads + writes), used for the
    /// channel-load-balance analysis.
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

    /// Whether every queue, backlog entry, and in-flight transfer has
    /// drained.
    pub fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    /// Submit a host request, fragmenting it into controller transactions.
    /// Returns the id under which completions will be reported.
    pub fn submit(&mut self, request: MemoryRequest) -> RequestId {
        let MemorySystem { config, inner } = self;
        inner.submit_with(request, config.access_granularity, |frag| {
            let dram = config.mapping.map(frag.address);
            (
                dram.channel,
                QueueEntry {
                    request: frag,
                    dram,
                },
            )
        })
    }

    /// Advance the whole system by one nanosecond, appending completed host
    /// requests to `completions`. Returns `true` if any channel issued a
    /// DRAM command.
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

    /// Like [`MemorySystem::run_with_source`] but metered against a
    /// [`rome_engine::RunBudget`] and with stalled-source detection,
    /// returning the abort reason alongside the completions; see
    /// [`rome_engine::MultiChannelSystem::run_with_source_budgeted`].
    pub fn run_with_source_budgeted<S: rome_engine::TrafficSource>(
        &mut self,
        source: &mut S,
        max_ns: Cycle,
        budget: &rome_engine::RunBudget,
    ) -> (Vec<HostCompletion>, Cycle, Option<rome_engine::AbortReason>) {
        let MemorySystem { config, inner } = self;
        inner.run_with_source_budgeted(
            source,
            config.access_granularity,
            max_ns,
            |frag| {
                let dram = config.mapping.map(frag.address);
                (
                    dram.channel,
                    QueueEntry {
                        request: frag,
                        dram,
                    },
                )
            },
            budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rome_engine::RunBudget;

    fn small_system(channels: u16) -> MemorySystem {
        MemorySystem::new(MemorySystemConfig::hbm4(channels))
    }

    #[test]
    fn host_request_fragments_across_channels_and_completes() {
        let mut sys = small_system(4);
        let id = sys.submit(MemoryRequest::read(1, 0, 4096, 0));
        assert_eq!(id, RequestId(1));
        let (done, t, _) = sys.run_until_idle(1_000_000, &RunBudget::unlimited());
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].bytes, 4096);
        assert!(t > 0);
        // All four channels must have moved data (channel-interleaved mapping).
        let per_chan = sys.bytes_per_channel();
        assert_eq!(per_chan.len(), 4);
        assert!(per_chan.iter().all(|&b| b == 1024), "{per_chan:?}");
    }

    #[test]
    fn auto_ids_are_assigned_when_zero() {
        let mut sys = small_system(2);
        let a = sys.submit(MemoryRequest::read(0, 0, 64, 0));
        let b = sys.submit(MemoryRequest::read(0, 4096, 64, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn writes_and_reads_both_complete() {
        let mut sys = small_system(2);
        sys.submit(MemoryRequest::read(1, 0, 1024, 0));
        sys.submit(MemoryRequest::write(2, 1 << 20, 1024, 0));
        let (done, _, _) = sys.run_until_idle(1_000_000, &RunBudget::unlimited());
        assert_eq!(done.len(), 2);
        let stats = sys.stats();
        assert_eq!(stats.bytes_read, 1024);
        assert_eq!(stats.bytes_written, 1024);
    }

    #[test]
    fn peak_bandwidth_scales_with_channels() {
        let cfg2 = MemorySystemConfig::hbm4(2);
        let cfg8 = MemorySystemConfig::hbm4(8);
        assert_eq!(cfg2.peak_bandwidth_gbps() * 4.0, cfg8.peak_bandwidth_gbps());
        assert_eq!(cfg8.peak_bandwidth_gbps(), 512.0);
    }

    #[test]
    fn truncated_run_keeps_unserved_fragments_pending() {
        // A time limit that expires mid-transfer must not lose work: the
        // undrained backlog returns to the system, is_idle() stays false,
        // and a follow-up run completes the host request.
        let mut sys = small_system(2);
        sys.submit(MemoryRequest::read(1, 0, 256 * 1024, 0));
        let (done, _, _) = sys.run_until_idle(200, &RunBudget::unlimited());
        assert!(done.is_empty());
        assert!(!sys.is_idle(), "truncated run must leave work pending");
        let (done, _, _) = sys.run_until_idle(5_000_000, &RunBudget::unlimited());
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].bytes, 256 * 1024);
        assert!(sys.is_idle());
        assert_eq!(sys.stats().bytes_read, 256 * 1024);
    }

    #[test]
    fn large_streaming_transfer_spreads_evenly() {
        let mut sys = small_system(4);
        sys.submit(MemoryRequest::read(1, 0, 64 * 1024, 0));
        let (done, finish, _) = sys.run_until_idle(5_000_000, &RunBudget::unlimited());
        assert_eq!(done.len(), 1);
        let per_chan = sys.bytes_per_channel();
        let max = *per_chan.iter().max().unwrap() as f64;
        let min = *per_chan.iter().min().unwrap() as f64;
        assert!(min / max > 0.99, "channel imbalance: {per_chan:?}");
        // Aggregate bandwidth should exceed a single channel's peak.
        let bw = (64.0 * 1024.0) / finish as f64;
        assert!(bw > 64.0, "aggregate bandwidth {bw:.1} GB/s too low");
    }
}
