//! Controller statistics: bandwidth, latency, row-buffer locality, queue
//! occupancy.

use serde::{Deserialize, Serialize};

use rome_hbm::counters::ChannelCounters;
use rome_hbm::units::Cycle;

/// Statistics accumulated by one channel controller.
///
/// Event counts (completions, bytes, latencies, row hits/misses, DRAM
/// command counters) are exact regardless of how the controller is driven.
/// The *per-tick* fields — `total_cycles`, `stall_cycles`, `idle_cycles`,
/// and the queue-occupancy samples — count executed scheduling ticks: under
/// a cycle-stepped driver that is one per nanosecond, while an event-driven
/// driver skips provably idle nanoseconds, so those fields then count
/// scheduling *opportunities* rather than wall nanoseconds (occupancy
/// samples are correspondingly taken at event cycles only). Tick the
/// controller every nanosecond yourself when per-nanosecond stall/idle
/// accounting is the quantity of interest.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Completed read fragments.
    pub reads_completed: u64,
    /// Completed write fragments.
    pub writes_completed: u64,
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Bytes absorbed by writes.
    pub bytes_written: u64,
    /// Sum of read latencies (arrival to data completion) in ns.
    pub total_read_latency: u64,
    /// Maximum observed read latency in ns.
    pub max_read_latency: u64,
    /// Column accesses that hit an already-open row.
    pub row_hits: u64,
    /// Column accesses that required opening a closed row.
    pub row_misses: u64,
    /// Column accesses that required closing a different open row first.
    pub row_conflicts: u64,
    /// Refresh commands issued.
    pub refreshes_issued: u64,
    /// Scheduling cycles during which no command could be issued although
    /// work was pending (a measure of timing-induced bubbles).
    pub stall_cycles: u64,
    /// Scheduling cycles during which the controller had no pending work.
    pub idle_cycles: u64,
    /// Total scheduling cycles observed.
    pub total_cycles: u64,
    /// Mean request-queue occupancy (sampled per cycle).
    pub mean_queue_occupancy: f64,
    /// Peak request-queue occupancy.
    pub peak_queue_occupancy: usize,
    /// Raw DRAM command/data counters from the device model.
    pub dram: ChannelCounters,
}

impl ControllerStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        ControllerStats::default()
    }

    /// Total completed fragments.
    pub fn requests_completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Total bytes moved.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Mean read latency in ns (0 when no reads completed).
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads_completed as f64
        }
    }

    /// Row-buffer hit rate over all column accesses (0 when none).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Achieved bandwidth over an elapsed window of `elapsed` ns, in GB/s.
    pub fn achieved_bandwidth_gbps(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bytes_total() as f64 / elapsed as f64
        }
    }

    /// Merge per-channel statistics (used by the multi-channel system).
    pub fn merge(&mut self, other: &ControllerStats) {
        self.reads_completed += other.reads_completed;
        self.writes_completed += other.writes_completed;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.total_read_latency += other.total_read_latency;
        self.max_read_latency = self.max_read_latency.max(other.max_read_latency);
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.refreshes_issued += other.refreshes_issued;
        self.stall_cycles += other.stall_cycles;
        self.idle_cycles += other.idle_cycles;
        self.total_cycles = self.total_cycles.max(other.total_cycles);
        // Occupancy means are averaged weighted equally per channel.
        self.mean_queue_occupancy = (self.mean_queue_occupancy + other.mean_queue_occupancy) / 2.0;
        self.peak_queue_occupancy = self.peak_queue_occupancy.max(other.peak_queue_occupancy);
        self.dram.merge(&other.dram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = ControllerStats {
            reads_completed: 4,
            writes_completed: 1,
            bytes_read: 128,
            bytes_written: 32,
            total_read_latency: 200,
            max_read_latency: 90,
            row_hits: 3,
            row_misses: 1,
            row_conflicts: 0,
            ..ControllerStats::new()
        };
        assert_eq!(s.requests_completed(), 5);
        assert_eq!(s.bytes_total(), 160);
        assert_eq!(s.mean_read_latency(), 50.0);
        assert_eq!(s.row_hit_rate(), 0.75);
        assert_eq!(s.achieved_bandwidth_gbps(10), 16.0);
        assert_eq!(s.achieved_bandwidth_gbps(0), 0.0);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = ControllerStats::new();
        assert_eq!(s.mean_read_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn merge_combines_channels() {
        let mut a = ControllerStats {
            reads_completed: 2,
            bytes_read: 64,
            max_read_latency: 50,
            mean_queue_occupancy: 4.0,
            peak_queue_occupancy: 8,
            total_cycles: 100,
            ..ControllerStats::new()
        };
        let b = ControllerStats {
            reads_completed: 3,
            bytes_read: 96,
            max_read_latency: 80,
            mean_queue_occupancy: 2.0,
            peak_queue_occupancy: 5,
            total_cycles: 120,
            ..ControllerStats::new()
        };
        a.merge(&b);
        assert_eq!(a.reads_completed, 5);
        assert_eq!(a.bytes_read, 160);
        assert_eq!(a.max_read_latency, 80);
        assert_eq!(a.mean_queue_occupancy, 3.0);
        assert_eq!(a.peak_queue_occupancy, 8);
        assert_eq!(a.total_cycles, 120);
    }
}
