//! Statistics collected by the RoMe memory controller.

use serde::{Deserialize, Serialize};

use rome_hbm::units::Cycle;

use crate::generator::ExpansionCounts;

/// Statistics for one RoMe channel controller.
///
/// As with `rome_mc::ControllerStats`: event counts are exact under any
/// driver, while the per-tick fields (`total_cycles`, `stall_cycles`,
/// `idle_cycles`) count executed scheduling ticks — one per nanosecond only
/// under a cycle-stepped driver; an event-driven driver skips provably idle
/// nanoseconds. Tick the controller every nanosecond yourself for
/// per-nanosecond accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RomeStats {
    /// `RD_row` commands issued.
    pub rd_rows_issued: u64,
    /// `WR_row` commands issued.
    pub wr_rows_issued: u64,
    /// Pooled VBA refreshes issued.
    pub refreshes_issued: u64,
    /// Read requests completed.
    pub reads_completed: u64,
    /// Write requests completed.
    pub writes_completed: u64,
    /// Bytes returned by reads (useful payload).
    pub bytes_read: u64,
    /// Bytes absorbed by writes (useful payload).
    pub bytes_written: u64,
    /// Bytes actually moved over the DRAM interface (row granularity); the
    /// difference from the useful payload is overfetch.
    pub bytes_transferred: u64,
    /// Sum of read latencies in ns.
    pub total_read_latency: u64,
    /// Maximum read latency in ns.
    pub max_read_latency: u64,
    /// Scheduling cycles with pending work but no issuable command.
    pub stall_cycles: u64,
    /// Scheduling cycles with no pending work.
    pub idle_cycles: u64,
    /// Total scheduling cycles.
    pub total_cycles: u64,
    /// Conventional commands implied by the issued row commands (counted via
    /// the command-generator expansion; feeds the energy model).
    pub derived: DerivedCommandCounts,
}

/// Conventional-command counts implied by the row-level traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DerivedCommandCounts {
    /// Activations.
    pub activates: u64,
    /// Column reads.
    pub reads: u64,
    /// Column writes.
    pub writes: u64,
    /// Precharges.
    pub precharges: u64,
    /// Per-bank refreshes.
    pub refreshes: u64,
    /// Row-level commands sent over the MC–DRAM interface (one per
    /// `RD_row`/`WR_row`/refresh — the interposer traffic the energy model
    /// charges for C/A activity).
    pub interface_commands: u64,
}

impl DerivedCommandCounts {
    /// Accumulate one expansion worth of conventional commands.
    pub fn absorb(&mut self, counts: &ExpansionCounts) {
        self.activates += counts.activates;
        self.reads += counts.reads;
        self.writes += counts.writes;
        self.precharges += counts.precharges;
        self.refreshes += counts.refreshes;
        self.interface_commands += 1;
    }
}

impl RomeStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        RomeStats::default()
    }

    /// Total row commands issued (excluding refresh).
    pub fn row_commands_issued(&self) -> u64 {
        self.rd_rows_issued + self.wr_rows_issued
    }

    /// Total useful payload bytes.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Overfetched bytes: interface transfer minus useful payload.
    pub fn overfetch_bytes(&self) -> u64 {
        self.bytes_transferred.saturating_sub(self.bytes_total())
    }

    /// Overfetch as a fraction of transferred bytes (0.0 when nothing moved).
    pub fn overfetch_fraction(&self) -> f64 {
        if self.bytes_transferred == 0 {
            0.0
        } else {
            self.overfetch_bytes() as f64 / self.bytes_transferred as f64
        }
    }

    /// Mean read latency in ns.
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads_completed as f64
        }
    }

    /// Achieved useful bandwidth in GB/s over `elapsed` ns.
    pub fn achieved_bandwidth_gbps(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bytes_total() as f64 / elapsed as f64
        }
    }

    /// Merge another channel's statistics into this one.
    pub fn merge(&mut self, other: &RomeStats) {
        self.rd_rows_issued += other.rd_rows_issued;
        self.wr_rows_issued += other.wr_rows_issued;
        self.refreshes_issued += other.refreshes_issued;
        self.reads_completed += other.reads_completed;
        self.writes_completed += other.writes_completed;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.bytes_transferred += other.bytes_transferred;
        self.total_read_latency += other.total_read_latency;
        self.max_read_latency = self.max_read_latency.max(other.max_read_latency);
        self.stall_cycles += other.stall_cycles;
        self.idle_cycles += other.idle_cycles;
        self.total_cycles = self.total_cycles.max(other.total_cycles);
        self.derived.activates += other.derived.activates;
        self.derived.reads += other.derived.reads;
        self.derived.writes += other.derived.writes;
        self.derived.precharges += other.derived.precharges;
        self.derived.refreshes += other.derived.refreshes;
        self.derived.interface_commands += other.derived.interface_commands;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overfetch_accounting() {
        let s = RomeStats {
            bytes_read: 3000,
            bytes_written: 0,
            bytes_transferred: 4096,
            ..RomeStats::new()
        };
        assert_eq!(s.overfetch_bytes(), 1096);
        assert!((s.overfetch_fraction() - 1096.0 / 4096.0).abs() < 1e-12);
        let empty = RomeStats::new();
        assert_eq!(empty.overfetch_fraction(), 0.0);
    }

    #[test]
    fn derived_counts_absorb_expansions() {
        let mut d = DerivedCommandCounts::default();
        d.absorb(&ExpansionCounts {
            activates: 4,
            reads: 128,
            writes: 0,
            precharges: 4,
            refreshes: 0,
        });
        d.absorb(&ExpansionCounts {
            activates: 0,
            reads: 0,
            writes: 0,
            precharges: 0,
            refreshes: 2,
        });
        assert_eq!(d.activates, 4);
        assert_eq!(d.reads, 128);
        assert_eq!(d.refreshes, 2);
        assert_eq!(d.interface_commands, 2);
    }

    #[test]
    fn merge_and_derived_metrics() {
        let mut a = RomeStats {
            rd_rows_issued: 2,
            reads_completed: 2,
            bytes_read: 8192,
            bytes_transferred: 8192,
            total_read_latency: 200,
            max_read_latency: 120,
            ..RomeStats::new()
        };
        let b = RomeStats {
            wr_rows_issued: 1,
            writes_completed: 1,
            bytes_written: 4096,
            bytes_transferred: 4096,
            max_read_latency: 90,
            ..RomeStats::new()
        };
        a.merge(&b);
        assert_eq!(a.row_commands_issued(), 3);
        assert_eq!(a.bytes_total(), 12288);
        assert_eq!(a.max_read_latency, 120);
        assert_eq!(a.mean_read_latency(), 100.0);
        assert_eq!(a.achieved_bandwidth_gbps(1000), 12.288);
        assert_eq!(a.achieved_bandwidth_gbps(0), 0.0);
    }
}
