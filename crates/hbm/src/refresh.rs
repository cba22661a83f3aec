//! Refresh requirement bookkeeping.
//!
//! DRAM cells must be refreshed within the retention window. The HBM4
//! baseline controller in `rome-mc` refreshes **per bank**: one `REFpb`
//! every `tREFIpb`, rotating over the banks of a rank and stalling only the
//! refreshed bank for `tRFCpb` (the mode the paper's evaluation uses,
//! §VI-A). This module tracks when each rank's next refresh is due, when
//! postponing it further becomes urgent, and which bank it targets. The
//! channel model still accepts all-bank `REFab` commands (see
//! [`crate::command`]); no controller schedules them through this module.

use serde::{Deserialize, Serialize};

use crate::timing::TimingParams;
use crate::units::Cycle;

/// Tracks the per-bank refresh obligations of one rank (pseudo channel ×
/// stack ID).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefreshScheduler {
    interval: Cycle,
    next_due: Cycle,
    banks_in_rank: u32,
    issued: u64,
    /// Maximum number of refresh commands that may be postponed (JEDEC allows
    /// pulling in / pushing out a bounded number of refreshes).
    max_postponed: u32,
}

impl RefreshScheduler {
    /// Create a scheduler for one rank with `banks_in_rank` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks_in_rank` is zero.
    pub fn new(timing: &TimingParams, banks_in_rank: u32) -> Self {
        assert!(banks_in_rank > 0, "a rank needs at least one bank");
        let interval = Cycle::from(timing.t_refi_pb);
        RefreshScheduler {
            interval,
            next_due: interval,
            banks_in_rank,
            issued: 0,
            max_postponed: 8,
        }
    }

    /// The average interval between refresh commands (`tREFIpb`).
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// Total refresh commands issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The bank (index within the rank) the pending refresh targets: the
    /// rotation is round-robin over the rank's banks, advanced by
    /// [`RefreshScheduler::acknowledge`].
    pub fn next_bank(&self) -> u32 {
        (self.issued % u64::from(self.banks_in_rank)) as u32
    }

    /// Whether a refresh is due at `now`.
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_due
    }

    /// The cycle at which the next refresh becomes due.
    pub fn next_due(&self) -> Cycle {
        self.next_due
    }

    /// The cycle at which the pending refresh becomes urgent (the
    /// postponement budget is exhausted).
    pub fn urgent_at(&self) -> Cycle {
        self.next_due + Cycle::from(self.max_postponed) * self.interval
    }

    /// Whether refreshes have been postponed to the limit, i.e. the refresh
    /// must be issued before any further requests are served.
    pub fn urgent(&self, now: Cycle) -> bool {
        now >= self.urgent_at()
    }

    /// Record that the pending refresh issued: the rotation moves to the
    /// next bank and the next refresh falls due one interval later.
    pub fn acknowledge(&mut self) {
        self.next_due += self.interval;
        self.issued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_bank_scheduler_rotates_banks_round_robin() {
        let t = TimingParams::hbm4();
        let mut s = RefreshScheduler::new(&t, 16);
        assert_eq!(s.interval(), t.t_refi_pb as u64);
        assert!(!s.due(0));
        assert!(s.due(t.t_refi_pb as u64));
        assert_eq!(s.next_bank(), 0);
        s.acknowledge();
        assert_eq!(s.next_bank(), 1);
        s.acknowledge();
        assert_eq!(s.issued(), 2);
        // After `banks_in_rank` acknowledgements the rotation wraps.
        let mut s = RefreshScheduler::new(&t, 4);
        for expect in [0, 1, 2, 3, 0, 1] {
            assert_eq!(s.next_bank(), expect);
            s.acknowledge();
        }
    }

    #[test]
    fn urgency_kicks_in_after_postponement_budget() {
        let t = TimingParams::hbm4();
        let mut s = RefreshScheduler::new(&t, 16);
        let due = t.t_refi_pb as u64;
        assert_eq!(s.next_due(), due);
        assert!(!s.urgent(due));
        assert_eq!(s.urgent_at(), due + 8 * t.t_refi_pb as u64);
        assert!(s.urgent(due + 9 * t.t_refi_pb as u64));
        // Acknowledging pushes the due time forward by one interval.
        s.acknowledge();
        assert_eq!(s.next_due(), 2 * due);
    }
}
