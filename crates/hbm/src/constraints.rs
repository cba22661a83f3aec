//! DRAM timing-constraint tracking.
//!
//! The engine follows the standard "earliest legal issue time" formulation
//! used by cycle-accurate DRAM simulators: every command issued at time `t`
//! pushes forward the earliest time at which related commands may be issued
//! at four scopes — the **bank**, the **bank group**, the **rank** (one
//! pseudo channel × stack ID, which shares an ACT/FAW budget), and the
//! **pseudo channel** (which shares the data bus across stack IDs). Checking
//! a command is then a handful of array lookups; issuing it is a handful of
//! `max` updates. This keeps the hot path allocation-free.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::address::BankAddress;
use crate::command::CommandKind;
use crate::organization::Organization;
use crate::timing::TimingParams;
use crate::units::Cycle;

/// Earliest-issue table for one scope node (bank, bank group, rank, or PC).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct ScopeNode {
    earliest: [Cycle; CommandKind::COUNT],
}

impl ScopeNode {
    fn earliest(&self, kind: CommandKind) -> Cycle {
        self.earliest[kind.index()]
    }

    fn push(&mut self, kind: CommandKind, at_least: Cycle) {
        let slot = &mut self.earliest[kind.index()];
        if *slot < at_least {
            *slot = at_least;
        }
    }
}

/// Per-rank tracker for the four-activate window (`tFAW`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct FawWindow {
    recent_acts: VecDeque<Cycle>,
}

impl FawWindow {
    /// Earliest time a new ACT may issue given the last four activations.
    fn earliest_act(&self, t_faw: u32) -> Cycle {
        if self.recent_acts.len() < 4 {
            0
        } else {
            self.recent_acts[self.recent_acts.len() - 4] + Cycle::from(t_faw)
        }
    }

    fn record(&mut self, now: Cycle) {
        self.recent_acts.push_back(now);
        while self.recent_acts.len() > 4 {
            self.recent_acts.pop_front();
        }
    }
}

/// Identity of the last column command seen on a pseudo channel, used for the
/// cross-stack-ID spacing `tCCDR`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct LastColumn {
    valid: bool,
    at: Cycle,
    stack_id: u8,
}

/// The full timing-constraint state of one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstraintEngine {
    org: Organization,
    timing: TimingParams,
    banks: Vec<ScopeNode>,
    bank_groups: Vec<ScopeNode>,
    ranks: Vec<ScopeNode>,
    pseudo_channels: Vec<ScopeNode>,
    faw: Vec<FawWindow>,
    last_column: Vec<LastColumn>,
}

impl ConstraintEngine {
    /// Create the constraint state for one channel of `org` under `timing`.
    pub fn new(org: Organization, timing: TimingParams) -> Self {
        let banks = org.banks_per_channel() as usize;
        let bank_groups =
            (org.pseudo_channels as usize) * (org.stack_ids as usize) * (org.bank_groups as usize);
        let ranks = (org.pseudo_channels as usize) * (org.stack_ids as usize);
        let pcs = org.pseudo_channels as usize;
        ConstraintEngine {
            org,
            timing,
            banks: vec![ScopeNode::default(); banks],
            bank_groups: vec![ScopeNode::default(); bank_groups],
            ranks: vec![ScopeNode::default(); ranks],
            pseudo_channels: vec![ScopeNode::default(); pcs],
            faw: vec![FawWindow::default(); ranks],
            last_column: vec![LastColumn::default(); pcs],
        }
    }

    /// Flat index of a bank within the channel.
    pub fn bank_index(&self, b: BankAddress) -> usize {
        let per_pc = self.org.banks_per_pseudo_channel() as usize;
        let per_sid = (self.org.bank_groups * self.org.banks_per_group) as usize;
        b.pseudo_channel as usize * per_pc
            + b.stack_id as usize * per_sid
            + b.bank_group as usize * self.org.banks_per_group as usize
            + b.bank as usize
    }

    /// Flat index of a bank group within the channel.
    pub fn bank_group_index(&self, b: BankAddress) -> usize {
        (b.pseudo_channel as usize * self.org.stack_ids as usize + b.stack_id as usize)
            * self.org.bank_groups as usize
            + b.bank_group as usize
    }

    /// Flat index of a rank (pseudo channel × stack ID) within the channel.
    pub fn rank_index(&self, b: BankAddress) -> usize {
        b.pseudo_channel as usize * self.org.stack_ids as usize + b.stack_id as usize
    }

    /// The earliest cycle at which a command of `kind` may be issued to bank
    /// `addr`, considering every scope it touches. `now` only provides the
    /// lower bound of the answer.
    pub fn earliest(&self, kind: CommandKind, addr: BankAddress, now: Cycle) -> Cycle {
        let t = &self.timing;
        let bank = &self.banks[self.bank_index(addr)];
        let bg = &self.bank_groups[self.bank_group_index(addr)];
        let rank = &self.ranks[self.rank_index(addr)];
        let pc = &self.pseudo_channels[addr.pseudo_channel as usize];

        let mut earliest = now
            .max(bank.earliest(kind))
            .max(bg.earliest(kind))
            .max(rank.earliest(kind))
            .max(pc.earliest(kind));

        match kind {
            CommandKind::Act => {
                earliest = earliest.max(self.faw[self.rank_index(addr)].earliest_act(t.t_faw));
            }
            CommandKind::Rd | CommandKind::Wr => {
                let last = self.last_column[addr.pseudo_channel as usize];
                if last.valid && last.stack_id != addr.stack_id {
                    earliest = earliest.max(last.at + Cycle::from(t.t_ccd_r));
                }
            }
            _ => {}
        }
        earliest
    }

    /// Record the issue of a command of `kind` to `addr` at cycle `now`,
    /// pushing forward the earliest-issue times of every affected scope.
    ///
    /// `burst_ns` is the data-burst duration of one column command.
    pub fn record(&mut self, kind: CommandKind, addr: BankAddress, now: Cycle, burst_ns: u32) {
        let t = self.timing;
        let burst = Cycle::from(burst_ns);
        let bank_i = self.bank_index(addr);
        let bg_i = self.bank_group_index(addr);
        let rank_i = self.rank_index(addr);
        let pc_i = addr.pseudo_channel as usize;

        match kind {
            CommandKind::Act => {
                let bank = &mut self.banks[bank_i];
                bank.push(CommandKind::Rd, now + Cycle::from(t.t_rcd_rd));
                bank.push(CommandKind::Wr, now + Cycle::from(t.t_rcd_wr));
                bank.push(CommandKind::Pre, now + Cycle::from(t.t_ras));
                bank.push(CommandKind::PreAll, now + Cycle::from(t.t_ras));
                bank.push(CommandKind::Act, now + Cycle::from(t.t_rc));
                bank.push(CommandKind::RefPb, now + Cycle::from(t.t_ras + t.t_rp));
                bank.push(CommandKind::RefAb, now + Cycle::from(t.t_ras + t.t_rp));

                self.bank_groups[bg_i].push(CommandKind::Act, now + Cycle::from(t.t_rrd_l));
                self.ranks[rank_i].push(CommandKind::Act, now + Cycle::from(t.t_rrd_s));
                self.faw[rank_i].record(now);
            }
            CommandKind::Pre => {
                let bank = &mut self.banks[bank_i];
                bank.push(CommandKind::Act, now + Cycle::from(t.t_rp));
                bank.push(CommandKind::RefPb, now + Cycle::from(t.t_rp));
                bank.push(CommandKind::RefAb, now + Cycle::from(t.t_rp));
            }
            CommandKind::PreAll => {
                // Applies tRP to every bank of the rank.
                let per_sid = (self.org.bank_groups * self.org.banks_per_group) as usize;
                let base =
                    self.bank_index(BankAddress::new(addr.pseudo_channel, addr.stack_id, 0, 0));
                for i in 0..per_sid {
                    let bank = &mut self.banks[base + i];
                    bank.push(CommandKind::Act, now + Cycle::from(t.t_rp));
                    bank.push(CommandKind::RefPb, now + Cycle::from(t.t_rp));
                    bank.push(CommandKind::RefAb, now + Cycle::from(t.t_rp));
                }
            }
            CommandKind::Rd => {
                let bank = &mut self.banks[bank_i];
                bank.push(CommandKind::Pre, now + Cycle::from(t.t_rtp));
                bank.push(CommandKind::PreAll, now + Cycle::from(t.t_rtp));

                let bg = &mut self.bank_groups[bg_i];
                bg.push(CommandKind::Rd, now + Cycle::from(t.t_ccd_l));
                bg.push(CommandKind::Wr, now + Cycle::from(t.t_ccd_l));

                let rank = &mut self.ranks[rank_i];
                rank.push(CommandKind::Rd, now + Cycle::from(t.t_ccd_s));
                rank.push(CommandKind::Wr, now + Cycle::from(t.t_ccd_s));

                let pc = &mut self.pseudo_channels[pc_i];
                pc.push(CommandKind::Rd, now + Cycle::from(t.t_ccd_s));
                pc.push(CommandKind::Wr, now + Cycle::from(t.t_rtw));
                self.last_column[pc_i] = LastColumn {
                    valid: true,
                    at: now,
                    stack_id: addr.stack_id,
                };
            }
            CommandKind::Wr => {
                let bank = &mut self.banks[bank_i];
                bank.push(
                    CommandKind::Pre,
                    now + Cycle::from(t.write_to_precharge(burst_ns)),
                );
                bank.push(
                    CommandKind::PreAll,
                    now + Cycle::from(t.write_to_precharge(burst_ns)),
                );

                let bg = &mut self.bank_groups[bg_i];
                bg.push(CommandKind::Wr, now + Cycle::from(t.t_ccd_l));
                bg.push(
                    CommandKind::Rd,
                    now + Cycle::from(t.write_to_read(true, burst_ns)),
                );

                let rank = &mut self.ranks[rank_i];
                rank.push(CommandKind::Wr, now + Cycle::from(t.t_ccd_s));
                rank.push(
                    CommandKind::Rd,
                    now + Cycle::from(t.write_to_read(false, burst_ns)),
                );

                let pc = &mut self.pseudo_channels[pc_i];
                pc.push(CommandKind::Wr, now + Cycle::from(t.t_ccd_s));
                pc.push(
                    CommandKind::Rd,
                    now + Cycle::from(t.write_to_read(false, burst_ns)),
                );
                self.last_column[pc_i] = LastColumn {
                    valid: true,
                    at: now,
                    stack_id: addr.stack_id,
                };
                let _ = burst;
            }
            CommandKind::RefPb => {
                let bank = &mut self.banks[bank_i];
                bank.push(CommandKind::Act, now + Cycle::from(t.t_rfc_pb));
                bank.push(CommandKind::RefPb, now + Cycle::from(t.t_rfc_pb));
                let rank = &mut self.ranks[rank_i];
                rank.push(CommandKind::RefPb, now + Cycle::from(t.t_rrefd));
            }
            CommandKind::RefAb => {
                let per_sid = (self.org.bank_groups * self.org.banks_per_group) as usize;
                let base =
                    self.bank_index(BankAddress::new(addr.pseudo_channel, addr.stack_id, 0, 0));
                for i in 0..per_sid {
                    let bank = &mut self.banks[base + i];
                    bank.push(CommandKind::Act, now + Cycle::from(t.t_rfc_ab));
                    bank.push(CommandKind::RefPb, now + Cycle::from(t.t_rfc_ab));
                    bank.push(CommandKind::RefAb, now + Cycle::from(t.t_rfc_ab));
                }
                let rank = &mut self.ranks[rank_i];
                rank.push(CommandKind::RefAb, now + Cycle::from(t.t_rfc_ab));
            }
            CommandKind::Mrs => {
                // MRS occupies the command bus only; the simple model applies
                // a one-slot spacing on the rank for subsequent MRS commands.
                self.ranks[rank_i].push(CommandKind::Mrs, now + Cycle::from(t.t_ccd_l));
            }
        }
    }

    /// Lower bound on the earliest ACT to any bank of the rank holding
    /// `addr`: the rank-scope tRRD window combined with the four-activate
    /// window. Lets schedulers disqualify a whole rank's worth of pending
    /// activations with one comparison.
    pub fn rank_act_bound(&self, addr: BankAddress) -> Cycle {
        let rank = self.rank_index(addr);
        self.ranks[rank]
            .earliest(CommandKind::Act)
            .max(self.faw[rank].earliest_act(self.timing.t_faw))
    }

    /// The organization this engine was built for.
    pub fn organization(&self) -> &Organization {
        &self.org
    }

    /// The timing parameters this engine enforces.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ConstraintEngine {
        ConstraintEngine::new(Organization::hbm4(), TimingParams::hbm4())
    }

    fn bank(pc: u8, sid: u8, bg: u8, ba: u8) -> BankAddress {
        BankAddress::new(pc, sid, bg, ba)
    }

    #[test]
    fn bank_indices_are_unique_and_dense() {
        let e = engine();
        let org = Organization::hbm4();
        let mut seen = vec![false; org.banks_per_channel() as usize];
        for pc in 0..org.pseudo_channels {
            for sid in 0..org.stack_ids {
                for bg in 0..org.bank_groups {
                    for ba in 0..org.banks_per_group {
                        let i = e.bank_index(bank(pc, sid, bg, ba));
                        assert!(!seen[i], "duplicate index {i}");
                        seen[i] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn act_to_rd_respects_trcd() {
        let mut e = engine();
        let b = bank(0, 0, 0, 0);
        assert_eq!(e.earliest(CommandKind::Act, b, 0), 0);
        e.record(CommandKind::Act, b, 0, 1);
        assert_eq!(e.earliest(CommandKind::Rd, b, 0), 16);
        assert_eq!(e.earliest(CommandKind::Pre, b, 0), 29);
        assert_eq!(e.earliest(CommandKind::Act, b, 0), 45);
    }

    #[test]
    fn act_act_spacing_same_vs_different_bank_group() {
        let mut e = engine();
        e.record(CommandKind::Act, bank(0, 0, 0, 0), 0, 1);
        // Same bank group, different bank: tRRD_L = 4.
        assert_eq!(e.earliest(CommandKind::Act, bank(0, 0, 0, 1), 0), 4);
        // Different bank group: tRRD_S = 2.
        assert_eq!(e.earliest(CommandKind::Act, bank(0, 0, 1, 0), 0), 2);
        // Different rank (stack ID): unconstrained by tRRD.
        assert_eq!(e.earliest(CommandKind::Act, bank(0, 1, 0, 0), 0), 0);
        // Different pseudo channel: unconstrained.
        assert_eq!(e.earliest(CommandKind::Act, bank(1, 0, 0, 0), 0), 0);
    }

    #[test]
    fn faw_limits_fifth_activation() {
        let mut e = engine();
        let t_faw = 12;
        // Four ACTs to different bank groups at the tRRD_S rate.
        for (i, bg) in [0u8, 1, 2, 3].iter().enumerate() {
            let at = (i as u64) * 2;
            let b = bank(0, 0, *bg, 0);
            assert!(e.earliest(CommandKind::Act, b, at) <= at);
            e.record(CommandKind::Act, b, at, 1);
        }
        // Fifth ACT must wait for the FAW window opened at t=0.
        let fifth = bank(0, 0, 0, 1);
        assert_eq!(e.earliest(CommandKind::Act, fifth, 8), t_faw);
    }

    #[test]
    fn column_command_spacing_ccd_long_short_and_cross_rank() {
        let mut e = engine();
        e.record(CommandKind::Rd, bank(0, 0, 0, 0), 100, 1);
        // Same bank group: tCCD_L = 2.
        assert_eq!(e.earliest(CommandKind::Rd, bank(0, 0, 0, 1), 100), 102);
        // Different bank group: tCCD_S = 1.
        assert_eq!(e.earliest(CommandKind::Rd, bank(0, 0, 1, 0), 100), 101);
        // Different stack ID: tCCD_R = 2.
        assert_eq!(e.earliest(CommandKind::Rd, bank(0, 1, 1, 0), 100), 102);
        // Other pseudo channel: independent bus.
        assert_eq!(e.earliest(CommandKind::Rd, bank(1, 0, 0, 0), 100), 100);
    }

    #[test]
    fn read_write_turnaround_is_enforced() {
        let mut e = engine();
        e.record(CommandKind::Rd, bank(0, 0, 0, 0), 0, 1);
        // RD -> WR on the same pseudo channel: tRTW = 7.
        assert_eq!(e.earliest(CommandKind::Wr, bank(0, 0, 2, 0), 0), 7);

        let mut e = engine();
        e.record(CommandKind::Wr, bank(0, 0, 0, 0), 0, 1);
        // WR -> RD different bank group: tCWL + burst + tWTR_S = 14 + 1 + 3.
        assert_eq!(e.earliest(CommandKind::Rd, bank(0, 0, 1, 0), 0), 18);
        // WR -> RD same bank group: tCWL + burst + tWTR_L = 14 + 1 + 9.
        assert_eq!(e.earliest(CommandKind::Rd, bank(0, 0, 0, 1), 0), 24);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut e = engine();
        e.record(CommandKind::Act, bank(0, 0, 0, 0), 0, 1);
        e.record(CommandKind::Wr, bank(0, 0, 0, 0), 16, 1);
        // PRE after WR: WR + tCWL + burst + tWR (dominates tRAS from ACT).
        let expected = 16 + 14 + 1 + 16;
        assert_eq!(e.earliest(CommandKind::Pre, bank(0, 0, 0, 0), 0), expected);
    }

    #[test]
    fn per_bank_refresh_blocks_that_bank_and_spaces_siblings() {
        let mut e = engine();
        e.record(CommandKind::RefPb, bank(0, 0, 0, 0), 0, 1);
        assert_eq!(e.earliest(CommandKind::Act, bank(0, 0, 0, 0), 0), 280);
        // A second REFpb on the same rank must wait tRREFD.
        assert_eq!(e.earliest(CommandKind::RefPb, bank(0, 0, 1, 0), 0), 8);
        // ACT to a different bank of the same rank is not blocked.
        assert_eq!(e.earliest(CommandKind::Act, bank(0, 0, 1, 0), 0), 0);
    }

    #[test]
    fn all_bank_refresh_blocks_entire_rank() {
        let mut e = engine();
        e.record(CommandKind::RefAb, bank(0, 1, 0, 0), 0, 1);
        assert_eq!(e.earliest(CommandKind::Act, bank(0, 1, 3, 3), 0), 410);
        // Other stack ID unaffected.
        assert_eq!(e.earliest(CommandKind::Act, bank(0, 0, 0, 0), 0), 0);
    }

    #[test]
    fn precharge_all_applies_trp_to_every_bank_of_the_rank() {
        let mut e = engine();
        e.record(CommandKind::PreAll, bank(1, 2, 0, 0), 50, 1);
        assert_eq!(e.earliest(CommandKind::Act, bank(1, 2, 3, 2), 0), 66);
        assert_eq!(e.earliest(CommandKind::Act, bank(1, 1, 3, 2), 0), 0);
    }

    #[test]
    fn mrs_spacing_applies_on_rank() {
        let mut e = engine();
        e.record(CommandKind::Mrs, bank(0, 0, 0, 0), 10, 1);
        assert_eq!(e.earliest(CommandKind::Mrs, bank(0, 0, 3, 3), 10), 12);
    }
}
