//! The cycle-accurate model of one HBM channel.
//!
//! [`HbmChannel`] combines the per-bank state machines ([`crate::bank`]),
//! the timing-constraint engine ([`crate::constraints`]), and the event
//! counters ([`crate::counters`]). Memory controllers drive it through three
//! methods: [`HbmChannel::earliest_issue`], [`HbmChannel::can_issue`], and
//! [`HbmChannel::issue`].

use serde::{Deserialize, Serialize};

use crate::bank::{Bank, BankState};
use crate::command::{CommandKind, DramCommand};
use crate::constraints::ConstraintEngine;
use crate::counters::ChannelCounters;
use crate::error::HbmError;
use crate::organization::Organization;
use crate::timing::TimingParams;
use crate::units::Cycle;

/// The outcome of successfully issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssueResult {
    /// The cycle the command was accepted.
    pub issued_at: Cycle,
    /// For column commands, the cycle the data burst completes on the bus
    /// (i.e. when read data has been fully returned / write data absorbed).
    pub data_complete_at: Option<Cycle>,
}

/// One HBM channel: banks, timing state, data-bus occupancy, and counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HbmChannel {
    org: Organization,
    timing: TimingParams,
    constraints: ConstraintEngine,
    banks: Vec<Bank>,
    /// Row-open bitmask over the flat bank index (word `i` covers banks
    /// `64*i..64*i+64`, bit `b & 63` within word `b >> 6`). Invariant: bit
    /// `b` is set iff `banks[b].is_active()` — re-derived from the bank by
    /// [`HbmChannel::sync_bank_bit`] at every row-buffer mutation point in
    /// [`HbmChannel::issue`] (ACT, PRE, PREab, auto-precharge, REFpb,
    /// REFab), so rank-wide open-row queries AND a mask word instead of
    /// walking the bank slab.
    open_mask: Vec<u64>,
    /// Per pseudo channel: the cycle until which the data bus is occupied.
    bus_busy_until: Vec<Cycle>,
    counters: ChannelCounters,
}

impl HbmChannel {
    /// Create a channel for the given organization and timing.
    pub fn new(org: Organization, timing: TimingParams) -> Self {
        let banks = vec![Bank::new(); org.banks_per_channel() as usize];
        HbmChannel {
            constraints: ConstraintEngine::new(org, timing),
            open_mask: vec![0; banks.len().div_ceil(64)],
            banks,
            bus_busy_until: vec![0; org.pseudo_channels as usize],
            org,
            timing,
            counters: ChannelCounters::new(),
        }
    }

    /// The channel's organization.
    pub fn organization(&self) -> &Organization {
        &self.org
    }

    /// The channel's timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The accumulated event counters.
    pub fn counters(&self) -> &ChannelCounters {
        &self.counters
    }

    /// Reset the event counters (the timing state is preserved).
    pub fn reset_counters(&mut self) {
        self.counters = ChannelCounters::new();
    }

    /// The bank addressed by `cmd`, as a shared reference.
    pub fn bank(&self, cmd: &DramCommand) -> &Bank {
        &self.banks[self.constraints.bank_index(cmd.target().bank)]
    }

    /// The state of the bank addressed by `cmd` at cycle `now`.
    pub fn bank_state(&self, cmd: &DramCommand, now: Cycle) -> BankState {
        self.bank(cmd).state_at(now)
    }

    /// Iterate over all banks (flat index order).
    pub fn banks(&self) -> impl Iterator<Item = &Bank> {
        self.banks.iter()
    }

    /// Check whether `cmd` is legal in the addressed bank's logical state
    /// (independent of timing).
    fn state_check(&self, cmd: &DramCommand, now: Cycle) -> Result<(), HbmError> {
        let addr = cmd.target().bank;
        if addr.pseudo_channel >= self.org.pseudo_channels
            || addr.stack_id >= self.org.stack_ids
            || addr.bank_group >= self.org.bank_groups
            || addr.bank >= self.org.banks_per_group
        {
            return Err(HbmError::AddressOutOfRange {
                what: "bank coordinate",
                value: addr.bank as u64,
                limit: self.org.banks_per_group as u64,
            });
        }
        let bank = &self.banks[self.constraints.bank_index(addr)];
        match cmd {
            DramCommand::Act { row, .. } => {
                if *row >= self.org.rows_per_bank {
                    return Err(HbmError::AddressOutOfRange {
                        what: "row",
                        value: *row as u64,
                        limit: self.org.rows_per_bank as u64,
                    });
                }
                if bank.is_active() {
                    return Err(HbmError::IllegalState {
                        command: *cmd,
                        reason: "ACT to a bank that already has an open row",
                    });
                }
                if bank.is_refreshing(now) {
                    return Err(HbmError::IllegalState {
                        command: *cmd,
                        reason: "ACT to a refreshing bank",
                    });
                }
            }
            DramCommand::Rd { column, .. } | DramCommand::Wr { column, .. } => {
                if *column as u32 >= self.org.columns_per_row() {
                    return Err(HbmError::AddressOutOfRange {
                        what: "column",
                        value: *column as u64,
                        limit: self.org.columns_per_row() as u64,
                    });
                }
                if !bank.is_active() {
                    return Err(HbmError::IllegalState {
                        command: *cmd,
                        reason: "column command to a bank with no open row",
                    });
                }
            }
            DramCommand::Pre { .. } => {
                // PRE to an idle bank is a legal no-op per JEDEC; we accept it.
            }
            DramCommand::PreAll { .. } | DramCommand::Mrs { .. } => {}
            DramCommand::RefPerBank { .. } => {
                if bank.is_active() {
                    return Err(HbmError::IllegalState {
                        command: *cmd,
                        reason: "REFpb to a bank with an open row (precharge first)",
                    });
                }
            }
            DramCommand::RefAllBank { target } => {
                // Every bank of the rank must be precharged: one mask query
                // over the rank's contiguous flat-index range.
                let (base, per_sid) =
                    self.rank_range(target.bank.pseudo_channel, target.bank.stack_id);
                if self.any_open_in(base, per_sid) {
                    return Err(HbmError::IllegalState {
                        command: *cmd,
                        reason: "REFab with open rows in the rank (precharge all first)",
                    });
                }
            }
        }
        Ok(())
    }

    /// The flat-index range `(base, len)` of the rank `(pc, sid)`. Banks of
    /// a rank are contiguous in flat index order (PC-major, then stack ID).
    fn rank_range(&self, pc: u8, sid: u8) -> (usize, usize) {
        let per_sid = (self.org.bank_groups * self.org.banks_per_group) as usize;
        let base = self
            .constraints
            .bank_index(crate::address::BankAddress::new(pc, sid, 0, 0));
        (base, per_sid)
    }

    /// Re-derive the open-row mask bit for `index` from the bank itself.
    /// Called after every mutation that may change `is_active`, which makes
    /// the mask invariant structural rather than per-call-site.
    #[inline]
    fn sync_bank_bit(&mut self, index: usize) {
        let bit = 1u64 << (index & 63);
        if self.banks[index].is_active() {
            self.open_mask[index >> 6] |= bit;
        } else {
            self.open_mask[index >> 6] &= !bit;
        }
    }

    /// Whether any bank in the flat-index range `[base, base + len)` holds an
    /// open row (mask words only; no bank loads).
    fn any_open_in(&self, base: usize, len: usize) -> bool {
        let end = base + len;
        let mut b = base;
        while b < end {
            let word = b >> 6;
            let lo = b & 63;
            let word_base = b - lo;
            let span = (end - word_base).min(64) - lo;
            let mask = if span == 64 {
                !0u64
            } else {
                ((1u64 << span) - 1) << lo
            };
            if self.open_mask[word] & mask != 0 {
                return true;
            }
            b = word_base + 64;
        }
        false
    }

    /// The earliest cycle (≥ `now`) at which `cmd` satisfies every timing
    /// constraint. State legality is not considered here.
    pub fn earliest_issue(&self, cmd: &DramCommand, now: Cycle) -> Cycle {
        self.constraints
            .earliest(cmd.kind(), cmd.target().bank, now)
    }

    /// Lower bound on the earliest ACT to any bank of the rank holding
    /// `addr` (see [`ConstraintEngine::rank_act_bound`]).
    pub fn rank_act_bound(&self, addr: crate::address::BankAddress) -> Cycle {
        self.constraints.rank_act_bound(addr)
    }

    /// Whether `cmd` can be issued at `now` (both timing-legal and
    /// state-legal).
    pub fn can_issue(&self, cmd: &DramCommand, now: Cycle) -> bool {
        self.state_check(cmd, now).is_ok() && self.earliest_issue(cmd, now) <= now
    }

    /// Issue `cmd` at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`HbmError::TimingViolation`] if a timing constraint would be
    /// violated, [`HbmError::IllegalState`] if the bank state does not admit
    /// the command, or [`HbmError::AddressOutOfRange`] for bad coordinates.
    pub fn issue(&mut self, cmd: DramCommand, now: Cycle) -> Result<IssueResult, HbmError> {
        self.state_check(&cmd, now)?;
        let earliest = self.earliest_issue(&cmd, now);
        if earliest > now {
            return Err(HbmError::TimingViolation {
                command: cmd,
                at: now,
                earliest,
            });
        }

        let burst = self.org.burst_ns() as u32;
        let addr = cmd.target().bank;
        let bank_index = self.constraints.bank_index(addr);
        let timing = self.timing;
        let mut data_complete_at = None;

        match cmd {
            DramCommand::Act { row, .. } => {
                self.banks[bank_index].activate(row, now, &timing);
                self.sync_bank_bit(bank_index);
                self.counters.activates += 1;
                self.counters.row_ca_commands += 1;
            }
            DramCommand::Pre { .. } => {
                self.banks[bank_index].precharge(now, &timing);
                self.sync_bank_bit(bank_index);
                self.counters.precharges += 1;
                self.counters.row_ca_commands += 1;
            }
            DramCommand::PreAll { target } => {
                let (base, per_sid) =
                    self.rank_range(target.bank.pseudo_channel, target.bank.stack_id);
                for i in base..base + per_sid {
                    if self.banks[i].is_active() {
                        self.banks[i].precharge(now, &timing);
                        self.sync_bank_bit(i);
                    }
                }
                self.counters.precharge_alls += 1;
                self.counters.row_ca_commands += 1;
            }
            DramCommand::Rd { auto_precharge, .. } => {
                let start = now + Cycle::from(timing.t_cl);
                let end = start + Cycle::from(burst);
                self.banks[bank_index].column_access(false, end);
                self.occupy_bus(addr.pseudo_channel, start, end);
                if auto_precharge {
                    let pre_at = now + Cycle::from(timing.t_rtp);
                    self.banks[bank_index].precharge(pre_at, &timing);
                    self.sync_bank_bit(bank_index);
                    self.constraints
                        .record(CommandKind::Pre, addr, pre_at, burst);
                    self.counters.precharges += 1;
                }
                self.counters.reads += 1;
                self.counters.col_ca_commands += 1;
                // A column command moves AG bytes on each of the channel's
                // pseudo channels only in legacy mode; in pseudo-channel mode
                // it moves AG bytes on its own PC.
                self.counters.bytes_read += self.org.access_granularity as u64;
                data_complete_at = Some(end);
            }
            DramCommand::Wr { auto_precharge, .. } => {
                let start = now + Cycle::from(timing.t_cwl);
                let end = start + Cycle::from(burst);
                self.banks[bank_index].column_access(true, end);
                self.occupy_bus(addr.pseudo_channel, start, end);
                if auto_precharge {
                    let pre_at = now + Cycle::from(timing.write_to_precharge(burst));
                    self.banks[bank_index].precharge(pre_at, &timing);
                    self.sync_bank_bit(bank_index);
                    self.constraints
                        .record(CommandKind::Pre, addr, pre_at, burst);
                    self.counters.precharges += 1;
                }
                self.counters.writes += 1;
                self.counters.col_ca_commands += 1;
                self.counters.bytes_written += self.org.access_granularity as u64;
                data_complete_at = Some(end);
            }
            DramCommand::RefPerBank { .. } => {
                self.banks[bank_index].refresh(now, Cycle::from(timing.t_rfc_pb));
                self.sync_bank_bit(bank_index);
                self.counters.refreshes_per_bank += 1;
                self.counters.row_ca_commands += 1;
            }
            DramCommand::RefAllBank { target } => {
                let (base, per_sid) =
                    self.rank_range(target.bank.pseudo_channel, target.bank.stack_id);
                for i in base..base + per_sid {
                    self.banks[i].refresh(now, Cycle::from(timing.t_rfc_ab));
                    self.sync_bank_bit(i);
                }
                self.counters.refreshes_all_bank += 1;
                self.counters.row_ca_commands += 1;
            }
            DramCommand::Mrs { .. } => {
                self.counters.mode_register_sets += 1;
                self.counters.row_ca_commands += 1;
            }
        }

        self.constraints.record(cmd.kind(), addr, now, burst);
        Ok(IssueResult {
            issued_at: now,
            data_complete_at,
        })
    }

    fn occupy_bus(&mut self, pc: u8, start: Cycle, end: Cycle) {
        let slot = &mut self.bus_busy_until[pc as usize];
        // Bursts scheduled under tCCD constraints never overlap; account the
        // full burst duration.
        *slot = (*slot).max(end);
        self.counters.data_bus_busy_ns += end - start;
    }

    /// The cycle until which the data bus of pseudo channel `pc` is occupied.
    pub fn bus_busy_until(&self, pc: u8) -> Cycle {
        self.bus_busy_until[pc as usize]
    }

    /// Number of banks currently holding an open row (a popcount over the
    /// open-row mask; no bank loads).
    pub fn open_banks(&self) -> usize {
        self.open_mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The row-open bitmask words (flat bank index order; see the field
    /// docs for the layout). Exposed so controllers and oracle tests can
    /// cross-check their own bank-availability masks against the channel's.
    pub fn open_bank_mask(&self) -> &[u64] {
        &self.open_mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandTarget;

    fn channel() -> HbmChannel {
        HbmChannel::new(Organization::hbm4(), TimingParams::hbm4())
    }

    fn t(pc: u8, sid: u8, bg: u8, ba: u8) -> CommandTarget {
        CommandTarget::bank(pc, sid, bg, ba)
    }

    #[test]
    fn act_then_read_sequence_is_legal_and_counted() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        ch.issue(DramCommand::Act { target, row: 5 }, 0).unwrap();
        let rd = DramCommand::Rd {
            target,
            column: 0,
            auto_precharge: false,
        };
        assert!(!ch.can_issue(&rd, 10));
        let res = ch.issue(rd, 16).unwrap();
        assert_eq!(res.data_complete_at, Some(16 + 16 + 1));
        assert_eq!(ch.counters().activates, 1);
        assert_eq!(ch.counters().reads, 1);
        assert_eq!(ch.counters().bytes_read, 32);
        assert_eq!(ch.open_banks(), 1);
    }

    #[test]
    fn read_without_open_row_is_rejected() {
        let mut ch = channel();
        let rd = DramCommand::Rd {
            target: t(0, 0, 0, 0),
            column: 0,
            auto_precharge: false,
        };
        let err = ch.issue(rd, 0).unwrap_err();
        assert!(matches!(err, HbmError::IllegalState { .. }));
    }

    #[test]
    fn double_activation_is_rejected() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        ch.issue(DramCommand::Act { target, row: 1 }, 0).unwrap();
        let err = ch
            .issue(DramCommand::Act { target, row: 2 }, 100)
            .unwrap_err();
        assert!(matches!(err, HbmError::IllegalState { .. }));
    }

    #[test]
    fn timing_violation_reports_earliest_legal_cycle() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        ch.issue(DramCommand::Act { target, row: 1 }, 0).unwrap();
        let rd = DramCommand::Rd {
            target,
            column: 0,
            auto_precharge: false,
        };
        match ch.issue(rd, 3) {
            Err(HbmError::TimingViolation { earliest, .. }) => assert_eq!(earliest, 16),
            other => panic!("expected timing violation, got {other:?}"),
        }
    }

    #[test]
    fn auto_precharge_closes_the_row() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        ch.issue(DramCommand::Act { target, row: 1 }, 0).unwrap();
        ch.issue(
            DramCommand::Rd {
                target,
                column: 0,
                auto_precharge: true,
            },
            16,
        )
        .unwrap();
        assert_eq!(ch.open_banks(), 0);
        // Reactivation must respect both tRC from the original ACT (45) and
        // tRTP + tRP after the read (16 + 5 + 16 = 37); tRC dominates here.
        let act = DramCommand::Act { target, row: 2 };
        let earliest = ch.earliest_issue(&act, 0);
        assert_eq!(earliest, 45);
    }

    #[test]
    fn precharge_then_reactivate() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        ch.issue(DramCommand::Act { target, row: 1 }, 0).unwrap();
        // tRAS must elapse before PRE.
        assert!(!ch.can_issue(&DramCommand::Pre { target }, 20));
        ch.issue(DramCommand::Pre { target }, 29).unwrap();
        assert_eq!(ch.open_banks(), 0);
        // tRP then allows re-activation; tRC also satisfied at 45.
        assert!(ch.can_issue(&DramCommand::Act { target, row: 2 }, 45));
        ch.issue(DramCommand::Act { target, row: 2 }, 45).unwrap();
        assert_eq!(ch.counters().activates, 2);
        assert_eq!(ch.counters().precharges, 1);
    }

    #[test]
    fn out_of_range_row_and_column_are_rejected() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        let err = ch
            .issue(
                DramCommand::Act {
                    target,
                    row: 1 << 20,
                },
                0,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            HbmError::AddressOutOfRange { what: "row", .. }
        ));
        ch.issue(DramCommand::Act { target, row: 0 }, 0).unwrap();
        let err = ch
            .issue(
                DramCommand::Rd {
                    target,
                    column: 999,
                    auto_precharge: false,
                },
                16,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            HbmError::AddressOutOfRange { what: "column", .. }
        ));
        let bad_bank = DramCommand::Act {
            target: t(0, 0, 0, 200),
            row: 0,
        };
        assert!(matches!(
            ch.issue(bad_bank, 50),
            Err(HbmError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn refresh_all_bank_requires_precharged_rank_and_blocks_it() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        ch.issue(DramCommand::Act { target, row: 1 }, 0).unwrap();
        let refab = DramCommand::RefAllBank { target };
        assert!(matches!(
            ch.issue(refab, 60),
            Err(HbmError::IllegalState { .. })
        ));
        ch.issue(DramCommand::Pre { target }, 60).unwrap();
        ch.issue(refab, 80).unwrap();
        assert_eq!(ch.counters().refreshes_all_bank, 1);
        // During the refresh, ACT to any bank of the rank is blocked.
        let act = DramCommand::Act {
            target: t(0, 0, 3, 3),
            row: 0,
        };
        assert!(!ch.can_issue(&act, 200));
        assert!(ch.can_issue(&act, 80 + 410));
        // The other stack ID is unaffected.
        let act_other = DramCommand::Act {
            target: t(0, 1, 0, 0),
            row: 0,
        };
        assert!(ch.can_issue(&act_other, 200));
    }

    #[test]
    fn per_bank_refresh_blocks_only_that_bank() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        ch.issue(DramCommand::RefPerBank { target }, 0).unwrap();
        assert_eq!(ch.counters().refreshes_per_bank, 1);
        assert!(!ch.can_issue(&DramCommand::Act { target, row: 0 }, 100));
        let sibling = DramCommand::Act {
            target: t(0, 0, 1, 0),
            row: 0,
        };
        assert!(ch.can_issue(&sibling, 100));
    }

    #[test]
    fn streaming_reads_across_bank_groups_saturate_the_bus() {
        // Two banks in different bank groups, read alternately at tCCD_S,
        // keep the PC data bus fully busy — the premise of bank-group
        // interleaving (§II-B).
        let mut ch = channel();
        let a = t(0, 0, 0, 0);
        let b = t(0, 0, 1, 0);
        ch.issue(DramCommand::Act { target: a, row: 0 }, 0).unwrap();
        ch.issue(DramCommand::Act { target: b, row: 0 }, 2).unwrap();
        let mut now = 18; // both banks are tRCD-ready
        let before = *ch.counters();
        for i in 0..64u16 {
            let target = if i % 2 == 0 { a } else { b };
            let col = (i / 2) % 32;
            let cmd = DramCommand::Rd {
                target,
                column: col,
                auto_precharge: false,
            };
            let at = ch.earliest_issue(&cmd, now);
            ch.issue(cmd, at).unwrap();
            now = at;
        }
        let delta = ch.counters().delta_since(&before);
        assert_eq!(delta.reads, 64);
        // 64 reads at 1 ns tCCD_S => 64 ns of issue; utilization of that PC
        // must be essentially 100 %.
        assert_eq!(delta.bytes_read, 64 * 32);
        assert!(delta.data_bus_busy_ns >= 63);
    }

    #[test]
    fn mrs_and_preall_are_accepted_and_counted() {
        let mut ch = channel();
        ch.issue(
            DramCommand::Mrs {
                target: t(0, 0, 0, 0),
            },
            0,
        )
        .unwrap();
        ch.issue(
            DramCommand::PreAll {
                target: t(0, 0, 0, 0),
            },
            5,
        )
        .unwrap();
        assert_eq!(ch.counters().mode_register_sets, 1);
        assert_eq!(ch.counters().precharge_alls, 1);
        assert_eq!(ch.counters().row_ca_commands, 2);
    }

    #[test]
    fn open_mask_tracks_bank_state_across_mutations() {
        let mut ch = channel();
        let recount = |ch: &HbmChannel| {
            let mut words = vec![0u64; ch.open_bank_mask().len()];
            for (i, b) in ch.banks().enumerate() {
                if b.is_active() {
                    words[i >> 6] |= 1 << (i & 63);
                }
            }
            words
        };
        let check = |ch: &HbmChannel| {
            assert_eq!(ch.open_bank_mask(), recount(ch).as_slice());
            assert_eq!(
                ch.open_banks(),
                ch.banks().filter(|b| b.is_active()).count()
            );
        };
        check(&ch);
        ch.issue(
            DramCommand::Act {
                target: t(0, 0, 0, 0),
                row: 1,
            },
            0,
        )
        .unwrap();
        ch.issue(
            DramCommand::Act {
                target: t(1, 3, 2, 1),
                row: 9,
            },
            2,
        )
        .unwrap();
        check(&ch);
        // Auto-precharge closes the row and must clear the bit immediately.
        ch.issue(
            DramCommand::Rd {
                target: t(0, 0, 0, 0),
                column: 0,
                auto_precharge: true,
            },
            20,
        )
        .unwrap();
        check(&ch);
        ch.issue(
            DramCommand::Pre {
                target: t(1, 3, 2, 1),
            },
            60,
        )
        .unwrap();
        check(&ch);
        ch.issue(
            DramCommand::RefAllBank {
                target: t(1, 3, 0, 0),
            },
            120,
        )
        .unwrap();
        check(&ch);
        assert_eq!(ch.open_banks(), 0);
    }

    #[test]
    fn reset_counters_clears_only_counters() {
        let mut ch = channel();
        let target = t(0, 0, 0, 0);
        ch.issue(DramCommand::Act { target, row: 1 }, 0).unwrap();
        ch.reset_counters();
        assert_eq!(ch.counters().activates, 0);
        // Timing state preserved: immediate re-activation still illegal.
        assert!(matches!(
            ch.issue(DramCommand::Act { target, row: 2 }, 1),
            Err(HbmError::IllegalState { .. })
        ));
    }
}
