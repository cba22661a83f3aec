//! Per-bank state: the bank finite-state machine and row-buffer contents.
//!
//! A conventional HBM bank can be in one of seven states (paper §II-D):
//! Idle, Activating, Active, Reading, Writing, Precharging, and Refreshing.
//! The transitional states (Activating, Reading, Writing, Precharging,
//! Refreshing) are derived from the time the triggering command was issued
//! and the relevant timing parameter; the persistent facts tracked here are
//! the open row (if any) and the time until which the bank is busy with a
//! refresh.

use serde::{Deserialize, Serialize};

use crate::timing::TimingParams;
use crate::units::Cycle;

/// The observable state of a bank at a particular cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BankState {
    /// All rows closed; the bank can accept an `ACT` or `REF`.
    Idle,
    /// An `ACT` is in flight (before `tRCD` has elapsed).
    Activating,
    /// A row is open and column commands may be issued.
    Active,
    /// A read burst is in flight.
    Reading,
    /// A write burst is in flight.
    Writing,
    /// A `PRE` is in flight (before `tRP` has elapsed).
    Precharging,
    /// A refresh is in progress.
    Refreshing,
}

impl std::fmt::Display for BankState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BankState::Idle => "Idle",
            BankState::Activating => "Activating",
            BankState::Active => "Active",
            BankState::Reading => "Reading",
            BankState::Writing => "Writing",
            BankState::Precharging => "Precharging",
            BankState::Refreshing => "Refreshing",
        };
        f.write_str(s)
    }
}

impl BankState {
    /// The number of states a conventional MC bank FSM must distinguish
    /// (Table IV, "# of bank states" = 7).
    pub const CONVENTIONAL_COUNT: usize = 7;
}

/// Sentinel stored in [`Bank::open_row`] when no row is open. Row addresses
/// are bounded by `Organization::rows_per_bank` (far below `u32::MAX`), so the
/// sentinel can never collide with a real row.
const NO_ROW: u32 = u32::MAX;

/// One DRAM bank: logical row-buffer state plus the timestamps needed to
/// derive the transitional FSM states.
///
/// Every field is plain-old-data (the open row is a `u32` with a `NO_ROW`
/// sentinel rather than an `Option`), so a `Vec<Bank>` is a flat POD slab:
/// snapshotting or forking a channel's bank state is a single memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bank {
    /// The currently open row, or [`NO_ROW`].
    open_row: u32,
    /// When the most recent `ACT` finishes opening its row (`tRCD` after it
    /// was issued; valid while a row is open).
    act_ready_at: Cycle,
    /// When the most recent column command's data transfer finishes.
    column_busy_until: Cycle,
    /// Whether the most recent column command was a write.
    last_column_was_write: bool,
    /// When the most recent `PRE` completes (`tRP` after it was issued).
    precharge_done_at: Cycle,
    /// When the in-progress refresh (if any) completes.
    refresh_done_at: Cycle,
    /// Number of activations this bank has seen (for energy accounting).
    activations: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Bank {
            open_row: NO_ROW,
            act_ready_at: 0,
            column_busy_until: 0,
            last_column_was_write: false,
            precharge_done_at: 0,
            refresh_done_at: 0,
            activations: 0,
        }
    }
}

impl Bank {
    /// A bank in the idle (precharged) state.
    pub fn new() -> Self {
        Bank::default()
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        (self.open_row != NO_ROW).then_some(self.open_row)
    }

    /// Whether the bank currently has an open row.
    pub fn is_active(&self) -> bool {
        self.open_row != NO_ROW
    }

    /// Whether the bank is refreshing at `now`.
    pub fn is_refreshing(&self, now: Cycle) -> bool {
        now < self.refresh_done_at
    }

    /// Total activations recorded by this bank.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The cycle the in-progress refresh completes (0 if none has occurred).
    pub fn refresh_done_at(&self) -> Cycle {
        self.refresh_done_at
    }

    /// Record an `ACT` of `row` at cycle `now` under `timing`.
    pub fn activate(&mut self, row: u32, now: Cycle, timing: &TimingParams) {
        debug_assert_ne!(row, NO_ROW, "row address collides with the NO_ROW sentinel");
        self.open_row = row;
        self.act_ready_at = now + Cycle::from(timing.t_rcd_rd.min(timing.t_rcd_wr));
        self.activations += 1;
    }

    /// Record a `PRE` issued at cycle `now` under `timing`.
    pub fn precharge(&mut self, now: Cycle, timing: &TimingParams) {
        self.open_row = NO_ROW;
        self.precharge_done_at = now + Cycle::from(timing.t_rp);
    }

    /// Record a column command issued at cycle `now`; `data_end` is when its
    /// data transfer completes on the bus.
    pub fn column_access(&mut self, is_write: bool, data_end: Cycle) {
        self.column_busy_until = self.column_busy_until.max(data_end);
        self.last_column_was_write = is_write;
    }

    /// Record a refresh issued at `now` lasting `duration` nanoseconds.
    /// Refresh implicitly closes the row buffer.
    pub fn refresh(&mut self, now: Cycle, duration: Cycle) {
        self.open_row = NO_ROW;
        self.refresh_done_at = now + duration;
    }

    /// The next cycle strictly after `now` at which the bank's observable
    /// FSM state changes without any further command: the end of an
    /// in-flight refresh, activation, data burst, or precharge. `None` when
    /// the bank is in a stable state (Idle or Active) and only a new command
    /// can change it.
    ///
    /// Computed on demand from the four timestamps: the controllers take
    /// their wakeups from the constraint engine, not from this query, so
    /// keeping a sorted copy up to date on every command would cost more
    /// than it saves.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let activating = if self.open_row != NO_ROW {
            self.act_ready_at
        } else {
            0
        };
        [
            self.refresh_done_at,
            activating,
            self.column_busy_until,
            self.precharge_done_at,
        ]
        .into_iter()
        .filter(|&t| t > now)
        .min()
    }

    /// The observable FSM state at cycle `now`.
    pub fn state_at(&self, now: Cycle) -> BankState {
        if now < self.refresh_done_at {
            return BankState::Refreshing;
        }
        if self.open_row != NO_ROW {
            if now < self.act_ready_at {
                BankState::Activating
            } else if now < self.column_busy_until {
                if self.last_column_was_write {
                    BankState::Writing
                } else {
                    BankState::Reading
                }
            } else {
                BankState::Active
            }
        } else if now < self.precharge_done_at {
            BankState::Precharging
        } else {
            BankState::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        TimingParams::hbm4()
    }

    #[test]
    fn new_bank_is_idle_with_no_open_row() {
        let b = Bank::new();
        assert_eq!(b.state_at(0), BankState::Idle);
        assert_eq!(b.open_row(), None);
        assert!(!b.is_active());
        assert_eq!(b.activations(), 0);
    }

    #[test]
    fn activation_walks_through_activating_then_active() {
        let t = timing();
        let mut b = Bank::new();
        b.activate(42, 100, &t);
        assert_eq!(b.open_row(), Some(42));
        assert_eq!(b.state_at(100), BankState::Activating);
        assert_eq!(b.state_at(100 + t.t_rcd_rd as u64), BankState::Active);
        assert_eq!(b.activations(), 1);
    }

    #[test]
    fn column_access_shows_reading_or_writing() {
        let t = timing();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        let active_at = t.t_rcd_rd as u64;
        b.column_access(false, active_at + 20);
        assert_eq!(b.state_at(active_at + 5), BankState::Reading);
        b.column_access(true, active_at + 40);
        assert_eq!(b.state_at(active_at + 25), BankState::Writing);
        assert_eq!(b.state_at(active_at + 41), BankState::Active);
    }

    #[test]
    fn precharge_closes_row_and_walks_through_precharging() {
        let t = timing();
        let mut b = Bank::new();
        b.activate(7, 0, &t);
        b.precharge(50, &t);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.state_at(50), BankState::Precharging);
        assert_eq!(b.state_at(50 + t.t_rp as u64), BankState::Idle);
    }

    #[test]
    fn refresh_blocks_bank_and_closes_row() {
        let t = timing();
        let mut b = Bank::new();
        b.activate(7, 0, &t);
        b.refresh(100, 280);
        assert!(b.is_refreshing(200));
        assert_eq!(b.state_at(200), BankState::Refreshing);
        assert_eq!(b.state_at(380), BankState::Idle);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.refresh_done_at(), 380);
    }

    #[test]
    fn next_event_at_tracks_transitional_states() {
        let t = timing();
        let mut b = Bank::new();
        // Stable Idle: no self-transitions pending.
        assert_eq!(b.next_event_at(0), None);
        // Activating -> Active at tRCD.
        b.activate(3, 100, &t);
        assert_eq!(
            b.next_event_at(100),
            Some(100 + t.t_rcd_rd.min(t.t_rcd_wr) as u64)
        );
        // Reading -> Active when the burst ends.
        b.column_access(false, 130);
        assert_eq!(b.next_event_at(120), Some(130));
        // Precharging -> Idle at tRP.
        b.precharge(200, &t);
        assert_eq!(b.next_event_at(200), Some(200 + t.t_rp as u64));
        assert_eq!(b.next_event_at(200 + t.t_rp as u64), None);
        // Refreshing -> Idle when the refresh completes.
        b.refresh(300, 280);
        assert_eq!(b.next_event_at(300), Some(580));
    }

    #[test]
    fn conventional_state_count_is_seven() {
        assert_eq!(BankState::CONVENTIONAL_COUNT, 7);
        assert_eq!(BankState::Reading.to_string(), "Reading");
    }
}
