//! Request queues.
//!
//! Conventional memory controllers hold in-flight requests in
//! content-addressable (CAM) structures so that a ready request targeting any
//! bank can be located in one cycle (§II-D). This module models that queue:
//! bounded capacity, oldest-first iteration, and lookup by DRAM coordinates.
//! The queue size is one of the five components the paper's Table IV claims
//! RoMe shrinks, so occupancy statistics are tracked here.
//!
//! # Data-oriented layout
//!
//! The queue is stored struct-of-arrays. The FR-FCFS scan only needs a few
//! fields per entry — the cached ready bounds, the flat bank index, and the
//! row — so those live in parallel position-indexed POD arrays (`ready_at`,
//! `act_ready_at`, `bank`, `row`) that the scan walks linearly with
//! no pointer chasing and no 64-byte entry loads for skipped entries. The
//! full [`QueueEntry`] payloads live in a stable *arena* (slab with a free
//! list); positions hold only the arena slot number, so removing an entry
//! shifts a handful of small POD arrays (cheap memmoves) while the payloads
//! never move. A per-bank occupancy count plus a bank bitmask (`bank_count`,
//! `pending_mask`; bit `b` set iff `bank_count[b] > 0`) answers the
//! "anything pending for this bank?" CAM queries with one word test in the
//! common negative case. Every array is plain-old-data, so checkpointing or
//! forking a queue is a few memcpys.
//!
//! Every entry of a controller's queue belongs to that controller's
//! channel, so the CAM lookups compare bank and row only.

use serde::{Deserialize, Serialize};

use rome_hbm::address::{BankAddress, DramAddress};
use rome_hbm::organization::Organization;
use rome_hbm::units::Cycle;

use crate::request::{MemoryRequest, RequestKind};

/// An entry in the request queue: the request plus its decoded DRAM address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueEntry {
    /// The pending request (fragment).
    pub request: MemoryRequest,
    /// Its decoded DRAM coordinates.
    pub dram: DramAddress,
}

/// Maps [`BankAddress`]es to flat per-channel bank indices (PC-major, then
/// stack ID, then bank group) so queue and controller agree on one bank
/// numbering. Copyable so the queue can own one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankIndexer {
    per_pc: u32,
    per_sid: u32,
    banks_per_group: u32,
    banks: u32,
}

impl BankIndexer {
    /// Build the indexer for one channel of `org`.
    pub fn new(org: &Organization) -> Self {
        BankIndexer {
            per_pc: org.banks_per_pseudo_channel(),
            per_sid: (org.bank_groups * org.banks_per_group) as u32,
            banks_per_group: org.banks_per_group as u32,
            banks: org.banks_per_channel(),
        }
    }

    /// Flat index of `bank` within the channel.
    #[inline]
    pub fn flat(&self, bank: BankAddress) -> usize {
        (bank.pseudo_channel as u32 * self.per_pc
            + bank.stack_id as u32 * self.per_sid
            + bank.bank_group as u32 * self.banks_per_group
            + bank.bank as u32) as usize
    }

    /// Number of banks in the channel.
    pub fn banks(&self) -> usize {
        self.banks as usize
    }

    /// The pseudo channel a flat bank index belongs to.
    #[inline]
    pub fn pseudo_channel_of(&self, flat: usize) -> usize {
        flat / self.per_pc as usize
    }

    /// The rank (pseudo channel × stack ID) a flat bank index belongs to.
    /// Flat indices are PC-major then SID-major, so ranks are contiguous
    /// runs of `per_sid` banks.
    #[inline]
    pub fn rank_of(&self, flat: usize) -> usize {
        flat / self.per_sid as usize
    }

    /// Number of ranks in the channel.
    #[inline]
    pub fn ranks(&self) -> usize {
        (self.banks / self.per_sid) as usize
    }

    /// A representative bank address in the same rank as `flat` (bank group
    /// and bank zeroed). Rank-scoped constraint queries give the same answer
    /// for every bank in the rank, so this suffices to probe them.
    #[inline]
    pub fn rank_address(&self, flat: usize) -> BankAddress {
        let pc = flat / self.per_pc as usize;
        let sid = (flat % self.per_pc as usize) / self.per_sid as usize;
        BankAddress::new(pc as u8, sid as u8, 0, 0)
    }
}

/// A bounded, age-ordered request queue with CAM-style lookups, stored
/// struct-of-arrays (see the module docs for the layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestQueue {
    indexer: BankIndexer,
    capacity: usize,
    // --- Hot, position-indexed, age-ordered parallel arrays. Index i is
    // the i-th oldest entry; all of them shift together on removal. ---
    /// Cached lower bound on the earliest cycle the entry's column command
    /// can issue (0 = unknown). Because DRAM timing constraints only ever
    /// move *later* as commands are recorded, a bound computed once stays a
    /// valid lower bound for the entry's lifetime, so the FR-FCFS scan can
    /// skip the entry with one comparison until its cached cycle arrives
    /// instead of re-evaluating the full constraint engine every tick.
    ready_at: Vec<Cycle>,
    /// Cached lower bound on the earliest cycle an ACT for the entry's bank
    /// can issue (0 = unknown). Same monotonicity argument as `ready_at`.
    act_ready_at: Vec<Cycle>,
    /// Flat bank index of the entry's target bank.
    bank: Vec<u16>,
    /// The entry's target row.
    row: Vec<u32>,
    /// 1 iff the entry's bank currently has the entry's row open (an
    /// incrementally maintained copy of the scheduler's row-hit predicate;
    /// see [`RequestQueue::note_act`]). Lets the scans test "row hit" with
    /// one byte load instead of a mask word plus an open-row compare.
    row_match: Vec<u8>,
    /// 1 iff the entry's bank is open AND some queued entry still wants the
    /// open row (`hits_open[bank] > 0`), i.e. the adaptive page policy
    /// forbids precharging it. Maintained at the same mutation points as
    /// `row_match` (plus the 0↔>0 transitions of `hits_open` on
    /// push/remove), so the row scan's pre-pass can retire these entries
    /// with one position-indexed byte load instead of a per-bank gather.
    keep_open: Vec<u8>,
    /// Arena slot holding the entry's full payload.
    slot: Vec<u32>,
    // --- Cold arena: stable-index slab of full payloads. ---
    arena: Vec<QueueEntry>,
    /// Free arena slots available for reuse.
    free: Vec<u32>,
    // --- Per-bank occupancy (flat bank index). ---
    /// Number of queued entries targeting each bank.
    bank_count: Vec<u16>,
    /// Bit `b` set iff `bank_count[b] > 0` (word `b >> 6`, bit `b & 63`).
    pending_mask: Vec<u64>,
    /// Number of queued entries whose row matches the bank's open row
    /// (`hits_open[b]` = count of set `row_match` flags among bank `b`'s
    /// entries; 0 whenever the bank is closed). `hits_open[b] > 0` answers
    /// the adaptive-page-policy CAM query ("does any queued entry still
    /// want the open row?") in O(1), replacing a full-queue walk per probe.
    hits_open: Vec<u16>,
    /// Mirror of the scheduler's open-row state (bit `b & 63` of word
    /// `b >> 6` set iff bank `b` has a row open), maintained via
    /// [`RequestQueue::note_act`] / [`RequestQueue::note_pre`] so `push`
    /// can compute `row_match` for new entries without asking the
    /// controller.
    open_mask: Vec<u64>,
    /// The open row per bank (valid only where the `open_mask` bit is set).
    open_row: Vec<u32>,
    /// Sum of occupancy samples (one per `sample_occupancy` call).
    occupancy_sum: u64,
    /// Number of occupancy samples taken.
    occupancy_samples: u64,
    /// Maximum occupancy ever observed.
    peak_occupancy: usize,
    /// Lower bound on `act_ready_at` over the *row-relevant* entries (those
    /// with `row_match == 0 && keep_open == 0`, the only ones the row
    /// scan considers); 0 = unknown. While `now` lies below it no entry can
    /// be a row-scan candidate, so the scan would issue nothing and store
    /// nothing: [`RequestQueue::row_scan_idle`] lets the controller skip it.
    /// Set by [`RequestQueue::note_row_scan_idle`] after a row scan that
    /// found no action, and reset to 0 wherever an entry can become
    /// row-relevant or a relevant entry's bound can drop: `push` of a
    /// relevant entry, `note_pre` on a bank with entries, `remove` of a
    /// bank's last open-row hit (which clears `keep_open`), and
    /// `set_act_ready_hint`. `note_act` only removes relevance (an ACT
    /// needs a closed bank), and the scans only raise the bounds they store
    /// (each from at most `now` to past it), so neither needs a reset.
    row_scan_floor: Cycle,
}

/// Split-borrow view over one queue's hot arrays, handed to the
/// scheduler scans (see [`RequestQueue::scan_view`]). The hint slices are
/// mutable (scans memoize bounds in place); everything else is shared.
pub struct ScanView<'a> {
    /// Cached column-ready bounds (0 = unknown), position-indexed.
    pub ready_at: &'a mut [Cycle],
    /// Cached ACT-ready bounds (0 = unknown), position-indexed.
    pub act_ready_at: &'a mut [Cycle],
    /// Flat bank index per entry.
    pub bank: &'a [u16],
    /// Target row per entry.
    pub row: &'a [u32],
    /// 1 iff the entry's row is open in its bank (incrementally maintained;
    /// see [`RequestQueue::note_act`]).
    pub row_match: &'a [u8],
    /// Per-bank count of entries matching the bank's open row (the O(1)
    /// adaptive-page-policy CAM; see the field docs on `RequestQueue`).
    pub hits_open: &'a [u16],
    /// 1 iff the entry's bank is open and the adaptive page policy forbids
    /// precharging it (some entry wants the open row). Position-indexed
    /// mirror of `hits_open[bank] > 0`, so the row-scan pre-pass never
    /// gathers per-bank state.
    pub keep_open: &'a [u8],
    /// Payload and CAM lookups (shared refs, so it stays usable while the
    /// hint slices above are borrowed mutably).
    pub entries: EntryView<'a>,
}

/// Shared-ref companion to [`ScanView`]: the lookups a scan needs beyond
/// the hot arrays — entry payloads through the position→slot indirection
/// and the CAM queries.
#[derive(Clone, Copy)]
pub struct EntryView<'a> {
    bank: &'a [u16],
    row: &'a [u32],
    slot: &'a [u32],
    arena: &'a [QueueEntry],
    bank_count: &'a [u16],
    indexer: BankIndexer,
}

impl EntryView<'_> {
    /// The full payload of the entry at `index` (cold arena load).
    #[inline]
    pub fn entry(&self, index: usize) -> &QueueEntry {
        &self.arena[self.slot[index] as usize]
    }

    /// Same predicate as [`RequestQueue::has_pending_row_hit`], evaluated
    /// branchlessly (an OR-fold over the packed arrays instead of an
    /// early-exit `any`), which lets the compiler vectorize the walk — the
    /// common answer in a dense scan is "no hit", which costs a full walk
    /// either way.
    #[inline]
    pub fn has_pending_row_hit(&self, addr: DramAddress) -> bool {
        let flat = self.indexer.flat(addr.bank);
        if self.bank_count[flat] == 0 {
            return false;
        }
        let flat = flat as u16;
        let n = self.slot.len();
        let (bank, row) = (&self.bank[..n], &self.row[..n]);
        let mut hit = false;
        for i in 0..n {
            hit |= (bank[i] == flat) & (row[i] == addr.row);
        }
        hit
    }
}

impl RequestQueue {
    /// Create a queue holding at most `capacity` entries, indexing banks via
    /// `indexer`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, indexer: BankIndexer) -> Self {
        assert!(capacity > 0, "request queue capacity must be non-zero");
        assert!(
            capacity <= u16::MAX as usize,
            "request queue capacity exceeds per-bank counter range"
        );
        let banks = indexer.banks();
        RequestQueue {
            indexer,
            capacity,
            ready_at: Vec::with_capacity(capacity),
            act_ready_at: Vec::with_capacity(capacity),
            bank: Vec::with_capacity(capacity),
            row: Vec::with_capacity(capacity),
            slot: Vec::with_capacity(capacity),
            arena: Vec::with_capacity(capacity),
            free: Vec::new(),
            row_match: Vec::with_capacity(capacity),
            keep_open: Vec::with_capacity(capacity),
            bank_count: vec![0; banks],
            pending_mask: vec![0; banks.div_ceil(64)],
            hits_open: vec![0; banks],
            open_mask: vec![0; banks.div_ceil(64)],
            open_row: vec![0; banks],
            occupancy_sum: 0,
            occupancy_samples: 0,
            peak_occupancy: 0,
            row_scan_floor: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued entries.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Whether the queue is full.
    pub fn is_full(&self) -> bool {
        self.slot.len() >= self.capacity
    }

    /// Attempt to enqueue an entry; returns `false` (and leaves the entry
    /// with the caller) if the queue is full.
    pub fn push(&mut self, entry: QueueEntry) -> bool {
        if self.is_full() {
            return false;
        }
        let flat = self.indexer.flat(entry.dram.bank);
        let slot = match self.free.pop() {
            Some(s) => {
                self.arena[s as usize] = entry;
                s
            }
            None => {
                self.arena.push(entry);
                (self.arena.len() - 1) as u32
            }
        };
        self.ready_at.push(0);
        self.act_ready_at.push(0);
        self.bank.push(flat as u16);
        self.row.push(entry.dram.row);
        let open = self.open_mask[flat >> 6] >> (flat & 63) & 1 == 1;
        let hit = open && self.open_row[flat] == entry.dram.row;
        if hit && self.hits_open[flat] == 0 {
            // First pending hit on this open bank: the bank's existing
            // entries flip from "may precharge" to "keep open".
            let n = self.slot.len();
            let (bank, keep_open) = (&self.bank[..n], &mut self.keep_open[..n]);
            let flat16 = flat as u16;
            for i in 0..n {
                keep_open[i] |= (bank[i] == flat16) as u8;
            }
        }
        self.row_match.push(hit as u8);
        self.hits_open[flat] += hit as u16;
        let keep_open = open && self.hits_open[flat] > 0;
        self.keep_open.push(keep_open as u8);
        if !hit && !keep_open {
            // A new row-relevant entry with an unknown (0) bound.
            self.row_scan_floor = 0;
        }
        self.slot.push(slot);
        self.bank_count[flat] += 1;
        self.pending_mask[flat >> 6] |= 1 << (flat & 63);
        self.peak_occupancy = self.peak_occupancy.max(self.slot.len());
        true
    }

    /// Record that the scheduler opened `row` in flat bank `flat`: refresh
    /// the per-entry `row_match` flags for that bank and its open-row-hit
    /// count. Must be called for every row activation (the controller's
    /// `set_open_row` is the single such mutation point) on both queues, so
    /// the flags stay exact regardless of which queue is being scanned.
    /// One branchless pass over the packed arrays — the same cost class as
    /// the position shifts `remove` already performs, paid only on the rare
    /// ACT, not per scan.
    ///
    /// The bank must be closed: every entry on it is then row-relevant, and
    /// opening it can only clear that, so the row-scan floor stays valid.
    pub fn note_act(&mut self, flat: usize, row: u32) {
        debug_assert!(
            self.open_mask[flat >> 6] >> (flat & 63) & 1 == 0,
            "ACT recorded on an open bank"
        );
        self.open_mask[flat >> 6] |= 1 << (flat & 63);
        self.open_row[flat] = row;
        if self.bank_count[flat] == 0 {
            self.hits_open[flat] = 0;
            return;
        }
        let n = self.slot.len();
        let (bank, rows) = (&self.bank[..n], &self.row[..n]);
        let flat16 = flat as u16;
        let mut hits = 0u16;
        for i in 0..n {
            hits += ((bank[i] == flat16) & (rows[i] == row)) as u16;
        }
        let keep = (hits > 0) as u8;
        let (row_match, keep_open) = (&mut self.row_match[..n], &mut self.keep_open[..n]);
        for i in 0..n {
            let same = bank[i] == flat16;
            let hit = same & (rows[i] == row);
            row_match[i] = (row_match[i] & !(same as u8)) | hit as u8;
            keep_open[i] = (keep_open[i] & !(same as u8)) | (same as u8 & keep);
        }
        self.hits_open[flat] = hits;
    }

    /// Record that the scheduler closed flat bank `flat` (PRE or refresh):
    /// clear the bank's `row_match` flags and open-row-hit count. See
    /// [`RequestQueue::note_act`] for the maintenance contract.
    pub fn note_pre(&mut self, flat: usize) {
        self.open_mask[flat >> 6] &= !(1 << (flat & 63));
        if self.bank_count[flat] != 0 {
            // The bank's entries lose `row_match`/`keep_open` and become
            // row-relevant.
            self.row_scan_floor = 0;
            let n = self.slot.len();
            let (bank, row_match, keep_open) = (
                &self.bank[..n],
                &mut self.row_match[..n],
                &mut self.keep_open[..n],
            );
            let flat16 = flat as u16;
            for i in 0..n {
                let other = (bank[i] != flat16) as u8;
                row_match[i] &= other;
                keep_open[i] &= other;
            }
        }
        self.hits_open[flat] = 0;
    }

    /// The entry at `index` (oldest first), if any.
    pub fn get(&self, index: usize) -> Option<&QueueEntry> {
        self.slot.get(index).map(|&s| &self.arena[s as usize])
    }

    /// The cached ready bound of the entry at `index` (0 = unknown).
    #[inline]
    pub fn ready_hint(&self, index: usize) -> Cycle {
        self.ready_at.get(index).copied().unwrap_or(0)
    }

    /// Cache a lower bound on the earliest issue cycle of the entry at
    /// `index`. The bound must remain valid for the lifetime of the entry
    /// (DRAM timing constraints are monotone, so any bound read from the
    /// constraint engine qualifies).
    #[inline]
    pub fn set_ready_hint(&mut self, index: usize, at: Cycle) {
        if let Some(r) = self.ready_at.get_mut(index) {
            *r = at;
        }
    }

    /// The cached ACT-ready bound of the entry at `index` (0 = unknown).
    #[inline]
    pub fn act_ready_hint(&self, index: usize) -> Cycle {
        self.act_ready_at.get(index).copied().unwrap_or(0)
    }

    /// Cache a lower bound on the earliest ACT issue cycle for the entry at
    /// `index` (see [`RequestQueue::set_ready_hint`] for the validity
    /// argument).
    #[inline]
    pub fn set_act_ready_hint(&mut self, index: usize, at: Cycle) {
        if let Some(r) = self.act_ready_at.get_mut(index) {
            *r = at;
            self.row_scan_floor = 0;
        }
    }

    /// The flat bank index of the entry at `index` (hot array; no arena
    /// load). The index must be in bounds.
    #[inline]
    pub fn bank_at(&self, index: usize) -> usize {
        self.bank[index] as usize
    }

    /// The target row of the entry at `index` (hot array; no arena load).
    /// The index must be in bounds.
    #[inline]
    pub fn row_at(&self, index: usize) -> u32 {
        self.row[index]
    }

    /// Iterate over the entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.slot.iter().map(move |&s| &self.arena[s as usize])
    }

    /// The oldest entry, if any.
    pub fn oldest(&self) -> Option<&QueueEntry> {
        self.slot.first().map(|&s| &self.arena[s as usize])
    }

    /// Find the oldest entry matching `pred` and return its position.
    pub fn find_oldest<F: Fn(&QueueEntry) -> bool>(&self, pred: F) -> Option<usize> {
        self.slot
            .iter()
            .position(|&s| pred(&self.arena[s as usize]))
    }

    /// Remove and return the entry at `index` (as returned by
    /// [`RequestQueue::find_oldest`]). Shifts the hot arrays; the payload
    /// stays put and its arena slot is recycled.
    pub fn remove(&mut self, index: usize) -> Option<QueueEntry> {
        if index >= self.slot.len() {
            return None;
        }
        self.ready_at.remove(index);
        self.act_ready_at.remove(index);
        let flat = self.bank.remove(index) as usize;
        self.row.remove(index);
        let hit = self.row_match.remove(index);
        self.keep_open.remove(index);
        self.hits_open[flat] -= hit as u16;
        if hit == 1 && self.hits_open[flat] == 0 {
            // Last pending hit gone: the bank's remaining entries may
            // precharge again, so they become row-relevant.
            self.row_scan_floor = 0;
            let n = self.slot.len() - 1;
            let (bank, keep_open) = (&self.bank[..n], &mut self.keep_open[..n]);
            let flat16 = flat as u16;
            for i in 0..n {
                keep_open[i] &= (bank[i] != flat16) as u8;
            }
        }
        let slot = self.slot.remove(index);
        self.bank_count[flat] -= 1;
        if self.bank_count[flat] == 0 {
            self.pending_mask[flat >> 6] &= !(1 << (flat & 63));
        }
        self.free.push(slot);
        Some(self.arena[slot as usize])
    }

    /// Whether any queued entry targets the same bank and row as `addr`
    /// (used by the adaptive page policy to decide whether to keep a row
    /// open). One mask-word test answers the common negative case; only a
    /// non-empty bank walks the packed arrays.
    pub fn has_pending_row_hit(&self, addr: DramAddress) -> bool {
        let flat = self.indexer.flat(addr.bank);
        if self.bank_count[flat] == 0 {
            return false;
        }
        let flat = flat as u16;
        (0..self.slot.len()).any(|i| self.bank[i] == flat && self.row[i] == addr.row)
    }

    /// The earliest cached column-ready bound later than `now` over all
    /// entries (`Cycle::MAX` if none). After a two-phase column scan
    /// that found nothing issuable, this is the scan's wakeup hint.
    pub(crate) fn earliest_column_ready_after(&self, now: Cycle) -> Cycle {
        self.ready_at.iter().fold(Cycle::MAX, |m, &at| {
            m.min(if at > now { at } else { Cycle::MAX })
        })
    }

    /// The earliest cached row-command park bound (`act_ready_at`) later
    /// than `now` over the entries that need a row command: not a row hit
    /// and not pinned open by the adaptive page policy (`Cycle::MAX` if
    /// none). After a row scan that found nothing issuable, this is
    /// the scan's wakeup hint.
    pub(crate) fn earliest_row_park_after(&self, now: Cycle) -> Cycle {
        let n = self.slot.len();
        let (at, row_match, keep_open) = (
            &self.act_ready_at[..n],
            &self.row_match[..n],
            &self.keep_open[..n],
        );
        let mut min = Cycle::MAX;
        for i in 0..n {
            let relevant = (row_match[i] == 0) & (keep_open[i] == 0);
            min = min.min(if relevant & (at[i] > now) {
                at[i]
            } else {
                Cycle::MAX
            });
        }
        min
    }

    /// Whether the row scan at `now` has no candidate: every
    /// row-relevant entry is parked past `now` (see the `row_scan_floor`
    /// field). Such a scan would issue nothing and store nothing, so the
    /// caller may skip it; its wakeup hint, read back from the stored
    /// bounds, is unchanged.
    #[inline]
    pub(crate) fn row_scan_idle(&self, now: Cycle) -> bool {
        now < self.row_scan_floor
    }

    /// Record that a row scan at `now` found no action: the floor
    /// becomes the least `act_ready_at` over the row-relevant entries
    /// (`Cycle::MAX` if there are none), or 0 if some relevant entry is
    /// still due at `now` (a refresh-reserved bank's).
    pub(crate) fn note_row_scan_idle(&mut self, now: Cycle) {
        let n = self.slot.len();
        let (at, row_match, keep_open) = (
            &self.act_ready_at[..n],
            &self.row_match[..n],
            &self.keep_open[..n],
        );
        let mut min = Cycle::MAX;
        for i in 0..n {
            let relevant = (row_match[i] == 0) & (keep_open[i] == 0);
            min = min.min(if relevant { at[i] } else { Cycle::MAX });
        }
        self.row_scan_floor = if min > now { min } else { 0 };
    }

    /// The row-scan floor (0 = unknown; see the `row_scan_floor` field).
    /// Exposed so oracle tests can check that it lower-bounds every
    /// row-relevant entry's `act_ready_at`.
    #[cfg(test)]
    pub(crate) fn row_scan_floor(&self) -> Cycle {
        self.row_scan_floor
    }

    /// Split-borrow view over the hot parallel arrays for one scheduler
    /// scan. Handing the scan loop plain slices (grabbed once) instead of
    /// accessor calls on `&mut self` lets the compiler keep the array base
    /// pointers in registers and hoist the bounds checks out of the
    /// per-entry loop — through `&mut self` accessors it must reload them
    /// every iteration, because any such call could in principle reallocate
    /// the Vecs.
    pub fn scan_view(&mut self) -> ScanView<'_> {
        ScanView {
            ready_at: &mut self.ready_at,
            act_ready_at: &mut self.act_ready_at,
            bank: &self.bank,
            row: &self.row,
            row_match: &self.row_match,
            hits_open: &self.hits_open,
            keep_open: &self.keep_open,
            entries: EntryView {
                bank: &self.bank,
                row: &self.row,
                slot: &self.slot,
                arena: &self.arena,
                bank_count: &self.bank_count,
                indexer: self.indexer,
            },
        }
    }

    /// Per-bank occupancy count (flat bank index order). Exposed so oracle
    /// tests can cross-check the counts against a from-scratch recount.
    pub fn bank_counts(&self) -> &[u16] {
        &self.bank_count
    }

    /// Bank-occupancy bitmask words (flat bank index order; bit `b & 63` of
    /// word `b >> 6` is set iff `bank_counts()[b] > 0`). Exposed so oracle
    /// tests can cross-check the mask against a from-scratch recount.
    pub fn pending_mask_words(&self) -> &[u64] {
        &self.pending_mask
    }

    /// Per-entry row-match flags (position order; 1 iff the entry's row is
    /// open in its bank). Exposed so oracle tests can cross-check the
    /// incrementally maintained flags against a from-scratch recompute.
    pub fn row_match_flags(&self) -> &[u8] {
        &self.row_match
    }

    /// Per-bank open-row-hit counts (flat bank index order). Exposed so
    /// oracle tests can cross-check against a from-scratch recount.
    pub fn open_row_hits(&self) -> &[u16] {
        &self.hits_open
    }

    /// Per-entry keep-open flags (position order; 1 iff the entry's bank is
    /// open and still has a pending open-row hit). Exposed so oracle tests
    /// can cross-check against a from-scratch recompute.
    pub fn keep_open_flags(&self) -> &[u8] {
        &self.keep_open
    }

    /// Record an occupancy sample (typically once per scheduling cycle).
    pub fn sample_occupancy(&mut self) {
        self.occupancy_sum += self.slot.len() as u64;
        self.occupancy_samples += 1;
    }

    /// Mean sampled occupancy.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Highest occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Age (in ns) of the oldest entry relative to `now`, or 0 if empty.
    pub fn oldest_age(&self, now: Cycle) -> Cycle {
        self.oldest()
            .map(|e| now.saturating_sub(e.request.arrival))
            .unwrap_or(0)
    }

    /// Count entries of the given kind.
    pub fn count_kind(&self, kind: RequestKind) -> usize {
        self.iter().filter(|e| e.request.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indexer() -> BankIndexer {
        BankIndexer::new(&Organization::hbm4())
    }

    fn queue(capacity: usize) -> RequestQueue {
        RequestQueue::new(capacity, indexer())
    }

    fn entry(id: u64, addr: u64, row: u32, bank: u8, arrival: Cycle) -> QueueEntry {
        QueueEntry {
            request: MemoryRequest::read(id, addr, 32, arrival),
            dram: DramAddress::new(0, BankAddress::new(0, 0, 0, bank), row, 0),
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let mut q = queue(2);
        assert!(q.push(entry(1, 0, 0, 0, 0)));
        assert!(q.push(entry(2, 32, 0, 0, 0)));
        assert!(q.is_full());
        assert!(!q.push(entry(3, 64, 0, 0, 0)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        queue(0);
    }

    #[test]
    fn oldest_first_ordering_and_removal() {
        let mut q = queue(8);
        q.push(entry(1, 0, 0, 0, 10));
        q.push(entry(2, 32, 1, 1, 20));
        q.push(entry(3, 64, 0, 0, 30));
        assert_eq!(q.oldest().unwrap().request.id.0, 1);
        let idx = q.find_oldest(|e| e.dram.bank.bank == 1).unwrap();
        let removed = q.remove(idx).unwrap();
        assert_eq!(removed.request.id.0, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.oldest_age(100), 90);
    }

    #[test]
    fn row_hit_and_bank_lookups() {
        let mut q = queue(8);
        q.push(entry(1, 0, 7, 2, 0));
        let same_row = DramAddress::new(0, BankAddress::new(0, 0, 0, 2), 7, 5);
        let other_row = DramAddress::new(0, BankAddress::new(0, 0, 0, 2), 8, 5);
        let other_bank = DramAddress::new(0, BankAddress::new(0, 0, 0, 3), 7, 5);
        assert!(q.has_pending_row_hit(same_row));
        assert!(!q.has_pending_row_hit(other_row));
        assert!(!q.has_pending_row_hit(other_bank));
        let flat = |a: DramAddress| q.indexer.flat(a.bank);
        assert_eq!(q.bank_counts()[flat(other_row)], 1);
        assert_eq!(q.bank_counts()[flat(other_bank)], 0);
    }

    #[test]
    fn occupancy_statistics() {
        let mut q = queue(4);
        q.sample_occupancy();
        q.push(entry(1, 0, 0, 0, 0));
        q.push(entry(2, 32, 0, 0, 0));
        q.sample_occupancy();
        assert_eq!(q.mean_occupancy(), 1.0);
        assert_eq!(q.peak_occupancy(), 2);
        assert_eq!(q.count_kind(RequestKind::Read), 2);
        assert_eq!(q.count_kind(RequestKind::Write), 0);
    }

    #[test]
    fn empty_queue_defaults() {
        let q = queue(1);
        assert!(q.is_empty());
        assert_eq!(q.mean_occupancy(), 0.0);
        assert_eq!(q.oldest_age(55), 0);
        assert!(q.oldest().is_none());
    }

    #[test]
    fn hot_arrays_track_entries_through_churn() {
        // Push/remove churn with arena-slot reuse: the packed bank/row
        // arrays, per-bank counts, and mask must stay aligned with the
        // arena-backed entries at every step.
        let mut q = queue(8);
        let check = |q: &RequestQueue| {
            let mut counts = vec![0u16; q.indexer.banks()];
            for (i, e) in q.iter().enumerate() {
                let flat = q.indexer.flat(e.dram.bank);
                assert_eq!(q.bank_at(i), flat);
                assert_eq!(q.row_at(i), e.dram.row);
                counts[flat] += 1;
            }
            assert_eq!(q.bank_counts(), counts.as_slice());
            for (w, word) in q.pending_mask_words().iter().enumerate() {
                for b in 0..64 {
                    let flat = w * 64 + b;
                    let expect = flat < counts.len() && counts[flat] > 0;
                    assert_eq!(word >> b & 1 == 1, expect, "mask bit {flat}");
                }
            }
        };
        for i in 0..6u64 {
            q.push(entry(i, i * 32, (i % 3) as u32, (i % 4) as u8, i));
            check(&q);
        }
        for _ in 0..3 {
            q.remove(1);
            check(&q);
        }
        for i in 6..10u64 {
            q.push(entry(i, i * 32, 9, (i % 2) as u8, i));
            check(&q);
        }
        while !q.is_empty() {
            q.remove(q.len() - 1);
            check(&q);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random sequences of every queue mutation, interleaved with a
        /// model of the row scan (park each due row-relevant entry past
        /// `now`, sometimes leaving one due as a refresh-reserved bank
        /// does, then record the idle scan): after every step a known
        /// row-scan floor must lower-bound every row-relevant entry's
        /// `act_ready_at`, and a skipped scan must have had no candidate.
        #[test]
        fn row_scan_floor_lower_bounds_every_row_relevant_entry(
            ops in proptest::prop::collection::vec((0u64..6, 0u64..64, 0u64..8), 1..200),
        ) {
            let mut q = queue(8);
            let mut now: Cycle = 1;
            for (step, &(op, a, b)) in ops.iter().enumerate() {
                let bank = (a % 4) as usize;
                let open = q.open_mask[0] >> bank & 1 == 1;
                match op {
                    0 => {
                        q.push(entry(step as u64, 0, (b % 3) as u32, bank as u8, now));
                    }
                    1 if !q.is_empty() => {
                        q.remove(a as usize % q.len());
                    }
                    2 if !open => q.note_act(bank, (b % 3) as u32),
                    3 if open => q.note_pre(bank),
                    4 if !q.is_empty() => {
                        let i = a as usize % q.len();
                        q.set_act_ready_hint(i, now.saturating_sub(b));
                    }
                    5 => {
                        let relevant = |q: &RequestQueue, i: usize| {
                            q.row_match[i] == 0 && q.keep_open[i] == 0
                        };
                        let due: Vec<usize> = (0..q.len())
                            .filter(|&i| relevant(&q, i) && q.act_ready_at[i] <= now)
                            .collect();
                        if q.row_scan_idle(now) {
                            proptest::prop_assert!(due.is_empty(), "skipped a scan with candidates");
                        } else {
                            for (k, &i) in due.iter().enumerate() {
                                if b != 7 || k != 0 {
                                    q.act_ready_at[i] = now + 1 + (a + k as u64) % 16;
                                }
                            }
                            q.note_row_scan_idle(now);
                        }
                    }
                    _ => {}
                }
                now += b % 3;
                let floor = q.row_scan_floor();
                if floor != 0 {
                    for i in 0..q.len() {
                        if q.row_match[i] == 0 && q.keep_open[i] == 0 {
                            proptest::prop_assert!(
                                floor <= q.act_ready_at[i],
                                "floor {} above entry {}'s bound {}", floor, i, q.act_ready_at[i]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ready_hints_follow_their_entry_positions() {
        let mut q = queue(4);
        q.push(entry(1, 0, 0, 0, 0));
        q.push(entry(2, 32, 1, 1, 0));
        q.push(entry(3, 64, 2, 2, 0));
        q.set_ready_hint(1, 500);
        q.set_act_ready_hint(2, 700);
        // Removing position 0 shifts the hints down with their entries.
        q.remove(0);
        assert_eq!(q.ready_hint(0), 500);
        assert_eq!(q.act_ready_hint(1), 700);
        assert_eq!(q.ready_hint(1), 0);
    }
}
