//! The conventional per-channel memory controller.
//!
//! This is the paper's baseline (§II-D): an FR-FCFS scheduler over CAM-style
//! read/write queues, per-bank state logic, an open-page policy, per-bank
//! refresh, and age-based anti-starvation. Every DRAM command it emits is
//! validated by the cycle-accurate [`rome_hbm::HbmChannel`] model, so
//! illegal schedules cannot silently inflate bandwidth.

use serde::{Deserialize, Serialize};

use rome_engine::trace::{FlightRecorder, TraceBuffer, TraceConfig, TraceEvent, TraceEventKind};
use rome_engine::{CompletionQueue, EventHorizon};
use rome_hbm::address::BankAddress;
use rome_hbm::channel::HbmChannel;
use rome_hbm::command::{CommandTarget, DramCommand};
use rome_hbm::organization::Organization;
use rome_hbm::refresh::RefreshScheduler;
use rome_hbm::timing::TimingParams;
use rome_hbm::units::Cycle;

use crate::mapping::{AddressMapping, MappingScheme};
use crate::queue::{BankIndexer, QueueEntry, RequestQueue};
use crate::request::{CompletedRequest, MemoryRequest, RequestKind};
use crate::stats::ControllerStats;

/// Configuration of a conventional channel controller. The scheduling
/// policy is fixed to the paper's baseline: FR-FCFS, open page, per-bank
/// refresh.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// DRAM organization of the attached channel.
    pub organization: Organization,
    /// DRAM timing parameters.
    pub timing: TimingParams,
    /// Address mapping used when raw physical addresses are enqueued.
    pub mapping: MappingScheme,
    /// Read queue capacity (entries). The paper's baseline uses 64.
    pub read_queue_capacity: usize,
    /// Write queue capacity (entries).
    pub write_queue_capacity: usize,
    /// Age in ns after which the oldest request preempts row-hit-first
    /// scheduling (QoS / anti-starvation).
    pub starvation_threshold: Cycle,
    /// Write-queue occupancy at which the controller switches to draining
    /// writes.
    pub write_drain_high: usize,
    /// Write-queue occupancy at which the controller returns to serving
    /// reads.
    pub write_drain_low: usize,
}

impl ControllerConfig {
    /// Read- and write-queue capacity of [`ControllerConfig::hbm4_baseline`].
    pub const BASELINE_QUEUE_CAPACITY: usize = 64;

    /// The HBM4 baseline configuration used throughout the paper's
    /// evaluation: 64-entry queues, FR-FCFS, open page, per-bank refresh.
    pub fn hbm4_baseline() -> Self {
        let organization = Organization::hbm4();
        ControllerConfig {
            organization,
            timing: TimingParams::hbm4(),
            mapping: MappingScheme::hbm4_streaming(organization, 1),
            read_queue_capacity: Self::BASELINE_QUEUE_CAPACITY,
            write_queue_capacity: Self::BASELINE_QUEUE_CAPACITY,
            starvation_threshold: 2_000,
            write_drain_high: 48,
            write_drain_low: 16,
        }
    }

    /// Same as [`ControllerConfig::hbm4_baseline`] but with an explicit
    /// read/write queue capacity (used by the queue-depth experiment, §V-A).
    pub fn hbm4_with_queue_depth(depth: usize) -> Self {
        let mut cfg = ControllerConfig::hbm4_baseline();
        cfg.read_queue_capacity = depth;
        cfg.write_queue_capacity = depth;
        cfg.write_drain_high = (depth * 3 / 4).max(1);
        cfg.write_drain_low = depth / 4;
        cfg
    }
}

/// A conventional single-channel memory controller bound to a cycle-accurate
/// HBM channel model.
#[derive(Debug, Clone)]
pub struct ChannelController {
    config: ControllerConfig,
    channel: HbmChannel,
    read_queue: RequestQueue,
    write_queue: RequestQueue,
    /// In-flight data transfers in one FIFO per direction: a read completes
    /// `tCL + burst` after its RD and a write `tCWL + burst` after its WR,
    /// so each lane is already in completion order. Completions pop from the
    /// lane heads, and the next completion time is an O(1) look at them for
    /// [`ChannelController::next_event_at`].
    in_flight: CompletionQueue<QueueEntry>,
    refresh: Vec<RefreshScheduler>,
    /// Cached minimum of the refresh schedulers' `next_due` cycles, updated
    /// only when a refresh is acknowledged (the sole mutation that moves a
    /// due time). While it lies in the future it answers the refresh part of
    /// [`ChannelController::next_event_at`] with one comparison; once it is
    /// in the past (a refresh is due but postponed) the query falls back to
    /// the per-rank scan, which is the pre-calendar behaviour.
    refresh_due_min: Cycle,
    /// The controller's own per-bank state logic: open row per bank, indexed
    /// by the flat bank index.
    open_rows: Vec<Option<u32>>,
    /// Row-open bitmask over the flat bank index (bit `b & 63` of word
    /// `b >> 6`). Invariant: bit `b` set iff `open_rows[b].is_some()` —
    /// both are only mutated through
    /// [`ChannelController::set_open_row`] /
    /// [`ChannelController::clear_open_row`], so the column scan can
    /// test row-open state with one shift instead of loading an `Option`
    /// per entry.
    open_mask: Vec<u64>,
    /// Cached lower bound on the earliest cycle a PRE can issue, per flat
    /// bank index (0 = unknown). Same monotonicity argument as the queue's
    /// ready hints: PRE timing only moves later as commands are recorded,
    /// so a probed bound stays a valid lower bound forever and a
    /// tRAS-blocked bank is skipped with one comparison per scan instead of
    /// a CAM walk plus a constraint probe. A stale-but-valid bound at worst
    /// wakes the event driver early (a harmless spurious event).
    pre_ready: Vec<Cycle>,
    /// Cached lower bound on the earliest cycle an ACT can issue, per flat
    /// bank index (0 = unknown). Bank-scoped counterpart of the queues'
    /// per-entry ACT hints: when one entry's probe finds the bank blocked
    /// (tRC/tRP), every other queued entry on the same bank is blocked
    /// until the same cycle, so they skip without their own probes. Same
    /// monotonicity argument as `pre_ready`.
    act_ready: Vec<Cycle>,
    /// Cached lower bound on the earliest cycle a column command can issue,
    /// per command kind (`[0]` RD, `[1]` WR) and flat bank index (0 =
    /// unknown). A column command's earliest issue depends only on its kind
    /// and its bank, so one probe answers for every row-hit entry on the
    /// bank: the column scan parks the others on this bound instead of
    /// probing each, and probes again only once it expires. Same
    /// monotonicity argument as `pre_ready`.
    col_ready: [Vec<Cycle>; 2],
    /// Flat bank indexing shared with the queues' packed bank arrays.
    indexer: BankIndexer,
    write_drain: bool,
    /// A bank that has been precharged in preparation for an urgent refresh;
    /// the scheduler must not re-activate it until the refresh issues.
    refresh_reserved_bank: Option<BankAddress>,
    stats: ControllerStats,
    /// Sim-time flight recorder: disarmed (a compiled-in no-op) by default,
    /// armed by the drivers through
    /// [`rome_engine::MemoryController::set_trace`]. Recording is a derived
    /// observation — nothing the scheduler consults ever reads it — so an
    /// armed recorder cannot perturb the command schedule.
    trace: FlightRecorder,
    /// Cycle each bank's current row was activated, indexed by flat bank.
    /// Maintained only while the recorder runs at `commands` verbosity; it
    /// feeds the `row_open` span emitted when the row closes.
    act_at: Vec<Cycle>,
    /// Earliest future cycle at which a command the scheduler wanted to
    /// issue this tick becomes timing-legal. Only complete after a tick that
    /// issued nothing: the refresh logic and the starved column probe
    /// record it inline as a byproduct of their failed attempts, while the
    /// two-phase scans leave every blocked bound in the queue's packed
    /// arrays and the tick reads the minimum back once it has issued nothing
    /// (see [`ChannelController::hint_from_parked_bounds`]).
    event_hint: Cycle,
}

impl ChannelController {
    /// Create a controller from its configuration.
    pub fn new(config: ControllerConfig) -> Self {
        let org = config.organization;
        let channel = HbmChannel::new(org, config.timing);
        let ranks = (org.pseudo_channels as usize) * (org.stack_ids as usize);
        let banks_per_rank = (org.bank_groups * org.banks_per_group) as u32;
        let refresh: Vec<RefreshScheduler> = (0..ranks)
            .map(|_| RefreshScheduler::new(&config.timing, banks_per_rank))
            .collect();
        let refresh_due_min = refresh
            .iter()
            .map(RefreshScheduler::next_due)
            .min()
            .unwrap_or(Cycle::MAX);
        let indexer = BankIndexer::new(&org);
        let banks = org.banks_per_channel() as usize;
        ChannelController {
            read_queue: RequestQueue::new(config.read_queue_capacity, indexer),
            write_queue: RequestQueue::new(config.write_queue_capacity, indexer),
            in_flight: CompletionQueue::new(),
            refresh,
            refresh_due_min,
            open_rows: vec![None; banks],
            open_mask: vec![0; banks.div_ceil(64)],
            pre_ready: vec![0; banks],
            act_ready: vec![0; banks],
            col_ready: [vec![0; banks], vec![0; banks]],
            indexer,
            write_drain: false,
            refresh_reserved_bank: None,
            stats: ControllerStats::new(),
            trace: FlightRecorder::disabled(),
            act_at: vec![0; banks],
            event_hint: Cycle::MAX,
            channel,
            config,
        }
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Record `row` as open in `open_rows` and the row-open mask (the only
    /// writer besides [`ChannelController::clear_open_row`], which keeps the
    /// mask invariant structural). Both queues refresh their per-entry
    /// row-match flags and open-row-hit counts here — the single row-state
    /// mutation point — so the scans can test "row hit" and "does a queued
    /// entry still want the open row" in O(1).
    #[inline]
    fn set_open_row(&mut self, idx: usize, row: u32) {
        self.open_rows[idx] = Some(row);
        self.open_mask[idx >> 6] |= 1 << (idx & 63);
        self.read_queue.note_act(idx, row);
        self.write_queue.note_act(idx, row);
    }

    /// Clear the open row in `open_rows` and the row-open mask.
    #[inline]
    fn clear_open_row(&mut self, idx: usize) {
        self.open_rows[idx] = None;
        self.open_mask[idx >> 6] &= !(1 << (idx & 63));
        self.read_queue.note_pre(idx);
        self.write_queue.note_pre(idx);
    }

    /// Record the close of a bank's row-open window — ACT at `act_at[idx]`,
    /// closed at `now` — when the recorder runs at `commands` verbosity.
    /// Must be called *before* [`ChannelController::clear_open_row`], which
    /// forgets which row was open.
    #[inline]
    fn trace_row_close(&mut self, idx: usize, now: Cycle) {
        if self.trace.commands() {
            let opened = self.act_at[idx];
            self.trace.record(TraceEvent {
                bank: idx as u32,
                row: self.open_rows[idx].unwrap_or(0),
                dur: now.saturating_sub(opened),
                ..TraceEvent::at(TraceEventKind::RowOpen, opened)
            });
        }
    }

    /// The controller statistics accumulated so far.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The underlying channel model (for command/energy counters).
    pub fn channel(&self) -> &HbmChannel {
        &self.channel
    }

    /// Whether the controller has no pending or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.read_queue.is_empty() && self.write_queue.is_empty() && self.in_flight.is_empty()
    }

    /// Number of free read-queue slots.
    pub fn read_slots_free(&self) -> usize {
        self.read_queue.capacity() - self.read_queue.len()
    }

    /// Number of free write-queue slots.
    pub fn write_slots_free(&self) -> usize {
        self.write_queue.capacity() - self.write_queue.len()
    }

    /// Total free queue slots across both queues. Admission is still
    /// per-kind ([`ChannelController::read_slots_free`] /
    /// [`ChannelController::write_slots_free`]); this combined count mirrors
    /// `RomeController::slots_free` so both controllers satisfy
    /// [`rome_engine::MemoryController`] uniformly.
    pub fn slots_free(&self) -> usize {
        self.read_slots_free() + self.write_slots_free()
    }

    /// Enqueue a request given as a raw physical address, using the
    /// controller's own address mapping. Returns `false` if the relevant
    /// queue is full.
    pub fn enqueue(&mut self, request: MemoryRequest) -> bool {
        let dram = self.config.mapping.map(request.address);
        self.enqueue_mapped(QueueEntry { request, dram })
    }

    /// Enqueue a request whose DRAM coordinates were already decoded (used by
    /// the multi-channel memory system). Returns `false` if the queue is
    /// full.
    pub fn enqueue_mapped(&mut self, entry: QueueEntry) -> bool {
        let ok = match entry.request.kind {
            RequestKind::Read => self.read_queue.push(entry),
            RequestKind::Write => self.write_queue.push(entry),
        };
        if ok && self.trace.enabled() {
            let req = entry.request;
            let idx = self.bank_index(entry.dram.bank);
            self.trace.record(TraceEvent {
                id: req.id.0,
                bank: idx as u32,
                row: entry.dram.row,
                bytes: req.bytes,
                write: !req.kind.is_read(),
                ..TraceEvent::at(TraceEventKind::Enqueue, req.arrival)
            });
        }
        ok
    }

    fn bank_index(&self, bank: BankAddress) -> usize {
        self.indexer.flat(bank)
    }

    fn rank_index(&self, bank: BankAddress) -> usize {
        bank.pseudo_channel as usize * self.config.organization.stack_ids as usize
            + bank.stack_id as usize
    }

    /// Advance the controller by one nanosecond, returning any requests whose
    /// data transfer completed at or before `now`.
    ///
    /// Allocates a fresh completion vector per call; hot loops should prefer
    /// [`ChannelController::tick_into`] with a reused buffer.
    pub fn tick(&mut self, now: Cycle) -> Vec<CompletedRequest> {
        let mut completed = Vec::new();
        self.tick_into(now, &mut completed);
        completed
    }

    /// Advance the controller by one nanosecond, appending any requests whose
    /// data transfer completed at or before `now` to `completed`. Returns
    /// `true` if any DRAM command (row, column, or refresh) was issued.
    ///
    /// The controller may issue at most one row command (ACT/PRE/REF) and one
    /// column command (RD/WR) per pseudo channel per call, matching the
    /// separate row/column C/A buses of HBM.
    pub fn tick_into(&mut self, now: Cycle, completed: &mut Vec<CompletedRequest>) -> bool {
        self.stats.total_cycles += 1;
        self.read_queue.sample_occupancy();
        self.write_queue.sample_occupancy();
        self.event_hint = Cycle::MAX;

        self.collect_completions_into(now, completed);

        let had_work = !self.read_queue.is_empty() || !self.write_queue.is_empty();

        // Refresh has priority on the row bus; otherwise the scheduler may
        // use it for ACT/PRE below. The row and column C/A buses are
        // separate, so one row command and one column command may issue in
        // the same nanosecond.
        let issued_refresh = self.try_issue_refresh(now);

        self.update_write_drain();

        // The C/A bus runs fast enough to address both pseudo channels every
        // nanosecond, so up to one column and one row command per PC may be
        // issued per tick; per-PC tCCD/tRRD constraints prevent over-issue to
        // a single PC.
        let mut issued_col = false;
        for _ in 0..self.config.organization.pseudo_channels {
            if self.schedule_column(now) {
                issued_col = true;
            } else {
                break;
            }
        }
        let mut issued_row = false;
        if !issued_refresh {
            for _ in 0..self.config.organization.pseudo_channels {
                if self.schedule_row(now) {
                    issued_row = true;
                } else {
                    break;
                }
            }
        }

        if had_work && !issued_col && !issued_row && !issued_refresh {
            self.stats.stall_cycles += 1;
        } else if !had_work && self.in_flight.is_empty() {
            self.stats.idle_cycles += 1;
        }

        self.stats.mean_queue_occupancy = self.read_queue.mean_occupancy();
        self.stats.peak_queue_occupancy = self
            .stats
            .peak_queue_occupancy
            .max(self.read_queue.peak_occupancy());
        self.stats.dram = *self.channel.counters();
        let issued = issued_col || issued_row || issued_refresh;
        if !issued {
            self.hint_from_parked_bounds(now);
        }
        issued
    }

    /// The next cycle strictly after `now` at which this controller's state
    /// can change on its own: a data transfer completing, a refresh becoming
    /// due (or, if pending, becoming urgent or issuable), a queued request's
    /// next command becoming timing-legal, or the oldest request crossing
    /// the starvation threshold. `None` when the controller is fully idle
    /// and no refresh is pending.
    ///
    /// Must be called immediately after a [`ChannelController::tick_into`]
    /// at the same `now` that issued nothing: the scheduling-derived part of
    /// the answer (`event_hint`) is computed at the end of that tick, from
    /// the bounds its failed issue attempts stored, which makes this query
    /// cheap. A tick that issues a command skips that work, since the
    /// event-driven drivers advance one cycle after it without asking. The
    /// returned cycle is a *lower bound* on the next state change — an
    /// event-driven driver that
    /// ticks at every reported cycle executes the exact command schedule of
    /// a cycle-by-cycle driver, because nothing the scheduler consults
    /// changes between the reported cycles. Spurious events (a reported
    /// cycle where the scheduler still issues nothing) are harmless.
    ///
    /// The query is O(1) on the hot path: the scheduler's part is the
    /// precomputed `event_hint`, the in-flight part compares the heads of
    /// the read and write completion lanes, the refresh part is the cached
    /// minimum refresh due time (with an O(ranks) fallback only while a due
    /// refresh is postponed), and the starvation part looks at each queue's
    /// head.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon = EventHorizon::new(now);

        if self.event_hint != Cycle::MAX {
            horizon.consider(self.event_hint);
        }

        // Only the earliest in-flight completion can be the next event.
        horizon.consider_opt(self.in_flight.next_at());

        // Refreshes not yet due wake the scheduler when they become due;
        // pending ones already recorded their issuability into the hint.
        if self.refresh_due_min > now {
            // No scheduler is due, so the cached minimum IS the earliest
            // refresh wakeup.
            horizon.consider(self.refresh_due_min);
        } else {
            for sched in &self.refresh {
                if !sched.due(now) {
                    horizon.consider(sched.next_due());
                }
            }
        }

        for queue in [&self.read_queue, &self.write_queue] {
            if let Some(oldest) = queue.oldest() {
                // Crossing the starvation threshold changes the scheduling
                // policy even when no timing constraint expires.
                horizon.consider(oldest.request.arrival + self.config.starvation_threshold + 1);
            }
        }

        horizon.earliest()
    }

    /// Refresh the cached minimum refresh due time after an acknowledge
    /// moved one scheduler's `next_due` forward.
    fn note_refresh_acknowledged(&mut self) {
        self.refresh_due_min = self
            .refresh
            .iter()
            .map(RefreshScheduler::next_due)
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Record a future cycle at which a command the scheduler wanted this
    /// tick becomes issuable.
    fn hint_event(&mut self, at: Cycle) {
        if at < self.event_hint {
            self.event_hint = at;
        }
    }

    /// Whether the active queue's oldest request has waited past the
    /// starvation threshold, which switches the column scan to serving it
    /// first.
    fn starved(&self, now: Cycle) -> bool {
        self.active_queue().oldest_age(now) > self.config.starvation_threshold
    }

    /// Complete `event_hint` after a tick that issued nothing. The
    /// two-phase scans keep no running hint: every entry they find blocked
    /// either already holds a future bound or gets one stored (in
    /// `ready_at` by the column scan, in `act_ready_at` by the row scan),
    /// so the minimum future bound over the entries each scan considers is
    /// exactly the hint the scans would have accumulated. The column part
    /// applies only when the column scan ran in its two-phase form; the
    /// starved probe of the oldest entry records its hint inline. The row
    /// part covers the row-relevant entries: not a row hit and not on a bank
    /// whose open row a queued entry still wants.
    fn hint_from_parked_bounds(&mut self, now: Cycle) {
        let two_phase_column = !self.starved(now);
        let queue = self.active_queue();
        let mut hint = queue.earliest_row_park_after(now);
        if two_phase_column {
            hint = hint.min(queue.earliest_column_ready_after(now));
        }
        self.hint_event(hint);
    }

    fn collect_completions_into(&mut self, now: Cycle, done: &mut Vec<CompletedRequest>) {
        // The lanes are in completion order, so only due transfers are ever
        // touched — no scan over the rest of the in-flight set.
        while let Some((data_complete_at, entry)) = self.in_flight.pop_due(now) {
            let req = entry.request;
            let completed = CompletedRequest {
                id: req.id,
                kind: req.kind,
                bytes: req.bytes,
                arrival: req.arrival,
                completed: data_complete_at,
            };
            match req.kind {
                RequestKind::Read => {
                    self.stats.reads_completed += 1;
                    self.stats.bytes_read += req.bytes;
                    self.stats.total_read_latency += completed.latency();
                    self.stats.max_read_latency =
                        self.stats.max_read_latency.max(completed.latency());
                }
                RequestKind::Write => {
                    self.stats.writes_completed += 1;
                    self.stats.bytes_written += req.bytes;
                }
            }
            if self.trace.enabled() {
                let idx = self.bank_index(entry.dram.bank);
                self.trace.record(TraceEvent {
                    id: req.id.0,
                    bank: idx as u32,
                    row: entry.dram.row,
                    bytes: req.bytes,
                    dur: completed.latency(),
                    write: !req.kind.is_read(),
                    ..TraceEvent::at(TraceEventKind::Complete, req.arrival)
                });
            }
            done.push(completed);
        }
    }

    fn update_write_drain(&mut self) {
        if self.write_queue.len() >= self.config.write_drain_high
            || (self.read_queue.is_empty() && !self.write_queue.is_empty())
        {
            self.write_drain = true;
        }
        if self.write_drain
            && (self.write_queue.len() <= self.config.write_drain_low
                || self.write_queue.is_empty())
            && !self.read_queue.is_empty()
        {
            self.write_drain = false;
        }
    }

    fn try_issue_refresh(&mut self, now: Cycle) -> bool {
        // O(1) fast path: `refresh_due_min` caches the earliest `next_due`
        // across ranks, so one comparison answers "is any rank due?". When
        // none is, the rank scan below is a pure no-op.
        if self.refresh_due_min > now {
            return false;
        }
        let org = self.config.organization;
        for pc in 0..org.pseudo_channels {
            for sid in 0..org.stack_ids {
                let rank = self.rank_index(BankAddress::new(pc, sid, 0, 0));
                if !self.refresh[rank].due(now) {
                    continue;
                }
                let urgent = self.refresh[rank].urgent(now);
                // The bank next in rotation (consumed only when its REFpb
                // issues).
                let next = self.refresh[rank].next_bank();
                let bg = (next / u32::from(org.banks_per_group)) as u8;
                let ba = (next % u32::from(org.banks_per_group)) as u8;
                let bank = BankAddress::new(pc, sid, bg, ba);
                let target = CommandTarget::from_bank_address(bank);
                let idx = self.bank_index(bank);
                // Postpone a non-urgent refresh while requests are pending
                // for this bank (the paper's "optionally postponing REFs
                // based on each bank's state"), answered by the queues'
                // per-bank counts.
                if !urgent
                    && (self.read_queue.bank_counts()[idx] > 0
                        || self.write_queue.bank_counts()[idx] > 0)
                {
                    // Postponed until the bank drains or the refresh
                    // becomes urgent.
                    self.hint_event(self.refresh[rank].urgent_at());
                    continue;
                }
                // If the bank has an open row, it must be precharged first;
                // only force this when the refresh is urgent, otherwise wait
                // for the scheduler to drain it.
                if self.open_rows[idx].is_some() {
                    if urgent {
                        let pre = DramCommand::Pre { target };
                        if self.channel.can_issue(&pre, now) {
                            self.channel.issue(pre, now).expect("checked");
                            self.trace_row_close(idx, now);
                            self.clear_open_row(idx);
                            // Keep the bank closed until the refresh actually
                            // issues.
                            self.refresh_reserved_bank = Some(bank);
                            return true;
                        }
                        self.hint_event(self.channel.earliest_issue(&pre, now + 1));
                    } else {
                        self.hint_event(self.refresh[rank].urgent_at());
                    }
                    continue;
                }
                let refpb = DramCommand::RefPerBank { target };
                if self.channel.can_issue(&refpb, now) {
                    self.channel.issue(refpb, now).expect("checked");
                    self.refresh[rank].acknowledge();
                    self.note_refresh_acknowledged();
                    self.stats.refreshes_issued += 1;
                    if self.trace.commands() {
                        self.trace.record(TraceEvent {
                            bank: idx as u32,
                            dur: self.config.timing.t_rfc_pb as u64,
                            ..TraceEvent::at(TraceEventKind::Refresh, now)
                        });
                    }
                    if self.refresh_reserved_bank == Some(bank) {
                        self.refresh_reserved_bank = None;
                    }
                    return true;
                }
                self.hint_event(self.channel.earliest_issue(&refpb, now + 1));
                if urgent && self.refresh_reserved_bank.is_none() {
                    // Reserve the idle bank so the scheduler cannot open a
                    // row in it before the refresh becomes timing-legal.
                    self.refresh_reserved_bank = Some(bank);
                }
            }
        }
        false
    }

    fn active_queue(&self) -> &RequestQueue {
        if self.write_drain {
            &self.write_queue
        } else {
            &self.read_queue
        }
    }

    /// Try to issue a column command (RD/WR) for the active queue. Returns
    /// `true` if a command was issued.
    fn schedule_column(&mut self, now: Cycle) -> bool {
        let is_write_phase = self.write_drain;
        let starved = self.starved(now);
        #[cfg(test)]
        let expected = self.reference_column_pick(now);

        // Pick the oldest entry whose row is open and whose column command is
        // issuable now. The scan walks plain slices of the queue's packed
        // arrays (one `scan_view` split-borrow, so the base pointers and
        // bounds stay in registers), row-match flags included; the 64-byte
        // entry payload is only loaded for an entry that reaches the
        // earliest-issue probe.
        //
        // Stored bounds: a bound computed for a blocked entry is kept in
        // `ready_at`, and the entry is skipped with one comparison on later
        // scans until the bound's cycle arrives. Timing constraints are
        // monotone — issuing commands only pushes earliest-issue times later
        // — so a stored bound stays a valid lower bound for the entry's
        // lifetime and the scan picks exactly the entry a from-scratch probe
        // of every entry would; at worst a stale bound wakes the event-driven
        // driver a few cycles early (a harmless spurious event).
        let (candidate, hint) = {
            let ChannelController {
                channel,
                col_ready,
                read_queue,
                write_queue,
                ..
            } = self;
            let queue = if is_write_phase {
                &mut *write_queue
            } else {
                &mut *read_queue
            };
            let crate::queue::ScanView {
                ready_at,
                bank,
                row_match,
                entries,
                ..
            } = queue.scan_view();
            let n = bank.len();
            let ready_at = &mut ready_at[..n];
            let row_match = &row_match[..n];
            let mut found: Option<usize> = None;
            let mut hint = Cycle::MAX;
            if !starved {
                // Two-phase blocked scan. Phase 1 is a branchless sweep
                // over one `PREPASS_BLOCK` of entries that collects the
                // entries needing real work — expired bound AND open
                // row match — into a per-block bitmask (a branchless
                // shift-or, so the randomly open/closed banks cost no
                // branch mispredicts). Phase 2 runs the per-bank
                // `col_ready` bound and the earliest-issue probes over the
                // (few) candidates in age order — identical decisions to a
                // one-pass walk. Sweeping block-by-block keeps that walk's
                // early exit: an issuing tick stops within one block of the
                // entry it picks. Every blocked candidate stores its bound
                // in `ready_at`, so the scan keeps no wakeup hint: a tick
                // that issues nothing reads the minimum back from the
                // stored bounds.
                //
                // A candidate whose bank bound lies in the future is
                // parked on it without a probe. The entry whose probe set
                // that bound still holds it in `ready_at` (only an
                // expired bound is ever overwritten, and no entry issues
                // before its bound), so the stored minimum — the hint —
                // is the same as if every candidate had been probed.
                let col_ready = &mut col_ready[is_write_phase as usize];
                let mut base = 0usize;
                'col: while base < n {
                    let end = (base + PREPASS_BLOCK).min(n);
                    let mut cand_mask: u32 = 0;
                    for i in base..end {
                        cand_mask |=
                            (((ready_at[i] <= now) & (row_match[i] == 1)) as u32) << (i - base);
                    }
                    let block = base;
                    base = end;
                    while cand_mask != 0 {
                        let i = block + cand_mask.trailing_zeros() as usize;
                        cand_mask &= cand_mask - 1;
                        let b = bank[i] as usize;
                        if col_ready[b] > now {
                            ready_at[i] = col_ready[b];
                            continue;
                        }
                        let e = entries.entry(i);
                        let probe = column_command(e);
                        let at = channel.earliest_issue(&probe, now);
                        if at <= now {
                            found = Some(i);
                            break 'col;
                        }
                        ready_at[i] = at;
                        col_ready[b] = at;
                    }
                }
            } else {
                // Starved: only the oldest entry may issue (an empty queue
                // is never starved). It is probed like a two-phase
                // candidate, but without the per-bank bound, and its
                // wakeup hint is recorded inline.
                if ready_at[0] > now {
                    hint = ready_at[0];
                } else if row_match[0] == 1 {
                    let at = channel.earliest_issue(&column_command(entries.entry(0)), now);
                    if at <= now {
                        found = Some(0);
                    } else {
                        hint = at;
                        ready_at[0] = at;
                    }
                }
            }
            (found, hint)
        };
        #[cfg(test)]
        assert_eq!(
            candidate, expected,
            "column pick diverged from the reference at {now}"
        );
        if hint != Cycle::MAX {
            self.hint_event(hint);
        }

        let Some(index) = candidate else { return false };
        let queue = if is_write_phase {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        };
        let entry = queue.remove(index).expect("candidate index valid");
        let idx = self.indexer.flat(entry.dram.bank);
        let result = self
            .channel
            .issue(column_command(&entry), now)
            .expect("probed via earliest_issue");
        if self.trace.commands() {
            self.trace.record(TraceEvent {
                id: entry.request.id.0,
                bank: idx as u32,
                row: entry.dram.row,
                bytes: entry.request.bytes,
                write: is_write_phase,
                ..TraceEvent::at(TraceEventKind::Issue, now)
            });
        }
        self.stats.row_hits += 1;
        self.in_flight.push(
            entry.request.kind,
            result.data_complete_at.unwrap_or(now),
            entry,
        );
        true
    }

    /// Try to issue a row command (ACT or PRE) that makes progress for the
    /// active queue. Returns `true` if a command was issued.
    fn schedule_row(&mut self, now: Cycle) -> bool {
        #[cfg(test)]
        let expected = self.reference_row_action(now);
        let action = {
            let ChannelController {
                channel,
                open_rows,
                open_mask,
                pre_ready,
                act_ready,
                indexer,
                read_queue,
                write_queue,
                refresh_reserved_bank,
                write_drain,
                ..
            } = self;
            let queue = if *write_drain {
                &mut *write_queue
            } else {
                &mut *read_queue
            };
            if queue.row_scan_idle(now) {
                // Every row-relevant entry is parked past `now` (the
                // queue's row-scan floor), so the pre-pass below would
                // find no candidate: the scan would issue nothing, store
                // no bound and leave the wakeup hint as it is.
                None
            } else {
                // Scan over the packed bank array and the row-open bitmask.
                // The refresh-reserved comparison uses flat indices (the
                // flat index is injective, so flat equality is bank-address
                // equality), and the entry payload is only loaded once an
                // entry survives the reserved / mask / cached-bound gates.
                let reserved: Option<usize> = refresh_reserved_bank.map(|b| indexer.flat(b));
                // Lazy per-rank ACT-bound cache: `rank_act_bound` depends
                // only on the rank (tRRD window max tFAW window — no `now`,
                // no per-bank state), so within one scan every entry on the
                // same rank sees the same bound. Probing the constraint
                // engine once per distinct rank instead of once per entry is
                // the scan's biggest saving on dense queues.
                const MAX_GATED_RANKS: usize = 16;
                let mut rank_bounds = [Cycle::MAX; MAX_GATED_RANKS];
                let mut rank_known: u32 = 0;
                let mut rank_blocked: u32 = 0;
                let gate_ranks = indexer.ranks() <= MAX_GATED_RANKS;
                let all_ranks_mask: u32 = if gate_ranks {
                    (1u32 << indexer.ranks()) - 1
                } else {
                    u32::MAX
                };
                let crate::queue::ScanView {
                    act_ready_at,
                    bank,
                    row_match,
                    keep_open,
                    entries,
                    ..
                } = queue.scan_view();
                let n = bank.len();
                let act_ready_at = &mut act_ready_at[..n];
                let row_match = &row_match[..n];
                let keep_open = &keep_open[..n];
                let mut act: Option<(usize, u32, BankAddress)> = None;
                let mut pre: Option<BankAddress> = None;
                // Two-phase blocked scan. The pre-pass needs only three
                // position-indexed loads per entry (no per-bank gathers, no
                // data-dependent branches): an entry is *relevant* unless it
                // is a row hit (`row_match` — a column candidate, not a row
                // one) or pinned by the open-page rule (`keep_open` — its
                // bank's open row is still wanted, so the entry can neither
                // activate nor precharge it). A relevant entry whose park
                // bound (`act_ready_at`) lies in the future is retired;
                // survivors land in a per-block bitmask for the full
                // scheduling body below, and each one found blocked stores its
                // bound in `act_ready_at`. The scan therefore keeps no wakeup
                // hint: a tick that issues nothing reads the minimum future
                // park bound of the relevant entries back, which is what the
                // scan would have accumulated. `act_ready_at` doubles as a
                // unified park bound: a cached ACT bound while the bank is
                // closed, a cached PRE bound while it is open. A bound cached
                // under one polarity stays valid across a flip — any PRE to
                // the bank must trail the ACT that opened it (tRAS) and any
                // ACT must trail the PRE that closed it (tRP), so the old
                // bound still lower-bounds the entry's next possible row
                // action. Sweeping block-by-block keeps a one-pass walk's
                // early exit: an ACT-issuing tick stops within one block of
                // the entry it picks. Parked reserved-bank entries may add a
                // spurious-but-valid extra hint, which at worst wakes the
                // event driver early.
                let mut base = 0usize;
                'row: while base < n {
                    // Once a PRE candidate is chosen and every rank is
                    // known ACT-blocked, no later entry can produce the
                    // higher-priority ACT: the scan's outcome is decided
                    // (the tick will issue the PRE, so no wakeup hint is
                    // needed) and the tail of the walk is skipped.
                    if pre.is_some() && rank_blocked == all_ranks_mask {
                        break;
                    }
                    let end = (base + PREPASS_BLOCK).min(n);
                    let mut cand_mask: u32 = 0;
                    for i in base..end {
                        let relevant = (row_match[i] == 0) & (keep_open[i] == 0);
                        cand_mask |= ((relevant & (act_ready_at[i] <= now)) as u32) << (i - base);
                    }
                    let block = base;
                    base = end;
                    while cand_mask != 0 {
                        let i = block + cand_mask.trailing_zeros() as usize;
                        cand_mask &= cand_mask - 1;
                        let b = bank[i] as usize;
                        if reserved == Some(b) {
                            continue;
                        }
                        if open_mask[b >> 6] >> (b & 63) & 1 == 0 {
                            if act.is_none() {
                                // Bank-level ACT bound cached by an earlier
                                // probe (possibly for a different entry on
                                // the same bank): valid for this entry too,
                                // so memoize it per entry and skip both the
                                // rank gate and the probe. Checking the bank
                                // bound first is decision-equivalent (the
                                // entry reaches the probe iff neither bound
                                // lies in the future) and keeps the rank
                                // computation — an integer divide by the
                                // runtime bank-per-rank count — off the
                                // common bank-parked path.
                                let bank_bound = act_ready[b];
                                if bank_bound > now {
                                    act_ready_at[i] = bank_bound;
                                    continue;
                                }
                                let rank_bound = if gate_ranks {
                                    let r = indexer.rank_of(b);
                                    if rank_known & (1 << r) == 0 {
                                        let bound = channel.rank_act_bound(indexer.rank_address(b));
                                        rank_bounds[r] = bound;
                                        rank_known |= 1 << r;
                                        if bound > now {
                                            rank_blocked |= 1 << r;
                                        }
                                    }
                                    rank_bounds[r]
                                } else {
                                    channel.rank_act_bound(indexer.rank_address(b))
                                };
                                if rank_bound > now {
                                    act_ready_at[i] = rank_bound;
                                } else {
                                    let dram = entries.entry(i).dram;
                                    let cmd = DramCommand::Act {
                                        target: CommandTarget::from_bank_address(dram.bank),
                                        row: dram.row,
                                    };
                                    let at = channel.earliest_issue(&cmd, now);
                                    if at <= now && channel.can_issue(&cmd, now) {
                                        act = Some((i, dram.row, dram.bank));
                                    } else {
                                        let at = at.max(now + 1);
                                        act_ready_at[i] = at;
                                        act_ready[b] = at;
                                    }
                                }
                            }
                        } else {
                            // Pre-pass candidates on the open arm already
                            // satisfy the open-page rule: the entry's
                            // row mismatches the open one and no queued
                            // entry still wants it (`hits_open == 0`), so
                            // only the timing probe remains. Cross-scan
                            // bank-level `pre_ready` bound: while it lies
                            // in the future the bank cannot precharge, so
                            // one comparison covers the whole blocked
                            // window (and catches a same-scan duplicate
                            // candidate on the same bank).
                            if pre.is_none() {
                                let cached = pre_ready[b];
                                if cached > now {
                                    // Park this entry on the bank bound so
                                    // the pre-pass retires it until the
                                    // bound expires.
                                    act_ready_at[i] = cached;
                                } else {
                                    let dram = entries.entry(i).dram;
                                    debug_assert!({
                                        let open =
                                            open_rows[b].expect("mask bit set implies open row");
                                        open != dram.row
                                            && !entries.has_pending_row_hit(
                                                rome_hbm::address::DramAddress {
                                                    channel: dram.channel,
                                                    bank: dram.bank,
                                                    row: open,
                                                    column: 0,
                                                },
                                            )
                                    });
                                    let cmd = DramCommand::Pre {
                                        target: CommandTarget::from_bank_address(dram.bank),
                                    };
                                    let at = channel.earliest_issue(&cmd, now);
                                    if at <= now {
                                        pre = Some(dram.bank);
                                    } else {
                                        pre_ready[b] = at;
                                        act_ready_at[i] = at;
                                    }
                                }
                            }
                        }
                        if act.is_some() {
                            break 'row;
                        }
                    }
                }
                let action = if let Some((index, row, _bank)) = act {
                    Some(RowAction::Act { index, row })
                } else {
                    pre.map(|bank| RowAction::Pre { bank })
                };
                if action.is_none() {
                    // Every candidate now holds a bound past `now` (unless
                    // its bank is reserved for a refresh): later scans can
                    // skip until the earliest bound arrives or the queue
                    // resets the floor.
                    queue.note_row_scan_idle(now);
                }
                action
            }
        };
        #[cfg(test)]
        assert_eq!(
            action, expected,
            "row action diverged from the reference at {now}"
        );

        match action {
            Some(RowAction::Act { index, row }) => {
                let bank = {
                    let queue = self.active_queue();
                    queue.get(index).expect("index valid").dram.bank
                };
                let cmd = DramCommand::Act {
                    target: CommandTarget::from_bank_address(bank),
                    row,
                };
                self.channel.issue(cmd, now).expect("checked");
                let idx = self.bank_index(bank);
                if self.trace.commands() {
                    self.act_at[idx] = now;
                }
                self.set_open_row(idx, row);
                self.stats.row_misses += 1;
                true
            }
            Some(RowAction::Pre { bank }) => {
                let cmd = DramCommand::Pre {
                    target: CommandTarget::from_bank_address(bank),
                };
                self.channel.issue(cmd, now).expect("checked");
                let idx = self.bank_index(bank);
                self.trace_row_close(idx, now);
                self.clear_open_row(idx);
                self.stats.row_conflicts += 1;
                true
            }
            None => false,
        }
    }

    /// From-scratch reference for the column pick: the oldest active-queue
    /// entry whose row is open and whose column command the constraint
    /// engine allows now. It walks the entries themselves and uses no
    /// packed arrays, stored bounds or hints. A starved queue offers only
    /// its oldest entry. The crate's test build checks every
    /// `schedule_column` decision against it.
    #[cfg(test)]
    fn reference_column_pick(&self, now: Cycle) -> Option<usize> {
        let queue = self.active_queue();
        let considered = if self.starved(now) {
            queue.len().min(1)
        } else {
            queue.len()
        };
        queue.iter().take(considered).position(|e| {
            self.open_rows[self.indexer.flat(e.dram.bank)] == Some(e.dram.row)
                && self.channel.earliest_issue(&column_command(e), now) <= now
        })
    }

    /// From-scratch reference for the row action, walking the active queue
    /// oldest first and skipping a bank reserved for a refresh: the first
    /// entry on a closed bank whose ACT is legal now wins; failing that, the
    /// oldest entry whose bank holds another row, which no queued entry
    /// still wants and which may be precharged now, gives a PRE. Like
    /// [`ChannelController::reference_column_pick`] it uses no packed
    /// arrays, stored bounds or hints, and the crate's test build checks
    /// every `schedule_row` decision against it (the row-scan floor's skip
    /// included).
    #[cfg(test)]
    fn reference_row_action(&self, now: Cycle) -> Option<RowAction> {
        let queue = self.active_queue();
        let mut pre = None;
        for (index, e) in queue.iter().enumerate() {
            let bank = e.dram.bank;
            if self.refresh_reserved_bank == Some(bank) {
                continue;
            }
            let target = CommandTarget::from_bank_address(bank);
            match self.open_rows[self.indexer.flat(bank)] {
                None => {
                    let act = DramCommand::Act {
                        target,
                        row: e.dram.row,
                    };
                    if self.channel.can_issue(&act, now) {
                        return Some(RowAction::Act {
                            index,
                            row: e.dram.row,
                        });
                    }
                }
                Some(open) if open != e.dram.row && pre.is_none() => {
                    let wanted = queue.has_pending_row_hit(rome_hbm::address::DramAddress {
                        row: open,
                        ..e.dram
                    });
                    if !wanted
                        && self
                            .channel
                            .earliest_issue(&DramCommand::Pre { target }, now)
                            <= now
                    {
                        pre = Some(RowAction::Pre { bank });
                    }
                }
                _ => {}
            }
        }
        pre
    }
}

/// The row command a row scan chose: an ACT for the entry at `index`, or a
/// PRE of `bank`.
#[derive(Debug, PartialEq)]
enum RowAction {
    Act { index: usize, row: u32 },
    Pre { bank: BankAddress },
}

/// Block size for the two-phase (branchless pre-pass) scans. The
/// pre-pass sweeps one block at a time so an issuing tick still exits within
/// one block of the entry it picks, bounding the extra work versus a
/// straight one-pass walk to under a block per scan.
const PREPASS_BLOCK: usize = 32;

impl rome_engine::MemoryController for ChannelController {
    type Entry = QueueEntry;

    fn enqueue(&mut self, request: MemoryRequest) -> bool {
        ChannelController::enqueue(self, request)
    }

    fn enqueue_entry(&mut self, entry: QueueEntry) -> bool {
        self.enqueue_mapped(entry)
    }

    fn entry_kind(entry: &QueueEntry) -> RequestKind {
        entry.request.kind
    }

    fn tick_into(&mut self, now: Cycle, completed: &mut Vec<CompletedRequest>) -> bool {
        ChannelController::tick_into(self, now, completed)
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        ChannelController::next_event_at(self, now)
    }

    fn is_idle(&self) -> bool {
        ChannelController::is_idle(self)
    }

    fn slots_free(&self) -> usize {
        ChannelController::slots_free(self)
    }

    fn slots_free_for(&self, kind: RequestKind) -> usize {
        match kind {
            RequestKind::Read => self.read_slots_free(),
            RequestKind::Write => self.write_slots_free(),
        }
    }

    fn stats_snapshot(&self) -> rome_engine::StatsSnapshot {
        let s = self.stats();
        rome_engine::StatsSnapshot {
            bytes_read: s.bytes_read,
            bytes_written: s.bytes_written,
            // A cache-line-granularity controller moves exactly the useful
            // payload: no overfetch.
            bytes_transferred: s.bytes_total(),
            mean_read_latency: s.mean_read_latency(),
            row_hit_rate: s.row_hit_rate(),
            activates: s.dram.activates,
        }
    }

    fn set_trace(&mut self, config: TraceConfig) {
        self.trace.arm(config);
    }

    fn take_trace(&mut self) -> TraceBuffer {
        self.trace.harvest()
    }
}

/// The column command (RD or WR) serving `entry`. The baseline keeps rows
/// open, so it never auto-precharges.
fn column_command(entry: &QueueEntry) -> DramCommand {
    let target = CommandTarget::from_bank_address(entry.dram.bank);
    match entry.request.kind {
        RequestKind::Read => DramCommand::Rd {
            target,
            column: entry.dram.column,
            auto_precharge: false,
        },
        RequestKind::Write => DramCommand::Wr {
            target,
            column: entry.dram.column,
            auto_precharge: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use proptest::prelude::*;
    use rome_engine::simulate::{run_to_completion, run_with_budget};
    use rome_engine::{MemoryController, RunBudget};
    use rome_hbm::units::bytes_per_ns_to_gbps;

    fn controller() -> ChannelController {
        ChannelController::new(ControllerConfig::hbm4_baseline())
    }

    fn run_until_idle(
        ctrl: &mut ChannelController,
        max_ns: Cycle,
    ) -> (Vec<CompletedRequest>, Cycle) {
        let mut done = Vec::new();
        let mut now = 0;
        while !ctrl.is_idle() && now < max_ns {
            done.extend(ctrl.tick(now));
            now += 1;
        }
        (done, now)
    }

    #[test]
    fn single_read_completes_with_act_rd_latency() {
        let mut ctrl = controller();
        assert!(ctrl.enqueue(MemoryRequest::read(1, 0, 32, 0)));
        let (done, _) = run_until_idle(&mut ctrl, 10_000);
        assert_eq!(done.len(), 1);
        // Latency = ACT->RD (tRCD=16) + CAS latency (16) + burst (1), plus a
        // couple of scheduling cycles.
        let lat = done[0].latency();
        assert!(
            (33..=40).contains(&lat),
            "latency {lat} outside expected window"
        );
        assert_eq!(ctrl.stats().reads_completed, 1);
        assert_eq!(ctrl.stats().bytes_read, 32);
        assert_eq!(ctrl.stats().row_misses, 1);
    }

    #[test]
    fn single_write_completes() {
        let mut ctrl = controller();
        assert!(ctrl.enqueue(MemoryRequest::write(1, 64, 32, 0)));
        let (done, _) = run_until_idle(&mut ctrl, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, RequestKind::Write);
        assert_eq!(ctrl.stats().writes_completed, 1);
        assert_eq!(ctrl.stats().bytes_written, 32);
    }

    #[test]
    fn sequential_reads_exploit_row_hits() {
        let mut ctrl = controller();
        // 64 consecutive cache lines: with the single-channel streaming
        // mapping these spread over PCs/BGs/banks but revisit open rows.
        for i in 0..64u64 {
            assert!(ctrl.enqueue(MemoryRequest::read(i, i * 32, 32, 0)));
        }
        let (done, _) = run_until_idle(&mut ctrl, 100_000);
        assert_eq!(done.len(), 64);
        let s = ctrl.stats();
        assert_eq!(s.reads_completed, 64);
        assert_eq!(s.bytes_read, 64 * 32);
        // Far fewer activations than column accesses.
        assert!(s.dram.activates < 40, "activates = {}", s.dram.activates);
        assert!(s.row_hit_rate() > 0.4, "row hit rate {}", s.row_hit_rate());
    }

    #[test]
    fn streaming_reads_achieve_high_bus_utilization() {
        let mut ctrl = controller();
        let total: u64 = 512;
        let mut next = 0u64;
        let mut now = 0;
        let mut completed = 0u64;
        while completed < total && now < 200_000 {
            while next < total && ctrl.read_slots_free() > 0 {
                ctrl.enqueue(MemoryRequest::read(next, next * 32, 32, now));
                next += 1;
            }
            completed += ctrl.tick(now).len() as u64;
            now += 1;
        }
        assert_eq!(completed, total);
        let bytes = total * 32;
        let bw = bytes as f64 / now as f64;
        // Channel peak is 64 GB/s; a deep-queue FR-FCFS stream should reach
        // well over half of it once warmed up.
        assert!(
            bw > 32.0,
            "achieved bandwidth {bw:.1} GB/s too low (t={now})"
        );
    }

    #[test]
    fn queue_capacity_limits_acceptance() {
        let mut ctrl = ChannelController::new(ControllerConfig::hbm4_with_queue_depth(2));
        assert!(ctrl.enqueue(MemoryRequest::read(0, 0, 32, 0)));
        assert!(ctrl.enqueue(MemoryRequest::read(1, 32, 32, 0)));
        assert!(!ctrl.enqueue(MemoryRequest::read(2, 64, 32, 0)));
        assert_eq!(ctrl.read_slots_free(), 0);
        assert_eq!(ctrl.write_slots_free(), 2);
    }

    #[test]
    fn refresh_commands_are_issued_over_long_windows() {
        let mut ctrl = controller();
        // Idle controller for > tREFI_pb: refreshes must appear.
        for now in 0..20_000 {
            ctrl.tick(now);
        }
        assert!(ctrl.stats().refreshes_issued > 0);
        assert!(ctrl.channel().counters().refreshes_per_bank > 0);
    }

    #[test]
    fn write_drain_switches_modes() {
        let mut ctrl = controller();
        for i in 0..60u64 {
            ctrl.enqueue(MemoryRequest::write(i, i * 32, 32, 0));
        }
        let (done, _) = run_until_idle(&mut ctrl, 100_000);
        assert_eq!(done.len(), 60);
        assert_eq!(ctrl.stats().writes_completed, 60);
    }

    #[test]
    fn mixed_read_write_traffic_completes() {
        let mut ctrl = controller();
        for i in 0..32u64 {
            if i % 4 == 0 {
                ctrl.enqueue(MemoryRequest::write(i, 4096 + i * 32, 32, 0));
            } else {
                ctrl.enqueue(MemoryRequest::read(i, i * 32, 32, 0));
            }
        }
        let (done, _) = run_until_idle(&mut ctrl, 100_000);
        assert_eq!(done.len(), 32);
        assert_eq!(ctrl.stats().writes_completed, 8);
        assert_eq!(ctrl.stats().reads_completed, 24);
    }

    #[test]
    fn a_starved_request_is_served_before_any_younger_row_hit() {
        // The oldest request wants row 2 of a bank whose open row 1 a stream
        // of younger row hits keeps wanting, so FR-FCFS serves the hits and
        // keeps the row open. Once the oldest crosses the starvation
        // threshold, no younger entry may issue a column command (the only
        // way an entry leaves the queue) until the oldest has been served.
        let mut ctrl = controller();
        let bank = BankAddress::new(0, 0, 0, 0);
        let entry = |id: u64, row: u32| QueueEntry {
            request: MemoryRequest::read(id, 0, 32, 0),
            dram: rome_hbm::address::DramAddress {
                channel: 0,
                bank,
                row,
                column: (id % 32) as u16,
            },
        };
        // Entry 0 opens row 1; entry 1 is the conflicting request.
        assert!(ctrl.enqueue_mapped(entry(0, 1)));
        assert!(ctrl.enqueue_mapped(entry(1, 2)));
        let starved_from = ctrl.config().starvation_threshold + 1;
        let queued = |ctrl: &ChannelController| -> Vec<u64> {
            ctrl.read_queue.iter().map(|e| e.request.id.0).collect()
        };
        let mut next_id = 2;
        let mut hits_before = 0;
        let mut now = 0;
        let served_at = loop {
            assert!(now < 50_000, "the starved request was never served");
            while ctrl.read_slots_free() > 0 {
                assert!(ctrl.enqueue_mapped(entry(next_id, 1)));
                next_id += 1;
            }
            let before = queued(&ctrl);
            ctrl.tick(now);
            let after = queued(&ctrl);
            let issued: Vec<u64> = before
                .into_iter()
                .filter(|id| !after.contains(id))
                .collect();
            if issued.contains(&1) {
                break now;
            }
            if now < starved_from {
                hits_before += issued.iter().filter(|&&id| id >= 2).count();
            } else {
                assert!(
                    issued.is_empty(),
                    "younger requests {issued:?} issued at {now} while request 1 starved"
                );
            }
            now += 1;
        };
        assert!(served_at >= starved_from, "served at {served_at}");
        assert!(
            hits_before > 100,
            "only {hits_before} younger hits bypassed it"
        );
    }

    #[test]
    fn stats_idle_and_stall_cycles_accumulate() {
        let mut ctrl = controller();
        for now in 0..100 {
            ctrl.tick(now);
        }
        assert!(ctrl.stats().idle_cycles > 0);
        assert_eq!(ctrl.stats().total_cycles, 100);
    }

    /// From-scratch per-bank oracle for every bitmask the data-oriented scans
    /// consult: rebuilds each mask and count from first principles (the
    /// entries / the bank slab) and compares it to the incrementally
    /// maintained copy.
    fn assert_mask_invariants(ctrl: &ChannelController) {
        // Controller row-open mask ⇔ its own per-bank open-row mirror.
        for (b, open) in ctrl.open_rows.iter().enumerate() {
            let bit = ctrl.open_mask[b >> 6] >> (b & 63) & 1 == 1;
            assert_eq!(bit, open.is_some(), "controller mask bit {b} diverged");
        }
        // Channel row-open mask ⇔ a recount of the physical bank slab, and
        // the controller's mirror ⇔ the physical open row itself (refresh
        // only ever issues to precharged banks, so the mirror never lags).
        let mask = ctrl.channel.open_bank_mask();
        for (b, bank) in ctrl.channel.banks().enumerate() {
            let bit = mask[b >> 6] >> (b & 63) & 1 == 1;
            assert_eq!(bit, bank.is_active(), "channel mask bit {b} diverged");
            assert_eq!(ctrl.open_rows[b], bank.open_row(), "bank {b} row diverged");
        }
        // Queue per-bank counts and pending mask ⇔ a recount of the entries.
        for queue in [&ctrl.read_queue, &ctrl.write_queue] {
            let mut counts = vec![0u16; ctrl.indexer.banks()];
            for e in queue.iter() {
                counts[ctrl.indexer.flat(e.dram.bank)] += 1;
            }
            assert_eq!(
                queue.bank_counts(),
                counts.as_slice(),
                "bank counts diverged"
            );
            let mut pending = vec![0u64; counts.len().div_ceil(64)];
            for (b, &c) in counts.iter().enumerate() {
                if c > 0 {
                    pending[b >> 6] |= 1 << (b & 63);
                }
            }
            assert_eq!(
                queue.pending_mask_words(),
                pending.as_slice(),
                "pending mask diverged"
            );
            // Per-entry row-match / keep-open flags and per-bank
            // open-row-hit counts ⇔ a from-scratch recompute against the
            // controller's open rows (the incrementally maintained
            // open-page state the row scan trusts).
            let mut hits = vec![0u16; ctrl.indexer.banks()];
            let mut row_match = Vec::new();
            for e in queue.iter() {
                let b = ctrl.indexer.flat(e.dram.bank);
                let hit = ctrl.open_rows[b] == Some(e.dram.row);
                row_match.push(hit as u8);
                hits[b] += hit as u16;
            }
            assert_eq!(
                queue.row_match_flags(),
                row_match.as_slice(),
                "row-match flags diverged"
            );
            assert_eq!(
                queue.open_row_hits(),
                hits.as_slice(),
                "open-row-hit counts diverged"
            );
            let keep: Vec<u8> = queue
                .iter()
                .map(|e| {
                    let b = ctrl.indexer.flat(e.dram.bank);
                    (ctrl.open_rows[b].is_some() && hits[b] > 0) as u8
                })
                .collect();
            assert_eq!(
                queue.keep_open_flags(),
                keep.as_slice(),
                "keep-open flags diverged"
            );
            // A known row-scan floor lower-bounds the park bound of every
            // row-relevant entry, so skipping a scan below it is exact.
            let floor = queue.row_scan_floor();
            if floor != 0 {
                for (i, (&hit, &keep)) in row_match.iter().zip(&keep).enumerate() {
                    if hit == 0 && keep == 0 {
                        let at = queue.act_ready_hint(i);
                        assert!(
                            floor <= at,
                            "row-scan floor {floor} exceeds entry {i}'s bound {at}"
                        );
                    }
                }
            }
        }
        // Per-bank column bounds ⇔ lower bounds on the constraint engine's
        // answer. Probing at cycle 0 leaves only the constraints themselves
        // (`earliest_issue` clamps to its `now`), so this is the strictest
        // form of the invariant the column scan parks entries on.
        let org = ctrl.config.organization;
        for pc in 0..org.pseudo_channels {
            for sid in 0..org.stack_ids {
                for bg in 0..org.bank_groups {
                    for ba in 0..org.banks_per_group {
                        let bank = BankAddress::new(pc, sid, bg, ba);
                        let b = ctrl.indexer.flat(bank);
                        let target = CommandTarget::from_bank_address(bank);
                        let column = [
                            DramCommand::Rd {
                                target,
                                column: 0,
                                auto_precharge: false,
                            },
                            DramCommand::Wr {
                                target,
                                column: 0,
                                auto_precharge: false,
                            },
                        ];
                        for (k, cmd) in column.iter().enumerate() {
                            let earliest = ctrl.channel.earliest_issue(cmd, 0);
                            assert!(
                                ctrl.col_ready[k][b] <= earliest,
                                "col_ready[{k}][{b}] = {} exceeds earliest issue {earliest}",
                                ctrl.col_ready[k][b]
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random enqueue/issue/refresh sequences: after every tick, every
        /// bitmask the scans consult must match a from-scratch per-bank
        /// recount, every per-bank column bound must lower-bound the
        /// constraint engine, and a known row-scan floor must lower-bound
        /// every row-relevant entry's park bound. Every column and row
        /// decision on the way is checked against the from-scratch
        /// references inside the scans themselves.
        #[test]
        fn bitmasks_match_a_from_scratch_per_bank_oracle(
            ops in prop::collection::vec((0u64..512, 0u64..2, 0u64..12), 1..32),
        ) {
            let mut ctrl = ChannelController::new(ControllerConfig::hbm4_with_queue_depth(32));
            let mut done = Vec::new();
            let mut now = 0u64;
            for (i, &(seed, kind, gap)) in ops.iter().enumerate() {
                let addr = seed * 32;
                let req = if kind == 1 {
                    MemoryRequest::write(i as u64 + 1, addr, 32, now)
                } else {
                    MemoryRequest::read(i as u64 + 1, addr, 32, now)
                };
                prop_assert!(ctrl.enqueue(req));
                for _ in 0..=gap {
                    done.extend(ctrl.tick(now));
                    assert_mask_invariants(&ctrl);
                    now += 1;
                }
            }
            // Long idle drain so refreshes fire and banks close while the
            // oracle keeps checking every mutation point.
            let mut idle = 0u32;
            while (!ctrl.is_idle() || idle < 8_000) && now < 60_000 {
                if ctrl.is_idle() {
                    idle += 1;
                }
                done.extend(ctrl.tick(now));
                assert_mask_invariants(&ctrl);
                now += 1;
            }
            prop_assert_eq!(done.len(), ops.len());
            prop_assert!(ctrl.stats().refreshes_issued > 0);
        }
    }

    // The engine's generic vector driver on this controller.

    #[test]
    fn streaming_read_run_reports_consistent_totals() {
        let mut ctrl = controller();
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
        let mut ctrl = controller();
        let reqs = workload::streaming_reads(0, 1 << 20, 32);
        let report = run_with_budget(&mut ctrl, reqs, 500, &RunBudget::unlimited());
        assert!(report.finish_time <= 500 + 64);
        assert!(report.requests_completed < 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "queue depth 4: incomplete run")]
    fn expect_complete_rejects_a_run_cut_short_by_max_ns() {
        let reqs = workload::streaming_reads(0, 64 * 1024, 32);
        let n = reqs.len();
        let mut ctrl = ChannelController::new(ControllerConfig::hbm4_with_queue_depth(4));
        let report = run_with_budget(&mut ctrl, reqs, 500, &RunBudget::unlimited());
        assert_eq!(report.aborted, None, "a max_ns cutoff leaves no tag");
        report.expect_complete(n, format_args!("queue depth {}", 4));
    }

    #[test]
    fn expect_complete_passes_a_finished_run_through() {
        let reqs = workload::streaming_reads(0, 4 * 1024, 32);
        let n = reqs.len();
        let report = run_to_completion(&mut controller(), reqs);
        assert_eq!(report.clone().expect_complete(n, "finished run"), report);
    }

    #[test]
    fn write_stream_reports_written_bytes() {
        let mut ctrl = controller();
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
        let mut ctrl = controller();
        let report = run_to_completion(&mut ctrl, workload::streaming_reads(0, 8 * 1024, 32));
        let expected =
            (report.bytes_read + report.bytes_written) as f64 / report.finish_time.max(1) as f64;
        assert_eq!(report.achieved_bandwidth_gbps, expected);
        assert_eq!(bytes_per_ns_to_gbps(32, 1), 32.0);
    }

    #[test]
    fn event_driven_matches_stepped_on_a_small_stream() {
        // The driver jumps between reported events; offering in order and
        // ticking every cycle must give the same completions and stats.
        let reqs = workload::streaming_reads(0, 8 * 1024, 32);
        let mut event = controller();
        let report = run_to_completion(&mut event, reqs.clone());
        let mut stepped = controller();
        let mut pending = reqs.into_iter().peekable();
        let mut done = Vec::new();
        let mut now = 0;
        while pending.peek().is_some() || !stepped.is_idle() {
            while let Some(req) = pending.next_if(|r| stepped.slots_free_for(r.kind) > 0) {
                assert!(stepped.enqueue(MemoryRequest {
                    arrival: now,
                    ..req
                }));
            }
            done.extend(stepped.tick(now));
            now += 1;
        }
        assert_eq!(done.len() as u64, report.requests_completed);
        assert_eq!(
            done.iter().map(|d| d.completed).max(),
            Some(report.finish_time)
        );
        assert_eq!(stepped.stats_snapshot(), event.stats_snapshot());
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
}
