//! The RoMe memory controller (§V-A).
//!
//! The controller issues only three commands — `RD_row`, `WR_row`, and a
//! pooled VBA refresh — and therefore tracks only the Table III timing
//! parameters, four bank states, at most five bank FSMs, and a request queue
//! of a handful of entries. Scheduling reduces to serving the oldest request
//! whose virtual bank is free, which automatically interleaves across VBAs.
//!
//! Performance is modeled at the interface level using [`RomeTimingParams`];
//! the conventional commands implied by each row command are accounted via
//! the [`CommandGenerator`] expansion so the energy model sees exact
//! ACT/RD/WR/PRE counts. The generator's expansion is separately verified
//! against the cycle-accurate channel model in `generator.rs` tests, so the
//! interface-level timing used here is known to be achievable.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use rome_engine::trace::{FlightRecorder, TraceBuffer, TraceConfig, TraceEvent, TraceEventKind};
use rome_engine::{CompletionQueue, EventHorizon};
use rome_hbm::organization::Organization;
use rome_hbm::timing::TimingParams;
use rome_hbm::units::Cycle;

use rome_mc::request::{CompletedRequest, MemoryRequest, RequestKind};

use crate::generator::{CommandGenerator, ExpansionCounts};
use crate::refresh::VbaRefreshScheduler;
use crate::row_command::{RowCommandKind, VbaAddress};
use crate::stats::RomeStats;
use crate::timing::RomeTimingParams;
use crate::vba::VbaConfig;

/// Configuration of one RoMe channel controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RomeControllerConfig {
    /// Underlying DRAM organization.
    pub organization: Organization,
    /// Conventional DRAM timing (drives the command generator).
    pub timing: TimingParams,
    /// Virtual-bank configuration.
    pub vba: VbaConfig,
    /// Interface timing (Table III / Table V).
    pub rome_timing: RomeTimingParams,
    /// Request-queue capacity. The paper provisions 4 entries and shows 2
    /// suffice for peak bandwidth.
    pub queue_capacity: usize,
}

impl RomeControllerConfig {
    /// The paper's default RoMe configuration.
    pub fn paper_default() -> Self {
        RomeControllerConfig {
            organization: Organization::hbm4(),
            timing: TimingParams::hbm4(),
            vba: VbaConfig::rome_default(),
            rome_timing: RomeTimingParams::paper_table_v(),
            queue_capacity: 4,
        }
    }

    /// Same as [`RomeControllerConfig::paper_default`] but with an explicit
    /// queue capacity (used by the queue-depth experiment).
    pub fn with_queue_depth(depth: usize) -> Self {
        let mut cfg = RomeControllerConfig::paper_default();
        cfg.queue_capacity = depth.max(1);
        cfg
    }

    /// Same as [`RomeControllerConfig::paper_default`] but with an explicit
    /// VBA configuration (used by the design-space exploration).
    pub fn with_vba(vba: VbaConfig) -> Self {
        let org = Organization::hbm4();
        let timing = TimingParams::hbm4();
        RomeControllerConfig {
            rome_timing: RomeTimingParams::derive(&timing, &org, &vba),
            organization: org,
            timing,
            vba,
            queue_capacity: 4,
        }
    }

    /// Effective row size (and therefore the request granularity) in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.vba.effective_row_bytes(&self.organization)
    }
}

/// One queued request together with its decoded RoMe coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RomeQueueEntry {
    /// The pending request (one row-granularity chunk).
    pub request: MemoryRequest,
    /// The virtual bank it targets.
    pub target: VbaAddress,
    /// The row within that virtual bank.
    pub row: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LastIssue {
    at: Cycle,
    was_write: bool,
    stack_id: u8,
}

/// A RoMe channel controller.
#[derive(Debug, Clone)]
pub struct RomeController {
    config: RomeControllerConfig,
    generator: CommandGenerator,
    queue: VecDeque<RomeQueueEntry>,
    /// Parallel hot arrays mirroring `queue` position-for-position: each
    /// entry's VBA index and write flag, packed so the data-issue scan reads
    /// two small POD arrays instead of loading every `RomeQueueEntry`
    /// payload. Maintained at the queue's two mutation points
    /// ([`RomeController::enqueue_decoded`] and the remove in
    /// `try_issue_data`).
    hot_vba: Vec<u32>,
    hot_write: Vec<bool>,
    /// In-flight row transfers in one FIFO per direction: an `RD_row`
    /// completes `data_complete_offset` after issue and a `WR_row` its own
    /// constant offset, so each lane is already in completion order.
    /// Completions pop from the lane heads, and the next completion time is
    /// an O(1) look at them for [`RomeController::next_event_at`].
    in_flight: CompletionQueue<RomeQueueEntry>,
    /// Busy-until per (stack ID, VBA).
    vba_busy_until: Vec<Cycle>,
    refresh: Vec<VbaRefreshScheduler>,
    /// Cached minimum of the pooled refresh schedulers' `next_due` cycles,
    /// updated only on acknowledge. See
    /// `rome_mc::ChannelController::refresh_due_min` for the invalidation
    /// argument; the fallback scan runs only while a due refresh waits for
    /// its VBA.
    refresh_due_min: Cycle,
    last_issue: Option<LastIssue>,
    stats: RomeStats,
    /// Sim-time flight recorder: disarmed (a compiled-in no-op) by default,
    /// armed by the drivers through
    /// [`rome_engine::MemoryController::set_trace`]. A derived observation —
    /// the scheduler never reads it — so recording cannot perturb the
    /// schedule.
    trace: FlightRecorder,
    /// Offset from row-command issue to the completion of its data transfer.
    data_complete_offset: Cycle,
    vbas_per_rank: u32,
    /// Earliest future cycle at which a command the scheduler wanted to
    /// issue this tick becomes ready, recorded as a byproduct of the tick's
    /// failed issue attempts. Only complete after a tick that issued
    /// nothing; consumed by [`RomeController::next_event_at`].
    event_hint: Cycle,
    /// Per-kind command-expansion counts, precomputed once: the expansion of
    /// a row command depends only on its kind, so re-deriving the full
    /// Fig. 9 schedule on every issue would dominate the issue path.
    expansion: [ExpansionCounts; 3],
}

/// Index of a row-command kind in the precomputed expansion table.
fn expansion_index(kind: RowCommandKind) -> usize {
    match kind {
        RowCommandKind::RdRow => 0,
        RowCommandKind::WrRow => 1,
        RowCommandKind::RefVba => 2,
    }
}

impl RomeController {
    /// Create a controller from its configuration.
    pub fn new(config: RomeControllerConfig) -> Self {
        let generator = CommandGenerator::new(config.organization, config.timing, config.vba);
        let vbas_per_rank = config.vba.vbas_per_rank(&config.organization);
        let ranks = config.organization.stack_ids as usize;
        let refresh: Vec<VbaRefreshScheduler> = (0..ranks)
            .map(|_| VbaRefreshScheduler::new(&config.timing, vbas_per_rank))
            .collect();
        let refresh_due_min = refresh
            .iter()
            .map(VbaRefreshScheduler::next_due)
            .min()
            .unwrap_or(Cycle::MAX);
        // Data of a RD_row completes roughly tRCD + stagger + data beats +
        // CAS latency after the command is accepted.
        let beats = RomeTimingParams::columns_per_row_command(&config.organization, &config.vba);
        let data_complete_offset = Cycle::from(
            config.timing.t_rcd_rd
                + (config.timing.t_rrd_s - config.timing.t_ccd_s)
                + beats * config.timing.t_ccd_s
                + config.timing.t_cl,
        );
        let expansion = [
            generator.expansion_counts(RowCommandKind::RdRow),
            generator.expansion_counts(RowCommandKind::WrRow),
            generator.expansion_counts(RowCommandKind::RefVba),
        ];
        RomeController {
            vba_busy_until: vec![0; ranks * vbas_per_rank as usize],
            queue: VecDeque::with_capacity(config.queue_capacity),
            hot_vba: Vec::with_capacity(config.queue_capacity),
            hot_write: Vec::with_capacity(config.queue_capacity),
            in_flight: CompletionQueue::new(),
            refresh,
            refresh_due_min,
            last_issue: None,
            stats: RomeStats::new(),
            trace: FlightRecorder::disabled(),
            generator,
            data_complete_offset,
            vbas_per_rank,
            event_hint: Cycle::MAX,
            expansion,
            config,
        }
    }

    /// The controller configuration.
    pub fn config(&self) -> &RomeControllerConfig {
        &self.config
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &RomeStats {
        &self.stats
    }

    /// The command generator used for expansion accounting.
    pub fn generator(&self) -> &CommandGenerator {
        &self.generator
    }

    /// Whether the controller has no pending or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Number of free request-queue slots.
    pub fn slots_free(&self) -> usize {
        self.config.queue_capacity - self.queue.len()
    }

    fn vba_index(&self, target: VbaAddress) -> usize {
        target.stack_id as usize * self.vbas_per_rank as usize + target.vba as usize
    }

    /// Decode a physical address into (VBA, row) for a standalone
    /// single-channel controller: consecutive row-sized chunks rotate over
    /// the VBAs of each stack ID, then over stack IDs, then rows.
    pub fn decode(&self, address: u64) -> (VbaAddress, u32) {
        let row_bytes = self.config.row_bytes();
        let chunk = address / row_bytes;
        let vba = (chunk % self.vbas_per_rank as u64) as u8;
        let rest = chunk / self.vbas_per_rank as u64;
        let sid = (rest % self.config.organization.stack_ids as u64) as u8;
        let row = (rest / self.config.organization.stack_ids as u64) as u32
            % self.config.organization.rows_per_bank;
        (VbaAddress::new(0, sid, vba), row)
    }

    /// Enqueue a request (one row-granularity chunk). Returns `false` if the
    /// queue is full.
    ///
    /// # Panics
    ///
    /// Panics if the request is larger than the effective row size.
    pub fn enqueue(&mut self, request: MemoryRequest) -> bool {
        assert!(
            request.bytes <= self.config.row_bytes(),
            "RoMe requests must be at most one effective row ({} B), got {} B",
            self.config.row_bytes(),
            request.bytes
        );
        let (target, row) = self.decode(request.address.raw());
        self.enqueue_decoded(RomeQueueEntry {
            request,
            target,
            row,
        })
    }

    /// Enqueue a request whose RoMe coordinates were already decoded (used by
    /// the multi-channel system). Returns `false` if the queue is full.
    pub fn enqueue_decoded(&mut self, entry: RomeQueueEntry) -> bool {
        if self.queue.len() >= self.config.queue_capacity {
            return false;
        }
        self.hot_vba.push(self.vba_index(entry.target) as u32);
        self.hot_write.push(!entry.request.kind.is_read());
        self.queue.push_back(entry);
        if self.trace.enabled() {
            let req = entry.request;
            let idx = self.vba_index(entry.target);
            self.trace.record(TraceEvent {
                id: req.id.0,
                bank: idx as u32,
                row: entry.row,
                bytes: req.bytes,
                write: !req.kind.is_read(),
                ..TraceEvent::at(TraceEventKind::Enqueue, req.arrival)
            });
        }
        true
    }

    fn earliest_interface_issue(&self, is_write: bool, stack_id: u8) -> Cycle {
        match self.last_issue {
            None => 0,
            Some(last) => {
                let spacing = self.config.rome_timing.different_vba_spacing(
                    last.was_write,
                    is_write,
                    last.stack_id == stack_id,
                );
                last.at + Cycle::from(spacing)
            }
        }
    }

    /// Advance the controller by one nanosecond.
    ///
    /// Allocates a fresh completion vector per call; hot loops should prefer
    /// [`RomeController::tick_into`] with a reused buffer.
    pub fn tick(&mut self, now: Cycle) -> Vec<CompletedRequest> {
        let mut completed = Vec::new();
        self.tick_into(now, &mut completed);
        completed
    }

    /// Advance the controller by one nanosecond, appending any completions to
    /// `completed`. Returns `true` if a row command (data or refresh) was
    /// issued.
    pub fn tick_into(&mut self, now: Cycle, completed: &mut Vec<CompletedRequest>) -> bool {
        self.stats.total_cycles += 1;
        self.event_hint = Cycle::MAX;
        self.collect_completions_into(now, completed);
        let had_work = !self.queue.is_empty();

        let issued_refresh = self.try_issue_refresh(now);
        let issued = if issued_refresh {
            true
        } else {
            self.try_issue_data(now)
        };

        if had_work && !issued {
            self.stats.stall_cycles += 1;
        } else if !had_work && self.in_flight.is_empty() {
            self.stats.idle_cycles += 1;
        }
        issued
    }

    /// The next cycle strictly after `now` at which this controller's state
    /// can change on its own: an in-flight transfer completing, a pooled
    /// refresh becoming due (or its target VBA freeing up), or a queued
    /// request's VBA and interface spacing both becoming ready. `None` when
    /// the controller is fully idle and no refresh is pending.
    ///
    /// Must be called immediately after a [`RomeController::tick_into`] at
    /// the same `now` that issued nothing: the scheduling-derived part of
    /// the answer is accumulated into the event hint during that tick's
    /// failed issue attempts. Like
    /// [`rome_mc::ChannelController::next_event_at`], the result is a lower
    /// bound on the next state change, so an event-driven driver that ticks
    /// at every reported cycle reproduces the cycle-stepped schedule exactly.
    ///
    /// O(1) on the hot path: accumulated hint, the heads of the read and
    /// write completion lanes, and the cached refresh due minimum (O(ranks)
    /// fallback only while a due refresh is waiting for its VBA).
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon = EventHorizon::new(now);

        if self.event_hint != Cycle::MAX {
            horizon.consider(self.event_hint);
        }

        horizon.consider_opt(self.in_flight.next_at());

        if self.refresh_due_min > now {
            horizon.consider(self.refresh_due_min);
        } else {
            for sched in &self.refresh {
                if !sched.due(now) {
                    horizon.consider(sched.next_due());
                }
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
            .map(VbaRefreshScheduler::next_due)
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Record a future cycle at which a command the scheduler wanted this
    /// tick becomes ready.
    fn hint_event(&mut self, at: Cycle) {
        if at < self.event_hint {
            self.event_hint = at;
        }
    }

    fn collect_completions_into(&mut self, now: Cycle, done: &mut Vec<CompletedRequest>) {
        // The lanes are in completion order, so only due transfers are ever
        // touched — no scan over the rest of the in-flight set.
        while let Some((complete_at, entry)) = self.in_flight.pop_due(now) {
            let req = entry.request;
            let completion = CompletedRequest {
                id: req.id,
                kind: req.kind,
                bytes: req.bytes,
                arrival: req.arrival,
                completed: complete_at,
            };
            match req.kind {
                RequestKind::Read => {
                    self.stats.reads_completed += 1;
                    self.stats.bytes_read += req.bytes;
                    self.stats.total_read_latency += completion.latency();
                    self.stats.max_read_latency =
                        self.stats.max_read_latency.max(completion.latency());
                }
                RequestKind::Write => {
                    self.stats.writes_completed += 1;
                    self.stats.bytes_written += req.bytes;
                }
            }
            if self.trace.enabled() {
                let idx = self.vba_index(entry.target);
                self.trace.record(TraceEvent {
                    id: req.id.0,
                    bank: idx as u32,
                    row: entry.row,
                    bytes: req.bytes,
                    dur: completion.latency(),
                    write: !req.kind.is_read(),
                    ..TraceEvent::at(TraceEventKind::Complete, req.arrival)
                });
            }
            done.push(completion);
        }
    }

    fn try_issue_refresh(&mut self, now: Cycle) -> bool {
        for sid in 0..self.config.organization.stack_ids {
            if !self.refresh[sid as usize].due(now) {
                continue;
            }
            // Identify the VBA next in rotation without consuming it.
            let probe = (self.refresh[sid as usize].issued() % self.vbas_per_rank as u64) as u8;
            let target = VbaAddress::new(0, sid, probe);
            let idx = self.vba_index(target);
            if self.vba_busy_until[idx] > now {
                // Pending refresh: it issues once the VBA frees up.
                self.hint_event(self.vba_busy_until[idx]);
                continue;
            }
            // Refresh rides the same interface but is short to transmit; the
            // Table III spacings only constrain data commands, so it is
            // issued as soon as the VBA is free.
            let vba = self.refresh[sid as usize].acknowledge();
            self.note_refresh_acknowledged();
            debug_assert_eq!(vba, probe as u32);
            let occupancy = self.generator.occupancy_ns(RowCommandKind::RefVba);
            self.vba_busy_until[idx] = now + occupancy;
            self.stats.refreshes_issued += 1;
            if self.trace.commands() {
                self.trace.record(TraceEvent {
                    bank: idx as u32,
                    dur: occupancy,
                    ..TraceEvent::at(TraceEventKind::Refresh, now)
                });
            }
            self.stats
                .derived
                .absorb(&self.expansion[expansion_index(RowCommandKind::RefVba)]);
            return true;
        }
        false
    }

    fn try_issue_data(&mut self, now: Cycle) -> bool {
        // Oldest-first over requests whose VBA is free and whose interface
        // spacing has elapsed — the entirety of the RoMe scheduling policy.
        // Blocked requests feed the event hint with the cycle both their VBA
        // and the interface become ready. The VBA index and write flag come
        // from the packed hot arrays (the stack ID is recovered from the VBA
        // index, which is stack-ID-major), so skipped entries cost two array
        // reads instead of a payload load.
        #[cfg(test)]
        let expected = self.reference_pick(now);
        let mut chosen: Option<usize> = None;
        let mut hint = Cycle::MAX;
        for i in 0..self.queue.len() {
            let idx = self.hot_vba[i] as usize;
            let is_write = self.hot_write[i];
            let sid = (idx / self.vbas_per_rank as usize) as u8;
            let ready = self.vba_busy_until[idx].max(self.earliest_interface_issue(is_write, sid));
            if ready > now {
                hint = hint.min(ready);
                continue;
            }
            chosen = Some(i);
            break;
        }
        #[cfg(test)]
        assert_eq!(
            chosen, expected,
            "data pick diverged from the reference at {now}"
        );
        if hint != Cycle::MAX {
            self.hint_event(hint);
        }
        let Some(i) = chosen else { return false };
        let entry = self.queue.remove(i).expect("index valid");
        self.hot_vba.remove(i);
        self.hot_write.remove(i);
        let is_write = !entry.request.kind.is_read();
        let kind = if is_write {
            RowCommandKind::WrRow
        } else {
            RowCommandKind::RdRow
        };
        let idx = self.vba_index(entry.target);
        if self.trace.commands() {
            self.trace.record(TraceEvent {
                id: entry.request.id.0,
                bank: idx as u32,
                row: entry.row,
                bytes: entry.request.bytes,
                write: is_write,
                ..TraceEvent::at(TraceEventKind::Issue, now)
            });
        }
        let same_vba_gap = self.config.rome_timing.same_vba_spacing(is_write);
        self.vba_busy_until[idx] = now + Cycle::from(same_vba_gap);
        self.last_issue = Some(LastIssue {
            at: now,
            was_write: is_write,
            stack_id: entry.target.stack_id,
        });

        let complete_at = now
            + if is_write {
                // Write data is absorbed once the last beat is on the bus.
                self.data_complete_offset - Cycle::from(self.config.timing.t_cl)
                    + Cycle::from(self.config.timing.t_cwl)
            } else {
                self.data_complete_offset
            };
        self.in_flight.push(entry.request.kind, complete_at, entry);

        match kind {
            RowCommandKind::RdRow => self.stats.rd_rows_issued += 1,
            RowCommandKind::WrRow => self.stats.wr_rows_issued += 1,
            RowCommandKind::RefVba => {}
        }
        self.stats.bytes_transferred += self.config.row_bytes();
        self.stats
            .derived
            .absorb(&self.expansion[expansion_index(kind)]);
        true
    }

    /// From-scratch reference for the data pick: the oldest queued request
    /// whose VBA is free and whose interface spacing has elapsed at `now`,
    /// read from the queue entries themselves rather than the packed hot
    /// arrays. The crate's test build checks every `try_issue_data`
    /// decision against it.
    #[cfg(test)]
    fn reference_pick(&self, now: Cycle) -> Option<usize> {
        self.queue.iter().position(|e| {
            let is_write = !e.request.kind.is_read();
            let busy = self.vba_busy_until[self.vba_index(e.target)];
            busy.max(self.earliest_interface_issue(is_write, e.target.stack_id)) <= now
        })
    }
}

impl rome_engine::MemoryController for RomeController {
    type Entry = RomeQueueEntry;

    fn enqueue(&mut self, request: MemoryRequest) -> bool {
        RomeController::enqueue(self, request)
    }

    fn enqueue_entry(&mut self, entry: RomeQueueEntry) -> bool {
        self.enqueue_decoded(entry)
    }

    fn entry_kind(entry: &RomeQueueEntry) -> RequestKind {
        entry.request.kind
    }

    fn tick_into(&mut self, now: Cycle, completed: &mut Vec<CompletedRequest>) -> bool {
        RomeController::tick_into(self, now, completed)
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        RomeController::next_event_at(self, now)
    }

    fn is_idle(&self) -> bool {
        RomeController::is_idle(self)
    }

    fn slots_free(&self) -> usize {
        RomeController::slots_free(self)
    }

    fn stats_snapshot(&self) -> rome_engine::StatsSnapshot {
        let s = self.stats();
        rome_engine::StatsSnapshot {
            bytes_read: s.bytes_read,
            bytes_written: s.bytes_written,
            bytes_transferred: s.bytes_transferred,
            mean_read_latency: s.mean_read_latency(),
            // RoMe has no row buffer at the MC–DRAM interface; every access
            // is a whole-row command.
            row_hit_rate: 0.0,
            activates: s.derived.activates,
        }
    }

    fn set_trace(&mut self, config: TraceConfig) {
        self.trace.arm(config);
    }

    fn take_trace(&mut self) -> TraceBuffer {
        self.trace.harvest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rome_engine::simulate::{run_to_completion, run_with_budget};
    use rome_engine::{MemoryController, RunBudget};
    use rome_mc::workload;

    fn controller() -> RomeController {
        RomeController::new(RomeControllerConfig::paper_default())
    }

    fn run_until_idle(ctrl: &mut RomeController, max_ns: Cycle) -> (Vec<CompletedRequest>, Cycle) {
        let mut done = Vec::new();
        let mut now = 0;
        while !ctrl.is_idle() && now < max_ns {
            done.extend(ctrl.tick(now));
            now += 1;
        }
        (done, now)
    }

    #[test]
    fn config_defaults_match_the_paper() {
        let cfg = RomeControllerConfig::paper_default();
        assert_eq!(cfg.row_bytes(), 4096);
        assert_eq!(cfg.queue_capacity, 4);
        assert_eq!(cfg.rome_timing, RomeTimingParams::paper_table_v());
    }

    #[test]
    fn decode_rotates_vbas_then_stack_ids_then_rows() {
        let ctrl = controller();
        let (v0, r0) = ctrl.decode(0);
        let (v1, _) = ctrl.decode(4096);
        assert_eq!(v0, VbaAddress::new(0, 0, 0));
        assert_eq!(r0, 0);
        assert_eq!(v1, VbaAddress::new(0, 0, 1));
        // After all 8 VBAs of SID 0, SID advances.
        let (v8, _) = ctrl.decode(8 * 4096);
        assert_eq!(v8, VbaAddress::new(0, 1, 0));
        // After all VBAs of all SIDs, the row advances.
        let (v32, r32) = ctrl.decode(32 * 4096);
        assert_eq!(v32, VbaAddress::new(0, 0, 0));
        assert_eq!(r32, 1);
    }

    #[test]
    fn single_read_completes_with_row_latency() {
        let mut ctrl = controller();
        assert!(ctrl.enqueue(MemoryRequest::read(1, 0, 4096, 0)));
        let (done, _) = run_until_idle(&mut ctrl, 10_000);
        assert_eq!(done.len(), 1);
        let lat = done[0].latency();
        // tRCD + 64 beats + CAS latency plus a cycle of scheduling.
        assert!((95..=105).contains(&lat), "latency {lat}");
        assert_eq!(ctrl.stats().rd_rows_issued, 1);
        assert_eq!(ctrl.stats().bytes_read, 4096);
        assert_eq!(ctrl.stats().bytes_transferred, 4096);
        assert_eq!(ctrl.stats().derived.activates, 4);
        assert_eq!(ctrl.stats().derived.reads, 128);
    }

    #[test]
    fn small_request_overfetches_a_full_row() {
        let mut ctrl = controller();
        ctrl.enqueue(MemoryRequest::read(1, 0, 512, 0));
        run_until_idle(&mut ctrl, 10_000);
        assert_eq!(ctrl.stats().bytes_read, 512);
        assert_eq!(ctrl.stats().bytes_transferred, 4096);
        assert_eq!(ctrl.stats().overfetch_bytes(), 4096 - 512);
        assert!(ctrl.stats().overfetch_fraction() > 0.8);
    }

    #[test]
    #[should_panic(expected = "at most one effective row")]
    fn oversized_request_panics() {
        let mut ctrl = controller();
        ctrl.enqueue(MemoryRequest::read(1, 0, 8192, 0));
    }

    #[test]
    fn streaming_reads_saturate_the_channel_with_a_tiny_queue() {
        // Two outstanding row requests are enough to hide the ACT/PRE work of
        // the next VBA behind the data transfer of the current one (§V-A).
        let mut ctrl = RomeController::new(RomeControllerConfig::with_queue_depth(2));
        let total_chunks: u64 = 256;
        let mut next = 0u64;
        let mut now = 0;
        let mut completed = 0u64;
        while completed < total_chunks && now < 200_000 {
            while next < total_chunks && ctrl.slots_free() > 0 {
                ctrl.enqueue(MemoryRequest::read(next, next * 4096, 4096, now));
                next += 1;
            }
            completed += ctrl.tick(now).len() as u64;
            now += 1;
        }
        assert_eq!(completed, total_chunks);
        let bw = (total_chunks * 4096) as f64 / now as f64;
        // Peak is 64 GB/s; with a queue of two we should exceed 85 % of it.
        assert!(bw > 55.0, "achieved {bw:.1} GB/s at t={now}");
    }

    #[test]
    fn write_stream_completes_and_counts_wr_rows() {
        let mut ctrl = controller();
        let mut submitted = 0u64;
        let mut now = 0;
        let mut done = 0;
        while done < 16 && now < 50_000 {
            while submitted < 16 && ctrl.slots_free() > 0 {
                ctrl.enqueue(MemoryRequest::write(submitted, submitted * 4096, 4096, now));
                submitted += 1;
            }
            done += ctrl.tick(now).len();
            now += 1;
        }
        assert_eq!(done, 16);
        assert_eq!(ctrl.stats().wr_rows_issued, 16);
        assert_eq!(ctrl.stats().bytes_written, 16 * 4096);
        assert_eq!(ctrl.stats().derived.writes, 16 * 128);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut ctrl = RomeController::new(RomeControllerConfig::with_queue_depth(2));
        assert!(ctrl.enqueue(MemoryRequest::read(0, 0, 4096, 0)));
        assert!(ctrl.enqueue(MemoryRequest::read(1, 4096, 4096, 0)));
        assert!(!ctrl.enqueue(MemoryRequest::read(2, 8192, 4096, 0)));
        assert_eq!(ctrl.slots_free(), 0);
    }

    #[test]
    fn refreshes_are_issued_when_idle() {
        let mut ctrl = controller();
        for now in 0..10_000 {
            ctrl.tick(now);
        }
        assert!(ctrl.stats().refreshes_issued > 0);
        assert!(ctrl.stats().derived.refreshes >= 2 * ctrl.stats().refreshes_issued);
    }

    #[test]
    fn back_to_back_same_vba_requests_respect_t_rd_row() {
        let mut ctrl = controller();
        // Two chunks that decode to the same VBA (one full rotation apart).
        ctrl.enqueue(MemoryRequest::read(0, 0, 4096, 0));
        ctrl.enqueue(MemoryRequest::read(1, 32 * 4096, 4096, 0));
        let (done, _) = run_until_idle(&mut ctrl, 10_000);
        assert_eq!(done.len(), 2);
        let issue_gap = done[1].completed as i64 - done[0].completed as i64;
        assert!(
            issue_gap >= RomeTimingParams::paper_table_v().t_rd_row as i64,
            "same-VBA requests completed only {issue_gap} ns apart"
        );
    }

    #[test]
    fn different_vba_requests_stream_at_t_r2rs() {
        let mut ctrl = controller();
        ctrl.enqueue(MemoryRequest::read(0, 0, 4096, 0));
        ctrl.enqueue(MemoryRequest::read(1, 4096, 4096, 0));
        let (done, _) = run_until_idle(&mut ctrl, 10_000);
        assert_eq!(done.len(), 2);
        let gap = done[1].completed - done[0].completed;
        assert!((64..=70).contains(&gap), "completion gap {gap}");
    }

    #[test]
    fn vba_design_space_configs_all_work() {
        for vba in VbaConfig::design_space() {
            let cfg = RomeControllerConfig::with_vba(vba);
            let row = cfg.row_bytes();
            let mut ctrl = RomeController::new(cfg);
            let mut submitted = 0u64;
            let mut done = 0usize;
            let mut now = 0;
            while done < 8 && now < 50_000 {
                while submitted < 8 && ctrl.slots_free() > 0 {
                    ctrl.enqueue(MemoryRequest::read(submitted, submitted * row, row, now));
                    submitted += 1;
                }
                done += ctrl.tick(now).len();
                now += 1;
            }
            assert_eq!(done, 8, "config {vba} failed to complete");
            assert_eq!(ctrl.stats().bytes_read, 8 * row);
        }
    }

    // The engine's generic vector driver on this controller.

    #[test]
    fn streaming_rome_reads_reach_near_peak_bandwidth() {
        let mut ctrl = controller();
        let reqs = workload::streaming_reads(0, 1024 * 1024, 4096);
        let report = run_to_completion(&mut ctrl, reqs);
        assert_eq!(report.requests_completed, 256);
        assert_eq!(report.bytes_read, 1024 * 1024);
        assert!(
            report.achieved_bandwidth_gbps > 55.0,
            "{}",
            report.achieved_bandwidth_gbps
        );
        // RoMe uses the minimum number of ACTs: 4 per 4 KiB = 1 per KiB.
        assert!((report.activates_per_kib - 1.0).abs() < 0.05);
    }

    #[test]
    fn rome_needs_far_fewer_activates_per_kib_than_expected_from_conventional() {
        let mut ctrl = controller();
        let reqs = workload::streaming_reads(0, 256 * 1024, 4096);
        let report = run_to_completion(&mut ctrl, reqs);
        // The conventional system activates a 1 KB row per KiB streamed in
        // the best case too, but pays extra ACTs on conflicts; RoMe is pinned
        // at exactly 4 ACTs per 4 KiB row command.
        assert!(report.activates_per_kib <= 1.0 + 1e-9);
    }

    #[test]
    fn time_limit_is_respected() {
        let mut ctrl = controller();
        let reqs = workload::streaming_reads(0, 16 * 1024 * 1024, 4096);
        let report = run_with_budget(&mut ctrl, reqs, 1000, &RunBudget::unlimited());
        assert!(report.requests_completed < 4096);
        assert!(report.finish_time <= 1000 + 200);
    }

    #[test]
    fn write_streams_report_written_bytes() {
        let mut ctrl = controller();
        let reqs = workload::streaming_writes(0, 64 * 1024, 4096);
        let report = run_to_completion(&mut ctrl, reqs);
        assert_eq!(report.bytes_written, 64 * 1024);
        assert_eq!(report.bytes_read, 0);
        assert!(report.achieved_bandwidth_gbps > 40.0);
    }

    #[test]
    fn bandwidth_matches_the_shared_unit_definition() {
        let mut ctrl = controller();
        let report = run_to_completion(&mut ctrl, workload::streaming_reads(0, 64 * 1024, 4096));
        let expected =
            (report.bytes_read + report.bytes_written) as f64 / report.finish_time.max(1) as f64;
        assert_eq!(report.achieved_bandwidth_gbps, expected);
    }

    #[test]
    fn rome_reports_no_row_hit_rate_and_full_row_transfers() {
        let mut ctrl = controller();
        let report = run_to_completion(&mut ctrl, workload::streaming_reads(0, 16 * 4096, 4096));
        assert_eq!(report.row_hit_rate, 0.0);
        // Row-granularity requests overfetch nothing on this stream.
        assert_eq!(report.bytes_transferred, 16 * 4096);
    }

    #[test]
    fn event_driven_matches_stepped_on_a_small_stream() {
        // The driver jumps between reported events; offering in order and
        // ticking every cycle must give the same completions and stats.
        let reqs = workload::streaming_reads(0, 128 * 1024, 4096);
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
}
