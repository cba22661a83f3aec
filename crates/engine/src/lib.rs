//! # rome-engine — the generic event-driven simulation engine
//!
//! This crate owns the event-driven simulation machinery shared by both
//! memory stacks of the RoMe reproduction — the conventional HBM4 controller
//! (`rome-mc`) and the RoMe row-granularity controller (`rome-core`):
//!
//! * **requests** — [`request::MemoryRequest`] and friends, the lifecycle
//!   vocabulary every controller speaks ([`request`]);
//! * the **[`MemoryController`] trait** — the contract (enqueue, tick,
//!   `next_event_at`, idleness, admission, stats snapshot) that lets one
//!   driver run any controller ([`controller`]);
//! * the generic **single-channel drivers** — one event-driven loop,
//!   [`simulate::run_with_source_budgeted`], which the vector drivers
//!   [`simulate::run_with_budget`] and [`simulate::run_to_completion`]
//!   reach through [`ReplaySource`], producing one unified
//!   [`simulate::SimulationReport`] ([`simulate`]);
//! * the generic **[`MultiChannelSystem`]** — fragmentation, steering,
//!   backlog back-pressure, host-completion reassembly, a global-clock tick
//!   path, and a parallel per-channel [`MultiChannelSystem::run_until_idle`]
//!   ([`system`]);
//! * the **[`TrafficSource`] trait** and [`ReplaySource`] — lazily generated
//!   request streams whose arrivals merge into the event horizon, driven by
//!   [`simulate::run_with_source_budgeted`] (single controller) and
//!   [`MultiChannelSystem::run_with_source_budgeted`] (whole system), with
//!   completions fed back for closed-loop load generation ([`source`]). The
//!   scenario generators themselves (MoE routing skew, prefill/decode
//!   interleave, multi-tenant mixes) live in the `rome-workload` crate.
//! * the **[`CompletionQueue`]** — in-flight transfers retired in completion
//!   order from one FIFO per transfer direction, shared by both controllers
//!   ([`completion`]);
//! * the **[`RunBudget`] layer** — cooperative deadlines (simulated time,
//!   event count, wall clock) plus deterministic fault-injection hooks,
//!   threaded through every run loop; a bounded run returns its partial
//!   report tagged with an [`budget::AbortReason`] instead of hanging
//!   ([`budget`]).
//!
//! The engine is the plug-in point for scale-out work: a new memory system
//! only implements [`MemoryController`] and immediately inherits the
//! event-driven drivers, the parallel multi-channel runner, and every sweep
//! built on top of them.
//!
//! # Event-driven exactness
//!
//! `next_event_at` must *lower-bound* the next cycle at which state can
//! change. Drivers that tick at every reported cycle therefore execute the
//! exact command schedule of a cycle-by-cycle loop — spurious wake-ups are
//! harmless, missed events are impossible — which is what lets the
//! regression suite pin bit-identical simulation reports against a
//! test-only cycle-stepped reference.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod completion;
pub mod controller;
pub mod events;
pub mod request;
pub mod simulate;
pub mod source;
pub mod system;

/// Sim-time flight-recorder vocabulary, re-exported from `rome-telemetry`
/// so controller crates (which depend on the engine, not on telemetry) can
/// record [`trace::TraceEvent`]s without a new dependency edge.
pub use rome_telemetry::trace;

pub use budget::{
    AbortReason, BudgetMeter, DrainSignal, EngineFault, FaultAction, RunBudget, RunSink, TraceSink,
};
pub use completion::CompletionQueue;
pub use controller::{MemoryController, StatsSnapshot};
pub use events::EventHorizon;
pub use request::{CompletedRequest, MemoryRequest, RequestId, RequestKind};
pub use simulate::{merge_reports, report_from_host_completions, SimulationReport};
pub use source::{ReplaySource, TrafficSource};
pub use system::{run_cubes, HostCompletion, MultiChannelSystem};
