//! # rome-workload — the streaming workload subsystem
//!
//! Every experiment used to materialize its whole request stream up front
//! (`Vec<MemoryRequest>`, all arrivals at cycle 0), so the simulator could
//! only model open-loop bursts. This crate opens the workload axis the
//! ROADMAP calls for: request streams generated *lazily as simulated time
//! advances*, reacting to completions, grounded in the `rome-llm` serving
//! models.
//!
//! * the **[`TrafficSource`] trait** (defined in `rome-engine`, re-exported
//!   here) — `next_arrival_at` merges into the event horizon, `pull_into`
//!   releases due requests, `on_completion` feeds the memory system's
//!   behaviour back to the generator;
//! * **[`ReplaySource`]** — any materialized vector as a source, making
//!   every existing experiment a special case (pinned bit-identical by the
//!   regression suite);
//! * **[`ClosedLoopHost`]** — the windowed closed-loop host model: at most
//!   `window` requests outstanding, the next injected only on a completion —
//!   the true latency/bandwidth curve instead of a saturated burst
//!   ([`closed_loop`]);
//! * **serving-traffic generators** grounded in `rome-llm`:
//!   [`MoeRoutingSource`] (Zipf hot-expert routing skew over expert weight
//!   regions, [`moe`]), [`PrefillDecodeInterleaveSource`] (alternating dense
//!   sequential prefill and sparse decode phases, [`phases`]),
//!   [`MultiTenantMixSource`] (N seeded tenants merged deterministically by
//!   arrival time, [`tenants`]);
//! * **synthetic builders** ([`synthetic`]) — the materialized
//!   streaming/strided/random generators (re-exported by
//!   `rome_mc::workload`) plus the periodic [`BurstSource`];
//! * **trace replay** ([`trace`]) — [`TraceSource`] replays recorded
//!   serving traces from JSONL `(arrival, kind, addr, bytes, tag)` records,
//!   tagging ids for per-class attribution;
//! * **SLO-aware scheduling** — an [`SloPolicy`] (per-tenant window caps
//!   and priorities) turns the closed-loop host into a serving scheduler:
//!   freed window slots go to the highest-priority tenant with headroom;
//! * **per-class statistics** ([`stats`]) — fold completions into per-tenant
//!   / per-phase bandwidth and latency summaries.
//!
//! Drivers live next to the systems they drive:
//! `rome_engine::simulate::run_with_source_budgeted` for a single
//! controller, `MultiChannelSystem::run_with_source_budgeted` (wrapped by
//! `MemorySystem::run_with_source` and `RomeMemorySystem::run_with_source`)
//! for whole systems, and `rome_sim::serving` for closed-loop sweeps.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod closed_loop;
pub mod moe;
pub mod phases;
pub mod stats;
pub mod synthetic;
pub mod tenants;
pub mod trace;

pub use closed_loop::{ClosedLoopHost, SloPolicy, TenantSlo};
pub use moe::{MoeRoutingConfig, MoeRoutingSource};
pub use phases::{PrefillDecodeConfig, PrefillDecodeInterleaveSource};
pub use stats::{ClassStats, ClassedStats};
pub use synthetic::BurstSource;
pub use tenants::{MultiTenantMixSource, Tenant, TenantSpec};
pub use trace::{TraceRecord, TraceSource};

pub use rome_engine::source::{ReplaySource, TrafficSource};
