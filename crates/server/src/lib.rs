//! # rome-server — the scenario-serving subsystem
//!
//! Every sweep, equivalence check, and workload scenario in this repository
//! used to be a bespoke `main`: build the systems, run, print. This crate
//! turns them into *requests against one long-lived engine*:
//!
//! * **[`ScenarioSpec`]** ([`spec`]) — a declarative, JSON-round-trippable
//!   description of one experiment: analytic figure sweeps
//!   (`rome_sim::ScenarioSet` scenarios), §V-A queue-depth streaming sweeps
//!   on either memory system, closed-loop workload window sweeps over any
//!   `rome-workload` source (MoE routing skew, prefill/decode interleave,
//!   multi-tenant mixes, bursts, recorded traces), calibration points, and
//!   sharded multi-cube streaming runs. [`ScenarioResult`] carries the
//!   unified `SimulationReport`s plus the domain statistics of each path.
//! * **[`ScenarioEngine`]** ([`engine`]) — the warm serving state: a
//!   concurrent [`rome_sim::CalibrationCache`] computed at most once and
//!   reused across batches (the `ScenarioSet` calibrate-once idea made
//!   persistent), and a sharded executor — scenarios of a batch fan out
//!   across a worker pool, multi-cube scenarios shard one
//!   `MultiChannelSystem` per cube across threads
//!   ([`rome_engine::run_cubes`]) and merge the reports
//!   ([`rome_engine::merge_reports`]).
//!   Its one serving path is [`ScenarioEngine::serve_observed`]: one
//!   admission gate per batch, one per-spec step, and every outcome folded
//!   into the same counters, span histograms and black box.
//!   [`ScenarioEngine::serve_batch`] is that path keeping only the results.
//! * **Front ends** — the in-process [`ScenarioEngine::serve_batch`], the
//!   JSONL batch CLI ([`cli`], the `rome-server` binary): specs in on stdin
//!   or a file, results out on stdout, in input order, deterministically —
//!   and the socket service ([`net`], [`conn`], [`proto`]), which serves
//!   each request frame through the same path. The CLI is a thin wrapper
//!   over [`cli::serve_jsonl`], so the front ends produce byte-identical
//!   output for the same specs.
//!
//! Served results are **bit-for-bit** the results of the pre-existing
//! direct-call paths (`ScenarioSet::run_nominal`/`run_with_models`,
//! `closed_loop_sweep`, `decode_tpot`, `Calibrator`), pinned by
//! `tests/scenario_server.rs`.
//!
//! The wire format is the canonical JSON of [`json`] (hand-rolled because
//! the offline build stubs out `serde`; the format is canonical either
//! way).
//!
//! # The hardened serving path
//!
//! The serve path is fault-isolated end to end (see `engine` and `error`):
//! structured [`ServerError`]s instead of panics or bare strings, admission
//! control with transient/permanent rejection classes, per-scenario
//! [`rome_engine::RunBudget`]s so runaway specs abort with partial tagged
//! reports, a deterministic [`FaultPlan`] injection harness, and a bounded
//! retry loop ([`cli::serve_jsonl_with_retry`]) in the CLI front end. The
//! crate-level lint below is the guard: no `unwrap`/`expect` can land on
//! the non-test serve path.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;
pub mod conn;
pub mod engine;
pub mod error;
pub mod json;
pub mod net;
pub mod proto;
pub mod spec;

pub use cli::{
    parse_batch, render_results, serve_jsonl, serve_jsonl_with_retry, BatchError, RetryPolicy,
    RetrySchedule,
};
pub use conn::{ConnClose, ConnConfig};
pub use engine::{
    spec_fingerprint, AdmissionConfig, EngineLimits, FaultPlan, ScenarioEngine, ServeSpans, Served,
    ServedRecord,
};
pub use error::{ErrorCode, ServerError};
pub use json::Json;
pub use net::{NetConfig, NetStats, ServerHandle, SocketServer};
pub use proto::{
    Frame, FrameEvent, FrameReader, RecordSpec, Request, TransportFault, TransportFaultPlan,
};
pub use spec::{
    model_by_name, MultiCubeReport, QueueDepthRow, ResultPayload, ScenarioResult, ScenarioSpec,
    SpecError, TenantDecl, WorkloadSpec,
};
