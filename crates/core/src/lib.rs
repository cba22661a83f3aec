//! # rome-core — the RoMe row-granularity memory interface
//!
//! This crate implements the paper's primary contribution (§IV–§V):
//!
//! * the **row-level command interface** — `RD_row` and `WR_row` replace the
//!   column-level `RD`/`WR`, and bank groups and pseudo channels disappear
//!   from the MC–DRAM interface ([`row_command`]);
//! * the **virtual bank (VBA)** organization and its design space: three ways
//!   of merging banks (Fig. 7 b/c/d) × two ways of merging pseudo channels
//!   (Fig. 8 a/b) ([`vba`]);
//! * the **command generator** placed on the HBM logic die, which expands
//!   each row-level command into a fixed, statically-timed sequence of
//!   conventional DRAM commands (Fig. 9) ([`generator`]);
//! * the **C/A-pin model**: how many pins a RoMe channel needs, how many the
//!   row-level interface frees, and how the freed pins fund four extra
//!   channels per cube (+12.5 % bandwidth) ([`pins`], [`channel_plan`]);
//! * the **RoMe memory controller** — three row-level commands, four bank
//!   states, five bank FSMs, a tiny request queue, and a scheduler that only
//!   interleaves across VBAs ([`controller`], [`timing`]);
//! * the RoMe **refresh optimization** (§V-B) ([`refresh`]);
//! * the **controller-complexity model** behind Table IV ([`complexity`]);
//! * a **multi-channel RoMe memory system** mirroring the conventional
//!   system in `rome-mc`, for system-level simulation ([`system`]).
//!
//! # Example
//!
//! ```
//! use rome_core::{RomeController, RomeControllerConfig};
//!
//! // A RoMe channel controller with the paper's default configuration.
//! let mut ctrl = RomeController::new(RomeControllerConfig::paper_default());
//!
//! // Stream 64 KiB of row-granularity reads through it with the engine's
//! // generic driver.
//! let reqs = rome_mc::workload::streaming_reads(0, 64 * 1024, 4096);
//! let report = rome_engine::simulate::run_to_completion(&mut ctrl, reqs);
//! assert_eq!(report.bytes_read, 64 * 1024);
//! // A single channel sustains close to its 64 GB/s peak with a tiny queue.
//! assert!(report.achieved_bandwidth_gbps > 50.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel_plan;
pub mod complexity;
pub mod controller;
pub mod generator;
pub mod pins;
pub mod refresh;
pub mod row_command;
pub mod stats;
pub mod system;
pub mod timing;
pub mod vba;

pub use channel_plan::ChannelPlan;
pub use complexity::{ComplexityComparison, McComplexity};
pub use controller::{RomeController, RomeControllerConfig};
pub use generator::CommandGenerator;
pub use pins::CaPinModel;
pub use row_command::{RowCommand, RowCommandKind, VbaAddress};
pub use stats::RomeStats;
pub use system::{RomeMemorySystem, RomeSystemConfig};
pub use timing::RomeTimingParams;
pub use vba::{BankMerge, PcMerge, VbaConfig};
