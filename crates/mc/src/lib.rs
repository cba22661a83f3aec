//! # rome-mc — conventional HBM memory controller
//!
//! This crate implements the baseline the RoMe paper compares against: a
//! conventional cache-line-granularity HBM4 memory controller (§II-D of the
//! paper). It provides:
//!
//! * memory requests and their lifecycle ([`request`], re-exported from
//!   `rome-engine`, whose `MemoryController` trait and generic event-driven
//!   drivers this controller plugs into);
//! * configurable DRAM **address mapping** functions ([`mapping`]);
//! * CAM-style read/write **request queues** ([`queue`]);
//! * the **FR-FCFS command scheduler** with per-bank state logic, an
//!   open-page policy, per-bank refresh and age-based anti-starvation
//!   ([`controller`]) — the paper's baseline and the only policy;
//! * a **multi-channel memory system** that fragments host requests into
//!   cache-line DRAM transactions and steers them by the address mapping
//!   ([`system`]);
//! * synthetic **workload generators** (streaming, strided, random) used by
//!   the queue-depth and VBA design-space experiments ([`workload`]);
//! * bandwidth/latency/row-locality **statistics** ([`stats`]).
//!
//! The controller drives the cycle-accurate [`rome_hbm::HbmChannel`] model;
//! every DRAM command it emits is validated against the full HBM4 timing.
//!
//! # Example
//!
//! ```
//! use rome_mc::{ChannelController, ControllerConfig};
//!
//! // Single-channel controller with the default HBM4 configuration.
//! let config = ControllerConfig::hbm4_baseline();
//! let mut ctrl = ChannelController::new(config);
//!
//! // Stream 4 KiB of reads through it with the engine's generic driver.
//! let reqs = rome_mc::workload::streaming_reads(0x0, 4096, 32);
//! let report = rome_engine::simulate::run_to_completion(&mut ctrl, reqs);
//! assert_eq!(report.bytes_read, 4096);
//! assert!(report.achieved_bandwidth_gbps > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod controller;
pub mod mapping;
pub mod queue;
pub mod stats;
pub mod system;
pub mod workload;

pub use rome_engine::request;

pub use controller::{ChannelController, ControllerConfig};
pub use mapping::{AddressMapping, MappingField, MappingScheme};
pub use request::{MemoryRequest, RequestId, RequestKind};
pub use stats::ControllerStats;
pub use system::{MemorySystem, MemorySystemConfig};
