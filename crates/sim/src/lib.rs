//! # rome-sim — system-level co-simulation of AI accelerators and memory
//!
//! This crate reproduces the paper's evaluation methodology (§VI-A): an AI
//! accelerator with a fixed arithmetic intensity (280 Op/B) attached to eight
//! HBM4 cubes, serving LLM decode/prefill steps whose memory traffic comes
//! from `rome-llm`, over either the conventional HBM4 memory system
//! (`rome-mc`) or the RoMe memory system (`rome-core`).
//!
//! * [`accelerator`] — the accelerator and 8-device server model;
//! * [`memory_model`] — the two memory-system configurations (plus an
//!   iso-bandwidth RoMe ablation);
//! * [`calibration`] — sampled cycle-accurate runs that measure each memory
//!   system's effective bandwidth utilization and activation overhead on
//!   LLM-like traffic;
//! * [`lbr`] — the channel load-balance rate of Figure 13;
//! * [`tpot`] — time-per-output-token (Figure 12) and prefill timing;
//! * [`energy_rollup`] — the DRAM energy comparison of Figure 14;
//! * [`sweep`] — batch-size sweeps producing whole figures at once, plus the
//!   batched [`ScenarioSet`] runner that executes many sweep scenarios
//!   behind one warm (calibrate-once) process;
//! * [`serving`] — closed-loop window sweeps driving sampled memory systems
//!   from the streaming `rome-workload` sources (MoE routing skew,
//!   prefill/decode interleave, multi-tenant mixes);
//! * [`overfetch`] — the fine-grained-access ablation of §VII.
//!
//! # Example
//!
//! ```
//! use rome_llm::ModelConfig;
//! use rome_sim::{decode_tpot, AcceleratorSpec, MemoryModel};
//!
//! let accel = AcceleratorSpec::paper_default();
//! let model = ModelConfig::grok_1();
//! let hbm4 = MemoryModel::hbm4_baseline(&accel);
//! let rome = MemoryModel::rome(&accel);
//! let tpot_hbm4 = decode_tpot(&model, 64, 8192, &accel, &hbm4);
//! let tpot_rome = decode_tpot(&model, 64, 8192, &accel, &rome);
//! assert!(tpot_rome.tpot_ms < tpot_hbm4.tpot_ms);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accelerator;
pub mod calibration;
pub mod energy_rollup;
pub mod lbr;
pub mod memory_model;
pub mod overfetch;
pub mod serving;
pub mod sweep;
pub mod tpot;

pub use accelerator::{AcceleratorSpec, ServerSpec};
pub use calibration::{CalibrationCache, CalibrationResult, Calibrator};
pub use energy_rollup::{decode_energy, EnergyComparison};
pub use lbr::{channel_load_balance, LbrReport};
pub use memory_model::{MemoryModel, MemorySystemKind};
pub use serving::{closed_loop_point, closed_loop_sweep, knee_point, ClosedLoopPoint};
pub use sweep::{Scenario, ScenarioReport, ScenarioSet, SweepKind};
pub use tpot::{decode_tpot, prefill_time, TpotReport};
