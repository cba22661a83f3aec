//! # rome-llm — LLM workload models for memory-system simulation
//!
//! The RoMe paper evaluates its memory system on three large language models:
//! DeepSeek-V3 (multi-head latent attention + mixture of experts), Grok-1
//! (grouped-query attention + MoE), and Llama-3-405B (GQA + dense FFN). This
//! crate reproduces the workload side of that evaluation:
//!
//! * model architecture descriptions and presets ([`model`], [`attention`],
//!   [`ffn`]);
//! * parallelization strategies — tensor, expert, and data parallelism as the
//!   paper configures them per model and stage ([`parallelism`]);
//! * per-operator FLOP and memory-traffic accounting for the prefill and
//!   decode stages ([`ops`], [`traffic`]);
//! * the weight / activation / KV-cache footprint distribution behind the
//!   paper's Figure 1 ([`footprint`]).
//!
//! The output of this crate is deliberately memory-system-agnostic: operators
//! report how many bytes of each data type they touch and how many FLOPs they
//! perform per device; `rome-sim` combines that with an accelerator model and
//! a memory system (conventional HBM4 or RoMe) to produce end-to-end timing.
//!
//! # Example
//!
//! ```
//! use rome_llm::{decode_step, ModelConfig, Parallelism};
//!
//! let model = ModelConfig::deepseek_v3();
//! let par = Parallelism::paper_decode(&model);
//! let step = decode_step(&model, &par, 64, 8192);
//! // A decode step reads every active expert's weights plus the KV cache.
//! assert!(step.total_bytes() > 1 << 30);
//! assert!(step.flops() > 100e9 as u64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attention;
pub mod ffn;
pub mod footprint;
pub mod model;
pub mod ops;
pub mod parallelism;
pub mod traffic;
pub mod types;

pub use attention::AttentionConfig;
pub use ffn::FfnConfig;
pub use model::ModelConfig;
pub use ops::{decode_step, prefill_step, Operator, OperatorKind};
pub use parallelism::Parallelism;
pub use traffic::{DeviceTraffic, StepTraffic};
pub use types::{DataKind, Dtype, Stage};
