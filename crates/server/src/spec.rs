//! The declarative scenario vocabulary: [`ScenarioSpec`] in,
//! [`ScenarioResult`] out.
//!
//! A spec names one experiment the repo already knows how to run — an
//! analytic figure sweep, a §V-A queue-depth sweep, a closed-loop workload
//! window sweep, a calibration point, a decode-TPOT point, or a sharded
//! multi-cube streaming run — as plain data. Specs and results round-trip
//! through the canonical JSON of [`crate::json`], one object per JSONL
//! line, which is the wire format of the `rome-server` CLI and the batch
//! form of [`crate::ScenarioEngine::serve_batch`].
//!
//! The serde derives on these types are for the eventual registry builds
//! (the vendored offline `serde` is a no-op); the hand-rolled
//! `to_json`/`from_json` codecs here are the canonical wire format either
//! way.

use serde::{Deserialize, Serialize};

use rome_engine::request::RequestKind;
use rome_engine::SimulationReport;
use rome_llm::model::ModelConfig;
use rome_llm::types::Stage;
use rome_sim::serving::ClosedLoopPoint;
use rome_sim::sweep::{Figure12Row, Figure13Row, ScenarioReport, SweepKind};
use rome_sim::tpot::TpotReport;
use rome_sim::{CalibrationResult, LbrReport, MemorySystemKind};
use rome_workload::trace::TraceRecord;
use rome_workload::{
    BurstSource, MoeRoutingConfig, MoeRoutingSource, MultiTenantMixSource, PrefillDecodeConfig,
    PrefillDecodeInterleaveSource, TenantSpec, TraceSource, TrafficSource,
};

use crate::json::Json;

/// A malformed or unsupported scenario spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// One declarative scenario request. See the module docs; every variant
/// corresponds to a pre-existing direct-call experiment path, and the
/// regression suite pins that serving a spec reproduces that path
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioSpec {
    /// An analytic figure sweep — one [`rome_sim::ScenarioSet`] scenario
    /// (Figure 12 TPOT comparison or Figure 13 LBR series).
    Sweep {
        /// Scenario name (carried into the result).
        name: String,
        /// Which figure series to produce.
        kind: SweepKind,
        /// Context length of the sweep.
        seq_len: u64,
        /// Measured (warm-cached cycle simulation) vs nominal calibration.
        calibrated: bool,
    },
    /// The §V-A queue-depth streaming sweep on one single-channel
    /// controller.
    QueueDepth {
        /// Scenario name.
        name: String,
        /// Which memory system's controller to sweep.
        system: MemorySystemKind,
        /// Request-queue depths to sweep.
        depths: Vec<usize>,
        /// Bytes of the streaming-read workload.
        total_bytes: u64,
        /// Request granularity (32 for HBM4, the 4 KiB row for RoMe).
        granularity: u64,
    },
    /// A closed-loop workload window sweep on a sampled memory system
    /// (the `rome_sim::serving::closed_loop_sweep` path).
    ClosedLoop {
        /// Scenario name.
        name: String,
        /// Which memory system to drive.
        system: MemorySystemKind,
        /// Channels of the sampled system.
        channels: u16,
        /// Closed-loop windows to sweep.
        windows: Vec<usize>,
        /// Per-point time limit in ns.
        max_ns: u64,
        /// The traffic the closed-loop host feeds the system.
        workload: WorkloadSpec,
    },
    /// One warm-cached calibration point.
    Calibration {
        /// Scenario name.
        name: String,
        /// Which memory system to calibrate.
        system: MemorySystemKind,
    },
    /// One decode-TPOT point, reported for both memory systems.
    Tpot {
        /// Scenario name.
        name: String,
        /// Model name (`deepseek-v3`, `grok-1`, `llama-3`).
        model: String,
        /// Decode batch size.
        batch: u64,
        /// Context length.
        seq_len: u64,
        /// Measured (warm-cached) vs nominal calibration.
        calibrated: bool,
    },
    /// A sharded multi-cube streaming run: one multi-channel system per
    /// cube, cubes run in parallel threads, reports merged.
    MultiCube {
        /// Scenario name.
        name: String,
        /// Which memory system each cube instantiates.
        system: MemorySystemKind,
        /// Number of cubes (each its own `MultiChannelSystem`).
        cubes: u16,
        /// Channels per cube.
        channels_per_cube: u16,
        /// Sequential bytes streamed through each cube.
        bytes_per_cube: u64,
        /// Per-cube time limit in ns.
        max_ns: u64,
    },
}

/// The traffic of a [`ScenarioSpec::ClosedLoop`] scenario, lowered to a
/// streaming [`TrafficSource`] at serve time. Building is deterministic:
/// the same spec always yields the identical source (the seeds are in the
/// spec), which is what makes served results reproducible bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// MoE expert-routing skew ([`MoeRoutingSource`]).
    Moe(MoeRoutingConfig),
    /// Prefill/decode interleave ([`PrefillDecodeInterleaveSource`]).
    PrefillDecode(PrefillDecodeConfig),
    /// A multi-tenant mix of per-model decode streams
    /// ([`MultiTenantMixSource`]).
    MultiTenant(Vec<TenantDecl>),
    /// Periodic sequential bursts ([`BurstSource`]).
    Burst {
        /// Base address of the burst region.
        base: u64,
        /// Span the burst cursor wraps within.
        span: u64,
        /// Bytes per burst.
        bytes_per_burst: u64,
        /// Request granularity.
        granularity: u64,
        /// Arrival gap between bursts in ns.
        period_ns: u64,
        /// Number of bursts.
        bursts: u64,
        /// One write per this many requests (0 = reads only).
        write_period: u64,
    },
    /// Replay of an inline recorded trace ([`TraceSource`]).
    Trace(Vec<TraceRecord>),
}

/// A declarative tenant of a [`WorkloadSpec::MultiTenant`] mix: the
/// JSON-facing form of [`TenantSpec`] with the model referenced by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantDecl {
    /// Tenant name.
    pub name: String,
    /// Model name (`deepseek-v3`, `grok-1`, `llama-3`).
    pub model: String,
    /// Decode batch size.
    pub batch: u64,
    /// Context length.
    pub seq_len: u64,
    /// Arrival period between decode steps in ns.
    pub period_ns: u64,
    /// Decode steps to generate.
    pub steps: u64,
    /// Traffic scale divisor.
    pub scale: u64,
    /// Request granularity.
    pub granularity: u64,
}

impl TenantDecl {
    fn lower(&self) -> Result<TenantSpec, SpecError> {
        Ok(TenantSpec {
            name: self.name.clone(),
            model: model_by_name(&self.model)?,
            batch: self.batch,
            seq_len: self.seq_len,
            period_ns: self.period_ns,
            steps: self.steps,
            scale: self.scale,
            granularity: self.granularity,
        })
    }
}

/// Resolve a model name (case- and punctuation-insensitive) to its
/// [`ModelConfig`]. Accepts the paper names (`DeepSeek-V3`, `Grok 1`,
/// `Llama 3`) and the common short forms.
pub fn model_by_name(name: &str) -> Result<ModelConfig, SpecError> {
    let norm: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    for model in ModelConfig::paper_models() {
        let canonical: String = model
            .name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        if norm == canonical {
            return Ok(model);
        }
    }
    match norm.as_str() {
        "deepseekv3" | "deepseek" => Ok(ModelConfig::deepseek_v3()),
        "grok1" | "grok" => Ok(ModelConfig::grok_1()),
        "llama3" | "llama" | "llama3405b" => Ok(ModelConfig::llama3_405b()),
        _ => Err(err(format!("unknown model {name:?}"))),
    }
}

impl WorkloadSpec {
    /// Lower the spec to a fresh, identically-seeded traffic source. Every
    /// call builds the same source; a closed-loop sweep calls once per
    /// window so every point sees the same traffic.
    pub fn build_source(&self) -> Result<Box<dyn TrafficSource + Send>, SpecError> {
        Ok(match self {
            WorkloadSpec::Moe(cfg) => Box::new(MoeRoutingSource::new(cfg.clone())),
            WorkloadSpec::PrefillDecode(cfg) => {
                Box::new(PrefillDecodeInterleaveSource::new(cfg.clone()))
            }
            WorkloadSpec::MultiTenant(tenants) => {
                if tenants.is_empty() {
                    return Err(err("multi-tenant workload needs at least one tenant"));
                }
                let specs = tenants
                    .iter()
                    .map(TenantDecl::lower)
                    .collect::<Result<Vec<_>, _>>()?;
                Box::new(MultiTenantMixSource::from_specs(&specs))
            }
            WorkloadSpec::Burst {
                base,
                span,
                bytes_per_burst,
                granularity,
                period_ns,
                bursts,
                write_period,
            } => Box::new(BurstSource::new(
                *base,
                *span,
                *bytes_per_burst,
                *granularity,
                *period_ns,
                *bursts,
                *write_period,
            )),
            WorkloadSpec::Trace(records) => Box::new(TraceSource::from_records(records)),
        })
    }
}

impl ScenarioSpec {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        match self {
            ScenarioSpec::Sweep { name, .. }
            | ScenarioSpec::QueueDepth { name, .. }
            | ScenarioSpec::ClosedLoop { name, .. }
            | ScenarioSpec::Calibration { name, .. }
            | ScenarioSpec::Tpot { name, .. }
            | ScenarioSpec::MultiCube { name, .. } => name,
        }
    }

    /// The wire tag of the variant (`"sweep"`, `"closed_loop"`, …).
    pub fn tag(&self) -> &'static str {
        match self {
            ScenarioSpec::Sweep { .. } => "sweep",
            ScenarioSpec::QueueDepth { .. } => "queue_depth",
            ScenarioSpec::ClosedLoop { .. } => "closed_loop",
            ScenarioSpec::Calibration { .. } => "calibration",
            ScenarioSpec::Tpot { .. } => "tpot",
            ScenarioSpec::MultiCube { .. } => "multi_cube",
        }
    }

    /// A shape-based cost proxy for admission control, in abstract units
    /// roughly proportional to the number of simulated fragments the
    /// scenario will push through a run loop. Analytic scenarios (sweeps,
    /// TPOT) cost 1 at any batch: their step model and channel load-balance
    /// rate are closed forms whose work does not grow with the batch or the
    /// number of memory objects. A calibration is a fixed sampled
    /// cycle-accurate run;
    /// loop scenarios scale with their traffic and point counts. The proxy
    /// is intentionally cheap and conservative — it is compared against
    /// `AdmissionConfig::max_batch_cost` before anything runs, so it must
    /// never itself be expensive or panic (all arithmetic saturates).
    pub fn estimated_cost(&self) -> u64 {
        match self {
            ScenarioSpec::Sweep { .. } | ScenarioSpec::Tpot { .. } => 1,
            ScenarioSpec::Calibration { .. } => 64,
            ScenarioSpec::QueueDepth {
                depths,
                total_bytes,
                granularity,
                ..
            } => {
                let fragments = *total_bytes / (*granularity).max(1);
                (depths.len() as u64).saturating_mul(fragments.max(1))
            }
            ScenarioSpec::ClosedLoop {
                windows, max_ns, ..
            } => {
                let horizon = (*max_ns / 1000).max(1);
                (windows.len() as u64).saturating_mul(horizon)
            }
            ScenarioSpec::MultiCube {
                cubes,
                bytes_per_cube,
                ..
            } => {
                let fragments = (bytes_per_cube / 4096).max(1);
                u64::from(*cubes).saturating_mul(fragments)
            }
        }
    }

    /// The specs a [`rome_sim::ScenarioSet`] batch corresponds to: the
    /// serving form of every scenario in the set. `serve_batch` over these
    /// (with `calibrated` matching the set's run mode) reproduces
    /// `set.run_nominal()` (or `set.run_with_models` over the calibrated
    /// pair) row for row.
    pub fn from_scenario_set(set: &rome_sim::ScenarioSet, calibrated: bool) -> Vec<ScenarioSpec> {
        set.scenarios
            .iter()
            .map(|s| ScenarioSpec::Sweep {
                name: s.name.clone(),
                kind: s.kind,
                seq_len: s.seq_len,
                calibrated,
            })
            .collect()
    }

    /// Encode as canonical JSON (one JSONL line via [`Json::emit`]).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(&'static str, Json)> = vec![
            ("scenario", Json::from(self.tag())),
            ("name", Json::from(self.name())),
        ];
        match self {
            ScenarioSpec::Sweep {
                kind,
                seq_len,
                calibrated,
                ..
            } => {
                members.push(("kind", sweep_kind_to_json(*kind)));
                members.push(("seq_len", Json::from(*seq_len)));
                members.push(("calibrated", Json::from(*calibrated)));
            }
            ScenarioSpec::QueueDepth {
                system,
                depths,
                total_bytes,
                granularity,
                ..
            } => {
                members.push(("system", system_to_json(*system)));
                members.push((
                    "depths",
                    Json::Arr(depths.iter().map(|&d| Json::from(d)).collect()),
                ));
                members.push(("total_bytes", Json::from(*total_bytes)));
                members.push(("granularity", Json::from(*granularity)));
            }
            ScenarioSpec::ClosedLoop {
                system,
                channels,
                windows,
                max_ns,
                workload,
                ..
            } => {
                members.push(("system", system_to_json(*system)));
                members.push(("channels", Json::from(*channels as u64)));
                members.push((
                    "windows",
                    Json::Arr(windows.iter().map(|&w| Json::from(w)).collect()),
                ));
                members.push(("max_ns", Json::from(*max_ns)));
                members.push(("workload", workload.to_json()));
            }
            ScenarioSpec::Calibration { system, .. } => {
                members.push(("system", system_to_json(*system)));
            }
            ScenarioSpec::Tpot {
                model,
                batch,
                seq_len,
                calibrated,
                ..
            } => {
                members.push(("model", Json::from(model.as_str())));
                members.push(("batch", Json::from(*batch)));
                members.push(("seq_len", Json::from(*seq_len)));
                members.push(("calibrated", Json::from(*calibrated)));
            }
            ScenarioSpec::MultiCube {
                system,
                cubes,
                channels_per_cube,
                bytes_per_cube,
                max_ns,
                ..
            } => {
                members.push(("system", system_to_json(*system)));
                members.push(("cubes", Json::from(*cubes as u64)));
                members.push(("channels_per_cube", Json::from(*channels_per_cube as u64)));
                members.push(("bytes_per_cube", Json::from(*bytes_per_cube)));
                members.push(("max_ns", Json::from(*max_ns)));
            }
        }
        Json::obj(members)
    }

    /// Decode from the JSON of [`ScenarioSpec::to_json`].
    pub fn from_json(value: &Json) -> Result<ScenarioSpec, SpecError> {
        let tag = req_str(value, "scenario")?;
        let name = req_str(value, "name")?.to_string();
        match tag {
            "sweep" => Ok(ScenarioSpec::Sweep {
                name,
                kind: sweep_kind_from_json(req(value, "kind")?)?,
                seq_len: req_u64(value, "seq_len")?,
                calibrated: opt_bool(value, "calibrated", false)?,
            }),
            "queue_depth" => Ok(ScenarioSpec::QueueDepth {
                name,
                system: system_from_json(req(value, "system")?)?,
                depths: req_arr(value, "depths")?
                    .iter()
                    .map(|d| d.as_usize().ok_or_else(|| err("bad depth")))
                    .collect::<Result<Vec<_>, _>>()?,
                total_bytes: req_u64(value, "total_bytes")?,
                granularity: req_u64(value, "granularity")?,
            }),
            "closed_loop" => Ok(ScenarioSpec::ClosedLoop {
                name,
                system: system_from_json(req(value, "system")?)?,
                channels: req_u16(value, "channels")?,
                windows: req_arr(value, "windows")?
                    .iter()
                    .map(|w| w.as_usize().ok_or_else(|| err("bad window")))
                    .collect::<Result<Vec<_>, _>>()?,
                max_ns: req_u64(value, "max_ns")?,
                workload: WorkloadSpec::from_json(req(value, "workload")?)?,
            }),
            "calibration" => Ok(ScenarioSpec::Calibration {
                name,
                system: system_from_json(req(value, "system")?)?,
            }),
            "tpot" => Ok(ScenarioSpec::Tpot {
                name,
                model: req_str(value, "model")?.to_string(),
                batch: req_u64(value, "batch")?,
                seq_len: req_u64(value, "seq_len")?,
                calibrated: opt_bool(value, "calibrated", false)?,
            }),
            "multi_cube" => Ok(ScenarioSpec::MultiCube {
                name,
                system: system_from_json(req(value, "system")?)?,
                cubes: req_u16(value, "cubes")?,
                channels_per_cube: req_u16(value, "channels_per_cube")?,
                bytes_per_cube: req_u64(value, "bytes_per_cube")?,
                max_ns: req_u64(value, "max_ns")?,
            }),
            other => Err(err(format!("unknown scenario tag {other:?}"))),
        }
    }
}

impl WorkloadSpec {
    /// Encode as canonical JSON.
    pub fn to_json(&self) -> Json {
        match self {
            WorkloadSpec::Moe(cfg) => Json::obj([
                ("type", Json::from("moe")),
                ("experts", Json::from(cfg.experts as u64)),
                ("top_k", Json::from(cfg.top_k as u64)),
                ("expert_bytes", Json::from(cfg.expert_bytes)),
                ("layers", Json::from(cfg.layers as u64)),
                ("tokens_per_step", Json::from(cfg.tokens_per_step)),
                ("steps", Json::from(cfg.steps)),
                ("step_period_ns", Json::from(cfg.step_period_ns)),
                ("granularity", Json::from(cfg.granularity)),
                ("base", Json::from(cfg.base)),
                ("zipf_exponent", Json::from(cfg.zipf_exponent)),
                ("seed", Json::from(cfg.seed)),
            ]),
            WorkloadSpec::PrefillDecode(cfg) => Json::obj([
                ("type", Json::from("prefill_decode")),
                ("prefill_bytes", Json::from(cfg.prefill_bytes)),
                ("prefill_granularity", Json::from(cfg.prefill_granularity)),
                ("decode_bytes", Json::from(cfg.decode_bytes)),
                ("decode_granularity", Json::from(cfg.decode_granularity)),
                (
                    "decode_steps_per_prefill",
                    Json::from(cfg.decode_steps_per_prefill as u64),
                ),
                ("rounds", Json::from(cfg.rounds as u64)),
                ("phase_period_ns", Json::from(cfg.phase_period_ns)),
                ("weight_base", Json::from(cfg.weight_base)),
                ("weight_span", Json::from(cfg.weight_span)),
                ("kv_base", Json::from(cfg.kv_base)),
                ("kv_span", Json::from(cfg.kv_span)),
                ("kv_write_period", Json::from(cfg.kv_write_period)),
                ("seed", Json::from(cfg.seed)),
            ]),
            WorkloadSpec::MultiTenant(tenants) => Json::obj([
                ("type", Json::from("multi_tenant")),
                (
                    "tenants",
                    Json::Arr(
                        tenants
                            .iter()
                            .map(|t| {
                                Json::obj([
                                    ("name", Json::from(t.name.as_str())),
                                    ("model", Json::from(t.model.as_str())),
                                    ("batch", Json::from(t.batch)),
                                    ("seq_len", Json::from(t.seq_len)),
                                    ("period_ns", Json::from(t.period_ns)),
                                    ("steps", Json::from(t.steps)),
                                    ("scale", Json::from(t.scale)),
                                    ("granularity", Json::from(t.granularity)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            WorkloadSpec::Burst {
                base,
                span,
                bytes_per_burst,
                granularity,
                period_ns,
                bursts,
                write_period,
            } => Json::obj([
                ("type", Json::from("burst")),
                ("base", Json::from(*base)),
                ("span", Json::from(*span)),
                ("bytes_per_burst", Json::from(*bytes_per_burst)),
                ("granularity", Json::from(*granularity)),
                ("period_ns", Json::from(*period_ns)),
                ("bursts", Json::from(*bursts)),
                ("write_period", Json::from(*write_period)),
            ]),
            WorkloadSpec::Trace(records) => Json::obj([
                ("type", Json::from("trace")),
                (
                    "records",
                    Json::Arr(records.iter().map(trace_record_to_json).collect()),
                ),
            ]),
        }
    }

    /// Decode from the JSON of [`WorkloadSpec::to_json`].
    pub fn from_json(value: &Json) -> Result<WorkloadSpec, SpecError> {
        match req_str(value, "type")? {
            "moe" => Ok(WorkloadSpec::Moe(MoeRoutingConfig {
                experts: req_u64(value, "experts")? as u32,
                top_k: req_u64(value, "top_k")? as u32,
                expert_bytes: req_u64(value, "expert_bytes")?,
                layers: req_u64(value, "layers")? as u32,
                tokens_per_step: req_u64(value, "tokens_per_step")?,
                steps: req_u64(value, "steps")?,
                step_period_ns: req_u64(value, "step_period_ns")?,
                granularity: req_u64(value, "granularity")?,
                base: req_u64(value, "base")?,
                zipf_exponent: req_f64(value, "zipf_exponent")?,
                seed: req_u64(value, "seed")?,
            })),
            "prefill_decode" => Ok(WorkloadSpec::PrefillDecode(PrefillDecodeConfig {
                prefill_bytes: req_u64(value, "prefill_bytes")?,
                prefill_granularity: req_u64(value, "prefill_granularity")?,
                decode_bytes: req_u64(value, "decode_bytes")?,
                decode_granularity: req_u64(value, "decode_granularity")?,
                decode_steps_per_prefill: req_u64(value, "decode_steps_per_prefill")? as u32,
                rounds: req_u64(value, "rounds")? as u32,
                phase_period_ns: req_u64(value, "phase_period_ns")?,
                weight_base: req_u64(value, "weight_base")?,
                weight_span: req_u64(value, "weight_span")?,
                kv_base: req_u64(value, "kv_base")?,
                kv_span: req_u64(value, "kv_span")?,
                kv_write_period: req_u64(value, "kv_write_period")?,
                seed: req_u64(value, "seed")?,
            })),
            "multi_tenant" => Ok(WorkloadSpec::MultiTenant(
                req_arr(value, "tenants")?
                    .iter()
                    .map(|t| {
                        Ok(TenantDecl {
                            name: req_str(t, "name")?.to_string(),
                            model: req_str(t, "model")?.to_string(),
                            batch: req_u64(t, "batch")?,
                            seq_len: req_u64(t, "seq_len")?,
                            period_ns: req_u64(t, "period_ns")?,
                            steps: req_u64(t, "steps")?,
                            scale: req_u64(t, "scale")?,
                            granularity: req_u64(t, "granularity")?,
                        })
                    })
                    .collect::<Result<Vec<_>, SpecError>>()?,
            )),
            "burst" => Ok(WorkloadSpec::Burst {
                base: req_u64(value, "base")?,
                span: req_u64(value, "span")?,
                bytes_per_burst: req_u64(value, "bytes_per_burst")?,
                granularity: req_u64(value, "granularity")?,
                period_ns: req_u64(value, "period_ns")?,
                bursts: req_u64(value, "bursts")?,
                write_period: req_u64(value, "write_period")?,
            }),
            "trace" => Ok(WorkloadSpec::Trace(
                req_arr(value, "records")?
                    .iter()
                    .map(trace_record_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            other => Err(err(format!("unknown workload type {other:?}"))),
        }
    }
}

/// One served scenario's outcome: the spec's name and tag plus the payload
/// (the unified [`SimulationReport`]s and domain statistics of the
/// underlying experiment path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Name of the spec this answers.
    pub name: String,
    /// The result payload.
    pub payload: ResultPayload,
}

/// The per-variant payload of a [`ScenarioResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResultPayload {
    /// Figure sweep rows (exactly one of the row kinds populated).
    Sweep(ScenarioReport),
    /// Queue-depth rows, one unified report per depth.
    QueueDepth(Vec<QueueDepthRow>),
    /// Closed-loop latency/bandwidth points, one per window.
    ClosedLoop(Vec<ClosedLoopPoint>),
    /// A calibration point.
    Calibration(CalibrationResult),
    /// Decode TPOT on both memory systems.
    Tpot {
        /// The conventional HBM4 system's report.
        hbm4: TpotReport,
        /// The RoMe system's report.
        rome: TpotReport,
    },
    /// Sharded multi-cube run: per-cube reports plus the merged summary.
    /// Boxed: the embedded reports carry inline latency histograms, which
    /// would otherwise make this variant dwarf the others.
    MultiCube(Box<MultiCubeReport>),
}

/// One row of a queue-depth sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueDepthRow {
    /// Request-queue depth of this row.
    pub depth: usize,
    /// The unified single-channel report at that depth.
    pub report: SimulationReport,
}

/// The result of a sharded multi-cube run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiCubeReport {
    /// Reports merged across cubes ([`rome_engine::merge_reports`]).
    pub merged: SimulationReport,
    /// Per-cube reports, in cube order.
    pub per_cube: Vec<SimulationReport>,
}

impl ResultPayload {
    /// The wire tag of the payload variant (matches the spec tags).
    pub fn tag(&self) -> &'static str {
        match self {
            ResultPayload::Sweep(_) => "sweep",
            ResultPayload::QueueDepth(_) => "queue_depth",
            ResultPayload::ClosedLoop(_) => "closed_loop",
            ResultPayload::Calibration(_) => "calibration",
            ResultPayload::Tpot { .. } => "tpot",
            ResultPayload::MultiCube(_) => "multi_cube",
        }
    }
}

impl ScenarioResult {
    /// Encode as canonical JSON (one JSONL line via [`Json::emit`]).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(&'static str, Json)> = vec![
            ("name", Json::from(self.name.as_str())),
            ("scenario", Json::from(self.payload.tag())),
        ];
        match &self.payload {
            ResultPayload::Sweep(report) => {
                members.push(("kind", sweep_kind_to_json(report.kind)));
                members.push(("seq_len", Json::from(report.seq_len)));
                if let Some(rows) = &report.figure12 {
                    members.push((
                        "figure12",
                        Json::Arr(rows.iter().map(figure12_to_json).collect()),
                    ));
                }
                if let Some(rows) = &report.figure13 {
                    members.push((
                        "figure13",
                        Json::Arr(rows.iter().map(figure13_to_json).collect()),
                    ));
                }
            }
            ResultPayload::QueueDepth(rows) => {
                members.push((
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj([
                                    ("depth", Json::from(r.depth)),
                                    ("report", report_to_json(&r.report)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            ResultPayload::ClosedLoop(points) => {
                members.push((
                    "points",
                    Json::Arr(points.iter().map(closed_loop_point_to_json).collect()),
                ));
            }
            ResultPayload::Calibration(c) => {
                members.push((
                    "calibration",
                    Json::obj([
                        ("bandwidth_utilization", Json::from(c.bandwidth_utilization)),
                        ("activates_per_kib", Json::from(c.activates_per_kib)),
                        ("mean_read_latency_ns", Json::from(c.mean_read_latency_ns)),
                    ]),
                ));
            }
            ResultPayload::Tpot { hbm4, rome } => {
                members.push(("hbm4", tpot_to_json(hbm4)));
                members.push(("rome", tpot_to_json(rome)));
            }
            ResultPayload::MultiCube(report) => {
                members.push(("merged", report_to_json(&report.merged)));
                members.push((
                    "per_cube",
                    Json::Arr(report.per_cube.iter().map(report_to_json).collect()),
                ));
            }
        }
        Json::obj(members)
    }
}

// ---- field helpers ----

fn req<'a>(value: &'a Json, key: &str) -> Result<&'a Json, SpecError> {
    value
        .get(key)
        .ok_or_else(|| err(format!("missing {key:?}")))
}

fn req_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, SpecError> {
    req(value, key)?
        .as_str()
        .ok_or_else(|| err(format!("{key:?} must be a string")))
}

fn req_u64(value: &Json, key: &str) -> Result<u64, SpecError> {
    req(value, key)?
        .as_u64()
        .ok_or_else(|| err(format!("{key:?} must be a non-negative integer")))
}

fn req_u16(value: &Json, key: &str) -> Result<u16, SpecError> {
    req_u64(value, key)?
        .try_into()
        .map_err(|_| err(format!("{key:?} must fit 16 bits")))
}

fn req_f64(value: &Json, key: &str) -> Result<f64, SpecError> {
    req(value, key)?
        .as_f64()
        .ok_or_else(|| err(format!("{key:?} must be a number")))
}

fn req_arr<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], SpecError> {
    req(value, key)?
        .as_arr()
        .ok_or_else(|| err(format!("{key:?} must be an array")))
}

fn opt_bool(value: &Json, key: &str, default: bool) -> Result<bool, SpecError> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| err(format!("{key:?} must be a bool"))),
    }
}

// ---- leaf codecs ----

fn system_to_json(kind: MemorySystemKind) -> Json {
    Json::from(match kind {
        MemorySystemKind::Hbm4 => "hbm4",
        MemorySystemKind::Rome => "rome",
        MemorySystemKind::RomeIsoBandwidth => "rome_iso",
    })
}

fn system_from_json(value: &Json) -> Result<MemorySystemKind, SpecError> {
    match value.as_str() {
        Some("hbm4") => Ok(MemorySystemKind::Hbm4),
        Some("rome") => Ok(MemorySystemKind::Rome),
        Some("rome_iso") => Ok(MemorySystemKind::RomeIsoBandwidth),
        _ => Err(err("system must be \"hbm4\", \"rome\", or \"rome_iso\"")),
    }
}

fn sweep_kind_to_json(kind: SweepKind) -> Json {
    Json::from(match kind {
        SweepKind::Figure12 => "figure12",
        SweepKind::Figure13 => "figure13",
    })
}

fn sweep_kind_from_json(value: &Json) -> Result<SweepKind, SpecError> {
    match value.as_str() {
        Some("figure12") => Ok(SweepKind::Figure12),
        Some("figure13") => Ok(SweepKind::Figure13),
        _ => Err(err("kind must be \"figure12\" or \"figure13\"")),
    }
}

fn trace_record_to_json(r: &TraceRecord) -> Json {
    Json::obj([
        ("arrival", Json::from(r.arrival)),
        (
            "kind",
            Json::from(match r.kind {
                RequestKind::Read => "read",
                RequestKind::Write => "write",
            }),
        ),
        ("addr", Json::from(r.addr)),
        ("bytes", Json::from(r.bytes)),
        ("tag", Json::from(r.tag as u64)),
    ])
}

fn trace_record_from_json(value: &Json) -> Result<TraceRecord, SpecError> {
    let bytes = req_u64(value, "bytes")?;
    if bytes == 0 {
        // The JSONL trace parser enforces the same rule; a zero-byte
        // request would inject but never complete, stalling a closed loop.
        return Err(err("record bytes must be non-zero"));
    }
    Ok(TraceRecord {
        arrival: req_u64(value, "arrival")?,
        kind: match req_str(value, "kind")? {
            "read" => RequestKind::Read,
            "write" => RequestKind::Write,
            _ => return Err(err("record kind must be \"read\" or \"write\"")),
        },
        addr: req_u64(value, "addr")?,
        bytes,
        tag: req_u16(value, "tag")?,
    })
}

/// Encode a unified [`SimulationReport`]. The `aborted` key is emitted only
/// when the run was actually cut short, and the `read_latency` percentile
/// object only when the run recorded a sim-time latency histogram (sampling
/// on), so every report of an unbounded, unsampled run stays byte-identical
/// to the pre-budget, pre-telemetry encoding.
pub fn report_to_json(r: &SimulationReport) -> Json {
    let mut members = vec![
        ("requests_completed", Json::from(r.requests_completed)),
        ("bytes_read", Json::from(r.bytes_read)),
        ("bytes_written", Json::from(r.bytes_written)),
        ("bytes_transferred", Json::from(r.bytes_transferred)),
        ("finish_time", Json::from(r.finish_time)),
        (
            "achieved_bandwidth_gbps",
            Json::from(r.achieved_bandwidth_gbps),
        ),
        ("mean_read_latency", Json::from(r.mean_read_latency)),
        ("row_hit_rate", Json::from(r.row_hit_rate)),
        ("activates_per_kib", Json::from(r.activates_per_kib)),
    ];
    if let Some(reason) = r.aborted {
        members.push(("aborted", Json::from(reason.as_str())));
    }
    if !r.read_latency.is_empty() {
        // Sim-time percentiles: deterministic, bit-identical run to run.
        members.push((
            "read_latency",
            Json::obj([
                ("count", Json::from(r.read_latency.count())),
                ("max", Json::from(r.read_latency.max())),
                ("p50", Json::from(r.read_latency.p50())),
                ("p95", Json::from(r.read_latency.p95())),
                ("p99", Json::from(r.read_latency.p99())),
            ]),
        ));
    }
    Json::obj(members)
}

fn closed_loop_point_to_json(p: &ClosedLoopPoint) -> Json {
    let mut members = vec![
        ("window", Json::from(p.window)),
        ("injected", Json::from(p.injected)),
        ("completed", Json::from(p.completed)),
        ("bytes", Json::from(p.bytes)),
        ("achieved_gbps", Json::from(p.achieved_gbps)),
        ("mean_latency_ns", Json::from(p.mean_latency_ns)),
        ("max_latency_ns", Json::from(p.max_latency_ns)),
        ("stop_ns", Json::from(p.stop_ns)),
    ];
    if let Some(reason) = p.aborted {
        members.push(("aborted", Json::from(reason.as_str())));
    }
    Json::obj(members)
}

fn lbr_to_json(l: &LbrReport) -> Json {
    Json::obj([
        ("attention", Json::from(l.attention)),
        ("ffn", Json::from(l.ffn)),
        ("overall", Json::from(l.overall)),
    ])
}

fn tpot_to_json(t: &TpotReport) -> Json {
    Json::obj([
        ("model", Json::from(t.model.as_str())),
        (
            "stage",
            Json::from(match t.stage {
                Stage::Prefill => "prefill",
                Stage::Decode => "decode",
            }),
        ),
        ("batch", Json::from(t.batch)),
        ("seq_len", Json::from(t.seq_len)),
        ("memory_system", Json::from(t.memory_system.as_str())),
        ("tpot_ms", Json::from(t.tpot_ms)),
        ("memory_bound_ms", Json::from(t.memory_bound_ms)),
        ("compute_bound_ms", Json::from(t.compute_bound_ms)),
        ("communication_ms", Json::from(t.communication_ms)),
        ("lbr", lbr_to_json(&t.lbr)),
    ])
}

fn figure12_to_json(r: &Figure12Row) -> Json {
    Json::obj([
        ("model", Json::from(r.model.as_str())),
        ("batch", Json::from(r.batch)),
        ("tpot_hbm4_ms", Json::from(r.tpot_hbm4_ms)),
        ("tpot_rome_ms", Json::from(r.tpot_rome_ms)),
        ("normalized_rome", Json::from(r.normalized_rome)),
    ])
}

fn figure13_to_json(r: &Figure13Row) -> Json {
    Json::obj([
        ("model", Json::from(r.model.as_str())),
        ("batch", Json::from(r.batch)),
        ("lbr_attention", Json::from(r.lbr_attention)),
        ("lbr_ffn", Json::from(r.lbr_ffn)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    pub(crate) fn sample_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::Sweep {
                name: "fig13-8k".into(),
                kind: SweepKind::Figure13,
                seq_len: 8192,
                calibrated: false,
            },
            ScenarioSpec::QueueDepth {
                name: "qd-rome".into(),
                system: MemorySystemKind::Rome,
                depths: vec![1, 2, 4],
                total_bytes: 256 * 1024,
                granularity: 4096,
            },
            ScenarioSpec::ClosedLoop {
                name: "moe-sweep".into(),
                system: MemorySystemKind::Hbm4,
                channels: 4,
                windows: vec![1, 8],
                max_ns: 10_000_000,
                workload: WorkloadSpec::Moe(MoeRoutingConfig {
                    experts: 8,
                    top_k: 2,
                    expert_bytes: 4096,
                    layers: 2,
                    tokens_per_step: 8,
                    steps: 2,
                    step_period_ns: 0,
                    granularity: 4096,
                    base: 0,
                    zipf_exponent: 1.0,
                    seed: 11,
                }),
            },
            ScenarioSpec::ClosedLoop {
                name: "trace-replay".into(),
                system: MemorySystemKind::Rome,
                channels: 2,
                windows: vec![2],
                max_ns: 10_000_000,
                workload: WorkloadSpec::Trace(vec![
                    TraceRecord {
                        arrival: 0,
                        kind: RequestKind::Read,
                        addr: 0,
                        bytes: 4096,
                        tag: 1,
                    },
                    TraceRecord {
                        arrival: 64,
                        kind: RequestKind::Write,
                        addr: 8192,
                        bytes: 4096,
                        tag: 2,
                    },
                ]),
            },
            ScenarioSpec::Calibration {
                name: "cal-hbm4".into(),
                system: MemorySystemKind::Hbm4,
            },
            ScenarioSpec::Tpot {
                name: "tpot-grok-64".into(),
                model: "grok-1".into(),
                batch: 64,
                seq_len: 8192,
                calibrated: false,
            },
            ScenarioSpec::MultiCube {
                name: "cubes".into(),
                system: MemorySystemKind::Rome,
                cubes: 2,
                channels_per_cube: 4,
                bytes_per_cube: 256 * 1024,
                max_ns: 5_000_000,
            },
        ]
    }

    #[test]
    fn specs_round_trip_through_canonical_json() {
        for spec in sample_specs() {
            let line = spec.to_json().emit();
            let parsed = ScenarioSpec::from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(parsed, spec, "round-trip changed the spec: {line}");
            // Canonical emission is a fixed point.
            assert_eq!(parsed.to_json().emit(), line);
        }
    }

    #[test]
    fn workloads_round_trip_including_tenants_and_bursts() {
        let workloads = vec![
            WorkloadSpec::PrefillDecode(PrefillDecodeConfig {
                prefill_bytes: 4 * 4096,
                prefill_granularity: 4096,
                decode_bytes: 8 * 32,
                decode_granularity: 32,
                decode_steps_per_prefill: 2,
                rounds: 2,
                phase_period_ns: 1_000,
                weight_base: 0,
                weight_span: 16 * 4096,
                kv_base: 1 << 20,
                kv_span: 1 << 16,
                kv_write_period: 4,
                seed: 3,
            }),
            WorkloadSpec::MultiTenant(vec![TenantDecl {
                name: "grok-b16".into(),
                model: "grok-1".into(),
                batch: 16,
                seq_len: 4096,
                period_ns: 2_000,
                steps: 2,
                scale: 1 << 16,
                granularity: 4096,
            }]),
            WorkloadSpec::Burst {
                base: 0,
                span: 1 << 20,
                bytes_per_burst: 32 * 1024,
                granularity: 4096,
                period_ns: 500,
                bursts: 3,
                write_period: 4,
            },
        ];
        for w in workloads {
            let line = w.to_json().emit();
            let parsed = WorkloadSpec::from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(parsed, w, "round-trip changed the workload: {line}");
            parsed.build_source().expect("workload must lower");
        }
    }

    #[test]
    fn model_names_resolve_loosely() {
        assert_eq!(model_by_name("DeepSeek-V3").unwrap().name, "DeepSeek-V3");
        assert_eq!(model_by_name("deepseek_v3").unwrap().name, "DeepSeek-V3");
        assert_eq!(model_by_name("grok 1").unwrap().name, "Grok 1");
        assert_eq!(model_by_name("llama-3").unwrap().name, "Llama 3");
        assert!(model_by_name("gpt-2").is_err());
    }

    #[test]
    fn malformed_specs_report_what_is_missing() {
        let cases = [
            ("{}", "missing \"scenario\""),
            (
                "{\"scenario\":\"sweep\",\"name\":\"x\"}",
                "missing \"kind\"",
            ),
            (
                "{\"scenario\":\"warp\",\"name\":\"x\"}",
                "unknown scenario tag",
            ),
            (
                "{\"scenario\":\"calibration\",\"name\":\"x\",\"system\":\"ddr4\"}",
                "system must be",
            ),
        ];
        for (line, needle) in cases {
            let e = ScenarioSpec::from_json(&parse(line).unwrap()).unwrap_err();
            assert!(e.0.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn scenario_set_lowers_to_sweep_specs() {
        let set = rome_sim::ScenarioSet::paper_default();
        let specs = ScenarioSpec::from_scenario_set(&set, false);
        assert_eq!(specs.len(), set.len());
        assert!(matches!(
            &specs[0],
            ScenarioSpec::Sweep {
                kind: SweepKind::Figure12,
                seq_len: 8192,
                calibrated: false,
                ..
            }
        ));
    }
}
