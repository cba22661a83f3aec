//! Per-operator FLOP and memory-traffic accounting.
//!
//! A [`StepTraffic`] describes everything one accelerator does for a single
//! inference step (one decode iteration, or one prefill pass): a list of
//! operators, each annotated with the bytes of weight / activation / KV-cache
//! data it moves and the FLOPs it performs *on that device* given the
//! parallelization strategy. `rome-sim` turns this into time by combining it
//! with an accelerator and a memory system.

use serde::{Deserialize, Serialize};

use crate::model::ModelConfig;
use crate::parallelism::Parallelism;
use crate::traffic::StepTraffic;
use crate::types::{DataKind, Stage};

/// Coarse classification of operators (used to split attention vs FFN for
/// the paper's Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatorKind {
    /// Token embedding lookup.
    Embedding,
    /// Attention projections and score/context computation.
    Attention,
    /// Feed-forward network (dense or MoE experts).
    Ffn,
    /// Normalization and other element-wise work.
    Elementwise,
    /// The final language-model head.
    LmHead,
}

impl std::fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OperatorKind::Embedding => "embedding",
            OperatorKind::Attention => "attention",
            OperatorKind::Ffn => "ffn",
            OperatorKind::Elementwise => "elementwise",
            OperatorKind::LmHead => "lm_head",
        };
        f.write_str(s)
    }
}

/// One operator instance as executed by one device, possibly repeated across
/// `repeat` identical layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operator {
    /// Operator name (e.g. `"attn_proj"`, `"moe_experts"`).
    pub name: String,
    /// Coarse kind.
    pub kind: OperatorKind,
    /// How many times this operator runs per step (number of layers it
    /// appears in).
    pub repeat: u32,
    /// Weight bytes read per execution (per device).
    pub weight_bytes: u64,
    /// Activation bytes read + written per execution (per device).
    pub activation_bytes: u64,
    /// KV-cache bytes read + written per execution (per device).
    pub kv_bytes: u64,
    /// Floating-point operations per execution (per device).
    pub flops: u64,
    /// Size of one independently-allocated weight object within this
    /// operator (one projection matrix, one expert matrix, …). Zero means
    /// the weight traffic is a single object. Used by the channel
    /// load-balance analysis.
    pub weight_unit_bytes: u64,
    /// Size of one independently-allocated KV-cache object (one sequence's
    /// per-layer cache). Zero means a single object.
    pub kv_unit_bytes: u64,
}

impl Operator {
    /// Total memory traffic of one execution, in bytes.
    pub fn bytes(&self) -> u64 {
        self.weight_bytes + self.activation_bytes + self.kv_bytes
    }

    /// Memory traffic of one execution attributed to `kind`.
    pub fn bytes_of(&self, kind: DataKind) -> u64 {
        match kind {
            DataKind::Weight => self.weight_bytes,
            DataKind::Activation => self.activation_bytes,
            DataKind::KvCache => self.kv_bytes,
        }
    }

    /// Arithmetic intensity (FLOPs per byte) of one execution.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes() == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / self.bytes() as f64
        }
    }

    /// Break one execution's traffic into runs of equal-sized,
    /// independently-allocated memory objects, as `(kind, object bytes,
    /// object count)`: the whole weight matrices, then the weight remainder,
    /// the whole per-sequence KV-cache slices, then the KV remainder, and the
    /// activation buffer. A kind whose unit size is zero or at least its
    /// total is one object; empty runs are skipped. At most five runs come
    /// out, whatever the batch, and `Σ bytes × count` equals
    /// [`Operator::bytes`].
    pub fn tensor_runs(&self) -> impl Iterator<Item = (DataKind, u64, u64)> {
        fn split(kind: DataKind, total: u64, unit: u64) -> [(DataKind, u64, u64); 2] {
            if unit == 0 || unit >= total {
                [(kind, total, 1), (kind, 0, 0)]
            } else {
                [(kind, unit, total / unit), (kind, total % unit, 1)]
            }
        }
        [
            split(DataKind::Weight, self.weight_bytes, self.weight_unit_bytes),
            split(DataKind::KvCache, self.kv_bytes, self.kv_unit_bytes),
            split(DataKind::Activation, self.activation_bytes, 0),
        ]
        .into_iter()
        .flatten()
        .filter(|&(_, bytes, count)| bytes > 0 && count > 0)
    }

    /// One entry per memory object, in [`Operator::tensor_runs`] order. The
    /// sum of the returned sizes equals [`Operator::bytes`]. Its length grows
    /// with the batch; prefer `tensor_runs` wherever a count suffices.
    pub fn tensor_units(&self) -> Vec<(DataKind, u64)> {
        self.tensor_runs()
            .flat_map(|(kind, bytes, count)| std::iter::repeat_n((kind, bytes), count as usize))
            .collect()
    }
}

fn attention_ops(
    model: &ModelConfig,
    par: &Parallelism,
    stage: Stage,
    batch: u64,
    seq_len: u64,
) -> Vec<Operator> {
    let dtype = model.dtype.bytes();
    let hidden = model.hidden as u64;
    let tp = par.attention_tp as u64;
    // Tokens processed by this device's attention in one step.
    let device_sequences = par.attention_batch_share(batch);
    let tokens = match stage {
        Stage::Decode => device_sequences,
        Stage::Prefill => device_sequences * seq_len,
    };
    // Context each new token attends over.
    let context = match stage {
        Stage::Decode => seq_len,
        Stage::Prefill => seq_len / 2,
    };

    let proj_weight_bytes = model.attention.weight_params(hidden) * dtype / tp;
    let proj_matrices = if model.attention.is_mla() { 5 } else { 4 };
    let proj = Operator {
        name: "attn_proj".to_string(),
        kind: OperatorKind::Attention,
        repeat: model.layers,
        weight_bytes: proj_weight_bytes,
        activation_bytes: 2 * tokens * hidden * dtype,
        kv_bytes: 0,
        flops: model.attention.projection_flops(hidden, tokens) / tp,
        weight_unit_bytes: proj_weight_bytes / proj_matrices,
        kv_unit_bytes: 0,
    };

    let kv_per_token = model.attention.kv_bytes_per_token(dtype);
    let kv_read = match stage {
        // Every generated token re-reads the whole per-layer KV cache of its
        // sequences (split across TP for GQA; whole for MLA under DP).
        Stage::Decode => device_sequences * seq_len * kv_per_token / tp,
        // Prefill builds the cache and re-reads it roughly once.
        Stage::Prefill => tokens * kv_per_token / tp,
    };
    let kv_write = tokens * kv_per_token / tp;
    let score = Operator {
        name: "attn_score_context".to_string(),
        kind: OperatorKind::Attention,
        repeat: model.layers,
        weight_bytes: 0,
        activation_bytes: 2 * tokens * hidden * dtype,
        kv_bytes: kv_read + kv_write,
        flops: model.attention.attention_flops(context, tokens) / tp,
        weight_unit_bytes: 0,
        // One sequence's per-layer cache is the independently-placed unit.
        kv_unit_bytes: seq_len * kv_per_token / tp,
    };

    vec![proj, score]
}

fn ffn_ops(
    model: &ModelConfig,
    par: &Parallelism,
    stage: Stage,
    batch: u64,
    seq_len: u64,
) -> Vec<Operator> {
    let dtype = model.dtype.bytes();
    let hidden = model.hidden as u64;
    let tokens = match stage {
        Stage::Decode => batch,
        Stage::Prefill => batch * seq_len,
    };
    let mut ops = Vec::new();

    // Leading dense layers (DeepSeek-V3 has 3).
    if model.leading_dense_layers > 0 {
        let dense = crate::ffn::FfnConfig::Dense {
            intermediate: model.leading_dense_intermediate,
        };
        let weight_bytes = dense.weight_params(hidden) * dtype / par.ffn_tp as u64;
        ops.push(Operator {
            name: "dense_ffn_leading".to_string(),
            kind: OperatorKind::Ffn,
            repeat: model.leading_dense_layers,
            weight_bytes,
            activation_bytes: 2 * tokens * hidden * dtype,
            kv_bytes: 0,
            flops: dense.flops(hidden, tokens) / par.ffn_tp as u64,
            weight_unit_bytes: weight_bytes / 3,
            kv_unit_bytes: 0,
        });
    }

    let main_layers = model.layers - model.leading_dense_layers;
    if model.ffn.is_moe() {
        // Expert parallelism: every device owns experts/EP experts and
        // processes the tokens routed to them; the distinct experts a batch
        // touches are spread uniformly over the devices.
        let ep = par.expert_parallel as u64;
        let touched = model.ffn.weight_params_touched(hidden, tokens);
        // One expert projection matrix is the independently-placed unit.
        let expert_matrix = hidden * model.ffn.intermediate() as u64 * dtype;
        ops.push(Operator {
            name: "moe_experts".to_string(),
            kind: OperatorKind::Ffn,
            repeat: main_layers,
            weight_bytes: touched * dtype / ep,
            activation_bytes: 2 * tokens * hidden * dtype / ep,
            kv_bytes: 0,
            flops: model.ffn.flops(hidden, tokens) / ep,
            weight_unit_bytes: expert_matrix,
            kv_unit_bytes: 0,
        });
    } else {
        let weight_bytes = model.ffn.weight_params(hidden) * dtype / par.ffn_tp as u64;
        ops.push(Operator {
            name: "dense_ffn".to_string(),
            kind: OperatorKind::Ffn,
            repeat: main_layers,
            weight_bytes,
            activation_bytes: 2 * tokens * hidden * dtype,
            kv_bytes: 0,
            flops: model.ffn.flops(hidden, tokens) / par.ffn_tp as u64,
            weight_unit_bytes: weight_bytes / 3,
            kv_unit_bytes: 0,
        });
    }
    ops
}

fn shared_ops(
    model: &ModelConfig,
    par: &Parallelism,
    stage: Stage,
    batch: u64,
    seq_len: u64,
) -> Vec<Operator> {
    let dtype = model.dtype.bytes();
    let hidden = model.hidden as u64;
    let tokens = match stage {
        Stage::Decode => batch,
        Stage::Prefill => batch * seq_len,
    };
    let norm = Operator {
        name: "rmsnorm".to_string(),
        kind: OperatorKind::Elementwise,
        repeat: 2 * model.layers,
        weight_bytes: hidden * dtype,
        activation_bytes: 2 * tokens * hidden * dtype,
        kv_bytes: 0,
        flops: 6 * tokens * hidden,
        weight_unit_bytes: 0,
        kv_unit_bytes: 0,
    };
    let embedding = Operator {
        name: "embedding".to_string(),
        kind: OperatorKind::Embedding,
        repeat: 1,
        weight_bytes: tokens * hidden * dtype,
        activation_bytes: tokens * hidden * dtype,
        kv_bytes: 0,
        flops: tokens * hidden,
        weight_unit_bytes: hidden * dtype,
        kv_unit_bytes: 0,
    };
    let lm_head_weight = model.vocab as u64 * hidden * dtype / par.ffn_tp as u64;
    let lm_head = Operator {
        name: "lm_head".to_string(),
        kind: OperatorKind::LmHead,
        repeat: 1,
        weight_bytes: lm_head_weight,
        activation_bytes: (tokens * hidden + batch * model.vocab as u64) * dtype,
        kv_bytes: 0,
        flops: 2 * model.vocab as u64 * hidden * batch / par.ffn_tp as u64,
        weight_unit_bytes: 0,
        kv_unit_bytes: 0,
    };
    vec![norm, embedding, lm_head]
}

/// Build the per-device traffic of one **decode** step.
pub fn decode_step(
    model: &ModelConfig,
    par: &Parallelism,
    batch: u64,
    seq_len: u64,
) -> StepTraffic {
    build(model, par, Stage::Decode, batch, seq_len)
}

/// Build the per-device traffic of one **prefill** pass.
pub fn prefill_step(
    model: &ModelConfig,
    par: &Parallelism,
    batch: u64,
    seq_len: u64,
) -> StepTraffic {
    build(model, par, Stage::Prefill, batch, seq_len)
}

fn build(
    model: &ModelConfig,
    par: &Parallelism,
    stage: Stage,
    batch: u64,
    seq_len: u64,
) -> StepTraffic {
    par.validate();
    let mut operators = attention_ops(model, par, stage, batch, seq_len);
    operators.extend(ffn_ops(model, par, stage, batch, seq_len));
    operators.extend(shared_ops(model, par, stage, batch, seq_len));
    StepTraffic {
        model: model.name.clone(),
        stage,
        batch,
        seq_len,
        operators,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_step_is_memory_dominated_for_every_paper_model() {
        for model in ModelConfig::paper_models() {
            let par = Parallelism::paper_decode(&model);
            let step = decode_step(&model, &par, 64, 8192);
            // Arithmetic intensity well under the 280 Op/B machine balance.
            let ai = step.flops() as f64 / step.total_bytes() as f64;
            assert!(ai < 280.0, "{}: decode AI {ai:.1}", model.name);
        }
    }

    #[test]
    fn prefill_is_compute_dominated_for_every_paper_model() {
        for model in ModelConfig::paper_models() {
            let par = Parallelism::paper_prefill(&model);
            let step = prefill_step(&model, &par, 64, 8192);
            let ai = step.flops() as f64 / step.total_bytes() as f64;
            assert!(ai > 280.0, "{}: prefill AI {ai:.1}", model.name);
        }
    }

    #[test]
    fn llama_decode_weight_traffic_matches_weights_per_device() {
        let model = ModelConfig::llama3_405b();
        let par = Parallelism::paper_decode(&model);
        let step = decode_step(&model, &par, 8, 8192);
        let weight = step.bytes_of(DataKind::Weight);
        // A dense model reads essentially all of its per-device weights every
        // decode step: ~1/8 of 810 GB ≈ 101 GB.
        let per_device_weights = model.weight_bytes() / 8;
        let ratio = weight as f64 / per_device_weights as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deepseek_moe_weight_traffic_grows_with_batch() {
        let model = ModelConfig::deepseek_v3();
        let par = Parallelism::paper_decode(&model);
        let small = decode_step(&model, &par, 8, 8192).bytes_of(DataKind::Weight);
        let large = decode_step(&model, &par, 256, 8192).bytes_of(DataKind::Weight);
        assert!(
            large > small,
            "MoE should touch more experts at larger batch"
        );
    }

    #[test]
    fn kv_traffic_scales_with_batch_and_sequence_length() {
        let model = ModelConfig::grok_1();
        let par = Parallelism::paper_decode(&model);
        let base = decode_step(&model, &par, 32, 4096).bytes_of(DataKind::KvCache);
        let more_batch = decode_step(&model, &par, 64, 4096).bytes_of(DataKind::KvCache);
        let more_seq = decode_step(&model, &par, 32, 8192).bytes_of(DataKind::KvCache);
        assert!(more_batch as f64 > 1.9 * base as f64);
        assert!(more_seq as f64 > 1.9 * base as f64);
    }

    #[test]
    fn attention_and_ffn_are_separately_attributable() {
        let model = ModelConfig::grok_1();
        let par = Parallelism::paper_decode(&model);
        let step = decode_step(&model, &par, 64, 8192);
        let attn = step.bytes_of_kind_filtered(OperatorKind::Attention);
        let ffn = step.bytes_of_kind_filtered(OperatorKind::Ffn);
        assert!(attn > 0 && ffn > 0);
        assert!(attn + ffn <= step.total_bytes());
    }

    #[test]
    fn operator_helpers() {
        let op = Operator {
            name: "x".to_string(),
            kind: OperatorKind::Ffn,
            repeat: 2,
            weight_bytes: 100,
            activation_bytes: 50,
            kv_bytes: 25,
            flops: 350,
            weight_unit_bytes: 40,
            kv_unit_bytes: 0,
        };
        assert_eq!(op.bytes(), 175);
        assert_eq!(op.bytes_of(DataKind::Weight), 100);
        assert_eq!(op.bytes_of(DataKind::KvCache), 25);
        assert_eq!(op.arithmetic_intensity(), 2.0);
        assert_eq!(OperatorKind::Ffn.to_string(), "ffn");
        let empty = Operator {
            weight_bytes: 0,
            activation_bytes: 0,
            kv_bytes: 0,
            ..op
        };
        assert!(empty.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn tensor_runs_split_objects_and_expand_to_tensor_units() {
        use DataKind::{Activation, KvCache, Weight};
        let op = Operator {
            name: "x".to_string(),
            kind: OperatorKind::Attention,
            repeat: 1,
            weight_bytes: 100,
            activation_bytes: 50,
            kv_bytes: 30,
            flops: 0,
            weight_unit_bytes: 40,
            kv_unit_bytes: 10,
        };
        let runs: Vec<_> = op.tensor_runs().collect();
        assert_eq!(
            runs,
            [
                (Weight, 40, 2),
                (Weight, 20, 1),
                (KvCache, 10, 3),
                (Activation, 50, 1)
            ]
        );
        assert_eq!(
            op.tensor_units(),
            [
                (Weight, 40),
                (Weight, 40),
                (Weight, 20),
                (KvCache, 10),
                (KvCache, 10),
                (KvCache, 10),
                (Activation, 50)
            ]
        );
        // A unit of zero or at least the total is one object; empty kinds
        // contribute nothing.
        let whole = Operator {
            weight_unit_bytes: 100,
            kv_bytes: 0,
            activation_bytes: 0,
            ..op
        };
        assert_eq!(whole.tensor_runs().collect::<Vec<_>>(), [(Weight, 100, 1)]);
        let zero_unit = Operator {
            weight_unit_bytes: 0,
            ..whole
        };
        assert_eq!(zero_unit.tensor_units(), [(Weight, 100)]);

        let mut steps = Vec::new();
        for model in ModelConfig::paper_models() {
            for batch in [8, 64] {
                steps.push(decode_step(
                    &model,
                    &Parallelism::paper_decode(&model),
                    batch,
                    8192,
                ));
                steps.push(prefill_step(
                    &model,
                    &Parallelism::paper_prefill(&model),
                    batch,
                    512,
                ));
            }
        }
        for op in steps.iter().flat_map(|s| &s.operators) {
            let runs: Vec<_> = op.tensor_runs().collect();
            assert!(runs.len() <= 5, "{}: {} runs", op.name, runs.len());
            let expanded: Vec<_> = runs
                .iter()
                .flat_map(|&(kind, bytes, count)| (0..count).map(move |_| (kind, bytes)))
                .collect();
            assert_eq!(expanded, op.tensor_units(), "{}", op.name);
            let total: u64 = runs.iter().map(|&(_, bytes, count)| bytes * count).sum();
            assert_eq!(total, op.bytes(), "{}", op.name);
        }
    }
}
