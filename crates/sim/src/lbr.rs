//! Channel load-balance rate (LBR, Figure 13).
//!
//! Under RoMe's 4 KB access granularity each independently-allocated memory
//! object (a projection matrix, one expert's weights, one sequence's
//! per-layer KV cache) is distributed across the memory channels in 4 KB
//! chunks. An operator whose objects are small relative to
//! `channels × 4 KB` loads some channels more than others, and the
//! most-loaded channel bounds the bandwidth that operator can draw. The LBR
//! of an operator is the ratio of the mean to the maximum per-channel load;
//! the LBR of a step is the traffic-weighted average over its operators
//! (attention and FFN reported separately, as in the paper).
//!
//! # Closed form
//!
//! The k-th object of an operator (counted across its
//! [`Operator::tensor_runs`]) starts at channel `k mod C`, puts its
//! `full = ⌊b/g⌋` whole `g`-byte chunks on consecutive channels and its
//! `tail = b mod g` bytes on the channel after them. The objects of one run
//! have equal size, so the loads a run of `n` objects of `b` bytes adds,
//! starting at channel `s`, follow without visiting the objects:
//!
//! - every channel gets `n·⌊full/C⌋·g` from the complete stripes;
//! - each of the `⌊n/C⌋` complete laps of `C` objects puts one partial
//!   stripe of `full mod C` chunks and one tail on every channel, so every
//!   channel also gets `⌊n/C⌋·((full mod C)·g + tail)`;
//! - the `j`-th of the `n mod C` leftover objects adds `g` on the
//!   `full mod C` channels from `s + j`, and their tails cover the
//!   `n mod C` consecutive channels from `s + full`, one each;
//! - the next run starts at channel `(s + n) mod C`.
//!
//! Each term is an add over a cyclic range of channels, collected in a
//! difference array that is prefix-summed once. An operator (at most five
//! runs) thus costs O(C) whatever its batch, where walking the objects cost
//! O(C) per object.
//!
//! The loads are integers, each at most [`Operator::bytes`], so they are
//! accumulated exactly as `u64` and converted to `f64` once, right before
//! the ratio. The per-object walk this replaces summed the same whole byte
//! counts in `f64`, exactly as long as they stay below 2⁵³; on every such
//! operator both give the same loads and hence bit-identical LBRs. The walk
//! survives as the test-only reference the closed form is checked against.

use serde::{Deserialize, Serialize};

use rome_llm::ops::{Operator, OperatorKind};
use rome_llm::traffic::StepTraffic;

/// The per-kind LBR of one inference step on one memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LbrReport {
    /// Traffic-weighted LBR over attention operators.
    pub attention: f64,
    /// Traffic-weighted LBR over FFN operators.
    pub ffn: f64,
    /// Traffic-weighted LBR over the whole step.
    pub overall: f64,
}

/// Add `amount` to the `len <= diff.len()` channels from `from` on,
/// wrapping past the last channel, in the difference array `diff` of
/// per-channel loads. Entries may wrap below zero; the prefix sums, which
/// are the loads, do not.
fn add_cyclic(diff: &mut [u64], from: usize, len: usize, amount: u64) {
    let channels = diff.len();
    let end = from + len;
    diff[from] = diff[from].wrapping_add(amount);
    if end < channels {
        diff[end] = diff[end].wrapping_sub(amount);
    } else {
        diff[0] = diff[0].wrapping_add(amount);
        diff[end - channels] = diff[end - channels].wrapping_sub(amount);
    }
}

fn lbr_of(loads: &[f64]) -> f64 {
    let max = loads.iter().cloned().fold(0.0f64, f64::max);
    if max == 0.0 {
        return 1.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    mean / max
}

/// The LBR of a single operator execution on a `channels`-channel system with
/// `granularity`-byte interleaving, in O(`channels`) time (see the module
/// docs).
pub fn operator_lbr(op: &Operator, channels: u32, granularity: u64) -> f64 {
    let c = channels as usize;
    if c == 0 {
        return lbr_of(&[]);
    }
    let c64 = c as u64;
    let mut diff = vec![0u64; c];
    let mut start = 0usize; // the channel the run's first object starts on
    for (_, bytes, count) in op.tensor_runs() {
        let (full, tail) = (bytes / granularity, bytes % granularity);
        let partial = (full % c64) as usize;
        let leftover = (count % c64) as usize;
        // Complete stripes of every object, and the partial stripes and
        // tails of each complete lap of `c` objects, load all channels alike.
        let even = count * (full / c64) * granularity
            + (count / c64) * (partial as u64 * granularity + tail);
        add_cyclic(&mut diff, 0, c, even);
        // The leftover objects' partial stripes, then their tails.
        for j in 0..leftover {
            add_cyclic(&mut diff, (start + j) % c, partial, granularity);
        }
        add_cyclic(&mut diff, (start + partial) % c, leftover, tail);
        start = (start + leftover) % c;
    }
    let loads: Vec<f64> = diff
        .iter()
        .scan(0u64, |load, &d| {
            *load = load.wrapping_add(d);
            Some(*load as f64)
        })
        .collect();
    lbr_of(&loads)
}

/// Fold per-operator LBRs into the traffic-weighted report of their step;
/// operators without traffic carry no weight.
pub(crate) fn weighted_report<'a>(
    per_operator: impl IntoIterator<Item = (&'a Operator, f64)>,
) -> LbrReport {
    let mut sums = [(0.0f64, 0.0f64); 3]; // (weighted lbr, weight) for attn / ffn / all
    for (op, lbr) in per_operator {
        let weight = (op.bytes() * op.repeat as u64) as f64;
        if weight == 0.0 {
            continue;
        }
        match op.kind {
            OperatorKind::Attention => {
                sums[0].0 += lbr * weight;
                sums[0].1 += weight;
            }
            OperatorKind::Ffn => {
                sums[1].0 += lbr * weight;
                sums[1].1 += weight;
            }
            _ => {}
        }
        sums[2].0 += lbr * weight;
        sums[2].1 += weight;
    }
    let avg = |(num, den): (f64, f64)| if den == 0.0 { 1.0 } else { num / den };
    LbrReport {
        attention: avg(sums[0]),
        ffn: avg(sums[1]),
        overall: avg(sums[2]),
    }
}

/// Compute the traffic-weighted channel load-balance rates of `step`.
pub fn channel_load_balance(step: &StepTraffic, channels: u32, granularity: u64) -> LbrReport {
    weighted_report(
        step.operators
            .iter()
            .map(|op| (op, operator_lbr(op, channels, granularity))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rome_llm::model::ModelConfig;
    use rome_llm::ops::{decode_step, prefill_step};
    use rome_llm::parallelism::Parallelism;

    use crate::accelerator::AcceleratorSpec;
    use crate::memory_model::MemoryModel;
    use crate::sweep::paper_batch_sweep;

    /// Reference: distribute one object of `bytes` bytes over `loads.len()`
    /// channels in `granularity`-byte chunks, starting at channel `start`.
    fn distribute(loads: &mut [f64], bytes: u64, granularity: u64, start: usize) {
        let channels = loads.len();
        if bytes == 0 || channels == 0 {
            return;
        }
        let channels_u64 = channels as u64;
        let full_chunks = bytes / granularity;
        let tail = bytes % granularity;
        for (c, load) in loads.iter_mut().enumerate() {
            let offset = ((c + channels - start) % channels) as u64;
            if full_chunks > offset {
                let count = (full_chunks - offset - 1) / channels_u64 + 1;
                *load += (count * granularity) as f64;
            }
        }
        if tail > 0 {
            let c = (start + (full_chunks % channels_u64) as usize) % channels;
            loads[c] += tail as f64;
        }
    }

    /// Reference: the operator's LBR by walking every memory object.
    fn reference_operator_lbr(op: &Operator, channels: u32, granularity: u64) -> f64 {
        let mut loads = vec![0.0; channels as usize];
        let mut start = 0usize;
        for (_, bytes) in op.tensor_units() {
            distribute(&mut loads, bytes, granularity, start);
            start = (start + 1) % channels as usize;
        }
        lbr_of(&loads)
    }

    fn operator(weight: (u64, u64), kv: (u64, u64), activation_bytes: u64) -> Operator {
        Operator {
            name: "random".to_string(),
            kind: OperatorKind::Attention,
            repeat: 1,
            weight_bytes: weight.0,
            activation_bytes,
            kv_bytes: kv.0,
            flops: 0,
            weight_unit_bytes: weight.1,
            kv_unit_bytes: kv.1,
        }
    }

    /// `(total bytes, unit bytes)` of one data kind: `count` units of `unit`
    /// bytes plus a remainder, with the unit field zero, at least the total,
    /// an exact divisor, or a non-divisor.
    fn kind_sizes() -> impl Strategy<Value = (u64, u64)> {
        (0u64..700, 1u64..20_000, 0u64..20_000, 0u8..4).prop_map(|(count, unit, rem, shape)| {
            let rem = rem % unit;
            match shape {
                0 => (count * unit + rem, 0),
                1 => (count * unit + rem, count * unit + rem + rem % 3),
                2 => (count * unit, unit),
                _ => (count * unit + rem.max(1) % unit, unit),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn closed_form_matches_the_per_object_walk(
            weight in kind_sizes(),
            kv in kind_sizes(),
            activation in 0u64..100_000,
            shape in (1u32..301, prop::sample::select(vec![1u64, 32, 100, 4096])),
        ) {
            let (channels, granularity) = shape;
            let op = operator(weight, kv, activation);
            prop_assert_eq!(
                operator_lbr(&op, channels, granularity).to_bits(),
                reference_operator_lbr(&op, channels, granularity).to_bits(),
                "{:?} on {} channels at {} B",
                op,
                channels,
                granularity
            );
        }
    }

    #[test]
    fn closed_form_matches_the_per_object_walk_on_every_paper_step() {
        let accel = AcceleratorSpec::paper_default();
        let systems = [
            MemoryModel::hbm4_baseline(&accel),
            MemoryModel::rome(&accel),
        ];
        for model in ModelConfig::paper_models() {
            let mut steps = vec![prefill_step(
                &model,
                &Parallelism::paper_prefill(&model),
                16,
                8192,
            )];
            for batch in paper_batch_sweep(&model, 8192) {
                steps.push(decode_step(
                    &model,
                    &Parallelism::paper_decode(&model),
                    batch,
                    8192,
                ));
            }
            for (step, mem) in steps
                .iter()
                .flat_map(|s| systems.iter().map(move |m| (s, m)))
            {
                for op in &step.operators {
                    let (channels, granularity) = (mem.channels, mem.access_granularity);
                    assert_eq!(
                        operator_lbr(op, channels, granularity).to_bits(),
                        reference_operator_lbr(op, channels, granularity).to_bits(),
                        "{} {:?} batch {} {} on {}",
                        model.name,
                        step.stage,
                        step.batch,
                        op.name,
                        mem.kind
                    );
                }
            }
        }
    }

    #[test]
    fn lbr_cost_is_independent_of_the_object_count() {
        // 2^40 objects of 4 KiB on 288 channels: walking them would take
        // 16 TiB of unit entries. Object k fills channel k mod 288, so the
        // 2^40 mod 288 = 160 leftover objects put one extra chunk on channels
        // 0..160.
        let objects = 1u64 << 40;
        let op = operator((objects * 4096, 4096), (0, 0), 0);
        let laps = objects / 288;
        assert_eq!(objects % 288, 160);
        let max = ((laps + 1) * 4096) as f64;
        let mean = (objects * 4096) as f64 / 288.0;
        assert_eq!(
            operator_lbr(&op, 288, 4096).to_bits(),
            (mean / max).to_bits()
        );
    }

    fn step(model: &ModelConfig, batch: u64) -> StepTraffic {
        let par = Parallelism::paper_decode(model);
        decode_step(model, &par, batch, 8192)
    }

    #[test]
    fn cache_line_granularity_is_essentially_balanced() {
        for model in ModelConfig::paper_models() {
            let s = step(&model, 64);
            let report = channel_load_balance(&s, 256, 32);
            assert!(
                report.overall > 0.97,
                "{}: overall {}",
                model.name,
                report.overall
            );
            assert!(
                report.attention > 0.95,
                "{}: attn {}",
                model.name,
                report.attention
            );
            assert!(report.ffn > 0.95, "{}: ffn {}", model.name, report.ffn);
        }
    }

    #[test]
    fn row_granularity_lbr_is_at_most_one_and_improves_with_batch() {
        for model in ModelConfig::paper_models() {
            let small = channel_load_balance(&step(&model, 8), 288, 4096);
            let large = channel_load_balance(&step(&model, 256), 288, 4096);
            assert!(small.attention <= 1.0 + 1e-9 && small.ffn <= 1.0 + 1e-9);
            assert!(
                large.attention >= small.attention - 0.02,
                "{}: attention LBR degraded {} -> {}",
                model.name,
                small.attention,
                large.attention
            );
            assert!(
                small.overall > 0.5,
                "{}: overall {}",
                model.name,
                small.overall
            );
        }
    }

    #[test]
    fn llama_attention_lbr_stays_high_due_to_large_hidden_dim() {
        // The paper: Llama-3 keeps high LBR_Attn even under TP because its
        // hidden dimension (16,384) keeps the per-device weight slices large.
        let llama = channel_load_balance(&step(&ModelConfig::llama3_405b(), 8), 288, 4096);
        let grok = channel_load_balance(&step(&ModelConfig::grok_1(), 8), 288, 4096);
        assert!(
            llama.attention > 0.85,
            "Llama attention LBR {}",
            llama.attention
        );
        assert!(
            llama.attention >= grok.attention - 0.02,
            "Llama ({}) should not trail Grok ({})",
            llama.attention,
            grok.attention
        );
    }

    #[test]
    fn deepseek_attention_lbr_is_high_under_data_parallelism() {
        let ds = channel_load_balance(&step(&ModelConfig::deepseek_v3(), 8), 288, 4096);
        assert!(
            ds.attention > 0.9,
            "DeepSeek attention LBR {}",
            ds.attention
        );
    }

    #[test]
    fn distribute_handles_exact_and_partial_chunks() {
        let mut loads = vec![0.0; 4];
        distribute(&mut loads, 4 * 4096, 4096, 0);
        assert_eq!(loads, vec![4096.0; 4]);
        let mut loads = vec![0.0; 4];
        distribute(&mut loads, 4096 + 100, 4096, 1);
        assert_eq!(loads[1], 4096.0);
        assert_eq!(loads[2], 100.0);
        assert_eq!(loads[0], 0.0);
        let mut loads = vec![0.0; 4];
        distribute(&mut loads, 0, 4096, 0);
        assert_eq!(loads, vec![0.0; 4]);
    }

    #[test]
    fn lbr_of_uniform_loads_is_one_and_empty_is_one() {
        assert_eq!(lbr_of(&[5.0, 5.0, 5.0]), 1.0);
        assert_eq!(lbr_of(&[]), 1.0);
        assert_eq!(lbr_of(&[0.0, 0.0]), 1.0);
        assert!((lbr_of(&[1.0, 3.0]) - (2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn operator_lbr_penalizes_objects_smaller_than_the_channel_stripe() {
        use rome_llm::ops::Operator;
        // 64 objects of 8 KiB over 288 channels at 4 KiB granularity: only
        // 128 of 288 channels receive anything.
        let op = Operator {
            name: "small".to_string(),
            kind: OperatorKind::Ffn,
            repeat: 1,
            weight_bytes: 64 * 8192,
            activation_bytes: 0,
            kv_bytes: 0,
            flops: 0,
            weight_unit_bytes: 8192,
            kv_unit_bytes: 0,
        };
        let coarse = operator_lbr(&op, 288, 4096);
        let fine = operator_lbr(&op, 288, 32);
        assert!(coarse < 0.7, "coarse {coarse}");
        assert!(fine > 0.85, "fine {fine}");
        assert!(
            fine > coarse,
            "finer interleaving must balance better ({fine} vs {coarse})"
        );
    }
}
