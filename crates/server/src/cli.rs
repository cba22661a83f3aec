//! The JSONL batch front end.
//!
//! One [`ScenarioSpec`] object per input line (blank lines and `#` comments
//! skipped), one result object per output line, *in input order* — the
//! output is a deterministic function of the input bytes, so piping the same
//! batch through the `rome-server` binary twice (or through
//! [`ScenarioEngine::serve_batch`] in process) produces byte-identical
//! JSONL; the regression suite pins this. A scenario that fails to run
//! renders as an `{"name":…,"scenario":"error","error":…,"code":…}` line
//! without poisoning the rest of the batch (with `retry_after_ms` appended
//! for transient rejections); a line that fails to *parse* rejects the
//! whole batch up front (nothing runs half-configured).
//!
//! [`serve_jsonl_with_retry`] adds the operational loop on top: scenarios
//! shed by transient admission rejections are retried as a sub-batch with
//! bounded backoff, honoring the engine's retry hints. Against an engine
//! whose admission never sheds (the default), it is byte-identical to
//! [`serve_jsonl`].

use crate::engine::ScenarioEngine;
use crate::error::ServerError;
use crate::json::{self, Json};
use crate::spec::{ScenarioResult, ScenarioSpec};

/// A batch rejected at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// 1-based input line of the offending spec.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BatchError {}

/// Parse a JSONL batch (blank lines and `#` comment lines skipped).
pub fn parse_batch(input: &str) -> Result<Vec<ScenarioSpec>, BatchError> {
    let mut specs = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let value = json::parse(trimmed).map_err(|e| BatchError {
            line: i + 1,
            message: e.to_string(),
        })?;
        specs.push(ScenarioSpec::from_json(&value).map_err(|e| BatchError {
            line: i + 1,
            message: e.to_string(),
        })?);
    }
    Ok(specs)
}

/// Render a batch's results (paired with their specs, in batch order) as
/// canonical JSONL, one line per scenario. Error lines keep the legacy
/// `name`/`scenario`/`error` keys first (pre-structured consumers keep
/// parsing), then append the machine-readable `code` and, for transient
/// rejections, `retry_after_ms`.
pub fn render_results(
    specs: &[ScenarioSpec],
    results: &[Result<ScenarioResult, ServerError>],
) -> String {
    let mut out = String::new();
    for (spec, result) in specs.iter().zip(results) {
        out.push_str(&result_json(spec, result).emit());
        out.push('\n');
    }
    out
}

/// One scenario's result line as a [`Json`] value — the unit
/// [`render_results`] is built from, shared with the socket protocol
/// ([`crate::proto::render_response`]) so both front ends render
/// byte-identical lines.
pub fn result_json(spec: &ScenarioSpec, result: &Result<ScenarioResult, ServerError>) -> Json {
    match result {
        Ok(r) => r.to_json(),
        Err(e) => {
            let mut members = vec![
                ("name", Json::from(spec.name())),
                ("scenario", Json::from("error")),
                ("error", Json::from(e.detail.as_str())),
                ("code", Json::from(e.code.as_str())),
            ];
            if let Some(ms) = e.retry_after_ms {
                members.push(("retry_after_ms", Json::from(ms)));
            }
            Json::obj(members)
        }
    }
}

/// The whole CLI path in one call: parse the JSONL batch, serve it on
/// `engine`, render the results. The `rome-server` binary is a thin wrapper
/// over [`serve_jsonl_with_retry`] (which degenerates to exactly this
/// function against a never-shedding engine), which is what keeps the CLI
/// and the in-process [`ScenarioEngine::serve_batch`] byte-identical.
pub fn serve_jsonl(engine: &ScenarioEngine, input: &str) -> Result<String, BatchError> {
    let specs = parse_batch(input)?;
    let results = engine.serve_batch(&specs);
    Ok(render_results(&specs, &results))
}

/// Bounded retry for the transient error class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry rounds after the initial attempt.
    pub max_retries: u32,
    /// Exponential backoff floor: round `k` waits at least
    /// `base_backoff_ms << k` ms (the engine's retry hint can only raise
    /// the wait).
    pub base_backoff_ms: u64,
    /// Seed for the jitter added on top of the backoff floor, so that many
    /// clients shed at the same instant do not retry in lockstep. It seeds
    /// each loop's [`RetrySchedule`] — same seed, same waits — which keeps
    /// retry timing reproducible in tests.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 10,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff schedule for one retry loop (see [`RetrySchedule`]).
    pub fn schedule(&self) -> RetrySchedule {
        RetrySchedule {
            policy: *self,
            state: self.jitter_seed,
            round: 0,
        }
    }
}

/// One retry loop's backoff stream, drawn from a [`RetryPolicy`].
///
/// A `RetrySchedule` owns one seeded splitmix64 *stream*: it is created
/// once per retry loop ([`serve_jsonl_with_retry`] threads it through),
/// each draw advances the state, and the whole end-to-end wait sequence is
/// a deterministic function of the seed — reproducible in tests, yet
/// streams with different seeds stay de-synchronized across draws, so
/// many loops shed at the same instant do not retry in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrySchedule {
    policy: RetryPolicy,
    state: u64,
    round: u32,
}

impl RetrySchedule {
    /// Draw the wait before the next retry round and advance both the
    /// round counter and the jitter stream. The floor is the larger of
    /// `hint` (the largest engine retry hint among the shed scenarios) and
    /// the exponential schedule `base_backoff_ms << round`, and a seeded
    /// jitter in `[0, floor/2]` is added on top: jitter never schedules a
    /// retry earlier than the engine asked.
    pub fn next_backoff_ms(&mut self, hint: u64) -> u64 {
        let floor = self
            .policy
            .base_backoff_ms
            .checked_shl(self.round)
            .unwrap_or(u64::MAX)
            .max(hint);
        self.round = self.round.saturating_add(1);
        // splitmix64: advance the stream, mix the new state into a draw.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let jitter = z % (floor / 2 + 1);
        floor.saturating_add(jitter)
    }

    /// Retry rounds drawn so far.
    pub fn rounds_taken(&self) -> u32 {
        self.round
    }
}

/// [`serve_jsonl`] plus the operational retry loop: after the initial
/// attempt, scenarios that failed with a *transient* error (an admission
/// rejection carrying a retry hint) are re-served as a sub-batch — up to
/// `policy.max_retries` rounds, each waiting the larger of the engine's
/// hint and the policy's exponential backoff — and their fresh results are
/// mapped back to the original batch positions. Permanent errors are never
/// retried.
pub fn serve_jsonl_with_retry(
    engine: &ScenarioEngine,
    input: &str,
    policy: &RetryPolicy,
) -> Result<String, BatchError> {
    let specs = parse_batch(input)?;
    let mut results = engine.serve_batch(&specs);
    // One seeded backoff stream for the whole loop: the end-to-end wait
    // sequence is a deterministic function of the policy's seed.
    let mut schedule = policy.schedule();
    for _ in 0..policy.max_retries {
        let transient: Vec<usize> = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                Err(e) if e.is_transient() => Some(i),
                _ => None,
            })
            .collect();
        if transient.is_empty() {
            break;
        }
        let hint = transient
            .iter()
            .filter_map(|&i| match &results[i] {
                Err(e) => e.retry_after_ms,
                Ok(_) => None,
            })
            .max()
            .unwrap_or(0);
        let backoff = schedule.next_backoff_ms(hint);
        engine.registry().counter("admission.retry_rounds").inc();
        if backoff > 0 {
            std::thread::sleep(std::time::Duration::from_millis(backoff));
        }
        let sub_batch: Vec<ScenarioSpec> = transient.iter().map(|&i| specs[i].clone()).collect();
        let retried = engine.serve_batch(&sub_batch);
        for (&original, result) in transient.iter().zip(retried) {
            results[original] = result.map_err(|e| e.at_index(original));
        }
    }
    Ok(render_results(&specs, &results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineLimits;

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let input =
            "# a comment\n\n{\"scenario\":\"calibration\",\"name\":\"c\",\"system\":\"hbm4\"}\n";
        let specs = parse_batch(input).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name(), "c");
    }

    #[test]
    fn parse_failures_name_the_line() {
        let input = "{\"scenario\":\"calibration\",\"name\":\"c\",\"system\":\"hbm4\"}\nnot json\n";
        let e = parse_batch(input).unwrap_err();
        assert_eq!(e.line, 2);
        let input = "{\"scenario\":\"nope\",\"name\":\"c\"}";
        let e = parse_batch(input).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown scenario tag"));
    }

    #[test]
    fn degenerate_specs_render_as_error_lines_instead_of_panicking() {
        // Regression: zero windows/depths used to trip downstream asserts
        // and abort the whole process; they must come back as error lines.
        let engine = ScenarioEngine::new();
        let input = concat!(
            "{\"scenario\":\"closed_loop\",\"name\":\"w0\",\"system\":\"rome\",\"channels\":2,",
            "\"windows\":[0],\"max_ns\":1000,\"workload\":{\"type\":\"burst\",\"base\":0,",
            "\"span\":4096,\"bytes_per_burst\":4096,\"granularity\":4096,\"period_ns\":0,",
            "\"bursts\":1,\"write_period\":0}}\n",
            "{\"scenario\":\"queue_depth\",\"name\":\"d0\",\"system\":\"hbm4\",\"depths\":[1,0],",
            "\"total_bytes\":1024,\"granularity\":32}\n",
            "{\"scenario\":\"calibration\",\"name\":\"ok\",\"system\":\"rome\"}\n",
        );
        let out = serve_jsonl(&engine, input).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"scenario\":\"error\"") && lines[0].contains("window"));
        assert!(lines[1].contains("\"scenario\":\"error\"") && lines[1].contains("depth"));
        assert!(lines[2].starts_with("{\"name\":\"ok\",\"scenario\":\"calibration\""));
    }

    #[test]
    fn out_of_range_and_zero_byte_fields_are_rejected_at_parse_time() {
        // Regression: channel counts above u16 used to truncate silently;
        // zero-byte trace records used to inject and never complete.
        let too_wide = "{\"scenario\":\"closed_loop\",\"name\":\"x\",\"system\":\"rome\",\"channels\":65537,\"windows\":[1],\"max_ns\":1000,\"workload\":{\"type\":\"burst\",\"base\":0,\"span\":4096,\"bytes_per_burst\":4096,\"granularity\":4096,\"period_ns\":0,\"bursts\":1,\"write_period\":0}}";
        let e = parse_batch(too_wide).unwrap_err();
        assert!(e.message.contains("16 bits"), "{e}");
        let zero_bytes = "{\"scenario\":\"closed_loop\",\"name\":\"x\",\"system\":\"rome\",\"channels\":2,\"windows\":[1],\"max_ns\":1000,\"workload\":{\"type\":\"trace\",\"records\":[{\"arrival\":0,\"kind\":\"read\",\"addr\":0,\"bytes\":0,\"tag\":0}]}}";
        let e = parse_batch(zero_bytes).unwrap_err();
        assert!(e.message.contains("bytes must be non-zero"), "{e}");
    }

    #[test]
    fn run_errors_render_as_error_lines_in_order() {
        let engine = ScenarioEngine::new();
        let input = "{\"scenario\":\"tpot\",\"name\":\"bad\",\"model\":\"gpt-2\",\"batch\":8,\"seq_len\":4096}\n{\"scenario\":\"sweep\",\"name\":\"ok\",\"kind\":\"figure13\",\"seq_len\":4096}\n";
        let out = serve_jsonl(&engine, input).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"bad\",\"scenario\":\"error\""));
        assert!(lines[0].contains("unknown model"));
        assert!(lines[0].contains("\"code\":\"invalid_spec\""));
        assert!(lines[1].starts_with("{\"name\":\"ok\",\"scenario\":\"sweep\""));
        assert!(lines[1].contains("\"figure13\":["));
    }

    #[test]
    fn transient_rejections_render_their_retry_hint() {
        let mut limits = EngineLimits::default();
        limits.admission.max_in_flight = 0;
        limits.admission.retry_after_ms = 3;
        let engine = ScenarioEngine::with_limits(limits);
        let input = "{\"scenario\":\"calibration\",\"name\":\"c\",\"system\":\"hbm4\"}\n";
        let out = serve_jsonl(&engine, input).unwrap();
        assert!(out.starts_with("{\"name\":\"c\",\"scenario\":\"error\""));
        assert!(out.contains("\"code\":\"rejected\""));
        assert!(out.contains("\"retry_after_ms\":3"));
    }

    #[test]
    fn retry_loop_gives_up_after_bounded_rounds() {
        // A permanently saturated engine: every round sheds, the loop stops
        // at max_retries, and the final render still carries the transient
        // rejection rather than hanging.
        let mut limits = EngineLimits::default();
        limits.admission.max_in_flight = 0;
        limits.admission.retry_after_ms = 1;
        let engine = ScenarioEngine::with_limits(limits);
        let policy = RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 0,
            jitter_seed: 0,
        };
        let input = "{\"scenario\":\"calibration\",\"name\":\"c\",\"system\":\"hbm4\"}\n";
        let out = serve_jsonl_with_retry(&engine, input, &policy).unwrap();
        assert!(out.contains("\"code\":\"rejected\""));
    }

    #[test]
    fn retry_schedules_are_seeded_streams() {
        let policy = RetryPolicy {
            max_retries: 4,
            base_backoff_ms: 10,
            jitter_seed: 42,
        };
        let mut a = policy.schedule();
        let mut b = policy.schedule();
        for round in 0..4 {
            let floor = (10u64 << round).max(25);
            let wait = a.next_backoff_ms(25);
            // Never earlier than the engine's hint or the exponential
            // schedule; jitter at most half the floor.
            assert!(wait >= floor, "round {round}: {wait} < {floor}");
            assert!(wait <= floor + floor / 2, "round {round}: {wait}");
            // Same seed, same stream, draw for draw.
            assert_eq!(wait, b.next_backoff_ms(25));
        }
        assert_eq!(a.rounds_taken(), 4);
        // Different seeds de-synchronize from the very first draw (holds
        // for these specific seeds).
        let mut other = RetryPolicy {
            jitter_seed: 7,
            ..policy
        }
        .schedule();
        assert_ne!(
            policy.schedule().next_backoff_ms(25),
            other.next_backoff_ms(25)
        );
        // Zero floor stays zero: a hintless, zero-base schedule never
        // sleeps, whatever the seed.
        let mut zero = RetryPolicy {
            max_retries: 1,
            base_backoff_ms: 0,
            jitter_seed: 42,
        }
        .schedule();
        assert_eq!(zero.next_backoff_ms(0), 0);
    }

    #[test]
    fn retry_rounds_are_counted_in_the_registry() {
        let mut limits = EngineLimits::default();
        limits.admission.max_in_flight = 0;
        limits.admission.retry_after_ms = 1;
        let engine = ScenarioEngine::with_limits(limits);
        let policy = RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 0,
            jitter_seed: 0,
        };
        let input = "{\"scenario\":\"calibration\",\"name\":\"c\",\"system\":\"hbm4\"}\n";
        serve_jsonl_with_retry(&engine, input, &policy).unwrap();
        assert_eq!(engine.registry().counter("admission.retry_rounds").get(), 2);
        // Every attempt (initial + 2 retries) was shed at saturation.
        assert_eq!(
            engine
                .registry()
                .counter("admission.rejected_transient")
                .get(),
            3
        );
    }

    #[test]
    fn retry_path_is_byte_identical_without_shedding() {
        let engine = ScenarioEngine::new();
        let input = "{\"scenario\":\"tpot\",\"name\":\"bad\",\"model\":\"gpt-2\",\"batch\":8,\"seq_len\":4096}\n{\"scenario\":\"sweep\",\"name\":\"ok\",\"kind\":\"figure13\",\"seq_len\":4096}\n";
        let plain = serve_jsonl(&engine, input).unwrap();
        let retried = serve_jsonl_with_retry(&engine, input, &RetryPolicy::default()).unwrap();
        assert_eq!(plain, retried);
    }
}
