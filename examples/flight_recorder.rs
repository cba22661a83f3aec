//! Flight recorder: record a bank-conflicting run's per-request lifecycle
//! and write it as Chrome trace-event JSON.
//!
//! Run with `cargo run --release --example flight_recorder`, then open the
//! printed `.json` file in Perfetto (<https://ui.perfetto.dev>) or
//! chrome://tracing: one process row per channel, one thread row per bank,
//! request spans and row-open/refresh spans on the bank tracks.
//!
//! Two clocks, one rule: every timestamp in the trace is *simulation* time
//! (nanoseconds of modelled DRAM activity) — the recorder never mixes in
//! wall-clock, so the same workload produces a byte-identical trace on any
//! machine.

use rome::engine::{RunBudget, TraceSink};
use rome::mc::controller::{ChannelController, ControllerConfig};
use rome::mc::workload;
use rome::telemetry::trace::{chrome_trace_json, TraceConfig, TraceLevel};

fn main() {
    // 1 MiB of sequential 4 KiB reads through one HBM4 channel: the
    // sequence wraps the bank set eight times, so every bank sees repeated
    // row conflicts — precharge/activate churn the trace makes visible.
    let requests = workload::streaming_reads(0, 1024 * 1024, 4096);
    let mut controller = ChannelController::new(ControllerConfig::hbm4_baseline());

    // Arm a command-level recorder on the run's budget. `Requests` level
    // records arrivals, queue residency, issues, and completions;
    // `Commands` adds per-bank row-open spans and refresh windows.
    let sink = TraceSink::new(TraceConfig::with_level(TraceLevel::Commands));
    let budget = RunBudget::unlimited().with_trace(sink.clone());
    let report =
        rome::engine::simulate::run_with_budget(&mut controller, requests, 50_000_000, &budget);

    let trace = sink.take();
    let completions = trace
        .events
        .iter()
        .filter(|e| e.kind.as_str() == "complete")
        .count();
    let row_opens = trace
        .events
        .iter()
        .filter(|e| e.kind.as_str() == "row_open")
        .count();
    println!(
        "simulated {} requests in {} ns ({:.1} GB/s)",
        report.requests_completed, report.finish_time, report.achieved_bandwidth_gbps
    );
    println!(
        "recorded {} events ({} completions, {} row-open spans, {} dropped)",
        trace.events.len(),
        completions,
        row_opens,
        trace.dropped
    );

    let path = "flight_recorder_trace.json";
    std::fs::write(path, chrome_trace_json(&trace.events)).expect("write trace file");
    println!("wrote {path} — open it in https://ui.perfetto.dev or chrome://tracing");
}
