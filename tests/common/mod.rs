//! Test-only references shared by the integration suites.

use rome::engine::simulate::{report_from_stats, SimulationReport};
use rome::engine::{MemoryController, MemoryRequest, RequestKind};
use rome::hbm::Cycle;
use rome::telemetry::{sim_sampling, LatencyHistogram};

/// The cycle-by-cycle reference for the single-controller event loop
/// (`rome::engine::simulate::run_with_source_budgeted`, which every vector
/// driver replays through): release each request at its `arrival`, clamped
/// so releases keep submission order; offer released requests in order as
/// the queues accept them; tick the controller on every cycle until every
/// request has completed or `max_ns` elapses.
///
/// It shares nothing with the loop it checks but the public
/// [`MemoryController`] trait and `report_from_stats`, so a wakeup the
/// controller reports one cycle too late, or a release the loop skips,
/// shows up as a report mismatch.
pub fn run_stepped<C: MemoryController>(
    ctrl: &mut C,
    requests: Vec<MemoryRequest>,
    max_ns: Cycle,
) -> SimulationReport {
    let total = requests.len() as u64;
    let mut pending = requests.into_iter().peekable();
    let mut released: Cycle = 0;
    let (mut completed, mut bytes_read, mut bytes_written, mut finish_time) = (0u64, 0, 0, 0);
    let sampling = sim_sampling();
    let mut read_latency = LatencyHistogram::new();
    let mut done = Vec::new();
    let mut now: Cycle = 0;
    while (completed < total || !ctrl.is_idle()) && now < max_ns {
        while let Some(next) = pending.peek() {
            released = released.max(next.arrival);
            if released > now || ctrl.slots_free_for(next.kind) == 0 {
                break;
            }
            let accepted = ctrl.enqueue(MemoryRequest {
                arrival: now,
                ..*next
            });
            assert!(accepted, "enqueue must succeed when a slot is free");
            pending.next();
        }
        ctrl.tick_into(now, &mut done);
        for d in done.drain(..) {
            completed += 1;
            finish_time = finish_time.max(d.completed);
            match d.kind {
                RequestKind::Read => {
                    bytes_read += d.bytes;
                    if sampling {
                        read_latency.record(d.completed - d.arrival);
                    }
                }
                RequestKind::Write => bytes_written += d.bytes,
            }
        }
        now += 1;
    }
    report_from_stats(
        &ctrl.stats_snapshot(),
        completed,
        bytes_read,
        bytes_written,
        finish_time,
    )
    .with_read_latency(read_latency)
}
