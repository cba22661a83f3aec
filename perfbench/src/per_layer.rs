//! The per-layer metrics of a traced run. Every traced run reports every
//! metric below, each named after the crate (layer) it measures; a layer a
//! workload does not exercise reports 0.
//!
//! Times are self time in seconds: time inside the layer's public calls
//! minus the time of the calls it makes into the layers below that the
//! benchmark also times. Counts are exact and repeat run to run.

use std::collections::BTreeMap;

use crate::layers::Tally;
use crate::measure::{median, Outcome};

/// Every per-layer metric with its unit, in report order.
pub const METRICS: &[(&str, &str)] = &[
    // rome-bench: inclusive wall-clock of each table (they sum to a pass).
    ("repro.prefill_s", "s"),
    ("repro.fig12_s", "s"),
    ("repro.fig14_s", "s"),
    ("repro.queue_depth_s", "s"),
    ("repro.fig13_s", "s"),
    ("repro.rest_s", "s"),
    // rome-llm
    ("llm.step_build_s", "s"),
    ("llm.tensor_units", "count"),
    // rome-sim
    ("sim.lbr_s", "s"),
    ("sim.lbr_calls", "count"),
    ("sim.lbr_units", "count"),
    ("sim.lbr_ns_per_unit", "ns"),
    ("sim.tpot_s", "s"),
    ("sim.energy_s", "s"),
    ("sim.overfetch_s", "s"),
    ("sim.calibration_hbm4_s", "s"),
    ("sim.calibration_rome_s", "s"),
    // rome-engine
    ("engine.events", "count"),
    ("engine.idle_wakeups", "count"),
    ("engine.idle_frac", "ratio"),
    ("engine.driver_self_s", "s"),
    ("system.tick_s", "s"),
    ("system.next_event_s", "s"),
    ("system.steps", "count"),
    // rome-mc
    ("mc.tick_s", "s"),
    ("mc.next_event_s", "s"),
    ("mc.ticks", "count"),
    ("mc.issued_ticks", "count"),
    ("mc.ns_per_tick", "ns"),
    // rome-core
    ("core.tick_s", "s"),
    ("core.next_event_s", "s"),
    ("core.ticks", "count"),
    ("core.issued_ticks", "count"),
    ("core.ns_per_tick", "ns"),
    // rome-workload
    ("workload.source_s", "s"),
    ("workload.pulls", "count"),
    // rome-server
    ("wire.parse_s", "s"),
    ("wire.render_s", "s"),
    ("wire.socket_s", "s"),
    ("server.serve_s", "s"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.frame_rtt_s", "s"),
    // the load generator
    ("client.late_p99_ms", "ms"),
    ("client.max_outstanding", "count"),
    // accounting
    ("trace_overhead_pct", "%"),
    ("unexplained_s", "s"),
    ("unexplained_pct", "%"),
];

/// The values of one traced run, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    /// Take a tally's self times and counts, plus the per-unit costs
    /// derived from them.
    pub fn absorb(&mut self, tally: &Tally) {
        for (name, s) in &tally.seconds {
            self.add(name, *s);
        }
        for (name, n) in &tally.counts {
            self.add(name, *n as f64);
        }
        let per = |time: &str, count: &str| {
            let n = tally.n(count);
            if n == 0 {
                0.0
            } else {
                tally.s(time) * 1e9 / n as f64
            }
        };
        self.set("sim.lbr_ns_per_unit", per("sim.lbr_s", "sim.lbr_units"));
        self.set("mc.ns_per_tick", per("mc.tick_s", "mc.ticks"));
        self.set("core.ns_per_tick", per("core.tick_s", "core.ticks"));
        let events = tally.n("engine.events");
        if events > 0 {
            self.set(
                "engine.idle_frac",
                tally.n("engine.idle_wakeups") as f64 / events as f64,
            );
        }
    }

    /// Emit every per-layer metric, in order; names this run did not set
    /// report 0.
    pub fn emit(self, out: &mut Outcome) {
        for (name, unit) in METRICS {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        for name in self.0.keys() {
            assert!(
                METRICS.iter().any(|(m, _)| m == name),
                "per-layer value {name} is not a declared metric"
            );
        }
    }
}

/// The median of each self time over several traced passes; counts come
/// from the first pass (the caller checks they repeat exactly).
pub fn median_tally(tallies: &[Tally]) -> Tally {
    let mut out = tallies.first().cloned().unwrap_or_default();
    for (name, value) in out.seconds.iter_mut() {
        let samples: Vec<f64> = tallies.iter().map(|t| t.s(name)).collect();
        *value = median(&samples);
    }
    out
}
