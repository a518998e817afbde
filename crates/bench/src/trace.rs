//! Structured-trace points: run one scenario with the telemetry sink
//! installed and export the event trace (JSONL) plus sampled metrics
//! (CSV). `cargo run -p xtask -- trace <point> --out <dir>` is the CLI
//! entry; `tests/telemetry.rs` replays the mini point in-process.
//!
//! Only meaningful when hermes-telemetry is compiled in (the
//! `telemetry` feature of this crate); without it the sim still runs
//! but the trace comes back empty.

use hermes_core::HermesParams;
use hermes_net::{FaultPlan, FlowId, HostId, LeafId, LinkCfg, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::Time;
use hermes_workload::FlowSpec;

/// Fault window shared by every fig17-style point: a rack0→rack3
/// blackhole on spine 0 from `ONSET` until `CLEAR`.
pub const ONSET: Time = Time::from_ms(150);
/// See [`ONSET`].
pub const CLEAR: Time = Time::from_ms(450);
/// How long every fig17-style point runs.
pub const HORIZON: Time = Time::from_ms(1_500);
/// The seed every fig17-style point runs under.
pub const SEED: u64 = 7;

/// A named traceable scenario.
pub struct TracePoint {
    pub name: &'static str,
    pub about: &'static str,
    flows: u64,
    flow_bytes: u64,
    gap_us: u64,
}

/// The registry `xtask trace` resolves names against.
pub const TRACE_POINTS: &[TracePoint] = &[
    TracePoint {
        name: "fig17_transient_recovery",
        about: "rack0→rack3 blackhole on spine 0 (150→450 ms), Hermes at full fig17 load",
        flows: 2_400,
        flow_bytes: 100_000,
        gap_us: 250,
    },
    TracePoint {
        name: "fig17_mini",
        about: "scaled-down fig17 transient used by the tier-1 telemetry suite",
        flows: 2_000,
        flow_bytes: 50_000,
        gap_us: 250,
    },
];

/// Look up a registered point by name.
pub fn trace_point(name: &str) -> Option<&'static TracePoint> {
    TRACE_POINTS.iter().find(|p| p.name == name)
}

/// The 4×4×8 10G leaf–spine fabric of the fig17-style points.
pub fn trace_topo() -> Topology {
    Topology::leaf_spine(
        4,
        4,
        8,
        LinkCfg::new(10_000_000_000, Time::from_us(5)),
        LinkCfg::new(10_000_000_000, Time::from_us(10)),
    )
}

/// The `ONSET`→`CLEAR` blackhole window.
pub fn trace_plan() -> FaultPlan {
    FaultPlan::new().blackhole_window(SpineId(0), LeafId(0), LeafId(3), 1.0, ONSET, CLEAR)
}

/// `p`'s steady open-loop stream of equal-size rack0→rack3 flows.
pub fn trace_flows(p: &TracePoint) -> Vec<FlowSpec> {
    (0..p.flows)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId((i % 8) as u32),
            dst: HostId((24 + (i * 5 + 3) % 8) as u32),
            size: p.flow_bytes,
            start: Time::from_us(i * p.gap_us),
        })
        .collect()
}

/// Everything a trace run produces.
pub struct TraceOut {
    /// The drained event trace, seq-ordered.
    pub events: Vec<hermes_telemetry::TraceEvent>,
    /// The trace rendered as one JSON object per line.
    pub jsonl: String,
    /// Cadence-sampled metrics as `at_ns,name,value` rows.
    pub csv: String,
    /// The run's determinism digest (identical to a telemetry-off run).
    pub digest: u64,
    /// Events the bounded ring had to shed (0 unless the sink capacity
    /// is undersized for the scenario).
    pub shed: u64,
    /// Flows that missed the horizon.
    pub unfinished: usize,
}

/// Run `p` under Hermes with the sink installed and export the trace.
pub fn run_trace_point(p: &TracePoint) -> TraceOut {
    hermes_telemetry::install(hermes_telemetry::SinkConfig {
        capacity: 1 << 22,
        ..Default::default()
    });
    let t = trace_topo();
    let cfg = SimConfig::new(t.clone(), Scheme::Hermes(HermesParams::from_topology(&t)))
        .with_seed(SEED)
        .with_fault_plan(trace_plan());
    let mut sim = Simulation::new(cfg);
    sim.add_flows(trace_flows(p));
    sim.run_to_completion(HORIZON);
    // Final flush: cadence sampling rides event dispatch, so metrics
    // observed by the very last events need one end-of-run snapshot.
    hermes_telemetry::sample_metrics(sim.now());
    let events = hermes_telemetry::drain();
    let rows = hermes_telemetry::take_metric_rows();
    let shed = hermes_telemetry::dropped();
    hermes_telemetry::uninstall();
    TraceOut {
        jsonl: hermes_telemetry::to_jsonl(&events),
        csv: hermes_telemetry::to_csv(&rows),
        digest: sim.trace_digest(),
        shed,
        unfinished: sim.records().iter().filter(|r| r.finish.is_none()).count(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_names() {
        assert!(trace_point("fig17_transient_recovery").is_some());
        assert!(trace_point("fig17_mini").is_some());
        assert!(trace_point("fig99_nope").is_none());
    }

    #[test]
    fn mini_point_emits_a_parseable_trace() {
        if !hermes_telemetry::compiled() {
            return;
        }
        let out = run_trace_point(trace_point("fig17_mini").unwrap());
        assert_eq!(out.shed, 0, "sink capacity must hold the mini trace");
        assert!(!out.events.is_empty());
        let first = out.jsonl.lines().next().expect("nonempty jsonl");
        assert!(first.starts_with("{\"seq\":0,\"at_ns\":"));
        assert_eq!(out.jsonl.lines().count(), out.events.len());
        assert!(out.csv.starts_with("at_ns,name,value\n"));
    }
}
