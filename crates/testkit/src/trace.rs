//! Structured-trace points: run a [`PointCfg`] through [`run_point`]
//! with the telemetry sink installed and export the event trace (JSONL)
//! plus sampled metrics (CSV). The registry names the fig17-style
//! points; `hermes-cli --point NAME` runs one and `hermes-cli --trace
//! DIR` traces every run it makes, a point or a scenario file's cells,
//! each on a [`crate::run_points_with`] worker; `tests/telemetry.rs`
//! replays the mini point in-process.
//!
//! The telemetry layer is compiled into every build; installing the
//! sink on the running thread is what turns it on.

use hermes_core::HermesParams;
use hermes_net::{FaultPlan, FlowId, HostId, LeafId, LinkCfg, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig};
use hermes_sim::Time;
use hermes_workload::{FlowSpec, WorkloadKind};

use crate::point::{run_point, PointCfg, RunReport};

/// Fault window shared by every fig17-style point: a rack0→rack3
/// blackhole on spine 0 from `ONSET` until `CLEAR`.
pub const ONSET: Time = Time::from_ms(150);
/// See [`ONSET`].
pub const CLEAR: Time = Time::from_ms(450);
/// How long every fig17-style point runs.
const HORIZON: Time = Time::from_ms(1_500);
/// The seed every fig17-style point runs under.
const SEED: u64 = 7;

/// A fig17-style point under Hermes: on a 4×4×8 10G leaf–spine fabric,
/// `flows` equal `flow_bytes` flows from rack 0 to rack 3, one every
/// 250 µs, through the `ONSET`→`CLEAR` blackhole, run to `HORIZON`.
pub fn fig17_point(flows: u64, flow_bytes: u64) -> PointCfg {
    let topo = Topology::leaf_spine(
        4,
        4,
        8,
        LinkCfg::new(10_000_000_000, Time::from_us(5)),
        LinkCfg::new(10_000_000_000, Time::from_us(10)),
    );
    let plan =
        FaultPlan::new().blackhole_window(SpineId(0), LeafId(0), LeafId(3), 1.0, ONSET, CLEAR);
    let specs: Vec<FlowSpec> = (0..flows)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId((i % 8) as u32),
            dst: HostId((24 + (i * 5 + 3) % 8) as u32),
            size: flow_bytes,
            start: Time::from_us(i * 250),
        })
        .collect();
    let last_start = specs.last().map_or(Time::ZERO, |s| s.start);
    let hermes = Scheme::Hermes(HermesParams::from_topology(&topo));
    let sim = SimConfig::new(topo, hermes)
        .with_seed(SEED)
        .with_fault_plan(plan);
    PointCfg::new(sim, WorkloadKind::Flows(specs)).drain(HORIZON - last_start)
}

/// A named traceable point.
pub struct TracePoint {
    pub name: &'static str,
    pub about: &'static str,
    pub point: PointCfg,
}

/// The registry `hermes-cli --point` resolves names against.
pub fn trace_points() -> [TracePoint; 2] {
    [
        TracePoint {
            name: "fig17_transient_recovery",
            about: "rack0→rack3 blackhole on spine 0 (150→450 ms), Hermes at full fig17 load",
            point: fig17_point(2_400, 100_000),
        },
        TracePoint {
            name: "fig17_mini",
            about: "scaled-down fig17 transient used by the tier-1 telemetry suite",
            point: fig17_point(2_000, 50_000),
        },
    ]
}

/// Look up a registered point by name.
pub fn trace_point(name: &str) -> Option<TracePoint> {
    trace_points().into_iter().find(|p| p.name == name)
}

/// Everything a trace run produces.
pub struct TraceOut {
    /// The drained event trace, seq-ordered.
    pub events: Vec<hermes_telemetry::TraceEvent>,
    /// The trace rendered as one JSON object per line.
    pub jsonl: String,
    /// Cadence-sampled metrics as `at_ns,name,value` rows.
    pub csv: String,
    /// Events the bounded ring had to shed (0 unless the sink capacity
    /// is undersized for the scenario).
    pub shed: u64,
    /// The run's report; its digest is identical to a run without a
    /// sink.
    pub report: RunReport,
}

/// Run `cfg` with the sink installed on this thread and export the
/// trace; the sink is gone again when it returns.
pub fn run_trace_point(cfg: &PointCfg) -> TraceOut {
    hermes_telemetry::install(hermes_telemetry::SinkConfig { capacity: 1 << 22 });
    let report = run_point(cfg);
    // Final flush: cadence sampling rides event dispatch, so metrics
    // observed by the very last events need one end-of-run snapshot.
    hermes_telemetry::sample_metrics(report.sim_time);
    let events = hermes_telemetry::drain();
    let rows = hermes_telemetry::take_metric_rows();
    let shed = hermes_telemetry::dropped();
    hermes_telemetry::uninstall();
    TraceOut {
        jsonl: hermes_telemetry::to_jsonl(&events),
        csv: hermes_telemetry::to_csv(&rows),
        shed,
        events,
        report,
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

    /// `hermes-cli --point` runs these as they are.
    #[test]
    fn registered_points_validate() {
        for p in trace_points() {
            p.point
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e:?}", p.name));
        }
    }

    #[test]
    fn mini_point_emits_a_parseable_trace() {
        let out = run_trace_point(&trace_point("fig17_mini").unwrap().point);
        assert_eq!(out.shed, 0, "sink capacity must hold the mini trace");
        assert!(!out.events.is_empty());
        let first = out.jsonl.lines().next().expect("nonempty jsonl");
        assert!(first.starts_with("{\"seq\":0,\"at_ns\":"));
        assert_eq!(out.jsonl.lines().count(), out.events.len());
        assert!(out.csv.starts_with("at_ns,name,value\n"));
    }
}
