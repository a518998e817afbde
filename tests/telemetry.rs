//! Tier-1 telemetry suite: the trace layer must tell the paper's
//! failure-recovery story (fig. 17) deterministically, without
//! perturbing the simulation it observes.
//!
//! The layer is compiled into every build and off until a sink is
//! installed, so every test here installs one and asserts in plain
//! `cargo test -q`.

use std::path::PathBuf;

use hermes_core::HermesParams;
use hermes_net::{FaultAction, FaultPlan, LeafId, SpineFailure, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_telemetry::{DropReason, PathClass, Record, RerouteVerdict};
use hermes_testkit::{
    load_goldens, run_point, run_trace_point, trace_point, PointCfg, ScenarioSpec, CLEAR, ONSET,
};
use hermes_workload::{FlowGen, FlowSizeDist, PoissonCfg, WorkloadKind};

fn scenario_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios")
}

/// The fig17-style transient: blackhole onset → paths declared Failed →
/// reroutes avoid the hole → probation probing → re-admission. The
/// trace must carry that narrative in order.
#[test]
fn fig17_trace_tells_the_failure_story() {
    let out = run_trace_point(&trace_point("fig17_mini").expect("registered point").point);
    assert_eq!(out.shed, 0, "sink must hold the whole mini trace");
    let evs = &out.events;

    // 1. The fault plan surfaces: blackhole installed at onset,
    //    cleared at t2.
    let onset_ev = evs
        .iter()
        .find(|e| {
            matches!(
                e.record,
                Record::FaultApplied {
                    kind: "set_spine_failure"
                }
            )
        })
        .expect("blackhole onset recorded");
    assert_eq!(onset_ev.at, ONSET);
    let clear_ev = evs
        .iter()
        .find(|e| {
            matches!(
                e.record,
                Record::FaultApplied {
                    kind: "clear_spine_failure"
                }
            )
        })
        .expect("blackhole clearance recorded");
    assert_eq!(clear_ev.at, CLEAR);

    // 2. Sensing: rack 0 declares the blackholed path (spine 0 toward
    //    rack 3) Failed shortly after onset — three timeouts, so
    //    milliseconds, not the 300 ms fault window.
    let failed = evs
        .iter()
        .find(|e| {
            matches!(
                e.record,
                Record::PathTransition {
                    leaf: 0,
                    dst_leaf: 3,
                    path: 0,
                    to: PathClass::Failed,
                    ..
                }
            )
        })
        .expect("failed transition for the blackholed path");
    assert!(failed.at > ONSET, "failure sensed only after onset");
    assert!(
        failed.at < ONSET + Time::from_ms(100),
        "timeout-driven detection must beat the fault window (sensed at {})",
        failed.at
    );

    // 3. While the path is down, every placement toward rack 3 avoids
    //    it: no moved-verdict reroute lands on path 0 between the
    //    Failed transition and the clearance.
    let mut moved_toward_hole = 0u32;
    for e in evs {
        if e.at <= failed.at || e.at >= CLEAR {
            continue;
        }
        if let Record::Reroute {
            dst_leaf: 3,
            to_path,
            verdict,
            ..
        } = e.record
        {
            if verdict.moved() {
                moved_toward_hole += u32::from(to_path == 0);
            }
        }
    }
    assert_eq!(
        moved_toward_hole, 0,
        "no reroute may re-enter the failed path while it is down"
    );
    // …and some flows actually escaped the hole (failovers happened).
    assert!(
        evs.iter().any(|e| matches!(
            e.record,
            Record::Reroute {
                dst_leaf: 3,
                verdict: RerouteVerdict::Failover,
                ..
            }
        )),
        "flows stranded on the blackholed path must fail over"
    );
    // The blackhole itself is visible as drop records.
    assert!(
        evs.iter()
            .any(|e| matches!(e.record, Record::Drop { path: 0, .. } if e.at > ONSET)),
        "blackholed packets surface as drop records"
    );

    // 4. Recovery: after the quiet period the path enters Probation
    //    (probes only), then gets re-admitted (Probation → Good/Gray).
    let probation = evs
        .iter()
        .find(|e| {
            e.at > failed.at
                && matches!(
                    e.record,
                    Record::PathTransition {
                        leaf: 0,
                        dst_leaf: 3,
                        path: 0,
                        to: PathClass::Probation,
                        ..
                    }
                )
        })
        .expect("failed path must enter probation");
    let readmit = evs
        .iter()
        .find(|e| {
            e.at > probation.at
                && matches!(
                    e.record,
                    Record::PathTransition {
                        leaf: 0,
                        dst_leaf: 3,
                        path: 0,
                        from: PathClass::Probation,
                        to: PathClass::Good | PathClass::Gray,
                        ..
                    }
                )
        })
        .expect("probation must end in re-admission");
    assert!(
        readmit.at > CLEAR,
        "re-admission only after the fault actually cleared (at {})",
        readmit.at
    );

    // 5. The supporting instrumentation is present: transport window
    //    snapshots and cadence queue samples.
    assert!(evs
        .iter()
        .any(|e| matches!(e.record, Record::CwndUpdate { .. })));
    assert!(evs
        .iter()
        .any(|e| matches!(e.record, Record::QueueSample { .. })));

    // 6. The trace is well-formed: seq dense from 0, time monotone.
    for (i, e) in evs.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "seq must be dense (nothing shed)");
    }
    for w in evs.windows(2) {
        assert!(w[1].at >= w[0].at);
    }
}

/// A failure for the whole run is a fault-plan entry at t = 0, so the
/// trace shows it like any other fault, before any flow starts.
#[test]
fn static_failure_is_traced_at_time_zero() {
    let sim = SimConfig::new(Topology::testbed(), Scheme::Ecmp);
    let poisson = PoissonCfg {
        dist: FlowSizeDist::web_search(),
        load: 0.3,
        flows: 20,
        capacity: None,
    };
    let failure = SpineFailure::random_drops(0.02);
    let set = FaultAction::SetSpineFailure {
        spine: SpineId(1),
        failure,
    };
    let sim = sim.with_fault_plan(FaultPlan::new().at(Time::ZERO, set));
    let cfg = PointCfg::new(sim, WorkloadKind::Poisson(poisson));
    let out = run_trace_point(&cfg);
    let faults: Vec<(Time, &str)> = out
        .events
        .iter()
        .filter_map(|e| match e.record {
            Record::FaultApplied { kind } => Some((e.at, kind)),
            _ => None,
        })
        .collect();
    assert_eq!(faults, [(Time::ZERO, "set_spine_failure")]);
    let at = |pick: fn(&Record) -> bool| out.events.iter().position(|e| pick(&e.record));
    let fault = at(|r| matches!(r, Record::FaultApplied { .. }));
    let first_flow = at(|r| matches!(r, Record::FlowStarted { .. }));
    assert!(
        fault < first_flow,
        "the failure is in place before any flow starts"
    );
}

/// The chaos engine's gray-failure actions surface in the trace — and
/// observing them costs nothing: the same run with the sink off
/// produces the identical trace digest (A/B digest neutrality).
#[test]
fn gray_failure_faults_are_traced_and_digest_neutral() {
    let run = || {
        let topo = Topology::sim_baseline();
        let scheme = Scheme::Hermes(HermesParams::from_topology(&topo));
        let plan = FaultPlan::new()
            .flow_blackhole_window(SpineId(5), 0.6, Time::from_ms(3), Time::from_ms(12))
            .ecn_mute_window(SpineId(2), Time::from_ms(2), Time::from_ms(14));
        let mut sim = Simulation::new(
            SimConfig::new(topo.clone(), scheme)
                .with_seed(3)
                .with_fault_plan(plan),
        );
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.4, None, SimRng::new(9));
        let mut flows = Vec::new();
        while flows.len() < 40 {
            let f = gen.next_flow();
            if topo.host_leaf(f.src) == LeafId(0) && topo.host_leaf(f.dst) == LeafId(7) {
                flows.push(f);
            }
        }
        for (i, f) in flows.iter_mut().enumerate() {
            f.start = Time::from_us(400 * i as u64);
        }
        sim.add_flows(flows);
        sim.run_to_completion(Time::from_secs(5));
        sim.trace_digest()
    };

    // A: sink off — the baseline digest nothing may perturb.
    hermes_telemetry::uninstall();
    let base = run();

    // B: sink on — same digest, plus the gray-failure narrative.
    hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
    let traced = run();
    let evs = hermes_telemetry::drain();
    hermes_telemetry::uninstall();
    assert_eq!(
        traced, base,
        "installing the telemetry sink perturbed the simulation"
    );
    for want in ["flow_blackhole", "ecn_mute", "ecn_unmute"] {
        assert!(
            evs.iter()
                .any(|e| matches!(e.record, Record::FaultApplied { kind } if kind == want)),
            "fault action `{want}` must surface as a FaultApplied record"
        );
    }
    assert!(
        evs.iter().any(|e| matches!(
            e.record,
            Record::Drop {
                reason: DropReason::FlowBlackhole,
                ..
            }
        )),
        "victim-flow packets must surface as flow_blackhole drops"
    );
}

/// Same seed ⇒ byte-identical exports: the JSONL/CSV a trace point
/// writes are a pure function of (config, seed).
#[test]
fn fig17_trace_is_byte_identical_across_runs() {
    let p = trace_point("fig17_mini").expect("registered point").point;
    let a = run_trace_point(&p);
    let b = run_trace_point(&p);
    assert_eq!(a.report.digest, b.report.digest, "sim digests must match");
    assert_eq!(a.jsonl, b.jsonl, "event JSONL must be byte-identical");
    assert_eq!(a.csv, b.csv, "metrics CSV must be byte-identical");
    // And a fixed function: the mini point's trace and run are pinned.
    assert_eq!(
        (a.events.len(), a.report.digest),
        (22_721, 0x2a72_085b_ab6e_f7ff),
        "fig17_mini's event count and run digest moved"
    );
}

/// Differential off/on check: with the sink installed and recording,
/// pinned conformance cells must still hit their committed golden
/// digests — the digests were blessed with no sink installed, so any
/// telemetry-induced perturbation (an extra event, an RNG draw, a
/// sensing tick) shows up as a mismatch here.
#[test]
fn telemetry_on_preserves_conformance_digests() {
    let dir = scenario_dir();
    let specs = hermes_testkit::load_dir(&dir).expect("tier-1 scenarios load");
    let goldens = load_goldens(&dir).expect("committed digests.toml");
    hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
    let mut cells = 0;
    for name in ["symmetric", "blackhole", "random_drop"] {
        let spec: &ScenarioSpec = specs
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("scenario `{name}` exists"));
        let hermes_idx = spec
            .lbs
            .iter()
            .position(|(name, _)| name == "hermes")
            .expect("every pinned scenario runs hermes");
        for seed in [1u64, 2] {
            let det = run_point(&spec.materialize(hermes_idx, 0, seed));
            let key = spec.digest_key(hermes_idx, seed);
            let want = *goldens
                .digests
                .get(&key)
                .unwrap_or_else(|| panic!("golden digest for {key}"));
            assert_eq!(
                det.digest, want,
                "{key}: traced digest diverged from the committed golden"
            );
            cells += 1;
        }
    }
    assert_eq!(cells, 6);
    // The sink really was live: the cells above produced events.
    assert!(
        !hermes_telemetry::drain().is_empty(),
        "sink must have recorded the runs it observed"
    );
    hermes_telemetry::uninstall();
}
