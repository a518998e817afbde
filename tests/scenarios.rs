//! Cross-crate scenario tests: the paper's qualitative claims, each
//! checked end-to-end on small configurations.

use hermes_core::HermesParams;
use hermes_lb::CongaCfg;
use hermes_net::{LeafId, LinkCfg, SpineFailure, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_workload::{summarize, FlowGen, FlowSizeDist};

/// Run a workload and return (avg FCT seconds, unfinished count).
fn run(
    topo: &Topology,
    scheme: Scheme,
    load: f64,
    n: usize,
    capacity: Option<u64>,
    failure: Option<(SpineId, SpineFailure)>,
    horizon: Time,
) -> (f64, usize) {
    let mut gen = FlowGen::new(
        topo,
        FlowSizeDist::web_search(),
        load,
        capacity,
        SimRng::new(42),
    );
    let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(7));
    if let Some((s, f)) = failure {
        sim.set_spine_failure(s, f);
    }
    sim.add_flows(gen.schedule(n));
    sim.run_to_completion(horizon);
    let s = summarize(sim.records(), horizon);
    (s.avg, s.unfinished)
}

#[test]
fn symmetric_fabric_all_schemes_finish_everything() {
    let topo = Topology::testbed();
    for scheme in [
        Scheme::Ecmp,
        Scheme::presto(),
        Scheme::Conga(CongaCfg::default()),
        Scheme::Hermes(HermesParams::paper_testbed(&topo)),
    ] {
        let (_, unfinished) = run(&topo, scheme, 0.5, 80, None, None, Time::from_secs(30));
        assert_eq!(unfinished, 0);
    }
}

#[test]
fn random_drop_failure_hermes_beats_ecmp() {
    // 2% silent drops at one spine: Hermes detects and avoids; ECMP
    // keeps 1/4 of flows pinned through it.
    let topo = Topology::leaf_spine(
        4,
        4,
        4,
        LinkCfg::new(10_000_000_000, Time::from_us(5)),
        LinkCfg::new(10_000_000_000, Time::from_us(10)),
    );
    let failure = Some((SpineId(1), SpineFailure::random_drops(0.02)));
    let horizon = Time::from_secs(20);
    let (ecmp, _) = run(&topo, Scheme::Ecmp, 0.4, 150, None, failure, horizon);
    let (hermes, hermes_unfinished) = run(
        &topo,
        Scheme::Hermes(HermesParams::from_topology(&topo)),
        0.4,
        150,
        None,
        failure,
        horizon,
    );
    assert_eq!(hermes_unfinished, 0);
    assert!(
        hermes < ecmp * 0.75,
        "hermes {hermes:.6}s must clearly beat ecmp {ecmp:.6}s under random drops"
    );
}

#[test]
fn blackhole_hermes_finishes_everything_ecmp_does_not() {
    let topo = Topology::leaf_spine(
        4,
        4,
        4,
        LinkCfg::new(10_000_000_000, Time::from_us(5)),
        LinkCfg::new(10_000_000_000, Time::from_us(10)),
    );
    // Every pair on every rack combination through spine 0 is eaten.
    let failure = (
        SpineId(0),
        SpineFailure::blackhole(LeafId(0), LeafId(1), 1.0),
    );
    let horizon = Time::from_secs(15);
    // Only rack0→rack1 traffic so exposure is guaranteed.
    let mk_flows = || {
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.3, None, SimRng::new(5));
        let mut v = Vec::new();
        while v.len() < 60 {
            let f = gen.next_flow();
            if topo.host_leaf(f.src) == LeafId(0) && topo.host_leaf(f.dst) == LeafId(1) {
                v.push(f);
            }
        }
        // Compress arrivals.
        for (i, f) in v.iter_mut().enumerate() {
            f.start = Time::from_us(300 * i as u64);
        }
        v
    };
    let run_bh = |scheme: Scheme| {
        let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(2));
        sim.set_spine_failure(failure.0, failure.1);
        sim.add_flows(mk_flows());
        sim.run_to_completion(horizon);
        sim.records().iter().filter(|r| r.finish.is_none()).count()
    };
    assert!(run_bh(Scheme::Ecmp) > 0, "ECMP must strand flows");
    assert_eq!(
        run_bh(Scheme::Hermes(HermesParams::from_topology(&topo))),
        0,
        "Hermes must finish everything despite the blackhole"
    );
}

#[test]
fn asymmetry_congestion_awareness_beats_oblivious_spray() {
    // One path degraded 10G→1G: equal-weight spraying is capped by the
    // slow path (congestion mismatch); Hermes senses and avoids it.
    let mut topo = Topology::leaf_spine(
        2,
        4,
        4,
        LinkCfg::new(10_000_000_000, Time::from_us(5)),
        LinkCfg::new(10_000_000_000, Time::from_us(10)),
    );
    let healthy = topo.total_uplink_bps();
    topo.degrade_link(LeafId(0), SpineId(0), 1_000_000_000);
    topo.degrade_link(LeafId(1), SpineId(0), 1_000_000_000);
    let horizon = Time::from_secs(20);
    let (spray, _) = run(
        &topo,
        Scheme::presto(),
        0.5,
        120,
        Some(healthy),
        None,
        horizon,
    );
    let (hermes, _) = run(
        &topo,
        Scheme::Hermes(HermesParams::from_topology(&topo)),
        0.5,
        120,
        Some(healthy),
        None,
        horizon,
    );
    assert!(
        hermes < spray,
        "hermes {hermes:.6}s must beat equal-weight spray {spray:.6}s under asymmetry"
    );
}

#[test]
fn hermes_reroute_counters_move_under_congestion() {
    // Sanity that Algorithm 2's congested branch actually fires in a
    // loaded asymmetric fabric.
    let mut topo = Topology::sim_baseline();
    let mut rng = SimRng::new(0xA5);
    topo.degrade_random_links(0.2, 2_000_000_000, &mut rng);
    let healthy = Topology::sim_baseline().total_uplink_bps();
    let mut gen = FlowGen::new(
        &topo,
        FlowSizeDist::data_mining(),
        0.7,
        Some(healthy),
        SimRng::new(4),
    );
    let params = HermesParams::from_topology(&topo);
    let mut sim =
        Simulation::new(SimConfig::new(topo.clone(), Scheme::Hermes(params)).with_seed(3));
    sim.add_flows(gen.schedule(120));
    sim.run_to_completion(Time::from_secs(30));
    let (reroutes, initial, probes): (u64, u64, u64) = sim
        .hermes_racks()
        .map(|r| (r.stat_reroutes, r.stat_initial, r.stat_probes))
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    assert!(initial >= 120, "every flow gets an initial placement");
    assert!(probes > 1000, "agents must keep probing");
    assert!(
        reroutes > 0,
        "congested-path rerouting must fire on a loaded asymmetric fabric"
    );
}

#[test]
fn full_pipeline_determinism() {
    let topo = Topology::testbed();
    let go = || {
        let mut gen = FlowGen::new(
            &topo,
            FlowSizeDist::data_mining(),
            0.4,
            None,
            SimRng::new(8),
        );
        let mut sim = Simulation::new(
            SimConfig::new(
                topo.clone(),
                Scheme::Hermes(HermesParams::paper_testbed(&topo)),
            )
            .with_seed(21),
        );
        sim.add_flows(gen.schedule(40));
        sim.run_to_completion(Time::from_secs(60));
        (
            sim.stats.events,
            sim.records()
                .iter()
                .map(|r| r.finish.map(hermes_sim::Time::as_ns))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(go(), go());
}

/// The name table and the golden stores agree: every `Scheme::NAMES`
/// entry resolves, both stores pin the same cells, and the LB segment
/// of every pinned `scenario/lb/seed` key is one of them — renaming a
/// scheme cannot silently orphan a golden.
#[test]
fn scheme_names_resolve_and_cover_every_golden_key() {
    let topo = Topology::testbed();
    for name in Scheme::NAMES {
        assert!(Scheme::by_name(name, &topo).is_some(), "`{name}`");
    }
    assert!(Scheme::by_name("wecmp", &topo).is_none());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let goldens = hermes_testkit::load_goldens(&dir).expect("committed golden stores");
    assert!(
        !goldens.digests.is_empty(),
        "a missing store loads as empty"
    );
    assert_eq!(
        goldens.digests.keys().collect::<Vec<_>>(),
        goldens.records.keys().collect::<Vec<_>>(),
        "digests.toml and records.toml pin different cells"
    );
    for key in goldens.digests.keys() {
        let lb = key.split('/').nth(1).expect("scenario/lb/seed");
        assert!(Scheme::NAMES.contains(&lb), "{key}: `{lb}` is not in NAMES");
    }
}
