//! Determinism and packet-conservation regressions.
//!
//! The simulator's contract (DESIGN.md, "Determinism contract & audit
//! layer"): a (config, seed) pair fully determines every packet of a
//! run, and every injected packet is delivered, dropped, or still in
//! flight — never silently lost. These tests run real scenarios twice
//! from the same seed and compare full event-trace digests and flow
//! records, then check the fabric's conservation accounting for every
//! load-balancing scheme.
//!
//! Run with `--features audit` to additionally engage the exact
//! per-packet ledger inside the fabric.

use hermes_core::HermesParams;
use hermes_net::{FaultAction, FaultPlan, LeafId, SpineFailure, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_testkit::{assert_deterministic, run_point, run_sim, PointCfg, RunReport};
use hermes_workload::{records_hash, FlowGen, FlowSizeDist};

/// The quickstart example's scenario: web-search flows at 60% load on
/// the paper's 8×8 leaf-spine fabric (fewer flows, same parameters).
fn quickstart_sim(scheme: Scheme) -> Simulation {
    let topo = Topology::sim_baseline();
    let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.6, None, SimRng::new(7));
    let mut sim = Simulation::new(SimConfig::new(topo, scheme).with_seed(1));
    sim.add_flows(gen.schedule(80));
    sim
}

/// The failover example's scenario: a full blackhole at spine 5 for
/// rack0 → rack7 traffic, Hermes routing around it.
fn failover_sim() -> Simulation {
    let topo = Topology::sim_baseline();
    let scheme = Scheme::Hermes(HermesParams::from_topology(&topo));
    let hole = FaultAction::SetSpineFailure {
        spine: SpineId(5),
        failure: SpineFailure::blackhole(LeafId(0), LeafId(7), 1.0),
    };
    let plan = FaultPlan::new().at(Time::ZERO, hole);
    let cfg = SimConfig::new(topo.clone(), scheme).with_seed(3);
    let mut sim = Simulation::new(cfg.with_fault_plan(plan));
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
    sim
}

#[test]
fn quickstart_fct_vectors_identical_across_same_seed_runs() {
    for scheme in [
        Scheme::Ecmp,
        Scheme::Hermes(HermesParams::from_topology(&Topology::sim_baseline())),
    ] {
        let fp = assert_deterministic(|| quickstart_sim(scheme.clone()), Time::from_secs(10));
        assert_eq!(fp.records.len(), 80);
        assert!(fp.events > 100_000, "only {} events", fp.events);
        // The event queue's recurring-delay lanes carry the run: the
        // schedules that reach its fallback heap (each flow's arrival and
        // other one-off delays) stay under 1 % of the events dispatched.
        // Routing traffic back through the heap would keep every digest
        // intact, so only this count notices.
        assert!(
            fp.queue_fallback * 100 < fp.events,
            "{} schedules of a {}-event run reached the fallback heap",
            fp.queue_fallback,
            fp.events
        );
        // Every flow's RTO keeps at most one event queued, and at
        // completion the queue holds little else: at most one event per
        // flow plus the probe tick. Superseded RTO re-arms left queued
        // would number in the thousands here.
        assert!(
            fp.pending_events <= fp.records.len() + 1,
            "{} events still queued after an {}-flow run",
            fp.pending_events,
            fp.records.len()
        );
    }
}

#[test]
fn failover_scenario_is_deterministic_and_conserves_packets() {
    let fp = assert_deterministic(failover_sim, Time::from_secs(5));
    assert!(
        fp.conservation.dropped() > 0,
        "the blackhole must destroy packets: {}",
        fp.conservation
    );
}

/// A transient chaos scenario: a link flapping periodically while a
/// blackhole opens mid-run and clears again, all driven by a
/// [`FaultPlan`] replayed through the event queue.
fn chaos_sim() -> Simulation {
    let topo = Topology::sim_baseline();
    let scheme = Scheme::Hermes(HermesParams::from_topology(&topo));
    let plan = FaultPlan::new()
        .blackhole_window(
            SpineId(5),
            LeafId(0),
            LeafId(7),
            1.0,
            Time::from_ms(4),
            Time::from_ms(12),
        )
        .link_flap(
            LeafId(0),
            SpineId(2),
            Time::from_ms(2),
            Time::from_ms(1),
            Time::from_ms(3),
            Time::from_ms(14),
        );
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
    sim
}

#[test]
fn chaos_schedule_is_deterministic_and_conserves_packets() {
    let fp = assert_deterministic(chaos_sim, Time::from_secs(5));
    assert!(
        fp.conservation.dropped() > 0,
        "the flapping link and the transient blackhole must destroy packets: {}",
        fp.conservation
    );
    assert!(
        fp.records.iter().all(|r| r.finish.is_some()),
        "every flow must finish once the faults clear"
    );
}

/// A gray-failure scenario on the rack0 → rack7 workload: the fault
/// plan is supplied by the caller so the same harness exercises each
/// gray-failure model.
fn gray_failure_sim(plan: FaultPlan) -> Simulation {
    let topo = Topology::sim_baseline();
    let scheme = Scheme::Hermes(HermesParams::from_topology(&topo));
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
    sim
}

/// Per-victim-flow partial blackhole (the gray failure where a switch
/// silently eats *some* flows): same seed ⇒ same digest, packets are
/// actually destroyed, and every flow finishes once the window clears.
#[test]
fn flow_blackhole_plan_is_deterministic_and_recovers() {
    let plan = FaultPlan::new().flow_blackhole_window(
        SpineId(5),
        0.6,
        Time::from_ms(3),
        Time::from_ms(12),
    );
    let fp = assert_deterministic(|| gray_failure_sim(plan.clone()), Time::from_secs(5));
    assert!(
        fp.conservation.dropped() > 0,
        "the partial blackhole must destroy victim-flow packets: {}",
        fp.conservation
    );
    assert!(
        fp.records.iter().all(|r| r.finish.is_some()),
        "every flow must finish once the blackhole clears"
    );
}

/// ECN mute (sensing deprivation: the switch forwards but stops
/// CE-marking): the fault itself never destroys a packet — any loss
/// shows up as buffer-full congestion drops from the un-signalled
/// queue buildup — the run stays digest-identical across same-seed
/// replays, and all flows complete.
#[test]
fn ecn_mute_plan_is_deterministic_and_lossless() {
    let plan = FaultPlan::new().ecn_mute_window(SpineId(2), Time::from_ms(2), Time::from_ms(14));
    let fp = assert_deterministic(|| gray_failure_sim(plan.clone()), Time::from_secs(5));
    assert_eq!(
        fp.conservation.drops_failure, 0,
        "ECN mute must not destroy packets itself: {}",
        fp.conservation
    );
    assert!(
        fp.records.iter().all(|r| r.finish.is_some()),
        "every flow must finish under ECN mute"
    );
    assert!(fp.events > 0);
}

#[test]
fn conservation_balances_for_every_scheme() {
    let topo = Topology::testbed();
    for name in Scheme::NAMES {
        let scheme = Scheme::by_name(name, &topo).expect("NAMES entries resolve");
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.4, None, SimRng::new(7));
        let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(11));
        sim.add_flows(gen.schedule(40));
        sim.run_to_completion(Time::from_secs(30));

        // Mid-run (packets may still be in queues): the census and the
        // counters must already agree.
        let mid = sim.conservation();
        assert!(mid.balanced(), "{name}: imbalance at completion: {mid}");
        assert!(mid.injected > 0, "{name}: nothing injected");
        assert_eq!(mid.delivered, sim.fabric().stats.delivered, "{name}");

        // Drain every one-shot event (lazy-cancelled timers, trailing
        // ACKs). Hermes reschedules its probe tick forever, so only the
        // other schemes reach a fully quiescent fabric with zero
        // packets in flight: injected = delivered + dropped, exactly.
        if name != "hermes" {
            sim.run_until(Time::from_secs(120));
            let end = sim.conservation();
            assert!(end.balanced(), "{name}: imbalance after drain: {end}");
            assert_eq!(
                end.in_flight, 0,
                "{name}: packets stuck in the fabric: {end}"
            );
            assert_eq!(
                end.injected,
                end.delivered + end.dropped(),
                "{name}: strict conservation failed: {end}"
            );
        }

        // With the exact ledger compiled in, its outstanding set must
        // match the physical census packet for packet.
        #[cfg(feature = "audit")]
        assert_eq!(
            sim.fabric().ledger_outstanding(),
            sim.conservation().in_flight,
            "{name}: ledger disagrees with the port census"
        );
    }
}

/// The incast point of `staged_workload_drivers_are_deterministic_per_kind`
/// as a bare simulation with its driver installed.
fn incast_driver_sim() -> Simulation {
    use hermes_workload::{IncastCfg, IncastDriver};
    let topo = Topology::testbed();
    let scheme = Scheme::Hermes(HermesParams::from_topology(&topo));
    let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(23));
    let cfg = IncastCfg {
        fanout: 5,
        reply_bytes: 24_000,
        bursts: 3,
    };
    sim.set_driver(Box::new(IncastDriver::new(&topo, cfg, SimRng::new(23))));
    sim
}

/// `Simulation: Send` in use: a simulation built here and run on
/// another thread must be indistinguishable from one run in place, for
/// a scheduled workload under a fault plan and for a driver-fed one.
#[test]
fn simulation_moved_to_another_thread_runs_identically() {
    let horizon = Time::from_secs(5);
    for build in [chaos_sim, incast_driver_sim] {
        let key = |r: &RunReport| (r.digest, r.events, records_hash(&r.records), r.conservation);
        let here = run_sim(build(), horizon, None);
        let sim = build();
        #[expect(
            clippy::disallowed_methods,
            reason = "this test moves a whole simulation to another thread"
        )]
        let there = std::thread::spawn(move || run_sim(sim, horizon, None))
            .join()
            .expect("the simulation thread panicked");
        assert_eq!(key(&here), key(&there));
        assert!(
            there.records.iter().all(|r| r.finish.is_some()),
            "every flow must finish on the other thread too"
        );
    }
}

#[test]
fn staged_workload_drivers_are_deterministic_per_kind() {
    // The new staged-dependency workloads release flows from completion
    // callbacks *inside* the event loop, so their arrival times are
    // themselves simulation outputs. Same seed must still reproduce the
    // whole run bit-for-bit: full event-trace digest, FCT vector, and
    // record timeline, for each driver kind.
    use hermes_workload::{FlowSizeDist, IncastCfg, MixCfg, PoissonCfg, RingCfg, WorkloadKind};

    let kinds = [
        (
            "ring_allreduce",
            WorkloadKind::RingAllreduce(RingCfg {
                ranks: 6,
                steps: 2,
                chunk_bytes: 48_000,
            }),
        ),
        (
            "incast",
            WorkloadKind::Incast(IncastCfg {
                fanout: 5,
                reply_bytes: 24_000,
                bursts: 3,
            }),
        ),
        (
            "elephant_mice",
            WorkloadKind::Poisson(PoissonCfg {
                dist: FlowSizeDist::elephant_mice(MixCfg {
                    mice_bytes: 20_000,
                    elephant_bytes: 500_000,
                    elephant_frac: 0.1,
                }),
                load: 0.3,
                flows: 30,
                capacity: None,
            }),
        ),
    ];
    for (name, kind) in kinds {
        let topo = Topology::testbed();
        let hermes = Scheme::Hermes(HermesParams::from_topology(&topo));
        let sim = SimConfig::new(topo, hermes).with_seed(23);
        let cfg = PointCfg::new(sim, kind)
            .drain(Time::from_ms(1200))
            .goodput_interval(Time::from_ms(1));
        let a = run_point(&cfg);
        let b = run_point(&cfg);
        assert_eq!(a.digest, b.digest, "{name}: same-seed digests differ");
        assert_eq!(a.events, b.events, "{name}: event counts differ");
        assert_eq!(
            a.records.len(),
            b.records.len(),
            "{name}: record counts differ"
        );
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(
                (ra.id, ra.start, ra.finish, ra.size),
                (rb.id, rb.start, rb.finish, rb.size),
                "{name}: record timelines differ"
            );
        }
        assert!(
            a.records.iter().all(|r| r.finish.is_some()),
            "{name}: staged workload did not drain within the budget"
        );
        assert!(a.conservation.balanced(), "{name}: conservation imbalance");
    }
}

/// Randomness comes only from `SimRng`: no registry or git crate is
/// linked into the workspace or the benchmark, so no `rand`,
/// `getrandom` or other entropy source can reach a run.
#[test]
fn lockfiles_pull_no_registry_crates() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = std::fs::read_to_string(root.join(lock)).expect("lockfile is committed");
        let sourced: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("source ="))
            .collect();
        assert!(
            sourced.is_empty(),
            "{lock} names non-path crates: {sourced:?}"
        );
    }
}
