//! End-to-end tests of the full stack: every scheme moves real flows
//! across the simulated fabric under DCTCP.

use hermes_core::HermesParams;
use hermes_net::{
    FaultAction, FaultPlan, FlowId, HostId, LeafId, PathId, SpineFailure, SpineId, Topology,
};
use hermes_runtime::{Probe, Scheme, SimConfig, Simulation, MAX_FLOW_ID};
use hermes_sim::{SimRng, Time};
use hermes_workload::{visibility, FlowDriver, FlowGen, FlowSizeDist, FlowSpec};

fn one_flow(size: u64) -> FlowSpec {
    FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(6), // other rack on the testbed topology
        size,
        start: Time::ZERO,
    }
}

#[test]
fn single_flow_completes_with_sane_fct() {
    let topo = Topology::testbed();
    let mut sim = Simulation::new(SimConfig::new(topo, Scheme::Ecmp));
    sim.add_flow(one_flow(1_000_000));
    sim.run_to_completion(Time::from_secs(5));
    let rec = &sim.records()[0];
    let fct = rec.finish.expect("flow must finish") - rec.start;
    // 1 MB at 1 Gbps is at least 8 ms; with slow start well under 100 ms.
    assert!(fct > Time::from_ms(8), "fct {fct}");
    assert!(fct < Time::from_ms(100), "fct {fct}");
    assert_eq!(sim.fabric().stats.path_fallbacks, 0);
}

/// When the spines of [`finish_through_an_rto`] stop dropping.
const DROPS_CLEAR: Time = Time::from_ms(5);

/// One 20 KB flow with raw id `id` on a testbed whose spines drop
/// everything until [`DROPS_CLEAR`]: only an RTO can finish it. Returns
/// its completion time.
fn finish_through_an_rto(id: u64) -> Option<Time> {
    let topo = Topology::testbed();
    let plan = (0..topo.n_spines as u16).fold(FaultPlan::new(), |p, s| {
        p.random_drop_window(SpineId(s), 1.0, Time::ZERO, DROPS_CLEAR)
    });
    let mut sim = Simulation::new(SimConfig::new(topo, Scheme::Ecmp).with_fault_plan(plan));
    sim.add_flow(FlowSpec {
        id: FlowId(id),
        ..one_flow(20_000)
    });
    sim.run_to_completion(Time::from_secs(5));
    sim.records()[0].finish
}

#[test]
fn widest_flow_id_keeps_its_timers() {
    let finish = finish_through_an_rto(MAX_FLOW_ID).expect("the RTO must fire and finish the flow");
    assert!(
        finish > DROPS_CLEAR,
        "finished at {finish}, before the drops cleared"
    );
}

#[test]
#[should_panic(expected = "exceeds MAX_FLOW_ID")]
fn flow_id_wider_than_the_timer_token_is_rejected() {
    finish_through_an_rto(1 << 40);
}

/// Flows added out of start order each start at their own instant:
/// an arrival starts the earliest pending spec, not the first added.
#[test]
fn flows_added_out_of_start_order_keep_their_own_starts() {
    let mut sim = Simulation::new(SimConfig::new(Topology::testbed(), Scheme::Ecmp));
    let late = FlowSpec {
        start: Time::from_ms(5),
        ..one_flow(10_000)
    };
    let early = FlowSpec {
        id: FlowId(1),
        start: Time::from_ms(1),
        ..one_flow(10_000)
    };
    sim.add_flows([late, early]);
    sim.run_to_completion(Time::from_secs(1));
    let starts: Vec<(FlowId, Time)> = sim.records().iter().map(|r| (r.id, r.start)).collect();
    assert_eq!(starts, [(FlowId(1), early.start), (FlowId(0), late.start)]);
}

/// Releases one flow at the instant a given flow completes.
struct ReleaseOnCompletion {
    initial: FlowSpec,
    after: FlowId,
    release: Option<FlowSpec>,
}

impl FlowDriver for ReleaseOnCompletion {
    fn initial(&mut self, _: Time) -> Vec<FlowSpec> {
        vec![self.initial]
    }
    fn on_flow_completed(&mut self, id: FlowId, now: Time, out: &mut Vec<FlowSpec>) {
        if id == self.after {
            out.extend(self.release.take().map(|s| FlowSpec { start: now, ..s }));
        }
    }
}

/// Flows start in `(start, add order)` however they are added: in order,
/// ahead of the queued arrival, at an equal start, or released by a
/// driver at `now` mid-run. An in-order batch queues one arrival, not
/// one per flow.
#[test]
fn flows_start_in_start_then_add_order_with_one_queued_arrival_per_in_order_batch() {
    let mut sim = Simulation::new(SimConfig::new(Topology::testbed(), Scheme::Ecmp));
    let spec = |id: u64, start_us: u64| FlowSpec {
        id: FlowId(id),
        src: HostId(id as u32 % 6),
        dst: HostId(6 + id as u32 % 6),
        size: 10_000,
        start: Time::from_us(start_us),
    };
    let base = sim.pending_events();
    let batch: Vec<FlowSpec> = (0..5).map(|i| spec(i, 1_000 * (i + 1))).collect();
    sim.add_flows(batch.iter().copied());
    assert_eq!(sim.pending_events(), base + 1, "an in-order batch");
    let mut added = batch;
    // Earlier than the queued front, equal to a spec behind it, equal to
    // the new front: only the two that land ahead of a queued arrival
    // are queued now.
    for (s, queued) in [(spec(5, 500), 2), (spec(6, 1_000), 2), (spec(7, 500), 3)] {
        sim.add_flow(s);
        added.push(s);
        assert_eq!(sim.pending_events(), base + queued, "after flow {}", s.id.0);
    }
    let initial = spec(8, 3_000);
    sim.set_driver(Box::new(ReleaseOnCompletion {
        initial,
        after: FlowId(5),
        release: Some(spec(9, 0)),
    }));
    added.push(initial);
    sim.run_to_completion(Time::from_secs(1));

    let finish_of = |id: u64| {
        let rec = sim.records().iter().find(|r| r.id == FlowId(id));
        rec.and_then(|r| r.finish).expect("every flow finishes")
    };
    added.push(FlowSpec {
        start: finish_of(5),
        ..spec(9, 0)
    });
    // A stable sort keeps add order among equal starts.
    added.sort_by_key(|s| s.start);
    let want: Vec<(FlowId, Time)> = added.iter().map(|s| (s.id, s.start)).collect();
    let got: Vec<(FlowId, Time)> = sim.records().iter().map(|r| (r.id, r.start)).collect();
    assert_eq!(got, want);
}

/// A plan naming a switch the fabric lacks is refused when installed,
/// naming the event — not an index out of bounds when the event fires.
#[test]
#[should_panic(expected = "invalid fault plan: link_down at 5.000ms names leaf 9 / spine 0")]
fn fault_plan_naming_a_missing_leaf_is_refused_at_install() {
    let down = FaultAction::LinkDown {
        leaf: LeafId(9),
        spine: SpineId(0),
    };
    let plan = FaultPlan::new().at(Time::from_ms(5), down);
    let _ =
        Simulation::new(SimConfig::new(Topology::testbed(), Scheme::Ecmp).with_fault_plan(plan));
}

#[test]
#[should_panic(expected = "invalid fault plan: link_down at 2.000ms names leaf 0 / spine 1")]
fn flapping_a_link_the_topology_cut_is_refused_at_install() {
    let mut topo = Topology::testbed();
    topo.cut_link(LeafId(0), SpineId(1));
    let plan = FaultPlan::new().link_flap(
        LeafId(0),
        SpineId(1),
        Time::from_ms(2),
        Time::from_ms(1),
        Time::from_ms(3),
        Time::from_ms(9),
    );
    let _ = Simulation::new(SimConfig::new(topo, Scheme::Ecmp).with_fault_plan(plan));
}

#[test]
fn every_scheme_completes_a_small_workload() {
    let topo = Topology::testbed();
    for name in Scheme::NAMES {
        let scheme = Scheme::by_name(name, &topo).expect("NAMES entries resolve");
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.4, None, SimRng::new(7));
        let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(11));
        sim.add_flows(gen.schedule(60));
        sim.run_to_completion(Time::from_secs(30));
        let unfinished = sim.records().iter().filter(|r| r.finish.is_none()).count();
        assert_eq!(unfinished, 0, "{name}: {unfinished} unfinished flows");
        assert_eq!(
            sim.fabric().stats.path_fallbacks,
            0,
            "{name}: edge scheme stamped dead paths"
        );
        // Byte conservation: every delivered flow got its full size.
        for r in sim.records() {
            assert!(r.finish.unwrap() >= r.start);
        }
    }
}

#[test]
fn same_seed_is_bit_reproducible() {
    let topo = Topology::testbed();
    let run = |seed: u64| -> Vec<u64> {
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.5, None, SimRng::new(3));
        let params = HermesParams::from_topology(&topo);
        let mut sim =
            Simulation::new(SimConfig::new(topo.clone(), Scheme::Hermes(params)).with_seed(seed));
        sim.add_flows(gen.schedule(40));
        sim.run_to_completion(Time::from_secs(30));
        sim.records()
            .iter()
            .map(|r| r.finish.expect("finished").as_ns())
            .collect()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a, b, "identical seeds must replay identically");
    let c = run(6);
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn hermes_probing_is_active_and_cheap() {
    let topo = Topology::testbed();
    let params = HermesParams::from_topology(&topo);
    let mut sim = Simulation::new(SimConfig::new(topo, Scheme::Hermes(params)));
    sim.add_flow(one_flow(500_000));
    sim.run_to_completion(Time::from_secs(5));
    assert!(sim.stats.probes_sent > 0, "agents must probe");
    assert!(
        sim.stats.probe_responses > sim.stats.probes_sent / 2,
        "most probes must come back ({} of {})",
        sim.stats.probe_responses,
        sim.stats.probes_sent
    );
}

#[test]
fn blackhole_strands_ecmp_but_not_hermes() {
    // 4-rack fabric, blackhole on spine 0 for every rack0→rack1 pair.
    let topo = Topology::leaf_spine(
        4,
        4,
        4,
        hermes_net::LinkCfg::new(10_000_000_000, Time::from_us(5)),
        hermes_net::LinkCfg::new(10_000_000_000, Time::from_us(10)),
    );
    let flows: Vec<FlowSpec> = (0..16)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId((i % 4) as u32),     // rack 0
            dst: HostId(4 + (i % 4) as u32), // rack 1
            size: 200_000,
            start: Time::from_us(10 * i),
        })
        .collect();

    let run = |scheme: Scheme| {
        let hole = FaultAction::SetSpineFailure {
            spine: SpineId(0),
            failure: SpineFailure::blackhole(LeafId(0), LeafId(1), 1.0),
        };
        let cfg = SimConfig::new(topo.clone(), scheme).with_seed(2);
        let mut sim = Simulation::new(cfg.with_fault_plan(FaultPlan::new().at(Time::ZERO, hole)));
        sim.add_flows(flows.clone());
        sim.run_to_completion(Time::from_secs(3));
        sim.records().iter().filter(|r| r.finish.is_none()).count()
    };

    let ecmp_unfinished = run(Scheme::Ecmp);
    assert!(
        ecmp_unfinished > 0,
        "ECMP must strand the flows hashed onto the blackhole"
    );
    let hermes_unfinished = run(Scheme::Hermes(HermesParams::from_topology(&topo)));
    assert_eq!(
        hermes_unfinished, 0,
        "Hermes must detect the blackhole after 3 timeouts and finish everything"
    );
}

#[test]
fn silent_random_drops_inflate_ecmp_tail_but_not_hermes() {
    // One spine silently drops 2% of packets (the Fig. 16 failure mode:
    // no link-down signal, just loss). Hermes' retransmission-fraction
    // sensing must classify the path as failed and route around it;
    // ECMP keeps hashing flows into the lossy spine for their lifetime.
    let topo = Topology::leaf_spine(
        4,
        4,
        4,
        hermes_net::LinkCfg::new(10_000_000_000, Time::from_us(5)),
        hermes_net::LinkCfg::new(10_000_000_000, Time::from_us(10)),
    );
    let flows: Vec<FlowSpec> = (0..16)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId((i % 4) as u32),     // rack 0
            dst: HostId(4 + (i % 4) as u32), // rack 1
            size: 2_000_000,
            start: Time::from_us(10 * i),
        })
        .collect();

    let run = |scheme: Scheme| {
        let drops = FaultAction::SetSpineFailure {
            spine: SpineId(0),
            failure: SpineFailure::random_drops(0.02),
        };
        let cfg = SimConfig::new(topo.clone(), scheme).with_seed(2);
        let mut sim = Simulation::new(cfg.with_fault_plan(FaultPlan::new().at(Time::ZERO, drops)));
        sim.add_flows(flows.clone());
        sim.run_to_completion(Time::from_secs(3));
        let unfinished = sim.records().iter().filter(|r| r.finish.is_none()).count();
        let max_fct = sim
            .records()
            .iter()
            .filter_map(|r| r.finish.map(|f| f - r.start))
            .max()
            .expect("at least one finished flow");
        (unfinished, max_fct)
    };

    let (ecmp_unfinished, ecmp_tail) = run(Scheme::Ecmp);
    assert_eq!(
        ecmp_unfinished, 0,
        "2% loss delays ECMP but does not strand it"
    );
    let (hermes_unfinished, hermes_tail) = run(Scheme::Hermes(HermesParams::from_topology(&topo)));
    assert_eq!(hermes_unfinished, 0, "Hermes must finish everything");
    assert!(
        hermes_tail < ecmp_tail,
        "Hermes must route around the lossy spine: tail {hermes_tail} vs ECMP {ecmp_tail}"
    );
}

#[test]
fn udp_source_delivers_at_configured_rate() {
    let topo = Topology::testbed();
    let mut sim = Simulation::new(SimConfig::new(topo, Scheme::Ecmp));
    let udp = sim.add_udp(
        HostId(0),
        HostId(6),
        500_000_000, // 0.5 Gbps on a 1 Gbps fabric
        1460,
        Some(PathId(0)),
        Time::ZERO,
    );
    sim.run_until(Time::from_ms(100));
    let received = sim.udp_received(udp);
    let expect = 500_000_000.0 / 8.0 * 0.1 * (1460.0 / 1500.0);
    let got = received as f64;
    assert!(
        (got - expect).abs() / expect < 0.05,
        "udp received {got:.3e}, expected ≈{expect:.3e}"
    );
}

#[test]
fn samplers_record_queue_buildup() {
    let topo = Topology::testbed();
    let mut sim = Simulation::new(SimConfig::new(topo, Scheme::Ecmp));
    // Two UDP sources at 0.9 Gbps each share one 1 Gbps uplink: queue grows.
    sim.add_udp(
        HostId(0),
        HostId(6),
        900_000_000,
        1460,
        Some(PathId(1)),
        Time::ZERO,
    );
    sim.add_udp(
        HostId(1),
        HostId(7),
        900_000_000,
        1460,
        Some(PathId(1)),
        Time::ZERO,
    );
    let s = sim.add_sampler(
        Time::from_us(100),
        Probe::LeafUpQueue(LeafId(0), SpineId(1)),
    );
    sim.run_until(Time::from_ms(20));
    let series = sim.sampler_series(s);
    assert!(series.len() > 100);
    let max = series.iter().map(|&(_, v)| v).max().unwrap();
    assert!(
        max > 30_000,
        "overloaded uplink must build queue: max {max}"
    );
}

/// A retired flow's sampler reads the newest flow with its id: flow 7
/// runs twice, 10 KB then 30 KB, and after the second retires the
/// sampler must report 30 KB, not the first run's 10 KB.
#[test]
fn flow_delivered_reads_the_latest_flow_with_a_reused_id() {
    let mut sim = Simulation::new(SimConfig::new(Topology::testbed(), Scheme::Ecmp));
    let spec = |src, dst, size, start| FlowSpec {
        id: FlowId(7),
        src: HostId(src),
        dst: HostId(dst),
        size,
        start,
    };
    sim.add_flows([
        spec(0, 6, 10_000, Time::ZERO),
        spec(1, 7, 30_000, Time::from_ms(20)),
    ]);
    let s = sim.add_sampler(Time::from_ms(1), Probe::FlowDelivered(FlowId(7)));
    sim.run_until(Time::from_ms(60));
    assert!(sim.records().iter().all(|r| r.finish.is_some()));
    let series = sim.sampler_series(s);
    let at = |ms| {
        series
            .iter()
            .find(|&&(t, _)| t == Time::from_ms(ms))
            .map(|&(_, v)| v)
    };
    // Between the two runs the first one's size shows.
    assert_eq!(at(19), Some(10_000));
    assert_eq!(series.last().map(|&(_, v)| v), Some(30_000));
}

#[test]
#[should_panic(expected = "sampler interval must be positive")]
fn zero_sampler_interval_fails_fast_instead_of_spinning() {
    let mut sim = Simulation::new(SimConfig::new(Topology::testbed(), Scheme::Ecmp));
    sim.add_sampler(Time::ZERO, Probe::TotalGoodput);
}

#[test]
fn visibility_gap_between_switch_and_host_pairs() {
    let topo = Topology::testbed();
    let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.6, None, SimRng::new(9));
    let mut sim = Simulation::new(SimConfig::new(topo.clone(), Scheme::Ecmp).with_seed(4));
    sim.add_flows(gen.schedule(80));
    sim.run_to_completion(Time::from_secs(30));
    let (switch, host) = visibility(sim.records(), &topo, Time::ZERO, sim.now());
    assert!(switch > 0.0);
    // Both rows integrate the same live-flow count over a different
    // number of pairs: the gap is exactly hosts_per_leaf² (36 here).
    let ratio = (topo.hosts_per_leaf * topo.hosts_per_leaf) as f64;
    assert!(
        (switch / host / ratio - 1.0).abs() < 1e-9,
        "Table 2's asymmetry: switch {switch} vs host {host}"
    );
}

#[test]
fn intra_rack_flows_complete_without_spine_paths() {
    let topo = Topology::testbed();
    let mut sim = Simulation::new(SimConfig::new(topo, Scheme::Ecmp));
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(1),
        size: 300_000,
        start: Time::ZERO,
    });
    sim.run_to_completion(Time::from_secs(2));
    assert!(sim.records()[0].finish.is_some());
}

#[test]
fn telemetry_traces_the_flow_lifecycle_without_perturbing_the_run() {
    use hermes_net::FaultPlan;
    use hermes_telemetry::Record;

    // Baseline digest with no sink installed.
    let run = |tele: bool| -> (u64, Vec<hermes_telemetry::TraceEvent>) {
        if tele {
            hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
        }
        let topo = Topology::testbed();
        // One down/up pair, both inside the flow's lifetime.
        let plan = FaultPlan::new().link_flap(
            LeafId(0),
            SpineId(0),
            Time::from_ms(1),
            Time::from_us(500),
            Time::from_ms(10),
            Time::from_ms(2),
        );
        let cfg = SimConfig::new(topo, Scheme::Ecmp).with_seed(5);
        let mut sim = Simulation::new(cfg.with_fault_plan(plan));
        sim.add_flow(one_flow(300_000));
        sim.run_to_completion(Time::from_secs(5));
        let digest = sim.trace_digest();
        let evs = if tele {
            let e = hermes_telemetry::drain();
            hermes_telemetry::uninstall();
            e
        } else {
            Vec::new()
        };
        (digest, evs)
    };
    let (d_off, _) = run(false);
    let (d_on, evs) = run(true);
    assert_eq!(
        d_on, d_off,
        "an installed sink must not perturb the event stream"
    );

    // Lifecycle records, in causal order.
    let started = evs
        .iter()
        .position(|e| matches!(e.record, Record::FlowStarted { flow: 0, .. }))
        .expect("FlowStarted");
    let completed = evs
        .iter()
        .position(|e| matches!(e.record, Record::FlowCompleted { flow: 0, .. }))
        .expect("FlowCompleted");
    assert!(started < completed);
    // The recorded FCT matches the flow record.
    let (rec_start, rec_finish) = {
        let topo = Topology::testbed();
        // One down/up pair, both inside the flow's lifetime.
        let plan = FaultPlan::new().link_flap(
            LeafId(0),
            SpineId(0),
            Time::from_ms(1),
            Time::from_us(500),
            Time::from_ms(10),
            Time::from_ms(2),
        );
        let cfg = SimConfig::new(topo, Scheme::Ecmp).with_seed(5);
        let mut sim = Simulation::new(cfg.with_fault_plan(plan));
        sim.add_flow(one_flow(300_000));
        sim.run_to_completion(Time::from_secs(5));
        let r = &sim.records()[0];
        (r.start, r.finish.expect("finished"))
    };
    match evs[completed].record {
        Record::FlowCompleted { fct_ns, .. } => {
            assert_eq!(fct_ns, (rec_finish - rec_start).as_ns());
        }
        _ => unreachable!(),
    }

    // Transport snapshots carry the flow label.
    assert!(
        evs.iter()
            .any(|e| matches!(e.record, Record::CwndUpdate { flow: 0, .. })),
        "cwnd snapshots must be labelled with the flow id"
    );
    // The fault plan surfaces as fault_applied records (down then up).
    let faults: Vec<&'static str> = evs
        .iter()
        .filter_map(|e| match e.record {
            Record::FaultApplied { kind } => Some(kind),
            _ => None,
        })
        .collect();
    assert_eq!(faults, ["link_down", "link_up"]);
    // Cadence sampling ran: queue samples exist and seq/time are
    // monotonic across the whole trace.
    assert!(evs
        .iter()
        .any(|e| matches!(e.record, Record::QueueSample { .. })));
    for w in evs.windows(2) {
        assert!(w[1].seq > w[0].seq);
        assert!(w[1].at >= w[0].at);
    }
}

#[test]
fn telemetry_metrics_sample_on_cadence() {
    hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
    let topo = Topology::testbed();
    let mut sim = Simulation::new(SimConfig::new(topo, Scheme::Ecmp).with_seed(5));
    sim.add_flow(one_flow(1_000_000));
    sim.run_to_completion(Time::from_secs(5));
    // Final flush: cadence sampling rides event dispatch, so metrics
    // observed by the very last events need one explicit end-of-run
    // snapshot (exporters do the same).
    hermes_telemetry::sample_metrics(sim.now());
    let _ = hermes_telemetry::drain();
    let rows = hermes_telemetry::take_metric_rows();
    hermes_telemetry::uninstall();
    assert!(
        rows.iter().any(|r| r.name == "goodput_bytes"),
        "goodput gauge sampled"
    );
    assert!(
        rows.iter().any(|r| r.name.starts_with("fct_us{le=")),
        "fct histogram sampled"
    );
    // The goodput gauge is non-decreasing over sim time.
    let gp: Vec<(u64, f64)> = rows
        .iter()
        .filter(|r| r.name == "goodput_bytes")
        .map(|r| (r.at.as_ns(), r.value))
        .collect();
    assert!(gp.len() >= 2, "multiple cadence ticks over an 8ms+ flow");
    for w in gp.windows(2) {
        assert!(w[1].0 > w[0].0 && w[1].1 >= w[0].1);
    }
}
