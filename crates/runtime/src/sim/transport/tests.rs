//! The per-flow LB seam and the hooks it gates. The fake edge LB here
//! panics on any hook that reaches it, so a run that completes proves
//! no hook was called.

use hermes_sim::SimRng;
use hermes_transport::TransportCfg;

use super::*;
use crate::SimConfig;

/// An edge LB no per-flow hook may reach.
struct Forbidden;

fn reached(hook: &str) -> ! {
    panic!("edge LB hook `{hook}` reached")
}

impl EdgeLb for Forbidden {
    fn select_path(&mut self, _: &FlowCtx, _: &[PathId], _: Time, _: &mut SimRng) -> PathId {
        reached("select_path")
    }
    fn on_ack(&mut self, _: &FlowCtx, _: PathId, _: Option<Time>, _: bool, _: u64, _: Time) {
        reached("on_ack")
    }
    fn on_timeout(&mut self, _: &FlowCtx, _: PathId, _: Time) {
        reached("on_timeout")
    }
    fn on_retransmit(&mut self, _: &FlowCtx, _: PathId, _: Time) {
        reached("on_retransmit")
    }
    fn on_data_sent(&mut self, _: &FlowCtx, _: PathId, _: u64, _: Time) {
        reached("on_data_sent")
    }
    fn on_flow_finished(&mut self, _: &FlowCtx, _: Time) {
        reached("on_flow_finished")
    }
}

fn forbidden_lbs(topo: &Topology) -> EdgeLbs {
    EdgeLbs::PerHost(
        (0..topo.n_hosts())
            .map(|_| Box::new(Forbidden) as Box<dyn EdgeLb>)
            .collect(),
    )
}

/// A flow from `src` to `dst` on the testbed (hosts 0–5 sit under
/// leaf 0, 6–11 under leaf 1) that sent 1500 B at 10 µs.
fn flow(src: u32, dst: u32) -> FlowRt {
    let leaf = |h: u32| LeafId(u16::from(h >= 6));
    let mut f = FlowRt {
        id: FlowId(1),
        src: HostId(src),
        dst: HostId(dst),
        src_leaf: leaf(src),
        dst_leaf: leaf(dst),
        sender: Sender::new(TransportCfg::dctcp(), 10_000),
        receiver: Receiver::new(10_000, None, 3),
        current_path: PathId::UNSET,
        ack_path: PathId::UNSET,
        blame_path: PathId::UNSET,
        last_path_change: Time::ZERO,
        timed_out: false,
        bytes_routed: 1500,
        pkts_routed: 1,
        rto: LazyTimer::new(),
        hold_gen: 0,
        rate: Dre::default_horizon(),
        rec_idx: 0,
        sender_done: false,
    };
    f.rate.add(1500, Time::from_us(10));
    f
}

#[test]
fn the_seam_builds_a_ctx_only_for_an_inter_rack_edge_flow() {
    let topo = Topology::testbed();
    let now = Time::from_us(50);
    let dre = |f: &FlowRt| format!("{:?}", f.rate);
    // Neither gate may touch the rate estimator: decaying it here would
    // move the float state every later ctx reads.
    let mut intra = flow(0, 5);
    let before = dre(&intra);
    assert!(forbidden_lbs(&topo).for_flow(&mut intra, now).is_none());
    assert_eq!(dre(&intra), before);
    let mut inter = flow(0, 7);
    let before = dre(&inter);
    assert!(EdgeLbs::SwitchBased.for_flow(&mut inter, now).is_none());
    assert_eq!(dre(&inter), before);
    // Building the ctx calls no hook; it reads the decayed rate.
    let mut lbs = forbidden_lbs(&topo);
    let (_, ctx) = lbs.for_flow(&mut inter, now).expect("edge LB serves it");
    assert_eq!(
        (ctx.src, ctx.dst_leaf, ctx.bytes_sent),
        (HostId(0), LeafId(1), 1500)
    );
    assert!(!ctx.is_new && ctx.since_change == Time::MAX);
    assert_ne!(dre(&inter), before);
}

#[test]
fn each_scheme_builds_the_edge_lb_shape_it_runs_on() {
    let topo = Topology::testbed();
    for name in Scheme::NAMES {
        let scheme = Scheme::by_name(name, &topo).expect("a listed name resolves");
        let sim = Simulation::new(SimConfig::new(topo.clone(), scheme));
        let shape = match &sim.edge {
            EdgeLbs::SwitchBased => "switch",
            EdgeLbs::PerHost(lbs) => {
                assert_eq!(lbs.len(), topo.n_hosts(), "{name}");
                "host"
            }
            EdgeLbs::PerRack { racks, prober } => {
                assert_eq!(racks.len(), topo.n_leaves, "{name}");
                assert!(prober.is_some(), "{name}: Hermes probes by default");
                "rack"
            }
        };
        let want = match name {
            "letflow" | "drill" | "conga" => "switch",
            "hermes" => "rack",
            _ => "host",
        };
        assert_eq!(shape, want, "{name}");
    }
}

/// Run `pairs` (src, dst) as 20 KB flows under `scheme`, with a
/// per-host scheme's LBs swapped for [`Forbidden`] ones.
fn run(scheme: Scheme, pairs: &[(u32, u32)]) -> Simulation {
    let topo = Topology::testbed();
    let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme));
    if let EdgeLbs::PerHost(_) = sim.edge {
        sim.edge = forbidden_lbs(&topo);
    }
    sim.add_flows(pairs.iter().zip(0..).map(|(&(s, d), id)| FlowSpec {
        id: FlowId(id),
        src: HostId(s),
        dst: HostId(d),
        size: 20_000,
        start: Time::from_us(10 * id),
    }));
    sim.run_to_completion(Time::from_secs(1));
    assert_eq!(sim.stats.flows_completed, pairs.len());
    sim
}

#[test]
fn intra_rack_flows_never_reach_an_edge_lb_hook() {
    run(Scheme::Ecmp, &[(0, 5), (7, 6), (3, 1)]);
}

/// The control for the test above: the fake does catch a hook.
#[test]
#[should_panic(expected = "edge LB hook `select_path` reached")]
fn an_inter_rack_flow_reaches_the_edge_lb() {
    run(Scheme::Ecmp, &[(0, 5), (2, 8)]);
}

#[test]
fn a_letflow_run_never_reaches_an_edge_lb_hook() {
    let letflow = Scheme::LetFlow {
        flowlet_timeout: Time::from_us(150),
    };
    let mut sim = run(letflow, &[(0, 7), (8, 1), (2, 9)]);
    assert!(matches!(sim.edge, EdgeLbs::SwitchBased));
    // Mid-run, every live inter-rack flow is routed by the fabric: the
    // seam refuses it and its packets leave the host with no path.
    let start = sim.now();
    sim.add_flows((0..4).map(|i| FlowSpec {
        id: FlowId(10 + u64::from(i)),
        src: HostId(i),
        dst: HostId(6 + i),
        size: 2_000_000,
        start,
    }));
    let mid = sim.now() + Time::from_ms(1);
    sim.run_until(mid);
    assert_eq!(sim.flows.len(), 4);
    for f in sim.flows.values_mut() {
        assert!(f.pkts_routed > 0);
        assert_eq!(f.current_path, PathId::UNSET);
        assert!(sim.edge.for_flow(f, mid).is_none());
    }
}
