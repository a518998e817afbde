//! Property-based tests of the baseline load balancers.

use hermes_lb::{CloveEcn, Conga, Ecmp, FlowletTable, LetFlow, PrestoSpray, FLOWLET_TIMEOUT};
use hermes_net::{EdgeLb, FabricLb, FlowCtx, FlowId, HostId, LeafId, Packet, PathId, Topology};
use hermes_sim::{SimRng, Time};
use proptest::prelude::*;

fn ctx(flow: u64, current: PathId, is_new: bool) -> FlowCtx {
    FlowCtx {
        flow: FlowId(flow),
        src: HostId(0),
        dst: HostId(20),
        src_leaf: LeafId(0),
        dst_leaf: LeafId(1),
        bytes_sent: 0,
        rate_bps: 0.0,
        current_path: current,
        is_new,
        timed_out: false,
        since_change: Time::MAX,
        since_tx: Time::MAX,
    }
}

fn cands(n: u16) -> Vec<PathId> {
    (0..n).map(PathId).collect()
}

proptest! {
    /// Every edge scheme always returns a live candidate, whatever the
    /// candidate set and call sequence.
    #[test]
    fn edge_schemes_always_pick_live_candidates(
        n_paths in 1u16..9,
        seed in 0u64..1000,
        calls in proptest::collection::vec((0u64..20, 0u64..10_000), 1..120),
    ) {
        let cs = cands(n_paths);
        let mut rng = SimRng::new(seed);
        let mut schemes: Vec<Box<dyn EdgeLb>> = vec![
            Box::new(Ecmp::new()),
            Box::new(PrestoSpray::equal()),
            Box::new(CloveEcn::new(FLOWLET_TIMEOUT)),
        ];
        for lb in &mut schemes {
            let mut current = PathId::UNSET;
            for &(flow, t_us) in &calls {
                let c = ctx(flow, current, current == PathId::UNSET);
                let p = lb.select_path(&c, &cs, Time::from_us(t_us), &mut rng);
                prop_assert!(cs.contains(&p), "scheme picked dead path {p:?}");
                current = p;
            }
        }
    }

    /// A flowlet table never returns a path it was not given, and any
    /// two hits within the timeout return the same path.
    #[test]
    fn flowlet_table_consistency(
        timeout_us in 10u64..1000,
        events in proptest::collection::vec((0u64..5, 0u64..50_000), 1..200),
    ) {
        let mut t: FlowletTable<u64> = FlowletTable::new(Time::from_us(timeout_us));
        let mut sorted = events.clone();
        sorted.sort_by_key(|&(_, at)| at);
        let mut last_assigned: std::collections::BTreeMap<u64, (PathId, u64)> = Default::default();
        for (key, at_us) in sorted {
            let now = Time::from_us(at_us);
            match t.current(key, now) {
                Some(p) => {
                    let (ap, at0) = last_assigned[&key];
                    prop_assert_eq!(p, ap, "flowlet changed path without gap");
                    prop_assert!(at_us.saturating_sub(at0) <= 100_000);
                    last_assigned.insert(key, (p, at_us));
                }
                None => {
                    let p = PathId((key % 4) as u16);
                    t.assign(key, p, now);
                    last_assigned.insert(key, (p, at_us));
                }
            }
        }
    }

    /// CLOVE weight updates conserve total weight and never go negative.
    #[test]
    fn clove_weights_conserved(
        marks in proptest::collection::vec(0u16..4, 0..300),
        seed in 0u64..100,
    ) {
        let mut lb = CloveEcn::new(FLOWLET_TIMEOUT);
        let mut rng = SimRng::new(seed);
        let cs = cands(4);
        lb.select_path(&ctx(1, PathId::UNSET, true), &cs, Time::ZERO, &mut rng);
        for m in marks {
            lb.on_ack(&ctx(1, PathId(0), false), PathId(m), None, true, 1460, Time::ZERO);
        }
        let total: f64 = cs.iter().map(|&p| lb.weight(LeafId(1), p).unwrap()).sum();
        prop_assert!((total - 4.0).abs() < 1e-6, "total weight {total}");
        for &p in &cs {
            prop_assert!(lb.weight(LeafId(1), p).unwrap() > 0.0);
        }
    }

    /// LetFlow and CONGA (fabric schemes) always pick live candidates.
    #[test]
    fn fabric_schemes_always_pick_live_candidates(
        n_paths in 1u16..9,
        seed in 0u64..100,
        calls in proptest::collection::vec((0u64..10, 0u64..20_000), 1..100),
    ) {
        let cs = cands(n_paths);
        let mut rng = SimRng::new(seed);
        let mut letflow = LetFlow::new();
        let topo = Topology::sim_baseline();
        let mut conga = Conga::new(&topo, FLOWLET_TIMEOUT);
        for &(flow, t_us) in &calls {
            let pkt = Packet::data(FlowId(flow), HostId(0), HostId(20), 0, 1460, false);
            let now = Time::from_us(t_us);
            for lb in [&mut letflow as &mut dyn FabricLb, &mut conga] {
                let p = lb.ingress_select(LeafId(0), LeafId(1), &pkt, &cs, now, &mut rng);
                prop_assert!(cs.contains(&p));
            }
        }
    }
}
