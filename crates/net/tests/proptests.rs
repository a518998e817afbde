//! Property-based tests of the fabric: conservation, delivery, and
//! determinism under arbitrary traffic.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests drive a bare fabric's fault mutators directly"
)]

use hermes_net::{Event, Fabric, FlowId, HostId, LinkCfg, Packet, PathId, Port, Topology};
use hermes_sim::{EventQueue, SimRng, Time};
use proptest::prelude::*;

fn run_all(fab: &mut Fabric, q: &mut EventQueue<Event>) -> Vec<(HostId, Box<Packet>)> {
    let mut out = Vec::new();
    while let Some((_, ev)) = q.pop() {
        match ev {
            Event::TxDone { node, port } => fab.tx_done(q, node, port),
            Event::Arrive { node, pkt } => out.extend(fab.arrive(q, node, pkt)),
            Event::HostTimer { .. } | Event::Global { .. } => unreachable!("no runtime here"),
        }
    }
    out
}

/// The `Disconnected` exit: two racks that share no live spine. The
/// packet dies at its source leaf, counted once, and both accountings
/// (the conservation report and, with `--features audit`, the exact
/// ledger) close.
#[test]
fn packet_between_disconnected_racks_is_dropped_counted_and_conserved() {
    use hermes_net::{LeafId, SpineId};
    let mut topo = Topology::testbed();
    for (leaf, spines) in [(0, [0, 1]), (1, [2, 3])] {
        for s in spines {
            topo.cut_link(LeafId(leaf), SpineId(s));
        }
    }
    let mut fab = Fabric::new(topo, SimRng::new(0));
    let mut q = EventQueue::new();
    let mut pkt = Packet::data(FlowId(1), HostId(0), HostId(6), 0, 1460, false);
    pkt.path = PathId(0);
    fab.host_send(&mut q, pkt);
    assert!(run_all(&mut fab, &mut q).is_empty(), "nothing is delivered");
    assert_eq!(fab.stats.drops_disconnected, 1);
    assert_eq!((fab.stats.drops_failure, fab.total_drops_full()), (0, 0));
    let rep = fab.conservation_report();
    assert!(rep.balanced() && rep.in_flight == 0, "{rep}");
    #[cfg(feature = "audit")]
    assert_eq!(fab.ledger_outstanding(), 0);
}

proptest! {
    /// Ports conserve packets and bytes: whatever goes in comes out
    /// (minus counted tail drops), in priority order.
    #[test]
    fn port_conservation(
        sizes in proptest::collection::vec(41u32..1500, 1..80),
        buf_kb in 5u64..100,
    ) {
        let link = LinkCfg::new(1_000_000_000, Time::from_us(1));
        let mut p = Port::new(link, 30_000, buf_kb * 1000);
        let mut in_bytes = 0u64;
        let mut accepted = 0u64;
        for (i, &sz) in sizes.iter().enumerate() {
            let pkt = Packet::data(FlowId(i as u64), HostId(0), HostId(1), 0, sz - 40, false);
            in_bytes += sz as u64;
            if p.enqueue(Box::new(pkt)).is_queued() {
                accepted += sz as u64;
            }
        }
        let mut out_bytes = 0u64;
        while p.begin_tx().is_some() {
            out_bytes += p.complete_tx().size as u64;
        }
        prop_assert_eq!(out_bytes, accepted);
        prop_assert_eq!(p.queued_bytes(), 0);
        prop_assert!(accepted <= in_bytes);
        prop_assert_eq!(p.stats.tx_bytes, accepted);
    }

    /// Every packet injected into a healthy fabric is delivered to its
    /// destination host exactly once (no loss, no duplication).
    #[test]
    fn healthy_fabric_delivers_exactly_once(
        n_leaves in 2usize..4,
        n_spines in 1usize..4,
        pkts in proptest::collection::vec((0u32..6, 0u32..6, 0u16..4, 100u32..1460), 1..150),
        seed in 0u64..100,
    ) {
        let hosts = 3;
        let topo = Topology::leaf_spine(
            n_leaves,
            n_spines,
            hosts,
            LinkCfg::new(10_000_000_000, Time::from_us(2)),
            LinkCfg::new(10_000_000_000, Time::from_us(3)),
        );
        let n_hosts = topo.n_hosts() as u32;
        let mut fab = Fabric::new(topo, SimRng::new(seed));
        let mut q = EventQueue::new();
        let mut sent = 0usize;
        for (i, &(src, dst, path, len)) in pkts.iter().enumerate() {
            let (src, dst) = (src % n_hosts, dst % n_hosts);
            if src == dst {
                continue;
            }
            let mut pkt = Packet::data(FlowId(i as u64), HostId(src), HostId(dst), 0, len, false);
            pkt.path = PathId(path % n_spines as u16);
            fab.host_send(&mut q, pkt);
            sent += 1;
        }
        let out = run_all(&mut fab, &mut q);
        prop_assert_eq!(out.len(), sent, "every packet delivered exactly once");
        prop_assert_eq!(fab.total_drops_full(), 0, "ample buffers: no drops expected");
        for (host, pkt) in &out {
            prop_assert_eq!(pkt.dst, *host);
        }
    }

    /// Fabric runs are bit-deterministic: identical injections and seed
    /// produce identical delivery times and marks.
    #[test]
    fn fabric_determinism(
        pkts in proptest::collection::vec((0u32..12, 0u32..12, 0u16..4, 100u32..1460), 1..100),
        seed in 0u64..50,
    ) {
        let go = || {
            let topo = Topology::testbed();
            let mut fab = Fabric::new(topo, SimRng::new(seed));
            let mut q = EventQueue::new();
            for (i, &(src, dst, path, len)) in pkts.iter().enumerate() {
                let (src, dst) = (src % 12, dst % 12);
                if src == dst {
                    continue;
                }
                let mut pkt =
                    Packet::data(FlowId(i as u64), HostId(src), HostId(dst), 0, len, false);
                pkt.path = PathId(path);
                fab.host_send(&mut q, pkt);
            }
            run_all(&mut fab, &mut q)
                .into_iter()
                .map(|(h, p)| (h.0, p.id, p.ecn_marked))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(go(), go());
    }

    /// The deterministic pair hash behind blackhole matching maps every
    /// host pair into [0, 1) — so any `pair_fraction` in [0, 1] selects
    /// a well-defined subset of pairs.
    #[test]
    fn pair_unit_stays_in_the_unit_interval(a in any::<u32>(), b in any::<u32>()) {
        let u = hermes_net::pair_unit(HostId(a), HostId(b));
        prop_assert!((0.0..1.0).contains(&u), "pair_unit({a}, {b}) = {u}");
    }

    /// A fault window (onset followed by clearance) restores the spine
    /// to exactly `SpineFailure::healthy()`, whatever the failure mode —
    /// and link down/up and degrade/restore likewise round-trip.
    #[test]
    fn fault_onset_then_clear_restores_health(
        drop_rate in 0.0f64..1.0,
        pair_fraction in 0.0f64..1.0,
        use_blackhole in any::<bool>(),
        seed in 0u64..50,
    ) {
        use hermes_net::{FaultAction, LeafId, SpineFailure, SpineId};
        let topo = Topology::testbed();
        let orig_rate = topo.up[0][1].expect("testbed uplink").rate_bps;
        let mut fab = Fabric::new(topo, SimRng::new(seed));
        let s = SpineId(0);
        let failure = if use_blackhole {
            SpineFailure::blackhole(LeafId(0), LeafId(1), pair_fraction)
        } else {
            SpineFailure::random_drops(drop_rate)
        };
        fab.apply_fault(&FaultAction::SetSpineFailure { spine: s, failure });
        fab.apply_fault(&FaultAction::ClearSpineFailure { spine: s });
        let healed = fab.spine_failure(s);
        prop_assert!(!healed.is_failed());
        prop_assert_eq!(healed.random_drop, 0.0);
        prop_assert!(healed.blackhole.is_none());

        fab.apply_fault(&FaultAction::LinkDown { leaf: LeafId(0), spine: SpineId(1) });
        prop_assert!(fab.link_is_down(LeafId(0), SpineId(1)));
        fab.apply_fault(&FaultAction::LinkUp { leaf: LeafId(0), spine: SpineId(1) });
        prop_assert!(!fab.link_is_down(LeafId(0), SpineId(1)));

        fab.apply_fault(&FaultAction::SetLinkRate {
            leaf: LeafId(0),
            spine: SpineId(1),
            rate_bps: orig_rate / 7,
        });
        prop_assert_eq!(fab.link_rate_bps(LeafId(0), SpineId(1)), Some(orig_rate / 7));
        fab.apply_fault(&FaultAction::RestoreLinkRate { leaf: LeafId(0), spine: SpineId(1) });
        prop_assert_eq!(fab.link_rate_bps(LeafId(0), SpineId(1)), Some(orig_rate));
    }

    /// Random drops: delivered + dropped = sent, and the drop rate is
    /// statistically plausible for the configured probability.
    #[test]
    fn random_drop_accounting(seed in 0u64..200) {
        use hermes_net::{SpineFailure, SpineId};
        let topo = Topology::testbed();
        let mut fab = Fabric::new(topo, SimRng::new(seed));
        fab.set_spine_failure(SpineId(0), SpineFailure::random_drops(0.3));
        let mut q = EventQueue::new();
        let n = 400;
        for i in 0..n {
            let mut pkt = Packet::data(FlowId(i), HostId(0), HostId(6), 0, 1000, false);
            pkt.path = PathId(0);
            fab.host_send(&mut q, pkt);
        }
        let out = run_all(&mut fab, &mut q);
        prop_assert_eq!(out.len() as u64 + fab.stats.drops_failure, n);
        let rate = fab.stats.drops_failure as f64 / n as f64;
        prop_assert!((0.15..0.45).contains(&rate), "drop rate {rate}");
    }
}
