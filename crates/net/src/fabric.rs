//! The fabric: a leaf-spine [`Topology`] wired with output ports, and
//! the one way a packet moves through it. [`Fabric::host_send`] injects,
//! [`Fabric::tx_done`] and [`Fabric::arrive`] handle its two events, and
//! every hop ends in the private `enqueue` (queue on a port, start it if
//! idle) or `retire` (the single exit for an undelivered packet).
//! `ports` owns the ports and the `(node, idx)` convention that
//! addresses them; `faults` is fault application
//! ([`Fabric::apply_fault`]).

mod faults;
mod ports;

use hermes_sim::{EventQueue, SimRng, Time};
use hermes_telemetry::DropReason;

use self::ports::PortTable;
use crate::failure::SpineFailure;
use crate::lbapi::{FabricLb, LinkRef};
use crate::packet::Packet;
use crate::pool::{PacketPool, PoolStats};
use crate::port::{Enqueue, Port};
use crate::topology::Topology;
use crate::types::{HostId, LeafId, NodeId, PathId, SpineId};

/// The single event type of a fabric simulation.
///
/// `HostTimer` and `Global` are never produced or consumed by the fabric
/// itself — they exist so higher layers (transport timers, flow arrivals,
/// probe ticks) share one totally ordered queue with packet events.
#[derive(Clone, Debug)]
pub enum Event {
    /// A port finished serializing its in-flight packet.
    TxDone { node: NodeId, port: usize },
    /// A packet arrived at a node (after link propagation).
    Arrive { node: NodeId, pkt: Box<Packet> },
    /// Runtime-interpreted per-host timer (e.g. a flow's RTO).
    HostTimer { host: HostId, token: u64 },
    /// Runtime-interpreted global timer (flow arrivals, probe ticks, …).
    Global { token: u64 },
}

/// Fabric-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricStats {
    /// Packets destroyed by injected switch failures.
    pub drops_failure: u64,
    /// Packets dropped because no live path existed.
    pub drops_disconnected: u64,
    /// Edge-stamped paths that were invalid and had to be re-hashed
    /// (should stay 0 — a nonzero value flags a scheme bug).
    pub path_fallbacks: u64,
    /// Packets delivered to destination hosts.
    pub delivered: u64,
}

/// The simulated fabric.
pub struct Fabric {
    topo: Topology,
    ports: PortTable,
    /// Precomputed live path candidates per ordered leaf pair.
    candidates: Vec<Vec<Vec<PathId>>>,
    failures: Vec<SpineFailure>,
    /// Transiently downed leaf↔spine links (`[leaf][spine]`), driven by
    /// [`crate::FaultAction::LinkDown`]/`LinkUp` and spine outages.
    /// Unlike topology cuts these do not shrink the candidate sets —
    /// schemes must *sense* the fault, exactly as on a real fabric where
    /// routing has not yet reconverged. Packets forwarded onto a downed
    /// link are destroyed and counted as `drops_failure`.
    link_down: Vec<Vec<bool>>,
    lb: Option<Box<dyn FabricLb>>,
    rng: SimRng,
    next_pkt_id: u64,
    /// Arena of retired packet allocations, reused by `host_send` so the
    /// steady-state fast path performs no heap allocation per packet.
    pool: PacketPool,
    /// Packets currently propagating on links (scheduled `Arrive`
    /// events). Together with the port census this gives an accounting
    /// of in-flight packets that is independent of the drop/delivery
    /// counters — see [`Fabric::conservation_report`].
    on_wire: u64,
    #[cfg(feature = "audit")]
    ledger: crate::audit::Ledger,
    pub stats: FabricStats,
}

impl Fabric {
    /// Build a fabric from a validated topology. `rng` is one stream
    /// shared by the random drops at failed spines and the switch LB's
    /// draws in [`FabricLb::ingress_select`] (LetFlow's and CONGA's
    /// choices), so a drop draw shifts the switch LB's later choices.
    /// Workload and edge-LB streams are separate; faults never perturb
    /// those.
    pub fn new(topo: Topology, rng: SimRng) -> Fabric {
        topo.validate();
        let ports = PortTable::new(&topo);
        let candidates = (0..topo.n_leaves)
            .map(|a| {
                (0..topo.n_leaves)
                    .map(|b| {
                        if a == b {
                            Vec::new()
                        } else {
                            topo.path_candidates(LeafId(a as u16), LeafId(b as u16))
                        }
                    })
                    .collect()
            })
            .collect();
        Fabric {
            failures: vec![SpineFailure::healthy(); topo.n_spines],
            link_down: vec![vec![false; topo.n_spines]; topo.n_leaves],
            topo,
            ports,
            candidates,
            lb: None,
            rng,
            next_pkt_id: 0,
            pool: PacketPool::new(),
            on_wire: 0,
            #[cfg(feature = "audit")]
            ledger: crate::audit::Ledger::default(),
            stats: FabricStats::default(),
        }
    }

    /// Install a switch-resident load balancer (CONGA/LetFlow).
    pub fn set_fabric_lb(&mut self, lb: Box<dyn FabricLb>) {
        self.lb = Some(lb);
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Live paths from `src_leaf` to `dst_leaf` (empty iff same leaf or
    /// disconnected).
    pub fn candidates(&self, src_leaf: LeafId, dst_leaf: LeafId) -> &[PathId] {
        &self.candidates[src_leaf.0 as usize][dst_leaf.0 as usize]
    }

    /// A leaf's uplink port toward a spine, `None` if the topology cut it.
    fn leaf_up(&self, leaf: LeafId, spine: SpineId) -> Option<&Port> {
        self.ports.get(NodeId::Leaf(leaf), self.ports.up_idx(spine))
    }

    /// Queue occupancy (bytes, both priorities) of a leaf's uplink
    /// toward a spine; 0 for cut links.
    pub fn leaf_up_qbytes(&self, leaf: LeafId, spine: SpineId) -> u64 {
        self.leaf_up(leaf, spine).map_or(0, Port::queued_bytes)
    }

    /// Queue occupancy of a spine's downlink toward a leaf.
    pub fn spine_down_qbytes(&self, spine: SpineId, leaf: LeafId) -> u64 {
        self.ports
            .get(NodeId::Spine(spine), leaf.0 as usize)
            .map_or(0, Port::queued_bytes)
    }

    /// Sum of tail drops across every port in the fabric.
    pub fn total_drops_full(&self) -> u64 {
        self.ports.iter().map(|p| p.stats.drops_full).sum()
    }

    /// Sum of CE marks across every port (host NICs never mark).
    pub fn total_ecn_marks(&self) -> u64 {
        self.ports.iter().map(|p| p.stats.ecn_marks).sum()
    }

    /// Physical census: packets sitting in a port queue or currently
    /// serializing, across every port in the fabric. Together with the
    /// link-propagation count this is the fabric's half of the
    /// conservation cross-check — it is computed from the ports
    /// themselves, independently of the injected/retired counters.
    pub fn held_packets(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.queued_pkts() as u64 + u64::from(p.busy()))
            .sum()
    }

    /// Snapshot the packet-conservation accounting. The report balances
    /// (`injected == delivered + dropped + in_flight`) at *every*
    /// instant, not just at quiescence; an imbalance means a packet was
    /// leaked, double-counted, or destroyed without being recorded.
    pub fn conservation_report(&self) -> crate::audit::ConservationReport {
        crate::audit::ConservationReport {
            injected: self.next_pkt_id,
            delivered: self.stats.delivered,
            drops_failure: self.stats.drops_failure,
            drops_disconnected: self.stats.drops_disconnected,
            drops_full: self.total_drops_full(),
            in_flight: self.held_packets() + self.on_wire,
        }
    }

    /// Exact count of packet ids currently inside the fabric, from the
    /// per-packet ledger. Only available with the `audit` feature.
    #[cfg(feature = "audit")]
    pub fn ledger_outstanding(&self) -> u64 {
        self.ledger.outstanding()
    }

    /// Return a delivered packet's allocation to the fabric's arena. The
    /// runtime calls this after consuming the packet; undelivered
    /// packets are recycled by the fabric itself.
    #[inline]
    pub fn recycle(&mut self, pkt: Box<Packet>) {
        self.pool.recycle(pkt);
    }

    /// Packet-arena effectiveness counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Hand a packet from a host to the fabric. Stamps id and departure
    /// time, then queues it on the host NIC. The box comes from the
    /// fabric's packet arena, so steady-state sends allocate nothing.
    pub fn host_send(&mut self, q: &mut EventQueue<Event>, pkt: Packet) {
        let mut pkt = self.pool.boxed(pkt);
        debug_assert!((pkt.src.0 as usize) < self.topo.n_hosts());
        debug_assert!((pkt.dst.0 as usize) < self.topo.n_hosts());
        debug_assert_ne!(pkt.src, pkt.dst, "loopback traffic is not modelled");
        pkt.id = self.next_pkt_id;
        self.next_pkt_id += 1;
        pkt.sent_at = q.now();
        if self.topo.host_leaf(pkt.src) == self.topo.host_leaf(pkt.dst) {
            pkt.path = PathId::DIRECT;
        }
        #[cfg(feature = "audit")]
        self.ledger.injected(pkt.id);
        self.enqueue(q, NodeId::Host(pkt.src), 0, pkt);
    }

    /// A packet finished propagating and reached `node`: deliver it to a
    /// host (returned to the caller) or forward it at a switch.
    pub fn arrive(
        &mut self,
        q: &mut EventQueue<Event>,
        node: NodeId,
        pkt: Box<Packet>,
    ) -> Option<(HostId, Box<Packet>)> {
        self.on_wire -= 1;
        match node {
            NodeId::Host(h) => {
                debug_assert_eq!(pkt.dst, h, "packet delivered to wrong host");
                debug_assert!(pkt.sent_at <= q.now(), "delivery before departure");
                #[cfg(feature = "audit")]
                self.ledger.retired(pkt.id);
                self.stats.delivered += 1;
                Some((h, pkt))
            }
            NodeId::Leaf(l) => {
                self.forward_leaf(q, l, pkt);
                None
            }
            NodeId::Spine(s) => {
                self.forward_spine(q, s, pkt);
                None
            }
        }
    }

    /// A port finished serializing: launch the packet onto the wire and
    /// start the next queued one. The next `TxDone` is scheduled before
    /// the `Arrive`, the order `enqueue` followed by a launch produces.
    pub fn tx_done(&mut self, q: &mut EventQueue<Event>, node: NodeId, idx: usize) {
        let peer = self.ports.peer(node, idx);
        let port = self
            .ports
            .get_mut(node, idx)
            .expect("TxDone on a port the topology cut");
        let pkt = port.complete_tx();
        let delay = port.link.delay;
        if let Some(t) = port.begin_tx() {
            q.schedule_in(t, Event::TxDone { node, port: idx });
        }
        self.on_wire += 1;
        q.schedule_in(delay, Event::Arrive { node: peer, pkt });
    }

    /// The one entry to a port: queue `pkt` on `(node, idx)`, start the
    /// port if it was idle, retire the packet if the buffer refused it.
    #[inline]
    fn enqueue(&mut self, q: &mut EventQueue<Event>, node: NodeId, idx: usize, pkt: Box<Packet>) {
        let port = self
            .ports
            .get_mut(node, idx)
            .expect("forwarding onto a port the topology cut");
        match port.enqueue(pkt) {
            Enqueue::Queued => {
                if let Some(t) = port.begin_tx() {
                    q.schedule_in(t, Event::TxDone { node, port: idx });
                }
            }
            Enqueue::Dropped(pkt) => self.retire(q.now(), pkt, DropReason::BufferFull),
        }
    }

    /// The one exit for a packet that will not be delivered: count it by
    /// `reason`, trace it, strike it from the audit ledger and recycle
    /// its allocation. Out of line: drops are the rare path, and
    /// `enqueue` is inlined into every forwarder.
    #[cold]
    #[inline(never)]
    fn retire(&mut self, now: Time, pkt: Box<Packet>, reason: DropReason) {
        match reason {
            // Counted by the refusing port (`PortStats::drops_full`).
            DropReason::BufferFull => {}
            DropReason::Disconnected => self.stats.drops_disconnected += 1,
            DropReason::RandomDrop
            | DropReason::Blackhole
            | DropReason::FlowBlackhole
            | DropReason::LinkDown => self.stats.drops_failure += 1,
        }
        // Traced *before* the box goes back to the pool — `recycle`
        // poisons the identity fields this record reads.
        if hermes_telemetry::enabled() {
            let flow = pkt.flow.0;
            let path = pkt.path.telemetry_code();
            hermes_telemetry::emit_with(now, || hermes_telemetry::Record::Drop {
                flow,
                path,
                reason,
            });
        }
        #[cfg(feature = "audit")]
        self.ledger.retired(pkt.id);
        self.pool.recycle(pkt);
    }

    fn forward_leaf(&mut self, q: &mut EventQueue<Event>, l: LeafId, mut pkt: Box<Packet>) {
        let dst_leaf = self.topo.host_leaf(pkt.dst);
        let src_leaf = self.topo.host_leaf(pkt.src);
        let node = NodeId::Leaf(l);
        if dst_leaf == l {
            // Down toward the host (either intra-rack or from a spine).
            if src_leaf != l {
                if let Some(lb) = self.lb.as_mut() {
                    lb.on_dst_leaf(l, &mut pkt, q.now());
                }
            }
            if let Some(lb) = self.lb.as_mut() {
                lb.on_forward(LinkRef::HostDown { leaf: l }, &mut pkt, q.now());
            }
            let slot = self.topo.host_slot(pkt.dst);
            return self.enqueue(q, node, slot, pkt);
        }
        // Uplink required: this must be the source leaf.
        debug_assert_eq!(src_leaf, l, "transit through a second leaf is impossible");
        let cands = &self.candidates[l.0 as usize][dst_leaf.0 as usize];
        if cands.is_empty() {
            return self.retire(q.now(), pkt, DropReason::Disconnected);
        }
        let path = if let Some(lb) = self.lb.as_mut() {
            lb.ingress_select(l, dst_leaf, &pkt, cands, q.now(), &mut self.rng)
        } else if cands.contains(&pkt.path) {
            pkt.path
        } else {
            // Edge scheme stamped a dead/unset path: deterministic hash.
            self.stats.path_fallbacks += 1;
            cands[(pkt.flow.0 as usize) % cands.len()]
        };
        debug_assert!(cands.contains(&path), "fabric LB chose a dead path");
        pkt.path = path;
        pkt.meta.lb_tag = path.0;
        let spine = path.0;
        if self.link_down[l.0 as usize][spine as usize] {
            // Transient link failure: the packet is lost on the dead
            // uplink. Schemes keep this path in their candidate set and
            // must sense the loss.
            return self.retire(q.now(), pkt, DropReason::LinkDown);
        }
        if let Some(lb) = self.lb.as_mut() {
            lb.on_forward(LinkRef::Up { leaf: l, spine }, &mut pkt, q.now());
        }
        let idx = self.ports.up_idx(SpineId(spine));
        // Telemetry: a CE mark applied by this enqueue shows in the
        // port's mark counter (the box moves into the queue, so the
        // marked flag itself is no longer visible here). The depth
        // reported is what the marker compared against K: the data
        // queue with this arrival included.
        let watch = hermes_telemetry::enabled().then(|| {
            let port = self.ports.get(node, idx);
            let (marks, low) = port.map_or((0, 0), |p| (p.stats.ecn_marks, p.low_queue_bytes()));
            (marks, low + u64::from(pkt.size), pkt.flow.0)
        });
        self.enqueue(q, node, idx, pkt);
        if let Some((marks_before, qbytes, flow)) = watch {
            let marks = self.ports.get(node, idx).map_or(0, |p| p.stats.ecn_marks);
            if marks > marks_before {
                hermes_telemetry::emit_with(q.now(), || hermes_telemetry::Record::EcnMark {
                    leaf: u32::from(l.0),
                    spine: u32::from(spine),
                    qbytes,
                    flow,
                });
            }
        }
    }

    fn forward_spine(&mut self, q: &mut EventQueue<Event>, s: SpineId, mut pkt: Box<Packet>) {
        let f = self.failures[s.0 as usize];
        let dst_leaf = self.topo.host_leaf(pkt.dst);
        let node = NodeId::Spine(s);
        let idx = dst_leaf.0 as usize;
        // The first cause that claims the packet wins. The failure RNG is
        // drawn only while the spine has a nonzero drop rate, so a
        // healthy spine never perturbs the stream.
        let lost = if f.random_drop > 0.0 && self.rng.chance(f.random_drop) {
            Some(DropReason::RandomDrop)
        } else if f
            .blackhole
            .is_some_and(|bh| bh.matches(pkt.src, pkt.dst, self.topo.host_leaf(pkt.src), dst_leaf))
        {
            Some(DropReason::Blackhole)
        } else if f.flow_blackhole.is_some_and(|fb| fb.matches(pkt.flow)) {
            Some(DropReason::FlowBlackhole)
        } else if self.ports.get(node, idx).is_none() {
            Some(DropReason::Disconnected)
        } else if self.link_down[idx][s.0 as usize] {
            // Transient failure of the spine→leaf downlink.
            Some(DropReason::LinkDown)
        } else {
            None
        };
        if let Some(reason) = lost {
            return self.retire(q.now(), pkt, reason);
        }
        if let Some(lb) = self.lb.as_mut() {
            let (spine, leaf) = (s.0, dst_leaf);
            lb.on_forward(LinkRef::Down { spine, leaf }, &mut pkt, q.now());
        }
        self.enqueue(q, node, idx, pkt);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests drive a bare fabric's fault mutators directly"
)]
mod tests {
    use super::*;
    use crate::faultplan::FaultAction;
    use crate::packet::PacketKind;
    use crate::types::FlowId;

    /// Dispatch one fabric event, as the runtime does.
    fn step(
        fab: &mut Fabric,
        q: &mut EventQueue<Event>,
        ev: Event,
    ) -> Option<(HostId, Box<Packet>)> {
        match ev {
            Event::TxDone { node, port } => {
                fab.tx_done(q, node, port);
                None
            }
            Event::Arrive { node, pkt } => fab.arrive(q, node, pkt),
            Event::HostTimer { .. } | Event::Global { .. } => unreachable!("no runtime here"),
        }
    }

    fn run_to_completion(
        fab: &mut Fabric,
        q: &mut EventQueue<Event>,
    ) -> Vec<(Time, HostId, Box<Packet>)> {
        let mut out = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let Some((h, p)) = step(fab, q, ev) {
                out.push((t, h, p));
            }
        }
        out
    }

    fn send_data(fab: &mut Fabric, q: &mut EventQueue<Event>, src: u32, dst: u32, path: PathId) {
        let mut p = Packet::data(FlowId(1), HostId(src), HostId(dst), 0, 1460, false);
        p.path = path;
        fab.host_send(q, p);
    }

    #[test]
    fn delivers_inter_rack_packet_with_expected_latency() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 1);
        let (t, h, p) = &out[0];
        assert_eq!(*h, HostId(6));
        assert_eq!(p.path, PathId(0));
        // 4 store-and-forward hops of 1500B at 1G (12us) + 4 × 3us prop.
        assert_eq!(*t, Time::from_us(4 * 12 + 4 * 3));
        assert_eq!(fab.stats.delivered, 1);
    }

    #[test]
    fn delivers_intra_rack_directly() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        send_data(&mut fab, &mut q, 0, 1, PathId::UNSET);
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].2.path, PathId::DIRECT);
        // host→leaf→host: 2 hops.
        assert_eq!(out[0].0, Time::from_us(2 * 12 + 2 * 3));
    }

    #[test]
    fn dead_path_falls_back_and_is_counted() {
        let mut topo = Topology::testbed();
        topo.cut_link(LeafId(0), SpineId(1));
        let mut fab = Fabric::new(topo, SimRng::new(0));
        let mut q = EventQueue::new();
        send_data(&mut fab, &mut q, 0, 6, PathId(1)); // stamped dead path
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 1, "packet must be re-hashed onto live path");
        // Live candidates are {0, 2, 3}; flow 1 hashes to index 1 → s2.
        assert_eq!(out[0].2.path, PathId(2));
        assert_eq!(fab.stats.path_fallbacks, 1);
    }

    #[test]
    fn random_drop_failure_kills_packets() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(7));
        fab.set_spine_failure(SpineId(0), SpineFailure::random_drops(1.0));
        let mut q = EventQueue::new();
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        let out = run_to_completion(&mut fab, &mut q);
        assert!(out.is_empty());
        assert_eq!(fab.stats.drops_failure, 1);
    }

    #[test]
    fn blackhole_drops_matching_pairs_only() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(7));
        fab.set_spine_failure(
            SpineId(0),
            SpineFailure::blackhole(LeafId(0), LeafId(1), 1.0),
        );
        let mut q = EventQueue::new();
        // Forward direction through failed spine: dropped.
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        // Forward direction through healthy spine: delivered.
        send_data(&mut fab, &mut q, 0, 7, PathId(1));
        // Reverse direction through failed spine: delivered (directional).
        send_data(&mut fab, &mut q, 6, 0, PathId(0));
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 2);
        assert_eq!(fab.stats.drops_failure, 1);
    }

    #[test]
    fn flow_blackhole_drops_victim_flows_everywhere() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(7));
        fab.apply_fault(&FaultAction::FlowBlackhole {
            spine: SpineId(0),
            victim_fraction: 1.0,
        });
        let mut q = EventQueue::new();
        // Any flow through the failed spine is a victim, both rack
        // directions — unlike the pair blackhole, which is directional.
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        send_data(&mut fab, &mut q, 6, 0, PathId(0));
        // Healthy spine: delivered.
        send_data(&mut fab, &mut q, 0, 7, PathId(1));
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 1);
        assert_eq!(fab.stats.drops_failure, 2);
        // Clearing by merging fraction 0 normalizes to healthy.
        fab.apply_fault(&FaultAction::FlowBlackhole {
            spine: SpineId(0),
            victim_fraction: 0.0,
        });
        assert!(!fab.spine_failure(SpineId(0)).is_failed());
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        assert_eq!(run_to_completion(&mut fab, &mut q).len(), 1);
    }

    #[test]
    fn gray_failures_merge_instead_of_replacing() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(7));
        fab.apply_fault(&FaultAction::SetSpineFailure {
            spine: SpineId(2),
            failure: SpineFailure::random_drops(0.05),
        });
        fab.apply_fault(&FaultAction::FlowBlackhole {
            spine: SpineId(2),
            victim_fraction: 0.3,
        });
        fab.apply_fault(&FaultAction::EcnMute { spine: SpineId(2) });
        let f = fab.spine_failure(SpineId(2));
        assert_eq!(f.random_drop, 0.05, "merge keeps the drop window");
        assert!(f.flow_blackhole.is_some());
        assert!(f.ecn_mute);
        // Unmuting leaves the other overlapping failures in place.
        fab.apply_fault(&FaultAction::EcnUnmute { spine: SpineId(2) });
        let f = fab.spine_failure(SpineId(2));
        assert!(!f.ecn_mute);
        assert_eq!(f.random_drop, 0.05);
        assert!(f.flow_blackhole.is_some());
        // ClearSpineFailure still wipes everything at once.
        fab.apply_fault(&FaultAction::ClearSpineFailure { spine: SpineId(2) });
        assert!(!fab.spine_failure(SpineId(2)).is_failed());
    }

    #[test]
    fn ecn_mute_disables_marking_on_the_spines_ports_only() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let marking = |fab: &Fabric, node: NodeId, idx: usize| {
            let port = fab.ports.get(node, idx).expect("testbed is full mesh");
            port.marking
        };
        fab.apply_fault(&FaultAction::EcnMute { spine: SpineId(1) });
        for l in 0..fab.topo.n_leaves {
            assert!(
                !marking(&fab, NodeId::Spine(SpineId(1)), l),
                "muted spine's downlink {l} must stop marking"
            );
            assert!(
                marking(&fab, NodeId::Spine(SpineId(0)), l),
                "other spines keep marking"
            );
        }
        // Every other port — leaf ports included — is untouched: the
        // mute is local to the broken switch.
        let muted = fab.ports.iter().filter(|p| !p.marking).count();
        assert_eq!(muted, fab.topo.n_leaves);
        fab.apply_fault(&FaultAction::EcnUnmute { spine: SpineId(1) });
        assert!(fab.ports.iter().all(|p| p.marking));
    }

    /// Three back-to-back inter-rack packets pipeline one serialization
    /// apart, and every port boundary is its own queued `TxDone`: three
    /// packets × four hops (host NIC, leaf uplink, spine downlink, leaf
    /// downlink). On `sim_baseline` a 1.2 µs serialization is shorter
    /// than the 5 µs host link, so the NIC's boundaries all precede the
    /// first packet's arrival at the leaf.
    #[test]
    fn serialization_orders_back_to_back_packets() {
        let cases = [
            // 1500 B at 1 Gb/s is 12 µs; 3 µs on every link.
            (
                Topology::testbed(),
                Time::from_us(4 * 12 + 4 * 3),
                Time::from_us(12),
            ),
            // 1500 B at 10 Gb/s is 1.2 µs; 5 µs host and 10 µs fabric links.
            (
                Topology::sim_baseline(),
                Time::from_ns(4 * 1_200 + 2 * 5_000 + 2 * 10_000),
                Time::from_ns(1_200),
            ),
        ];
        for (topo, base, tx) in cases {
            // The first host of the second rack.
            let dst = HostId(topo.hosts_per_leaf as u32);
            let mut fab = Fabric::new(topo, SimRng::new(0));
            let mut q = EventQueue::new();
            for i in 0..3 {
                let mut p = Packet::data(FlowId(1), HostId(0), dst, i * 1460, 1460, false);
                p.path = PathId(0);
                fab.host_send(&mut q, p);
            }
            let (mut got, mut tx_dones) = (Vec::new(), 0);
            while let Some((t, ev)) = q.pop() {
                tx_dones += u32::from(matches!(ev, Event::TxDone { .. }));
                got.extend(step(&mut fab, &mut q, ev).map(|(_, p)| (t, p.kind)));
            }
            assert_eq!(tx_dones, 3 * 4, "one popped TxDone per packet per port");
            // Pipelined: one extra serialization per additional packet,
            // delivered in order on a single path.
            let data = |seq| PacketKind::Data {
                seq,
                len: 1460,
                retx: false,
            };
            let want: Vec<_> = (0..3).map(|i| (base + tx * i, data(i * 1460))).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn ecn_marked_under_persistent_queue() {
        // Saturate one uplink: many packets into a 1G leaf port whose
        // threshold is 30 KB → later packets get marked.
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        for i in 0..60 {
            let mut p = Packet::data(FlowId(1), HostId(0), HostId(6), i * 1460, 1460, false);
            p.path = PathId(0);
            fab.host_send(&mut q, p);
        }
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 60);
        // Host NIC and leaf uplink have equal rates, so queue builds at
        // the host NIC (unmarked) — but the burst arrives paced at the
        // leaf. To see marking we need convergence: two hosts into one
        // uplink.
        let marked = out.iter().filter(|(_, _, p)| p.ecn_marked).count();
        let _ = marked; // may be zero here; real check below.

        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        for h in [0u32, 1] {
            for i in 0..40 {
                let mut p = Packet::data(
                    FlowId(h as u64),
                    HostId(h),
                    HostId(6),
                    i * 1460,
                    1460,
                    false,
                );
                p.path = PathId(0);
                fab.host_send(&mut q, p);
            }
        }
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 80);
        assert!(
            out.iter().any(|(_, _, p)| p.ecn_marked),
            "2:1 convergence on a 30KB-threshold port must mark"
        );
        assert!(fab.total_ecn_marks() > 0);
    }

    /// `f` summed per tier — `[hosts, leaves, spines]` — by addressing
    /// every `(node, idx)` the topology defines.
    fn per_tier(fab: &Fabric, f: impl Fn(&Port) -> u64) -> [u64; 3] {
        let t = &fab.topo;
        let leaf_width = fab.ports.up_idx(SpineId(t.n_spines as u16));
        let tier = |nodes: Vec<NodeId>, width: usize| -> u64 {
            let ports = nodes
                .iter()
                .flat_map(|&n| (0..width).filter_map(move |i| fab.ports.get(n, i)));
            ports.map(&f).sum()
        };
        let hosts = (0..t.n_hosts()).map(|h| NodeId::Host(HostId(h as u32)));
        let leaves = (0..t.n_leaves).map(|l| NodeId::Leaf(LeafId(l as u16)));
        let spines = (0..t.n_spines).map(|s| NodeId::Spine(SpineId(s as u16)));
        [
            tier(hosts.collect(), 1),
            tier(leaves.collect(), leaf_width),
            tier(spines.collect(), t.n_leaves),
        ]
    }

    /// The totals walk `PortTable::iter`; on a run that marks,
    /// tail-drops and holds packets they equal the tier-by-tier sums.
    #[test]
    fn port_totals_equal_the_per_tier_sums_under_congestion() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        // 3:1 convergence onto one uplink, enough to overflow its 200 KB.
        for h in 0..3u32 {
            for i in 0..120 {
                let mut p = Packet::data(
                    FlowId(u64::from(h)),
                    HostId(h),
                    HostId(6),
                    i * 1460,
                    1460,
                    false,
                );
                p.path = PathId(0);
                fab.host_send(&mut q, p);
            }
        }
        let mut max_held = 0;
        while let Some((_, ev)) = q.pop() {
            step(&mut fab, &mut q, ev);
            let held = per_tier(&fab, |p| p.queued_pkts() as u64 + u64::from(p.busy()));
            assert_eq!(fab.held_packets(), held.iter().sum::<u64>());
            max_held = max_held.max(fab.held_packets());
        }
        assert!(max_held > 100, "the run must queue: peak {max_held}");
        let [host_marks, leaf_marks, spine_marks] = per_tier(&fab, |p| p.stats.ecn_marks);
        assert_eq!(host_marks, 0, "host NICs never mark");
        assert_eq!(fab.total_ecn_marks(), leaf_marks + spine_marks);
        assert!(leaf_marks > 0);
        let drops = per_tier(&fab, |p| p.stats.drops_full);
        assert_eq!(fab.total_drops_full(), drops.iter().sum::<u64>());
        assert!(drops[1] > 0, "the uplink must tail-drop: {drops:?}");
        assert!(fab.conservation_report().balanced());
    }

    #[test]
    fn downed_link_destroys_uplink_packets_and_conserves() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        fab.apply_fault(&FaultAction::LinkDown {
            leaf: LeafId(0),
            spine: SpineId(0),
        });
        assert!(fab.link_is_down(LeafId(0), SpineId(0)));
        send_data(&mut fab, &mut q, 0, 6, PathId(0)); // dead uplink
        send_data(&mut fab, &mut q, 0, 7, PathId(1)); // healthy path
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].2.path, PathId(1));
        assert_eq!(fab.stats.drops_failure, 1);
        let rep = fab.conservation_report();
        assert!(rep.balanced(), "link-down drops must be accounted: {rep:?}");
    }

    #[test]
    fn downed_link_destroys_downlink_packets_too() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        // Down the link on the *destination* side: leaf 1 ↔ spine 0.
        fab.apply_fault(&FaultAction::LinkDown {
            leaf: LeafId(1),
            spine: SpineId(0),
        });
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        let out = run_to_completion(&mut fab, &mut q);
        assert!(out.is_empty(), "packet must die at the spine downlink");
        assert_eq!(fab.stats.drops_failure, 1);
        // LinkUp restores delivery.
        fab.apply_fault(&FaultAction::LinkUp {
            leaf: LeafId(1),
            spine: SpineId(0),
        });
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn spine_outage_downs_every_link_and_recovers() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        fab.apply_fault(&FaultAction::SpineDown { spine: SpineId(2) });
        let n_leaves = fab.topology().n_leaves;
        for l in 0..n_leaves {
            assert!(fab.link_is_down(LeafId(l as u16), SpineId(2)));
            assert!(!fab.link_is_down(LeafId(l as u16), SpineId(0)));
        }
        fab.apply_fault(&FaultAction::SpineUp { spine: SpineId(2) });
        for l in 0..n_leaves {
            assert!(!fab.link_is_down(LeafId(l as u16), SpineId(2)));
        }
    }

    #[test]
    fn link_rate_degrade_slows_delivery_and_restores_exactly() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let orig = fab.link_rate_bps(LeafId(0), SpineId(0)).unwrap();
        // Degrade to a tenth: serialization on that hop is 10× slower.
        fab.apply_fault(&FaultAction::SetLinkRate {
            leaf: LeafId(0),
            spine: SpineId(0),
            rate_bps: orig / 10,
        });
        assert_eq!(fab.link_rate_bps(LeafId(0), SpineId(0)), Some(orig / 10));
        let mut q = EventQueue::new();
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        let out = run_to_completion(&mut fab, &mut q);
        assert_eq!(out.len(), 1);
        // Healthy fabric delivers at 4×12us + 4×3us (see test above);
        // one 10×-slower hop adds 9 extra serializations of 12us.
        assert_eq!(out[0].0, Time::from_us(4 * 12 + 4 * 3 + 9 * 12));
        fab.apply_fault(&FaultAction::RestoreLinkRate {
            leaf: LeafId(0),
            spine: SpineId(0),
        });
        assert_eq!(fab.link_rate_bps(LeafId(0), SpineId(0)), Some(orig));
    }

    #[test]
    fn fault_window_restores_healthy_spine_exactly() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        fab.apply_fault(&FaultAction::SetSpineFailure {
            spine: SpineId(1),
            failure: SpineFailure::random_drops(0.3),
        });
        assert!(fab.spine_failure(SpineId(1)).is_failed());
        fab.apply_fault(&FaultAction::ClearSpineFailure { spine: SpineId(1) });
        let f = fab.spine_failure(SpineId(1));
        assert!(!f.is_failed());
        assert_eq!(f.random_drop, 0.0);
        assert!(f.blackhole.is_none());
    }

    #[test]
    #[should_panic]
    fn flapping_a_cut_link_is_rejected() {
        let mut topo = Topology::testbed();
        topo.cut_link(LeafId(0), SpineId(1));
        let mut fab = Fabric::new(topo, SimRng::new(0));
        fab.set_link_down(LeafId(0), SpineId(1), true);
    }

    #[test]
    fn qbytes_introspection() {
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        assert_eq!(fab.leaf_up_qbytes(LeafId(0), SpineId(0)), 0);
        for h in [0u32, 1, 2] {
            for i in 0..20 {
                let mut p = Packet::data(
                    FlowId(h as u64),
                    HostId(h),
                    HostId(6),
                    i * 1460,
                    1460,
                    false,
                );
                p.path = PathId(0);
                fab.host_send(&mut q, p);
            }
        }
        // Step events until the leaf uplink has queue.
        let mut saw_queue = false;
        while let Some((_, ev)) = q.pop() {
            step(&mut fab, &mut q, ev);
            if fab.leaf_up_qbytes(LeafId(0), SpineId(0)) > 0 {
                saw_queue = true;
            }
        }
        assert!(saw_queue, "3:1 convergence must build uplink queue");
    }

    #[test]
    fn telemetry_drop_records_carry_reason_and_identity() {
        use hermes_telemetry::{DropReason, Record};
        hermes_telemetry::install(hermes_telemetry::SinkConfig::default());

        // Blackhole at spine 0 for the (leaf0, leaf1) pair.
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(7));
        fab.set_spine_failure(
            SpineId(0),
            SpineFailure::blackhole(LeafId(0), LeafId(1), 1.0),
        );
        let mut q = EventQueue::new();
        send_data(&mut fab, &mut q, 0, 6, PathId(0));
        let out = run_to_completion(&mut fab, &mut q);
        assert!(out.is_empty());
        let evs = hermes_telemetry::drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(
            evs[0].record,
            Record::Drop {
                flow: 1,
                path: 0,
                reason: DropReason::Blackhole,
            }
        );
        // The record fires at the spine arrival, not injection time, and
        // before the box is recycled (identity not poisoned).
        assert!(evs[0].at > Time::ZERO);

        // Downed uplink → LinkDown reason with the same identity.
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(7));
        fab.set_link_down(LeafId(0), SpineId(2), true);
        let mut q = EventQueue::new();
        send_data(&mut fab, &mut q, 0, 6, PathId(2));
        run_to_completion(&mut fab, &mut q);
        let evs = hermes_telemetry::drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(
            evs[0].record,
            Record::Drop {
                flow: 1,
                path: 2,
                reason: DropReason::LinkDown,
            }
        );
        hermes_telemetry::uninstall();
    }

    #[test]
    fn telemetry_ecn_marks_surface_with_queue_depth() {
        use hermes_telemetry::Record;
        hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
        // 2:1 convergence onto one 30KB-threshold uplink (same setup as
        // ecn_marked_under_persistent_queue).
        let mut fab = Fabric::new(Topology::testbed(), SimRng::new(0));
        let mut q = EventQueue::new();
        for h in [0u32, 1] {
            for i in 0..40 {
                let mut p = Packet::data(
                    FlowId(h as u64),
                    HostId(h),
                    HostId(6),
                    i * 1460,
                    1460,
                    false,
                );
                p.path = PathId(0);
                fab.host_send(&mut q, p);
            }
        }
        run_to_completion(&mut fab, &mut q);
        let marks: Vec<_> = hermes_telemetry::drain()
            .into_iter()
            .filter_map(|ev| match ev.record {
                Record::EcnMark {
                    leaf,
                    spine,
                    qbytes,
                    flow,
                } => Some((leaf, spine, qbytes, flow)),
                _ => None,
            })
            .collect();
        assert_eq!(
            marks.len() as u64,
            fab.total_ecn_marks(),
            "one record per counted mark"
        );
        assert!(!marks.is_empty());
        for (leaf, spine, qbytes, flow) in marks {
            assert_eq!((leaf, spine), (0, 0));
            assert!(flow == 0 || flow == 1);
            // Marking requires the data queue above K = 30 KB.
            assert!(qbytes > 30_000, "mark-time queue {qbytes} must exceed K");
        }
        hermes_telemetry::uninstall();
    }
}
