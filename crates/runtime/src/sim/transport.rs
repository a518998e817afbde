//! Transport dispatch: one DCTCP sender/receiver pair per flow, their
//! actions and timers, packet delivery, and the edge LBs, which every
//! per-flow signal reaches through one seam, [`EdgeLbs::for_flow`].

use hermes_core::Hermes;
use hermes_lb::{CloveEcn, Conga, Drill, Ecmp, FlowBender, LetFlow, PrestoSpray, RoundRobinSpray};
use hermes_net::{
    AckInfo, Dre, EdgeLb, Fabric, FlowCtx, FlowId, HostId, LeafId, Packet, PacketKind, PathId,
    Topology,
};
use hermes_sim::Time;
use hermes_transport::{Receiver, RecvAction, SegmentIn, SendAction, Sender};
use hermes_workload::{FlowRecord, FlowSpec};

use super::probe::Prober;
use super::token::Token;
use super::{Simulation, UDP_FLOW_BASE};
use crate::config::{presto_weights_for, Scheme};
use crate::timer::{LazyTimer, Popped, GEN_MASK};

/// One TCP flow in flight.
pub(super) struct FlowRt {
    id: FlowId,
    src: HostId,
    dst: HostId,
    src_leaf: LeafId,
    dst_leaf: LeafId,
    sender: Sender,
    pub(super) receiver: Receiver,
    current_path: PathId,
    ack_path: PathId,
    /// Path to blame for retransmissions of the current loss episode
    /// (set at RTO time, cleared once new data flows again).
    blame_path: PathId,
    /// When the flow last switched paths (reorder-grace bookkeeping).
    last_path_change: Time,
    timed_out: bool,
    bytes_routed: u64,
    pkts_routed: u64,
    /// The sender's RTO: at most one event queued (see [`LazyTimer`]).
    rto: LazyTimer,
    hold_gen: u64,
    rate: Dre,
    rec_idx: usize,
    sender_done: bool,
}

/// The edge LBs of a run, in the one shape its [`Scheme`] implies.
pub(super) enum EdgeLbs {
    /// No edge LB: the fabric LB decides at the source leaf.
    SwitchBased,
    /// One instance per host, indexed by host id.
    PerHost(Vec<Box<dyn EdgeLb>>),
    /// One Hermes per rack, indexed by leaf id, and their probe state
    /// when they probe.
    PerRack {
        racks: Vec<Hermes>,
        prober: Option<Prober>,
    },
}

impl EdgeLbs {
    /// The edge LBs `scheme` runs on `topo`; a switch-based scheme
    /// installs its LB in `fabric` instead.
    pub(super) fn new(scheme: &Scheme, topo: &Topology, fabric: &mut Fabric) -> EdgeLbs {
        let per_host = |make: &dyn Fn(HostId) -> Box<dyn EdgeLb>| {
            EdgeLbs::PerHost(
                (0..topo.n_hosts())
                    .map(|h| make(HostId(h as u32)))
                    .collect(),
            )
        };
        match scheme {
            Scheme::Ecmp => per_host(&|_| Box::new(Ecmp::new())),
            Scheme::Drb => per_host(&|_| Box::new(RoundRobinSpray::new())),
            Scheme::Presto { weighted } => per_host(&|h| {
                Box::new(if *weighted {
                    PrestoSpray::weighted(presto_weights_for(topo, topo.host_leaf(h)))
                } else {
                    PrestoSpray::equal()
                })
            }),
            Scheme::FlowBender(fb) => per_host(&|_| Box::new(FlowBender::new(*fb))),
            Scheme::Clove(cl) => per_host(&|_| Box::new(CloveEcn::new(*cl))),
            Scheme::Hermes(params) => EdgeLbs::PerRack {
                racks: (0..topo.n_leaves)
                    .map(|l| Hermes::new(topo, LeafId(l as u16), *params))
                    .collect(),
                prober: Prober::new(params, topo),
            },
            Scheme::LetFlow { flowlet_timeout } => {
                fabric.set_fabric_lb(Box::new(LetFlow::new(*flowlet_timeout)));
                EdgeLbs::SwitchBased
            }
            Scheme::Drill { samples } => {
                fabric.set_fabric_lb(Box::new(Drill::new(*samples)));
                EdgeLbs::SwitchBased
            }
            Scheme::Conga(cc) => {
                fabric.set_fabric_lb(Box::new(Conga::new(topo, *cc)));
                EdgeLbs::SwitchBased
            }
        }
    }

    /// The racks and their probe state, when the rack agents probe.
    pub(super) fn probing(&mut self) -> Option<(&mut [Hermes], &mut Prober)> {
        match self {
            EdgeLbs::PerRack {
                racks,
                prober: Some(p),
            } => Some((racks, p)),
            _ => None,
        }
    }

    /// The one per-flow LB seam: the edge LB serving `f`'s sender and a
    /// fresh snapshot of the flow, or `None` for an intra-rack flow or
    /// a switch-based scheme. Building the snapshot decays the flow's
    /// rate estimator in `f64`, so it happens here and only here, and
    /// only when a hook will read it.
    pub(super) fn for_flow(
        &mut self,
        f: &mut FlowRt,
        now: Time,
    ) -> Option<(&mut dyn EdgeLb, FlowCtx)> {
        if f.src_leaf == f.dst_leaf {
            return None;
        }
        let lb: &mut dyn EdgeLb = match self {
            EdgeLbs::SwitchBased => return None,
            EdgeLbs::PerHost(lbs) => lbs[f.src.0 as usize].as_mut(),
            EdgeLbs::PerRack { racks, .. } => &mut racks[f.src_leaf.0 as usize],
        };
        let ctx = FlowCtx {
            flow: f.id,
            src: f.src,
            dst: f.dst,
            src_leaf: f.src_leaf,
            dst_leaf: f.dst_leaf,
            bytes_sent: f.bytes_routed,
            rate_bps: f.rate.rate_bps(now),
            current_path: f.current_path,
            is_new: f.pkts_routed == 0,
            timed_out: f.timed_out,
            since_change: if f.last_path_change == Time::ZERO {
                Time::MAX
            } else {
                now.saturating_sub(f.last_path_change)
            },
        };
        Some((lb, ctx))
    }
}

impl Simulation {
    pub(super) fn start_flow(&mut self, spec: FlowSpec) {
        let now = self.q.now();
        let topo = self.fabric.topology();
        let src_leaf = topo.host_leaf(spec.src);
        let dst_leaf = topo.host_leaf(spec.dst);
        let rec_idx = self.records.len();
        self.records.push(FlowRecord {
            id: spec.id,
            src: spec.src,
            dst: spec.dst,
            size: spec.size,
            start: now,
            finish: None,
        });
        self.visibility
            .flow_started(spec.id, spec.src, spec.dst, src_leaf, dst_leaf, now);
        let ack_path = if src_leaf != dst_leaf {
            let rev = self.fabric.candidates(dst_leaf, src_leaf);
            if rev.is_empty() {
                PathId::UNSET
            } else {
                rev[(spec.id.0 % rev.len() as u64) as usize]
            }
        } else {
            PathId::DIRECT
        };
        let hold = self.cfg.effective_reorder_hold();
        let mut f = FlowRt {
            id: spec.id,
            src: spec.src,
            dst: spec.dst,
            src_leaf,
            dst_leaf,
            sender: Sender::new(self.cfg.transport, spec.size),
            receiver: Receiver::new(spec.size, hold, self.cfg.transport.dupack_thresh),
            current_path: PathId::UNSET,
            ack_path,
            blame_path: PathId::UNSET,
            last_path_change: Time::ZERO,
            timed_out: false,
            bytes_routed: 0,
            pkts_routed: 0,
            rto: LazyTimer::new(),
            hold_gen: 0,
            rate: Dre::default_horizon(),
            rec_idx,
            sender_done: false,
        };
        self.stats.flows_started += 1;
        if hermes_telemetry::enabled() {
            // Label the sender so its cwnd/α/RTO snapshots carry the
            // flow id.
            f.sender.set_label(spec.id.0);
            hermes_telemetry::emit_with(now, || hermes_telemetry::Record::FlowStarted {
                flow: spec.id.0,
                src: spec.src.0,
                dst: spec.dst.0,
                size: spec.size,
            });
        }
        let mut buf = std::mem::take(&mut self.send_scratch);
        f.sender.start(now, &mut buf);
        self.flows.insert(spec.id.0, f);
        self.process_send_actions(spec.id.0, buf);
    }

    fn process_send_actions(&mut self, fid: u64, mut actions: Vec<SendAction>) {
        let now = self.q.now();
        for a in actions.drain(..) {
            match a {
                SendAction::Tx { seq, len, retx } => {
                    let Some(f) = self.flows.get_mut(&fid) else {
                        continue;
                    };
                    // The path the flow was on when the loss (if any)
                    // happened — retransmissions are evidence against
                    // *that* path, not whatever path the flow evacuates
                    // to (otherwise one blackhole would poison every
                    // path the flow flees across).
                    let loss_path = f.current_path;
                    let path = match self.edge.for_flow(f, now) {
                        Some((lb, ctx)) => {
                            let cands = self.fabric.candidates(f.src_leaf, f.dst_leaf);
                            debug_assert!(!cands.is_empty(), "disconnected racks");
                            lb.select_path(&ctx, cands, now, &mut self.rng_lb)
                        }
                        None if f.src_leaf == f.dst_leaf => PathId::DIRECT,
                        None => PathId::UNSET, // switch-based scheme decides at the leaf
                    };
                    f.timed_out = false;
                    if path != loss_path && loss_path.is_spine() && path.is_spine() {
                        f.last_path_change = now;
                        self.stats.path_changes += 1;
                        if hermes_telemetry::enabled() {
                            let flow = fid;
                            hermes_telemetry::emit_with(now, || {
                                hermes_telemetry::Record::PathChange {
                                    flow,
                                    from_path: loss_path.telemetry_code(),
                                    to_path: path.telemetry_code(),
                                }
                            });
                        }
                    }
                    f.current_path = path;
                    f.bytes_routed += len as u64;
                    f.pkts_routed += 1;
                    f.rate.add(len as u64, now);
                    if !retx {
                        // New data: the loss episode (if any) is over.
                        f.blame_path = PathId::UNSET;
                    }
                    if let Some((lb, ctx)) = self.edge.for_flow(f, now) {
                        if retx {
                            // Blame order: an RTO episode blames the path
                            // it timed out on; a fast retransmit shortly
                            // after a path change is almost surely
                            // *reordering*, not loss, and is not
                            // reported; anything else blames the
                            // pre-selection path.
                            let blame = if f.blame_path.is_spine() {
                                Some(f.blame_path)
                            } else if now.saturating_sub(f.last_path_change) <= self.reorder_grace {
                                None
                            } else if loss_path.is_spine() {
                                Some(loss_path)
                            } else {
                                Some(path)
                            };
                            if let Some(b) = blame {
                                lb.on_retransmit(&ctx, b, now);
                            }
                        }
                        lb.on_data_sent(&ctx, path, len as u64, now);
                    }
                    let mut pkt = Packet::data(f.id, f.src, f.dst, seq, len, retx);
                    pkt.path = path;
                    pkt.ecn_capable = self.cfg.transport.ecn;
                    self.fabric.host_send(&mut self.q, pkt);
                }
                SendAction::ArmRto { deadline } => {
                    if let Some(f) = self.flows.get_mut(&fid) {
                        if let Some((at, gen)) = f.rto.arm(deadline, now) {
                            let token = Token::Rto { flow: fid, gen };
                            self.q.schedule(at, token.at_host(f.src));
                        }
                    }
                }
                SendAction::DisarmRto => {
                    if let Some(f) = self.flows.get_mut(&fid) {
                        f.rto.disarm();
                    }
                }
                SendAction::FullyAcked => {
                    if let Some(f) = self.flows.get_mut(&fid) {
                        f.sender_done = true;
                        self.stats.ooo_packets += f.receiver.ooo_packets();
                        if let Some((lb, ctx)) = self.edge.for_flow(f, now) {
                            lb.on_flow_finished(&ctx, now);
                        }
                    }
                    // Retire the flow: its record stays, trailing events
                    // (stale timers, duplicate ACKs) are ignored.
                    self.flows.remove(&fid);
                }
            }
        }
        self.send_scratch = actions;
    }

    fn process_recv_actions(&mut self, fid: u64, mut actions: Vec<RecvAction>) {
        let now = self.q.now();
        let mut completed = false;
        for a in actions.drain(..) {
            match a {
                RecvAction::SendAck {
                    ack,
                    ecn_echo,
                    echo_ts,
                    echo_path,
                    echo_retx,
                } => {
                    let Some(f) = self.flows.get(&fid) else {
                        continue;
                    };
                    let info = AckInfo {
                        ack,
                        ecn_echo,
                        echo_ts,
                        echo_path,
                        echo_retx,
                    };
                    let mut pkt = Packet::ack(f.id, f.dst, f.src, info);
                    pkt.path = f.ack_path;
                    self.fabric.host_send(&mut self.q, pkt);
                }
                RecvAction::ArmHold { deadline } => {
                    if let Some(f) = self.flows.get_mut(&fid) {
                        f.hold_gen += 1;
                        let token = Token::Hold {
                            flow: fid,
                            gen: f.hold_gen,
                        };
                        self.q.schedule(deadline.max(now), token.at_host(f.dst));
                    }
                }
                RecvAction::DisarmHold => {
                    if let Some(f) = self.flows.get_mut(&fid) {
                        f.hold_gen += 1;
                    }
                }
                RecvAction::Complete => {
                    completed = true;
                    if let Some(f) = self.flows.get(&fid) {
                        self.records[f.rec_idx].finish = Some(now);
                        if hermes_telemetry::enabled() {
                            let fct = now.saturating_sub(self.records[f.rec_idx].start);
                            let fct_ns = fct.as_ns();
                            hermes_telemetry::emit_with(now, || {
                                hermes_telemetry::Record::FlowCompleted { flow: fid, fct_ns }
                            });
                            hermes_telemetry::hist_observe(
                                "fct_us",
                                hermes_telemetry::FCT_EDGES_US,
                                fct.as_us() as f64,
                            );
                            hermes_telemetry::counter_add("flows_completed", 1);
                        }
                    }
                    self.visibility.flow_finished(FlowId(fid), now);
                    self.stats.flows_completed += 1;
                }
            }
        }
        self.recv_scratch = actions;
        if completed {
            // Feed the completion to the staged-dependency driver (if
            // any) and schedule whatever it releases. The slot is taken
            // for the call so `add_flows` can borrow `self` freely;
            // released flows start at `now`, which `add_flow` accepts.
            if let Some(mut d) = self.driver.take() {
                let mut released = Vec::new();
                d.on_flow_completed(FlowId(fid), now, &mut released);
                self.add_flows(released);
                self.driver = Some(d);
            }
        }
    }

    /// Flow `fid`'s RTO event of generation `gen` popped.
    pub(super) fn on_rto(&mut self, fid: u64, gen: u64) {
        let now = self.q.now();
        let Some(f) = self.flows.get_mut(&fid) else {
            return;
        };
        if f.sender_done {
            return; // stale timer
        }
        match f.rto.pop(gen, now) {
            Popped::Stale => return,
            Popped::Resched(at) => {
                let token = Token::Rto { flow: fid, gen };
                self.q.schedule(at, token.at_host(f.src));
                return;
            }
            Popped::Fire => {}
        }
        f.timed_out = true;
        if f.current_path.is_spine() {
            f.blame_path = f.current_path;
        }
        let path = f.current_path;
        if let Some((lb, ctx)) = self.edge.for_flow(f, now) {
            lb.on_timeout(&ctx, path, now);
        }
        let mut buf = std::mem::take(&mut self.send_scratch);
        f.sender.on_rto(now, &mut buf);
        self.process_send_actions(fid, buf);
    }

    /// Flow `fid`'s reorder-hold event of generation `gen` popped.
    pub(super) fn on_hold(&mut self, fid: u64, gen: u64) {
        let Some(f) = self.flows.get_mut(&fid) else {
            return;
        };
        if (f.hold_gen & GEN_MASK) != gen {
            return;
        }
        let mut buf = std::mem::take(&mut self.recv_scratch);
        f.receiver.on_hold_timer(self.q.now(), &mut buf);
        self.process_recv_actions(fid, buf);
    }

    pub(super) fn deliver(&mut self, host: HostId, pkt: &Packet) {
        let now = self.q.now();
        match pkt.kind {
            PacketKind::Data { seq, len, retx } => {
                let Some(f) = self.flows.get_mut(&pkt.flow.0) else {
                    return; // flow already fully retired
                };
                debug_assert_eq!(f.dst, host);
                let before = f.receiver.rcv_nxt();
                let mut buf = std::mem::take(&mut self.recv_scratch);
                f.receiver.on_data(
                    SegmentIn {
                        seq,
                        len,
                        ecn: pkt.ecn_marked,
                        sent_at: pkt.sent_at,
                        path: pkt.path,
                        retx,
                    },
                    now,
                    &mut buf,
                );
                // Goodput = in-order delivery progress: duplicates and
                // out-of-order arrivals advance nothing.
                self.goodput_bytes += f.receiver.rcv_nxt().saturating_sub(before);
                self.process_recv_actions(pkt.flow.0, buf);
            }
            PacketKind::Ack {
                ack,
                ecn_echo,
                echo_ts,
                echo_path,
                echo_retx,
            } => {
                let Some(f) = self.flows.get_mut(&pkt.flow.0) else {
                    return;
                };
                debug_assert_eq!(f.src, host);
                let rtt = if echo_retx || echo_ts == Time::MAX {
                    None
                } else {
                    Some(now.saturating_sub(echo_ts))
                };
                let delta = ack.saturating_sub(f.sender.snd_una());
                if let Some((lb, ctx)) = self.edge.for_flow(f, now) {
                    lb.on_ack(&ctx, echo_path, rtt, ecn_echo, delta, now);
                }
                let mut buf = std::mem::take(&mut self.send_scratch);
                f.sender.on_ack(ack, ecn_echo, rtt, now, &mut buf);
                self.process_send_actions(pkt.flow.0, buf);
            }
            PacketKind::ProbeReq => {
                // Reflect immediately on the same path, high priority.
                let resp = Packet::probe_resp(pkt);
                self.fabric.host_send(&mut self.q, resp);
            }
            PacketKind::ProbeResp { req_ecn, echo_ts } => {
                self.stats.probe_responses += 1;
                // Only probing racks send probes, so only they hear back.
                if let Some((racks, p)) = self.edge.probing() {
                    p.on_response(racks, self.fabric.topology(), pkt, req_ecn, echo_ts, now);
                }
            }
            PacketKind::Udp => {
                let idx = (pkt.flow.0 - UDP_FLOW_BASE) as usize;
                if let Some(u) = self.udps.get_mut(idx) {
                    u.received += (pkt.size - hermes_net::HDR) as u64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
