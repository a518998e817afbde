//! Active probing by the rack agents (paper §3.1.1). A [`Prober`]
//! lives only beside a probing rack set, in `EdgeLbs::PerRack`; it owns
//! the probe tick and the handling of probe responses.

use std::collections::BTreeMap;

use hermes_core::HermesParams;
use hermes_net::{EdgeLb, Event, Fabric, FlowId, LeafId, Packet, PathId, Topology};
use hermes_sim::{EventQueue, SimRng, Time};

use super::token::Token;
use super::SimStats;

/// Flow ids at or above this are probe pseudo-flows.
pub(super) const PROBE_FLOW_BASE: u64 = 1 << 60;

/// Probe state of a run whose rack agents probe.
pub(super) struct Prober {
    /// Time between ticks; the first is one interval after the start.
    pub(super) interval: Time,
    /// A probe unanswered for this long counts as lost.
    timeout: Time,
    /// Probes sent so far: the next one is flow `PROBE_FLOW_BASE + seq`.
    seq: u64,
    /// Probes awaiting a response by pseudo-flow id (ordered, so the
    /// expiry sweep is deterministic): `(sending rack, dst leaf, path,
    /// sent at)`.
    outstanding: BTreeMap<u64, (usize, LeafId, PathId, Time)>,
}

impl Prober {
    /// The probe state of racks running `params`; `None` if they do not
    /// probe.
    pub(super) fn new(params: &HermesParams, topo: &Topology) -> Option<Prober> {
        (params.enable_probing && params.probe_interval < Time::MAX).then(|| Prober {
            interval: params.probe_interval,
            // Several round trips: generous against queueing, far below
            // the failure quiet period.
            timeout: topo.base_rtt() * 8,
            seq: 0,
            outstanding: BTreeMap::new(),
        })
    }

    /// One probe tick, then the next one's schedule. Unanswered probes
    /// expire first, in ascending id order, each reported to the rack
    /// that sent it as negative evidence for the path (so loss detection
    /// is one interval coarse). Then every rack, by leaf id, sends its
    /// plan from its agent host.
    pub(super) fn tick<R: EdgeLb>(
        &mut self,
        racks: &mut [R],
        fabric: &mut Fabric,
        q: &mut EventQueue<Event>,
        rng: &mut SimRng,
        stats: &mut SimStats,
    ) {
        let now = q.now();
        let cutoff = now.saturating_sub(self.timeout);
        self.outstanding
            .retain(|_, &mut (rack, dst_leaf, path, sent)| {
                if sent <= cutoff {
                    stats.probe_timeouts += 1;
                    racks[rack].on_probe_timeout(dst_leaf, path, now);
                }
                sent > cutoff
            });
        for (l, rack) in racks.iter_mut().enumerate() {
            let agent = fabric.topology().leaf_agent(LeafId(l as u16));
            for t in rack.probe_plan(now, rng) {
                let dst_agent = fabric.topology().leaf_agent(t.dst_leaf);
                let flow = FlowId(PROBE_FLOW_BASE + self.seq);
                self.seq += 1;
                let pkt = Packet::probe_req(flow, agent, dst_agent, t.path);
                stats.probes_sent += 1;
                self.outstanding
                    .insert(flow.0, (l, t.dst_leaf, t.path, now));
                fabric.host_send(q, pkt);
            }
        }
        q.schedule_in(self.interval, Token::ProbeTick.global());
    }

    /// A probe response `pkt` reached the agent that sent the probe: the
    /// round trip and the request's CE mark go to the agent's rack.
    pub(super) fn on_response<R: EdgeLb>(
        &mut self,
        racks: &mut [R],
        topo: &Topology,
        pkt: &Packet,
        req_ecn: bool,
        echo_ts: Time,
        now: Time,
    ) {
        self.outstanding.remove(&pkt.flow.0);
        let rtt = now.saturating_sub(echo_ts);
        let rack = &mut racks[usize::from(topo.host_leaf(pkt.dst).0)];
        rack.on_probe_result(topo.host_leaf(pkt.src), pkt.path, rtt, req_ecn, now);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "racks must be Send, so the shared test log is an Arc<Mutex>"
)]
mod tests {
    use std::sync::{Arc, Mutex};

    use hermes_net::{FlowCtx, ProbeTarget};

    use super::*;

    /// A rack that logs its probe hooks into a log shared by all racks,
    /// and plans one probe per tick.
    struct LoggingRack {
        leaf: u16,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl EdgeLb for LoggingRack {
        fn select_path(&mut self, _: &FlowCtx, c: &[PathId], _: Time, _: &mut SimRng) -> PathId {
            c[0]
        }
        fn probe_plan(&mut self, _: Time, _: &mut SimRng) -> Vec<ProbeTarget> {
            self.log.lock().unwrap().push(format!("plan {}", self.leaf));
            vec![ProbeTarget {
                dst_leaf: LeafId(1 - self.leaf),
                path: PathId(2),
            }]
        }
        fn on_probe_timeout(&mut self, dst_leaf: LeafId, path: PathId, _: Time) {
            let entry = format!("timeout {} {}->{}", self.leaf, dst_leaf.0, path.0);
            self.log.lock().unwrap().push(entry);
        }
    }

    #[test]
    fn the_sweep_expires_in_id_order_before_any_rack_sends() {
        let topo = Topology::testbed();
        let mut fabric = Fabric::new(topo.clone(), SimRng::new(1));
        let mut q: EventQueue<Event> = EventQueue::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut racks: Vec<LoggingRack> = (0..2)
            .map(|leaf| LoggingRack {
                leaf,
                log: Arc::clone(&log),
            })
            .collect();
        let params = HermesParams::from_topology(&topo);
        let mut p = Prober::new(&params, &topo).expect("Hermes probes by default");
        p.seq = 7;
        p.timeout = Time::from_us(500);
        // Inserted out of id order; the probe sent at 1 ms survives.
        let sent =
            |rack, dst: u16, path: u16, ms| (rack, LeafId(dst), PathId(path), Time::from_ms(ms));
        p.outstanding.insert(PROBE_FLOW_BASE + 5, sent(1, 0, 3, 0));
        p.outstanding.insert(PROBE_FLOW_BASE + 2, sent(0, 1, 1, 0));
        p.outstanding.insert(PROBE_FLOW_BASE + 6, sent(0, 1, 2, 1));
        p.outstanding.insert(PROBE_FLOW_BASE + 4, sent(1, 0, 0, 0));
        q.schedule(Time::from_ms(1), Token::Arrival.global());
        q.pop();
        let mut stats = SimStats::default();
        p.tick(
            &mut racks,
            &mut fabric,
            &mut q,
            &mut SimRng::new(2),
            &mut stats,
        );
        assert_eq!(
            *log.lock().unwrap(),
            [
                "timeout 0 1->1",
                "timeout 1 0->0",
                "timeout 1 0->3",
                "plan 0",
                "plan 1"
            ]
        );
        assert_eq!((stats.probe_timeouts, stats.probes_sent), (3, 2));
        // Numbering continues from `seq`; the survivor stays.
        let ids: Vec<u64> = p.outstanding.keys().map(|k| k - PROBE_FLOW_BASE).collect();
        assert_eq!(ids, [6, 7, 8]);
        assert_eq!(p.seq, 9);
    }
}
