//! The full-stack simulation: fabric + transports + load balancer +
//! workload, driven off one deterministic event queue. This file holds
//! the wiring, accessors and run loop; `transport`, `probe` and `token`
//! hold per-flow dispatch, probing and the typed event token.

use std::collections::BTreeMap;

use hermes_core::{Hermes, RackSensing};
use hermes_net::{
    Event, Fabric, FaultEvent, FaultPlan, FlowId, HostId, LeafId, Packet, PathId, SpineFailure,
    SpineId,
};
use hermes_sim::{EventQueue, SimRng, Time};
use hermes_transport::{RecvAction, SendAction};
use hermes_workload::{FlowDriver, FlowRecord, FlowSpec, VisibilityTracker};

use crate::config::SimConfig;

mod probe;
mod token;
mod transport;

use probe::PROBE_FLOW_BASE;
use token::Token;
pub use token::MAX_FLOW_ID;
use transport::{EdgeLbs, FlowRt};

/// Flow table keyed by raw flow id. An ordered map so that any future
/// whole-table iteration is deterministic by construction; point
/// lookups on the hot path are O(log n) over a few thousand live flows,
/// which is noise next to the per-packet event machinery.
type FlowMap = BTreeMap<u64, FlowRt>;

/// Flow ids at or above this (and below probes) are UDP sources.
const UDP_FLOW_BASE: u64 = 1 << 59;

/// What a queue/progress sampler measures.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// Queued bytes on a leaf→spine uplink.
    LeafUpQueue(LeafId, SpineId),
    /// Queued bytes on a spine→leaf downlink.
    SpineDownQueue(SpineId, LeafId),
    /// Payload bytes delivered so far to a flow's receiver (TCP or UDP).
    FlowDelivered(FlowId),
    /// Cumulative in-order TCP payload bytes delivered across *all*
    /// flows — the goodput timeline for degradation metrics.
    TotalGoodput,
}

struct SamplerRt {
    interval: Time,
    probe: Probe,
    series: Vec<(Time, u64)>,
}

struct UdpRt {
    flow: FlowId,
    src: HostId,
    dst: HostId,
    path: Option<PathId>,
    len: u32,
    interval: Time,
    received: u64,
}

/// Aggregate runtime counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    pub events: u64,
    pub flows_started: usize,
    pub flows_completed: usize,
    pub probes_sent: u64,
    pub probe_responses: u64,
    /// Mid-flow path changes across all flows (reroute churn).
    pub path_changes: u64,
    /// Data packets received out of order (reordering pressure),
    /// harvested when flows retire.
    pub ooo_packets: u64,
    /// Probes that got no response within the probe timeout.
    pub probe_timeouts: u64,
}

/// One experiment run.
pub struct Simulation {
    cfg: SimConfig,
    q: EventQueue<Event>,
    fabric: Fabric,
    /// The edge LBs, and with a probing Hermes the probe state.
    edge: EdgeLbs,
    rng_lb: SimRng,
    flows: FlowMap,
    udps: Vec<UdpRt>,
    records: Vec<FlowRecord>,
    pending: std::collections::VecDeque<FlowSpec>,
    /// Staged-dependency workload reacting to completions, if any.
    /// Taken out of the slot while its hook runs (the hook needs the
    /// rest of `self` to schedule released flows).
    driver: Option<Box<dyn FlowDriver>>,
    samplers: Vec<SamplerRt>,
    visibility: VisibilityTracker,
    /// Scheduled fault events, indexed by their `Token::Fault` index.
    faults: Vec<FaultEvent>,
    /// Cumulative in-order payload bytes delivered across all TCP flows.
    goodput_bytes: u64,
    /// Retransmissions within this window after a path change are
    /// treated as reordering, not loss (no failure-detector signal).
    reorder_grace: Time,
    /// Rolling fingerprint of every dispatched event: two same-seed runs
    /// must agree on this at every point, so comparing final digests is a
    /// whole-run determinism check.
    digest: hermes_net::audit::FnvDigest,
    /// Reused buffers for transport actions, so per-ACK/per-timer
    /// dispatch allocates nothing in steady state. Taken at each call
    /// site and returned (cleared) by `process_*_actions`.
    send_scratch: Vec<SendAction>,
    recv_scratch: Vec<RecvAction>,
    pub stats: SimStats,
}

/// A built `Simulation` can move to another thread and run there: the
/// hook traits (`EdgeLb`, `FabricLb`, `FlowDriver`) are `Send`, and an
/// `Rc` (or anything else thread-bound) in any field fails the build here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulation>();
};

impl Simulation {
    pub fn new(cfg: SimConfig) -> Simulation {
        let root = SimRng::new(cfg.seed);
        let topo = cfg.topo.clone();
        let mut fabric = Fabric::new(topo.clone(), root.split(0xFA11));
        let mut rng_lb = root.split(0x1B);
        let mut edge = EdgeLbs::new(&cfg.scheme, &topo, &mut fabric);

        let mut q = EventQueue::new();
        if let Some((_, p)) = edge.probing() {
            q.schedule_in(p.interval, Token::ProbeTick.global());
        }
        // Decorrelate LB randomness from everything else.
        let _ = rng_lb.u64();

        let visibility = VisibilityTracker::with_linger(
            topo.n_leaves,
            topo.hosts_per_leaf,
            topo.n_spines.max(1),
            cfg.visibility_linger,
        );
        let reorder_grace = topo.base_rtt() * 3;
        let mut sim = Simulation {
            cfg,
            q,
            fabric,
            edge,
            rng_lb,
            flows: FlowMap::default(),
            udps: Vec::new(),
            records: Vec::new(),
            pending: std::collections::VecDeque::new(),
            driver: None,
            samplers: Vec::new(),
            visibility,
            faults: Vec::new(),
            goodput_bytes: 0,
            reorder_grace,
            digest: hermes_net::audit::FnvDigest::new(),
            send_scratch: Vec::new(),
            recv_scratch: Vec::new(),
            stats: SimStats::default(),
        };
        if let Some(plan) = sim.cfg.fault_plan.clone() {
            sim.set_fault_plan(&plan);
        }
        sim
    }

    // ---- experiment wiring ----------------------------------------

    /// Inject a switch failure (before or during the run).
    pub fn set_spine_failure(&mut self, spine: SpineId, f: SpineFailure) {
        self.fabric.set_spine_failure(spine, f);
    }

    /// Schedule a fault plan: one `Global` event per entry, dispatched
    /// through the shared queue at its instant (so fault injection is
    /// part of the digested event trace). Entries whose time already
    /// passed apply at the current instant, in plan order.
    ///
    /// Panics if [`FaultPlan::validate_on`] rejects the plan for this
    /// fabric — an invalid schedule (unpaired `LinkUp`, contradictory
    /// overlapping windows, out-of-range rates, a switch or link the
    /// topology lacks) would otherwise run to a nonsense result or die
    /// mid-run when the event fires.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        if let Err(e) = plan.validate_on(self.fabric.topology()) {
            panic!("invalid fault plan: {e}");
        }
        for ev in plan.events() {
            let token = Token::Fault(self.faults.len());
            self.faults.push(*ev);
            self.q.schedule(ev.at.max(self.q.now()), token.global());
        }
    }

    /// Schedule a TCP flow.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        assert!(spec.start >= self.q.now(), "flow arrival in the past");
        assert!(
            spec.id.0 <= MAX_FLOW_ID,
            "flow id {} exceeds MAX_FLOW_ID ({MAX_FLOW_ID}): its timers would alias another flow's",
            spec.id.0
        );
        self.pending.push_back(spec);
        self.q.schedule(spec.start, Token::Arrival.global());
    }

    /// Schedule a whole workload.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        for s in specs {
            self.add_flow(s);
        }
    }

    /// Install a staged-dependency workload ([`FlowDriver`]): its
    /// initial flows are scheduled now, and every TCP flow completion
    /// is fed back so it can release dependent flows at the completion
    /// instant. Released flows enter the pending queue during the
    /// completing event's dispatch, so `run_to_completion` keeps
    /// running until the driver has nothing left to release.
    pub fn set_driver(&mut self, mut driver: Box<dyn FlowDriver>) {
        let specs = driver.initial(self.q.now());
        assert!(!specs.is_empty(), "driver released no initial flows");
        self.add_flows(specs);
        self.driver = Some(driver);
    }

    /// Add a constant-rate UDP source (Fig. 2's competitor). Returns its
    /// pseudo-flow id. `path = None` lets the fabric LB route it.
    pub fn add_udp(
        &mut self,
        src: HostId,
        dst: HostId,
        rate_bps: u64,
        pkt_len: u32,
        path: Option<PathId>,
        start: Time,
    ) -> FlowId {
        let idx = self.udps.len();
        let flow = FlowId(UDP_FLOW_BASE + idx as u64);
        let interval = Time::tx_time((pkt_len + hermes_net::HDR) as u64, rate_bps);
        self.udps.push(UdpRt {
            flow,
            src,
            dst,
            path,
            len: pkt_len,
            interval,
            received: 0,
        });
        self.q
            .schedule(start.max(self.q.now()), Token::Udp(idx).global());
        flow
    }

    /// Register a periodic sampler; returns its index.
    ///
    /// # Panics
    /// On a zero `interval`, which would re-arm the sampler at `now`
    /// forever and never let the run advance.
    pub fn add_sampler(&mut self, interval: Time, probe: Probe) -> usize {
        assert!(
            interval > Time::ZERO,
            "sampler interval must be positive: a zero interval never advances time"
        );
        let idx = self.samplers.len();
        self.samplers.push(SamplerRt {
            interval,
            probe,
            series: Vec::new(),
        });
        self.q.schedule_in(interval, Token::Sampler(idx).global());
        idx
    }

    /// A sampler's recorded series.
    pub fn sampler_series(&self, idx: usize) -> &[(Time, u64)] {
        &self.samplers[idx].series
    }

    // ---- accessors -------------------------------------------------

    pub fn now(&self) -> Time {
        self.q.now()
    }

    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Rack sensing tables by leaf id (empty unless the scheme is Hermes).
    pub fn hermes_racks(&self) -> impl Iterator<Item = &RackSensing> {
        let racks: &[Hermes] = match &self.edge {
            EdgeLbs::PerRack { racks, .. } => racks,
            _ => &[],
        };
        racks.iter().map(Hermes::sensing)
    }

    /// Table 2 visibility metrics `(switch_pair, host_pair)`.
    // ANALYZER: allow(float-determinism, reporting-only ratios computed after the run; never fed back into simulation state)
    pub fn visibility(&mut self) -> (f64, f64) {
        let now = self.q.now();
        (
            self.visibility.switch_pair_visibility(now),
            self.visibility.host_pair_visibility(now),
        )
    }

    /// Bytes received by a UDP pseudo-flow.
    pub fn udp_received(&self, flow: FlowId) -> u64 {
        self.udps[(flow.0 - UDP_FLOW_BASE) as usize].received
    }

    /// Cumulative in-order TCP payload bytes delivered across all flows.
    pub fn goodput_bytes(&self) -> u64 {
        self.goodput_bytes
    }

    /// Fingerprint of the event trace dispatched so far. Equal seeds and
    /// workloads must yield equal digests — see
    /// [`crate::selfcheck::assert_deterministic`].
    pub fn trace_digest(&self) -> u64 {
        self.digest.value()
    }

    /// Packet-conservation snapshot of the underlying fabric.
    pub fn conservation(&self) -> hermes_net::ConservationReport {
        self.fabric.conservation_report()
    }

    /// Past-time schedules the event queue clamped to `now` (release
    /// builds only; debug builds assert instead). Nonzero flags a
    /// causality violation — surfaced through
    /// [`crate::selfcheck::RunFingerprint`] so it cannot vanish
    /// silently.
    pub fn queue_clamps(&self) -> u64 {
        self.q.clamp_count()
    }

    /// Schedules the event queue sent to its fallback heap instead of a
    /// recurring-delay lane (see [`hermes_sim::LaneQueue::fallback_count`]);
    /// a growing share means the simulator stopped scheduling at a
    /// handful of constant delays.
    pub fn queue_fallback_count(&self) -> u64 {
        self.q.fallback_count()
    }

    /// Events scheduled and not yet dispatched. After a run this is
    /// about one RTO per live flow plus in-flight packets and recurring
    /// ticks: superseded RTO re-arms never wait in the queue.
    pub fn pending_events(&self) -> usize {
        self.q.len()
    }

    /// `TxDone` boundaries handled inline within back-to-back packet
    /// trains instead of as scheduled events. Counted in
    /// [`SimStats::events`] like any dispatched event.
    pub fn trains_inlined(&self) -> u64 {
        self.fabric.stats.trains_inlined
    }

    // ---- run loop --------------------------------------------------

    /// Run until the horizon (absolute simulated time).
    pub fn run_until(&mut self, horizon: Time) {
        while let Some((_, ev)) = self.q.pop_due(horizon) {
            self.dispatch(ev, horizon);
        }
    }

    /// Run until every scheduled TCP flow completed (receiver-side) or
    /// the horizon passes, whichever is first.
    ///
    /// The completion check between events stays sound under train
    /// batching: flows only complete inside `Arrive` dispatches, and a
    /// dispatched `TxDone` can at most inline further `TxDone`s — never
    /// an `Arrive` — so the flow counters are unchanged at every point
    /// where this loop inspects them.
    pub fn run_to_completion(&mut self, horizon: Time) {
        while !self.all_flows_done() {
            let Some((_, ev)) = self.q.pop_due(horizon) else {
                break;
            };
            self.dispatch(ev, horizon);
        }
    }

    /// Whether at least one flow started and none is pending or running.
    fn all_flows_done(&self) -> bool {
        self.pending.is_empty()
            && self.stats.flows_started > 0
            && self.stats.flows_completed == self.stats.flows_started
    }

    /// Dispatch one popped event. `limit` is the run loop's horizon,
    /// bounding how far the fabric may inline packet-train boundaries
    /// (events past the horizon stay undispatched and undigested).
    fn dispatch(&mut self, ev: Event, limit: Time) {
        // `now` has already advanced to the event's timestamp.
        hermes_net::audit::digest_event(&mut self.digest, self.q.now(), &ev);
        self.stats.events += 1;
        if hermes_telemetry::enabled() {
            self.telemetry_cadence();
        }
        match ev {
            Event::HostTimer { token, .. } | Event::Global { token } => {
                self.on_token(Token::decode(token));
            }
            other => {
                let inlined_before = self.fabric.stats.trains_inlined;
                let delivered = self
                    .fabric
                    .handle(&mut self.q, other, &mut self.digest, limit);
                // Inlined train boundaries are logical events: they were
                // digested, so they count toward the event total too.
                self.stats.events += self.fabric.stats.trains_inlined - inlined_before;
                if let Some((host, pkt)) = delivered {
                    self.deliver(host, &pkt);
                    // The payload has been fully consumed; hand the
                    // allocation back to the fabric's packet arena.
                    self.fabric.recycle(pkt);
                }
            }
        }
    }

    /// The one dispatch of every timer and global event.
    fn on_token(&mut self, token: Token) {
        match token {
            Token::Rto { flow, gen } => self.on_rto(flow, gen),
            Token::Hold { flow, gen } => self.on_hold(flow, gen),
            Token::Arrival => {
                let spec = self.pending.pop_front().expect("arrival without spec");
                self.start_flow(spec);
            }
            Token::ProbeTick => {
                // Only a probing rack set schedules the tick.
                if let Some((racks, p)) = self.edge.probing() {
                    let (fabric, q, rng) = (&mut self.fabric, &mut self.q, &mut self.rng_lb);
                    p.tick(racks, fabric, q, rng, &mut self.stats);
                }
            }
            Token::Sampler(idx) => self.on_sampler(idx),
            Token::Udp(idx) => self.on_udp_tick(idx),
            Token::Fault(idx) => {
                let action = self.faults[idx].action;
                if hermes_telemetry::enabled() {
                    let kind = action.kind();
                    hermes_telemetry::emit_with(self.q.now(), || {
                        hermes_telemetry::Record::FaultApplied { kind }
                    });
                }
                self.fabric.apply_fault(&action);
            }
        }
    }

    /// Telemetry metrics cadence: piggybacks on event dispatch (no
    /// scheduled events of its own, so the event stream — and with it
    /// the determinism digest — is identical with telemetry off).
    fn telemetry_cadence(&mut self) {
        let now = self.q.now();
        if !hermes_telemetry::on_cadence(now) {
            return;
        }
        let topo = self.fabric.topology();
        let (n_leaves, n_spines) = (topo.n_leaves, topo.n_spines);
        for l in 0..n_leaves {
            for s in 0..n_spines {
                let (leaf, spine) = (LeafId(l as u16), SpineId(s as u16));
                let up_qbytes = self.fabric.leaf_up_qbytes(leaf, spine);
                let down_qbytes = self.fabric.spine_down_qbytes(spine, leaf);
                hermes_telemetry::emit_with(now, || hermes_telemetry::Record::QueueSample {
                    leaf: l as u32,
                    spine: s as u32,
                    up_qbytes,
                    down_qbytes,
                });
            }
        }
        // ANALYZER: allow(float-determinism, integer counters widened only at the metrics-export boundary)
        hermes_telemetry::gauge_set("goodput_bytes", self.goodput_bytes as f64);
        // ANALYZER: allow(float-determinism, same metrics-export boundary as above)
        hermes_telemetry::gauge_set("flows_live", self.flows.len() as f64);
        hermes_telemetry::sample_metrics(now);
    }

    fn on_sampler(&mut self, idx: usize) {
        let now = self.q.now();
        let value = match self.samplers[idx].probe {
            Probe::LeafUpQueue(l, s) => self.fabric.leaf_up_qbytes(l, s),
            Probe::SpineDownQueue(s, l) => self.fabric.spine_down_qbytes(s, l),
            Probe::FlowDelivered(f) if (UDP_FLOW_BASE..PROBE_FLOW_BASE).contains(&f.0) => {
                self.udps[(f.0 - UDP_FLOW_BASE) as usize].received
            }
            // A retired flow delivered everything.
            Probe::FlowDelivered(f) => self.flows.get(&f.0).map_or_else(
                || {
                    let rec = self.records.iter().find(|r| r.id == f);
                    rec.and_then(|r| r.finish.map(|_| r.size)).unwrap_or(0)
                },
                |fl| fl.receiver.rcv_nxt(),
            ),
            Probe::TotalGoodput => self.goodput_bytes,
        };
        self.samplers[idx].series.push((now, value));
        let iv = self.samplers[idx].interval;
        self.q.schedule_in(iv, Token::Sampler(idx).global());
    }

    fn on_udp_tick(&mut self, idx: usize) {
        let u = &self.udps[idx];
        let path = u.path.unwrap_or(PathId::UNSET);
        let pkt = Packet::udp(u.flow, u.src, u.dst, u.len, path);
        let iv = u.interval;
        self.fabric.host_send(&mut self.q, pkt);
        self.q.schedule_in(iv, Token::Udp(idx).global());
    }
}
