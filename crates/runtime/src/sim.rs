//! The full-stack simulation: fabric + transports + load balancer +
//! workload, driven off one deterministic event queue.

use std::collections::BTreeMap;

/// Flow table keyed by raw flow id. An ordered map so that any future
/// whole-table iteration is deterministic by construction; point
/// lookups on the hot path are O(log n) over a few thousand live flows,
/// which is noise next to the per-packet event machinery.
type FlowMap = BTreeMap<u64, FlowRt>;

use hermes_core::{Hermes, RackSensing};
use hermes_lb::{CloveEcn, Conga, Drill, Ecmp, FlowBender, LetFlow, PrestoSpray, RoundRobinSpray};
use hermes_net::{
    AckInfo, Dre, EdgeLb, Event, Fabric, FaultEvent, FaultPlan, FlowCtx, FlowId, HostId, LeafId,
    Packet, PacketKind, PathId, SpineFailure, SpineId,
};
use hermes_sim::{EventQueue, SimRng, Time};
use hermes_transport::{Receiver, RecvAction, SegmentIn, SendAction, Sender};
use hermes_workload::{FlowDriver, FlowRecord, FlowSpec, VisibilityTracker};

use crate::config::{presto_weights_for, Scheme, SimConfig};
use crate::timer::{LazyTimer, Popped, GEN_MASK};

// ---- timer token packing: kind(3) | id(ID_BITS) | gen(21) ----
const ID_BITS: u32 = 40;
const ID_MASK: u64 = (1 << ID_BITS) - 1;
const KIND_RTO: u64 = 0;
const KIND_HOLD: u64 = 1;
const TOK_ARRIVAL: u64 = 2;
const TOK_PROBE: u64 = 3;
const KIND_SAMPLER: u64 = 4;
const KIND_UDP: u64 = 5;
const KIND_FAULT: u64 = 6;

/// Largest TCP flow id [`Simulation::add_flow`] accepts: a timer token
/// has room for `ID_BITS` of id, and a wider id would alias another
/// flow's timers.
pub const MAX_FLOW_ID: u64 = ID_MASK;

fn pack(kind: u64, id: u64, gen: u64) -> u64 {
    debug_assert!(id <= ID_MASK, "token id {id} wider than {ID_BITS} bits");
    kind | (id << 3) | ((gen & GEN_MASK) << (3 + ID_BITS))
}

fn unpack(tok: u64) -> (u64, u64, u64) {
    (tok & 7, (tok >> 3) & ID_MASK, tok >> (3 + ID_BITS))
}

/// Flow ids at or above this are probe pseudo-flows.
const PROBE_FLOW_BASE: u64 = 1 << 60;
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

struct FlowRt {
    id: FlowId,
    src: HostId,
    dst: HostId,
    src_leaf: LeafId,
    dst_leaf: LeafId,
    sender: Sender,
    receiver: Receiver,
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

/// The edge LBs of a run, in the one shape its [`Scheme`] implies.
enum EdgeLbs {
    /// No edge LB: the fabric LB decides at the source leaf.
    SwitchBased,
    /// One instance per host, indexed by host id.
    PerHost(Vec<Box<dyn EdgeLb>>),
    /// One Hermes per rack, indexed by leaf id.
    PerRack(Vec<Hermes>),
}

impl EdgeLbs {
    fn per_host<L: EdgeLb + 'static>(n_hosts: usize, mut make: impl FnMut(HostId) -> L) -> EdgeLbs {
        EdgeLbs::PerHost(
            (0..n_hosts)
                .map(|h| Box::new(make(HostId(h as u32))) as Box<dyn EdgeLb>)
                .collect(),
        )
    }

    /// The instance serving `host`, which sits under `leaf`.
    #[inline]
    fn get(&mut self, host: HostId, leaf: LeafId) -> Option<&mut dyn EdgeLb> {
        match self {
            EdgeLbs::SwitchBased => None,
            EdgeLbs::PerHost(lbs) => Some(lbs[host.0 as usize].as_mut()),
            EdgeLbs::PerRack(racks) => Some(&mut racks[leaf.0 as usize]),
        }
    }
}

/// One experiment run.
pub struct Simulation {
    cfg: SimConfig,
    q: EventQueue<Event>,
    fabric: Fabric,
    edge: EdgeLbs,
    probe_interval: Option<Time>,
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
    probe_seq: u64,
    /// Scheduled fault events, indexed by their `KIND_FAULT` token id.
    faults: Vec<FaultEvent>,
    /// Probes awaiting a response, keyed by probe pseudo-flow id
    /// (ordered, so the expiry sweep is deterministic):
    /// `(agent host, dst leaf, path, sent at)`.
    probe_outstanding: BTreeMap<u64, (HostId, LeafId, PathId, Time)>,
    /// A probe unanswered for this long counts as lost.
    probe_timeout: Time,
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
        let n_hosts = topo.n_hosts();
        let mut fabric = Fabric::new(topo.clone(), root.split(0xFA11));
        let mut rng_lb = root.split(0x1B);
        let mut probe_interval = None;

        let edge = match &cfg.scheme {
            Scheme::Ecmp => EdgeLbs::per_host(n_hosts, |_| Ecmp::new()),
            Scheme::Drb => EdgeLbs::per_host(n_hosts, |_| RoundRobinSpray::new()),
            Scheme::Presto { weighted } => EdgeLbs::per_host(n_hosts, |h| {
                if *weighted {
                    PrestoSpray::weighted(presto_weights_for(&topo, topo.host_leaf(h)))
                } else {
                    PrestoSpray::equal()
                }
            }),
            Scheme::FlowBender(fb) => EdgeLbs::per_host(n_hosts, |_| FlowBender::new(*fb)),
            Scheme::Clove(cl) => EdgeLbs::per_host(n_hosts, |_| CloveEcn::new(*cl)),
            Scheme::Hermes(params) => {
                if params.enable_probing && params.probe_interval < Time::MAX {
                    probe_interval = Some(params.probe_interval);
                }
                EdgeLbs::PerRack(
                    (0..topo.n_leaves)
                        .map(|l| Hermes::new(&topo, LeafId(l as u16), *params))
                        .collect(),
                )
            }
            Scheme::LetFlow { flowlet_timeout } => {
                fabric.set_fabric_lb(Box::new(LetFlow::new(*flowlet_timeout)));
                EdgeLbs::SwitchBased
            }
            Scheme::Drill { samples } => {
                fabric.set_fabric_lb(Box::new(Drill::new(*samples)));
                EdgeLbs::SwitchBased
            }
            Scheme::Conga(cc) => {
                fabric.set_fabric_lb(Box::new(Conga::new(&topo, *cc)));
                EdgeLbs::SwitchBased
            }
        };

        let mut q = EventQueue::new();
        if let Some(iv) = probe_interval {
            q.schedule(iv, Event::Global { token: TOK_PROBE });
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
        // A probe is declared lost after several round trips — generous
        // against queueing, far below the failure quiet period.
        let probe_timeout = topo.base_rtt() * 8;
        let mut sim = Simulation {
            cfg,
            q,
            fabric,
            edge,
            probe_interval,
            rng_lb,
            flows: FlowMap::default(),
            udps: Vec::new(),
            records: Vec::new(),
            pending: std::collections::VecDeque::new(),
            driver: None,
            samplers: Vec::new(),
            visibility,
            probe_seq: 0,
            faults: Vec::new(),
            probe_outstanding: BTreeMap::new(),
            probe_timeout,
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
            let idx = self.faults.len() as u64;
            self.faults.push(*ev);
            self.q.schedule(
                ev.at.max(self.q.now()),
                Event::Global {
                    token: pack(KIND_FAULT, idx, 0),
                },
            );
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
        self.q
            .schedule(spec.start, Event::Global { token: TOK_ARRIVAL });
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
        self.q.schedule(
            start.max(self.q.now()),
            Event::Global {
                token: pack(KIND_UDP, idx as u64, 0),
            },
        );
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
        self.q.schedule_in(
            interval,
            Event::Global {
                token: pack(KIND_SAMPLER, idx as u64, 0),
            },
        );
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
            EdgeLbs::PerRack(racks) => racks,
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
            Event::HostTimer { host: _, token } => self.on_timer(token),
            Event::Global { token } => self.on_global(token),
            other => {
                let inlined_before = self.fabric.stats.trains_inlined;
                let delivered = self
                    .fabric
                    .handle(&mut self.q, other, &mut self.digest, limit);
                // Inlined train boundaries are logical events: they were
                // digested, so they count toward the event total too.
                self.stats.events += self.fabric.stats.trains_inlined - inlined_before;
                if let Some((host, pkt)) = delivered {
                    self.on_deliver(host, pkt);
                }
            }
        }
    }

    fn on_global(&mut self, token: u64) {
        match token {
            TOK_ARRIVAL => {
                let spec = self.pending.pop_front().expect("arrival without spec");
                self.start_flow(spec);
            }
            TOK_PROBE => {
                self.send_probes();
                let iv = self.probe_interval.expect("probe tick without interval");
                self.q.schedule_in(iv, Event::Global { token: TOK_PROBE });
            }
            other => {
                let (kind, id, _) = unpack(other);
                match kind {
                    KIND_SAMPLER => self.on_sampler(id as usize),
                    KIND_UDP => self.on_udp_tick(id as usize),
                    KIND_FAULT => {
                        let action = self.faults[id as usize].action;
                        if hermes_telemetry::enabled() {
                            let kind = action.kind();
                            hermes_telemetry::emit_with(self.q.now(), || {
                                hermes_telemetry::Record::FaultApplied { kind }
                            });
                        }
                        self.fabric.apply_fault(&action);
                    }
                    _ => unreachable!("bad global token {other}"),
                }
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
            Probe::FlowDelivered(f) => {
                if f.0 >= UDP_FLOW_BASE && f.0 < PROBE_FLOW_BASE {
                    self.udps[(f.0 - UDP_FLOW_BASE) as usize].received
                } else {
                    self.flows.get(&f.0).map_or_else(
                        || {
                            // Finished flows delivered everything.
                            self.records.iter().find(|r| r.id == f).map_or(0, |r| {
                                if r.finish.is_some() {
                                    r.size
                                } else {
                                    0
                                }
                            })
                        },
                        |fl| fl.receiver.rcv_nxt(),
                    )
                }
            }
            Probe::TotalGoodput => self.goodput_bytes,
        };
        self.samplers[idx].series.push((now, value));
        let iv = self.samplers[idx].interval;
        self.q.schedule_in(
            iv,
            Event::Global {
                token: pack(KIND_SAMPLER, idx as u64, 0),
            },
        );
    }

    fn on_udp_tick(&mut self, idx: usize) {
        let u = &self.udps[idx];
        let (flow, src, dst, len, path, iv) = (u.flow, u.src, u.dst, u.len, u.path, u.interval);
        let mut pkt = Packet::udp(flow, src, dst, len, path.unwrap_or(PathId::UNSET));
        if path.is_none() {
            pkt.path = PathId::UNSET;
        }
        self.fabric.host_send(&mut self.q, pkt);
        self.q.schedule_in(
            iv,
            Event::Global {
                token: pack(KIND_UDP, idx as u64, 0),
            },
        );
    }

    fn start_flow(&mut self, spec: FlowSpec) {
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

    fn make_ctx(f: &mut FlowRt, now: Time) -> FlowCtx {
        FlowCtx {
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
        }
    }

    fn process_send_actions(&mut self, fid: u64, mut actions: Vec<SendAction>) {
        let now = self.q.now();
        for a in actions.drain(..) {
            match a {
                SendAction::Tx { seq, len, retx } => {
                    let Some(f) = self.flows.get_mut(&fid) else {
                        continue;
                    };
                    let inter_rack = f.src_leaf != f.dst_leaf;
                    // The path the flow was on when the loss (if any)
                    // happened — retransmissions are evidence against
                    // *that* path, not whatever path the flow evacuates
                    // to (otherwise one blackhole would poison every
                    // path the flow flees across).
                    let loss_path = f.current_path;
                    let path = if !inter_rack {
                        PathId::DIRECT
                    } else if let Some(lb) = self.edge.get(f.src, f.src_leaf) {
                        let ctx = Self::make_ctx(f, now);
                        let cands = self.fabric.candidates(f.src_leaf, f.dst_leaf);
                        debug_assert!(!cands.is_empty(), "disconnected racks");
                        lb.select_path(&ctx, cands, now, &mut self.rng_lb)
                    } else {
                        PathId::UNSET // switch-based scheme decides at the leaf
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
                    if inter_rack {
                        if let Some(lb) = self.edge.get(f.src, f.src_leaf) {
                            let ctx = Self::make_ctx(f, now);
                            if retx {
                                // Blame order: an RTO episode blames the
                                // path it timed out on; a fast retransmit
                                // shortly after a path change is almost
                                // surely *reordering*, not loss, and is
                                // not reported; anything else blames the
                                // pre-selection path.
                                let blame = if f.blame_path.is_spine() {
                                    Some(f.blame_path)
                                } else if now.saturating_sub(f.last_path_change)
                                    <= self.reorder_grace
                                {
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
                    }
                    let mut pkt = Packet::data(f.id, f.src, f.dst, seq, len, retx);
                    pkt.path = path;
                    pkt.ecn_capable = self.cfg.transport.ecn;
                    self.fabric.host_send(&mut self.q, pkt);
                }
                SendAction::ArmRto { deadline } => {
                    if let Some(f) = self.flows.get_mut(&fid) {
                        if let Some((at, gen)) = f.rto.arm(deadline, now) {
                            self.q.schedule(
                                at,
                                Event::HostTimer {
                                    host: f.src,
                                    token: pack(KIND_RTO, fid, gen),
                                },
                            );
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
                        if f.src_leaf != f.dst_leaf {
                            if let Some(lb) = self.edge.get(f.src, f.src_leaf) {
                                let ctx = Self::make_ctx(f, now);
                                lb.on_flow_finished(&ctx, now);
                            }
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
                        self.q.schedule(
                            deadline.max(now),
                            Event::HostTimer {
                                host: f.dst,
                                token: pack(KIND_HOLD, fid, f.hold_gen),
                            },
                        );
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
                                // ANALYZER: allow(float-determinism, integer microseconds widened at the metrics-export boundary)
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

    fn on_timer(&mut self, token: u64) {
        let (kind, fid, gen) = unpack(token);
        let now = self.q.now();
        match kind {
            KIND_RTO => {
                let Some(f) = self.flows.get_mut(&fid) else {
                    return;
                };
                if f.sender_done {
                    return; // stale timer
                }
                match f.rto.pop(gen, now) {
                    Popped::Stale => return,
                    Popped::Resched(at) => {
                        let host = f.src;
                        self.q.schedule(at, Event::HostTimer { host, token });
                        return;
                    }
                    Popped::Fire => {}
                }
                f.timed_out = true;
                if f.current_path.is_spine() {
                    f.blame_path = f.current_path;
                }
                let path = f.current_path;
                if f.src_leaf != f.dst_leaf {
                    if let Some(lb) = self.edge.get(f.src, f.src_leaf) {
                        let ctx = Self::make_ctx(f, now);
                        lb.on_timeout(&ctx, path, now);
                    }
                }
                let mut buf = std::mem::take(&mut self.send_scratch);
                f.sender.on_rto(now, &mut buf);
                self.process_send_actions(fid, buf);
            }
            KIND_HOLD => {
                let Some(f) = self.flows.get_mut(&fid) else {
                    return;
                };
                if (f.hold_gen & GEN_MASK) != gen {
                    return;
                }
                let mut buf = std::mem::take(&mut self.recv_scratch);
                f.receiver.on_hold_timer(now, &mut buf);
                self.process_recv_actions(fid, buf);
            }
            _ => unreachable!("bad timer token"),
        }
    }

    fn on_deliver(&mut self, host: HostId, pkt: Box<Packet>) {
        self.deliver(host, &pkt);
        // The payload has been fully consumed; hand the allocation back
        // to the fabric's packet arena.
        self.fabric.recycle(pkt);
    }

    fn deliver(&mut self, host: HostId, pkt: &Packet) {
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
                if f.src_leaf != f.dst_leaf {
                    if let Some(lb) = self.edge.get(f.src, f.src_leaf) {
                        let ctx = Self::make_ctx(f, now);
                        lb.on_ack(&ctx, echo_path, rtt, ecn_echo, delta, now);
                    }
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
                self.probe_outstanding.remove(&pkt.flow.0);
                let rtt = now.saturating_sub(echo_ts);
                let topo = self.fabric.topology();
                let dst_leaf = topo.host_leaf(pkt.src);
                if let Some(lb) = self.edge.get(host, topo.host_leaf(host)) {
                    lb.on_probe_result(dst_leaf, pkt.path, rtt, req_ecn, now);
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

    fn send_probes(&mut self) {
        let now = self.q.now();
        // Expire unanswered probes first: each is negative evidence for
        // the probed path (recovery sensing), reported to the agent that
        // sent it. The sweep runs on the probe tick, so loss detection
        // granularity is one probe interval — fine next to the quiet
        // period. BTreeMap iteration keeps the order deterministic.
        let cutoff = now.saturating_sub(self.probe_timeout);
        let expired: Vec<u64> = self
            .probe_outstanding
            .iter()
            .filter(|&(_, &(_, _, _, sent))| sent <= cutoff)
            .map(|(&k, _)| k)
            .collect();
        for k in expired {
            let (agent, dst_leaf, path, _) = self
                .probe_outstanding
                .remove(&k)
                .expect("expired key just listed");
            self.stats.probe_timeouts += 1;
            let leaf = self.fabric.topology().host_leaf(agent);
            if let Some(lb) = self.edge.get(agent, leaf) {
                lb.on_probe_timeout(dst_leaf, path, now);
            }
        }
        for l in 0..self.fabric.topology().n_leaves {
            let leaf = LeafId(l as u16);
            let agent = self.fabric.topology().leaf_agent(leaf);
            let Some(lb) = self.edge.get(agent, leaf) else {
                return; // switch-based scheme: nobody probes
            };
            for t in lb.probe_plan(now, &mut self.rng_lb) {
                let dst_agent = self.fabric.topology().leaf_agent(t.dst_leaf);
                let flow = FlowId(PROBE_FLOW_BASE + self.probe_seq);
                self.probe_seq += 1;
                let pkt = Packet::probe_req(flow, agent, dst_agent, t.path);
                self.stats.probes_sent += 1;
                self.probe_outstanding
                    .insert(flow.0, (agent, t.dst_leaf, t.path, now));
                self.fabric.host_send(&mut self.q, pkt);
            }
        }
    }
}
