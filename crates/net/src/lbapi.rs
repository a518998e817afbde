//! Load-balancer hook traits.
//!
//! Two families of scheme plug into the fabric:
//!
//! * **Edge-based** ([`EdgeLb`]) — run at the sending host/hypervisor
//!   (ECMP, Presto*, CLOVE-ECN, **Hermes**). They pick the
//!   explicit path stamped on every outgoing data packet and observe
//!   transport-level signals (ACK ECN/RTT, retransmissions, timeouts).
//!   They keep no per-flow state: the runtime owns each flow's status
//!   and hands it to every hook in a [`FlowCtx`], so an instance holds
//!   only state that spans flows (weights, path tables, rates).
//! * **Fabric-based** ([`FabricLb`]) — run inside switches (CONGA,
//!   LetFlow). They pick the uplink at the source leaf and may
//!   read/write in-band metadata at every hop.
//!
//! The runtime drives exactly one of the two per experiment.

use hermes_sim::{SimRng, Time};

use crate::packet::Packet;
use crate::types::{FlowId, HostId, LeafId, PathId};

/// A snapshot of sender-side flow state handed to [`EdgeLb`] hooks.
///
/// This is the "flow status" half of Hermes' cautious-rerouting inputs
/// (Table 3): size sent `s_sent`, sending rate `r_f`, and whether the
/// flow just experienced a timeout.
#[derive(Clone, Copy, Debug)]
pub struct FlowCtx {
    pub flow: FlowId,
    pub src: HostId,
    pub dst: HostId,
    pub src_leaf: LeafId,
    pub dst_leaf: LeafId,
    /// Bytes of payload handed to the fabric so far (including
    /// retransmissions) — the paper's `s_sent`.
    pub bytes_sent: u64,
    /// DRE-estimated current sending rate in bits/s — the paper's `r_f`.
    pub rate_bps: f64,
    /// Path the flow most recently used ([`PathId::UNSET`] for new flows).
    pub current_path: PathId,
    /// True until the first data packet is stamped.
    pub is_new: bool,
    /// True if the flow has experienced an RTO that has not yet been
    /// answered by a rerouting decision (Algorithm 2's `f.if_timeout`).
    pub timed_out: bool,
    /// Time since the flow last changed paths (`Time::MAX` if never) —
    /// lets schemes damp reroute flip-flopping.
    pub since_change: Time,
    /// Time since the flow's previous data transmission (`Time::MAX`
    /// before its first) — the inter-packet gap a flowlet scheme
    /// compares with its timeout.
    pub since_tx: Time,
}

/// A probe the scheme wants sent this tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeTarget {
    pub dst_leaf: LeafId,
    pub path: PathId,
}

/// An edge-based (end-host) load balancer.
///
/// An instance serves one host (ECMP, Presto*, CLOVE) *or*
/// one rack (Hermes, whose sensing table is rack-wide); the runtime owns
/// the instances and picks the right one per call. Every flow hook
/// names the sending host as `ctx.src`, so a rack-wide instance keeps
/// its host-local state indexed by that. `Send`, so a built simulation
/// can move to another thread.
pub trait EdgeLb: Send {
    /// Pick the path for the next outgoing data packet of `flow`.
    ///
    /// Called for *every* data packet. A per-flow or per-flowlet scheme
    /// decides stickiness from `ctx` (`current_path`, `since_tx`) and
    /// keeps no per-flow memo of its own. `candidates` is the set of
    /// live spine paths to `ctx.dst_leaf`, never empty.
    fn select_path(
        &mut self,
        ctx: &FlowCtx,
        candidates: &[PathId],
        now: Time,
        rng: &mut SimRng,
    ) -> PathId;

    /// An ACK arrived for `ctx.flow`. `path` is the path of the data
    /// packet the ACK echoes; `rtt` is present for ACKs of
    /// non-retransmitted segments; `ecn` is the CE echo;
    /// `bytes_acked` is how much new data this ACK cumulatively covers.
    fn on_ack(
        &mut self,
        ctx: &FlowCtx,
        path: PathId,
        rtt: Option<Time>,
        ecn: bool,
        bytes_acked: u64,
        now: Time,
    ) {
        let _ = (ctx, path, rtt, ecn, bytes_acked, now);
    }

    /// The flow's retransmission timer fired while on `path`.
    fn on_timeout(&mut self, ctx: &FlowCtx, path: PathId, now: Time) {
        let _ = (ctx, path, now);
    }

    /// A segment was retransmitted (fast retransmit or RTO) on `path`.
    fn on_retransmit(&mut self, ctx: &FlowCtx, path: PathId, now: Time) {
        let _ = (ctx, path, now);
    }

    /// `bytes` of data were handed to the fabric on `path`.
    fn on_data_sent(&mut self, ctx: &FlowCtx, path: PathId, bytes: u64, now: Time) {
        let _ = (ctx, path, bytes, now);
    }

    /// Append this probe tick's active-probing plan to `plan` (nothing
    /// = scheme does not probe). Called once per rack, on the instance
    /// serving the rack's probe agent, with a buffer the caller keeps
    /// across ticks; the probe hooks carry no host because probed state
    /// is rack-level.
    fn probe_plan(&mut self, now: Time, rng: &mut SimRng, plan: &mut Vec<ProbeTarget>) {
        let _ = (now, rng, plan);
    }

    /// A probe response came back: round-trip `rtt` on `path` toward
    /// `dst_leaf`, with `ecn` = whether the request was CE-marked.
    fn on_probe_result(&mut self, dst_leaf: LeafId, path: PathId, rtt: Time, ecn: bool, now: Time) {
        let _ = (dst_leaf, path, rtt, ecn, now);
    }

    /// A probe sent toward `dst_leaf` on `path` got no response within
    /// the runtime's probe timeout — negative evidence about the path
    /// (it may still be blackholed), used to keep suspected-failed paths
    /// out of probation.
    fn on_probe_timeout(&mut self, dst_leaf: LeafId, path: PathId, now: Time) {
        let _ = (dst_leaf, path, now);
    }
}

/// Which link a packet is being forwarded onto (for [`FabricLb::on_forward`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkRef {
    /// Leaf → spine.
    Up { leaf: LeafId, spine: u16 },
    /// Spine → leaf.
    Down { spine: u16, leaf: LeafId },
    /// Leaf → host (last hop).
    HostDown { leaf: LeafId },
}

/// A switch-resident load balancer (one object holds the state of every
/// switch — the simulator is single-threaded, so "distributed" state is
/// simply indexed by switch id). `Send` for the same reason as
/// [`EdgeLb`].
pub trait FabricLb: Send {
    /// At the source leaf: choose the uplink for an inter-rack packet
    /// from `candidates`, the live spine paths to `dst_leaf` (never
    /// empty).
    fn ingress_select(
        &mut self,
        leaf: LeafId,
        dst_leaf: LeafId,
        pkt: &Packet,
        candidates: &[PathId],
        now: Time,
        rng: &mut SimRng,
    ) -> PathId;

    /// A packet is about to be enqueued on `link` — update in-band
    /// metadata (CONGA's CE field) and link-rate estimators.
    fn on_forward(&mut self, link: LinkRef, pkt: &mut Packet, now: Time) {
        let _ = (link, pkt, now);
    }

    /// An inter-rack packet reached its destination leaf — harvest
    /// metadata and stamp piggybacked feedback.
    fn on_dst_leaf(&mut self, leaf: LeafId, pkt: &mut Packet, now: Time) {
        let _ = (leaf, pkt, now);
    }
}
