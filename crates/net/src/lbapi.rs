//! Load-balancer hook traits.
//!
//! Two families of scheme plug into the fabric:
//!
//! * **Edge-based** ([`EdgeLb`]) — run at the sending host/hypervisor
//!   (ECMP, Presto*, CLOVE-ECN, FlowBender, **Hermes**). They pick the
//!   explicit path stamped on every outgoing data packet and observe
//!   transport-level signals (ACK ECN/RTT, retransmissions, timeouts).
//! * **Fabric-based** ([`FabricLb`]) — run inside switches (CONGA,
//!   LetFlow, DRILL). They pick the uplink at the source leaf and may
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
    // ANALYZER: allow(float-determinism, carries rate.rs's allowlisted DRE estimate across the LB API unmodified)
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
}

/// A probe the scheme wants sent this tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeTarget {
    pub dst_leaf: LeafId,
    pub path: PathId,
}

/// An edge-based (end-host) load balancer.
///
/// An instance serves one host (ECMP, Presto*, FlowBender, CLOVE) *or*
/// one rack (Hermes, whose sensing table is rack-wide); the runtime owns
/// the instances and picks the right one per call. Every flow hook
/// names the sending host as `ctx.src`, so a rack-wide instance keeps
/// its host-local state indexed by that. `Send`, so a built simulation
/// can move to another thread.
pub trait EdgeLb: Send {
    /// Pick the path for the next outgoing data packet of `flow`.
    ///
    /// Called for *every* data packet, so per-flow/per-flowlet schemes
    /// must memoize internally. `candidates` is the set of live spine
    /// paths to `ctx.dst_leaf`, never empty.
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

    /// The flow delivered its last byte.
    fn on_flow_finished(&mut self, ctx: &FlowCtx, now: Time) {
        let _ = (ctx, now);
    }

    /// Active-probing plan for this probe tick (empty = scheme does not
    /// probe). Called once per rack, on the instance serving the rack's
    /// probe agent; the probe hooks carry no host because probed state
    /// is rack-level.
    fn probe_plan(&mut self, now: Time, rng: &mut SimRng) -> Vec<ProbeTarget> {
        let _ = (now, rng);
        Vec::new()
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

/// The candidate uplinks at a source leaf, paired with their current
/// queue occupancies: `qbytes[i]` is the queued byte count of the
/// uplink toward `paths[i]` (for DRILL-style local decisions).
#[derive(Clone, Copy, Debug)]
pub struct Uplinks<'a> {
    pub paths: &'a [PathId],
    pub qbytes: &'a [u64],
}

/// A switch-resident load balancer (one object holds the state of every
/// switch — the simulator is single-threaded, so "distributed" state is
/// simply indexed by switch id). `Send` for the same reason as
/// [`EdgeLb`].
pub trait FabricLb: Send {
    /// At the source leaf: choose the uplink for an inter-rack packet
    /// from the live candidates in `uplinks`.
    fn ingress_select(
        &mut self,
        leaf: LeafId,
        dst_leaf: LeafId,
        pkt: &Packet,
        uplinks: Uplinks<'_>,
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

/// The trivial edge scheme: stick to the first candidate. Useful in
/// tests and as a base case.
#[derive(Default)]
pub struct PinnedPath;

impl EdgeLb for PinnedPath {
    fn select_path(
        &mut self,
        ctx: &FlowCtx,
        candidates: &[PathId],
        _now: Time,
        _rng: &mut SimRng,
    ) -> PathId {
        if ctx.current_path.is_spine() && candidates.contains(&ctx.current_path) {
            ctx.current_path
        } else {
            candidates[0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(current: PathId, is_new: bool) -> FlowCtx {
        FlowCtx {
            flow: FlowId(1),
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
        }
    }

    #[test]
    fn pinned_path_sticks() {
        let mut lb = PinnedPath;
        let mut rng = SimRng::new(0);
        let cands = [PathId(0), PathId(1), PathId(2)];
        let first = lb.select_path(&ctx(PathId::UNSET, true), &cands, Time::ZERO, &mut rng);
        assert_eq!(first, PathId(0));
        let again = lb.select_path(&ctx(PathId(2), false), &cands, Time::ZERO, &mut rng);
        assert_eq!(again, PathId(2));
        // Current path no longer a candidate → falls back to first.
        let moved = lb.select_path(&ctx(PathId(7), false), &cands, Time::ZERO, &mut rng);
        assert_eq!(moved, PathId(0));
    }
}
