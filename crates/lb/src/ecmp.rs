//! ECMP — per-flow random hashing (RFC 2992), the production baseline.
//!
//! A flow picks one path uniformly at random when it starts and never
//! moves, regardless of congestion, timeouts, or failures. This is what
//! makes it collapse under blackholes in Fig. 17: a deterministic subset
//! of flows is pinned to the failed switch forever.
//!
//! The flow's path is `FlowCtx::current_path`, which the runtime keeps,
//! so the balancer itself holds no state.

use hermes_net::{EdgeLb, FlowCtx, PathId};
use hermes_sim::{SimRng, Time};

/// Per-flow random hashing.
#[derive(Default)]
pub struct Ecmp;

impl Ecmp {
    pub fn new() -> Ecmp {
        Ecmp
    }
}

impl EdgeLb for Ecmp {
    fn select_path(
        &mut self,
        ctx: &FlowCtx,
        candidates: &[PathId],
        _now: Time,
        rng: &mut SimRng,
    ) -> PathId {
        if candidates.contains(&ctx.current_path) {
            return ctx.current_path;
        }
        // New flow (or its hashed path's link was cut).
        candidates[rng.below(candidates.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::{FlowId, HostId, LeafId};

    fn ctx(flow: u64, current_path: PathId) -> FlowCtx {
        FlowCtx {
            flow: FlowId(flow),
            src: HostId(0),
            dst: HostId(20),
            src_leaf: LeafId(0),
            dst_leaf: LeafId(1),
            bytes_sent: 0,
            rate_bps: 0.0,
            current_path,
            is_new: current_path == PathId::UNSET,
            timed_out: false,
            since_change: Time::MAX,
            since_tx: Time::MAX,
        }
    }

    #[test]
    fn flow_is_sticky() {
        let mut lb = Ecmp::new();
        let mut rng = SimRng::new(1);
        let cands = [PathId(0), PathId(1), PathId(2), PathId(3)];
        let first = lb.select_path(&ctx(7, PathId::UNSET), &cands, Time::ZERO, &mut rng);
        let mut cur = first;
        for _ in 0..100 {
            cur = lb.select_path(&ctx(7, cur), &cands, Time::ZERO, &mut rng);
            assert_eq!(cur, first);
        }
    }

    #[test]
    fn flows_spread_roughly_uniformly() {
        let mut lb = Ecmp::new();
        let mut rng = SimRng::new(2);
        let cands = [PathId(0), PathId(1), PathId(2), PathId(3)];
        let mut counts = [0usize; 4];
        for f in 0..4000 {
            let p = lb.select_path(&ctx(f, PathId::UNSET), &cands, Time::ZERO, &mut rng);
            counts[p.0 as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn rehashes_only_when_path_dies() {
        let mut lb = Ecmp::new();
        let mut rng = SimRng::new(4);
        let all = [PathId(0), PathId(1), PathId(2), PathId(3)];
        let p = lb.select_path(&ctx(9, PathId::UNSET), &all, Time::ZERO, &mut rng);
        // Remove the assigned path from candidates (link cut): re-hash.
        let rest: Vec<PathId> = all.iter().copied().filter(|&x| x != p).collect();
        let p2 = lb.select_path(&ctx(9, p), &rest, Time::ZERO, &mut rng);
        assert_ne!(p, p2);
        assert!(rest.contains(&p2));
        // The new path sticks while it stays a candidate.
        assert_eq!(lb.select_path(&ctx(9, p2), &rest, Time::ZERO, &mut rng), p2);
    }
}
