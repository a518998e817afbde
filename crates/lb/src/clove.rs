//! CLOVE-ECN (Katta et al., 2016) — edge-based, congestion-aware,
//! flowlet-granularity load balancing.
//!
//! The source hypervisor keeps a weight per path toward each destination
//! leaf. ECN echoes piggybacked on ACKs shrink the marked path's weight
//! multiplicatively and redistribute it to the others; new flowlets pick
//! a path by weighted choice. Visibility is limited to paths the host's
//! own traffic touches — the limitation Table 2 and §5.3.2 quantify.
//!
//! A flowlet lasts while the flow's inter-packet gap (`FlowCtx::since_tx`)
//! stays within the timeout; its path is `FlowCtx::current_path`. Both
//! come from the runtime, so the only state here is the weights.

use std::collections::BTreeMap;

use hermes_net::{EdgeLb, FlowCtx, LeafId, PathId};
use hermes_sim::{SimRng, Time};

/// Multiplicative decrease applied to a path's weight per ECN-marked
/// ACK.
const BETA: f64 = 0.25;

/// Floor so no path's weight can reach zero (keeps probing alive).
const MIN_WEIGHT: f64 = 0.01;

/// Per-destination-leaf weight vector.
struct Weights {
    w: BTreeMap<PathId, f64>,
}

impl Weights {
    fn new(candidates: &[PathId]) -> Weights {
        Weights {
            w: candidates.iter().map(|&p| (p, 1.0)).collect(),
        }
    }

    fn ensure(&mut self, candidates: &[PathId]) {
        for &p in candidates {
            self.w.entry(p).or_insert(1.0);
        }
    }

    /// Weighted random choice among live candidates.
    fn choose(&self, candidates: &[PathId], rng: &mut SimRng) -> PathId {
        let total: f64 = candidates
            .iter()
            .map(|p| self.w.get(p).copied().unwrap_or(1.0))
            .sum();
        let mut x = rng.f64() * total;
        for &p in candidates {
            let w = self.w.get(&p).copied().unwrap_or(1.0);
            if x < w {
                return p;
            }
            x -= w;
        }
        *candidates.last().expect("empty candidates")
    }

    /// ECN on `path`: shift [`BETA`] of its weight to the other paths.
    fn punish(&mut self, path: PathId) {
        let n = self.w.len();
        if n <= 1 {
            return;
        }
        let Some(cur) = self.w.get_mut(&path) else {
            return;
        };
        let removed = (*cur * BETA).min(*cur - MIN_WEIGHT).max(0.0);
        *cur -= removed;
        let share = removed / (n - 1) as f64;
        for (p, w) in &mut self.w {
            if *p != path {
                *w += share;
            }
        }
    }
}

/// CLOVE-ECN.
pub struct CloveEcn {
    /// Flowlet gap (150 µs in simulations, 800 µs testbed-scale — §5.1).
    flowlet_timeout: Time,
    weights: BTreeMap<LeafId, Weights>,
}

impl CloveEcn {
    pub fn new(flowlet_timeout: Time) -> CloveEcn {
        assert!(
            flowlet_timeout > Time::ZERO,
            "flowlet timeout must be positive"
        );
        CloveEcn {
            flowlet_timeout,
            weights: BTreeMap::new(),
        }
    }

    /// Current weight of a path (testing/diagnostics).
    pub fn weight(&self, dst_leaf: LeafId, path: PathId) -> Option<f64> {
        self.weights
            .get(&dst_leaf)
            .and_then(|w| w.w.get(&path))
            .copied()
    }
}

impl EdgeLb for CloveEcn {
    fn select_path(
        &mut self,
        ctx: &FlowCtx,
        candidates: &[PathId],
        _now: Time,
        rng: &mut SimRng,
    ) -> PathId {
        if ctx.since_tx <= self.flowlet_timeout && candidates.contains(&ctx.current_path) {
            return ctx.current_path;
        }
        let w = self
            .weights
            .entry(ctx.dst_leaf)
            .or_insert_with(|| Weights::new(candidates));
        w.ensure(candidates);
        w.choose(candidates, rng)
    }

    fn on_ack(
        &mut self,
        ctx: &FlowCtx,
        path: PathId,
        _rtt: Option<Time>,
        ecn: bool,
        _bytes_acked: u64,
        _now: Time,
    ) {
        if ecn && path.is_spine() {
            if let Some(w) = self.weights.get_mut(&ctx.dst_leaf) {
                w.punish(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FLOWLET_TIMEOUT;
    use hermes_net::{FlowId, HostId};

    fn ctx(flow: u64) -> FlowCtx {
        FlowCtx {
            flow: FlowId(flow),
            src: HostId(0),
            dst: HostId(20),
            src_leaf: LeafId(0),
            dst_leaf: LeafId(1),
            bytes_sent: 0,
            rate_bps: 0.0,
            current_path: PathId::UNSET,
            is_new: false,
            timed_out: false,
            since_change: Time::MAX,
            since_tx: Time::MAX,
        }
    }

    /// Flow 1 on `current_path`, `since_tx` after its previous packet.
    fn sent(current_path: PathId, since_tx: Time) -> FlowCtx {
        FlowCtx {
            current_path,
            since_tx,
            ..ctx(1)
        }
    }

    const CANDS: [PathId; 4] = [PathId(0), PathId(1), PathId(2), PathId(3)];

    #[test]
    fn flowlet_stickiness() {
        let mut lb = CloveEcn::new(FLOWLET_TIMEOUT);
        let mut rng = SimRng::new(5);
        // `twin` mirrors the draws `rng` should have made.
        let mut twin = SimRng::new(5);
        let p = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        twin.f64();
        // Packets 10 us apart stay on the same path.
        for i in 1..20 {
            let q = lb.select_path(
                &sent(p, Time::from_us(10)),
                &CANDS,
                Time::from_us(i * 10),
                &mut rng,
            );
            assert_eq!(p, q);
        }
        // A gap equal to the timeout is still the same flowlet.
        let timeout = FLOWLET_TIMEOUT;
        assert_eq!(
            lb.select_path(&sent(p, timeout), &CANDS, Time::ZERO, &mut rng),
            p
        );
        // None of those calls drew.
        assert_eq!(rng.u64(), twin.u64());
        // A gap 1 ns longer starts a new flowlet: one weighted draw.
        lb.select_path(
            &sent(p, timeout + Time::from_ns(1)),
            &CANDS,
            Time::ZERO,
            &mut rng,
        );
        twin.f64();
        assert_eq!(rng.u64(), twin.u64());
        // A flowlet whose path died moves even within the timeout.
        let rest: Vec<PathId> = CANDS.iter().copied().filter(|&x| x != p).collect();
        let q = lb.select_path(&sent(p, Time::from_us(10)), &rest, Time::ZERO, &mut rng);
        assert!(rest.contains(&q));
    }

    #[test]
    fn ecn_shifts_weight_away() {
        let mut lb = CloveEcn::new(FLOWLET_TIMEOUT);
        let mut rng = SimRng::new(5);
        lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        let before = lb.weight(LeafId(1), PathId(0)).unwrap();
        for _ in 0..10 {
            lb.on_ack(&ctx(1), PathId(0), None, true, 1460, Time::from_us(50));
        }
        let after = lb.weight(LeafId(1), PathId(0)).unwrap();
        assert!(after < before * 0.2, "weight must collapse: {after}");
        // Total weight conserved.
        let total: f64 = CANDS
            .iter()
            .map(|&p| lb.weight(LeafId(1), p).unwrap())
            .sum();
        assert!((total - 4.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn punished_path_is_rarely_chosen() {
        let mut lb = CloveEcn::new(FLOWLET_TIMEOUT);
        let mut rng = SimRng::new(5);
        lb.select_path(&ctx(0), &CANDS, Time::ZERO, &mut rng);
        for _ in 0..40 {
            lb.on_ack(&ctx(0), PathId(2), None, true, 1460, Time::ZERO);
        }
        // New flowlets (distinct flows) avoid path 2.
        let mut hits = 0;
        for f in 1..=1000 {
            if lb.select_path(&ctx(f), &CANDS, Time::ZERO, &mut rng) == PathId(2) {
                hits += 1;
            }
        }
        assert!(hits < 30, "punished path chosen {hits}/1000 times");
    }

    #[test]
    fn weights_never_hit_zero() {
        let mut lb = CloveEcn::new(FLOWLET_TIMEOUT);
        let mut rng = SimRng::new(5);
        lb.select_path(&ctx(0), &CANDS, Time::ZERO, &mut rng);
        for _ in 0..10_000 {
            lb.on_ack(&ctx(0), PathId(1), None, true, 1460, Time::ZERO);
        }
        let w = lb.weight(LeafId(1), PathId(1)).unwrap();
        assert!(w >= MIN_WEIGHT * 0.99, "weight {w}");
    }

    #[test]
    fn unmarked_acks_leave_weights_alone() {
        let mut lb = CloveEcn::new(FLOWLET_TIMEOUT);
        let mut rng = SimRng::new(5);
        lb.select_path(&ctx(0), &CANDS, Time::ZERO, &mut rng);
        for _ in 0..100 {
            lb.on_ack(&ctx(0), PathId(0), None, false, 1460, Time::ZERO);
        }
        assert_eq!(lb.weight(LeafId(1), PathId(0)), Some(1.0));
    }
}
