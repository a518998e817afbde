//! Congestion-oblivious packet spraying: Presto*.
//!
//! **Presto\*** (He et al., SIGCOMM 2015, as modified in §5.1) — the
//! paper sprays *packets* instead of 64 KB flowcells and masks the
//! resulting reordering with a receive-side buffer; under asymmetry it
//! is given static topology-dependent weights (§5.2), implemented here
//! with smooth weighted round-robin.
//!
//! It is oblivious to congestion and failures — which is exactly the
//! behaviour Figs. 2, 3, 16 and 17 exercise.

use std::collections::BTreeMap;

use hermes_net::{EdgeLb, FlowCtx, LeafId, PathId};
use hermes_sim::{SimRng, Time};

/// Smooth weighted round-robin state for one destination leaf.
struct Swrr {
    /// `(path, weight, current)` triples.
    slots: Vec<(PathId, f64, f64)>,
}

impl Swrr {
    fn new(weights: &[(PathId, f64)]) -> Swrr {
        Swrr {
            slots: weights.iter().map(|&(p, w)| (p, w, 0.0)).collect(),
        }
    }

    /// Classic smooth WRR: add weights, pick the max, subtract the total.
    fn next(&mut self, candidates: &[PathId]) -> PathId {
        let mut total = 0.0;
        for (p, w, cur) in &mut self.slots {
            if candidates.contains(p) {
                *cur += *w;
                total += *w;
            }
        }
        let mut best: Option<usize> = None;
        for (i, (p, _, cur)) in self.slots.iter().enumerate() {
            if !candidates.contains(p) {
                continue;
            }
            if best.is_none_or(|b| *cur > self.slots[b].2) {
                best = Some(i);
            }
        }
        let b = best.expect("no live candidate in weight table");
        self.slots[b].2 -= total;
        self.slots[b].0
    }
}

/// Presto* — weighted per-packet spray with static weights.
pub struct PrestoSpray {
    /// Static weights per destination leaf (None = equal weights).
    weights: BTreeMap<LeafId, Vec<(PathId, f64)>>,
    state: BTreeMap<LeafId, Swrr>,
}

impl PrestoSpray {
    /// Equal weights on every path (the symmetric-topology Presto).
    pub fn equal() -> PrestoSpray {
        PrestoSpray {
            weights: BTreeMap::new(),
            state: BTreeMap::new(),
        }
    }

    /// Static topology-dependent weights: for each destination leaf, a
    /// weight per path (§5.2: "assign weights for parallel paths
    /// statically to equalize the average load").
    pub fn weighted(weights: BTreeMap<LeafId, Vec<(PathId, f64)>>) -> PrestoSpray {
        PrestoSpray {
            weights,
            state: BTreeMap::new(),
        }
    }
}

impl EdgeLb for PrestoSpray {
    fn select_path(
        &mut self,
        ctx: &FlowCtx,
        candidates: &[PathId],
        _now: Time,
        _rng: &mut SimRng,
    ) -> PathId {
        let swrr = self.state.entry(ctx.dst_leaf).or_insert_with(|| {
            match self.weights.get(&ctx.dst_leaf) {
                Some(w) => Swrr::new(w),
                None => Swrr::new(&candidates.iter().map(|&p| (p, 1.0)).collect::<Vec<_>>()),
            }
        });
        swrr.next(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn presto_equal_weights_is_uniform() {
        let mut lb = PrestoSpray::equal();
        let mut rng = SimRng::new(0);
        let cands = [PathId(0), PathId(1), PathId(2), PathId(3)];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[lb.select_path(&ctx(1), &cands, Time::ZERO, &mut rng).0 as usize] += 1;
        }
        assert_eq!(counts, [1000; 4]);
    }

    #[test]
    fn presto_weighted_matches_ratio() {
        // Fig. 3's 1:10 capacity split.
        let mut w = BTreeMap::new();
        w.insert(LeafId(1), vec![(PathId(0), 1.0), (PathId(1), 10.0)]);
        let mut lb = PrestoSpray::weighted(w);
        let mut rng = SimRng::new(0);
        let cands = [PathId(0), PathId(1)];
        let mut counts = [0usize; 2];
        for _ in 0..1100 {
            counts[lb.select_path(&ctx(1), &cands, Time::ZERO, &mut rng).0 as usize] += 1;
        }
        assert_eq!(counts, [100, 1000]);
    }

    #[test]
    fn weighted_skips_dead_paths() {
        let mut w = BTreeMap::new();
        w.insert(
            LeafId(1),
            vec![(PathId(0), 1.0), (PathId(1), 1.0), (PathId(2), 1.0)],
        );
        let mut lb = PrestoSpray::weighted(w);
        let mut rng = SimRng::new(0);
        // Path 1 cut.
        let cands = [PathId(0), PathId(2)];
        for _ in 0..10 {
            let p = lb.select_path(&ctx(1), &cands, Time::ZERO, &mut rng);
            assert!(cands.contains(&p));
        }
    }
}
