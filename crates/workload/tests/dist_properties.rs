//! Property tests for the flow-size distributions and the Poisson
//! generator: every sampled size must stay inside the CDF's support for
//! *any* seed and any well-formed set of control points, and the
//! empirical mean must converge to the analytic `mean_bytes()` with a
//! CLT-sized tolerance.

use hermes_net::Topology;
use hermes_sim::{SimRng, Time};
use hermes_workload::{FlowGen, FlowSizeDist, MixCfg};
use proptest::prelude::*;

/// Turn raw `(size_step, prob_weight)` pairs into well-formed CDF
/// control points: strictly increasing sizes, strictly increasing
/// probabilities, first probability 0, last exactly 1.
fn cdf_points(steps: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let total: f64 = steps.iter().map(|s| s.1).sum();
    let mut pts = vec![(1.0, 0.0)];
    let (mut size, mut cum) = (1.0, 0.0);
    for (i, (dx, w)) in steps.iter().enumerate() {
        size += dx;
        cum += w;
        let p = if i == steps.len() - 1 {
            1.0
        } else {
            cum / total
        };
        pts.push((size, p));
    }
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any well-formed CDF, any seed: samples never leave the support,
    /// the inverse CDF is monotone, and `cdf ∘ quantile` is the
    /// identity on probabilities (the strategy has no flat segments).
    #[test]
    fn random_cdfs_sample_within_support(
        steps in proptest::collection::vec((1.0f64..1e6, 0.01f64..1.0), 2..8),
        seed in any::<u64>(),
    ) {
        let pts = cdf_points(&steps);
        let dist = FlowSizeDist::from_points("prop", &pts);
        let (lo, hi) = dist.support();
        prop_assert!(lo >= 1 && lo < hi);

        let mut rng = SimRng::new(seed);
        for _ in 0..512 {
            let s = dist.sample(&mut rng);
            prop_assert!(s >= lo && s <= hi, "sample {s} outside [{lo}, {hi}]");
        }

        let mut last = f64::NEG_INFINITY;
        for i in 0..=64 {
            let p = i as f64 / 64.0;
            let x = dist.quantile(p);
            prop_assert!(x >= last, "quantile not monotone at p={p}");
            last = x;
            let back = dist.cdf(x);
            prop_assert!((back - p).abs() < 1e-6, "cdf(quantile({p})) = {back}");
        }

        // The analytic mean must sit strictly inside the support — it
        // is an average of segment midpoints.
        let mean = dist.mean_bytes();
        prop_assert!(mean > lo as f64 && mean < hi as f64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any fixed seed, the empirical mean of the canonical
    /// workloads converges to the analytic mean. Tolerances are sized
    /// from the CLT: at n = 50 000 the web-search sample mean has a
    /// relative σ ≈ 1.1% (tolerance is ≈9σ) and the far heavier
    /// data-mining tail has σ ≈ 2.8% (tolerance ≈7σ), so a trip means
    /// a sampling bug, not bad luck.
    #[test]
    fn empirical_mean_converges_for_any_seed(
        seed in any::<u64>(),
        heavy in any::<bool>(),
    ) {
        let (dist, tol) = if heavy {
            (FlowSizeDist::data_mining(), 0.20)
        } else {
            (FlowSizeDist::web_search(), 0.10)
        };
        let mut rng = SimRng::new(seed);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| dist.sample(&mut rng) as f64).sum();
        let got = sum / n as f64;
        let want = dist.mean_bytes();
        prop_assert!(
            (got - want).abs() / want < tol,
            "{}: empirical mean {got:.3e} vs analytic {want:.3e}",
            dist.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The open-loop generator inherits the distribution's support and
    /// the topology's structure for any size law, load and seed: sizes
    /// in support (a two-point law's are exactly its two modes), flows
    /// strictly inter-rack, arrivals nondecreasing, ids dense.
    #[test]
    fn flowgen_respects_support_and_topology(
        load in 0.1f64..1.0,
        seed in any::<u64>(),
        law in 0..3usize,
        elephant_frac in 0.0f64..1.0,
    ) {
        let topo = Topology::sim_baseline();
        let dist = match law {
            0 => FlowSizeDist::web_search(),
            1 => FlowSizeDist::data_mining(),
            _ => FlowSizeDist::elephant_mice(MixCfg {
                mice_bytes: 20_000,
                elephant_bytes: 1_000_000,
                elephant_frac,
            }),
        };
        let (lo, hi) = dist.support();
        let two_point = dist.mix().is_some();
        let mut g = FlowGen::new(&topo, dist, load, None, SimRng::new(seed));
        let flows = g.schedule(256);
        let mut last = Time::ZERO;
        for (i, f) in flows.iter().enumerate() {
            prop_assert_eq!(f.id.0, i as u64);
            prop_assert!(f.size >= lo && f.size <= hi);
            prop_assert!(!two_point || f.size == lo || f.size == hi);
            let (src_leaf, dst_leaf) = (
                f.src.0 as usize / topo.hosts_per_leaf,
                f.dst.0 as usize / topo.hosts_per_leaf,
            );
            prop_assert_ne!(src_leaf, dst_leaf, "flow {i} stayed intra-rack");
            prop_assert!(f.start >= last);
            last = f.start;
        }
    }
}
