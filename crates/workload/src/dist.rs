//! Flow-size distributions.
//!
//! The paper evaluates on the two canonical heavy-tailed datacenter
//! workloads (§5.1, Fig. 7):
//!
//! * **web-search** — from the DCTCP measurement study (Alizadeh et al.,
//!   SIGCOMM 2010),
//! * **data-mining** — from VL2 (Greenberg et al., SIGCOMM 2009).
//!
//! The CDF control points below are the ones shipped with the flow
//! generator the paper uses ([8], the HKUST-SING traffic generator).
//! Sampling inverts the piecewise-linear CDF.
//!
//! A third law, [`FlowSizeDist::elephant_mice`], is DiffFlow's bimodal
//! mix: every flow is either a mouse or an elephant, nothing between.

use hermes_sim::SimRng;

/// A flow-size distribution: a piecewise-linear CDF over bytes, or a
/// two-point elephant/mice law.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowSizeDist {
    name: &'static str,
    law: Law,
}

#[derive(Clone, Debug, PartialEq)]
enum Law {
    /// `(size_bytes, cumulative_probability)`, strictly increasing in
    /// both coordinates, first probability 0, last probability 1.
    Cdf(Vec<(f64, f64)>),
    /// A mouse or an elephant per draw.
    TwoPoint(MixCfg),
}

/// Bimodal size mix: mice with probability `1 - elephant_frac`,
/// elephants otherwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixCfg {
    pub mice_bytes: u64,
    pub elephant_bytes: u64,
    /// Probability a draw is an elephant, in `[0, 1]`.
    pub elephant_frac: f64,
}

/// Web-search CDF control points (bytes, cum. prob.).
const WEB_SEARCH_POINTS: &[(f64, f64)] = &[
    (1.0, 0.0),
    (10_000.0, 0.15),
    (20_000.0, 0.20),
    (30_000.0, 0.30),
    (50_000.0, 0.40),
    (80_000.0, 0.53),
    (200_000.0, 0.60),
    (1_000_000.0, 0.70),
    (2_000_000.0, 0.80),
    (5_000_000.0, 0.90),
    (10_000_000.0, 0.97),
    (30_000_000.0, 1.00),
];

/// Data-mining CDF control points (bytes, cum. prob.).
const DATA_MINING_POINTS: &[(f64, f64)] = &[
    (1.0, 0.0),
    (180.0, 0.10),
    (216.0, 0.20),
    (560.0, 0.30),
    (900.0, 0.40),
    (1_100.0, 0.50),
    (60_000.0, 0.60),
    (90_000.0, 0.70),
    (350_000.0, 0.80),
    (5_800_000.0, 0.90),
    (23_000_000.0, 0.95),
    (100_000_000.0, 0.98),
    (1_000_000_000.0, 1.00),
];

impl FlowSizeDist {
    /// The DCTCP web-search workload. Bursty, many small flows;
    /// ≈30% of flows below 30 KB carry little of the bytes.
    pub fn web_search() -> FlowSizeDist {
        FlowSizeDist::from_points("web-search", WEB_SEARCH_POINTS)
    }

    /// The VL2 data-mining workload. Extremely skewed: ~95% of bytes in
    /// the few flows above 35 MB (§5.1).
    pub fn data_mining() -> FlowSizeDist {
        FlowSizeDist::from_points("data-mining", DATA_MINING_POINTS)
    }

    /// A distribution from custom control points (validated).
    pub fn from_points(name: &'static str, pts: &[(f64, f64)]) -> FlowSizeDist {
        assert!(pts.len() >= 2, "need at least two CDF points");
        assert_eq!(pts[0].1, 0.0, "CDF must start at probability 0");
        assert_eq!(pts[pts.len() - 1].1, 1.0, "CDF must end at probability 1");
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must strictly increase");
            assert!(w[0].1 <= w[1].1, "probabilities must not decrease");
        }
        FlowSizeDist {
            name,
            law: Law::Cdf(pts.to_vec()),
        }
    }

    /// DiffFlow's elephant/mice mix. [`crate::FlowGen::new`] refuses a
    /// mix outside `elephant_bytes > mice_bytes ≥ 1` and
    /// `elephant_frac ∈ [0, 1]`.
    pub fn elephant_mice(mix: MixCfg) -> FlowSizeDist {
        FlowSizeDist {
            name: "elephant-mice",
            law: Law::TwoPoint(mix),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The two-point law's mix; `None` for a CDF.
    pub fn mix(&self) -> Option<MixCfg> {
        match self.law {
            Law::TwoPoint(m) => Some(m),
            Law::Cdf(_) => None,
        }
    }

    /// Smallest and largest producible sizes (a two-point law's two
    /// modes).
    pub fn support(&self) -> (u64, u64) {
        match &self.law {
            Law::Cdf(pts) => (pts[0].0.max(1.0) as u64, pts[pts.len() - 1].0 as u64),
            Law::TwoPoint(m) => (m.mice_bytes, m.elephant_bytes),
        }
    }

    /// The distribution mean: integrated exactly over the
    /// piecewise-linear CDF (uniform within each segment), or the mix's
    /// weighted mean.
    pub fn mean_bytes(&self) -> f64 {
        match &self.law {
            Law::Cdf(pts) => pts
                .windows(2)
                .map(|w| (w[1].1 - w[0].1) * (w[0].0 + w[1].0) / 2.0)
                .sum(),
            Law::TwoPoint(m) => {
                m.elephant_frac * m.elephant_bytes as f64
                    + (1.0 - m.elephant_frac) * m.mice_bytes as f64
            }
        }
    }

    /// Inverse-CDF at probability `p ∈ [0, 1]` (a two-point law's is a
    /// step: mice up to `1 - elephant_frac`, elephants above).
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let pts = match &self.law {
            Law::Cdf(pts) => pts,
            Law::TwoPoint(m) if p <= 1.0 - m.elephant_frac => return m.mice_bytes as f64,
            Law::TwoPoint(m) => return m.elephant_bytes as f64,
        };
        for w in pts.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if p <= p1 {
                if p1 == p0 {
                    return x1;
                }
                return x0 + (x1 - x0) * (p - p0) / (p1 - p0);
            }
        }
        pts[pts.len() - 1].0
    }

    /// CDF value at `size` (for plotting Fig. 7; a step for a
    /// two-point law).
    pub fn cdf(&self, size: f64) -> f64 {
        let pts = match &self.law {
            Law::Cdf(pts) => pts,
            Law::TwoPoint(m) if size < m.mice_bytes as f64 => return 0.0,
            Law::TwoPoint(m) if size < m.elephant_bytes as f64 => return 1.0 - m.elephant_frac,
            Law::TwoPoint(_) => return 1.0,
        };
        if size <= pts[0].0 {
            return 0.0;
        }
        for w in pts.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if size <= x1 {
                return p0 + (p1 - p0) * (size - x0) / (x1 - x0);
            }
        }
        1.0
    }

    /// Draw one flow size (at least 1 byte): one uniform draw for a
    /// CDF, one [`SimRng::chance`] for a two-point law (none at all
    /// when `elephant_frac` is 0 or 1).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match &self.law {
            Law::Cdf(_) => (self.quantile(rng.f64()).round() as u64).max(1),
            Law::TwoPoint(m) if rng.chance(m.elephant_frac) => m.elephant_bytes,
            Law::TwoPoint(m) => m.mice_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_are_in_published_ballpark() {
        // Web-search mean ≈ 1.7 MB; data-mining ≈ 14 MB with these
        // control points (both heavy-tailed, data-mining far more).
        let ws = FlowSizeDist::web_search().mean_bytes();
        let dm = FlowSizeDist::data_mining().mean_bytes();
        assert!((1.4e6..2.0e6).contains(&ws), "web-search mean {ws:.3e}");
        assert!((1.0e7..1.8e7).contains(&dm), "data-mining mean {dm:.3e}");
        assert!(dm > 5.0 * ws, "data-mining must be much heavier");
    }

    #[test]
    fn data_mining_tail_matches_paper_claim() {
        // §5.1: ~95% of bytes belong to ~3.6% of flows larger than 35 MB.
        let dm = FlowSizeDist::data_mining();
        let frac_flows_above = 1.0 - dm.cdf(35e6);
        assert!(
            (0.02..0.06).contains(&frac_flows_above),
            "flows >35MB: {frac_flows_above}"
        );
        // Bytes above 35 MB / total bytes.
        let total = dm.mean_bytes();
        let Law::Cdf(pts) = &dm.law else {
            unreachable!("data-mining is a CDF")
        };
        let above: f64 = pts
            .windows(2)
            .map(|w| {
                let (x0, p0) = w[0];
                let (x1, p1) = w[1];
                if x1 <= 35e6 {
                    0.0
                } else if x0 >= 35e6 {
                    (p1 - p0) * (x0 + x1) / 2.0
                } else {
                    // Split the segment at 35 MB.
                    let pm = p0 + (p1 - p0) * (35e6 - x0) / (x1 - x0);
                    (p1 - pm) * (35e6 + x1) / 2.0
                }
            })
            .sum();
        let byte_frac = above / total;
        assert!(byte_frac > 0.85, "bytes in >35MB flows: {byte_frac}");
    }

    #[test]
    fn quantile_cdf_roundtrip() {
        for dist in [FlowSizeDist::web_search(), FlowSizeDist::data_mining()] {
            for i in 0..=100 {
                let p = i as f64 / 100.0;
                let x = dist.quantile(p);
                let back = dist.cdf(x);
                assert!(
                    (back - p).abs() < 1e-9,
                    "{}: p={p} x={x} back={back}",
                    dist.name()
                );
            }
        }
    }

    #[test]
    fn sample_stays_in_support_and_tracks_mean() {
        for dist in [FlowSizeDist::web_search(), FlowSizeDist::elephant_mice(MIX)] {
            let (lo, hi) = dist.support();
            let mut rng = SimRng::new(12);
            let n = 200_000;
            let mut sum = 0.0;
            for _ in 0..n {
                let s = dist.sample(&mut rng);
                assert!(s >= lo && s <= hi);
                sum += s as f64;
            }
            let got = sum / n as f64;
            let want = dist.mean_bytes();
            assert!(
                (got - want).abs() / want < 0.05,
                "{}: sample mean {got:.3e} vs analytic {want:.3e}",
                dist.name()
            );
        }
    }

    const MIX: MixCfg = MixCfg {
        mice_bytes: 20_000,
        elephant_bytes: 1_000_000,
        elephant_frac: 0.1,
    };

    #[test]
    fn two_point_law_answers_as_a_step() {
        let d = FlowSizeDist::elephant_mice(MIX);
        assert_eq!(
            (d.name(), d.mix(), d.support()),
            ("elephant-mice", Some(MIX), (20_000, 1_000_000))
        );
        assert_eq!(d.mean_bytes(), 0.1 * 1e6 + 0.9 * 2e4);
        for (p, x) in [(0.0, 2e4), (0.9, 2e4), (0.91, 1e6), (1.0, 1e6)] {
            assert_eq!(d.quantile(p), x, "quantile({p})");
        }
        for (x, p) in [(19_999.0, 0.0), (2e4, 0.9), (999_999.0, 0.9), (1e6, 1.0)] {
            assert_eq!(d.cdf(x), p, "cdf({x})");
        }
        assert_eq!(FlowSizeDist::web_search().mix(), None);
    }

    #[test]
    fn a_certain_mix_draws_no_randomness() {
        // `chance` at 0 or 1 consumes nothing: the stream stays aligned.
        for elephant_frac in [0.0, 1.0] {
            let d = FlowSizeDist::elephant_mice(MixCfg {
                elephant_frac,
                ..MIX
            });
            let (mut rng, mut twin) = (SimRng::new(5), SimRng::new(5));
            let want = if elephant_frac == 1.0 {
                1_000_000
            } else {
                20_000
            };
            assert_eq!(d.sample(&mut rng), want);
            assert_eq!(rng.u64(), twin.u64());
        }
    }

    #[test]
    fn quantile_is_monotone() {
        let dist = FlowSizeDist::data_mining();
        let mut last = 0.0;
        for i in 0..=1000 {
            let x = dist.quantile(i as f64 / 1000.0);
            assert!(x >= last);
            last = x;
        }
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_unsorted_points() {
        FlowSizeDist::from_points("bad", &[(10.0, 0.0), (5.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "start at probability 0")]
    fn rejects_bad_head() {
        FlowSizeDist::from_points("bad", &[(1.0, 0.5), (5.0, 1.0)]);
    }
}
