//! Open-loop Poisson flow generation, following the paper's methodology
//! (§5.1): "flows between random senders and receivers under different
//! leaf switches according to Poisson processes with varying traffic
//! loads", using the flow generator of [8].

use hermes_net::{FlowId, HostId, Topology};
use hermes_sim::{SimRng, Time};

use crate::dist::FlowSizeDist;

/// One generated flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowSpec {
    pub id: FlowId,
    pub src: HostId,
    pub dst: HostId,
    /// Payload bytes.
    pub size: u64,
    /// Arrival (start) time.
    pub start: Time,
}

/// Poisson open-loop generator of inter-rack flows, whatever the size
/// law.
///
/// Offered load is defined against the fabric's aggregate live uplink
/// capacity (the standard convention for leaf-spine evaluations): the
/// fabric-wide flow arrival rate is
/// `λ = load × Σ(uplink bps) / (8 × E[flow size])`.
pub struct FlowGen {
    rng: SimRng,
    dist: FlowSizeDist,
    /// Mean inter-arrival time in seconds.
    mean_iat_s: f64,
    n_leaves: usize,
    hosts_per_leaf: usize,
    next_id: u64,
    clock: Time,
}

impl FlowGen {
    /// A generator for `topo` at offered `load ∈ (0, 1.5]` (relative to
    /// the *symmetric* fabric's uplink capacity if `capacity_bps` is
    /// given, else the topology's current live capacity), drawing sizes
    /// from `dist`. Panics on a load out of range or an elephant/mice
    /// mix outside the one `PointCfg::validate` accepts.
    pub fn new(
        topo: &Topology,
        dist: FlowSizeDist,
        load: f64,
        capacity_bps: Option<u64>,
        rng: SimRng,
    ) -> FlowGen {
        assert!(load > 0.0 && load <= 1.5, "load {load} out of range");
        assert!(topo.n_leaves >= 2, "inter-rack workload needs ≥2 racks");
        if let Some(m) = dist.mix() {
            let modes = m.mice_bytes >= 1 && m.elephant_bytes > m.mice_bytes;
            assert!(modes, "mix must have elephant > mice ≥ 1 byte");
            let frac = m.elephant_frac;
            assert!(
                (0.0..=1.0).contains(&frac),
                "elephant_frac {frac} out of [0, 1]"
            );
        }
        let cap = capacity_bps.unwrap_or_else(|| topo.total_uplink_bps()) as f64;
        let mean_size_bits = dist.mean_bytes() * 8.0;
        let lambda = load * cap / mean_size_bits; // flows per second
        FlowGen {
            rng,
            dist,
            mean_iat_s: 1.0 / lambda,
            n_leaves: topo.n_leaves,
            hosts_per_leaf: topo.hosts_per_leaf,
            next_id: 0,
            clock: Time::ZERO,
        }
    }

    /// Fabric-wide arrival rate (flows per second).
    pub fn lambda(&self) -> f64 {
        1.0 / self.mean_iat_s
    }

    /// Generate the next flow: exponential inter-arrival, uniform random
    /// sender, uniform random receiver under a *different* leaf.
    pub fn next_flow(&mut self) -> FlowSpec {
        let dt = self.rng.exp(self.mean_iat_s);
        self.clock += Time::from_secs_f64(dt);
        let n_hosts = self.n_leaves * self.hosts_per_leaf;
        let src = self.rng.below(n_hosts);
        let src_leaf = src / self.hosts_per_leaf;
        let dst =
            host_under_other_leaf(&mut self.rng, src_leaf, self.n_leaves, self.hosts_per_leaf);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        FlowSpec {
            id,
            src: HostId(src as u32),
            dst: HostId(dst as u32),
            size: self.dist.sample(&mut self.rng),
            start: self.clock,
        }
    }

    /// Generate a fixed-count schedule.
    pub fn schedule(&mut self, n: usize) -> Vec<FlowSpec> {
        (0..n).map(|_| self.next_flow()).collect()
    }
}

/// A uniform host under any leaf but `leaf`: a uniform other leaf,
/// then a uniform host under it (two `below` draws, in that order).
pub(crate) fn host_under_other_leaf(
    rng: &mut SimRng,
    leaf: usize,
    n_leaves: usize,
    hosts_per_leaf: usize,
) -> usize {
    let r = rng.below(n_leaves - 1);
    let other = if r >= leaf { r + 1 } else { r };
    other * hosts_per_leaf + rng.below(hosts_per_leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::MixCfg;

    /// 20 KB mice, 1 MB elephants, one flow in ten an elephant.
    fn mix() -> MixCfg {
        MixCfg {
            mice_bytes: 20_000,
            elephant_bytes: 1_000_000,
            elephant_frac: 0.1,
        }
    }

    /// Both kinds of size law: the paper's CDF and the two-point mix.
    fn laws() -> [FlowSizeDist; 2] {
        [
            FlowSizeDist::web_search(),
            FlowSizeDist::elephant_mice(mix()),
        ]
    }

    fn gen(dist: FlowSizeDist, load: f64, seed: u64) -> FlowGen {
        FlowGen::new(
            &Topology::sim_baseline(),
            dist,
            load,
            None,
            SimRng::new(seed),
        )
    }

    #[test]
    fn flows_are_inter_rack_and_increasing_in_time() {
        for dist in laws() {
            let mix = dist.mix();
            let mut g = gen(dist, 0.5, 77);
            let mut last = Time::ZERO;
            for _ in 0..5000 {
                let f = g.next_flow();
                assert_ne!(f.src, f.dst);
                assert_ne!(f.src.0 / 16, f.dst.0 / 16, "must cross racks");
                assert!(f.start >= last);
                last = f.start;
                assert!(f.size >= 1);
                if let Some(m) = mix {
                    assert!(f.size == m.mice_bytes || f.size == m.elephant_bytes);
                }
            }
        }
    }

    #[test]
    fn elephant_fraction_converges() {
        let flows = gen(FlowSizeDist::elephant_mice(mix()), 0.4, 12).schedule(20_000);
        let elephants = flows.iter().filter(|f| f.size == 1_000_000).count();
        let frac = elephants as f64 / flows.len() as f64;
        assert!((frac - 0.1).abs() < 0.01, "elephant frac {frac}");
    }

    #[test]
    fn offered_load_matches_request() {
        // Empirical offered rate = Σ size / horizon should be ≈ load × capacity.
        for dist in laws() {
            let flows = gen(dist, 0.6, 77).schedule(60_000);
            let horizon = flows.last().unwrap().start.as_secs_f64();
            let bits: f64 = flows.iter().map(|f| f.size as f64 * 8.0).sum();
            let offered = bits / horizon;
            let want = 0.6 * Topology::sim_baseline().total_uplink_bps() as f64;
            assert!(
                (offered - want).abs() / want < 0.07,
                "offered {offered:.3e} want {want:.3e}"
            );
        }
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let flows = gen(FlowSizeDist::web_search(), 0.3, 77).schedule(100);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.id, FlowId(i as u64));
        }
    }

    #[test]
    fn explicit_capacity_replaces_live_capacity() {
        // Asymmetric runs keep the load defined against the healthy
        // fabric (as the paper does): same λ regardless of degradation.
        let topo = Topology::sim_baseline();
        let healthy_cap = topo.total_uplink_bps();
        let mut degraded = topo.clone();
        let mut rng = SimRng::new(3);
        degraded.degrade_random_links(0.2, 2_000_000_000, &mut rng);
        let g1 = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.5, None, SimRng::new(1));
        let g2 = FlowGen::new(
            &degraded,
            FlowSizeDist::web_search(),
            0.5,
            Some(healthy_cap),
            SimRng::new(1),
        );
        assert!((g1.lambda() - g2.lambda()).abs() < 1e-9);
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        for dist in laws() {
            let mut a = gen(dist.clone(), 0.4, 77);
            let mut b = gen(dist, 0.4, 77);
            for _ in 0..200 {
                assert_eq!(a.next_flow(), b.next_flow());
            }
        }
    }

    #[test]
    #[should_panic(expected = "elephant_frac 1.5 out of [0, 1]")]
    fn refuses_a_mix_outside_its_range() {
        let bad = MixCfg {
            elephant_frac: 1.5,
            ..mix()
        };
        gen(FlowSizeDist::elephant_mice(bad), 0.4, 1);
    }
}
