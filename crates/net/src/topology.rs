//! Leaf-spine topology description and builders.

#![expect(
    clippy::float_arithmetic,
    reason = "link-rate unit conversions for construction and display, not in the event path"
)]

use hermes_sim::{SimRng, Time};

use crate::packet::{ACK_SIZE, HDR, MSS};
use crate::types::{HostId, LeafId, PathId, SpineId};

/// A unidirectional link's physical parameters. All links in this fabric
/// are full-duplex pairs with identical parameters in both directions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkCfg {
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: Time,
}

impl LinkCfg {
    pub fn new(rate_bps: u64, delay: Time) -> LinkCfg {
        LinkCfg { rate_bps, delay }
    }

    /// Gigabits per second, fractional.
    pub fn gbps(&self) -> f64 {
        self.rate_bps as f64 / 1e9
    }
}

// Per-port queue parameters scale with the port's line rate.
//
// DCTCP-style ECN marking thresholds grow with line rate (the classic
// guideline is K ≈ C·RTT/7); commodity buffers likewise. Thresholds are
// `max(floor, per_gbps × gbps)`: 10 Gbps ports mark at 100 KB (≈ 80 µs
// of one-hop queueing — the paper's "one hop delay") and buffer 400 KB;
// 1 Gbps ports mark at 30 KB (the paper's testbed setting) and buffer
// 200 KB.

/// ECN marking threshold scaling (bytes per Gbps of line rate).
const ECN_PER_GBPS: f64 = 10_000.0;
/// Minimum ECN marking threshold (bytes).
const ECN_FLOOR: u64 = 30_000;
/// Buffer size scaling (bytes per Gbps of line rate).
const BUF_PER_GBPS: f64 = 40_000.0;
/// Minimum per-port buffer (bytes).
const BUF_FLOOR: u64 = 200_000;

/// ECN marking threshold for a switch port of the given rate.
pub(crate) fn ecn_threshold(rate_bps: u64) -> u64 {
    let scaled = (ECN_PER_GBPS * rate_bps as f64 / 1e9) as u64;
    scaled.max(ECN_FLOOR)
}

/// Tail-drop buffer limit for a switch port of the given rate.
pub(crate) fn buffer_limit(rate_bps: u64) -> u64 {
    let scaled = (BUF_PER_GBPS * rate_bps as f64 / 1e9) as u64;
    scaled.max(BUF_FLOOR)
}

/// A two-tier leaf-spine fabric.
///
/// `up[leaf][spine]` is the (bidirectional) link between a leaf and a
/// spine; `None` models a cut link. Host links are uniform per fabric.
#[derive(Clone, Debug)]
pub struct Topology {
    pub n_leaves: usize,
    pub n_spines: usize,
    pub hosts_per_leaf: usize,
    pub host_link: LinkCfg,
    pub up: Vec<Vec<Option<LinkCfg>>>,
}

impl Topology {
    /// A fully symmetric leaf-spine fabric.
    pub fn leaf_spine(
        n_leaves: usize,
        n_spines: usize,
        hosts_per_leaf: usize,
        host_link: LinkCfg,
        fabric_link: LinkCfg,
    ) -> Topology {
        assert!(n_leaves >= 1 && n_spines >= 1 && hosts_per_leaf >= 1);
        assert!(n_leaves <= u16::MAX as usize && n_spines < (u16::MAX - 1) as usize);
        Topology {
            n_leaves,
            n_spines,
            hosts_per_leaf,
            host_link,
            up: vec![vec![Some(fabric_link); n_spines]; n_leaves],
        }
    }

    /// The paper's large-simulation baseline (§5.3.1): 8×8 leaf-spine,
    /// 128 hosts, 10 Gbps links, 2:1 oversubscription at the leaf.
    ///
    /// Propagation delays are chosen so the empty-fabric RTT is ≈60 µs,
    /// matching the parameter regime of §3.3 (T_RTT_high = 180 µs =
    /// base RTT + 1.5 × 80 µs one-hop delay).
    pub fn sim_baseline() -> Topology {
        Topology::leaf_spine(
            8,
            8,
            16,
            LinkCfg::new(10_000_000_000, Time::from_us(5)),
            LinkCfg::new(10_000_000_000, Time::from_us(10)),
        )
    }

    /// The paper's testbed (§5.2, Fig. 8a): 12 servers in 2 racks,
    /// 1 Gbps links, 3:2 oversubscription at the leaf — 6 Gbps of host
    /// capacity against 4 Gbps of uplink per leaf. The testbed's 2 spine
    /// boxes with 2 parallel links each are modelled as 4 virtual
    /// single-link spines (path-equivalent in a 2-tier Clos); cutting
    /// one (Fig. 8b) leaves 75% of the bisection, matching §5.2.
    pub fn testbed() -> Topology {
        Topology::leaf_spine(
            2,
            4,
            6,
            LinkCfg::new(1_000_000_000, Time::from_us(3)),
            LinkCfg::new(1_000_000_000, Time::from_us(3)),
        )
    }

    /// Cut the link between `leaf` and `spine` (topology asymmetry via
    /// link failure, as in Fig. 8b).
    pub fn cut_link(&mut self, leaf: LeafId, spine: SpineId) {
        self.up[leaf.0 as usize][spine.0 as usize] = None;
    }

    /// Reduce the capacity of one leaf-spine link (device heterogeneity).
    pub fn degrade_link(&mut self, leaf: LeafId, spine: SpineId, rate_bps: u64) {
        let l = &mut self.up[leaf.0 as usize][spine.0 as usize];
        match l {
            Some(cfg) => cfg.rate_bps = rate_bps,
            None => panic!("degrading a cut link"),
        }
    }

    /// The paper's asymmetric scenario (§5.3.2): degrade a random
    /// `fraction` of leaf-spine links to `rate_bps`, chosen with `rng`.
    pub fn degrade_random_links(&mut self, fraction: f64, rate_bps: u64, rng: &mut SimRng) {
        let total = self.n_leaves * self.n_spines;
        let k = ((total as f64) * fraction).round() as usize;
        for idx in rng.sample_distinct(total, k) {
            let (l, s) = (idx / self.n_spines, idx % self.n_spines);
            if let Some(cfg) = &mut self.up[l][s] {
                cfg.rate_bps = rate_bps;
            }
        }
    }

    /// Total number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.n_leaves * self.hosts_per_leaf
    }

    /// The leaf a host hangs off.
    #[inline]
    pub fn host_leaf(&self, h: HostId) -> LeafId {
        debug_assert!((h.0 as usize) < self.n_hosts());
        LeafId((h.0 as usize / self.hosts_per_leaf) as u16)
    }

    /// Position of a host under its leaf (down-port index).
    #[inline]
    pub fn host_slot(&self, h: HostId) -> usize {
        h.0 as usize % self.hosts_per_leaf
    }

    /// Hosts under a leaf.
    pub fn leaf_hosts(&self, l: LeafId) -> impl Iterator<Item = HostId> {
        let base = l.0 as usize * self.hosts_per_leaf;
        (base..base + self.hosts_per_leaf).map(|i| HostId(i as u32))
    }

    /// The first host under a leaf (used as the rack's probe agent).
    pub fn leaf_agent(&self, l: LeafId) -> HostId {
        HostId((l.0 as usize * self.hosts_per_leaf) as u32)
    }

    /// Live paths between two distinct leaves: every spine whose links to
    /// both leaves are up.
    pub fn path_candidates(&self, a: LeafId, b: LeafId) -> Vec<PathId> {
        assert_ne!(a, b, "no spine path within a rack");
        (0..self.n_spines)
            .filter(|&s| self.up[a.0 as usize][s].is_some() && self.up[b.0 as usize][s].is_some())
            .map(|s| PathId(s as u16))
            .collect()
    }

    /// The empty-fabric round-trip time for a full-MSS data packet and
    /// its ACK across the *fastest* live spine path between two leaves:
    /// store-and-forward serialization at every hop plus propagation,
    /// both directions. This is the paper's "base RTT".
    pub fn base_rtt(&self) -> Time {
        let mut best: Option<Time> = None;
        for l in 0..self.n_leaves {
            for m in 0..self.n_leaves {
                if l == m {
                    continue;
                }
                for s in 0..self.n_spines {
                    if let (Some(u), Some(d)) = (self.up[l][s], self.up[m][s]) {
                        let rtt = self.rtt_via(u, d);
                        best = Some(best.map_or(rtt, |b: Time| b.min(rtt)));
                    }
                }
            }
        }
        best.unwrap_or_else(|| {
            // Single-rack fabric: host → leaf → host.
            let h = self.host_link;
            let data = (Time::tx_time((MSS + HDR) as u64, h.rate_bps) + h.delay) * 2;
            let ack = (Time::tx_time(ACK_SIZE as u64, h.rate_bps) + h.delay) * 2;
            data + ack
        })
    }

    fn rtt_via(&self, up: LinkCfg, down: LinkCfg) -> Time {
        let h = self.host_link;
        let data_hops = [h, up, down, h];
        let mut t = Time::ZERO;
        for l in data_hops {
            t += Time::tx_time((MSS + HDR) as u64, l.rate_bps) + l.delay;
        }
        for l in data_hops {
            t += Time::tx_time(ACK_SIZE as u64, l.rate_bps) + l.delay;
        }
        t
    }

    /// The paper's "one hop delay": the queueing delay a fully loaded hop
    /// sustains under DCTCP, i.e. ECN marking threshold / line rate, for
    /// the fastest fabric link.
    pub fn one_hop_delay(&self) -> Time {
        let rate = self
            .up
            .iter()
            .flatten()
            .flatten()
            .map(|l| l.rate_bps)
            .max()
            .unwrap_or(self.host_link.rate_bps);
        let k = ecn_threshold(rate);
        Time::tx_time(k, rate)
    }

    /// Aggregate capacity of all live leaf uplinks (the fabric's
    /// bisection-ish capacity against which offered load is defined).
    pub fn total_uplink_bps(&self) -> u64 {
        self.up.iter().flatten().flatten().map(|l| l.rate_bps).sum()
    }

    /// Whether every pair of leaves still shares a live spine (which
    /// also means every leaf keeps an uplink). Front ends call this after
    /// applying user-supplied cuts, so a disconnected fabric is an input
    /// error instead of a panic deep in a run.
    pub fn check_connected(&self) -> Result<(), String> {
        for a in 0..self.n_leaves {
            for b in a + 1..self.n_leaves {
                if self
                    .path_candidates(LeafId(a as u16), LeafId(b as u16))
                    .is_empty()
                {
                    return Err(format!("leaves {a} and {b} share no live spine"));
                }
            }
        }
        Ok(())
    }

    /// Sanity-check invariants; panics on inconsistency. Called by the
    /// fabric constructor.
    pub fn validate(&self) {
        assert_eq!(self.up.len(), self.n_leaves);
        for row in &self.up {
            assert_eq!(row.len(), self.n_spines);
        }
        assert!(self.host_link.rate_bps > 0);
        for l in self.up.iter().flatten().flatten() {
            assert!(l.rate_bps > 0, "zero-rate fabric link");
        }
        // Every leaf must keep at least one live uplink if there are >1 leaves.
        if self.n_leaves > 1 {
            for (i, row) in self.up.iter().enumerate() {
                assert!(
                    row.iter().any(Option::is_some),
                    "leaf {i} has no live uplinks"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_shape() {
        let t = Topology::sim_baseline();
        assert_eq!(t.n_hosts(), 128);
        assert_eq!(t.path_candidates(LeafId(0), LeafId(1)).len(), 8);
        t.validate();
        // 2:1 oversubscription: 16×10G down vs 8×10G up per leaf.
        assert_eq!(t.total_uplink_bps(), 8 * 8 * 10_000_000_000);
    }

    #[test]
    fn testbed_shape() {
        let t = Topology::testbed();
        assert_eq!(t.n_hosts(), 12);
        assert_eq!(t.path_candidates(LeafId(0), LeafId(1)).len(), 4);
        t.validate();
    }

    #[test]
    fn host_indexing() {
        let t = Topology::sim_baseline();
        assert_eq!(t.host_leaf(HostId(0)), LeafId(0));
        assert_eq!(t.host_leaf(HostId(15)), LeafId(0));
        assert_eq!(t.host_leaf(HostId(16)), LeafId(1));
        assert_eq!(t.host_slot(HostId(17)), 1);
        assert_eq!(t.leaf_agent(LeafId(3)), HostId(48));
        let hosts: Vec<_> = t.leaf_hosts(LeafId(1)).collect();
        assert_eq!(hosts.len(), 16);
        assert_eq!(hosts[0], HostId(16));
    }

    #[test]
    fn cut_link_removes_candidate() {
        let mut t = Topology::testbed();
        t.cut_link(LeafId(0), SpineId(3));
        let c = t.path_candidates(LeafId(0), LeafId(1));
        assert_eq!(c, vec![PathId(0), PathId(1), PathId(2)]);
        // The other leaf pair direction is equally affected.
        assert_eq!(
            t.path_candidates(LeafId(1), LeafId(0)),
            vec![PathId(0), PathId(1), PathId(2)]
        );
    }

    #[test]
    fn degrade_random_links_hits_fraction() {
        let mut t = Topology::sim_baseline();
        let mut rng = SimRng::new(1);
        t.degrade_random_links(0.2, 2_000_000_000, &mut rng);
        let degraded =
            t.up.iter()
                .flatten()
                .flatten()
                .filter(|l| l.rate_bps == 2_000_000_000)
                .count();
        assert_eq!(degraded, (64.0_f64 * 0.2).round() as usize);
        t.validate();
    }

    #[test]
    fn queue_thresholds_scale_with_rate() {
        assert_eq!(ecn_threshold(10_000_000_000), 100_000);
        assert_eq!(ecn_threshold(1_000_000_000), 30_000); // floor
        assert!(buffer_limit(10_000_000_000) > ecn_threshold(10_000_000_000));
    }

    #[test]
    fn base_rtt_in_expected_regime() {
        // Sim baseline: ≈ 60 µs empty-fabric RTT (paper §3.3 regime).
        let rtt = Topology::sim_baseline().base_rtt();
        assert!(
            rtt > Time::from_us(50) && rtt < Time::from_us(80),
            "base rtt {rtt}"
        );
        // One-hop delay ≈ 80 µs (100 KB at 10 Gbps).
        let hop = Topology::sim_baseline().one_hop_delay();
        assert_eq!(hop, Time::from_us(80));
    }

    #[test]
    fn base_rtt_uses_fastest_path() {
        let mut t = Topology::testbed();
        let before = t.base_rtt();
        // Degrading one link must not change the *fastest* path RTT.
        t.degrade_link(LeafId(0), SpineId(0), 100_000_000);
        assert_eq!(t.base_rtt(), before);
    }

    #[test]
    #[should_panic]
    fn no_intra_rack_spine_paths() {
        let t = Topology::testbed();
        let _ = t.path_candidates(LeafId(0), LeafId(0));
    }
}
