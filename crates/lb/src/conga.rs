//! CONGA (Alizadeh et al., SIGCOMM 2014) — distributed,
//! congestion-aware, flowlet-granularity load balancing in the fabric.
//!
//! Faithful mechanics at the level the Hermes paper depends on:
//!
//! * per-uplink/downlink DRE utilization estimators at every switch,
//! * in-band metadata: each packet carries `(lb_tag, ce)` where `ce`
//!   accumulates the max link utilization along its path,
//! * the destination leaf stores `ce` in its *congestion-from-leaf*
//!   table and piggybacks one `(fb_tag, fb_ce)` entry (round-robin) on
//!   reverse traffic, filling the source's *congestion-to-leaf* table,
//! * new flowlets choose the uplink minimizing
//!   `max(local DRE, remote metric)`, preferring the current path on
//!   ties,
//! * **metric aging**: a to-leaf entry not refreshed within `age` is
//!   treated as zero ("the alternative path is assumed empty after an
//!   aging period", §2.2.2 Example 4 — the root of the hidden-terminal
//!   flip-flopping the paper demonstrates).
//!
//! Differences from the ASIC implementation, documented in DESIGN.md:
//! metrics are `f32` rather than 3-bit quantized, and the overlay
//! encapsulation is the simulator's explicit path tag.

use hermes_net::{Dre, FabricLb, FlowId, HostId, LeafId, LinkRef, Packet, PathId, Topology};
use hermes_sim::{SimRng, Time};

use crate::flowlet::FlowletTable;

/// Congestion-to-leaf metric aging (10 ms, per §2.2.2).
const METRIC_AGE: Time = Time::from_ms(10);

/// Metrics within this of the minimum count as tied.
const TIE_EPSILON: f64 = 0.02;

/// A remote metric with its refresh time.
#[derive(Clone, Copy, Debug)]
struct Aged {
    ce: f64,
    stamp: Time,
}

/// CONGA: one object holds every switch's state (the simulation is
/// single-threaded; "distributed" state is indexed by switch id).
pub struct Conga {
    n_spines: usize,
    hosts_per_leaf: usize,
    /// Leaf uplink rates (0 where cut) and DREs.
    up_rate: Vec<Vec<u64>>,
    up_dre: Vec<Vec<Dre>>,
    /// Spine downlink DREs (rate = same link, reverse direction).
    down_dre: Vec<Vec<Dre>>,
    /// `to_leaf[leaf][dst_leaf][spine]`: remote path metric (aged).
    to_leaf: Vec<Vec<Vec<Option<Aged>>>>,
    /// `from_leaf[leaf][src_leaf][spine]`: metric harvested from arrivals.
    from_leaf: Vec<Vec<Vec<Option<f64>>>>,
    /// Round-robin feedback cursor per (leaf, peer leaf).
    fb_cursor: Vec<Vec<usize>>,
    flowlets: FlowletTable<(FlowId, LeafId)>,
}

impl Conga {
    /// CONGA on `topo` with DREs of horizon [`Dre::DEFAULT_TAU`] and
    /// the given flowlet gap (the paper tunes it to 150 µs for DCTCP,
    /// §5.1).
    pub fn new(topo: &Topology, flowlet_timeout: Time) -> Conga {
        let (nl, ns) = (topo.n_leaves, topo.n_spines);
        let up_rate: Vec<Vec<u64>> = (0..nl)
            .map(|l| {
                (0..ns)
                    .map(|s| topo.up[l][s].map_or(0, |c| c.rate_bps))
                    .collect()
            })
            .collect();
        Conga {
            n_spines: ns,
            hosts_per_leaf: topo.hosts_per_leaf,
            up_rate,
            up_dre: vec![vec![Dre::new(Dre::DEFAULT_TAU); ns]; nl],
            down_dre: vec![vec![Dre::new(Dre::DEFAULT_TAU); nl]; ns],
            to_leaf: vec![vec![vec![None; ns]; nl]; nl],
            from_leaf: vec![vec![vec![None; ns]; nl]; nl],
            fb_cursor: vec![vec![0; nl]; nl],
            flowlets: FlowletTable::new(flowlet_timeout),
        }
    }

    #[inline]
    fn host_leaf(&self, h: HostId) -> usize {
        h.0 as usize / self.hosts_per_leaf
    }

    /// The remote (aged) metric for a path, 0 when absent or expired.
    fn remote_metric(&self, leaf: usize, dst_leaf: usize, spine: usize, now: Time) -> f64 {
        match self.to_leaf[leaf][dst_leaf][spine] {
            Some(a) if now.saturating_sub(a.stamp) <= METRIC_AGE => a.ce,
            _ => 0.0,
        }
    }

    /// Exposed for tests and Fig. 4 diagnostics.
    pub fn to_leaf_metric(&self, leaf: LeafId, dst_leaf: LeafId, path: PathId, now: Time) -> f64 {
        self.remote_metric(leaf.0 as usize, dst_leaf.0 as usize, path.0 as usize, now)
    }

    /// Exposed for tests: the harvested from-leaf metric.
    pub fn from_leaf_metric(&self, leaf: LeafId, src_leaf: LeafId, path: PathId) -> Option<f64> {
        self.from_leaf[leaf.0 as usize][src_leaf.0 as usize][path.0 as usize]
    }
}

impl FabricLb for Conga {
    fn ingress_select(
        &mut self,
        leaf: LeafId,
        dst_leaf: LeafId,
        pkt: &Packet,
        candidates: &[PathId],
        now: Time,
        rng: &mut SimRng,
    ) -> PathId {
        let key = (pkt.flow, leaf);
        if let Some(p) = self.flowlets.current(key, now) {
            if candidates.contains(&p) {
                return p;
            }
        }
        // New flowlet: minimize max(local DRE, remote metric).
        let l = leaf.0 as usize;
        let d = dst_leaf.0 as usize;
        let metrics: Vec<f64> = candidates
            .iter()
            .map(|p| {
                let s = p.0 as usize;
                let local = self.up_dre[l][s].utilization(self.up_rate[l][s].max(1), now);
                local.max(self.remote_metric(l, d, s, now))
            })
            .collect();
        let min = metrics.iter().cloned().fold(f64::INFINITY, f64::min);
        let tied: Vec<usize> = (0..candidates.len())
            .filter(|&i| metrics[i] <= min + TIE_EPSILON)
            .collect();
        // Prefer the flow's previous path on ties (stability), else random.
        let prev = self.flowlets.previous_path(key);
        let choice = match prev {
            Some(p) if tied.iter().any(|&i| candidates[i] == p) => p,
            _ => candidates[tied[rng.below(tied.len())]],
        };
        self.flowlets.assign(key, choice, now);
        choice
    }

    fn on_forward(&mut self, link: LinkRef, pkt: &mut Packet, now: Time) {
        match link {
            LinkRef::Up { leaf, spine } => {
                let (l, s) = (leaf.0 as usize, spine as usize);
                self.up_dre[l][s].add(pkt.size as u64, now);
                let util = self.up_dre[l][s].utilization(self.up_rate[l][s].max(1), now);
                pkt.meta.ce = pkt.meta.ce.max(util as f32);
                // Piggyback one feedback entry about the *destination
                // leaf's* traffic toward us (round-robin over spines
                // with harvested metrics).
                let peer = self.host_leaf(pkt.dst);
                let table = &self.from_leaf[l][peer];
                let ns = self.n_spines;
                let cur = &mut self.fb_cursor[l][peer];
                for off in 0..ns {
                    let idx = (*cur + off) % ns;
                    if let Some(ce) = table[idx] {
                        pkt.meta.fb_tag = idx as u16;
                        pkt.meta.fb_ce = ce as f32;
                        pkt.meta.fb_valid = true;
                        *cur = (idx + 1) % ns;
                        break;
                    }
                }
            }
            LinkRef::Down { spine, leaf } => {
                let (s, l) = (spine as usize, leaf.0 as usize);
                self.down_dre[s][l].add(pkt.size as u64, now);
                // Downlink rate equals the (leaf, spine) link rate.
                let rate = self.up_rate[l][s].max(1);
                let util = self.down_dre[s][l].utilization(rate, now);
                pkt.meta.ce = pkt.meta.ce.max(util as f32);
            }
            LinkRef::HostDown { .. } => {}
        }
    }

    fn on_dst_leaf(&mut self, leaf: LeafId, pkt: &mut Packet, now: Time) {
        let l = leaf.0 as usize;
        let src_leaf = self.host_leaf(pkt.src);
        // Harvest the forward metric for this (src leaf, path).
        if (pkt.meta.lb_tag as usize) < self.n_spines {
            self.from_leaf[l][src_leaf][pkt.meta.lb_tag as usize] = Some(pkt.meta.ce as f64);
        }
        // Consume piggybacked feedback about our traffic toward src_leaf.
        if pkt.meta.fb_valid && (pkt.meta.fb_tag as usize) < self.n_spines {
            self.to_leaf[l][src_leaf][pkt.meta.fb_tag as usize] = Some(Aged {
                ce: pkt.meta.fb_ce as f64,
                stamp: now,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FLOWLET_TIMEOUT;

    fn topo() -> Topology {
        Topology::sim_baseline() // 8 leaves, 8 spines, 16 hosts/leaf
    }

    fn data(flow: u64, src: u32, dst: u32) -> Packet {
        Packet::data(FlowId(flow), HostId(src), HostId(dst), 0, 1460, false)
    }

    fn cands(n: usize) -> Vec<PathId> {
        (0..n as u16).map(PathId).collect()
    }

    #[test]
    fn new_flowlet_avoids_locally_hot_uplink() {
        let mut c = Conga::new(&topo(), FLOWLET_TIMEOUT);
        let mut rng = SimRng::new(1);
        let now = Time::from_us(100);
        // Saturate uplink 0 of leaf 0 via the DRE.
        for _ in 0..200 {
            let mut p = data(9, 0, 16);
            c.on_forward(
                LinkRef::Up {
                    leaf: LeafId(0),
                    spine: 0,
                },
                &mut p,
                now,
            );
        }
        let mut picks = std::collections::BTreeSet::new();
        for f in 0..50 {
            let p = c.ingress_select(
                LeafId(0),
                LeafId(1),
                &data(f, 0, 16),
                &cands(8),
                now,
                &mut rng,
            );
            picks.insert(p);
        }
        assert!(!picks.contains(&PathId(0)), "hot uplink must be avoided");
    }

    #[test]
    fn feedback_loop_fills_to_leaf_table() {
        let mut c = Conga::new(&topo(), FLOWLET_TIMEOUT);
        let now = Time::from_us(50);
        // 1. A packet from leaf 0 → leaf 1 via spine 3 arrives congested.
        let mut p = data(1, 0, 16);
        p.meta.lb_tag = 3;
        p.meta.ce = 0.7;
        c.on_dst_leaf(LeafId(1), &mut p, now);
        let harvested = c.from_leaf_metric(LeafId(1), LeafId(0), PathId(3)).unwrap();
        assert!((harvested - 0.7).abs() < 1e-6, "harvested {harvested}");
        // 2. A reverse packet (leaf 1 → leaf 0) gets the feedback stamped
        //    at leaf 1's uplink...
        let mut rev = data(2, 16, 0);
        c.on_forward(
            LinkRef::Up {
                leaf: LeafId(1),
                spine: 5,
            },
            &mut rev,
            now,
        );
        assert!(rev.meta.fb_valid);
        assert_eq!(rev.meta.fb_tag, 3);
        // 3. ...and leaf 0 consumes it into its to-leaf table.
        c.on_dst_leaf(LeafId(0), &mut rev, now);
        let m = c.to_leaf_metric(LeafId(0), LeafId(1), PathId(3), now);
        assert!((m - 0.7).abs() < 1e-6, "to-leaf metric {m}");
    }

    #[test]
    fn metric_ages_to_zero() {
        let mut c = Conga::new(&topo(), FLOWLET_TIMEOUT);
        let now = Time::from_ms(1);
        let mut rev = data(2, 16, 0);
        rev.meta.fb_tag = 2;
        rev.meta.fb_ce = 0.9;
        rev.meta.fb_valid = true;
        c.on_dst_leaf(LeafId(0), &mut rev, now);
        assert!(c.to_leaf_metric(LeafId(0), LeafId(1), PathId(2), now) > 0.8);
        // Just before the aging horizon: still valid.
        let before = now + Time::from_ms(10);
        assert!(c.to_leaf_metric(LeafId(0), LeafId(1), PathId(2), before) > 0.8);
        // Past it: treated as empty — the Example 4 failure mode.
        let after = now + Time::from_ms(10) + Time::from_us(1);
        assert_eq!(
            c.to_leaf_metric(LeafId(0), LeafId(1), PathId(2), after),
            0.0
        );
    }

    #[test]
    fn flowlets_stick_across_metric_changes() {
        let mut c = Conga::new(&topo(), FLOWLET_TIMEOUT);
        let mut rng = SimRng::new(2);
        let p0 = c.ingress_select(
            LeafId(0),
            LeafId(1),
            &data(7, 0, 16),
            &cands(8),
            Time::from_us(10),
            &mut rng,
        );
        // Saturate that uplink; packets 20 µs apart must still stick.
        for _ in 0..200 {
            let mut p = data(9, 1, 17);
            c.on_forward(
                LinkRef::Up {
                    leaf: LeafId(0),
                    spine: p0.0,
                },
                &mut p,
                Time::from_us(20),
            );
        }
        let p1 = c.ingress_select(
            LeafId(0),
            LeafId(1),
            &data(7, 0, 16),
            &cands(8),
            Time::from_us(30),
            &mut rng,
        );
        assert_eq!(p0, p1, "same flowlet must not move");
        // After a gap > timeout, the flow escapes the hot path.
        let p2 = c.ingress_select(
            LeafId(0),
            LeafId(1),
            &data(7, 0, 16),
            &cands(8),
            Time::from_us(30 + 151),
            &mut rng,
        );
        assert_ne!(p2, p0, "new flowlet must avoid the hot uplink");
    }

    #[test]
    fn ce_accumulates_max_along_path() {
        let mut c = Conga::new(&topo(), FLOWLET_TIMEOUT);
        let now = Time::from_us(10);
        let mut p = data(1, 0, 16);
        // Load the downlink DRE of spine 2 → leaf 1 heavily.
        for _ in 0..300 {
            let mut q = data(9, 32, 16);
            c.on_forward(
                LinkRef::Down {
                    spine: 2,
                    leaf: LeafId(1),
                },
                &mut q,
                now,
            );
        }
        let before = p.meta.ce;
        c.on_forward(
            LinkRef::Up {
                leaf: LeafId(0),
                spine: 2,
            },
            &mut p,
            now,
        );
        let after_up = p.meta.ce;
        c.on_forward(
            LinkRef::Down {
                spine: 2,
                leaf: LeafId(1),
            },
            &mut p,
            now,
        );
        assert!(p.meta.ce >= after_up && after_up >= before);
        assert!(p.meta.ce > 0.5, "hot downlink must dominate: {}", p.meta.ce);
    }
}
