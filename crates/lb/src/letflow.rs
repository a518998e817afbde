//! LetFlow (Vanini et al., NSDI 2017) — flowlet switching with random
//! path choice, in the switch.
//!
//! No congestion state at all: every new flowlet picks a uniformly
//! random uplink. Balance emerges because flowlets on congested paths
//! stretch in time and naturally shed load. The paper's critique (§2.2.2,
//! §5.3.2): with steady traffic there are no flowlet gaps, so LetFlow
//! converges slowly — and it cannot detect failures (§5.3.3).

use hermes_net::{FabricLb, FlowId, LeafId, Packet, PathId};
use hermes_sim::{SimRng, Time};

use crate::flowlet::{FlowletTable, FLOWLET_TIMEOUT};

/// LetFlow, at the paper's 150 µs flowlet gap ([`FLOWLET_TIMEOUT`]).
pub struct LetFlow {
    flowlets: FlowletTable<(FlowId, LeafId)>,
}

impl LetFlow {
    pub fn new() -> LetFlow {
        LetFlow {
            flowlets: FlowletTable::new(FLOWLET_TIMEOUT),
        }
    }
}

impl Default for LetFlow {
    fn default() -> LetFlow {
        LetFlow::new()
    }
}

impl FabricLb for LetFlow {
    fn ingress_select(
        &mut self,
        leaf: LeafId,
        _dst_leaf: LeafId,
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
        let p = candidates[rng.below(candidates.len())];
        self.flowlets.assign(key, p, now);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::HostId;

    fn pkt(flow: u64) -> Packet {
        Packet::data(FlowId(flow), HostId(0), HostId(20), 0, 1460, false)
    }

    const CANDS: [PathId; 4] = [PathId(0), PathId(1), PathId(2), PathId(3)];

    #[test]
    fn sticky_within_flowlet_random_across() {
        let mut lb = LetFlow::new();
        let mut rng = SimRng::new(3);
        let p = lb.ingress_select(LeafId(0), LeafId(1), &pkt(1), &CANDS, Time::ZERO, &mut rng);
        // Back-to-back packets: same path.
        for i in 1..10 {
            let q = lb.ingress_select(
                LeafId(0),
                LeafId(1),
                &pkt(1),
                &CANDS,
                Time::from_us(i * 10),
                &mut rng,
            );
            assert_eq!(p, q);
        }
        // After long gaps, path choices spread across candidates.
        let mut seen = std::collections::BTreeSet::new();
        let mut t = Time::from_ms(1);
        for _ in 0..200 {
            t += Time::from_us(500); // > timeout: every packet a new flowlet
            seen.insert(lb.ingress_select(LeafId(0), LeafId(1), &pkt(1), &CANDS, t, &mut rng));
        }
        assert_eq!(seen.len(), 4, "random choice must reach every path");
    }

    #[test]
    fn gap_rehash_spreads_load_where_steady_traffic_cannot() {
        // The §2.2.2 critique, as a distribution statement: a steady
        // stream never re-hashes (its path histogram is a point mass),
        // while the same flow with inter-packet gaps above the timeout
        // spreads across all paths with no path starved or dominant.
        let mut steady = LetFlow::new();
        let mut rng = SimRng::new(11);
        let mut steady_hist = [0u32; 4];
        for i in 0..400u64 {
            // 10 µs spacing: always inside the flowlet gap.
            let p = steady.ingress_select(
                LeafId(0),
                LeafId(1),
                &pkt(7),
                &CANDS,
                Time::from_us(i * 10),
                &mut rng,
            );
            steady_hist[p.0 as usize] += 1;
        }
        assert_eq!(
            steady_hist.iter().filter(|&&c| c > 0).count(),
            1,
            "steady traffic must never re-hash: {steady_hist:?}"
        );

        let mut gapped = LetFlow::new();
        let mut hist = [0u32; 4];
        for i in 0..400u64 {
            // 500 µs spacing: every packet opens a new flowlet.
            let p = gapped.ingress_select(
                LeafId(0),
                LeafId(1),
                &pkt(7),
                &CANDS,
                Time::from_us(i * 500),
                &mut rng,
            );
            hist[p.0 as usize] += 1;
        }
        // Uniform expectation is 100 per path; allow a generous band
        // (binomial σ ≈ 8.7, so ±4σ ≈ [65, 135]).
        for (i, &c) in hist.iter().enumerate() {
            assert!(
                (65..=135).contains(&c),
                "path {i} got {c} of 400 flowlets; distribution skewed: {hist:?}"
            );
        }
    }

    #[test]
    fn flows_get_independent_flowlet_state() {
        // Two flows at the same leaf must not share a flowlet entry:
        // with enough flows, simultaneous first packets land on more
        // than one path.
        let mut lb = LetFlow::new();
        let mut rng = SimRng::new(5);
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..32 {
            seen.insert(lb.ingress_select(
                LeafId(0),
                LeafId(1),
                &pkt(f),
                &CANDS,
                Time::ZERO,
                &mut rng,
            ));
        }
        assert!(seen.len() > 1, "32 flows all hashed to one path");
    }

    #[test]
    fn directions_are_independent() {
        // The same flow id seen at two leaves (data vs ACK direction)
        // keeps independent flowlet state.
        let mut lb = LetFlow::new();
        let mut rng = SimRng::new(4);
        let a = lb.ingress_select(LeafId(0), LeafId(1), &pkt(1), &CANDS, Time::ZERO, &mut rng);
        // Choose repeatedly at leaf 1 until it diverges — they're
        // independent random draws, so this must happen quickly.
        let mut diverged = false;
        for i in 0..20 {
            let b = lb.ingress_select(
                LeafId(1),
                LeafId(0),
                &pkt(1),
                &CANDS,
                Time::from_ms(1 + i),
                &mut rng,
            );
            if b != a {
                diverged = true;
                break;
            }
        }
        assert!(diverged);
    }
}
