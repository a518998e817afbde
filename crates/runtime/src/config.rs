//! Experiment configuration: which scheme, which transport, which knobs.

use std::collections::BTreeMap;

use hermes_core::HermesParams;
use hermes_lb::FLOWLET_TIMEOUT;
use hermes_net::{LeafId, PathId, Topology};
use hermes_sim::Time;
use hermes_transport::TransportCfg;

/// The load-balancing scheme under test.
#[derive(Clone, Debug)]
pub enum Scheme {
    /// Per-flow random hashing.
    Ecmp,
    /// Presto* — per-packet spray with a receive-side reordering mask.
    /// With `weighted`, every host gets static per-destination path
    /// weights proportional to bottleneck capacity (§5.2's
    /// topology-dependent weights for asymmetry).
    Presto { weighted: bool },
    /// CLOVE-ECN: edge flowlets with ECN-driven weighted round robin.
    Clove { flowlet_timeout: Time },
    /// LetFlow: switch flowlets with random choice, at the paper's
    /// 150 µs gap.
    LetFlow,
    /// CONGA: fabric-wide congestion-aware flowlet switching.
    Conga { flowlet_timeout: Time },
    /// Hermes (the paper's scheme).
    Hermes(HermesParams),
}

impl Scheme {
    /// Every name [`Scheme::by_name`] resolves: the spellings scenario
    /// files, golden-digest keys and `hermes-cli --scheme` use.
    pub const NAMES: [&'static str; 7] = [
        "ecmp",
        "presto",
        "presto_weighted",
        "clove",
        "letflow",
        "conga",
        "hermes",
    ];

    /// The one name → scheme table, at the paper's default parameters
    /// (Hermes derives its thresholds from `topo`). `None` for a name
    /// outside [`Scheme::NAMES`]; callers with their own knobs adjust
    /// the returned variant.
    pub fn by_name(name: &str, topo: &Topology) -> Option<Scheme> {
        Some(match name {
            "ecmp" => Scheme::Ecmp,
            "presto" => Scheme::presto(),
            "presto_weighted" => Scheme::presto_weighted(),
            "clove" => Scheme::Clove {
                flowlet_timeout: FLOWLET_TIMEOUT,
            },
            "letflow" => Scheme::LetFlow,
            "conga" => Scheme::Conga {
                flowlet_timeout: FLOWLET_TIMEOUT,
            },
            "hermes" => Scheme::Hermes(HermesParams::from_topology(topo)),
            _ => return None,
        })
    }

    /// Presto* with equal weights.
    pub fn presto() -> Scheme {
        Scheme::Presto { weighted: false }
    }

    /// Presto* with topology-derived static weights (§5.2).
    pub fn presto_weighted() -> Scheme {
        Scheme::Presto { weighted: true }
    }

    /// Whether the receiver should mask reordering (packet spraying
    /// needs it; Presto* is defined with it).
    pub fn wants_reorder_mask(&self) -> bool {
        matches!(self, Scheme::Presto { .. })
    }
}

/// Bottleneck-capacity path weights from `src_leaf` toward every other
/// leaf (used by the runtime to instantiate weighted Presto* per host).
pub fn presto_weights_for(
    topo: &Topology,
    src_leaf: LeafId,
) -> BTreeMap<LeafId, Vec<(PathId, f64)>> {
    let mut out = BTreeMap::new();
    for d in 0..topo.n_leaves {
        if d == src_leaf.0 as usize {
            continue;
        }
        let dst = LeafId(d as u16);
        let w: Vec<(PathId, f64)> = topo
            .path_candidates(src_leaf, dst)
            .into_iter()
            .map(|p| {
                let up = topo.up[src_leaf.0 as usize][p.0 as usize]
                    .expect("candidate path has an uplink")
                    .rate_bps;
                let down = topo.up[d][p.0 as usize]
                    .expect("candidate path has a downlink")
                    .rate_bps;
                (p, up.min(down) as f64)
            })
            .collect();
        out.insert(dst, w);
    }
    out
}

/// Everything an experiment needs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub topo: Topology,
    pub scheme: Scheme,
    pub transport: TransportCfg,
    /// Mask reordering at the receiver (a [`REORDER_HOLD`] buffer) even
    /// if the scheme does not ask for it (`scheme.wants_reorder_mask()`).
    pub reorder_mask: bool,
    /// Master seed; every subsystem derives a split stream from it.
    pub seed: u64,
    /// Time-triggered fault schedule replayed through the event queue
    /// (onset *and* clearance — the transient-failure story; a failure
    /// for the whole run is an entry at `Time::ZERO`). Empty: no faults.
    pub fault_plan: hermes_net::FaultPlan,
}

/// Reordering-buffer hold: a few one-way delays, enough for a late
/// sprayed packet to arrive, far below an RTO.
pub const REORDER_HOLD: Time = Time::from_us(300);

impl SimConfig {
    pub fn new(topo: Topology, scheme: Scheme) -> SimConfig {
        SimConfig {
            topo,
            scheme,
            transport: TransportCfg::dctcp(),
            reorder_mask: false,
            seed: 1,
            fault_plan: hermes_net::FaultPlan::new(),
        }
    }

    pub fn with_fault_plan(mut self, plan: hermes_net::FaultPlan) -> SimConfig {
        self.fault_plan = plan;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    pub fn with_transport(mut self, t: TransportCfg) -> SimConfig {
        self.transport = t;
        self
    }

    /// The effective receiver hold time.
    pub fn effective_reorder_hold(&self) -> Option<Time> {
        (self.reorder_mask || self.scheme.wants_reorder_mask()).then_some(REORDER_HOLD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_mask_defaults() {
        let topo = Topology::sim_baseline();
        let presto = SimConfig::new(topo.clone(), Scheme::presto());
        assert_eq!(presto.effective_reorder_hold(), Some(REORDER_HOLD));
        let ecmp = SimConfig::new(topo.clone(), Scheme::Ecmp);
        assert_eq!(ecmp.effective_reorder_hold(), None);
        // The switch masks a scheme that does not ask (CONGA in Fig. 15)
        // and cannot unmask one that does.
        let conga = Scheme::by_name("conga", &topo).expect("a scheme name");
        for scheme in [conga, Scheme::presto()] {
            let mut masked = SimConfig::new(topo.clone(), scheme);
            masked.reorder_mask = true;
            assert_eq!(masked.effective_reorder_hold(), Some(REORDER_HOLD));
        }
    }

    #[test]
    fn presto_weights_follow_bottleneck_capacity() {
        let mut topo = Topology::sim_baseline();
        topo.degrade_link(LeafId(0), hermes_net::SpineId(2), 2_000_000_000);
        let w = presto_weights_for(&topo, LeafId(0));
        let to1 = &w[&LeafId(1)];
        let w2 = to1.iter().find(|(p, _)| *p == PathId(2)).unwrap().1;
        let w0 = to1.iter().find(|(p, _)| *p == PathId(0)).unwrap().1;
        assert_eq!(w2, 2e9);
        assert_eq!(w0, 10e9);
        // Degradation at the *destination* side also caps the weight.
        let w_from_other = presto_weights_for(&topo, LeafId(1));
        let to0 = &w_from_other[&LeafId(0)];
        let w2b = to0.iter().find(|(p, _)| *p == PathId(2)).unwrap().1;
        assert_eq!(w2b, 2e9);
    }
}
