//! **Figure 12** — large-simulation baseline: 8×8 leaf-spine, 128 hosts,
//! 10 Gbps, symmetric; overall average FCT vs. load for both workloads.
//!
//! Paper's findings: web-search — Hermes up to 55% better than ECMP and
//! within 17% of CONGA at every load; data-mining — Hermes 29% better
//! than ECMP at high load and up to 4% *better* than CONGA (its timely
//! rerouting resolves large-flow collisions that never form flowlets).

use hermes_bench::{GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_lb::{CloveCfg, CongaCfg};
use hermes_net::Topology;
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = Topology::sim_baseline();
    for (dist, base, drain_s) in [
        (FlowSizeDist::web_search(), 2000, 3),
        (FlowSizeDist::data_mining(), 400, 8),
    ] {
        GridSpec::new(
            "Figure 12: 8x8 baseline (symmetric) — overall avg FCT",
            PointCfg::new(topo.clone(), Scheme::Ecmp, dist, 0.0)
                .flows(base)
                .drain(Time::from_secs(drain_s)),
        )
        .scheme("ecmp", Scheme::Ecmp)
        .scheme(
            "letflow",
            Scheme::LetFlow {
                flowlet_timeout: Time::from_us(150),
            },
        )
        .scheme("clove-ecn", Scheme::Clove(CloveCfg::default()))
        .scheme("presto*", Scheme::presto())
        .scheme("conga", Scheme::Conga(CongaCfg::default()))
        .scheme("hermes", Scheme::Hermes(HermesParams::from_topology(&topo)))
        .loads(&[0.5, 0.8])
        .run();
    }
    println!("(paper: web-search — Hermes ≤55% over ECMP, within 17% of CONGA;");
    println!(" data-mining — Hermes ~29% over ECMP, slightly ahead of CONGA)");
}
