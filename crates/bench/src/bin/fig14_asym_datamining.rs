//! **Figure 14** — asymmetric 8×8 (20% of leaf-spine links at 2 Gbps),
//! data-mining workload; FCT statistics normalized to Hermes.
//!
//! Paper's findings: Hermes beats CONGA by 5–10% (timely rerouting
//! resolves large-flow collisions on the 2 Gbps links) and beats
//! CLOVE-ECN / LetFlow by 13–20% — the data-mining workload is too
//! smooth to produce the flowlet gaps those schemes depend on.

use hermes_bench::{asym_topology, baseline_capacity, GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_lb::{CloveCfg, CongaCfg};
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = asym_topology();
    GridSpec::new(
        "Figure 14: 8x8 asymmetric — data-mining (normalized to Hermes)",
        PointCfg::new(topo.clone(), Scheme::Ecmp, FlowSizeDist::data_mining(), 0.0)
            .flows(400)
            .capacity(baseline_capacity())
            .drain(hermes_sim::Time::from_secs(8)),
    )
    .scheme("hermes", Scheme::Hermes(HermesParams::from_topology(&topo)))
    .scheme("conga", Scheme::Conga(CongaCfg::default()))
    .scheme(
        "letflow",
        Scheme::LetFlow {
            flowlet_timeout: Time::from_us(150),
        },
    )
    .scheme("clove-ecn", Scheme::Clove(CloveCfg::default()))
    .scheme("presto*-weighted", Scheme::presto_weighted())
    .loads(&[0.5, 0.8])
    .normalize_to("hermes")
    .run();
    println!("(paper: Hermes 5-10% ahead of CONGA and 13-20% ahead of CLOVE-ECN and");
    println!(" LetFlow — stable traffic starves flowlet schemes of reroute chances)");
}
