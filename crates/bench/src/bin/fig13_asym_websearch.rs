//! **Figure 13** — asymmetric 8×8 (20% of leaf-spine links at 2 Gbps),
//! web-search workload; FCT statistics normalized to Hermes.
//!
//! Paper's findings: CONGA leads by ~10% overall (bursty small flows
//! create plenty of flowlets, and CONGA's switch tables see more);
//! Hermes ≈ CLOVE-ECN ≈ LetFlow overall — but the flowlet schemes'
//! *small-flow* average and 99th percentile blow up at high load
//! (1.5–3.3× vs Hermes at 90%) because small flows get fragmented onto
//! several paths and eat the reordering + congestion mismatch.

use hermes_bench::{asym_topology, baseline_capacity, GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_lb::{CloveCfg, CongaCfg};
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = asym_topology();
    GridSpec::new(
        "Figure 13: 8x8 asymmetric — web-search (normalized to Hermes)",
        PointCfg::new(topo.clone(), Scheme::Ecmp, FlowSizeDist::web_search(), 0.0)
            .flows(2000)
            .capacity(baseline_capacity()),
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
    println!("(paper: CONGA ~10% ahead overall; flowlet schemes' small-flow avg and");
    println!(" p99 degrade 1.5-3.3x vs Hermes at 90% load; weighted Presto* trails)");
}
