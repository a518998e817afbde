//! **Figure 16** — silent random packet drops: one spine switch drops
//! 2% of traversing packets; web-search workload on the 8×8 baseline,
//! loads up to 70% (one of eight cores is effectively lost).
//!
//! Paper's findings: Hermes detects the failure (high retransmission
//! fraction on an *uncongested* path) and routes around it, beating
//! everything else by >32%. ECMP pins 1/8 of flows onto the failed
//! switch (1.7–2.3× worse). CONGA is as bad as ECMP — worse, it
//! *prefers* the failed paths because throttled flows make them look
//! underutilized. Presto* sprays every flow across the failed switch.
//! LetFlow partially escapes (drops create flowlet gaps) but still
//! trails Hermes ~1.5×.

use hermes_bench::{GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_lb::{CloveCfg, CongaCfg};
use hermes_net::{SpineFailure, SpineId, Topology};
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = Topology::sim_baseline();
    GridSpec::new(
        "Figure 16: silent random drops (2% at one spine) — web-search",
        PointCfg::new(topo.clone(), Scheme::Ecmp, FlowSizeDist::web_search(), 0.0)
            .flows(1200)
            .failure(SpineId(3), SpineFailure::random_drops(0.02)),
    )
    .scheme("ecmp", Scheme::Ecmp)
    .scheme("presto*", Scheme::presto())
    .scheme(
        "letflow",
        Scheme::LetFlow {
            flowlet_timeout: Time::from_us(150),
        },
    )
    .scheme("clove-ecn", Scheme::Clove(CloveCfg::default()))
    .scheme("conga", Scheme::Conga(CongaCfg::default()))
    .scheme("hermes", Scheme::Hermes(HermesParams::from_topology(&topo)))
    .loads(&[0.3, 0.5, 0.7])
    .normalize_to("hermes")
    .run();
    println!("(paper: Hermes >32% ahead of every other scheme; ECMP 1.7-2.3x worse;");
    println!(" CONGA paradoxically shifts MORE traffic onto the lossy switch;");
    println!(" LetFlow ~1.5x worse than Hermes)");
}
