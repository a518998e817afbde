//! **Figure 9** — testbed-scale, symmetric topology: overall average FCT
//! vs. load for the web-search and data-mining workloads.
//!
//! Paper's findings: Hermes beats ECMP by 10–38% (more at higher load),
//! beats CLOVE-ECN by 9–15% at 30–70% load, and tracks Presto* (which is
//! near-optimal on symmetric fabrics).

use hermes_bench::{GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_lb::CloveCfg;
use hermes_net::Topology;
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = Topology::testbed();
    // §5.1: the testbed CLOVE flowlet timeout is 800 µs (best found).
    let clove = CloveCfg {
        flowlet_timeout: Time::from_us(800),
        ..CloveCfg::default()
    };
    for (dist, base, drain_s) in [
        (FlowSizeDist::web_search(), 350, 5),
        (FlowSizeDist::data_mining(), 140, 20),
    ] {
        GridSpec::new(
            "Figure 9: testbed symmetric — overall avg FCT",
            PointCfg::new(topo.clone(), Scheme::Ecmp, dist, 0.0)
                .flows(base)
                .drain(Time::from_secs(drain_s)),
        )
        .scheme("ecmp", Scheme::Ecmp)
        .scheme("clove-ecn", Scheme::Clove(clove))
        .scheme("presto*", Scheme::presto())
        .scheme("hermes", Scheme::Hermes(HermesParams::paper_testbed(&topo)))
        .loads(&[0.3, 0.5, 0.7, 0.9])
        .run();
    }
    println!("(paper: Hermes 10-38% over ECMP, 9-15% over CLOVE-ECN at 30-70% load,");
    println!(" comparable to Presto* which is near-optimal under symmetry)");
}
