//! **Figures 10 & 11** — testbed-scale, asymmetric topology (one uplink
//! cut, Fig. 8b): overall average FCT vs. load, plus the Fig. 11
//! web-search breakdown (small-flow average / 99th, large-flow average,
//! normalized to Hermes).
//!
//! Paper's findings: ECMP collapses past 40–50% load; Hermes beats
//! CLOVE-ECN by 12–30% at 30–65%; Presto* — even with static
//! topology-dependent weights — falls off a cliff past 60% load from
//! congestion mismatch.

use hermes_bench::{GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_lb::CloveCfg;
use hermes_net::{LeafId, SpineId, Topology};
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let mut topo = Topology::testbed();
    let healthy = topo.total_uplink_bps();
    topo.cut_link(LeafId(1), SpineId(3)); // Fig. 8b: one leaf-spine link cut
    let clove = CloveCfg {
        flowlet_timeout: Time::from_us(800),
        ..CloveCfg::default()
    };
    // "loads up to 70% relative to the symmetric case, because the
    // bisection bandwidth is only 75% of the symmetric case".
    let loads = [0.3, 0.45, 0.6, 0.7];
    for (dist, base, normalize, drain_s) in [
        (FlowSizeDist::web_search(), 350, true, 5),
        (FlowSizeDist::data_mining(), 140, false, 20),
    ] {
        let mut g = GridSpec::new(
            "Figure 10/11: testbed asymmetric (one uplink cut)",
            PointCfg::new(topo.clone(), Scheme::Ecmp, dist, 0.0)
                .flows(base)
                .capacity(healthy)
                .drain(Time::from_secs(drain_s)),
        )
        .scheme("ecmp", Scheme::Ecmp)
        .scheme("clove-ecn", Scheme::Clove(clove))
        .scheme("presto*-weighted", Scheme::presto_weighted())
        .scheme("hermes", Scheme::Hermes(HermesParams::paper_testbed(&topo)))
        .loads(&loads);
        if normalize {
            // Fig. 11 normalizes the web-search breakdown to Hermes.
            g = g.normalize_to("hermes");
        }
        g.run();
    }
    println!("(paper: ECMP deteriorates past 40-50%; Hermes 12-30% better than");
    println!(" CLOVE-ECN at 30-65%; weighted Presto* collapses past 60% load)");
}
