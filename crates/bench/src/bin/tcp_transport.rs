//! **§5.4 "Different transport protocols"** — Hermes over plain TCP
//! NewReno (no ECN): sensing falls back to RTT only, with 1.5× larger
//! RTT thresholds.
//!
//! Paper's findings: under web-search Hermes stays within 10–25% of
//! CONGA (with a 500 µs flowlet timeout — TCP is bursty enough to form
//! flowlets); under data-mining they are nearly identical.

use hermes_bench::{GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_lb::CongaCfg;
use hermes_net::Topology;
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_transport::TransportCfg;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = Topology::sim_baseline();
    // TCP is burstier: the paper uses CONGA's original 500 µs timeout.
    let conga = CongaCfg {
        flowlet_timeout: Time::from_us(500),
        ..CongaCfg::default()
    };
    for (dist, base) in [
        (FlowSizeDist::web_search(), 1200),
        (FlowSizeDist::data_mining(), 300),
    ] {
        GridSpec::new(
            "§5.4: plain TCP transport (8x8 baseline)",
            PointCfg::new(topo.clone(), Scheme::Ecmp, dist, 0.0)
                .flows(base)
                .transport(TransportCfg::tcp())
                .drain(Time::from_secs(6)),
        )
        .scheme("ecmp", Scheme::Ecmp)
        .scheme("conga-500us", Scheme::Conga(conga))
        .scheme(
            "hermes-rtt-only",
            Scheme::Hermes(HermesParams::for_tcp(&topo)),
        )
        .loads(&[0.4, 0.6])
        .run();
    }
    println!("(paper: with TCP, Hermes within 10-25% of CONGA on web-search and");
    println!(" nearly identical on data-mining)");
}
