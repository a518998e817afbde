//! **Figure 15** — CONGA with different flowlet timeout values
//! (web-search, asymmetric topology, 80% load, packet reordering masked
//! by a receive-side buffer).
//!
//! Paper's findings: shrinking the timeout 500 µs → 150 µs *improves*
//! FCT ~6% (more reroute opportunities), but 50 µs *degrades* it ~30%:
//! even a congestion-aware scheme suffers congestion mismatch once it
//! flips paths vigorously — reordering alone does not explain the loss,
//! because reordering is masked here.

use hermes_bench::{asym_topology, baseline_capacity, GridSpec, PointCfg};
use hermes_lb::CongaCfg;
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = asym_topology();
    let mut spec = GridSpec::new(
        "Figure 15: CONGA flowlet-timeout sweep (web-search, 80% load, reordering masked)",
        PointCfg::new(topo, Scheme::Ecmp, FlowSizeDist::web_search(), 0.0)
            .flows(2000)
            .capacity(baseline_capacity())
            // Mask reordering for every variant so only congestion
            // mismatch differentiates them (the paper's methodology).
            .reorder_mask(Some(Time::from_us(300))),
    )
    .loads(&[0.8]);
    for timeout_us in [500u64, 150, 50] {
        let cfg = CongaCfg {
            flowlet_timeout: Time::from_us(timeout_us),
            ..CongaCfg::default()
        };
        spec = spec.scheme(&format!("conga-{timeout_us}us"), Scheme::Conga(cfg));
    }
    spec.run();
    println!("(paper: 150us beats 500us by ~6%, but 50us is ~30% WORSE than 150us —");
    println!(" vigorous path flipping causes congestion mismatch even when");
    println!(" reordering is masked)");
}
