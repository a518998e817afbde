//! **Figure 19** — Hermes parameter sensitivity: sweeps of `T_RTT_high`
//! and `Δ_RTT` (web-search and data-mining, asymmetric topology, 80%
//! load).
//!
//! Paper's findings: performance is stable around the recommended
//! values (simulation defaults: T_RTT_high = 180 µs, Δ_RTT = 80 µs);
//! the bursty web-search workload prefers *conservative* settings
//! (higher thresholds prune excessive reroutings) while the smooth
//! data-mining workload prefers *aggressive* ones.

use hermes_bench::{asym_topology, baseline_capacity, GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = asym_topology();
    let base = HermesParams::from_topology(&topo);

    for (dist, nflows) in [
        (FlowSizeDist::web_search(), 1500),
        (FlowSizeDist::data_mining(), 300),
    ] {
        let template = PointCfg::new(topo.clone(), Scheme::Ecmp, dist, 0.0)
            .flows(nflows)
            .capacity(baseline_capacity())
            .drain(Time::from_secs(6));
        // (a) T_RTT_high sweep (absolute values, paper: 140–280 µs).
        let mut spec = GridSpec::new(
            "Figure 19a: sensitivity to T_RTT_high (80% load)",
            template.clone(),
        )
        .loads(&[0.8]);
        for high_us in [140u64, 180, 220, 280] {
            let mut p = base;
            p.t_rtt_high = Time::from_us(high_us);
            spec = spec.scheme(&format!("Thigh-{high_us}us"), Scheme::Hermes(p));
        }
        spec.run();

        // (b) Δ_RTT sweep (paper default: one-hop delay = 80 µs).
        let mut spec =
            GridSpec::new("Figure 19b: sensitivity to Δ_RTT (80% load)", template).loads(&[0.8]);
        for delta_us in [40u64, 80, 120, 160] {
            let mut p = base;
            p.delta_rtt = Time::from_us(delta_us);
            spec = spec.scheme(&format!("dRTT-{delta_us}us"), Scheme::Hermes(p));
        }
        spec.run();
    }
    println!("(paper: FCT stable near the recommended settings; web-search favors");
    println!(" conservative thresholds, data-mining favors aggressive ones)");
}
