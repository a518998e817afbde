//! **Figure 18** — Hermes deep dive (data-mining workload, asymmetric
//! topology): (a) the incremental value of active probing and of timely
//! rerouting; (b) sensitivity to the probe interval.
//!
//! Paper's findings: probing contributes ~20% and rerouting ~10% to the
//! overall average FCT; a 500 µs probe interval captures most of the
//! probing benefit (~11–15%) and 100 µs adds only another 1–3%.

use hermes_bench::{asym_topology, baseline_capacity, GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = asym_topology();
    let base = HermesParams::from_topology(&topo);

    // (a) component ablation.
    let mut no_probe = base;
    no_probe.enable_probing = false;
    let mut no_reroute = base;
    no_reroute.enable_reroute = false;
    let mut neither = base;
    neither.enable_probing = false;
    neither.enable_reroute = false;
    let template = PointCfg::new(topo, Scheme::Ecmp, FlowSizeDist::data_mining(), 0.0)
        .flows(400)
        .capacity(baseline_capacity())
        .drain(Time::from_secs(8));
    GridSpec::new(
        "Figure 18a: Hermes ablation (data-mining, asymmetric)",
        template.clone(),
    )
    .scheme("hermes", Scheme::Hermes(base))
    .scheme("no-probing", Scheme::Hermes(no_probe))
    .scheme("no-rerouting", Scheme::Hermes(no_reroute))
    .scheme("neither", Scheme::Hermes(neither))
    .loads(&[0.6, 0.8])
    .normalize_to("hermes")
    .run();

    // (b) probe interval sweep.
    let mut p100 = base;
    p100.probe_interval = Time::from_us(100);
    let mut p500 = base;
    p500.probe_interval = Time::from_us(500);
    GridSpec::new(
        "Figure 18b: probe-interval sweep (data-mining, asymmetric)",
        template,
    )
    .scheme("probe-100us", Scheme::Hermes(p100))
    .scheme("probe-500us", Scheme::Hermes(p500))
    .scheme("probe-off", Scheme::Hermes(no_probe))
    .loads(&[0.8])
    .normalize_to("probe-500us")
    .run();

    println!("(paper: probing ≈20% and rerouting ≈10% of overall avg FCT; 500us");
    println!(" probing captures 11-15% over no probing, 100us adds only 1-3%)");
}
