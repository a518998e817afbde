//! Asymmetry demo: degrade 20% of the fabric's leaf-spine links to
//! 2 Gbps and compare congestion-oblivious spraying, flowlet switching,
//! and Hermes on the smooth data-mining workload — the regime where
//! timely-yet-cautious rerouting shines (§5.3.2).
//!
//! ```sh
//! cargo run --release --example asymmetry
//! ```

use hermes_core::HermesParams;
use hermes_lb::FLOWLET_TIMEOUT;
use hermes_net::Topology;
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_workload::{summarize, FlowGen, FlowSizeDist};

fn main() {
    // The §5.3.2 asymmetric fabric.
    let mut topo = Topology::sim_baseline();
    let healthy_capacity = topo.total_uplink_bps();
    let mut rng = SimRng::new(0xA5);
    topo.degrade_random_links(0.2, 2_000_000_000, &mut rng);
    println!(
        "Fabric: 8x8 leaf-spine, 20% of uplinks degraded to 2 Gbps ({} of 64)",
        topo.up
            .iter()
            .flatten()
            .flatten()
            .filter(|l| l.rate_bps == 2_000_000_000)
            .count()
    );

    let schemes: Vec<(&str, Scheme)> = vec![
        ("presto* (weighted)", Scheme::presto_weighted()),
        (
            "conga",
            Scheme::Conga {
                flowlet_timeout: FLOWLET_TIMEOUT,
            },
        ),
        ("hermes", Scheme::Hermes(HermesParams::from_topology(&topo))),
    ];
    println!("\ndata-mining workload at 70% load (of the healthy fabric):\n");
    for (name, scheme) in schemes {
        let mut gen = FlowGen::new(
            &topo,
            FlowSizeDist::data_mining(),
            0.7,
            Some(healthy_capacity),
            SimRng::new(17),
        );
        let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(2));
        sim.add_flows(gen.schedule(150));
        sim.run_to_completion(Time::from_secs(20));
        let s = summarize(sim.records(), sim.now());
        println!(
            "{name:20}  avg FCT {:8.2} ms   large-flow avg {:8.2} ms   unfinished {}",
            s.avg * 1e3,
            s.avg_large * 1e3,
            s.unfinished
        );
    }
    println!("\nCongestion-oblivious spray suffers congestion mismatch on the slow");
    println!("links; flowlet schemes wait for gaps that smooth traffic rarely opens;");
    println!("Hermes senses the imbalance and reroutes long flows mid-flight.");
}
