//! Failure-resilience demo: a spine switch develops a packet blackhole
//! mid-run; watch Hermes detect it from timeouts and evacuate, while
//! ECMP strands every flow hashed onto the dead paths.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use hermes_core::HermesParams;
use hermes_net::{LeafId, SpineFailure, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_workload::{FlowGen, FlowSizeDist};

fn main() {
    let topo = Topology::sim_baseline();
    // Every src–dst pair from rack 0 to rack 7 blackholes at spine 5.
    let hole = SpineFailure::blackhole(LeafId(0), LeafId(7), 1.0);

    for (name, scheme) in [
        ("ecmp", Scheme::Ecmp),
        ("hermes", Scheme::Hermes(HermesParams::from_topology(&topo))),
    ] {
        let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(3));
        sim.set_spine_failure(SpineId(5), hole);
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.4, None, SimRng::new(9));
        // Keep only rack0 → rack7 flows so every flow is exposed to the
        // blackhole risk.
        let mut flows = Vec::new();
        while flows.len() < 120 {
            let f = gen.next_flow();
            if topo.host_leaf(f.src) == LeafId(0) && topo.host_leaf(f.dst) == LeafId(7) {
                flows.push(f);
            }
        }
        // Re-time them into a steady 50 ms arrival window.
        for (i, f) in flows.iter_mut().enumerate() {
            f.start = Time::from_us(400 * i as u64);
        }
        sim.add_flows(flows);
        sim.run_to_completion(Time::from_secs(5));
        let unfinished = sim.records().iter().filter(|r| r.finish.is_none()).count();
        let finished_avg: f64 = {
            let done: Vec<f64> = sim
                .records()
                .iter()
                .filter_map(|r| r.finish.map(|f| (f - r.start).as_secs_f64()))
                .collect();
            done.iter().sum::<f64>() / done.len().max(1) as f64
        };
        print!(
            "{name:7}  unfinished {unfinished:3}/120   avg FCT of finished {:.2} ms",
            finished_avg * 1e3
        );
        if name == "hermes" {
            let sensing = sim.hermes_racks().next().expect("leaf 0 runs Hermes");
            let failed_paths = (0..8)
                .filter(|&s| {
                    sensing
                        .path_state(LeafId(7), hermes_net::PathId(s))
                        .failed()
                })
                .count();
            print!("   (rack 0 marked {failed_paths} path(s) to rack 7 as failed)");
        }
        println!();
    }
    println!("\nHermes' blackhole rule: 3 RTOs on a path with nothing ACKed → failed,");
    println!("and every flow — current and future — avoids it (§3.1.2).");
}
