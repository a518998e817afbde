//! Microburst (incast) demo: partition–aggregate queries under
//! different load balancers.
//!
//! §6 of the paper is candid that Hermes "takes at least one RTT to
//! sense and react to uncertainties, and thus, it does not directly
//! handle microbursts" — DRILL's per-packet switch-local decisions are
//! built for exactly that. This example measures query completion time
//! (the slowest of 32 synchronized replies) under ECMP, DRILL, and
//! Hermes.
//!
//! ```sh
//! cargo run --release --example incast
//! ```

use hermes_net::Topology;
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_workload::{query_completion, IncastGen};

fn main() {
    let topo = Topology::sim_baseline();
    println!("32-way incast, 64 KB replies, one query per ms, 40 queries:\n");
    for name in ["ecmp", "drill", "hermes"] {
        let scheme = Scheme::by_name(name, &topo).expect("a Scheme::NAMES entry");
        let mut gen = IncastGen::new(&topo, 32, 64_000, Time::from_ms(1), SimRng::new(11));
        let (queries, specs) = gen.schedule(40);
        let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(5));
        sim.add_flows(specs);
        sim.run_to_completion(Time::from_secs(5));
        let mut qcts: Vec<f64> = queries
            .iter()
            .filter_map(|q| query_completion(q, sim.records()))
            .map(|t| t.as_secs_f64() * 1e3)
            .collect();
        qcts.sort_by(|a, b| a.partial_cmp(b).expect("QCTs are finite"));
        let avg = qcts.iter().sum::<f64>() / qcts.len() as f64;
        let p99 = qcts[(qcts.len() as f64 * 0.99) as usize - 1];
        println!(
            "{name:7}  avg QCT {avg:6.3} ms   p99 QCT {p99:6.3} ms   ({} of 40 queries completed)",
            qcts.len()
        );
    }
    println!("\nQCT is gated by the slowest reply, so a single unlucky path choice");
    println!("dominates; per-packet local balancing (DRILL) absorbs the burst, while");
    println!("RTT-scale sensing (Hermes) cannot react within it — matching §6.");
}
