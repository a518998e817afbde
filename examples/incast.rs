//! Microburst (incast) demo: partition–aggregate queries under
//! different load balancers.
//!
//! §6 of the paper is candid that Hermes "takes at least one RTT to
//! sense and react to uncertainties, and thus, it does not directly
//! handle microbursts". Per-packet spraying needs no sensing: Presto*
//! spreads every reply over all spine paths, so no single path choice
//! sets a query's completion time. This example measures query
//! completion time (QCT: the slowest of 32 synchronized replies) under
//! ECMP, Presto*, and Hermes, with the closed-loop incast driver the
//! conformance grid runs: each burst is released when the previous
//! one's slowest reply lands. On the 8×8 fabric at seed 5 Presto*'s p99
//! QCT (2.468 ms) stays close to its 2.045 ms mean, while ECMP's and
//! Hermes' p99 reach 10.496 ms and 10.518 ms.
//!
//! ```sh
//! cargo run --release --example incast
//! ```

use hermes_net::Topology;
use hermes_runtime::{Scheme, SimConfig};
use hermes_sim::Time;
use hermes_testkit::{run_points, PointCfg};
use hermes_workload::{FlowRecord, IncastCfg, WorkloadKind};

/// Each completed burst's QCT in ms: its slowest reply's finish minus
/// its release (every reply of a burst starts at the release).
fn qcts_ms(incast: &IncastCfg, records: &[FlowRecord]) -> Vec<f64> {
    let mut bursts = vec![(Time::MAX, Time::ZERO, 0usize); incast.bursts];
    for r in records {
        let (b, _) = incast.decode(r.id);
        let (start, last, done) = &mut bursts[b];
        *start = (*start).min(r.start);
        if let Some(f) = r.finish {
            *last = (*last).max(f);
            *done += 1;
        }
    }
    bursts
        .into_iter()
        .filter(|&(_, _, done)| done == incast.fanout)
        .map(|(start, last, _)| (last - start).as_secs_f64() * 1e3)
        .collect()
}

fn main() {
    let topo = Topology::sim_baseline();
    let incast = IncastCfg {
        fanout: 32,
        reply_bytes: 64_000,
        bursts: 40,
    };
    println!("32-way incast, 64 KB replies, 40 back-to-back bursts:\n");
    let names = ["ecmp", "presto", "hermes"];
    let cfgs: Vec<PointCfg> = names
        .iter()
        .map(|name| {
            let scheme = Scheme::by_name(name, &topo).expect("a Scheme::NAMES entry");
            let sim = SimConfig::new(topo.clone(), scheme).with_seed(5);
            PointCfg::new(sim, WorkloadKind::Incast(incast)).drain(Time::from_secs(5))
        })
        .collect();
    for (name, report) in names.iter().zip(run_points(&cfgs)) {
        let mut qcts = qcts_ms(&incast, &report.records);
        qcts.sort_by(|a, b| a.partial_cmp(b).expect("QCTs are finite"));
        let avg = qcts.iter().sum::<f64>() / qcts.len() as f64;
        let p99 = qcts[(qcts.len() as f64 * 0.99) as usize - 1];
        println!(
            "{name:7}  avg QCT {avg:6.3} ms   p99 QCT {p99:6.3} ms   ({} of {} bursts completed)",
            qcts.len(),
            incast.bursts
        );
    }
    println!("\nQCT is gated by the slowest reply, so a single unlucky path choice");
    println!("dominates; per-packet spraying (Presto*) spreads every reply and absorbs");
    println!("the burst, while RTT-scale sensing (Hermes) cannot react within it — §6.");
}
