//! **Table 2** — the average number of concurrent flows observed on the
//! parallel paths between a ToR-to-ToR pair vs. a host-to-host pair, for
//! the data-mining and web-search workloads at 60% and 80% load on the
//! 8×8 leaf-spine fabric.
//!
//! The paper's point: a source ToR concurrently sees several flows per
//! parallel path toward each destination rack, while a host pair sees
//! two orders of magnitude fewer — piggybacking alone cannot provide
//! enough visibility (§2.2.1).

use hermes_bench::{flows, run_points, PointCfg, TextTable};
use hermes_net::Topology;
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    println!("== Table 2: visibility (avg concurrent flows per parallel path) ==");
    let topo = Topology::sim_baseline();
    let mut t = TextTable::new(&[
        "entity pair",
        "data-mining 60%",
        "data-mining 80%",
        "web-search 60%",
        "web-search 80%",
    ]);
    let mut cfgs = Vec::new();
    for (dist, base) in [
        (FlowSizeDist::data_mining(), 250),
        (FlowSizeDist::web_search(), 1500),
    ] {
        for load in [0.6, 0.8] {
            // A ToR observes a flow for as long as its flow-table entry
            // lives; model a 50 ms aging window (see EXPERIMENTS.md).
            cfgs.push(
                PointCfg::new(topo.clone(), Scheme::Ecmp, dist.clone(), load)
                    .flows(flows(base))
                    .visibility_linger(Time::from_ms(50))
                    .seed(42),
            );
        }
    }
    let mut sw_row = vec!["switch pair".to_string()];
    let mut host_row = vec!["host pair".to_string()];
    for (cfg, r) in cfgs.iter().zip(run_points(&cfgs)) {
        eprintln!(
            "   {} @ {:.0}%: switch {:.3} host {:.4}",
            cfg.dist.name(),
            cfg.load * 100.0,
            r.vis_switch,
            r.vis_host,
        );
        sw_row.push(format!("{:.3}", r.vis_switch));
        host_row.push(format!("{:.4}", r.vis_host));
    }
    t.row(sw_row);
    t.row(host_row);
    t.print();
    println!("\n(paper: switch pair 1.7–5.9, host pair 0.007–0.022 — the ~2 orders-of-");
    println!(" magnitude gap between switch- and host-pair visibility is the claim)");
}
