//! **Figure 17** — packet blackhole: one spine deterministically drops
//! packets for half of the source–destination host pairs from rack 1 to
//! rack 8; web-search workload, 8×8 baseline.
//!
//! Paper's findings: Hermes detects the hole after 3 timeouts and all
//! flows finish (≥1.6× better FCT than everyone). ECMP leaves ~1.5% of
//! flows unfinished, inflating its average FCT 9–22× over Hermes.
//! CONGA is *worse* than ECMP: the blackholed paths look idle, so it
//! steers extra flows into them. Presto* finishes everything (every
//! flow has path diversity per packet) but all affected flows crawl.
//! LetFlow is second best yet still >1.6× behind.

use hermes_bench::{GridSpec, PointCfg};
use hermes_core::HermesParams;
use hermes_lb::{CloveCfg, CongaCfg};
use hermes_net::{LeafId, SpineFailure, SpineId, Topology};
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

fn main() {
    let topo = Topology::sim_baseline();
    // "drop packets for half of the source-destination IP pairs from
    // Rack 1 to Rack 8 deterministically on one randomly selected
    // switch".
    let hole = SpineFailure::blackhole(LeafId(0), LeafId(7), 0.5);
    GridSpec::new(
        "Figure 17: packet blackhole (half of rack1→rack8 pairs) — web-search",
        PointCfg::new(topo.clone(), Scheme::Ecmp, FlowSizeDist::web_search(), 0.0)
            .flows(1200)
            .failure(SpineId(5), hole)
            .drain(Time::from_secs(2)),
    )
    .scheme("ecmp", Scheme::Ecmp)
    .scheme("presto*", Scheme::presto())
    .scheme(
        "letflow",
        Scheme::LetFlow {
            flowlet_timeout: Time::from_us(150),
        },
    )
    .scheme("clove-ecn", Scheme::Clove(CloveCfg::default()))
    .scheme("conga", Scheme::Conga(CongaCfg::default()))
    .scheme("hermes", Scheme::Hermes(HermesParams::from_topology(&topo)))
    .loads(&[0.3, 0.5, 0.7])
    .normalize_to("hermes")
    .run();
    println!("(paper: Hermes detects the hole after 3 timeouts → zero unfinished");
    println!(" flows and ≥1.6x better FCT; ECMP strands ~1.5% of flows (9-22x avg");
    println!(" FCT); CONGA strands even more; LetFlow second-best but >1.6x behind)");
}
