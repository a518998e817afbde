//! §5's FCT grids: the testbed figures (§5.2), the large-scale
//! simulations (§5.3), the failure figures (§5.3.3) and the deep dive
//! (§5.4). Each function returns its figure's grids; `run_grids` runs
//! every cell of them in one pool call, and the figure's note follows.
//! A scheme at its paper defaults comes from `Scheme::by_name` under its
//! display label; only the variants a figure changes are spelled out.

use hermes_bench::{asym_topology, baseline_capacity};
use hermes_core::HermesParams;
use hermes_lb::{CloveCfg, CongaCfg};
use hermes_net::{LeafId, SpineFailure, SpineId, Topology};
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_transport::TransportCfg;
use hermes_workload::FlowSizeDist;

use crate::{paper, GridSpec};

/// **Figure 9** — testbed-scale, symmetric topology: overall average FCT
/// vs. load for the web-search and data-mining workloads.
///
/// Paper's findings: Hermes beats ECMP by 10–38% (more at higher load),
/// beats CLOVE-ECN by 9–15% at 30–70% load, and tracks Presto* (which is
/// near-optimal on symmetric fabrics).
pub fn fig9() -> Vec<GridSpec> {
    let topo = Topology::testbed();
    // §5.1: the testbed CLOVE flowlet timeout is 800 µs (best found).
    let clove = CloveCfg {
        flowlet_timeout: Time::from_us(800),
        ..CloveCfg::default()
    };
    [
        (FlowSizeDist::web_search(), 350, 5),
        (FlowSizeDist::data_mining(), 140, 20),
    ]
    .into_iter()
    .map(|(dist, base, drain_s)| {
        GridSpec::new(
            "Figure 9: testbed symmetric — overall avg FCT",
            &topo,
            dist,
            base,
            None,
        )
        .drain(Time::from_secs(drain_s))
        .scheme("ecmp", paper("ecmp", &topo))
        .scheme("clove-ecn", Scheme::Clove(clove))
        .scheme("presto*", paper("presto", &topo))
        .scheme("hermes", Scheme::Hermes(HermesParams::paper_testbed(&topo)))
        .loads(&[0.3, 0.5, 0.7, 0.9])
    })
    .collect()
}

pub const FIG9_NOTE: &str = "\
(paper: Hermes 10-38% over ECMP, 9-15% over CLOVE-ECN at 30-70% load,
 comparable to Presto* which is near-optimal under symmetry)";

/// **Figures 10 & 11** — testbed-scale, asymmetric topology (one uplink
/// cut, Fig. 8b): overall average FCT vs. load, plus the Fig. 11
/// web-search breakdown (small-flow average / 99th, large-flow average,
/// normalized to Hermes).
///
/// Paper's findings: ECMP collapses past 40–50% load; Hermes beats
/// CLOVE-ECN by 12–30% at 30–65%; Presto* — even with static
/// topology-dependent weights — falls off a cliff past 60% load from
/// congestion mismatch.
pub fn fig10() -> Vec<GridSpec> {
    let mut topo = Topology::testbed();
    let healthy = topo.total_uplink_bps();
    topo.cut_link(LeafId(1), SpineId(3)); // Fig. 8b: one leaf-spine link cut
    let clove = CloveCfg {
        flowlet_timeout: Time::from_us(800),
        ..CloveCfg::default()
    };
    // "loads up to 70% relative to the symmetric case, because the
    // bisection bandwidth is only 75% of the symmetric case".
    let loads = [0.3, 0.45, 0.6, 0.7];
    [
        (FlowSizeDist::web_search(), 350, true, 5),
        (FlowSizeDist::data_mining(), 140, false, 20),
    ]
    .into_iter()
    .map(|(dist, base, normalize, drain_s)| {
        let g = GridSpec::new(
            "Figure 10/11: testbed asymmetric (one uplink cut)",
            &topo,
            dist,
            base,
            Some(healthy),
        )
        .drain(Time::from_secs(drain_s))
        .scheme("ecmp", paper("ecmp", &topo))
        .scheme("clove-ecn", Scheme::Clove(clove))
        .scheme("presto*-weighted", paper("presto_weighted", &topo))
        .scheme("hermes", Scheme::Hermes(HermesParams::paper_testbed(&topo)))
        .loads(&loads);
        // Fig. 11 normalizes the web-search breakdown to Hermes.
        if normalize {
            g.normalize_to("hermes")
        } else {
            g
        }
    })
    .collect()
}

pub const FIG10_NOTE: &str = "\
(paper: ECMP deteriorates past 40-50%; Hermes 12-30% better than
 CLOVE-ECN at 30-65%; weighted Presto* collapses past 60% load)";

/// **Figure 12** — large-simulation baseline: 8×8 leaf-spine, 128 hosts,
/// 10 Gbps, symmetric; overall average FCT vs. load for both workloads.
///
/// Paper's findings: web-search — Hermes up to 55% better than ECMP and
/// within 17% of CONGA at every load; data-mining — Hermes 29% better
/// than ECMP at high load and up to 4% *better* than CONGA (its timely
/// rerouting resolves large-flow collisions that never form flowlets).
pub fn fig12() -> Vec<GridSpec> {
    let topo = Topology::sim_baseline();
    [
        (FlowSizeDist::web_search(), 2000, 3),
        (FlowSizeDist::data_mining(), 400, 8),
    ]
    .into_iter()
    .map(|(dist, base, drain_s)| {
        GridSpec::new(
            "Figure 12: 8x8 baseline (symmetric) — overall avg FCT",
            &topo,
            dist,
            base,
            None,
        )
        .drain(Time::from_secs(drain_s))
        .scheme("ecmp", paper("ecmp", &topo))
        .scheme("letflow", paper("letflow", &topo))
        .scheme("clove-ecn", paper("clove", &topo))
        .scheme("presto*", paper("presto", &topo))
        .scheme("conga", paper("conga", &topo))
        .scheme("hermes", paper("hermes", &topo))
        .loads(&[0.5, 0.8])
    })
    .collect()
}

pub const FIG12_NOTE: &str = "\
(paper: web-search — Hermes ≤55% over ECMP, within 17% of CONGA;
 data-mining — Hermes ~29% over ECMP, slightly ahead of CONGA)";

/// **Figure 13** — asymmetric 8×8 (20% of leaf-spine links at 2 Gbps),
/// web-search workload; FCT statistics normalized to Hermes.
///
/// Paper's findings: CONGA leads by ~10% overall (bursty small flows
/// create plenty of flowlets, and CONGA's switch tables see more);
/// Hermes ≈ CLOVE-ECN ≈ LetFlow overall — but the flowlet schemes'
/// *small-flow* average and 99th percentile blow up at high load
/// (1.5–3.3× vs Hermes at 90%) because small flows get fragmented onto
/// several paths and eat the reordering + congestion mismatch.
pub fn fig13() -> Vec<GridSpec> {
    let topo = asym_topology();
    vec![GridSpec::new(
        "Figure 13: 8x8 asymmetric — web-search (normalized to Hermes)",
        &topo,
        FlowSizeDist::web_search(),
        2000,
        Some(baseline_capacity()),
    )
    .scheme("hermes", paper("hermes", &topo))
    .scheme("conga", paper("conga", &topo))
    .scheme("letflow", paper("letflow", &topo))
    .scheme("clove-ecn", paper("clove", &topo))
    .scheme("presto*-weighted", paper("presto_weighted", &topo))
    .loads(&[0.5, 0.8])
    .normalize_to("hermes")]
}

pub const FIG13_NOTE: &str = "\
(paper: CONGA ~10% ahead overall; flowlet schemes' small-flow avg and
 p99 degrade 1.5-3.3x vs Hermes at 90% load; weighted Presto* trails)";

/// **Figure 14** — asymmetric 8×8 (20% of leaf-spine links at 2 Gbps),
/// data-mining workload; FCT statistics normalized to Hermes.
///
/// Paper's findings: Hermes beats CONGA by 5–10% (timely rerouting
/// resolves large-flow collisions on the 2 Gbps links) and beats
/// CLOVE-ECN / LetFlow by 13–20% — the data-mining workload is too
/// smooth to produce the flowlet gaps those schemes depend on.
pub fn fig14() -> Vec<GridSpec> {
    let topo = asym_topology();
    vec![GridSpec::new(
        "Figure 14: 8x8 asymmetric — data-mining (normalized to Hermes)",
        &topo,
        FlowSizeDist::data_mining(),
        400,
        Some(baseline_capacity()),
    )
    .drain(Time::from_secs(8))
    .scheme("hermes", paper("hermes", &topo))
    .scheme("conga", paper("conga", &topo))
    .scheme("letflow", paper("letflow", &topo))
    .scheme("clove-ecn", paper("clove", &topo))
    .scheme("presto*-weighted", paper("presto_weighted", &topo))
    .loads(&[0.5, 0.8])
    .normalize_to("hermes")]
}

pub const FIG14_NOTE: &str = "\
(paper: Hermes 5-10% ahead of CONGA and 13-20% ahead of CLOVE-ECN and
 LetFlow — stable traffic starves flowlet schemes of reroute chances)";

/// **Figure 15** — CONGA with different flowlet timeout values
/// (web-search, asymmetric topology, 80% load, packet reordering masked
/// by a receive-side buffer).
///
/// Paper's findings: shrinking the timeout 500 µs → 150 µs *improves*
/// FCT ~6% (more reroute opportunities), but 50 µs *degrades* it ~30%:
/// even a congestion-aware scheme suffers congestion mismatch once it
/// flips paths vigorously — reordering alone does not explain the loss,
/// because reordering is masked here.
pub fn fig15() -> Vec<GridSpec> {
    let topo = asym_topology();
    let mut spec = GridSpec::new(
        "Figure 15: CONGA flowlet-timeout sweep (web-search, 80% load, reordering masked)",
        &topo,
        FlowSizeDist::web_search(),
        2000,
        Some(baseline_capacity()),
    )
    .loads(&[0.8]);
    // Mask reordering for every variant so only congestion mismatch
    // differentiates them (the paper's methodology).
    spec.sim.reorder_mask = true;
    for timeout_us in [500u64, 150, 50] {
        let cfg = CongaCfg {
            flowlet_timeout: Time::from_us(timeout_us),
            ..CongaCfg::default()
        };
        spec = spec.scheme(&format!("conga-{timeout_us}us"), Scheme::Conga(cfg));
    }
    vec![spec]
}

pub const FIG15_NOTE: &str = "\
(paper: 150us beats 500us by ~6%, but 50us is ~30% WORSE than 150us —
 vigorous path flipping causes congestion mismatch even when
 reordering is masked)";

/// **Figure 16** — silent random packet drops: one spine switch drops
/// 2% of traversing packets; web-search workload on the 8×8 baseline,
/// loads up to 70% (one of eight cores is effectively lost).
///
/// Paper's findings: Hermes detects the failure (high retransmission
/// fraction on an *uncongested* path) and routes around it, beating
/// everything else by >32%. ECMP pins 1/8 of flows onto the failed
/// switch (1.7–2.3× worse). CONGA is as bad as ECMP — worse, it
/// *prefers* the failed paths because throttled flows make them look
/// underutilized. Presto* sprays every flow across the failed switch.
/// LetFlow partially escapes (drops create flowlet gaps) but still
/// trails Hermes ~1.5×.
pub fn fig16() -> Vec<GridSpec> {
    let topo = Topology::sim_baseline();
    vec![GridSpec::new(
        "Figure 16: silent random drops (2% at one spine) — web-search",
        &topo,
        FlowSizeDist::web_search(),
        1200,
        None,
    )
    .failure(SpineId(3), SpineFailure::random_drops(0.02))
    .scheme("ecmp", paper("ecmp", &topo))
    .scheme("presto*", paper("presto", &topo))
    .scheme("letflow", paper("letflow", &topo))
    .scheme("clove-ecn", paper("clove", &topo))
    .scheme("conga", paper("conga", &topo))
    .scheme("hermes", paper("hermes", &topo))
    .loads(&[0.3, 0.5, 0.7])
    .normalize_to("hermes")]
}

pub const FIG16_NOTE: &str = "\
(paper: Hermes >32% ahead of every other scheme; ECMP 1.7-2.3x worse;
 CONGA paradoxically shifts MORE traffic onto the lossy switch;
 LetFlow ~1.5x worse than Hermes)";

/// **Figure 17** — packet blackhole: one spine deterministically drops
/// packets for half of the source–destination host pairs from rack 1 to
/// rack 8; web-search workload, 8×8 baseline.
///
/// Paper's findings: Hermes detects the hole after 3 timeouts and all
/// flows finish (≥1.6× better FCT than everyone). ECMP leaves ~1.5% of
/// flows unfinished, inflating its average FCT 9–22× over Hermes.
/// CONGA is *worse* than ECMP: the blackholed paths look idle, so it
/// steers extra flows into them. Presto* finishes everything (every
/// flow has path diversity per packet) but all affected flows crawl.
/// LetFlow is second best yet still >1.6× behind.
pub fn fig17() -> Vec<GridSpec> {
    let topo = Topology::sim_baseline();
    // "drop packets for half of the source-destination IP pairs from
    // Rack 1 to Rack 8 deterministically on one randomly selected
    // switch".
    let hole = SpineFailure::blackhole(LeafId(0), LeafId(7), 0.5);
    vec![GridSpec::new(
        "Figure 17: packet blackhole (half of rack1→rack8 pairs) — web-search",
        &topo,
        FlowSizeDist::web_search(),
        1200,
        None,
    )
    .failure(SpineId(5), hole)
    .drain(Time::from_secs(2))
    .scheme("ecmp", paper("ecmp", &topo))
    .scheme("presto*", paper("presto", &topo))
    .scheme("letflow", paper("letflow", &topo))
    .scheme("clove-ecn", paper("clove", &topo))
    .scheme("conga", paper("conga", &topo))
    .scheme("hermes", paper("hermes", &topo))
    .loads(&[0.3, 0.5, 0.7])
    .normalize_to("hermes")]
}

pub const FIG17_NOTE: &str = "\
(paper: Hermes detects the hole after 3 timeouts → zero unfinished
 flows and ≥1.6x better FCT; ECMP strands ~1.5% of flows (9-22x avg
 FCT); CONGA strands even more; LetFlow second-best but >1.6x behind)";

/// **Figure 18** — Hermes deep dive (data-mining workload, asymmetric
/// topology): (a) the incremental value of active probing and of timely
/// rerouting; (b) sensitivity to the probe interval.
///
/// Paper's findings: probing contributes ~20% and rerouting ~10% to the
/// overall average FCT; a 500 µs probe interval captures most of the
/// probing benefit (~11–15%) and 100 µs adds only another 1–3%.
pub fn fig18() -> Vec<GridSpec> {
    let topo = asym_topology();
    let base = HermesParams::from_topology(&topo);

    // (a) component ablation.
    let mut no_probe = base;
    no_probe.probe_interval = Time::MAX;
    let mut no_reroute = base;
    no_reroute.enable_reroute = false;
    let mut neither = base;
    neither.probe_interval = Time::MAX;
    neither.enable_reroute = false;
    let grid = |title| {
        let dist = FlowSizeDist::data_mining();
        GridSpec::new(title, &topo, dist, 400, Some(baseline_capacity())).drain(Time::from_secs(8))
    };
    let ablation = grid("Figure 18a: Hermes ablation (data-mining, asymmetric)")
        .scheme("hermes", Scheme::Hermes(base))
        .scheme("no-probing", Scheme::Hermes(no_probe))
        .scheme("no-rerouting", Scheme::Hermes(no_reroute))
        .scheme("neither", Scheme::Hermes(neither))
        .loads(&[0.6, 0.8])
        .normalize_to("hermes");

    // (b) probe interval sweep.
    let mut p100 = base;
    p100.probe_interval = Time::from_us(100);
    let mut p500 = base;
    p500.probe_interval = Time::from_us(500);
    let interval = grid("Figure 18b: probe-interval sweep (data-mining, asymmetric)")
        .scheme("probe-100us", Scheme::Hermes(p100))
        .scheme("probe-500us", Scheme::Hermes(p500))
        .scheme("probe-off", Scheme::Hermes(no_probe))
        .loads(&[0.8])
        .normalize_to("probe-500us");
    vec![ablation, interval]
}

pub const FIG18_NOTE: &str = "\
(paper: probing ≈20% and rerouting ≈10% of overall avg FCT; 500us
 probing captures 11-15% over no probing, 100us adds only 1-3%)";

/// **Figure 19** — Hermes parameter sensitivity: sweeps of `T_RTT_high`
/// and `Δ_RTT` (web-search and data-mining, asymmetric topology, 80%
/// load).
///
/// Paper's findings: performance is stable around the recommended
/// values (simulation defaults: T_RTT_high = 180 µs, Δ_RTT = 80 µs);
/// the bursty web-search workload prefers *conservative* settings
/// (higher thresholds prune excessive reroutings) while the smooth
/// data-mining workload prefers *aggressive* ones.
pub fn fig19() -> Vec<GridSpec> {
    let topo = asym_topology();
    let base = HermesParams::from_topology(&topo);
    let mut grids = Vec::new();
    for (dist, nflows) in [
        (FlowSizeDist::web_search(), 1500),
        (FlowSizeDist::data_mining(), 300),
    ] {
        let grid = |title| {
            GridSpec::new(
                title,
                &topo,
                dist.clone(),
                nflows,
                Some(baseline_capacity()),
            )
            .drain(Time::from_secs(6))
            .loads(&[0.8])
        };
        // (a) T_RTT_high sweep (absolute values, paper: 140–280 µs).
        let mut high = grid("Figure 19a: sensitivity to T_RTT_high (80% load)");
        for high_us in [140u64, 180, 220, 280] {
            let mut p = base;
            p.t_rtt_high = Time::from_us(high_us);
            high = high.scheme(&format!("Thigh-{high_us}us"), Scheme::Hermes(p));
        }
        // (b) Δ_RTT sweep (paper default: one-hop delay = 80 µs).
        let mut delta = grid("Figure 19b: sensitivity to Δ_RTT (80% load)");
        for delta_us in [40u64, 80, 120, 160] {
            let mut p = base;
            p.delta_rtt = Time::from_us(delta_us);
            delta = delta.scheme(&format!("dRTT-{delta_us}us"), Scheme::Hermes(p));
        }
        grids.extend([high, delta]);
    }
    grids
}

pub const FIG19_NOTE: &str = "\
(paper: FCT stable near the recommended settings; web-search favors
 conservative thresholds, data-mining favors aggressive ones)";

/// **§5.4 "Different transport protocols"** — Hermes over plain TCP
/// NewReno (no ECN): sensing falls back to RTT only, with 1.5× larger
/// RTT thresholds.
///
/// Paper's findings: under web-search Hermes stays within 10–25% of
/// CONGA (with a 500 µs flowlet timeout — TCP is bursty enough to form
/// flowlets); under data-mining they are nearly identical.
pub fn tcp() -> Vec<GridSpec> {
    let topo = Topology::sim_baseline();
    // TCP is burstier: the paper uses CONGA's original 500 µs timeout.
    let conga = CongaCfg {
        flowlet_timeout: Time::from_us(500),
        ..CongaCfg::default()
    };
    [
        (FlowSizeDist::web_search(), 1200),
        (FlowSizeDist::data_mining(), 300),
    ]
    .into_iter()
    .map(|(dist, base)| {
        let mut grid = GridSpec::new(
            "§5.4: plain TCP transport (8x8 baseline)",
            &topo,
            dist,
            base,
            None,
        )
        .drain(Time::from_secs(6));
        grid.sim.transport = TransportCfg::tcp();
        grid.scheme("ecmp", paper("ecmp", &topo))
            .scheme("conga-500us", Scheme::Conga(conga))
            .scheme(
                "hermes-rtt-only",
                Scheme::Hermes(HermesParams::for_tcp(&topo)),
            )
            .loads(&[0.4, 0.6])
    })
    .collect()
}

pub const TCP_NOTE: &str = "\
(paper: with TCP, Hermes within 10-25% of CONGA on web-search and
 nearly identical on data-mining)";
