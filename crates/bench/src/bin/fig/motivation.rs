//! §2's motivation and the artifacts that size the design: Table 2
//! (visibility), Figs 1–4 (the four failure modes of flowlets and
//! congestion-oblivious spraying), Table 6 (probing cost) and Fig. 7
//! (the evaluation workloads). Each runs its own small scenario.

use hermes_bench::{run_points, PointCfg, ProbingCostModel, TextTable};
use hermes_net::{FlowId, HostId, LeafId, LinkCfg, PathId, SpineId, Topology};
use hermes_runtime::{Probe, Scheme, SimConfig, Simulation};
use hermes_sim::Time;
use hermes_workload::{FlowSizeDist, FlowSpec};

use crate::{paper, Knobs};

/// **Table 2** — the average number of concurrent flows observed on the
/// parallel paths between a ToR-to-ToR pair vs. a host-to-host pair, for
/// the data-mining and web-search workloads at 60% and 80% load on the
/// 8×8 leaf-spine fabric.
///
/// The paper's point: a source ToR concurrently sees several flows per
/// parallel path toward each destination rack, while a host pair sees
/// two orders of magnitude fewer — piggybacking alone cannot provide
/// enough visibility (§2.2.1).
pub fn table2(knobs: Knobs) {
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
                    .flows(knobs.flows(base))
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

/// **Table 6** — comparison of probing schemes: visibility vs. probing
/// overhead on a 100×100 leaf-spine fabric with 10 Gbps links, 64 B
/// probes, 500 µs probe interval.
///
/// Paper's rows: piggyback (<0.01 visibility, no probes), brute force
/// (full visibility, ~100× a link's capacity in probes), power of two
/// choices (>3 visibility, ~3×), Hermes (>3 visibility, ~3% thanks to
/// per-rack probe agents and rack-wide sharing).
pub fn table6(_: Knobs) {
    let model = ProbingCostModel::default();
    println!(
        "== Table 6: probing schemes ({}x{} leaf-spine, {} hosts/rack, {} Gbps links, {} B probes every {} us) ==",
        model.n_leaves,
        model.n_spines,
        model.hosts_per_leaf,
        model.link_bps / 1e9,
        model.probe_bytes,
        model.interval_s * 1e6,
    );
    let mut t = TextTable::new(&["scheme", "visibility (paths/dst)", "overhead (× edge link)"]);
    for row in model.rows() {
        let overhead = if row.overhead_frac == 0.0 {
            "none (no probes)".to_string()
        } else if row.overhead_frac >= 1.0 {
            format!("{:.1}x", row.overhead_frac)
        } else {
            format!("{:.1}%", row.overhead_frac * 100.0)
        };
        let vis = if row.visibility < 0.01 {
            "<0.01".to_string()
        } else {
            format!("{:.0}", row.visibility)
        };
        t.row(vec![row.scheme.to_string(), vis, overhead]);
    }
    t.print();
    let rows = model.rows();
    println!();
    println!(
        "hermes vs brute-force overhead: {:.0}x lower;  hermes vs piggyback visibility: {:.0}x higher",
        rows[1].overhead_frac / rows[3].overhead_frac,
        rows[3].visibility / rows[0].visibility,
    );
}

/// A 10G leaf–spine microtopology with 5 µs host and 10 µs fabric links.
fn micro(leaves: usize, spines: usize, hosts_per_leaf: usize) -> Topology {
    Topology::leaf_spine(
        leaves,
        spines,
        hosts_per_leaf,
        LinkCfg::new(10_000_000_000, Time::from_us(5)),
        LinkCfg::new(10_000_000_000, Time::from_us(10)),
    )
}

/// A flow of `size` bytes from host `src` to host `dst`.
fn flow(id: u64, src: u32, dst: u32, size: u64, start: Time) -> FlowSpec {
    FlowSpec {
        id: FlowId(id),
        src: HostId(src),
        dst: HostId(dst),
        size,
        start,
    }
}

const FIG1_SMALL: u64 = 12_500_000; // A, B: 12.5 MB ≈ 20 ms at a shared 10G path
const FIG1_LARGE: u64 = 62_500_000; // C, D: 62.5 MB

/// **Figure 1 / Example 1** — flowlet switching cannot timely react to
/// congestion under a stable traffic pattern.
///
/// The paper's scenario: small flows A, B end up on path P1, large flows
/// C, D on path P2 (all DCTCP, rack L0 → rack L1 over two parallel
/// paths). When A and B complete, P1 goes idle — but DCTCP's smooth
/// window produces no inactivity gaps, so CONGA never sees a flowlet it
/// could reroute and C, D keep sharing P2. Ideal rebalancing (move one
/// large flow to the idle path) almost halves their completion time.
///
/// We reproduce the adversarial initial placement by staging arrivals:
/// A and B start together (CONGA's DREs are empty, so they pick paths
/// independently at random — we select seeds where they collide, which
/// is the interesting half); C and D arrive once A/B are at line rate,
/// so CONGA's utilization metric steers both onto the other path.
/// The "ideal" row is computed analytically for the same byte schedule.
pub fn fig1(_: Knobs) {
    println!("== Figure 1: flowlet switching cannot split flows under stable traffic ==");
    let seeds = 24;
    // Ideal for the collided schedule: C and D share one 10G path while
    // A, B drain the other (A, B finish ≈ (5000 µs gap accounted) —
    // then one large flow moves to the idle path: both finish at an
    // effective rate close to dedicated 10G for the remainder.
    // Shared until A/B done at ~t_ab; delivered ≈ 5G × t_ab each; rest
    // at 10G. t_ab ≈ 2·SMALL/10G (two smalls share one path).
    let t_ab = 2.0 * FIG1_SMALL as f64 * 8.0 / 10e9;
    let shared_window = t_ab - 0.005; // C,D start 5 ms in
    let delivered_shared = 5e9 * shared_window / 8.0;
    let ideal = shared_window + (FIG1_LARGE as f64 - delivered_shared) * 8.0 / 10e9;
    let mut tab = TextTable::new(&[
        "scheme",
        "mean large-flow FCT (ms)",
        "vs ideal",
        "collided runs",
    ]);
    tab.row(vec![
        "ideal rebalancing".into(),
        format!("{:.1}", ideal * 1e3),
        "1.00x".into(),
        "-".into(),
    ]);
    for (label, name) in [
        ("CONGA (flowlet 150us)", "conga"),
        ("LetFlow (flowlet 150us)", "letflow"),
        ("Hermes", "hermes"),
    ] {
        let (fct, n) = fig1_collided_fct(name, seeds);
        tab.row(vec![
            label.into(),
            format!("{:.1}", fct * 1e3),
            format!("{:.2}x", fct / ideal),
            format!("{n}"),
        ]);
    }
    tab.print();
    println!(
        "\n(paper: with DCTCP there are no flowlet gaps, so CONGA cannot split the\n\
         colliding large flows; ideal rerouting almost halves their FCT. Hermes'\n\
         R-gate also declines to move ~5 Gbps flows — its wins come from multi-flow\n\
         collisions in the macro workloads, §5.3.1 — so the motivation figure is\n\
         about the *gap to ideal* that passive flowlets leave on the table.)"
    );
}

/// Fig. 1's (mean large FCT, runs used) over seeds where the adversarial
/// placement (C and D sharing one path) actually formed — detected by
/// both large flows finishing notably slower than line rate.
fn fig1_collided_fct(scheme: &str, seeds: u64) -> (f64, usize) {
    let t = micro(2, 2, 4);
    let mut fcts = Vec::new();
    for seed in 0..seeds {
        let cfg = SimConfig::new(t.clone(), paper(scheme, &t)).with_seed(100 + seed);
        let mut sim = Simulation::new(cfg);
        sim.add_flows([
            flow(0, 0, 4, FIG1_SMALL, Time::ZERO),
            flow(1, 1, 5, FIG1_SMALL, Time::from_us(50)),
            // C, D arrive once A/B have ramped up (~5 ms).
            flow(2, 2, 6, FIG1_LARGE, Time::from_us(5_000)),
            flow(3, 3, 7, FIG1_LARGE, Time::from_us(5_050)),
        ]);
        sim.run_to_completion(Time::from_secs(10));
        let large: Vec<f64> = sim
            .records()
            .iter()
            .filter(|r| r.size == FIG1_LARGE)
            .map(|r| (r.finish.expect("must finish") - r.start).as_secs_f64())
            .collect();
        let line_rate_fct = FIG1_LARGE as f64 * 8.0 / 10e9;
        // Keep runs where C and D actually collided on one path.
        let collided = large.iter().all(|&f| f > 1.5 * line_rate_fct);
        if collided {
            fcts.extend(large);
        }
    }
    let n = fcts.len();
    (fcts.iter().sum::<f64>() / n.max(1) as f64, n / 2)
}

/// **Figure 2 / Example 2** — congestion mismatch under asymmetry with
/// congestion-oblivious spraying (Presto).
///
/// Topology: 3×2 leaf-spine, 10 Gbps links, with the L0–S1 link cut.
/// Flow B is a 9 Gbps UDP stream L0→L2 (forced through S0); flow A is a
/// DCTCP flow L1→L2 sprayed equally over S0 and S1 by Presto*. The ECN
/// marks collected on the congested S0 path throttle A's single
/// congestion window, starving its S1 share too: A achieves ~1 Gbps
/// while the S0→L2 queue oscillates. Hermes keeps A on S1 and delivers
/// nearly line rate.
pub fn fig2(_: Knobs) {
    println!("== Figure 2: congestion mismatch under asymmetry (Presto vs Hermes) ==");
    let mut topo = micro(3, 2, 2);
    topo.cut_link(LeafId(0), SpineId(1)); // the broken link of Fig. 2a
    let presto = fig2_run(&topo, paper("presto", &topo));
    let hermes = fig2_run(&topo, paper("hermes", &topo));
    let mut tab = TextTable::new(&[
        "scheme",
        "flow A goodput (Gbps)",
        "S0->L2 queue mean (KB)",
        "queue max (KB)",
    ]);
    for (name, o) in [("Presto* (equal spray)", &presto), ("Hermes", &hermes)] {
        tab.row(vec![
            name.into(),
            format!("{:.2}", o.goodput_gbps),
            format!("{:.1}", o.q_mean_kb),
            format!("{:.1}", o.q_max_kb),
        ]);
    }
    tab.print();
    println!("\nS0->L2 queue under Presto* (Fig. 2b time series, KB every 2 ms):");
    let line: Vec<String> = presto
        .q_series
        .iter()
        .map(|(_, kb)| format!("{kb:.0}"))
        .collect();
    println!("  {}", line.join(" "));
    println!(
        "\n(paper: flow A stuck near 1 Gbps with large queue oscillations under\n\
         Presto; Hermes should sustain close to line rate on the clean S1 path)"
    );
}

struct Fig2Outcome {
    goodput_gbps: f64,
    q_mean_kb: f64,
    q_max_kb: f64,
    q_series: Vec<(f64, f64)>, // (ms, KB) on S0→L2
}

fn fig2_run(topo: &Topology, scheme: Scheme) -> Fig2Outcome {
    let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(3));
    // Flow B: UDP 9 Gbps from L0 (host 0) to L2 (host 4); its only live
    // path is S0.
    sim.add_udp(
        HostId(0),
        HostId(4),
        9_000_000_000,
        1460,
        Some(PathId(0)),
        Time::ZERO,
    );
    // Flow A: long DCTCP flow from L1 (host 2) to L2 (host 5).
    sim.add_flow(flow(0, 2, 5, 60_000_000, Time::from_ms(1)));
    let qs = sim.add_sampler(
        Time::from_us(100),
        Probe::SpineDownQueue(SpineId(0), LeafId(2)),
    );
    let prog = sim.add_sampler(Time::from_ms(1), Probe::FlowDelivered(FlowId(0)));
    sim.run_until(Time::from_ms(61));
    let delivered = sim.sampler_series(prog).last().map_or(0, |&(_, v)| v);
    let goodput = delivered as f64 * 8.0 / 0.060;
    let q: Vec<u64> = sim.sampler_series(qs).iter().map(|&(_, v)| v).collect();
    let q_mean = q.iter().sum::<u64>() as f64 / q.len() as f64 / 1e3;
    let q_max = *q.iter().max().expect("the queue sampler ran") as f64 / 1e3;
    let q_series = sim
        .sampler_series(qs)
        .iter()
        .step_by(20)
        .map(|&(t, v)| (t.as_millis_f64(), v as f64 / 1e3))
        .collect();
    Fig2Outcome {
        goodput_gbps: goodput / 1e9,
        q_mean_kb: q_mean,
        q_max_kb: q_max,
        q_series,
    }
}

/// **Figure 3 / Example 3** — congestion mismatch persists even with
/// capacity-proportional weights on heterogeneous paths.
///
/// Two parallel paths of 1 Gbps and 10 Gbps; Presto* sprays a DCTCP flow
/// 1:10 to match capacities. The shared congestion window cannot serve
/// two paths whose bandwidth-delay products differ 10×: marks from the
/// 1 Gbps path halt growth needed for the 10 Gbps path, and bursts sized
/// by the 10 Gbps path overrun the 1 Gbps queue. The paper measures only
/// ≈5 Gbps of the 11 Gbps aggregate. Hermes simply keeps the flow on the
/// big path.
pub fn fig3(_: Knobs) {
    println!("== Figure 3: weighted spray over 1G/10G heterogeneous paths ==");
    let mut topo = micro(2, 2, 2);
    // Path 0 degraded to 1 Gbps on both legs (a 1G spine).
    topo.degrade_link(LeafId(0), SpineId(0), 1_000_000_000);
    topo.degrade_link(LeafId(1), SpineId(0), 1_000_000_000);
    let (p_gbps, p_qmax) = fig3_run(&topo, paper("presto_weighted", &topo));
    let (h_gbps, h_qmax) = fig3_run(&topo, paper("hermes", &topo));
    let mut tab = TextTable::new(&["scheme", "flow A goodput (Gbps)", "1G-path queue max (KB)"]);
    tab.row(vec![
        "Presto* (1:10 weights)".into(),
        format!("{p_gbps:.2}"),
        format!("{p_qmax:.1}"),
    ]);
    tab.row(vec![
        "Hermes".into(),
        format!("{h_gbps:.2}"),
        format!("{h_qmax:.1}"),
    ]);
    tab.print();
    println!(
        "\n(paper: Presto achieves only ~5 of the 11 Gbps aggregate due to\n\
         congestion mismatch; Hermes pins the flow to the 10 Gbps path)"
    );
}

/// Fig. 3's (flow A goodput in Gbps, 1G-path queue max in KB).
fn fig3_run(topo: &Topology, scheme: Scheme) -> (f64, f64) {
    let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(5));
    sim.add_flow(flow(0, 0, 2, 80_000_000, Time::ZERO));
    let qs = sim.add_sampler(
        Time::from_us(100),
        Probe::LeafUpQueue(LeafId(0), SpineId(0)),
    );
    let prog = sim.add_sampler(Time::from_ms(1), Probe::FlowDelivered(FlowId(0)));
    sim.run_until(Time::from_ms(40));
    let delivered = sim.sampler_series(prog).last().map_or(0, |&(_, v)| v);
    let goodput = delivered as f64 * 8.0 / 0.040 / 1e9;
    let qmax = sim
        .sampler_series(qs)
        .iter()
        .map(|&(_, v)| v)
        .max()
        .expect("the queue sampler ran") as f64
        / 1e3;
    (goodput, qmax)
}

/// **Figure 4 / Example 4** — the hidden-terminal scenario: CONGA's
/// aged congestion metrics make a bursty flow flip between spines and
/// slam into a flow it cannot see.
///
/// Flow B sends continuously L1→L2. Flow A sends 10 ms bursts from
/// L0→L2 with 3 ms pauses (every pause exceeds the flowlet timeout, so
/// each burst is free to reroute). A has no feedback about the path it
/// is *not* using; after CONGA's 10 ms aging period the alternative
/// looks empty, so A keeps jumping onto B's spine with a full-size
/// window, spiking the S1→L2 queue (Fig. 4b). Hermes' probing sees B's
/// path as non-good before each burst starts.
pub fn fig4(_: Knobs) {
    println!("== Figure 4: hidden terminal — queue spikes from stale-metric rerouting ==");
    let topo = micro(3, 2, 2);
    let conga = fig4_run(&topo, paper("conga", &topo));
    let hermes = fig4_run(&topo, paper("hermes", &topo));
    let mut tab = TextTable::new(&[
        "scheme",
        "S1->L2 samples > ECN K",
        "S0->L2 qmax (KB)",
        "S1->L2 qmax (KB)",
        "flow B FCT (ms)",
    ]);
    for (name, o) in [("CONGA", &conga), ("Hermes", &hermes)] {
        tab.row(vec![
            name.into(),
            format!("{}", o.spikes_s1),
            format!("{:.0}", o.q_max_kb[0]),
            format!("{:.0}", o.q_max_kb[1]),
            format!("{:.1}", o.b_fct_ms),
        ]);
    }
    tab.print();
    println!(
        "\n(paper: every time flow A reroutes onto B's spine with stale information,\n\
         the queue spikes — CONGA flips A on every flowlet because the unused path's\n\
         metric ages to zero within 10 ms. Hermes never reroutes mid-burst (its\n\
         cautious gate keeps the established window off foreign paths), though with\n\
         bursts modelled as fresh flows its *initial* placements are blind whenever\n\
         the busy spine shows no queue — the end-host visibility limit the paper\n\
         itself concedes in §6.)"
    );
}

struct Fig4Outcome {
    /// Queue spikes at S1→L2 (samples above the ECN threshold).
    spikes_s1: usize,
    q_max_kb: [f64; 2],
    b_fct_ms: f64,
}

fn fig4_run(topo: &Topology, scheme: Scheme) -> Fig4Outcome {
    let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(8));
    // Flow B: long continuous flow L1 (host 2) → L2 (host 4), ~96 ms at
    // 10G.
    sim.add_flow(flow(0, 2, 4, 120_000_000, Time::ZERO));
    // Flow A: 10 ms bursts every 13 ms from L0 (host 0) → L2 (host 5).
    // Each burst is a fresh "flowlet" (and a fresh flow id here, which
    // gives flowlet-based schemes their reroute opportunity exactly as
    // the pause does in the paper).
    let burst_bytes = (10e9 * 0.010 / 8.0) as u64; // 10 ms at line rate
    for i in 0..8u64 {
        sim.add_flow(flow(1 + i, 0, 5, burst_bytes, Time::from_ms(2 + 13 * i)));
    }
    let q0 = sim.add_sampler(
        Time::from_us(100),
        Probe::SpineDownQueue(SpineId(0), LeafId(2)),
    );
    let q1 = sim.add_sampler(
        Time::from_us(100),
        Probe::SpineDownQueue(SpineId(1), LeafId(2)),
    );
    sim.run_until(Time::from_ms(250));
    let ecn_k = 100_000u64; // 10G marking threshold
    let spikes_s1 = sim
        .sampler_series(q1)
        .iter()
        .filter(|&&(_, v)| v > ecn_k)
        .count();
    let qmax = |s: usize| {
        sim.sampler_series(s)
            .iter()
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(0) as f64
            / 1e3
    };
    let b_fct = sim.records()[0]
        .finish
        .map_or(f64::NAN, |f| (f - sim.records()[0].start).as_millis_f64());
    Fig4Outcome {
        spikes_s1,
        q_max_kb: [qmax(q0), qmax(q1)],
        b_fct_ms: b_fct,
    }
}

/// **Figure 7** — the two evaluation workloads' flow-size CDFs
/// (web-search from DCTCP, data-mining from VL2), printed as
/// `(size_bytes, cumulative_probability)` series plus the summary
/// moments the paper quotes in §5.1.
pub fn fig7(_: Knobs) {
    println!("== Figure 7: traffic distributions used for evaluation ==");
    for dist in [FlowSizeDist::web_search(), FlowSizeDist::data_mining()] {
        println!("\n-- {} --", dist.name());
        let mut t = TextTable::new(&["percentile", "flow size (bytes)"]);
        for p in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0] {
            t.row(vec![
                format!("{:.0}%", p * 100.0),
                format!("{:.0}", dist.quantile(p)),
            ]);
        }
        t.print();
        println!("mean flow size: {:.2} MB", dist.mean_bytes() / 1e6);
        let frac_small = dist.cdf(100_000.0);
        let frac_large = 1.0 - dist.cdf(10_000_000.0);
        println!(
            "flows < 100KB: {:.1}%   flows > 10MB: {:.1}%",
            frac_small * 100.0,
            frac_large * 100.0
        );
    }
    // §5.1: "the data-mining workload is more skewed with 95% of all
    // data bytes belonging to about 3.6% of flows that are larger than
    // 35MB".
    let dm = FlowSizeDist::data_mining();
    println!(
        "\ndata-mining flows > 35MB: {:.1}% of flows",
        (1.0 - dm.cdf(35e6)) * 100.0
    );
}
