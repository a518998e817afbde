//! `hermes-cli` — run one load-balancing experiment from the command
//! line and print the FCT summary.
//!
//! ```text
//! USAGE:
//!   hermes-cli [--topo testbed|baseline|asym] [--scheme NAME]
//!              [--workload web|dm] [--load F] [--flows N] [--seed N]
//!              [--drop SPINE:RATE] [--blackhole SPINE:SRC:DST:FRAC]
//!              [--cut LEAF:SPINE] [--transport dctcp|tcp] [--runs N]
//!
//! SCHEMES:
//!   ecmp drb presto presto-w flowbender clove letflow drill conga hermes
//! ```
//!
//! Examples:
//! ```sh
//! cargo run --release --bin hermes-cli -- --scheme hermes --load 0.6
//! cargo run --release --bin hermes-cli -- --scheme ecmp --topo asym \
//!     --workload dm --load 0.7 --flows 300
//! cargo run --release --bin hermes-cli -- --scheme conga \
//!     --drop 3:0.02 --load 0.5
//! ```

use hermes_bench::{asym_topology, avg_summaries, baseline_capacity, run_points, PointCfg};
use hermes_core::HermesParams;
use hermes_net::{LeafId, SpineFailure, SpineId, Topology};
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_transport::TransportCfg;
use hermes_workload::{FctSummary, FlowSizeDist};

struct Args {
    topo: String,
    scheme: String,
    workload: String,
    load: f64,
    flows: usize,
    seed: u64,
    runs: u64,
    transport: String,
    drops: Vec<(u16, f64)>,
    blackholes: Vec<(u16, u16, u16, f64)>,
    cuts: Vec<(u16, u16)>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!("usage: hermes-cli [--topo testbed|baseline|asym] [--scheme NAME]");
    eprintln!("                  [--workload web|dm] [--load F] [--flows N] [--seed N]");
    eprintln!("                  [--drop SPINE:RATE] [--blackhole SPINE:SRC:DST:FRAC]");
    eprintln!("                  [--cut LEAF:SPINE] [--transport dctcp|tcp] [--runs N]");
    eprintln!("schemes: ecmp drb presto presto-w flowbender clove letflow drill conga hermes");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        topo: "baseline".into(),
        scheme: "hermes".into(),
        workload: "web".into(),
        load: 0.6,
        flows: 500,
        seed: 1,
        runs: 1,
        transport: "dctcp".into(),
        drops: Vec::new(),
        blackholes: Vec::new(),
        cuts: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i - 1)
            .cloned()
            .unwrap_or_else(|| usage("missing value for flag"))
    };
    while i < argv.len() {
        let flag = argv[i].clone();
        i += 1;
        match flag.as_str() {
            "--topo" => args.topo = next(&mut i),
            "--scheme" => args.scheme = next(&mut i),
            "--workload" => args.workload = next(&mut i),
            "--load" => args.load = next(&mut i).parse().unwrap_or_else(|_| usage("bad --load")),
            "--flows" => {
                args.flows = next(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --flows"));
            }
            "--seed" => args.seed = next(&mut i).parse().unwrap_or_else(|_| usage("bad --seed")),
            "--runs" => args.runs = next(&mut i).parse().unwrap_or_else(|_| usage("bad --runs")),
            "--transport" => args.transport = next(&mut i),
            "--drop" => {
                let v = next(&mut i);
                let (s, r) = v.split_once(':').unwrap_or_else(|| usage("bad --drop"));
                args.drops.push((
                    s.parse().unwrap_or_else(|_| usage("bad --drop spine")),
                    r.parse().unwrap_or_else(|_| usage("bad --drop rate")),
                ));
            }
            "--blackhole" => {
                let v = next(&mut i);
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 4 {
                    usage("bad --blackhole (want SPINE:SRCLEAF:DSTLEAF:FRAC)");
                }
                args.blackholes.push((
                    parts[0].parse().unwrap_or_else(|_| usage("bad spine")),
                    parts[1].parse().unwrap_or_else(|_| usage("bad src leaf")),
                    parts[2].parse().unwrap_or_else(|_| usage("bad dst leaf")),
                    parts[3].parse().unwrap_or_else(|_| usage("bad fraction")),
                ));
            }
            "--cut" => {
                let v = next(&mut i);
                let (l, s) = v.split_once(':').unwrap_or_else(|| usage("bad --cut"));
                args.cuts.push((
                    l.parse().unwrap_or_else(|_| usage("bad leaf")),
                    s.parse().unwrap_or_else(|_| usage("bad spine")),
                ));
            }
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.flows == 0 {
        usage("--flows must be at least 1");
    }
    if args.runs == 0 {
        usage("--runs must be at least 1");
    }
    // Run `i` uses seed `--seed + i`.
    if args.seed.checked_add(args.runs - 1).is_none() {
        usage("--seed plus --runs overflows a 64-bit seed");
    }
    // FlowGen's accepted range, (0, 1.5]; `contains` is false for NaN.
    if !(f64::MIN_POSITIVE..=1.5).contains(&args.load) {
        usage("--load must lie in (0, 1.5]");
    }
    if args.drops.iter().any(|&(_, r)| !(0.0..=1.0).contains(&r)) {
        usage("--drop rate must lie in [0, 1]");
    }
    if args
        .blackholes
        .iter()
        .any(|&(_, _, _, f)| !(0.0..=1.0).contains(&f))
    {
        usage("--blackhole fraction must lie in [0, 1]");
    }
    args
}

/// Reject switch indices the chosen topology does not have, before any
/// of them is used to index the fabric.
fn check_indices(a: &Args, topo: &Topology) {
    let spine_ok = |s: u16| usize::from(s) < topo.n_spines;
    let leaf_ok = |l: u16| usize::from(l) < topo.n_leaves;
    let dims = format!(
        "topology {} has {} leaves and {} spines",
        a.topo, topo.n_leaves, topo.n_spines
    );
    if !a.drops.iter().all(|&(s, _)| spine_ok(s)) {
        usage(&format!("--drop spine out of range: {dims}"));
    }
    if !a
        .blackholes
        .iter()
        .all(|&(s, sl, dl, _)| spine_ok(s) && leaf_ok(sl) && leaf_ok(dl))
    {
        usage(&format!("--blackhole spine or leaf out of range: {dims}"));
    }
    if !a.cuts.iter().all(|&(l, s)| leaf_ok(l) && spine_ok(s)) {
        usage(&format!("--cut leaf or spine out of range: {dims}"));
    }
}

/// The topology under test (cuts applied) and the *healthy* fabric's
/// uplink capacity that `--load` is defined against.
fn build_topo(a: &Args) -> (Topology, u64) {
    let (mut topo, healthy) = match a.topo.as_str() {
        "testbed" => (Topology::testbed(), Topology::testbed().total_uplink_bps()),
        "baseline" => (Topology::sim_baseline(), baseline_capacity()),
        "asym" => (asym_topology(), baseline_capacity()),
        other => usage(&format!("unknown topology {other}")),
    };
    check_indices(a, &topo);
    for &(l, s) in &a.cuts {
        topo.cut_link(LeafId(l), SpineId(s));
    }
    if let Err(e) = topo.check_connected() {
        usage(&format!("--cut disconnects the fabric: {e}"));
    }
    (topo, healthy)
}

/// `--scheme` through the one name table, then the CLI's own Hermes
/// parameter choice (TCP and the 1 Gbps testbed have tuned presets).
fn resolve_scheme(a: &Args, topo: &Topology) -> Scheme {
    let name = match a.scheme.as_str() {
        "presto-w" => "presto_weighted",
        other => other,
    };
    match Scheme::by_name(name, topo) {
        Some(Scheme::Hermes(_)) if a.transport == "tcp" => {
            Scheme::Hermes(HermesParams::for_tcp(topo))
        }
        Some(Scheme::Hermes(_)) if a.topo == "testbed" => {
            Scheme::Hermes(HermesParams::paper_testbed(topo))
        }
        Some(scheme) => scheme,
        None => usage(&format!("unknown scheme {}", a.scheme)),
    }
}

fn print_summary(s: &FctSummary) {
    println!("flows               {}", s.n);
    println!(
        "unfinished          {} ({:.2}%)",
        s.unfinished,
        100.0 * s.unfinished_frac()
    );
    println!("avg FCT             {:.3} ms", s.avg * 1e3);
    println!(
        "p50 / p95 / p99     {:.3} / {:.3} / {:.3} ms",
        s.p50 * 1e3,
        s.p95 * 1e3,
        s.p99 * 1e3
    );
    println!(
        "small (<100KB) avg  {:.3} ms   p99 {:.3} ms   (n={})",
        s.avg_small * 1e3,
        s.p99_small * 1e3,
        s.n_small
    );
    println!(
        "large (>10MB)  avg  {:.3} ms   (n={})",
        s.avg_large * 1e3,
        s.n_large
    );
}

fn main() {
    let a = parse_args();
    let (topo, capacity) = build_topo(&a);
    let dist = match a.workload.as_str() {
        "web" => FlowSizeDist::web_search(),
        "dm" => FlowSizeDist::data_mining(),
        other => usage(&format!("unknown workload {other}")),
    };
    let transport = match a.transport.as_str() {
        "dctcp" => TransportCfg::dctcp(),
        "tcp" => TransportCfg::tcp(),
        other => usage(&format!("unknown transport {other}")),
    };
    let scheme = resolve_scheme(&a, &topo);
    println!(
        "topology={} scheme={} workload={} load={:.2} flows={} seed={} runs={}",
        a.topo,
        a.scheme,
        dist.name(),
        a.load,
        a.flows,
        a.seed,
        a.runs
    );
    let mut cfg = PointCfg::new(topo, scheme, dist, a.load)
        .flows(a.flows)
        .capacity(capacity)
        .transport(transport)
        .drain(Time::from_secs(10));
    for &(s, r) in &a.drops {
        cfg = cfg.failure(SpineId(s), SpineFailure::random_drops(r));
    }
    for &(sp, sl, dl, f) in &a.blackholes {
        cfg = cfg.failure(
            SpineId(sp),
            SpineFailure::blackhole(LeafId(sl), LeafId(dl), f),
        );
    }
    let cfgs: Vec<PointCfg> = (0..a.runs)
        .map(|run| cfg.clone().seed(a.seed + run))
        .collect();
    let sums: Vec<FctSummary> = run_points(&cfgs).into_iter().map(|r| r.fct).collect();
    if a.runs > 1 {
        for (run, fct) in sums.iter().enumerate() {
            eprintln!("run {run}: avg {:.3} ms", fct.avg * 1e3);
        }
    }
    print_summary(&avg_summaries(&sums));
}
