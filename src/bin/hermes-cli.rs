//! `hermes-cli` — run one load-balancing experiment from the command
//! line and print the FCT summary.
//!
//! ```text
//! USAGE:
//!   hermes-cli [--topo testbed|baseline|asym] [--scheme NAME]
//!              [--workload web|dm] [--load F] [--flows N] [--seed N]
//!              [--drop SPINE:RATE] [--blackhole SPINE:SRC:DST:FRAC]
//!              [--cut LEAF:SPINE] [--transport dctcp|tcp] [--runs N]
//! ```
//!
//! `--scheme` takes any name in [`Scheme::NAMES`], which the usage text
//! prints.
//!
//! Examples:
//! ```sh
//! cargo run --release --bin hermes-cli -- --scheme hermes --load 0.6
//! cargo run --release --bin hermes-cli -- --scheme ecmp --topo asym \
//!     --workload dm --load 0.7 --flows 300
//! cargo run --release --bin hermes-cli -- --scheme conga \
//!     --drop 3:0.02 --load 0.5
//! ```

use std::collections::BTreeMap;

use hermes_bench::{
    asym_topology, avg_summaries, baseline_capacity, run_points, PointCfg, PointField,
};
use hermes_core::HermesParams;
use hermes_net::{Blackhole, LeafId, SpineFailure, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig};
use hermes_sim::Time;
use hermes_transport::TransportCfg;
use hermes_workload::{FctSummary, FlowSizeDist, PoissonCfg, WorkloadKind};

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
    eprintln!("schemes: {}", Scheme::NAMES.join(" "));
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
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
    if args.runs == 0 {
        usage("--runs must be at least 1");
    }
    // Run `i` uses seed `--seed + i`.
    if args.seed.checked_add(args.runs - 1).is_none() {
        usage("--seed plus --runs overflows a 64-bit seed");
    }
    args
}

/// The topology under test (cuts applied) and the *healthy* fabric's
/// uplink capacity that `--load` is defined against. A `--cut` index
/// is checked here, before `cut_link` indexes the topology with it.
fn build_topo(a: &Args) -> (Topology, u64) {
    let (mut topo, healthy) = match a.topo.as_str() {
        "testbed" => (Topology::testbed(), Topology::testbed().total_uplink_bps()),
        "baseline" => (Topology::sim_baseline(), baseline_capacity()),
        "asym" => (asym_topology(), baseline_capacity()),
        other => usage(&format!("unknown topology {other}")),
    };
    for &(l, s) in &a.cuts {
        if usize::from(l) >= topo.n_leaves || usize::from(s) >= topo.n_spines {
            usage(&format!(
                "--cut {l}:{s} out of range: topology {} has {} leaves and {} spines",
                a.topo, topo.n_leaves, topo.n_spines
            ));
        }
        topo.cut_link(LeafId(l), SpineId(s));
    }
    (topo, healthy)
}

/// The failures for the whole run that `--drop` and `--blackhole` ask
/// for: one `SpineFailure` per spine, so a drop and a blackhole on one
/// spine combine, each installed with `PointCfg::failure` as a fault-plan
/// entry at t = 0. `Err` names the flag that lists a spine twice. The
/// values are not range-checked here; `PointCfg::validate` does that.
fn spine_failures(a: &Args) -> Result<Vec<(SpineId, SpineFailure)>, String> {
    let mut merged: BTreeMap<u16, (Option<f64>, Option<Blackhole>)> = BTreeMap::new();
    for &(s, rate) in &a.drops {
        if merged.entry(s).or_default().0.replace(rate).is_some() {
            return Err(format!("--drop names spine {s} twice"));
        }
    }
    for &(s, src, dst, pair_fraction) in &a.blackholes {
        let hole = Blackhole {
            src_leaf: LeafId(src),
            dst_leaf: LeafId(dst),
            pair_fraction,
        };
        if merged.entry(s).or_default().1.replace(hole).is_some() {
            return Err(format!("--blackhole names spine {s} twice"));
        }
    }
    let failure = |(drop, blackhole): (Option<f64>, _)| SpineFailure {
        random_drop: drop.unwrap_or(0.0),
        blackhole,
        ..SpineFailure::default()
    };
    Ok(merged
        .into_iter()
        .map(|(s, f)| (SpineId(s), failure(f)))
        .collect())
}

/// `--scheme` through the one name table, then the CLI's own Hermes
/// parameter choice (TCP and the 1 Gbps testbed have tuned presets).
fn resolve_scheme(a: &Args, topo: &Topology) -> Scheme {
    match Scheme::by_name(&a.scheme, topo) {
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
    let a = parse_args(&std::env::args().skip(1).collect::<Vec<_>>());
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
    let sim = SimConfig::new(topo, scheme).with_transport(transport);
    let workload = dist.name();
    let poisson = PoissonCfg {
        dist,
        load: a.load,
        flows: a.flows,
        capacity: Some(capacity),
    };
    let point = PointCfg::new(sim, WorkloadKind::Poisson(poisson)).drain(Time::from_secs(10));
    let failures = spine_failures(&a).unwrap_or_else(|e| usage(&e));
    let cfg = failures
        .into_iter()
        .fold(point, |cfg, (s, f)| cfg.failure(s, f));
    if let Err(e) = cfg.validate() {
        let flag = match e.field {
            PointField::Load => "--load",
            PointField::Flows => "--flows",
            PointField::Faults => "--drop/--blackhole",
            PointField::Topology => "--cut",
            PointField::Workload(_) => unreachable!("the CLI runs no elephant/mice mix"),
        };
        usage(&format!("{flag}: {}", e.msg));
    }
    println!(
        "topology={} scheme={} workload={} load={:.2} flows={} seed={} runs={}",
        a.topo, a.scheme, workload, a.load, a.flows, a.seed, a.runs
    );
    let cfgs: Vec<PointCfg> = (0..a.runs)
        .map(|run| {
            let mut run_cfg = cfg.clone();
            run_cfg.sim.seed = a.seed + run;
            run_cfg
        })
        .collect();
    let sums: Vec<FctSummary> = run_points(&cfgs).into_iter().map(|r| r.fct).collect();
    if a.runs > 1 {
        for (run, fct) in sums.iter().enumerate() {
            eprintln!("run {run}: avg {:.3} ms", fct.avg * 1e3);
        }
    }
    print_summary(&avg_summaries(&sums));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_drop_and_a_blackhole_on_one_spine_make_one_failure_with_both() {
        let argv = [
            "--drop",
            "0:0.02",
            "--blackhole",
            "0:0:1:1.0",
            "--drop",
            "2:0.1",
        ];
        let a = parse_args(&argv.map(String::from));
        let failures = spine_failures(&a).expect("no spine repeats a flag");
        let hole = Blackhole {
            src_leaf: LeafId(0),
            dst_leaf: LeafId(1),
            pair_fraction: 1.0,
        };
        assert_eq!(
            failures,
            [
                (
                    SpineId(0),
                    SpineFailure {
                        random_drop: 0.02,
                        blackhole: Some(hole),
                        ..SpineFailure::default()
                    }
                ),
                (SpineId(2), SpineFailure::random_drops(0.1)),
            ]
        );
    }
}
