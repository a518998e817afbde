//! `hermes-cli` — run one load-balancing experiment from the command
//! line and print the FCT summary; `--trace DIR` also writes each run's
//! event trace and sampled metrics.
//!
//! `hermes-cli --help` prints the flags ([`USAGE`]), the names
//! `--scheme` takes ([`Scheme::NAMES`]) and the points `--point` runs
//! ([`hermes_testkit::trace_points`]).
//!
//! Examples:
//! ```sh
//! cargo run --release --bin hermes-cli -- --scheme hermes --load 0.6
//! cargo run --release --bin hermes-cli -- --scheme ecmp --topo asym \
//!     --workload dm --load 0.7 --flows 300
//! cargo run --release --bin hermes-cli -- --scheme conga \
//!     --drop 3:0.02 --load 0.5
//! cargo run --release --bin hermes-cli -- --point fig17_mini --trace traces
//! ```

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};

use hermes_net::{Blackhole, LeafId, SpineFailure, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig};
use hermes_sim::Time;
use hermes_testkit::{
    asym_topology, avg_summaries, baseline_capacity, hermes_preset, run_points, run_points_with,
    run_trace_point, trace_point, trace_points, PointCfg, PointField, RunReport,
};
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
    point: Option<String>,
    trace: Option<PathBuf>,
    /// The first shaping flag given, if any.
    shaped: Option<String>,
}

/// The flags; [`usage_text`] adds the schemes and the points.
const USAGE: &str = "usage: hermes-cli [--topo testbed|baseline|asym] [--scheme NAME]
                  [--workload web|dm] [--load F] [--flows N] [--seed N]
                  [--drop SPINE:RATE] [--blackhole SPINE:SRC:DST:FRAC]
                  [--cut LEAF:SPINE] [--transport dctcp|tcp] [--runs N] [--trace DIR]
       hermes-cli --point NAME [--runs N] [--trace DIR]
Run i uses seed --seed + i, or the point's own seed + i with --point.
--trace writes each run's DIR/STEM.trace.jsonl and DIR/STEM.metrics.csv:
STEM is the --point NAME or `run`, plus `.seedS` (S: the run's seed) if --runs > 1.
";

fn usage_text() -> String {
    let points = trace_points().map(|p| format!("\n  {:<26} {}", p.name, p.about));
    let schemes = Scheme::NAMES.join(" ");
    format!("{USAGE}schemes: {schemes}\npoints:{}\n", points.concat())
}

fn usage(msg: &str) -> ! {
    eprint!("error: {msg}\n\n{}", usage_text());
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
        point: None,
        trace: None,
        shaped: None,
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
        // Every other flag shapes the point, so none may go with `--point`.
        if !matches!(flag.as_str(), "--point" | "--trace" | "--runs") {
            args.shaped.get_or_insert(flag.clone());
        }
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
            "--point" => args.point = Some(next(&mut i)),
            "--trace" => args.trace = Some(next(&mut i).into()),
            "--help" | "-h" => {
                check_written(io::stdout().lock().write_all(usage_text().as_bytes()));
                std::process::exit(0)
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.runs == 0 {
        usage("--runs must be at least 1");
    }
    if let (Some(_), Some(flag)) = (&args.point, &args.shaped) {
        usage(&format!("{flag} cannot be combined with --point"));
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
/// preset choice (TCP and the 1 Gbps testbed have tuned presets).
fn resolve_scheme(a: &Args, topo: &Topology) -> Scheme {
    let preset = match (a.transport.as_str(), a.topo.as_str()) {
        ("tcp", _) => Some("tcp"),
        (_, "testbed") => Some("testbed"),
        _ => None,
    };
    match (Scheme::by_name(&a.scheme, topo), preset) {
        (Some(Scheme::Hermes(_)), Some(preset)) => {
            Scheme::Hermes(hermes_preset(preset, topo).expect("a preset name"))
        }
        (Some(scheme), _) => scheme,
        (None, _) => usage(&format!("unknown scheme {}", a.scheme)),
    }
}

fn print_summary(out: &mut impl Write, s: &FctSummary) -> io::Result<()> {
    let (n, unfinished, n_small, n_large) = (s.n, s.unfinished, s.n_small, s.n_large);
    let pct = 100.0 * s.unfinished_frac();
    let [avg, p50, p95, p99] = [s.avg, s.p50, s.p95, s.p99].map(|x| x * 1e3);
    let [small, small99, large] = [s.avg_small, s.p99_small, s.avg_large].map(|x| x * 1e3);
    writeln!(out, "flows               {n}")?;
    writeln!(out, "unfinished          {unfinished} ({pct:.2}%)")?;
    writeln!(out, "avg FCT             {avg:.3} ms")?;
    writeln!(out, "p50 / p95 / p99     {p50:.3} / {p95:.3} / {p99:.3} ms")?;
    writeln!(
        out,
        "small (<100KB) avg  {small:.3} ms   p99 {small99:.3} ms   (n={n_small})"
    )?;
    writeln!(out, "large (>10MB)  avg  {large:.3} ms   (n={n_large})")
}

/// The point the shaping flags describe, and the start of the header
/// line that names it.
fn flag_point(a: &Args) -> (PointCfg, String) {
    let (topo, capacity) = build_topo(a);
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
    let scheme = resolve_scheme(a, &topo);
    let mut sim = SimConfig::new(topo, scheme).with_transport(transport);
    sim.seed = a.seed;
    let workload = dist.name();
    let header = format!(
        "topology={} scheme={} workload={workload} load={:.2} flows={}",
        a.topo, a.scheme, a.load, a.flows
    );
    let poisson = PoissonCfg {
        dist,
        load: a.load,
        flows: a.flows,
        capacity: Some(capacity),
    };
    let point = PointCfg::new(sim, WorkloadKind::Poisson(poisson)).drain(Time::from_secs(10));
    let failures = spine_failures(a).unwrap_or_else(|e| usage(&e));
    let cfg = failures
        .into_iter()
        .fold(point, |cfg, (s, f)| cfg.failure(s, f));
    (cfg, header)
}

/// Run `cfg` traced and write its two files into `dir`, named as
/// [`USAGE`] says; return its report and the line that names the trace
/// and the files. The trace is dropped before the worker's next point.
fn traced_run(cfg: &PointCfg, a: &Args, dir: &Path) -> Result<(RunReport, String), String> {
    let seed = (a.runs > 1).then(|| format!(".seed{}", cfg.sim.seed));
    let stem = a.point.as_deref().unwrap_or("run").to_string() + &seed.unwrap_or_default();
    let out = run_trace_point(cfg);
    let (events, shed, report) = (out.events.len(), out.shed, &out.report);
    let mut line = format!(
        "{stem}: {events} events ({shed} shed), {} unfinished flows, digest {:#018x}",
        report.fct.unfinished, report.digest
    );
    for (ext, body) in [("trace.jsonl", &out.jsonl), ("metrics.csv", &out.csv)] {
        let path = dir.join(format!("{stem}.{ext}"));
        std::fs::write(&path, body).map_err(|e| format!("--trace {}: {e}", path.display()))?;
        line += &format!("\n  {}", path.display());
    }
    Ok((out.report, line))
}

fn main() {
    let a = parse_args(&std::env::args().skip(1).collect::<Vec<_>>());
    let (cfg, header) = match &a.point {
        Some(name) => {
            let p = trace_point(name).unwrap_or_else(|| usage(&format!("unknown point {name}")));
            (p.point, format!("point={name}"))
        }
        None => flag_point(&a),
    };
    if let Err(e) = cfg.validate() {
        let field = match e.field {
            PointField::Load => "--load",
            PointField::Flows => "--flows",
            PointField::Faults => "--drop/--blackhole",
            PointField::Topology => "--cut",
            PointField::Workload(field) => field,
        };
        usage(&format!("{field}: {}", e.msg));
    }
    let seed = cfg.sim.seed;
    if seed.checked_add(a.runs - 1).is_none() {
        usage("the run seeds overflow 64 bits (--seed plus --runs)");
    }
    // Before any run, so a bad `--trace` costs no simulation.
    if let Some(dir) = &a.trace {
        let made = std::fs::create_dir_all(dir);
        made.unwrap_or_else(|e| usage(&format!("--trace {}: {e}", dir.display())));
    }
    check_written(run_and_print(&mut io::stdout().lock(), &a, &cfg, &header));
}

/// End the program if a write to stdout failed: quietly (exit 0) when
/// the reader closed the pipe (`| head`), which wants no more output, as
/// the shell's own tools do; with the error (exit 1) otherwise.
fn check_written(written: io::Result<()>) {
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1)
        }
    }
}

/// Run `cfg` `a.runs` times from its seed up and write the header line,
/// each traced run's line and the averaged summary to `out`.
fn run_and_print(out: &mut impl Write, a: &Args, cfg: &PointCfg, header: &str) -> io::Result<()> {
    let seed = cfg.sim.seed;
    writeln!(out, "{header} seed={seed} runs={}", a.runs)?;
    let cfgs: Vec<PointCfg> = (0..a.runs)
        .map(|run| {
            let mut run_cfg = cfg.clone();
            run_cfg.sim.seed = seed + run;
            run_cfg
        })
        .collect();
    let reports = match &a.trace {
        None => run_points(&cfgs),
        Some(dir) => {
            let runs = run_points_with(&cfgs, |cfg| traced_run(cfg, a, dir));
            let runs: Result<Vec<_>, _> = runs.into_iter().collect();
            let runs = runs.unwrap_or_else(|e| usage(&e));
            for (_, line) in &runs {
                writeln!(out, "{line}")?;
            }
            runs.into_iter().map(|(report, _)| report).collect()
        }
    };
    let sums: Vec<FctSummary> = reports.into_iter().map(|r| r.fct).collect();
    if a.runs > 1 {
        for (run, fct) in sums.iter().enumerate() {
            eprintln!("run {run}: avg {:.3} ms", fct.avg * 1e3);
        }
    }
    print_summary(out, &avg_summaries(&sums))
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
