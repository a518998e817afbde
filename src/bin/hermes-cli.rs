//! `hermes-cli` — run a scenario file or a named trace point and print
//! the FCT summary; `--trace DIR` also writes each run's event trace and
//! sampled metrics.
//!
//! A scenario file is the format of `tests/scenarios/` (schema in
//! `hermes_testkit::spec`), read by the same [`load_file`] the
//! conformance suite, the figures and the chaos corpus use. The CLI runs
//! every `(lb, load, seed)` cell and prints, per `(lb, load)`, a header
//! line and the summary averaged over the file's seeds. It judges
//! nothing: `[[envelope]]`, `[invariants]` and `[slo]` are checked as the
//! loader checks them but not applied, and no fault-free twin runs.
//!
//! `hermes-cli --help` prints [`USAGE`], the names `lbs` takes
//! ([`Scheme::NAMES`]) and the points `--point` runs
//! ([`hermes_testkit::trace_points`]).
//!
//! Examples (the files are in `examples/scenarios/`):
//! ```sh
//! cargo run --release --bin hermes-cli -- examples/scenarios/testbed_hermes.toml
//! cargo run --release --bin hermes-cli -- examples/scenarios/baseline_ecmp_drop.toml
//! cargo run --release --bin hermes-cli -- examples/scenarios/testbed_blackhole.toml
//! cargo run --release --bin hermes-cli -- examples/scenarios/fig16_drop_probe.toml
//! cargo run --release --bin hermes-cli -- --point fig17_mini --trace traces
//! ```

use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};

use hermes_runtime::Scheme;
use hermes_testkit::{
    avg_summaries, load_file, run_point, run_points_with, run_trace_point, trace_point,
    trace_points, PointCfg, RunReport,
};
use hermes_workload::FctSummary;

/// What one invocation runs.
enum Target {
    File(PathBuf),
    Point(String),
}

/// One run: the header line of the summary it counts towards, the stem
/// of its trace files and the point.
struct Run {
    header: String,
    stem: String,
    cfg: PointCfg,
}

/// The arguments; [`usage_text`] adds the schemes and the points.
const USAGE: &str = "usage: hermes-cli FILE.toml [--trace DIR]
       hermes-cli --point NAME [--trace DIR]
FILE.toml is a scenario file (examples/scenarios/, tests/scenarios/): every
(lb, load, seed) cell runs, and each (lb, load) prints a header and the
summary averaged over the file's seeds. --point runs a registered point.
--trace writes each run's DIR/STEM.trace.jsonl and DIR/STEM.metrics.csv:
STEM is the point's NAME, or SCENARIO.LB.seedS for a file's cell
(SCENARIO.LB.loadL.seedS if the file lists several loads).
";

fn usage_text() -> String {
    let points = trace_points().map(|p| format!("\n  {:<26} {}", p.name, p.about));
    let schemes = Scheme::NAMES.join(" ");
    format!(
        "{USAGE}schemes (for `lbs`): {schemes}\npoints:{}\n",
        points.concat()
    )
}

fn usage(msg: &str) -> ! {
    eprint!("error: {msg}\n\n{}", usage_text());
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> (Target, Option<PathBuf>) {
    let (mut target, mut trace) = (None, None);
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            let v = args.next().cloned();
            v.unwrap_or_else(|| usage(&format!("missing value for {arg}")))
        };
        let next = match arg.as_str() {
            "--help" | "-h" => {
                check_written(io::stdout().lock().write_all(usage_text().as_bytes()));
                std::process::exit(0)
            }
            "--trace" => {
                trace = Some(PathBuf::from(value()));
                continue;
            }
            "--point" => Target::Point(value()),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
            file => Target::File(file.into()),
        };
        if target.replace(next).is_some() {
            usage("give one FILE.toml or one --point NAME");
        }
    }
    let target = target.unwrap_or_else(|| usage("give a FILE.toml or --point NAME to run"));
    (target, trace)
}

/// The runs `target` names, in print order: a point's one run, or a
/// file's cells, whose `(lb, load)` rows share a header.
fn runs(target: &Target) -> Vec<Run> {
    let path = match target {
        Target::Point(name) => {
            let p = trace_point(name).unwrap_or_else(|| usage(&format!("unknown point {name}")));
            let header = format!("point={name} seed={}", p.point.sim.seed);
            let stem = name.clone();
            return vec![Run {
                header,
                stem,
                cfg: p.point,
            }];
        }
        Target::File(path) => path,
    };
    let spec = load_file(path).unwrap_or_else(|e| usage(&e.to_string()));
    let cells = spec.cells().into_iter().map(|(li, ld, seed)| {
        let lb = &spec.lbs[li].0;
        let load = spec.loads.get(ld);
        let header_load = load.map_or(String::new(), |l| format!(" load={l}"));
        let stem_load = match load {
            Some(l) if spec.loads.len() > 1 => format!(".load{l}"),
            _ => String::new(),
        };
        Run {
            header: format!(
                "scenario={} lb={lb}{header_load} seeds={:?}",
                spec.name, spec.seeds
            ),
            stem: format!("{}.{lb}{stem_load}.seed{seed}", spec.name),
            cfg: spec.materialize(li, ld, seed),
        }
    });
    cells.collect()
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

/// Run `run` traced and write its two files into `dir`, named as
/// [`USAGE`] says; return its report and the line that names the trace
/// and the files. The trace is dropped before the worker's next run.
fn traced_run(run: &Run, dir: &Path) -> Result<(RunReport, String), String> {
    let stem = &run.stem;
    let out = run_trace_point(&run.cfg);
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
    let (target, trace) = parse_args(&std::env::args().skip(1).collect::<Vec<_>>());
    let runs = runs(&target);
    // Before any run, so a bad `--trace` costs no simulation.
    if let Some(dir) = &trace {
        let made = std::fs::create_dir_all(dir);
        made.unwrap_or_else(|e| usage(&format!("--trace {}: {e}", dir.display())));
    }
    check_written(run_and_print(
        &mut io::stdout().lock(),
        &runs,
        trace.as_deref(),
    ));
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

/// Run every run in one pool call, then write each header line, its
/// traced runs' lines and the summary averaged over its runs to `out`.
fn run_and_print(out: &mut impl Write, runs: &[Run], trace: Option<&Path>) -> io::Result<()> {
    let done = run_points_with(runs, |run| match trace {
        None => Ok((run_point(&run.cfg), None)),
        Some(dir) => traced_run(run, dir).map(|(report, line)| (report, Some(line))),
    });
    let done: Result<Vec<_>, _> = done.into_iter().collect();
    let mut done = done.unwrap_or_else(|e| usage(&e)).into_iter();
    for row in runs.chunk_by(|a, b| a.header == b.header) {
        writeln!(out, "{}", row[0].header)?;
        let mut sums: Vec<FctSummary> = Vec::with_capacity(row.len());
        for (report, line) in done.by_ref().take(row.len()) {
            if let Some(line) = line {
                writeln!(out, "{line}")?;
            }
            sums.push(report.fct);
        }
        if row.len() > 1 {
            for (run, fct) in row.iter().zip(&sums) {
                eprintln!("{}: avg {:.3} ms", run.stem, fct.avg * 1e3);
            }
        }
        print_summary(out, &avg_summaries(&sums))?;
    }
    Ok(())
}
