//! `fig <name>` regenerates one of the paper's tables or figures and
//! prints it; `fig` alone lists the names, one per line. Each name is
//! the stem of its committed `bench_results/<name>.txt`.
//!
//! ```sh
//! cargo run --release -p hermes-testkit --bin fig -- fig12_baseline
//! HERMES_SCALE=0.2 HERMES_RUNS=3 target/release/fig fig16_random_drop
//! ```
//!
//! Most evaluation figures are FCT grids: the scenario files of
//! `figures/<name>/` at the repo root, whose cells all run in one
//! [`run_grid`] call before anything prints. The rest (§2's motivation
//! examples, Table 6's cost model, the transient and collective
//! extensions) run their own scenarios.

mod motivation;
mod probing;
mod recovery;
mod table;

use std::env::VarError;
use std::io::{self, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hermes_net::Topology;
use hermes_runtime::Scheme;
use hermes_testkit::{avg_summaries, load_dir, run_grid, RunOutcome, ScenarioSpec};
use hermes_workload::{FctSummary, WorkloadKind};
use table::{fmt_ms, fmt_ratio, TextTable};
use Figure::{Custom, Grids};

/// How a figure is produced.
enum Figure {
    /// The FCT grids of `figures/<name>/`, each file one table.
    Grids,
    /// A figure with its own scenario and output.
    Custom(fn(&mut dyn Write, Knobs) -> io::Result<()>),
}

/// Every table and figure, in paper order.
#[rustfmt::skip]
const FIGURES: &[(&str, Figure)] = &[
    ("table2_visibility",          Custom(motivation::table2)),
    ("table6_probing",             Custom(motivation::table6)),
    ("fig1_flowlet_passive",       Custom(motivation::fig1)),
    ("fig2_congestion_mismatch",   Custom(motivation::fig2)),
    ("fig3_hetero_mismatch",       Custom(motivation::fig3)),
    ("fig4_hidden_terminal",       Custom(motivation::fig4)),
    ("fig7_workload_cdfs",         Custom(motivation::fig7)),
    ("fig9_testbed_symmetric",     Grids),
    ("fig10_testbed_asymmetric",   Grids),
    ("fig12_baseline",             Grids),
    ("fig13_asym_websearch",       Grids),
    ("fig14_asym_datamining",      Grids),
    ("fig15_flowlet_sweep",        Grids),
    ("fig16_random_drop",          Grids),
    ("fig17_blackhole",            Grids),
    ("fig17_transient_recovery",   Custom(recovery::fig17_transient)),
    ("fig18_ablation",             Grids),
    ("fig19_sensitivity",          Grids),
    ("tcp_transport",              Grids),
    ("collective_stall",           Custom(recovery::collective_stall)),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut io::stdout().lock();
    let Some(name) = args.first() else {
        let names = FIGURES
            .iter()
            .try_for_each(|(name, _)| writeln!(out, "{name}"));
        return finish(out, names);
    };
    let figure = FIGURES.iter().find(|(n, _)| n == name);
    let Some((_, figure)) = figure.filter(|_| args.len() == 1) else {
        eprintln!("usage: fig [<name>], with <name> one of:");
        for (name, _) in FIGURES {
            eprintln!("{name}");
        }
        return ExitCode::from(2);
    };
    let knobs = match Knobs::from_env() {
        Ok(knobs) => knobs,
        Err(msg) => {
            eprintln!("fig: {msg}");
            return ExitCode::from(2);
        }
    };
    let written = match figure {
        Grids => match grids(name, knobs) {
            Ok(specs) => run_figure(out, &specs),
            Err(msg) => {
                eprintln!("fig: {msg}");
                return ExitCode::from(2);
            }
        },
        Custom(run) => run(out, knobs),
    };
    finish(out, written)
}

/// The exit code once the figure is written. A closed stdout wants no
/// more output, as with the shell's own tools: stop quietly (exit 0).
/// Any other write error is a failure.
fn finish(out: &mut impl Write, written: io::Result<()>) -> ExitCode {
    match written.and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig: writing stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A scheme at the paper's default parameters, by its
/// [`Scheme::NAMES`] entry; a figure labels it as the paper does.
fn paper(name: &str, topo: &Topology) -> Scheme {
    Scheme::by_name(name, topo).expect("a Scheme::NAMES entry")
}

/// The scaling knobs, read once from `HERMES_SCALE` (flow counts) and
/// `HERMES_RUNS` (seeds per point) before any cell runs.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    scale: f64,
    runs: usize,
}

impl Knobs {
    fn from_env() -> Result<Knobs, String> {
        let var = |name| match std::env::var(name) {
            Ok(v) => Ok(Some(v)),
            Err(VarError::NotPresent) => Ok(None),
            Err(VarError::NotUnicode(_)) => Err(format!("{name} is not valid UTF-8")),
        };
        Knobs::parse(
            var("HERMES_SCALE")?.as_deref(),
            var("HERMES_RUNS")?.as_deref(),
        )
    }

    /// The knobs from their raw values (`None` = unset): a finite
    /// scale > 0, default 1, and an integer run count ≥ 1, default 1.
    fn parse(scale: Option<&str>, runs: Option<&str>) -> Result<Knobs, String> {
        let scale = match scale {
            None => 1.0,
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or(format!("HERMES_SCALE={v:?} must be a finite number > 0"))?,
        };
        let runs = match runs {
            None => 1,
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&r| r >= 1)
                .ok_or(format!("HERMES_RUNS={v:?} must be an integer ≥ 1"))?,
        };
        Ok(Knobs { scale, runs })
    }

    /// Scaled flow count (at least 50).
    fn flows(self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(50)
    }

    /// A figure file at these knobs: its first seed and the next
    /// `runs - 1`, and its flow count scaled. Refused, before any seed
    /// is listed, if the last seed would pass `u64::MAX`.
    fn apply(self, spec: &mut ScenarioSpec) -> Result<(), String> {
        let (first, runs) = (spec.seeds[0], self.runs as u64);
        if first.checked_add(runs - 1).is_none() {
            return Err(format!(
                "HERMES_RUNS={runs} runs seeds past u64::MAX from the first seed {first}"
            ));
        }
        spec.seeds = (0..runs).map(|i| first + i).collect();
        if let WorkloadKind::Poisson(p) = &mut spec.base.workload {
            p.flows = self.flows(p.flows);
        }
        Ok(())
    }
}

/// The repo-root directory of the grid figures' scenario files.
fn figures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../figures")
}

/// Figure `name`'s grids in print order, scaled by `knobs`, every cell
/// validated before any runs.
fn grids(name: &str, knobs: Knobs) -> Result<Vec<ScenarioSpec>, String> {
    let mut specs = load_dir(&figures_dir().join(name)).map_err(|e| e.to_string())?;
    for spec in &mut specs {
        knobs
            .apply(spec)
            .map_err(|e| format!("{name}/{}: {e}", spec.name))?;
        spec.validate().map_err(|e| {
            let scale = knobs.scale;
            format!("{name}/{}: with HERMES_SCALE={scale}, {e}", spec.name)
        })?;
    }
    Ok(specs)
}

/// Run every cell of every grid in one [`run_grid`] call; only then
/// print each grid in order, so the output does not depend on how the
/// pool scheduled the cells.
fn run_figure(out: &mut dyn Write, specs: &[ScenarioSpec]) -> io::Result<()> {
    let outs = run_grid(specs);
    let per_spec = outs.chunk_by(|a, b| a.scenario == b.scenario);
    for (spec, mine) in specs.iter().zip(per_spec) {
        print_grid(out, spec, mine)?;
    }
    Ok(())
}

/// One FCT table, reported the way the paper's FCT figures are
/// (overall avg, small avg, small 99th, large avg, unfinished fraction;
/// ratios to `normalize_to` if set): the header, each (lb, load)'s
/// seed-averaged progress line (stderr), the table and the note.
fn print_grid(out: &mut dyn Write, spec: &ScenarioSpec, outs: &[RunOutcome]) -> io::Result<()> {
    let WorkloadKind::Poisson(p) = &spec.base.workload else {
        panic!("{}: a figure grid is open-loop", spec.name);
    };
    let dist = p.dist.name();
    let runs = spec.seeds.len();
    writeln!(out, "== {} ==", spec.description)?;
    writeln!(
        out,
        "   workload={dist}  flows/point={}  seeds/point={runs}",
        p.flows
    )?;
    let mut results = Vec::new();
    for cell in outs.chunks(runs) {
        let (name, load) = (&spec.lbs[cell[0].lb_idx].0, spec.loads[cell[0].load_idx]);
        let sums: Vec<FctSummary> = cell.iter().map(|o| o.result.fct).collect();
        let avg = avg_summaries(&sums);
        eprintln!(
            "   [{dist}] {name} load {load:.2}: avg {:.3} ms ({} unfinished)",
            avg.avg * 1e3,
            avg.unfinished,
        );
        results.push((name.clone(), load, avg));
    }
    print_table(out, spec.normalize_to.as_deref(), &results)?;
    for line in &spec.note {
        writeln!(out, "{line}")?;
    }
    Ok(())
}

fn print_table(
    out: &mut dyn Write,
    normalize_to: Option<&str>,
    results: &[(String, f64, FctSummary)],
) -> io::Result<()> {
    let unit = normalize_to.map_or("(ms)", |_| "(×)");
    let mut t = TextTable::new(&[
        "scheme",
        "load",
        &format!("avg {unit}"),
        &format!("small avg {unit}"),
        &format!("small p99 {unit}"),
        &format!("large avg {unit}"),
        "unfinished",
    ]);
    for (name, load, s) in results {
        let base = results
            .iter()
            .find(|(n, l, _)| Some(n.as_str()) == normalize_to && l == load)
            .map(|(_, _, s)| *s);
        let cell = |v: f64, b: fn(&FctSummary) -> f64| -> String {
            match base {
                Some(bs) if b(&bs) > 0.0 => fmt_ratio(v / b(&bs)),
                _ => fmt_ms(v),
            }
        };
        t.row(vec![
            name.clone(),
            format!("{load:.2}"),
            cell(s.avg, |b| b.avg),
            cell(s.avg_small, |b| b.avg_small),
            cell(s.p99_small, |b| b.p99_small),
            cell(s.avg_large, |b| b.avg_large),
            format!("{:.2}%", 100.0 * s.unfinished_frac()),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_the_committed_tables() {
        let mut names: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results");
        let mut stems: Vec<String> = std::fs::read_dir(dir)
            .expect("bench_results/ exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a figure name is listed twice");
        assert_eq!(names, stems);
    }

    /// Every grid figure's files, loaded at `knobs`.
    fn all_grids(knobs: Knobs) -> Vec<(&'static str, Result<Vec<ScenarioSpec>, String>)> {
        let names = FIGURES.iter().filter(|(_, f)| matches!(f, Grids));
        names.map(|&(name, _)| (name, grids(name, knobs))).collect()
    }

    #[test]
    fn every_figure_directory_is_a_grid_figure_and_validates() {
        let mut dirs: Vec<String> = std::fs::read_dir(figures_dir())
            .expect("figures/ exists")
            .map(|e| {
                e.expect("readable entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        dirs.sort_unstable();
        let mut names: Vec<&str> = FIGURES
            .iter()
            .filter(|(_, f)| matches!(f, Grids))
            .map(|&(n, _)| n)
            .collect();
        names.sort_unstable();
        assert_eq!(names, dirs);
        for (name, specs) in all_grids(Knobs::parse(None, None).unwrap()) {
            let specs = specs.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!specs.is_empty(), "{name}: no grid");
            for spec in &specs {
                let open_loop = matches!(spec.base.workload, WorkloadKind::Poisson(_));
                assert!(open_loop && !spec.loads.is_empty(), "{}", spec.name);
                assert_eq!(spec.seeds, [1000], "{name}/{}", spec.name);
            }
            // The figure's note closes its last table.
            let (last, rest) = specs.split_last().unwrap();
            assert!(!last.note.is_empty(), "{name}: no note");
            assert!(rest.iter().all(|s| s.note.is_empty()), "{name}");
        }
    }

    #[test]
    fn the_figures_resolve_the_papers_variants() {
        let knobs = Knobs::parse(None, None).unwrap();
        let grids = all_grids(knobs);
        let spec = |fig: &str, i: usize| {
            let (_, specs) = grids.iter().find(|(n, _)| *n == fig).expect(fig);
            specs.as_ref().expect("loads")[i].clone()
        };
        let hermes =
            |spec: &ScenarioSpec, label: &str| match &spec.lbs.iter().find(|(n, _)| n == label) {
                Some((_, Scheme::Hermes(p))) => *p,
                other => panic!("{label}: {other:?}"),
            };
        let debug = |x: &dyn std::fmt::Debug| format!("{x:?}");
        let fig9 = spec("fig9_testbed_symmetric", 0);
        let testbed = hermes_core::HermesParams::paper_testbed(&fig9.base.sim.topo);
        assert_eq!(debug(&hermes(&fig9, "hermes")), debug(&testbed));
        let probe_off = hermes(&spec("fig18_ablation", 1), "probe-off");
        assert_eq!(probe_off.probe_interval, hermes_sim::Time::MAX);
        assert!(hermes(&spec("tcp_transport", 1), "hermes-rtt-only").rtt_only);
        assert!(spec("fig15_flowlet_sweep", 0).base.sim.reorder_mask);
        assert!(!spec("fig12_baseline", 0).base.sim.reorder_mask);
    }

    #[test]
    fn a_scale_past_the_flow_ids_is_refused_before_any_cell_runs() {
        // 2000 × 1e12 flows: past MAX_FLOW_ID + 1. Only validated here;
        // running it would exhaust memory.
        let knobs = Knobs::parse(Some("1e12"), None).unwrap();
        let err = grids("fig12_baseline", knobs).expect_err("refused");
        assert!(
            err.contains("HERMES_SCALE") && err.contains("`flows`"),
            "{err}"
        );
    }

    #[test]
    fn knobs_parse_defaults_and_refuse_the_rest() {
        let ok = |s, r| Knobs::parse(s, r).expect("valid knobs");
        let pair = |k: Knobs| (k.scale, k.runs);
        assert_eq!(pair(ok(None, None)), (1.0, 1));
        assert_eq!(pair(ok(Some("0.2"), Some("5"))), (0.2, 5));
        for (scale, runs, var) in [
            (None, Some("0"), "HERMES_RUNS"),
            (None, Some("abc"), "HERMES_RUNS"),
            (None, Some("-1"), "HERMES_RUNS"),
            (None, Some("1.5"), "HERMES_RUNS"),
            (None, Some(""), "HERMES_RUNS"),
            (Some("abc"), None, "HERMES_SCALE"),
            (Some("-1"), None, "HERMES_SCALE"),
            (Some("0"), None, "HERMES_SCALE"),
            (Some("inf"), None, "HERMES_SCALE"),
            (Some("NaN"), None, "HERMES_SCALE"),
        ] {
            let err = Knobs::parse(scale, runs).expect_err("invalid knobs");
            assert!(err.starts_with(var), "{err}");
        }
        assert_eq!(ok(Some("0.01"), None).flows(2000), 50);
        assert_eq!(ok(Some("2"), None).flows(2000), 4000);
    }
}
