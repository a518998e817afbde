//! `fig <name>` regenerates one of the paper's tables or figures and
//! prints it; `fig` alone lists the names, one per line. Each name is
//! the stem of its committed `bench_results/<name>.txt`.
//!
//! ```sh
//! cargo run --release -p hermes-bench --bin fig -- fig12_baseline
//! HERMES_SCALE=0.2 HERMES_RUNS=3 target/release/fig fig16_random_drop
//! ```
//!
//! Most evaluation figures are FCT grids: a list of [`GridSpec`]s whose
//! cells all run in one `run_points` call before anything prints. The
//! rest (§2's motivation examples, Table 6's cost model, the transient
//! and collective extensions) run their own scenarios.

mod grids;
mod motivation;
mod recovery;

use std::env::VarError;
use std::process::ExitCode;

use hermes_bench::{avg_summaries, fmt_ms, fmt_ratio, run_points, PointCfg, TextTable};
use hermes_net::{FaultAction, FaultPlan, SpineFailure, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig};
use hermes_sim::Time;
use hermes_workload::{FctSummary, FlowSizeDist, PoissonCfg, WorkloadKind};
use Figure::{Custom, Grids};

/// How a figure is produced.
enum Figure {
    /// FCT grids, then the paper's findings for comparison.
    Grids(fn() -> Vec<GridSpec>, &'static str),
    /// A figure with its own scenario and output.
    Custom(fn(Knobs)),
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
    ("fig9_testbed_symmetric",     Grids(grids::fig9, grids::FIG9_NOTE)),
    ("fig10_testbed_asymmetric",   Grids(grids::fig10, grids::FIG10_NOTE)),
    ("fig12_baseline",             Grids(grids::fig12, grids::FIG12_NOTE)),
    ("fig13_asym_websearch",       Grids(grids::fig13, grids::FIG13_NOTE)),
    ("fig14_asym_datamining",      Grids(grids::fig14, grids::FIG14_NOTE)),
    ("fig15_flowlet_sweep",        Grids(grids::fig15, grids::FIG15_NOTE)),
    ("fig16_random_drop",          Grids(grids::fig16, grids::FIG16_NOTE)),
    ("fig17_blackhole",            Grids(grids::fig17, grids::FIG17_NOTE)),
    ("fig17_transient_recovery",   Custom(recovery::fig17_transient)),
    ("fig18_ablation",             Grids(grids::fig18, grids::FIG18_NOTE)),
    ("fig19_sensitivity",          Grids(grids::fig19, grids::FIG19_NOTE)),
    ("tcp_transport",              Grids(grids::tcp, grids::TCP_NOTE)),
    ("collective_stall",           Custom(recovery::collective_stall)),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        for (name, _) in FIGURES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
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
    match figure {
        Grids(grids, note) => {
            run_grids(&grids(), knobs);
            println!("{note}");
        }
        Custom(run) => run(knobs),
    }
    ExitCode::SUCCESS
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
}

/// One FCT table: a (scheme × load) grid over one template point,
/// reported the way the paper's FCT figures are (overall avg, small
/// avg, small 99th, large avg, unfinished fraction; optionally
/// normalized to one scheme).
///
/// A cell is one of `schemes` at one of `loads` with seed `1_000 + i`
/// for `i < HERMES_RUNS`; everything else is the grid's.
struct GridSpec {
    title: String,
    /// Every cell's fabric, transport, reorder mask and faults; a cell
    /// sets its scheme and seed.
    sim: SimConfig,
    /// The open-loop arrivals' size law.
    dist: FlowSizeDist,
    /// Arrivals per cell, before `HERMES_SCALE`.
    flows: usize,
    /// The capacity the load is defined against (the live fabric's if
    /// `None`).
    capacity: Option<u64>,
    /// The drain after the last arrival (`PointCfg::new`'s if `None`).
    drain: Option<Time>,
    schemes: Vec<(String, Scheme)>,
    loads: Vec<f64>,
    /// Normalize output ratios to this scheme's values.
    normalize_to: Option<String>,
}

impl GridSpec {
    /// A grid on `topo` of `flows` arrivals from `dist`, their load
    /// defined against `capacity`.
    fn new(
        title: &str,
        topo: &Topology,
        dist: FlowSizeDist,
        flows: usize,
        capacity: Option<u64>,
    ) -> GridSpec {
        GridSpec {
            title: title.to_string(),
            sim: SimConfig::new(topo.clone(), Scheme::Ecmp),
            dist,
            flows,
            capacity,
            drain: None,
            schemes: Vec::new(),
            loads: Vec::new(),
            normalize_to: None,
        }
    }

    fn drain(mut self, d: Time) -> GridSpec {
        self.drain = Some(d);
        self
    }

    /// `spine` fails as `failure` for the whole run.
    fn failure(mut self, spine: SpineId, failure: SpineFailure) -> GridSpec {
        let set = FaultAction::SetSpineFailure { spine, failure };
        self.sim.fault_plan = FaultPlan::new().at(Time::ZERO, set);
        self
    }

    fn scheme(mut self, name: &str, s: Scheme) -> GridSpec {
        self.schemes.push((name.to_string(), s));
        self
    }

    fn loads(mut self, l: &[f64]) -> GridSpec {
        self.loads = l.to_vec();
        self
    }

    fn normalize_to(mut self, name: &str) -> GridSpec {
        self.normalize_to = Some(name.to_string());
        self
    }

    /// Every cell, scheme-major, then load, then seed.
    fn cells(&self, knobs: Knobs) -> Vec<PointCfg> {
        let mut cfgs = Vec::new();
        for (_, scheme) in &self.schemes {
            for &load in &self.loads {
                for seed in 0..knobs.runs as u64 {
                    let sim = SimConfig {
                        scheme: scheme.clone(),
                        seed: 1_000 + seed,
                        ..self.sim.clone()
                    };
                    let poisson = PoissonCfg {
                        dist: self.dist.clone(),
                        load,
                        flows: knobs.flows(self.flows),
                        capacity: self.capacity,
                    };
                    let cfg = PointCfg::new(sim, WorkloadKind::Poisson(poisson));
                    cfgs.push(match self.drain {
                        Some(d) => cfg.drain(d),
                        None => cfg,
                    });
                }
            }
        }
        cfgs
    }

    /// Print the header, each (scheme, load)'s seed-averaged progress
    /// line (stderr) and the table, from this grid's cell summaries.
    fn print(&self, fcts: &[FctSummary], knobs: Knobs) {
        println!("== {} ==", self.title);
        println!(
            "   workload={}  flows/point={}  seeds/point={}",
            self.dist.name(),
            knobs.flows(self.flows),
            knobs.runs,
        );
        let keys = self
            .schemes
            .iter()
            .flat_map(|(name, _)| self.loads.iter().map(move |&load| (name, load)));
        let mut results = Vec::new();
        for ((name, load), sums) in keys.zip(fcts.chunks(knobs.runs)) {
            let avg = avg_summaries(sums);
            eprintln!(
                "   [{}] {name} load {load:.2}: avg {:.3} ms ({} unfinished)",
                self.dist.name(),
                avg.avg * 1e3,
                avg.unfinished,
            );
            results.push((name.clone(), load, avg));
        }
        self.print_table(&results);
    }

    fn baseline(&self, results: &[(String, f64, FctSummary)], load: f64) -> Option<FctSummary> {
        let norm = self.normalize_to.as_ref()?;
        results
            .iter()
            .find(|(n, l, _)| n == norm && *l == load)
            .map(|(_, _, s)| *s)
    }

    fn print_table(&self, results: &[(String, f64, FctSummary)]) {
        let normalized = self.normalize_to.is_some();
        let unit = if normalized { "(×)" } else { "(ms)" };
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
            let base = self.baseline(results, *load);
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
        t.print();
        println!();
    }
}

/// Run every cell of every grid in one `run_points` call; only then
/// print each grid in order, so the output does not depend on how the
/// pool scheduled the cells.
fn run_grids(grids: &[GridSpec], knobs: Knobs) {
    let cfgs: Vec<PointCfg> = grids.iter().flat_map(|g| g.cells(knobs)).collect();
    let fcts: Vec<FctSummary> = run_points(&cfgs).into_iter().map(|r| r.fct).collect();
    let mut rest = fcts.as_slice();
    for g in grids {
        let (mine, tail) = rest.split_at(g.schemes.len() * g.loads.len() * knobs.runs);
        g.print(mine, knobs);
        rest = tail;
    }
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

    #[test]
    fn every_grid_cell_validates() {
        let knobs = Knobs::parse(None, None).unwrap();
        for (name, figure) in FIGURES {
            let Grids(grids, _) = figure else {
                continue;
            };
            for g in grids() {
                assert!(
                    !g.schemes.is_empty() && !g.loads.is_empty(),
                    "{name}: empty grid"
                );
                for cfg in g.cells(knobs) {
                    if let Err(e) = cfg.validate() {
                        panic!("{name} / {}: {:?} {}", g.title, e.field, e.msg);
                    }
                }
            }
        }
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
