//! The standard experiment shape: a (scheme × load) grid over one
//! template point, reported exactly the way the paper's FCT figures
//! are (overall avg, small avg, small 99th, large avg, unfinished
//! fraction; optionally normalized to one scheme).

use hermes_runtime::Scheme;
use hermes_workload::FctSummary;

use crate::{avg_summaries, flows, fmt_ms, fmt_ratio, run_points, runs, PointCfg, TextTable};

/// A full figure's worth of runs.
pub struct GridSpec {
    pub title: String,
    /// Every cell's template. A cell is `base` with one of `schemes`,
    /// one of `loads`, seed `1_000 + i` for `i < HERMES_RUNS`, and
    /// `base.n_flows` scaled by `HERMES_SCALE`; the template's own
    /// scheme, load and seed are placeholders.
    pub base: PointCfg,
    pub schemes: Vec<(String, Scheme)>,
    pub loads: Vec<f64>,
    /// Normalize output ratios to this scheme's values.
    pub normalize_to: Option<String>,
}

impl GridSpec {
    pub fn new(title: &str, base: PointCfg) -> GridSpec {
        GridSpec {
            title: title.to_string(),
            base,
            schemes: Vec::new(),
            loads: Vec::new(),
            normalize_to: None,
        }
    }

    pub fn scheme(mut self, name: &str, s: Scheme) -> GridSpec {
        self.schemes.push((name.to_string(), s));
        self
    }

    pub fn loads(mut self, l: &[f64]) -> GridSpec {
        self.loads = l.to_vec();
        self
    }

    pub fn normalize_to(mut self, name: &str) -> GridSpec {
        self.normalize_to = Some(name.to_string());
        self
    }

    /// Run every cell in one [`run_points`] call and print the
    /// figure's table(s). Returns each (scheme, load)'s summary,
    /// averaged over its seeds, in row-major order.
    pub fn run(&self) -> Vec<(String, f64, FctSummary)> {
        let n_flows = flows(self.base.n_flows);
        let seeds = runs();
        println!("== {} ==", self.title);
        println!(
            "   workload={}  flows/point={n_flows}  seeds/point={seeds}",
            self.base.dist.name(),
        );
        let mut keys = Vec::new();
        let mut cfgs = Vec::new();
        for (name, scheme) in &self.schemes {
            for &load in &self.loads {
                keys.push((name, load));
                for seed in 0..seeds {
                    let cfg = PointCfg {
                        scheme: scheme.clone(),
                        load,
                        ..self.base.clone()
                    };
                    cfgs.push(cfg.flows(n_flows).seed(1_000 + seed));
                }
            }
        }
        let fcts: Vec<FctSummary> = run_points(&cfgs).into_iter().map(|r| r.fct).collect();
        let mut results = Vec::new();
        for ((name, load), sums) in keys.into_iter().zip(fcts.chunks(seeds as usize)) {
            let avg = avg_summaries(sums);
            eprintln!(
                "   [{}] {name} load {load:.2}: avg {:.3} ms ({} unfinished)",
                self.base.dist.name(),
                avg.avg * 1e3,
                avg.unfinished,
            );
            results.push((name.clone(), load, avg));
        }
        self.print_tables(&results);
        results
    }

    fn baseline(&self, results: &[(String, f64, FctSummary)], load: f64) -> Option<FctSummary> {
        let norm = self.normalize_to.as_ref()?;
        results
            .iter()
            .find(|(n, l, _)| n == norm && *l == load)
            .map(|(_, _, s)| *s)
    }

    fn print_tables(&self, results: &[(String, f64, FctSummary)]) {
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
