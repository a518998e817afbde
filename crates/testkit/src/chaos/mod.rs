//! Chaos campaign engine: seeded fault-space fuzzing with plan
//! shrinking and degradation SLOs.
//!
//! The conformance grid (`crate::suite`) replays scenario files; this
//! module samples the fault space instead. One campaign = N seeds; each
//! seed deterministically expands to a [`hermes_net::FaultPlan`] drawn
//! from the full grammar ([`gen`]) and becomes one scenario, the
//! campaign cell ([`cell_scenario`]): the hermes/conga/ecmp schemes on
//! the testbed, each with a fault-free twin. It runs through the same
//! [`crate::run_grid`] as every scenario file and is judged by the same
//! [`check_scenario`]: the invariants (an `[slo]` scenario bounds its
//! unfinished flows at zero) and the two graceful-degradation SLOs
//! ([`slo`]) among its classes. A failing plan can be shrunk to a
//! minimal counterexample ([`shrink`]) and written as a scenario file;
//! the committed ones live in `tests/chaos/corpus/`, which `xtask
//! conformance` replays with the other scenario directories. The
//! conformance self-test ([`crate::selftest`]) proves the SLO classes
//! trip on a tampered campaign cell.
//!
//! Everything is deterministic: same seed range + same config ⇒ the
//! same campaign report, byte for byte (cells run in one
//! [`crate::run_points`] call, whose results land by index, so
//! report bytes cannot depend on thread interleaving).
//!
//! Entry point: `cargo run -p xtask -- chaos` (see `xtask --help`).

pub mod gen;
pub mod shrink;
pub mod slo;

pub use gen::{sample_plan, GenCfg};
pub use shrink::{shrink_plan, ShrinkOutcome};
pub use slo::{SloCfg, SloClass};

use hermes_net::{FaultPlan, FnvDigest};

use crate::check::{check_scenario, CheckClass, Failure, Goldens};
use crate::events::plan_to_toml;
use crate::run::{run_grid, RunOutcome};
use crate::spec::{parse_scenario, ScenarioSpec, SloTag};

/// The comment that opens a shrunk counterexample's scenario file.
pub const SHRUNK_HEADER: &str = "\
# Shrunk chaos counterexample: the campaign cell it was mined in
# (testbed web-search, hermes/conga/ecmp, one seed) under its shrunk
# plan. Replayed green at the default SLOs by `xtask conformance`.
";

/// The schemes every campaign cell runs, in report order.
pub const LBS: [&str; 3] = ["hermes", "conga", "ecmp"];

/// The scenario file of one campaign cell: the testbed under the quick
/// or full web-search workload, every [`LBS`] scheme, `seed`, `[slo]`
/// with `tag`, and `plan` as its `[[event]]` list. The campaign runs
/// it; `xtask chaos --emit-shrunk` writes it.
pub fn cell_scenario(
    description: &str,
    seed: u64,
    plan: &FaultPlan,
    quick: bool,
    tag: &SloTag,
) -> String {
    // Quick keeps CI smoke affordable; full is the overnight setting.
    // Both drain far past the generator's 52 ms last-fault bound so the
    // unfinished-flow bound judges "stuck forever", not "slow".
    let (flows, load, drain_ms) = if quick {
        (40, 0.25, 1000)
    } else {
        (120, 0.35, 2000)
    };
    let lbs = LBS.map(|lb| format!("\"{lb}\"")).join(", ");
    let mut s = format!(
        "description = \"{}\"\n\n[topology]\nkind = \"testbed\"\n\n\
         [workload]\ndist = \"web_search\"\nload = {load:?}\nflows = {flows}\n\n\
         [run]\nseeds = [{seed}]\nlbs = [{lbs}]\ndrain_ms = {drain_ms}\n\n[slo]\n",
        esc(description)
    );
    if let Some(class) = tag.class {
        s.push_str(&format!("class = \"{}\"\n", class.as_str()));
    }
    if let Some(cell) = &tag.cell {
        s.push_str(&format!("cell = \"{}\"\n", esc(cell)));
    }
    s + &plan_to_toml(plan)
}

/// [`cell_scenario`] loaded: the scenario a campaign seed runs.
pub fn cell_spec(seed: u64, plan: &FaultPlan, quick: bool) -> ScenarioSpec {
    let desc = format!("chaos campaign seed {seed}");
    let src = cell_scenario(&desc, seed, plan, quick, &SloTag::default());
    parse_scenario(&src, "chaos", &format!("seed{seed}"))
        .unwrap_or_else(|e| panic!("a campaign cell is a valid scenario: {e}"))
}

/// Run one plan's campaign cell: every scheme with its fault-free twin,
/// in one [`run_grid`] call.
pub fn run_cell(plan: &FaultPlan, seed: u64, quick: bool) -> (ScenarioSpec, Vec<RunOutcome>) {
    let spec = cell_spec(seed, plan, quick);
    let outs = run_grid(std::slice::from_ref(&spec));
    (spec, outs)
}

/// Campaign shape: how many seeds, how heavy each cell, whether to
/// shrink failures, and the SLO thresholds to judge against.
#[derive(Clone, Debug)]
pub struct CampaignCfg {
    /// Seeds `seed_base .. seed_base + seeds`; the last must fit a `u64`.
    pub seeds: u64,
    pub seed_base: u64,
    pub quick: bool,
    /// Shrink the first failure of each failing seed to a minimal
    /// counterexample (costs up to `max_shrink_evals` extra cell runs
    /// per failing seed).
    pub shrink: bool,
    pub max_shrink_evals: usize,
    pub slo: SloCfg,
}

impl Default for CampaignCfg {
    fn default() -> CampaignCfg {
        CampaignCfg {
            seeds: 32,
            seed_base: 0,
            quick: false,
            shrink: false,
            max_shrink_evals: 48,
            slo: SloCfg::default(),
        }
    }
}

/// Digest-relevant summary of one scheme's faulted run.
#[derive(Clone, Copy, Debug)]
pub struct CellSummary {
    pub lb: &'static str,
    pub digest: u64,
    pub events: u64,
    pub unfinished: usize,
}

/// A shrunk counterexample, ready to be written as a scenario.
#[derive(Clone, Debug)]
pub struct ShrunkCase {
    pub class: CheckClass,
    pub cell: String,
    pub plan: FaultPlan,
    pub evals: usize,
    pub from_events: usize,
}

/// Everything one seed produced.
#[derive(Clone, Debug)]
pub struct SeedOutcome {
    pub seed: u64,
    pub plan: FaultPlan,
    pub cells: Vec<CellSummary>,
    /// What [`check_scenario`] found in the seed's cell.
    pub violations: Vec<Failure>,
    pub shrunk: Vec<ShrunkCase>,
}

/// A full campaign's results.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    pub cfg: CampaignCfg,
    pub outcomes: Vec<SeedOutcome>,
}

impl CampaignReport {
    pub fn total_violations(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// FNV digest over every cell's trace digest and outcome counts —
    /// one number that pins the whole campaign's behavior.
    pub fn digest(&self) -> u64 {
        let mut d = FnvDigest::new();
        for o in &self.outcomes {
            d.push(o.seed);
            d.push(o.plan.len() as u64);
            d.push(o.plan.end_time().as_ns());
            for c in &o.cells {
                d.push(c.digest);
                d.push(c.events);
                d.push(c.unfinished as u64);
            }
            d.push(o.violations.len() as u64);
        }
        d.value()
    }

    /// Deterministic JSON rendering (stable field order, no
    /// wall-clock anywhere): same campaign ⇒ same bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"config\": {{\"seeds\": {}, \"seed_base\": {}, \"quick\": {}, \"shrink\": {}, \
             \"recovery_frac\": {:?}, \"recovery_slack_ns\": {}, \"stranded_factor\": {:?}, \
             \"stranded_slack_ns\": {}}},\n",
            self.cfg.seeds,
            self.cfg.seed_base,
            self.cfg.quick,
            self.cfg.shrink,
            self.cfg.slo.recovery_frac,
            self.cfg.slo.recovery_slack.as_ns(),
            self.cfg.slo.stranded_factor,
            self.cfg.slo.stranded_slack.as_ns(),
        ));
        s.push_str(&format!(
            "  \"campaign_digest\": \"{:#018x}\",\n  \"violations\": {},\n  \"seeds\": [\n",
            self.digest(),
            self.total_violations()
        ));
        for (i, o) in self.outcomes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"seed\": {}, \"plan_events\": {}, \"plan_end_ns\": {}, \"cells\": [",
                o.seed,
                o.plan.len(),
                o.plan.end_time().as_ns()
            ));
            for (j, c) in o.cells.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"lb\": \"{}\", \"digest\": \"{:#018x}\", \"events\": {}, \"unfinished\": {}}}",
                    c.lb, c.digest, c.events, c.unfinished
                ));
            }
            s.push_str("], \"violations\": [");
            for (j, v) in o.violations.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"class\": \"{}\", \"cell\": \"{}\", \"detail\": \"{}\"}}",
                    v.class,
                    esc(&v.cell),
                    esc(&v.detail)
                ));
            }
            s.push_str("], \"shrunk\": [");
            for (j, sh) in o.shrunk.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"class\": \"{}\", \"cell\": \"{}\", \"from_events\": {}, \
                     \"to_events\": {}, \"evals\": {}}}",
                    sh.class,
                    esc(&sh.cell),
                    sh.from_events,
                    sh.plan.len(),
                    sh.evals
                ));
            }
            s.push_str("]}");
            if i + 1 < self.outcomes.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Each shrunk counterexample as a scenario file, `(file name,
    /// contents)`: its campaign cell under the shrunk plan, `[slo]`
    /// naming the LB (or `cross`) that tripped and, for an SLO failure,
    /// the SLO.
    pub fn shrunk_scenarios(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for o in &self.outcomes {
            for sh in &o.shrunk {
                let description = format!(
                    "shrunk from seed {} ({} -> {} events); tripped {} in {}",
                    o.seed,
                    sh.from_events,
                    sh.plan.len(),
                    sh.class,
                    sh.cell
                );
                // The cell is `scenario/lb/seed` or `scenario/cross/seed`.
                let tag = SloTag {
                    class: match sh.class {
                        CheckClass::Slo(slo) => Some(slo),
                        _ => None,
                    },
                    cell: sh.cell.split('/').nth(1).map(str::to_string),
                };
                let text = cell_scenario(&description, o.seed, &sh.plan, self.cfg.quick, &tag);
                out.push((
                    format!("seed{}-{}.toml", o.seed, sh.class),
                    format!("{SHRUNK_HEADER}{text}"),
                ));
            }
        }
        out
    }
}

/// A string escaped for a JSON or TOML string literal.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Run a full campaign: sample → run → judge → (optionally) shrink.
/// Every seed's cells run in one [`run_grid`] call; the seeds are then
/// judged, and shrunk, in order.
pub fn run_campaign(cfg: &CampaignCfg) -> CampaignReport {
    let gen_cfg = GenCfg::testbed();
    let specs: Vec<ScenarioSpec> = (0..cfg.seeds)
        .map(|i| cfg.seed_base + i)
        .map(|seed| cell_spec(seed, &sample_plan(seed, &gen_cfg), cfg.quick))
        .collect();
    let outs = run_grid(&specs);
    let outcomes = specs
        .iter()
        .zip(outs.chunks(LBS.len()))
        .map(|(spec, runs)| seed_outcome(spec, runs, cfg))
        .collect();
    CampaignReport {
        cfg: cfg.clone(),
        outcomes,
    }
}

/// [`check_scenario`] over a campaign cell: nothing pinned, the SLOs at
/// `slo`.
fn check_cell(spec: &ScenarioSpec, outs: &[RunOutcome], slo: &SloCfg) -> Vec<Failure> {
    let refs: Vec<&RunOutcome> = outs.iter().collect();
    check_scenario(spec, &refs, &Goldens::default(), slo)
}

/// Judge one seed's cell and, under `cfg.shrink`, shrink its first
/// failure to a plan that still fails with the same class.
fn seed_outcome(spec: &ScenarioSpec, runs: &[RunOutcome], cfg: &CampaignCfg) -> SeedOutcome {
    let seed = spec.seeds[0];
    let plan = &spec.base.sim.fault_plan;
    let violations = check_cell(spec, runs, &cfg.slo);
    let cells = runs
        .iter()
        .map(|o| CellSummary {
            lb: LBS[o.lb_idx],
            digest: o.result.digest,
            events: o.result.events,
            unfinished: o.result.fct.unfinished,
        })
        .collect();
    let mut shrunk = Vec::new();
    if let Some(v) = violations.first().filter(|_| cfg.shrink) {
        let class = v.class;
        let fails = |cand: &FaultPlan| {
            let (spec, outs) = run_cell(cand, seed, cfg.quick);
            check_cell(&spec, &outs, &cfg.slo)
                .iter()
                .any(|w| w.class == class)
        };
        let out = shrink_plan(plan, fails, cfg.max_shrink_evals);
        shrunk.push(ShrunkCase {
            class,
            cell: v.cell.clone(),
            plan: out.plan,
            evals: out.evals,
            from_events: out.from_events,
        });
    }
    SeedOutcome {
        seed,
        plan: plan.clone(),
        cells,
        violations,
        shrunk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::{FaultAction, SpineFailure, SpineId};
    use hermes_sim::Time;

    #[test]
    fn shrunk_scenarios_parse_back_to_the_plan_seed_and_point() {
        let plan = FaultPlan::new()
            .random_drop_window(SpineId(2), 0.03, Time::from_ms(4), Time::from_ms(9))
            .at(
                Time::from_ms(5),
                FaultAction::SetSpineFailure {
                    spine: SpineId(1),
                    failure: SpineFailure::random_drops(0.5),
                },
            );
        let shrunk = |class, cell: &str| ShrunkCase {
            class,
            cell: cell.to_string(),
            plan: plan.clone(),
            evals: 3,
            from_events: 6,
        };
        let outcome = SeedOutcome {
            seed: 41,
            plan: plan.clone(),
            cells: Vec::new(),
            violations: Vec::new(),
            shrunk: vec![
                shrunk(CheckClass::Slo(SloClass::Recovery), "seed41/conga/41"),
                shrunk(CheckClass::Slo(SloClass::CrossLb), "seed41/cross/41"),
            ],
        };
        for quick in [true, false] {
            let report = CampaignReport {
                cfg: CampaignCfg {
                    quick,
                    ..CampaignCfg::default()
                },
                outcomes: vec![outcome.clone()],
            };
            let files = report.shrunk_scenarios();
            let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["seed41-recovery.toml", "seed41-cross_lb.toml"]);
            let cells = [(SloClass::Recovery, "conga"), (SloClass::CrossLb, "cross")];
            let campaign = cell_spec(41, &plan, quick);
            for ((name, text), (class, cell)) in files.iter().zip(cells) {
                let spec = parse_scenario(text, name, "shrunk").expect("a shrunk file loads");
                assert_eq!(spec.base.sim.fault_plan, plan);
                assert_eq!(spec.seeds, [41]);
                let tag = spec.slo.as_ref().expect("[slo]");
                assert_eq!((tag.class, tag.cell.as_deref()), (Some(class), Some(cell)));
                for li in 0..LBS.len() {
                    let (a, b) = (spec.materialize(li, 0, 41), campaign.materialize(li, 0, 41));
                    assert_eq!(format!("{a:?}"), format!("{b:?}"));
                }
            }
        }
    }

    /// The campaign judges its cells with every conformance class: a
    /// clamped past-time schedule, an invariant no SLO ever read, is
    /// reported as [`CheckClass::Invariant`] in the cell it broke.
    #[test]
    fn a_campaign_reports_a_broken_invariant_of_its_cell() {
        let cfg = CampaignCfg {
            seeds: 1,
            quick: true,
            ..CampaignCfg::default()
        };
        let plan = FaultPlan::new().random_drop_window(
            SpineId(0),
            0.05,
            Time::from_ms(5),
            Time::from_ms(20),
        );
        let (spec, mut outs) = run_cell(&plan, 7, true);
        assert!(seed_outcome(&spec, &outs, &cfg).violations.is_empty());
        outs[1].result.queue_clamps = 1;
        let found = seed_outcome(&spec, &outs, &cfg).violations;
        let cells: Vec<_> = found.iter().map(|f| (f.class, f.cell.as_str())).collect();
        assert_eq!(
            cells,
            [(CheckClass::Invariant, "seed7/conga/7")],
            "{found:?}"
        );
    }
}
