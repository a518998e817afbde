//! Chaos campaign engine: seeded fault-space fuzzing with plan
//! shrinking, degradation SLOs, and a committed counterexample corpus.
//!
//! The conformance grid (`crate::suite`) replays *hand-written* fault
//! scenarios; this module samples the fault space instead. One
//! campaign = N seeds; each seed deterministically expands to a
//! [`hermes_net::FaultPlan`] drawn from the full grammar ([`gen`]),
//! runs across the hermes/conga/ecmp schemes with a matching
//! fault-free baseline per scheme, and is judged against four
//! graceful-degradation SLOs ([`slo`]). A failing plan can be shrunk
//! to a minimal counterexample ([`shrink`]) and committed to
//! `tests/chaos/corpus/` ([`corpus`]), which CI replays forever after.
//!
//! Everything is deterministic: same seed range + same config ⇒ the
//! same campaign report, byte for byte (cells run in one
//! [`hermes_bench::run_points`] call, whose results land by index, so
//! report bytes cannot depend on thread interleaving). A
//! planted-defect self-test ([`selftest`]) proves
//! each SLO checker and the shrinker actually trip.
//!
//! Entry point: `cargo run -p xtask -- chaos` (see `xtask --help`).

pub mod corpus;
pub mod gen;
pub mod selftest;
pub mod shrink;
pub mod slo;

pub use corpus::{
    entry_from_toml, load_corpus, plan_to_toml, replay_corpus, CorpusEntry, CorpusReplay,
};
pub use gen::{sample_plan, GenCfg};
pub use selftest::{chaos_self_test_passed, run_chaos_self_test, ChaosSelfTestCase};
pub use shrink::{shrink_plan, ShrinkOutcome};
pub use slo::{SloCfg, SloClass, SloViolation};

use hermes_bench::{run_points, PointCfg, RunReport};
use hermes_net::{FaultPlan, FnvDigest, Topology};
use hermes_runtime::{Scheme, SimConfig};
use hermes_sim::Time;
use hermes_workload::{FlowSizeDist, PoissonCfg, WorkloadKind};

/// The schemes every campaign cell runs, in report order.
pub const LBS: [&str; 3] = ["hermes", "conga", "ecmp"];

/// Goodput sampling cadence for recovery checks.
const GOODPUT_INTERVAL: Time = Time::from_ms(1);

/// One scheme's pair of runs for one plan: faulted and fault-free,
/// same workload seed.
pub struct CellRuns {
    pub lb: &'static str,
    pub fault: RunReport,
    pub base: RunReport,
}

fn point(topo: &Topology, lb: &str, seed: u64, quick: bool) -> PointCfg {
    // Quick keeps CI smoke affordable; full is the overnight setting.
    // Both drain far past the generator's 52 ms last-fault bound so the
    // drain SLO judges "stuck forever", not "slow".
    let (flows, load, drain) = if quick {
        (40, 0.25, Time::from_secs(1))
    } else {
        (120, 0.35, Time::from_secs(2))
    };
    let scheme = Scheme::by_name(lb, topo).expect("every LBS entry is a Scheme::NAMES entry");
    let sim = SimConfig::new(topo.clone(), scheme).with_seed(seed);
    let poisson = PoissonCfg {
        dist: FlowSizeDist::web_search(),
        load,
        flows,
        capacity: None,
    };
    PointCfg::new(sim, WorkloadKind::Poisson(poisson))
        .drain(drain)
        .goodput_interval(GOODPUT_INTERVAL)
}

/// The fabric every campaign cell and corpus replay runs on.
fn topology() -> Topology {
    Topology::testbed()
}

/// Run one plan across every scheme, with per-scheme fault-free
/// baselines: six points in one [`run_points`] call.
pub fn run_cells(plan: &FaultPlan, seed: u64, quick: bool) -> Vec<CellRuns> {
    run_plans(&[(plan, seed)], quick)
}

/// Run every `(plan, seed)` the way [`run_cells`] runs one, all in a
/// single [`run_points`] call: `LBS.len()` cells per plan, in input
/// order, whatever the core count.
fn run_plans(plans: &[(&FaultPlan, u64)], quick: bool) -> Vec<CellRuns> {
    let topo = &topology();
    let cfgs: Vec<PointCfg> = plans
        .iter()
        .flat_map(|&(plan, seed)| {
            LBS.into_iter().flat_map(move |lb| {
                let base = point(topo, lb, seed, quick);
                let mut faulted = base.clone();
                faulted.sim.fault_plan = plan.clone();
                [base, faulted]
            })
        })
        .collect();
    let mut reports = run_points(&cfgs).into_iter();
    plans
        .iter()
        .flat_map(|_| LBS)
        .map(|lb| CellRuns {
            lb,
            base: reports.next().expect("a fault-free report per cell"),
            fault: reports.next().expect("a faulted report per cell"),
        })
        .collect()
}

/// Campaign shape: how many seeds, how heavy each cell, whether to
/// shrink failures, and the SLO thresholds to judge against.
#[derive(Clone, Debug)]
pub struct CampaignCfg {
    pub seeds: u64,
    pub seed_base: u64,
    pub quick: bool,
    /// Shrink the first violation of each failing seed to a minimal
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

/// A shrunk counterexample, ready for the corpus.
#[derive(Clone, Debug)]
pub struct ShrunkCase {
    pub class: SloClass,
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
    pub violations: Vec<SloViolation>,
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
                    v.class.as_str(),
                    json_esc(&v.cell),
                    json_esc(&v.detail)
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
                    sh.class.as_str(),
                    json_esc(&sh.cell),
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
}

fn json_esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Run a full campaign: sample → run → judge → (optionally) shrink.
/// Every seed's cells run in one [`run_points`] call; the seeds are
/// then judged, and shrunk, in order.
pub fn run_campaign(cfg: &CampaignCfg) -> CampaignReport {
    let gen_cfg = GenCfg::testbed();
    let plans: Vec<(u64, FaultPlan)> = (0..cfg.seeds)
        .map(|i| cfg.seed_base + i)
        .map(|seed| (seed, sample_plan(seed, &gen_cfg)))
        .collect();
    let jobs: Vec<(&FaultPlan, u64)> = plans.iter().map(|(seed, plan)| (plan, *seed)).collect();
    let all_runs = run_plans(&jobs, cfg.quick);
    let mut outcomes = Vec::new();
    for ((seed, plan), runs) in plans.into_iter().zip(all_runs.chunks(LBS.len())) {
        let label = format!("seed={seed}");
        let violations = slo::check_cell(&label, runs, plan.end_time(), &cfg.slo);
        let cells = runs
            .iter()
            .map(|c| CellSummary {
                lb: c.lb,
                digest: c.fault.digest,
                events: c.fault.events,
                unfinished: c.fault.fct.unfinished,
            })
            .collect();
        let mut shrunk = Vec::new();
        if cfg.shrink {
            if let Some(v) = violations.first() {
                let class = v.class;
                let fails = |cand: &FaultPlan| {
                    let runs = run_cells(cand, seed, cfg.quick);
                    slo::check_cell(&label, &runs, cand.end_time(), &cfg.slo)
                        .iter()
                        .any(|w| w.class == class)
                };
                let out = shrink_plan(&plan, fails, cfg.max_shrink_evals);
                shrunk.push(ShrunkCase {
                    class,
                    cell: v.cell.clone(),
                    plan: out.plan,
                    evals: out.evals,
                    from_events: out.from_events,
                });
            }
        }
        outcomes.push(SeedOutcome {
            seed,
            plan,
            cells,
            violations,
            shrunk,
        });
    }
    CampaignReport {
        cfg: cfg.clone(),
        outcomes,
    }
}
