//! The one pool, and multi-seed scenario execution over it.
//!
//! [`run_points_with`] runs any per-point job one worker per core, with
//! results by index; [`run_points`] is it with [`run_point`] as the job.
//! Outside tests, this is the only code in the workspace that spawns
//! threads, and only across whole runs.
//!
//! Each `(scenario, lb, load, seed)` grid cell is one fully independent
//! deterministic simulation, plus its fault-free twin when the scenario
//! carries `[slo]`: the job list is materialized into `PointCfg`s and
//! handed to [`run_points`], whose results land by index, so the
//! outcomes are in job order whatever the core count. This is the one
//! runner of scenarios: the conformance suite and the chaos campaign
//! both call [`run_grid`].

use crate::point::{run_point, PointCfg, RunReport};
use crate::spec::ScenarioSpec;

/// Run every point, one worker per available core (never more workers
/// than points), with results in input order: `run_points(cfgs)` equals
/// `cfgs.iter().map(run_point)`, whatever the core count or scheduling.
pub fn run_points(cfgs: &[PointCfg]) -> Vec<RunReport> {
    run_points_with(cfgs, run_point)
}

/// The one pool: `job(point)` for every point, one worker per available
/// core (never more workers than points). Each point is an independent
/// deterministic run, so workers pull the next index from an atomic
/// counter and results land by index: the output equals
/// `points.iter().map(job)`. A point is whatever the job runs: a
/// [`PointCfg`], or one with what the job needs beside it (`hermes-cli`
/// pairs each with its trace files' name). A worker finishes one job
/// before it takes the next point, so a job that writes its run's bulk
/// output itself and returns only a summary (as `hermes-cli --trace`
/// does with a trace) holds one run's output per worker. A panicking job re-raises its
/// panic here once every worker has stopped.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one pool: whole independent runs, one per worker, results by index"
)]
pub fn run_points_with<P: Sync, T: Send>(points: &[P], job: impl Fn(&P) -> T + Sync) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(points.len());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(i) else {
                            return mine;
                        };
                        mine.push((i, job(point)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// One completed grid cell.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Index into the spec slice passed to [`run_grid`].
    pub scenario: usize,
    /// Index into that scenario's `lbs`.
    pub lb_idx: usize,
    /// Index into that scenario's `loads` (0 without a sweep).
    pub load_idx: usize,
    pub seed: u64,
    pub result: RunReport,
    /// The fault-free twin's report, for an `[slo]` scenario.
    pub baseline: Option<RunReport>,
}

/// Flatten the scenarios into the deterministic job list: scenario
/// first, then each one's [`ScenarioSpec::cells`].
fn jobs(specs: &[ScenarioSpec]) -> Vec<(usize, usize, usize, u64)> {
    let mut out = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        out.extend(
            spec.cells()
                .into_iter()
                .map(|(li, ld, seed)| (si, li, ld, seed)),
        );
    }
    out
}

/// Run every `(scenario, lb, load, seed)` cell, and each twin, in one
/// [`run_points`] call. Returns outcomes in job order. Sim panics
/// propagate.
pub fn run_grid(specs: &[ScenarioSpec]) -> Vec<RunOutcome> {
    let jobs = jobs(specs);
    let cfgs: Vec<_> = jobs
        .iter()
        .flat_map(|&(si, li, ld, seed)| {
            let spec = &specs[si];
            let twin = spec.slo.as_ref().map(|_| spec.twin(li, seed));
            std::iter::once(spec.materialize(li, ld, seed)).chain(twin)
        })
        .collect();
    let mut reports = run_points(&cfgs).into_iter();
    jobs.into_iter()
        .map(|(scenario, lb_idx, load_idx, seed)| RunOutcome {
            scenario,
            lb_idx,
            load_idx,
            seed,
            result: reports.next().expect("a report per cell"),
            baseline: specs[scenario]
                .slo
                .as_ref()
                .map(|_| reports.next().expect("a report per twin")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_scenario;

    const TWO_LB: &str = r#"
        [topology]
        kind = "testbed"
        [workload]
        dist = "web_search"
        load = 0.3
        flows = 25
        [run]
        seeds = [1, 2]
        lbs = ["ecmp", "letflow"]
        drain_ms = 1000
    "#;

    /// `n` testbed points with seeds `1..=n`; the jobs below run none.
    fn seeded(n: u64) -> Vec<PointCfg> {
        use hermes_net::Topology;
        use hermes_runtime::{Scheme, SimConfig};
        use hermes_workload::WorkloadKind;
        let sim = SimConfig::new(Topology::testbed(), Scheme::Ecmp);
        (1..=n)
            .map(|seed| PointCfg::new(sim.clone().with_seed(seed), WorkloadKind::Flows(Vec::new())))
            .collect()
    }

    #[test]
    fn the_pool_returns_results_in_input_order() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let n = 2 * cores as u64 + 1;
        let seeds = run_points_with(&seeded(n), |cfg| cfg.sim.seed);
        assert_eq!(seeds, (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_re_raises_its_panic_in_the_caller() {
        let cfgs = seeded(5);
        let caught = std::panic::catch_unwind(|| {
            run_points_with(&cfgs, |cfg| match cfg.sim.seed {
                seed @ 3 => panic!("point with seed {seed} failed"),
                seed => seed,
            })
        });
        let payload = caught.expect_err("the job's panic reaches the caller");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("point with seed 3 failed"));
    }

    #[test]
    fn job_order_is_scenario_major() {
        let spec = parse_scenario(TWO_LB, "mem", "par").expect("parses");
        let specs = [spec.clone(), spec];
        let order: Vec<_> = jobs(&specs);
        assert_eq!(order[0], (0, 0, 0, 1));
        assert_eq!(order[3], (0, 1, 0, 2));
        assert_eq!(order[4], (1, 0, 0, 1));
        assert_eq!(order.len(), 8);
    }
}
