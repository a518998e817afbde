//! Parallel multi-seed scenario execution.
//!
//! Each `(scenario, lb, seed)` grid cell is one fully independent
//! deterministic simulation, so the executor fans the job list out
//! across a scoped thread pool (no rayon in-tree; `std::thread::scope`
//! plus an atomic work counter is all this needs). Each worker
//! materializes and runs its sims entirely inside its own thread; only
//! the `Sync` specs and the plain-data [`RunReport`] cross the
//! boundary. Results are reassembled in job order, so the output is
//! byte-identical no matter how the threads interleave.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hermes_bench::{run_point, RunReport};

use crate::spec::ScenarioSpec;

/// One completed grid cell.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Index into the spec slice passed to [`run_grid`].
    pub scenario: usize,
    /// Index into that scenario's `lbs`.
    pub lb_idx: usize,
    pub seed: u64,
    pub result: RunReport,
}

/// Flatten the scenarios into the deterministic job list.
fn jobs(specs: &[ScenarioSpec]) -> Vec<(usize, usize, u64)> {
    let mut out = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for li in 0..spec.lbs.len() {
            for &seed in &spec.seeds {
                out.push((si, li, seed));
            }
        }
    }
    out
}

/// Run every `(scenario, lb, seed)` cell, `threads`-wide (0 = one per
/// available core). Returns outcomes in job order regardless of
/// scheduling. Sim panics propagate out of the scope join.
pub fn run_grid(specs: &[ScenarioSpec], threads: usize) -> Vec<RunOutcome> {
    let jobs = jobs(specs);
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        threads
    }
    .min(jobs.len().max(1));

    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, RunOutcome)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(scenario, lb_idx, seed)) = jobs.get(idx) else {
                    break;
                };
                let outcome = RunOutcome {
                    scenario,
                    lb_idx,
                    seed,
                    result: run_point(&specs[scenario].materialize(lb_idx, seed)),
                };
                done.lock()
                    .expect("result sink poisoned")
                    .push((idx, outcome));
            });
        }
    });
    let mut collected = done.into_inner().expect("result sink poisoned");
    collected.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(collected.len(), jobs.len());
    collected.into_iter().map(|(_, o)| o).collect()
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

    #[test]
    fn parallel_run_matches_serial_run() {
        let spec = parse_scenario(TWO_LB, "mem", "par").expect("parses");
        let specs = [spec];
        let par = run_grid(&specs, 4);
        let ser = run_grid(&specs, 1);
        assert_eq!(par.len(), 4);
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(
                (p.scenario, p.lb_idx, p.seed),
                (s.scenario, s.lb_idx, s.seed)
            );
            assert_eq!(
                p.result.digest, s.result.digest,
                "thread count changed a digest"
            );
            assert_eq!(p.result.fct.avg, s.result.fct.avg);
        }
    }

    #[test]
    fn job_order_is_scenario_major() {
        let spec = parse_scenario(TWO_LB, "mem", "par").expect("parses");
        let specs = [spec.clone(), spec];
        let order: Vec<_> = jobs(&specs);
        assert_eq!(order[0], (0, 0, 1));
        assert_eq!(order[3], (0, 1, 2));
        assert_eq!(order[4], (1, 0, 1));
        assert_eq!(order.len(), 8);
    }
}
