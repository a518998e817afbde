//! Multi-seed scenario execution.
//!
//! Each `(scenario, lb, seed)` grid cell is one fully independent
//! deterministic simulation: the job list is materialized into
//! `PointCfg`s and handed to [`hermes_bench::run_points`], whose
//! results land by index, so the outcomes are in job order whatever
//! the core count.

use hermes_bench::{run_points, RunReport};

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

/// Run every `(scenario, lb, seed)` cell in one [`run_points`] call.
/// Returns outcomes in job order. Sim panics propagate.
pub fn run_grid(specs: &[ScenarioSpec]) -> Vec<RunOutcome> {
    let jobs = jobs(specs);
    let cfgs: Vec<_> = jobs
        .iter()
        .map(|&(si, li, seed)| specs[si].materialize(li, seed))
        .collect();
    jobs.into_iter()
        .zip(run_points(&cfgs))
        .map(|((scenario, lb_idx, seed), result)| RunOutcome {
            scenario,
            lb_idx,
            seed,
            result,
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
