//! Multi-seed scenario execution.
//!
//! Each `(scenario, lb, load, seed)` grid cell is one fully independent
//! deterministic simulation, plus its fault-free twin when the scenario
//! carries `[slo]`: the job list is materialized into `PointCfg`s and
//! handed to [`hermes_bench::run_points`], whose results land by index,
//! so the outcomes are in job order whatever the core count. This is
//! the one runner of scenarios: the conformance suite and the chaos
//! campaign both call [`run_grid`].

use hermes_bench::{run_points, RunReport};

use crate::spec::ScenarioSpec;

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
