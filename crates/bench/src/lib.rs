//! # hermes-bench — shared harness for the paper's tables and figures
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index). This library holds the
//! shared pieces: the one point runner, `run_point(&PointCfg) ->
//! RunReport`, and its pool, `run_points(&[PointCfg]) ->
//! Vec<RunReport>`, which runs a list of points one worker per core
//! with results in input order (what `hermes-cli --runs`, the figure
//! grids, the conformance grid and the chaos campaigns all run). This
//! is the only crate that spawns threads, and only across whole runs.
//! It also holds the fig17 trace points, the
//! probing-cost calculator behind Table 6,
//! environment-variable scaling, and a plain text table printer. The
//! simulator's own speed is not measured here: that record is the
//! repo-root `benchmark/` crate.
//!
//! ## Scaling knobs (environment variables)
//!
//! | Var | Meaning | Default |
//! |---|---|---|
//! | `HERMES_SCALE` | multiply per-point flow counts | `1.0` |
//! | `HERMES_RUNS`  | seeds averaged per point | `1` |
//!
//! The paper averages 5 runs of 2 simulated seconds; the defaults here
//! are sized for a single-core laptop run of the whole suite. Raise
//! `HERMES_SCALE`/`HERMES_RUNS` to tighten confidence intervals.

mod grid;
mod probing;
mod runner;
mod table;
mod trace;

pub use grid::GridSpec;
pub use probing::{ProbingCostModel, ProbingRow};
pub use runner::{
    avg_summaries, run_point, run_points, PointCfg, PointError, PointField, RunReport,
};
pub use table::{fmt_ms, fmt_ratio, TextTable};
pub use trace::{
    run_trace_point, trace_flows, trace_plan, trace_point, trace_topo, TraceOut, TracePoint, CLEAR,
    HORIZON, ONSET, SEED, TRACE_POINTS,
};

/// Global flow-count scale from `HERMES_SCALE`.
pub fn scale() -> f64 {
    std::env::var("HERMES_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Number of seeds per point from `HERMES_RUNS`.
pub fn runs() -> u64 {
    std::env::var("HERMES_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Scaled flow count (at least 50).
pub fn flows(base: usize) -> usize {
    ((base as f64 * scale()) as usize).max(50)
}

/// The paper's §5.3.2 asymmetric topology: the 8×8 baseline with 20% of
/// leaf-spine links degraded from 10 Gbps to 2 Gbps, chosen by a fixed
/// seed so every figure sees the same asymmetry.
pub fn asym_topology() -> hermes_net::Topology {
    let mut topo = hermes_net::Topology::sim_baseline();
    let mut rng = hermes_sim::SimRng::new(0xA5);
    topo.degrade_random_links(0.2, 2_000_000_000, &mut rng);
    topo
}

/// Healthy-fabric capacity of the 8×8 baseline (load reference for
/// asymmetric runs, per the paper's convention).
pub fn baseline_capacity() -> u64 {
    hermes_net::Topology::sim_baseline().total_uplink_bps()
}
