//! # hermes-bench — shared harness for the paper's tables and figures
//!
//! The `fig` binary that regenerates every table and figure of the
//! paper lives in `hermes-testkit`, whose scenario format its FCT grids
//! are written in (`DESIGN.md` §4 has the index). This library holds
//! the shared pieces: the one point runner, `run_point(&PointCfg)
//! -> RunReport`, where a `PointCfg` is a `SimConfig` plus the workload
//! that drives it, and its pool, `run_points(&[PointCfg]) ->
//! Vec<RunReport>`, which runs a list of points one worker per core
//! with results in input order (what `hermes-cli --runs`, the figure
//! grids, Fig 1, the Fig 17 transient, the conformance grid and the
//! chaos campaigns all run). Underneath it, `run_points_with` runs any
//! per-point job on the same workers; `hermes-cli --trace` traces and
//! writes each run there. This is the only crate that spawns threads,
//! and only across whole runs. `run_sim` harvests the same
//! report from a hand-built `Simulation` (Figs 2–4 and the tests), and
//! `assert_deterministic` replays one to check the determinism
//! contract. It also holds the fig17 trace points (named `PointCfg`s
//! that `hermes-cli --point` runs), `run_trace_point` (one run with the
//! telemetry sink installed on the running thread), the probing-cost
//! calculator behind Table 6, the asymmetric topology and Hermes
//! parameter presets the figures share, and a plain text table
//! printer. The simulator's own speed is not measured here: that
//! record is the repo-root `benchmark/` crate.

use hermes_core::HermesParams;

mod probing;
mod runner;
mod table;
mod trace;

pub use probing::{ProbingCostModel, ProbingRow};
pub use runner::{
    assert_deterministic, avg_summaries, run_point, run_points, run_points_with, run_sim, PointCfg,
    PointError, PointField, RunReport,
};
pub use table::{fmt_ms, fmt_ratio, TextTable};
pub use trace::{
    fig17_point, run_trace_point, trace_point, trace_points, TraceOut, TracePoint, CLEAR, ONSET,
};

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

/// A Hermes parameter preset by name: `testbed`, the 1 Gbps testbed's
/// tuned thresholds ([`HermesParams::paper_testbed`]), or `tcp`, §5.4's
/// RTT-only sensing ([`HermesParams::for_tcp`]). `None` for any other
/// name. `hermes-cli` and the scenario loader both pick presets here.
pub fn hermes_preset(name: &str, topo: &hermes_net::Topology) -> Option<HermesParams> {
    match name {
        "testbed" => Some(HermesParams::paper_testbed(topo)),
        "tcp" => Some(HermesParams::for_tcp(topo)),
        _ => None,
    }
}
