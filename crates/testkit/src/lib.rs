//! hermes-testkit: the experiment harness of the Hermes reproduction.
//!
//! Every run goes through one runner and one pool:
//!
//! * **point** — [`run_point`]`(&PointCfg) -> RunReport`, where a
//!   [`PointCfg`] is a `SimConfig` plus the workload that drives it.
//!   [`run_sim`] harvests the same report from a hand-built
//!   `Simulation` (Figs 2–4 and the tests), and [`assert_deterministic`]
//!   replays one to check the determinism contract;
//! * **pool** — [`run_points`]`(&[PointCfg]) -> Vec<RunReport>` runs a
//!   list of points one worker per core, with results in input order
//!   (what the figures, the conformance grid and the chaos campaigns
//!   all run). Underneath it, [`run_points_with`] runs any per-point
//!   job on the same workers; `hermes-cli` runs a scenario file's cells
//!   there, and with `--trace` traces and writes each one. It is the
//!   workspace's only thread pool, and it spawns threads only across
//!   whole runs;
//! * **trace** — the fig17 trace points (named `PointCfg`s that
//!   `hermes-cli --point` runs) and [`run_trace_point`], one run with
//!   the telemetry sink installed on the running thread.
//!
//! The paper's headline claims (§5–6) are behavior *envelopes* —
//! Hermes ≈ CONGA under symmetry, graceful degradation under asymmetry
//! and failure — so this crate also encodes them as an executable grid:
//!
//! * **specs** — scenario TOML files (`tests/scenarios/`, the chaos
//!   corpus `tests/chaos/corpus/`, the figures' `figures/` and the
//!   `examples/scenarios/` that `hermes-cli FILE.toml` runs)
//!   declaring a topology, workload, fault plan (`[[event]]`, see
//!   [`events`]), the LBs under test, and seeds;
//! * **run** — every `(scenario, lb, load, seed)` cell, plus its fault-free
//!   twin under `[slo]`, executed as its own deterministic simulation,
//!   all of them in one [`run_points`] call;
//! * **check** — seven checker classes over the evidence: physical
//!   invariants (packet conservation, monotonic time, FCT sanity,
//!   causality, unfinished-flow bounds), golden event-trace digests and
//!   golden flow-record hashes with a bless flow, statistical FCT-ratio
//!   envelopes between LBs, ring-step conservation for collective
//!   workloads, the incast goodput floor for burst workloads, and the
//!   two degradation SLOs (recovery, cross-LB) for `[slo]` scenarios;
//!   [`check::check_scenario`] applies them all to one scenario, the
//!   one judge of both the conformance suite and the chaos campaign;
//! * **selftest** — deliberately-broken fixtures proving each checker
//!   class actually fails when it should, and an honest chaos campaign
//!   cell proving none fails when it should not;
//! * **chaos** — the seeded fault-space campaign, whose cells are
//!   scenarios run by the same [`run_grid`] and judged by the same
//!   [`check::check_scenario`].
//!
//! Entry points: [`suite::run_conformance`] for a directory pass,
//! [`suite::bless`] to regenerate goldens, and
//! [`selftest::run_self_test`] for the checker self-test. The tier-1
//! grid lives in the repo-root `tests/conformance.rs`; the extended
//! grid and the corpus run via `cargo run -p xtask -- conformance`.
//!
//! The crate's one binary, `fig <name>`
//! (`cargo run --release -p hermes-testkit --bin fig -- <name>`; with
//! no name it lists them), regenerates each of the paper's tables and
//! figures. Its FCT grids are scenario files too, the repo-root
//! `figures/<name>/`, run by the same [`run_grid`]; the rest run their
//! own scenarios. The simulator's own speed is not measured here: that
//! record is the repo-root `benchmark/` crate.
//!
//! ## Scaling knobs (environment variables, read by `fig`)
//!
//! | Var | Meaning | Default |
//! |---|---|---|
//! | `HERMES_SCALE` | multiply per-point flow counts (a finite float > 0; at least 50 flows) | `1.0` |
//! | `HERMES_RUNS`  | seeds averaged per point: a file's first seed and the next ones (an integer ≥ 1; the last seed must fit a `u64`) | `1` |
//!
//! The paper averages 5 runs of 2 simulated seconds; the defaults here
//! are sized for a single-core laptop run of the whole suite. Raise
//! `HERMES_SCALE`/`HERMES_RUNS` to tighten confidence intervals. `fig`
//! validates every scaled cell before any runs and exits 2 otherwise.

pub mod chaos;
pub mod check;
pub mod events;
pub mod point;
pub mod run;
pub mod selftest;
pub mod spec;
pub mod suite;
pub mod toml;
pub mod trace;

pub use check::{check_scenario, CheckClass, Failure, Goldens};
pub use point::{
    assert_deterministic, avg_summaries, run_point, run_sim, PointCfg, PointError, PointField,
    RunReport,
};
pub use run::{run_grid, run_points, run_points_with, RunOutcome};
pub use selftest::{run_self_test, self_test_passed};
pub use spec::{load_dir, load_file, parse_scenario, ScenarioSpec, SloTag, SpecError};
pub use suite::{
    bless, load_goldens, run_conformance, BlessReport, ConformanceReport, DIGESTS_FILE,
    RECORDS_FILE,
};
pub use trace::{
    fig17_point, run_trace_point, trace_point, trace_points, TraceOut, TracePoint, CLEAR, ONSET,
};
