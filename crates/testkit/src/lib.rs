//! hermes-testkit: declarative scenario conformance for the Hermes
//! reproduction.
//!
//! The paper's headline claims (§5–6) are behavior *envelopes* —
//! Hermes ≈ CONGA under symmetry, graceful degradation under asymmetry
//! and failure — so this crate encodes them as an executable grid:
//!
//! * **specs** — scenario TOML files (`tests/scenarios/`, and the chaos
//!   corpus `tests/chaos/corpus/`) declaring a topology, workload, fault
//!   plan (`[[event]]`, see [`events`]), the LBs under test, and seeds;
//! * **run** — every `(scenario, lb, seed)` cell, plus its fault-free
//!   twin under `[slo]`, executed as its own deterministic simulation,
//!   all of them in one `hermes_bench::run_points` call (the only
//!   thread pool; this crate spawns no threads itself);
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

pub mod chaos;
pub mod check;
pub mod events;
pub mod run;
pub mod selftest;
pub mod spec;
pub mod suite;
pub mod toml;

pub use check::{check_scenario, CheckClass, Failure, Goldens};
pub use run::{run_grid, RunOutcome};
pub use selftest::{run_self_test, self_test_passed};
pub use spec::{load_dir, load_file, parse_scenario, ScenarioSpec, SloTag, SpecError};
pub use suite::{
    bless, load_goldens, run_conformance, BlessReport, ConformanceReport, DIGESTS_FILE,
    RECORDS_FILE,
};
