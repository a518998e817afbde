//! hermes-testkit: declarative scenario conformance for the Hermes
//! reproduction.
//!
//! The paper's headline claims (§5–6) are behavior *envelopes* —
//! Hermes ≈ CONGA under symmetry, graceful degradation under asymmetry
//! and failure — so this crate encodes them as an executable grid:
//!
//! * **specs** — scenario TOML files (`tests/scenarios/`) declaring a
//!   topology, workload, fault plan, the LBs under test, and seeds;
//! * **run** — every `(scenario, lb, seed)` cell executed as its own
//!   deterministic simulation, all of them in one
//!   `hermes_bench::run_points` call (the only thread pool; this crate
//!   spawns no threads itself);
//! * **check** — six checker classes over the evidence: physical
//!   invariants (packet conservation, monotonic time, FCT sanity,
//!   unfinished-flow bounds), golden event-trace digests and golden
//!   flow-record hashes with a bless flow, statistical FCT-ratio
//!   envelopes between LBs, ring-step
//!   conservation for collective workloads, and the incast goodput
//!   floor for burst workloads;
//! * **selftest** — deliberately-broken fixtures proving each checker
//!   class actually fails when it should.
//!
//! Entry points: [`suite::run_conformance`] for a directory pass,
//! [`suite::bless`] to regenerate goldens, and
//! [`selftest::run_self_test`] for the checker self-test. The tier-1
//! grid lives in the repo-root `tests/conformance.rs`; the extended
//! grid runs via `cargo run -p xtask -- conformance`.

pub mod chaos;
pub mod check;
pub mod run;
pub mod selftest;
pub mod spec;
pub mod suite;
pub mod toml;

pub use check::{CheckClass, Failure, Goldens};
pub use run::{run_grid, RunOutcome};
pub use selftest::{run_self_test, self_test_passed};
pub use spec::{load_dir, load_file, parse_scenario, ScenarioSpec, SpecError};
pub use suite::{
    bless, load_goldens, run_conformance, BlessReport, ConformanceReport, DIGESTS_FILE,
    RECORDS_FILE,
};
