//! Tier-1 conformance: the small scenario grid under `tests/scenarios/`
//! (symmetric, asymmetric, blackhole, random-drop, plus the
//! workload-diversity regimes — ring-allreduce collective, incast
//! burst, elephant/mice mix — × hermes/conga/ecmp × 3 seeds), run in
//! parallel and held to all six checker classes — physical
//! invariants, golden event-trace digests, golden flow-record hashes,
//! the paper's FCT-ratio envelopes, ring-step conservation, and the
//! incast goodput floor (the seventh class, the degradation SLOs, judges
//! the `[slo]` scenarios of the chaos corpus and the chaos campaign's
//! cells; see `tests/chaos.rs`).
//! The extended grid (8×8 fabric, wider LB field) and the corpus run
//! via `cargo run -p xtask -- conformance`, and every scenario directory
//! loads here; goldens regenerate via `cargo run -p xtask -- bless`.
//! See DESIGN.md §10 and §15.

use std::path::{Path, PathBuf};

use hermes_net::{FaultPlan, LeafId, SpineId};
use hermes_sim::Time;
use hermes_testkit::chaos::SloClass;
use hermes_testkit::{
    load_dir, load_file, run_conformance, run_point, run_points, run_self_test, self_test_passed,
    CheckClass,
};
use hermes_workload::records_hash;

fn scenario_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios")
}

/// Every scenario directory `xtask conformance` runs loads — parsed and
/// validated, nothing run — so a broken file in a directory tier-1 does
/// not run still fails here.
#[test]
fn every_scenario_directory_loads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (dir, at_least) in [
        ("tests/scenarios", 7),
        ("tests/scenarios/extended", 3),
        ("tests/chaos/corpus", 5),
    ] {
        let specs = load_dir(&root.join(dir)).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            specs.len() >= at_least,
            "{dir}: {} scenario(s)",
            specs.len()
        );
    }
}

/// The scenarios whose fault was a `[fault]` window spell it as two
/// `[[event]]`s: the plan equals the window builder's with the old
/// values, so their goldens hold.
#[test]
fn fault_windows_load_as_the_builders_plans() {
    let ms = Time::from_ms;
    let (s0, l0, l1) = (SpineId(0), LeafId(0), LeafId(1));
    for (file, plan) in [
        (
            "blackhole.toml",
            FaultPlan::new().blackhole_window(s0, l0, l1, 1.0, ms(10), ms(4000)),
        ),
        (
            "random_drop.toml",
            FaultPlan::new().random_drop_window(s0, 0.02, ms(10), ms(4000)),
        ),
        (
            "extended/drop_ramp_8x8.toml",
            FaultPlan::new().random_drop_window(s0, 0.02, ms(5), ms(4000)),
        ),
    ] {
        let spec = load_file(&scenario_dir().join(file)).expect(file);
        assert_eq!(spec.base.sim.fault_plan, plan, "{file}");
    }
}

#[test]
fn small_grid_passes_all_checker_classes() {
    let report = run_conformance(&scenario_dir()).expect("scenario grid runs");
    // The ISSUE's floor: six regimes (four failure regimes plus the
    // workload-diversity scenarios) × at least three LBs × at least
    // three seeds.
    assert!(report.scenarios.len() >= 6, "expected the six-regime grid");
    for name in ["ring_allreduce", "incast", "elephant_mice"] {
        assert!(
            report.scenarios.iter().any(|s| s.name == name),
            "workload-diversity scenario `{name}` missing from the grid"
        );
    }
    let combos: usize = report
        .scenarios
        .iter()
        .map(|s| {
            assert!(s.seeds.len() >= 3, "{}: fewer than 3 seeds", s.name);
            assert!(s.lbs.len() >= 3, "{}: fewer than 3 LBs", s.name);
            assert!(s.pin_digests, "{}: tier-1 scenarios pin digests", s.name);
            s.lbs.len()
        })
        .sum();
    assert!(
        combos >= 18,
        "expected a >=18 (scenario, lb) grid, got {combos}"
    );
    assert_eq!(
        report.cells(),
        report
            .scenarios
            .iter()
            .map(|s| s.lbs.len() * s.seeds.len())
            .sum::<usize>()
    );
    assert!(
        report.passed(),
        "conformance failures:\n{}",
        report
            .failures
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn grid_is_invariant_to_thread_count() {
    // The pool must produce the evidence the sequential reference
    // does, cell by cell, however the workers interleave.
    let spec = hermes_testkit::load_dir(&scenario_dir())
        .expect("scenarios load")
        .into_iter()
        .find(|s| s.name == "symmetric")
        .expect("symmetric scenario");
    let cells: Vec<_> = (spec.cells().into_iter())
        .map(|(li, ld, seed)| spec.materialize(li, ld, seed))
        .collect();
    let pooled = run_points(&cells);
    let serial: Vec<_> = cells.iter().map(run_point).collect();
    assert_eq!(pooled.len(), serial.len());
    for (a, b) in pooled.iter().zip(&serial) {
        assert_eq!(
            (a.digest, a.events, records_hash(&a.records)),
            (b.digest, b.events, records_hash(&b.records))
        );
    }
}

#[test]
fn checker_self_test_trips_every_class() {
    // A suite that cannot fail checks nothing: each deliberately-broken
    // fixture must trip exactly the checker class it targets.
    // An honest chaos campaign cell must trip nothing.
    let cases = run_self_test().expect("fixtures run");
    assert!(self_test_passed(&cases));
    for class in [
        CheckClass::Invariant,
        CheckClass::Digest,
        CheckClass::Records,
        CheckClass::Envelope,
        CheckClass::RingStep,
        CheckClass::IncastFloor,
        CheckClass::Slo(SloClass::Recovery),
        CheckClass::Slo(SloClass::CrossLb),
    ] {
        assert!(
            cases.iter().any(|c| c.expect == Some(class)),
            "no fixture covers {class:?}"
        );
    }
    assert!(
        cases.iter().any(|c| c.expect.is_none()),
        "no honest fixture"
    );
}
