//! Checker self-test: deliberately-broken fixtures that must FAIL.
//!
//! A conformance suite that never fails is indistinguishable from one
//! that checks nothing, so `cargo run -p xtask -- conformance
//! --self-test` runs at least one broken fixture per checker class and
//! demands a failure of exactly that class. Two of the fixtures break
//! at the scenario level (a real sim run violating a declared bound, a
//! wrong pinned digest or flow-record golden); the rest tamper with a
//! healthy run's evidence to reach checker branches a correct simulator
//! can't trigger (conservation imbalance, impossible FCTs, a clamped
//! past-time schedule, time reversal, a wedged flow under `[slo]`, a
//! stalled recovery, a Hermes that strands what ECMP finished). One
//! honest chaos campaign cell must come out clean of every class, or
//! the tampered ones prove nothing.

use hermes_net::{FaultPlan, SpineId};
use hermes_sim::Time;
use hermes_workload::records_hash;

use crate::chaos::{run_cell, SloCfg, SloClass, LBS};
use crate::check::{
    check_digests, check_envelopes, check_incast_floor, check_invariants, check_ring_steps,
    check_scenario, check_slos, CheckClass, Failure, Goldens,
};
use crate::run::{run_grid, RunOutcome};
use crate::spec::{parse_scenario, ScenarioSpec, SpecError};

/// One self-test case: a fixture and the class it must trip, or `None`
/// for an honest fixture that must trip nothing.
pub struct SelfTestCase {
    pub name: &'static str,
    pub expect: Option<CheckClass>,
    pub failures: Vec<Failure>,
}

impl SelfTestCase {
    /// The fixture tripped its class, or an honest one stayed clean.
    pub fn passed(&self) -> bool {
        match self.expect {
            Some(class) => self.failures.iter().any(|f| f.class == class),
            None => self.failures.is_empty(),
        }
    }
}

fn fixture(extra: &str, stem: &str) -> Result<(ScenarioSpec, Vec<RunOutcome>), SpecError> {
    // The splice point is the top of the file: top-level keys (e.g.
    // `pin_digests`) must precede the first table header, and extra
    // tables ([[event]], [[envelope]]) may appear in any order.
    let src = format!(
        r#"
        {extra}
        [topology]
        kind = "testbed"
        [workload]
        dist = "web_search"
        load = 0.3
        flows = 30
        [run]
        seeds = [1]
        lbs = ["ecmp"]
        drain_ms = 800
        "#
    );
    let spec = parse_scenario(&src, "selftest", stem)?;
    let outs = run_grid(std::slice::from_ref(&spec));
    Ok((spec, outs))
}

/// Run every broken fixture, returning what each one tripped.
pub fn run_self_test() -> Result<Vec<SelfTestCase>, SpecError> {
    let mut cases = Vec::new();

    // -- Invariant, via a genuine sim: a mid-run full blackhole strands
    // ECMP flows, violating a declared zero-unfinished bound.
    let (spec, outs) = fixture(
        r#"
        [[event]]
        at_ns = 2000000
        kind = "set_spine_failure"
        spine = 0
        random_drop = 0.0
        bh_src_leaf = 0
        bh_dst_leaf = 1
        bh_pair_fraction = 1.0
        [[event]]
        at_ns = 800000000
        kind = "clear_spine_failure"
        spine = 0
        [invariants]
        max_unfinished_frac = 0.0
        "#,
        "broken_unfinished_bound",
    )?;
    cases.push(SelfTestCase {
        name: "unfinished-flow bound (real blackhole run)",
        expect: Some(CheckClass::Invariant),
        failures: check_invariants(&spec, &outs[0]),
    });

    // -- Invariant, via tampered evidence: checker branches a correct
    // simulator cannot reach.
    let (spec, mut outs) = fixture("", "broken_conservation")?;
    outs[0].result.conservation.injected += 1;
    cases.push(SelfTestCase {
        name: "packet-conservation imbalance (tampered report)",
        expect: Some(CheckClass::Invariant),
        failures: check_invariants(&spec, &outs[0]),
    });

    let (spec, mut outs) = fixture("", "broken_fct")?;
    let start = outs[0].result.records[0].start;
    outs[0].result.records[0].finish = Some(start);
    cases.push(SelfTestCase {
        name: "FCT below ideal serialization (tampered record)",
        expect: Some(CheckClass::Invariant),
        failures: check_invariants(&spec, &outs[0]),
    });

    let (spec, mut outs) = fixture("", "broken_causality")?;
    outs[0].result.queue_clamps = 1;
    cases.push(SelfTestCase {
        name: "past-time schedule clamped by the event queue (tampered count)",
        expect: Some(CheckClass::Invariant),
        failures: check_invariants(&spec, &outs[0]),
    });

    let (spec, mut outs) = fixture("", "broken_clock")?;
    outs[0].result.goodput.reverse();
    cases.push(SelfTestCase {
        name: "non-monotonic goodput timeline (reversed series)",
        expect: Some(CheckClass::Invariant),
        failures: check_invariants(&spec, &outs[0]),
    });

    // -- Digest: a pinned cell whose golden digest disagrees with the
    // run while its records hold — the event stream alone moved.
    let (spec, outs) = fixture("pin_digests = true", "broken_golden")?;
    let refs: Vec<&RunOutcome> = outs.iter().collect();
    let key = spec.digest_key(0, 1);
    let records = records_hash(&outs[0].result.records);
    let wrong = Goldens {
        digests: [(key.clone(), !outs[0].result.digest)].into(),
        records: [(key.clone(), records)].into(),
    };
    cases.push(SelfTestCase {
        name: "golden digest mismatch (stale pin)",
        expect: Some(CheckClass::Digest),
        failures: check_digests(&spec, &refs, &wrong),
    });

    // -- Records: the same cell against a records golden pinned one
    // nanosecond off for the first flow's finish — the behaviour moved.
    let mut moved = outs[0].result.records.clone();
    moved[0].finish = moved[0].finish.map(|f| f + hermes_sim::Time::from_ns(1));
    let wrong = Goldens {
        digests: [(key.clone(), outs[0].result.digest)].into(),
        records: [(key, records_hash(&moved))].into(),
    };
    cases.push(SelfTestCase {
        name: "golden flow-record mismatch (a finish moved 1 ns)",
        expect: Some(CheckClass::Records),
        failures: check_digests(&spec, &refs, &wrong),
    });

    // -- Envelope: an LB compared against itself under an impossible
    // ratio; lhs == rhs, so any max_ratio < 1 must fail.
    let (spec, outs) = fixture(
        r#"
        [[envelope]]
        metric = "avg"
        lb = "ecmp"
        baseline = "ecmp"
        max_ratio = 0.5
        "#,
        "broken_envelope",
    )?;
    let refs: Vec<&RunOutcome> = outs.iter().collect();
    cases.push(SelfTestCase {
        name: "impossible FCT-ratio envelope (self vs self at 0.5x)",
        expect: Some(CheckClass::Envelope),
        failures: check_envelopes(&spec, &refs),
    });

    // -- RingStep: a healthy ring-allreduce run with one rank's step-1
    // record removed — the rank "skipped a step", breaking both the
    // every-rank-once and the total-bytes conservation law.
    let ring_src = r#"
        [topology]
        kind = "testbed"
        [workload]
        kind = "ring_allreduce"
        ranks = 4
        steps = 2
        chunk_kb = 16
        [run]
        seeds = [1]
        lbs = ["ecmp"]
        drain_ms = 800
        "#;
    let spec = parse_scenario(ring_src, "selftest", "broken_ring_skip")?;
    let mut outs = run_grid(std::slice::from_ref(&spec));
    // Step 1, rank 2 (flow id = 1 × ranks + 2 = 6) vanishes.
    outs[0].result.records.retain(|r| r.id.0 != 6);
    cases.push(SelfTestCase {
        name: "ring-step conservation (rank skipped a step)",
        expect: Some(CheckClass::RingStep),
        failures: check_ring_steps(&spec, &outs[0]),
    });

    // -- IncastFloor: a healthy incast run with one reply's finish
    // stretched far past the burst — a starved responder collapses the
    // burst's drain goodput below any reasonable floor.
    let incast_src = r#"
        [topology]
        kind = "testbed"
        [workload]
        kind = "incast"
        fanout = 4
        reply_kb = 16
        bursts = 2
        [run]
        seeds = [1]
        lbs = ["ecmp"]
        drain_ms = 800
        "#;
    let spec = parse_scenario(incast_src, "selftest", "broken_incast_starved")?;
    let mut outs = run_grid(std::slice::from_ref(&spec));
    {
        // Stretch reply 0 of burst 0 out by 10 s: its burst now drains
        // at a goodput far below the floor.
        let rec = &mut outs[0].result.records[0];
        rec.finish = rec.finish.map(|f| f + hermes_sim::Time::from_secs(10));
    }
    cases.push(SelfTestCase {
        name: "incast goodput floor (starved responder)",
        expect: Some(CheckClass::IncastFloor),
        failures: check_incast_floor(&spec, &outs[0]),
    });

    // -- Invariant under `[slo]`: a healthy run with one flow doctored
    // to never finish — the unfinished bound, zero under `[slo]`, must
    // catch the wedged flow.
    let (spec, mut outs) = fixture("[slo]", "broken_slo_unfinished")?;
    outs[0].result.records[0].finish = None;
    cases.push(SelfTestCase {
        name: "unfinished flow under [slo] (a flow never finished)",
        expect: Some(CheckClass::Invariant),
        failures: check_invariants(&spec, &outs[0]),
    });

    // -- Slo: one chaos campaign cell (5% random drops on spine 0 over
    // 5-20 ms, seed 7, quick workload), judged whole while honest, then
    // with one scheme's evidence doctored per SLO.
    let plan =
        FaultPlan::new().random_drop_window(SpineId(0), 0.05, Time::from_ms(5), Time::from_ms(20));
    let (spec, outs) = run_cell(&plan, 7, true);
    let slo = SloCfg::default();
    let refs: Vec<&RunOutcome> = outs.iter().collect();
    cases.push(SelfTestCase {
        name: "honest [slo] campaign cell (random drops, seed 7)",
        expect: None,
        failures: check_scenario(&spec, &refs, &Goldens::default(), &slo),
    });
    // One seed: the outcomes are in `LBS` order.
    let lb = |name| LBS.iter().position(|&l| l == name).expect("a campaign LB");
    let (hermes, ecmp) = (lb("hermes"), lb("ecmp"));

    // Recovery: freeze ECMP's goodput at half its twin's total, so it
    // never reaches the recovery target.
    let mut tampered = outs.clone();
    let base = outs[ecmp]
        .baseline
        .as_ref()
        .expect("an [slo] cell runs its twin");
    let half = base.goodput.last().map_or(0, |&(_, b)| b) / 2;
    tampered[ecmp].result.goodput = base
        .goodput
        .iter()
        .map(|&(t, b)| (t, b.min(half)))
        .collect();
    let refs: Vec<&RunOutcome> = tampered.iter().collect();
    cases.push(SelfTestCase {
        name: "recovery SLO (goodput frozen at half the twin's total)",
        expect: Some(CheckClass::Slo(SloClass::Recovery)),
        failures: check_slos(&spec, &refs, &slo),
    });

    // Cross-LB: a fake Hermes that strands 3 flows ECMP finished.
    let mut tampered = outs.clone();
    let fake = &mut tampered[hermes].result;
    *fake = outs[ecmp].result.clone();
    fake.fct.unfinished += 3;
    let n = fake.records.len();
    fake.records[n.saturating_sub(3)..]
        .iter_mut()
        .for_each(|rec| rec.finish = None);
    let refs: Vec<&RunOutcome> = tampered.iter().collect();
    cases.push(SelfTestCase {
        name: "cross-LB SLO (hermes strands 3 flows ecmp finished)",
        expect: Some(CheckClass::Slo(SloClass::CrossLb)),
        failures: check_slos(&spec, &refs, &slo),
    });

    Ok(cases)
}

/// True when every broken fixture tripped its intended class and every
/// honest one stayed clean.
pub fn self_test_passed(cases: &[SelfTestCase]) -> bool {
    cases.iter().all(SelfTestCase::passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_checker_class_demonstrably_fails() {
        let cases = run_self_test().expect("fixtures run");
        for c in &cases {
            assert!(
                c.passed(),
                "fixture `{}` expected {:?}: {:?}",
                c.name,
                c.expect,
                c.failures
            );
        }
        let classes: Vec<Option<CheckClass>> = cases.iter().map(|c| c.expect).collect();
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
                classes.contains(&Some(class)),
                "no fixture covers {class:?}"
            );
        }
        // The honest campaign cell reports nothing of any class.
        assert!(classes.contains(&None));
        assert!(self_test_passed(&cases));
    }
}
