//! Planted-defect self-test for the chaos SLO checkers and shrinker.
//!
//! Mirrors [`crate::selftest`]: a checker that never fires is worse
//! than no checker, so each SLO class gets a doctored fixture that
//! *must* trip it, plus one honest run that must stay clean and a
//! synthetic shrinking problem with a known minimal answer. `xtask
//! chaos --self-test` runs this and CI gates on it.

use hermes_net::{FaultAction, FaultPlan, LeafId, SpineId};
use hermes_sim::Time;

use super::shrink::shrink_plan;
use super::slo::{check_conservation, check_cross_lb, check_drain, check_recovery, SloCfg};
use super::{judge, run_cell};

/// One self-test verdict. `ok` means the case behaved as planted
/// (checker tripped on the doctored fixture, stayed quiet on the
/// honest one, shrinker found the minimal plan).
#[derive(Clone, Debug)]
pub struct ChaosSelfTestCase {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn chaos_self_test_passed(cases: &[ChaosSelfTestCase]) -> bool {
    !cases.is_empty() && cases.iter().all(|c| c.ok)
}

fn case(name: &'static str, ok: bool, detail: String) -> ChaosSelfTestCase {
    ChaosSelfTestCase { name, ok, detail }
}

/// Run every planted fixture. One real (quick) cell run is shared by
/// all checker cases; each case then doctors a clone of its evidence.
pub fn run_chaos_self_test() -> Vec<ChaosSelfTestCase> {
    let mut cases = Vec::new();
    let cfg = SloCfg::default();
    let plan =
        FaultPlan::new().random_drop_window(SpineId(0), 0.05, Time::from_ms(5), Time::from_ms(20));
    let (spec, outs) = run_cell(&plan, 7, true);

    // 1. Honest evidence must be clean — otherwise every "tripped"
    // below would be meaningless.
    let clean = judge(&spec, &outs, &cfg);
    cases.push(case(
        "honest-run-is-clean",
        clean.is_empty(),
        match clean.first() {
            None => "no violations on an honest mild-fault run".to_string(),
            Some(v) => format!(
                "unexpected violation: {} in {}: {}",
                v.class.as_str(),
                v.cell,
                v.detail
            ),
        },
    ));

    let ecmp = outs.iter().find(|o| spec.lbs[o.lb_idx].0 == "ecmp");
    let Some((fault, base)) = ecmp.and_then(|o| Some((&o.result, o.baseline.as_ref()?))) else {
        cases.push(case("fixtures", false, "no ecmp cell produced".to_string()));
        return cases;
    };

    // 2. Conservation: misaccount one injected packet.
    let mut tampered = fault.clone();
    tampered.conservation.injected += 1;
    let tripped = check_conservation("selftest/ecmp", &tampered).is_some();
    cases.push(case(
        "conservation-checker-trips",
        tripped,
        "one phantom injected packet must unbalance conservation".to_string(),
    ));

    // 3. Drain: doctor one flow to never finish.
    let mut tampered = fault.clone();
    let tripped = if let Some(rec) = tampered.records.first_mut() {
        rec.finish = None;
        check_drain("selftest/ecmp", &tampered).is_some()
    } else {
        false
    };
    cases.push(case(
        "drain-checker-trips",
        tripped,
        "a flow with no finish time must count as stuck".to_string(),
    ));

    // 4. Recovery: freeze the faulted goodput series at half the
    // fault-free total so it never reaches the recovery target.
    let total = base.goodput.last().map_or(0, |&(_, b)| b);
    let mut tampered = fault.clone();
    tampered.goodput = base
        .goodput
        .iter()
        .map(|&(t, b)| (t, b.min(total / 2)))
        .collect();
    let tripped = total > 0
        && check_recovery("selftest/ecmp", &tampered, base, plan.end_time(), &cfg).is_some();
    cases.push(case(
        "recovery-checker-trips",
        tripped,
        "goodput frozen at half the baseline total must miss the recovery target".to_string(),
    ));

    // 5. Cross-LB: a fake "hermes" that strands flows ECMP finished.
    let mut fake_hermes = fault.clone();
    fake_hermes.fct.unfinished = fault.fct.unfinished + 3;
    let n = fake_hermes.records.len();
    for rec in fake_hermes.records.iter_mut().skip(n.saturating_sub(3)) {
        rec.finish = None;
    }
    let tripped =
        !check_cross_lb("selftest", &fake_hermes, fault, plan.end_time(), &cfg).is_empty();
    cases.push(case(
        "cross-lb-checker-trips",
        tripped,
        "hermes stranding 3 flows ecmp finished must violate the cross-LB band".to_string(),
    ));

    // 6. Shrinker: a 10-event plan where only one LinkDown matters
    // must collapse to (at most) that event and its LinkUp.
    let noisy = FaultPlan::new()
        .link_flap(
            LeafId(0),
            SpineId(0),
            Time::from_ms(2),
            Time::from_ms(1),
            Time::from_ms(4),
            Time::from_ms(14),
        )
        .spine_outage(SpineId(1), Time::from_ms(3), Time::from_ms(9))
        .random_drop_window(SpineId(2), 0.05, Time::from_ms(1), Time::from_ms(6));
    let wants_down = |p: &FaultPlan| {
        p.events().iter().any(|e| {
            matches!(
                e.action,
                FaultAction::LinkDown {
                    leaf: LeafId(0),
                    spine: SpineId(0),
                }
            )
        })
    };
    let out = shrink_plan(&noisy, wants_down, 500);
    let ok = out.plan.len() <= 2 && wants_down(&out.plan) && out.plan.validate().is_ok();
    cases.push(case(
        "shrinker-finds-minimal-plan",
        ok,
        format!(
            "{} events shrunk to {} in {} evals (expected <= 2, predicate held, valid)",
            out.from_events,
            out.plan.len(),
            out.evals
        ),
    ));

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_planted_defect_trips_its_checker() {
        let cases = run_chaos_self_test();
        assert!(
            chaos_self_test_passed(&cases),
            "failed cases: {:?}",
            cases.iter().filter(|c| !c.ok).collect::<Vec<_>>()
        );
        assert_eq!(cases.len(), 6, "every fixture must report");
    }
}
