//! Graceful-degradation SLOs for chaos campaigns.
//!
//! A sampled fault plan is not judged on exact FCTs — those vary with
//! the plan — but on two *degradation contracts* that must hold for
//! every plan whose faults all clear before the drain horizon:
//!
//! 1. **Recovery** — cumulative goodput under faults reaches a fixed
//!    fraction of the fault-free run's total within the fault-free
//!    time-to-target plus the plan span plus a slack budget.
//! 2. **Cross-LB** — Hermes is never meaningfully worse than ECMP on
//!    the same plan: not more unfinished flows, and not more stranded
//!    flow-time past the last fault event (beyond a tolerance band).
//!
//! Packet conservation and "every flow finished" are invariants, not
//! SLOs: an `[slo]` scenario's unfinished-flow bound defaults to zero,
//! so [`crate::check::check_invariants`] holds a faulted cell to both.
//! The checkers here never panic; they return [`Failure`]s of class
//! [`CheckClass::Slo`], which [`crate::check::check_slos`] collects for
//! every `[slo]` scenario, campaign cells included.

use hermes_sim::Time;

use crate::check::{CheckClass, Failure};
use crate::point::RunReport;

/// Which degradation contract a failure falls under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloClass {
    Recovery,
    CrossLb,
}

impl SloClass {
    /// Stable lowercase name used in reports and `[slo]` tables.
    pub fn as_str(self) -> &'static str {
        match self {
            SloClass::Recovery => "recovery",
            SloClass::CrossLb => "cross_lb",
        }
    }

    /// Parse the stable name back (`[slo]` tables carry it).
    pub fn parse(s: &str) -> Option<SloClass> {
        match s {
            "recovery" => Some(SloClass::Recovery),
            "cross_lb" => Some(SloClass::CrossLb),
            _ => None,
        }
    }
}

/// A failure of `class` in `cell`.
fn breach(class: SloClass, cell: &str, detail: String) -> Failure {
    Failure {
        class: CheckClass::Slo(class),
        cell: cell.to_string(),
        detail,
    }
}

/// Thresholds for the recovery and cross-LB contracts.
///
/// The defaults are tuned so a healthy tree (`main`) passes a
/// 32-seed quick campaign with zero violations; a *stricter* config
/// (higher `recovery_frac`, smaller slacks) is how new corpus
/// counterexamples are mined — see `tests/README.md` and DESIGN.md §14.
#[derive(Clone, Copy, Debug)]
pub struct SloCfg {
    /// Fault-run cumulative goodput must reach this fraction of the
    /// fault-free run's final total...
    pub recovery_frac: f64,
    /// ...no later than the fault-free time-to-target, plus the plan
    /// span (faults legitimately stall progress while active), plus
    /// this slack (timeout/backoff tails after the last fault clears).
    pub recovery_slack: Time,
    /// Hermes' stranded flow-time may exceed ECMP's by at most this
    /// factor...
    pub stranded_factor: f64,
    /// ...plus this additive slack (absorbs per-seed noise when both
    /// stranded durations are near zero).
    pub stranded_slack: Time,
}

impl Default for SloCfg {
    fn default() -> SloCfg {
        SloCfg {
            recovery_frac: 0.85,
            recovery_slack: Time::from_ms(500),
            stranded_factor: 1.5,
            stranded_slack: Time::from_ms(250),
        }
    }
}

/// Recovery: goodput recovers — the faulted run reaches
/// `recovery_frac × (fault-free final goodput)` within the fault-free
/// time-to-target + plan span + slack.
///
/// Skipped (returns `None`) when the fault-free run moved no goodput
/// or never reached the target itself — there is no baseline to
/// recover *to*, which a degenerate sampled workload can produce.
pub fn check_recovery(
    cell: &str,
    fault: &RunReport,
    base: &RunReport,
    plan_end: Time,
    cfg: &SloCfg,
) -> Option<Failure> {
    let total = base.goodput.last().map_or(0, |&(_, b)| b);
    if total == 0 {
        return None;
    }
    let target = ((total as f64 * cfg.recovery_frac).ceil() as u64).max(1);
    let reach = |series: &[(Time, u64)]| {
        series
            .iter()
            .find(|&&(_, bytes)| bytes >= target)
            .map(|&(t, _)| t)
    };
    let t_base = reach(&base.goodput)?;
    let budget = t_base + plan_end + cfg.recovery_slack;
    match reach(&fault.goodput) {
        Some(t) if t <= budget => None,
        Some(t) => Some(breach(
            SloClass::Recovery,
            cell,
            format!(
                "goodput reached {target} B at {t}, past the budget {budget} \
                 (fault-free target time {t_base} + plan span {plan_end} + slack)"
            ),
        )),
        None => Some(breach(
            SloClass::Recovery,
            cell,
            format!(
                "goodput never reached {target} B ({:?} of the fault-free total {total} B)",
                cfg.recovery_frac
            ),
        )),
    }
}

/// Flow-time stranded past `clear`: for every flow that started before
/// the last fault event, the time it remained unfinished after it
/// (unfinished flows charged to the horizon). This is the paper's
/// "how long did traffic stay hurt" lens — a scheme that evacuates
/// faulty paths strands less flow-time than one that cannot.
pub fn stranded_duration(r: &RunReport, clear: Time) -> Time {
    r.records
        .iter()
        .filter(|rec| rec.start < clear)
        .map(|rec| rec.finish.unwrap_or(r.horizon).saturating_sub(clear))
        .fold(Time::ZERO, |acc, d| acc + d)
}

/// Cross-LB: Hermes never meaningfully worse than ECMP on the same plan —
/// not more unfinished flows, and stranded flow-time within
/// `stranded_factor × ECMP + stranded_slack`.
pub fn check_cross_lb(
    cell: &str,
    hermes: &RunReport,
    ecmp: &RunReport,
    plan_end: Time,
    cfg: &SloCfg,
) -> Vec<Failure> {
    let mut out = Vec::new();
    if hermes.fct.unfinished > ecmp.fct.unfinished {
        out.push(breach(
            SloClass::CrossLb,
            cell,
            format!(
                "hermes stranded {} flow(s) vs ecmp {} on the same plan",
                hermes.fct.unfinished, ecmp.fct.unfinished
            ),
        ));
    }
    let sh = stranded_duration(hermes, plan_end);
    let se = stranded_duration(ecmp, plan_end);
    let bound = se.mul_f64(cfg.stranded_factor) + cfg.stranded_slack;
    if sh > bound {
        out.push(breach(
            SloClass::CrossLb,
            cell,
            format!(
                "hermes stranded flow-time {sh} exceeds bound {bound} \
                 ({:?} x ecmp's {se} + slack)",
                cfg.stranded_factor
            ),
        ));
    }
    out
}
