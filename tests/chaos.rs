//! Chaos campaign engine: corpus replay, campaign determinism, and
//! the SLO/shrinker self-test (DESIGN.md §14).
//!
//! Tier-1 cut of `cargo run -p xtask -- chaos`: the committed
//! counterexample corpus must replay green under the default SLOs, a
//! campaign must be byte-deterministic in its seed range, and every
//! planted self-test fixture must trip its checker. The `mine_*` test
//! at the bottom is `#[ignore]`d — it is the documented harness that
//! produced the overlapping-fault corpus entry, kept runnable so the
//! entry's provenance can be re-derived.

use std::path::Path;

use hermes_net::{FaultPlan, SpineId};
use hermes_sim::Time;
use hermes_testkit::chaos::{
    self, chaos_self_test_passed, run_chaos_self_test, slo, CampaignCfg, SloCfg,
};

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/chaos/corpus"))
}

/// Every committed counterexample replays green at the default SLOs:
/// the degradations those plans once exposed stay within contract.
#[test]
fn corpus_replays_green_at_default_slos() {
    let replay = chaos::replay_corpus(corpus_dir(), &SloCfg::default(), true)
        .expect("corpus must load and run");
    assert!(
        replay.files.len() >= 3,
        "corpus thinned below the committed minimum: {:?}",
        replay.files
    );
    assert!(
        replay.violations.is_empty(),
        "corpus regressed: {:?}",
        replay
            .violations
            .iter()
            .map(|v| format!("{} {}: {}", v.class.as_str(), v.cell, v.detail))
            .collect::<Vec<_>>()
    );
}

/// At least one corpus entry exercises *concurrent* faults — two
/// fault windows overlapping in time — per the corpus charter.
#[test]
fn corpus_keeps_an_overlapping_fault_entry() {
    let entries = chaos::load_corpus(corpus_dir()).expect("corpus must load");
    let has_overlap = entries.iter().any(|(_, e)| {
        // Two fault windows are concurrent iff a second onset-like
        // event fires while an earlier window is still open (its
        // clear-like event comes later).
        let mut open = 0usize;
        let mut max_open = 0usize;
        let mut evs: Vec<_> = e.plan.events().iter().collect();
        evs.sort_by_key(|ev| ev.at);
        for ev in evs {
            use hermes_net::FaultAction as A;
            match ev.action {
                A::SetSpineFailure { .. }
                | A::FlowBlackhole { .. }
                | A::EcnMute { .. }
                | A::LinkDown { .. }
                | A::SetLinkRate { .. }
                | A::SpineDown { .. } => {
                    open += 1;
                    max_open = max_open.max(open);
                }
                A::ClearSpineFailure { .. }
                | A::EcnUnmute { .. }
                | A::LinkUp { .. }
                | A::RestoreLinkRate { .. }
                | A::SpineUp { .. } => open = open.saturating_sub(1),
            }
        }
        max_open >= 2 && e.plan.len() >= 4
    });
    assert!(
        has_overlap,
        "corpus must keep at least one overlapping-fault counterexample"
    );
}

/// Same seeds + same config ⇒ the same campaign report, byte for byte
/// (the acceptance bar for `xtask chaos --seeds 32 --quick`, kept
/// affordable here with 2 seeds).
#[test]
fn quick_campaign_is_byte_deterministic_and_green() {
    let cfg = CampaignCfg {
        seeds: 2,
        quick: true,
        ..CampaignCfg::default()
    };
    let a = chaos::run_campaign(&cfg);
    let b = chaos::run_campaign(&cfg);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "campaign reports must be identical"
    );
    assert_eq!(a.digest(), b.digest());
    assert_eq!(
        a.total_violations(),
        0,
        "main must be violation-free at default SLOs: {:?}",
        a.outcomes
            .iter()
            .flat_map(|o| &o.violations)
            .map(|v| format!("{} {}: {}", v.class.as_str(), v.cell, v.detail))
            .collect::<Vec<_>>()
    );
}

/// Every planted SLO defect trips its checker and the shrinker finds
/// the known-minimal plan.
#[test]
fn chaos_self_test_passes() {
    let cases = run_chaos_self_test();
    assert!(
        chaos_self_test_passed(&cases),
        "failed fixtures: {:?}",
        cases
            .iter()
            .filter(|c| !c.ok)
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect::<Vec<_>>()
    );
}

/// The harness that mined `tests/chaos/corpus/overlap-dual-outage.toml`.
///
/// A dual concurrent spine outage halves fabric capacity; either
/// outage alone removes only a quarter and the schemes absorb it. The
/// harness probes recovery-SLO strictness until it finds a config
/// that the *combination* trips but each single outage passes, then
/// shrinks under that predicate — so the minimal counterexample must
/// keep both overlapping windows. Run with:
/// `cargo test --release --test chaos mine -- --ignored --nocapture`
#[test]
#[ignore = "corpus mining harness, run manually"]
fn mine_overlapping_counterexample() {
    let seed = 7;
    let plans_for = |end0_ms: u64| {
        let full = FaultPlan::new()
            .spine_outage(SpineId(0), Time::from_ms(8), Time::from_ms(end0_ms))
            .spine_outage(SpineId(1), Time::from_ms(10), Time::from_ms(130));
        let singles = [
            FaultPlan::new().spine_outage(SpineId(0), Time::from_ms(8), Time::from_ms(end0_ms)),
            FaultPlan::new().spine_outage(SpineId(1), Time::from_ms(10), Time::from_ms(130)),
        ];
        (full, singles)
    };
    // (trips strict recovery, clean at default SLOs): the second gate
    // keeps every shrink candidate corpus-eligible — dropping a
    // SpineUp would make the outage permanent, strand ECMP flows, and
    // fail the default drain check on replay.
    let judge = |plan: &FaultPlan, strict: &SloCfg| -> (bool, bool) {
        let runs = chaos::run_cells(plan, seed, true);
        let trips = slo::check_cell("mine", &runs, plan.end_time(), strict)
            .iter()
            .any(|v| v.class == slo::SloClass::Recovery);
        let clean = slo::check_cell("mine", &runs, plan.end_time(), &SloCfg::default()).is_empty();
        (trips, clean)
    };
    let mut picked: Option<(SloCfg, FaultPlan)> = None;
    'search: for end0_ms in [40, 60, 80, 100] {
        let (full, singles) = plans_for(end0_ms);
        for frac in [0.99, 0.995, 0.999] {
            for slack_ms in [0, 8, 16] {
                let cfg = SloCfg {
                    recovery_frac: frac,
                    recovery_slack: Time::from_ms(slack_ms),
                    ..SloCfg::default()
                };
                let (f, f_clean) = judge(&full, &cfg);
                let s: Vec<bool> = singles.iter().map(|p| judge(p, &cfg).0).collect();
                println!(
                    "end0={end0_ms}ms frac={frac} slack={slack_ms}ms: full={f} \
                     (default-clean={f_clean}) singles={s:?}"
                );
                if f && f_clean && s.iter().all(|&t| !t) {
                    picked = Some((cfg, full));
                    break 'search;
                }
            }
        }
    }
    let (cfg, full) = picked.expect("no strictness separates the dual outage from the singles");
    let out = chaos::shrink_plan(
        &full,
        |p| {
            let (t, c) = judge(p, &cfg);
            t && c
        },
        64,
    );
    println!(
        "shrunk {} -> {} events in {} evals",
        out.from_events,
        out.plan.len(),
        out.evals
    );
    let runs = chaos::run_cells(&out.plan, seed, true);
    let lb = slo::check_cell("mine", &runs, out.plan.end_time(), &cfg)
        .iter()
        .find(|v| v.class == slo::SloClass::Recovery)
        .and_then(|v| v.cell.rsplit_once('/').map(|(_, lb)| lb.to_string()))
        .unwrap_or_else(|| "cross".to_string());
    let entry = chaos::CorpusEntry {
        description: format!(
            "dual concurrent spine outage (spines 0+1) trips recovery at frac {:?} \
             slack {} while either outage alone passes; mined by tests/chaos.rs \
             mine_overlapping_counterexample",
            cfg.recovery_frac, cfg.recovery_slack
        ),
        seed,
        slo: "recovery".to_string(),
        lb,
        plan: out.plan,
    };
    println!("--- corpus entry ---\n{}", chaos::plan_to_toml(&entry));
}

/// The staged-dependency workloads (ring-allreduce, incast) release
/// flows from completion callbacks *inside* the event loop. Running
/// them must leave the chaos engine untouched: a campaign fingerprints
/// identically before and after, and the committed corpus still
/// replays green — no hidden global state (RNG, id counters, caches)
/// leaks between the workload drivers and the fault harness.
#[test]
fn staged_workloads_do_not_perturb_chaos_digests() {
    use hermes_bench::{run_point, PointCfg};
    use hermes_net::Topology;
    use hermes_runtime::Scheme;
    use hermes_workload::{FlowSizeDist, IncastCfg, RingCfg, WorkloadKind};

    let cfg = CampaignCfg {
        seeds: 2,
        quick: true,
        ..CampaignCfg::default()
    };
    let before = chaos::run_campaign(&cfg);

    // Interleave both driver kinds between the two campaign runs.
    for kind in [
        WorkloadKind::RingAllreduce(RingCfg {
            ranks: 4,
            steps: 2,
            chunk_bytes: 32_000,
        }),
        WorkloadKind::Incast(IncastCfg {
            fanout: 4,
            reply_bytes: 16_000,
            bursts: 2,
        }),
    ] {
        let point = PointCfg::new(
            Topology::testbed(),
            Scheme::Ecmp,
            FlowSizeDist::web_search(),
            0.3,
        )
        .workload(kind)
        .seed(5)
        .drain(Time::from_ms(800))
        .goodput_interval(Time::from_ms(1));
        let det = run_point(&point);
        assert!(det.conservation.balanced());
    }

    let replay = chaos::replay_corpus(corpus_dir(), &SloCfg::default(), true)
        .expect("corpus must load and run");
    assert!(
        replay.violations.is_empty(),
        "corpus regressed after staged workloads ran"
    );
    let after = chaos::run_campaign(&cfg);
    assert_eq!(
        before.digest(),
        after.digest(),
        "staged workloads perturbed the campaign fingerprint"
    );
    assert_eq!(before.to_json(), after.to_json());
}
