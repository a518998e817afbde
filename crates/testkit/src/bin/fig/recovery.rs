//! Failure recovery over time, beyond the paper's steady-state failure
//! figures: a blackhole's onset *and* clearance (the transient Fig. 17)
//! and a ring-allreduce stalled by a mid-run link degrade. Both replay
//! their Hermes point with the same seed and demand an identical digest.

use std::io::{self, Write};

use hermes_net::{FaultPlan, LeafId, SpineId, Topology};
use hermes_runtime::SimConfig;
use hermes_sim::Time;
use hermes_testkit::{run_points, trace_point, PointCfg, CLEAR, ONSET};
use hermes_workload::{degradation_report, DegradationCfg, FlowRecord, RingCfg, WorkloadKind};

use crate::table::TextTable;
use crate::{paper, Knobs};

const SAMPLE: Time = Time::from_ms(10);

/// **Figure 17 (transient)** — blackhole onset *and clearance*: one
/// spine silently drops every rack-0→rack-3 pair from t₁ = 150 ms until
/// the fault clears at t₂ = 450 ms, on a 4×4×8 10G leaf–spine fabric
/// with a steady open-loop stream of 100 KB flows.
///
/// What to look for:
/// * every scheme's goodput dips at onset (25% of paths blackholed);
/// * Hermes detects the hole (3 timeouts), reroutes around it, and is
///   back at baseline *before* t₂ — then cautiously re-admits the
///   healed paths after the quiet period via probing;
/// * ECMP's hashed-in flows stay stranded for the whole fault window
///   and only drain after t₂ (RTO backoff), so its recovery trails the
///   clearance, not the detection;
/// * CONGA steers *extra* flows into the hole (it looks idle).
///
/// The Hermes point also runs twice with the same seed to demonstrate
/// that the fault schedule is replayed deterministically through the
/// event queue (identical trace digests, balanced conservation).
pub fn fig17_transient(out: &mut dyn Write, _: Knobs) -> io::Result<()> {
    writeln!(
        out,
        "== Figure 17 (transient): rack0→rack3 blackhole on spine 0, \
         onset 150 ms, clear 450 ms =="
    )?;
    // The registry's traced point, here under each scheme, then the
    // same-seed Hermes replay. 2 400 × 100 KB, one arrival per 250 µs →
    // 3.2 Gb/s offered.
    let hermes = trace_point("fig17_transient_recovery")
        .expect("registered trace point")
        .point
        .goodput_interval(SAMPLE);
    let names = ["ecmp", "letflow", "conga", "hermes"];
    let cfgs: Vec<PointCfg> = names
        .iter()
        .chain(&["hermes"])
        .map(|name| {
            let mut cfg = hermes.clone();
            cfg.sim.scheme = paper(name, &cfg.sim.topo);
            cfg
        })
        .collect();
    let reports = run_points(&cfgs);
    let cfg = DegradationCfg::default();
    let mut tab = TextTable::new(&[
        "scheme",
        "baseline Gb/s",
        "dip Gb/s",
        "impact (ms after onset)",
        "recover (ms after onset)",
        "stranded@clear",
        "unfinished",
    ]);
    for (name, r) in names.iter().zip(&reports) {
        let stranded_at_clear = r
            .records
            .iter()
            .filter(|r| r.start < CLEAR && r.finish.is_none_or(|f| f > CLEAR))
            .count();
        let rep = degradation_report(&r.goodput, ONSET, &cfg, stranded_at_clear);
        tab.row(vec![
            (*name).into(),
            gbps(rep.baseline_bps),
            gbps(rep.dip_min_bps),
            ms_or_dash(rep.time_to_impact),
            ms_or_dash(rep.time_to_recover),
            format!("{}", rep.stranded),
            format!("{}", r.fct.unfinished),
        ]);
    }
    write!(out, "{}", tab.render())?;
    let (h, again) = (&reports[3], &reports[4]);
    let (failed, readmitted, recoveries) = h.rack0_sensing.expect("hermes senses");
    writeln!(
        out,
        "\nhermes sensing: detected {} ms after onset; re-admitted the healed \
         paths {} ms after clearance ({} probation recoveries)",
        ms_or_dash(failed.map(|t| t.saturating_sub(ONSET))),
        ms_or_dash(readmitted.map(|t| t.saturating_sub(CLEAR))),
        recoveries
    )?;
    // Same-seed replay: the fault schedule flows through the event
    // queue, so the whole transient run must fingerprint identically.
    assert_eq!(
        h.digest, again.digest,
        "same-seed transient runs must have identical trace digests"
    );
    assert!(
        h.conservation.balanced() && again.conservation.balanced(),
        "every injected packet must be delivered, counted dropped, or in flight"
    );
    writeln!(
        out,
        "determinism: same-seed replay digest {:#018x} matches; conservation balanced",
        h.digest
    )?;
    writeln!(
        out,
        "\n(expected: Hermes dips at onset, reroutes back to baseline well before\n\
         the 450 ms clearance, and re-admits the healed paths ~quiet-period after\n\
         it; ECMP's affected flows stay stranded for the full window and only\n\
         drain after clearance via RTO backoff; CONGA mistakes the blackholed\n\
         paths for idle ones and strands even more.)"
    )
}

fn gbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e9)
}

fn ms_or_dash(t: Option<Time>) -> String {
    t.map_or("-".into(), |t| format!("{:.1}", t.as_secs_f64() * 1e3))
}

const RING: RingCfg = RingCfg {
    ranks: 8,
    steps: 6,
    chunk_bytes: 256_000,
};
const RING_SEEDS: [u64; 3] = [1, 2, 3];

/// **Collective stall** — ring-allreduce time-to-completion under a
/// mid-run link degrade: an 8-rank ring (round-robin across both racks
/// of the 1G testbed) runs 6 chunked steps of 256 KB while the
/// leaf-0↔spine-0 link silently drops to 5 Mb/s just after the
/// collective starts.
///
/// The barrier structure makes this the worst case for an oblivious
/// scheme: the ring advances at the pace of its slowest rank, so *one*
/// flow hashed onto the degraded link stalls all eight ranks for the
/// whole chunk — and ECMP rehashes a fresh victim every step. A
/// congestion-aware scheme senses the crawling path (queue build-up,
/// ECN, RTT inflation) and steers the ring around it, so the collective
/// finishes near the healthy-fabric time.
///
/// What to look for:
/// * a 5 Mb/s crawl is slow enough to fire retransmission timeouts, so
///   Hermes *senses* the sick path (paper §4.2) and reroutes the
///   victim within a few RTOs — every step closes near the healthy
///   pace and the collective finishes an order of magnitude ahead;
/// * CONGA's utilization feedback mistakes the starved link for an
///   idle one often enough that some steps still crawl;
/// * ECMP rehashes a fresh victim onto the degraded link step after
///   step; each one drags the whole barrier through a ~410 ms
///   chunk-crawl, so the ring only closes after the fault clears;
/// * the hermes point replays with the same seed to an identical trace
///   digest: the driver's completion-released flows are part of the
///   deterministic event order, not wall-clock scheduling.
pub fn collective_stall(out: &mut dyn Write, _: Knobs) -> io::Result<()> {
    writeln!(
        out,
        "== Collective stall: 8-rank x 6-step ring-allreduce (256 KB chunks), \
         leaf0-spine0 degraded to 5 Mb/s at 2 ms =="
    )?;
    let testbed = Topology::testbed();
    let plan = FaultPlan::new().link_degrade_window(
        LeafId(0),
        SpineId(0),
        5_000_000,
        Time::from_ms(2),
        Time::from_ms(2_500),
    );
    // Every (scheme, seed) cell, then the same-seed Hermes replay.
    let names = ["hermes", "conga", "ecmp"];
    let cfgs: Vec<PointCfg> = names
        .iter()
        .flat_map(|&name| RING_SEEDS.map(|seed| (name, seed)))
        .chain([("hermes", RING_SEEDS[0])])
        .map(|(name, seed)| {
            let sim = SimConfig::new(testbed.clone(), paper(name, &testbed))
                .with_fault_plan(plan.clone())
                .with_seed(seed);
            PointCfg::new(sim, WorkloadKind::RingAllreduce(RING)).drain(Time::from_ms(3_000))
        })
        .collect();
    let reports = run_points(&cfgs);
    let mut tab = TextTable::new(&[
        "scheme",
        "seed",
        "ring completion ms",
        "worst step ms",
        "unfinished",
    ]);
    let mut means: Vec<(&str, f64, usize)> = Vec::new();
    for (name, runs) in names.iter().zip(reports.chunks(RING_SEEDS.len())) {
        let mut total = 0.0;
        let mut n_done = 0;
        for (&seed, r) in RING_SEEDS.iter().zip(runs) {
            assert!(
                r.conservation.balanced(),
                "{name}/{seed}: packet conservation must balance"
            );
            let span = ring_span(&r.records);
            let unfinished = r.records.iter().filter(|r| r.finish.is_none()).count();
            tab.row(vec![
                (*name).into(),
                format!("{seed}"),
                ms_or_stalled(span.map(|s| s.0)),
                ms_or_stalled(span.map(|s| s.1)),
                format!("{unfinished}"),
            ]);
            if let Some((completion, _)) = span {
                total += completion.as_secs_f64() * 1e3;
                n_done += 1;
            }
        }
        means.push((name, total / n_done.max(1) as f64, n_done));
    }
    write!(out, "{}", tab.render())?;

    writeln!(out)?;
    for (name, mean, n_done) in &means {
        writeln!(
            out,
            "{name}: mean ring completion {mean:.2} ms over {n_done}/{} finished seed(s)",
            RING_SEEDS.len()
        )?;
    }

    // Same-seed replay: completion-released flows ride the event queue,
    // so the whole collective must fingerprint identically.
    let (first, again) = (&reports[0], &reports[reports.len() - 1]);
    assert_eq!(
        first.digest, again.digest,
        "same-seed ring-allreduce runs must have identical trace digests"
    );
    writeln!(
        out,
        "determinism: same-seed replay digest {:#018x} matches; conservation balanced",
        first.digest
    )?;
    writeln!(
        out,
        "\n(expected: hermes senses the crawling path through its timeouts and\n\
         reroutes within a few RTOs, closing every step near the healthy pace;\n\
         CONGA dodges some stalls but keeps steering flows into the \"idle\"\n\
         starved link; ECMP rehashes a victim onto it step after step, and the\n\
         barrier drags all eight ranks through each ~410 ms chunk crawl.)"
    )
}

/// The ring's `(completion, worst step)`: first chunk start → last
/// chunk finish, and the slowest step from its release to its ring-wide
/// close. `None` unless every chunk of every step finished. Steps are
/// decoded from the flow ids, exactly as the ring_step conformance
/// checker does.
fn ring_span(records: &[FlowRecord]) -> Option<(Time, Time)> {
    let finished = records.iter().all(|r| r.finish.is_some());
    if !finished || records.len() != RING.ranks * RING.steps {
        return None;
    }
    let first = records.iter().map(|r| r.start).min()?;
    let mut closes = [Time::ZERO; RING.steps];
    let mut opens = [Time::MAX; RING.steps];
    for rec in records {
        let (step, _) = RING.decode(rec.id);
        closes[step] = closes[step].max(rec.finish?);
        opens[step] = opens[step].min(rec.start);
    }
    let worst = closes.iter().zip(&opens).map(|(&c, &o)| c - o).max()?;
    Some((closes[RING.steps - 1] - first, worst))
}

fn ms_or_stalled(t: Option<Time>) -> String {
    t.map_or("stalled".into(), |t| {
        format!("{:.2}", t.as_secs_f64() * 1e3)
    })
}
