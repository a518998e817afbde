//! **Figure 17 (transient)** — blackhole onset *and clearance*: one
//! spine silently drops every rack-0→rack-3 pair from t₁ = 150 ms until
//! the fault clears at t₂ = 450 ms, on a 4×4×8 10G leaf–spine fabric
//! with a steady open-loop stream of 100 KB flows.
//!
//! What to look for:
//! * every scheme's goodput dips at onset (25% of paths blackholed);
//! * Hermes detects the hole (3 timeouts), reroutes around it, and is
//!   back at baseline *before* t₂ — then cautiously re-admits the
//!   healed paths after the quiet period via probing;
//! * ECMP's hashed-in flows stay stranded for the whole fault window
//!   and only drain after t₂ (RTO backoff), so its recovery trails the
//!   clearance, not the detection;
//! * CONGA steers *extra* flows into the hole (it looks idle).
//!
//! The Hermes point also runs twice with the same seed to demonstrate
//! that the fault schedule is replayed deterministically through the
//! event queue (identical trace digests, balanced conservation).

use hermes_bench::{
    trace_flows, trace_plan, trace_topo, TextTable, CLEAR, HORIZON, ONSET, SEED, TRACE_POINTS,
};
use hermes_runtime::{Probe, Scheme, SimConfig, Simulation};
use hermes_sim::Time;
use hermes_workload::{degradation_report, DegradationCfg};

const SAMPLE: Time = Time::from_ms(10);

struct RunOut {
    series: Vec<(Time, u64)>,
    digest: u64,
    stranded_at_clear: usize,
    unfinished: usize,
    conservation_balanced: bool,
    /// Hermes only: onset → first path declared Failed.
    detect: Option<Time>,
    /// Hermes only: clearance → first path re-admitted via probation.
    readmit: Option<Time>,
    recoveries: u64,
}

fn run(scheme: Scheme) -> RunOut {
    let cfg = SimConfig::new(trace_topo(), scheme)
        .with_seed(SEED)
        .with_fault_plan(trace_plan());
    let mut sim = Simulation::new(cfg);
    // Sampler before flows: flow 40 and the first sample tie at 10 ms.
    let sampler = sim.add_sampler(SAMPLE, Probe::TotalGoodput);
    // 2 400 × 100 KB, one arrival per 250 µs → 3.2 Gb/s offered.
    sim.add_flows(trace_flows(&TRACE_POINTS[0]));
    sim.run_to_completion(HORIZON);
    let stranded_at_clear = sim
        .records()
        .iter()
        .filter(|r| r.start < CLEAR && r.finish.is_none_or(|f| f > CLEAR))
        .count();
    let unfinished = sim.records().iter().filter(|r| r.finish.is_none()).count();
    let (detect, readmit, recoveries) = sim.hermes_racks().next().map_or((None, None, 0), |s| {
        (
            s.first_failure_at.map(|t| t.saturating_sub(ONSET)),
            s.first_recovery_at.map(|t| t.saturating_sub(CLEAR)),
            s.stat_recoveries,
        )
    });
    RunOut {
        series: sim.sampler_series(sampler).to_vec(),
        digest: sim.trace_digest(),
        stranded_at_clear,
        unfinished,
        conservation_balanced: sim.conservation().balanced(),
        detect,
        readmit,
        recoveries,
    }
}

fn gbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e9)
}

fn ms(t: Option<Time>) -> String {
    t.map_or("-".into(), |t| format!("{:.1}", t.as_secs_f64() * 1e3))
}

fn main() {
    println!(
        "== Figure 17 (transient): rack0→rack3 blackhole on spine 0, \
         onset 150 ms, clear 450 ms =="
    );
    let t = trace_topo();
    let scheme = |name| Scheme::by_name(name, &t).expect("a Scheme::NAMES entry");
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
    let mut hermes_out = None;
    for name in ["ecmp", "letflow", "conga", "hermes"] {
        let out = run(scheme(name));
        let rep = degradation_report(&out.series, ONSET, &cfg, out.stranded_at_clear);
        tab.row(vec![
            name.into(),
            gbps(rep.baseline_bps),
            gbps(rep.dip_min_bps),
            ms(rep.time_to_impact),
            ms(rep.time_to_recover),
            format!("{}", rep.stranded),
            format!("{}", out.unfinished),
        ]);
        if name == "hermes" {
            hermes_out = Some(out);
        }
    }
    tab.print();
    let h = hermes_out.expect("hermes scheme ran");
    println!(
        "\nhermes sensing: detected {} ms after onset; re-admitted the healed \
         paths {} ms after clearance ({} probation recoveries)",
        ms(h.detect),
        ms(h.readmit),
        h.recoveries
    );
    // Same-seed replay: the fault schedule flows through the event
    // queue, so the whole transient run must fingerprint identically.
    let again = run(scheme("hermes"));
    assert_eq!(
        h.digest, again.digest,
        "same-seed transient runs must have identical trace digests"
    );
    assert!(
        h.conservation_balanced && again.conservation_balanced,
        "every injected packet must be delivered, counted dropped, or in flight"
    );
    println!(
        "determinism: same-seed replay digest {:#018x} matches; conservation balanced",
        h.digest
    );
    println!(
        "\n(expected: Hermes dips at onset, reroutes back to baseline well before\n\
         the 450 ms clearance, and re-admits the healed paths ~quiet-period after\n\
         it; ECMP's affected flows stay stranded for the full window and only\n\
         drain after clearance via RTO backoff; CONGA mistakes the blackholed\n\
         paths for idle ones and strands even more.)"
    );
}
