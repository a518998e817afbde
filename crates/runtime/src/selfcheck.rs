//! Determinism self-check: run a scenario twice from the same seed and
//! demand bit-identical behavior.
//!
//! A [`RunFingerprint`] condenses one run into the rolling event-trace
//! digest, the event count, the per-flow completion times, and the
//! packet-conservation report. [`assert_deterministic`] builds and runs
//! the same scenario twice and panics with a precise diff if any of
//! those disagree — the cheapest possible detector for nondeterminism
//! creeping in via map iteration order, uninitialized state, or
//! wall-clock leakage.

use hermes_net::ConservationReport;
use hermes_sim::Time;

use crate::sim::Simulation;

/// Everything that must be identical between two same-seed runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Rolling FNV digest of the full event trace.
    pub digest: u64,
    /// Number of events dispatched.
    pub events: u64,
    /// `(flow id, completion time)` per scheduled flow, in record order.
    pub fcts: Vec<(u64, Option<Time>)>,
    /// Packet accounting at the end of the run.
    pub conservation: ConservationReport,
    /// Past-time schedules the event queue clamped to `now` (release
    /// builds). Must be 0: a nonzero count is a causality violation that
    /// release builds would otherwise paper over silently.
    pub queue_clamps: u64,
    /// Schedules the event queue sent to its fallback heap rather than a
    /// recurring-delay lane. No digest sees this routing; a run whose
    /// share of it grows has lost the queue's fast path.
    pub queue_fallback: u64,
    /// Events still queued when the run stopped. Bounded by the live
    /// flows' timers, the packets in flight and the recurring ticks; a
    /// run that leaves one event per superseded timer re-arm behind
    /// grows it with load, not with flows.
    pub pending_events: usize,
}

/// Run `sim` to completion (bounded by `horizon`) and fingerprint it.
pub fn fingerprint(mut sim: Simulation, horizon: Time) -> RunFingerprint {
    sim.run_to_completion(horizon);
    let fcts = sim.records().iter().map(|r| (r.id.0, r.finish)).collect();
    RunFingerprint {
        digest: sim.trace_digest(),
        events: sim.stats.events,
        fcts,
        conservation: sim.conservation(),
        queue_clamps: sim.queue_clamps(),
        queue_fallback: sim.queue_fallback_count(),
        pending_events: sim.pending_events(),
    }
}

/// Build and run the same scenario twice; panic unless the two runs are
/// indistinguishable and every packet is accounted for.
///
/// `build` must construct the simulation from scratch each time (config,
/// seed, workload); any shared mutable state between the two builds
/// would defeat the check.
pub fn assert_deterministic<F: FnMut() -> Simulation>(
    mut build: F,
    horizon: Time,
) -> RunFingerprint {
    let a = fingerprint(build(), horizon);
    let b = fingerprint(build(), horizon);
    assert_eq!(
        a.events, b.events,
        "same-seed runs dispatched different event counts"
    );
    assert_eq!(a.fcts, b.fcts, "same-seed runs produced different FCTs");
    assert_eq!(
        a.digest, b.digest,
        "same-seed runs diverged: event traces differ"
    );
    assert!(
        a.conservation.balanced(),
        "packet conservation violated: {}",
        a.conservation
    );
    assert_eq!(
        a.queue_clamps, 0,
        "causality violation: the event queue clamped past-time schedules"
    );
    a
}
