//! Staged-dependency workloads: flows released by *completion*, not by
//! a precomputed clock.
//!
//! The paper evaluates Hermes under open-loop Poisson traffic only, but
//! its cautious-rerouting story matters most where one slow path stalls
//! dependent work — ML collectives and partition–aggregate patterns.
//! Those workloads cannot be pre-scheduled: the next wave of flows
//! starts when the previous wave *finishes*, wherever the simulation
//! clock happens to be. A [`FlowDriver`] is the runtime-facing contract
//! for that: the simulation asks it for the initial flows, then feeds
//! every TCP flow completion back, and the driver releases whatever the
//! dependency structure now permits.
//!
//! Drivers are deterministic state machines over `(config, seed)`:
//! they hold no wall clock and no RNG beyond a seeded [`hermes_sim::SimRng`],
//! so same-seed runs release byte-identical flow sequences.

use hermes_net::FlowId;
use hermes_sim::Time;

use crate::dist::FlowSizeDist;
use crate::flowgen::FlowSpec;

/// A workload that reacts to flow completions.
///
/// The runtime calls [`FlowDriver::initial`] once at setup (with the
/// current sim time) and [`FlowDriver::on_flow_completed`] every time a
/// TCP flow fully acknowledges. Released specs must have
/// `start >= now`; drivers release at `now` — dependency edges in these
/// workloads have no think time. `Send`, so a simulation with a driver
/// installed can move to another thread.
pub trait FlowDriver: Send {
    /// The flows to schedule before the run starts.
    fn initial(&mut self, now: Time) -> Vec<FlowSpec>;

    /// `id` completed at `now`; push any newly-released flows into
    /// `out`. Completions of flows the driver does not own (e.g. a
    /// background Poisson stream sharing the run) must be ignored.
    fn on_flow_completed(&mut self, id: FlowId, now: Time, out: &mut Vec<FlowSpec>);
}

/// Which workload a benchmark/conformance point runs. `Poisson` is the
/// paper's open-loop generator ([`crate::FlowGen`]) with its own
/// parameters; `Flows` is a fixed schedule; the others are the
/// staged-dependency additions.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadKind {
    /// Open-loop Poisson arrivals (§5.1), sizes from any
    /// [`FlowSizeDist`] (the elephant/mice mix included).
    Poisson(PoissonCfg),
    /// Ring-allreduce collective: see [`crate::RingAllreduce`].
    RingAllreduce(RingCfg),
    /// N-to-1 synchronized bursts: see [`crate::IncastDriver`].
    Incast(IncastCfg),
    /// Open loop: exactly these flows, each at its own `start` (the
    /// motivation examples and the fig17 transient).
    Flows(Vec<FlowSpec>),
}

/// An open-loop Poisson workload: `flows` arrivals from
/// [`crate::FlowGen`] with sizes from `dist`.
#[derive(Clone, Debug, PartialEq)]
pub struct PoissonCfg {
    pub dist: FlowSizeDist,
    /// Offered load relative to `capacity` (or the topology's live
    /// uplink capacity).
    pub load: f64,
    pub flows: usize,
    /// Load is usually defined against the *healthy* fabric even when
    /// the topology under test is degraded (the paper's convention).
    pub capacity: Option<u64>,
}

/// Ring-allreduce shape: `ranks` peers exchange `steps` chunked rounds;
/// step `k+1` is released only when the whole ring finished step `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingCfg {
    /// Participating ranks (one host each, round-robin across racks).
    pub ranks: usize,
    /// Barrier-separated rounds.
    pub steps: usize,
    /// Bytes each rank sends to its ring successor per step.
    pub chunk_bytes: u64,
}

impl RingCfg {
    /// Total payload the collective moves: `ranks × steps × chunk`.
    pub fn total_bytes(&self) -> u64 {
        self.ranks as u64 * self.steps as u64 * self.chunk_bytes
    }

    /// Flow id for `(step, rank)` — dense, decodable by the checkers.
    pub fn flow_id(&self, step: usize, rank: usize) -> FlowId {
        FlowId((step * self.ranks + rank) as u64)
    }

    /// Inverse of [`RingCfg::flow_id`]: `(step, rank)`.
    pub fn decode(&self, id: FlowId) -> (usize, usize) {
        let i = id.0 as usize;
        (i / self.ranks, i % self.ranks)
    }
}

/// Incast shape: `bursts` sequential waves of `fanout` synchronized
/// replies toward one aggregator; burst `b+1` is released when burst
/// `b`'s slowest reply lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IncastCfg {
    /// Workers answering each query.
    pub fanout: usize,
    /// Bytes per reply.
    pub reply_bytes: u64,
    /// Sequential bursts.
    pub bursts: usize,
}

impl IncastCfg {
    /// Flow id for reply `i` of burst `b` — dense, decodable.
    pub fn flow_id(&self, burst: usize, i: usize) -> FlowId {
        FlowId((burst * self.fanout + i) as u64)
    }

    /// Inverse of [`IncastCfg::flow_id`]: `(burst, reply index)`.
    pub fn decode(&self, id: FlowId) -> (usize, usize) {
        let i = id.0 as usize;
        (i / self.fanout, i % self.fanout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_ids_round_trip() {
        let cfg = RingCfg {
            ranks: 8,
            steps: 3,
            chunk_bytes: 64_000,
        };
        for step in 0..3 {
            for rank in 0..8 {
                assert_eq!(cfg.decode(cfg.flow_id(step, rank)), (step, rank));
            }
        }
        assert_eq!(cfg.total_bytes(), 8 * 3 * 64_000);
    }

    #[test]
    fn incast_ids_round_trip() {
        let cfg = IncastCfg {
            fanout: 6,
            reply_bytes: 32_000,
            bursts: 5,
        };
        for b in 0..5 {
            for i in 0..6 {
                assert_eq!(cfg.decode(cfg.flow_id(b, i)), (b, i));
            }
        }
    }
}
