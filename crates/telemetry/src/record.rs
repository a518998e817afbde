//! Typed trace records.
//!
//! Every record carries raw integers (host/leaf/spine/path indices,
//! flow ids, byte counts, nanosecond times) rather than the domain
//! types of the instrumented crates, so this crate sits below all of
//! them in the dependency graph. A `path` field of `-1` means "no
//! spine path" (direct intra-rack delivery or not yet placed).

use hermes_sim::Time;

/// Path classification as reported by the sensing layer — Algorithm 1's
/// four classes plus the recovery-probing phase of the failure state
/// machine (DESIGN.md §9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PathClass {
    Good,
    Gray,
    Congested,
    Failed,
    Probation,
}

impl PathClass {
    /// Stable lowercase name used by the JSONL exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            PathClass::Good => "good",
            PathClass::Gray => "gray",
            PathClass::Congested => "congested",
            PathClass::Failed => "failed",
            PathClass::Probation => "probation",
        }
    }
}

/// Outcome of one Hermes placement decision — Algorithm 2's branches.
/// "Held" verdicts record *why* a cautious reroute was suppressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RerouteVerdict {
    /// First placement of a new flow.
    Initial,
    /// Replacement because the current path is sensed Failed.
    Failover,
    /// Replacement forced by a transport timeout.
    TimeoutReplace,
    /// Cautious reroute off a Congested path that passed every gate.
    Rerouted,
    /// Reroute suppressed: flow too small (`bytes_sent <= SIZE_THRESHOLD`).
    HeldSize,
    /// Reroute suppressed: flow too fast (`rate_bps >= rate_threshold_bps`).
    HeldRate,
    /// Reroute suppressed: last change too recent (`since_change <= cooldown`).
    HeldCooldown,
    /// Gates passed but no candidate was notably better.
    HeldNoMargin,
}

impl RerouteVerdict {
    /// Stable lowercase name used by the JSONL exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            RerouteVerdict::Initial => "initial",
            RerouteVerdict::Failover => "failover",
            RerouteVerdict::TimeoutReplace => "timeout_replace",
            RerouteVerdict::Rerouted => "rerouted",
            RerouteVerdict::HeldSize => "held_size",
            RerouteVerdict::HeldRate => "held_rate",
            RerouteVerdict::HeldCooldown => "held_cooldown",
            RerouteVerdict::HeldNoMargin => "held_no_margin",
        }
    }

    /// Whether this verdict changed (or set) the flow's path.
    pub fn moved(self) -> bool {
        matches!(
            self,
            RerouteVerdict::Initial
                | RerouteVerdict::Failover
                | RerouteVerdict::TimeoutReplace
                | RerouteVerdict::Rerouted
        )
    }
}

/// Why the fabric retired a packet without delivering it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Tail drop: output buffer full.
    BufferFull,
    /// Silent random drop at a failed spine.
    RandomDrop,
    /// Deterministic blackhole match.
    Blackhole,
    /// Deterministic per-victim-flow blackhole match (gray failure).
    FlowBlackhole,
    /// Link administratively down (fault plan).
    LinkDown,
    /// No connected uplink/downlink remained.
    Disconnected,
}

impl DropReason {
    /// Stable lowercase name used by the JSONL exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::BufferFull => "buffer_full",
            DropReason::RandomDrop => "random_drop",
            DropReason::Blackhole => "blackhole",
            DropReason::FlowBlackhole => "flow_blackhole",
            DropReason::LinkDown => "link_down",
            DropReason::Disconnected => "disconnected",
        }
    }
}

/// One structured trace record. Variants cover every instrumented
/// layer: sensing (core), placement (lb), fabric (net), congestion
/// control (transport) and flow lifecycle (runtime).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Record {
    /// A sensed path changed class at `leaf` toward `dst_leaf`.
    PathTransition {
        leaf: u32,
        dst_leaf: u32,
        path: u32,
        from: PathClass,
        to: PathClass,
    },
    /// One placement decision and its Algorithm-2 verdict.
    Reroute {
        flow: u64,
        dst_leaf: u32,
        from_path: i64,
        to_path: i64,
        verdict: RerouteVerdict,
    },
    /// A data packet was CE-marked on the leaf→spine uplink queue.
    EcnMark {
        leaf: u32,
        spine: u32,
        qbytes: u64,
        flow: u64,
    },
    /// Cadence sample of one leaf↔spine queue pair (bytes queued).
    QueueSample {
        leaf: u32,
        spine: u32,
        up_qbytes: u64,
        down_qbytes: u64,
    },
    /// DCTCP window/α/RTO update for one sender.
    CwndUpdate {
        flow: u64,
        cwnd: f64,
        alpha: f64,
        rto_ns: u64,
    },
    /// A flow entered the runtime.
    FlowStarted {
        flow: u64,
        src: u32,
        dst: u32,
        size: u64,
    },
    /// A flow fully acknowledged; `fct_ns` is its completion time.
    FlowCompleted { flow: u64, fct_ns: u64 },
    /// The runtime changed a flow's spine path (any LB scheme).
    PathChange {
        flow: u64,
        from_path: i64,
        to_path: i64,
    },
    /// A ring-allreduce step closed ring-wide (all `ranks` chunks of
    /// `step` completed; the barrier released the next step).
    RingStep {
        step: u32,
        ranks: u32,
        chunk_bytes: u64,
    },
    /// An incast burst drained (the slowest of `fanout` replies landed;
    /// the next burst released).
    IncastBurst {
        burst: u32,
        fanout: u32,
        reply_bytes: u64,
    },
    /// A scheduled fault-plan action fired.
    FaultApplied { kind: &'static str },
    /// The fabric retired a packet without delivering it.
    Drop {
        flow: u64,
        path: i64,
        reason: DropReason,
    },
}

impl Record {
    /// Stable record-type tag used by the JSONL exporter.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::PathTransition { .. } => "path_transition",
            Record::Reroute { .. } => "reroute",
            Record::EcnMark { .. } => "ecn_mark",
            Record::QueueSample { .. } => "queue_sample",
            Record::CwndUpdate { .. } => "cwnd_update",
            Record::FlowStarted { .. } => "flow_started",
            Record::FlowCompleted { .. } => "flow_completed",
            Record::PathChange { .. } => "path_change",
            Record::RingStep { .. } => "ring_step",
            Record::IncastBurst { .. } => "incast_burst",
            Record::FaultApplied { .. } => "fault_applied",
            Record::Drop { .. } => "drop",
        }
    }
}

/// A record stamped with sim time and a per-sink sequence number. The
/// `(at, seq)` pair totally orders a trace: `seq` is assigned at emit
/// time in dispatch order, so equal-timestamp records keep the order
/// the simulation produced them in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    pub seq: u64,
    pub at: Time,
    pub record: Record,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_are_stable() {
        let all = [
            PathClass::Good,
            PathClass::Gray,
            PathClass::Congested,
            PathClass::Failed,
            PathClass::Probation,
        ];
        let names: Vec<_> = all.iter().map(|c| c.as_str()).collect();
        assert_eq!(names, ["good", "gray", "congested", "failed", "probation"]);
    }

    #[test]
    fn moved_verdicts_are_exactly_the_path_setting_ones() {
        assert!(RerouteVerdict::Initial.moved());
        assert!(RerouteVerdict::Failover.moved());
        assert!(RerouteVerdict::TimeoutReplace.moved());
        assert!(RerouteVerdict::Rerouted.moved());
        assert!(!RerouteVerdict::HeldSize.moved());
        assert!(!RerouteVerdict::HeldRate.moved());
        assert!(!RerouteVerdict::HeldCooldown.moved());
        assert!(!RerouteVerdict::HeldNoMargin.moved());
    }

    #[test]
    fn record_kind_tags_are_unique() {
        let tags = [
            Record::PathTransition {
                leaf: 0,
                dst_leaf: 0,
                path: 0,
                from: PathClass::Good,
                to: PathClass::Gray,
            }
            .kind(),
            Record::FlowCompleted { flow: 0, fct_ns: 0 }.kind(),
            Record::FaultApplied { kind: "x" }.kind(),
            Record::RingStep {
                step: 0,
                ranks: 0,
                chunk_bytes: 0,
            }
            .kind(),
            Record::IncastBurst {
                burst: 0,
                fanout: 0,
                reply_bytes: 0,
            }
            .kind(),
            Record::QueueSample {
                leaf: 0,
                spine: 0,
                up_qbytes: 0,
                down_qbytes: 0,
            }
            .kind(),
        ];
        let mut sorted = tags.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), tags.len());
    }
}
