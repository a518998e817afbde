//! # hermes-workload — datacenter workloads and metrics
//!
//! * [`FlowSizeDist`] — the paper's two evaluation workloads (Fig. 7):
//!   web-search (DCTCP) and data-mining (VL2), as piecewise-linear CDFs
//!   with exact mean/quantile computation and seeded sampling, plus
//!   DiffFlow's two-point elephant/mice law ([`MixCfg`]).
//! * [`FlowGen`] — the §5.1 open-loop Poisson generator, the one for
//!   every size law: flows between random hosts under different leaves
//!   at a configured offered load.
//! * [`FlowRecord`] / [`summarize`] — FCT bookkeeping with the paper's
//!   size bands (<100 KB small, >10 MB large) and unfinished-flow
//!   accounting for the failure experiments; [`records_hash`]
//!   fingerprints a run's records for the conformance goldens.
//! * [`visibility`] — Table 2's concurrent-flows-per-path visibility
//!   for switch pairs vs. host pairs, one sweep over a run's records.
//! * [`IncastDriver`] — the partition–aggregate microburst pattern
//!   (§6's discussion of bursts Hermes cannot sense within an RTT).
//! * [`degradation_report`] — goodput-timeline degradation metrics for
//!   the transient-failure experiments (dip depth, time-to-impact,
//!   time-to-recover-to-baseline, stranded flows).
//! * [`WorkloadKind`] — what drives a run: open-loop Poisson arrivals
//!   ([`PoissonCfg`]), a fixed flow list, or a [`FlowDriver`], the
//!   staged-dependency workloads released by flow *completion*:
//!   [`RingAllreduce`] collectives and barrier-stepped [`IncastDriver`]
//!   bursts.

mod collective;
mod degradation;
mod dist;
mod driver;
mod flowgen;
mod incast;
mod metrics;
mod visibility;

pub use collective::RingAllreduce;
pub use degradation::{degradation_report, DegradationCfg, DegradationReport};
pub use dist::{FlowSizeDist, MixCfg};
pub use driver::{FlowDriver, IncastCfg, PoissonCfg, RingCfg, WorkloadKind};
pub use flowgen::{FlowGen, FlowSpec};
pub use incast::IncastDriver;
pub use metrics::{
    records_hash, summarize, FctSummary, FlowRecord, LARGE_FLOW_BYTES, SMALL_FLOW_BYTES,
};
pub use visibility::visibility;
