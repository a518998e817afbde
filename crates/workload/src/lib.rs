//! # hermes-workload — datacenter workloads and metrics
//!
//! * [`FlowSizeDist`] — the paper's two evaluation workloads (Fig. 7):
//!   web-search (DCTCP) and data-mining (VL2), as piecewise-linear CDFs
//!   with exact mean/quantile computation and seeded sampling.
//! * [`FlowGen`] — the §5.1 open-loop Poisson generator: flows between
//!   random hosts under different leaves at a configured offered load.
//! * [`FlowRecord`] / [`summarize`] — FCT bookkeeping with the paper's
//!   size bands (<100 KB small, >10 MB large) and unfinished-flow
//!   accounting for the failure experiments; [`records_hash`]
//!   fingerprints a run's records for the conformance goldens.
//! * [`VisibilityTracker`] — Table 2's concurrent-flows-per-path
//!   visibility metric for switch pairs vs. host pairs.
//! * [`IncastGen`] — the partition–aggregate microburst pattern (§6's
//!   discussion of bursts Hermes cannot sense within an RTT).
//! * [`degradation_report`] — goodput-timeline degradation metrics for
//!   the transient-failure experiments (dip depth, time-to-impact,
//!   time-to-recover-to-baseline, stranded flows).
//! * [`FlowDriver`] / [`WorkloadKind`] — staged-dependency workloads
//!   released by flow *completion*: [`RingAllreduce`] collectives,
//!   barrier-stepped [`IncastDriver`] bursts, and the open-loop
//!   [`ElephantMiceGen`] bimodal mix.

mod collective;
mod degradation;
mod dist;
mod driver;
mod flowgen;
mod incast;
mod metrics;
mod mix;
mod visibility;

pub use collective::RingAllreduce;
pub use degradation::{degradation_report, DegradationCfg, DegradationReport};
pub use dist::FlowSizeDist;
pub use driver::{FlowClass, FlowDriver, IncastCfg, MixCfg, RingCfg, WorkloadKind};
pub use flowgen::{FlowGen, FlowSpec};
pub use incast::{query_completion, IncastDriver, IncastGen, Query};
pub use metrics::{
    records_hash, summarize, FctSummary, FlowRecord, LARGE_FLOW_BYTES, SMALL_FLOW_BYTES,
};
pub use mix::ElephantMiceGen;
pub use visibility::VisibilityTracker;
