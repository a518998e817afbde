//! # hermes-repro — reproduction of "Resilient Datacenter Load
//! Balancing in the Wild" (SIGCOMM 2017)
//!
//! This root crate hosts the runnable examples and cross-crate
//! integration tests; the implementation lives in the workspace crates:
//!
//! * [`hermes_sim`] — deterministic discrete-event engine,
//! * [`hermes_net`] — packet-level leaf-spine fabric with ECN and
//!   switch-failure injection,
//! * [`hermes_transport`] — DCTCP / TCP NewReno,
//! * [`hermes_lb`] — ECMP, Presto*, CLOVE-ECN, LetFlow, CONGA,
//! * [`hermes_core`] — **Hermes** itself (sensing, probing, rerouting),
//! * [`hermes_workload`] — web-search/data-mining workloads + metrics,
//! * [`hermes_runtime`] — the experiment harness gluing it all.
//!
//! See `README.md` for a tour and `DESIGN.md` for the architecture and
//! the per-experiment index.

pub use hermes_core as core;
pub use hermes_lb as lb;
pub use hermes_net as net;
pub use hermes_runtime as runtime;
pub use hermes_sim as sim;
pub use hermes_transport as transport;
pub use hermes_workload as workload;
