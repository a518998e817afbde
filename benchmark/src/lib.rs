//! The repo benchmark (`BENCHMARK.json`): four full-mode workloads,
//! measured end to end with tracing off and layer by layer with a
//! sliced trace, probes and ladder siblings — all from outside the
//! program, through its public API. README.md has the why.

pub mod child;
pub mod cli;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
