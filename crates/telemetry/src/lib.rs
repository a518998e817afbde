//! # hermes-telemetry — tracing and metrics, compiled in, off until a sink is installed
//!
//! A structured observation layer for the Hermes reproduction: typed
//! trace records ([`Record`]) covering path-state sensing, placement
//! decisions, fabric marks/drops and transport window dynamics; a
//! bounded ring-buffer sink stamping records with `(sim time, seq)`;
//! a metrics registry (counters, gauges, fixed-bucket histograms)
//! snapshotted on a fixed 1 ms sim-time cadence; and deterministic
//! JSONL/CSV exporters.
//!
//! Two properties are load-bearing (DESIGN.md §12):
//!
//! * **Off until a sink is installed.** The layer is always compiled
//!   in; the one switch is [`install`] on the thread that runs the
//!   simulation. Without a sink, [`enabled`] is one thread-local read
//!   returning `false`, and every instrumentation site guarded by it
//!   skips its work.
//! * **Digest neutrality when on.** The sink observes; it never
//!   schedules events, consumes randomness, or feeds back into
//!   simulation state. A run with a sink produces the same
//!   `hermes-net::audit` event-trace digest as a run without one
//!   (enforced by `tests/telemetry.rs` against the conformance
//!   goldens).

mod export;
mod metrics;
mod record;
mod sink;

pub use export::{event_to_json, to_csv, to_jsonl};
pub use metrics::{Histogram, Metrics, MetricsRow, FCT_EDGES_US};
pub use record::{DropReason, PathClass, Record, RerouteVerdict, TraceEvent};
pub use sink::{
    counter, counter_add, drain, dropped, emit_with, enabled, gauge_set, hist, hist_observe,
    install, on_cadence, sample_metrics, take_metric_rows, uninstall, SinkConfig,
};
