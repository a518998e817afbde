//! The trace sink: a bounded ring buffer of [`TraceEvent`]s plus the
//! metrics registry, installed per thread.
//!
//! # Determinism contract (DESIGN.md §12)
//!
//! The sink is an *observer*: it never schedules events, never touches
//! any RNG, and never influences control flow in the instrumented
//! crates. Records are stamped with sim time and a monotonically
//! increasing per-sink sequence number assigned in dispatch order, so
//! a `(config, seed)` pair maps to exactly one byte sequence of
//! exported JSONL. There is deliberately no wall-clock anywhere in
//! this crate — `clippy.toml`'s wall-clock ban covers it like every
//! other crate in the workspace.
//!
//! # Compiled in, off until a sink is installed
//!
//! The layer is always built; the one switch is whether this thread
//! has a sink ([`install`] / [`uninstall`]). Without one, [`enabled`]
//! is a single thread-local read that returns `false`, so
//! instrumentation guarded by `if hermes_telemetry::enabled()` skips
//! its work, and `emit_with` never constructs its record closure.
//! The sink is thread-local so the testkit's multi-threaded scenario
//! grid keeps per-cell traces independent. Thread contract: install
//! the sink on the thread that *runs* the simulation — a `Simulation`
//! is `Send`, and one moved elsewhere emits into that thread's sink (or
//! nowhere, if none is installed there).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use hermes_sim::Time;

use crate::metrics::{Histogram, Metrics, MetricsRow};
use crate::record::{Record, TraceEvent};

/// Sim-time cadence for metrics snapshots and queue sampling.
const METRICS_CADENCE: Time = Time::from_ms(1);

/// Sink configuration.
#[derive(Clone, Copy, Debug)]
pub struct SinkConfig {
    /// Ring capacity in events; the oldest events are dropped (and
    /// counted) once the buffer is full.
    pub capacity: usize,
}

impl Default for SinkConfig {
    fn default() -> SinkConfig {
        SinkConfig { capacity: 1 << 20 }
    }
}

struct SinkState {
    cfg: SinkConfig,
    ring: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
    next_cadence: Time,
    metrics: Metrics,
}

thread_local! {
    static SINK: RefCell<Option<SinkState>> = const { RefCell::new(None) };
    /// Whether `SINK` holds a sink. A `const`-initialised `Cell<bool>`
    /// has no destructor and no borrow flag, so [`enabled`] compiles to
    /// one load of it.
    static ON: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` on this thread's sink; `None` when no sink is installed.
#[expect(
    clippy::disallowed_methods,
    reason = "the sink's own thread-local is the one RefCell that telemetry mutates"
)]
fn with_sink<R>(f: impl FnOnce(&mut SinkState) -> R) -> Option<R> {
    SINK.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Install a fresh sink on this thread, replacing any previous one.
pub fn install(cfg: SinkConfig) {
    SINK.set(Some(SinkState {
        cfg,
        ring: VecDeque::new(),
        next_seq: 0,
        dropped: 0,
        next_cadence: Time::ZERO,
        metrics: Metrics::default(),
    }));
    ON.set(true);
}

/// Remove this thread's sink, discarding buffered events.
pub fn uninstall() {
    SINK.set(None);
    ON.set(false);
}

/// Whether a sink is installed on this thread: one thread-local read,
/// the guard every instrumentation site puts its work behind.
#[inline(always)]
pub fn enabled() -> bool {
    ON.get()
}

/// Emit one record stamped `at`; the closure is only evaluated when a
/// sink is installed, so record construction costs nothing otherwise.
///
/// The closure is `Fn`, so it cannot mutate what it captures: skipping
/// it changes nothing, and a run's digests are the same with or
/// without a sink. A closure with a side effect does not compile:
///
/// ```compile_fail,E0594
/// use hermes_sim::Time;
/// use hermes_telemetry::{emit_with, Record};
///
/// fn count_and_emit(n: &mut u64) {
///     emit_with(Time::ZERO, || {
///         *n += 1;
///         Record::FaultApplied { kind: "x" }
///     });
/// }
/// ```
#[inline]
pub fn emit_with<F: Fn() -> Record>(at: Time, f: F) {
    if enabled() {
        let record = f();
        with_sink(|st| {
            if st.ring.len() >= st.cfg.capacity {
                st.ring.pop_front();
                st.dropped += 1;
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.ring.push_back(TraceEvent { seq, at, record });
        });
    }
}

/// Lazy cadence check: true when `now` reached the next metrics
/// boundary (which is then advanced past `now`). The sink never
/// schedules its own events — the runtime asks this question on its
/// existing dispatch path instead, keeping the event stream (and thus
/// the trace digest) identical to an uninstrumented run.
#[inline]
pub fn on_cadence(now: Time) -> bool {
    with_sink(|st| {
        if now < st.next_cadence {
            return false;
        }
        // Advance to the first boundary strictly past `now` without
        // looping per elapsed period (faults can idle the clock).
        let period = METRICS_CADENCE.as_ns();
        st.next_cadence = Time::from_ns((now.as_ns() / period + 1) * period);
        true
    })
    .unwrap_or(false)
}

/// Add `v` to a named counter.
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    with_sink(|st| st.metrics.counter_add(name, v));
}

/// Set a named gauge.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    with_sink(|st| st.metrics.gauge_set(name, v));
}

/// Observe `v` in a named fixed-bucket histogram (created with `edges`
/// on first use).
#[inline]
pub fn hist_observe(name: &'static str, edges: &'static [f64], v: f64) {
    with_sink(|st| st.metrics.hist_observe(name, edges, v));
}

/// Snapshot all metrics into the sampled time series at `now`.
#[inline]
pub fn sample_metrics(now: Time) {
    with_sink(|st| st.metrics.sample(now));
}

/// Take every buffered trace event (oldest first), leaving the sink
/// installed. Empty when no sink is installed.
pub fn drain() -> Vec<TraceEvent> {
    with_sink(|st| st.ring.drain(..).collect()).unwrap_or_default()
}

/// Take the cadence-sampled metrics rows accumulated so far.
pub fn take_metric_rows() -> Vec<MetricsRow> {
    with_sink(|st| st.metrics.take_rows()).unwrap_or_default()
}

/// Events dropped because the ring was full.
pub fn dropped() -> u64 {
    with_sink(|st| st.dropped).unwrap_or(0)
}

/// Read a live counter value (testing/inspection).
pub fn counter(name: &'static str) -> u64 {
    with_sink(|st| st.metrics.counter(name)).unwrap_or(0)
}

/// Clone a live histogram (testing/inspection).
pub fn hist(name: &'static str) -> Option<Histogram> {
    with_sink(|st| st.metrics.hist(name).cloned()).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PathClass, Record};

    fn sample_record() -> Record {
        Record::PathTransition {
            leaf: 0,
            dst_leaf: 3,
            path: 0,
            from: PathClass::Good,
            to: PathClass::Failed,
        }
    }

    fn assert_inert() {
        assert!(!enabled());
        emit_with(Time::from_us(1), || {
            unreachable!("closure ran without a sink")
        });
        assert!(drain().is_empty());
        assert!(!on_cadence(Time::from_secs(1)));
    }

    #[test]
    fn no_sink_is_inert() {
        // A fresh test thread has no sink.
        assert_inert();
        install(SinkConfig::default());
        assert!(enabled());
        emit_with(Time::from_us(1), sample_record);
        uninstall();
        assert_inert();
    }

    #[test]
    fn install_and_uninstall_toggle_enabled_each_time() {
        uninstall();
        assert!(!enabled());
        install(SinkConfig::default());
        assert!(enabled());
        uninstall();
        assert!(!enabled());
        install(SinkConfig::default());
        assert!(enabled());
        // Re-installing replaces the sink and stays enabled.
        install(SinkConfig::default());
        assert!(enabled());
        uninstall();
        assert_inert();
    }

    #[test]
    fn emit_is_seq_ordered_and_closure_lazy() {
        uninstall();
        // Not installed: the closure must not run.
        emit_with(Time::ZERO, || panic!("closure ran without a sink"));
        install(SinkConfig::default());
        assert!(enabled());
        emit_with(Time::from_us(5), sample_record);
        emit_with(Time::from_us(5), sample_record);
        let evs = drain();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[1].seq), (0, 1));
        assert_eq!(evs[0].at, Time::from_us(5));
        uninstall();
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        install(SinkConfig { capacity: 2 });
        for i in 0..5u64 {
            emit_with(Time::from_us(i), sample_record);
        }
        let evs = drain();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[1].seq), (3, 4), "oldest dropped first");
        assert_eq!(dropped(), 3);
        uninstall();
    }

    #[test]
    fn cadence_fires_once_per_boundary() {
        install(SinkConfig::default());
        assert!(on_cadence(Time::ZERO), "first call fires at t=0");
        assert!(!on_cadence(Time::from_us(10)), "within the same period");
        assert!(!on_cadence(Time::from_us(999)));
        assert!(on_cadence(Time::from_ms(1)), "boundary reached");
        // A long idle gap fires once, not once per elapsed period.
        assert!(on_cadence(Time::from_ms(50)));
        assert!(!on_cadence(Time::from_ms(50)));
        assert!(on_cadence(Time::from_ms(51)));
        uninstall();
    }

    #[test]
    fn metrics_roundtrip_through_the_sink() {
        install(SinkConfig::default());
        counter_add("pkts", 2);
        counter_add("pkts", 3);
        gauge_set("goodput", 1.5);
        hist_observe("fct", &[10.0, 100.0], 7.0);
        assert_eq!(counter("pkts"), 5);
        assert_eq!(hist("fct").unwrap().counts(), &[1, 0, 0]);
        sample_metrics(Time::from_ms(2));
        let rows = take_metric_rows();
        assert!(rows.iter().any(|r| r.name == "pkts" && r.value == 5.0));
        assert!(take_metric_rows().is_empty(), "rows were taken");
        uninstall();
    }
}
