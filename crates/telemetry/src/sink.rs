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
//! this crate — the xtask determinism lint covers it like every other
//! sim-facing crate.
//!
//! # Zero overhead when off
//!
//! Without the `on` feature every public function here is an empty
//! `#[inline]` shim: `enabled()` is a compile-time `false`, so
//! instrumentation guarded by `if hermes_telemetry::enabled()` folds
//! away entirely, and `emit_with` never constructs its record closure.
//! The sink is thread-local so the testkit's multi-threaded scenario
//! grid keeps per-cell traces independent. Thread contract: install
//! the sink on the thread that *runs* the simulation — a `Simulation`
//! is `Send`, and one moved elsewhere emits into that thread's sink (or
//! nowhere, if none is installed there).

use hermes_sim::Time;

use crate::record::{Record, TraceEvent};

/// Sink configuration.
#[derive(Clone, Copy, Debug)]
pub struct SinkConfig {
    /// Ring capacity in events; the oldest events are dropped (and
    /// counted) once the buffer is full.
    pub capacity: usize,
    /// Sim-time cadence for metrics snapshots and queue sampling.
    pub metrics_cadence: Time,
}

impl Default for SinkConfig {
    fn default() -> SinkConfig {
        SinkConfig {
            capacity: 1 << 20,
            metrics_cadence: Time::from_ms(1),
        }
    }
}

/// Whether the telemetry layer was compiled in (`on` feature).
#[inline(always)]
pub fn compiled() -> bool {
    cfg!(feature = "on")
}

#[cfg(feature = "on")]
mod imp {
    use std::cell::RefCell;
    use std::collections::VecDeque;

    use hermes_sim::Time;

    use super::SinkConfig;
    use crate::metrics::{Metrics, MetricsRow};
    use crate::record::{Record, TraceEvent};

    pub struct SinkState {
        cfg: SinkConfig,
        ring: VecDeque<TraceEvent>,
        next_seq: u64,
        dropped: u64,
        next_cadence: Time,
        metrics: Metrics,
    }

    thread_local! {
        static SINK: RefCell<Option<SinkState>> = const { RefCell::new(None) };
    }

    pub fn install(cfg: SinkConfig) {
        SINK.with(|s| {
            *s.borrow_mut() = Some(SinkState {
                cfg,
                ring: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
                next_cadence: Time::ZERO,
                metrics: Metrics::default(),
            });
        });
    }

    pub fn uninstall() {
        SINK.with(|s| *s.borrow_mut() = None);
    }

    pub fn installed() -> bool {
        SINK.with(|s| s.borrow().is_some())
    }

    pub fn emit(at: Time, record: Record) {
        SINK.with(|s| {
            if let Some(st) = s.borrow_mut().as_mut() {
                if st.ring.len() >= st.cfg.capacity {
                    st.ring.pop_front();
                    st.dropped += 1;
                }
                let seq = st.next_seq;
                st.next_seq += 1;
                st.ring.push_back(TraceEvent { seq, at, record });
            }
        });
    }

    pub fn on_cadence(now: Time) -> bool {
        SINK.with(|s| {
            let mut b = s.borrow_mut();
            let Some(st) = b.as_mut() else { return false };
            if now < st.next_cadence {
                return false;
            }
            // Advance to the first boundary strictly past `now` without
            // looping per elapsed period (faults can idle the clock).
            let period = st.cfg.metrics_cadence.as_ns().max(1);
            let next = (now.as_ns() / period + 1) * period;
            st.next_cadence = Time::from_ns(next);
            true
        })
    }

    pub fn with_metrics<R>(f: impl FnOnce(&mut Metrics) -> R) -> Option<R> {
        SINK.with(|s| s.borrow_mut().as_mut().map(|st| f(&mut st.metrics)))
    }

    pub fn drain() -> Vec<TraceEvent> {
        SINK.with(|s| {
            s.borrow_mut()
                .as_mut()
                .map(|st| st.ring.drain(..).collect())
                .unwrap_or_default()
        })
    }

    pub fn take_metric_rows() -> Vec<MetricsRow> {
        with_metrics(Metrics::take_rows).unwrap_or_default()
    }

    pub fn dropped() -> u64 {
        SINK.with(|s| s.borrow().as_ref().map_or(0, |st| st.dropped))
    }
}

// ---------------------------------------------------------------------
// Public API. With the feature off these are empty inline shims.
// ---------------------------------------------------------------------

/// Install a fresh sink on this thread, replacing any previous one.
/// No-op when the layer is compiled out.
#[inline]
pub fn install(cfg: SinkConfig) {
    #[cfg(feature = "on")]
    imp::install(cfg);
    #[cfg(not(feature = "on"))]
    let _ = cfg;
}

/// Remove this thread's sink, discarding buffered events.
#[inline]
pub fn uninstall() {
    #[cfg(feature = "on")]
    imp::uninstall();
}

/// Whether a sink is installed on this thread *and* the layer is
/// compiled in. The `if enabled()` guard at every instrumentation site
/// is a constant `false` in off builds, so the whole site folds away.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "on")]
    {
        imp::installed()
    }
    #[cfg(not(feature = "on"))]
    {
        false
    }
}

/// Emit one record stamped `at`; the closure is only evaluated when a
/// sink is installed, so record construction costs nothing otherwise.
#[inline]
pub fn emit_with<F: FnOnce() -> Record>(at: Time, f: F) {
    #[cfg(feature = "on")]
    {
        if imp::installed() {
            imp::emit(at, f());
        }
    }
    #[cfg(not(feature = "on"))]
    let _ = (at, f);
}

/// Lazy cadence check: true when `now` reached the next metrics
/// boundary (which is then advanced past `now`). The sink never
/// schedules its own events — the runtime asks this question on its
/// existing dispatch path instead, keeping the event stream (and thus
/// the trace digest) identical to an uninstrumented run.
#[inline]
pub fn on_cadence(now: Time) -> bool {
    #[cfg(feature = "on")]
    {
        imp::on_cadence(now)
    }
    #[cfg(not(feature = "on"))]
    {
        let _ = now;
        false
    }
}

/// Add `v` to a named counter.
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    #[cfg(feature = "on")]
    {
        imp::with_metrics(|m| m.counter_add(name, v));
    }
    #[cfg(not(feature = "on"))]
    let _ = (name, v);
}

/// Set a named gauge.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    #[cfg(feature = "on")]
    {
        imp::with_metrics(|m| m.gauge_set(name, v));
    }
    #[cfg(not(feature = "on"))]
    let _ = (name, v);
}

/// Observe `v` in a named fixed-bucket histogram (created with `edges`
/// on first use).
#[inline]
pub fn hist_observe(name: &'static str, edges: &'static [f64], v: f64) {
    #[cfg(feature = "on")]
    {
        imp::with_metrics(|m| m.hist_observe(name, edges, v));
    }
    #[cfg(not(feature = "on"))]
    let _ = (name, edges, v);
}

/// Snapshot all metrics into the sampled time series at `now`.
#[inline]
pub fn sample_metrics(now: Time) {
    #[cfg(feature = "on")]
    {
        imp::with_metrics(|m| m.sample(now));
    }
    #[cfg(not(feature = "on"))]
    let _ = now;
}

/// Take every buffered trace event (oldest first), leaving the sink
/// installed. Empty when the layer is off or no sink is installed.
#[inline]
pub fn drain() -> Vec<TraceEvent> {
    #[cfg(feature = "on")]
    {
        imp::drain()
    }
    #[cfg(not(feature = "on"))]
    {
        Vec::new()
    }
}

/// Take the cadence-sampled metrics rows accumulated so far.
#[inline]
pub fn take_metric_rows() -> Vec<crate::metrics::MetricsRow> {
    #[cfg(feature = "on")]
    {
        imp::take_metric_rows()
    }
    #[cfg(not(feature = "on"))]
    {
        Vec::new()
    }
}

/// Events dropped because the ring was full.
#[inline]
pub fn dropped() -> u64 {
    #[cfg(feature = "on")]
    {
        imp::dropped()
    }
    #[cfg(not(feature = "on"))]
    {
        0
    }
}

/// Read a live counter value (testing/inspection).
#[inline]
pub fn counter(name: &'static str) -> u64 {
    #[cfg(feature = "on")]
    {
        imp::with_metrics(|m| m.counter(name)).unwrap_or(0)
    }
    #[cfg(not(feature = "on"))]
    {
        let _ = name;
        0
    }
}

/// Clone a live histogram (testing/inspection).
#[inline]
pub fn hist(name: &'static str) -> Option<crate::metrics::Histogram> {
    #[cfg(feature = "on")]
    {
        imp::with_metrics(|m| m.hist(name).cloned()).flatten()
    }
    #[cfg(not(feature = "on"))]
    {
        let _ = name;
        None
    }
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

    #[test]
    fn off_build_is_inert() {
        if compiled() {
            return;
        }
        install(SinkConfig::default());
        assert!(!enabled());
        emit_with(Time::from_us(1), sample_record);
        assert!(drain().is_empty());
        assert!(!on_cadence(Time::from_secs(1)));
    }

    #[test]
    fn emit_is_seq_ordered_and_closure_lazy() {
        if !compiled() {
            return;
        }
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
        if !compiled() {
            return;
        }
        install(SinkConfig {
            capacity: 2,
            ..SinkConfig::default()
        });
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
        if !compiled() {
            return;
        }
        install(SinkConfig {
            metrics_cadence: Time::from_ms(1),
            ..SinkConfig::default()
        });
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
        if !compiled() {
            return;
        }
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
