//! Flow-completion-time metrics, banded exactly as the paper reports
//! them (§5.1): overall average, small flows (< 100 KB) average and
//! 99th percentile, large flows (> 10 MB) average, plus the
//! unfinished-flow fraction that drives the Fig. 17 blackhole numbers.

use hermes_net::{FlowId, FnvDigest, HostId};
use hermes_sim::Time;

/// Small-flow band upper bound (paper: "<100KB").
pub const SMALL_FLOW_BYTES: u64 = 100_000;
/// Large-flow band lower bound (paper: ">10MB").
pub const LARGE_FLOW_BYTES: u64 = 10_000_000;

/// The lifecycle record of one flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowRecord {
    pub id: FlowId,
    pub src: HostId,
    pub dst: HostId,
    /// Payload bytes.
    pub size: u64,
    pub start: Time,
    /// Completion time (last byte delivered to the receiver), if any.
    pub finish: Option<Time>,
}

impl FlowRecord {
    /// FCT for a finished flow, or `horizon - start` for an unfinished
    /// one — the paper's convention in the failure experiments, where
    /// "unfinished flows greatly enlarge the average FCT".
    pub fn fct_at(&self, horizon: Time) -> Time {
        match self.finish {
            Some(f) => f - self.start,
            None => horizon.saturating_sub(self.start),
        }
    }
}

/// Fingerprint of a run's flow records: equal exactly when two runs
/// released the same flows and finished each at the same instant. Unlike
/// the event-trace digest it does not see the order of same-instant
/// events, so it pins what a run *did*, not how the queue got there.
pub fn records_hash(records: &[FlowRecord]) -> u64 {
    let mut d = FnvDigest::new();
    for r in records {
        d.push(r.id.0);
        d.push(u64::from(r.src.0));
        d.push(u64::from(r.dst.0));
        d.push(r.size);
        d.push(r.start.as_ns());
        d.push(r.finish.map_or(u64::MAX, Time::as_ns));
    }
    d.value()
}

/// Summary statistics over a set of flow records.
#[derive(Clone, Copy, Debug, Default)]
pub struct FctSummary {
    pub n: usize,
    pub unfinished: usize,
    /// Overall average FCT (seconds), unfinished flows charged at the
    /// horizon.
    pub avg: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Small-flow (<100 KB) band.
    pub n_small: usize,
    pub avg_small: f64,
    pub p99_small: f64,
    /// Large-flow (>10 MB) band.
    pub n_large: usize,
    pub avg_large: f64,
}

impl FctSummary {
    /// Fraction of flows that never finished.
    pub fn unfinished_frac(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.unfinished as f64 / self.n as f64
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn avg(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Summarize records against a measurement horizon (simulation end).
pub fn summarize(records: &[FlowRecord], horizon: Time) -> FctSummary {
    let mut all: Vec<f64> = Vec::with_capacity(records.len());
    let mut small: Vec<f64> = Vec::new();
    let mut large: Vec<f64> = Vec::new();
    let mut unfinished = 0;
    for r in records {
        if r.finish.is_none() {
            unfinished += 1;
        }
        let fct = r.fct_at(horizon).as_secs_f64();
        all.push(fct);
        if r.size < SMALL_FLOW_BYTES {
            small.push(fct);
        } else if r.size > LARGE_FLOW_BYTES {
            large.push(fct);
        }
    }
    let mut sorted = all.clone();
    sorted.sort_by(f64::total_cmp);
    let mut small_sorted = small.clone();
    small_sorted.sort_by(f64::total_cmp);
    FctSummary {
        n: records.len(),
        unfinished,
        avg: avg(&all),
        p50: percentile(&sorted, 0.50),
        p95: percentile(&sorted, 0.95),
        p99: percentile(&sorted, 0.99),
        n_small: small.len(),
        avg_small: avg(&small),
        p99_small: percentile(&small_sorted, 0.99),
        n_large: large.len(),
        avg_large: avg(&large),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: u64, start_us: u64, fct_us: Option<u64>) -> FlowRecord {
        FlowRecord {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(16),
            size,
            start: Time::from_us(start_us),
            finish: fct_us.map(|f| Time::from_us(start_us + f)),
        }
    }

    #[test]
    fn banded_breakdown() {
        let records = vec![
            rec(50_000, 0, Some(100)),        // small
            rec(60_000, 0, Some(300)),        // small
            rec(1_000_000, 0, Some(1_000)),   // medium (neither band)
            rec(20_000_000, 0, Some(50_000)), // large
        ];
        let s = summarize(&records, Time::from_ms(1));
        assert_eq!(s.n, 4);
        assert_eq!(s.n_small, 2);
        assert_eq!(s.n_large, 1);
        assert!((s.avg_small - 200e-6).abs() < 1e-12);
        assert!((s.avg_large - 50_000e-6).abs() < 1e-12);
        assert_eq!(s.unfinished, 0);
    }

    #[test]
    fn unfinished_charged_at_horizon() {
        let records = vec![rec(1_000_000, 1_000, None), rec(1_000_000, 0, Some(500))];
        let horizon = Time::from_ms(10);
        let s = summarize(&records, horizon);
        assert_eq!(s.unfinished, 1);
        assert!((s.unfinished_frac() - 0.5).abs() < 1e-12);
        // FCT of the unfinished flow = 10ms - 1ms = 9ms.
        let want_avg = (9e-3 + 500e-6) / 2.0;
        assert!((s.avg - want_avg).abs() < 1e-12, "avg {}", s.avg);
    }

    #[test]
    fn percentiles_on_known_data() {
        let records: Vec<FlowRecord> = (1..=100).map(|i| rec(1_000, 0, Some(i * 10))).collect();
        let s = summarize(&records, Time::from_secs(1));
        assert!((s.p50 - 510e-6).abs() < 20e-6, "p50 {}", s.p50);
        assert!((s.p99 - 990e-6).abs() < 20e-6, "p99 {}", s.p99);
        assert!(s.p95 <= s.p99);
    }

    #[test]
    fn empty_records_do_not_panic() {
        let s = summarize(&[], Time::from_secs(1));
        assert_eq!(s.n, 0);
        assert_eq!(s.avg, 0.0);
        assert_eq!(s.unfinished_frac(), 0.0);
    }

    #[test]
    fn records_hash_sees_every_field_and_the_order() {
        let base = vec![rec(50_000, 0, Some(100)), rec(60_000, 10, None)];
        let h = records_hash(&base);
        assert_eq!(h, records_hash(&base.clone()));
        let mut later = base.clone();
        later[0].finish = Some(Time::from_us(101));
        let mut finished = base.clone();
        finished[1].finish = Some(Time::from_us(500));
        let mut resized = base.clone();
        resized[1].size += 1;
        let swapped = vec![base[1], base[0]];
        for other in [later, finished, resized, swapped] {
            assert_ne!(records_hash(&other), h);
        }
    }

    #[test]
    fn band_boundaries_are_exclusive() {
        // Exactly 100 KB is not "small"; exactly 10 MB is not "large".
        let records = vec![
            rec(SMALL_FLOW_BYTES, 0, Some(10)),
            rec(LARGE_FLOW_BYTES, 0, Some(10)),
        ];
        let s = summarize(&records, Time::from_secs(1));
        assert_eq!(s.n_small, 0);
        assert_eq!(s.n_large, 0);
    }
}
