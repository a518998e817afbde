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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// Summarize records against a measurement horizon (simulation end).
///
/// The band sums run in record order. Each percentile is the FCT at rank
/// `round(p·(len−1))` of the ascending order, selected over the records
/// themselves by a radix select on the FCT in ns, so the summary
/// allocates nothing. `as_secs_f64` is monotone, so converting the
/// selected ns gives the value a sort of the `f64` FCTs has at that rank.
pub fn summarize(records: &[FlowRecord], horizon: Time) -> FctSummary {
    let n = records.len();
    let (mut unfinished, mut n_small, mut n_large) = (0, 0, 0);
    let (mut sum, mut sum_small, mut sum_large) = (0.0, 0.0, 0.0);
    for r in records {
        if r.finish.is_none() {
            unfinished += 1;
        }
        let fct = r.fct_at(horizon).as_secs_f64();
        sum += fct;
        if r.size < SMALL_FLOW_BYTES {
            n_small += 1;
            sum_small += fct;
        } else if r.size > LARGE_FLOW_BYTES {
            n_large += 1;
            sum_large += fct;
        }
    }
    let fct_ns = move |r: &FlowRecord| r.fct_at(horizon).as_ns();
    let all = records.iter().map(fct_ns);
    let small = records
        .iter()
        .filter(|r| r.size < SMALL_FLOW_BYTES)
        .map(fct_ns);
    FctSummary {
        n,
        unfinished,
        avg: mean(sum, n),
        p50: percentile(all.clone(), n, 0.50),
        p95: percentile(all.clone(), n, 0.95),
        p99: percentile(all, n, 0.99),
        n_small,
        avg_small: mean(sum_small, n_small),
        p99_small: percentile(small, n_small, 0.99),
        n_large,
        avg_large: mean(sum_large, n_large),
    }
}

/// `sum / n`, or 0 for an empty band.
fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The `p`-quantile, in seconds, of the `len` FCTs (ns) that `fcts`
/// yields, at rank `round(p·(len−1))`; 0 when there are none.
fn percentile(fcts: impl Iterator<Item = u64> + Clone, len: usize, p: f64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let rank = (p * (len - 1) as f64).round() as usize;
    Time::from_ns(radix_select(fcts, rank)).as_secs_f64()
}

/// The key at `rank` (0-based, ascending) among those `keys` yields,
/// which must be more than `rank`. Most significant byte first: each
/// pass counts, per byte value, the keys that share the bytes chosen so
/// far, and keeps the byte whose count covers `rank`. One pass finds
/// the highest byte set, then one runs per byte from there down; the
/// only buffer is a 256-entry histogram.
fn radix_select(keys: impl Iterator<Item = u64> + Clone, mut rank: usize) -> u64 {
    let bits = 64 - keys.clone().fold(0, |acc, k| acc | k).leading_zeros();
    let (mut prefix, mut mask) = (0u64, 0u64);
    for shift in (0..bits.div_ceil(8)).rev().map(|byte| byte * 8) {
        let mut hist = [0usize; 256];
        for k in keys.clone().filter(|k| k & mask == prefix) {
            hist[((k >> shift) & 0xFF) as usize] += 1;
        }
        let mut digit = 0;
        while rank >= hist[digit] {
            rank -= hist[digit];
            digit += 1;
        }
        prefix |= (digit as u64) << shift;
        mask |= 0xFF << shift;
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based `summarize` that selection replaced, kept as the
    /// oracle: two sorted copies of the `f64` FCTs, percentiles read by
    /// index.
    fn summarize_by_sorting(records: &[FlowRecord], horizon: Time) -> FctSummary {
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

    /// Every field of a summary, floats by their bits.
    fn bits(s: &FctSummary) -> [u64; 11] {
        [
            s.n as u64,
            s.unfinished as u64,
            s.avg.to_bits(),
            s.p50.to_bits(),
            s.p95.to_bits(),
            s.p99.to_bits(),
            s.n_small as u64,
            s.avg_small.to_bits(),
            s.p99_small.to_bits(),
            s.n_large as u64,
            s.avg_large.to_bits(),
        ]
    }

    fn assert_matches_oracle(records: &[FlowRecord], horizon: Time) {
        assert_eq!(
            bits(&summarize(records, horizon)),
            bits(&summarize_by_sorting(records, horizon)),
            "records {records:?}"
        );
    }

    /// One record from the three bands; FCTs come from a handful of
    /// values so duplicates are common, and a quarter never finish.
    /// Starts run past the 4 ms horizon the property uses, so some
    /// unfinished flows are charged zero.
    fn record() -> impl Strategy<Value = FlowRecord> {
        let size = prop_oneof![
            3 => 1u64..SMALL_FLOW_BYTES,
            2 => SMALL_FLOW_BYTES..LARGE_FLOW_BYTES + 1,
            2 => LARGE_FLOW_BYTES + 1..4 * LARGE_FLOW_BYTES,
        ];
        let fct = prop_oneof![
            3 => (0u64..6).prop_map(|f| Some(f * 250)),
            2 => (0u64..3_000).prop_map(Some),
            2 => Just(None),
        ];
        (size, 0u64..5_000, fct).prop_map(|(size, start_us, fct_us)| rec(size, start_us, fct_us))
    }

    /// Record sets of every shape the summary branches on: empty, one
    /// flow, all small, none small, and mixed.
    fn record_sets() -> impl Strategy<Value = Vec<FlowRecord>> {
        prop_oneof![
            1 => Just(Vec::new()),
            2 => proptest::collection::vec(record(), 1..2),
            2 => proptest::collection::vec(record(), 1..40).prop_map(|mut v| {
                v.iter_mut().for_each(|r| r.size %= SMALL_FLOW_BYTES);
                v
            }),
            2 => proptest::collection::vec(record(), 1..40).prop_map(|mut v| {
                v.iter_mut().for_each(|r| r.size = r.size.max(SMALL_FLOW_BYTES));
                v
            }),
            6 => proptest::collection::vec(record(), 2..300),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Selecting over the records gives every field of the
        /// sort-based summary, bit for bit.
        #[test]
        fn bufferless_summary_matches_the_sorting_oracle(records in record_sets()) {
            assert_matches_oracle(&records, Time::from_ms(4));
        }
    }

    proptest! {
        /// Radix select finds the key a sort puts at each rank, for keys
        /// of every width: all zero, sharing high bytes, full 64-bit.
        #[test]
        fn radix_select_matches_sorting(
            keys in proptest::collection::vec(
                prop_oneof![
                    Just(0u64),
                    0u64..256,
                    (0u64..8).prop_map(|k| (1 << 40) + k),
                    0u64..1 << 30,
                    any::<u64>(),
                ],
                1..100,
            ),
        ) {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            for (rank, want) in sorted.iter().enumerate() {
                prop_assert_eq!(radix_select(keys.iter().copied(), rank), *want);
            }
        }
    }

    #[test]
    fn oracle_agrees_on_the_edge_shapes() {
        let horizon = Time::from_ms(4);
        let shapes: [&[FlowRecord]; 7] = [
            &[],
            &[rec(50_000, 0, Some(100))],
            &[rec(1, 0, Some(3)), rec(99_999, 5, Some(1)), rec(7, 1, None)],
            &[
                rec(SMALL_FLOW_BYTES, 0, Some(9)),
                rec(LARGE_FLOW_BYTES, 2, Some(4)),
            ],
            &[
                rec(LARGE_FLOW_BYTES + 1, 0, Some(8)),
                rec(5 * LARGE_FLOW_BYTES, 0, None),
            ],
            &[
                rec(1_000, 3_000, None),
                rec(1_000, 5_000, None),
                rec(2_000_000, 0, None),
            ],
            &[
                rec(10, 0, Some(5)),
                rec(2_000_000, 0, Some(5)),
                rec(10, 0, Some(5)),
            ],
        ];
        for records in shapes {
            assert_matches_oracle(records, horizon);
        }
    }

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
