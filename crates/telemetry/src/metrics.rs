//! Metrics registry: counters, gauges and fixed-bucket histograms,
//! snapshotted into a time series on the sink's sim-time cadence.
//!
//! Everything here is plain deterministic data: `BTreeMap` keyed by
//! `&'static str` (stable iteration order), no clocks, no RNG. The
//! types stand apart from the per-thread registry in [`crate::sink`],
//! so the histogram math is unit- and property-testable without a
//! sink installed.

use std::collections::BTreeMap;

use hermes_sim::Time;

/// Fixed FCT histogram buckets (microseconds): log-ish spacing from
/// sub-RTT mice to multi-second stragglers, plus the overflow bucket.
/// Lives with the histogram type (observability layer) so the
/// sim-facing runtime holds no float tables of its own.
pub const FCT_EDGES_US: &[f64] = &[
    100.0,
    300.0,
    1_000.0,
    3_000.0,
    10_000.0,
    30_000.0,
    100_000.0,
    300_000.0,
    1_000_000.0,
    3_000_000.0,
];

/// A fixed-bucket histogram.
///
/// Bucket `i` counts samples with `v <= edges[i]` (and `v > edges[i-1]`
/// for `i > 0`); a value exactly equal to an edge lands in that edge's
/// bucket. One extra overflow bucket counts `v > edges.last()`. Edges
/// must be sorted ascending; duplicate edges describe a zero-width
/// bucket that the *second* copy of the edge can never receive counts
/// in (the first matching edge wins).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// A histogram over the given ascending bucket edges.
    ///
    /// # Panics
    /// If `edges` is empty or not sorted ascending (equal neighbours
    /// are allowed: a zero-width bucket).
    pub fn new(edges: &[f64]) -> Histogram {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] <= w[1]),
            "histogram edges must be sorted ascending"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Index of the bucket `v` falls in: the first edge `>= v`, or the
    /// overflow bucket (`edges.len()`) when `v` exceeds every edge.
    pub fn bucket_for(&self, v: f64) -> usize {
        // partition_point returns the count of edges strictly below v,
        // which is exactly the index of the first edge >= v.
        self.edges.partition_point(|&e| e < v)
    }

    /// Record one sample.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bucket_for(v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Fold `other` into `self`. Merging is exact: the result equals a
    /// histogram of the concatenated sample streams.
    ///
    /// # Panics
    /// If the two histograms have different bucket edges.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.edges, other.edges, "cannot merge mismatched buckets");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Bucket edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// One row of the sampled metrics time series: the value a named
/// metric had at a cadence boundary. Histograms snapshot one row per
/// bucket (`name` is suffixed with `le=<edge>` / `le=+inf`).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsRow {
    pub at: Time,
    pub name: String,
    pub value: f64,
}

/// The registry behind the sink: named counters, gauges and histograms
/// plus the cadence-sampled time series.
#[derive(Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Histogram>,
    rows: Vec<MetricsRow>,
}

impl Metrics {
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Record `v` into the named histogram, creating it with `edges`
    /// on first use. Later calls ignore `edges` (first writer wins),
    /// keeping every observation of one metric in one bucket layout.
    pub fn hist_observe(&mut self, name: &'static str, edges: &[f64], v: f64) {
        self.hists
            .entry(name)
            .or_insert_with(|| Histogram::new(edges))
            .observe(v);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Snapshot every registered metric into the time series at `now`.
    /// Iteration order is the `BTreeMap` key order, so two identical
    /// runs serialize identical rows.
    pub fn sample(&mut self, now: Time) {
        for (name, v) in &self.counters {
            self.rows.push(MetricsRow {
                at: now,
                name: (*name).to_string(),
                value: *v as f64,
            });
        }
        for (name, v) in &self.gauges {
            self.rows.push(MetricsRow {
                at: now,
                name: (*name).to_string(),
                value: *v,
            });
        }
        for (name, h) in &self.hists {
            for (i, c) in h.counts().iter().enumerate() {
                let suffix = match h.edges().get(i) {
                    Some(e) => format!("{{le={e}}}"),
                    None => "{le=+inf}".to_string(),
                };
                self.rows.push(MetricsRow {
                    at: now,
                    name: format!("{name}{suffix}"),
                    value: *c as f64,
                });
            }
        }
    }

    /// The cadence-sampled time series accumulated so far.
    pub fn rows(&self) -> &[MetricsRow] {
        &self.rows
    }

    /// Take the time series, leaving the live counters in place.
    pub fn take_rows(&mut self) -> Vec<MetricsRow> {
        std::mem::take(&mut self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_on_bucket_edge_lands_in_that_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(1.0);
        h.observe(10.0);
        h.observe(100.0);
        assert_eq!(h.counts(), &[1, 1, 1, 0]);
    }

    #[test]
    fn values_beyond_last_edge_hit_the_overflow_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(10.000001);
        h.observe(1e18);
        assert_eq!(h.counts(), &[0, 0, 2]);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn zero_and_negative_values_land_in_the_first_bucket() {
        // FCTs of zero-size ("zero-width") flows degenerate to 0.
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.0);
        h.observe(-3.0);
        assert_eq!(h.counts(), &[2, 0, 0]);
    }

    #[test]
    fn duplicate_edges_make_a_dead_zero_width_bucket() {
        let mut h = Histogram::new(&[5.0, 5.0, 10.0]);
        h.observe(5.0);
        h.observe(7.0);
        // The first 5.0 edge captures the on-edge sample; the second
        // (zero-width) bucket can never match.
        assert_eq!(h.counts(), &[1, 0, 1, 0]);
    }

    #[test]
    fn merge_equals_concatenated_observation() {
        let edges = [2.0, 4.0, 8.0];
        let xs = [0.5, 2.0, 3.0, 9.0];
        let ys = [4.0, 4.0, 100.0];
        let mut a = Histogram::new(&edges);
        let mut b = Histogram::new(&edges);
        let mut both = Histogram::new(&edges);
        for &v in &xs {
            a.observe(v);
            both.observe(v);
        }
        for &v in &ys {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    #[should_panic(expected = "mismatched buckets")]
    fn merge_rejects_mismatched_edges() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_edges_are_rejected() {
        let _ = Histogram::new(&[3.0, 1.0]);
    }

    #[test]
    fn registry_counters_gauges_and_sampling_are_ordered() {
        let mut m = Metrics::default();
        m.counter_add("zeta", 1);
        m.counter_add("alpha", 2);
        m.gauge_set("goodput", 3.5);
        m.hist_observe("fct", &[1.0], 0.5);
        m.sample(Time::from_us(10));
        let names: Vec<_> = m.rows().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["alpha", "zeta", "goodput", "fct{le=1}", "fct{le=+inf}"]
        );
        assert_eq!(m.counter("alpha"), 2);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("goodput"), Some(3.5));
        assert_eq!(m.hist("fct").unwrap().count(), 1);
    }
}
