//! Order statistics over small samples, and the two host-side readings
//! (`VmHWM`, the calibration loop) every child takes.

use std::time::Instant;

/// Linear-interpolated quantile of an unsorted sample (`q` in 0..=1).
/// Panics on an empty sample: every caller has at least one rep.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    assert!(!sample.is_empty(), "quantile of an empty sample");
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it (choosing-metrics §1), or `None` under 100 samples,
/// where only the median is reportable.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [(0.999, 1000), (0.99, 100), (0.95, 20), (0.90, 10)]
        .into_iter()
        .find(|(_, one_in)| n / one_in >= 10)
        .map(|(p, _)| p)
}

/// Interquartile range as a share of the median, with the quartiles
/// Python's `statistics.quantiles(v, n=4)` gives (exclusive method) —
/// the spread the driver holds each end-to-end metric's bound against.
pub fn iqr_share(sample: &[f64]) -> f64 {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (at(3) - at(1)) / med.abs()
    }
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status` text;
/// `None` when the line is missing or malformed.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak RSS in MiB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Steps of the calibration loop.
const CALIB_STEPS: u64 = 1 << 26;

/// Host speed probe: a fixed dependent chain of xorshift steps, in ns
/// per step (an affine recurrence such as an LCG would be composed into
/// a closed form by the optimizer). It touches no program code, so it
/// moves only when the host does — the diagnosis for drift between two
/// sets of runs.
pub fn calib_ns_per_iter() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..CALIB_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / CALIB_STEPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(9_999), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert!((iqr_share(&[8.0, 1.0, 4.0, 2.0]) - (7.0 - 1.25) / 3.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn vm_hwm_parser_fixtures() {
        let status = "Name:\thermes-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   25936 kB\nVmRSS:\t   1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(25_936));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 kB"), Some(12));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }
}
