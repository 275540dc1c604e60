//! Exact order statistics over kept samples.
//!
//! Every latency sample of a run is kept, so percentiles are exact: no
//! bucketing, whose power-of-two resolution would hide a 40% change.

/// Quantile `q` in `[0, 1]` of ascending `sorted`, interpolating linearly
/// between the two closest ranks (the "type 7" estimator of R and NumPy).
/// `0.0` for an empty slice.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median of `values` (sorted in place).
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// Mean of the middle half of `values` (sorted in place): as robust to a
/// few outliers as the median, but not stuck on one of a few repeated
/// values. The median when fewer than four values are given.
#[must_use]
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    if cut == 0 {
        return quantile_sorted(values, 0.5);
    }
    let mid = &values[cut..values.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Median, 90th and 99th percentile of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples the percentiles were computed from.
    pub count: usize,
}

/// Exact p50/p90/p99 of nanosecond samples, reported in `unit_ns` units
/// (`1e3` for microseconds, `1e6` for milliseconds).
#[must_use]
pub fn percentiles_ns(samples: &[u64], unit_ns: f64) -> Percentiles {
    let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64 / unit_ns).collect();
    v.sort_by(f64::total_cmp);
    Percentiles {
        p50: quantile_sorted(&v, 0.5),
        p90: quantile_sorted(&v, 0.9),
        p99: quantile_sorted(&v, 0.99),
        count: v.len(),
    }
}

/// `num / den`, or `0.0` when `den` is zero (a ratio over an empty window).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_empty_and_single() {
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert!((quantile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
        // pos = 0.25 * 3 = 0.75 -> 1 + 0.75
        assert!((quantile_sorted(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_matches_python_statistics_inclusive() {
        // statistics.quantiles(range(1, 101), n=100, method="inclusive")[98]
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile_sorted(&v, 0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn median_sorts_in_place() {
        let mut v = [5.0, 1.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(v, [1.0, 3.0, 5.0]);
    }

    #[test]
    fn percentiles_resolve_small_differences() {
        // A 40% shift between 100 µs and 140 µs is visible, unlike in a
        // power-of-two bucket (both land in 64..127 / 128..255 only by luck).
        let a: Vec<u64> = (0..1000).map(|i| 100_000 + i).collect();
        let b: Vec<u64> = (0..1000).map(|i| 140_000 + i).collect();
        let pa = percentiles_ns(&a, 1e3);
        let pb = percentiles_ns(&b, 1e3);
        assert_eq!(pa.count, 1000);
        assert!((pb.p50 / pa.p50 - 1.4).abs() < 0.01);
        assert!(pa.p99 > pa.p90 && pa.p90 > pa.p50);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        let mut v = [100.0, 1.0, 4.0, 2.0, 3.0, -50.0, 5.0, 6.0];
        // Sorted: -50 1 2 3 4 5 6 100; the middle half is 2 3 4 5.
        assert!((interquartile_mean(&mut v) - 3.5).abs() < 1e-12);
        assert_eq!(interquartile_mean(&mut [9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
