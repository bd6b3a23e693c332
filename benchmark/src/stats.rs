//! Order statistics the benchmark reports: median, quartiles and the tail
//! percentile that the sample can support.

/// Sorts a copy of `values` ascending (NaN-free input assumed; ties keep
/// their relative order).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending slice (mean of the two middle values for an even
/// count); 0 for an empty one.
#[must_use]
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method:
/// position `i * (n + 1) / 4`, linear interpolation, clamped to the ends),
/// so the spread this benchmark prints is the one the acceptance run
/// computes. A single value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0]);
    }
    let at = |i: usize| -> f64 {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the acceptance rule compares against a metric's bound.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of an ascending slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles the benchmark is willing to name, lowest first.
pub const TAIL_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n` — the only tail a sample of that
/// size supports. `None` below 20 samples (not even the median qualifies).
#[must_use]
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rfind(|q| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// The value at `min(wanted, supported_tail(n))` together with the
/// percentile actually used, so a report can say when a p99 had to fall
/// back to a p90.
#[must_use]
pub fn tail(sorted: &[f64], wanted: f64) -> (f64, f64) {
    let q = supported_tail(sorted.len()).map_or(0.5, |s| s.min(wanted));
    (percentile_sorted(sorted, q), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn tail_falls_back_when_the_sample_is_small() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big, 0.99), (990.0, 0.99));
        let small: Vec<f64> = (1..=800).map(f64::from).collect();
        assert_eq!(tail(&small, 0.99), (720.0, 0.9));
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(big.iter().filter(|v| **v > 990.0).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }
}
