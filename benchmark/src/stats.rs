//! Order statistics used by `run`, `trace` and `compare`.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the result files with Python.

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The distance between the first and third quartile as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

/// The `p`-th percentile (0–100) by linear interpolation between the two
/// closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// How many of `n` samples lie above the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (p / 100.0 * n as f64).ceil() as usize
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// ten of them lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from Python 3:
    /// `statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]`,
    /// `statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]`,
    /// `statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]`.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&ten);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
        let (q1, q2, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(close(q1, 1.5) && close(q2, 3.0) && close(q3, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&ten), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!(close(percentile(&hundred, 90.0), 91.0));
        assert!(close(percentile(&hundred, 50.0), 51.0));
        assert!(close(percentile(&[1.0, 2.0], 50.0), 1.5));
        assert!(close(percentile(&[4.0], 90.0), 4.0));
    }

    #[test]
    fn at_least_ten_samples_beyond_the_reported_percentile() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        // Two passes of the 56 suite tests support p90; one does not.
        assert_eq!(samples_beyond(112, 90.0), 11);
        assert!(supports_percentile(112, 90.0));
        assert!(!supports_percentile(56, 90.0));
    }
}
