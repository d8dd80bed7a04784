//! Order statistics for the harness: medians, percentiles, quartiles as
//! the driver computes them, and the chunked-timer arithmetic.

/// Sort a sample in place (total order; the harness never records NaN).
fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median (mean of the middle pair for even sizes). `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between
/// closest ranks. `None` when the sample is empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
    if xs.is_empty() {
        return None;
    }
    let xs = sorted(xs.to_vec());
    let rank = p / 100.0 * (xs.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(xs[lo] + (xs[hi] - xs[lo]) * (rank - lo as f64))
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, so a spread computed here is the spread the driver computes.
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let m = xs.len();
    if m < 2 {
        return None;
    }
    let xs = sorted(xs.to_vec());
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median: the spread the
/// driver holds against a metric's bound. `0` below two samples.
pub fn iqr_share(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

/// A sub-microsecond op is timed in chunks of same-kind ops; the per-op
/// figure is the chunk's time over its op count.
pub const CHUNK: usize = 256;

/// Per-op nanoseconds of a chunk.
pub fn per_op_ns(chunk_ns: u64, ops: usize) -> f64 {
    chunk_ns as f64 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 50.0), Some(25.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), Some((1.0, 9.0)));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[2.0]), None);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }

    #[test]
    fn chunked_timer_arithmetic() {
        assert_eq!(per_op_ns(25_600, CHUNK), 100.0);
        assert_eq!(per_op_ns(1, 4), 0.25);
        assert_eq!(per_op_ns(9, 0), 9.0);
    }
}
