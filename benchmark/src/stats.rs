//! Percentiles over raw samples. Every percentile this benchmark reports
//! goes through [`nearest_rank`]; nothing is read from a bucketed histogram.

/// Samples that must lie beyond a gated percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample such that at least
/// `q * n` samples are less than or equal to it (rank `ceil(q * n)`,
/// 1-based). `None` for an empty sample. Sorts `samples` in place.
pub fn nearest_rank(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(samples[rank(samples.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// [`nearest_rank`] for a percentile a change can be rejected on: an error,
/// not a number, when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn gated(samples: &mut [u64], q: f64) -> Result<u64, String> {
    let n = samples.len();
    let beyond = n.saturating_sub(rank(n.max(1), q));
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} over {n} samples has {beyond} samples beyond it; {MIN_BEYOND} are required",
            q * 100.0
        ));
    }
    nearest_rank(samples, q).ok_or_else(|| "no samples".to_string())
}

/// Median of floats (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method) — the spread the acceptance check is made with.
/// `None` below two values or for a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

/// `part / whole`, or 0 for an empty whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_cases() {
        assert_eq!(nearest_rank(&mut [], 0.5), None);
        assert_eq!(nearest_rank(&mut [42], 0.95), Some(42));
        // Unsorted input, n = 5: p50 is rank ceil(2.5) = 3, p95 is rank 5.
        let mut five = [50, 10, 40, 20, 30];
        assert_eq!(nearest_rank(&mut five, 0.5), Some(30));
        assert_eq!(nearest_rank(&mut five, 0.95), Some(50));
        assert_eq!(nearest_rank(&mut five, 0.2), Some(10));
        assert_eq!(nearest_rank(&mut five, 0.21), Some(20));
        // Even count: nearest rank never interpolates; p50 of 4 is rank 2.
        assert_eq!(nearest_rank(&mut [4, 1, 3, 2], 0.5), Some(2));
    }

    #[test]
    fn ties_return_the_tied_value() {
        let mut v = [7, 7, 7, 7, 9, 7, 7, 7, 7, 7];
        assert_eq!(nearest_rank(&mut v, 0.5), Some(7));
        assert_eq!(nearest_rank(&mut v, 0.9), Some(7));
        assert_eq!(nearest_rank(&mut v, 0.95), Some(9));
    }

    #[test]
    fn two_hundred_samples_is_the_smallest_gated_p95() {
        // 1..=200: p95 is rank 190, leaving exactly ten samples beyond it.
        let mut v: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(gated(&mut v, 0.95), Ok(190));
        assert_eq!(gated(&mut v, 0.5), Ok(100));
        let mut short: Vec<u64> = (1..=199).collect();
        let err = gated(&mut short, 0.95).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        assert!(gated(&mut [], 0.95).is_err());
    }

    #[test]
    fn median_and_spread_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = iqr_share(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5].
        let spread = iqr_share(&[10.0, 20.0]).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
        assert_eq!(iqr_share(&[1.0]), None);
    }
}
