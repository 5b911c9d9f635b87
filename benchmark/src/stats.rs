//! Sample statistics: nearest-rank percentiles and the rule that a
//! reported tail percentile needs at least ten samples beyond it.

/// Percentiles tried for a tail, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in a sample of `n`:
/// `ceil(p·n)`, clamped into `1..=n`.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "empty sample");
    assert!((0.0..=1.0).contains(&p), "percentile out of range");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest rank of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of [`TAIL_CANDIDATES`] that a sample of `n` supports
/// with [`MIN_BEYOND`] samples beyond it; `None` when even the median
/// does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Ascending copy of a sample.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median; 0 for an empty sample (an idle layer).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "empty sample");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 6000 requests: p99 is the 5940th, sixty lie beyond it.
        assert_eq!(rank(6000, 0.99), 5940);
        assert_eq!(samples_beyond(6000, 0.99), 60);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(39), Some(0.50));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(99), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        for n in 1..2000 {
            if let Some(p) = supported_tail(n) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
