//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond its rank.
///
/// The rank is `ceil(p * n)` (1-based); the samples beyond it are the
/// `n - rank` larger ones.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    let n = samples.len();
    let rank = rank_of(n, p);
    if n == 0 || n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The fewest samples for which [`tail_percentile`] reports `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank_of(n, p) >= MIN_TAIL)
        .expect("p < 1")
}

fn rank_of(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.5), 20);
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(tail_percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let a = tail_percentile(&v, 0.5);
        v.reverse();
        assert_eq!(a, tail_percentile(&v, 0.5));
        assert_eq!(a, Some(499.0));
    }

    #[test]
    fn too_few_samples_report_nothing() {
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&[1.0; 19], 0.5), None);
        assert_eq!(tail_percentile(&[1.0; 20], 0.5), Some(1.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
