//! Sample summaries: nearest-rank percentiles with the benchmark's reporting rule.

/// A percentile is reported only when at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample set (the lower middle for even counts), without the
/// reporting rule — for repeated measurements of one quantity, such as set-up time.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Largest share of CPU time the host may steal while a value is measured for the value to
/// count as quiet.
pub const QUIET_STEAL: f64 = 0.02;

/// The median of the `values` measured while the host stole at most [`QUIET_STEAL`] of the
/// CPU time (`steal[i]` is the share stolen while `values[i]` was measured); when fewer than
/// a quarter of the values are quiet, the median of the quarter with the least steal. On a
/// shared host, a stolen CPU stalls every round trip that needs it, so steal inflates each
/// timing it overlaps. Returns the median and how many values it was taken over.
pub fn quiet_median(values: &[f64], steal: &[f64]) -> (f64, usize) {
    let mut by_steal: Vec<(f64, f64)> = steal.iter().copied().zip(values.iter().copied()).collect();
    by_steal.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = by_steal.iter().filter(|(s, _)| *s <= QUIET_STEAL).count();
    let kept = quiet.max(values.len().div_ceil(4));
    let kept: Vec<f64> = by_steal[..kept].iter().map(|(_, v)| *v).collect();
    (median(&kept), kept.len())
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 99.0), None);
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_median_drops_stolen_values() {
        let values = [1.0, 2.0, 3.0, 9.0, 9.0];
        assert_eq!(
            quiet_median(&values, &[0.0, 0.01, 0.02, 0.3, 0.5]),
            (2.0, 3)
        );
        // Too few quiet values: the least-stolen quarter, rounded up.
        assert_eq!(quiet_median(&values, &[0.2, 0.1, 0.3, 0.4, 0.5]), (1.0, 2));
    }
}
