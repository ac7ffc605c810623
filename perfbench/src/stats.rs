//! Sample statistics for the benchmark's reports.

use btcfast_obs::stats::nearest_rank;

/// Fewest samples a percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of an ascending-sorted sample set, by the workspace's
/// nearest-rank rule (`btcfast_obs::stats`), so a benchmark percentile and
/// a report's `accept_latency_quantiles` agree on the same samples.
///
/// Refuses (`None`) a percentile with fewer than [`MIN_BEYOND`] samples
/// above its rank: such a tail is a handful of outliers, not a percentile.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(sorted.len(), q);
    let beyond = sorted.len() - 1 - rank;
    if q > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank])
}

/// The median of an unsorted sample set (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The arithmetic mean (`0` when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        // 100 samples: p99's rank is 98, one sample beyond it.
        let samples: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&samples, 0.99), None);
        // p90's rank is 89: exactly ten samples beyond.
        assert_eq!(percentile(&samples, 0.90), Some(89));
        // 1000 samples carry a p99 with ten beyond.
        let samples: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&samples, 0.99), Some(989));
        // 900 samples: p99's rank is 890, nine beyond.
        let short: Vec<u64> = (0..900).collect();
        assert_eq!(percentile(&short, 0.99), None);
    }

    #[test]
    fn percentile_matches_the_workspace_rank_rule() {
        let samples: Vec<u64> = (0..2000).map(|i| i * 3).collect();
        for q in [0.5, 0.9, 0.95, 0.99] {
            assert_eq!(
                percentile(&samples, q),
                btcfast_obs::stats::quantile_sorted_u64(&samples, q)
            );
        }
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
