//! Percentiles and the small summaries every metric is built from.

/// The `p`-th percentile (0 ≤ p ≤ 100) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p`% of the samples at or
/// below it. `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median by nearest rank (the lower middle sample on even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Integer nanosecond samples in microseconds.
pub fn ns_to_us(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&ns| ns as f64 / 1e3).collect()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        // Order of the input does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99.0), Some(99.0));
    }

    #[test]
    fn small_and_empty_samples() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(median(&[3.0, 1.0]), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // p99 of ten samples is the largest one.
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), Some(9.0));
        assert_eq!(percentile(&ten, 90.0), Some(8.0));
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(ns_to_us(&[1_500, 2_000]), vec![1.5, 2.0]);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
