//! Order statistics for the reported timings.

/// Nearest-rank percentile: the smallest sample with at least `q` percent
/// of the samples at or below it (`q` in `(0, 100]`). Returns `None` for
/// an empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median: the mean of the two middle samples for an even count. Returns
/// `None` for an empty sample set.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The faster half of `items` by `seconds` (rounded up, so one item of
/// one), fastest first.
pub fn faster_half<T>(items: &[T], seconds: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut sorted: Vec<&T> = items.iter().collect();
    sorted.sort_by(|a, b| seconds(a).total_cmp(&seconds(b)));
    sorted.truncate(items.len().div_ceil(2));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_fixed_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn faster_half_keeps_the_shorter_half_rounded_up() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(faster_half(&xs, |&x| x), vec![&1.0, &2.0, &3.0]);
        assert_eq!(faster_half(&xs[..4], |&x| x), vec![&1.0, &2.0]);
        assert_eq!(faster_half(&[7.0], |&x| x), vec![&7.0]);
        assert!(faster_half(&[] as &[f64], |&x| x).is_empty());
    }
}
