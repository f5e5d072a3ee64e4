//! Order statistics shared by every workload.

/// The number of samples that must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;
/// The lowest percentile still reported as a tail: below it the samples
/// are too few for the rule, and the largest sample stands in.
pub const TAIL_FLOOR_PCT: f64 = 90.0;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, as `(value, percentile)`, or `None` when the sample count
/// supports none (`n <= TAIL_BEYOND`).
///
/// With the samples sorted ascending, the value at 0-based rank `i` has
/// `n - 1 - i` samples beyond it, so the answer is rank `n - 11`, the
/// `100 * (n - 10) / n`-th percentile.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND - 1;
    Some((sorted(values)[rank], 100.0 * (rank + 1) as f64 / n as f64))
}

/// [`tail`] when it is at least the [`TAIL_FLOOR_PCT`]-th percentile
/// (100 samples or more), else the largest sample: with few samples the
/// rule would name a low percentile, not a tail.
#[must_use]
pub fn tail_or_max(values: &[f64]) -> f64 {
    match tail(values) {
        Some((value, pct)) if pct >= TAIL_FLOOR_PCT => value,
        _ => sorted(values).last().copied().unwrap_or(0.0),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&values).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), TAIL_BEYOND);
        assert!((pct - 90.0).abs() < 1e-12);

        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (value, pct) = tail(&values).unwrap();
        assert_eq!(value, 990.0);
        assert!((pct - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        assert_eq!(tail_or_max(&ten), 10.0);
        // Eleven samples support only the 1st-of-11 "tail": too low to
        // report, so the largest sample stands in until 100 samples.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).map(|t| t.0), Some(1.0));
        assert_eq!(tail_or_max(&eleven), 11.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_or_max(&hundred), 90.0);
    }
}
