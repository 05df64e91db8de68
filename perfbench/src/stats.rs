//! Summary statistics with the benchmark's reporting rules.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`MIN_TAIL`] samples strictly beyond it; percentiles
//! use the nearest-rank definition so every reported value is a sample that
//! was actually observed.

/// Samples a reported percentile must leave beyond it.
pub const MIN_TAIL: usize = 10;

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// 1-based nearest rank of quantile `q` (0 < q ≤ 1) among `n` samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(q, sorted.len()) - 1]
}

/// How many samples lie beyond the nearest-rank quantile `q` of `n`.
pub fn samples_beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(q, n)
    }
}

/// Quantile `q` of `values`, or `None` when fewer than [`MIN_TAIL`] samples
/// would lie beyond it — such a tail percentile is one outlier away from a
/// different number and must not be reported.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(q, values.len()) >= MIN_TAIL).then(|| percentile(values, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // Order of the input does not matter.
        let reversed: Vec<f64> = values.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 0.9), 90.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(0.9, 100), 10);
        assert_eq!(samples_beyond(0.9, 99), 9);
        assert_eq!(samples_beyond(0.9, 0), 0);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&values[..99], 0.9), None);
        assert_eq!(tail_percentile(&values, 0.95), None);
        assert_eq!(tail_percentile(&values[..20], 0.5), Some(10.0));
    }
}
