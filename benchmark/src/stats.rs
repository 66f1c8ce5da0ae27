//! Order statistics for rep times.

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the reading is one or two slow reps, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`] of
/// `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (100 - p as usize) >= MIN_BEYOND * 100)
}

/// The `p`-th percentile (0..=100) of `sorted`, interpolating linearly
/// between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        // The design point: every workload is sized for n >= 120.
        assert_eq!(tail_percentile(120), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
