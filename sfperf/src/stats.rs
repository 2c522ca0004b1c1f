//! Summary statistics over per-operation samples.

/// Median of `samples` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`; `0.0` for
/// an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    match rank(sorted.len(), p) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile for it to mean
/// anything.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`TAIL_SUPPORT`] of `n` samples strictly above its nearest rank, or
/// `None` when even the median lacks that support.
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= TAIL_SUPPORT)
}

/// Renders the tail note the per-layer table prints beside a percentile:
/// sample count and the highest percentile those samples support.
#[must_use]
pub fn tail_note(n: usize) -> String {
    match highest_supported_percentile(n) {
        Some(p) => format!("n={n}, supports p{p}"),
        None => format!("n={n}, too few for any tail"),
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    // The epsilon keeps float error from pushing an exact rank (99.9% of
    // 10 000 = 9990) up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 1.0), 1.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_note_states_count_and_percentile() {
        assert_eq!(tail_note(100), "n=100, supports p90");
        assert_eq!(tail_note(3), "n=3, too few for any tail");
    }
}
