//! Order statistics for latency and rate samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier would set it.
pub const MIN_TAIL: usize = 10;

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` in `(0, 1)`, or `None` — the metric is
/// missing — when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize; // 1-based
    if rank == 0 || n - rank.min(n) < MIN_TAIL {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_missing_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90 with exactly 10 samples above it.
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // 99 samples: rank 90, only 9 beyond -> missing.
        assert_eq!(percentile(&xs[..99], 0.9), None);
        // p99 needs at least 1000 samples.
        assert_eq!(percentile(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
    }
}
