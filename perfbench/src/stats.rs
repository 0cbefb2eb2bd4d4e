//! Percentiles that state how many samples stand behind them.

/// A timing percentile and the quantile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported quantile (nearest rank).
    pub value: f64,
    /// The quantile actually reported: the one asked for, or lower when
    /// fewer than ten samples would lie beyond it.
    pub quantile: f64,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest quantile up to `want` that leaves at least
/// [`MIN_BEYOND`] of the `samples` beyond it, nearest-rank. `None` when
/// there are too few samples for any such quantile.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((want * n as f64).ceil() as usize).clamp(1, n - MIN_BEYOND);
    Some(Tail {
        value: sorted[rank - 1],
        quantile: (rank as f64 / n as f64).min(want),
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 0.99).expect("enough samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.quantile, 0.99);
        let short: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&short, 0.99).expect("enough samples");
        assert_eq!(t.value, 40.0, "ten of fifty samples stay beyond");
        assert!(t.quantile < 0.99);
        assert!(tail(&short[..10], 0.5).is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
