//! Order statistics for wall-clock samples and latency percentiles.

/// Median, quartiles and count of one wall-clock metric's samples.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarises `samples` (at least one). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), the rule the
/// noise protocol in README.md is stated in.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let quantile = |k: usize| {
        if n == 1 {
            return s[0];
        }
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Summary {
        median: quantile(2),
        q1: quantile(1),
        q3: quantile(3),
        n,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Nearest-rank percentile `p` (0 < p < 1) of `sorted`, or `None` when
/// fewer than ten samples lie beyond it — a tail estimated from fewer
/// is noise, so callers size their phases until it qualifies and fail
/// loudly otherwise.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    (rank >= 1 && n - rank.min(n) >= 10).then(|| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten samples (991..=1000) beyond.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // One sample fewer and p99 no longer qualifies; p98 still does.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert!(percentile(&v[..999], 0.98).is_some());
        assert_eq!(percentile(&v[..15], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
        // Two samples: Python extrapolates beyond the data, and so do we.
        let two = summarize(&[1.0, 2.0]);
        assert_eq!((two.q1, two.median, two.q3), (0.75, 1.5, 2.25));
    }
}
