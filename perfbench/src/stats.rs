//! The benchmark's arithmetic: percentiles with the ten-samples-beyond
//! rule, medians, and the log-log exponent fit.
//!
//! A failed or refused request enters a latency sample set as
//! `f64::INFINITY`, so it misses every latency limit and can only push
//! a percentile up.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the value, the quantile it was taken at,
/// and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub q: f64,
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Sort a copy of `xs`; infinities (failed requests) sort last.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. Returns the value
/// and the number of samples ranked beyond it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The percentile `q` of `xs` if at least [`MIN_BEYOND`] samples lie
/// beyond it; otherwise `None`, because too few samples support it.
pub fn percentile(xs: &[f64], q: f64) -> Option<Percentile> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let (value, beyond) = nearest_rank(&s, q);
    (beyond >= MIN_BEYOND).then_some(Percentile {
        value,
        q,
        samples: s.len(),
        beyond,
    })
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond
/// it, capped at `q_max`; `None` with ten samples or fewer.
pub fn highest_supported(xs: &[f64], q_max: f64) -> Option<Percentile> {
    let s = sorted(xs);
    let n = s.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // Nearest rank r leaves n - r beyond; the highest r with ten beyond
    // is n - 10, i.e. q = (n - 10) / n.
    let q = ((n - MIN_BEYOND) as f64 / n as f64).min(q_max);
    let (value, beyond) = nearest_rank(&s, q);
    Some(Percentile {
        value,
        q,
        samples: n,
        beyond,
    })
}

/// Median (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `b` of a
/// cost model `y = a * x^b`.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples");
    assert!(xs.len() >= 2, "a slope needs two points");
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&xs, 0.99).expect("1000 samples support p99");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 1000);
        // 999 samples leave only nine beyond the p99 rank.
        assert!(percentile(&xs[..999], 0.99).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn highest_supported_percentile_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = highest_supported(&xs, 0.99).expect("200 samples");
        assert_eq!(p.beyond, 10);
        assert_eq!(p.value, 190.0);
        assert!((p.q - 0.95).abs() < 1e-12);
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        let capped = highest_supported(&many, 0.99).expect("5000 samples");
        assert_eq!(capped.q, 0.99);
        assert_eq!(capped.value, 4950.0);
        assert!(highest_supported(&xs[..10], 0.99).is_none());
    }

    #[test]
    fn a_failed_request_counts_as_infinite_latency() {
        let mut xs: Vec<f64> = (1..=99).map(f64::from).collect();
        xs.push(f64::INFINITY);
        // The failure sorts last, so it is the maximum and misses any limit.
        assert_eq!(*sorted(&xs).last().unwrap(), f64::INFINITY);
        assert_eq!(nearest_rank(&sorted(&xs), 1.0).0, f64::INFINITY);
        // The median moves up by half a rank, not to infinity.
        assert_eq!(median(&xs), 50.5);
        // Enough failures reach the tail percentile itself.
        let mut bad: Vec<f64> = (1..=980).map(f64::from).collect();
        bad.extend(std::iter::repeat_n(f64::INFINITY, 20));
        assert_eq!(percentile(&bad, 0.99).unwrap().value, f64::INFINITY);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn loglog_slope_recovers_power_laws() {
        let xs = [60.0, 200.0, 600.0, 2000.0];
        let quad: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        assert!((loglog_slope(&xs, &quad) - 2.0).abs() < 1e-9);
        let lin: Vec<f64> = xs.iter().map(|x| 0.5 * x).collect();
        assert!((loglog_slope(&xs, &lin) - 1.0).abs() < 1e-9);
        let nlogn: Vec<f64> = xs.iter().map(|x| x * x.ln()).collect();
        let b = loglog_slope(&xs, &nlogn);
        assert!(
            b > 1.0 && b < 1.3,
            "n log n fits between 1 and 1.3, got {b}"
        );
    }
}
