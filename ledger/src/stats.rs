//! Order statistics for the ledger: median, quartiles, the tail percentile
//! rule, and the run-to-run spread the benchmark contract is judged by.

/// One cut point of Python's `statistics.quantiles(data, n=4)` (the default
/// "exclusive" method, integer arithmetic and all): `i` is 1, 2 or 3.
/// `sorted` must be ascending with at least two samples.
fn quartile_sorted(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` as `statistics.quantiles(samples, n=4)` gives them
/// (a single sample is its own quartiles; no samples give zeros).
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    match samples {
        [] => (0.0, 0.0, 0.0),
        [x] => (*x, *x, *x),
        _ => {
            let s = sorted(samples);
            (
                quartile_sorted(&s, 1),
                quartile_sorted(&s, 2),
                quartile_sorted(&s, 3),
            )
        }
    }
}

/// Interquartile range as a share of the median: the spread the benchmark
/// contract compares with a metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A reported tail: which percentile, its value, and how many samples it
/// was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest of p99, p95, p90, p75 — none above `want`, the workload's
/// stated tail percentile — that has at least ten samples beyond it; with
/// too few samples for any of them, the median (p50). A percentile is only
/// as trustworthy as the number of samples above it, and capping it at the
/// stated one keeps a run that happens to collect a few more samples from
/// silently reporting a different percentile.
pub fn tail(samples: &[f64], want: usize) -> Tail {
    let n = samples.len();
    let s = sorted(samples);
    for percentile in [99usize, 95, 90, 75] {
        let beyond = n * (100 - percentile) / 100;
        if percentile <= want && beyond >= 10 {
            return Tail {
                percentile: percentile as f64,
                // Nearest rank with exactly `beyond` samples above it.
                value: s[n - 1 - beyond],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 50.0,
        value: median(samples),
        samples: n,
    }
}

/// Nearest-rank percentile; 0 for no samples.
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    v[((v.len() * pct).div_ceil(100)).clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        // Two samples extrapolate, as Python does: [7.5, 15.0, 22.5].
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has ten beyond it.
        let t = tail(&xs(1000), 99);
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 400 samples: p99 has four beyond, p95 has twenty.
        let t = tail(&xs(400), 99);
        assert_eq!((t.percentile, t.value), (95.0, 380.0));
        // 150 samples: p95 has seven beyond, p90 has fifteen.
        assert_eq!(tail(&xs(150), 99).percentile, 90.0);
        // 100 samples: p90 has exactly ten beyond.
        assert_eq!(tail(&xs(100), 99).percentile, 90.0);
        // 40 samples: only p75 qualifies (ten beyond).
        let t = tail(&xs(40), 99);
        assert_eq!((t.percentile, t.value), (75.0, 30.0));
        // 8 samples: nothing above the median is trustworthy.
        let t = tail(&xs(8), 99);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 4.5, 8));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95), 19.0);
        assert_eq!(percentile(&xs, 50), 10.0);
        assert_eq!(percentile(&xs, 100), 20.0);
        assert_eq!(percentile(&[], 95), 0.0);
    }

    #[test]
    fn tail_never_exceeds_the_stated_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 90).percentile, 90.0);
        assert_eq!(tail(&xs, 75).percentile, 75.0);
        assert_eq!(tail(&xs[..150], 75).percentile, 75.0);
        assert_eq!(tail(&xs[..30], 75).percentile, 50.0);
    }
}
