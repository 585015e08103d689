//! Order statistics the benchmark reports: percentiles of samples, medians
//! over the sub-windows of a timed window (rates and percentiles alike),
//! and the quartile spread `run.sh --repeat` and the README quote.

/// Sub-windows a timed window is cut into. A gated rate or percentile is
/// that of the median sub-window, so a stall or a burst of noise from the
/// shared host in one or two of them does not move it.
pub const SUBWINDOWS: usize = 5;

/// The `p`-th percentile (0–100) of `sorted`, nearest-rank: the smallest
/// sample with at least `p` % of the samples at or below it. `sorted`
/// must be ascending; an empty slice reads 0.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance driver uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |q: usize| {
        // Rank q·(n+1)/4, clamped to 1..n-1; the remainder is taken
        // after clamping, so small samples extrapolate as Python does.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((q * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Per-sub-window rates from cumulative counter readings taken at the
/// sub-window boundaries (`cumulative[0]` is the reading at window
/// start), each sub-window lasting `sub_secs`.
pub fn subwindow_rates(cumulative: &[u64], sub_secs: f64) -> Vec<f64> {
    cumulative
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / sub_secs)
        .collect()
}

/// The median over the sub-windows of each one's `p`-th percentile. Every
/// list must be ascending.
pub fn subwindow_percentile<T: Copy + Into<f64>>(subwindows: &[Vec<T>], p: f64) -> f64 {
    let each: Vec<f64> = subwindows.iter().map(|s| percentile(s, p)).collect();
    median(&each)
}

/// The median over the sub-windows of each one's mean.
pub fn subwindow_mean<T: Copy + Into<f64>>(subwindows: &[Vec<T>]) -> f64 {
    let each: Vec<f64> = subwindows
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.iter().map(|&v| v.into()).sum::<f64>() / s.len() as f64)
        .collect();
    median(&each)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7u32], 99.0), 7.0);
        assert_eq!(percentile::<u32>(&[], 50.0), 0.0);
        // Ten samples: p90 is the ninth, p91 already the tenth.
        let ten: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 91.0), 10.0);
    }

    #[test]
    fn median_of_subwindow_rates_ignores_one_stall() {
        // Five 2 s sub-windows, one of which stalled.
        let cumulative = [100, 300, 500, 520, 720, 920];
        let rates = subwindow_rates(&cumulative, 2.0);
        assert_eq!(rates, vec![100.0, 100.0, 10.0, 100.0, 100.0]);
        assert_eq!(median(&rates), 100.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_subwindow_percentiles_ignores_one_burst() {
        // Five sub-windows of ten samples; a burst of noise makes every
        // latency of one of them ten times as long. Over all fifty samples
        // the 90th percentile would be one of the burst's (50); the median
        // sub-window's is not moved.
        let calm: Vec<u32> = (1..=10).collect();
        let burst: Vec<u32> = (1..=10).map(|v| v * 10).collect();
        let subs = vec![calm.clone(), calm.clone(), burst, calm.clone(), calm];
        assert_eq!(subwindow_percentile(&subs, 90.0), 9.0);
        assert_eq!(subwindow_percentile(&subs, 50.0), 5.0);
        let mut all: Vec<u32> = subs.concat();
        all.sort_unstable();
        assert_eq!(percentile(&all, 90.0), 50.0);
        assert_eq!(subwindow_percentile::<u32>(&[], 50.0), 0.0);
        // Likewise the mean: 5.5 in a calm sub-window, 55 in the burst.
        assert_eq!(subwindow_mean(&subs), 5.5);
        assert_eq!(subwindow_mean::<u32>(&[Vec::new()]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
