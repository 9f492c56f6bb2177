//! Percentile and window-median arithmetic.
//!
//! Every rate and latency the benchmark reports is the **median of the
//! per-window values** of one run, with the min–max over the windows
//! printed beside it as the spread: one scheduler stall then moves one
//! window, not the reported number.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an ascending slice (mean of the middle pair for an even
/// count). `None` when empty.
fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[mid]),
        _ => Some((sorted[mid - 1] + sorted[mid]) / 2.0),
    }
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of `values`, in any order. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    median_sorted(&ascending(values))
}

/// The `k`-th quartile (1..=3) of an ascending slice, as Python's
/// `statistics.quantiles(values, n=4)` computes it (the exclusive
/// method), so the spreads printed here are the ones the benchmark
/// driver computes. `None` for fewer than two values.
pub fn quartile(sorted: &[f64], k: usize) -> Option<f64> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let position = k * (n + 1);
    let j = (position / 4).clamp(1, n - 1);
    let delta = position as f64 / 4.0 - j as f64;
    Some(sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta)
}

/// A run's per-window values in five numbers: the median is what the
/// run reports, min–max is printed beside it, and the quartiles are
/// what `compare` holds against the metric's bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Median over the windows — the reported value.
    pub median: f64,
    /// Smallest window value.
    pub min: f64,
    /// Largest window value.
    pub max: f64,
    /// First quartile of the window values.
    pub q1: f64,
    /// Third quartile of the window values.
    pub q3: f64,
}

impl WindowSummary {
    /// Summarises per-window values; `None` when there are no windows.
    pub fn of(values: &[f64]) -> Option<WindowSummary> {
        let sorted = ascending(values);
        let median = median_sorted(&sorted)?;
        Some(WindowSummary {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1: quartile(&sorted, 1).unwrap_or(median),
            q3: quartile(&sorted, 3).unwrap_or(median),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // 200 samples leave exactly two beyond p99.
        let v: Vec<u64> = (0..200).collect();
        assert_eq!(percentile(&v, 0.99), Some(197));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn one_stalled_window_moves_the_spread_not_the_median() {
        let windows = [100.0, 101.0, 99.0, 100.5, 40.0, 100.2];
        let s = WindowSummary::of(&windows).unwrap();
        assert!((s.median - 100.1).abs() < 1e-9);
        assert_eq!(s.min, 40.0);
        assert_eq!(s.max, 101.0);
        assert!(
            s.q1 > 40.0 && s.q3 < 101.0,
            "quartiles ignore the stall too"
        );
        assert!(WindowSummary::of(&[]).is_none());
        let one = WindowSummary::of(&[5.0]).unwrap();
        assert_eq!(
            (one.min, one.q1, one.median, one.q3, one.max),
            (5.0, 5.0, 5.0, 5.0, 5.0)
        );
    }

    #[test]
    fn quartiles_are_the_ones_python_statistics_gives() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile(&v, 1), Some(2.75));
        assert_eq!(quartile(&v, 2), Some(5.5));
        assert_eq!(quartile(&v, 3), Some(8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartile(&[1.0, 2.0], 1), Some(0.75));
        assert_eq!(quartile(&[1.0, 2.0], 3), Some(2.25));
        assert_eq!(quartile(&[1.0], 1), None);
    }
}
