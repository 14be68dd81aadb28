//! Order statistics: percentiles of latency samples, the rule that picks
//! each workload's tail percentile, and the quartile spread the A/A
//! check (and the driver) judge steadiness by.

/// The tail levels a `*_tail_us` metric may use, highest first. `p90` is
/// only there for `batch_bulk`, whose write unit is a whole 1 000-statement
/// transaction: a run holds a few hundred of them.
pub const TAIL_LEVELS: [u32; 4] = [999, 990, 950, 900];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille`/1000 quantile among `n`
/// samples, in exact integer arithmetic (p99.9 of 10 000 is rank 9 990,
/// which `0.999 * 10_000.0` does not reliably give).
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; levels are given in
/// permille (500 = median, 999 = p99.9).
pub fn percentile(sorted: &[f64], permille: u32) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), permille) - 1])
}

/// Median that averages the two middle values of an even-sized sample
/// (what `statistics.median` does; used for per-run medians of few
/// values, e.g. three set-ups).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Number of samples strictly beyond the nearest-rank percentile.
pub fn beyond(n: usize, permille: u32) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// The [`TAIL_LEVELS`] with at least [`TAIL_MIN_BEYOND`] samples beyond
/// them in a sample of `n`, highest first — the statistical half of the
/// tail rule. (The other half, "repeats within its bound", is decided
/// from A/A runs and pinned per workload in `Workload::tail_permille`.)
pub fn supported_tails(n: usize) -> impl Iterator<Item = u32> {
    TAIL_LEVELS
        .into_iter()
        .filter(move |&level| beyond(n, level) >= TAIL_MIN_BEYOND)
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the driver's definition.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Position i·(n+1)/4 on a 1-based scale, clamped like CPython.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the spread the
/// bounds in `BENCHMARK.json` are compared with.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), Some(50.0));
        assert_eq!(percentile(&sorted, 990), Some(99.0));
        assert_eq!(percentile(&sorted, 1000), Some(100.0));
        assert_eq!(percentile(&sorted, 0), Some(1.0));
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&[7.0], 999), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99.9 of 10 000 leaves exactly 10 beyond; one fewer does not.
        assert_eq!(beyond(10_000, 999), 10);
        assert_eq!(supported_tails(10_000).next(), Some(999));
        assert_eq!(supported_tails(9_999).next(), Some(990));
        assert_eq!(supported_tails(1_000).next(), Some(990));
        assert_eq!(supported_tails(999).next(), Some(950));
        assert_eq!(supported_tails(200).next(), Some(950));
        assert_eq!(supported_tails(199).next(), Some(900));
        assert_eq!(supported_tails(100).next(), Some(900));
        assert_eq!(supported_tails(99).next(), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&values), Some(1.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
