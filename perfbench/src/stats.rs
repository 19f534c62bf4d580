//! Order statistics for the benchmark's reports.

/// A percentile together with the sample count it was taken from and the
/// number of samples that lie strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least ten samples lie beyond the percentile, the minimum
    /// for a tail figure that is not just the largest few samples.
    pub fn has_tail(&self) -> bool {
        self.beyond >= 10
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `p` outside (0, 100].
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let v = sorted(values);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile {
        value: v[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this crate prints match the ones computed from its
/// output with the standard library.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread figure the benchmark bounds are compared against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// Length of the blocks [`block_rate`] groups work into.
pub const RATE_BLOCK_MS: f64 = 1000.0;

/// Median throughput over blocks of consecutive work: `work` holds
/// `(units, ms)` per sample in the order they ran, consecutive samples are
/// grouped until a group covers at least `block_ms`, and each full group's
/// rate is its units per second. A short tail group is dropped unless it
/// is the only one. Returns the median rate and the number of groups.
///
/// Grouping by time rather than by sample keeps every group long enough
/// to hold the work's periodic costs (list rebuilds, checkpoints,
/// admissions), and the median keeps a host slowdown that covers less
/// than half the run from moving the figure.
///
/// # Panics
/// Panics on empty `work`.
pub fn block_rate(work: &[(f64, f64)], block_ms: f64) -> (f64, usize) {
    assert!(!work.is_empty(), "block rate of no work");
    let mut rates = Vec::new();
    let (mut units, mut ms) = (0.0, 0.0);
    for &(u, t) in work {
        units += u;
        ms += t;
        if ms >= block_ms {
            rates.push(units / ms * 1e3);
            (units, ms) = (0.0, 0.0);
        }
    }
    if rates.is_empty() {
        rates.push(units / ms * 1e3);
    }
    (median(&rates), rates.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_and_tail_count() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 95.0);
        assert_eq!(p95.value, 190.0);
        assert_eq!(p95.n, 200);
        assert_eq!(p95.beyond, 10);
        assert!(p95.has_tail());
        let p50 = percentile(&v, 50.0);
        assert_eq!((p50.value, p50.beyond), (100.0, 100));
    }

    #[test]
    fn percentile_with_too_few_samples_has_no_tail() {
        let v: Vec<f64> = (1..=199).rev().map(f64::from).collect();
        let p95 = percentile(&v, 95.0);
        assert_eq!(p95.value, 190.0);
        assert_eq!(p95.beyond, 9);
        assert!(!p95.has_tail());
        let one = percentile(&[4.0], 95.0);
        assert_eq!((one.value, one.n, one.beyond), (4.0, 1, 0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the ends
        // extrapolate from the clamped interpolation rank.
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn block_rate_is_median_over_full_time_blocks() {
        // Three 1 s blocks at 10, 20 and 40 units/s, then a short tail.
        let mut work = vec![(10.0, 1000.0), (10.0, 500.0), (10.0, 500.0)];
        work.extend([(40.0, 1000.0), (99.0, 10.0)]);
        assert_eq!(block_rate(&work, 1000.0), (20.0, 3));
        // Too little work for one block: everything is one block.
        assert_eq!(block_rate(&[(3.0, 100.0), (1.0, 100.0)], 1000.0), (20.0, 1));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-15);
    }
}
