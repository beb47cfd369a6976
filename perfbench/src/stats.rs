//! Order statistics for latency samples, and the F measure.
//!
//! Percentiles use the nearest-rank rule on the sorted sample: the value
//! at index `round((n - 1) * p / 100)`. A percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it; a tail figure
//! resting on fewer samples is noise.

use tableseg_eval::classify::PageCounts;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The sample index the nearest-rank rule picks for percentile `p`.
fn rank(n: usize, p: f64) -> usize {
    debug_assert!(n > 0);
    (((n - 1) as f64 * p / 100.0).round() as usize).min(n - 1)
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Nearest-rank percentile `p` of `sorted` (ascending). `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p)]
}

/// The mean over cells of samples, each cell standing for one kind of
/// request (a site, or a site and request class): every sample counts at
/// its cell's median, so the result is `Σ n_c · median_c / Σ n_c`. A
/// stretch of a run on a slow host moves a cell's median only when it
/// holds most of that cell's samples, where it moves a plain mean in
/// proportion to its length. Empty cells are skipped; `NaN` when all are.
pub fn cell_mean(cells: &[Vec<f64>]) -> f64 {
    let (sum, n) = cells
        .iter()
        .filter(|c| !c.is_empty())
        .fold((0.0, 0usize), |(sum, n), c| {
            (sum + c.len() as f64 * median(c), n + c.len())
        });
    sum / n as f64
}

/// The median of the slowest cell: the largest cell median. Unlike a
/// percentile of a sample drawn from a few sites of very different cost,
/// it never jumps from one site's cluster to the next when the mix shifts
/// by one sample. `NaN` when every cell is empty.
pub fn slowest_median(cells: &[Vec<f64>]) -> f64 {
    cells
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| median(c))
        .fold(f64::NAN, f64::max)
}

/// Sorts a sample ascending (latencies are never `NaN`).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median: the mean of the two middle values of an even sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The paper's F measure (Section 6.2): `P = Cor / (Cor + InCor + FP)`,
/// `R = Cor / (Cor + FN)`, `F = 2PR / (P + R)`; zero when undefined.
pub fn f_measure(c: &PageCounts) -> f64 {
    let p_den = c.cor + c.incor + c.fpos;
    let r_den = c.cor + c.fneg;
    if p_den == 0 || r_den == 0 || c.cor == 0 {
        return 0.0;
    }
    let p = c.cor as f64 / p_den as f64;
    let r = c.cor as f64 / r_den as f64;
    2.0 * p * r / (p + r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = sorted(vec![40.0, 10.0, 30.0, 20.0]);
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 50.0), 30.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // n = 100: p90 has 10 samples beyond it (ranks 90..=99 minus the
        // picked one), p95 only 5.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 95.0), 5);
        // n = 1000: p99 has exactly 10 beyond, so it is the highest
        // reportable tail of the warm class at the planned length.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(beyond(900, 99.0) < MIN_BEYOND);
        // Tiny samples support no tail at all.
        assert_eq!(beyond(20, 90.0), 2);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn cell_figures_weigh_each_cell_at_its_median() {
        // Cell medians 2 (three samples) and 10 (one sample); the outlier
        // 100 in the first cell does not count.
        let cells = vec![vec![1.0, 2.0, 100.0], vec![10.0], vec![]];
        assert_eq!(cell_mean(&cells), (3.0 * 2.0 + 10.0) / 4.0);
        assert_eq!(slowest_median(&cells), 10.0);
        assert!(cell_mean(&[vec![]]).is_nan());
        assert!(slowest_median(&[]).is_nan());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn f_measure_of_degenerate_counts_is_zero() {
        assert_eq!(f_measure(&PageCounts::default()), 0.0);
        let perfect = PageCounts {
            cor: 5,
            ..PageCounts::default()
        };
        assert_eq!(f_measure(&perfect), 1.0);
    }
}
