//! Model parameters and their M-step updates.

use tableseg_html::TokenType;

/// Laplace smoothing added to every count before normalization.
const SMOOTH: f64 = 0.05;

/// The learnable parameters of the factored model.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// `theta[c][t] = P(T_t = 1 | C = c)` — per-column Bernoulli emission
    /// probabilities for the eight token types.
    pub theta: Vec<[f64; TokenType::COUNT]>,
    /// `trans[c][c']` — within-record column transition `P(C' = c' | C = c)`
    /// for `c' > c`; rows are normalized over their feasible targets.
    pub trans: Vec<Vec<f64>>,
    /// First-column distribution is deterministic (records start at L1),
    /// so it is not stored.
    ///
    /// `pi[l]` — the record-period distribution: probability that a record
    /// ends at column label `l` (0-based; `pi[0]` = records spanning only
    /// L1).
    pub pi: Vec<f64>,
    /// `end_prob[c]` — independently learned per-column record-end
    /// probability, used *instead of* the π-derived hazard when the period
    /// model is disabled (the Figure 2 ablation).
    pub end_prob: Vec<f64>,
}

impl Params {
    /// Uniform initial parameters for `k` columns, with the period prior
    /// `pi` (normalized by the constructor).
    pub fn uniform(num_columns: usize, pi: Vec<f64>) -> Params {
        let theta = vec![[0.5; TokenType::COUNT]; num_columns];
        let mut trans = Vec::with_capacity(num_columns);
        for c in 0..num_columns {
            // Prefer the immediately following column; allow skips with
            // geometric decay.
            let mut row = vec![0.0; num_columns];
            let mut w = 1.0;
            for slot in row.iter_mut().skip(c + 1) {
                *slot = w;
                w *= 0.5;
            }
            normalize(&mut row);
            trans.push(row);
        }
        let mut pi = pi;
        if pi.len() != num_columns {
            pi.resize(num_columns, 0.0);
        }
        normalize_or_uniform(&mut pi);
        let end_prob = vec![0.3; num_columns];
        Params {
            theta,
            trans,
            pi,
            end_prob,
        }
    }

    /// Number of column labels.
    pub fn num_columns(&self) -> usize {
        self.theta.len()
    }

    /// The emission probability `P(T_i | C = c)` for a feature vector.
    pub fn emission(&self, c: usize, features: &[bool; TokenType::COUNT]) -> f64 {
        let th = &self.theta[c];
        let mut p = 1.0;
        for (t, &on) in features.iter().enumerate() {
            p *= if on { th[t] } else { 1.0 - th[t] };
        }
        p
    }

    /// The duration hazard: probability that a record ends at column `c`
    /// given it has reached column `c` — `π(c) / Σ_{l ≥ c} π(l)`.
    ///
    /// Clamped away from 0 and 1 so transitions stay strictly positive.
    pub fn hazard(&self, c: usize) -> f64 {
        let tail: f64 = self.pi[c..].iter().sum();
        let h = if tail <= f64::EPSILON {
            1.0
        } else {
            self.pi[c] / tail
        };
        h.clamp(0.01, 0.99)
    }

    /// The record-end probability at column `c`: the π-derived duration
    /// hazard under the period model, or the independently learned
    /// per-column end probability without it.
    pub fn hazard_for(&self, c: usize, period_model: bool) -> f64 {
        if period_model {
            self.hazard(c)
        } else {
            self.end_prob[c]
        }
    }

    /// M-step: rebuilds parameters from expected counts (with smoothing).
    ///
    /// * `type_counts[c][t]` — expected number of extracts in column `c`
    ///   with feature `t` set; `col_counts[c]` — expected extracts in `c`;
    /// * `trans_counts[c][c']` — expected within-record transitions;
    /// * `end_counts[c]` / `cont_counts[c]` — expected record ends /
    ///   continues out of column `c`.
    pub fn update(
        &mut self,
        type_counts: &[Vec<f64>],
        col_counts: &[f64],
        trans_counts: &[Vec<f64>],
        end_counts: &[f64],
        cont_counts: &[f64],
    ) {
        let k = self.num_columns();
        for c in 0..k {
            for (t, &tc) in type_counts[c].iter().enumerate().take(TokenType::COUNT) {
                self.theta[c][t] = (tc + SMOOTH) / (col_counts[c] + 2.0 * SMOOTH);
            }
        }
        for (c, tcounts) in trans_counts.iter().enumerate().take(k) {
            let mut row: Vec<f64> = (0..k)
                .map(|cp| if cp > c { tcounts[cp] + SMOOTH } else { 0.0 })
                .collect();
            normalize_or_uniform_tail(&mut row, c + 1);
            self.trans[c] = row;
        }
        let mut pi: Vec<f64> = end_counts.iter().map(|&e| e + SMOOTH).collect();
        normalize_or_uniform(&mut pi);
        self.pi = pi;
        for c in 0..k {
            self.end_prob[c] = ((end_counts[c] + SMOOTH)
                / (end_counts[c] + cont_counts[c] + 2.0 * SMOOTH))
                .clamp(0.01, 0.99);
        }
    }
}

/// Normalizes a vector to sum 1; leaves it untouched if the sum is 0.
pub fn normalize(v: &mut [f64]) {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// Normalizes, falling back to the uniform distribution when the sum is 0.
pub fn normalize_or_uniform(v: &mut [f64]) {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    } else if !v.is_empty() {
        let u = 1.0 / v.len() as f64;
        v.fill(u);
    }
}

/// Normalizes `v[from..]`, falling back to uniform over that tail. Entries
/// before `from` are zeroed.
fn normalize_or_uniform_tail(v: &mut [f64], from: usize) {
    let cut = from.min(v.len());
    for x in v[..cut].iter_mut() {
        *x = 0.0;
    }
    if from >= v.len() {
        return;
    }
    let sum: f64 = v[from..].iter().sum();
    if sum > 0.0 {
        for x in v[from..].iter_mut() {
            *x /= sum;
        }
    } else {
        let u = 1.0 / (v.len() - from) as f64;
        for x in v[from..].iter_mut() {
            *x = u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_params_are_normalized() {
        let p = Params::uniform(4, vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(p.num_columns(), 4);
        for c in 0..3 {
            let sum: f64 = p.trans[c].iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {c}: {sum}");
            // Only forward transitions.
            for cp in 0..=c {
                assert_eq!(p.trans[c][cp], 0.0);
            }
        }
        let pi_sum: f64 = p.pi.iter().sum();
        assert!((pi_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn last_column_row_is_all_zero() {
        let p = Params::uniform(3, vec![1.0; 3]);
        assert!(p.trans[2].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn emission_uniform_is_constant() {
        let p = Params::uniform(2, vec![1.0, 1.0]);
        let a = p.emission(0, &[true; 8]);
        let b = p.emission(0, &[false; 8]);
        assert!((a - b).abs() < 1e-12);
        assert!((a - 0.5f64.powi(8)).abs() < 1e-15);
    }

    #[test]
    fn emission_prefers_matching_types() {
        let mut p = Params::uniform(1, vec![1.0]);
        p.theta[0] = [0.9, 0.1, 0.9, 0.1, 0.9, 0.9, 0.1, 0.1];
        let matching = [true, false, true, false, true, true, false, false];
        let opposite = [false, true, false, true, false, false, true, true];
        assert!(p.emission(0, &matching) > p.emission(0, &opposite));
    }

    #[test]
    fn hazard_of_peaked_period() {
        // All records have exactly 3 columns (index 2).
        let mut p = Params::uniform(4, vec![0.0, 0.0, 1.0, 0.0]);
        p.pi = vec![0.0, 0.0, 1.0, 0.0];
        assert!(p.hazard(0) <= 0.01 + 1e-12);
        assert!(p.hazard(1) <= 0.01 + 1e-12);
        assert!(p.hazard(2) >= 0.99 - 1e-12);
    }

    #[test]
    fn hazard_clamps_degenerate_tail() {
        let mut p = Params::uniform(2, vec![1.0, 0.0]);
        p.pi = vec![1.0, 0.0];
        // Past the mass: tail is 0 → hazard clamps to 0.99.
        assert!((p.hazard(1) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn update_normalizes_everything() {
        let mut p = Params::uniform(3, vec![1.0; 3]);
        let type_counts = vec![vec![2.0; 8], vec![0.0; 8], vec![1.0; 8]];
        let col_counts = vec![4.0, 0.0, 2.0];
        let trans_counts = vec![vec![0.0, 3.0, 1.0], vec![0.0, 0.0, 2.0], vec![0.0; 3]];
        let end_counts = vec![0.0, 1.0, 3.0];
        let cont_counts = vec![4.0, 2.0, 0.0];
        p.update(
            &type_counts,
            &col_counts,
            &trans_counts,
            &end_counts,
            &cont_counts,
        );
        for c in 0..3 {
            for t in 0..8 {
                assert!(p.theta[c][t] > 0.0 && p.theta[c][t] < 1.0);
            }
        }
        let s: f64 = p.trans[0].iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p.trans[0][1] > p.trans[0][2]);
        let s: f64 = p.pi.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p.pi[2] > p.pi[1]);
    }

    #[test]
    fn normalize_helpers() {
        let mut v = vec![2.0, 2.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.5, 0.5]);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
        normalize_or_uniform(&mut z);
        assert_eq!(z, vec![0.5, 0.5]);
    }
}
