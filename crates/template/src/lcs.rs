//! Longest common subsequence in linear space (Hirschberg's algorithm).
//!
//! Template induction aligns multi-thousand-token pages; the classic DP
//! table would need `O(n·m)` memory, so we use Hirschberg's divide-and-
//! conquer formulation: `O(n·m)` time but `O(min(n, m))` space.

use tableseg_html::Symbol;

/// Computes the matched index pairs of one longest common subsequence of
/// `a` and `b`. Pairs are returned in increasing order of both indices.
pub fn lcs_indices(a: &[Symbol], b: &[Symbol]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    hirschberg(a, b, 0, 0, &mut out);
    out
}

/// Computes only the *length* of the LCS, in linear space.
pub fn lcs_length(a: &[Symbol], b: &[Symbol]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    *forward_row(a, b).last().expect("row is len b+1") as usize
}

/// Last row of the LCS length DP for `a` vs `b` (forward direction).
/// `row[j]` = LCS length of `a` and `b[..j]`. Shared with the histogram
/// path ([`crate::histogram`]), which uses it for its exact midpoint
/// splits.
pub(crate) fn forward_row(a: &[Symbol], b: &[Symbol]) -> Vec<u32> {
    let mut row = vec![0u32; b.len() + 1];
    for &ai in a {
        let mut diag = 0; // row[j-1] from the previous iteration
        for j in 1..=b.len() {
            let up = row[j];
            row[j] = if ai == b[j - 1] {
                diag + 1
            } else {
                up.max(row[j - 1])
            };
            diag = up;
        }
    }
    row
}

/// Same as [`forward_row`] but over the reversed sequences.
/// `row[j]` = LCS length of `a` reversed and the last `j` items of `b`.
pub(crate) fn backward_row(a: &[Symbol], b: &[Symbol]) -> Vec<u32> {
    let mut row = vec![0u32; b.len() + 1];
    for &ai in a.iter().rev() {
        let mut diag = 0;
        for j in 1..=b.len() {
            let up = row[j];
            let bj = b[b.len() - j];
            row[j] = if ai == bj {
                diag + 1
            } else {
                up.max(row[j - 1])
            };
            diag = up;
        }
    }
    row
}

fn hirschberg(
    a: &[Symbol],
    b: &[Symbol],
    a_off: usize,
    b_off: usize,
    out: &mut Vec<(usize, usize)>,
) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    if a.len() == 1 {
        if let Some(j) = b.iter().position(|&x| x == a[0]) {
            out.push((a_off, b_off + j));
        }
        return;
    }
    let mid = a.len() / 2;
    let fwd = forward_row(&a[..mid], b);
    let bwd = backward_row(&a[mid..], b);
    // Find split point of b maximizing fwd[j] + bwd[b.len() - j].
    let mut best_j = 0;
    let mut best = 0;
    for j in 0..=b.len() {
        let score = fwd[j] + bwd[b.len() - j];
        if score > best {
            best = score;
            best_j = j;
        }
    }
    hirschberg(&a[..mid], &b[..best_j], a_off, b_off, out);
    hirschberg(&a[mid..], &b[best_j..], a_off + mid, b_off + best_j, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference quadratic-space LCS for cross-checking.
    fn lcs_reference(a: &[Symbol], b: &[Symbol]) -> usize {
        let mut dp = vec![vec![0usize; b.len() + 1]; a.len() + 1];
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                dp[i][j] = if a[i - 1] == b[j - 1] {
                    dp[i - 1][j - 1] + 1
                } else {
                    dp[i - 1][j].max(dp[i][j - 1])
                };
            }
        }
        dp[a.len()][b.len()]
    }

    fn check_valid(a: &[Symbol], b: &[Symbol], pairs: &[(usize, usize)]) {
        // Pairs strictly increasing in both coordinates, and matching.
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0, "a indices increase");
            assert!(w[0].1 < w[1].1, "b indices increase");
        }
        for &(i, j) in pairs {
            assert_eq!(a[i], b[j], "pair matches");
        }
    }

    #[test]
    fn simple_cases() {
        assert_eq!(lcs_length(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(lcs_length(&[1, 2, 3], &[4, 5, 6]), 0);
        assert_eq!(lcs_length(&[], &[1]), 0);
        assert_eq!(lcs_length(&[1], &[]), 0);
        assert_eq!(lcs_length(&[1, 3, 5, 7], &[0, 3, 4, 7, 9]), 2);
    }

    #[test]
    fn indices_match_length() {
        let a = [1, 9, 2, 8, 3, 7, 4];
        let b = [9, 1, 2, 3, 8, 7, 4, 4];
        let pairs = lcs_indices(&a, &b);
        check_valid(&a, &b, &pairs);
        assert_eq!(pairs.len(), lcs_reference(&a, &b));
    }

    /// Regression for the `hirschberg` recursion boundaries: every mix of
    /// length-0 and length-1 slices must terminate and produce a valid
    /// trace. The `a.len() == 1` base case and the `mid = a.len() / 2`
    /// split (`mid == 0` when `a.len() == 1`) are exactly the shapes the
    /// recursion bottoms out on, so each is pinned here explicitly.
    #[test]
    fn degenerate_slice_boundaries() {
        // Empty × {empty, one, many}.
        assert!(lcs_indices(&[], &[]).is_empty());
        assert!(lcs_indices(&[], &[7]).is_empty());
        assert!(lcs_indices(&[7], &[]).is_empty());
        assert!(lcs_indices(&[], &[1, 2, 3]).is_empty());
        // Singleton a: base case scans b for the first occurrence.
        assert_eq!(lcs_indices(&[5], &[9, 5, 5]), vec![(0, 1)]);
        assert_eq!(lcs_indices(&[5], &[9, 8]), vec![]);
        // Singleton b: the split puts everything on one side of b. The
        // trace may pick either 5 of a; only validity and length are
        // pinned.
        let pairs = lcs_indices(&[9, 5, 5], &[5]);
        check_valid(&[9, 5, 5], &[5], &pairs);
        assert_eq!(pairs.len(), 1);
        assert_eq!(lcs_indices(&[3, 4], &[4]), vec![(1, 0)]);
        // Two-element a: mid == 1, both halves are singletons.
        assert_eq!(lcs_indices(&[1, 2], &[1, 2]), vec![(0, 0), (1, 1)]);
        assert_eq!(lcs_indices(&[2, 1], &[1, 2]).len(), 1);
        // Lengths agree with the trace on every shape above.
        for (a, b) in [
            (vec![], vec![]),
            (vec![5], vec![9, 5, 5]),
            (vec![9, 5, 5], vec![5]),
            (vec![2, 1], vec![1, 2]),
        ] {
            let a: Vec<Symbol> = a;
            let b: Vec<Symbol> = b;
            assert_eq!(lcs_indices(&a, &b).len(), lcs_length(&a, &b));
        }
    }

    #[test]
    fn repeated_symbols() {
        let a = [1, 1, 1, 2, 1, 1];
        let b = [1, 2, 1, 1, 2, 1];
        let pairs = lcs_indices(&a, &b);
        check_valid(&a, &b, &pairs);
        assert_eq!(pairs.len(), lcs_reference(&a, &b));
    }

    #[test]
    fn template_like_streams() {
        // Two "pages": shared header/footer, different middles.
        let a = [100, 101, 1, 2, 3, 102, 103];
        let b = [100, 101, 4, 5, 102, 103];
        let pairs = lcs_indices(&a, &b);
        check_valid(&a, &b, &pairs);
        let common: Vec<Symbol> = pairs.iter().map(|&(i, _)| a[i]).collect();
        assert_eq!(common, [100, 101, 102, 103]);
    }

    proptest! {
        #[test]
        fn prop_matches_reference(
            a in proptest::collection::vec(0u32..8, 0..60),
            b in proptest::collection::vec(0u32..8, 0..60),
        ) {
            let pairs = lcs_indices(&a, &b);
            check_valid(&a, &b, &pairs);
            prop_assert_eq!(pairs.len(), lcs_reference(&a, &b));
            prop_assert_eq!(lcs_length(&a, &b), lcs_reference(&a, &b));
        }

        #[test]
        fn prop_lcs_of_self_is_identity(a in proptest::collection::vec(0u32..50, 0..80)) {
            let pairs = lcs_indices(&a, &a);
            prop_assert_eq!(pairs.len(), a.len());
            for (k, &(i, j)) in pairs.iter().enumerate() {
                prop_assert_eq!(i, k);
                prop_assert_eq!(j, k);
            }
        }

        /// Oracle at page-like scale: Hirschberg output equals the naive
        /// quadratic DP on random sequences up to length 200, across
        /// alphabet sizes from near-constant (dense repeats, the worst
        /// case for split-point recursion) to near-unique.
        #[test]
        fn prop_oracle_up_to_length_200(
            ab in (1u32..16).prop_flat_map(|k| (
                proptest::collection::vec(0..k, 0..201),
                proptest::collection::vec(0..k, 0..201),
            )),
        ) {
            let (a, b) = ab;
            let pairs = lcs_indices(&a, &b);
            check_valid(&a, &b, &pairs);
            let want = lcs_reference(&a, &b);
            prop_assert_eq!(pairs.len(), want, "Hirschberg trace shorter than DP optimum");
            prop_assert_eq!(lcs_length(&a, &b), want, "linear-space length disagrees with DP");
        }

        #[test]
        fn prop_subsequence_fully_matched(
            a in proptest::collection::vec(0u32..20, 1..60),
            mask in proptest::collection::vec(proptest::bool::ANY, 1..60),
        ) {
            // b = subsequence of a selected by mask; LCS length must be |b|.
            let b: Vec<Symbol> = a
                .iter()
                .zip(mask.iter().chain(std::iter::repeat(&false)))
                .filter_map(|(&x, &keep)| keep.then_some(x))
                .collect();
            prop_assert_eq!(lcs_length(&a, &b), b.len());
        }
    }
}
