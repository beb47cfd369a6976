//! Histogram-accelerated longest common subsequence over interned
//! symbol streams.
//!
//! Template induction spends its time in pairwise LCS over the candidate
//! streams ([`mod@crate::induce`]), and Hirschberg's algorithm ([`crate::lcs`])
//! costs `O(n·m)` per pair regardless of how similar the pages are. This
//! module applies the histogram idea from histogram diff (imara-diff,
//! `git diff --histogram`): build per-symbol occurrence counts for the
//! window, use them to discard everything that cannot match, and anchor
//! the alignment on the rarest tokens. Unlike the diff tools — which
//! accept approximate answers — every reduction used here is *exact*, so
//! the result is always a true LCS and the Hirschberg path can serve as a
//! differential oracle.
//!
//! The recursion applies, in order:
//!
//! 1. **Common prefix/suffix stripping.** `LCS(xα, xβ) = x · LCS(α, β)`
//!    (and symmetrically for suffixes), so equal margins are matched
//!    outright. Templated pages share their header and footer verbatim,
//!    which makes this the dominant reduction on real sites.
//! 2. **Common-symbol filtering.** A symbol absent from the other side of
//!    the window can never be part of a common subsequence; the histogram
//!    drops it. Page data (names, amounts) rarely repeats across pages,
//!    so this collapses full page streams to near-template size.
//! 3. **Unique-window fast path.** When every remaining symbol occurs
//!    exactly once on each side — the rarest-token degenerate case, and
//!    the *invariant* case for induction's candidate streams (candidates
//!    are once-per-page by construction) — the LCS equals the longest
//!    increasing subsequence of the occurrence pairing, solved by
//!    patience sorting in `O(k log k)`.
//! 4. **Exact midpoint split.** Mixed windows larger than
//!    [`FALLBACK_CUTOFF`] are split at the Hirschberg midpoint (one
//!    forward + one backward DP row over the *filtered* window) and both
//!    sides recurse from step 1, re-filtering as they go.
//! 5. **Hirschberg fallback.** Small mixed windows go straight to the
//!    quadratic DP, which is faster than further bookkeeping.

use tableseg_html::intern::FastMap;
use tableseg_html::Symbol;

use crate::lcs::{backward_row, forward_row, lcs_indices};

/// Mixed windows (repeated symbols on both sides) at or below this size
/// are handed to the Hirschberg DP instead of being split further: at
/// `24 × 24` the quadratic table is cheaper than another histogram pass.
pub const FALLBACK_CUTOFF: usize = 24;

/// How the histogram recursion resolved its windows; the differential
/// and perf layers use these to prove the fast path actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LcsStats {
    /// Windows solved by the unique-symbol patience-LIS fast path.
    pub unique_windows: usize,
    /// Windows solved by the Hirschberg DP fallback.
    pub fallback_windows: usize,
    /// Windows split at an exact midpoint and recursed.
    pub split_windows: usize,
}

impl LcsStats {
    /// Sums another stats record into this one.
    pub fn merge(&mut self, other: &LcsStats) {
        self.unique_windows += other.unique_windows;
        self.fallback_windows += other.fallback_windows;
        self.split_windows += other.split_windows;
    }
}

/// Computes the matched index pairs of one longest common subsequence of
/// `a` and `b` via the histogram recursion. Pairs are returned in
/// increasing order of both indices.
///
/// Produces a trace of the same *length* as [`lcs_indices`]
/// on every input (the reductions are exact); the traces themselves may
/// differ when several LCSs exist.
pub fn lcs_indices_histogram(a: &[Symbol], b: &[Symbol]) -> Vec<(usize, usize)> {
    lcs_indices_histogram_stats(a, b).0
}

/// [`lcs_indices_histogram`] plus the per-call window statistics.
pub fn lcs_indices_histogram_stats(a: &[Symbol], b: &[Symbol]) -> (Vec<(usize, usize)>, LcsStats) {
    let mut out = Vec::new();
    let mut stats = LcsStats::default();
    let aw: Vec<(Symbol, u32)> = a.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
    let bw: Vec<(Symbol, u32)> = b.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
    solve(aw, bw, &mut out, &mut stats);
    // Matches are emitted per-window; windows are disjoint and ordered
    // consistently in both sequences, but emission order interleaves
    // (prefix strips come before recursion, suffix strips after).
    out.sort_unstable();
    (out, stats)
}

/// One recursion window. Sequences carry their original indices so the
/// emitted pairs survive filtering and splitting.
fn solve(
    mut a: Vec<(Symbol, u32)>,
    mut b: Vec<(Symbol, u32)>,
    out: &mut Vec<(usize, usize)>,
    stats: &mut LcsStats,
) {
    loop {
        // 1. Strip the common prefix and suffix, matching them outright.
        let mut p = 0;
        while p < a.len() && p < b.len() && a[p].0 == b[p].0 {
            out.push((a[p].1 as usize, b[p].1 as usize));
            p += 1;
        }
        a.drain(..p);
        b.drain(..p);
        let mut s = 0;
        while s < a.len() && s < b.len() && a[a.len() - 1 - s].0 == b[b.len() - 1 - s].0 {
            out.push((a[a.len() - 1 - s].1 as usize, b[b.len() - 1 - s].1 as usize));
            s += 1;
        }
        a.truncate(a.len() - s);
        b.truncate(b.len() - s);
        if a.is_empty() || b.is_empty() {
            return;
        }

        // 2. Histogram the window and drop symbols not common to both
        //    sides. `counts[sym] = [occurrences in a, occurrences in b]`.
        let mut counts: FastMap<Symbol, [u32; 2]> = FastMap::default();
        for &(sym, _) in &a {
            counts.entry(sym).or_default()[0] += 1;
        }
        for &(sym, _) in &b {
            // Symbols absent from `a` can never match; no entry needed.
            if let Some(c) = counts.get_mut(&sym) {
                c[1] += 1;
            }
        }
        let common = |sym: Symbol| counts.get(&sym).is_some_and(|c| c[0] > 0 && c[1] > 0);
        let before = (a.len(), b.len());
        a.retain(|&(sym, _)| common(sym));
        b.retain(|&(sym, _)| common(sym));
        if a.is_empty() || b.is_empty() {
            return;
        }
        if (a.len(), b.len()) != before {
            // Filtering may expose a new common margin; restart the loop.
            continue;
        }

        // 3. Rarest-token degenerate case: every common symbol occurs
        //    exactly once on each side, so the LCS is the longest
        //    increasing subsequence of the occurrence pairing.
        let all_unique = counts
            .values()
            .all(|&[ca, cb]| cb == 0 || (ca == 1 && cb == 1));
        if all_unique {
            stats.unique_windows += 1;
            patience_lis(&a, &b, out);
            return;
        }

        // 5. Small mixed window: quadratic DP beats more bookkeeping.
        if a.len().min(b.len()) <= FALLBACK_CUTOFF {
            stats.fallback_windows += 1;
            let asyms: Vec<Symbol> = a.iter().map(|&(sym, _)| sym).collect();
            let bsyms: Vec<Symbol> = b.iter().map(|&(sym, _)| sym).collect();
            for (i, j) in lcs_indices(&asyms, &bsyms) {
                out.push((a[i].1 as usize, b[j].1 as usize));
            }
            return;
        }

        // 4. Exact midpoint split over the filtered window; both halves
        //    re-enter the reduction pipeline.
        stats.split_windows += 1;
        let mid = a.len() / 2;
        let asyms: Vec<Symbol> = a.iter().map(|&(sym, _)| sym).collect();
        let bsyms: Vec<Symbol> = b.iter().map(|&(sym, _)| sym).collect();
        let fwd = forward_row(&asyms[..mid], &bsyms);
        let bwd = backward_row(&asyms[mid..], &bsyms);
        let mut best_j = 0;
        let mut best = 0;
        for j in 0..=b.len() {
            let score = fwd[j] + bwd[b.len() - j];
            if score > best {
                best = score;
                best_j = j;
            }
        }
        let a_right = a.split_off(mid);
        let b_right = b.split_off(best_j);
        solve(a, b, out, stats);
        solve(a_right, b_right, out, stats);
        return;
    }
}

/// Longest strictly-increasing subsequence of the unique-symbol pairing:
/// iterate `a` in order, map each symbol to its (single) position in `b`,
/// and patience-sort the `b` positions. Emits the matched original-index
/// pairs in window order.
fn patience_lis(a: &[(Symbol, u32)], b: &[(Symbol, u32)], out: &mut Vec<(usize, usize)>) {
    let mut b_pos: FastMap<Symbol, u32> = FastMap::default();
    for (j, &(sym, _)) in b.iter().enumerate() {
        b_pos.insert(sym, j as u32);
    }
    // seq[k] = (position in b, index into a) for the k-th common symbol
    // of a. Every symbol of the filtered window is common and unique, so
    // the lookup always succeeds.
    let seq: Vec<(u32, u32)> = a
        .iter()
        .enumerate()
        .filter_map(|(i, &(sym, _))| b_pos.get(&sym).map(|&j| (j, i as u32)))
        .collect();
    // Patience piles: tails[k] = index into seq of the smallest b-position
    // ending an increasing subsequence of length k + 1.
    let mut tails: Vec<u32> = Vec::new();
    let mut parent: Vec<u32> = vec![u32::MAX; seq.len()];
    for (i, &(bj, _)) in seq.iter().enumerate() {
        let pos = tails.partition_point(|&t| seq[t as usize].0 < bj);
        if pos > 0 {
            parent[i] = tails[pos - 1];
        }
        if pos == tails.len() {
            tails.push(i as u32);
        } else {
            tails[pos] = i as u32;
        }
    }
    let mut picked = Vec::with_capacity(tails.len());
    let mut cur = tails.last().copied();
    while let Some(i) = cur {
        picked.push(i);
        cur = match parent[i as usize] {
            u32::MAX => None,
            p => Some(p),
        };
    }
    for &i in picked.iter().rev() {
        let (bj, ai) = seq[i as usize];
        out.push((a[ai as usize].1 as usize, b[bj as usize].1 as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::lcs_length;
    use proptest::prelude::*;

    /// Valid common subsequence: strictly increasing in both coordinates,
    /// every pair matching.
    fn check_valid(a: &[Symbol], b: &[Symbol], pairs: &[(usize, usize)]) {
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0, "a indices increase: {pairs:?}");
            assert!(w[0].1 < w[1].1, "b indices increase: {pairs:?}");
        }
        for &(i, j) in pairs {
            assert_eq!(a[i], b[j], "pair ({i}, {j}) matches");
        }
    }

    fn check_against_oracle(a: &[Symbol], b: &[Symbol]) {
        let (pairs, _) = lcs_indices_histogram_stats(a, b);
        check_valid(a, b, &pairs);
        assert_eq!(
            pairs.len(),
            lcs_length(a, b),
            "histogram LCS length differs from Hirschberg on {a:?} / {b:?}"
        );
    }

    #[test]
    fn degenerate_empty() {
        check_against_oracle(&[], &[]);
        check_against_oracle(&[], &[1, 2, 3]);
        check_against_oracle(&[1, 2, 3], &[]);
    }

    #[test]
    fn degenerate_all_unique() {
        // Disjoint alphabets: everything filtered, LCS empty.
        check_against_oracle(&[1, 2, 3], &[4, 5, 6]);
        // Permuted unique symbols: the patience path.
        let a = [1, 9, 2, 8, 3, 7, 4];
        let b = [9, 1, 2, 3, 8, 7, 4];
        check_against_oracle(&a, &b);
        let (pairs, stats) = lcs_indices_histogram_stats(&a, &b);
        assert!(stats.unique_windows >= 1, "{stats:?}");
        assert_eq!(pairs.len(), 5);
    }

    #[test]
    fn degenerate_all_identical() {
        check_against_oracle(&[7; 40], &[7; 25]);
        let (pairs, _) = lcs_indices_histogram_stats(&[7; 40], &[7; 25]);
        // Prefix stripping matches the whole shorter run.
        assert_eq!(pairs.len(), 25);
    }

    #[test]
    fn degenerate_prefix_of_other() {
        let a: Vec<Symbol> = (0..30).collect();
        let b: Vec<Symbol> = (0..12).collect();
        check_against_oracle(&a, &b);
        let (pairs, _) = lcs_indices_histogram_stats(&a, &b);
        assert_eq!(pairs.len(), 12);
        // A subsequence (not prefix) is still fully matched.
        let sub: Vec<Symbol> = a.iter().copied().step_by(3).collect();
        let (pairs, _) = lcs_indices_histogram_stats(&a, &sub);
        assert_eq!(pairs.len(), sub.len());
    }

    #[test]
    fn template_like_streams_take_the_fast_path() {
        // Shared chrome around differing middles, as induction sees after
        // candidate filtering (every symbol once per page).
        let a = [100, 101, 1, 2, 3, 102, 103];
        let b = [100, 101, 4, 5, 102, 103];
        let (pairs, stats) = lcs_indices_histogram_stats(&a, &b);
        check_valid(&a, &b, &pairs);
        assert_eq!(pairs.len(), 4);
        // Fully resolved by stripping + filtering: no DP fallback, no
        // split.
        assert_eq!(stats.fallback_windows, 0, "{stats:?}");
        assert_eq!(stats.split_windows, 0, "{stats:?}");
    }

    #[test]
    fn mixed_window_falls_back_exactly() {
        // Repeats force the DP fallback; length must still be optimal.
        let a = [1, 1, 2, 1, 3, 1, 2, 9];
        let b = [2, 1, 1, 3, 2, 1, 9, 9];
        let (pairs, stats) = lcs_indices_histogram_stats(&a, &b);
        check_valid(&a, &b, &pairs);
        assert_eq!(pairs.len(), lcs_length(&a, &b));
        assert!(stats.fallback_windows >= 1, "{stats:?}");
    }

    #[test]
    fn large_mixed_window_splits() {
        // Two long interleaved repeat patterns, bigger than the fallback
        // cutoff, with no common margins: must take the split path and
        // still match the oracle.
        let a: Vec<Symbol> = (0..120).map(|i| [5, 6, 5, 7][i % 4]).collect();
        let mut b: Vec<Symbol> = (0..110).map(|i| [6, 5, 7, 7][i % 4]).collect();
        b.insert(0, 99); // kill the common prefix
        b.push(98); // and the common suffix
        let (pairs, stats) = lcs_indices_histogram_stats(&a, &b);
        check_valid(&a, &b, &pairs);
        assert_eq!(pairs.len(), lcs_length(&a, &b));
        assert!(stats.split_windows >= 1, "{stats:?}");
    }

    proptest! {
        /// The tentpole differential property: the histogram path is a
        /// valid common subsequence of the same length as the Hirschberg
        /// oracle, on random interned streams across alphabet densities.
        #[test]
        fn prop_histogram_equals_hirschberg(
            ab in (1u32..24).prop_flat_map(|k| (
                proptest::collection::vec(0..k, 0..120),
                proptest::collection::vec(0..k, 0..120),
            )),
        ) {
            let (a, b) = ab;
            let (pairs, _) = lcs_indices_histogram_stats(&a, &b);
            check_valid(&a, &b, &pairs);
            prop_assert_eq!(pairs.len(), lcs_length(&a, &b));
        }

        /// Unique-symbol streams (the induction invariant) always resolve
        /// without the quadratic fallback.
        #[test]
        fn prop_unique_streams_never_fall_back(
            a in proptest::collection::vec(0u32..10_000, 0..200),
            b in proptest::collection::vec(0u32..10_000, 0..200),
        ) {
            let mut a = a;
            let mut b = b;
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            // Shuffle determinism isn't needed: sorted unique streams are
            // a valid (if easy) unique case; reverse one side to vary.
            b.reverse();
            let (pairs, stats) = lcs_indices_histogram_stats(&a, &b);
            check_valid(&a, &b, &pairs);
            prop_assert_eq!(pairs.len(), lcs_length(&a, &b));
            prop_assert_eq!(stats.fallback_windows, 0);
            prop_assert_eq!(stats.split_windows, 0);
        }

        /// Histogram LCS of a sequence with itself is the identity.
        #[test]
        fn prop_self_identity(a in proptest::collection::vec(0u32..50, 0..150)) {
            let (pairs, _) = lcs_indices_histogram_stats(&a, &a);
            prop_assert_eq!(pairs.len(), a.len());
            for (k, &(i, j)) in pairs.iter().enumerate() {
                prop_assert_eq!(i, k);
                prop_assert_eq!(j, k);
            }
        }
    }
}
