//! MAP decoding: "In the end we output the most likely assignment to R
//! and C" (Section 5.2.3).
//!
//! A max-product pass over the same transition structure and the same two
//! emission rows per extract that the E-step reads
//! ([`crate::forward_backward::forward_struct`]); no edge list is
//! materialized. The log-space Viterbi decode over the materialized chain
//! is its differential oracle, in the crate's test suite (`tests/oracle`).

use crate::forward_backward::{row_pair, FbWorkspace, Structure, LOG_FALLBACK};
use crate::model::{Dims, Evidence};
use crate::params::Params;
use crate::width::{with_width, Width};
use crate::ProbOptions;

/// The most likely `(R, C)` state path given the emission rows that
/// [`crate::forward_backward::emissions_into`] filled for the same
/// parameters. Returns one state index per extract; empty evidence yields
/// an empty path.
///
/// Scores are log-space sums over the `ln` of each extract's two scaled
/// emission rows; the per-row scaling shifts every path's score by the
/// same `Σᵢ ln maxᵢ`, so the argmax path is unchanged. The chain's
/// record-boundary fan-out from `(r, c)` to every `(r′, 0)`, `r′ > r`,
/// weighs
/// `ln hz(c) + (r′−r−1)·ln q − ln skip_total(r)`, so the best boundary
/// score entering record `r′` is a running maximum:
///
/// ```text
/// B(r)  = max_c δ(r, c) + ln hz(c) − ln skip_total(r)
/// M(r′) = max(M(r′−1) + ln q, B(r′−1))
/// ```
///
/// Each step therefore costs `O(nk · k²)` for the within-record continue
/// edges plus `O(ns)` for boundaries and fallback self-loops, instead of
/// one visit per materialized edge. No state is pruned. Which records
/// hold the extract's detail pages comes from one cursor over its sorted
/// pages. The kernel runs at the page's column count through the E-step's
/// width dispatch, [`with_width!`](crate::width).
///
/// Ties break toward the lowest source state, as a strict `>` over
/// source states in ascending order would: continue candidates are
/// scanned in ascending source column and the fallback self-loop last;
/// `B` keeps the lowest column, `M` keeps the earlier record on equality,
/// and the fallback into `(r′, 0)` wins only when strictly better.
pub fn decode(
    dims: Dims,
    params: &Params,
    opts: &ProbOptions,
    ws: &FbWorkspace,
    evidence: &[Evidence],
) -> Vec<usize> {
    let (n, ns) = (evidence.len(), dims.num_states());
    if n == 0 || ns == 0 {
        return Vec::new();
    }
    let filled = ws.emit_rows.len() == 2 * n * dims.num_columns;
    debug_assert!(filled, "emissions must be filled first");
    assert!(ns < u32::MAX as usize, "states must fit u32 backpointers");
    with_width!(dims.num_columns, w => {
        decode_kernel(w, dims.num_records, params, opts, &ws.emit_rows, evidence)
    })
}

fn decode_kernel<W: Width>(
    w: W,
    nk: usize,
    params: &Params,
    opts: &ProbOptions,
    emit_rows: &[f64],
    evidence: &[Evidence],
) -> Vec<usize> {
    let (n, k) = (evidence.len(), w.k());
    let ns = nk * k;

    // Log structure tables: hazards, continue weights transposed for the
    // pull over source columns, and boundary normalizers
    // `total[m] = Σ_{j<m} q^j`, accumulated in ascending `j`.
    // Cells that are no edge hold 0.0, whose `ln` is −∞.
    let Structure { hz, mut cont_t } = Structure::new(w, params, opts);
    let mut hz_log = w.row(0.0);
    for c in 0..k {
        hz_log[c] = hz[c].ln();
        for x in cont_t[c].as_mut() {
            *x = x.ln();
        }
    }
    let q = opts.skip_penalty;
    let q_log = q.ln();
    let mut total = vec![0.0f64; nk + 1];
    let mut weight = 1.0;
    for m in 0..nk {
        total[m + 1] = total[m] + weight;
        weight *= q;
    }
    let total_log: Vec<f64> = total.iter().map(|t| t.ln()).collect();

    // The `ln` of extract `i`'s on-page and off-page emission rows.
    let (mut on, mut off) = (w.row(0.0), w.row(0.0));
    let ln_rows = |i: usize, on: &mut W::Row, off: &mut W::Row| {
        let (on_row, off_row) = row_pair(emit_rows, i, k);
        for c in 0..k {
            (on[c], off[c]) = (on_row[c].ln(), off_row[c].ln());
        }
    };
    let mut delta = vec![f64::NEG_INFINITY; ns];
    let mut next = vec![f64::NEG_INFINITY; ns];
    // back[i * ns + s] = predecessor state of s at step i.
    let mut back = vec![u32::MAX; n * ns];

    // The first extract starts a record: state (r, 0), geometric over
    // skipped leading records.
    ln_rows(0, &mut on, &mut off);
    let mut weight = 1.0;
    for (r, on_page) in evidence[0].on_pages(0..nk).enumerate() {
        let em = if on_page { &on } else { &off };
        delta[r * k] = (weight / total[nk]).ln() + em[0];
        weight *= q;
    }

    for i in 1..n {
        ln_rows(i, &mut on, &mut off);
        let back_row = &mut back[i * ns..(i + 1) * ns];
        // M(r) and its source state.
        let (mut m, mut m_src) = (f64::NEG_INFINITY, u32::MAX);
        for (r, on_page) in evidence[i].on_pages(0..nk).enumerate() {
            let em = if on_page { &on } else { &off };
            let a = &delta[r * k..(r + 1) * k];
            let out = &mut next[r * k..(r + 1) * k];
            let bk = &mut back_row[r * k..(r + 1) * k];
            let base = (r * k) as u32;

            // Column 0 is entered across the record boundary, later
            // columns by continue edges from earlier ones; the fallback
            // self-loop comes last.
            for cp in 0..k {
                let (mut best, mut src) = if cp == 0 {
                    (m + em[0], m_src)
                } else {
                    (f64::NEG_INFINITY, u32::MAX)
                };
                for (c, (&d, &lp)) in a[..cp].iter().zip(cont_t[cp].as_ref()).enumerate() {
                    let v = d + lp + em[cp];
                    if v > best {
                        (best, src) = (v, base + c as u32);
                    }
                }
                let v = a[cp] + LOG_FALLBACK + em[cp];
                if v > best {
                    (best, src) = (v, base + cp as u32);
                }
                (out[cp], bk[cp]) = (best, src);
            }

            // M(r + 1) = max(M(r) + ln q, B(r)).
            if r + 1 < nk {
                let (mut b, mut b_c) = (f64::NEG_INFINITY, 0);
                for c in 0..k {
                    let v = a[c] + hz_log[c];
                    if v > b {
                        (b, b_c) = (v, c);
                    }
                }
                let b = b - total_log[nk - r - 1];
                m += q_log;
                if b > m {
                    (m, m_src) = (b, base + b_c as u32);
                }
            }
        }
        std::mem::swap(&mut delta, &mut next);
    }

    // Best final state (ties broken toward the lowest state index, which is
    // the earliest record/column — deterministic).
    let mut best_s = 0;
    let mut best = f64::NEG_INFINITY;
    for (s, &d) in delta.iter().enumerate() {
        if d > best {
            best = d;
            best_s = s;
        }
    }

    let mut path = vec![0usize; n];
    path[n - 1] = best_s;
    for i in (1..n).rev() {
        let prev = back[i * ns + path[i]];
        debug_assert_ne!(prev, u32::MAX, "broken backpointer at {i}");
        path[i - 1] = prev as usize;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward_backward::emissions_into;
    use crate::oracle::{build_chain, log_emissions, path_score, state, viterbi, Chain};
    use tableseg_html::TypeSet;

    fn chain2x2() -> Chain {
        let dims = Dims {
            num_records: 2,
            num_columns: 2,
        };
        let params = Params::uniform(2, vec![1.0, 1.0]);
        build_chain(dims, &params, &ProbOptions::default())
    }

    #[test]
    fn empty_input() {
        let chain = chain2x2();
        assert!(viterbi(&chain, &[]).is_empty());
    }

    #[test]
    fn single_extract_takes_best_initial_state() {
        let chain = chain2x2();
        let dims = chain.dims;
        // Strong emission for record 1, column 0.
        let mut e = vec![-10.0; dims.num_states()];
        e[state(dims, 1, 0)] = 0.0;
        let path = viterbi(&chain, &[e]);
        assert_eq!(path, vec![state(dims, 1, 0)]);
    }

    #[test]
    fn prefers_structural_path() {
        let chain = chain2x2();
        let dims = chain.dims;
        // Two extracts, both record-ambiguous: the path should continue
        // the same record (0,0) → (0,1) rather than jump records, because
        // initial mass prefers record 0 and continuing beats the fallback.
        let flat = vec![0.0; dims.num_states()];
        let path = viterbi(&chain, &[flat.clone(), flat]);
        assert_eq!(path[0], state(dims, 0, 0));
        let (r1, c1) = dims.unpack(path[1]);
        assert!((r1 == 0 && c1 == 1) || (r1 == 1 && c1 == 0), "{path:?}");
    }

    #[test]
    fn follows_emissions_across_records() {
        let chain = chain2x2();
        let dims = chain.dims;
        let mut e0 = vec![-20.0; dims.num_states()];
        e0[state(dims, 0, 0)] = 0.0;
        let mut e1 = vec![-20.0; dims.num_states()];
        e1[state(dims, 1, 0)] = 0.0;
        let path = viterbi(&chain, &[e0, e1]);
        assert_eq!(path, vec![state(dims, 0, 0), state(dims, 1, 0)]);
    }

    #[test]
    fn fallback_keeps_path_alive() {
        // Emissions force an "illegal" repeat of the same state; only the
        // fallback self-loop allows it.
        let chain = chain2x2();
        let dims = chain.dims;
        let mut e = vec![-40.0; dims.num_states()];
        e[state(dims, 1, 1)] = 0.0;
        let path = viterbi(&chain, &[e.clone(), e]);
        // First step cannot be (1,1) (not an initial state) but the second
        // should reach it; path must exist regardless.
        assert_eq!(path.len(), 2);
        assert_eq!(path[1], state(dims, 1, 1));
    }

    fn ev(bits: u8, pages: &[u32]) -> Evidence {
        Evidence {
            types: TypeSet::from_bits(bits),
            pages: pages.to_vec(),
        }
    }

    /// The production emission fill and structured decode.
    fn decode_with(ev: &[Evidence], dims: Dims, params: &Params, opts: &ProbOptions) -> Vec<usize> {
        let mut ws = FbWorkspace::new();
        emissions_into(ev, params, dims, opts, &mut ws);
        decode(dims, params, opts, &ws, ev)
    }

    #[test]
    fn forced_ties_decode_the_oracle_path() {
        // Columns 1 and 2 share their emission row, their end probability
        // and their continue row (all mass on column 3), and column 0
        // reaches both at the same weight. So the paths through (0,1) and
        // (0,2) score exactly equal in both arithmetics, and the lower
        // source column must win the tie: into (0,3) over a continue edge,
        // and into (1,0) over the record boundary.
        let dims = Dims {
            num_records: 2,
            num_columns: 4,
        };
        let opts = ProbOptions {
            period_model: false,
            ..ProbOptions::default()
        };
        let mut params = Params::uniform(4, vec![1.0; 4]);
        let rest = [0.5; 5];
        let theta_row = |hot: usize| {
            let mut row = [0.1; 8];
            row[hot] = 0.9;
            row[3..].copy_from_slice(&rest);
            row
        };
        params.theta = vec![theta_row(0), theta_row(1), theta_row(1), theta_row(2)];
        params.trans = vec![
            vec![0.0, 0.4, 0.4, 0.2],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.0; 4],
        ];
        params.end_prob = vec![0.1, 0.2, 0.2, 0.9];
        let s = |r, c| state(dims, r, c);
        let cases = [(ev(0b100, &[0]), s(0, 3)), (ev(0b001, &[1]), s(1, 0))];
        for (last, end) in cases {
            let evs = [ev(0b001, &[0]), ev(0b010, &[0]), last];
            let chain = build_chain(dims, &params, &opts);
            let logs = log_emissions(&evs, &params, dims, &opts);
            let (via1, via2) = ([s(0, 0), s(0, 1), end], [s(0, 0), s(0, 2), end]);
            let score = |p: &[usize]| path_score(&chain, &logs, p).expect("valid path");
            assert_eq!(score(&via1).to_bits(), score(&via2).to_bits(), "no tie");
            let oracle = viterbi(&chain, &logs);
            assert_eq!(oracle, via1);
            assert_eq!(decode_with(&evs, dims, &params, &opts), oracle);
        }
    }

    #[test]
    fn decode_matches_the_oracle_on_small_pages() {
        let dims = Dims {
            num_records: 3,
            num_columns: 2,
        };
        let opts = ProbOptions::default();
        let params = Params::uniform(2, vec![1.0, 1.0]);
        let evs = [
            ev(0b011, &[0]),
            ev(0b100, &[0]),
            ev(0b011, &[1]),
            ev(0b100, &[1, 2]),
            ev(0b011, &[]),
        ];
        let chain = build_chain(dims, &params, &opts);
        let logs = log_emissions(&evs, &params, dims, &opts);
        for n in 0..=evs.len() {
            let oracle = viterbi(&chain, &logs[..n]);
            assert_eq!(
                decode_with(&evs[..n], dims, &params, &opts),
                oracle,
                "{n} extracts"
            );
        }
    }
}
