//! The structured forward–backward pass over the `(R, C)` chain, split
//! into a forward sweep ([`forward_struct`]), which yields the
//! log-likelihood, and a backward sweep ([`backward_struct`]), which
//! accumulates the M-step's expected counts. Both read the transition
//! structure from the parameters; no edge list is ever materialized, and
//! each extract's emissions are two column rows, on and off its detail
//! pages ([`emissions_into`]). The log-space pass over the materialized
//! chain is their differential oracle, in the crate's test suite
//! (`tests/oracle`).
//!
//! This is the "variant of the forward-backward algorithm that exploits the
//! hierarchical nature of the record segmentation problem" (Section 5.2.3):
//! the period model enters as the duration *hazard* on the
//! record-boundary transitions, which constrains the structure of the chain
//! and keeps inference linear in the number of extracts.

use tableseg_html::TokenType;

use crate::model::{Dims, Evidence};
use crate::params::Params;
use crate::width::{with_width, Width};
use crate::ProbOptions;

/// Log-probability of the fallback transitions (state self-loops), the
/// escape hatch that keeps the chain live when no legal move exists. Keeps
/// every observation sequence explainable, which is precisely the
/// dirty-data tolerance of the probabilistic approach.
pub const LOG_FALLBACK: f64 = -18.0; // ≈ ln(1.5e-8)

/// Expected sufficient statistics from one E-step.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Expected extracts per column.
    pub col: Vec<f64>,
    /// Expected feature activations per column: `[c][t]`.
    pub types: Vec<Vec<f64>>,
    /// Expected within-record transitions `[c][c']`.
    pub trans: Vec<Vec<f64>>,
    /// Expected record ends at column `c` (boundary edges + final state).
    pub end: Vec<f64>,
    /// Expected continues out of column `c`.
    pub cont: Vec<f64>,
}

impl Counts {
    /// All-zero tables for `k` columns.
    pub fn zeros(k: usize) -> Counts {
        Counts {
            col: vec![0.0; k],
            types: vec![vec![0.0; 8]; k],
            trans: vec![vec![0.0; k]; k],
            end: vec![0.0; k],
            cont: vec![0.0; k],
        }
    }
}

/// Reusable flat arenas for the structured forward–backward pass.
///
/// Every per-extract table is a contiguous row-major `Vec<f64>`, sized
/// once per instance and reused across EM iterations — after the first
/// iteration no table grows (see the arena regression test in
/// `tests/scaled_fb_props.rs`). α̂ is the only table of stride
/// `num_states`: an extract's emissions take `2k` cells (see
/// [`emissions_into`]).
#[derive(Debug, Clone, Default)]
pub struct FbWorkspace {
    /// Per extract, its two emission rows of `k` cells, each divided by
    /// the row maximum: `P(T_i | c) / |D_i|` for the records in `D_i`,
    /// then `P(T_i | c) · ε` for the others.
    pub emit_rows: Vec<f64>,
    /// `ln` of each extract's row maximum, the scale its rows were divided
    /// by.
    pub row_scale: Vec<f64>,
    /// Scaled forward variables α̂.
    pub alpha: Vec<f64>,
    /// Per-step normalizers `c_i` (the forward row sums before scaling).
    pub scale: Vec<f64>,
    /// Expected counts for the M-step.
    pub counts: Counts,
    /// Scratch: `b_{i+1}(s) · β̂_{i+1}(s) / c_{i+1}` during the backward
    /// sweep.
    tmp: Vec<f64>,
    /// Memo: per-[`TypeSet`](tableseg_html::TypeSet) bit pattern, the `k`
    /// per-column emission probabilities (`memo_col[key * k + c]`). Many
    /// extracts share a type vector, so `params.emission` runs once per
    /// distinct pattern per iteration instead of once per extract.
    memo_col: Vec<f64>,
    /// Memo occupancy: `memo_seen[key]` is `true` once `memo_col`'s row for
    /// `key` holds the current iteration's parameters.
    memo_seen: Vec<bool>,
    /// Scratch: `1 / Σ_{j<nk−r−1} q^j` per source record (0 for the last
    /// record, which has no record-boundary edges); the forward sweep
    /// fills it and the backward sweep reads it.
    skip_inv: Vec<f64>,
    /// Scratch: the backward sweep's record-boundary term per source
    /// record, `skip_inv(r) · T(r)` with `T` the suffix flow.
    rec_flow: Vec<f64>,
    /// Scratch: the structured pass's one β̂ row, overwritten in place
    /// from extract `n − 1` down to 0.
    beta_row: Vec<f64>,
    /// Per-extract column posteriors `Σ_r γ_i(r, c)`, row-major `n × k`
    /// (structured pass).
    col_post: Vec<f64>,
}

/// Number of distinct [`TypeSet`](tableseg_html::TypeSet) bit patterns
/// (8 type bits).
const MEMO_KEYS: usize = 256;

impl FbWorkspace {
    /// An empty workspace; tables are sized on first use.
    pub fn new() -> FbWorkspace {
        FbWorkspace::default()
    }
}

/// Fills the workspace's emission rows with *linear* emissions
/// `P(T_i | c) · P(D_i | r)`, scaled by the row maximum (recorded as
/// `row_scale[i] = ln max`) so the scaled pass works near 1.0.
///
/// A row has only `2k` distinct cells, since every record on the
/// extract's detail pages weighs `1/|D_i|` and every other record `ε`, so
/// each extract stores those two column vectors and the kernels pick one
/// per record with [`Evidence::on_pages`]. The maximum runs over the cells
/// the row holds, and each stored value is a cell's bits. The per-column
/// products are memoized by [`TypeSet`](tableseg_html::TypeSet) bit
/// pattern: extracts sharing a type vector (the common case — sites reuse
/// a handful of token shapes) pay for `params.emission` once per
/// iteration.
pub fn emissions_into(
    evidence: &[Evidence],
    params: &Params,
    dims: Dims,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
) {
    let (n, k, nk) = (evidence.len(), dims.num_columns, dims.num_records);
    // Size the emission and forward tables, reusing their capacity; every
    // cell is written before it is read.
    ws.emit_rows.resize(n * 2 * k, 0.0);
    ws.row_scale.resize(n, 0.0);
    ws.alpha.resize(n * nk * k, 0.0);
    ws.scale.resize(n, 1.0);
    ws.memo_col.resize(MEMO_KEYS * k, 0.0);
    ws.memo_seen.clear();
    ws.memo_seen.resize(MEMO_KEYS, false);
    let rows = ws.emit_rows.chunks_exact_mut(2 * k).zip(&mut ws.row_scale);
    for (ev, (row, ln_max)) in evidence.iter().zip(rows) {
        let key = ev.types.bits() as usize;
        if !ws.memo_seen[key] {
            let feats = ev.features();
            for c in 0..k {
                ws.memo_col[key * k + c] = params.emission(c, &feats);
            }
            ws.memo_seen[key] = true;
        }
        let per_col = &ws.memo_col[key * k..(key + 1) * k];
        let inv_pages = 1.0 / ev.pages.len().max(1) as f64;
        let (on, off) = row.split_at_mut(k);
        for ((o, f), &pc) in on.iter_mut().zip(off.iter_mut()).zip(per_col) {
            (*o, *f) = (pc * inv_pages, pc * opts.epsilon);
        }
        // The row maximum, over the cell values the row holds.
        let mut max = 0.0f64;
        if ev.pages.first().is_some_and(|&p| (p as usize) < nk) {
            max = on.iter().fold(max, |m, &v| m.max(v));
        }
        // Some record is off the pages unless all `nk` lie among the
        // (distinct, sorted) pages.
        if ev.pages.partition_point(|&p| (p as usize) < nk) < nk {
            max = off.iter().fold(max, |m, &v| m.max(v));
        }
        *ln_max = if max > 0.0 {
            row.iter_mut().for_each(|v| *v /= max);
            max.ln()
        } else {
            0.0
        };
    }
}

/// Extract `i`'s two scaled emission rows in `emit_rows`: on its detail
/// pages, and off them.
#[inline]
pub(crate) fn row_pair(emit_rows: &[f64], i: usize, k: usize) -> (&[f64], &[f64]) {
    emit_rows[2 * i * k..2 * (i + 1) * k].split_at(k)
}

/// Scaled mass below which the structured pass flushes a cell to exactly
/// zero: each forward α̂ cell after its row is normalized (the row sums to
/// 1), and each backward `tmp` cell. Such a cell sits about 134 orders of
/// magnitude below its row's f64 resolution. Kept, it only decays further
/// — records the page has passed hold mass through the fallback times ε
/// at every step — into subnormal products, each of which costs the CPU
/// a microcode assist. The EM golden (`tests/golden/em_paper.txt`) pins
/// every paper page's EM outcome to the bit with the flush in place, and
/// the differential tests pin the flushed pass to the log-space oracle.
const NEGLIGIBLE: f64 = 1e-150;

/// The per-iteration transition structure the three kernels read from
/// the parameters, in rows of `[f64; K]` at a fixed width.
pub(crate) struct Structure<W: Width> {
    /// Record-end hazards `hz(c)`.
    pub(crate) hz: W::Row,
    /// Continue weights, transposed so that one target column's sources
    /// are one row: `cont_t[c′][c] = (1 − hz(c)) · trans[c][c′]` for
    /// `c < c′`, zero elsewhere.
    pub(crate) cont_t: W::Table,
}

impl<W: Width> Structure<W> {
    pub(crate) fn new(w: W, params: &Params, opts: &ProbOptions) -> Structure<W> {
        let k = w.k();
        let mut hz = w.row(0.0);
        let mut cont_t = w.table(0.0);
        for c in 0..k {
            hz[c] = params.hazard_for(c, opts.period_model);
            for cp in c + 1..k {
                cont_t[cp][c] = (1.0 - hz[c]) * params.trans[c][cp];
            }
        }
        Structure { hz, cont_t }
    }
}

/// The scaled forward sweep of the structured E-step, computed from the
/// transition *structure* instead of materialized edges; returns the
/// log-likelihood.
///
/// The chain's record-boundary edges are a geometric fan-out: state
/// `(r, c)` reaches every `(r', 0)` with `r' > r` at probability
/// `hz(c) · q^{r'−r−1} / Σ_j q^j`. Materialized, that is `O(k · nk²)`
/// edges — 3/4 of the whole chain on real pages — but the mass entering
/// `(r', 0)` obeys a first-order recurrence in `r'`:
///
/// ```text
/// m(r)  = Σ_c α(r, c) · hz(c) / skip_total(r)
/// S(0)  = 0,   S(r') = q · S(r'−1) + m(r'−1)
/// ```
///
/// so the forward step costs `O(ns + nk)` for all boundary edges
/// together, plus the `O(nk · k²)` within-record continue edges and the
/// `O(ns)` fallback self-loops. Each `(r, c′)` is *pulled* from its
/// fallback term plus `Σ_{c<c′} α̂(r, c) · cont(c, c′)` in ascending `c`
/// (the addition order of a push over source states), and the boundary
/// flow, the emission multiply and the row sum run in the same loop.
/// Cells below `NEGLIGIBLE` (1e-150) are flushed to zero after each row
/// is normalized, and the leading records a flush has emptied are
/// skipped, since every product they would add is +0.0.
///
/// The kernel runs at the page's column count through
/// [`with_width!`](crate::width): a compile-time width up to
/// [`MAX_FIXED_WIDTH`](crate::width::MAX_FIXED_WIDTH), the same source at
/// a runtime width above it.
///
/// Each record reads the extract's on-page or off-page emission row,
/// picked by one cursor over its sorted pages that starts at the first
/// live record.
///
/// Scaling is Rabiner's: the log-likelihood is recovered from the
/// per-step normalizers and the emission row scales,
/// `ll = Σᵢ ln cᵢ + Σᵢ row_scale[i]`. Expects [`emissions_into`] to have
/// filled the rows first. Leaves α̂, the normalizers and the skip
/// normalizers in `ws` for [`backward_struct`].
pub fn forward_struct(
    dims: Dims,
    params: &Params,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
    evidence: &[Evidence],
) -> f64 {
    with_width!(dims.num_columns, w => forward_kernel(w, dims.num_records, params, opts, ws, evidence))
}

fn forward_kernel<W: Width>(
    w: W,
    nk: usize,
    params: &Params,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
    evidence: &[Evidence],
) -> f64 {
    let (n, k) = (evidence.len(), w.k());
    let ns = nk * k;
    let q = opts.skip_penalty;
    let fb = LOG_FALLBACK.exp();
    let filled = ws.emit_rows.len() == 2 * n * k && ws.alpha.len() == n * ns;
    debug_assert!(filled, "emissions must be filled first");
    if n == 0 {
        return 0.0;
    }
    let FbWorkspace {
        emit_rows,
        row_scale,
        alpha,
        scale,
        skip_inv,
        ..
    } = ws;

    // Per-iteration structure tables: hazards, continue weights (read one
    // target column's row at a time), inverse skip normalizers.
    let Structure { hz, cont_t } = Structure::new(w, params, opts);
    skip_inv.clear();
    skip_inv.resize(nk, 0.0);
    // skip_total(r) = Σ_{j=0}^{nk−r−2} q^j by suffix recurrence.
    let mut total = 0.0f64;
    for r in (0..nk.saturating_sub(1)).rev() {
        total = 1.0 + q * total;
        skip_inv[r] = 1.0 / total;
    }

    // The initial distribution is the geometric over skipped leading
    // records, mass only at the `(r, 0)` states.
    let mut init_total = 0.0;
    let mut weight = 1.0;
    for _ in 0..nk {
        init_total += weight;
        weight *= q;
    }
    let first = &mut alpha[..ns];
    first.fill(0.0);
    let (on, off) = row_pair(emit_rows, 0, k);
    let mut weight = 1.0;
    for (r, on_page) in evidence[0].on_pages(0..nk).enumerate() {
        let em = if on_page { on } else { off };
        first[r * k] = weight / init_total * em[0];
        weight *= q;
    }
    let sum = first.iter().sum();
    scale[0] = normalize_flush(first, sum);
    // Records before `lo` hold no mass: every cell was flushed, and a
    // record draws only on itself and on earlier records, so they stay
    // zero and each step skips them (their products and row-sum terms
    // would all be +0.0).
    let mut lo = first_live_record(first, k, nk);
    for i in 1..n {
        let (prev_rows, cur_rows) = alpha.split_at_mut(i * ns);
        let prev = &prev_rows[(i - 1) * ns..];
        let cur = &mut cur_rows[..ns];
        let (on, off) = row_pair(emit_rows, i, k);
        cur[..lo * k].fill(0.0);
        // `flow` is S(r), the boundary mass entering `(r, 0)`.
        let mut flow = 0.0;
        let mut sum = 0.0;
        for (r, on_page) in (lo..nk).zip(evidence[i].on_pages(lo..nk)) {
            let a = &prev[r * k..(r + 1) * k];
            let em = if on_page { on } else { off };
            let out = &mut cur[r * k..(r + 1) * k];
            let v = (a[0] * fb + flow) * em[0];
            out[0] = v;
            sum += v;
            for cp in 1..k {
                let mut acc = a[cp] * fb;
                for (&x, &wt) in a[..cp].iter().zip(cont_t[cp].as_ref()) {
                    acc += x * wt;
                }
                let v = acc * em[cp];
                out[cp] = v;
                sum += v;
            }
            let mut boundary = 0.0;
            for c in 0..k {
                boundary += a[c] * hz[c];
            }
            flow = q * flow + boundary * skip_inv[r];
        }
        scale[i] = normalize_flush(&mut cur[lo * k..], sum);
        lo = first_live_record(cur, k, nk);
    }
    scale.iter().map(|c| c.ln()).sum::<f64>() + row_scale.iter().sum::<f64>()
}

/// The backward sweep of the structured E-step: accumulates the M-step's
/// expected counts into `ws.counts` from the α̂ rows, normalizers and
/// skip normalizers that [`forward_struct`] left in `ws` for the same
/// parameters. EM skips it on the iteration that converges, whose counts
/// no M-step reads.
///
/// It keeps one β̂ row and folds each extract's posteriors into
/// per-column sums `col_post` as it goes; node counts then fan out to the
/// type counts once per column. The edge and node count accumulators are
/// locals held across the whole sweep and stored into `ws.counts` once;
/// each still sums in ascending record, then target-column order within
/// an extract, and in descending extract order across them. Boundary
/// edges go through the suffix recurrence
/// `T(r) = tmp(r+1, 0) + q · T(r+1)`, which also collapses the per-state
/// boundary ξ sum (all targets share `from_c`, so only the total ever
/// reaches the M-step counts). Per record, the loop runs over target
/// columns outside and source columns inside, over transposed continue
/// weights and transposed `trans` sums, so each accumulator still takes
/// the same terms in the same order. Cells below `NEGLIGIBLE` are flushed
/// to zero and the trailing records a flush has emptied are skipped;
/// records before an extract's first live α̂ record compute only their
/// β̂, since each of their ξ, end and posterior terms is +0.0. Like
/// the forward sweep, it runs at the page's width through
/// [`with_width!`](crate::width).
///
/// The two sweeps together are algebraically identical to the log-space
/// forward–backward pass over the materialized chain of the same
/// `(dims, params, opts)`; floating-point results differ by summation
/// order and the flush (the differential tests pin the agreement to
/// 1e-9).
pub fn backward_struct(
    dims: Dims,
    params: &Params,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
    evidence: &[Evidence],
) {
    with_width!(dims.num_columns, w => backward_kernel(w, dims.num_records, params, opts, ws, evidence))
}

fn backward_kernel<W: Width>(
    w: W,
    nk: usize,
    params: &Params,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
    evidence: &[Evidence],
) {
    let (n, k) = (evidence.len(), w.k());
    let ns = nk * k;
    let q = opts.skip_penalty;
    let fb = LOG_FALLBACK.exp();
    debug_assert_eq!(ws.alpha.len(), n * ns, "the forward sweep must run first");
    if n == 0 {
        ws.counts = Counts::zeros(k);
        return;
    }
    let FbWorkspace {
        emit_rows,
        alpha,
        scale,
        counts,
        tmp,
        skip_inv,
        rec_flow,
        beta_row,
        col_post,
        ..
    } = ws;
    tmp.resize(ns, 0.0);
    rec_flow.resize(nk, 0.0);
    beta_row.clear();
    beta_row.resize(ns, 1.0);
    col_post.clear();
    col_post.resize(n * k, 0.0);
    let Structure { hz, cont_t } = Structure::new(w, params, opts);
    // The count accumulators: `trans[c′][c]` (transposed, like the
    // continue weights), continues and ends out of each column, extracts
    // per column and `types[c][t]`.
    let mut trans_t = w.table(0.0);
    let (mut xi_cont, mut xi_end) = (w.row(0.0), w.row(0.0));
    let mut col = w.row(0.0);
    let mut types = vec![[0.0f64; TokenType::COUNT]; k];
    // Per record, its β̂ sums; per extract, its column posteriors.
    let (mut b, mut post) = (w.row(0.0), w.row(0.0));

    // With tmp[t] = b_{i+1}(t) · β̂_{i+1}(t) / c_{i+1}, both
    // β̂_i(s) = Σ_e p_e · tmp[e.to] and ξ_i(s, e.to) = α̂_i(s) · p_e · tmp[e.to];
    // boundary edges go through the suffix flow T. Records from `hi` on
    // have all-zero `tmp` cells: every cell was flushed, and β̂ of a
    // record draws only on itself and on later records, so they stay
    // zero and each step skips them.
    let mut hi = nk;
    for i in (0..n - 1).rev() {
        let inv_c = 1.0 / scale[i + 1];
        let live = hi * k;
        let (on, off) = row_pair(emit_rows, i + 1, k);
        let records = tmp[..live]
            .chunks_exact_mut(k)
            .zip(beta_row[..live].chunks_exact(k));
        for ((t_row, b_row), on_page) in records.zip(evidence[i + 1].on_pages(0..hi)) {
            let em = if on_page { on } else { off };
            for ((t, &e), &b) in t_row.iter_mut().zip(em).zip(b_row) {
                let v = e * b * inv_c;
                *t = if v < NEGLIGIBLE { 0.0 } else { v };
            }
        }
        hi = tmp[..live]
            .iter()
            .rposition(|&x| x != 0.0)
            .map_or(0, |p| p / k + 1);
        // `rec_flow[r]` = skip_inv(r) · T(r), T(r) = Σ_{r' > r} q^{r'−r−1} · tmp(r', 0).
        let mut t_flow = 0.0;
        for r in (0..hi).rev() {
            rec_flow[r] = skip_inv[r] * t_flow;
            t_flow = tmp[r * k] + q * t_flow;
        }
        let a_row = &alpha[i * ns..(i + 1) * ns];
        // Records before `lo` have all-zero α̂ cells, so their ξ, end and
        // posterior terms are all +0.0: they need only their β̂.
        let lo = first_live_record(a_row, k, nk).min(hi);
        post.as_mut().fill(0.0);
        for r in 0..hi {
            let boundary = rec_flow[r];
            let a = &a_row[r * k..(r + 1) * k];
            let t_row = &tmp[r * k..(r + 1) * k];
            let beta = &mut beta_row[r * k..(r + 1) * k];
            // Target column outside, source column inside: each sum still
            // takes its terms in ascending target column.
            b.as_mut().fill(0.0);
            for cp in 1..k {
                let (t, wts) = (t_row[cp], &cont_t[cp]);
                if r < lo {
                    for c in 0..cp {
                        b[c] += wts[c] * t;
                    }
                    continue;
                }
                let tr = &mut trans_t[cp];
                for c in 0..cp {
                    let wt = wts[c];
                    b[c] += wt * t;
                    let xi = a[c] * wt * t;
                    tr[c] += xi;
                    xi_cont[c] += xi;
                }
            }
            for c in 0..k {
                let h = hz[c];
                beta[c] = b[c] + h * boundary + fb * t_row[c];
                if r >= lo {
                    let x = a[c];
                    xi_end[c] += x * h * boundary;
                    post[c] += x * beta[c];
                }
            }
        }
        col_post[i * k..(i + 1) * k].copy_from_slice(post.as_ref());
    }

    // The last extract's β̂ is 1, so its posteriors are its α̂ row; it
    // ends its record at its column.
    let last = &alpha[(n - 1) * ns..];
    post.as_mut().fill(0.0);
    for r in 0..nk {
        let a = &last[r * k..(r + 1) * k];
        for c in 0..k {
            post[c] += a[c];
            xi_end[c] += a[c];
        }
    }
    col_post[(n - 1) * k..].copy_from_slice(post.as_ref());
    // Node counts from the per-extract column sums, in ascending extract
    // order: the type fan-out runs once per column instead of once per
    // state.
    for (ev, post) in evidence.iter().zip(col_post.chunks_exact(k)) {
        let feats = ev.features();
        for c in 0..k {
            let g = post[c];
            col[c] += g;
            for (slot, &on) in types[c].iter_mut().zip(&feats) {
                if on {
                    *slot += g;
                }
            }
        }
    }
    *counts = Counts {
        col: col.as_ref().to_vec(),
        types: types.iter().map(|t| t.to_vec()).collect(),
        trans: (0..k)
            .map(|c| (0..k).map(|cp| trans_t[cp][c]).collect())
            .collect(),
        end: xi_end.as_ref().to_vec(),
        cont: xi_cont.as_ref().to_vec(),
    };
}

/// The first record with a nonzero cell in one scaled row (`nk` if none).
#[inline]
fn first_live_record(row: &[f64], k: usize, nk: usize) -> usize {
    row.iter().position(|&x| x != 0.0).map_or(nk, |p| p / k)
}

/// Divides one α̂ row by its precomputed `sum` and flushes cells below
/// [`NEGLIGIBLE`] to zero; returns the step's normalizer. A zero row
/// (impossible while the fallback edge exists) normalizes by 1 to keep
/// the pass finite.
#[inline]
fn normalize_flush(row: &mut [f64], sum: f64) -> f64 {
    let c = if sum > 0.0 { sum } else { 1.0 };
    for x in row.iter_mut() {
        let v = *x / c;
        *x = if v < NEGLIGIBLE { 0.0 } else { v };
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evidence;
    use crate::oracle::{
        build_chain, forward_backward, log_add, log_emissions, log_sum, on_page, state, EdgeKind,
    };
    use tableseg_extract::build_observations;

    fn small_setup() -> (Vec<Evidence>, Dims, Params, ProbOptions) {
        let list = "<td>Alpha One</td><td>100</td><td>Beta Two</td><td>200</td>";
        let d1 = "<p>Alpha One</p><p>100</p>";
        let d2 = "<p>Beta Two</p><p>200</p>";
        let d3 = "<p>x</p>";
        let details = [d1, d2, d3];
        let obs = build_observations(list, &[], &details);
        let ev = evidence(&obs);
        let dims = Dims {
            num_records: 3,
            num_columns: 2,
        };
        let params = Params::uniform(2, vec![1.0, 1.0]);
        (ev, dims, params, ProbOptions::default())
    }

    #[test]
    fn chain_init_prefers_first_record() {
        let (_, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let s00 = state(dims, 0, 0);
        let s10 = state(dims, 1, 0);
        assert!(chain.init[s00] > chain.init[s10]);
        // Non-first-column states are unreachable initially.
        assert_eq!(chain.init[state(dims, 0, 1)], f64::NEG_INFINITY);
    }

    #[test]
    fn edges_are_forward_only() {
        let (_, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        for (s, out) in chain.edges.iter().enumerate() {
            let (r, c) = dims.unpack(s);
            for e in out {
                let (rp, cp) = dims.unpack(e.to);
                match e.kind {
                    EdgeKind::Continue { .. } => {
                        assert_eq!(rp, r);
                        assert!(cp > c);
                    }
                    EdgeKind::NewRecord { .. } => {
                        assert!(rp > r);
                        assert_eq!(cp, 0);
                    }
                    EdgeKind::Fallback => {
                        assert_eq!(e.to, s);
                        assert_eq!(e.logp, LOG_FALLBACK);
                    }
                }
            }
        }
    }

    #[test]
    fn gamma_rows_sum_to_one() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let logs = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &logs, &ev);
        assert!(fb.log_likelihood.is_finite());
        for row in &fb.gamma {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{s}");
        }
    }

    #[test]
    fn detail_evidence_dominates_record_posterior() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let logs = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &logs, &ev);
        // Extract 0 ("Alpha One") is on detail page 0 only.
        let mut p_r0 = 0.0;
        for c in 0..dims.num_columns {
            p_r0 += fb.gamma[0][state(dims, 0, c)];
        }
        assert!(p_r0 > 0.99, "{p_r0}");
        // Extract 2 ("Beta Two") is on detail page 1 only.
        let mut p_r1 = 0.0;
        for c in 0..dims.num_columns {
            p_r1 += fb.gamma[2][state(dims, 1, c)];
        }
        assert!(p_r1 > 0.99, "{p_r1}");
    }

    #[test]
    fn counts_are_consistent() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let logs = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &logs, &ev);
        // Total column mass equals the number of extracts.
        let total: f64 = fb.counts.col.iter().sum();
        assert!((total - ev.len() as f64).abs() < 1e-6, "{total}");
        // Ends + continues ≈ n (every extract either continues or ends,
        // modulo fallback edges).
        let flow: f64 = fb.counts.end.iter().sum::<f64>() + fb.counts.cont.iter().sum::<f64>();
        assert!((flow - ev.len() as f64).abs() < 0.05, "{flow}");
    }

    #[test]
    fn empty_sequence() {
        let (_, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let fb = forward_backward(&chain, &[], &[]);
        assert_eq!(fb.log_likelihood, 0.0);
        assert!(fb.gamma.is_empty());
    }

    #[test]
    fn emission_rows_match_log_emissions() {
        let (ev, dims, params, opts) = small_setup();
        let mut ws = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut ws);
        let logs = log_emissions(&ev, &params, dims, &opts);
        let k = dims.num_columns;
        assert_eq!(ws.emit_rows.len(), logs.len() * 2 * k);
        for (i, row) in logs.iter().enumerate() {
            // Rebuild each `(r, c)` cell from the extract's two rows.
            let (on, off) = row_pair(&ws.emit_rows, i, k);
            let scale = ws.row_scale[i].exp();
            for (s, &l) in row.iter().enumerate() {
                let (r, c) = dims.unpack(s);
                let cell = if on_page(&ev[i], r) { on[c] } else { off[c] };
                let (linear, oracle) = (cell * scale, l.exp());
                assert!(
                    (linear - oracle).abs() <= 1e-12 * oracle,
                    "extract {i} state {s}: {linear} vs {oracle}"
                );
            }
        }
    }

    #[test]
    fn emission_rows_are_bit_identical_to_per_cell_scaling() {
        // Drifted theta, and extracts on no detail page, on one, on
        // several, on every record, and on a page past the last record.
        let dims = Dims {
            num_records: 4,
            num_columns: 3,
        };
        let opts = ProbOptions::default();
        let mut params = Params::uniform(3, vec![1.0; 3]);
        params.theta[1] = [0.9, 0.2, 0.7, 0.1, 0.4, 0.6, 0.3, 0.8];
        let ev: Vec<Evidence> = [&[][..], &[2], &[0, 3], &[0, 1, 2, 3], &[1, 7]]
            .iter()
            .enumerate()
            .map(|(i, pages)| Evidence {
                types: tableseg_html::TypeSet::from_bits(0b1011 << (i % 4)),
                pages: pages.to_vec(),
            })
            .collect();
        let mut ws = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut ws);
        let k = dims.num_columns;
        for (i, e) in ev.iter().enumerate() {
            // Per cell: weigh, take the row maximum, divide.
            let feats = e.features();
            let inv_pages = 1.0 / e.pages.len().max(1) as f64;
            let mut row: Vec<f64> = (0..dims.num_states())
                .map(|s| {
                    let (r, c) = dims.unpack(s);
                    let w = if on_page(e, r) {
                        inv_pages
                    } else {
                        opts.epsilon
                    };
                    params.emission(c, &feats) * w
                })
                .collect();
            let max = row.iter().fold(0.0f64, |m, &v| m.max(v));
            row.iter_mut().for_each(|v| *v /= max);
            assert_eq!(ws.row_scale[i].to_bits(), max.ln().to_bits(), "extract {i}");
            // Each stored row holds its records' cells, bit for bit.
            let (on, off) = row_pair(&ws.emit_rows, i, k);
            for (s, v) in row.iter().enumerate() {
                let (r, c) = dims.unpack(s);
                let stored = if on_page(e, r) { on[c] } else { off[c] };
                assert_eq!(stored.to_bits(), v.to_bits(), "{i} {s}");
            }
        }
    }

    #[test]
    fn log_helpers() {
        assert!((log_add(0.0, 0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(log_add(f64::NEG_INFINITY, -1.0), -1.0);
        assert_eq!(log_add(-1.0, f64::NEG_INFINITY), -1.0);
        let v = [0.0, 0.0, 0.0, 0.0];
        assert!((log_sum(&v) - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(log_sum(&[]), f64::NEG_INFINITY);
    }
}
