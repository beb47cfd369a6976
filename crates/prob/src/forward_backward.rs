//! The chain over `(R, C)` states and its forward–backward passes: the
//! production structured pass ([`forward_backward_struct`]), the scaled
//! pass over the materialized chain ([`forward_backward_scaled`]) and the
//! log-space oracle ([`forward_backward`]).
//!
//! This is the "variant of the forward-backward algorithm that exploits the
//! hierarchical nature of the record segmentation problem" (Section 5.2.3):
//! the period model enters as the duration *hazard* on the
//! record-boundary transitions, which constrains the structure of the chain
//! and keeps inference linear in the number of extracts.

use crate::model::{Dims, Evidence};
use crate::params::Params;
use crate::ProbOptions;

/// Log-probability floor used for fallback transitions (and impossible
/// record evidence). Keeps every observation sequence explainable, which is
/// precisely the dirty-data tolerance of the probabilistic approach.
pub(crate) const LOG_FALLBACK: f64 = -18.0; // ≈ ln(1.5e-8)

/// The kind of a chain edge, used to route expected counts in the M-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Within-record column advance `c → c'`.
    Continue {
        /// Source column.
        from_c: usize,
        /// Target column (`> from_c`).
        to_c: usize,
    },
    /// Record boundary out of column `c` (target column is 0).
    NewRecord {
        /// Column at which the previous record ended.
        from_c: usize,
    },
    /// Low-probability escape hatch (state self-loop) that keeps the chain
    /// live when no legal move exists.
    Fallback,
}

/// One outgoing edge: target state, transition probability (both linear
/// and log scale), kind.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Target state index.
    pub to: usize,
    /// Linear transition probability (used by the scaled pass).
    pub p: f64,
    /// Log transition probability (used by the log-space oracle).
    pub logp: f64,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// The transition structure for one parameter setting.
///
/// The edge *topology* depends only on the dimensions and options (the
/// M-step smoothing and hazard clamps keep every transition probability
/// strictly positive), so a chain is built once per instance and only its
/// probabilities are refreshed each EM iteration via [`refresh_chain`].
#[derive(Debug, Clone)]
pub struct Chain {
    /// State-space dimensions.
    pub dims: Dims,
    /// Initial log-distribution over states (record starts).
    pub init: Vec<f64>,
    /// Initial linear distribution (exp of `init`).
    pub init_linear: Vec<f64>,
    /// Outgoing edges per state.
    pub edges: Vec<Vec<Edge>>,
}

/// Builds the chain for the current parameters.
pub fn build_chain(dims: Dims, params: &Params, opts: &ProbOptions) -> Chain {
    let nk = dims.num_records;
    let k = dims.num_columns;
    let mut init = vec![f64::NEG_INFINITY; dims.num_states()];
    // The first extract starts a record: state (r, 0), geometric over
    // skipped leading records.
    let mut w = 1.0;
    let mut total = 0.0;
    for _ in 0..nk {
        total += w;
        w *= opts.skip_penalty;
    }
    let mut w = 1.0;
    for r in 0..nk {
        init[dims.state(r, 0)] = (w / total).ln();
        w *= opts.skip_penalty;
    }

    let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(dims.num_states());
    for s in 0..dims.num_states() {
        let (r, c) = dims.unpack(s);
        let hz = params.hazard_for(c, opts.period_model);
        let mut out = Vec::new();
        // Continue within the record.
        for cp in c + 1..k {
            let p = (1.0 - hz) * params.trans[c][cp];
            if p > 0.0 {
                out.push(Edge {
                    to: dims.state(r, cp),
                    p,
                    logp: p.ln(),
                    kind: EdgeKind::Continue {
                        from_c: c,
                        to_c: cp,
                    },
                });
            }
        }
        // Start a new record.
        if r + 1 < nk {
            let mut g = 1.0;
            let mut total = 0.0;
            for _ in r + 1..nk {
                total += g;
                g *= opts.skip_penalty;
            }
            let mut g = 1.0;
            for rp in r + 1..nk {
                let p = hz * g / total;
                g *= opts.skip_penalty;
                if p > 0.0 {
                    out.push(Edge {
                        to: dims.state(rp, 0),
                        p,
                        logp: p.ln(),
                        kind: EdgeKind::NewRecord { from_c: c },
                    });
                }
            }
        }
        // Escape hatch.
        out.push(Edge {
            to: s,
            p: LOG_FALLBACK.exp(),
            logp: LOG_FALLBACK,
            kind: EdgeKind::Fallback,
        });
        edges.push(out);
    }

    let init_linear = init.iter().map(|&l| l.exp()).collect();
    Chain {
        dims,
        init,
        init_linear,
        edges,
    }
}

/// Recomputes edge probabilities in place for updated parameters, keeping
/// the topology built by [`build_chain`]. The initial distribution depends
/// only on the options, so it is untouched.
pub fn refresh_chain(chain: &mut Chain, params: &Params, opts: &ProbOptions) {
    let nk = chain.dims.num_records;
    // Geometric skip weights 1, q, q², … normalized over the remaining
    // records; precompute the normalizer for every source record.
    let mut skip_total = vec![0.0f64; nk];
    for (r, slot) in skip_total.iter_mut().enumerate() {
        let mut g = 1.0;
        for _ in r + 1..nk {
            *slot += g;
            g *= opts.skip_penalty;
        }
    }
    for s in 0..chain.edges.len() {
        let (r, c) = chain.dims.unpack(s);
        let hz = params.hazard_for(c, opts.period_model);
        for e in &mut chain.edges[s] {
            let p = match e.kind {
                EdgeKind::Continue { from_c, to_c } => (1.0 - hz) * params.trans[from_c][to_c],
                EdgeKind::NewRecord { .. } => {
                    let (rp, _) = chain.dims.unpack(e.to);
                    hz * opts.skip_penalty.powi((rp - r - 1) as i32) / skip_total[r]
                }
                EdgeKind::Fallback => continue,
            };
            e.p = p;
            e.logp = p.ln();
        }
    }
}

impl Params {
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
}

/// Log emission table: `emit[i][s] = ln P(T_i | c) + ln P(D_i | r)`.
pub fn log_emissions(
    evidence: &[Evidence],
    params: &Params,
    dims: Dims,
    opts: &ProbOptions,
) -> Vec<Vec<f64>> {
    let log_eps = opts.epsilon.ln();
    evidence
        .iter()
        .map(|ev| {
            let feats = ev.features();
            let per_col: Vec<f64> = (0..dims.num_columns)
                .map(|c| params.emission(c, &feats).max(1e-300).ln())
                .collect();
            (0..dims.num_states())
                .map(|s| {
                    let (r, c) = dims.unpack(s);
                    let d = if ev.on_page(r) {
                        -(ev.pages.len() as f64).ln()
                    } else {
                        log_eps
                    };
                    per_col[c] + d
                })
                .collect()
        })
        .collect()
}

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
    fn zeros(k: usize) -> Counts {
        Counts {
            col: vec![0.0; k],
            types: vec![vec![0.0; 8]; k],
            trans: vec![vec![0.0; k]; k],
            end: vec![0.0; k],
            cont: vec![0.0; k],
        }
    }

    /// Re-zeros (and, on a column-count change, re-shapes) the tables in
    /// place, reusing their allocations across EM iterations.
    fn reset(&mut self, k: usize) {
        if self.col.len() != k {
            *self = Counts::zeros(k);
            return;
        }
        self.col.fill(0.0);
        self.end.fill(0.0);
        self.cont.fill(0.0);
        for row in &mut self.types {
            row.fill(0.0);
        }
        for row in &mut self.trans {
            row.fill(0.0);
        }
    }
}

/// The result of a forward–backward pass.
#[derive(Debug, Clone)]
pub struct FbResult {
    /// Log-likelihood of the evidence.
    pub log_likelihood: f64,
    /// State posteriors `gamma[i][s]` (linear scale, each row sums to 1).
    pub gamma: Vec<Vec<f64>>,
    /// Expected counts for the M-step.
    pub counts: Counts,
}

/// Runs forward–backward, returning posteriors and expected counts.
pub fn forward_backward(chain: &Chain, emits: &[Vec<f64>], evidence: &[Evidence]) -> FbResult {
    let n = emits.len();
    let ns = chain.dims.num_states();
    let k = chain.dims.num_columns;
    assert_eq!(n, evidence.len());
    if n == 0 {
        return FbResult {
            log_likelihood: 0.0,
            gamma: Vec::new(),
            counts: Counts::zeros(k),
        };
    }

    // Forward.
    let mut alpha = vec![vec![f64::NEG_INFINITY; ns]; n];
    for s in 0..ns {
        alpha[0][s] = chain.init[s] + emits[0][s];
    }
    for i in 1..n {
        let (prev, cur) = {
            let (a, b) = alpha.split_at_mut(i);
            (&a[i - 1], &mut b[0])
        };
        for (s, out) in chain.edges.iter().enumerate() {
            let a = prev[s];
            if a == f64::NEG_INFINITY {
                continue;
            }
            for e in out {
                let v = a + e.logp + emits[i][e.to];
                cur[e.to] = log_add(cur[e.to], v);
            }
        }
    }
    let log_likelihood = log_sum(&alpha[n - 1]);

    // Backward.
    let mut beta = vec![vec![f64::NEG_INFINITY; ns]; n];
    beta[n - 1].fill(0.0);
    for i in (0..n - 1).rev() {
        let (cur, next) = {
            let (a, b) = beta.split_at_mut(i + 1);
            (&mut a[i], &b[0])
        };
        for (s, out) in chain.edges.iter().enumerate() {
            let mut acc = f64::NEG_INFINITY;
            for e in out {
                acc = log_add(acc, e.logp + emits[i + 1][e.to] + next[e.to]);
            }
            cur[s] = acc;
        }
    }

    // Posteriors and counts.
    let mut gamma = vec![vec![0.0; ns]; n];
    let mut counts = Counts::zeros(k);
    for i in 0..n {
        let feats = evidence[i].features();
        for s in 0..ns {
            let lg = alpha[i][s] + beta[i][s] - log_likelihood;
            let g = lg.exp();
            gamma[i][s] = g;
            if g > 0.0 {
                let (_, c) = chain.dims.unpack(s);
                counts.col[c] += g;
                for (t, &on) in feats.iter().enumerate() {
                    if on {
                        counts.types[c][t] += g;
                    }
                }
            }
        }
    }
    // Edge posteriors.
    for i in 0..n - 1 {
        for (s, out) in chain.edges.iter().enumerate() {
            let a = alpha[i][s];
            if a == f64::NEG_INFINITY {
                continue;
            }
            for e in out {
                let lxi = a + e.logp + emits[i + 1][e.to] + beta[i + 1][e.to] - log_likelihood;
                let xi = lxi.exp();
                if xi <= 0.0 {
                    continue;
                }
                match e.kind {
                    EdgeKind::Continue { from_c, to_c } => {
                        counts.trans[from_c][to_c] += xi;
                        counts.cont[from_c] += xi;
                    }
                    EdgeKind::NewRecord { from_c } => {
                        counts.end[from_c] += xi;
                    }
                    EdgeKind::Fallback => {}
                }
            }
        }
    }
    // The last extract ends its record at its column.
    for (s, &g) in gamma[n - 1].iter().enumerate() {
        let (_, c) = chain.dims.unpack(s);
        counts.end[c] += g;
    }

    FbResult {
        log_likelihood,
        gamma,
        counts,
    }
}

/// Reusable flat arenas for the scaled forward–backward passes.
///
/// Every per-extract table is a contiguous row-major `Vec<f64>` (stride
/// `num_states`, or `num_columns` for `col_post`), sized once per
/// instance and reused across EM iterations — after the first iteration
/// no table grows (see the arena regression test in
/// `tests/scaled_fb_props.rs`).
#[derive(Debug, Clone, Default)]
pub struct FbWorkspace {
    /// Linear emissions, each row scaled so its maximum is 1.
    pub emits: Vec<f64>,
    /// `ln` of each row's scale factor (the pre-scaling row maximum).
    pub emit_scale: Vec<f64>,
    /// Scaled forward variables α̂.
    pub alpha: Vec<f64>,
    /// Scaled backward variables β̂ (filled by [`forward_backward_scaled`]
    /// only; the structured pass keeps a single row).
    pub beta: Vec<f64>,
    /// State posteriors γ, each row summing to 1 (filled by
    /// [`forward_backward_scaled`] only; the structured pass keeps
    /// per-column sums in `col_post`).
    pub gamma: Vec<f64>,
    /// Per-step normalizers `c_i` (the forward row sums before scaling).
    pub scale: Vec<f64>,
    /// Expected counts for the M-step.
    pub counts: Counts,
    /// Scratch: per-column emission probabilities for one extract.
    per_col: Vec<f64>,
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
    /// Scratch for the structured pass: per-column hazard `hz(c)`.
    hz: Vec<f64>,
    /// Scratch: continue weights `(1 − hz(c)) · trans[c][c']`, row-major
    /// `k × k` (`cont[c * k + c']`).
    cont: Vec<f64>,
    /// Scratch: `cont` transposed (`cont_t[c' * k + c]`), so the forward
    /// pull over source columns reads one contiguous row.
    cont_t: Vec<f64>,
    /// Scratch: `1 / Σ_{j<nk−r−1} q^j` per source record (0 for the last
    /// record, which has no record-boundary edges).
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

    /// Sizes the emission and forward tables for `n` extracts, `ns` states
    /// and `k` columns, reusing existing capacity. Each pass sizes its own
    /// backward and posterior tables.
    pub fn prepare(&mut self, n: usize, ns: usize, k: usize) {
        let cells = n * ns;
        self.emits.clear();
        self.emits.resize(cells, 0.0);
        self.alpha.clear();
        self.alpha.resize(cells, 0.0);
        self.emit_scale.clear();
        self.emit_scale.resize(n, 0.0);
        self.scale.clear();
        self.scale.resize(n, 1.0);
        self.per_col.clear();
        self.per_col.resize(k, 0.0);
        self.tmp.clear();
        self.tmp.resize(ns, 0.0);
        self.memo_col.clear();
        self.memo_col.resize(MEMO_KEYS * k, 0.0);
        self.memo_seen.clear();
        self.memo_seen.resize(MEMO_KEYS, false);
        self.counts.reset(k);
    }

    /// Total reserved capacity of the per-extract tables, in `f64` cells —
    /// the regression-test observable for "the arena stops growing".
    pub fn table_capacity(&self) -> usize {
        self.emits.capacity()
            + self.alpha.capacity()
            + self.beta.capacity()
            + self.gamma.capacity()
            + self.emit_scale.capacity()
            + self.scale.capacity()
            + self.beta_row.capacity()
            + self.col_post.capacity()
    }
}

/// Fills the workspace's emission arena with *linear* emissions
/// `P(T_i | c) · P(D_i | r)`, each row scaled by its maximum (recorded as
/// `emit_scale[i] = ln max`) so the scaled pass works near 1.0.
pub fn emissions_into(
    evidence: &[Evidence],
    params: &Params,
    dims: Dims,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
) {
    let ns = dims.num_states();
    let k = dims.num_columns;
    ws.prepare(evidence.len(), ns, k);
    for (i, ev) in evidence.iter().enumerate() {
        let feats = ev.features();
        for c in 0..k {
            ws.per_col[c] = params.emission(c, &feats);
        }
        let inv_pages = 1.0 / ev.pages.len().max(1) as f64;
        let row = &mut ws.emits[i * ns..(i + 1) * ns];
        let mut max = 0.0f64;
        for (s, slot) in row.iter_mut().enumerate() {
            let (r, c) = dims.unpack(s);
            let d = if ev.on_page(r) {
                inv_pages
            } else {
                opts.epsilon
            };
            let v = ws.per_col[c] * d;
            *slot = v;
            if v > max {
                max = v;
            }
        }
        if max > 0.0 {
            for slot in row.iter_mut() {
                *slot /= max;
            }
            ws.emit_scale[i] = max.ln();
        } else {
            ws.emit_scale[i] = 0.0;
        }
    }
}

/// [`emissions_into`] with the per-column emission products memoized by
/// [`TypeSet`](tableseg_html::TypeSet) bit pattern: extracts sharing a type
/// vector (the common case — sites reuse a handful of token shapes) pay for
/// `params.emission` once per iteration. Bit-identical to
/// [`emissions_into`]: the row fill walks states in the same `(r, c)` order
/// with the same per-cell products and running maximum.
pub fn emissions_into_memoized(
    evidence: &[Evidence],
    params: &Params,
    dims: Dims,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
) {
    let ns = dims.num_states();
    let k = dims.num_columns;
    ws.prepare(evidence.len(), ns, k);
    for (i, ev) in evidence.iter().enumerate() {
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
        let row = &mut ws.emits[i * ns..(i + 1) * ns];
        let mut max = 0.0f64;
        for r in 0..dims.num_records {
            let w = if ev.on_page(r) {
                inv_pages
            } else {
                opts.epsilon
            };
            for (slot, &pc) in row[r * k..(r + 1) * k].iter_mut().zip(per_col) {
                let v = pc * w;
                *slot = v;
                if v > max {
                    max = v;
                }
            }
        }
        if max > 0.0 {
            for slot in row.iter_mut() {
                *slot /= max;
            }
            ws.emit_scale[i] = max.ln();
        } else {
            ws.emit_scale[i] = 0.0;
        }
    }
}

/// The scaled linear-space forward–backward pass (Rabiner scaling): the
/// same posteriors and expected counts as [`forward_backward`] without a
/// single `ln`/`exp` per cell; the log-likelihood is recovered from the
/// per-step normalizers and the emission row scales,
/// `ll = Σᵢ ln cᵢ + Σᵢ emit_scale[i]`.
///
/// Expects [`emissions_into`] to have filled `ws` for this evidence.
/// Posteriors land in `ws.gamma`, expected counts in `ws.counts`; returns
/// the log-likelihood.
pub fn forward_backward_scaled(chain: &Chain, ws: &mut FbWorkspace, evidence: &[Evidence]) -> f64 {
    let n = evidence.len();
    let ns = chain.dims.num_states();
    let k = chain.dims.num_columns;
    debug_assert_eq!(ws.emits.len(), n * ns, "emissions_into must run first");
    if n == 0 {
        ws.counts.reset(k);
        return 0.0;
    }
    ws.beta.clear();
    ws.beta.resize(n * ns, 0.0);
    ws.gamma.clear();
    ws.gamma.resize(n * ns, 0.0);

    // Forward.
    for s in 0..ns {
        ws.alpha[s] = chain.init_linear[s] * ws.emits[s];
    }
    normalize_step(&mut ws.alpha[..ns], &mut ws.scale[0]);
    for i in 1..n {
        let (prev_rows, cur_rows) = ws.alpha.split_at_mut(i * ns);
        let prev = &prev_rows[(i - 1) * ns..];
        let cur = &mut cur_rows[..ns];
        cur.fill(0.0);
        for (s, out) in chain.edges.iter().enumerate() {
            let a = prev[s];
            if a == 0.0 {
                continue;
            }
            for e in out {
                cur[e.to] += a * e.p;
            }
        }
        let emit_row = &ws.emits[i * ns..(i + 1) * ns];
        for (slot, &em) in cur.iter_mut().zip(emit_row) {
            *slot *= em;
        }
        normalize_step(cur, &mut ws.scale[i]);
    }
    let log_likelihood: f64 =
        ws.scale.iter().map(|c| c.ln()).sum::<f64>() + ws.emit_scale.iter().sum::<f64>();

    // Backward sweep with edge-posterior accumulation: at step i we have
    // tmp[t] = b_{i+1}(t) · β̂_{i+1}(t) / c_{i+1}, giving both
    // β̂_i(s) = Σ_e p_e · tmp[e.to] and ξ_i(s, e.to) = α̂_i(s) · p_e · tmp[e.to].
    ws.counts.reset(k);
    ws.beta[(n - 1) * ns..].fill(1.0);
    for i in (0..n - 1).rev() {
        let inv_c = 1.0 / ws.scale[i + 1];
        for t in 0..ns {
            ws.tmp[t] = ws.emits[(i + 1) * ns + t] * ws.beta[(i + 1) * ns + t] * inv_c;
        }
        for (s, out) in chain.edges.iter().enumerate() {
            let mut b = 0.0;
            for e in out {
                b += e.p * ws.tmp[e.to];
            }
            ws.beta[i * ns + s] = b;
            let a = ws.alpha[i * ns + s];
            if a == 0.0 {
                continue;
            }
            for e in out {
                let xi = a * e.p * ws.tmp[e.to];
                if xi <= 0.0 {
                    continue;
                }
                match e.kind {
                    EdgeKind::Continue { from_c, to_c } => {
                        ws.counts.trans[from_c][to_c] += xi;
                        ws.counts.cont[from_c] += xi;
                    }
                    EdgeKind::NewRecord { from_c } => {
                        ws.counts.end[from_c] += xi;
                    }
                    EdgeKind::Fallback => {}
                }
            }
        }
    }

    // Posteriors and node counts: γ_i(s) = α̂_i(s) · β̂_i(s) already sums
    // to 1 per row under this scaling.
    for (i, ev) in evidence.iter().enumerate() {
        let feats = ev.features();
        for s in 0..ns {
            let g = ws.alpha[i * ns + s] * ws.beta[i * ns + s];
            ws.gamma[i * ns + s] = g;
            if g > 0.0 {
                let (_, c) = chain.dims.unpack(s);
                ws.counts.col[c] += g;
                for (t, &on) in feats.iter().enumerate() {
                    if on {
                        ws.counts.types[c][t] += g;
                    }
                }
            }
        }
    }
    // The last extract ends its record at its column.
    for s in 0..ns {
        let (_, c) = chain.dims.unpack(s);
        ws.counts.end[c] += ws.gamma[(n - 1) * ns + s];
    }

    log_likelihood
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

/// The scaled forward–backward pass computed from the transition
/// *structure* instead of materialized edges.
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
/// `O(ns)` fallback self-loops. The backward sweep uses the mirrored
/// suffix recurrence `T(r) = tmp(r+1, 0) + q · T(r+1)`, which also
/// collapses the per-state boundary ξ sum (all targets share `from_c`,
/// so only the total ever reaches the M-step counts).
///
/// Both sweeps are fused per record. The forward step *pulls* each
/// `(r, c′)` from its fallback term plus `Σ_{c<c′} α̂(r, c) · cont(c, c′)`
/// in ascending `c` (the addition order of a push over source states),
/// and runs the boundary flow, the emission multiply and the row sum in
/// the same loop. The backward sweep keeps one β̂ row, accumulates edge
/// counts straight into the workspace's count tables, and folds each
/// extract's posteriors into per-column sums `col_post` as it goes; node
/// counts then fan out to the type counts once per column. Cells below
/// `NEGLIGIBLE` (1e-150) are flushed to zero, and the records a flush has
/// emptied — passed records in the forward sweep, records too far ahead
/// in the backward one — are skipped, since every product they would
/// add is +0.0.
///
/// Algebraically identical to [`forward_backward_scaled`] on the chain
/// built from the same `(dims, params, opts)`; floating-point results
/// differ by summation order and the flush (the differential tests pin
/// the agreement to 1e-9). Expects the emission arena to be filled
/// first. Expected counts land in `ws.counts`; returns the
/// log-likelihood.
pub fn forward_backward_struct(
    dims: Dims,
    params: &Params,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
    evidence: &[Evidence],
) -> f64 {
    let n = evidence.len();
    let ns = dims.num_states();
    let k = dims.num_columns;
    let nk = dims.num_records;
    let q = opts.skip_penalty;
    let fb = LOG_FALLBACK.exp();
    debug_assert_eq!(ws.emits.len(), n * ns, "emissions must be filled first");
    ws.counts.reset(k);
    if n == 0 {
        return 0.0;
    }
    let FbWorkspace {
        emits,
        emit_scale,
        alpha,
        scale,
        counts,
        tmp,
        hz,
        cont,
        cont_t,
        skip_inv,
        rec_flow,
        beta_row,
        col_post,
        ..
    } = ws;

    // Per-iteration structure tables: hazards, continue weights (both
    // orientations), inverse skip normalizers.
    hz.clear();
    hz.extend((0..k).map(|c| params.hazard_for(c, opts.period_model)));
    cont.clear();
    cont.resize(k * k, 0.0);
    cont_t.clear();
    cont_t.resize(k * k, 0.0);
    for c in 0..k {
        for cp in c + 1..k {
            let w = (1.0 - hz[c]) * params.trans[c][cp];
            cont[c * k + cp] = w;
            cont_t[cp * k + c] = w;
        }
    }
    skip_inv.clear();
    skip_inv.resize(nk, 0.0);
    // skip_total(r) = Σ_{j=0}^{nk−r−2} q^j by suffix recurrence.
    let mut total = 0.0f64;
    for r in (0..nk.saturating_sub(1)).rev() {
        total = 1.0 + q * total;
        skip_inv[r] = 1.0 / total;
    }
    rec_flow.clear();
    rec_flow.resize(nk, 0.0);
    beta_row.clear();
    beta_row.resize(ns, 1.0);
    col_post.clear();
    col_post.resize(n * k, 0.0);

    // Forward. The initial distribution is the geometric over skipped
    // leading records, mass only at the `(r, 0)` states.
    let mut init_total = 0.0;
    let mut w = 1.0;
    for _ in 0..nk {
        init_total += w;
        w *= q;
    }
    let first = &mut alpha[..ns];
    first.fill(0.0);
    let mut w = 1.0;
    for r in 0..nk {
        first[r * k] = w / init_total * emits[r * k];
        w *= q;
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
        let emit_row = &emits[i * ns..(i + 1) * ns];
        cur[..lo * k].fill(0.0);
        // `flow` is S(r), the boundary mass entering `(r, 0)`.
        let mut flow = 0.0;
        let mut sum = 0.0;
        for r in lo..nk {
            let a = &prev[r * k..(r + 1) * k];
            let em = &emit_row[r * k..(r + 1) * k];
            let out = &mut cur[r * k..(r + 1) * k];
            let v = (a[0] * fb + flow) * em[0];
            out[0] = v;
            sum += v;
            for cp in 1..k {
                let mut acc = a[cp] * fb;
                for (&x, &wt) in a[..cp].iter().zip(&cont_t[cp * k..cp * k + cp]) {
                    acc += x * wt;
                }
                let v = acc * em[cp];
                out[cp] = v;
                sum += v;
            }
            let mut boundary = 0.0;
            for (&x, &h) in a.iter().zip(hz.iter()) {
                boundary += x * h;
            }
            flow = q * flow + boundary * skip_inv[r];
        }
        scale[i] = normalize_flush(&mut cur[lo * k..], sum);
        lo = first_live_record(cur, k, nk);
    }
    let log_likelihood: f64 =
        scale.iter().map(|c| c.ln()).sum::<f64>() + emit_scale.iter().sum::<f64>();

    // Backward sweep with edge-posterior accumulation: with
    // tmp[t] = b_{i+1}(t) · β̂_{i+1}(t) / c_{i+1}, both
    // β̂_i(s) = Σ_e p_e · tmp[e.to] and ξ_i(s, e.to) = α̂_i(s) · p_e · tmp[e.to];
    // boundary edges go through the suffix flow T. Records from `hi` on
    // have all-zero `tmp` cells: every cell was flushed, and β̂ of a
    // record draws only on itself and on later records, so they stay
    // zero and each step skips them.
    let mut hi = nk;
    for i in (0..n - 1).rev() {
        let inv_c = 1.0 / scale[i + 1];
        let live = hi * k;
        for ((t, &em), &b) in tmp[..live]
            .iter_mut()
            .zip(&emits[(i + 1) * ns..(i + 1) * ns + live])
            .zip(&beta_row[..live])
        {
            let v = em * b * inv_c;
            *t = if v < NEGLIGIBLE { 0.0 } else { v };
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
        // Column-major over the live records, so each column's count
        // accumulators stay in registers; every accumulator still sums
        // in ascending record, then target-column order.
        let a_row = &alpha[i * ns..(i + 1) * ns];
        let post = &mut col_post[i * k..(i + 1) * k];
        for c in 0..k {
            let w = &cont[c * k + c + 1..(c + 1) * k];
            let trans_row = &mut counts.trans[c][c + 1..];
            let h = hz[c];
            let mut xi_cont = counts.cont[c];
            let mut xi_end = counts.end[c];
            let mut g = post[c];
            for r in 0..hi {
                let boundary = rec_flow[r];
                let t_row = &tmp[r * k..(r + 1) * k];
                let a = a_row[r * k + c];
                let mut b = 0.0;
                let targets = w.iter().zip(&t_row[c + 1..]).zip(trans_row.iter_mut());
                for ((&wt, &t), xi_trans) in targets {
                    b += wt * t;
                    let xi = a * wt * t;
                    *xi_trans += xi;
                    xi_cont += xi;
                }
                b += h * boundary;
                b += fb * t_row[c];
                beta_row[r * k + c] = b;
                xi_end += a * h * boundary;
                g += a * b;
            }
            counts.cont[c] = xi_cont;
            counts.end[c] = xi_end;
            post[c] = g;
        }
    }

    // The last extract's β̂ is 1, so its posteriors are its α̂ row; it
    // ends its record at its column.
    let last = &alpha[(n - 1) * ns..];
    let post = &mut col_post[(n - 1) * k..];
    for r in 0..nk {
        for c in 0..k {
            let g = last[r * k + c];
            post[c] += g;
            counts.end[c] += g;
        }
    }
    // Node counts from the per-extract column sums: the type fan-out runs
    // once per column instead of once per state.
    for (ev, post) in evidence.iter().zip(col_post.chunks_exact(k)) {
        let feats = ev.features();
        for (c, &g) in post.iter().enumerate() {
            counts.col[c] += g;
            for (t, &on) in feats.iter().enumerate() {
                if on {
                    counts.types[c][t] += g;
                }
            }
        }
    }

    log_likelihood
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

/// Divides one α row by its sum, recording the sum as that step's
/// normalizer. A zero row (impossible while the fallback edge exists)
/// normalizes by 1 to keep the pass finite.
#[inline]
fn normalize_step(row: &mut [f64], scale: &mut f64) {
    let c: f64 = row.iter().sum();
    let c = if c > 0.0 { c } else { 1.0 };
    for x in row.iter_mut() {
        *x /= c;
    }
    *scale = c;
}

/// `ln(e^a + e^b)` with care for negative infinity.
#[inline]
pub fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// `ln Σ e^xᵢ`.
pub fn log_sum(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, log_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evidence;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

    fn small_setup() -> (Vec<Evidence>, Dims, Params, ProbOptions) {
        let list = tokenize("<td>Alpha One</td><td>100</td><td>Beta Two</td><td>200</td>");
        let d1 = tokenize("<p>Alpha One</p><p>100</p>");
        let d2 = tokenize("<p>Beta Two</p><p>200</p>");
        let d3 = tokenize("<p>x</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2, &d3];
        let obs = build_observations(&list, &[], &details);
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
        let s00 = dims.state(0, 0);
        let s10 = dims.state(1, 0);
        assert!(chain.init[s00] > chain.init[s10]);
        // Non-first-column states are unreachable initially.
        assert_eq!(chain.init[dims.state(0, 1)], f64::NEG_INFINITY);
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
        let emits = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &emits, &ev);
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
        let emits = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &emits, &ev);
        // Extract 0 ("Alpha One") is on detail page 0 only.
        let mut p_r0 = 0.0;
        for c in 0..dims.num_columns {
            p_r0 += fb.gamma[0][dims.state(0, c)];
        }
        assert!(p_r0 > 0.99, "{p_r0}");
        // Extract 2 ("Beta Two") is on detail page 1 only.
        let mut p_r1 = 0.0;
        for c in 0..dims.num_columns {
            p_r1 += fb.gamma[2][dims.state(1, c)];
        }
        assert!(p_r1 > 0.99, "{p_r1}");
    }

    #[test]
    fn counts_are_consistent() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);
        let emits = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &emits, &ev);
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
    fn memoized_emissions_are_bit_identical() {
        let (ev, dims, params, opts) = small_setup();
        let mut plain = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut plain);
        let mut memo = FbWorkspace::new();
        emissions_into_memoized(&ev, &params, dims, &opts, &mut memo);
        assert_eq!(plain.emits.len(), memo.emits.len());
        for (a, b) in plain.emits.iter().zip(&memo.emits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in plain.emit_scale.iter().zip(&memo.emit_scale) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn struct_pass_matches_scaled_within_rounding() {
        let (ev, dims, params, opts) = small_setup();
        let chain = build_chain(dims, &params, &opts);

        let mut scaled = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut scaled);
        let ll_scaled = forward_backward_scaled(&chain, &mut scaled, &ev);

        let mut st = FbWorkspace::new();
        emissions_into_memoized(&ev, &params, dims, &opts, &mut st);
        let ll_struct = forward_backward_struct(dims, &params, &opts, &mut st, &ev);

        // The structured pass reassociates the geometric boundary sums,
        // so agreement is to rounding, not to the bit.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        assert!(close(ll_scaled, ll_struct), "{ll_scaled} vs {ll_struct}");
        let pairs = [
            (&scaled.counts.col, &st.counts.col),
            (&scaled.counts.end, &st.counts.end),
            (&scaled.counts.cont, &st.counts.cont),
        ];
        for (a, b) in pairs {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(close(*x, *y), "{x} vs {y}");
            }
        }
        for (ra, rb) in scaled.counts.trans.iter().zip(&st.counts.trans) {
            for (x, y) in ra.iter().zip(rb) {
                assert!(close(*x, *y), "{x} vs {y}");
            }
        }
        for (ra, rb) in scaled.counts.types.iter().zip(&st.counts.types) {
            for (x, y) in ra.iter().zip(rb) {
                assert!(close(*x, *y), "{x} vs {y}");
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
