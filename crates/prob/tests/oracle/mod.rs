//! The log-space chain oracle: the differential oracle for the
//! production structured passes of `tableseg-prob` (the E-step's
//! [`forward_struct`]/[`backward_struct`] and the MAP [`decode`]).
//!
//! The chain over `(R, C)` states is materialized as per-state edge lists
//! ([`build_chain`]): `O(k · nk²)` record-boundary edges, the continue
//! edges and one fallback self-loop per state. Inference runs in log
//! space with one `ln`/`exp` per cell: [`forward_backward`] for the
//! E-step, [`viterbi`] for the decode, and [`em_run`] for the whole EM
//! loop. The production passes read the same structure from the
//! parameters instead, so agreement checks them against a second, simple
//! implementation. Test binaries include it with `mod oracle;`; the
//! crate's unit tests include the same file.
//!
//! [`forward_struct`]: tableseg_prob::forward_backward::forward_struct
//! [`backward_struct`]: tableseg_prob::forward_backward::backward_struct
//! [`decode`]: tableseg_prob::viterbi::decode

#![allow(dead_code)]

use tableseg_extract::{Observations, Segmentation};
use tableseg_prob::bootstrap;
use tableseg_prob::forward_backward::{Counts, LOG_FALLBACK};
use tableseg_prob::model::{evidence, Dims, Evidence};
use tableseg_prob::params::Params;
use tableseg_prob::ProbOptions;

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

/// One outgoing edge: target state, log transition probability, kind.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Target state index.
    pub to: usize,
    /// Log transition probability.
    pub logp: f64,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// The transition structure for one parameter setting, materialized as
/// per-state edge lists.
#[derive(Debug, Clone)]
pub struct Chain {
    /// State-space dimensions.
    pub dims: Dims,
    /// Initial log-distribution over states (record starts).
    pub init: Vec<f64>,
    /// Outgoing edges per state.
    pub edges: Vec<Vec<Edge>>,
}

/// Packs `(r, c)` into a state index, the inverse of [`Dims::unpack`].
pub fn state(dims: Dims, r: usize, c: usize) -> usize {
    assert!(r < dims.num_records && c < dims.num_columns);
    r * dims.num_columns + c
}

/// `true` if record `r` is in the extract's `D_i` (a binary search per
/// record; production walks the pages with [`Evidence::on_pages`]).
pub fn on_page(ev: &Evidence, r: usize) -> bool {
    ev.pages.binary_search(&(r as u32)).is_ok()
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
        init[state(dims, r, 0)] = (w / total).ln();
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
                    to: state(dims, r, cp),
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
                        to: state(dims, rp, 0),
                        logp: p.ln(),
                        kind: EdgeKind::NewRecord { from_c: c },
                    });
                }
            }
        }
        // Escape hatch.
        out.push(Edge {
            to: s,
            logp: LOG_FALLBACK,
            kind: EdgeKind::Fallback,
        });
        edges.push(out);
    }

    Chain { dims, init, edges }
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
                    let d = if on_page(ev, r) {
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

/// Runs log-space forward–backward over the materialized chain, returning
/// posteriors and expected counts.
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

/// The log-space Viterbi decode: the most likely state path through the
/// chain given log emissions, ties broken toward the lowest source state.
/// Returns one state index per extract. Empty input yields an empty path.
pub fn viterbi(chain: &Chain, emits: &[Vec<f64>]) -> Vec<usize> {
    let n = emits.len();
    if n == 0 {
        return Vec::new();
    }
    let ns = chain.dims.num_states();

    let mut delta = vec![f64::NEG_INFINITY; ns];
    for s in 0..ns {
        delta[s] = chain.init[s] + emits[0][s];
    }
    // back[i][s] = predecessor state of s at step i.
    let mut back = vec![vec![usize::MAX; ns]; n];

    for i in 1..n {
        let mut next = vec![f64::NEG_INFINITY; ns];
        for (s, out) in chain.edges.iter().enumerate() {
            let d = delta[s];
            if d == f64::NEG_INFINITY {
                continue;
            }
            for e in out {
                let v = d + e.logp + emits[i][e.to];
                if v > next[e.to] {
                    next[e.to] = v;
                    back[i][e.to] = s;
                }
            }
        }
        delta = next;
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
        let prev = back[i][path[i]];
        debug_assert_ne!(prev, usize::MAX, "broken backpointer at {i}");
        path[i - 1] = prev;
    }
    path
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

/// The log score of `path` under the chain and log emissions, or `None`
/// when a step follows no chain edge (or the first state is no legal
/// start).
pub fn path_score(chain: &Chain, emits: &[Vec<f64>], path: &[usize]) -> Option<f64> {
    let first = *path.first()?;
    if !chain.init[first].is_finite() {
        return None;
    }
    let mut s = chain.init[first] + emits[0][first];
    for (i, w) in path.windows(2).enumerate() {
        let e = chain.edges[w[0]].iter().find(|e| e.to == w[1])?;
        s += e.logp + emits[i + 1][w[1]];
    }
    Some(s)
}

/// The outcome of the log-space EM oracle.
#[derive(Debug, Clone)]
pub struct EmOutcome {
    /// The decoded record segmentation.
    pub segmentation: Segmentation,
    /// The decoded column labels.
    pub columns: Vec<u32>,
    /// The final log-likelihood.
    pub log_likelihood: f64,
    /// EM iterations run.
    pub iterations: usize,
    /// The learned record-period distribution π.
    pub period: Vec<f64>,
}

/// The log-space EM oracle: `tableseg_prob::em::run`'s bootstrap, then a
/// fresh chain and emission table every iteration with per-cell `ln`/`exp`
/// inference ([`forward_backward`]), the same pre-M-step early exit, and
/// a log-space [`viterbi`] decode.
pub fn em_run(obs: &Observations, opts: &ProbOptions) -> EmOutcome {
    let ev = evidence(obs);
    let k = bootstrap::num_columns(&ev);
    let dims = Dims {
        num_records: obs.num_records.max(1),
        num_columns: k,
    };
    let mut params = Params::uniform(k, bootstrap::initial_period(&ev, k));
    let mut prev_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let chain = build_chain(dims, &params, opts);
        let emits = log_emissions(&ev, &params, dims, opts);
        let fb = forward_backward(&chain, &emits, &ev);
        let converged = (fb.log_likelihood - prev_ll).abs() < opts.tolerance;
        prev_ll = fb.log_likelihood;
        if converged {
            break;
        }
        params.update(
            &fb.counts.types,
            &fb.counts.col,
            &fb.counts.trans,
            &fb.counts.end,
            &fb.counts.cont,
        );
    }
    let chain = build_chain(dims, &params, opts);
    let path = viterbi(&chain, &log_emissions(&ev, &params, dims, opts));
    let (assignments, columns) = path
        .iter()
        .map(|&s| {
            let (r, c) = dims.unpack(s);
            (Some(r as u32), c as u32)
        })
        .unzip();
    EmOutcome {
        segmentation: Segmentation {
            num_records: obs.num_records,
            assignments,
        },
        columns,
        log_likelihood: prev_ll,
        iterations,
        period: params.pi,
    }
}
