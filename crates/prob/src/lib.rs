//! The probabilistic approach to record segmentation (Section 5 of the
//! paper).
//!
//! A factored hidden Markov model over the extracts of a list page. For
//! each extract `E_i` the *observed* variables are its token types `T_i`
//! (an 8-dimensional binary vector) and `D_i`, the set of detail pages on
//! which it occurs. The *hidden* variables are the record number `R_i`, the
//! column label `C_i` and the record-start indicator `S_i` (deterministic
//! given `C_i`: a record always starts at the first column, Section 5.1).
//!
//! The paper's three ingredients are all here:
//!
//! * **Factor** — the chain state is the pair `(R, C)`; emissions factor
//!   into per-type Bernoullis `P(T_t | C)` and the detail-page evidence
//!   `P(R | D)` ([`model`], [`params`]);
//! * **Bootstrap** — detail pages initialize the record beliefs
//!   (`P(R_i = r) = 1/|D_i|` for `r ∈ D_i`) and definite record starts
//!   (`D_{i-1} ∩ D_i = ∅ ⇒ S_i = true`) seed the period distribution
//!   ([`bootstrap`]);
//! * **Structure** — a hierarchical record-period model π turns record
//!   length into a duration distribution whose hazard drives the
//!   start-of-record transitions ([`params::Params::hazard`]).
//!
//! Learning is EM with a scaled linear-space forward–backward pass that
//! walks the chain's transition structure instead of materialized edges
//! ([`forward_backward::forward_struct`], [`forward_backward::backward_struct`],
//! [`em`]). The final segmentation is the MAP assignment of `(R, C)`, a
//! max-product pass over the same structure ([`viterbi::decode`]), which
//! also yields the *column extraction* of Section 3.4. The three sweeps
//! (forward, backward, decode) are each one kernel generic over the
//! column count, instantiated at compile time for every width up to
//! [`width::MAX_FIXED_WIDTH`] and run at a runtime width above it
//! ([`width`]); specialization changes no operation or summation order,
//! so results are the same bits at every width. The log-space pass over
//! the materialized chain is the differential oracle of both, in the
//! crate's test suite (`tests/oracle`).
//!
//! Unlike the CSP, impossible record assignments (`r ∉ D_i`) get a small
//! probability ε rather than zero — this is exactly why "the probabilistic
//! approach ... tolerates such inconsistencies" (Section 6.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod em;
pub mod forward_backward;
pub mod model;
pub mod params;
pub mod viterbi;
pub mod width;

use serde::{Deserialize, Serialize};
use tableseg_extract::{Observations, Segmentation};

/// Options for the probabilistic segmenter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbOptions {
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Stop when the log-likelihood improves by less than this.
    pub tolerance: f64,
    /// Probability mass given to record assignments outside `D_i`
    /// (the dirty-data tolerance). Must be in `(0, 1)`.
    pub epsilon: f64,
    /// Geometric penalty for skipping a record with no extracts.
    pub skip_penalty: f64,
    /// Disable the hierarchical period model π (Figure 2 instead of
    /// Figure 3); used by the ablation experiments.
    pub period_model: bool,
}

impl Default for ProbOptions {
    fn default() -> ProbOptions {
        ProbOptions {
            max_iterations: 20,
            tolerance: 1e-4,
            epsilon: 1e-6,
            skip_penalty: 0.1,
            period_model: true,
        }
    }
}

/// Wall-clock nanoseconds spent in the EM sub-stages of one run, fed into
/// the timing registry as `solve.em.e_step`, `solve.em.m_step` and
/// `solve.viterbi`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmTiming {
    /// Emissions, the forward sweep and (on iterations an M-step
    /// follows) the backward sweep, summed over iterations.
    pub e_step_ns: u64,
    /// Parameter updates, summed over iterations.
    pub m_step_ns: u64,
    /// Final structured MAP decode ([`viterbi::decode`]), including a
    /// refill of the emission rows when the last iteration ran an M-step.
    pub viterbi_ns: u64,
}

/// The result of the probabilistic approach on one list page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbOutcome {
    /// The record segmentation (always total: the model tolerates
    /// inconsistencies instead of leaving extracts unassigned).
    pub segmentation: Segmentation,
    /// Column label `C_i` (0-based) for each extract — the column
    /// extraction of Section 3.4.
    pub columns: Vec<u32>,
    /// Final data log-likelihood.
    pub log_likelihood: f64,
    /// EM iterations actually run.
    pub iterations: usize,
    /// The learned record-period distribution π (index 0 = length 1).
    pub period: Vec<f64>,
    /// Wall-clock nanoseconds per EM sub-stage.
    pub timing: EmTiming,
}

/// Runs the probabilistic approach of Section 5 on an observation table.
pub fn segment_prob(obs: &Observations, opts: &ProbOptions) -> ProbOutcome {
    em::run(obs, opts)
}

// The log-space chain oracle lives with the integration tests; the unit
// tests include the same file, which names this crate by its package name.
#[cfg(test)]
extern crate self as tableseg_prob;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
