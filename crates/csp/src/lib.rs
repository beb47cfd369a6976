//! The CSP approach to record segmentation (Section 4 of the paper).
//!
//! "We encode the record segmentation problem into pseudo-boolean
//! representation and solve it using integer variable constraint
//! optimization techniques."
//!
//! This crate contains both the general substrate and the paper-specific
//! encoding:
//!
//! * [`model`] — pseudo-boolean models: 0-1 variables, linear constraints
//!   (`≤ / ≥ / =`), hard/soft weights and an optional linear objective;
//! * [`wsat`] — a WSAT(OIP)-style stochastic local-search solver (Walser,
//!   *Integer Optimization by Local Search*, LNCS 1637): the solver the
//!   paper licensed is closed source, so this is a from-scratch
//!   implementation of the same strategy — violated-constraint selection,
//!   greedy score-driven flips with noise, tabu memory and restarts;
//! * [`exact`] — two exact solvers: a forward-checking branch-and-bound
//!   over the general model (the ladder's per-component optimum proof and
//!   cross-check, and on the whole strict encoding the one CSP oracle in
//!   tests) and an ordered dynamic program specialized to the
//!   segmentation structure;
//! * [`encoder`] — builds the uniqueness, consecutiveness and position
//!   constraints of Sections 4.1–4.2 from an observation table;
//! * [`reduce`] — instance reduction ahead of any search: bounds
//!   propagation of forced assignments, entailed-constraint elimination,
//!   and connected-component decomposition of the constraint graph;
//! * [`relax`] — the paper's relaxation ladder: when the hard problem is
//!   unsatisfiable (dirty data), equalities become inequalities and the
//!   solver maximizes the number of assigned extracts, yielding the partial
//!   solutions reported in Section 6.3;
//! * [`solution`] — decoding variable assignments into
//!   [`Segmentation`](tableseg_extract::Segmentation)s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoder;
pub mod exact;
pub mod model;
pub mod reduce;
pub mod relax;
pub mod solution;
pub mod wsat;

pub use encoder::{encode, EncodeOptions, Encoding};
pub use reduce::{reduce_model, Component, Reduction};
pub use relax::{segment_csp, CspOptions, CspOutcome, CspStatus};
