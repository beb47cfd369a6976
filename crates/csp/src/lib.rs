//! The CSP approach to record segmentation (Section 4 of the paper).
//!
//! "We encode the record segmentation problem into pseudo-boolean
//! representation and solve it using integer variable constraint
//! optimization techniques."
//!
//! The paper solved its constraint systems with WSAT(OIP), a closed-source
//! local-search solver (Walser, LNCS 1637), and asked it two questions:
//! is the strict problem satisfiable, and, when it is not, what is the
//! largest partial assignment of the relaxed one? This crate answers both
//! exactly. It contains the general substrate and the paper-specific
//! encoding:
//!
//! * [`model`] — pseudo-boolean models: 0-1 variables, linear constraints
//!   (`≤ / ≥ / =`) stored as one flat row store, an optional linear
//!   objective, and the [`Occurrences`] index from variables to rows;
//! * [`exact`] — a forward-checking branch-and-bound over the general
//!   model, with an optional warm seed ordering its values: the solver of
//!   every component of both rungs, and on the whole strict encoding the
//!   CSP oracle in tests;
//! * [`encoder`] — builds the uniqueness, consecutiveness and position
//!   constraints of Sections 4.1–4.2 from an observation table;
//! * [`reduce`] — instance reduction ahead of any search: bounds
//!   propagation of forced assignments, entailed-constraint elimination,
//!   and connected-component decomposition of the constraint graph, all
//!   through one occurrence index per encoding, shared by both rungs;
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

pub use encoder::{encode, EncodeOptions, Encoding};
pub use model::Occurrences;
pub use reduce::{reduce_model, Component, Reduction};
pub use relax::{segment_csp, CspOptions, CspOutcome, CspStatus};

// The ordered-DP oracle lives with the integration tests; the unit tests
// include the same file.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
