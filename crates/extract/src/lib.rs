//! Data extraction: from a table slot to the observation table
//! (Section 3.2 of the paper).
//!
//! "We extract data from the table ... simply by extracting, from the slot
//! we believe to contain the table, the contiguous sequences of tokens that
//! do not contain separators. Separators are HTML tags and special
//! punctuation characters (any character that is not in the set `.,()-`).
//! Practically speaking, we end up with all visible strings in the table.
//! We call these sequences extracts."
//!
//! For each extract `E_i`, the detail pages on which it was observed are
//! recorded as `D_i` ([`observations`]) together with the positions of each
//! observation ([`positions`]) — the inputs to both the CSP and the
//! probabilistic segmenters. Extracts that appear on *all* list pages or on
//! *all* detail pages carry no information and are filtered out
//! ([`filter`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extracts;
pub mod filter;
pub mod matcher;
pub mod observations;
pub mod positions;
pub mod segmentation;
pub mod separator;

pub use extracts::{derive_extracts, Extract};
pub use matcher::PageIndex;
pub use observations::{
    build_observations, match_extracts_indexed, ObsItem, Observations, PagePos,
};
pub use segmentation::Segmentation;
pub use separator::{is_separator, SeparatorMask};

// The naive oracle matcher lives with the integration tests; the unit tests
// include the same file, which names this crate by its package name.
#[cfg(test)]
extern crate self as tableseg_extract;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
