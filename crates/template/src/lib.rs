//! Page-template induction (Section 3.1 of the paper).
//!
//! "Given two, or preferably more, example list pages from a site, we can
//! derive the template used to generate these pages and use it to identify
//! the table and extract data from it."
//!
//! The **page template** is the part of the page that is invariant from page
//! to page — header, logo, navigation, footer. **Slots** are the sections
//! that are *not* part of the template; since a table's rows repeat and its
//! data varies, "the entire table, data plus separators, will be contained
//! in a single slot". The table is found with the paper's heuristic: "the
//! table will be found in the slot that contains the largest number of text
//! tokens".
//!
//! Implementation: the template is computed as the progressive longest
//! common subsequence (LCS) of the pages' token streams, using the
//! histogram-LCS core ([`histogram`], which falls back to exact dynamic
//! programming in [`lcs`] on small windows) over interned token symbols
//! ([`intern`]). [`induce`](fn@induce) derives the template and per-page slots;
//! [`quality`] diagnoses degenerate templates (e.g. sites with numbered
//! entries, where sequences like `1.` appear on every page and chop the
//! table into fragments — the failure mode the paper reports for Amazon,
//! BN Books and Minnesota Corrections) so that the pipeline can fall back to
//! using the whole page.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod induce;
pub mod intern;
pub mod lcs;
pub mod quality;
pub mod slot;

pub use histogram::{lcs_indices_histogram, lcs_indices_histogram_stats, LcsStats};
pub use induce::{
    candidate_streams, induce, induce_with, induction_count, restabilize, InduceStats, Induction,
    Template,
};
pub use intern::{Interner, Symbol};
pub use quality::{assess, TemplateQuality};
pub use slot::{Slot, SlotSet};
