//! A deterministic hidden-web site simulator.
//!
//! The paper evaluates on 12 live web sites from 2004 (book sellers,
//! property-tax registers, white pages, corrections departments). Those
//! sites are gone; this crate generates synthetic sites by the same process
//! the paper assumes real sites follow (Section 3): a record database, a
//! *page template* and a *table template* that a "server" fills with query
//! results, producing **list pages** and per-record **detail pages**.
//!
//! Each of the paper's sites is mirrored by a configuration in
//! [`paper_sites`] reproducing its domain, layout style, table sizes and —
//! crucially — the documented data quirks that drive the paper's failure
//! analysis (Section 6.3):
//!
//! * numbered entries that break page-template finding (Amazon, BN Books,
//!   Minnesota Corrections);
//! * `"FirstName LastName, et al"` abbreviations (Amazon);
//! * case mismatches between list and detail values (Minnesota);
//! * a list value appearing on an unrelated detail page
//!   ("Parole"/"Parolee", Michigan);
//! * a field missing from one record's detail page but present in others
//!   (Canada411);
//! * browsing-history contamination of detail pages (Amazon);
//! * disjunctive formatting of missing fields (Superpages).
//!
//! Everything is seeded; the same spec always yields the same site. Along
//! with the HTML, generation records the **byte span of every record row**
//! in each list page — the machine-checkable ground truth the evaluation
//! crate uses in place of the paper's manual inspection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod db;
pub mod domains;
pub mod layout;
pub mod paper_sites;
pub mod quirks;
pub mod scenario;
pub mod site;
pub mod truth;
pub mod universe;

pub use chaos::{
    apply_chaos, generate_chaotic, ChaosConfig, ChaosLog, FaultKind, FaultSpec, InjectedFault,
};
pub use quirks::Quirk;
pub use scenario::{
    detect_cohort, generate_multi_table, generate_nested, nested_cohort, MultiTablePage,
    MultiTableSite, MultiTableSpec, NestedPage, NestedParentTruth, NestedSite, NestedSpec,
    NestedTruth, RegionLabel, RegionSpan, TableSpec,
};
pub use site::{generate, GeneratedSite, LayoutStyle, SiteSpec};
pub use truth::{GroundTruth, RecordSpan};
pub use universe::{Universe, UniverseConfig};
