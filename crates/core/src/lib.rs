//! # tableseg
//!
//! Automatic segmentation of records from Web tables using the structure
//! of Web sites — a from-scratch reproduction of Lerman, Getoor, Minton &
//! Knoblock, *"Using the Structure of Web Sites for Automatic Segmentation
//! of Tables"* (SIGMOD 2004).
//!
//! Many hidden-web sites answer a query with a **list page** — a table of
//! records — where each row links to a **detail page** with more
//! information about that record. Both pages are generated from templates
//! and present two views of the same record. This crate segments the list
//! page into records *without any training data or labeled examples*, by
//! exploiting that redundancy:
//!
//! 1. [`SiteTemplate::build`] tokenizes the sample list pages and induces
//!    the site's page template, once per site;
//! 2. the per-page front end locates the table slot (falling back to the
//!    whole page when the template is unusable), derives the *extracts*
//!    (visible strings) and matches them against the detail pages,
//!    producing an observation table;
//! 3. a [`Segmenter`] assigns extracts to records:
//!    [`CspSegmenter`] encodes the paper's uniqueness, consecutiveness and
//!    position constraints as a pseudo-boolean problem and solves it
//!    exactly (Section 4; the paper used WSAT(OIP)), while
//!    [`ProbSegmenter`] runs EM on a factored HMM bootstrapped from the
//!    detail pages (Section 5) and additionally labels each extract with
//!    a column;
//! 4. [`assemble_records`] attaches the remaining table data to the
//!    segmented records, giving the final relational view.
//!
//! [`run_page`] is steps 2–3 for one list page, fallible end to end: it
//! optionally detects table regions first, classifies the page as clean,
//! degraded or failed ([`PageOutcome`]), and solves with every segmenter
//! it is given. Every driver in the workspace — the batch harness, the
//! `tablesegd` daemon, the scale benchmark and the `tableseg` CLI — runs
//! pages through it. [`prepare`] is the one-shot front end for a single
//! page, shown here:
//!
//! ```
//! use tableseg::{prepare, CspSegmenter, ProbSegmenter, Segmenter, SitePages};
//!
//! let list_a = "<html><h1>Results Page</h1><table>\
//!   <tr><td>Ada Lovelace</td><td>(555) 100-0001</td></tr>\
//!   <tr><td>Alan Turing</td><td>(555) 100-0002</td></tr>\
//!   </table><p>Copyright 2004 Example Inc</p></html>";
//! let list_b = "<html><h1>Results Page</h1><table>\
//!   <tr><td>Grace Hopper</td><td>(555) 100-0003</td></tr>\
//!   </table><p>Copyright 2004 Example Inc</p></html>";
//! let details = [
//!     "<html><h2>Ada Lovelace</h2><p>Phone: (555) 100-0001</p></html>",
//!     "<html><h2>Alan Turing</h2><p>Phone: (555) 100-0002</p></html>",
//! ];
//!
//! let input = SitePages {
//!     list_pages: vec![list_a, list_b],
//!     target: 0,
//!     detail_pages: details.to_vec(),
//! };
//! let prepared = prepare(&input);
//! let outcome = CspSegmenter::default().segment(&prepared.observations);
//! let records = outcome.segmentation.records();
//! assert_eq!(records.len(), 2);
//! assert!(!records[0].is_empty());
//!
//! // The probabilistic approach also assigns columns.
//! let outcome = ProbSegmenter::default().segment(&prepared.observations);
//! assert!(outcome.columns.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod batch;
pub mod detect;
pub mod hybrid;
pub mod nested;
pub mod outcome;
pub mod pipeline;
pub mod record;
pub mod robustness;
pub mod segmenter;
pub mod timing;
pub mod wrapper;

pub use annotate::{annotate_columns, recognize, ColumnAnnotation, SemanticLabel};
pub use detect::{detect_regions, DetectOptions, Detection, Region, RegionKind};
pub use hybrid::HybridSegmenter;
pub use nested::{parent_spans_from_groups, try_segment_nested, NestedParentResult, NestedRun};
pub use outcome::{caught, PageOutcome, Warning};
pub use pipeline::{
    prepare, run_page, try_prepare_with_template, PageResult, PreparedPage, SitePages, SiteTemplate,
};
pub use record::{assemble_records, AssembledRecord};
pub use robustness::RobustnessReport;
pub use segmenter::{CspSegmenter, ProbSegmenter, Segmenter, SegmenterOutcome};
pub use wrapper::{induce_wrapper, RowWrapper};

// Re-export the building blocks for advanced use.
pub use tableseg_csp as csp;
pub use tableseg_extract as extract;
pub use tableseg_html as html;
pub use tableseg_html::SegError;
pub use tableseg_obs as obs;
pub use tableseg_prob as prob;
pub use tableseg_template as template;
