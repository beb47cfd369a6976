//! The recursive nested-record pass: re-running template induction and
//! CSP/HMM segmentation *inside* each parent record slot.
//!
//! Some list pages nest a repeating structure inside every record — a
//! book with one row per edition, a person with one row per address
//! ("Extraction of Flat and Nested Data Records from Web Pages",
//! PAPERS.md). The paper's machinery handles one level; this module
//! applies the same machinery one level down:
//!
//! 1. the caller supplies the byte span of each parent record on the list
//!    page (ground truth in the harness, or spans derived from a
//!    parent-level segmentation via [`parent_spans_from_groups`]);
//! 2. the parent slices become the "sample list pages" of a **sub-site**:
//!    they share the parent template's repeated sub-structure, so
//!    [`SiteTemplate`] induction runs over them exactly as it does over a
//!    site's list pages;
//! 3. each parent slice is prepared against that sub-template with the
//!    parent's own sub-detail pages (the pages its nested rows link to)
//!    and segmented by any [`Segmenter`] — a genuine recursive run of the
//!    induction + CSP/HMM stack.
//!
//! Offsets in the result are absolute (relative to the full list page),
//! so `tableseg-eval`'s nested classification can score them directly
//! against nested ground-truth spans.

use std::ops::Range;

use tableseg_html::SegError;
use tableseg_obs::{Counter, Recorder};

use crate::pipeline::{run_page, SiteTemplate};
use crate::segmenter::Segmenter;
use crate::timing::{Stage, StageTimes};

/// The sub-segmentation of one parent record slot.
#[derive(Debug, Clone)]
pub struct NestedParentResult {
    /// The parent's byte span on the list page.
    pub span: Range<usize>,
    /// Sub-record groups: `groups[r]` holds the indices of the extracts
    /// assigned to sub-record `r` (indices into `extract_offsets`).
    pub groups: Vec<Vec<usize>>,
    /// Byte offset of each kept extract, **absolute** in the list page.
    pub extract_offsets: Vec<usize>,
    /// `true` if the sub-solver had to relax its constraints.
    pub relaxed: bool,
}

/// The result of one recursive pass over a page's parent slots.
#[derive(Debug, Clone)]
pub struct NestedRun {
    /// One entry per parent span, in input order.
    pub parents: Vec<NestedParentResult>,
    /// Wall-clock time of the whole pass, charged to `solve` and
    /// re-attributed to the `solve.nested` sub-stage.
    pub timings: StageTimes,
    /// `nested.*` counters. Empty unless [`tableseg_obs::set_enabled`]
    /// is on.
    pub metrics: Recorder,
}

/// Derives parent record byte spans from a parent-level segmentation: each
/// non-empty group starts at its first extract and runs to the start of
/// the next group (document order); the last runs to `end`. This is how
/// the detect/nested harness turns the *predicted* parent segmentation
/// into the slots the recursive pass descends into.
pub fn parent_spans_from_groups(
    groups: &[Vec<usize>],
    extract_offsets: &[usize],
    end: usize,
) -> Vec<Range<usize>> {
    let mut starts: Vec<usize> = groups
        .iter()
        .filter_map(|g| g.iter().filter_map(|&i| extract_offsets.get(i)).min())
        .copied()
        .collect();
    starts.sort_unstable();
    starts.dedup();
    let mut spans = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let stop = starts.get(i + 1).copied().unwrap_or(end.max(start));
        spans.push(start..stop);
    }
    spans
}

/// Slices `page[span]`, nudging both ends to the nearest UTF-8 character
/// boundary (chaos-damaged pages can put multi-byte replacement
/// characters under a span edge).
fn slice_lossy(page: &str, span: &Range<usize>) -> Range<usize> {
    let mut start = span.start.min(page.len());
    while start < page.len() && !page.is_char_boundary(start) {
        start += 1;
    }
    let mut end = span.end.min(page.len()).max(start);
    while end > start && !page.is_char_boundary(end) {
        end -= 1;
    }
    start..end
}

/// Runs the recursive nested pass over one list page.
///
/// * `page` — the full list-page HTML;
/// * `parent_spans` — the byte span of each parent record slot;
/// * `details` — the sub-detail pages of each parent, aligned with
///   `parent_spans` (`details[i][j]` belongs to parent `i`'s sub-record
///   `r_{j+1}`);
/// * `segmenter` — the sub-solver (CSP or probabilistic).
///
/// Induction over the parent slices runs **once**; each parent is then
/// prepared and segmented against the shared sub-template. Errors from a
/// degenerate sub-site (all parents empty, solver failure) surface as
/// [`SegError`] — one damaged page cannot abort a batch.
pub fn try_segment_nested(
    page: &str,
    parent_spans: &[Range<usize>],
    details: &[Vec<&str>],
    segmenter: &dyn Segmenter,
) -> Result<NestedRun, SegError> {
    if parent_spans.is_empty() {
        return Err(SegError::EmptyInput {
            what: "parent record spans",
        });
    }
    if details.len() != parent_spans.len() {
        return Err(SegError::StreamMisaligned {
            what: "per-parent detail pages",
            expected: parent_spans.len(),
            got: details.len(),
        });
    }
    let mut timings = StageTimes::new();
    let start = std::time::Instant::now();
    let spans: Vec<Range<usize>> = parent_spans.iter().map(|s| slice_lossy(page, s)).collect();
    let slices: Vec<&str> = spans.iter().map(|s| &page[s.clone()]).collect();
    let template = SiteTemplate::try_build(&slices)?;
    let mut parents = Vec::with_capacity(slices.len());
    let mut sub_records = 0u64;
    for (i, span) in spans.iter().enumerate() {
        let mut result = run_page(&template, i, &details[i], None, &[segmenter]);
        let outcome = result.solved.remove(0)?;
        let groups = outcome.segmentation.records();
        sub_records += groups.iter().filter(|g| !g.is_empty()).count() as u64;
        let extract_offsets = result
            .extract_offsets()
            .iter()
            .map(|&off| span.start + off)
            .collect();
        parents.push(NestedParentResult {
            span: span.clone(),
            groups,
            extract_offsets,
            relaxed: outcome.relaxed,
        });
    }
    let elapsed = start.elapsed();
    // The recursive pass is solver work: it counts in the solve total and
    // the solve.nested sub-stage re-attributes it, like solve.csp does.
    timings.add(Stage::Solve, elapsed);
    timings.add(Stage::SolveNested, elapsed);
    let mut metrics = Recorder::new();
    metrics.bump(Counter::NestedParents, parents.len() as u64);
    metrics.bump(Counter::NestedSubRecords, sub_records);
    Ok(NestedRun {
        parents,
        timings,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segmenter::CspSegmenter;

    /// A page with two parent records, each nesting a two-row sub-table.
    fn nested_page() -> (String, Vec<Range<usize>>, Vec<Vec<&'static str>>) {
        let parent = |name: &str, subs: [(&str, &str); 2]| {
            format!(
                "<p><b>{name}</b></p><table>\
                 <tr><td><a href=\"/s\">{}</a></td><td>{}</td></tr>\
                 <tr><td><a href=\"/s\">{}</a></td><td>{}</td></tr>\
                 </table>",
                subs[0].0, subs[0].1, subs[1].0, subs[1].1
            )
        };
        let p0 = parent("Ada Lovelace", [("London", "1815"), ("Ockham", "1835")]);
        let p1 = parent(
            "Alan Turing",
            [("Maida Vale", "1912"), ("Wilmslow", "1954")],
        );
        let page = format!("<html><div>{p0}</div><div>{p1}</div></html>");
        let s0 = page.find("<p>").unwrap();
        let e0 = page.find("</div>").unwrap();
        let s1 = page[e0..].find("<p>").unwrap() + e0;
        let e1 = page.rfind("</table>").unwrap() + "</table>".len();
        let details = vec![
            vec![
                "<html><h2>London</h2><p>1815</p></html>",
                "<html><h2>Ockham</h2><p>1835</p></html>",
            ],
            vec![
                "<html><h2>Maida Vale</h2><p>1912</p></html>",
                "<html><h2>Wilmslow</h2><p>1954</p></html>",
            ],
        ];
        (page, vec![s0..e0, s1..e1], details)
    }

    #[test]
    fn segments_sub_records_inside_each_parent() {
        let (page, spans, details) = nested_page();
        let run = try_segment_nested(&page, &spans, &details, &CspSegmenter::default())
            .expect("clean nested page");
        assert_eq!(run.parents.len(), 2);
        for (parent, span) in run.parents.iter().zip(&spans) {
            assert_eq!(&parent.span, span);
            let non_empty = parent.groups.iter().filter(|g| !g.is_empty()).count();
            assert_eq!(non_empty, 2, "{:?}", parent.groups);
            for &off in &parent.extract_offsets {
                assert!(span.contains(&off), "absolute offsets inside the parent");
            }
        }
        assert!(run.timings.get(Stage::SolveNested) > std::time::Duration::ZERO);
    }

    #[test]
    fn rejects_misaligned_details() {
        let (page, spans, _) = nested_page();
        let err = try_segment_nested(&page, &spans, &[], &CspSegmenter::default());
        assert!(err.is_err());
    }

    #[test]
    fn parent_spans_follow_group_starts() {
        let groups = vec![vec![2, 3], vec![0, 1], vec![]];
        let offsets = vec![10, 14, 40, 48];
        let spans = parent_spans_from_groups(&groups, &offsets, 100);
        assert_eq!(spans, vec![10..40, 40..100]);
    }
}
