//! Per-page outcomes: graceful degradation instead of aborted batches.
//!
//! Real crawls hand the pipeline truncated pages, dead detail links and
//! empty responses. [`run_page`](crate::run_page) reports each page as a
//! three-way [`PageOutcome`]: clean success, success with [`Warning`]s
//! (the page was processed but something about it was off — whole-page
//! fallback, empty detail pages, an empty observation table), or failure
//! with a [`SegError`]. Batch runs fold outcomes into a
//! [`RobustnessReport`](crate::robustness::RobustnessReport) so a poisoned
//! page costs one row of a report, never the run.
//!
//! [`caught`] is the last-resort backstop behind the fallible pipeline
//! entry points: it converts a panic into [`SegError::Internal`] attributed
//! to a pipeline stage. Any `Internal` error in a run is a bug — but a
//! *reported* bug instead of an aborted batch.

use tableseg_html::SegError;
use tableseg_obs::{Counter, Recorder};

use crate::pipeline::{PreparedPage, SiteTemplate};

/// Runs `f`, converting a panic into [`SegError::Internal`] attributed to
/// `stage` (one of the timing-registry stage labels).
///
/// Uses `std::panic::catch_unwind` over an `AssertUnwindSafe` closure —
/// safe code; the pipeline works on owned data, so no broken invariant
/// outlives the catch. The process's panic hook still runs (the message
/// appears on stderr); the batch, however, continues.
pub fn caught<T>(stage: &'static str, f: impl FnOnce() -> T) -> Result<T, SegError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(SegError::Internal {
            stage,
            detail: panic_detail(payload.as_ref()),
        }),
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Something off about a page that was still processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Warning {
    /// The induced template was unusable (or had no table slot); the whole
    /// page was used instead — the paper's notes `a`/`b`.
    WholePageFallback,
    /// The target list page tokenized to nothing (blank or all-markup).
    EmptyListPage,
    /// The page has no detail pages at all, so no extract can be supported.
    NoDetailPages,
    /// One detail page was empty (a blanked or dead-link response).
    EmptyDetailPage {
        /// Row index of the empty detail page.
        index: usize,
    },
    /// Every derived extract was filtered out of the observation table;
    /// there is nothing to segment.
    NoObservations {
        /// How many extracts were derived (and skipped).
        skipped: usize,
    },
}

impl Warning {
    /// Every warning kind's label, in report order.
    pub const LABELS: [&'static str; 5] = [
        "whole_page_fallback",
        "empty_list_page",
        "no_detail_pages",
        "empty_detail_page",
        "no_observations",
    ];

    /// Short stable label for reports (one per variant; the per-index
    /// detail of [`Warning::EmptyDetailPage`] is collapsed).
    pub fn label(&self) -> &'static str {
        match self {
            Warning::WholePageFallback => "whole_page_fallback",
            Warning::EmptyListPage => "empty_list_page",
            Warning::NoDetailPages => "no_detail_pages",
            Warning::EmptyDetailPage { .. } => "empty_detail_page",
            Warning::NoObservations { .. } => "no_observations",
        }
    }
}

/// What happened to one page.
#[derive(Debug, Clone, PartialEq)]
pub enum PageOutcome {
    /// The page was processed cleanly.
    Ok,
    /// The page was processed, but degraded — the warnings say how.
    Degraded {
        /// What was off, in detection order.
        warnings: Vec<Warning>,
    },
    /// The page could not be processed at all.
    Failed {
        /// Why.
        error: SegError,
    },
}

impl PageOutcome {
    /// The warnings (empty unless degraded).
    pub fn warnings(&self) -> &[Warning] {
        match self {
            PageOutcome::Degraded { warnings } => warnings,
            _ => &[],
        }
    }

    /// The error, if the page failed.
    pub fn error(&self) -> Option<&SegError> {
        match self {
            PageOutcome::Failed { error } => Some(error),
            _ => None,
        }
    }

    /// `true` for [`PageOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, PageOutcome::Failed { .. })
    }

    /// Short stable label: `ok`, `degraded` or `failed`.
    pub fn label(&self) -> &'static str {
        match self {
            PageOutcome::Ok => "ok",
            PageOutcome::Degraded { .. } => "degraded",
            PageOutcome::Failed { .. } => "failed",
        }
    }

    /// Counts this outcome into `metrics`: one of `pages.ok`,
    /// `pages.degraded` or `pages.failed`, plus one `pages.warnings` per
    /// warning. Every driver counts page outcomes through here.
    pub fn count(&self, metrics: &mut Recorder) {
        metrics.incr(match self {
            PageOutcome::Ok => Counter::PagesOk,
            PageOutcome::Degraded { .. } => Counter::PagesDegraded,
            PageOutcome::Failed { .. } => Counter::PagesFailed,
        });
        metrics.bump(Counter::PageWarnings, self.warnings().len() as u64);
    }
}

/// Classifies a page whose front end succeeded: clean, or degraded with
/// the reasons attached. `regions` are the page's prepared table regions.
pub(crate) fn classify(
    template: &SiteTemplate,
    target: usize,
    detail_pages: &[&str],
    regions: &[PreparedPage],
) -> PageOutcome {
    let mut warnings = Vec::new();
    if template.streams.get(target).is_some_and(Vec::is_empty) {
        warnings.push(Warning::EmptyListPage);
    }
    if detail_pages.is_empty() {
        warnings.push(Warning::NoDetailPages);
    }
    for (index, d) in detail_pages.iter().enumerate() {
        if d.trim().is_empty() {
            warnings.push(Warning::EmptyDetailPage { index });
        }
    }
    if regions.iter().any(|r| r.used_whole_page) {
        warnings.push(Warning::WholePageFallback);
    }
    if regions.iter().all(|r| r.observations.items.is_empty()) {
        warnings.push(Warning::NoObservations {
            skipped: regions.iter().map(|r| r.observations.skipped.len()).sum(),
        });
    }
    if warnings.is_empty() {
        PageOutcome::Ok
    } else {
        PageOutcome::Degraded { warnings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(body: &str) -> String {
        format!(
            "<html><h1>Example Search Results</h1><table>{body}</table>\
             <p>Copyright 2004 Example Inc All rights reserved</p></html>"
        )
    }

    fn site() -> (String, String, Vec<&'static str>) {
        let a = page(
            "<tr><td>Ada Lovelace</td><td>(555) 100-0001</td></tr>\
             <tr><td>Alan Turing</td><td>(555) 100-0002</td></tr>",
        );
        let b = page("<tr><td>Grace Hopper</td><td>(555) 100-0003</td></tr>");
        let details = vec![
            "<html><h2>Ada Lovelace</h2><p>(555) 100-0001</p></html>",
            "<html><h2>Alan Turing</h2><p>(555) 100-0002</p></html>",
        ];
        (a, b, details)
    }

    fn outcome(template: &SiteTemplate, target: usize, details: &[&str]) -> PageOutcome {
        crate::pipeline::run_page(template, target, details, None, &[]).outcome
    }

    #[test]
    fn clean_site_is_ok() {
        let (a, b, details) = site();
        let template = SiteTemplate::build(&[&a, &b]);
        let out = outcome(&template, 0, &details);
        assert_eq!(out, PageOutcome::Ok, "{:?}", out.warnings());
        assert_eq!(out.label(), "ok");
        assert!(out.error().is_none());
        assert!(!out.is_failed());
    }

    #[test]
    fn bad_target_fails_without_panicking() {
        let (a, b, details) = site();
        let template = SiteTemplate::build(&[&a, &b]);
        let out = outcome(&template, 9, &details);
        assert!(out.is_failed());
        assert_eq!(out.label(), "failed");
        assert_eq!(
            out.error(),
            Some(&SegError::TargetOutOfBounds {
                target: 9,
                pages: 2
            })
        );
        assert!(out.warnings().is_empty());
    }

    #[test]
    fn empty_details_degrade() {
        let (a, b, _) = site();
        let template = SiteTemplate::build(&[&a, &b]);
        let out = outcome(&template, 0, &["", "  "]);
        let labels: Vec<_> = out.warnings().iter().map(Warning::label).collect();
        assert!(labels.contains(&"empty_detail_page"), "{labels:?}");
        assert_eq!(out.label(), "degraded", "degraded pages are still usable");
    }

    #[test]
    fn single_page_site_reports_whole_page_fallback() {
        let (a, _, details) = site();
        let template = SiteTemplate::build(&[&a]);
        let out = outcome(&template, 0, &details);
        assert!(out.warnings().contains(&Warning::WholePageFallback));
    }

    #[test]
    fn no_detail_pages_warn() {
        let (a, b, _) = site();
        let template = SiteTemplate::build(&[&a, &b]);
        let out = outcome(&template, 0, &[]);
        assert!(out
            .warnings()
            .iter()
            .any(|w| w.label() == "no_detail_pages"));
    }

    #[test]
    fn count_bumps_one_outcome_counter_and_the_warnings() {
        let mut m = Recorder::always_on();
        PageOutcome::Ok.count(&mut m);
        PageOutcome::Degraded {
            warnings: vec![Warning::NoDetailPages, Warning::WholePageFallback],
        }
        .count(&mut m);
        PageOutcome::Failed {
            error: SegError::NoExtracts,
        }
        .count(&mut m);
        for (counter, n) in [
            (Counter::PagesOk, 1),
            (Counter::PagesDegraded, 1),
            (Counter::PagesFailed, 1),
            (Counter::PageWarnings, 2),
        ] {
            assert_eq!(m.counters.get(counter), n, "{counter:?}");
        }
    }

    #[test]
    fn caught_converts_panics() {
        let err = caught("solve", || panic!("boom {}", 7)).unwrap_err();
        assert_eq!(
            err,
            SegError::Internal {
                stage: "solve",
                detail: "boom 7".into()
            }
        );
        assert_eq!(err.stage(), "solve");
        assert_eq!(caught("solve", || 41 + 1), Ok(42));
    }

    #[test]
    fn warning_labels_are_exhaustive() {
        let all = [
            Warning::WholePageFallback,
            Warning::EmptyListPage,
            Warning::NoDetailPages,
            Warning::EmptyDetailPage { index: 0 },
            Warning::NoObservations { skipped: 3 },
        ];
        for (w, l) in all.iter().zip(Warning::LABELS) {
            assert_eq!(w.label(), l);
        }
    }
}
