//! Run-level robustness accounting.
//!
//! A chaos sweep (or a real crawl) processes hundreds of pages, some of
//! them damaged. [`RobustnessReport`] folds per-page [`PageOutcome`]s into
//! the numbers a run cares about: how many pages were clean, degraded or
//! failed, which warnings fired how often, and which pipeline stage each
//! failure was attributed to (the stage axis matches the timing
//! registry's, so failure counts and wall-clock times pivot together).

use tableseg_html::SegError;

use crate::outcome::PageOutcome;

/// Aggregated outcome counts for one run (or one slice of a run — reports
/// merge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// Pages recorded.
    pub pages: usize,
    /// Pages processed cleanly.
    pub ok: usize,
    /// Pages processed with warnings.
    pub degraded: usize,
    /// Pages that could not be processed.
    pub failed: usize,
    /// Warning counts by label, in first-seen order.
    pub warnings: Vec<(&'static str, usize)>,
    /// Failure counts by attributed pipeline stage, in first-seen order.
    pub failures_by_stage: Vec<(&'static str, usize)>,
}

fn bump(rows: &mut Vec<(&'static str, usize)>, label: &'static str) {
    match rows.iter_mut().find(|(l, _)| *l == label) {
        Some((_, n)) => *n += 1,
        None => rows.push((label, 1)),
    }
}

impl RobustnessReport {
    /// An empty report.
    pub fn new() -> RobustnessReport {
        RobustnessReport::default()
    }

    /// Folds one page outcome into the report.
    pub fn record(&mut self, outcome: &PageOutcome) {
        self.pages += 1;
        match outcome {
            PageOutcome::Ok => self.ok += 1,
            PageOutcome::Degraded { warnings } => {
                self.degraded += 1;
                for w in warnings {
                    bump(&mut self.warnings, w.label());
                }
            }
            PageOutcome::Failed { error } => {
                self.failed += 1;
                bump(&mut self.failures_by_stage, error.stage());
            }
        }
    }

    /// Records a page that failed *outside* the front end (e.g. a solver
    /// failure after a successful prepare): counts one failed page and
    /// attributes the error to its stage. `pages == ok + degraded +
    /// failed` always holds.
    pub fn record_error(&mut self, error: &SegError) {
        self.pages += 1;
        self.failed += 1;
        bump(&mut self.failures_by_stage, error.stage());
    }

    /// Folds `other` into this report.
    pub fn merge(&mut self, other: &RobustnessReport) {
        self.pages += other.pages;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.failed += other.failed;
        for &(label, n) in &other.warnings {
            match self.warnings.iter_mut().find(|(l, _)| *l == label) {
                Some((_, m)) => *m += n,
                None => self.warnings.push((label, n)),
            }
        }
        for &(label, n) in &other.failures_by_stage {
            match self.failures_by_stage.iter_mut().find(|(l, _)| *l == label) {
                Some((_, m)) => *m += n,
                None => self.failures_by_stage.push((label, n)),
            }
        }
    }

    /// `true` if every recorded page was clean.
    pub fn all_clean(&self) -> bool {
        self.degraded == 0 && self.failed == 0
    }

    /// Converts the report into the manifest's robustness section, with
    /// warning and failure rows sorted by label (the report's own
    /// first-seen order is already deterministic — reports are assembled
    /// in job order — but sorted rows make manifests comparable across
    /// configurations that discover warnings in different orders).
    pub fn rollup(&self) -> tableseg_obs::RobustnessRollup {
        let sorted = |rows: &[(&'static str, usize)]| {
            let mut rows: Vec<(String, u64)> = rows
                .iter()
                .map(|&(label, n)| (label.to_string(), n as u64))
                .collect();
            rows.sort();
            rows
        };
        tableseg_obs::RobustnessRollup {
            pages: self.pages as u64,
            ok: self.ok as u64,
            degraded: self.degraded as u64,
            failed: self.failed as u64,
            warnings: sorted(&self.warnings),
            failures_by_stage: sorted(&self.failures_by_stage),
        }
    }

    /// Renders the report as a small fixed-width text block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "pages {}  ok {}  degraded {}  failed {}\n",
            self.pages, self.ok, self.degraded, self.failed
        );
        if !self.warnings.is_empty() {
            out.push_str("warnings:");
            for (label, n) in &self.warnings {
                out.push_str(&format!("  {label} {n}"));
            }
            out.push('\n');
        }
        if !self.failures_by_stage.is_empty() {
            out.push_str("failures by stage:");
            for (label, n) in &self.failures_by_stage {
                out.push_str(&format!("  {label} {n}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Warning;

    #[test]
    fn counts_and_merge() {
        let outcomes = vec![
            PageOutcome::Ok,
            PageOutcome::Degraded {
                warnings: vec![Warning::WholePageFallback, Warning::NoDetailPages],
            },
            PageOutcome::Failed {
                error: SegError::NoExtracts,
            },
        ];
        let mut r = RobustnessReport::new();
        for outcome in &outcomes {
            r.record(outcome);
        }
        assert_eq!((r.pages, r.ok, r.degraded, r.failed), (3, 1, 1, 1));
        assert_eq!(
            r.warnings,
            vec![("whole_page_fallback", 1), ("no_detail_pages", 1)]
        );
        assert_eq!(r.failures_by_stage, vec![("extract", 1)]);
        assert!(!r.all_clean());

        let mut other = RobustnessReport::new();
        other.record(&PageOutcome::Ok);
        other.record_error(&SegError::SolverFailed {
            solver: "CSP",
            detail: "x".into(),
        });
        r.merge(&other);
        assert_eq!((r.pages, r.ok, r.failed), (5, 2, 2));
        assert_eq!(r.pages, r.ok + r.degraded + r.failed);
        assert_eq!(r.failures_by_stage, vec![("extract", 1), ("solve", 1)]);
    }

    #[test]
    fn record_error_counts_a_failed_page() {
        let mut r = RobustnessReport::new();
        r.record_error(&SegError::NoObservations { skipped: 2 });
        assert_eq!(r.failed, 1);
        assert_eq!(r.failures_by_stage, vec![("match", 1)]);
    }

    #[test]
    fn render_mentions_everything() {
        let mut r = RobustnessReport::new();
        r.record(&PageOutcome::Failed {
            error: SegError::NoExtracts,
        });
        let text = r.render();
        assert!(text.contains("failed 1"), "{text}");
        assert!(text.contains("extract"), "{text}");
        assert!(RobustnessReport::new().all_clean());
    }
}
