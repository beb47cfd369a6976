//! The combined segmenter the paper's conclusion calls for:
//!
//! "Both techniques (or a combination of the two) are likely to be
//! required for robust and reliable large-scale information extraction."
//! (Section 7)
//!
//! Strategy: run the CSP first. If it solves the strict problem, its
//! answer is final — "the constraint-satisfaction approach is very
//! reliable on clean data". If the CSP had to relax (dirty data), run the
//! probabilistic approach and use it to **fill in** the extracts the
//! relaxed CSP left unassigned, keeping every assignment the CSP did make
//! (they satisfy at least the relaxed constraints). The probabilistic
//! column labels are returned whenever that model ran.

use tableseg_extract::Observations;

use crate::segmenter::{CspSegmenter, ProbSegmenter, Segmenter, SegmenterOutcome};

/// CSP-first segmentation with probabilistic fill-in on dirty data.
#[derive(Debug, Clone, Default)]
pub struct HybridSegmenter {
    /// The CSP stage.
    pub csp: CspSegmenter,
    /// The probabilistic stage (run only when the CSP relaxes).
    pub prob: ProbSegmenter,
}

impl Segmenter for HybridSegmenter {
    fn segment(&self, obs: &Observations) -> SegmenterOutcome {
        let csp = self.csp.segment(obs);
        if !csp.relaxed && csp.segmentation.is_total() {
            return csp;
        }
        let prob = self.prob.segment(obs);
        // Keep CSP assignments; fill gaps from the probabilistic MAP.
        let mut merged = csp.segmentation.clone();
        for (slot, prob_a) in merged
            .assignments
            .iter_mut()
            .zip(&prob.segmentation.assignments)
        {
            if slot.is_none() {
                *slot = *prob_a;
            }
        }
        let mut solver_times = csp.solver_times;
        solver_times.merge(&prob.solver_times);
        let mut metrics = csp.metrics;
        metrics.merge(&prob.metrics);
        SegmenterOutcome {
            segmentation: merged,
            relaxed: csp.relaxed,
            columns: prob.columns,
            solver_times,
            metrics,
        }
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_extract::build_observations;

    fn obs(list: &str, details: &[&str]) -> Observations {
        build_observations(list, &[], details)
    }

    #[test]
    fn clean_data_is_pure_csp() {
        let obs = obs(
            "<td>Alpha One</td><td>100</td><td>Beta Two</td><td>200</td>",
            &[
                "<p>Alpha One</p><p>100</p>",
                "<p>Beta Two</p><p>200</p>",
                "<p>x</p>",
            ],
        );
        let out = HybridSegmenter::default().segment(&obs);
        assert!(!out.relaxed);
        assert_eq!(
            out.segmentation.assignments,
            vec![Some(0), Some(0), Some(1), Some(1)]
        );
        // Pure CSP path yields no columns.
        assert!(out.columns.is_none());
    }

    #[test]
    fn dirty_data_gets_filled_in() {
        // The Michigan-style inconsistency: the CSP relaxes and leaves
        // extracts unassigned; the hybrid fills them probabilistically.
        let obs = obs(
            "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>",
            &[
                "<p>Alpha One</p><p>Parole</p>",
                "<p>Beta Two</p><p>Parolee</p>",
            ],
        );
        let csp_only = CspSegmenter::default().segment(&obs);
        assert!(csp_only.relaxed);
        assert!(!csp_only.segmentation.is_total());

        let hybrid = HybridSegmenter::default().segment(&obs);
        assert!(hybrid.relaxed, "relaxation is still reported");
        assert!(hybrid.segmentation.is_total(), "{hybrid:?}");
        // CSP assignments are preserved.
        for (h, c) in hybrid
            .segmentation
            .assignments
            .iter()
            .zip(&csp_only.segmentation.assignments)
        {
            if let Some(r) = c {
                assert_eq!(h.as_ref(), Some(r));
            }
        }
        // Columns come from the probabilistic stage.
        assert!(hybrid.columns.is_some());
    }

    #[test]
    fn name() {
        assert_eq!(HybridSegmenter::default().name(), "hybrid");
    }
}
