//! The two segmentation approaches behind one trait.

use std::time::{Duration, Instant};

use tableseg_csp::{segment_csp, CspOptions, CspStatus};
use tableseg_extract::{Observations, Segmentation};
use tableseg_html::SegError;
use tableseg_obs::{Counter, Hist, Recorder};
use tableseg_prob::{segment_prob, ProbOptions};

use crate::timing::{Stage, StageTimes};

/// The result of a segmenter run.
#[derive(Debug, Clone)]
pub struct SegmenterOutcome {
    /// The record segmentation.
    pub segmentation: Segmentation,
    /// `true` if the approach had to relax its constraints (the CSP on
    /// inconsistent data — the paper's notes `c`/`d`).
    pub relaxed: bool,
    /// Column labels per extract, if the approach produces them (the
    /// probabilistic approach does; the CSP does not — Section 3.4).
    pub columns: Option<Vec<u32>>,
    /// The solver's own time, split into the [`Stage::SOLVE_SPLIT`]
    /// sub-stages. Harnesses merge this into their per-site
    /// [`StageTimes`] so reports can break the `solve` total down by
    /// method.
    pub solver_times: StageTimes,
    /// Solver observability metrics (WSAT flips/tries, relaxations, EM
    /// iterations). Empty unless [`tableseg_obs::set_enabled`] is on;
    /// harnesses merge it like `solver_times`.
    pub metrics: Recorder,
}

/// A record-segmentation algorithm operating on an observation table.
///
/// `Send + Sync` so segmenters can be shared across [`crate::batch`]
/// worker threads; every implementation is a plain configuration struct.
pub trait Segmenter: Send + Sync {
    /// Segments the observation table into records.
    fn segment(&self, obs: &Observations) -> SegmenterOutcome;

    /// A short display name ("CSP", "probabilistic").
    fn name(&self) -> &'static str;

    /// Fallible [`Segmenter::segment`]: a panic inside the solver is
    /// caught and reported as [`SegError::SolverFailed`], so a degenerate
    /// observation table (chaos-damaged input) costs one failed page, not
    /// the batch. Provided for every implementation.
    ///
    /// # Example
    ///
    /// ```
    /// use tableseg::{prepare, CspSegmenter, Segmenter, SitePages};
    ///
    /// let page = "<html><h1>Results</h1><table>\
    ///             <tr><td>Ada Lovelace</td></tr>\
    ///             <tr><td>Alan Turing</td></tr></table></html>";
    /// let prepared = prepare(&SitePages {
    ///     list_pages: vec![page],
    ///     target: 0,
    ///     detail_pages: vec!["<html><h2>Ada Lovelace</h2></html>"],
    /// });
    /// let outcome = CspSegmenter::default()
    ///     .try_segment(&prepared.observations)
    ///     .expect("clean input cannot fail the solver");
    /// assert!(outcome.segmentation.num_records > 0);
    /// ```
    fn try_segment(&self, obs: &Observations) -> Result<SegmenterOutcome, SegError> {
        crate::outcome::caught("solve", || self.segment(obs)).map_err(|e| match e {
            SegError::Internal { detail, .. } => SegError::SolverFailed {
                solver: self.name(),
                detail,
            },
            other => other,
        })
    }
}

/// The constraint-satisfaction approach (Section 4).
#[derive(Debug, Clone, Default)]
pub struct CspSegmenter {
    /// Solver and encoding options.
    pub options: CspOptions,
}

impl CspSegmenter {
    /// A segmenter with the Section 4.2 position constraints disabled
    /// (for the ablation experiment).
    pub fn without_position_constraints() -> CspSegmenter {
        CspSegmenter {
            options: CspOptions {
                position_constraints: false,
                ..CspOptions::default()
            },
        }
    }
}

impl Segmenter for CspSegmenter {
    fn segment(&self, obs: &Observations) -> SegmenterOutcome {
        let start = Instant::now();
        let out = segment_csp(obs, &self.options);
        let mut solver_times = StageTimes::new();
        solver_times.add(Stage::SolveCsp, start.elapsed());
        solver_times.add(Stage::SolveEncode, Duration::from_nanos(out.encode_ns));
        solver_times.add(Stage::SolveReduce, Duration::from_nanos(out.reduce_ns));
        let mut metrics = Recorder::new();
        metrics.bump(Counter::WsatFlips, out.flips);
        metrics.bump(Counter::WsatTries, out.tries);
        metrics.bump(Counter::SolveComponents, out.components as u64);
        metrics.bump(Counter::SolvePrunedVars, out.pruned_vars as u64);
        metrics.bump(Counter::SolveWarmStartHits, out.warm_start_hits);
        metrics.observe(Hist::WsatFlipsPerSolve, out.flips);
        let relaxed = out.status != CspStatus::Solved;
        if relaxed {
            metrics.incr(Counter::CspRelaxed);
        }
        SegmenterOutcome {
            segmentation: out.segmentation,
            relaxed,
            columns: None,
            solver_times,
            metrics,
        }
    }

    fn name(&self) -> &'static str {
        "CSP"
    }
}

/// The probabilistic approach (Section 5).
#[derive(Debug, Clone, Default)]
pub struct ProbSegmenter {
    /// EM and model options.
    pub options: ProbOptions,
}

impl ProbSegmenter {
    /// A segmenter without the hierarchical period model π (the Figure 2
    /// variant, for the ablation experiment).
    pub fn without_period_model() -> ProbSegmenter {
        ProbSegmenter {
            options: ProbOptions {
                period_model: false,
                ..ProbOptions::default()
            },
        }
    }
}

impl Segmenter for ProbSegmenter {
    fn segment(&self, obs: &Observations) -> SegmenterOutcome {
        let start = Instant::now();
        let out = segment_prob(obs, &self.options);
        let mut solver_times = StageTimes::new();
        solver_times.add(Stage::SolveProb, start.elapsed());
        solver_times.add(
            Stage::SolveEmEStep,
            Duration::from_nanos(out.timing.e_step_ns),
        );
        solver_times.add(
            Stage::SolveEmMStep,
            Duration::from_nanos(out.timing.m_step_ns),
        );
        solver_times.add(
            Stage::SolveViterbi,
            Duration::from_nanos(out.timing.viterbi_ns),
        );
        let mut metrics = Recorder::new();
        metrics.bump(Counter::EmIterations, out.iterations as u64);
        metrics.observe(Hist::EmIterationsPerSolve, out.iterations as u64);
        SegmenterOutcome {
            segmentation: out.segmentation,
            relaxed: false,
            columns: Some(out.columns),
            solver_times,
            metrics,
        }
    }

    fn name(&self) -> &'static str {
        "probabilistic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

    fn obs() -> Observations {
        let list = tokenize("<td>Ada Lovelace</td><td>100</td><td>Alan Turing</td><td>200</td>");
        let d1 = tokenize("<p>Ada Lovelace</p><p>100</p>");
        let d2 = tokenize("<p>Alan Turing</p><p>200</p>");
        let d3 = tokenize("<p>nothing</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2, &d3];
        build_observations(&list, &[], &details)
    }

    #[test]
    fn both_segmenters_agree_on_clean_data() {
        let obs = obs();
        let expected = vec![Some(0), Some(0), Some(1), Some(1)];
        for s in [
            &CspSegmenter::default() as &dyn Segmenter,
            &ProbSegmenter::default(),
        ] {
            let out = s.segment(&obs);
            assert_eq!(out.segmentation.assignments, expected, "{}", s.name());
            assert!(!out.relaxed, "{}", s.name());
        }
    }

    #[test]
    fn only_prob_yields_columns() {
        let obs = obs();
        assert!(CspSegmenter::default().segment(&obs).columns.is_none());
        let cols = ProbSegmenter::default()
            .segment(&obs)
            .columns
            .expect("probabilistic approach labels columns");
        assert_eq!(cols.len(), obs.len());
    }

    #[test]
    fn names() {
        assert_eq!(CspSegmenter::default().name(), "CSP");
        assert_eq!(ProbSegmenter::default().name(), "probabilistic");
    }

    #[test]
    fn ablation_constructors() {
        assert!(
            !CspSegmenter::without_position_constraints()
                .options
                .position_constraints
        );
        assert!(!ProbSegmenter::without_period_model().options.period_model);
    }
}
