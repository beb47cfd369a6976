//! Per-stage wall-clock timing for batch pipeline runs.
//!
//! The pipeline decomposes into six stages (tokenization, template
//! induction, extraction, detail-page matching, solving, decoding); each
//! job records a [`StageTimes`] and a [`Registry`] aggregates them per
//! label (typically per site) into the RT experiment report.
//!
//! Timing is collected unconditionally — the cost is a handful of
//! `Instant::now()` calls per page — but it is kept out of the default
//! report output so that result tables stay byte-identical across thread
//! counts and machines.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tableseg_obs::{SpanKind, SpanNode};

/// A pipeline stage, in execution order. The first six are the disjoint
/// top-level stages; the rest are *sub-stages* (they overlap a top-level
/// stage, attributing its time to one solver method, EM phase, or the
/// template fold) and are excluded from [`StageTimes::total`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Lexing list and detail pages into token streams.
    Tokenize,
    /// Page-template induction and quality assessment (once per site).
    TemplateInduction,
    /// Deriving extracts from the table slot.
    Extraction,
    /// Matching extracts against the detail pages.
    Matching,
    /// Running a segmenter (CSP / probabilistic / hybrid).
    Solve,
    /// Decoding the solution: truth alignment, classification, assembly.
    Decode,
    /// Sub-stage of `Solve`: building the CSP encoding and deriving its
    /// relaxation.
    SolveEncode,
    /// Sub-stage of `Solve`: instance reduction (propagation, entailment
    /// elimination, component split) ahead of the CSP search.
    SolveReduce,
    /// Sub-stage of `Solve`: the whole CSP solve (encode, reduce and the
    /// branch-and-bound).
    SolveCsp,
    /// Sub-stage of `Solve`: the whole probabilistic (EM) solve.
    SolveProb,
    /// Sub-stage of `SolveProb`: emissions + forward–backward.
    SolveEmEStep,
    /// Sub-stage of `SolveProb`: parameter updates + chain refreshes.
    SolveEmMStep,
    /// Sub-stage of `SolveProb`: the final MAP decode.
    SolveViterbi,
    /// Sub-stage of `TemplateInduction`: the histogram-LCS rolling merge
    /// (the fold itself, without quality assessment).
    InduceHistogram,
    /// Sub-stage of `Extraction`: table-region detection ahead of the
    /// per-region front end (zero on the classic, detect-disabled path).
    Detect,
    /// Sub-stage of `Solve`: the recursive nested-record pass (template
    /// re-induction plus sub-segmentation inside each parent slot).
    SolveNested,
}

impl Stage {
    /// Every *top-level* stage, in execution order. Sub-stages of `Solve`
    /// are listed in [`Stage::SOLVE_SPLIT`] instead.
    pub const ALL: [Stage; 6] = [
        Stage::Tokenize,
        Stage::TemplateInduction,
        Stage::Extraction,
        Stage::Matching,
        Stage::Solve,
        Stage::Decode,
    ];

    /// The sub-stages splitting `Solve` by method, in report order.
    pub const SOLVE_SPLIT: [Stage; 7] = [
        Stage::SolveEncode,
        Stage::SolveReduce,
        Stage::SolveCsp,
        Stage::SolveProb,
        Stage::SolveEmEStep,
        Stage::SolveEmMStep,
        Stage::SolveViterbi,
    ];

    /// The sub-stages splitting `TemplateInduction`.
    pub const TEMPLATE_SPLIT: [Stage; 1] = [Stage::InduceHistogram];

    /// The sub-stages added by the scenario-diversity layer: region
    /// detection (under `extract`) and the recursive nested pass (under
    /// `solve`).
    pub const DETECT_SPLIT: [Stage; 2] = [Stage::Detect, Stage::SolveNested];

    /// Short column label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Tokenize => "tokenize",
            Stage::TemplateInduction => "template",
            Stage::Extraction => "extract",
            Stage::Matching => "match",
            Stage::Solve => "solve",
            Stage::Decode => "decode",
            Stage::SolveEncode => "solve.encode",
            Stage::SolveReduce => "solve.reduce",
            Stage::SolveCsp => "solve.csp",
            Stage::SolveProb => "solve.prob",
            Stage::SolveEmEStep => "solve.em.e_step",
            Stage::SolveEmMStep => "solve.em.m_step",
            Stage::SolveViterbi => "solve.viterbi",
            Stage::InduceHistogram => "induce.histogram",
            Stage::Detect => "detect.regions",
            Stage::SolveNested => "solve.nested",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Tokenize => 0,
            Stage::TemplateInduction => 1,
            Stage::Extraction => 2,
            Stage::Matching => 3,
            Stage::Solve => 4,
            Stage::Decode => 5,
            Stage::SolveEncode => 6,
            Stage::SolveReduce => 7,
            Stage::SolveCsp => 8,
            Stage::SolveProb => 9,
            Stage::SolveEmEStep => 10,
            Stage::SolveEmMStep => 11,
            Stage::SolveViterbi => 12,
            Stage::InduceHistogram => 13,
            Stage::Detect => 14,
            Stage::SolveNested => 15,
        }
    }
}

/// Number of tracked stages (top-level + sub-stages).
const NUM_STAGES: usize = Stage::ALL.len()
    + Stage::SOLVE_SPLIT.len()
    + Stage::TEMPLATE_SPLIT.len()
    + Stage::DETECT_SPLIT.len();

/// Wall-clock time spent per stage by one job (or merged over many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    nanos: [u128; NUM_STAGES],
}

impl StageTimes {
    /// No time recorded anywhere.
    pub fn new() -> StageTimes {
        StageTimes::default()
    }

    /// Adds `elapsed` to one stage.
    pub fn add(&mut self, stage: Stage, elapsed: Duration) {
        self.nanos[stage.index()] += elapsed.as_nanos();
    }

    /// Runs `f`, charging its wall-clock time to `stage`.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(stage, start.elapsed());
        out
    }

    /// Time recorded for one stage.
    pub fn get(&self, stage: Stage) -> Duration {
        nanos_to_duration(self.nanos[stage.index()])
    }

    /// Sums another record into this one.
    pub fn merge(&mut self, other: &StageTimes) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += b;
        }
    }

    /// Total time across the top-level stages. Solve sub-stages are
    /// excluded: they re-attribute time already counted under `Solve`.
    pub fn total(&self) -> Duration {
        nanos_to_duration(self.nanos[..Stage::ALL.len()].iter().sum())
    }
}

fn nanos_to_duration(n: u128) -> Duration {
    Duration::from_nanos(u64::try_from(n).unwrap_or(u64::MAX))
}

/// Converts one scope's [`StageTimes`] into observability stage spans:
/// the six top-level stages in execution order, with the solver
/// sub-stages nested under `solve` (`solve.encode`, `solve.reduce`,
/// `solve.csp`, `solve.prob`, the recursive `solve.nested` pass), the EM
/// phases under `solve.prob`, the histogram fold (`induce.histogram`)
/// under `template`, and region detection (`detect.regions`) under
/// `extract`. Every stage is always emitted
/// — zeros included — so the span-tree *shape* depends only on the
/// corpus, never on what happened to take measurable time.
pub fn stage_spans(times: &StageTimes) -> Vec<SpanNode> {
    let span = |stage: Stage, kind: SpanKind| {
        SpanNode::new(kind, stage.label(), times.get(stage).as_nanos())
    };
    Stage::ALL
        .into_iter()
        .map(|stage| {
            let mut node = span(stage, SpanKind::Stage);
            if stage == Stage::TemplateInduction {
                node.push(span(Stage::InduceHistogram, SpanKind::SolverSubstage));
            }
            if stage == Stage::Extraction {
                node.push(span(Stage::Detect, SpanKind::SolverSubstage));
            }
            if stage == Stage::Solve {
                node.push(span(Stage::SolveEncode, SpanKind::SolverSubstage));
                node.push(span(Stage::SolveReduce, SpanKind::SolverSubstage));
                node.push(span(Stage::SolveCsp, SpanKind::SolverSubstage));
                let mut prob = span(Stage::SolveProb, SpanKind::SolverSubstage);
                for sub in [
                    Stage::SolveEmEStep,
                    Stage::SolveEmMStep,
                    Stage::SolveViterbi,
                ] {
                    prob.push(span(sub, SpanKind::SolverSubstage));
                }
                node.push(prob);
                node.push(span(Stage::SolveNested, SpanKind::SolverSubstage));
            }
            node
        })
        .collect()
}

impl fmt::Display for StageTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for stage in Stage::ALL {
            if !first {
                write!(f, "  ")?;
            }
            first = false;
            write!(f, "{} {}", stage.label(), human(self.get(stage)))?;
        }
        Ok(())
    }
}

/// Thread-safe aggregation of [`StageTimes`] keyed by label, preserving
/// first-insertion order. Batch runs record one entry per site.
#[derive(Debug, Default)]
pub struct Registry {
    rows: Mutex<Vec<(String, StageTimes)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Merges `times` into the entry for `label` (created on first use).
    /// Poisoning is recovered — timing rows stay valid even if a worker
    /// panicked while recording.
    pub fn record(&self, label: &str, times: &StageTimes) {
        let mut rows = self
            .rows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match rows.iter_mut().find(|(l, _)| l == label) {
            Some((_, acc)) => acc.merge(times),
            None => rows.push((label.to_owned(), *times)),
        }
    }

    /// A snapshot of every entry, in first-insertion order.
    pub fn rows(&self) -> Vec<(String, StageTimes)> {
        self.rows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Renders the per-stage wall-clock report (the RT table).
    pub fn render(&self) -> String {
        let rows = self.rows();
        let mut out = String::new();
        out.push_str(&format!("{:<24}", "site"));
        for stage in Stage::ALL {
            out.push_str(&format!(" | {:>9}", stage.label()));
        }
        out.push_str(&format!(" | {:>9}\n", "total"));
        let mut grand = StageTimes::new();
        for (label, times) in &rows {
            grand.merge(times);
            out.push_str(&format!("{label:<24}"));
            for stage in Stage::ALL {
                out.push_str(&format!(" | {:>9}", human(times.get(stage))));
            }
            out.push_str(&format!(" | {:>9}\n", human(times.total())));
        }
        if rows.len() > 1 {
            out.push_str(&format!("{:<24}", "TOTAL"));
            for stage in Stage::ALL {
                out.push_str(&format!(" | {:>9}", human(grand.get(stage))));
            }
            out.push_str(&format!(" | {:>9}\n", human(grand.total())));
        }
        out
    }

    /// Renders the `solve` stage split by solver method and EM phase
    /// (the [`Stage::SOLVE_SPLIT`] columns), as a separate table so the
    /// main report keeps its golden shape.
    pub fn render_solve_split(&self) -> String {
        let rows = self.rows();
        let mut out = String::new();
        out.push_str(&format!("{:<24}", "site"));
        out.push_str(&format!(" | {:>9}", Stage::Solve.label()));
        for stage in Stage::SOLVE_SPLIT {
            out.push_str(&format!(" | {:>15}", stage.label()));
        }
        out.push('\n');
        let mut grand = StageTimes::new();
        for (label, times) in &rows {
            grand.merge(times);
            out.push_str(&format!("{label:<24}"));
            out.push_str(&format!(" | {:>9}", human(times.get(Stage::Solve))));
            for stage in Stage::SOLVE_SPLIT {
                out.push_str(&format!(" | {:>15}", human(times.get(stage))));
            }
            out.push('\n');
        }
        if rows.len() > 1 {
            out.push_str(&format!("{:<24}", "TOTAL"));
            out.push_str(&format!(" | {:>9}", human(grand.get(Stage::Solve))));
            for stage in Stage::SOLVE_SPLIT {
                out.push_str(&format!(" | {:>15}", human(grand.get(stage))));
            }
            out.push('\n');
        }
        out
    }
}

/// Compact human-readable duration (`12.3µs`, `4.56ms`, `1.23s`).
fn human(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 1e-6 {
        format!("{:.1}ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_charges_the_right_stage() {
        let mut t = StageTimes::new();
        let v = t.time(Stage::Solve, || 41 + 1);
        assert_eq!(v, 42);
        assert!(t.get(Stage::Solve) > Duration::ZERO);
        assert_eq!(t.get(Stage::Tokenize), Duration::ZERO);
        assert_eq!(t.total(), t.get(Stage::Solve));
    }

    #[test]
    fn merge_sums_stages() {
        let mut a = StageTimes::new();
        a.add(Stage::Tokenize, Duration::from_micros(5));
        let mut b = StageTimes::new();
        b.add(Stage::Tokenize, Duration::from_micros(7));
        b.add(Stage::Decode, Duration::from_micros(1));
        a.merge(&b);
        assert_eq!(a.get(Stage::Tokenize), Duration::from_micros(12));
        assert_eq!(a.get(Stage::Decode), Duration::from_micros(1));
    }

    #[test]
    fn registry_merges_by_label_in_order() {
        let reg = Registry::new();
        let mut t = StageTimes::new();
        t.add(Stage::Solve, Duration::from_micros(3));
        reg.record("b", &t);
        reg.record("a", &t);
        reg.record("b", &t);
        let rows = reg.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "b");
        assert_eq!(rows[0].1.get(Stage::Solve), Duration::from_micros(6));
        assert_eq!(rows[1].0, "a");
        let report = reg.render();
        assert!(report.contains("solve"), "{report}");
        assert!(report.contains("TOTAL"), "{report}");
    }

    #[test]
    fn stage_indices_match_all_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        for (i, stage) in Stage::SOLVE_SPLIT.iter().enumerate() {
            assert_eq!(stage.index(), Stage::ALL.len() + i);
        }
        for (i, stage) in Stage::TEMPLATE_SPLIT.iter().enumerate() {
            assert_eq!(
                stage.index(),
                Stage::ALL.len() + Stage::SOLVE_SPLIT.len() + i
            );
        }
        for (i, stage) in Stage::DETECT_SPLIT.iter().enumerate() {
            assert_eq!(
                stage.index(),
                Stage::ALL.len() + Stage::SOLVE_SPLIT.len() + Stage::TEMPLATE_SPLIT.len() + i
            );
        }
    }

    #[test]
    fn total_excludes_solve_substages() {
        let mut t = StageTimes::new();
        t.add(Stage::Solve, Duration::from_micros(10));
        t.add(Stage::SolveCsp, Duration::from_micros(4));
        t.add(Stage::SolveProb, Duration::from_micros(6));
        t.add(Stage::SolveEmEStep, Duration::from_micros(5));
        t.add(Stage::InduceHistogram, Duration::from_micros(3));
        t.add(Stage::Detect, Duration::from_micros(2));
        t.add(Stage::SolveNested, Duration::from_micros(7));
        assert_eq!(t.total(), Duration::from_micros(10));
    }

    #[test]
    fn stage_spans_nest_detect_under_extract_and_nested_under_solve() {
        let mut t = StageTimes::new();
        t.add(Stage::Extraction, Duration::from_micros(4));
        t.add(Stage::Detect, Duration::from_micros(2));
        t.add(Stage::SolveNested, Duration::from_micros(6));
        let spans = stage_spans(&t);
        let extract = spans
            .iter()
            .find(|s| s.name == "extract")
            .expect("extract span");
        assert_eq!(extract.children.len(), 1);
        assert_eq!(extract.children[0].name, "detect.regions");
        assert_eq!(extract.children[0].nanos, 2_000);
        let solve = spans.iter().find(|s| s.name == "solve").expect("solve");
        assert!(solve.children.iter().any(|c| c.name == "solve.nested"));
    }

    #[test]
    fn stage_spans_nest_induce_histogram_under_template() {
        let mut t = StageTimes::new();
        t.add(Stage::TemplateInduction, Duration::from_micros(8));
        t.add(Stage::InduceHistogram, Duration::from_micros(5));
        let spans = stage_spans(&t);
        let template = spans
            .iter()
            .find(|s| s.name == "template")
            .expect("template span");
        assert_eq!(template.children.len(), 1);
        assert_eq!(template.children[0].name, "induce.histogram");
        assert_eq!(template.children[0].nanos, 5_000);
    }

    #[test]
    fn solve_split_render_lists_substages() {
        let reg = Registry::new();
        let mut t = StageTimes::new();
        t.add(Stage::Solve, Duration::from_micros(9));
        t.add(Stage::SolveCsp, Duration::from_micros(3));
        t.add(Stage::SolveEmMStep, Duration::from_micros(2));
        reg.record("site", &t);
        let report = reg.render_solve_split();
        assert!(report.contains("solve.csp"), "{report}");
        assert!(report.contains("solve.em.m_step"), "{report}");
        assert!(report.contains("solve.viterbi"), "{report}");
    }
}
