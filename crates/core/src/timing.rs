//! Per-stage wall-clock timing for batch pipeline runs.
//!
//! The pipeline decomposes into six stages (tokenization, template
//! induction, extraction, detail-page matching, solving, decoding); each
//! job records a [`StageTimes`] and a [`Registry`] aggregates them per
//! label (typically per site) into the RT experiment report. Some stages
//! are *sub-stages*: [`Stage::parent`] names the stage whose time they
//! re-attribute, and that one declaration is the stage tree behind the
//! RT tables, the span trees and the bench totals.
//!
//! Timing is collected unconditionally — the cost is a handful of
//! `Instant::now()` calls per page — but it is kept out of the default
//! report output so that result tables stay byte-identical across thread
//! counts and machines.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use tableseg_obs::{SpanKind, SpanNode};

/// A pipeline stage. Variants are declared in [`Stage::EVERY`] order:
/// depth first, each stage before its sub-stages. The six top-level
/// stages run one after the other; a sub-stage overlaps its
/// [`Stage::parent`], attributing part of its time to one solver method,
/// EM phase, the template fold or region detection, and is excluded from
/// [`StageTimes::total`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Lexing list and detail pages into token streams.
    Tokenize,
    /// Page-template induction and quality assessment (once per site).
    TemplateInduction,
    /// Sub-stage of `TemplateInduction`: the histogram-LCS rolling merge
    /// (the fold itself, without quality assessment).
    InduceHistogram,
    /// Deriving extracts from the table slot.
    Extraction,
    /// Sub-stage of `Extraction`: table-region detection ahead of the
    /// per-region front end (zero on the classic, detect-disabled path).
    Detect,
    /// Matching extracts against the detail pages.
    Matching,
    /// Running a segmenter (CSP / probabilistic / hybrid).
    Solve,
    /// Sub-stage of `Solve`: the whole CSP solve (encode, reduce and the
    /// branch-and-bound).
    SolveCsp,
    /// Sub-stage of `SolveCsp`: building the CSP encoding and deriving
    /// its relaxation.
    SolveEncode,
    /// Sub-stage of `SolveCsp`: instance reduction (propagation,
    /// entailment elimination, component split) ahead of the search.
    SolveReduce,
    /// Sub-stage of `Solve`: the whole probabilistic (EM) solve.
    SolveProb,
    /// Sub-stage of `SolveProb`: emissions + forward–backward.
    SolveEmEStep,
    /// Sub-stage of `SolveProb`: parameter updates + chain refreshes.
    SolveEmMStep,
    /// Sub-stage of `SolveProb`: the final MAP decode.
    SolveViterbi,
    /// Sub-stage of `Solve`: the recursive nested-record pass (template
    /// re-induction plus sub-segmentation inside each parent slot).
    SolveNested,
    /// Decoding the solution: truth alignment, classification, assembly.
    Decode,
}

impl Stage {
    /// Every stage in declaration order: depth first, parents before
    /// their sub-stages. This is the report order of every stage list.
    pub const EVERY: [Stage; 16] = [
        Stage::Tokenize,
        Stage::TemplateInduction,
        Stage::InduceHistogram,
        Stage::Extraction,
        Stage::Detect,
        Stage::Matching,
        Stage::Solve,
        Stage::SolveCsp,
        Stage::SolveEncode,
        Stage::SolveReduce,
        Stage::SolveProb,
        Stage::SolveEmEStep,
        Stage::SolveEmMStep,
        Stage::SolveViterbi,
        Stage::SolveNested,
        Stage::Decode,
    ];

    /// The top-level stages, in execution order: the stages without a
    /// [`Stage::parent`].
    pub const ALL: [Stage; 6] = [
        Stage::Tokenize,
        Stage::TemplateInduction,
        Stage::Extraction,
        Stage::Matching,
        Stage::Solve,
        Stage::Decode,
    ];

    /// The sub-stages of `Solve` other than `solve.nested`. Kept for
    /// readers outside the workspace; the library derives every stage
    /// list from [`Stage::parent`].
    pub const SOLVE_SPLIT: [Stage; 7] = [
        Stage::SolveEncode,
        Stage::SolveReduce,
        Stage::SolveCsp,
        Stage::SolveProb,
        Stage::SolveEmEStep,
        Stage::SolveEmMStep,
        Stage::SolveViterbi,
    ];

    /// The sub-stages of `TemplateInduction`.
    pub const TEMPLATE_SPLIT: [Stage; 1] = [Stage::InduceHistogram];

    /// Region detection (under `extract`) and the recursive nested pass
    /// (under `solve`).
    pub const DETECT_SPLIT: [Stage; 2] = [Stage::Detect, Stage::SolveNested];

    /// The stage whose time this sub-stage re-attributes, or `None` for a
    /// top-level stage. The one declaration of the stage tree.
    pub fn parent(self) -> Option<Stage> {
        match self {
            Stage::Tokenize
            | Stage::TemplateInduction
            | Stage::Extraction
            | Stage::Matching
            | Stage::Solve
            | Stage::Decode => None,
            Stage::InduceHistogram => Some(Stage::TemplateInduction),
            Stage::Detect => Some(Stage::Extraction),
            Stage::SolveCsp | Stage::SolveProb | Stage::SolveNested => Some(Stage::Solve),
            Stage::SolveEncode | Stage::SolveReduce => Some(Stage::SolveCsp),
            Stage::SolveEmEStep | Stage::SolveEmMStep | Stage::SolveViterbi => {
                Some(Stage::SolveProb)
            }
        }
    }

    /// The stages directly under `parent` (the top-level stages for
    /// `None`), in [`Stage::EVERY`] order.
    fn children_of(parent: Option<Stage>) -> impl Iterator<Item = Stage> {
        Stage::EVERY
            .into_iter()
            .filter(move |s| s.parent() == parent)
    }

    /// This stage and every stage under it, in [`Stage::EVERY`] order.
    pub fn subtree(self) -> impl Iterator<Item = Stage> {
        Stage::EVERY
            .into_iter()
            .filter(move |&s| std::iter::successors(Some(s), |s| s.parent()).any(|s| s == self))
    }

    /// Short column label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Tokenize => "tokenize",
            Stage::TemplateInduction => "template",
            Stage::InduceHistogram => "induce.histogram",
            Stage::Extraction => "extract",
            Stage::Detect => "detect.regions",
            Stage::Matching => "match",
            Stage::Solve => "solve",
            Stage::SolveCsp => "solve.csp",
            Stage::SolveEncode => "solve.encode",
            Stage::SolveReduce => "solve.reduce",
            Stage::SolveProb => "solve.prob",
            Stage::SolveEmEStep => "solve.em.e_step",
            Stage::SolveEmMStep => "solve.em.m_step",
            Stage::SolveViterbi => "solve.viterbi",
            Stage::SolveNested => "solve.nested",
            Stage::Decode => "decode",
        }
    }
}

/// Wall-clock time spent per stage by one job (or merged over many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    nanos: [u128; Stage::EVERY.len()],
}

impl StageTimes {
    /// No time recorded anywhere.
    pub fn new() -> StageTimes {
        StageTimes::default()
    }

    /// Adds `elapsed` to one stage.
    pub fn add(&mut self, stage: Stage, elapsed: Duration) {
        self.nanos[stage as usize] += elapsed.as_nanos();
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
        nanos_to_duration(self.nanos[stage as usize])
    }

    /// Sums another record into this one.
    pub fn merge(&mut self, other: &StageTimes) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += b;
        }
    }

    /// Total time across the top-level stages. Sub-stages are excluded:
    /// they re-attribute time already counted under their parent.
    pub fn total(&self) -> Duration {
        nanos_to_duration(
            Stage::children_of(None)
                .map(|s| self.nanos[s as usize])
                .sum(),
        )
    }

    /// This record as one span named `name`: its [`StageTimes::total`],
    /// with the [`stage_spans`] as children.
    pub fn span(&self, kind: SpanKind, name: impl Into<String>) -> SpanNode {
        let mut node = SpanNode::new(kind, name, self.total().as_nanos());
        node.children = stage_spans(self);
        node
    }
}

fn nanos_to_duration(n: u128) -> Duration {
    Duration::from_nanos(u64::try_from(n).unwrap_or(u64::MAX))
}

/// Converts one scope's [`StageTimes`] into observability stage spans:
/// the top-level stages in execution order, each with its sub-stages
/// nested as [`Stage::parent`] declares them. Every stage is always
/// emitted — zeros included — so the span-tree *shape* depends only on
/// the corpus, never on what happened to take measurable time.
pub fn stage_spans(times: &StageTimes) -> Vec<SpanNode> {
    spans_under(times, None)
}

fn spans_under(times: &StageTimes, parent: Option<Stage>) -> Vec<SpanNode> {
    let kind = match parent {
        None => SpanKind::Stage,
        Some(_) => SpanKind::SolverSubstage,
    };
    Stage::children_of(parent)
        .map(|stage| {
            let mut node = SpanNode::new(kind, stage.label(), times.get(stage).as_nanos());
            node.children = spans_under(times, Some(stage));
            node
        })
        .collect()
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

    /// Every entry merged: the run-wide time per stage.
    pub fn total(&self) -> StageTimes {
        merged(&self.rows())
    }

    /// Renders the per-stage wall-clock report (the RT table): the
    /// top-level stages and their total.
    pub fn render(&self) -> String {
        let stages: Vec<Stage> = Stage::children_of(None).collect();
        self.table(&stages, true)
    }

    /// Renders `solve` and its sub-stages (by solver method and EM
    /// phase) as a separate table, so the main report keeps its shape.
    pub fn render_solve_split(&self) -> String {
        let stages: Vec<Stage> = Stage::Solve.subtree().collect();
        self.table(&stages, false)
    }

    /// One RT table: a row per entry with a column per stage (plus the
    /// entry's total when `with_total`), and a `TOTAL` row when there are
    /// several entries.
    fn table(&self, stages: &[Stage], with_total: bool) -> String {
        let rows = self.rows();
        let mut header: Vec<&str> = stages.iter().map(|s| s.label()).collect();
        if with_total {
            header.push("total");
        }
        let mut out = format!("{:<24}", "site");
        for label in &header {
            out.push_str(&format!(" | {label:>9}"));
        }
        out.push('\n');
        let mut line = |label: &str, times: &StageTimes| {
            out.push_str(&format!("{label:<24}"));
            let cells = stages.iter().map(|&s| times.get(s));
            for (head, cell) in header.iter().zip(cells.chain(Some(times.total()))) {
                out.push_str(&format!(" | {:>w$}", human(cell), w = head.len().max(9)));
            }
            out.push('\n');
        };
        for (label, times) in &rows {
            line(label, times);
        }
        if rows.len() > 1 {
            line("TOTAL", &merged(&rows));
        }
        out
    }
}

/// The sum of every row's stage times.
fn merged(rows: &[(String, StageTimes)]) -> StageTimes {
    let mut total = StageTimes::new();
    for (_, times) in rows {
        total.merge(times);
    }
    total
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
        assert_eq!(reg.total().get(Stage::Solve), Duration::from_micros(9));
        let report = reg.render();
        assert!(report.contains("solve"), "{report}");
        assert!(report.contains("TOTAL"), "{report}");
    }

    #[test]
    fn every_lists_each_stage_once_parents_first() {
        for (i, stage) in Stage::EVERY.into_iter().enumerate() {
            assert_eq!(
                stage as usize,
                i,
                "{} out of declaration order",
                stage.label()
            );
            if let Some(parent) = stage.parent() {
                assert!(
                    (parent as usize) < i,
                    "{} listed before its parent",
                    stage.label()
                );
            }
        }
        let top: Vec<Stage> = Stage::children_of(None).collect();
        assert_eq!(top, Stage::ALL);
        let mut rest: Vec<Stage> = Stage::SOLVE_SPLIT
            .into_iter()
            .chain(Stage::TEMPLATE_SPLIT)
            .chain(Stage::DETECT_SPLIT)
            .collect();
        rest.sort_by_key(|&s| s as usize);
        let sub: Vec<Stage> = Stage::EVERY
            .into_iter()
            .filter(|s| s.parent().is_some())
            .collect();
        assert_eq!(rest, sub);
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
        let names: Vec<&str> = solve.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["solve.csp", "solve.prob", "solve.nested"]);
        let csp: Vec<&str> = solve.children[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(csp, ["solve.encode", "solve.reduce"]);
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
        assert!(report.contains("solve.nested"), "{report}");
        assert!(!report.contains("decode"), "{report}");
    }
}
