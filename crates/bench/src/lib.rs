//! The shared experiment harness: runs the full pipeline (template →
//! extraction → both segmenters → evaluation) over simulated sites and
//! produces Table-4-style rows.
//!
//! [`run_corpus`] is the one corpus driver. It fans the sites out over
//! [`tableseg::batch`], the work-stealing engine, in two rounds with
//! results collected in job order, so every report is byte-identical
//! regardless of thread count:
//!
//! 1. **site jobs** — generate the site, inject the configured faults,
//!    and build its [`SiteTemplate`] (template induction runs **once per
//!    site**);
//! 2. **page jobs** — [`run_page`] on every list page against the cached
//!    template, then classification of each segmenter's result.
//!
//! A damaged page (or a whole damaged site) becomes a failed or degraded
//! entry of the run's [`RobustnessReport`] while every other page
//! proceeds; under [`ChaosConfig::off`] the run is the paper's plain
//! experiment. Every stage's wall-clock time lands in a
//! [`timing::Registry`] keyed by site (the RT report).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod detectbench;
pub mod inducebench;
pub mod matchbench;
pub mod scalebench;
pub mod servebench;
pub mod solvebench;

use tableseg::obs::{Counter, Manifest, Recorder, SpanKind, SpanNode};
use tableseg::outcome::PageOutcome;
use tableseg::robustness::RobustnessReport;
use tableseg::timing::{self, Stage, StageTimes};
use tableseg::{
    batch, run_page, try_prepare_with_template, CspSegmenter, DetectOptions, PageResult,
    ProbSegmenter, Segmenter, SiteTemplate,
};
use tableseg_eval::classify::{classify, truth_of_extracts, PageCounts};
use tableseg_eval::report::{render_aggregate, render_table4, Row};
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig, FaultKind};
use tableseg_sitegen::site::{generate, GeneratedSite, SiteSpec};

/// The outcome of running both approaches on one list page.
#[derive(Debug, Clone)]
pub struct PageRun {
    /// Site name.
    pub site: String,
    /// List-page index within the site (0 or 1).
    pub page: usize,
    /// Probabilistic-approach counts.
    pub prob: PageCounts,
    /// CSP-approach counts.
    pub csp: PageCounts,
    /// `true` when the page template was unusable and the whole page was
    /// used (the paper's notes `a`, `b`).
    pub used_whole_page: bool,
    /// `true` when the CSP had to relax its constraints (notes `c`, `d`).
    pub csp_relaxed: bool,
}

impl PageRun {
    /// The paper's note string for this page: `a` page-template problem,
    /// `b` entire page used, `c` no solution found, `d` relax constraints.
    pub fn notes(&self) -> String {
        let mut n = Vec::new();
        if self.used_whole_page {
            n.push("a");
            n.push("b");
        }
        if self.csp_relaxed {
            n.push("c");
            n.push("d");
        }
        n.join(", ")
    }
}

/// Classifies every segmenter's result on one page of a generated site
/// against the page's ground truth: `(counts, relaxed)` per segmenter, in
/// the order [`run_page`] was given them, `None` where a segmenter failed.
pub fn classify_page(
    site: &GeneratedSite,
    page: usize,
    result: &PageResult,
) -> Vec<Option<(PageCounts, bool)>> {
    let truth = truth_of_extracts(&result.extract_offsets(), &site.pages[page].truth_spans());
    let records = site.pages[page].truth.len();
    result
        .solved
        .iter()
        .map(|solved| {
            let outcome = solved.as_ref().ok()?;
            let groups = outcome.segmentation.records();
            Some((classify(&groups, &truth, records), outcome.relaxed))
        })
        .collect()
}

/// The result of a corpus run.
#[derive(Debug)]
pub struct RunOutcome {
    /// One entry per page both segmenters solved, in `(site, page)`
    /// order. Failed pages have no run — accuracy is measured over the
    /// pages that produced output.
    pub runs: Vec<PageRun>,
    /// Per-page outcome accounting over *all* pages, including failed
    /// ones.
    pub report: RobustnessReport,
    /// Injected-fault counts by kind, aggregated over every site, in
    /// [`FaultKind::ALL`] order.
    pub fault_counts: Vec<(FaultKind, usize)>,
    /// Per-site wall-clock time per pipeline stage.
    pub timing: timing::Registry,
    /// Merged observability metrics (empty unless
    /// [`tableseg::obs::set_enabled`] is on), merged in `(site, page)`
    /// order so totals are thread-count-invariant.
    pub metrics: Recorder,
    /// The `run > site > page > stage > substage` span tree, assembled in
    /// corpus order from the same [`StageTimes`] the registry holds.
    /// Failed pages appear with zero stage times, so the tree shape
    /// depends only on the corpus and the chaos config.
    pub spans: SpanNode,
}

impl RunOutcome {
    /// Bundles the run into a manifest for `tool`, including the
    /// robustness rollup. The caller adds config pairs and seeds.
    pub fn manifest(&self, tool: &str, threads: usize) -> Manifest {
        let mut m = Manifest::new(tool);
        m.metrics = self.metrics.clone();
        m.robustness = Some(self.report.rollup());
        m.root = self.spans.clone();
        m.root.name = tool.to_string();
        m.volatile.threads = threads;
        m
    }
}

/// [`run_corpus`] as the paper ran it: no faults, no region detection,
/// the default probabilistic and CSP segmenters.
pub fn run_sites(specs: &[SiteSpec], threads: usize) -> RunOutcome {
    run_corpus(
        specs,
        threads,
        &ChaosConfig::off(0),
        None,
        &ProbSegmenter::default(),
        &CspSegmenter::default(),
    )
}

/// One page job's share of a run.
struct PageJob {
    outcome: PageOutcome,
    run: Option<PageRun>,
    times: StageTimes,
    metrics: Recorder,
}

/// Runs two segmenters (labelled "prob" and "csp" in the output) over
/// every list page of every site on `threads` worker threads, with faults
/// injected under `chaos` and region detection when `detect` is set —
/// and **never aborts**: a damaged page becomes a failed or degraded
/// entry of the report while every other page proceeds.
///
/// Accuracy is measured against the ground truth of the *damaged* pages
/// (the chaos layer remaps record spans through every byte edit). With
/// detection on, single-table pages pass through untouched, so on the
/// paper corpus the report equals the detection-off one.
///
/// # Example
///
/// ```
/// use tableseg::{CspSegmenter, ProbSegmenter};
/// use tableseg_bench::run_corpus;
/// use tableseg_sitegen::chaos::ChaosConfig;
/// use tableseg_sitegen::paper_sites;
///
/// let specs = &paper_sites::all()[..2];
/// let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
/// let outcome = run_corpus(specs, 2, &ChaosConfig::uniform(0.0, 7), None, &prob, &csp);
/// assert_eq!(outcome.report.failed, 0, "clean input may not fail");
/// assert_eq!(outcome.report.pages, outcome.runs.len());
/// ```
pub fn run_corpus(
    specs: &[SiteSpec],
    threads: usize,
    chaos: &ChaosConfig,
    detect: Option<&DetectOptions>,
    prob: &dyn Segmenter,
    csp: &dyn Segmenter,
) -> RunOutcome {
    let sites = batch::execute(threads, specs.to_vec(), |_, spec| {
        let (site, log) = apply_chaos(&generate(&spec), chaos);
        let template = SiteTemplate::try_build(&site.list_htmls());
        (site, log, template)
    });

    let jobs: Vec<(usize, usize)> = sites
        .iter()
        .enumerate()
        .flat_map(|(si, (site, _, _))| (0..site.pages.len()).map(move |page| (si, page)))
        .collect();
    let pages = batch::execute(threads, jobs, |_, (si, page)| {
        let (site, _, template) = &sites[si];
        let template = match template {
            Ok(template) => template,
            Err(error) => {
                // The site-level front end failed: so does every page.
                let outcome = PageOutcome::Failed {
                    error: error.clone(),
                };
                let mut metrics = Recorder::new();
                outcome.count(&mut metrics);
                return PageJob {
                    outcome,
                    run: None,
                    times: StageTimes::new(),
                    metrics,
                };
            }
        };
        let details = site.pages[page].detail_htmls();
        let result = run_page(template, page, &details, detect, &[prob, csp]);
        let mut times = result.timings;
        let counts = times.time(Stage::Decode, || classify_page(site, page, &result));
        let run = match counts[..] {
            [Some((prob, _)), Some((csp, csp_relaxed))] => Some(PageRun {
                site: site.spec.name.clone(),
                page,
                prob,
                csp,
                used_whole_page: result.used_whole_page(),
                csp_relaxed,
            }),
            _ => None,
        };
        let mut metrics = result.metrics;
        // This page was served by the cached site template instead of a
        // fresh induction — the cache-hit counter of the obs layer.
        metrics.incr(Counter::TemplateCacheHits);
        PageJob {
            outcome: result.outcome,
            run,
            times,
            metrics,
        }
    });

    // Assemble in deterministic site order: per-job data merged here, in
    // job order, is what keeps every output thread-count-invariant.
    let registry = timing::Registry::new();
    let mut report = RobustnessReport::new();
    let mut metrics = Recorder::new();
    let mut root = SpanNode::new(SpanKind::Run, "run", 0);
    let mut runs = Vec::with_capacity(pages.len());
    let mut fault_counts: Vec<(FaultKind, usize)> =
        FaultKind::ALL.iter().map(|&k| (k, 0)).collect();
    let mut pages = pages.into_iter();
    for (site, log, template) in &sites {
        for (slot, &(_, n)) in fault_counts.iter_mut().zip(&log.counts()) {
            slot.1 += n;
            metrics.bump(Counter::ChaosFaults, n as u64);
        }
        let mut site_times = StageTimes::new();
        if let Ok(t) = template {
            site_times = t.timings;
            metrics.merge(&t.metrics);
        }
        let name = &site.spec.name;
        let mut site_span = site_times.span(SpanKind::Site, name.clone());
        for (page, job) in pages.by_ref().take(site.pages.len()).enumerate() {
            report.record(&job.outcome);
            metrics.merge(&job.metrics);
            site_times.merge(&job.times);
            let page_span = job.times.span(SpanKind::Page, format!("page#{page}"));
            site_span.nanos += page_span.nanos;
            site_span.push(page_span);
            runs.extend(job.run);
        }
        registry.record(name, &site_times);
        root.nanos += site_span.nanos;
        root.push(site_span);
    }
    RunOutcome {
        runs,
        report,
        fault_counts,
        timing: registry,
        metrics,
        spans: root,
    }
}

/// Summed counts over page runs: `(prob, csp)`.
pub fn totals(runs: &[PageRun]) -> (PageCounts, PageCounts) {
    runs.iter().fold(Default::default(), |(prob, csp), r| {
        (prob.add(&r.prob), csp.add(&r.csp))
    })
}

/// Renders the Table 4 report (or the `--clean-only` Section 6.3
/// aggregate) from a batch run's page runs. Shared by `bench table4`
/// and the determinism tests; contains no timing data, so its output is
/// byte-identical across thread counts.
pub fn table4_report(runs: &[PageRun], clean_only: bool) -> String {
    if clean_only {
        let clean: Vec<_> = runs.iter().filter(|r| !r.csp_relaxed).cloned().collect();
        let (prob, csp) = totals(&clean);
        return format!(
            "{}\n",
            render_aggregate(
                &format!(
                    "Pages where the CSP found a solution ({} of {} pages) — cf. Section 6.3:",
                    clean.len(),
                    runs.len()
                ),
                &prob,
                &csp,
            )
        );
    }
    let rows: Vec<Row> = runs
        .iter()
        .map(|r| Row {
            site: r.site.clone(),
            prob: r.prob,
            csp: r.csp,
            notes: r.notes(),
        })
        .collect();
    format!(
        "Table 4: results of automatic record segmentation (simulated sites)\n\n\
         {}\n\
         Paper (live 2004 sites):  probabilistic P=0.74 R=0.99 F=0.85 | CSP P=0.85 R=0.84 F=0.84\n",
        render_table4(&rows)
    )
}

/// Renders the Tables 1–3 report — the Superpages running example (the
/// observation table `D_i`, the CSP assignment of extracts to records,
/// and the positions of extracts on detail pages). Fully in-process and
/// deterministic; shared by `bench tables123` and the determinism
/// tests.
pub fn tables123_report() -> String {
    use tableseg_extract::positions::render_table;

    // The paper's Figure 1 / Table 1 example: two "John Smith" listings
    // sharing a phone number, plus a third record.
    let list = "<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>\
         <tr><td>John Smith</td><td>221R Washington St</td><td>Wash CH</td><td>(740) 335-5555</td></tr>\
         <tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>";
    let details = [
        "<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>",
        "<h1>John Smith</h1><p>221R Washington St</p><p>Wash CH</p><p>(740) 335-5555</p>",
        "<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>",
    ];
    // One sample list page: the template is the page itself, so the
    // whole page is the table slot.
    let template = SiteTemplate::build(&[list]);
    let prepared =
        try_prepare_with_template(&template, 0, &details).expect("the example page prepares");
    let (obs, interner) = (&prepared.observations, &template.interner);
    let slot = &template.streams[0][prepared.slot.clone()];

    let mut out = String::new();
    out.push_str("Table 1: observations of extracts on detail pages D_i\n\n");
    out.push_str(&obs.render_table(slot, interner));
    out.push('\n');

    let outcome = CspSegmenter::default().segment(obs);
    out.push_str("Table 2: assignment of extracts to records (CSP solution)\n\n");
    out.push_str(&outcome.segmentation.render_table(obs, slot, interner));
    out.push('\n');

    out.push_str("Table 3: positions of extracts on detail pages\n\n");
    out.push_str(&render_table(obs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_sitegen::paper_sites;

    #[test]
    fn clean_site_runs_end_to_end() {
        let runs = run_sites(&[paper_sites::butler()], 1).runs;
        assert_eq!(runs.len(), 2);
        for r in &runs {
            let total = r.csp.total_records();
            assert!(total > 0, "{r:?}");
            // A clean government site should be segmented essentially
            // perfectly by the CSP.
            assert!(r.csp.cor * 10 >= total * 9, "{r:?}");
            assert!(!r.csp_relaxed, "{r:?}");
        }
    }

    #[test]
    fn notes_format() {
        let run = PageRun {
            site: "X".into(),
            page: 0,
            prob: PageCounts::default(),
            csp: PageCounts::default(),
            used_whole_page: true,
            csp_relaxed: true,
        };
        assert_eq!(run.notes(), "a, b, c, d");
    }

    #[test]
    fn batch_timing_covers_every_site_and_stage() {
        let specs = vec![paper_sites::butler(), paper_sites::lee()];
        let outcome = run_sites(&specs, 2);
        assert_eq!(outcome.runs.len(), 4);
        let rows = outcome.timing.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "Butler County");
        assert_eq!(rows[1].0, "Lee County");
        for (site, times) in &rows {
            for stage in Stage::ALL {
                assert!(
                    times.get(stage) > std::time::Duration::ZERO,
                    "{site}: stage {} recorded no time",
                    stage.label()
                );
            }
        }
    }

    #[test]
    fn robust_run_with_noop_chaos_matches_plain_run() {
        let specs = vec![paper_sites::butler(), paper_sites::lee()];
        let plain = run_sites(&specs, 2);
        let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
        let robust = run_corpus(&specs, 2, &ChaosConfig::uniform(0.0, 1), None, &prob, &csp);
        assert_eq!(robust.report.failed, 0);
        assert_eq!(robust.report, plain.report);
        assert_eq!(robust.runs.len(), plain.runs.len());
        assert_eq!(
            table4_report(&robust.runs, false),
            table4_report(&plain.runs, false),
            "robust path must reproduce the plain report under a no-op config"
        );
        assert!(robust.fault_counts.iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn robust_run_survives_heavy_chaos() {
        let specs = vec![paper_sites::butler(), paper_sites::ohio()];
        let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
        for seed in [7, 8] {
            let chaos = ChaosConfig::uniform(0.5, seed);
            let outcome = run_corpus(&specs, 2, &chaos, None, &prob, &csp);
            let r = &outcome.report;
            assert_eq!(r.pages, 4, "every page gets an outcome");
            assert_eq!(r.pages, r.ok + r.degraded + r.failed);
            // Failed pages have no run; every processed page has one.
            assert_eq!(outcome.runs.len(), r.ok + r.degraded);
            let injected: usize = outcome.fault_counts.iter().map(|&(_, n)| n).sum();
            assert!(injected > 0, "50% chaos must fire");
        }
    }
}
