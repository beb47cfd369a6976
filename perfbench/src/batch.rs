//! The batch workloads, `paper_batch` and `universe_batch`.
//!
//! The benchmark drives the stage functions itself, one site per job on
//! [`batch::execute`]: [`SiteTemplate::try_build`], then per list page
//! [`try_prepare_with_template`], both segmenters' `try_segment`, and
//! [`classify`] against the generated truth. A pass runs every site once;
//! after one warm-up pass the benchmark repeats passes until its time is
//! up. Every pass must reproduce the warm-up pass's per-page results.

use std::ops::Range;
use std::time::{Duration, Instant};

use tableseg::obs;
use tableseg::template::induction_count;
use tableseg::{
    batch, try_prepare_with_template, CspSegmenter, ProbSegmenter, Segmenter, SiteTemplate,
};
use tableseg_bench::scalebench::peak_rss_bytes;
use tableseg_bench::{table4_report, PageRun};
use tableseg_eval::classify::{classify, truth_of_extracts, PageCounts};
use tableseg_serve::SegmentRequest;
use tableseg_sitegen::site::{generate, GeneratedSite};
use tableseg_sitegen::{paper_sites, Universe, UniverseConfig};

use crate::layers::{serve_probes, Reported};
use crate::report::{Metrics, Outcome};
use crate::serve::site_request;
use crate::stats::{cell_mean, f_measure, median, percentile, slowest_median, sorted};
use crate::trace::{Span, SpanBuf, Trace};
use crate::{timed, write_trace, Args};

/// The Table 4 golden the paper corpus must reproduce byte for byte.
const GOLDEN: &str = "tests/golden/table4.txt";

/// Sites in the universe_batch universe.
const UNIVERSE_SITES: usize = 200;

/// Passes a run makes at least, however short its time.
const MIN_PASSES: usize = 4;

/// paper_batch: the 12 paper sites on one worker thread.
pub fn paper(args: &Args) -> Result<Outcome, String> {
    let golden =
        std::fs::read_to_string(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))?;
    run(
        args,
        || paper_sites::all().iter().map(generate).collect(),
        1,
        Some(&golden),
    )
}

/// universe_batch: a seeded 200-site universe on two worker threads.
pub fn universe(args: &Args) -> Result<Outcome, String> {
    let universe = Universe::new(UniverseConfig {
        sites: UNIVERSE_SITES,
        seed: args.seed ^ 0x5EED_0000_0000_0000,
        fault_rate: 0.0,
        ..UniverseConfig::default()
    });
    run(
        args,
        || batch::execute(2, (0..UNIVERSE_SITES).collect(), |_, i| universe.site(i)),
        2,
        None,
    )
}

/// One site job.
struct SiteOut {
    pages: Vec<Result<PageRun, String>>,
    /// Job start and end, nanoseconds since the run origin.
    start: u64,
    end: u64,
    spans: SpanBuf,
    reported: Reported,
}

/// One pass over every site.
struct Pass {
    start: u64,
    end: u64,
    traced: bool,
    jobs: Vec<SiteOut>,
}

struct Segmenters {
    prob: ProbSegmenter,
    csp: CspSegmenter,
}

/// A site job's spans and reported values, with the index of its unit
/// span.
struct JobRecord {
    buf: SpanBuf,
    unit: usize,
    reported: Reported,
}

fn page_job(
    site: &GeneratedSite,
    p: usize,
    template: &SiteTemplate,
    segs: &Segmenters,
    job: &mut JobRecord,
) -> Result<PageRun, String> {
    let JobRecord {
        buf,
        unit,
        reported,
    } = job;
    let unit = *unit;
    let page = &site.pages[p];
    let details: Vec<&str> = page.detail_html.iter().map(String::as_str).collect();
    let prepared = buf
        .time("core.prepare", Some(unit), || {
            try_prepare_with_template(template, p, &details)
        })
        .map_err(|e| format!("{} page {p}: {e}", site.spec.name))?;
    reported.page(&prepared);
    let prob = buf
        .time("prob.segment", Some(unit), || {
            segs.prob.try_segment(&prepared.observations)
        })
        .map_err(|e| format!("{} page {p}: {e}", site.spec.name))?;
    reported.solve(&prob, true);
    let csp = buf
        .time("csp.segment", Some(unit), || {
            segs.csp.try_segment(&prepared.observations)
        })
        .map_err(|e| format!("{} page {p}: {e}", site.spec.name))?;
    reported.solve(&csp, false);
    let (prob_counts, csp_counts) = buf.time("eval.classify", Some(unit), || {
        let spans: Vec<Range<usize>> = page.truth.records.iter().map(|r| r.start..r.end).collect();
        let truth = truth_of_extracts(&prepared.extract_offsets, &spans);
        (
            classify(&prob.segmentation.records(), &truth, page.truth.len()),
            classify(&csp.segmentation.records(), &truth, page.truth.len()),
        )
    });
    Ok(PageRun {
        site: site.spec.name.clone(),
        page: p,
        prob: prob_counts,
        csp: csp_counts,
        used_whole_page: prepared.used_whole_page,
        csp_relaxed: csp.relaxed,
    })
}

fn site_job(
    site: &GeneratedSite,
    id: usize,
    origin: Instant,
    traced: bool,
    segs: &Segmenters,
) -> SiteOut {
    let mut buf = SpanBuf::new(origin, traced, id as u64);
    let start = buf.now();
    let unit = buf.open("site", None);
    let lists = site.list_htmls();
    let built = buf.time("core.site_build", Some(unit), || {
        SiteTemplate::try_build(&lists)
    });
    let mut job = JobRecord {
        buf,
        unit,
        reported: Reported::default(),
    };
    let pages = match built {
        Ok(template) => {
            job.reported.template(&template);
            (0..site.pages.len())
                .map(|p| page_job(site, p, &template, segs, &mut job))
                .collect()
        }
        Err(e) => (0..site.pages.len())
            .map(|_| Err(format!("{}: {e}", site.spec.name)))
            .collect(),
    };
    job.buf.close(unit);
    SiteOut {
        pages,
        start,
        end: job.buf.now(),
        spans: job.buf,
        reported: job.reported,
    }
}

fn pass(sites: &[GeneratedSite], threads: usize, origin: Instant, traced: bool) -> Pass {
    // Recorders snapshot the obs switch when they are created, so the
    // switch is set before any job of the pass starts.
    obs::set_enabled(traced);
    let segs = Segmenters {
        prob: ProbSegmenter::default(),
        csp: CspSegmenter::default(),
    };
    let start = origin.elapsed().as_nanos() as u64;
    let jobs = batch::execute(threads, (0..sites.len()).collect(), |_, i| {
        site_job(&sites[i], i, origin, traced, &segs)
    });
    let end = origin.elapsed().as_nanos() as u64;
    obs::set_enabled(false);
    Pass {
        start,
        end,
        traced,
        jobs,
    }
}

/// The comparable part of a page run.
fn key(r: &PageRun) -> (PageCounts, PageCounts, bool, bool) {
    (r.prob, r.csp, r.used_whole_page, r.csp_relaxed)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs a batch workload. `setup` generates the sites; it runs before the
/// warm-up pass and again before every timed pass, so the set-up times
/// (`setup_s` is their median) are sampled across the whole run, as the
/// pass times are. Each pass runs on the sites of the set-up before it.
fn run(
    args: &Args,
    mut setup: impl FnMut() -> Vec<GeneratedSite>,
    threads: usize,
    golden: Option<&str>,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let origin = Instant::now();
    let mut sites = timed(&mut setups, &mut setup);
    let warm = pass(&sites, threads, origin, false);
    let reference: Vec<PageRun> = warm
        .jobs
        .into_iter()
        .flat_map(|job| job.pages)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("warm-up pass failed: {e}"))?;
    let mut correct = true;
    if let Some(golden) = golden {
        if table4_report(&reference, false) != golden {
            eprintln!("perfbench: table4 report differs from {GOLDEN}");
            correct = false;
        }
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut acc = Acc::default();
    while acc.passes < MIN_PASSES || Instant::now() < deadline {
        // The traced run alternates traced and untraced passes, so the
        // tracing overhead is measured within one process.
        let traced = args.trace && acc.passes % 2 == 1;
        sites = timed(&mut setups, &mut setup);
        let before = induction_count();
        let p = pass(&sites, threads, origin, traced);
        if traced {
            acc.traced_inductions += induction_count() - before;
        }
        acc.add(p, &reference);
    }
    correct &= acc.failed == 0;

    let mut m = Metrics::default();
    let cells = std::mem::take(&mut acc.jobs);
    let jobs = sorted(cells.iter().flatten().copied().collect());
    let walls = &acc.untraced_walls;
    let (mut prob_total, mut csp_total) = (PageCounts::default(), PageCounts::default());
    for r in &reference {
        prob_total = prob_total.add(&r.prob);
        csp_total = csp_total.add(&r.csp);
    }
    m.e2e("setup_s", median(&setups), "s");
    m.e2e(
        "sites_per_s",
        jobs.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.e2e("site_p50_ms", percentile(&jobs, 50.0), "ms");
    m.e2e("site_mean_ms", cell_mean(&cells), "ms");
    m.e2e("site_tail_ms", slowest_median(&cells), "ms");
    m.e2e("csp_f", f_measure(&csp_total), "F");
    m.e2e("prob_f", f_measure(&prob_total), "F");
    m.e2e(
        "peak_rss_mb",
        peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64,
        "MB",
    );
    m.info("pass_p50_ms", median(walls), "ms");
    m.info("site_p95_ms", percentile(&jobs, 95.0), "ms");
    m.info("site_p99_ms", percentile(&jobs, 99.0), "ms");
    m.info(
        "failed_frac",
        acc.failed as f64 / acc.attempted.max(1) as f64,
        "ratio",
    );
    m.info("passes", walls.len() as f64, "count");
    m.info("site_jobs", jobs.len() as f64, "count");
    m.info("threads", threads as f64, "count");

    let (attempted, failed) = (acc.attempted, acc.failed);
    if args.trace {
        let requests: Vec<SegmentRequest> = sites.iter().map(site_request).collect();
        layers(args, &mut m, acc, threads, &setups, &requests)?;
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}

/// What the run keeps of each timed pass: a pass is reduced as soon as it
/// ends, so memory stays flat however many passes a run makes.
#[derive(Default)]
struct Acc {
    passes: usize,
    attempted: u64,
    failed: u64,
    /// Untraced passes: wall times, and site-job times by site, ms.
    untraced_walls: Vec<f64>,
    jobs: Vec<Vec<f64>>,
    traced_walls: Vec<f64>,
    /// Every pass: job start minus pass start, ms; busy and wall ns.
    waits: Vec<f64>,
    busy: u64,
    wall: u64,
    inflight_max: usize,
    traced_inductions: usize,
    trace: Trace,
    reported: Reported,
}

impl Acc {
    fn add(&mut self, p: Pass, reference: &[PageRun]) {
        self.passes += 1;
        let runs = p.jobs.iter().flat_map(|j| &j.pages);
        for (page, want) in runs.zip(reference) {
            self.attempted += 1;
            match page {
                Ok(run) if key(run) == key(want) => {}
                Ok(run) => {
                    self.failed += 1;
                    eprintln!(
                        "perfbench: {} page {} changed its result",
                        run.site, run.page
                    );
                }
                Err(e) => {
                    self.failed += 1;
                    eprintln!("perfbench: {e}");
                }
            }
        }
        let spans: Vec<(u64, u64)> = p.jobs.iter().map(|j| (j.start, j.end)).collect();
        self.busy += spans.iter().map(|(s, e)| e - s).sum::<u64>();
        self.wall += p.end - p.start;
        self.waits
            .extend(spans.iter().map(|(s, _)| ms(s - p.start)));
        self.inflight_max = self.inflight_max.max(max_overlap(spans.clone()));
        if !p.traced {
            self.untraced_walls.push(ms(p.end - p.start));
            self.jobs.resize(spans.len().max(self.jobs.len()), Vec::new());
            for (cell, (s, e)) in self.jobs.iter_mut().zip(&spans) {
                cell.push(ms(e - s));
            }
            return;
        }
        self.traced_walls.push(ms(p.end - p.start));
        let root = self.trace.push(Span {
            name: "pass",
            start: p.start,
            end: p.end,
            parent: None,
            id: 0,
        });
        for job in p.jobs {
            self.reported.merge(&job.reported);
            self.trace.absorb(job.spans, Some(root));
        }
    }
}

/// The per-layer metrics of a traced batch run.
fn layers(
    args: &Args,
    m: &mut Metrics,
    acc: Acc,
    threads: usize,
    setup: &[f64],
    requests: &[SegmentRequest],
) -> Result<(), String> {
    let units = acc.traced_walls.len().max(1) as f64;
    let span_ms = |name: &str| {
        acc.trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .sum::<f64>()
            / units
    };
    m.layer("core.site_build_ms", span_ms("core.site_build"), "ms");
    m.layer("core.prepare_ms", span_ms("core.prepare"), "ms");
    m.layer(
        "core.batch_busy_frac",
        acc.busy as f64 / (threads as f64 * acc.wall as f64),
        "ratio",
    );
    acc.reported.emit(m, units);
    m.layer("csp.segment_ms", span_ms("csp.segment"), "ms");
    m.layer("prob.segment_ms", span_ms("prob.segment"), "ms");
    m.layer("eval.classify_ms", span_ms("eval.classify"), "ms");
    // Every traced run reports every per-layer metric. A batch run has no
    // daemon, so its codec probe parses only the sites' request bodies and
    // its cache counters are 0.
    serve_probes(m, requests, &[]);
    for name in [
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.cache_refreshes",
        "serve.rebuilds",
        "serve.rejected",
    ] {
        m.layer(name, 0.0, "count");
    }
    m.layer(
        "serve.inductions",
        acc.traced_inductions as f64 / units,
        "count",
    );
    m.layer("sitegen.generate_ms", median(setup) * 1e3, "ms");
    m.layer(
        "gen.late_p99_ms",
        percentile(&sorted(acc.waits), 99.0),
        "ms",
    );
    m.layer("gen.inflight_max", acc.inflight_max as f64, "count");
    m.layer(
        "trace.overhead_frac",
        median(&acc.traced_walls) / median(&acc.untraced_walls) - 1.0,
        "ratio",
    );
    m.layer(
        "trace.unattributed_frac",
        acc.trace.unattributed_frac(),
        "ratio",
    );
    write_trace(args, &acc.trace, &acc.reported.dump())
}

/// The most intervals open at once.
pub fn max_overlap(intervals: Vec<(u64, u64)>) -> usize {
    let mut edges: Vec<(u64, i32)> = intervals
        .into_iter()
        .flat_map(|(s, e)| [(s, 1), (e, -1)])
        .collect();
    // Ends sort before starts at the same instant.
    edges.sort_unstable();
    let mut open = 0i32;
    let mut max = 0i32;
    for (_, d) in edges {
        open += d;
        max = max.max(open);
    }
    max as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_counts_concurrent_jobs() {
        assert_eq!(max_overlap(vec![]), 0);
        assert_eq!(max_overlap(vec![(0, 10), (10, 20)]), 1);
        assert_eq!(max_overlap(vec![(0, 10), (5, 20), (6, 7)]), 3);
    }

    /// The F arithmetic of the benchmark reproduces the F row of the
    /// rendered Table 4 for the same page runs.
    #[test]
    fn f_measure_matches_table4_totals() {
        let counts = |cor, incor, fneg, fpos| PageCounts {
            cor,
            incor,
            fneg,
            fpos,
        };
        let runs: Vec<PageRun> = [
            (counts(9, 1, 0, 0), counts(7, 3, 0, 0)),
            (counts(20, 0, 0, 0), counts(20, 0, 0, 0)),
            (counts(7, 1, 2, 0), counts(8, 0, 2, 0)),
            (counts(6, 0, 4, 1), counts(6, 0, 4, 0)),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (prob, csp))| PageRun {
            site: format!("site {i}"),
            page: 0,
            prob,
            csp,
            used_whole_page: false,
            csp_relaxed: false,
        })
        .collect();
        let (mut prob, mut csp) = (PageCounts::default(), PageCounts::default());
        for r in &runs {
            prob = prob.add(&r.prob);
            csp = csp.add(&r.csp);
        }
        let report = table4_report(&runs, false);
        let f_row = report
            .lines()
            .find(|l| l.starts_with("| F "))
            .expect("table has an F row");
        let cells: Vec<&str> = f_row.split('|').map(str::trim).collect();
        assert_eq!(cells[2], format!("{:.2}", f_measure(&prob)));
        assert_eq!(cells[6], format!("{:.2}", f_measure(&csp)));
    }
}
