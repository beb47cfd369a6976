//! The streaming front-end scale benchmark behind `BENCH_scale.json`:
//! the zero-copy span lexer ([`tableseg_html::scan()`]) and the front end
//! built on it over a procedurally generated [`Universe`] of sites,
//! sharded across the work-stealing batch engine.
//!
//! Each site is one batch job: the site streams out of the universe, the
//! front end runs over every page, and only a small per-site summary
//! survives — sites in flight bound memory, not total pages. Two things
//! are measured per site:
//!
//! * **tokenize stage** — [`scan()`] alone over every list and detail
//!   page;
//! * **front end** — what the pipeline actually does with the result:
//!   list pages are interned into symbol streams with their token byte
//!   ranges ([`Interner::intern_page`]), detail pages are projected
//!   straight from their spans into [`PageIndex`]es
//!   ([`PageIndex::from_scanned`]).
//!
//! Memory flatness is proven by splitting the universe in half: the
//! process peak RSS (`VmHWM`) is snapshotted after the first half and
//! again after the second. A streaming front end's peak is set by the
//! sites in flight, so the second half must not move it by more than
//! [`RSS_TOLERANCE`].
//!
//! Throughput (`pages_per_sec`, `bytes_per_sec`) is **per-core**: total
//! pages (bytes) over the summed front-end nanoseconds across all jobs.
//! Summed work time is thread-count-invariant, but it moves with the
//! host's speed, so throughput is recorded, not gated.
//!
//! A third leg runs the **full pipeline** per site — template induction
//! ([`SiteTemplate::build`]), per-page preparation, and both solvers
//! ([`CspSegmenter`], [`ProbSegmenter`]) — yielding `sites_per_sec`, the
//! end-to-end throughput the solver-layer optimizations move. Like the
//! front-end numbers it divides by summed per-worker nanoseconds, so it
//! is thread-count-invariant too. Each page's segmentations are scored
//! against the universe's ground truth ([`crate::classify_page`]), so
//! the leg also yields Cor/InC/FN/FP per method over every universe
//! page — the accuracy record beyond the 24 paper pages. Pages the
//! solver rejects are counted, not fatal.
//!
//! The baseline is the committed `BENCH_scale.json`: `bench scale` fails
//! when a run's deterministic work counts ([`ScaleBench::work_counts`] —
//! universe sites, pages, bytes, tokens, per-method classification
//! counts, CSP relaxed pages, failed pages) differ from it, or when
//! [`ScaleBench::gate_failures`] reports a memory gate.
//! The scanner's agreement with its oracle lexer on a universe sample is
//! a test in `tableseg-sitegen`'s chaos suite.

use std::time::Instant;

use tableseg::{run_page, CspSegmenter, ProbSegmenter, SiteTemplate};
use tableseg_eval::classify::PageCounts;
use tableseg_extract::PageIndex;
use tableseg_html::{scan, Interner};
use tableseg_sitegen::{GeneratedSite, Universe, UniverseConfig};

use crate::corpus::{count_keys, counts_members, BenchJson};
use tableseg::batch;

/// Peak-RSS cap of the whole run, MiB.
pub const MAX_RSS_MB: u64 = 256;
/// Allowed half → full peak-RSS growth: the fixed-memory claim of the
/// streaming front end.
pub const RSS_TOLERANCE: f64 = 0.25;

/// One site's contribution to the scale totals.
#[derive(Debug, Clone, Copy, Default)]
struct SiteScale {
    pages: usize,
    bytes: usize,
    tokens: usize,
    scan_ns: u128,
    frontend_ns: u128,
    pipeline_ns: u128,
    scores: PipelineScores,
    pages_failed: usize,
}

/// The pipeline leg's accuracy over the pages it solved, scored against
/// the universe's ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineScores {
    /// Probabilistic-approach counts.
    pub prob: PageCounts,
    /// CSP counts.
    pub csp: PageCounts,
    /// Pages whose CSP solve relaxed its constraints (notes `c`/`d`).
    pub csp_relaxed: usize,
}

impl PipelineScores {
    fn add(&mut self, other: &PipelineScores) {
        self.prob = self.prob.add(&other.prob);
        self.csp = self.csp.add(&other.csp);
        self.csp_relaxed += other.csp_relaxed;
    }
}

/// The corpus-level result of the scale run.
#[derive(Debug, Clone)]
pub struct ScaleBench {
    /// Universe size (sites processed).
    pub sites: usize,
    /// Total pages lexed (list + detail).
    pub pages: usize,
    /// Total page bytes lexed.
    pub bytes: usize,
    /// Total tokens scanned.
    pub tokens: usize,
    /// Summed span-lexer nanoseconds across all pages.
    pub scan_ns: u128,
    /// Summed front-end nanoseconds (scan + intern +
    /// [`PageIndex::from_scanned`]).
    pub frontend_ns: u128,
    /// Summed full-pipeline nanoseconds (template + preparation + both
    /// solvers per list page); zero when the pipeline leg is disabled.
    pub pipeline_ns: u128,
    /// Cor/InC/FN/FP of both methods over the pipeline leg's pages.
    pub scores: PipelineScores,
    /// List pages the pipeline leg could not prepare or solve (chaos
    /// damage); a page counts once, however many of its solvers failed.
    pub pipeline_pages_failed: usize,
    /// Peak RSS after the first half of the universe, in bytes
    /// (`None` when `/proc/self/status` is unavailable).
    pub rss_half_bytes: Option<u64>,
    /// Peak RSS after the full universe, in bytes.
    pub rss_full_bytes: Option<u64>,
    /// Worker threads used.
    pub threads: usize,
}

impl ScaleBench {
    /// Per-core front-end throughput in pages per second.
    pub fn pages_per_sec(&self) -> f64 {
        self.pages as f64 / (self.frontend_ns.max(1) as f64 / 1e9)
    }

    /// Per-core front-end throughput in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / (self.frontend_ns.max(1) as f64 / 1e9)
    }

    /// Per-core full-pipeline throughput in sites per second.
    pub fn sites_per_sec(&self) -> f64 {
        self.sites as f64 / (self.pipeline_ns.max(1) as f64 / 1e9)
    }

    /// Peak-RSS growth over the second half of the universe, as a
    /// `full / half` ratio (`None` when RSS was unreadable).
    pub fn rss_ratio(&self) -> Option<f64> {
        let (half, full) = (self.rss_half_bytes?, self.rss_full_bytes?);
        Some(full as f64 / half.max(1) as f64)
    }

    /// The deterministic work counts a front-end change must repeat
    /// unless it means to change behaviour, keyed by their path in
    /// `BENCH_scale.json` (see [`crate::corpus::count_mismatches`]): the
    /// universe's sites, pages, bytes and tokens, each method's
    /// Cor/InC/FN/FP, the CSP's relaxed pages and the failed pages. A
    /// run over another universe fails on `universe.sites`.
    pub fn work_counts(&self) -> Vec<(String, f64)> {
        let mut counts: Vec<(String, f64)> = [
            ("universe.sites", self.sites),
            ("universe.pages", self.pages),
            ("universe.bytes", self.bytes),
            ("universe.tokens", self.tokens),
            ("pipeline.csp.relaxed_pages", self.scores.csp_relaxed),
            ("pipeline.pages_failed", self.pipeline_pages_failed),
        ]
        .map(|(path, n)| (path.to_string(), n as f64))
        .to_vec();
        counts.extend(count_keys("pipeline.prob", &self.scores.prob));
        counts.extend(count_keys("pipeline.csp", &self.scores.csp));
        counts
    }

    /// The memory gates this run failed, one line each: [`MAX_RSS_MB`],
    /// and peak-RSS growth over the second half within [`RSS_TOLERANCE`].
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        match (self.rss_full_bytes, self.rss_ratio()) {
            (Some(full), Some(ratio)) => {
                if full > MAX_RSS_MB << 20 {
                    failures.push(format!(
                        "peak RSS {:.1} MiB above the {MAX_RSS_MB} MiB cap",
                        full as f64 / (1 << 20) as f64
                    ));
                }
                if ratio > 1.0 + RSS_TOLERANCE {
                    failures.push(format!(
                        "peak RSS grew {:.1}% over the second half (tolerance {:.1}%)",
                        (ratio - 1.0) * 100.0,
                        RSS_TOLERANCE * 100.0
                    ));
                }
            }
            _ => failures.push("peak RSS is unreadable".to_string()),
        }
        failures
    }
}

/// Reads the process peak resident set (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Runs the full pipeline over one site: template induction across its
/// list pages, then [`run_page`] with both solvers per page, each solved
/// page scored against its ground truth. A page that fails (in the front
/// end or a solver) counts once in `pages_failed`.
fn pipeline_site(site: &GeneratedSite, out: &mut SiteScale) {
    let csp = CspSegmenter::default();
    let prob = ProbSegmenter::default();
    let t = Instant::now();
    match SiteTemplate::try_build(&site.list_htmls()) {
        Ok(template) => {
            for (target, gp) in site.pages.iter().enumerate() {
                let page = run_page(&template, target, &gp.detail_htmls(), None, &[&csp, &prob]);
                let scored = crate::classify_page(site, target, &page);
                if let Some((counts, relaxed)) = scored[0] {
                    out.scores.csp = out.scores.csp.add(&counts);
                    out.scores.csp_relaxed += usize::from(relaxed);
                }
                if let Some((counts, _)) = scored[1] {
                    out.scores.prob = out.scores.prob.add(&counts);
                }
                out.pages_failed += usize::from(page.outcome.is_failed());
            }
        }
        Err(_) => out.pages_failed += site.pages.len(),
    }
    out.pipeline_ns = t.elapsed().as_nanos();
}

/// Runs the front end over one site, returning its scale summary.
fn scale_site(site: &GeneratedSite) -> SiteScale {
    let lists: Vec<&str> = site.pages.iter().map(|gp| gp.list_html.as_str()).collect();
    let details: Vec<&str> = site
        .pages
        .iter()
        .flat_map(|gp| gp.detail_html.iter().map(String::as_str))
        .collect();
    let pages = || lists.iter().chain(&details);

    let mut out = SiteScale {
        pages: lists.len() + details.len(),
        bytes: pages().map(|p| p.len()).sum(),
        ..SiteScale::default()
    };

    // Tokenize stage: the span lexer over every page.
    let t = Instant::now();
    for p in pages() {
        out.tokens += std::hint::black_box(scan(p)).len();
    }
    out.scan_ns = t.elapsed().as_nanos();

    // Front end: spans all the way down. List pages become symbol
    // streams plus byte ranges; detail pages project straight into a
    // PageIndex.
    let t = Instant::now();
    let mut interner = Interner::new();
    for p in &lists {
        std::hint::black_box(interner.intern_page(p));
    }
    for p in &details {
        let scanned = scan(p);
        std::hint::black_box(PageIndex::from_scanned(&scanned, p, &interner));
    }
    out.frontend_ns = t.elapsed().as_nanos();
    out
}

/// Streams a clean universe of `sites` sites through the batch engine on
/// `threads` workers, the front end and the pipeline per site, in two
/// halves with a peak-RSS snapshot after each.
pub fn run_scale_bench(sites: usize, threads: usize) -> ScaleBench {
    let universe = Universe::new(UniverseConfig {
        sites,
        ..UniverseConfig::default()
    });

    let run_half = |range: std::ops::Range<usize>| -> Vec<SiteScale> {
        let jobs: Vec<usize> = range.collect();
        batch::execute(threads, jobs, |_, i| {
            let site = universe.site(i);
            let mut scale = scale_site(&site);
            pipeline_site(&site, &mut scale);
            scale
        })
    };

    let mut scales = run_half(0..sites / 2);
    let rss_half_bytes = peak_rss_bytes();
    scales.extend(run_half(sites / 2..sites));
    let rss_full_bytes = peak_rss_bytes();

    let mut bench = ScaleBench {
        sites: scales.len(),
        pages: 0,
        bytes: 0,
        tokens: 0,
        scan_ns: 0,
        frontend_ns: 0,
        pipeline_ns: 0,
        scores: PipelineScores::default(),
        pipeline_pages_failed: 0,
        rss_half_bytes,
        rss_full_bytes,
        threads,
    };
    for s in &scales {
        bench.pages += s.pages;
        bench.bytes += s.bytes;
        bench.tokens += s.tokens;
        bench.scan_ns += s.scan_ns;
        bench.frontend_ns += s.frontend_ns;
        bench.pipeline_ns += s.pipeline_ns;
        bench.scores.add(&s.scores);
        bench.pipeline_pages_failed += s.pages_failed;
    }
    bench
}

/// Renders the benchmark as the `BENCH_scale.json` document.
pub fn render_json(bench: &ScaleBench) -> String {
    let rss = match (bench.rss_half_bytes, bench.rss_full_bytes) {
        (Some(half), Some(full)) => format!(
            "{{ \"half_bytes\": {half}, \"full_bytes\": {full}, \"ratio\": {:.3} }}",
            bench.rss_ratio().unwrap_or(0.0)
        ),
        _ => "{ \"unavailable\": true }".to_string(),
    };
    let mut j = BenchJson::new("frontend_scale");
    j.raw(
        "universe",
        format!(
            "{{ \"sites\": {}, \"pages\": {}, \"bytes\": {}, \"tokens\": {} }}",
            bench.sites, bench.pages, bench.bytes, bench.tokens
        ),
    )
    .field("threads", bench.threads)
    .raw("tokenize", format!("{{ \"scan_ns\": {} }}", bench.scan_ns))
    .raw(
        "frontend",
        format!("{{ \"frontend_ns\": {} }}", bench.frontend_ns),
    )
    .raw(
        "throughput",
        format!(
            "{{ \"pages_per_sec\": {:.0}, \"bytes_per_sec\": {:.0} }}",
            bench.pages_per_sec(),
            bench.bytes_per_sec()
        ),
    )
    .raw(
        "pipeline",
        format!(
            "{{ \"pipeline_ns\": {}, \"sites_per_sec\": {:.1}, \"prob\": {{ {} }}, \
             \"csp\": {{ {}, \"relaxed_pages\": {} }}, \"pages_failed\": {} }}",
            bench.pipeline_ns,
            bench.sites_per_sec(),
            counts_members(&bench.scores.prob),
            counts_members(&bench.scores.csp),
            bench.scores.csp_relaxed,
            bench.pipeline_pages_failed
        ),
    )
    .raw("peak_rss", rss);
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::count_mismatches;

    /// The streamed totals agree with a direct count over the universe.
    #[test]
    fn small_universe_runs_and_agrees() {
        let bench = run_scale_bench(6, 2);
        assert_eq!(bench.sites, 6);
        let universe = Universe::new(UniverseConfig {
            sites: 6,
            ..UniverseConfig::default()
        });
        let (mut pages, mut bytes, mut tokens) = (0, 0, 0);
        for site in universe.sites() {
            for gp in &site.pages {
                for p in std::iter::once(&gp.list_html).chain(&gp.detail_html) {
                    pages += 1;
                    bytes += p.len();
                    tokens += scan(p).len();
                }
            }
        }
        assert!(pages > 6, "every site has list + detail pages");
        assert_eq!(
            (bench.pages, bench.bytes, bench.tokens),
            (pages, bytes, tokens)
        );
        assert!(bench.scan_ns > 0 && bench.frontend_ns > 0);
    }

    #[test]
    fn pipeline_leg_segments_the_universe() {
        let bench = run_scale_bench(6, 2);
        assert!(bench.pipeline_ns > 0);
        assert!(bench.sites_per_sec() > 0.0);
        let scores = &bench.scores;
        assert!(
            scores.csp.cor > 0 && scores.prob.cor > 0,
            "clean universe sites must segment into correct records: {scores:?}"
        );
        // Every solved page scores every true record once per method.
        assert_eq!(
            scores.csp.total_records(),
            scores.prob.total_records(),
            "{scores:?}"
        );
        assert_eq!(bench.pipeline_pages_failed, 0, "clean universe");
    }

    #[test]
    fn totals_are_thread_count_invariant() {
        let one = run_scale_bench(6, 1);
        let four = run_scale_bench(6, 4);
        assert_eq!(one.pages, four.pages);
        assert_eq!(one.bytes, four.bytes);
        assert_eq!(one.tokens, four.tokens);
        assert_eq!(one.scores, four.scores);
        assert_eq!(one.pipeline_pages_failed, four.pipeline_pages_failed);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }

    fn bench_fixture() -> ScaleBench {
        ScaleBench {
            sites: 100,
            pages: 1000,
            bytes: 5_000_000,
            tokens: 800_000,
            scan_ns: 3_000_000,
            frontend_ns: 8_000_000,
            pipeline_ns: 2_000_000_000,
            scores: PipelineScores {
                prob: PageCounts {
                    cor: 4000,
                    incor: 30,
                    fneg: 20,
                    fpos: 1,
                },
                csp: PageCounts {
                    cor: 3900,
                    incor: 120,
                    fneg: 30,
                    fpos: 0,
                },
                csp_relaxed: 77,
            },
            pipeline_pages_failed: 0,
            rss_half_bytes: Some(100 << 20),
            rss_full_bytes: Some(101 << 20),
            threads: 4,
        }
    }

    #[test]
    fn json_shape() {
        let bench = bench_fixture();
        assert!(bench.gate_failures().is_empty());
        let json = render_json(&bench);
        assert!(json.contains(&format!("\"schema\": \"{}\"", crate::corpus::SCHEMA)));
        assert!(json.contains("\"bench\": \"frontend_scale\""));
        assert!(json.contains("\"scan_ns\": 3000000"));
        assert!(json.contains("\"pages_per_sec\": 125000"));
        assert!(json.contains("\"sites_per_sec\": 50.0"));
        assert!(json.contains("\"prob\": { \"cor\": 4000, \"inc\": 30, \"fn\": 20, \"fp\": 1 }"));
        assert!(json.contains(
            "\"csp\": { \"cor\": 3900, \"inc\": 120, \"fn\": 30, \"fp\": 0, \"relaxed_pages\": 77 }"
        ));
        assert!(json.contains("\"ratio\": 1.010"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn work_counts_gate_on_the_committed_universe() {
        let bench = bench_fixture();
        let committed = render_json(&bench);
        assert!(count_mismatches(&committed, &bench.work_counts()).is_empty());
        let mut drifted = ScaleBench {
            tokens: 800_001,
            ..bench_fixture()
        };
        drifted.scores.csp.cor += 20;
        drifted.scores.csp.incor -= 20;
        drifted.scores.csp_relaxed = 76;
        assert_eq!(
            count_mismatches(&committed, &drifted.work_counts()),
            [
                "universe.tokens: 800001 vs committed 800000",
                "pipeline.csp.relaxed_pages: 76 vs committed 77",
                "pipeline.csp.cor: 3920 vs committed 3900",
                "pipeline.csp.inc: 100 vs committed 120",
            ]
        );
        // A prob count is read from the prob object, not the csp one.
        let mut prob_drift = bench_fixture();
        prob_drift.scores.prob.fpos = 0;
        assert_eq!(
            count_mismatches(&committed, &prob_drift.work_counts()),
            ["pipeline.prob.fp: 0 vs committed 1"]
        );
        // Another universe is not the committed run.
        let other = ScaleBench {
            sites: 10,
            ..bench_fixture()
        };
        assert_eq!(
            count_mismatches(&committed, &other.work_counts()),
            ["universe.sites: 10 vs committed 100"]
        );
    }

    #[test]
    fn gates_catch_growing_runs() {
        // A slow run passes: throughput depends on the host and is not
        // gated.
        let slow = ScaleBench {
            frontend_ns: 1_000_000_000,
            pipeline_ns: 10_000_000_000,
            ..bench_fixture()
        };
        assert!(slow.gate_failures().is_empty());
        let growing = ScaleBench {
            rss_full_bytes: Some(300 << 20),
            ..slow
        };
        assert_eq!(
            growing.gate_failures(),
            [
                "peak RSS 300.0 MiB above the 256 MiB cap",
                "peak RSS grew 200.0% over the second half (tolerance 25.0%)",
            ]
        );
        let unreadable = ScaleBench {
            rss_half_bytes: None,
            ..bench_fixture()
        };
        assert_eq!(unreadable.gate_failures(), ["peak RSS is unreadable"]);
    }
}
