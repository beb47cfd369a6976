//! The streaming front-end scale benchmark behind `BENCH_scale.json`:
//! the zero-copy span lexer ([`tableseg_html::scan()`]) vs. the allocating
//! token lexer ([`tableseg_html::lexer::tokenize`]) over a procedurally
//! generated [`Universe`] of sites, sharded across the work-stealing
//! batch engine.
//!
//! Each site is one batch job: the site streams out of the universe,
//! both front ends run over every page, and only a small per-site
//! summary survives — sites in flight bound memory, not total pages.
//! Two things are measured per site:
//!
//! * **tokenize stage** — the lexer alone: [`tokenize`] vs. [`scan()`]
//!   over every list and detail page. This is the headline speedup.
//! * **front end** — what the pipeline actually does with the result:
//!   list pages are interned (plus, on the baseline, token
//!   materialization), detail pages become [`PageIndex`]es — via
//!   [`PageIndex::build`] over owned tokens on the baseline, via
//!   [`PageIndex::from_scanned`] over borrowed spans on the zero-copy
//!   path.
//!
//! Every `oracle_every`-th site runs the allocating lexer as a
//! **differential oracle**: token streams, interner contents and page
//! indexes must agree exactly, or the run panics — a front end that
//! changes tokens is not a front end.
//!
//! Memory flatness is proven by splitting the universe in half: the
//! process peak RSS (`VmHWM`) is snapshotted after the first half and
//! again after the second. A streaming front end's peak is set by the
//! sites in flight, so the second half must not move it by more than a
//! small tolerance ([`ScaleBench::rss_flat`]).
//!
//! Throughput (`pages_per_sec`, `bytes_per_sec`) is **per-core**: total
//! pages (bytes) over the summed zero-copy front-end nanoseconds across
//! all jobs. Summed work time is thread-count-invariant, which makes
//! the number a stable CI regression gate.
//!
//! A third leg runs the **full pipeline** per site — template induction
//! ([`SiteTemplate::build`]), per-page preparation, and both solvers
//! ([`CspSegmenter`], [`ProbSegmenter`]) — yielding `sites_per_sec`, the
//! end-to-end throughput the solver-layer optimizations move. Like the
//! front-end numbers it divides by summed per-worker nanoseconds, so it
//! is thread-count-invariant too. Pages the solver rejects (chaos-
//! damaged universes) are counted, not fatal.

use std::time::Instant;

use tableseg::{run_page, CspSegmenter, ProbSegmenter, SiteTemplate};
use tableseg_extract::PageIndex;
use tableseg_html::lexer::tokenize;
use tableseg_html::{scan, Interner};
use tableseg_sitegen::{GeneratedSite, Universe, UniverseConfig};

use crate::corpus::BenchJson;
use tableseg::batch;

/// Scale-benchmark configuration.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Universe size (sites).
    pub sites: usize,
    /// Batch worker threads.
    pub threads: usize,
    /// Universe fault rate (chaos injection; `0.0` = clean pages).
    pub fault_rate: f64,
    /// Run the differential oracle on every `oracle_every`-th site
    /// (site 0 is always checked). `0` disables the oracle.
    pub oracle_every: usize,
    /// Run the full-pipeline leg (template + preparation + both solvers)
    /// per site. Much heavier than the front-end legs; disable for pure
    /// lexer runs.
    pub pipeline: bool,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            sites: 1000,
            threads: batch::default_threads(),
            fault_rate: 0.0,
            oracle_every: 16,
            pipeline: true,
        }
    }
}

/// One site's contribution to the scale totals.
#[derive(Debug, Clone, Copy, Default)]
struct SiteScale {
    pages: usize,
    bytes: usize,
    tokens: usize,
    tokenize_ns: u128,
    scan_ns: u128,
    base_frontend_ns: u128,
    zc_frontend_ns: u128,
    pipeline_ns: u128,
    records: usize,
    pages_failed: usize,
    oracle_checked: bool,
}

/// The corpus-level result of the scale run.
#[derive(Debug, Clone)]
pub struct ScaleBench {
    /// Universe size (sites processed).
    pub sites: usize,
    /// Total pages lexed per leg (list + detail).
    pub pages: usize,
    /// Total page bytes lexed per leg.
    pub bytes: usize,
    /// Total tokens produced by the zero-copy leg.
    pub tokens: usize,
    /// Summed allocating-lexer nanoseconds across all pages.
    pub tokenize_ns: u128,
    /// Summed span-lexer nanoseconds across all pages.
    pub scan_ns: u128,
    /// Summed baseline front-end nanoseconds (tokenize + intern +
    /// [`PageIndex::build`]).
    pub baseline_frontend_ns: u128,
    /// Summed zero-copy front-end nanoseconds (scan + intern +
    /// [`PageIndex::from_scanned`]).
    pub zerocopy_frontend_ns: u128,
    /// Summed full-pipeline nanoseconds (template + preparation + both
    /// solvers per list page); zero when the pipeline leg is disabled.
    pub pipeline_ns: u128,
    /// Records segmented by the full-pipeline CSP pass.
    pub records: usize,
    /// List pages the pipeline leg could not prepare or solve (chaos
    /// damage); a page counts once, however many of its solvers failed.
    pub pipeline_pages_failed: usize,
    /// Sites the differential oracle verified.
    pub oracle_sites: usize,
    /// Peak RSS after the first half of the universe, in bytes
    /// (`None` when `/proc/self/status` is unavailable).
    pub rss_half_bytes: Option<u64>,
    /// Peak RSS after the full universe, in bytes.
    pub rss_full_bytes: Option<u64>,
    /// Worker threads used.
    pub threads: usize,
    /// Universe fault rate.
    pub fault_rate: f64,
}

impl ScaleBench {
    /// Allocating-lexer / span-lexer wall-clock ratio (the tokenize
    /// stage alone).
    pub fn tokenize_speedup(&self) -> f64 {
        self.tokenize_ns as f64 / self.scan_ns.max(1) as f64
    }

    /// Baseline / zero-copy front-end wall-clock ratio.
    pub fn frontend_speedup(&self) -> f64 {
        self.baseline_frontend_ns as f64 / self.zerocopy_frontend_ns.max(1) as f64
    }

    /// Per-core zero-copy front-end throughput in pages per second.
    pub fn pages_per_sec(&self) -> f64 {
        self.pages as f64 / (self.zerocopy_frontend_ns.max(1) as f64 / 1e9)
    }

    /// Per-core zero-copy front-end throughput in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / (self.zerocopy_frontend_ns.max(1) as f64 / 1e9)
    }

    /// Per-core full-pipeline throughput in sites per second (`0.0` when
    /// the pipeline leg is disabled).
    pub fn sites_per_sec(&self) -> f64 {
        if self.pipeline_ns == 0 {
            return 0.0;
        }
        self.sites as f64 / (self.pipeline_ns as f64 / 1e9)
    }

    /// Peak-RSS growth over the second half of the universe, as a
    /// `full / half` ratio (`None` when RSS was unreadable).
    pub fn rss_ratio(&self) -> Option<f64> {
        let (half, full) = (self.rss_half_bytes?, self.rss_full_bytes?);
        Some(full as f64 / half.max(1) as f64)
    }

    /// `true` when doubling the processed pages moved the peak RSS by
    /// at most `tolerance` (e.g. `0.10` allows 10% growth) — the
    /// fixed-memory claim of the streaming front end.
    pub fn rss_flat(&self, tolerance: f64) -> Option<bool> {
        self.rss_ratio().map(|r| r <= 1.0 + tolerance)
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
/// list pages, then [`run_page`] with both solvers per page. A page that
/// fails (chaos damage in the front end or a solver) counts once in
/// `pages_failed`.
fn pipeline_site(site: &GeneratedSite, out: &mut SiteScale) {
    let csp = CspSegmenter::default();
    let prob = ProbSegmenter::default();
    let t = Instant::now();
    match SiteTemplate::try_build(&site.list_htmls()) {
        Ok(template) => {
            for (target, gp) in site.pages.iter().enumerate() {
                let page = run_page(&template, target, &gp.detail_htmls(), None, &[&csp, &prob]);
                if let Ok(o) = &page.solved[0] {
                    out.records += o.segmentation.num_records;
                }
                out.pages_failed += usize::from(page.outcome.is_failed());
            }
        }
        Err(_) => out.pages_failed += site.pages.len(),
    }
    out.pipeline_ns = t.elapsed().as_nanos();
}

/// Runs both front ends over one site, returning its scale summary.
///
/// # Panics
///
/// Panics if `oracle` is set and the zero-copy front end diverges from
/// the allocating lexer on any page.
fn scale_site(site: &GeneratedSite, oracle: bool) -> SiteScale {
    let mut pages: Vec<&str> = Vec::new();
    let mut list_count = 0usize;
    for gp in &site.pages {
        pages.push(&gp.list_html);
        list_count += 1;
    }
    for gp in &site.pages {
        for d in &gp.detail_html {
            pages.push(d);
        }
    }

    let mut out = SiteScale {
        pages: pages.len(),
        bytes: pages.iter().map(|p| p.len()).sum(),
        oracle_checked: oracle,
        ..SiteScale::default()
    };

    // Tokenize stage, baseline: the allocating lexer over every page.
    let t = Instant::now();
    for p in &pages {
        std::hint::black_box(tokenize(p));
    }
    out.tokenize_ns = t.elapsed().as_nanos();

    // Tokenize stage, zero-copy: the span lexer over every page.
    let t = Instant::now();
    let mut tokens = 0usize;
    for p in &pages {
        tokens += std::hint::black_box(scan(p)).len();
    }
    out.scan_ns = t.elapsed().as_nanos();
    out.tokens = tokens;

    // Front end, baseline: owned tokens for list pages (interned) and
    // detail pages (indexed through the list-page interner).
    let t = Instant::now();
    let mut interner = Interner::new();
    for p in &pages[..list_count] {
        let toks = tokenize(p);
        std::hint::black_box(interner.intern_tokens(&toks));
        std::hint::black_box(&toks);
    }
    for p in &pages[list_count..] {
        let toks = tokenize(p);
        std::hint::black_box(PageIndex::build(&toks, &interner));
    }
    out.base_frontend_ns = t.elapsed().as_nanos();
    let base_interner_len = interner.len();

    // Front end, zero-copy: spans all the way down. List pages still
    // materialize owned tokens (induction consumes them); detail pages
    // never do — spans project straight into a PageIndex.
    let t = Instant::now();
    let mut interner = Interner::new();
    for p in &pages[..list_count] {
        let scanned = scan(p);
        std::hint::black_box(interner.intern_scanned(&scanned, p));
        std::hint::black_box(scanned.to_tokens(p));
    }
    for p in &pages[list_count..] {
        let scanned = scan(p);
        std::hint::black_box(PageIndex::from_scanned(&scanned, p, &interner));
    }
    out.zc_frontend_ns = t.elapsed().as_nanos();

    if oracle {
        assert_eq!(
            interner.len(),
            base_interner_len,
            "zero-copy interner diverged from oracle"
        );
        for p in &pages {
            let scanned = scan(p);
            assert_eq!(
                scanned.to_tokens(p),
                tokenize(p),
                "span lexer diverged from the allocating oracle"
            );
        }
        for p in &pages[list_count..] {
            let scanned = scan(p);
            let toks = tokenize(p);
            assert_eq!(
                PageIndex::from_scanned(&scanned, p, &interner),
                PageIndex::build(&toks, &interner),
                "scanned page index diverged from the token-built oracle"
            );
        }
    }
    out
}

/// Streams the universe through the batch engine, both front ends per
/// site, in two halves with a peak-RSS snapshot after each.
pub fn run_scale_bench(cfg: &ScaleConfig) -> ScaleBench {
    let universe = Universe::new(UniverseConfig {
        sites: cfg.sites,
        fault_rate: cfg.fault_rate,
        ..UniverseConfig::default()
    });

    let mid = cfg.sites / 2;
    let run_half = |range: std::ops::Range<usize>| -> Vec<SiteScale> {
        let jobs: Vec<usize> = range.collect();
        batch::execute(cfg.threads, jobs, |_, i| {
            let site = universe.site(i);
            let oracle = cfg.oracle_every > 0 && i % cfg.oracle_every == 0;
            let mut scale = scale_site(&site, oracle);
            if cfg.pipeline {
                pipeline_site(&site, &mut scale);
            }
            scale
        })
    };

    let mut scales = run_half(0..mid);
    let rss_half_bytes = peak_rss_bytes();
    scales.extend(run_half(mid..cfg.sites));
    let rss_full_bytes = peak_rss_bytes();

    let mut bench = ScaleBench {
        sites: scales.len(),
        pages: 0,
        bytes: 0,
        tokens: 0,
        tokenize_ns: 0,
        scan_ns: 0,
        baseline_frontend_ns: 0,
        zerocopy_frontend_ns: 0,
        pipeline_ns: 0,
        records: 0,
        pipeline_pages_failed: 0,
        oracle_sites: 0,
        rss_half_bytes,
        rss_full_bytes,
        threads: cfg.threads,
        fault_rate: cfg.fault_rate,
    };
    for s in &scales {
        bench.pages += s.pages;
        bench.bytes += s.bytes;
        bench.tokens += s.tokens;
        bench.tokenize_ns += s.tokenize_ns;
        bench.scan_ns += s.scan_ns;
        bench.baseline_frontend_ns += s.base_frontend_ns;
        bench.zerocopy_frontend_ns += s.zc_frontend_ns;
        bench.pipeline_ns += s.pipeline_ns;
        bench.records += s.records;
        bench.pipeline_pages_failed += s.pages_failed;
        bench.oracle_sites += usize::from(s.oracle_checked);
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
            "{{ \"sites\": {}, \"pages\": {}, \"bytes\": {}, \"tokens\": {}, \
             \"fault_rate\": {:.2} }}",
            bench.sites, bench.pages, bench.bytes, bench.tokens, bench.fault_rate
        ),
    )
    .field("threads", bench.threads)
    .raw(
        "tokenize",
        format!(
            "{{ \"baseline_ns\": {}, \"scan_ns\": {}, \"speedup\": {:.2} }}",
            bench.tokenize_ns,
            bench.scan_ns,
            bench.tokenize_speedup()
        ),
    )
    .raw(
        "frontend",
        format!(
            "{{ \"baseline_ns\": {}, \"zerocopy_ns\": {}, \"speedup\": {:.2} }}",
            bench.baseline_frontend_ns,
            bench.zerocopy_frontend_ns,
            bench.frontend_speedup()
        ),
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
        if bench.pipeline_ns == 0 {
            "{ \"skipped\": true }".to_string()
        } else {
            format!(
                "{{ \"pipeline_ns\": {}, \"sites_per_sec\": {:.1}, \"records\": {}, \
                 \"pages_failed\": {} }}",
                bench.pipeline_ns,
                bench.sites_per_sec(),
                bench.records,
                bench.pipeline_pages_failed
            )
        },
    )
    .raw("peak_rss", rss)
    .raw(
        "oracle",
        format!(
            "{{ \"sites_checked\": {}, \"agrees\": true }}",
            bench.oracle_sites
        ),
    );
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ScaleConfig {
        ScaleConfig {
            sites: 6,
            threads: 2,
            fault_rate: 0.0,
            oracle_every: 2,
            pipeline: false,
        }
    }

    #[test]
    fn small_universe_runs_and_agrees() {
        let bench = run_scale_bench(&small_cfg());
        assert_eq!(bench.sites, 6);
        assert!(bench.pages > 6, "every site has list + detail pages");
        assert!(bench.bytes > 0 && bench.tokens > 0);
        assert_eq!(bench.oracle_sites, 3, "sites 0, 2, 4 are checked");
        assert!(bench.tokenize_ns > 0 && bench.scan_ns > 0);
        assert_eq!(bench.pipeline_ns, 0, "pipeline leg disabled");
        assert_eq!(bench.sites_per_sec(), 0.0);
    }

    #[test]
    fn pipeline_leg_segments_the_universe() {
        let bench = run_scale_bench(&ScaleConfig {
            pipeline: true,
            ..small_cfg()
        });
        assert!(bench.pipeline_ns > 0);
        assert!(bench.sites_per_sec() > 0.0);
        assert!(
            bench.records > 0,
            "clean universe sites must segment into records"
        );
        assert_eq!(bench.pipeline_pages_failed, 0, "clean universe");
    }

    #[test]
    fn faulty_universe_still_agrees_with_oracle() {
        let bench = run_scale_bench(&ScaleConfig {
            fault_rate: 0.3,
            oracle_every: 1,
            ..small_cfg()
        });
        assert_eq!(bench.oracle_sites, bench.sites);
    }

    #[test]
    fn totals_are_thread_count_invariant() {
        let one = run_scale_bench(&ScaleConfig {
            threads: 1,
            pipeline: true,
            ..small_cfg()
        });
        let four = run_scale_bench(&ScaleConfig {
            threads: 4,
            pipeline: true,
            ..small_cfg()
        });
        assert_eq!(one.pages, four.pages);
        assert_eq!(one.bytes, four.bytes);
        assert_eq!(one.tokens, four.tokens);
        assert_eq!(one.records, four.records);
        assert_eq!(one.pipeline_pages_failed, four.pipeline_pages_failed);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }

    #[test]
    fn json_shape() {
        let bench = ScaleBench {
            sites: 100,
            pages: 1000,
            bytes: 5_000_000,
            tokens: 800_000,
            tokenize_ns: 9_000_000,
            scan_ns: 3_000_000,
            baseline_frontend_ns: 20_000_000,
            zerocopy_frontend_ns: 8_000_000,
            pipeline_ns: 2_000_000_000,
            records: 4000,
            pipeline_pages_failed: 0,
            oracle_sites: 7,
            rss_half_bytes: Some(100 << 20),
            rss_full_bytes: Some(101 << 20),
            threads: 4,
            fault_rate: 0.0,
        };
        assert!((bench.tokenize_speedup() - 3.0).abs() < 1e-9);
        assert_eq!(bench.rss_flat(0.10), Some(true));
        assert_eq!(bench.rss_flat(0.001), Some(false));
        let json = render_json(&bench);
        assert!(json.contains("\"schema\": \"tableseg.bench/v3\""));
        assert!(json.contains("\"bench\": \"frontend_scale\""));
        assert!(json.contains("\"speedup\": 3.00"));
        assert!(json.contains("\"pages_per_sec\": 125000"));
        assert!(json.contains("\"sites_per_sec\": 50.0"));
        assert!(json.contains("\"records\": 4000"));
        assert!(json.contains("\"ratio\": 1.010"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn json_marks_disabled_pipeline_as_skipped() {
        let mut bench = run_scale_bench(&small_cfg());
        bench.pipeline_ns = 0;
        let json = render_json(&bench);
        assert!(json.contains("\"pipeline\": { \"skipped\": true }"));
    }
}
