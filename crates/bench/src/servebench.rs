//! The `tablesegd` closed-loop load benchmark behind `BENCH_serve.json`.
//!
//! An in-process daemon serves the 12-site paper corpus over real TCP
//! (the client helpers speak bytes over a socket — no in-process
//! shortcuts past the HTTP door). Two phases:
//!
//! * **cold** — every request is preceded by an invalidation, so each
//!   one pays the full per-site front end: template induction plus
//!   every per-page stage. Serial, `rounds` passes over the corpus.
//! * **warm** — the corpus is primed once, then `clients` closed-loop
//!   threads hammer it for `secs` seconds. Every request hits the site
//!   cache: the template is reused and resident targets re-run nothing,
//!   which is where the served p50 collapses.
//!
//! The report carries p50/p99 latency per phase, the warm/cold p50
//! speedup (the CI gate: the issue demands ≥ 2×), request throughput,
//! and the daemon's own cache hit rate read back from `/metrics`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tableseg_serve::client;
use tableseg_serve::{SegmentRequest, Server, ServerConfig, TargetSpec};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::{generate, GeneratedSite};

use crate::corpus::BenchJson;

/// Serve-benchmark configuration.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Warm closed-loop duration, seconds.
    pub secs: f64,
    /// Warm closed-loop client threads.
    pub clients: usize,
    /// Cold passes over the corpus (each request preceded by an
    /// invalidation).
    pub rounds: usize,
    /// Batch-engine threads inside the daemon.
    pub batch_threads: usize,
    /// Daemon HTTP worker threads.
    pub workers: usize,
}

impl Default for ServeBenchConfig {
    fn default() -> ServeBenchConfig {
        ServeBenchConfig {
            secs: 5.0,
            clients: 4,
            rounds: 3,
            batch_threads: 2,
            workers: 4,
        }
    }
}

/// The measurements `BENCH_serve.json` is rendered from.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Sites in the corpus.
    pub sites: usize,
    /// List pages across the corpus.
    pub pages: usize,
    /// Kept extracts across the served corpus, counted from the first
    /// cold pass's responses (one byte offset per kept extract).
    pub extracts: usize,
    /// Cold requests issued.
    pub cold_requests: usize,
    /// Warm requests issued.
    pub warm_requests: usize,
    /// Cold latency percentiles, microseconds.
    pub cold_p50_us: u64,
    /// Cold p99, microseconds.
    pub cold_p99_us: u64,
    /// Warm p50, microseconds.
    pub warm_p50_us: u64,
    /// Warm p99, microseconds.
    pub warm_p99_us: u64,
    /// `cold_p50 / warm_p50` — the headline gate.
    pub speedup_p50: f64,
    /// Warm phase requests per second (all clients).
    pub warm_rps: f64,
    /// Cache hit rate over the whole run, from the daemon's `/metrics`
    /// (`hits / (hits + misses + refreshes)`).
    pub hit_rate: f64,
}

/// Generates the paper corpus and shapes each site into one
/// [`SegmentRequest`] covering all of its list pages. Shared with the
/// black-box service test suites.
pub fn corpus_requests() -> Vec<(GeneratedSite, SegmentRequest)> {
    paper_sites::all()
        .iter()
        .map(|spec| {
            let site = generate(spec);
            let list_pages: Vec<String> = site.list_htmls().iter().map(|p| p.to_string()).collect();
            let targets: Vec<TargetSpec> = (0..site.pages.len())
                .map(|page| TargetSpec {
                    target: page,
                    details: site.pages[page].detail_html.clone(),
                })
                .collect();
            let request = SegmentRequest {
                site: spec.name.clone(),
                list_pages,
                targets,
            };
            (site, request)
        })
        .collect()
}

/// Nearest-rank percentile of an unsorted latency sample.
pub fn percentile_us(latencies: &mut [u64], p: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = ((latencies.len() - 1) as f64 * p / 100.0).round() as usize;
    latencies[rank.min(latencies.len() - 1)]
}

fn scrape_counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Runs both phases against an in-process daemon and returns the
/// measurements.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> ServeBench {
    let corpus = Arc::new(corpus_requests());
    let sites = corpus.len();
    let pages: usize = corpus.iter().map(|(site, _)| site.pages.len()).sum();
    let server = Server::start(ServerConfig {
        workers: cfg.workers.max(1),
        batch_threads: cfg.batch_threads.max(1),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Cold phase: invalidate-then-segment, serially, so every latency
    // sample pays the full front end.
    let mut cold_us: Vec<u64> = Vec::new();
    let mut extracts = 0;
    for round in 0..cfg.rounds.max(1) {
        for (_, request) in corpus.iter() {
            client::invalidate(addr, &request.site).expect("invalidate");
            let started = Instant::now();
            let resp = client::segment(addr, request, None, true).expect("cold segment");
            cold_us.push(started.elapsed().as_micros() as u64);
            assert_eq!(resp.cache, "cold", "post-invalidation request must be cold");
            if round == 0 {
                extracts += resp
                    .page_results
                    .iter()
                    .map(|p| p.offsets.len())
                    .sum::<usize>();
            }
        }
    }

    // Prime, then hammer: every subsequent request is a warm hit.
    for (_, request) in corpus.iter() {
        let resp = client::segment(addr, request, None, true).expect("prime segment");
        assert_eq!(resp.cache, "warm", "primed corpus must serve warm");
    }
    let warm_started = Instant::now();
    let deadline = warm_started + Duration::from_secs_f64(cfg.secs.max(0.1));
    let mut handles = Vec::new();
    for client_idx in 0..cfg.clients.max(1) {
        let corpus = Arc::clone(&corpus);
        handles.push(std::thread::spawn(move || {
            let mut latencies: Vec<u64> = Vec::new();
            let mut i = client_idx; // offset so clients interleave sites
            while Instant::now() < deadline {
                let (_, request) = &corpus[i % corpus.len()];
                i += 1;
                let started = Instant::now();
                let resp = client::segment(addr, request, None, true).expect("warm segment");
                latencies.push(started.elapsed().as_micros() as u64);
                assert_eq!(resp.cache, "warm", "steady state must stay warm");
            }
            latencies
        }));
    }
    let mut warm_us: Vec<u64> = Vec::new();
    for handle in handles {
        warm_us.extend(handle.join().expect("client thread"));
    }
    let warm_elapsed = warm_started.elapsed().as_secs_f64();

    let metrics = client::metrics(addr).expect("metrics scrape");
    server.shutdown();

    let hits = scrape_counter(&metrics, "tableseg_serve_cache_hits_total");
    let misses = scrape_counter(&metrics, "tableseg_serve_cache_misses_total");
    let refreshes = scrape_counter(&metrics, "tableseg_serve_cache_refreshes_total");
    let lookups = hits + misses + refreshes;

    let cold_requests = cold_us.len();
    let warm_requests = warm_us.len();
    let cold_p50_us = percentile_us(&mut cold_us, 50.0);
    let cold_p99_us = percentile_us(&mut cold_us, 99.0);
    let warm_p50_us = percentile_us(&mut warm_us, 50.0);
    let warm_p99_us = percentile_us(&mut warm_us, 99.0);
    ServeBench {
        sites,
        pages,
        extracts,
        cold_requests,
        warm_requests,
        cold_p50_us,
        cold_p99_us,
        warm_p50_us,
        warm_p99_us,
        speedup_p50: cold_p50_us as f64 / warm_p50_us.max(1) as f64,
        warm_rps: warm_requests as f64 / warm_elapsed.max(f64::EPSILON),
        hit_rate: if lookups > 0.0 { hits / lookups } else { 0.0 },
    }
}

/// Renders `BENCH_serve.json`.
pub fn render_json(cfg: &ServeBenchConfig, bench: &ServeBench) -> String {
    let mut j = BenchJson::new("serve");
    j.corpus(bench.sites, bench.pages, bench.extracts)
        .field("rounds", cfg.rounds)
        .field("clients", cfg.clients)
        .field("batch_threads", cfg.batch_threads)
        .raw("warm_secs", format!("{:.1}", cfg.secs))
        .field("cold_requests", bench.cold_requests)
        .field("warm_requests", bench.warm_requests)
        .field("cold_p50_us", bench.cold_p50_us)
        .field("cold_p99_us", bench.cold_p99_us)
        .field("warm_p50_us", bench.warm_p50_us)
        .field("warm_p99_us", bench.warm_p99_us)
        .raw("speedup_p50", format!("{:.2}", bench.speedup_p50))
        .raw("warm_req_per_sec", format!("{:.1}", bench.warm_rps))
        .raw("cache_hit_rate", format!("{:.4}", bench.hit_rate));
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut sample = vec![40, 10, 30, 20];
        assert_eq!(percentile_us(&mut sample, 50.0), 30);
        assert_eq!(percentile_us(&mut sample, 0.0), 10);
        assert_eq!(percentile_us(&mut sample, 100.0), 40);
        assert_eq!(percentile_us(&mut [], 50.0), 0);
    }

    #[test]
    fn corpus_requests_cover_the_paper_sites() {
        let corpus = corpus_requests();
        assert_eq!(corpus.len(), paper_sites::all().len());
        for (site, request) in &corpus {
            assert_eq!(request.targets.len(), site.pages.len());
            assert!(!request.list_pages.is_empty());
        }
    }

    #[test]
    fn report_counts_the_served_corpus_kept_extracts() {
        let cfg = ServeBenchConfig {
            secs: 0.1,
            clients: 1,
            rounds: 1,
            batch_threads: 1,
            workers: 1,
        };
        let bench = run_serve_bench(&cfg);
        let solved: usize = crate::solvebench::corpus()
            .iter()
            .map(|f| f.observations.len())
            .sum();
        assert_eq!(bench.extracts, solved);
        let json = render_json(&cfg, &bench);
        assert!(json.contains(&format!("\"extracts\": {solved} ")), "{json}");
    }

    #[test]
    fn scrape_counter_reads_prometheus_lines() {
        let dump = "# TYPE tableseg_serve_cache_hits_total counter\n\
                    tableseg_serve_cache_hits_total 42\n";
        assert_eq!(
            scrape_counter(dump, "tableseg_serve_cache_hits_total"),
            42.0
        );
        assert_eq!(scrape_counter(dump, "absent"), 0.0);
    }
}
