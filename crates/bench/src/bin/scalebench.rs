//! Emits `BENCH_scale.json`: the streaming front-end scale benchmark.
//!
//! A procedurally generated [`Universe`](tableseg_sitegen::Universe) of
//! sites streams through the work-stealing batch engine; every page runs
//! through the zero-copy span lexer and the front end built on it, and
//! (by default) every site through the full pipeline. The report carries
//! per-core throughput (pages/sec, bytes/sec, sites/sec) and the
//! half-vs-full peak-RSS snapshot that proves the front end runs in
//! memory bounded by sites in flight, not total pages.
//!
//! On the universe the committed `BENCH_scale.json` covers (same site
//! count and fault rate), the run fails if a deterministic work count —
//! universe pages, bytes and tokens, each method's Cor/InC/FN/FP over the
//! pipeline leg's pages, the CSP's relaxed pages and the failed pages —
//! differs from the committed file (read before the output is written).
//!
//! Flags:
//!
//! * `--sites N` — universe size (default 1000);
//! * `--threads N` — batch worker threads (default: available
//!   parallelism);
//! * `--fault-rate F` — chaos injection rate, `0.0..=1.0` (default 0);
//! * `--out PATH` — where to write the JSON (default `BENCH_scale.json`);
//! * `--min-pages-per-sec N` — fail below this per-core zero-copy
//!   throughput (default: no gate);
//! * `--min-sites-per-sec N` — fail below this per-core full-pipeline
//!   throughput (default: no gate; implies the pipeline leg);
//! * `--no-pipeline` — skip the full-pipeline leg (template + both
//!   solvers per site) and report front-end numbers only;
//! * `--max-rss-mb N` — fail if the full-run peak RSS exceeds `N` MiB
//!   (default: no gate);
//! * `--rss-tolerance F` — allowed half→full peak-RSS growth fraction
//!   before the flatness gate fails (default 0.25; only checked when an
//!   RSS gate or `--check-flat` is active);
//! * `--check-flat` — fail unless the peak RSS stayed flat across the
//!   two halves;
//! * `--help` — this text.

use std::process::ExitCode;

use tableseg::batch;
use tableseg_bench::corpus;
use tableseg_bench::scalebench::{render_json, run_scale_bench, ScaleConfig};
use tableseg_eval::metrics::Metrics;

fn usage() {
    eprintln!(
        "usage: scalebench [--sites N] [--threads N] [--fault-rate F] [--out PATH] \
         [--min-pages-per-sec N] [--min-sites-per-sec N] [--no-pipeline] [--max-rss-mb N] \
         [--rss-tolerance F] [--check-flat]"
    );
}

fn main() -> ExitCode {
    let mut cfg = ScaleConfig {
        threads: batch::default_threads(),
        ..ScaleConfig::default()
    };
    let mut out_path = String::from("BENCH_scale.json");
    let mut min_pages_per_sec: Option<f64> = None;
    let mut min_sites_per_sec: Option<f64> = None;
    let mut max_rss_mb: Option<u64> = None;
    let mut rss_tolerance = 0.25f64;
    let mut check_flat = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sites" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--sites needs a positive number");
                    return ExitCode::FAILURE;
                };
                cfg.sites = n.max(1);
            }
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a positive number");
                    return ExitCode::FAILURE;
                };
                cfg.threads = n.max(1);
            }
            "--fault-rate" => {
                let Some(f) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--fault-rate needs a probability");
                    return ExitCode::FAILURE;
                };
                cfg.fault_rate = f.clamp(0.0, 1.0);
            }
            "--out" => {
                let Some(path) = it.next() else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out_path = path;
            }
            "--min-pages-per-sec" => {
                let Some(f) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--min-pages-per-sec needs a number");
                    return ExitCode::FAILURE;
                };
                min_pages_per_sec = Some(f);
            }
            "--min-sites-per-sec" => {
                let Some(f) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--min-sites-per-sec needs a number");
                    return ExitCode::FAILURE;
                };
                min_sites_per_sec = Some(f);
            }
            "--no-pipeline" => cfg.pipeline = false,
            "--max-rss-mb" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--max-rss-mb needs a number");
                    return ExitCode::FAILURE;
                };
                max_rss_mb = Some(n);
            }
            "--rss-tolerance" => {
                let Some(f) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--rss-tolerance needs a fraction");
                    return ExitCode::FAILURE;
                };
                rss_tolerance = f.max(0.0);
            }
            "--check-flat" => check_flat = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    if min_sites_per_sec.is_some() && !cfg.pipeline {
        eprintln!("--min-sites-per-sec needs the pipeline leg (drop --no-pipeline)");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "scale: {} sites on {} thread(s), fault rate {:.2}{} ...",
        cfg.sites,
        cfg.threads,
        cfg.fault_rate,
        if cfg.pipeline { ", full pipeline" } else { "" }
    );
    let committed = corpus::read_committed("BENCH_scale.json");
    let bench = run_scale_bench(&cfg);

    let json = render_json(&bench);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "tokenize: scan {:.2} ms, front end {:.2} ms (committed {})",
        bench.scan_ns as f64 / 1e6,
        bench.frontend_ns as f64 / 1e6,
        corpus::committed_ms(&committed, &["frontend", "frontend_ns"])
    );
    eprintln!(
        "throughput: {:.0} pages/s, {:.1} MB/s per core over {} pages / {:.1} MB \
         (written to {out_path})",
        bench.pages_per_sec(),
        bench.bytes_per_sec() / 1e6,
        bench.pages,
        bench.bytes as f64 / 1e6
    );
    if cfg.pipeline {
        eprintln!(
            "pipeline: {:.1} sites/s per core ({} page(s) failed, {:.2} s summed)",
            bench.sites_per_sec(),
            bench.pipeline_pages_failed,
            bench.pipeline_ns as f64 / 1e9
        );
        let s = &bench.scores;
        for (method, c) in [("prob", &s.prob), ("CSP", &s.csp)] {
            eprintln!(
                "  {method}: Cor {} InC {} FN {} FP {}, F {:.3}",
                c.cor,
                c.incor,
                c.fneg,
                c.fpos,
                Metrics::from_counts(c).f1
            );
        }
        eprintln!("  CSP relaxed pages: {}", s.csp_relaxed);
    }
    if let (Some(half), Some(full)) = (bench.rss_half_bytes, bench.rss_full_bytes) {
        eprintln!(
            "peak RSS: {:.1} MiB after half, {:.1} MiB after full (ratio {:.3})",
            half as f64 / (1 << 20) as f64,
            full as f64 / (1 << 20) as f64,
            bench.rss_ratio().unwrap_or(0.0)
        );
    }

    let mut failed = false;
    if committed
        .as_deref()
        .is_ok_and(|doc| !bench.same_universe(doc))
    {
        eprintln!("work counts: BENCH_scale.json covers another universe; not compared");
    } else {
        failed |= !corpus::check_work_counts("BENCH_scale.json", &committed, &bench.work_counts());
    }
    if let Some(min) = min_pages_per_sec {
        if bench.pages_per_sec() < min {
            eprintln!(
                "FAIL: {:.0} pages/s below the {min:.0} pages/s gate",
                bench.pages_per_sec()
            );
            failed = true;
        }
    }
    if let Some(min) = min_sites_per_sec {
        if bench.sites_per_sec() < min {
            eprintln!(
                "FAIL: {:.1} sites/s below the {min:.1} sites/s gate",
                bench.sites_per_sec()
            );
            failed = true;
        }
    }
    if let Some(cap) = max_rss_mb {
        match bench.rss_full_bytes {
            Some(full) if full > cap * (1 << 20) => {
                eprintln!(
                    "FAIL: peak RSS {:.1} MiB above the {cap} MiB cap",
                    full as f64 / (1 << 20) as f64
                );
                failed = true;
            }
            None => {
                eprintln!("FAIL: --max-rss-mb set but peak RSS is unreadable");
                failed = true;
            }
            _ => {}
        }
    }
    if check_flat {
        match bench.rss_flat(rss_tolerance) {
            Some(true) => {}
            Some(false) => {
                eprintln!(
                    "FAIL: peak RSS grew {:.1}% over the second half (tolerance {:.1}%)",
                    (bench.rss_ratio().unwrap_or(1.0) - 1.0) * 100.0,
                    rss_tolerance * 100.0
                );
                failed = true;
            }
            None => {
                eprintln!("FAIL: --check-flat set but peak RSS is unreadable");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
