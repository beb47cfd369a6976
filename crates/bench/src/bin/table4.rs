//! Regenerates the paper's **Table 4**: per-site record-segmentation
//! results for the probabilistic and CSP approaches over the twelve
//! simulated sites, with aggregate precision / recall / F.
//!
//! The sites run through the work-stealing batch engine; results are
//! collected in job order, so the report is byte-identical for any
//! `--threads` value.
//!
//! Flags:
//!
//! * `--clean-only` — reproduce the Section 6.3 analysis that excludes
//!   the pages for which the CSP could not find a (strict) solution —
//!   the paper reports CSP P=0.99 R=0.92 F=0.95 and probabilistic P=0.78
//!   R=1.0 F=0.88 on those 17 pages;
//! * `--threads N` — worker threads (default: available parallelism);
//! * `--rt` — append the RT report: per-site wall-clock time per pipeline
//!   stage (tokenize / template / extract / match / solve / decode);
//! * `--bench-json PATH` — additionally run the extract-matcher
//!   microbenchmark over the corpus and write `BENCH_frontend.json`-style
//!   output (corpus shape, kept/skipped extracts, matcher wall clock,
//!   per-stage totals) to PATH; the run fails if the corpus shape or the
//!   kept/skipped counts differ from the committed `BENCH_frontend.json`;
//! * `--manifest PATH` — enable the observability layer and write the run
//!   manifest (summary JSON at PATH, plus `.jsonl` event-log and `.prom`
//!   Prometheus sidecars; see OBSERVABILITY.md);
//! * `--help` — this text.

use std::process::ExitCode;

use tableseg::batch;
use tableseg::obs;
use tableseg_bench::{corpus, matchbench, run_sites, table4_report};
use tableseg_sitegen::paper_sites;

fn usage() {
    eprintln!(
        "usage: table4 [--clean-only] [--threads N] [--rt] [--bench-json PATH] [--manifest PATH]"
    );
}

fn main() -> ExitCode {
    let mut clean_only = false;
    let mut rt = false;
    let mut bench_json: Option<String> = None;
    let mut manifest_path: Option<String> = None;
    let mut threads = batch::default_threads();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--clean-only" => clean_only = true,
            "--rt" => rt = true,
            "--bench-json" => {
                let Some(path) = it.next() else {
                    eprintln!("--bench-json needs an output path");
                    return ExitCode::FAILURE;
                };
                bench_json = Some(path);
            }
            "--manifest" => {
                let Some(path) = it.next() else {
                    eprintln!("--manifest needs an output path");
                    return ExitCode::FAILURE;
                };
                manifest_path = Some(path);
            }
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a positive number");
                    return ExitCode::FAILURE;
                };
                threads = n;
            }
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
    if manifest_path.is_some() {
        obs::set_enabled(true);
    }

    let specs = paper_sites::all();
    eprintln!("running {} sites on {threads} thread(s) ...", specs.len());
    let outcome = run_sites(&specs, threads);

    print!("{}", table4_report(&outcome.runs, clean_only));

    if rt {
        // Timings vary run to run; keep them off stdout so the report
        // stays byte-identical (and pipeable) with or without --rt.
        eprintln!("\nRT: per-stage wall clock by site ({threads} thread(s))\n");
        eprint!("{}", outcome.timing.render());
        eprintln!("\nRT: solve split by method and EM phase\n");
        eprint!("{}", outcome.timing.render_solve_split());
    }

    if let Some(path) = manifest_path {
        let manifest = outcome
            .manifest("table4", threads)
            .with_config("clean_only", clean_only)
            .with_config("sites", specs.len());
        let redact = obs::deterministic_requested();
        match manifest.write_files(std::path::Path::new(&path), redact) {
            Ok(written) => {
                for p in &written {
                    eprintln!("manifest: wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("cannot write manifest {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = bench_json {
        eprintln!("running matcher microbenchmark ...");
        let committed = corpus::read_committed("BENCH_frontend.json");
        let bench = matchbench::run_match_bench(7);
        // Corpus-wide per-stage totals from the batch run above.
        let stage_totals = corpus::stage_totals(&outcome.timing);
        let json = matchbench::render_json(&bench, &stage_totals);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "matcher: {:.2} ms (committed {}) over {} pages, {} kept / {} skipped extracts \
             (written to {path})",
            bench.indexed_ns as f64 / 1e6,
            corpus::committed_ms(&committed, &["indexed_ns"]),
            bench.pages,
            bench.kept,
            bench.skipped
        );
        if !corpus::check_work_counts("BENCH_frontend.json", &committed, &bench.work_counts()) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
