//! Emits `BENCH_induce.json`: the template-induction microbenchmark —
//! the histogram-LCS core on the candidate streams of the twelve
//! simulated paper sites, plus the multi-page rolling-merge
//! quality-vs-cost curve (2 → 10 sample pages per site).
//!
//! The run fails if a deterministic work count — the pair anchors and
//! LCS fallback windows, and per depth the mean template length, usable
//! sites and fallback windows — differs from the committed
//! `BENCH_induce.json` (read before the output is written), or if the
//! 10-page induction's template quality degrades below the 2-page
//! baseline — a merge that loosens the template is a regression, not a
//! feature.
//!
//! Flags:
//!
//! * `--iters N` — corpus passes per timed path (default 3; the fastest
//!   pass is reported);
//! * `--out PATH` — where to write the JSON (default `BENCH_induce.json`);
//! * `--skip-quality-gate` — report the quality curve without failing on
//!   degradation (for exploratory sweeps);
//! * `--help` — this text.

use std::process::ExitCode;

use tableseg_bench::{corpus, inducebench};

fn usage() {
    eprintln!("usage: inducebench [--iters N] [--out PATH] [--skip-quality-gate]");
}

fn main() -> ExitCode {
    let mut iters = 3usize;
    let mut out_path = String::from("BENCH_induce.json");
    let mut quality_gate = true;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--iters" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--iters needs a positive number");
                    return ExitCode::FAILURE;
                };
                iters = n.max(1);
            }
            "--out" => {
                let Some(path) = it.next() else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out_path = path;
            }
            "--skip-quality-gate" => quality_gate = false,
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

    eprintln!("running induction benchmark ({iters} pass(es) per path) ...");
    let bench = inducebench::run_induce_bench(iters, &[2, 4, 6, 8, 10]);
    let committed = corpus::read_committed("BENCH_induce.json");

    let json = inducebench::render_json(&bench);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "pair LCS: {:.2} ms (committed {}), {} anchors over {} pairs",
        bench.pair.histogram_ns as f64 / 1e6,
        corpus::committed_ms(&committed, &["pair_lcs", "histogram_ns"]),
        bench.pair.anchors,
        bench.pair.pairs
    );
    for p in &bench.curve {
        eprintln!(
            "merge {:>2} pages: {:.2} ms, slot fraction {:.3}, {} usable sites",
            p.pages,
            p.induce_ns as f64 / 1e6,
            p.mean_largest_slot_fraction,
            p.usable_sites
        );
    }
    eprintln!("written to {out_path}");
    if !corpus::check_work_counts("BENCH_induce.json", &committed, &bench.work_counts()) {
        return ExitCode::FAILURE;
    }
    if quality_gate && !bench.quality_non_degrading() {
        eprintln!(
            "FAIL: 10-page template quality degraded below the 2-page baseline \
             (fraction {:.4} < {:.4} or usable {} < {})",
            bench.deep().mean_largest_slot_fraction,
            bench.baseline().mean_largest_slot_fraction,
            bench.deep().usable_sites,
            bench.baseline().usable_sites
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
