//! Emits `BENCH_solver.json`: the solver-layer microbenchmark over the
//! twelve simulated paper sites — pre-overhaul baselines (sequential
//! uncached WSAT, log-space EM) and the previous optimized generation
//! (whole-instance cached-delta WSAT, unmemoized scaled EM) vs. the
//! production solvers (reduced + warm-started component WSAT, memoized
//! structured E-step) — plus the corpus-wide per-stage totals of a full batch
//! run, with the solve stage split by method.
//!
//! Before anything is written, the batch run's Table 4 report is checked
//! against `tests/golden/table4.txt` — a speedup that changes results is
//! not a speedup.
//!
//! Flags:
//!
//! * `--iters N` — corpus passes per solver path (default 3; the fastest
//!   pass is reported);
//! * `--threads N` — batch worker threads for the stage-total run
//!   (default: available parallelism);
//! * `--out PATH` — where to write the JSON (default `BENCH_solver.json`);
//! * `--skip-golden` — skip the golden Table 4 comparison (for runs
//!   outside the repository checkout);
//! * `--manifest PATH` — enable the observability layer and write the
//!   batch run's manifest (summary JSON plus `.jsonl`/`.prom` sidecars);
//! * `--profile` — include per-component size histograms (strict and
//!   relaxed encodings) in the JSON, for diagnosing reduction regressions;
//! * `--help` — this text.

use std::process::ExitCode;

use tableseg::batch;
use tableseg::obs;
use tableseg_bench::{corpus, run_sites, solvebench, table4_report};
use tableseg_sitegen::paper_sites;

fn usage() {
    eprintln!(
        "usage: solvebench [--iters N] [--threads N] [--out PATH] [--skip-golden] [--manifest PATH] [--profile]"
    );
}

fn main() -> ExitCode {
    let mut iters = 3usize;
    let mut threads = batch::default_threads();
    let mut out_path = String::from("BENCH_solver.json");
    let mut check_golden = true;
    let mut manifest_path: Option<String> = None;
    let mut profile = false;
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
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a positive number");
                    return ExitCode::FAILURE;
                };
                threads = n;
            }
            "--out" => {
                let Some(path) = it.next() else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out_path = path;
            }
            "--skip-golden" => check_golden = false,
            "--profile" => profile = true,
            "--manifest" => {
                let Some(path) = it.next() else {
                    eprintln!("--manifest needs an output path");
                    return ExitCode::FAILURE;
                };
                manifest_path = Some(path);
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

    // A full batch run: feeds the per-stage totals and proves the
    // production solvers still reproduce the golden Table 4.
    let specs = paper_sites::all();
    eprintln!("running {} sites on {threads} thread(s) ...", specs.len());
    let outcome = run_sites(&specs, threads);
    if check_golden {
        let golden_path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/table4.txt");
        match std::fs::read_to_string(&golden_path) {
            Ok(golden) => {
                let report = table4_report(&outcome.runs, false);
                if report != golden {
                    eprintln!(
                        "FAIL: Table 4 report differs from {}",
                        golden_path.display()
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!("Table 4 report matches golden");
            }
            Err(e) => {
                eprintln!("cannot read {}: {e}", golden_path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &manifest_path {
        let manifest = outcome
            .manifest("solvebench", threads)
            .with_config("iters", iters)
            .with_config("sites", specs.len());
        let redact = obs::deterministic_requested();
        match manifest.write_files(std::path::Path::new(path), redact) {
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

    eprintln!("running solver microbenchmark ({iters} pass(es) per path) ...");
    let bench = solvebench::run_solve_bench(iters);
    let component_profile = profile.then(|| {
        let fixtures = solvebench::corpus();
        solvebench::component_profile(&fixtures)
    });

    let stage_totals = corpus::stage_totals(&outcome.timing);

    let json = solvebench::render_json(&bench, &stage_totals, component_profile.as_ref());
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "csp: whole-instance {:.2} ms vs reduced {:.2} ms → {:.2}x \
         (reference {:.2} ms, {:.0} flips/s)",
        bench.csp.prev_ns as f64 / 1e6,
        bench.csp.optimized_ns as f64 / 1e6,
        bench.csp.speedup_over_prev(),
        bench.csp.baseline_ns as f64 / 1e6,
        bench.csp.units_per_sec()
    );
    eprintln!(
        "prob: unmemoized {:.2} ms vs memoized {:.2} ms → {:.2}x \
         (log-space {:.2} ms, {:.0} EM iters/s)",
        bench.prob.prev_ns as f64 / 1e6,
        bench.prob.optimized_ns as f64 / 1e6,
        bench.prob.speedup_over_prev(),
        bench.prob.baseline_ns as f64 / 1e6,
        bench.prob.units_per_sec()
    );
    eprintln!(
        "reduction: {} components, {} pruned vars, {} warm-start hits",
        bench.reduction.components, bench.reduction.pruned_vars, bench.reduction.warm_start_hits
    );
    if let Some(p) = &component_profile {
        for (name, hist) in [("strict", &p.strict), ("relaxed", &p.relaxed)] {
            let cells: Vec<String> = hist
                .iter()
                .map(|(size, n)| format!("{size} vars × {n}"))
                .collect();
            eprintln!("components ({name}): {}", cells.join(", "));
        }
    }
    eprintln!(
        "solve stage: {:.2}x over prev ({:.2}x over reference) across {} pages \
         (written to {out_path})",
        bench.solve_speedup(),
        bench.reference_speedup(),
        bench.pages
    );
    ExitCode::SUCCESS
}
