//! The robustness sweep: accuracy vs. fault rate over the twelve
//! simulated paper sites.
//!
//! For each fault probability in `0.0, 0.1, ..., 0.5`, every fault class
//! of the chaos layer is armed at that rate and the full pipeline
//! (template → extraction → both segmenters → evaluation) runs over all
//! sites through the corpus driver (`run_corpus`) — a damaged page degrades or
//! fails its own row, never the process. The per-rate accuracy, outcome
//! counts and injected-fault counts land in `BENCH_robustness.json`.
//!
//! At rate 0 the sweep additionally proves the harness honest:
//!
//! * the chaos-wrapped generator is **byte-identical** to the plain one;
//! * the faulted run's Table 4 report matches `tests/golden/table4.txt`.
//!
//! Flags:
//!
//! * `--threads N` — worker threads (default: available parallelism);
//! * `--seeds N` — chaos seeds per rate (default 1; CI uses 3) —
//!   outcome counts and accuracy are aggregated over the seeds;
//! * `--out PATH` — where to write the JSON (default
//!   `BENCH_robustness.json`);
//! * `--skip-golden` — skip the rate-0 golden comparison (for runs
//!   outside the repository checkout);
//! * `--manifest PATH` — enable the observability layer and write a
//!   sweep-wide manifest (metrics and robustness rollup merged over all
//!   rates and seeds; one `rate#R` span subtree per swept rate);
//! * `--help` — this text.

use std::process::ExitCode;

use tableseg::obs;
use tableseg::robustness::RobustnessReport;
use tableseg::timing::Stage;
use tableseg::{batch, CspSegmenter, ProbSegmenter};
use tableseg_bench::corpus::BenchJson;
use tableseg_bench::{run_corpus, table4_report, totals, RunOutcome};
use tableseg_eval::metrics::Metrics;
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

/// The swept per-fault probabilities.
const RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// Base chaos seed; seed `i` of `--seeds N` is `BASE_SEED + i`.
const BASE_SEED: u64 = 0xC0DE;

fn usage() {
    eprintln!(
        "usage: chaossweep [--threads N] [--seeds N] [--out PATH] [--skip-golden] [--manifest PATH]"
    );
}

fn main() -> ExitCode {
    let mut threads = batch::default_threads();
    let mut seeds = 1usize;
    let mut out_path = String::from("BENCH_robustness.json");
    let mut check_golden = true;
    let mut manifest_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a positive number");
                    return ExitCode::FAILURE;
                };
                threads = n;
            }
            "--seeds" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--seeds needs a positive number");
                    return ExitCode::FAILURE;
                };
                seeds = n.max(1);
            }
            "--out" => {
                let Some(path) = it.next() else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out_path = path;
            }
            "--skip-golden" => check_golden = false,
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

    let specs = paper_sites::all();
    eprintln!(
        "sweeping {} rates x {seeds} seed(s) over {} sites on {threads} thread(s) ...",
        RATES.len(),
        specs.len()
    );

    // Sweep-wide observability rollup: metrics and robustness merged over
    // every rate and seed, one `rate#R` span subtree per swept rate. The
    // merge ignores the ambient enable flag, so this stays a cheap no-op
    // when `--manifest` was not given.
    let mut sweep_metrics = obs::Recorder::default();
    let mut sweep_report = RobustnessReport::new();
    let mut sweep_root = obs::SpanNode::new(obs::SpanKind::Run, "run", 0);

    let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
    let mut rate_rows: Vec<String> = Vec::new();
    for rate in RATES {
        // Aggregate over seeds. At rate 0 every seed is a no-op, so one
        // pass suffices (and keeps the golden comparison exact).
        let seed_count = if rate == 0.0 { 1 } else { seeds };
        let mut merged: Option<RunOutcome> = None;
        for s in 0..seed_count {
            let cfg = ChaosConfig::uniform(rate, BASE_SEED + s as u64);
            let outcome = run_corpus(&specs, threads, &cfg, None, &prob, &csp);
            merged = Some(match merged {
                None => outcome,
                Some(mut acc) => {
                    acc.report.merge(&outcome.report);
                    acc.runs.extend(outcome.runs);
                    for (slot, &(_, n)) in acc.fault_counts.iter_mut().zip(&outcome.fault_counts) {
                        slot.1 += n;
                    }
                    for (label, times) in outcome.timing.rows() {
                        acc.timing.record(&label, &times);
                    }
                    acc.metrics.merge(&outcome.metrics);
                    acc.spans.nanos += outcome.spans.nanos;
                    acc.spans.children.extend(outcome.spans.children);
                    acc
                }
            });
        }
        let outcome = merged.expect("at least one seed ran");

        sweep_metrics.merge(&outcome.metrics);
        sweep_report.merge(&outcome.report);
        let mut rate_span = outcome.spans.clone();
        rate_span.name = format!("rate#{rate:.1}");
        sweep_root.nanos += rate_span.nanos;
        sweep_root.push(rate_span);

        if rate == 0.0 {
            // Honesty check 1: the chaos wrapper at rate 0 is the
            // identity on every site.
            let cfg = ChaosConfig::uniform(0.0, BASE_SEED);
            for spec in &specs {
                let clean = generate(spec);
                let (wrapped, log) = apply_chaos(&clean, &cfg);
                if wrapped != clean || !log.is_empty() {
                    eprintln!(
                        "FAIL: chaos at rate 0 is not byte-identical for {}",
                        spec.name
                    );
                    return ExitCode::FAILURE;
                }
            }
            // Honesty check 2: the faulted run reproduces the golden
            // Table 4 report exactly. Degraded pages are allowed — the
            // whole-page fallback fires on some *clean* sites (the
            // paper's notes a/b); failures are not.
            if outcome.report.failed != 0 {
                eprintln!(
                    "FAIL: rate 0 produced failed pages:\n{}",
                    outcome.report.render()
                );
                return ExitCode::FAILURE;
            }
            if check_golden {
                let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../../tests/golden/table4.txt");
                match std::fs::read_to_string(&golden_path) {
                    Ok(golden) => {
                        let report = table4_report(&outcome.runs, false);
                        if report != golden {
                            eprintln!(
                                "FAIL: rate-0 robust-path report differs from {}",
                                golden_path.display()
                            );
                            return ExitCode::FAILURE;
                        }
                        eprintln!("rate 0.0: byte-identical to plain generator, matches golden");
                    }
                    Err(e) => {
                        eprintln!("cannot read {}: {e}", golden_path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }

        let (prob_counts, csp_counts) = totals(&outcome.runs);
        let prob = Metrics::from_counts(&prob_counts);
        let csp = Metrics::from_counts(&csp_counts);
        let r = &outcome.report;
        eprintln!(
            "rate {rate:.1}: pages {} ok {} degraded {} failed {} | prob F={:.2} csp F={:.2}",
            r.pages, r.ok, r.degraded, r.failed, prob.f1, csp.f1
        );

        rate_rows.push(render_rate_row(rate, &outcome, &prob, &csp));
    }

    let seed_list: Vec<String> = (0..seeds)
        .map(|s| (BASE_SEED + s as u64).to_string())
        .collect();
    let mut j = BenchJson::new("robustness_sweep");
    j.field("sites", specs.len())
        .raw("seeds", format!("[{}]", seed_list.join(", ")))
        .raw("rates", format!("[\n{}\n  ]", rate_rows.join(",\n")));
    let json = j.finish();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("written to {out_path}");

    if let Some(path) = manifest_path {
        let mut manifest = obs::Manifest::new("chaossweep")
            .with_config("sites", specs.len())
            .with_config("seeds", seeds)
            .with_config("rates", RATES.map(|r| format!("{r:.1}")).join(","));
        manifest.seeds = (0..seeds).map(|s| BASE_SEED + s as u64).collect();
        manifest.metrics = sweep_metrics;
        manifest.robustness = Some(sweep_report.rollup());
        manifest.root = {
            sweep_root.name = "chaossweep".to_string();
            sweep_root
        };
        manifest.volatile.threads = threads;
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
    ExitCode::SUCCESS
}

/// Renders one per-rate JSON object (hand-rolled; the serde shim is a
/// no-op marker, so JSON is rendered as strings throughout the repo).
fn render_rate_row(rate: f64, outcome: &RunOutcome, prob: &Metrics, csp: &Metrics) -> String {
    let r = &outcome.report;
    let mut s = format!(
        "    {{ \"rate\": {rate:.1}, \"pages\": {}, \"ok\": {}, \"degraded\": {}, \"failed\": {},\n",
        r.pages, r.ok, r.degraded, r.failed
    );
    s.push_str(&format!(
        "      \"prob\": {{ \"precision\": {:.4}, \"recall\": {:.4}, \"f1\": {:.4} }},\n",
        prob.precision, prob.recall, prob.f1
    ));
    s.push_str(&format!(
        "      \"csp\": {{ \"precision\": {:.4}, \"recall\": {:.4}, \"f1\": {:.4} }},\n",
        csp.precision, csp.recall, csp.f1
    ));
    s.push_str("      \"faults\": {");
    for (i, (kind, n)) in outcome.fault_counts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(" \"{}\": {n}", kind.label()));
    }
    s.push_str(" },\n      \"warnings\": {");
    for (i, (label, n)) in r.warnings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(" \"{label}\": {n}"));
    }
    s.push_str(" },\n      \"failures_by_stage\": {");
    for (i, (label, n)) in r.failures_by_stage.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(" \"{label}\": {n}"));
    }
    // Corpus-wide solve total split by solver method and EM phase
    // (nanoseconds; varies run to run, unlike the accuracy fields).
    s.push_str(" },\n      \"solve_ns\": {");
    let rows = outcome.timing.rows();
    let total_ns = |stage: Stage| -> u128 {
        rows.iter()
            .map(|(_, times)| times.get(stage).as_nanos())
            .sum()
    };
    s.push_str(&format!(" \"total\": {}", total_ns(Stage::Solve)));
    for stage in Stage::SOLVE_SPLIT {
        s.push_str(&format!(", \"{}\": {}", stage.label(), total_ns(stage)));
    }
    s.push_str(" } }");
    s
}
