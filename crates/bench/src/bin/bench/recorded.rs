//! The recorded benches. Each runs and hands its document, work counts
//! and threshold failures to [`write_gated`], which prints the document
//! and writes `--out` (default: the committed file's name) only when
//! every gate passed.

use std::path::Path;
use std::time::Instant;

use tableseg::obs;
use tableseg::robustness::RobustnessReport;
use tableseg::timing::Stage;
use tableseg::{CspSegmenter, ProbSegmenter};
use tableseg_bench::corpus::{
    check_table4_golden, count_keys, read_committed, scored_json, stage_totals, write_gated,
    write_manifest, BenchJson, Record,
};
use tableseg_bench::servebench::ServeBenchConfig;
use tableseg_bench::{
    detectbench, inducebench, matchbench, run_corpus, run_sites, scalebench, servebench,
    solvebench, table4_report, totals, RunOutcome,
};
use tableseg_eval::classify::PageCounts;
use tableseg_eval::metrics::Metrics;
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

use crate::Flags;

/// Gates `run` against its committed file, then writes it to `--out`.
fn record(f: &Flags, run: Record) -> Result<(), String> {
    let out = f.out.as_deref().unwrap_or(run.name);
    write_gated(&read_committed(run.name), &run, Path::new(out))
}

/// `BENCH_frontend.json`: the indexed extract matcher over the paper
/// corpus, with the per-stage totals of a batch run.
pub fn frontend(f: &Flags) -> Result<(), String> {
    let outcome = run_sites(&paper_sites::all(), f.threads());
    eprintln!("running matcher microbenchmark ...");
    let bench = matchbench::run_match_bench(7);
    record(
        f,
        Record {
            name: "BENCH_frontend.json",
            json: matchbench::render_json(&bench, &stage_totals(&outcome.timing)),
            counts: bench.work_counts(),
            failures: vec![],
        },
    )
}

/// `BENCH_solver.json`: both production solvers over the paper corpus,
/// the per-rung component profile, and the per-stage totals of a batch
/// run whose Table 4 report must equal the golden.
pub fn solver(f: &Flags) -> Result<(), String> {
    if f.manifest.is_some() {
        obs::set_enabled(true);
    }
    let (specs, threads, iters) = (paper_sites::all(), f.threads(), f.iters.unwrap_or(3));
    eprintln!("running {} sites on {threads} thread(s) ...", specs.len());
    let outcome = run_sites(&specs, threads);
    check_table4_golden(&table4_report(&outcome.runs, false))?;
    if let Some(path) = &f.manifest {
        let manifest = outcome
            .manifest("solver", threads)
            .with_config("iters", iters)
            .with_config("sites", specs.len());
        write_manifest(&manifest, path)?;
    }

    eprintln!("running solver microbenchmark ({iters} pass(es) per method) ...");
    let bench = solvebench::run_solve_bench(iters);
    let profile = solvebench::component_profile(&solvebench::corpus());
    record(
        f,
        Record {
            name: "BENCH_solver.json",
            json: solvebench::render_json(&bench, &stage_totals(&outcome.timing), &profile),
            counts: bench.work_counts(),
            failures: vec![],
        },
    )
}

/// `BENCH_induce.json`: the histogram-LCS pair leg and the 2 → 10-page
/// rolling-merge curve, whose 10-page quality may not fall below the
/// 2-page baseline.
pub fn induce(f: &Flags) -> Result<(), String> {
    let iters = f.iters.unwrap_or(3);
    eprintln!("running induction benchmark ({iters} pass(es) per path) ...");
    let bench = inducebench::run_induce_bench(iters, &[2, 4, 6, 8, 10]);
    let (base, deep) = (bench.baseline(), bench.deep());
    let failures = if bench.quality_non_degrading() {
        vec![]
    } else {
        vec![format!(
            "10-page template quality degraded below the 2-page baseline \
             (fraction {:.4} < {:.4} or usable {} < {})",
            deep.mean_largest_slot_fraction,
            base.mean_largest_slot_fraction,
            deep.usable_sites,
            base.usable_sites
        )]
    };
    record(
        f,
        Record {
            name: "BENCH_induce.json",
            json: inducebench::render_json(&bench),
            counts: bench.work_counts(),
            failures,
        },
    )
}

/// Universe size of `bench scale`.
const SCALE_SITES: usize = 100;

/// `BENCH_scale.json`: the streaming front end and the full pipeline
/// over a procedural universe of [`SCALE_SITES`] sites, gated on
/// throughput, peak RSS and its flatness across the two halves.
pub fn scale(f: &Flags) -> Result<(), String> {
    let threads = f.threads();
    eprintln!("scale: {SCALE_SITES} sites on {threads} thread(s), full pipeline ...");
    let bench = scalebench::run_scale_bench(SCALE_SITES, threads);
    record(
        f,
        Record {
            name: "BENCH_scale.json",
            json: scalebench::render_json(&bench),
            counts: bench.work_counts(),
            failures: bench.gate_failures(),
        },
    )
}

/// `BENCH_detect.json`: region detection over the multi-table cohort,
/// end-to-end nested sub-records, and the paper-corpus pass-through.
pub fn detect(f: &Flags) -> Result<(), String> {
    eprintln!("running detection/nested benchmark ...");
    let bench = detectbench::run_detect_bench();
    record(
        f,
        Record {
            name: "BENCH_detect.json",
            json: detectbench::render_json(&bench),
            counts: bench.work_counts(),
            failures: vec![],
        },
    )
}

/// Cold passes of `bench serve` over the corpus.
const SERVE_ROUNDS: usize = 2;

/// `BENCH_serve.json`: cold and warm latency of an in-process
/// `tablesegd` over the paper corpus ([`SERVE_ROUNDS`] cold rounds;
/// default 5 s warm, 2 batch threads).
pub fn serve(f: &Flags) -> Result<(), String> {
    let cfg = ServeBenchConfig {
        secs: f.secs.unwrap_or(5.0),
        rounds: SERVE_ROUNDS,
        batch_threads: f.threads.unwrap_or(2),
    };
    eprintln!(
        "serving the paper corpus: {} cold round(s), {} s warm ...",
        cfg.rounds, cfg.secs
    );
    let bench = servebench::run_serve_bench(&cfg);
    record(
        f,
        Record {
            name: "BENCH_serve.json",
            json: servebench::render_json(&cfg, &bench),
            counts: bench.work_counts(),
            failures: bench.gate_failures(),
        },
    )
}

/// The obs layer's acceptance bar: enabled costs at most this much more
/// than disabled, in percent.
const OBS_BAR_PCT: f64 = 2.0;

/// `BENCH_obs.json`: the full batch pipeline with metrics collection
/// disabled and enabled, `--iters` alternated pairs of passes, the median
/// and quartiles of the per-pair overheads, and the counters the enabled
/// leg collected, each gated.
pub fn obs(f: &Flags) -> Result<(), String> {
    let (specs, iters, threads) = (paper_sites::all(), f.iters.unwrap_or(5).max(1), f.threads());
    eprintln!(
        "obs overhead: {} sites, {iters} pass(es) per leg, {threads} thread(s)",
        specs.len()
    );
    // The legs alternate pass by pass (disabled, enabled, disabled, ...),
    // so a change in the host's speed during the run reaches both legs of
    // a pair alike; each pair gives one overhead, and the report takes
    // their median and quartiles. One warmup pass (disabled) pre-faults
    // the generated corpus and code paths.
    let time_pass = |enabled: bool| -> f64 {
        obs::set_enabled(enabled);
        let start = Instant::now();
        std::hint::black_box(run_sites(&specs, threads));
        start.elapsed().as_nanos() as f64
    };
    obs::set_enabled(false);
    run_sites(&specs, threads);
    let (mut disabled, mut enabled, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..iters {
        let (off, on) = (time_pass(false), time_pass(true));
        disabled.push(off);
        enabled.push(on);
        overhead.push((on - off) / off * 100.0);
    }
    // A final enabled pass snapshots the counter totals, so the report
    // shows what the enabled leg collected.
    obs::set_enabled(true);
    let outcome = run_sites(&specs, threads);
    obs::set_enabled(false);
    let [q1, median, q3] = [25.0, 50.0, 75.0].map(|p| quantile(&mut overhead, p));
    let resolved = q3 - q1 <= OBS_BAR_PCT;
    eprintln!(
        "overhead {median:+.3}% (quartiles {q1:+.3}% to {q3:+.3}%, {iters} pairs){}",
        if resolved {
            String::new()
        } else {
            format!(": the quartile spread is wider than the {OBS_BAR_PCT}% bar, so this run cannot tell whether the bar holds")
        }
    );

    let counters: Vec<(&str, u64)> = outcome.metrics.counters.iter().collect();
    let rows: Vec<String> = counters
        .iter()
        .map(|(label, total)| format!("    {}: {total}", obs::json_str(label)))
        .collect();
    let mut j = BenchJson::new("obs_overhead");
    j.field("sites", specs.len())
        .field("iters", iters)
        .field("threads", threads)
        .field("disabled_ns", quantile(&mut disabled, 50.0) as u64)
        .field("enabled_ns", quantile(&mut enabled, 50.0) as u64)
        .raw("overhead_pct", format!("{median:.3}"))
        .raw("overhead_q1_pct", format!("{q1:.3}"))
        .raw("overhead_q3_pct", format!("{q3:.3}"))
        .raw("bar_pct", format!("{OBS_BAR_PCT:.1}"))
        .field("spread_within_bar", resolved)
        .raw("counters", format!("{{\n{}\n  }}", rows.join(",\n")));
    record(
        f,
        Record {
            name: "BENCH_obs.json",
            json: j.finish(),
            counts: counters
                .iter()
                .map(|(label, total)| (format!("counters.{label}"), *total as f64))
                .collect(),
            failures: vec![],
        },
    )
}

/// Nearest-rank quantile `p` (0–100) of a non-empty sample; sorts it.
fn quantile(sample: &mut [f64], p: f64) -> f64 {
    sample.sort_by(f64::total_cmp);
    sample[((sample.len() - 1) as f64 * p / 100.0).round() as usize]
}

/// The swept per-fault probabilities.
const RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// Chaos seeds per non-zero fault rate, merged.
const SEEDS: usize = 3;

/// Base chaos seed; seed `i` of [`SEEDS`] is `BASE_SEED + i`.
const BASE_SEED: u64 = 0xC0DE;

/// `BENCH_robustness.json`: accuracy against fault rate. Every fault
/// class is armed at each rate of [`RATES`] under [`SEEDS`] chaos seeds
/// (merged), and the full pipeline runs over the twelve
/// paper sites through the corpus driver — a damaged page degrades or
/// fails its own row, never the process. Per rate, the page outcomes,
/// the CSP components whose branch-and-bound ran out of budget
/// (`bnb_exhausted`), injected faults and each method's Cor/InC/FN/FP
/// are gated.
///
/// The rate-0 leg proves the harness honest: the chaos-wrapped generator
/// is byte-identical to the plain one, no page fails, and the Table 4
/// report equals `tests/golden/table4.txt`.
pub fn robustness(f: &Flags) -> Result<(), String> {
    // On with or without `--manifest`: `bnb_exhausted` is read off the
    // metrics.
    obs::set_enabled(true);
    let (specs, threads) = (paper_sites::all(), f.threads());
    eprintln!(
        "sweeping {} rates x {SEEDS} seed(s) over {} sites on {threads} thread(s) ...",
        RATES.len(),
        specs.len()
    );

    // Sweep-wide observability rollup: metrics and robustness merged over
    // every rate and seed, one `rate#R` span subtree per swept rate.
    let mut sweep_metrics = obs::Recorder::default();
    let mut sweep_report = RobustnessReport::new();
    let mut sweep_root = obs::SpanNode::new(obs::SpanKind::Run, "robustness", 0);

    let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
    let (mut rows, mut counts) = (Vec::new(), Vec::new());
    for rate in RATES {
        // Aggregate over seeds. At rate 0 every seed is a no-op, so one
        // pass suffices (and keeps the golden comparison exact).
        let seed_count = if rate == 0.0 { 1 } else { SEEDS };
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
            let cfg = ChaosConfig::uniform(0.0, BASE_SEED);
            for spec in &specs {
                let clean = generate(spec);
                let (wrapped, log) = apply_chaos(&clean, &cfg);
                if wrapped != clean || !log.is_empty() {
                    return Err(format!(
                        "chaos at rate 0 is not byte-identical for {}",
                        spec.name
                    ));
                }
            }
            // Degraded pages are allowed — the whole-page fallback fires
            // on some *clean* sites (the paper's notes a/b); failures are
            // not.
            if outcome.report.failed != 0 {
                return Err(format!(
                    "rate 0 produced failed pages:\n{}",
                    outcome.report.render()
                ));
            }
            check_table4_golden(&table4_report(&outcome.runs, false))?;
        }

        let (prob_counts, csp_counts) = totals(&outcome.runs);
        let r = &outcome.report;
        let exhausted = outcome
            .metrics
            .counters
            .get(obs::Counter::SolveBnbExhausted);
        eprintln!(
            "rate {rate:.1}: pages {} ok {} degraded {} failed {} bnb_exhausted {exhausted} | prob F={:.2} csp F={:.2}",
            r.pages,
            r.ok,
            r.degraded,
            r.failed,
            Metrics::from_counts(&prob_counts).f1,
            Metrics::from_counts(&csp_counts).f1
        );
        let key = format!("rates.{rate:.1}");
        let pages = [
            ("pages", r.pages),
            ("ok", r.ok),
            ("degraded", r.degraded),
            ("failed", r.failed),
        ];
        counts.extend(pages.map(|(k, n)| (format!("{key}.{k}"), n as f64)));
        counts.push((format!("{key}.bnb_exhausted"), exhausted as f64));
        counts.extend(
            outcome
                .fault_counts
                .iter()
                .map(|(kind, n)| (format!("{key}.faults.{}", kind.label()), *n as f64)),
        );
        counts.extend(count_keys(&format!("{key}.prob"), &prob_counts));
        counts.extend(count_keys(&format!("{key}.csp"), &csp_counts));
        rows.push(render_rate(rate, &outcome, &prob_counts, &csp_counts));
    }

    let seed_list: Vec<String> = (0..SEEDS)
        .map(|s| (BASE_SEED + s as u64).to_string())
        .collect();
    let mut j = BenchJson::new("robustness_sweep");
    j.field("sites", specs.len())
        .raw("seeds", format!("[{}]", seed_list.join(", ")))
        .raw("rates", format!("{{\n{}\n  }}", rows.join(",\n")));

    if let Some(path) = &f.manifest {
        let mut manifest = obs::Manifest::new("robustness")
            .with_config("sites", specs.len())
            .with_config("seeds", SEEDS)
            .with_config("rates", RATES.map(|r| format!("{r:.1}")).join(","));
        manifest.seeds = (0..SEEDS).map(|s| BASE_SEED + s as u64).collect();
        manifest.metrics = sweep_metrics;
        manifest.robustness = Some(sweep_report.rollup());
        manifest.root = sweep_root;
        manifest.volatile.threads = threads;
        write_manifest(&manifest, path)?;
    }
    record(
        f,
        Record {
            name: "BENCH_robustness.json",
            json: j.finish(),
            counts,
            failures: vec![],
        },
    )
}

/// Renders `{ "key": n, ... }`.
fn json_map<'a>(pairs: impl IntoIterator<Item = (&'a str, usize)>) -> String {
    let members: Vec<String> = pairs
        .into_iter()
        .map(|(key, n)| format!(" \"{key}\": {n}"))
        .collect();
    format!("{{{} }}", members.join(","))
}

/// Renders one rate's row of the `rates` object, keyed by the rate.
fn render_rate(rate: f64, outcome: &RunOutcome, prob: &PageCounts, csp: &PageCounts) -> String {
    let r = &outcome.report;
    // Corpus-wide solve total split by solver method and EM phase
    // (nanoseconds; varies run to run, unlike every other field).
    let rows = outcome.timing.rows();
    let total_ns = |stage: Stage| -> u128 {
        rows.iter()
            .map(|(_, times)| times.get(stage).as_nanos())
            .sum()
    };
    let solve: Vec<String> = std::iter::once(("total", Stage::Solve))
        .chain(Stage::SOLVE_SPLIT.map(|stage| (stage.label(), stage)))
        .map(|(label, stage)| format!("\"{label}\": {}", total_ns(stage)))
        .collect();
    format!(
        "    \"{rate:.1}\": {{ \"pages\": {}, \"ok\": {}, \"degraded\": {}, \"failed\": {}, \"bnb_exhausted\": {},\n      \
         \"prob\": {},\n      \"csp\": {},\n      \"faults\": {},\n      \"warnings\": {},\n      \
         \"failures_by_stage\": {},\n      \"solve_ns\": {{ {} }} }}",
        r.pages,
        r.ok,
        r.degraded,
        r.failed,
        outcome.metrics.counters.get(obs::Counter::SolveBnbExhausted),
        scored_json(prob),
        scored_json(csp),
        json_map(outcome.fault_counts.iter().map(|(k, n)| (k.label(), *n))),
        json_map(r.warnings.iter().copied()),
        json_map(r.failures_by_stage.iter().copied()),
        solve.join(", ")
    )
}
