//! Manifest determinism goldens: redacted manifest renderings must be
//! byte-identical at 1, 2 and N threads and across two identical runs,
//! and the full (unredacted) manifest must reproduce the `--rt` timing
//! registry's per-stage totals exactly — span trees and registry rows
//! sum the same `StageTimes` integers, so equality is integer-exact,
//! not approximate. Every span's children sum to at most the span.
//!
//! One test function (not several): the metrics enable flag is process
//! global, and the parallel test harness within a binary would otherwise
//! interleave enabled and disabled sections. Separate test *binaries*
//! run sequentially, so this file does not race `determinism.rs`.

use tableseg::obs;
use tableseg::timing::Stage;
use tableseg::{CspSegmenter, ProbSegmenter};
use tableseg_bench::{run_corpus, run_sites};
use tableseg_sitegen::chaos::ChaosConfig;
use tableseg_sitegen::paper_sites;

#[test]
fn manifests_are_deterministic_and_reproduce_registry_totals() {
    let specs = paper_sites::all();
    let n = tableseg::batch::default_threads().max(3);

    // Disabled mode first: with collection off, a full batch run must
    // come back with every counter and histogram at zero.
    obs::set_enabled(false);
    let outcome = run_sites(&specs, 2);
    assert!(
        outcome.metrics.is_empty(),
        "disabled-mode run recorded metrics"
    );

    obs::set_enabled(true);

    // table4 workload at 1, 1 (repeat), 2 and N threads: all redacted
    // sink renderings byte-identical. The repeated 1-thread run covers
    // "two identical seeded runs"; the corpus generator is seeded and the
    // batch engine collects in job order, so nothing else may vary.
    let mut rendered: Vec<(usize, [String; 3])> = Vec::new();
    let mut outcomes = Vec::new();
    for threads in [1usize, 1, 2, n] {
        let outcome = run_sites(&specs, threads);
        let m = outcome.manifest("table4", threads);
        rendered.push((
            threads,
            [
                m.render_json(true),
                m.render_jsonl(true),
                m.render_prometheus(true),
            ],
        ));
        outcomes.push((threads, outcome));
    }
    let (_, first) = &rendered[0];
    for (threads, sinks) in &rendered[1..] {
        for (i, sink) in sinks.iter().enumerate() {
            assert_eq!(
                sink, &first[i],
                "redacted sink {i} differs at {threads} threads"
            );
        }
    }
    assert!(first[0].contains("\"schema\": \"tableseg.manifest/v1\""));
    assert!(first[0].contains("\"volatile\": {\"redacted\": true}"));

    // The full manifest's span tree reproduces the timing registry's
    // per-stage totals exactly, for every stage and sub-stage, at every
    // thread count; and no span's children sum to more than the span.
    for (threads, outcome) in &outcomes {
        let m = outcome.manifest("table4", *threads);
        let registry_total = outcome.timing.total();
        for stage in Stage::EVERY {
            assert_eq!(
                m.stage_total_nanos(stage.label()),
                registry_total.get(stage).as_nanos(),
                "span total != registry total for {} at {threads} threads",
                stage.label()
            );
        }
        m.root.walk(&mut |_, span| {
            let children: u128 = span.children.iter().map(|c| c.nanos).sum();
            assert!(
                children <= span.nanos,
                "children of {} sum to {children} ns > its {} ns at {threads} threads",
                span.name,
                span.nanos
            );
        });
        // Counter sanity: the clean corpus is 24 pages over 12 sites, and
        // every processed page is counted clean, degraded or failed.
        let counter = |name: &str| {
            outcome
                .metrics
                .counters
                .iter()
                .find(|(label, _)| *label == name)
                .map(|(_, v)| v)
        };
        assert_eq!(counter("pages.processed"), Some(24), "at {threads} threads");
        let outcomes: Vec<u64> = ["pages.ok", "pages.degraded", "pages.failed"]
            .into_iter()
            .map(|name| counter(name).unwrap_or(0))
            .collect();
        assert_eq!(
            outcomes.iter().sum::<u64>(),
            24,
            "ok + degraded + failed at {threads} threads: {outcomes:?}"
        );
        assert!(outcomes[0] > 0, "clean pages count as ok: {outcomes:?}");
        let report = &outcome.report;
        assert_eq!(
            outcomes,
            [report.ok, report.degraded, report.failed].map(|n| n as u64),
            "counters agree with the robustness report at {threads} threads"
        );
    }

    // The fallible path under real chaos: same byte-identity bar, plus a
    // populated robustness section.
    let cfg = ChaosConfig::uniform(0.3, 0xC0DE);
    let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
    let mut robust: Vec<(usize, String)> = Vec::new();
    for threads in [1usize, 2, n] {
        let outcome = run_corpus(&specs, threads, &cfg, None, &prob, &csp);
        let m = outcome.manifest("robustness", threads);
        assert!(m.robustness.is_some());
        robust.push((threads, m.render_json(true)));
    }
    let (_, first_robust) = &robust[0];
    assert!(first_robust.contains("\"robustness\": {"));
    for (threads, json) in &robust[1..] {
        assert_eq!(
            json, first_robust,
            "robust manifest differs at {threads} threads"
        );
    }

    obs::set_enabled(false);
}
