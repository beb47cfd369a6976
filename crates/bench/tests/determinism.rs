//! Determinism golden test: the `tables123` and `table4` workloads must
//! produce byte-identical reports run twice in-process and through the
//! batch engine at 1, 2 and N threads, matching the goldens committed
//! under `tests/golden/`; and the per-site template cache must run
//! induction exactly once per site per batch run.

use std::path::PathBuf;

use tableseg_bench::{run_sites, table4_report, tables123_report};
use tableseg_sitegen::paper_sites;
use tableseg_template::induction_count;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn read_golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

/// The only test in this binary, so no other test's template inductions
/// can land in the process-global induction counter's deltas.
#[test]
fn reports_are_deterministic_across_threads_and_match_goldens() {
    let specs = paper_sites::all();
    let n = tableseg::batch::default_threads().max(3);

    // table4 at 1, 2 and N threads, plus a repeat at 1 thread: all byte
    // identical. Each run must induce exactly one template per site.
    let mut reports = Vec::new();
    for threads in [1usize, 1, 2, n] {
        let before = induction_count();
        let outcome = run_sites(&specs, threads);
        let after = induction_count();
        assert_eq!(
            after - before,
            specs.len(),
            "template induction must run exactly once per site ({threads} threads)"
        );
        reports.push((threads, table4_report(&outcome.runs, false)));

        // The RT registry carries one row per site with solve time
        // accounted, at every thread count.
        let rows = outcome.timing.rows();
        assert_eq!(rows.len(), specs.len(), "one timing row per site");
        for (label, times) in &rows {
            assert!(
                times.get(tableseg::timing::Stage::Solve) > std::time::Duration::ZERO,
                "no solve time recorded for {label}"
            );
        }
    }
    let (_, first) = &reports[0];
    for (threads, report) in &reports[1..] {
        assert_eq!(report, first, "table4 report differs at {threads} threads");
    }
    assert_eq!(
        first,
        &read_golden("table4.txt"),
        "table4 report drifted from tests/golden/table4.txt \
         (regenerate with `cargo run -p tableseg-bench --bin table4 > tests/golden/table4.txt` \
         and review the diff)"
    );

    // tables123 twice in-process: byte identical and matching its golden.
    let a = tables123_report();
    let b = tables123_report();
    assert_eq!(a, b, "tables123 report not deterministic in-process");
    assert_eq!(
        a,
        read_golden("tables123.txt"),
        "tables123 report drifted from tests/golden/tables123.txt \
         (regenerate with `cargo run -p tableseg-bench --bin tables123 > tests/golden/tables123.txt`)"
    );
}
