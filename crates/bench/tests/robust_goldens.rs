//! The corpus driver under zero-rate chaos reproduces the `table4` golden.
//! It lives in its own test binary, apart from `determinism.rs`, whose
//! induction-count assertions read a process-global counter that any
//! concurrently running batch would also advance.

use std::path::PathBuf;

use tableseg::{CspSegmenter, ProbSegmenter};
use tableseg_bench::{run_corpus, table4_report};
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn read_golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

/// Differential: with every fault probability at zero, the chaos wrapper
/// is byte-identical to the plain generator on all twelve paper sites,
/// and the corpus driver under that config reproduces the same golden Table 4 report
/// at 1, 2 and N threads.
#[test]
fn robust_path_at_zero_chaos_matches_goldens() {
    let specs = paper_sites::all();
    let cfg = ChaosConfig::uniform(0.0, 0xC0DE);
    assert!(cfg.is_noop());

    for spec in &specs {
        let clean = generate(spec);
        let (wrapped, log) = apply_chaos(&clean, &cfg);
        assert!(log.is_empty(), "{}", spec.name);
        assert_eq!(
            wrapped, clean,
            "{}: chaos at p=0 must be the identity",
            spec.name
        );
    }

    let golden = read_golden("table4.txt");
    let n = tableseg::batch::default_threads().max(3);
    let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
    for threads in [1usize, 2, n] {
        let outcome = run_corpus(&specs, threads, &cfg, None, &prob, &csp);
        assert_eq!(
            outcome.report.failed, 0,
            "no page may fail on clean input ({threads} threads)"
        );
        assert!(outcome.fault_counts.iter().all(|&(_, c)| c == 0));
        assert_eq!(
            table4_report(&outcome.runs, false),
            golden,
            "robust path drifted from tests/golden/table4.txt at {threads} threads"
        );
    }
}
