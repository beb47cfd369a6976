//! EM golden: every paper page's probabilistic outcome — EM iteration
//! count, final log-likelihood and learned record-period distribution,
//! the last two as raw `f64` bits — must reproduce
//! `tests/golden/em_paper.txt` byte for byte at 1 and N threads.
//!
//! This pins the production E-step to the bit without keeping an older
//! pass around as a second oracle: any change to its summation order or
//! to which cells it keeps shows up here as a golden diff.

use std::path::PathBuf;

use tableseg::batch;
use tableseg_bench::solvebench::{corpus, SolveFixture};
use tableseg_prob::{segment_prob, ProbOptions};

/// One line per page:
/// `site page iterations=N ll=<hex bits> period=<hex bits>,...`.
fn em_report(fixtures: &[SolveFixture], threads: usize) -> String {
    let jobs: Vec<&SolveFixture> = fixtures.iter().collect();
    batch::execute(threads, jobs, |_, f| {
        let out = segment_prob(&f.observations, &ProbOptions::default());
        let period: Vec<String> = out
            .period
            .iter()
            .map(|p| format!("{:016x}", p.to_bits()))
            .collect();
        format!(
            "{} {} iterations={} ll={:016x} period={}\n",
            f.site,
            f.page,
            out.iterations,
            out.log_likelihood.to_bits(),
            period.join(",")
        )
    })
    .concat()
}

#[test]
fn em_outcomes_match_golden_at_any_thread_count() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/em_paper.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let fixtures = corpus();
    assert_eq!(fixtures.len(), 24, "two list pages per paper site");
    let n = batch::default_threads().max(3);
    for threads in [1, n] {
        let report = em_report(&fixtures, threads);
        assert_eq!(
            report, golden,
            "EM outcomes at {threads} threads drifted from tests/golden/em_paper.txt"
        );
    }
}
