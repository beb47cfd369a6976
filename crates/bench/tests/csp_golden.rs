//! CSP golden: every paper page's constraint-solver outcome — ladder
//! status, strict violation, components, pruned variables,
//! branch-and-bound nodes and an FNV-1a hash of the segmentation — must
//! reproduce `tests/golden/csp_paper.txt` byte for byte at 1 and N
//! threads.
//!
//! The counts pin the reduction's propagation order (which variables it
//! forces, where it proves a strict encoding infeasible and so which
//! warm seed the relaxed rung starts from) and the branch-and-bound's
//! tie-breaks page by page, so a change to either shows up here as a
//! one-line diff before it reaches the Table 4 report.

use std::path::PathBuf;

use tableseg::batch;
use tableseg_bench::solvebench::{corpus, SolveFixture};
use tableseg_csp::{segment_csp, CspOptions};

/// FNV-1a over the assignments, each as a little-endian `u32` record
/// index (`u32::MAX` for an unassigned extract).
fn fnv1a(assignments: &[Option<u32>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for a in assignments {
        for byte in a.unwrap_or(u32::MAX).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// One line per page: `site page status=S strict_violation=N
/// components=N pruned_vars=N bnb_nodes=N seg=<hex>`.
fn csp_report(fixtures: &[SolveFixture], threads: usize) -> String {
    let jobs: Vec<&SolveFixture> = fixtures.iter().collect();
    batch::execute(threads, jobs, |_, f| {
        let out = segment_csp(&f.observations, &CspOptions::default());
        format!(
            "{} {} status={:?} strict_violation={} components={} pruned_vars={} bnb_nodes={} seg={:016x}\n",
            f.site,
            f.page,
            out.status,
            out.strict_violation,
            out.components,
            out.pruned_vars,
            out.bnb_nodes,
            fnv1a(&out.segmentation.assignments)
        )
    })
    .concat()
}

#[test]
fn csp_outcomes_match_golden_at_any_thread_count() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/csp_paper.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let fixtures = corpus();
    assert_eq!(fixtures.len(), 24, "two list pages per paper site");
    let n = batch::default_threads().max(3);
    for threads in [1, n] {
        let report = csp_report(&fixtures, threads);
        assert_eq!(
            report, golden,
            "CSP outcomes at {threads} threads drifted from tests/golden/csp_paper.txt"
        );
    }
}
