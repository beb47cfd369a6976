//! EM golden: every paper page's probabilistic outcome — EM iteration
//! count, final log-likelihood and learned record-period distribution,
//! the last two as raw `f64` bits — must reproduce
//! `tests/golden/em_paper.txt` byte for byte at 1 and N threads.
//!
//! This pins the production E-step to the bit without keeping an older
//! pass around as a second oracle: any change to its summation order or
//! to which cells it keeps shows up here as a golden diff.
//!
//! Every paper page has 3 to 11 columns, so the paper golden runs only
//! the fixed-width kernel instances. `tests/golden/em_wide.txt` pins, in
//! the same format, chaos-sweep pages wider than
//! [`MAX_FIXED_WIDTH`], which run the kernels at a runtime width.

use std::path::PathBuf;

use tableseg::{batch, try_prepare_with_template, SiteTemplate};
use tableseg_bench::solvebench::{corpus, SolveFixture};
use tableseg_prob::bootstrap::num_columns;
use tableseg_prob::model::evidence;
use tableseg_prob::width::MAX_FIXED_WIDTH;
use tableseg_prob::{segment_prob, ProbOptions};
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
use tableseg_sitegen::{generate, paper_sites};

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

/// Checks `fixtures` against `tests/golden/<name>` at 1 and N threads.
fn assert_matches_golden(fixtures: &[SolveFixture], name: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let n = batch::default_threads().max(3);
    for threads in [1, n] {
        let report = em_report(fixtures, threads);
        assert_eq!(
            report, golden,
            "EM outcomes at {threads} threads drifted from tests/golden/{name}"
        );
    }
}

#[test]
fn em_outcomes_match_golden_at_any_thread_count() {
    let fixtures = corpus();
    assert_eq!(fixtures.len(), 24, "two list pages per paper site");
    assert_matches_golden(&fixtures, "em_paper.txt");
}

/// Chaos-sweep pages (`bench robustness`: every fault class at `rate`,
/// chaos seed `seed`) whose column count `k` exceeds [`MAX_FIXED_WIDTH`]:
/// `(site, rate, seed, list page, k)`.
const WIDE_PAGES: [(&str, f64, u64, usize, usize); 4] = [
    ("Amazon Books", 0.2, 0xC0DE + 2, 0, 13),
    ("Amazon Books", 0.3, 0xC0DE + 1, 0, 19),
    ("Yahoo People", 0.4, 0xC0DE + 2, 1, 24),
    ("Canada 411", 0.4, 0xC0DE + 2, 0, 36),
];

#[test]
fn wide_em_outcomes_match_golden_at_any_thread_count() {
    let fixtures: Vec<SolveFixture> = WIDE_PAGES
        .iter()
        .map(|&(name, rate, seed, page, k)| {
            let spec = paper_sites::all()
                .into_iter()
                .find(|s| s.name == name)
                .expect("paper site");
            let (site, _) = apply_chaos(&generate(&spec), &ChaosConfig::uniform(rate, seed));
            let template = SiteTemplate::try_build(&site.list_htmls()).expect("site builds");
            let details = site.pages[page].detail_htmls();
            let prepared = try_prepare_with_template(&template, page, &details).expect("page");
            let observations = prepared.observations;
            assert_eq!(
                num_columns(&evidence(&observations)),
                k,
                "{name} page {page}"
            );
            assert!(k > MAX_FIXED_WIDTH);
            SolveFixture {
                site: format!("{name} chaos {rate} seed {seed}"),
                page,
                observations,
            }
        })
        .collect();
    assert_matches_golden(&fixtures, "em_wide.txt");
}
