//! Parameter sweeps over the simulated workload.
//!
//! * **table size** — records per page 5..80: accuracy and wall time of
//!   both approaches (the scalability behind the paper's "exceedingly
//!   fast" claim);
//! * **missing-field probability** — 0.0..0.5: how sparse records degrade
//!   each approach;
//! * **shared-value rate** — white-pages sites where many records share a
//!   city: the density of position-constraint interactions;
//! * **ε tolerance** — the probabilistic dirty-data knob on the Michigan
//!   quirk site.

use tableseg::prob::ProbOptions;
use tableseg::timing::Stage;
use tableseg::{run_page, CspSegmenter, ProbSegmenter, Segmenter, SiteTemplate};
use tableseg_bench::classify_page;
use tableseg_eval::classify::PageCounts;
use tableseg_eval::Metrics;
use tableseg_sitegen::domains::Domain;
use tableseg_sitegen::quirks::Quirk;
use tableseg_sitegen::site::{generate, LayoutStyle, SiteSpec};

fn spec(domain: Domain, records: usize, missing: f64, seed: u64) -> SiteSpec {
    SiteSpec {
        name: format!("sweep-{domain:?}-{records}-{missing}"),
        domain,
        layout: LayoutStyle::GridTable,
        records_per_page: vec![records, records],
        quirks: vec![],
        missing_field_prob: missing,
        continuous_numbering: false,
        overlap: 0,
        seed,
    }
}

/// Runs `segmenters` on the first list page of a generated site: per
/// segmenter its counts, whether it relaxed, and its solve seconds.
fn run_first_page(s: &SiteSpec, segmenters: &[&dyn Segmenter]) -> Vec<(PageCounts, bool, f64)> {
    let site = generate(s);
    let template = SiteTemplate::build(&site.list_htmls());
    let result = run_page(
        &template,
        0,
        &site.pages[0].detail_htmls(),
        None,
        segmenters,
    );
    let counts = classify_page(&site, 0, &result);
    counts
        .into_iter()
        .zip(&result.solved)
        .map(|(counts, solved)| {
            let (counts, relaxed) = counts.expect("sweep sites are clean");
            let secs = solved
                .as_ref()
                .map_or(0.0, |o| o.solver_times.get(Stage::Solve).as_secs_f64());
            (counts, relaxed, secs)
        })
        .collect()
}

fn run_one(s: &SiteSpec, segmenter: &dyn Segmenter) -> (Metrics, f64) {
    let (counts, _, secs) = run_first_page(s, &[segmenter])[0];
    (Metrics::from_counts(&counts), secs)
}

fn main() {
    println!("sweep 1: table size (records per page), white pages, missing=0.1");
    println!("| records | CSP F | CSP time | prob F | prob time |");
    for records in [5usize, 10, 20, 40, 80] {
        let s = spec(Domain::WhitePages, records, 0.1, 1234 + records as u64);
        let (csp_m, csp_t) = run_one(&s, &CspSegmenter::default());
        let (prob_m, prob_t) = run_one(&s, &ProbSegmenter::default());
        println!(
            "| {records:>7} | {:>5.2} | {:>7.3}s | {:>6.2} | {:>8.3}s |",
            csp_m.f1, csp_t, prob_m.f1, prob_t
        );
    }

    println!("\nsweep 2: missing-field probability, property tax, 15 records");
    println!("| p(missing) | CSP F | prob F |");
    for missing in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let s = spec(Domain::PropertyTax, 15, missing, 4321);
        let (csp_m, _) = run_one(&s, &CspSegmenter::default());
        let (prob_m, _) = run_one(&s, &ProbSegmenter::default());
        println!(
            "| {missing:>10.1} | {:>5.2} | {:>6.2} |",
            csp_m.f1, prob_m.f1
        );
    }

    println!("\nsweep 3: shared-town white pages (position-constraint stress)");
    println!("| records | CSP F | relaxed | prob F |");
    for records in [5usize, 10, 20, 40] {
        let s = SiteSpec {
            quirks: vec![Quirk::SharedValueMissingOnDetail { field: "city" }],
            ..spec(Domain::WhitePages, records, 0.05, 9000 + records as u64)
        };
        let (csp, prob) = (CspSegmenter::default(), ProbSegmenter::default());
        let both = run_first_page(&s, &[&csp, &prob]);
        let ((csp_counts, relaxed, _), (prob_counts, _, _)) = (both[0], both[1]);
        println!(
            "| {records:>7} | {:>5.2} | {:>7} | {:>6.2} |",
            Metrics::from_counts(&csp_counts).f1,
            relaxed,
            Metrics::from_counts(&prob_counts).f1
        );
    }

    println!("\nsweep 4: epsilon tolerance on the Michigan quirk (dirty data)");
    println!("| epsilon | prob F |");
    let michigan = tableseg_sitegen::paper_sites::michigan();
    for eps in [1e-12, 1e-9, 1e-6, 1e-3, 1e-1] {
        let seg = ProbSegmenter {
            options: ProbOptions {
                epsilon: eps,
                ..ProbOptions::default()
            },
        };
        let (counts, _, _) = run_first_page(&michigan, &[&seg])[0];
        println!(
            "| {eps:>7.0e} | {:>6.2} |",
            Metrics::from_counts(&counts).f1
        );
    }
}
