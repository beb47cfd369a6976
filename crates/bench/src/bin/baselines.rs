//! Baseline comparison (AB4): the layout-based methods of Section 2 —
//! DOM `<table>/<tr>` heuristic, IEPAD-style repeated tag patterns, and a
//! RoadRunner-style union-free grammar — against the paper's CSP and
//! probabilistic approaches, over the twelve simulated sites.

use tableseg::batch;
use tableseg_baselines::{domtable, iepad, roadrunner, textseg};
use tableseg_bench::run_sites;
use tableseg_eval::classify::{classify_spans, PageCounts};
use tableseg_eval::Metrics;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn main() {
    let mut dom_total = PageCounts::default();
    let mut iepad_total = PageCounts::default();
    let mut csp_total = PageCounts::default();
    let mut prob_total = PageCounts::default();
    let mut rr_failures = 0usize;
    let mut rr_ok = 0usize;

    println!(
        "| {:<22} | {:>4} | {:>5} | {:>10} | {:>4} | {:>4} |",
        "site", "DOM", "IEPAD", "RoadRunner", "CSP", "prob"
    );
    let specs = paper_sites::all();
    let paper = run_sites(&specs, batch::default_threads());
    for spec in specs {
        let site = &generate(&spec);
        let mut dom_site = PageCounts::default();
        let mut iepad_site = PageCounts::default();
        let mut csp_site = PageCounts::default();
        let mut prob_site = PageCounts::default();
        for page in &site.pages {
            let truth = page.truth_spans();
            let html = &page.list_html;
            dom_site = dom_site.add(&classify_spans(&domtable::segment(html).records, &truth));
            iepad_site = iepad_site.add(&classify_spans(&iepad::segment(html).records, &truth));
        }
        for run in paper.runs.iter().filter(|r| r.site == spec.name) {
            csp_site = csp_site.add(&run.csp);
            prob_site = prob_site.add(&run.prob);
        }
        let rr = roadrunner::induce(&site.pages[0].list_html, &site.pages[1].list_html);
        let rr_label = match &rr {
            Ok(g) => {
                rr_ok += 1;
                format!("{} slots", roadrunner::data_slots(g))
            }
            Err(_) => {
                rr_failures += 1;
                "FAILED".to_owned()
            }
        };
        println!(
            "| {:<22} | {:>4} | {:>5} | {:>10} | {:>4} | {:>4} |",
            spec.name,
            format!("{}", dom_site.cor),
            format!("{}", iepad_site.cor),
            rr_label,
            format!("{}", csp_site.cor),
            format!("{}", prob_site.cor),
        );
        dom_total = dom_total.add(&dom_site);
        iepad_total = iepad_total.add(&iepad_site);
        csp_total = csp_total.add(&csp_site);
        prob_total = prob_total.add(&prob_site);
    }

    println!("\naggregates (all 24 list pages):");
    println!("  DOM heuristic:  {}", Metrics::from_counts(&dom_total));
    println!("  IEPAD-style:    {}", Metrics::from_counts(&iepad_total));
    println!(
        "  RoadRunner:     grammar induced on {rr_ok}/12 sites, failed (disjunction) on {rr_failures}"
    );
    println!("  CSP:            {}", Metrics::from_counts(&csp_total));
    println!("  probabilistic:  {}", Metrics::from_counts(&prob_total));

    // ---- the Section 2.2 contrast: plain-text tables are much easier ----
    // Render the same records as a whitespace-aligned plain-text table and
    // segment with the classical alignment method.
    let mut exact = 0usize;
    let mut total = 0usize;
    for spec in paper_sites::all() {
        let site = generate(&spec);
        for page in &site.pages {
            let rows: Vec<Vec<String>> = page
                .truth
                .records
                .iter()
                .map(|r| r.values.clone())
                .collect();
            let text = textseg::render_text_table(&rows, 28);
            if let Some(table) = textseg::segment(&text) {
                total += rows.len();
                exact += table
                    .records
                    .iter()
                    .zip(&rows)
                    .filter(|(got, want)| {
                        got.iter()
                            .filter(|c| !c.is_empty())
                            .eq(want.iter().filter(|c| !c.is_empty()))
                    })
                    .count();
            } else {
                total += rows.len();
            }
        }
    }
    println!(
        "\nSection 2.2 contrast — the same records as whitespace-aligned plain text,\n\
         segmented by classical column alignment: {exact}/{total} records exact\n\
         (\"Record segmentation from plain text documents is ... a much easier task\")"
    );
}
