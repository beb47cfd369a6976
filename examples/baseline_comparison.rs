//! Comparing the paper's methods with the layout-based baselines of
//! Section 2: a DOM `<table>/<tr>` heuristic, an IEPAD-style repeated tag
//! pattern miner, and a RoadRunner-style union-free grammar inducer.
//!
//! The baselines look only at the list page's layout; the paper's methods
//! use the *content* redundancy between list and detail pages — which is
//! why they survive the free-form and disjunctively formatted sites that
//! defeat the baselines.
//!
//! ```sh
//! cargo run --example baseline_comparison
//! ```

use tableseg::{try_prepare_with_template, CspSegmenter, Segmenter, SiteTemplate};
use tableseg_baselines::{domtable, iepad, roadrunner};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn main() {
    for spec in [
        paper_sites::allegheny(),  // clean grid table
        paper_sites::superpages(), // free form + disjunctive formatting
    ] {
        let site = generate(&spec);
        let page = &site.pages[0];
        println!("== {} (page 1, {} records) ==", spec.name, page.truth.len());

        // DOM heuristic.
        let dom = domtable::segment(&page.list_html);
        println!(
            "  DOM <table>/<tr> heuristic: {} records detected",
            dom.len()
        );

        // IEPAD-style repeated tag patterns.
        let pat = iepad::segment(&page.list_html);
        println!(
            "  IEPAD-style tag patterns:   {} records detected",
            pat.len()
        );

        // RoadRunner-style union-free grammar over the two sample pages.
        match roadrunner::induce(&site.pages[0].list_html, &site.pages[1].list_html) {
            Ok(grammar) => println!(
                "  RoadRunner-style grammar:   induced ({} data slots)",
                roadrunner::data_slots(&grammar)
            ),
            Err(e) => println!("  RoadRunner-style grammar:   FAILED — {e:?}"),
        }

        // The paper's CSP approach.
        let template = SiteTemplate::build(&site.list_htmls());
        let prepared =
            try_prepare_with_template(&template, 0, &page.detail_htmls()).expect("page 1 prepares");
        let outcome = CspSegmenter::default().segment(&prepared.observations);
        let non_empty = outcome
            .segmentation
            .records()
            .iter()
            .filter(|r| !r.is_empty())
            .count();
        println!(
            "  tableseg CSP approach:      {} records segmented (relaxed: {})\n",
            non_empty, outcome.relaxed
        );
    }
}
