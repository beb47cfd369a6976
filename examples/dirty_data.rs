//! Dirty data: the Michigan Corrections "Parole"/"Parolee" inconsistency
//! (Section 6.3 of the paper). The list page says "Parole", the detail
//! page says "Parolee", and the string "Parole" appears on a *different*
//! record's detail page in an unrelated context. The CSP cannot satisfy
//! its constraints and must relax them; the probabilistic approach
//! tolerates the inconsistency.
//!
//! ```sh
//! cargo run --example dirty_data
//! ```

use tableseg::{try_prepare_with_template, CspSegmenter, ProbSegmenter, Segmenter, SiteTemplate};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn main() {
    let spec = paper_sites::michigan();
    let site = generate(&spec);
    let page = &site.pages[0];
    let template = SiteTemplate::build(&site.list_htmls());
    let prepared =
        try_prepare_with_template(&template, 0, &page.detail_htmls()).expect("page 1 prepares");
    let slot = &template.streams[0][prepared.slot.clone()];

    // Find the troublesome extract.
    for (i, item) in prepared.observations.items.iter().enumerate() {
        if item.extract.text(slot, &template.interner) == "Parole" {
            let pages: Vec<String> = item.pages.iter().map(|p| format!("r{}", p + 1)).collect();
            println!(
                "extract E{} = \"Parole\" was observed on detail pages {{{}}} — \
                 not on its own record's page (which says \"Parolee\")\n",
                i + 1,
                pages.join(",")
            );
        }
    }

    let csp = CspSegmenter::default().segment(&prepared.observations);
    println!(
        "CSP approach:            relaxed constraints: {} (the strict problem is unsatisfiable)",
        csp.relaxed
    );
    println!(
        "                         assigned {}/{} extracts",
        csp.segmentation.assigned_count(),
        prepared.observations.len()
    );

    let prob = ProbSegmenter::default().segment(&prepared.observations);
    println!(
        "probabilistic approach:  relaxed constraints: {}",
        prob.relaxed
    );
    println!(
        "                         assigned {}/{} extracts (inconsistencies get probability \u{3b5}, not 0)",
        prob.segmentation.assigned_count(),
        prepared.observations.len()
    );
}
