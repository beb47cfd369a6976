//! Segmenting a full simulated white-pages site (the paper's Superpages
//! scenario, Figure 1): generate the site, run the complete pipeline on
//! each list page, and evaluate against the simulator's ground truth.
//!
//! ```sh
//! cargo run --example whitepages_site
//! ```

use tableseg::{
    assemble_records, try_prepare_with_template, CspSegmenter, ProbSegmenter, Segmenter,
    SiteTemplate,
};
use tableseg_eval::classify::{classify, truth_of_extracts};
use tableseg_eval::Metrics;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn main() {
    let spec = paper_sites::superpages();
    let site = generate(&spec);
    println!("site: {} ({} list pages)\n", spec.name, site.pages.len());

    // Template induction runs once for the site, not once per page.
    let template = SiteTemplate::build(&site.list_htmls());
    for (page_idx, page) in site.pages.iter().enumerate() {
        let prepared = try_prepare_with_template(&template, page_idx, &page.detail_htmls())
            .expect("every sample page prepares");
        println!(
            "list page {}: {} records, {} extracts kept, whole-page fallback: {}",
            page_idx + 1,
            page.truth.len(),
            prepared.observations.len(),
            prepared.used_whole_page
        );

        let spans: Vec<std::ops::Range<usize>> =
            page.truth.records.iter().map(|r| r.start..r.end).collect();
        let truth = truth_of_extracts(&prepared.extract_offsets, &spans);

        for segmenter in [
            &CspSegmenter::default() as &dyn Segmenter,
            &ProbSegmenter::default(),
        ] {
            let outcome = segmenter.segment(&prepared.observations);
            let counts = classify(&outcome.segmentation.records(), &truth, page.truth.len());
            let metrics = Metrics::from_counts(&counts);
            println!(
                "  {:<14} Cor={} InC={} FN={} FP={}  {}  relaxed={}",
                segmenter.name(),
                counts.cor,
                counts.incor,
                counts.fneg,
                counts.fpos,
                metrics,
                outcome.relaxed
            );
        }

        // Show the first assembled record from the CSP segmentation.
        let outcome = CspSegmenter::default().segment(&prepared.observations);
        if let Some(rec) =
            assemble_records(&template, page_idx, &prepared, &outcome.segmentation).first()
        {
            println!("  first record: {:?}", rec.fields);
        }
        println!();
    }
}
