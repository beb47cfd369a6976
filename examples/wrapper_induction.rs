//! Closing the loop to wrapper induction: segment one list page using the
//! detail pages, induce an HLRT-style row wrapper from that segmentation,
//! annotate the columns semantically, then extract the records of a *new*
//! list page from the same site **without any detail pages**.
//!
//! This is the application the paper motivates: its automatic
//! segmentations are exactly the labeled examples that classic wrapper
//! induction needs from a human.
//!
//! ```sh
//! cargo run --example wrapper_induction
//! ```

use tableseg::{
    annotate_columns, induce_wrapper, try_prepare_with_template, CspSegmenter, ProbSegmenter,
    Segmenter, SiteTemplate,
};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn main() {
    let spec = paper_sites::allegheny();
    let site = generate(&spec);

    // Step 1: segment page 1 with detail pages.
    let template = SiteTemplate::build(&site.list_htmls());
    let prepared = try_prepare_with_template(&template, 0, &site.pages[0].detail_htmls())
        .expect("page 1 prepares");
    let seg = CspSegmenter::default()
        .segment(&prepared.observations)
        .segmentation;
    println!(
        "segmented page 1: {} records from {} extracts",
        seg.records().iter().filter(|r| !r.is_empty()).count(),
        prepared.observations.len()
    );

    // Step 2: semantic column annotation via the probabilistic model.
    let prob = ProbSegmenter::default().segment(&prepared.observations);
    let columns = prob.columns.expect("prob yields columns");
    println!("\ncolumn annotation:");
    for ann in annotate_columns(&template, 0, &prepared, &columns) {
        println!(
            "  L{} -> {:<15} (confidence {:.0}%, {} extracts)",
            ann.column + 1,
            ann.label.to_string(),
            ann.confidence * 100.0,
            ann.support
        );
    }

    // Step 3: induce the row wrapper.
    let wrapper = induce_wrapper(&template, 0, &prepared, &seg).expect("wrapper induced");
    println!(
        "\ninduced wrapper: head={:?} seps={:?} tail={:?}",
        wrapper.head, wrapper.seps, wrapper.tail
    );

    // Step 4: extract page 2 without touching its detail pages.
    let records = wrapper.extract(&site.pages[1].list_html);
    println!(
        "\nextracted {} records from page 2 (no detail pages used):",
        records.len()
    );
    for rec in records.iter().take(5) {
        println!("  {rec:?}");
    }
    if records.len() > 5 {
        println!("  ... and {} more", records.len() - 5);
    }

    // Verify against the simulator's ground truth.
    let truth = &site.pages[1].truth;
    let matched = records
        .iter()
        .filter(|r| {
            truth.records.iter().any(|t| {
                !t.values.is_empty()
                    && r.first().is_some_and(|f| {
                        f.split_whitespace().collect::<String>()
                            == t.values[0].split_whitespace().collect::<String>()
                    })
            })
        })
        .count();
    println!(
        "\n{matched}/{} extracted records match ground-truth identifiers",
        truth.len()
    );
}
