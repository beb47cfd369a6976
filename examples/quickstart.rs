//! Quickstart: segment a tiny list page into records using both
//! approaches.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tableseg::{
    assemble_records, try_prepare_with_template, CspSegmenter, ProbSegmenter, Segmenter,
    SiteTemplate,
};

fn main() {
    // Two sample list pages from the same (imaginary) site...
    let list_a = "<html><h1>Staff Directory Results</h1><table>\
        <tr><td>Ada Lovelace</td><td>Analytical Engines</td><td>(555) 100-0001</td></tr>\
        <tr><td>Alan Turing</td><td>Universal Machines</td><td>(555) 100-0002</td></tr>\
        <tr><td>Grace Hopper</td><td>Compiler Construction</td><td>(555) 100-0003</td></tr>\
        </table><p>Copyright 2004 Example Inc All rights reserved</p></html>";
    let list_b = "<html><h1>Staff Directory Results</h1><table>\
        <tr><td>Edsger Dijkstra</td><td>Structured Programming</td><td>(555) 100-0004</td></tr>\
        </table><p>Copyright 2004 Example Inc All rights reserved</p></html>";

    // ...and the detail pages linked from the first page's rows.
    let details = [
        "<html><h2>Ada Lovelace</h2><p>Dept: Analytical Engines</p><p>Tel: (555) 100-0001</p></html>",
        "<html><h2>Alan Turing</h2><p>Dept: Universal Machines</p><p>Tel: (555) 100-0002</p></html>",
        "<html><h2>Grace Hopper</h2><p>Dept: Compiler Construction</p><p>Tel: (555) 100-0003</p></html>",
    ];

    // Shared front end: template induction once per site, then per page
    // table-slot detection, extraction and detail-page matching.
    let template = SiteTemplate::build(&[list_a, list_b]);
    let prepared =
        try_prepare_with_template(&template, 0, &details).expect("page 1 is in the sample");
    println!(
        "front end: {} extracts kept, {} skipped, whole-page fallback: {}\n",
        prepared.observations.len(),
        prepared.observations.skipped.len(),
        prepared.used_whole_page,
    );

    for segmenter in [
        &CspSegmenter::default() as &dyn Segmenter,
        &ProbSegmenter::default(),
    ] {
        let outcome = segmenter.segment(&prepared.observations);
        println!("== {} approach ==", segmenter.name());
        for record in assemble_records(&template, 0, &prepared, &outcome.segmentation) {
            println!("  record {}: {:?}", record.index + 1, record.fields);
        }
        if let Some(columns) = &outcome.columns {
            println!("  column labels: {columns:?}");
        }
        println!();
    }
}
