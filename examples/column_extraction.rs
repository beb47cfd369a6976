//! Column extraction (Section 3.4 of the paper): "The probabilistic model
//! is more expressive than the CSP. In addition to record segmentation, we
//! can learn a model for predicting the column of an extract."
//!
//! This example segments a property-tax site with the probabilistic
//! approach and prints the reconstructed relation: rows = records,
//! columns = the learned column labels L1..Lk.
//!
//! ```sh
//! cargo run --example column_extraction
//! ```

use tableseg::prob::{segment_prob, ProbOptions};
use tableseg::{try_prepare_with_template, SiteTemplate};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn main() {
    let spec = paper_sites::butler();
    let site = generate(&spec);
    let page = &site.pages[1]; // the smaller page, for a readable printout
    let template = SiteTemplate::build(&site.list_htmls());
    let prepared =
        try_prepare_with_template(&template, 1, &page.detail_htmls()).expect("page 2 prepares");
    let slot = &template.streams[1][prepared.slot.clone()];

    let outcome = segment_prob(&prepared.observations, &ProbOptions::default());
    let columns = &outcome.columns;
    let num_columns = columns.iter().max().map_or(0, |&c| c as usize + 1);

    // Rebuild the relation: records × columns.
    let mut relation: Vec<Vec<String>> =
        vec![vec![String::new(); num_columns]; prepared.observations.num_records];
    for (i, (&record, &column)) in outcome
        .segmentation
        .assignments
        .iter()
        .map(|a| a.as_ref().expect("probabilistic output is total"))
        .zip(columns)
        .enumerate()
    {
        relation[record as usize][column as usize] = prepared.observations.items[i]
            .extract
            .text(slot, &template.interner);
    }

    println!("reconstructed relation from {} (page 2):\n", spec.name);
    print!("| record |");
    for c in 0..num_columns {
        print!(" L{} |", c + 1);
    }
    println!();
    for (r, row) in relation.iter().enumerate() {
        if row.iter().all(String::is_empty) {
            continue;
        }
        print!("| r{} |", r + 1);
        for cell in row {
            print!(" {cell} |");
        }
        println!();
    }
    println!(
        "\nlearned record-period distribution pi: {:?}",
        outcome
            .period
            .iter()
            .map(|p| (p * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
}
