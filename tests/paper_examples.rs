//! Integration tests pinning the paper's worked examples (Tables 1–3) and
//! the qualitative claims of Sections 4–6.

use tableseg::{try_prepare_with_template, CspSegmenter, ProbSegmenter, Segmenter, SiteTemplate};
use tableseg_extract::build_observations;
use tableseg_extract::positions::position_groups;

/// The Superpages running example of the paper (Figure 1, Tables 1–3):
/// three listings, the first two sharing a name and a phone number.
fn superpages_example() -> (&'static str, Vec<&'static str>) {
    let list = "<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>\
         <tr><td>John Smith</td><td>221R Washington St</td><td>Wash CH</td><td>(740) 335-5555</td></tr>\
         <tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>";
    let details = vec![
        "<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>",
        "<h1>John Smith</h1><p>221R Washington St</p><p>Wash CH</p><p>(740) 335-5555</p>",
        "<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>",
    ];
    (list, details)
}

#[test]
fn table1_observation_sets() {
    let (list, details) = superpages_example();
    let obs = build_observations(list, &[], &details);
    // Table 1 of the paper: eleven extracts.
    assert_eq!(obs.len(), 11);
    let expected_pages: Vec<Vec<u32>> = vec![
        vec![0, 1], // E1 John Smith
        vec![0],    // E2
        vec![0],    // E3
        vec![0, 1], // E4 phone
        vec![0, 1], // E5 John Smith again
        vec![1],    // E6
        vec![1],    // E7
        vec![0, 1], // E8 phone again
        vec![2],    // E9
        vec![2],    // E10
        vec![2],    // E11
    ];
    for (item, expected) in obs.items.iter().zip(&expected_pages) {
        assert_eq!(&item.pages, expected, "E{}", item.extract.index + 1);
    }
}

#[test]
fn table2_csp_assignment() {
    let (list, details) = superpages_example();
    let obs = build_observations(list, &[], &details);
    let outcome = CspSegmenter::default().segment(&obs);
    assert!(!outcome.relaxed);
    // Table 2: E1-E4 → r1, E5-E8 → r2, E9-E11 → r3.
    let expected: Vec<Option<u32>> = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
        .into_iter()
        .map(Some)
        .collect();
    assert_eq!(outcome.segmentation.assignments, expected);
}

#[test]
fn table2_probabilistic_assignment_matches() {
    let (list, details) = superpages_example();
    let obs = build_observations(list, &[], &details);
    let outcome = ProbSegmenter::default().segment(&obs);
    let expected: Vec<Option<u32>> = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
        .into_iter()
        .map(Some)
        .collect();
    assert_eq!(outcome.segmentation.assignments, expected);
}

#[test]
fn table3_shared_positions() {
    let (list, details) = superpages_example();
    let obs = build_observations(list, &[], &details);
    let groups = position_groups(&obs);
    // "John Smith" (E1/E5) at position 0 of pages r1 and r2; the shared
    // phone (E4/E8) at the tail position of both pages: 4 groups.
    assert_eq!(groups.len(), 4);
    // E1 and E5 compete on both pages (the paper's x11 + x51 = 1).
    assert!(groups
        .iter()
        .any(|g| g.page == 0 && g.extracts == vec![0, 4]));
    assert!(groups
        .iter()
        .any(|g| g.page == 1 && g.extracts == vec![0, 4]));
    // E4 and E8 likewise (the paper's x41 + x81 = 1).
    assert!(groups.iter().any(|g| g.extracts == vec![3, 7]));
}

#[test]
fn footnote1_matching_ignores_separators() {
    // "a string 'FirstName LastName' on list page will be matched to
    // 'FirstName <br>LastName' on the detail page".
    let list = "<td>Jane Q Doe</td>";
    let detail = "<p>Jane <br>Q <b>Doe</b></p>";
    let d2 = "<p>other</p>";
    let refs = [detail, d2];
    let obs = build_observations(list, &[], &refs);
    assert_eq!(obs.len(), 1);
    assert_eq!(obs.items[0].pages, vec![0]);
}

#[test]
fn section4_relaxation_produces_partial_assignment() {
    // The Michigan-style inconsistency in miniature.
    let list = "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>";
    let d1 = "<p>Alpha One</p><p>Parole</p>";
    let d2 = "<p>Beta Two</p><p>Parolee</p>";
    let refs = [d1, d2];
    let obs = build_observations(list, &[], &refs);

    let csp = CspSegmenter::default().segment(&obs);
    assert!(csp.relaxed, "strict constraints are unsatisfiable");
    assert!(!csp.segmentation.is_total(), "relaxed solution is partial");

    let prob = ProbSegmenter::default().segment(&obs);
    assert!(
        prob.segmentation.is_total(),
        "the HMM tolerates the inconsistency"
    );
}

#[test]
fn section5_prob_runs_in_a_few_seconds_even_on_the_largest_page() {
    // "The CSP and probabilistic algorithms were exceedingly fast, taking
    // only a few seconds to run in all cases."
    use std::time::Instant;
    let spec = tableseg_sitegen::paper_sites::canada411(); // 25 records
    let site = tableseg_sitegen::site::generate(&spec);
    let template = SiteTemplate::build(&site.list_htmls());
    let prepared = try_prepare_with_template(&template, 0, &site.pages[0].detail_htmls())
        .expect("page 1 prepares");
    for segmenter in [
        &CspSegmenter::default() as &dyn Segmenter,
        &ProbSegmenter::default(),
    ] {
        let start = Instant::now();
        let _ = segmenter.segment(&prepared.observations);
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_secs() < 30,
            "{} took {elapsed:?} (debug build allowance)",
            segmenter.name()
        );
    }
}
