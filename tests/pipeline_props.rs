//! Property tests over the full pipeline: random sites in, invariants out.

use proptest::prelude::*;

use tableseg::{try_prepare_with_template, CspSegmenter, ProbSegmenter, Segmenter, SiteTemplate};
use tableseg_sitegen::domains::Domain;
use tableseg_sitegen::site::{generate, LayoutStyle, SiteSpec};

fn arb_spec() -> impl Strategy<Value = SiteSpec> {
    (
        prop_oneof![
            Just(Domain::WhitePages),
            Just(Domain::Books),
            Just(Domain::PropertyTax),
            Just(Domain::Corrections),
        ],
        prop_oneof![
            Just(LayoutStyle::GridTable),
            Just(LayoutStyle::FreeForm),
            Just(LayoutStyle::NumberedList),
        ],
        2usize..10,
        2usize..10,
        0.0f64..0.4,
        any::<u64>(),
    )
        .prop_map(|(domain, layout, n1, n2, missing, seed)| SiteSpec {
            name: "Prop Site".into(),
            domain,
            layout,
            records_per_page: vec![n1, n2],
            quirks: vec![],
            missing_field_prob: missing,
            continuous_numbering: false,
            overlap: 0,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the site looks like, the pipeline and both segmenters
    /// uphold their structural invariants.
    #[test]
    fn pipeline_invariants_hold_on_random_sites(spec in arb_spec()) {
        let site = generate(&spec);
        let details = site.pages[0].detail_htmls();
        let num_records = details.len();
        let template = SiteTemplate::build(&site.list_htmls());
        let prepared = try_prepare_with_template(&template, 0, &details).expect("page 1 prepares");
        let obs = &prepared.observations;
        prop_assert_eq!(obs.num_records, num_records);
        prop_assert_eq!(prepared.extract_offsets.len(), obs.items.len());

        // Every kept extract has a non-empty, sorted, in-range D_i that is
        // not the full record set (when K > 1).
        for item in &obs.items {
            prop_assert!(!item.pages.is_empty());
            prop_assert!(item.pages.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(item.pages.iter().all(|&p| (p as usize) < num_records));
            if num_records > 1 {
                prop_assert!(item.pages.len() < num_records);
            }
        }

        // CSP output obeys occurrence + contiguity whenever it claims a
        // non-relaxed solve.
        let csp = CspSegmenter::default().segment(obs);
        prop_assert_eq!(csp.segmentation.assignments.len(), obs.items.len());
        if !csp.relaxed {
            prop_assert!(csp.segmentation.check(obs).is_empty());
        }
        for (i, a) in csp.segmentation.assignments.iter().enumerate() {
            if let Some(r) = a {
                prop_assert!((*r as usize) < num_records);
                if !csp.relaxed {
                    prop_assert!(obs.items[i].on_page(*r), "E{} outside D_i", i + 1);
                }
            }
        }

        // Probabilistic output is total, monotone in record labels, and
        // within range.
        let prob = ProbSegmenter::default().segment(obs);
        prop_assert!(prob.segmentation.is_total());
        let labels: Vec<u32> = prob
            .segmentation
            .assignments
            .iter()
            .map(|a| a.expect("total"))
            .collect();
        prop_assert!(labels.windows(2).all(|w| w[0] <= w[1]), "{:?}", labels);
        prop_assert!(labels.iter().all(|&r| (r as usize) < num_records.max(1)));
        let columns = prob.columns.expect("prob yields columns");
        prop_assert_eq!(columns.len(), obs.items.len());

        // Determinism of the full stack.
        let csp2 = CspSegmenter::default().segment(obs);
        prop_assert_eq!(csp.segmentation, csp2.segmentation);
        let prob2 = ProbSegmenter::default().segment(obs);
        prop_assert_eq!(prob.segmentation, prob2.segmentation);
    }
}
