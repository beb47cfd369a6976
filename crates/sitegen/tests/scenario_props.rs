//! Scenario property tests: the multi-table and nested generators under
//! arbitrary seeds, and the fault × scenario interaction matrix — every
//! chaos operator against every scenario page shape, with the detection
//! stage run over the damage.
//!
//! These live in `tableseg-sitegen` next to the chaos suite, with the
//! core pipeline pulled in as a dev-dependency (the reverse direction —
//! core depending on the simulator — would be a cycle).

use proptest::prelude::*;

use tableseg::html::Interner;
use tableseg::{detect_regions, DetectOptions, Detection, RegionKind};
use tableseg_eval::classify::classify_spans;
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig, FaultKind};
use tableseg_sitegen::scenario::{
    detect_cohort, generate_multi_table, generate_nested, nested_cohort, MultiTableSite,
    NestedSite, RegionLabel,
};
use tableseg_sitegen::GeneratedSite;

fn multi_table_sites(seed: u64) -> Vec<MultiTableSite> {
    detect_cohort(seed)
        .iter()
        .map(generate_multi_table)
        .collect()
}

fn nested_sites(seed: u64) -> Vec<NestedSite> {
    nested_cohort(seed).iter().map(generate_nested).collect()
}

/// Every page (list and detail) of a flattened scenario site.
fn all_pages(site: &GeneratedSite) -> Vec<&str> {
    site.pages
        .iter()
        .flat_map(|p| {
            std::iter::once(p.list_html.as_str()).chain(p.detail_html.iter().map(String::as_str))
        })
        .collect()
}

/// Detects the regions of one list page, interned on its own.
fn detect(list_html: &str, opts: &DetectOptions) -> Detection {
    let mut interner = Interner::new();
    let (syms, spans) = interner.intern_page(list_html);
    detect_regions(&syms, &spans, &interner, opts)
}
#[test]
fn detection_recovers_every_truth_table_region() {
    // On clean multi-table pages the detector must find exactly the truth
    // table regions — one exclusive hit per truth table, no misses, no
    // spurious regions — and never pass through a page with two or more
    // tables.
    let opts = DetectOptions::default();
    for site in multi_table_sites(0x5EED) {
        for (p, page) in site.pages.iter().enumerate() {
            let detection = detect(&page.list_html, &opts);
            let truth = page.table_region_spans();
            let pred: Vec<_> = detection.table_regions().map(|r| r.bytes.clone()).collect();
            let counts = classify_spans(&pred, &truth);
            assert_eq!(
                counts.cor,
                truth.len(),
                "{} page {p}: {counts:?}",
                site.spec.name
            );
            assert_eq!(counts.incor + counts.fneg + counts.fpos, 0, "{counts:?}");
            assert_eq!(
                detection.pass_through,
                truth.len() <= 1,
                "{}",
                site.spec.name
            );
        }
    }
}

#[test]
fn noise_regions_are_never_classified_as_tables() {
    // Nav bars and footers must land as Navigation, ad blocks must not
    // become table regions — over the whole cohort.
    let opts = DetectOptions::default();
    for site in multi_table_sites(0xA5) {
        for page in &site.pages {
            let detection = detect(&page.list_html, &opts);
            if detection.pass_through {
                continue; // whole-page region, noise not individually classified
            }
            for truth in &page.regions {
                if truth.label == RegionLabel::Table {
                    continue;
                }
                // Any detected region overlapping this noise span must
                // not be a table.
                for region in &detection.regions {
                    let overlaps = region.bytes.start < truth.end && truth.start < region.bytes.end;
                    if overlaps {
                        assert_ne!(
                            region.kind,
                            RegionKind::Table,
                            "{}: {:?} region detected as a table",
                            site.spec.name,
                            truth.label
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn chaos_interaction_matrix_keeps_scenarios_processable() {
    // Every fault kind alone at p=1 against both scenario shapes: the
    // damaged pages must tokenize with sane offsets, surviving truth
    // spans must stay in bounds on char boundaries, and the detection
    // stage must stay total (no panic) on the damage.
    let opts = DetectOptions::default();
    let flats: Vec<(&str, GeneratedSite)> = multi_table_sites(0xFA)
        .iter()
        .map(|s| ("multi-table", s.as_generated_site()))
        .chain(
            nested_sites(0xFA)
                .iter()
                .map(|s| ("nested", s.as_generated_site())),
        )
        .collect();
    for (shape, clean) in &flats {
        for kind in FaultKind::ALL {
            let (site, log) = apply_chaos(clean, &ChaosConfig::only(kind, 1.0, 0xFEED));
            assert!(!log.is_empty(), "{shape}/{kind:?} must fire at p=1");
            for html in all_pages(&site) {
                let mut interner = Interner::new();
                let (syms, spans) = interner.intern_page(html);
                for span in &spans {
                    assert!(
                        span.start < span.end && span.end as usize <= html.len(),
                        "{shape}/{kind:?}: {span:?}"
                    );
                }
                let detection = detect_regions(&syms, &spans, &interner, &opts);
                assert!(!detection.regions.is_empty() || syms.is_empty());
            }
            for page in &site.pages {
                for span in &page.truth.records {
                    assert!(span.end <= page.list_html.len(), "{shape}/{kind:?}");
                    assert!(
                        page.list_html.is_char_boundary(span.start),
                        "{shape}/{kind:?}"
                    );
                    assert!(
                        page.list_html.is_char_boundary(span.end),
                        "{shape}/{kind:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_probability_chaos_is_identity_on_scenario_sites() {
    for site in multi_table_sites(0x1D) {
        let flat = site.as_generated_site();
        let (wrapped, log) = apply_chaos(&flat, &ChaosConfig::uniform(0.0, 0xC0DE));
        assert!(log.is_empty());
        assert_eq!(wrapped, flat, "{}", site.spec.name);
    }
    for site in nested_sites(0x1D) {
        let flat = site.as_generated_site();
        let (wrapped, log) = apply_chaos(&flat, &ChaosConfig::uniform(0.0, 0xC0DE));
        assert!(log.is_empty());
        assert_eq!(wrapped, flat, "{}", site.spec.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generation is a pure function of the spec for any seed.
    #[test]
    fn scenario_generation_is_deterministic(seed in any::<u64>()) {
        prop_assert_eq!(multi_table_sites(seed), multi_table_sites(seed));
        prop_assert_eq!(nested_sites(seed), nested_sites(seed));
    }

    /// Region and record spans are well-formed at any seed: in bounds,
    /// ordered, disjoint, records inside their table region, sub-records
    /// inside their parent.
    #[test]
    fn scenario_truth_is_well_formed(seed in any::<u64>()) {
        for site in multi_table_sites(seed) {
            for page in &site.pages {
                for w in page.regions.windows(2) {
                    prop_assert!(w[0].end <= w[1].start);
                }
                for region in &page.regions {
                    prop_assert!(region.end <= page.list_html.len());
                }
                for (t, truth) in page.tables.iter().enumerate() {
                    let region = page
                        .regions
                        .iter()
                        .find(|r| r.table == Some(t))
                        .expect("table region");
                    for span in &truth.records {
                        prop_assert!(span.start >= region.start && span.end <= region.end);
                    }
                }
            }
        }
        for site in nested_sites(seed) {
            for page in &site.pages {
                for parent in &page.truth.parents {
                    prop_assert!(parent.span.end <= page.list_html.len());
                    for sub in &parent.subs {
                        prop_assert!(sub.start >= parent.span.start);
                        prop_assert!(sub.end <= parent.span.end);
                    }
                    for w in parent.subs.windows(2) {
                        prop_assert!(w[0].end <= w[1].start);
                    }
                }
            }
        }
    }

    /// Detection recovers the right number of table regions at any data
    /// seed — region detection does not depend on the random record
    /// values, only on the layout the spec fixes.
    #[test]
    fn detection_region_count_is_seed_invariant(seed in any::<u64>()) {
        let opts = DetectOptions::default();
        for site in multi_table_sites(seed) {
            for page in &site.pages {
                let detection = detect(&page.list_html, &opts);
                let tables = detection.table_regions().count();
                let expected = if page.table_region_spans().len() <= 1 {
                    1 // pass-through: one whole-page region
                } else {
                    page.table_region_spans().len()
                };
                prop_assert_eq!(tables, expected, "{}", &site.spec.name);
            }
        }
    }
}
