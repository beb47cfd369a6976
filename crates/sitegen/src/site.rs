//! Site generation: from a [`SiteSpec`] to list pages, detail pages and
//! ground truth.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::domains::Domain;
pub use crate::layout::LayoutStyle;
use crate::layout::{render_detail_page, render_list_page};
use crate::quirks::{apply, Quirk};
use crate::truth::GroundTruth;

/// The specification of a simulated hidden-web site.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SiteSpec {
    /// Site name (appears in page chrome).
    pub name: String,
    /// Information domain.
    pub domain: Domain,
    /// List-page layout style.
    pub layout: LayoutStyle,
    /// Number of records on each sample list page (the paper uses two list
    /// pages per site).
    pub records_per_page: Vec<usize>,
    /// Data quirks to inject.
    pub quirks: Vec<Quirk>,
    /// Probability that an optional field is missing from a record.
    pub missing_field_prob: f64,
    /// Continue entry numbering across result pages (page 2 starts at
    /// `n+1` instead of `1`). The paper proposes exactly this as the fix
    /// for the numbered-entries template failure: "One method is to simply
    /// follow the 'Next' link ... The entry numbers of the next page will
    /// be different from others in the sample" (Section 6.3). Only
    /// meaningful for [`LayoutStyle::NumberedList`].
    pub continuous_numbering: bool,
    /// Number of leading records shared between consecutive list pages
    /// (overlapping query results). Shared records become part of the
    /// induced page template and break it — one of the template-failure
    /// modes of Section 6.3.
    pub overlap: usize,
    /// Master random seed.
    pub seed: u64,
}

impl SiteSpec {
    /// The same site with `pages` sample list pages: the per-page record
    /// counts cycle through the spec's existing `records_per_page`
    /// pattern. Multi-page induction benches and tests use this to scale
    /// a 2-page paper site to 10+ pages without changing its character.
    pub fn with_page_count(&self, pages: usize) -> SiteSpec {
        assert!(
            !self.records_per_page.is_empty(),
            "spec has no records_per_page pattern to cycle"
        );
        let mut spec = self.clone();
        spec.records_per_page = (0..pages)
            .map(|p| self.records_per_page[p % self.records_per_page.len()])
            .collect();
        spec
    }
}

/// One generated list page with its detail pages and ground truth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GeneratedPage {
    /// List-page HTML.
    pub list_html: String,
    /// Detail-page HTML, one per record, in row order.
    pub detail_html: Vec<String>,
    /// Ground truth for the list page.
    pub truth: GroundTruth,
}

impl GeneratedPage {
    /// Detail-page HTML, in row order, for the front end.
    pub fn detail_htmls(&self) -> Vec<&str> {
        self.detail_html.iter().map(String::as_str).collect()
    }

    /// The byte span of every ground-truth record, in row order.
    pub fn truth_spans(&self) -> Vec<std::ops::Range<usize>> {
        self.truth.records.iter().map(|r| r.start..r.end).collect()
    }
}

/// A fully generated site.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GeneratedSite {
    /// The spec this site was generated from.
    pub spec: SiteSpec,
    /// The sample list pages.
    pub pages: Vec<GeneratedPage>,
}

impl GeneratedSite {
    /// All list-page HTML, for template induction.
    pub fn list_htmls(&self) -> Vec<&str> {
        self.pages.iter().map(|p| p.list_html.as_str()).collect()
    }

    /// Exposes the site as a URL → HTML map, the way a crawler would see
    /// it: list pages under `/list/{p}` (chained by their "Next" links),
    /// detail pages under `/detail/{p}/{i}`, and `ad_count` advertisement
    /// pages under `/ads/{k}` (linked from every list page). The entry
    /// point is `/list/0`.
    pub fn site_map(&self, ad_count: usize) -> std::collections::HashMap<String, String> {
        let mut map = std::collections::HashMap::new();
        for (p, page) in self.pages.iter().enumerate() {
            map.insert(format!("/list/{p}"), page.list_html.clone());
            for (i, d) in page.detail_html.iter().enumerate() {
                map.insert(format!("/detail/{p}/{i}"), d.clone());
            }
        }
        for (k, ad) in crate::ads::ad_pages(ad_count, self.spec.seed ^ 0xAD5)
            .into_iter()
            .enumerate()
        {
            map.insert(format!("/ads/{k}"), ad);
        }
        map
    }
}

/// Generates a site from its spec. Deterministic in the seed.
pub fn generate(spec: &SiteSpec) -> GeneratedSite {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let schema = spec.domain.schema();
    let total: usize = spec.records_per_page.iter().sum();

    let mut pages = Vec::with_capacity(spec.records_per_page.len());
    let mut prev_records: Vec<crate::db::Record> = Vec::new();
    let mut number_offset = 0usize;
    for (page_idx, &n) in spec.records_per_page.iter().enumerate() {
        let mut records: Vec<crate::db::Record> = Vec::with_capacity(n);
        // Overlapping results: repeat the first records of the previous
        // page.
        if page_idx > 0 {
            for r in prev_records.iter().take(spec.overlap.min(n)) {
                records.push(r.clone());
            }
        }
        while records.len() < n {
            records.push(spec.domain.generate(&mut rng));
        }
        let views = apply(
            &spec.quirks,
            &schema,
            &mut records,
            spec.missing_field_prob,
            page_idx,
            &mut rng,
        );
        let promo_count = spec
            .quirks
            .iter()
            .find_map(|q| match q {
                Quirk::ListPagePromos { count } => Some(*count),
                _ => None,
            })
            .unwrap_or(0);
        let promos: Vec<String> = views
            .iter()
            .skip(1)
            .step_by(2)
            .take(promo_count)
            .filter_map(|v| v.list_values[0].clone())
            .collect();
        let query_echo = spec.quirks.iter().find_map(|q| match q {
            Quirk::QueryEcho { field } => {
                let fi = schema.field_index(field)?;
                // The most frequent value of the field on this page — the
                // value the "query" selected on.
                let mut counts: std::collections::HashMap<&str, usize> =
                    std::collections::HashMap::new();
                for v in &views {
                    if let Some(val) = &v.list_values[fi] {
                        *counts.entry(val.as_str()).or_default() += 1;
                    }
                }
                counts
                    .into_iter()
                    .max_by_key(|&(v, n)| (n, std::cmp::Reverse(v)))
                    .map(|(v, _)| v.to_owned())
            }
            _ => None,
        });
        let (list_html, truth) = render_list_page(
            &spec.name,
            spec.layout,
            &schema,
            &views,
            &promos,
            query_echo.as_deref(),
            page_idx,
            number_offset,
            total * 7,
        );
        if spec.continuous_numbering {
            number_offset += n;
        }
        let detail_html = views
            .iter()
            .map(|v| render_detail_page(&spec.name, &schema, v))
            .collect();
        pages.push(GeneratedPage {
            list_html,
            detail_html,
            truth,
        });
        prev_records = records;
    }

    GeneratedSite {
        spec: spec.clone(),
        pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SiteSpec {
        SiteSpec {
            name: "Test County".into(),
            domain: Domain::PropertyTax,
            layout: LayoutStyle::GridTable,
            records_per_page: vec![6, 4],
            quirks: vec![],
            missing_field_prob: 0.1,
            continuous_numbering: false,
            overlap: 0,
            seed: 77,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let site = generate(&spec());
        assert_eq!(site.pages.len(), 2);
        assert_eq!(site.pages[0].detail_html.len(), 6);
        assert_eq!(site.pages[1].detail_html.len(), 4);
        assert_eq!(site.pages[0].truth.len(), 6);
    }

    #[test]
    fn deterministic() {
        let a = generate(&spec());
        let b = generate(&spec());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&spec());
        let mut s = spec();
        s.seed = 78;
        let b = generate(&s);
        assert_ne!(a.pages[0].list_html, b.pages[0].list_html);
    }

    #[test]
    fn with_page_count_cycles_the_record_pattern() {
        let s = spec().with_page_count(5);
        assert_eq!(s.records_per_page, vec![6, 4, 6, 4, 6]);
        let site = generate(&s);
        assert_eq!(site.pages.len(), 5);
        // The record stream is drawn in the same order from the same
        // seed, so the first page's records match the unscaled site's
        // (chrome differs: the total-results line counts all pages).
        let base = generate(&spec());
        let ids = |s: &GeneratedSite, p: usize| {
            s.pages[p]
                .truth
                .records
                .iter()
                .map(|r| r.values[0].clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&site, 0), ids(&base, 0));
    }

    #[test]
    fn truth_spans_index_into_html() {
        let site = generate(&spec());
        for page in &site.pages {
            for span in &page.truth.records {
                assert!(span.end <= page.list_html.len());
                assert!(span.start < span.end);
            }
        }
    }

    #[test]
    fn detail_pages_contain_their_record_values() {
        let site = generate(&spec());
        let page = &site.pages[0];
        for (span, detail) in page.truth.records.iter().zip(&page.detail_html) {
            // The identifier (first value) must be on the detail page.
            assert!(detail.contains(&span.values[0]));
        }
    }

    #[test]
    fn overlap_repeats_records_across_pages() {
        let mut s = spec();
        s.overlap = 3;
        s.missing_field_prob = 0.0;
        let site = generate(&s);
        let first_page_ids: Vec<&String> = site.pages[0].truth.records[..3]
            .iter()
            .map(|r| &r.values[0])
            .collect();
        let second_page_ids: Vec<&String> = site.pages[1].truth.records[..3]
            .iter()
            .map(|r| &r.values[0])
            .collect();
        assert_eq!(first_page_ids, second_page_ids);
    }

    #[test]
    fn pages_share_template_but_not_data() {
        let site = generate(&spec());
        let p0 = &site.pages[0].list_html;
        let p1 = &site.pages[1].list_html;
        assert!(p0.contains("Test County"));
        assert!(p1.contains("Test County"));
        // Data differs.
        let id0 = &site.pages[0].truth.records[0].values[0];
        assert!(!p1.contains(id0));
    }
}
