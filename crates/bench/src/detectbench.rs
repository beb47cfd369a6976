//! The detection/nested benchmark behind `BENCH_detect.json`: region
//! detection precision/recall on multi-table pages with noise regions,
//! and sub-record F on nested-record pages through the full recursive
//! pass.
//!
//! Two scenario cohorts from [`tableseg_sitegen::scenario`]:
//!
//! * **region cohort** ([`detect_cohort`]) — pages carrying 1–3 result
//!   tables plus navigation bars, ad blocks and link footers. Each page
//!   is tokenized and run through [`detect_regions`]; the predicted
//!   table-region byte spans are scored against the ground-truth table
//!   regions with the span classifier (`classify_spans`), giving region
//!   Cor/InC/FN/FP and P/R/F;
//! * **nested cohort** ([`tableseg_sitegen::scenario::nested_cohort`]) —
//!   pages whose parent records
//!   nest a repeating sub-record table. The pipeline runs end to end on
//!   *predicted* structure: parent-level template induction + CSP
//!   segmentation, [`parent_spans_from_groups`] to turn the parent
//!   segmentation into slots, then [`try_segment_nested`] to recursively
//!   induce and segment inside each slot. Sub-detail pages are attached
//!   to each predicted slot by following the links it covers (modelled as
//!   max byte overlap with the truth parent). Sub-records are scored with
//!   [`classify_nested`].
//!
//! The report also re-checks the **pass-through invariant** on the paper
//! corpus: every page of the twelve single-table paper sites must detect
//! as exactly one whole-page region (`pass_through`), which is what keeps
//! the table4 golden byte-identical with detection enabled.
//!
//! The baseline is the committed `BENCH_detect.json`: `bench detect`
//! fails when any count of [`DetectBench::work_counts`] differs from it.

use std::ops::Range;

use tableseg::html::lexer::tokenize;
use tableseg::{
    detect_regions, parent_spans_from_groups, run_page, try_segment_nested, CspSegmenter,
    DetectOptions, Segmenter, SiteTemplate,
};
use tableseg_eval::classify::{
    classify_nested, classify_spans, NestedParentPred, NestedParentTruth, PageCounts,
};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::scenario::{
    detect_cohort, generate_multi_table, generate_nested, NestedPage,
};
use tableseg_sitegen::site::generate;

use crate::corpus::{count_keys, counts_members, scored_json, BenchJson};

/// Classification counts for one scenario site.
#[derive(Debug, Clone)]
pub struct SiteScore {
    /// Site name.
    pub site: String,
    /// Pages scored.
    pub pages: usize,
    /// Summed counts over the site's pages.
    pub counts: PageCounts,
}

/// The full detection/nested benchmark result.
#[derive(Debug, Clone)]
pub struct DetectBench {
    /// Per-site region-detection scores (multi-table cohort).
    pub region_sites: Vec<SiteScore>,
    /// Per-site sub-record scores (nested cohort).
    pub nested_sites: Vec<SiteScore>,
    /// Pages in the paper corpus checked for pass-through.
    pub paper_pages: usize,
    /// Paper-corpus pages that detected as a single whole-page region.
    pub paper_pass_through: usize,
}

impl DetectBench {
    fn summed(sites: &[SiteScore]) -> PageCounts {
        sites
            .iter()
            .fold(PageCounts::default(), |acc, s| acc.add(&s.counts))
    }

    /// Region-detection counts summed over the multi-table cohort.
    pub fn region_counts(&self) -> PageCounts {
        Self::summed(&self.region_sites)
    }

    /// Sub-record counts summed over the nested cohort.
    pub fn nested_counts(&self) -> PageCounts {
        Self::summed(&self.nested_sites)
    }

    /// The counts a detection change must repeat unless it means to
    /// change behaviour, keyed by their path in `BENCH_detect.json`: the
    /// region and nested Cor/InC/FN/FP, in total and per site, and the
    /// paper pages that passed through.
    pub fn work_counts(&self) -> Vec<(String, f64)> {
        let mut counts = vec![
            (
                "pass_through.paper_pages".to_string(),
                self.paper_pages as f64,
            ),
            (
                "pass_through.pass_through_pages".to_string(),
                self.paper_pass_through as f64,
            ),
        ];
        counts.extend(count_keys("region", &self.region_counts()));
        counts.extend(count_keys("nested", &self.nested_counts()));
        for (cohort, sites) in [
            ("region_sites", &self.region_sites),
            ("nested_sites", &self.nested_sites),
        ] {
            for s in sites {
                counts.extend(count_keys(&format!("{cohort}.{}", s.site), &s.counts));
            }
        }
        counts
    }
}

/// Scores region detection on one multi-table page.
fn score_region_page(
    list_html: &str,
    truth_spans: &[Range<usize>],
    opts: &DetectOptions,
) -> PageCounts {
    let tokens = tokenize(list_html);
    let detection = detect_regions(&tokens, opts);
    let pred: Vec<Range<usize>> = detection.table_regions().map(|r| r.bytes.clone()).collect();
    classify_spans(&pred, truth_spans)
}

/// Runs the recursive pass on one nested page using predicted parent
/// slots and scores the sub-record segmentation. A failure anywhere in
/// the pipeline (degenerate template, solver failure) scores every true
/// sub-record as unsegmented — a crash is not an excuse for a miss.
fn score_nested_page(
    template: &SiteTemplate,
    page_idx: usize,
    page: &NestedPage,
    segmenter: &dyn Segmenter,
) -> PageCounts {
    let truth: Vec<NestedParentTruth> = page
        .truth
        .parents
        .iter()
        .map(|p| NestedParentTruth {
            span: p.span.start..p.span.end,
            subs: p.subs.iter().map(|s| s.start..s.end).collect(),
        })
        .collect();
    let all_missed = || PageCounts {
        fneg: truth.iter().map(|t| t.subs.len()).sum(),
        ..PageCounts::default()
    };

    // Parent-level pass: segment the list page into parent records.
    let parent_details: Vec<&str> = page.parent_details.iter().map(String::as_str).collect();
    let parent = run_page(template, page_idx, &parent_details, None, &[segmenter]);
    let Ok(outcome) = &parent.solved[0] else {
        return all_missed();
    };
    let spans = parent_spans_from_groups(
        &outcome.segmentation.records(),
        &parent.extract_offsets(),
        page.list_html.len(),
    );
    if spans.is_empty() {
        return all_missed();
    }

    // Attach each predicted slot's sub-detail pages by the links it
    // covers: the truth parent with the largest byte overlap.
    let overlap =
        |a: &Range<usize>, b: &Range<usize>| a.end.min(b.end).saturating_sub(a.start.max(b.start));
    let details: Vec<Vec<&str>> = spans
        .iter()
        .map(|span| {
            truth
                .iter()
                .enumerate()
                .max_by_key(|(_, t)| overlap(span, &t.span))
                .filter(|(_, t)| overlap(span, &t.span) > 0)
                .map(|(i, _)| page.sub_details[i].iter().map(String::as_str).collect())
                .unwrap_or_default()
        })
        .collect();

    // The recursive pass, then sub-record classification.
    let Ok(run) = try_segment_nested(&page.list_html, &spans, &details, segmenter) else {
        return all_missed();
    };
    let pred: Vec<NestedParentPred> = run
        .parents
        .iter()
        .map(|p| NestedParentPred {
            span: p.span.clone(),
            groups: p.groups.clone(),
            extract_offsets: p.extract_offsets.clone(),
        })
        .collect();
    classify_nested(&pred, &truth)
}

/// Runs the full benchmark: the region cohort, the nested cohort (end to
/// end with the CSP sub-solver), and the paper pass-through check. Both
/// scenario cohorts are generated at seed 0.
pub fn run_detect_bench() -> DetectBench {
    let opts = DetectOptions::default();

    let region_sites = detect_cohort(0)
        .iter()
        .map(|spec| {
            let site = generate_multi_table(spec);
            let counts = site.pages.iter().fold(PageCounts::default(), |acc, page| {
                acc.add(&score_region_page(
                    &page.list_html,
                    &page.table_region_spans(),
                    &opts,
                ))
            });
            SiteScore {
                site: spec.name.clone(),
                pages: site.pages.len(),
                counts,
            }
        })
        .collect();

    let segmenter = CspSegmenter::default();
    let nested_sites = tableseg_sitegen::scenario::nested_cohort(0)
        .iter()
        .map(|spec| {
            let site = generate_nested(spec);
            let template = SiteTemplate::build(&site.list_htmls());
            let counts = site
                .pages
                .iter()
                .enumerate()
                .fold(PageCounts::default(), |acc, (i, page)| {
                    acc.add(&score_nested_page(&template, i, page, &segmenter))
                });
            SiteScore {
                site: spec.name.clone(),
                pages: site.pages.len(),
                counts,
            }
        })
        .collect();

    let mut paper_pages = 0;
    let mut paper_pass_through = 0;
    for spec in paper_sites::all() {
        let site = generate(&spec);
        for page in &site.pages {
            paper_pages += 1;
            let detection = detect_regions(&tokenize(&page.list_html), &opts);
            if detection.pass_through {
                paper_pass_through += 1;
            }
        }
    }

    DetectBench {
        region_sites,
        nested_sites,
        paper_pages,
        paper_pass_through,
    }
}

/// Per-site rows as an object keyed by site name, so each row's counts
/// have a path in the document.
fn sites_json(sites: &[SiteScore]) -> String {
    let rows: Vec<String> = sites
        .iter()
        .map(|s| {
            format!(
                "    \"{}\": {{ \"pages\": {}, {} }}",
                s.site,
                s.pages,
                counts_members(&s.counts)
            )
        })
        .collect();
    format!("{{\n{}\n  }}", rows.join(",\n"))
}

/// Renders the benchmark as the `BENCH_detect.json` document.
pub fn render_json(bench: &DetectBench) -> String {
    let region_pages: usize = bench.region_sites.iter().map(|s| s.pages).sum();
    let nested_pages: usize = bench.nested_sites.iter().map(|s| s.pages).sum();
    let mut j = BenchJson::new("detect");
    j.raw(
        "corpus",
        format!(
            "{{ \"region_sites\": {}, \"region_pages\": {}, \"nested_sites\": {}, \
             \"nested_pages\": {}, \"paper_pages\": {} }}",
            bench.region_sites.len(),
            region_pages,
            bench.nested_sites.len(),
            nested_pages,
            bench.paper_pages
        ),
    )
    .raw("region", scored_json(&bench.region_counts()))
    .raw("nested", scored_json(&bench.nested_counts()))
    .raw(
        "pass_through",
        format!(
            "{{ \"paper_pages\": {}, \"pass_through_pages\": {} }}",
            bench.paper_pages, bench.paper_pass_through
        ),
    )
    .raw("region_sites", sites_json(&bench.region_sites))
    .raw("nested_sites", sites_json(&bench.nested_sites));
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{count_mismatches, read_committed};

    #[test]
    fn bench_meets_its_own_gates() {
        let bench = run_detect_bench();
        assert_eq!(
            bench.paper_pass_through, bench.paper_pages,
            "paper corpus must be single-region everywhere"
        );
        let committed = read_committed("BENCH_detect.json").unwrap();
        assert_eq!(
            count_mismatches(&committed, &bench.work_counts()),
            Vec::<String>::new()
        );
    }

    fn bench_fixture() -> DetectBench {
        let site = |site: &str, cor, incor, fneg| SiteScore {
            site: site.into(),
            pages: 2,
            counts: PageCounts {
                cor,
                incor,
                fneg,
                fpos: 0,
            },
        };
        DetectBench {
            region_sites: vec![site("A", 4, 0, 0)],
            nested_sites: vec![site("B", 8, 1, 1), site("C", 3, 0, 0)],
            paper_pages: 24,
            paper_pass_through: 24,
        }
    }

    #[test]
    fn json_shape() {
        let json = render_json(&bench_fixture());
        assert!(json.contains(&format!("\"schema\": \"{}\"", crate::corpus::SCHEMA)));
        assert!(json.contains("\"bench\": \"detect\""));
        assert!(json.contains("\"region\": { \"cor\": 4, \"inc\": 0, \"fn\": 0, \"fp\": 0, "));
        assert!(json.contains("\"nested\": { \"cor\": 11, \"inc\": 1, \"fn\": 1, \"fp\": 0, "));
        assert!(
            json.contains("\"A\": { \"pages\": 2, \"cor\": 4, \"inc\": 0, \"fn\": 0, \"fp\": 0 }")
        );
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn gates_catch_bad_scores() {
        let committed = render_json(&bench_fixture());
        assert!(count_mismatches(&committed, &bench_fixture().work_counts()).is_empty());
        let mut bad = bench_fixture();
        bad.nested_sites[1].counts.incor = 1;
        bad.paper_pass_through = 23;
        assert_eq!(
            count_mismatches(&committed, &bad.work_counts()),
            [
                "pass_through.pass_through_pages: 23 vs committed 24",
                "nested.inc: 2 vs committed 1",
                "nested_sites.C.inc: 1 vs committed 0",
            ]
        );
    }
}
