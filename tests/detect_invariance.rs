//! Detection no-op invariance: enabling the table-region detection stage
//! must not change anything on single-table pages.
//!
//! Every page of the paper corpus is a single-table list page, so
//! `run_page` with detection on must (a) classify each one as exactly one
//! whole-page table region with `pass_through` set, (b) produce the same
//! page result as with detection off, and (c) reproduce the committed
//! `tests/golden/table4.txt` byte for byte through the corpus driver at
//! 1, 2 and N threads.

use std::path::PathBuf;

use tableseg::timing::Stage;
use tableseg::{
    detect_regions, run_page, CspSegmenter, DetectOptions, ProbSegmenter, RegionKind, Segmenter,
    SiteTemplate,
};
use tableseg_bench::{run_corpus, run_sites, table4_report};
use tableseg_sitegen::chaos::ChaosConfig;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn read_golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

/// Property over the whole corpus: every single-table list page detects
/// as exactly one whole-page table region, in pass-through mode.
#[test]
fn every_paper_corpus_page_is_one_whole_page_region() {
    let opts = DetectOptions::default();
    for spec in paper_sites::all() {
        let site = generate(&spec);
        let template = SiteTemplate::build(&site.list_htmls());
        for (p, page) in site.pages.iter().enumerate() {
            let (syms, spans) = (&template.streams[p], &template.spans[p]);
            let detection = detect_regions(syms, spans, &template.interner, &opts);
            assert!(
                detection.pass_through,
                "{} page {p}: single-table page must pass through",
                spec.name
            );
            assert_eq!(
                detection.regions.len(),
                1,
                "{} page {p}: exactly one region",
                spec.name
            );
            let region = &detection.regions[0];
            assert_eq!(region.kind, RegionKind::Table);
            assert_eq!(
                region.tokens,
                0..syms.len(),
                "{} page {p}: the region must cover the whole page",
                spec.name
            );
            assert_eq!(
                region.bytes,
                0..page.list_html.len(),
                "{} page {p}: the region must span the whole source",
                spec.name
            );
        }
    }
}

/// On pass-through pages `run_page` with detection on must hand back the
/// detection-off result field for field — same outcome, same prepared
/// page, same segmentations — with the detection stage as the only
/// addition to its timings.
#[test]
fn pass_through_preparation_matches_classic_path() {
    let opts = DetectOptions::default();
    let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
    let segmenters: [&dyn Segmenter; 2] = [&prob, &csp];
    for spec in [paper_sites::butler(), paper_sites::amazon()] {
        let site = generate(&spec);
        let template = SiteTemplate::build(&site.list_htmls());
        for (p, page) in site.pages.iter().enumerate() {
            let details = page.detail_htmls();
            let classic = run_page(&template, p, &details, None, &segmenters);
            let detected = run_page(&template, p, &details, Some(&opts), &segmenters);
            let at = format!("{} page {p}", spec.name);
            assert!(classic.detection.is_none(), "{at}");
            let detection = detected.detection.as_ref().expect("detection ran");
            assert!(detection.pass_through, "{at}");
            assert_eq!(detected.outcome, classic.outcome, "{at}");
            assert_eq!(detected.regions.len(), 1, "{at}");
            assert_eq!(classic.regions.len(), 1, "{at}");
            let (a, b) = (&detected.regions[0], &classic.regions[0]);
            assert_eq!(a.extract_offsets, b.extract_offsets, "{at}");
            let skipped_offsets = |p: &tableseg::PreparedPage| -> Vec<usize> {
                let skipped = &p.observations.skipped;
                skipped.iter().map(|s| s.extract.offset).collect()
            };
            assert_eq!(skipped_offsets(a), skipped_offsets(b), "{at}");
            assert_eq!(a.used_whole_page, b.used_whole_page, "{at}");
            assert_eq!(a.slot, b.slot, "{at}");
            assert_eq!(
                a.observations.num_records, b.observations.num_records,
                "{at}"
            );
            assert_eq!(a.observations.items, b.observations.items, "{at}");
            assert_eq!(a.observations.skipped, b.observations.skipped, "{at}");
            assert_eq!(
                detected.extract_offsets(),
                classic.extract_offsets(),
                "{at}"
            );
            assert_eq!(
                detected.used_whole_page(),
                classic.used_whole_page(),
                "{at}"
            );
            for (x, y) in detected.solved.iter().zip(&classic.solved) {
                let (x, y) = (x.as_ref().expect(&at), y.as_ref().expect(&at));
                assert_eq!(x.segmentation, y.segmentation, "{at}");
                assert_eq!(x.relaxed, y.relaxed, "{at}");
                assert_eq!(x.columns, y.columns, "{at}");
            }
            assert_eq!(
                classic.timings.get(Stage::Detect),
                Default::default(),
                "{at}"
            );
        }
    }
}

/// The hard gate: the table4 report with detection enabled is
/// byte-identical to the committed golden at 1, 2 and N threads.
#[test]
fn table4_golden_is_byte_identical_with_detection_enabled() {
    let specs = paper_sites::all();
    let golden = read_golden("table4.txt");
    let opts = DetectOptions::default();
    let prob = ProbSegmenter::default();
    let csp = CspSegmenter::default();
    let off = ChaosConfig::off(0);
    let n = tableseg::batch::default_threads().max(3);
    for threads in [1usize, 2, n] {
        let outcome = run_corpus(&specs, threads, &off, Some(&opts), &prob, &csp);
        assert_eq!(
            table4_report(&outcome.runs, false),
            golden,
            "detect-enabled table4 drifted from tests/golden/table4.txt at {threads} threads"
        );
    }
    // And the detect path agrees with the plain path run-for-run.
    let plain = run_sites(&specs, 2);
    let detect = run_corpus(&specs, 2, &off, Some(&opts), &prob, &csp);
    assert_eq!(plain.runs.len(), detect.runs.len());
    for (a, b) in plain.runs.iter().zip(&detect.runs) {
        assert_eq!(a.prob, b.prob, "{} page {}", a.site, a.page);
        assert_eq!(a.csp, b.csp, "{} page {}", a.site, a.page);
        assert_eq!(a.used_whole_page, b.used_whole_page);
        assert_eq!(a.csp_relaxed, b.csp_relaxed);
    }
}
