//! Pipeline-level chaos properties: a fault-injected site driven through
//! the fallible front end and both segmenters returns `Ok` / `Degraded` /
//! `Failed` per page — it never panics out and never aborts the process,
//! for any fault probability and seed.

use proptest::prelude::*;

use tableseg::outcome::PageOutcome;
use tableseg::robustness::RobustnessReport;
use tableseg::{run_page, CspSegmenter, ProbSegmenter, SiteTemplate};
use tableseg_sitegen::chaos::{generate_chaotic, ChaosConfig};
use tableseg_sitegen::paper_sites;

/// Runs one damaged site through `run_page` with both segmenters and
/// folds every page into a report. Any panic escaping this function fails
/// the test — that is the property.
fn drive_site(site: &tableseg_sitegen::GeneratedSite) -> RobustnessReport {
    let mut report = RobustnessReport::new();
    let list_htmls = site.list_htmls();
    let template = match SiteTemplate::try_build(&list_htmls) {
        Ok(t) => t,
        Err(e) => {
            for _ in &site.pages {
                report.record_error(&e);
            }
            return report;
        }
    };
    let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
    for (page, gp) in site.pages.iter().enumerate() {
        let result = run_page(&template, page, &gp.detail_htmls(), None, &[&prob, &csp]);
        // A page fails exactly when its front end or a segmenter failed.
        let any_err = result.solved.iter().any(Result::is_err);
        assert_eq!(result.outcome.is_failed(), any_err, "{:?}", result.outcome);
        report.record(&result.outcome);
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Uniform chaos at any probability in (0, 0.5] over a real paper
    /// site: every page resolves to exactly one outcome and the counts
    /// reconcile. The process surviving this loop *is* the assertion.
    #[test]
    fn chaotic_site_never_aborts(p in 0.05f64..0.5, seed in any::<u64>()) {
        let (site, _) = generate_chaotic(&paper_sites::butler(), &ChaosConfig::uniform(p, seed));
        let report = drive_site(&site);
        prop_assert_eq!(report.pages, site.pages.len());
        prop_assert_eq!(report.pages, report.ok + report.degraded + report.failed);
    }

    /// The fallible entry points tolerate pathological inputs: any subset
    /// of a damaged site's pages, any target index (including out of
    /// bounds), empty page sets. A target out of bounds fails the page.
    #[test]
    fn try_prepare_total_on_damaged_input(
        p in 0.0f64..1.0,
        seed in any::<u64>(),
        keep in 0usize..3,
        target in 0usize..4,
    ) {
        let (site, _) = generate_chaotic(&paper_sites::ohio(), &ChaosConfig::uniform(p, seed));
        let list_htmls = site.list_htmls();
        let kept: Vec<&str> = list_htmls.into_iter().take(keep).collect();
        let details: Vec<&str> = site.pages[0]
            .detail_html
            .iter()
            .map(String::as_str)
            .collect();
        // Err is fine, panicking is not.
        if let Ok(template) = SiteTemplate::try_build(&kept) {
            let result = run_page(&template, target, &details, None, &[]);
            if target >= kept.len() {
                prop_assert!(result.outcome.is_failed());
            }
        }
    }
}

#[test]
fn every_fault_class_alone_resolves_every_page() {
    // Each fault kind at p=1 over one site: all pages get an outcome.
    use tableseg_sitegen::chaos::FaultKind;
    for kind in FaultKind::ALL {
        let (site, _) = generate_chaotic(&paper_sites::lee(), &ChaosConfig::only(kind, 1.0, 0xBAD));
        let report = drive_site(&site);
        assert_eq!(
            report.pages,
            report.ok + report.degraded + report.failed,
            "{kind:?}"
        );
    }
}

#[test]
fn blanked_site_degrades_not_dies() {
    // The harshest single fault: every page (list + detail) blanked.
    use tableseg_sitegen::chaos::FaultKind;
    let (site, log) = generate_chaotic(
        &paper_sites::butler(),
        &ChaosConfig::only(FaultKind::BlankPage, 1.0, 1),
    );
    assert!(!log.is_empty());
    let report = drive_site(&site);
    assert_eq!(report.pages, site.pages.len());
    assert_eq!(report.ok, 0, "blank pages cannot be clean: {report:?}");
}

#[test]
fn degraded_outcome_is_still_segmentable() {
    // A 404-dropped detail page degrades the page but the observation
    // table still drives both segmenters to an answer.
    use tableseg_sitegen::chaos::FaultKind;
    let (site, _) = generate_chaotic(
        &paper_sites::butler(),
        &ChaosConfig::only(FaultKind::DropDetailPage, 1.0, 2),
    );
    let list_htmls = site.list_htmls();
    let template = SiteTemplate::try_build(&list_htmls).expect("list pages undamaged");
    let csp = CspSegmenter::default();
    let result = run_page(&template, 0, &site.pages[0].detail_htmls(), None, &[&csp]);
    if let PageOutcome::Failed { error } = &result.outcome {
        panic!("should not fail: {error}");
    }
    assert!(result.solved[0].is_ok(), "{:?}", result.solved[0]);
}
