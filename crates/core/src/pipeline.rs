//! The paper's method as one linear flow: template finding, table-slot
//! selection, extraction and detail-page matching (Sections 3.1–3.2),
//! then segmentation by the CSP or the HMM (Sections 4–5).
//!
//! Template induction is the front end's most expensive step and depends
//! only on the site's sample list pages — not on which page is being
//! segmented. [`SiteTemplate`] owns that per-site work (scanning and
//! interning, induction, quality assessment and the table-slot choice)
//! so every driver does it once per site. A list page lives there as
//! its interned symbol stream plus each token's byte range; an extract is
//! a token range of its page's table slot, and every stage reads texts
//! and types back through the site interner.
//! [`run_page`] then runs one list page end to end against the cached
//! template: optional region detection, the per-page front end
//! ([`try_prepare_with_template`]), the page's outcome classification,
//! and every segmenter through its fallible entry point. Every driver —
//! the batch harness, `tablesegd`, the scale benchmark and the CLI —
//! runs pages through it.

use std::ops::Range;

use tableseg_extract::{derive_extracts, match_extracts_indexed, Observations};
use tableseg_extract::{PageIndex, SeparatorMask};
use tableseg_html::scan::{scan, ScanTokens};
use tableseg_html::{Interner, SegError, Symbol};
use tableseg_obs::{Counter, Hist, Recorder};
use tableseg_template::{assess, induce_with, Induction, Slot, TemplateQuality};

use crate::detect::{detect_regions, DetectOptions, Detection};
use crate::outcome::{caught, classify, PageOutcome};
use crate::segmenter::{Segmenter, SegmenterOutcome};
use crate::timing::{Stage, StageTimes};

/// The observation table for the target page, plus provenance data.
#[derive(Debug, Clone)]
pub struct PreparedPage {
    /// The observation table to segment.
    pub observations: Observations,
    /// Byte offset in the target page's HTML of each kept extract
    /// (aligned with `observations.items`). Used by evaluation.
    pub extract_offsets: Vec<usize>,
    /// `true` if the induced template was unusable and the whole page was
    /// used as the table slot (the paper's notes `a`/`b`).
    pub used_whole_page: bool,
    /// The template diagnostics that drove the decision.
    pub template_quality: TemplateQuality,
    /// The token range, in the target list page's stream, of the table
    /// slot the extracts were derived from: an extract is a range of
    /// `template.streams[target][slot]`, whose texts the site interner
    /// holds ([`tableseg_extract::Extract::text`]).
    pub slot: Range<usize>,
    /// Wall-clock time of the per-page stages (detail tokenization,
    /// extraction, matching). The site-level stages stay with the
    /// template's owner ([`SiteTemplate::timings`]). The regions of a
    /// [`PageResult`] leave out the detail-page scanning and indexing they
    /// share; [`run_page`] counts it once, in [`PageResult::timings`].
    pub timings: StageTimes,
    /// Per-page observability metrics (extracts kept/skipped/matched,
    /// whole-page fallbacks, per-page histograms). Empty unless
    /// [`tableseg_obs::set_enabled`] is on. Mirrors `timings`: the
    /// site-level metrics stay with the template's owner, and a
    /// [`PageResult`]'s regions leave the detail-page counters to the page.
    pub metrics: Recorder,
}

/// The per-site front-end state: the interned sample list pages plus the
/// induced template, its quality verdict and the table slot. Build it
/// once per site with [`SiteTemplate::build`], then call [`run_page`] for
/// each page — template induction runs exactly once no matter how many
/// pages are segmented.
#[derive(Debug, Clone)]
pub struct SiteTemplate {
    /// The site's token-text interner: every list-page token text, with its
    /// [`tableseg_html::TypeSet`]. Detail pages are projected through it
    /// read-only, so the template stays shareable across batch workers.
    pub interner: Interner,
    /// Symbol stream of each sample list page, in input order.
    pub streams: Vec<Vec<Symbol>>,
    /// Byte range of each token in its list page's HTML, aligned token
    /// for token with `streams`.
    pub spans: Vec<Vec<Range<u32>>>,
    /// The per-symbol separator classification, computed once per site.
    pub separators: SeparatorMask,
    /// Reduced occurrence index of each list page, aligned with `streams`.
    /// [`try_prepare_with_template`] probes the indexes of the *other* list
    /// pages for the all-list-pages filter, so they are built once here
    /// rather than once per segmented page.
    pub page_indexes: Vec<PageIndex>,
    /// The induced template and its per-page anchors.
    pub induction: Induction,
    /// The template diagnostics driving the slot-vs-whole-page decision.
    pub quality: TemplateQuality,
    /// The table slot — per list page, the token range of the slot with
    /// the most text tokens — or `None` when the template is unusable or
    /// no slot holds text, and each page is used whole.
    pub table_slot: Option<Slot>,
    /// Wall-clock time of the per-site stages (list-page tokenization +
    /// interning, template induction, list-page index construction).
    pub timings: StageTimes,
    /// Site-level observability metrics (sites processed, template
    /// inductions). Empty unless [`tableseg_obs::set_enabled`] is on.
    pub metrics: Recorder,
}

impl SiteTemplate {
    /// Scans and interns the sample list pages, induces the site's
    /// template, chooses its table slot, and indexes each list page for
    /// extract matching.
    pub fn build(list_pages: &[&str]) -> SiteTemplate {
        let mut timings = StageTimes::new();
        // Zero-copy front end: each list page is scanned and interned in
        // one pass, keeping only its symbols and token byte ranges.
        let (interner, streams, spans) = timings.time(Stage::Tokenize, || {
            let mut interner = Interner::new();
            let (streams, spans): (Vec<_>, Vec<_>) =
                list_pages.iter().map(|p| interner.intern_page(p)).unzip();
            (interner, streams, spans)
        });
        let (induction, quality, table_slot, stats, fold_elapsed) =
            timings.time(Stage::TemplateInduction, || {
                let fold_start = std::time::Instant::now();
                let (induction, stats) = induce_with(&streams, &interner);
                let fold_elapsed = fold_start.elapsed();
                let quality = assess(&induction, &streams, &interner);
                let table_slot = table_slot(&induction, &quality, &streams, &interner);
                (induction, quality, table_slot, stats, fold_elapsed)
            });
        timings.add(Stage::InduceHistogram, fold_elapsed);
        let (separators, page_indexes) =
            timings.time(Stage::Matching, || index_lists(&interner, &streams));
        let mut metrics = Recorder::new();
        metrics.incr(Counter::SitesProcessed);
        metrics.bump(Counter::FrontendPages, list_pages.len() as u64);
        let list_bytes: usize = list_pages.iter().map(|p| p.len()).sum();
        metrics.bump(Counter::FrontendBytes, list_bytes as u64);
        if metrics.is_on() {
            for p in list_pages {
                metrics.observe(Hist::FrontendPageBytes, p.len() as u64);
            }
        }
        metrics.incr(Counter::TemplateInductions);
        metrics.bump(Counter::TemplateMergeFolds, stats.folds as u64);
        metrics.bump(
            Counter::TemplateAnchorsDropped,
            (stats.anchors_dropped + stats.unstable_dropped) as u64,
        );
        metrics.bump(
            Counter::TemplateLcsFallbacks,
            stats.lcs.fallback_windows as u64,
        );
        SiteTemplate {
            interner,
            streams,
            spans,
            separators,
            page_indexes,
            induction,
            quality,
            table_slot,
            timings,
            metrics,
        }
    }

    /// Fallible [`SiteTemplate::build`]: empty input is reported as
    /// [`SegError::EmptyInput`] and a panic anywhere in the site-level
    /// stages is caught and attributed to the template stage, so one
    /// poisoned site cannot abort a batch run.
    pub fn try_build(list_pages: &[&str]) -> Result<SiteTemplate, SegError> {
        if list_pages.is_empty() {
            return Err(SegError::EmptyInput { what: "list pages" });
        }
        caught("template", || SiteTemplate::build(list_pages))
    }

    /// Incrementally refreshes this template for an updated page sample:
    /// changed pages are re-tokenized and the **cached** template tokens
    /// are re-anchored onto them (each token must still occur exactly
    /// once, in template order); unchanged pages keep their tokens,
    /// streams and anchors. The anchor-stability pass
    /// ([`tableseg_template::restabilize`]) then re-runs over the full
    /// sample and the quality is re-assessed — but **induction itself
    /// does not re-run**, which is what makes a serving layer's warm
    /// path cheap ([`tableseg_template::induction_count`] stays flat).
    ///
    /// Returns `None` — the caller must fall back to a full
    /// [`SiteTemplate::build`] — when the refresh would degrade the
    /// template rather than maintain it:
    ///
    /// * the sample shape changed (`list_pages`/`changed` length differs
    ///   from the cached sample);
    /// * a template token no longer embeds uniquely and in order into a
    ///   changed page;
    /// * the stability pass halved the template (slot stability
    ///   degraded), or a usable template became unusable.
    ///
    /// A refresh with byte-identical pages reproduces the cached
    /// template exactly; genuinely changed pages yield an approximation
    /// of the full re-induction that keeps every surviving anchor — the
    /// staleness/latency trade documented in DESIGN.md's serving-layer
    /// section.
    pub fn try_refresh(&self, list_pages: &[&str], changed: &[bool]) -> Option<SiteTemplate> {
        if list_pages.len() != self.streams.len() || changed.len() != list_pages.len() {
            return None;
        }
        let mut timings = StageTimes::new();
        let mut interner = self.interner.clone();
        let mut changed_bytes = 0usize;
        let (streams, spans): (Vec<_>, Vec<_>) = timings.time(Stage::Tokenize, || {
            (0..list_pages.len())
                .map(|i| {
                    if changed[i] {
                        changed_bytes += list_pages[i].len();
                        interner.intern_page(list_pages[i])
                    } else {
                        (self.streams[i].clone(), self.spans[i].clone())
                    }
                })
                .unzip()
        });

        let refreshed = timings.time(Stage::TemplateInduction, || {
            // The cached template's symbols are valid in the extended
            // interner, which only ever appends.
            let tpl_syms = &self.induction.template.symbols;
            let mut anchors: Vec<Vec<usize>> = Vec::with_capacity(streams.len());
            for (i, stream) in streams.iter().enumerate() {
                if !changed[i] {
                    anchors.push(self.induction.anchors[i].clone());
                    continue;
                }
                // Re-embed: every template symbol must occur exactly once
                // on the changed page, in template order.
                let mut occurrences: std::collections::HashMap<Symbol, (usize, usize)> =
                    std::collections::HashMap::new();
                for (pos, &s) in stream.iter().enumerate() {
                    let e = occurrences.entry(s).or_insert((0, pos));
                    e.0 += 1;
                }
                let mut anchor = Vec::with_capacity(tpl_syms.len());
                for sym in tpl_syms {
                    match occurrences.get(sym) {
                        Some(&(1, pos)) => anchor.push(pos),
                        _ => return None,
                    }
                }
                if anchor.windows(2).any(|w| w[0] >= w[1]) {
                    return None;
                }
                anchors.push(anchor);
            }
            let mut induction = Induction {
                template: self.induction.template.clone(),
                anchors,
            };
            let dropped = tableseg_template::restabilize(&mut induction, &interner);
            let quality = assess(&induction, &streams, &interner);
            // Fall back to full re-induction when slot stability degrades:
            // the stability pass gutted the template, or a usable template
            // went unusable under the new sample.
            if induction.template.len() * 2 < self.induction.template.len() {
                return None;
            }
            if self.quality.is_usable() && !quality.is_usable() {
                return None;
            }
            let table_slot = table_slot(&induction, &quality, &streams, &interner);
            Some((induction, quality, table_slot, dropped))
        });
        let (induction, quality, table_slot, dropped) = refreshed?;

        let (separators, page_indexes) =
            timings.time(Stage::Matching, || index_lists(&interner, &streams));

        let mut metrics = Recorder::new();
        let changed_pages = changed.iter().filter(|&&c| c).count();
        metrics.bump(Counter::FrontendPages, changed_pages as u64);
        metrics.bump(Counter::FrontendBytes, changed_bytes as u64);
        if metrics.is_on() {
            for (i, p) in list_pages.iter().enumerate() {
                if changed[i] {
                    metrics.observe(Hist::FrontendPageBytes, p.len() as u64);
                }
            }
        }
        metrics.bump(Counter::TemplateAnchorsDropped, dropped as u64);
        Some(SiteTemplate {
            interner,
            streams,
            spans,
            separators,
            page_indexes,
            induction,
            quality,
            table_slot,
            timings,
            metrics,
        })
    }
}

/// The site's table slot: the slot holding the most text tokens, unless
/// the template is degenerate or no slot holds text — then `None`, and
/// each page is used whole (Section 6.2: "In cases where the template
/// finding algorithm could not find a good page template, we have taken
/// the entire text of the list page").
fn table_slot(
    induction: &Induction,
    quality: &TemplateQuality,
    streams: &[Vec<Symbol>],
    interner: &Interner,
) -> Option<Slot> {
    if !quality.is_usable() {
        return None;
    }
    let mut slots = induction.slots(streams);
    let idx = slots.table_slot(streams, interner)?;
    Some(slots.slots.swap_remove(idx))
}

/// Classifies every symbol as separator or not, and indexes each list
/// page's reduced stream for the all-list-pages filter.
fn index_lists(interner: &Interner, streams: &[Vec<Symbol>]) -> (SeparatorMask, Vec<PageIndex>) {
    let separators = SeparatorMask::build(interner);
    let page_indexes = streams
        .iter()
        .map(|s| PageIndex::from_interned(s, &separators))
        .collect();
    (separators, page_indexes)
}

/// Runs the per-page front end against a prebuilt [`SiteTemplate`]:
/// table-slot selection, extraction, and detail-page matching for the
/// list page at index `target`. An out-of-bounds target is reported as
/// [`SegError::TargetOutOfBounds`], and a panic in any per-page stage is
/// caught and attributed to that stage — one poisoned page cannot abort
/// a site or a batch.
///
/// # Example
///
/// Build the template once per site, then prepare each of its list
/// pages against it:
///
/// ```
/// use tableseg::{try_prepare_with_template, SiteTemplate};
///
/// let page = "<html><h1>Results</h1><table>\
///             <tr><td>Ada Lovelace</td></tr>\
///             <tr><td>Alan Turing</td></tr></table></html>";
/// let template = SiteTemplate::build(&[page]);
/// let details = ["<html><h2>Ada Lovelace</h2></html>"];
/// let prepared = try_prepare_with_template(&template, 0, &details).unwrap();
/// assert!(!prepared.observations.items.is_empty());
/// ```
pub fn try_prepare_with_template(
    template: &SiteTemplate,
    target: usize,
    detail_pages: &[&str],
) -> Result<PreparedPage, SegError> {
    check_target(template, target)?;
    let mut timings = StageTimes::new();
    let mut metrics = Recorder::new();
    let details = index_details(template, detail_pages, &mut timings, &mut metrics)?;
    let mut prepared = try_prepare_slot(template, target, &details, None)?;
    prepared.timings.merge(&timings);
    prepared.metrics.merge(&metrics);
    Ok(prepared)
}

/// Reports a `target` past the site's sample list pages.
fn check_target(template: &SiteTemplate, target: usize) -> Result<(), SegError> {
    if target < template.streams.len() {
        Ok(())
    } else {
        Err(SegError::TargetOutOfBounds {
            target,
            pages: template.streams.len(),
        })
    }
}

/// Indexes a list page's detail pages once, for every table region the
/// page is prepared for: each page is scanned into span tokens and
/// projected straight into a [`PageIndex`] through the site interner,
/// read-only — detail pages are only ever matched against, so no
/// per-token strings are built. Scanning is timed
/// as tokenize, indexing as matching; the pages and bytes are counted.
fn index_details(
    template: &SiteTemplate,
    detail_pages: &[&str],
    timings: &mut StageTimes,
    metrics: &mut Recorder,
) -> Result<Vec<PageIndex>, SegError> {
    let scans: Vec<ScanTokens> = caught("tokenize", || {
        timings.time(Stage::Tokenize, || {
            detail_pages.iter().map(|p| scan(p)).collect()
        })
    })?;
    let indexes = caught("match", || {
        timings.time(Stage::Matching, || {
            scans
                .iter()
                .zip(detail_pages)
                .map(|(s, p)| PageIndex::from_scanned(s, p, &template.interner))
                .collect()
        })
    })?;
    metrics.bump(Counter::FrontendPages, detail_pages.len() as u64);
    let detail_bytes: usize = detail_pages.iter().map(|p| p.len()).sum();
    metrics.bump(Counter::FrontendBytes, detail_bytes as u64);
    if metrics.is_on() {
        for p in detail_pages {
            metrics.observe(Hist::FrontendPageBytes, p.len() as u64);
        }
    }
    Ok(indexes)
}

/// The per-region front end: table-slot selection, extraction, and
/// matching against the already indexed detail pages. With
/// `slot_override` the supplied token range is the table slot (the detect
/// stage's region path); without it the site's table slot is used, or
/// else the whole page. `target` must be in bounds.
fn try_prepare_slot(
    template: &SiteTemplate,
    target: usize,
    details: &[PageIndex],
    slot_override: Option<std::ops::Range<usize>>,
) -> Result<PreparedPage, SegError> {
    let mut timings = StageTimes::new();
    let target_syms = &template.streams[target];
    let (slot, used_whole_page) = match (slot_override, &template.table_slot) {
        (Some(region), _) => (region, false),
        (None, Some(table)) => (table.ranges[target].clone(), false),
        (None, None) => (0..target_syms.len(), true),
    };
    if slot.end > target_syms.len() || slot.start > slot.end {
        return Err(SegError::StreamMisaligned {
            what: "table-slot range",
            expected: target_syms.len(),
            got: slot.end,
        });
    }
    let slot_syms = &target_syms[slot.clone()];
    let slot_spans = &template.spans[target][slot.clone()];

    let extracts = caught("extract", || {
        timings.time(Stage::Extraction, || {
            derive_extracts(slot_syms, slot_spans, &template.interner)
        })
    })?;
    let observations = caught("match", || {
        timings.time(Stage::Matching, || {
            // Other list pages come from the site-level index cache.
            let other_indexes: Vec<&PageIndex> = template
                .page_indexes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != target)
                .map(|(_, idx)| idx)
                .collect();
            let detail_refs: Vec<&PageIndex> = details.iter().collect();
            match_extracts_indexed(extracts, slot_syms, &other_indexes, &detail_refs)
        })
    })?;
    let extract_offsets = observations
        .items
        .iter()
        .map(|it| it.extract.offset)
        .collect();

    let mut metrics = Recorder::new();
    if used_whole_page {
        metrics.incr(Counter::WholePageFallbacks);
    }
    metrics.bump(Counter::ExtractsKept, observations.items.len() as u64);
    metrics.bump(Counter::ExtractsSkipped, observations.skipped.len() as u64);
    let matched: usize = observations.items.iter().map(|it| it.pages.len()).sum();
    metrics.bump(Counter::ExtractsMatched, matched as u64);
    metrics.observe(Hist::ExtractsPerPage, observations.items.len() as u64);
    metrics.observe(Hist::RecordsPerPage, observations.num_records as u64);
    if metrics.is_on() {
        for item in &observations.items {
            metrics.observe(Hist::DetailPagesPerExtract, item.pages.len() as u64);
        }
    }

    Ok(PreparedPage {
        observations,
        extract_offsets,
        used_whole_page,
        template_quality: template.quality,
        slot,
        timings,
        metrics,
    })
}

/// Everything [`run_page`] produced for one list page.
#[derive(Debug, Clone)]
pub struct PageResult {
    /// Clean, degraded (with warnings) or failed — with the front end's
    /// error, or else the first failing segmenter's.
    pub outcome: PageOutcome,
    /// The detection verdict, when detection ran and the front end got
    /// that far.
    pub detection: Option<Detection>,
    /// One prepared page per table region, in document order: exactly one
    /// (the template's table slot, or the whole page) without detection
    /// or on a pass-through page. Empty when the front end failed.
    pub regions: Vec<PreparedPage>,
    /// Per segmenter, in input order: its segmentation of the page, or
    /// why it failed. A split page's per-region segmentations are merged,
    /// their record and extract indices rebased onto the page, so the
    /// groups index [`PageResult::extract_offsets`]. Each outcome's
    /// `solver_times` also carries its total under [`Stage::Solve`].
    pub solved: Vec<Result<SegmenterOutcome, SegError>>,
    /// Wall-clock time of the per-page stages: detection, the front end
    /// and every segmenter's solve, with their sub-stages.
    pub timings: StageTimes,
    /// Per-page metrics: front end, detection, solvers, and the page
    /// outcome counters (`pages.processed`, `pages.ok`, ...). Empty
    /// unless [`tableseg_obs::set_enabled`] is on.
    pub metrics: Recorder,
}

impl PageResult {
    /// Byte offset in the target page of every kept extract, regions
    /// concatenated in document order. With one region these are the
    /// [`PreparedPage::extract_offsets`].
    pub fn extract_offsets(&self) -> Vec<usize> {
        self.regions
            .iter()
            .flat_map(|r| r.extract_offsets.iter().copied())
            .collect()
    }

    /// `true` if a region fell back to the whole page (notes `a`/`b`).
    pub fn used_whole_page(&self) -> bool {
        self.regions.iter().any(|r| r.used_whole_page)
    }
}

/// Runs one list page end to end against a prebuilt [`SiteTemplate`],
/// and never panics out or aborts.
///
/// With `detect` set, [`detect_regions`] partitions the page first and
/// each table region is prepared and solved on its own; a page with at
/// most one table region passes through to the template's table slot,
/// so detection cannot change single-table results. The page is then
/// classified clean, degraded or failed, and every segmenter solves
/// every region through [`Segmenter::try_segment`], so a solver panic
/// fails that segmenter's result and the page, nothing else.
///
/// # Example
///
/// ```
/// use tableseg::{run_page, CspSegmenter, PageOutcome, SiteTemplate};
///
/// let page = "<html><h1>Results</h1><table>\
///             <tr><td>Ada Lovelace</td></tr>\
///             <tr><td>Alan Turing</td></tr></table></html>";
/// let template = SiteTemplate::build(&[page]);
/// let details = ["<html><h2>Ada Lovelace</h2></html>"];
/// let result = run_page(&template, 0, &details, None, &[&CspSegmenter::default()]);
/// assert!(matches!(result.outcome, PageOutcome::Degraded { .. }));
/// let groups = result.solved[0].as_ref().unwrap().segmentation.records();
/// let extracts = result.extract_offsets().len();
/// assert!(groups.concat().iter().all(|&i| i < extracts));
/// ```
pub fn run_page(
    template: &SiteTemplate,
    target: usize,
    detail_pages: &[&str],
    detect: Option<&DetectOptions>,
    segmenters: &[&dyn Segmenter],
) -> PageResult {
    let mut page = PageResult {
        outcome: PageOutcome::Ok,
        detection: None,
        regions: Vec::new(),
        solved: Vec::new(),
        timings: StageTimes::new(),
        metrics: Recorder::new(),
    };
    page.metrics.incr(Counter::PagesProcessed);
    page.outcome = match front_end(template, target, detail_pages, detect, &mut page) {
        Ok(()) => classify(template, target, detail_pages, &page.regions),
        Err(error) => PageOutcome::Failed { error },
    };
    page.solved = segmenters
        .iter()
        .map(|&segmenter| {
            if let Some(error) = page.outcome.error() {
                return Err(error.clone());
            }
            let start = std::time::Instant::now();
            let solved = solve(segmenter, &page.regions);
            let elapsed = start.elapsed();
            page.timings.add(Stage::Solve, elapsed);
            solved.map(|mut o| {
                page.timings.merge(&o.solver_times);
                page.metrics.merge(&o.metrics);
                o.solver_times.add(Stage::Solve, elapsed);
                o
            })
        })
        .collect();
    let solver_error = page.solved.iter().find_map(|s| s.as_ref().err());
    if let (false, Some(error)) = (page.outcome.is_failed(), solver_error) {
        page.metrics.incr(Counter::SolveFailures);
        page.outcome = PageOutcome::Failed {
            error: error.clone(),
        };
    }
    page.outcome.count(&mut page.metrics);
    page
}

/// The per-page front end of [`run_page`]: fills in the detection
/// verdict (when `detect` is set), one prepared page per table region,
/// and their timings and metrics. The detail pages are scanned and
/// indexed once, whatever the number of regions.
fn front_end(
    template: &SiteTemplate,
    target: usize,
    detail_pages: &[&str],
    detect: Option<&DetectOptions>,
    page: &mut PageResult,
) -> Result<(), SegError> {
    check_target(template, target)?;
    // One table slot per region; `None` is the template's own slot.
    let slots: Vec<Option<std::ops::Range<usize>>> = match detect {
        None => vec![None],
        Some(opts) => {
            let start = std::time::Instant::now();
            let detection = caught("detect", || {
                detect_regions(
                    &template.streams[target],
                    &template.spans[target],
                    &template.interner,
                    opts,
                )
            })?;
            // Detection overlaps the extraction stage; `detect.regions`
            // re-attributes that time, mirroring the solve sub-stages.
            let elapsed = start.elapsed();
            page.timings.add(Stage::Extraction, elapsed);
            page.timings.add(Stage::Detect, elapsed);
            let m = &mut page.metrics;
            let tables = detection.table_regions().count();
            m.incr(Counter::DetectPages);
            m.bump(Counter::DetectRegions, tables as u64);
            m.bump(
                Counter::DetectNonTable,
                (detection.regions.len() - tables) as u64,
            );
            m.bump(
                Counter::DetectPassThrough,
                u64::from(detection.pass_through),
            );
            let detection = page.detection.insert(detection);
            if detection.pass_through {
                vec![None]
            } else {
                // Each table region is matched against all of the detail
                // pages; its extract offsets stay relative to the page.
                detection
                    .table_regions()
                    .map(|r| Some(r.tokens.clone()))
                    .collect()
            }
        }
    };
    let details = index_details(template, detail_pages, &mut page.timings, &mut page.metrics)?;
    let regions = slots
        .into_iter()
        .map(|slot| try_prepare_slot(template, target, &details, slot))
        .collect::<Result<Vec<_>, _>>()?;
    for region in &regions {
        page.timings.merge(&region.timings);
        page.metrics.merge(&region.metrics);
    }
    page.regions = regions;
    Ok(())
}

/// Solves every region with `segmenter` and merges the results in
/// document order, rebasing record and extract indices onto the page.
/// One region's outcome is returned as the segmenter produced it.
fn solve(
    segmenter: &dyn Segmenter,
    regions: &[PreparedPage],
) -> Result<SegmenterOutcome, SegError> {
    let mut parts = regions
        .iter()
        .map(|r| segmenter.try_segment(&r.observations));
    let mut merged = parts
        .next()
        .expect("a page whose front end succeeded has a region")?;
    for part in parts {
        let part = part?;
        let seg = &mut merged.segmentation;
        let base = seg.num_records as u32;
        seg.assignments.extend(
            part.segmentation
                .assignments
                .iter()
                .map(|a| a.map(|r| r + base)),
        );
        seg.num_records += part.segmentation.num_records;
        merged.relaxed |= part.relaxed;
        // Column labels are region-local; they are kept side by side.
        merged.columns = merged.columns.zip(part.columns).map(|(mut a, b)| {
            a.extend(b);
            a
        });
        merged.solver_times.merge(&part.solver_times);
        merged.metrics.merge(&part.metrics);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segmenter::{CspSegmenter, ProbSegmenter};

    fn page(body: &str) -> String {
        format!(
            "<html><h1>Example Search Results</h1><table>{body}</table>\
             <p>Copyright 2004 Example Inc All rights reserved</p></html>"
        )
    }

    fn two_page_site() -> (String, String, Vec<&'static str>) {
        let a = page(
            "<tr><td>Ada Lovelace</td><td>(555) 100-0001</td></tr>\
             <tr><td>Alan Turing</td><td>(555) 100-0002</td></tr>",
        );
        let b = page("<tr><td>Grace Hopper</td><td>(555) 100-0003</td></tr>");
        let details = vec![
            "<html><h2>Ada Lovelace</h2><p>(555) 100-0001</p></html>",
            "<html><h2>Alan Turing</h2><p>(555) 100-0002</p></html>",
        ];
        (a, b, details)
    }

    /// The front end on list page `target` of the site `lists`.
    fn prepare_page(lists: &[&str], target: usize, details: &[&str]) -> PreparedPage {
        let template = SiteTemplate::build(lists);
        try_prepare_with_template(&template, target, details).expect("prepared")
    }

    #[test]
    fn uses_table_slot_on_clean_site() {
        let (a, b, details) = two_page_site();
        let prep = prepare_page(&[&a, &b], 0, &details);
        assert!(!prep.used_whole_page, "{:?}", prep.template_quality);
        assert!(prep.slot.start > 0, "the slot leaves out the page header");
        // Only the four record values are kept extracts.
        assert_eq!(prep.observations.len(), 4);
        assert_eq!(prep.extract_offsets.len(), 4);
        // Offsets point at the extracts in the source.
        assert!(a[prep.extract_offsets[0]..].starts_with("Ada"));
    }

    #[test]
    fn whole_page_fallback_on_single_page() {
        let (a, _, details) = two_page_site();
        let prep = prepare_page(&[&a], 0, &details);
        assert!(prep.used_whole_page);
        // Record extracts still observed.
        assert!(prep.observations.len() >= 4);
    }

    #[test]
    fn numbered_entries_force_whole_page() {
        let a = page(
            "<tr><td>1. Ada Lovelace</td></tr><tr><td>2. Alan Turing</td></tr>\
             <tr><td>3. Grace Hopper</td></tr><tr><td>4. Donald Knuth</td></tr>",
        );
        let b = page(
            "<tr><td>1. Barbara Liskov</td></tr><tr><td>2. Edsger Dijkstra</td></tr>\
             <tr><td>3. Tony Hoare</td></tr><tr><td>4. Niklaus Wirth</td></tr>",
        );
        let details = [
            "<html><h2>Ada Lovelace</h2></html>",
            "<html><h2>Alan Turing</h2></html>",
            "<html><h2>Grace Hopper</h2></html>",
            "<html><h2>Donald Knuth</h2></html>",
        ];
        let prep = prepare_page(&[&a, &b], 0, &details);
        assert!(prep.used_whole_page, "{:?}", prep.template_quality);
    }

    #[test]
    fn bad_target_is_an_error() {
        let (a, _, details) = two_page_site();
        let template = SiteTemplate::build(&[&a]);
        let error = try_prepare_with_template(&template, 3, &details).unwrap_err();
        assert_eq!(
            error,
            SegError::TargetOutOfBounds {
                target: 3,
                pages: 1
            }
        );
    }

    #[test]
    fn skipped_extracts_tracked() {
        // "More Info" is on no detail page: skipped, with its source offset.
        let a = page(
            "<tr><td>Ada Lovelace</td><td>More Info A</td></tr>\
             <tr><td>Alan Turing</td><td>More Info B</td></tr>",
        );
        let b = page("<tr><td>Grace Hopper</td><td>More Info C</td></tr>");
        let (_, _, details) = two_page_site();
        let template = SiteTemplate::build(&[&a, &b]);
        let prep = try_prepare_with_template(&template, 0, &details).expect("prepared");
        let slot = &template.streams[0][prep.slot.clone()];
        let skipped = &prep.observations.skipped;
        assert_eq!(skipped.len(), 2, "{skipped:?}");
        for (s, row) in skipped.iter().zip(["More Info A", "More Info B"]) {
            assert_eq!(s.extract.text(slot, &template.interner), row);
            assert!(a[s.extract.offset..].starts_with(row));
        }
    }

    #[test]
    fn refresh_with_identical_pages_reproduces_template() {
        let (a, b, _) = two_page_site();
        let cached = SiteTemplate::build(&[&a, &b]);
        let refreshed = cached
            .try_refresh(&[&a, &b], &[true, true])
            .expect("identical bytes must refresh");
        // Each template records its own induction time, so this holds
        // however many templates sibling tests induce meanwhile (the
        // process-wide `induction_count` does not).
        assert!(cached.timings.get(Stage::InduceHistogram) > std::time::Duration::ZERO);
        assert_eq!(
            refreshed.timings.get(Stage::InduceHistogram),
            std::time::Duration::ZERO,
            "refresh must not re-induce"
        );
        assert_eq!(
            refreshed.induction.template, cached.induction.template,
            "refresh of unchanged pages must keep the template"
        );
        assert_eq!(refreshed.induction.anchors, cached.induction.anchors);
        assert_eq!(refreshed.streams, cached.streams);
        assert_eq!(refreshed.spans, cached.spans);
        assert_eq!(refreshed.table_slot, cached.table_slot);
        assert_eq!(refreshed.quality.template_len, cached.quality.template_len);
    }

    #[test]
    fn refresh_reanchors_a_changed_page() {
        let (a, b, details) = two_page_site();
        let cached = SiteTemplate::build(&[&a, &b]);
        // Same template skeleton, new record data on page b.
        let b2 = page("<tr><td>Donald Knuth</td><td>(555) 100-0009</td></tr>");
        let refreshed = cached
            .try_refresh(&[&a, &b2], &[false, true])
            .expect("a data-only change must refresh");
        assert_eq!(refreshed.induction.template, cached.induction.template);
        // Unchanged page keeps its anchors verbatim.
        assert_eq!(refreshed.induction.anchors[0], cached.induction.anchors[0]);
        // The refreshed template segments the new sample like a full build.
        let full = SiteTemplate::build(&[&a, &b2]);
        let via_refresh = try_prepare_with_template(&refreshed, 0, &details).unwrap();
        let via_full = try_prepare_with_template(&full, 0, &details).unwrap();
        assert_eq!(via_refresh.extract_offsets, via_full.extract_offsets);
        assert_eq!(via_refresh.used_whole_page, via_full.used_whole_page);
    }

    #[test]
    fn refresh_falls_back_on_shape_or_anchor_loss() {
        let (a, b, _) = two_page_site();
        let cached = SiteTemplate::build(&[&a, &b]);
        // Sample-shape mismatch.
        assert!(cached.try_refresh(&[&a], &[true]).is_none());
        assert!(cached.try_refresh(&[&a, &b], &[true]).is_none());
        // A changed page that no longer embeds the template (the shared
        // header/footer skeleton is gone) must force full re-induction.
        let alien = "<html><div>totally different markup</div></html>".to_string();
        assert!(cached.try_refresh(&[&a, &alien], &[false, true]).is_none());
    }

    /// Two list pages carrying two independent linked tables each, plus a
    /// link footer — the multi-region front-end fixture.
    fn two_table_site() -> (String, String, Vec<&'static str>) {
        let page = |rows_a: &str, rows_b: &str| {
            format!(
                "<html><h1>Example Portal</h1>\
                 <table>{rows_a}</table>\
                 <h3>More Results</h3>\
                 <table>{rows_b}</table>\
                 <ul><li><a href=\"/p\">Privacy</a></li><li><a href=\"/t\">Terms</a></li>\
                 <li><a href=\"/f\">Feedback</a></li></ul>\
                 <p>Copyright 2004 Example Inc All rights reserved</p></html>"
            )
        };
        let a = page(
            "<tr><td><a href=\"/d/0\">Ada Lovelace</a></td><td>(555) 100-0001</td></tr>\
             <tr><td><a href=\"/d/1\">Alan Turing</a></td><td>(555) 100-0002</td></tr>",
            "<tr><td><a href=\"/d/2\">Big Pine Key</a></td><td>$1,200</td></tr>\
             <tr><td><a href=\"/d/3\">Cedar Grove</a></td><td>$2,400</td></tr>",
        );
        let b = page(
            "<tr><td><a href=\"/d/4\">Grace Hopper</a></td><td>(555) 100-0003</td></tr>\
             <tr><td><a href=\"/d/5\">Donald Knuth</a></td><td>(555) 100-0004</td></tr>",
            "<tr><td><a href=\"/d/6\">Dune Road</a></td><td>$3,600</td></tr>\
             <tr><td><a href=\"/d/7\">Elm Hollow</a></td><td>$4,800</td></tr>",
        );
        let details = vec![
            "<html><h2>Ada Lovelace</h2><p>(555) 100-0001</p></html>",
            "<html><h2>Alan Turing</h2><p>(555) 100-0002</p></html>",
            "<html><h2>Big Pine Key</h2><p>$1,200</p></html>",
            "<html><h2>Cedar Grove</h2><p>$2,400</p></html>",
        ];
        (a, b, details)
    }

    /// A segmenter whose solver always panics.
    struct Panicking;

    impl Segmenter for Panicking {
        fn segment(&self, _: &tableseg_extract::Observations) -> SegmenterOutcome {
            panic!("solver bug")
        }

        fn name(&self) -> &'static str {
            "panicking"
        }
    }

    #[test]
    fn detected_front_end_prepares_each_table_region() {
        let (a, b, details) = two_table_site();
        let template = SiteTemplate::build(&[&a, &b]);
        let (csp, prob) = (CspSegmenter::default(), ProbSegmenter::default());
        let segmenters: [&dyn Segmenter; 2] = [&csp, &prob];
        let detect = crate::detect::DetectOptions::default();
        let result = run_page(&template, 0, &details, Some(&detect), &segmenters);
        let detection = result.detection.as_ref().expect("detection ran");
        assert!(!detection.pass_through, "two tables must split");
        assert_eq!(result.regions.len(), 2, "one prepared page per table");
        let tables: Vec<&crate::detect::Region> = detection.table_regions().collect();
        assert_eq!(tables.len(), 2);
        for (region, prepared) in tables.iter().zip(&result.regions) {
            assert!(
                !prepared.extract_offsets.is_empty(),
                "region extracts derived"
            );
            for &off in &prepared.extract_offsets {
                assert!(
                    region.bytes.contains(&off),
                    "extract offset {off} outside region {:?}",
                    region.bytes
                );
            }
        }
        // The two regions partition the extracts: no offset overlap.
        assert!(tables[0].bytes.end <= tables[1].bytes.start);
    }

    /// The multi-region merge: each segmenter's page-level groups are the
    /// per-region groups, solved alone and rebased onto the concatenated
    /// extract list, and no group straddles two regions.
    #[test]
    fn split_page_merges_region_segmentations() {
        let (a, b, details) = two_table_site();
        let template = SiteTemplate::build(&[&a, &b]);
        let (csp, prob) = (CspSegmenter::default(), ProbSegmenter::default());
        let segmenters: [&dyn Segmenter; 2] = [&csp, &prob];
        let detect = crate::detect::DetectOptions::default();
        let result = run_page(&template, 0, &details, Some(&detect), &segmenters);
        assert_eq!(result.regions.len(), 2);
        assert!(!result.outcome.is_failed(), "{:?}", result.outcome);
        let offsets = result.extract_offsets();
        let tables: Vec<_> = result
            .detection
            .as_ref()
            .expect("detection ran")
            .table_regions()
            .map(|r| r.bytes.clone())
            .collect();
        for (segmenter, solved) in segmenters.iter().zip(&result.solved) {
            let merged = solved.as_ref().expect("clean page solves");
            let mut expected: Vec<Vec<usize>> = Vec::new();
            let mut base = 0;
            for region in &result.regions {
                let alone = segmenter.segment(&region.observations);
                for group in alone.segmentation.records() {
                    expected.push(group.iter().map(|&i| i + base).collect());
                }
                base += region.observations.len();
            }
            assert_eq!(base, offsets.len());
            let groups = merged.segmentation.records();
            assert_eq!(groups, expected, "{}", segmenter.name());
            assert_eq!(merged.segmentation.assignments.len(), offsets.len());
            for group in groups.iter().filter(|g| !g.is_empty()) {
                assert!(
                    tables
                        .iter()
                        .any(|r| group.iter().all(|&i| r.contains(&offsets[i]))),
                    "{}: group {group:?} straddles regions",
                    segmenter.name()
                );
            }
        }
    }

    /// A split page scans, indexes and counts each detail page once, not
    /// once per table region.
    #[test]
    fn split_page_counts_each_detail_page_once() {
        let (a, b, details) = two_table_site();
        let template = SiteTemplate::build(&[&a, &b]);
        let detect = crate::detect::DetectOptions::default();
        let mut page = PageResult {
            outcome: PageOutcome::Ok,
            detection: None,
            regions: Vec::new(),
            solved: Vec::new(),
            timings: StageTimes::new(),
            metrics: Recorder::always_on(),
        };
        front_end(&template, 0, &details, Some(&detect), &mut page).expect("front end");
        assert_eq!(page.regions.len(), 2);
        let counters = &page.metrics.counters;
        assert_eq!(
            counters.get(Counter::FrontendPages),
            details.len() as u64,
            "frontend.pages"
        );
        let bytes: usize = details.iter().map(|d| d.len()).sum();
        assert_eq!(counters.get(Counter::FrontendBytes), bytes as u64);
    }

    #[test]
    fn detected_front_end_passes_single_table_through() {
        let (a, b, details) = two_page_site();
        let template = SiteTemplate::build(&[&a, &b]);
        let classic = try_prepare_with_template(&template, 0, &details).expect("classic");
        let detect = crate::detect::DetectOptions::default();
        let result = run_page(&template, 0, &details, Some(&detect), &[]);
        assert!(result.detection.as_ref().is_some_and(|d| d.pass_through));
        assert_eq!(result.regions.len(), 1);
        let prepared = &result.regions[0];
        assert_eq!(prepared.extract_offsets, classic.extract_offsets);
        assert_eq!(result.extract_offsets(), classic.extract_offsets);
        assert_eq!(prepared.used_whole_page, classic.used_whole_page);
        assert_eq!(prepared.observations.len(), classic.observations.len());
    }

    /// A panicking solver fails its own result and the page, but the
    /// other segmenter's result and the page's timings stay intact.
    #[test]
    fn solver_panic_fails_one_segmenter_not_the_page_run() {
        let (a, b, details) = two_page_site();
        let template = SiteTemplate::build(&[&a, &b]);
        let csp = CspSegmenter::default();
        let result = run_page(&template, 0, &details, None, &[&Panicking, &csp]);
        let expected = SegError::SolverFailed {
            solver: "panicking",
            detail: "solver bug".into(),
        };
        assert_eq!(result.solved[0].as_ref().unwrap_err(), &expected);
        assert_eq!(result.outcome, PageOutcome::Failed { error: expected });
        assert_eq!(result.outcome.error().map(SegError::stage), Some("solve"));
        let alone = csp.segment(&result.regions[0].observations);
        let solved = result.solved[1].as_ref().expect("the CSP still solves");
        assert_eq!(solved.segmentation, alone.segmentation);
        for stage in [Stage::Tokenize, Stage::Matching, Stage::Solve] {
            assert!(result.timings.get(stage) > std::time::Duration::ZERO);
        }
        assert!(result.timings.get(Stage::SolveCsp) > std::time::Duration::ZERO);
        let csp_solve = solved.solver_times.get(Stage::Solve);
        assert!(csp_solve > std::time::Duration::ZERO);
        assert!(csp_solve <= result.timings.get(Stage::Solve));
    }

    #[test]
    fn failed_front_end_fails_every_segmenter() {
        let (a, b, details) = two_page_site();
        let template = SiteTemplate::build(&[&a, &b]);
        let csp = CspSegmenter::default();
        let result = run_page(&template, 5, &details, None, &[&csp, &csp]);
        let error = SegError::TargetOutOfBounds {
            target: 5,
            pages: 2,
        };
        assert_eq!(
            result.outcome,
            PageOutcome::Failed {
                error: error.clone()
            }
        );
        assert!(result.regions.is_empty());
        assert_eq!(result.solved.len(), 2);
        for solved in &result.solved {
            assert_eq!(solved.as_ref().err(), Some(&error));
        }
    }
}
