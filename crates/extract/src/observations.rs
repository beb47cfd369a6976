//! The observation table: `D_i` and positions for every kept extract
//! (the paper's Table 1 and Table 3).
//!
//! Matching runs in the interned-symbol domain
//! ([`match_extracts_indexed`]): each page is reduced and indexed once
//! ([`PageIndex`]), needles are the extracts' ranges of the slot stream,
//! and repeated extracts (the paper's E₁/E₅ "John Smith") are matched once
//! and memoized. The original string-scanning implementation is kept in
//! the test suite (`tests/oracle`) as the differential oracle.

use serde::{Deserialize, Serialize};
use tableseg_html::{scan, FastMap, Interner, Symbol};

use crate::extracts::{derive_extracts, Extract};
use crate::filter::{decide, Decision, SkipReason};
use crate::matcher::PageIndex;

/// One observation of an extract on a detail page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PagePos {
    /// Detail-page index (0-based; the paper's `r₁` is page 0).
    pub page: u32,
    /// Starting token number within the detail page's reduced
    /// (separator-free) stream.
    pub pos: u32,
}

/// One row of the observation table: an extract with its detail-page
/// occurrence set `D_i` and observation positions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsItem {
    /// The extract.
    pub extract: Extract,
    /// `D_i`: sorted, deduplicated indices of the detail pages on which the
    /// extract occurs. Never empty for a kept extract.
    pub pages: Vec<u32>,
    /// Every `(page, position)` at which the extract was observed.
    pub positions: Vec<PagePos>,
}

impl ObsItem {
    /// Returns `true` if the extract was observed on detail page `page`.
    pub fn on_page(&self, page: u32) -> bool {
        self.pages.binary_search(&page).is_ok()
    }
}

/// An extract excluded from the observation table, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedExtract {
    /// The extract.
    pub extract: Extract,
    /// Why it was skipped.
    pub reason: SkipReason,
}

/// The observation table for one list page (the paper's Table 1, with the
/// position data of Table 3).
#[derive(Debug, Clone)]
pub struct Observations {
    /// `K`: the number of detail pages, i.e. the number of records.
    pub num_records: usize,
    /// Kept extracts in list-page stream order.
    pub items: Vec<ObsItem>,
    /// Extracts excluded by the filtering rules, in stream order, for later
    /// remainder assignment.
    pub skipped: Vec<SkippedExtract>,
}

impl Observations {
    /// Number of kept extracts.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no extract survived filtering.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders the observation table in the format of the paper's Table 1
    /// (columns = extracts in stream order, row = `D_i`). `slot` is the
    /// symbol stream the extracts were derived from, read through
    /// `interner`.
    pub fn render_table(&self, slot: &[Symbol], interner: &Interner) -> String {
        let mut header = String::from("|    |");
        let mut row = String::from("| D_i |");
        for (i, item) in self.items.iter().enumerate() {
            let text = item.extract.text(slot, interner);
            header.push_str(&format!(" E{}: {text} |", i + 1));
            let pages: Vec<String> = item.pages.iter().map(|p| format!("r{}", p + 1)).collect();
            row.push_str(&format!(" {} |", pages.join(",")));
        }
        format!("{header}\n{row}\n")
    }
}

/// Builds the observation table of one list page, the whole page taken
/// as the table slot.
///
/// * `list_page` — HTML of the list page;
/// * `other_list_pages` — HTML of the *other* sample list pages, used by
///   the all-list-pages filter;
/// * `detail_pages` — HTML of the detail pages, in record order
///   (`detail_pages[j]` is the page reached from record `r_{j+1}`).
///
/// One-shot form of the pipeline's front end: the list page is scanned
/// and interned, its extracts derived from the symbol stream, the other
/// pages scanned and indexed through that interner read-only
/// ([`PageIndex::from_scanned`]), and [`match_extracts_indexed`] matches
/// them. Batch callers that already interned the site's pages index them
/// once per site and call [`match_extracts_indexed`] themselves.
pub fn build_observations(
    list_page: &str,
    other_list_pages: &[&str],
    detail_pages: &[&str],
) -> Observations {
    let mut interner = Interner::new();
    let (slot, spans) = interner.intern_page(list_page);
    let extracts = derive_extracts(&slot, &spans, &interner);
    let index = |pages: &[&str]| -> Vec<PageIndex> {
        pages
            .iter()
            .map(|p| PageIndex::from_scanned(&scan(p), p, &interner))
            .collect()
    };
    let (details, others) = (index(detail_pages), index(other_list_pages));
    let detail_refs: Vec<&PageIndex> = details.iter().collect();
    let other_refs: Vec<&PageIndex> = others.iter().collect();
    match_extracts_indexed(extracts, &slot, &other_refs, &detail_refs)
}

/// The match outcome of one distinct needle, memoized across duplicate
/// extracts (the same string appearing twice yields two extracts with
/// identical observations — the paper's E₁ and E₅).
#[derive(Clone)]
struct NeedleMatch {
    pages: Vec<u32>,
    positions: Vec<PagePos>,
    decision: Decision,
}

/// The indexed matcher core: observes extracts on the pre-indexed detail
/// pages and filters against the pre-indexed other list pages.
///
/// `slot` is the symbol stream the extracts were derived from, under the
/// same interner the [`PageIndex`]es were built against; each extract's
/// range of it is its needle (an extract is a separator-free run, so its
/// reduced form is the run itself). Every page is
/// scanned only at index-construction time; per extract, matching probes
/// the first-symbol bucket of each page. Results — `D_i` ascending,
/// positions in `(page, pos)` order — are byte-identical to the naive
/// per-extract string scan the test suite keeps as its oracle.
pub fn match_extracts_indexed(
    extracts: Vec<Extract>,
    slot: &[Symbol],
    other_list_pages: &[&PageIndex],
    detail_pages: &[&PageIndex],
) -> Observations {
    let num_details = detail_pages.len();
    let mut memo: FastMap<&[Symbol], NeedleMatch> = FastMap::default();

    let mut items = Vec::new();
    let mut skipped = Vec::new();
    for extract in extracts {
        let needle = extract.symbols(slot);
        let m = memo.entry(needle).or_insert_with(|| {
            let mut pages = Vec::new();
            let mut positions = Vec::new();
            for (j, index) in detail_pages.iter().enumerate() {
                let before = positions.len();
                index.for_each_match(needle, |pos| {
                    positions.push(PagePos {
                        page: j as u32,
                        pos,
                    });
                    true
                });
                if positions.len() > before {
                    pages.push(j as u32);
                }
            }
            let decision = decide(pages.len(), num_details, || {
                !other_list_pages.is_empty()
                    && other_list_pages.iter().all(|idx| idx.contains(needle))
            });
            NeedleMatch {
                pages,
                positions,
                decision,
            }
        });
        match m.decision {
            Decision::Keep => items.push(ObsItem {
                extract,
                pages: m.pages.clone(),
                positions: m.positions.clone(),
            }),
            Decision::Skip(reason) => skipped.push(SkippedExtract { extract, reason }),
        }
    }

    Observations {
        num_records: num_details,
        items,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_html::lexer::tokenize;

    /// The text of an extract of the whole page `list`, read through a
    /// fresh interning of the page (interning is deterministic, so the
    /// symbols are those `build_observations` derived it from).
    fn text(list: &str, e: &Extract) -> String {
        let mut interner = Interner::new();
        let (slot, _) = interner.intern_page(list);
        e.text(&slot, &interner)
    }

    /// A miniature of the paper's Superpages example (Table 1): two records
    /// sharing a name and a phone number, plus a third record.
    fn superpages_fixture() -> (&'static str, Vec<&'static str>) {
        let list = "<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>\
             <tr><td>John Smith</td><td>221R Washington</td><td>Washington</td><td>(740) 335-5555</td></tr>\
             <tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>";
        let details = vec![
            "<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>",
            "<h1>John Smith</h1><p>221R Washington</p><p>Washington</p><p>(740) 335-5555</p>",
            "<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>",
        ];
        (list, details)
    }

    #[test]
    fn paper_table_1_shape() {
        let (list, details) = superpages_fixture();
        let obs = build_observations(list, &[], &details);
        assert_eq!(obs.num_records, 3);
        // 11 extracts kept, as in Table 1 of the paper.
        assert_eq!(obs.len(), 11);
        // E1 = "John Smith" observed on r1 and r2.
        assert_eq!(text(list, &obs.items[0].extract), "John Smith");
        assert_eq!(obs.items[0].pages, vec![0, 1]);
        // E2 = "221 Washington" observed only on r1.
        assert_eq!(obs.items[1].pages, vec![0]);
        // E4 = phone number observed on r1 and r2.
        assert_eq!(obs.items[3].pages, vec![0, 1]);
        // E5 = second "John Smith" occurrence, same D_i as E1.
        assert_eq!(text(list, &obs.items[4].extract), "John Smith");
        assert_eq!(obs.items[4].pages, vec![0, 1]);
        // E9..E11 observed only on r3.
        for item in &obs.items[8..] {
            assert_eq!(item.pages, vec![2]);
        }
    }

    #[test]
    fn shared_extracts_have_multiple_positions() {
        let (list, details) = superpages_fixture();
        let obs = build_observations(list, &[], &details);
        // "John Smith" occurs once on r1 and once on r2: 2 observations.
        assert_eq!(obs.items[0].positions.len(), 2);
        let pages: Vec<u32> = obs.items[0].positions.iter().map(|p| p.page).collect();
        assert_eq!(pages, vec![0, 1]);
        // E1 and E5 (same string) share the same observations.
        assert_eq!(obs.items[0].positions, obs.items[4].positions);
    }

    #[test]
    fn indexed_agrees_with_naive_on_superpages() {
        let (list, details) = superpages_fixture();
        let fast = build_observations(list, &[], &details);
        let tokens = tokenize(list);
        let extracts = crate::oracle::derive_extracts_tokens(&tokens);
        let detail_tokens: Vec<_> = details.iter().map(|d| tokenize(d)).collect();
        let detail_refs: Vec<&[_]> = detail_tokens.iter().map(Vec::as_slice).collect();
        let naive = crate::oracle::match_extracts_naive(extracts, &tokens, &[], &detail_refs);
        assert_eq!(fast.items, naive.items);
        assert_eq!(fast.skipped, naive.skipped);
        assert_eq!(fast.num_records, naive.num_records);
    }

    #[test]
    fn extraneous_strings_are_skipped() {
        let list = "<td>John Smith</td><td>More Info</td>";
        let d1 = "<h1>John Smith</h1>";
        let d2 = "<h1>Jane Doe</h1>";
        let obs = build_observations(list, &[], &[d1, d2]);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs.skipped.len(), 1);
        assert_eq!(text(list, &obs.skipped[0].extract), "More Info");
        assert_eq!(obs.skipped[0].reason, SkipReason::OnNoDetailPage);
    }

    #[test]
    fn value_on_every_detail_page_is_skipped() {
        let list = "<td>Springfield</td><td>John</td>";
        let d1 = "<p>John</p><p>Springfield</p>";
        let d2 = "<p>Jane</p><p>Springfield</p>";
        let obs = build_observations(list, &[], &[d1, d2]);
        assert_eq!(obs.len(), 1);
        assert_eq!(text(list, &obs.items[0].extract), "John");
        assert_eq!(obs.skipped[0].reason, SkipReason::OnAllDetailPages);
    }

    #[test]
    fn extract_on_every_list_page_is_skipped() {
        let list = "<td>Search Again</td><td>John</td>";
        let other1 = "<p>Search Again</p><p>Alice</p>";
        let other2 = "<p>x</p><p>Search Again</p>";
        let d1 = "<p>John</p><p>Search Again</p>";
        let d2 = "<p>Jane</p>";
        let obs = build_observations(list, &[other1, other2], &[d1, d2]);
        assert_eq!(obs.len(), 1);
        assert_eq!(text(list, &obs.items[0].extract), "John");
        assert_eq!(obs.skipped[0].reason, SkipReason::OnAllListPages);
    }

    #[test]
    fn types_are_precomputed_union() {
        use tableseg_html::TokenType;
        let list = "<td>John 42</td>";
        let d1 = "<p>John 42</p>";
        let d2 = "<p>other</p>";
        let obs = build_observations(list, &[], &[d1, d2]);
        assert_eq!(obs.len(), 1);
        let types = obs.items[0].extract.types;
        assert!(types.contains(TokenType::Capitalized));
        assert!(types.contains(TokenType::Numeric));
        assert!(!types.contains(TokenType::Html));
    }

    #[test]
    fn on_page_lookup() {
        let item = ObsItem {
            extract: crate::oracle::derive_extracts_tokens(&tokenize("x"))[0],
            pages: vec![0, 2, 5],
            positions: vec![],
        };
        assert!(item.on_page(0));
        assert!(!item.on_page(1));
        assert!(item.on_page(5));
    }

    #[test]
    fn render_table_mentions_extracts_and_pages() {
        let (list, details) = superpages_fixture();
        let obs = build_observations(list, &[], &details);
        let mut interner = Interner::new();
        let (slot, _) = interner.intern_page(list);
        let table = obs.render_table(&slot, &interner);
        assert!(table.contains("John Smith"));
        assert!(table.contains("r1,r2"));
        assert!(table.contains("r3"));
    }

    #[test]
    fn empty_slot_yields_empty_observations() {
        let obs = build_observations("", &[], &[]);
        assert!(obs.is_empty());
        assert_eq!(obs.num_records, 0);
    }
}
