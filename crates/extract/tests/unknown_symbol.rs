//! Regression: a detail page whose vocabulary is entirely absent from the
//! site interner (every token projects to `UNKNOWN_SYMBOL`) must yield
//! empty occurrence sets — no match, no index-probe panic. This is the
//! shape a chaos-blanked or 404-replaced detail page takes after
//! projection through the read-only site interner.

use tableseg_extract::filter::SkipReason;
use tableseg_extract::{derive_extracts, match_extracts_indexed, PageIndex};
use tableseg_html::{scan, Interner, UNKNOWN_SYMBOL};

#[test]
fn all_unknown_detail_page_yields_empty_occurrence_sets() {
    // Intern only the list page; the detail page shares no token with it
    // (not even tags), so its whole stream projects to UNKNOWN_SYMBOL.
    let mut interner = Interner::new();
    let (list_syms, list_spans) = interner.intern_page("<td>Ada Lovelace</td><td>Alan Turing</td>");
    let detail = "<div>completely disjoint vocabulary 404</div>";
    let index = PageIndex::from_scanned(&scan(detail), detail, &interner);

    // The projected stream is all-UNKNOWN, and the index keeps UNKNOWN out
    // of its occurrence lists entirely.
    assert!(index.symbols().iter().all(|&s| s == UNKNOWN_SYMBOL));
    assert!(!index.contains(&[UNKNOWN_SYMBOL]));

    // Probing with every real extract of the list page: no hit, no panic.
    let extracts = derive_extracts(&list_syms, &list_spans, &interner);
    assert!(!extracts.is_empty());
    for e in &extracts {
        let needle = e.symbols(&list_syms);
        assert!(index.find_all(needle).is_empty());
        assert!(!index.contains(needle));
    }

    // Through the production matcher: every extract's D_i is empty, so
    // every extract is skipped (observed on no detail page) and the
    // observation table is empty — degraded, not crashed.
    let obs = match_extracts_indexed(extracts, &list_syms, &[], &[&index]);
    assert!(obs.items.is_empty());
    assert!(!obs.skipped.is_empty());
    assert!(obs
        .skipped
        .iter()
        .all(|s| s.reason == SkipReason::OnNoDetailPage));
}

#[test]
fn empty_detail_page_index_is_probe_safe() {
    // The fully blank variant: zero tokens at all.
    let mut interner = Interner::new();
    let (list_syms, list_spans) = interner.intern_page("<td>Ada Lovelace</td>");
    let index = PageIndex::from_scanned(&scan(""), "", &interner);
    assert!(index.is_empty());

    let extracts = derive_extracts(&list_syms, &list_spans, &interner);
    let obs = match_extracts_indexed(extracts, &list_syms, &[], &[&index]);
    assert!(obs.items.is_empty());
}
