//! Matching extracts against pages, ignoring intervening separators.
//!
//! Footnote 1 of the paper: "The string matching algorithm ignores
//! intervening separators on detail pages. For example, a string
//! `FirstName LastName` on list page will be matched to
//! `FirstName <br>LastName` on the detail page."
//!
//! Both the extract and the page are reduced to their non-separator tokens;
//! a match is a contiguous run in the reduced page stream. Matching is
//! case-sensitive: the paper reports that a case mismatch between list and
//! detail pages (Minnesota Corrections) breaks matching, and we want to
//! reproduce that behaviour faithfully.
//!
//! [`PageIndex`] interns the reduced stream to [`Symbol`]s and indexes it
//! by first symbol, so a needle is verified only at the positions where
//! its first token actually occurs; each comparison is one integer compare
//! and page text is never cloned. The original clone-and-scan string
//! matcher is kept in the test suite (`tests/oracle`) as its differential
//! oracle and reference semantics.

use tableseg_html::{Interner, ScanTokens, Symbol, UNKNOWN_SYMBOL};

use crate::separator::{is_separator, SeparatorMask};

/// A page reduced to its non-separator **symbols**, with an occurrence
/// index: `occ` holds every `(symbol, position)` pair of the reduced
/// stream, sorted, so the positions of a symbol are one binary search
/// away (and ascend within the run).
///
/// Matching a needle locates the run of its first symbol and verifies
/// the rest symbol-by-symbol, so a page is scanned once at construction
/// and never again — all of a list page's extracts are matched against
/// the page in one pass over it. The flat sorted layout costs a single
/// allocation per page (detail pages are indexed per segmentation call,
/// so per-symbol bucket allocations would dominate on small pages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageIndex {
    syms: Vec<Symbol>,
    occ: Vec<(Symbol, u32)>,
}

impl PageIndex {
    /// Builds the index of a zero-copy scanned page in one pass: each
    /// span is resolved against the page, separator-reduced, and mapped
    /// through `interner` **read-only** — texts the interner has never
    /// seen become [`UNKNOWN_SYMBOL`], which matches nothing. This is how
    /// detail pages enter the symbol domain: extract needles always come
    /// from interned list pages, so the site interner stays immutable
    /// and shareable across batch workers.
    pub fn from_scanned(scanned: &ScanTokens, input: &str, interner: &Interner) -> PageIndex {
        let mut syms = Vec::with_capacity(scanned.len());
        for (text, types, _) in scanned.iter(input) {
            if !is_separator(text, types) {
                syms.push(interner.lookup(text).unwrap_or(UNKNOWN_SYMBOL));
            }
        }
        PageIndex::from_symbols(syms)
    }

    /// Builds the index of an already-interned page stream, reducing it
    /// with the per-symbol separator mask (no string work at all).
    pub fn from_interned(syms: &[Symbol], mask: &SeparatorMask) -> PageIndex {
        let mut reduced = Vec::with_capacity(syms.len());
        for &s in syms {
            if !mask.is_separator(s) {
                reduced.push(s);
            }
        }
        PageIndex::from_symbols(reduced)
    }

    /// Builds the index over a pre-reduced symbol stream.
    pub fn from_symbols(syms: Vec<Symbol>) -> PageIndex {
        let mut occ: Vec<(Symbol, u32)> = Vec::with_capacity(syms.len());
        for (i, &s) in syms.iter().enumerate() {
            if s != UNKNOWN_SYMBOL {
                occ.push((s, i as u32));
            }
        }
        occ.sort_unstable();
        PageIndex { syms, occ }
    }

    /// Number of matchable tokens.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True if the page has no matchable tokens.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// The reduced symbol stream.
    pub fn symbols(&self) -> &[Symbol] {
        &self.syms
    }

    /// All starting positions (token number within the reduced stream) at
    /// which `needle` occurs as a contiguous run, ascending.
    pub fn find_all(&self, needle: &[Symbol]) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_match(needle, |pos| {
            out.push(pos);
            true
        });
        out
    }

    /// Returns `true` if `needle` occurs at least once (early exit).
    pub fn contains(&self, needle: &[Symbol]) -> bool {
        let mut found = false;
        self.for_each_match(needle, |_| {
            found = true;
            false
        });
        found
    }

    /// Calls `hit` with each starting position of `needle`, ascending —
    /// [`PageIndex::find_all`] without the intermediate allocation, for
    /// callers accumulating hits across many pages. `hit` returns whether
    /// to keep scanning.
    pub fn for_each_match(&self, needle: &[Symbol], mut hit: impl FnMut(u32) -> bool) {
        if needle.is_empty() || needle.len() > self.syms.len() || needle.contains(&UNKNOWN_SYMBOL) {
            return;
        }
        let first = needle[0];
        let lo = self.occ.partition_point(|&(s, _)| s < first);
        let limit = (self.syms.len() - needle.len()) as u32;
        for &(s, start) in &self.occ[lo..] {
            if s != first || start > limit {
                // The run is sorted: past the first symbol's occurrences,
                // or past the last position the needle can fit, no later
                // entry matches either.
                break;
            }
            let at = start as usize + 1;
            // Slice equality over symbols compiles to a memcmp.
            if self.syms[at..at + needle.len() - 1] == needle[1..] && !hit(start) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_html::lexer::tokenize;
    use tableseg_html::scan;

    /// Interner over the needle + index over the page, the way production
    /// code pairs them: the needle is interned, the page projected.
    fn indexed(needle_html: &str, page_html: &str) -> (Vec<Symbol>, PageIndex) {
        let mut interner = Interner::new();
        let (syms, _) = interner.intern_page(needle_html);
        let mask = SeparatorMask::build(&interner);
        let needle = syms
            .into_iter()
            .filter(|&s| !mask.is_separator(s))
            .collect();
        let index = PageIndex::from_scanned(&scan(page_html), page_html, &interner);
        (needle, index)
    }

    #[test]
    fn ignores_intervening_tags() {
        // The paper's footnote example.
        let (needle, index) = indexed("FirstName LastName", "FirstName <br>LastName");
        assert!(index.contains(&needle));
    }

    #[test]
    fn ignores_intervening_special_punctuation() {
        let (needle, index) = indexed("John Smith", "Name: John | Smith");
        assert!(index.contains(&needle));
    }

    #[test]
    fn preserves_allowed_punctuation() {
        let (needle, index) = indexed("(740) 335-5555", "(740) 335-5555");
        assert!(index.contains(&needle));
        let (needle, index) = indexed("740 335 5555", "(740) 335-5555");
        assert!(!index.contains(&needle));
    }

    #[test]
    fn case_sensitive() {
        let (needle, index) = indexed("Parole", "PAROLE");
        assert!(!index.contains(&needle));
        let (needle, index) = indexed("PAROLE", "PAROLE");
        assert!(index.contains(&needle));
    }

    #[test]
    fn find_all_positions() {
        let (needle, index) = indexed("a b", "a b a b a");
        assert_eq!(index.find_all(&needle), vec![0, 2]);
        assert_eq!(index.find_all(&needle[..1]), vec![0, 2, 4]);
        let (needle, index) = indexed("b a", "a b a b a");
        assert_eq!(index.find_all(&needle), vec![1, 3]);
    }

    #[test]
    fn needle_longer_than_page() {
        let (needle, index) = indexed("x y", "x");
        assert!(index.find_all(&needle).is_empty());
        assert!(index.find_all(&[]).is_empty());
        assert!(!index.contains(&[]));
    }

    #[test]
    fn positions_index_reduced_stream() {
        // Tags do not count towards positions.
        let (needle, index) = indexed("second", "<html><body>first <b>second</b></body>");
        assert_eq!(index.find_all(&needle), vec![1]);
    }

    #[test]
    fn empty_page() {
        let (needle, index) = indexed("x", "<br><td></td>");
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        assert!(!index.contains(&needle));
    }

    #[test]
    fn unknown_symbols_never_match() {
        let mut interner = Interner::new();
        let needle = vec![interner.intern("known")];
        // Page tokens were never interned → all UNKNOWN_SYMBOL.
        let page = "mystery words here";
        let index = PageIndex::from_scanned(&scan(page), page, &interner);
        assert_eq!(index.len(), 3, "unknown tokens still occupy positions");
        assert!(index.find_all(&needle).is_empty());
        // A needle containing the sentinel matches nothing either, even if
        // the page holds sentinel positions.
        assert!(index.find_all(&[UNKNOWN_SYMBOL]).is_empty());
    }

    #[test]
    fn from_interned_equals_build() {
        let html = "<td>John (740) 335-5555</td> ~ stuff";
        let mut interner = Interner::new();
        let (syms, _) = interner.intern_page(html);
        let mask = SeparatorMask::build(&interner);
        let a = crate::oracle::index_tokens(&tokenize(html), &interner);
        let b = PageIndex::from_interned(&syms, &mask);
        assert_eq!(a.symbols(), b.symbols());
    }

    #[test]
    fn from_scanned_equals_build() {
        // Known words come from the "list page"; the "detail page" mixes
        // known and unknown texts, separators, and an entity decode.
        let mut interner = Interner::new();
        interner.intern_page("<td>John (740) 335-5555</td>");
        for detail in [
            "<td>John AT&amp;T (740) 335-5555</td> ~ stuff",
            "unseen <TR>John</TR> 5555 | words",
            "",
            "~ | only separators <br>",
        ] {
            let a = crate::oracle::index_tokens(&tokenize(detail), &interner);
            let b = PageIndex::from_scanned(&scan(detail), detail, &interner);
            assert_eq!(a.symbols(), b.symbols(), "{detail:?}");
        }
    }
}
