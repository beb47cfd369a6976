//! Extracts: maximal separator-free token runs — "all visible strings in
//! the table".

use std::ops::Range;

use serde::{Deserialize, Serialize};
use tableseg_html::{Interner, Symbol, TypeSet};

use crate::separator::is_separator;

/// One extract: a contiguous run of non-separator tokens of the list
/// page's table slot, held as its token range of the slot's symbol stream.
/// Extracts are *occurrences* — the same string appearing twice in the
/// stream yields two distinct extracts (E₁ and E₅ in the paper's
/// Superpages example are both "John Smith").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Extract {
    /// Index of the extract in stream order (0-based; the paper's `E₁` is
    /// index 0).
    pub index: usize,
    /// Index of the first token of this extract within the slot's symbol
    /// stream.
    pub start: usize,
    /// Number of tokens; the extract is `slot[start..start + len]`.
    pub len: usize,
    /// Byte offset of the first token in the list page's source.
    pub offset: usize,
    /// `T_i`: the union of the extract's token types.
    pub types: TypeSet,
}

impl Extract {
    /// The extract's symbols: its range of the slot stream it was derived
    /// from.
    pub fn symbols<'s>(&self, slot: &'s [Symbol]) -> &'s [Symbol] {
        &slot[self.start..self.start + self.len]
    }

    /// A human-readable rendering: the token texts, read through the
    /// interner of `slot`, joined with single spaces.
    pub fn text(&self, slot: &[Symbol], interner: &Interner) -> String {
        let texts: Vec<&str> = self
            .symbols(slot)
            .iter()
            .map(|&s| interner.text(s))
            .collect();
        texts.join(" ")
    }
}

/// Splits a symbol stream (the table slot of an interned page) into
/// extracts: maximal runs of non-separator tokens.
///
/// `spans[i]` is the byte range of token `i` in the page (see
/// [`Interner::intern_page`]); texts and types are read through
/// `interner`.
pub fn derive_extracts(syms: &[Symbol], spans: &[Range<u32>], interner: &Interner) -> Vec<Extract> {
    debug_assert_eq!(syms.len(), spans.len(), "one span per symbol");
    let separator = |s: Symbol| is_separator(interner.text(s), interner.types(s));
    let mut out = Vec::new();
    let mut i = 0;
    while i < syms.len() {
        if separator(syms[i]) {
            i += 1;
            continue;
        }
        let start = i;
        let mut types = TypeSet::EMPTY;
        while i < syms.len() && !separator(syms[i]) {
            types = types.union(interner.types(syms[i]));
            i += 1;
        }
        out.push(Extract {
            index: out.len(),
            start,
            len: i - start,
            offset: spans[start].start as usize,
            types,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_html::TokenType;

    /// The extracts of a whole page, with their texts.
    fn derive(html: &str) -> Vec<(Extract, String)> {
        let mut interner = Interner::new();
        let (syms, spans) = interner.intern_page(html);
        derive_extracts(&syms, &spans, &interner)
            .into_iter()
            .map(|e| (e, e.text(&syms, &interner)))
            .collect()
    }

    fn texts(ex: &[(Extract, String)]) -> Vec<&str> {
        ex.iter().map(|(_, t)| t.as_str()).collect()
    }

    #[test]
    fn tags_split_extracts() {
        let ex = derive("<td>John Smith</td><td>New Holland</td>");
        assert_eq!(texts(&ex), ["John Smith", "New Holland"]);
        assert_eq!(ex[0].0.index, 0);
        assert_eq!(ex[1].0.index, 1);
    }

    #[test]
    fn allowed_punctuation_stays_inside() {
        let ex = derive("<td>(740) 335-5555</td>");
        assert_eq!(texts(&ex), ["( 740 ) 335 - 5555"]);
        assert_eq!(ex[0].0.len, 6);
    }

    #[test]
    fn special_punctuation_splits() {
        let ex = derive("John Smith ~ New Holland");
        assert_eq!(texts(&ex), ["John Smith", "New Holland"]);
    }

    #[test]
    fn city_state_zip_is_one_extract() {
        let ex = derive("<td>Findlay, OH 45840</td>");
        assert_eq!(texts(&ex), ["Findlay , OH 45840"]);
        let types = ex[0].0.types;
        for t in [
            TokenType::Capitalized,
            TokenType::Allcaps,
            TokenType::Numeric,
        ] {
            assert!(types.contains(t), "{t:?}");
        }
        assert!(!types.contains(TokenType::Html));
    }

    #[test]
    fn starts_record_token_positions() {
        let html = "<td>A</td><td>B C</td>";
        let ex = derive(html);
        assert_eq!(ex[0].0.start, 1);
        assert_eq!(ex[1].0.start, 4);
        assert_eq!(ex[1].1, "B C");
        assert_eq!(&html[ex[1].0.offset..], "B C</td>");
    }

    #[test]
    fn empty_and_all_separator_streams() {
        assert!(derive("").is_empty());
        assert!(derive("<td></td><br>").is_empty());
        assert!(derive("~ | :").is_empty());
    }

    #[test]
    fn br_separates_fields() {
        let ex = derive("FirstName LastName<br>221 Washington St");
        assert_eq!(texts(&ex), ["FirstName LastName", "221 Washington St"]);
    }

    #[test]
    fn symbols_borrow_the_slot_range() {
        let mut interner = Interner::new();
        let (syms, spans) = interner.intern_page("<td>a b</td>");
        let ex = derive_extracts(&syms, &spans, &interner);
        assert_eq!(ex[0].symbols(&syms), &syms[1..3]);
        let texts: Vec<&str> = ex[0]
            .symbols(&syms)
            .iter()
            .map(|&s| interner.text(s))
            .collect();
        assert_eq!(texts, ["a", "b"]);
    }
}
