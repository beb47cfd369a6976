//! Extracts: maximal separator-free token runs — "all visible strings in
//! the table".

use std::ops::Range;

use serde::{Deserialize, Serialize};
use tableseg_html::{Interner, Symbol, Token};

use crate::separator::is_separator;

/// One extract: a contiguous sequence of non-separator tokens from the list
/// page's table slot. Extracts are *occurrences* — the same string appearing
/// twice in the stream yields two distinct extracts (E₁ and E₅ in the
/// paper's Superpages example are both "John Smith").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Extract {
    /// Index of the extract in stream order (0-based; the paper's `E₁` is
    /// index 0).
    pub index: usize,
    /// The tokens making up the extract.
    pub tokens: Vec<Token>,
    /// Index of the first token of this extract within the symbol slice
    /// the extracts were derived from.
    pub start: usize,
}

impl Extract {
    /// The token texts, used as the match key against detail pages.
    pub fn token_texts(&self) -> Vec<&str> {
        self.tokens.iter().map(|t| t.text.as_str()).collect()
    }

    /// A human-readable rendering: tokens joined with single spaces.
    pub fn text(&self) -> String {
        self.token_texts().join(" ")
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the extract has no tokens (never produced by
    /// [`derive_extracts`]).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Splits a symbol stream (the table slot of an interned page) into
/// extracts: maximal runs of non-separator tokens.
///
/// `spans[i]` is the byte range of token `i` in the page (see
/// [`Interner::intern_page`]); texts and types are read through
/// `interner`. Only the extracts' own tokens are materialized.
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
        while i < syms.len() && !separator(syms[i]) {
            i += 1;
        }
        let tokens = (start..i)
            .map(|j| Token {
                text: interner.text(syms[j]).to_owned(),
                types: interner.types(syms[j]),
                offset: spans[j].start as usize,
            })
            .collect();
        out.push(Extract {
            index: out.len(),
            tokens,
            start,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn derive(html: &str) -> Vec<Extract> {
        let mut interner = Interner::new();
        let (syms, spans) = interner.intern_page(html);
        derive_extracts(&syms, &spans, &interner)
    }

    #[test]
    fn tags_split_extracts() {
        let ex = derive("<td>John Smith</td><td>New Holland</td>");
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].text(), "John Smith");
        assert_eq!(ex[1].text(), "New Holland");
        assert_eq!(ex[0].index, 0);
        assert_eq!(ex[1].index, 1);
    }

    #[test]
    fn allowed_punctuation_stays_inside() {
        let ex = derive("<td>(740) 335-5555</td>");
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].text(), "( 740 ) 335 - 5555");
        assert_eq!(ex[0].len(), 6);
    }

    #[test]
    fn special_punctuation_splits() {
        let ex = derive("John Smith ~ New Holland");
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].text(), "John Smith");
        assert_eq!(ex[1].text(), "New Holland");
    }

    #[test]
    fn city_state_zip_is_one_extract() {
        let ex = derive("<td>Findlay, OH 45840</td>");
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].text(), "Findlay , OH 45840");
    }

    #[test]
    fn starts_record_token_positions() {
        let html = "<td>A</td><td>B C</td>";
        let ex = derive(html);
        assert_eq!(ex[0].start, 1);
        assert_eq!(ex[1].start, 4);
        assert_eq!(ex[1].tokens[0].text, "B");
        assert_eq!(&html[ex[1].tokens[0].offset..], "B C</td>");
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
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].text(), "FirstName LastName");
    }

    #[test]
    fn token_texts_borrows() {
        let ex = derive("<td>a b</td>");
        assert_eq!(ex[0].token_texts(), vec!["a", "b"]);
    }
}
