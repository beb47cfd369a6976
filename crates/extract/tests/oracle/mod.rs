//! The owned-[`Token`] extraction front end: the differential oracle for
//! the production symbol path ([`derive_extracts`], [`PageIndex`],
//! [`match_extracts_indexed`]).
//!
//! * [`derive_extracts_tokens`] and [`index_tokens`] are extract
//!   derivation and page indexing over owned token streams — how the
//!   pipeline ran before list pages became symbol streams;
//! * [`MatchStream`] and [`match_extracts_naive`] are the original
//!   clone-and-scan string matcher: each page is reduced to its
//!   non-separator token texts and every extract is scanned over every
//!   page.
//!
//! Test binaries include it with `mod oracle;` (or a `#[path]`); the
//! crate's unit tests include the same file.
//!
//! [`derive_extracts`]: tableseg_extract::derive_extracts
//! [`PageIndex`]: tableseg_extract::PageIndex
//! [`match_extracts_indexed`]: tableseg_extract::match_extracts_indexed

#![allow(dead_code)]

use tableseg_extract::filter::{decide, Decision};
use tableseg_extract::observations::{ObsItem, Observations, PagePos, SkippedExtract};
use tableseg_extract::separator::is_separator as is_separator_parts;
use tableseg_extract::{Extract, PageIndex};
use tableseg_html::{Interner, Token, TypeSet, UNKNOWN_SYMBOL};

/// The separator test on an owned token.
pub fn is_separator(token: &Token) -> bool {
    is_separator_parts(&token.text, token.types)
}

/// Splits a token stream into extracts: maximal runs of non-separator
/// tokens, `start..start + len` indexing the stream.
pub fn derive_extracts_tokens(tokens: &[Token]) -> Vec<Extract> {
    let mut out: Vec<Extract> = Vec::new();
    let mut run: Option<Extract> = None;
    for (i, tok) in tokens.iter().enumerate() {
        if is_separator(tok) {
            out.extend(run.take());
            continue;
        }
        let e = run.get_or_insert(Extract {
            index: out.len(),
            start: i,
            len: 0,
            offset: tok.offset,
            types: TypeSet::EMPTY,
        });
        e.len += 1;
        e.types = e.types.union(tok.types);
    }
    out.extend(run);
    out
}

/// The texts of an extract's tokens, `slot` being the token stream it was
/// derived from.
pub fn extract_texts<'t>(extract: &Extract, slot: &'t [Token]) -> Vec<&'t str> {
    slot[extract.start..extract.start + extract.len]
        .iter()
        .map(|t| t.text.as_str())
        .collect()
}

/// Indexes a token stream: the non-separator texts, each looked up in
/// `interner` read-only (unseen texts become [`UNKNOWN_SYMBOL`]).
pub fn index_tokens(tokens: &[Token], interner: &Interner) -> PageIndex {
    PageIndex::from_symbols(
        tokens
            .iter()
            .filter(|t| !is_separator(t))
            .map(|t| interner.lookup(&t.text).unwrap_or(UNKNOWN_SYMBOL))
            .collect(),
    )
}

/// A page reduced to its non-separator tokens, the form in which extract
/// matching is performed. Construction is O(page length); each match query
/// is a naive linear scan of the whole reduced stream.
///
/// Simple enough to trust: `PageIndex` must return exactly the same
/// positions.
#[derive(Debug, Clone)]
pub struct MatchStream {
    texts: Vec<String>,
}

impl MatchStream {
    /// Builds the match stream of a page.
    pub fn new(tokens: &[Token]) -> MatchStream {
        MatchStream {
            texts: tokens
                .iter()
                .filter(|t| !is_separator(t))
                .map(|t| t.text.clone())
                .collect(),
        }
    }

    /// Number of matchable tokens.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// True if the page has no matchable tokens.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The token texts.
    pub fn texts(&self) -> &[String] {
        &self.texts
    }

    /// All starting positions (token number within this reduced stream) at
    /// which `needle` occurs as a contiguous run.
    pub fn find_all(&self, needle: &[&str]) -> Vec<usize> {
        if needle.is_empty() || needle.len() > self.texts.len() {
            return Vec::new();
        }
        let mut out = Vec::new();
        'outer: for start in 0..=self.texts.len() - needle.len() {
            for (k, &n) in needle.iter().enumerate() {
                if self.texts[start + k] != n {
                    continue 'outer;
                }
            }
            out.push(start);
        }
        out
    }

    /// Returns `true` if `needle` occurs at least once.
    pub fn contains(&self, needle: &[&str]) -> bool {
        !self.find_all(needle).is_empty()
    }
}

/// The per-extract string scan over [`MatchStream`]s — the oracle for
/// `match_extracts_indexed`: trivially correct, no interning, no index,
/// no memoization. `slot` is the token stream the extracts were derived
/// from.
pub fn match_extracts_naive(
    extracts: Vec<Extract>,
    slot: &[Token],
    other_list_pages: &[&[Token]],
    detail_pages: &[&[Token]],
) -> Observations {
    let detail_streams: Vec<MatchStream> =
        detail_pages.iter().map(|p| MatchStream::new(p)).collect();
    let other_streams: Vec<MatchStream> = other_list_pages
        .iter()
        .map(|p| MatchStream::new(p))
        .collect();

    let mut items = Vec::new();
    let mut skipped = Vec::new();

    for extract in extracts {
        let texts = extract_texts(&extract, slot);
        let mut pages = Vec::new();
        let mut positions = Vec::new();
        for (j, stream) in detail_streams.iter().enumerate() {
            let hits = stream.find_all(&texts);
            if !hits.is_empty() {
                pages.push(j as u32);
                for pos in hits {
                    positions.push(PagePos {
                        page: j as u32,
                        pos: pos as u32,
                    });
                }
            }
        }
        let decision = decide(pages.len(), detail_streams.len(), || {
            !other_streams.is_empty() && other_streams.iter().all(|s| s.contains(&texts))
        });
        match decision {
            Decision::Keep => items.push(ObsItem {
                extract,
                pages,
                positions,
            }),
            Decision::Skip(reason) => skipped.push(SkippedExtract { extract, reason }),
        }
    }

    Observations {
        num_records: detail_pages.len(),
        items,
        skipped,
    }
}
