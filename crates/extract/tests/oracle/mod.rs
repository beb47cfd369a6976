//! The naive extract matcher: the differential oracle for the indexed
//! production matcher ([`PageIndex`], [`match_extracts_indexed`]).
//!
//! The original clone-and-scan string matcher: each page is reduced to
//! its non-separator token texts and every extract is scanned over every
//! page. Test binaries include it with `mod oracle;`; the crate's unit
//! tests include the same file.
//!
//! [`PageIndex`]: tableseg_extract::PageIndex
//! [`match_extracts_indexed`]: tableseg_extract::match_extracts_indexed

#![allow(dead_code)]

use tableseg_extract::filter::{decide, Decision};
use tableseg_extract::observations::{ObsItem, Observations, PagePos, SkippedExtract};
use tableseg_extract::separator::is_separator;
use tableseg_extract::Extract;
use tableseg_html::Token;

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
/// no memoization.
pub fn match_extracts_naive(
    extracts: Vec<Extract>,
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
        let texts = extract.token_texts();
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
            Decision::Keep => items.push(ObsItem::new(extract, pages, positions)),
            Decision::Skip(reason) => skipped.push(SkippedExtract { extract, reason }),
        }
    }

    Observations {
        num_records: detail_pages.len(),
        items,
        skipped,
    }
}
