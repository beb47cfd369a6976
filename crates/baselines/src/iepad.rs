//! An IEPAD-style segmenter (Chang & Lui, WWW 2001): discover the maximal
//! repeated HTML tag sequence on the page and cut record boundaries at its
//! occurrences.
//!
//! The paper's assessment: "Although they show good performance in this
//! domain [search-engine pages], search engine pages are much simpler than
//! HTML pages containing tables that are typically found on the Web. We
//! have tried a similar approach and found that it had limited utility"
//! (Section 2.1).

use std::collections::HashMap;

use tableseg_html::lexer::{is_closing, tag_name, tokenize};
use tableseg_html::Token;

use crate::BaselineSegmentation;

/// Minimum number of repetitions for a tag pattern to count as a row
/// separator.
const MIN_REPEATS: usize = 3;

/// Maximum pattern length (in tags) considered.
const MAX_PATTERN: usize = 14;

/// Segments a page by its most frequent maximal repeated tag sequence.
pub fn segment(html: &str) -> BaselineSegmentation {
    let tokens = tokenize(html);
    // IEPAD's PAT-tree alphabet is bare tag symbols: attributes (per-row
    // hrefs and the like) are stripped before pattern discovery.
    let canonical: Vec<(usize, String)> = tokens
        .iter()
        .filter(|t| t.is_html())
        .map(|t| {
            let sym = if is_closing(&t.text) {
                format!("</{}>", tag_name(&t.text))
            } else {
                format!("<{}>", tag_name(&t.text))
            };
            (t.offset, sym)
        })
        .collect();
    let tags: Vec<(usize, &str)> = canonical
        .iter()
        .map(|(off, s)| (*off, s.as_str()))
        .collect();
    if tags.len() < MIN_REPEATS {
        return BaselineSegmentation {
            records: Vec::new(),
        };
    }

    // Count n-gram occurrences of tag sequences, longest first; prefer
    // longer patterns with at least MIN_REPEATS non-overlapping hits,
    // breaking ties by total coverage (count * length).
    let mut best: Option<(Vec<&str>, Vec<usize>)> = None;
    let mut best_score = 0usize;
    for len in (1..=MAX_PATTERN.min(tags.len())).rev() {
        // Patterns in order of first occurrence, so an equal-score tie goes
        // to the earliest pattern on the page on every run.
        let mut index: HashMap<Vec<&str>, usize> = HashMap::new();
        let mut patterns: Vec<(Vec<&str>, Vec<usize>)> = Vec::new();
        for w in tags.windows(len) {
            let key: Vec<&str> = w.iter().map(|&(_, t)| t).collect();
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                patterns.push((key, Vec::new()));
                patterns.len() - 1
            });
            patterns[slot].1.push(w[0].0);
        }
        for (pat, starts) in patterns {
            let non_overlapping = non_overlapping_count(&starts, len, &tags);
            if non_overlapping >= MIN_REPEATS {
                let score = non_overlapping * len;
                if score > best_score {
                    best_score = score;
                    best = Some((pat, starts));
                }
            }
        }
        if best.is_some() {
            break; // longest qualifying pattern wins
        }
    }

    let Some((_, starts)) = best else {
        return BaselineSegmentation {
            records: Vec::new(),
        };
    };

    // Records = regions between consecutive pattern occurrences that
    // contain visible text.
    let mut records = Vec::new();
    for w in starts.windows(2) {
        let range = w[0]..w[1];
        if has_text(&tokens, &range) {
            records.push(range);
        }
    }
    // The tail after the final occurrence.
    if let Some(&last) = starts.last() {
        let range = last..html.len();
        if has_text(&tokens, &range) {
            records.push(range);
        }
    }
    BaselineSegmentation { records }
}

fn has_text(tokens: &[Token], range: &std::ops::Range<usize>) -> bool {
    tokens
        .iter()
        .any(|t| t.is_text() && range.contains(&t.offset))
}

/// Number of non-overlapping occurrences of a pattern of `len` tags,
/// measured in tag positions.
fn non_overlapping_count(starts: &[usize], len: usize, tags: &[(usize, &str)]) -> usize {
    // Map byte offsets back to tag indices for overlap arithmetic.
    let index_of: HashMap<usize, usize> = tags
        .iter()
        .enumerate()
        .map(|(i, &(off, _))| (off, i))
        .collect();
    let mut count = 0;
    let mut next_free = 0;
    for &s in starts {
        let idx = index_of[&s];
        if idx >= next_free {
            count += 1;
            next_free = idx + len;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_rows_found() {
        let html = "<table>\
            <tr><td>Ada Lovelace</td><td>One</td></tr>\
            <tr><td>Alan Turing</td><td>Two</td></tr>\
            <tr><td>Grace Hopper</td><td>Three</td></tr>\
            <tr><td>Edsger Dijkstra</td><td>Four</td></tr>\
            </table>";
        let seg = segment(html);
        assert!(seg.len() >= 3, "{seg:?}");
        assert!(html[seg.records[0].clone()].contains("Ada"));
    }

    #[test]
    fn too_few_repeats_yield_nothing() {
        let seg = segment("<p>just one block of text</p>");
        assert!(seg.is_empty());
    }

    #[test]
    fn irregular_rows_confuse_the_pattern() {
        // Alternating formats (the disjunction case): the maximal repeated
        // sequence only matches one variant, so half the records are
        // merged or lost — the failure the paper predicts.
        let html = "<div>\
            <p><b>Ada</b><br>addr1</p><hr>\
            <p><b>Alan</b><br><font color=gray>no address</font></p><hr>\
            <p><b>Grace</b><br>addr3</p><hr>\
            <p><b>Edsger</b><br><font color=gray>no address</font></p><hr>\
            </div>";
        let seg = segment(html);
        // It finds *something*, but not the 4 true records.
        assert_ne!(seg.len(), 4, "{seg:?}");
    }

    #[test]
    fn tied_patterns_pick_the_same_one_every_run() {
        // `<b></b>` and `<i></i>` both repeat three times with the same
        // length: an exact score tie, which goes to the earlier pattern.
        let html = "<b>x</b><b>y</b><b>z</b><i>u</i><i>v</i><i>w</i>";
        let first = segment(html);
        assert!(html[first.records[0].clone()].contains('x'), "{first:?}");
        for _ in 0..32 {
            assert_eq!(segment(html).records, first.records);
        }
    }

    #[test]
    fn empty_page() {
        assert!(segment("").is_empty());
    }
}
