//! Slots: the page sections that are not part of the page template.

use std::ops::Range;

use tableseg_html::{Interner, Symbol, TokenType};

/// One slot: for each example page, the token range that fills the gap
/// between two consecutive template anchors (or before the first / after
/// the last anchor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Slot index: slot `i` is the gap *before* template token `i`;
    /// slot `template_len` is the gap after the last template token.
    pub index: usize,
    /// Per-page token ranges filling this slot.
    pub ranges: Vec<Range<usize>>,
}

impl Slot {
    /// Total number of visible-text (non-tag) tokens across all pages in
    /// this slot, reading each symbol's types through `interner`.
    pub fn text_token_count(&self, streams: &[Vec<Symbol>], interner: &Interner) -> usize {
        self.ranges
            .iter()
            .zip(streams)
            .map(|(r, page)| {
                page[r.clone()]
                    .iter()
                    .filter(|&&s| !interner.types(s).contains(TokenType::Html))
                    .count()
            })
            .sum()
    }

    /// Returns `true` if the slot is empty on every page.
    pub fn is_empty(&self) -> bool {
        self.ranges.iter().all(|r| r.is_empty())
    }
}

/// All slots derived from a template over a set of pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSet {
    /// Slots in page order. There are `template_len + 1` of them.
    pub slots: Vec<Slot>,
}

impl SlotSet {
    /// The index of the slot containing the most text tokens — the paper's
    /// table-slot heuristic ("we use a heuristic that the table will be
    /// found in the slot that contains the largest number of text tokens").
    ///
    /// Returns `None` if every slot is empty of text.
    pub fn table_slot(&self, streams: &[Vec<Symbol>], interner: &Interner) -> Option<usize> {
        self.slots
            .iter()
            .map(|s| s.text_token_count(streams, interner))
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(_, n)| n)
            .map(|(i, _)| i)
    }

    /// Number of slots that are non-empty on at least one page.
    pub fn non_empty_count(&self) -> usize {
        self.slots.iter().filter(|s| !s.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intern(pages: &[&str]) -> (Vec<Vec<Symbol>>, Interner) {
        let mut interner = Interner::new();
        let streams = pages.iter().map(|p| interner.intern_page(p).0).collect();
        (streams, interner)
    }

    #[test]
    fn token_counts() {
        let (pages, interner) = intern(&["<b>a b c</b>", "<b>x</b>"]);
        let slot = Slot {
            index: 0,
            ranges: vec![1..4, 1..2],
        };
        assert_eq!(slot.text_token_count(&pages, &interner), 4);
        assert!(!slot.is_empty());
    }

    #[test]
    fn empty_slot() {
        let slot = Slot {
            index: 3,
            ranges: vec![2..2, 5..5],
        };
        assert!(slot.is_empty());
    }

    #[test]
    fn table_slot_picks_largest_text_slot() {
        let (pages, interner) = intern(&["h <td>one two three</td> f", "h <td>x y</td> f"]);
        // Construct a slot set manually: slot 0 = header word, slot 1 = cell
        // contents, slot 2 = footer word.
        let set = SlotSet {
            slots: vec![
                Slot {
                    index: 0,
                    ranges: vec![0..1, 0..1],
                },
                Slot {
                    index: 1,
                    ranges: vec![2..5, 2..4],
                },
                Slot {
                    index: 2,
                    ranges: vec![6..7, 5..6],
                },
            ],
        };
        assert_eq!(set.table_slot(&pages, &interner), Some(1));
        assert_eq!(set.non_empty_count(), 3);
    }

    #[test]
    fn table_slot_none_when_all_empty() {
        let pages: Vec<Vec<Symbol>> = vec![vec![], vec![]];
        let set = SlotSet {
            slots: vec![Slot {
                index: 0,
                ranges: vec![0..0, 0..0],
            }],
        };
        assert_eq!(set.table_slot(&pages, &Interner::new()), None);
    }
}
