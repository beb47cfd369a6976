//! Template quality diagnostics.
//!
//! "The page template finding algorithm performed poorly on five of the 12
//! sites ... the entries were numbered. Thus, sequences such as `1.` will be
//! found on every page. If the tables are of different lengths, the shortest
//! table will limit what is to be considered a page template ... When we
//! encountered a problem with the page template algorithm, we use the entire
//! page as the table slot." (Section 6.3)
//!
//! [`assess`] computes diagnostics that detect this degenerate shape: when
//! shared in-table tokens (entry numbers, repeated labels) become anchors,
//! the table data is chopped across many small slots, so no single slot
//! dominates the text mass. The pipeline uses [`TemplateQuality::is_usable`]
//! to decide between the induced table slot and the whole-page fallback.

use tableseg_html::{Interner, Symbol};

use crate::induce::Induction;

/// Diagnostics for an induced template over its example pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateQuality {
    /// Number of tokens in the template.
    pub template_len: usize,
    /// Total text tokens across all slots (i.e. all varying page content).
    pub total_slot_text: usize,
    /// Text tokens in the largest slot (the table-slot candidate).
    pub largest_slot_text: usize,
    /// `largest_slot_text / total_slot_text` (0 when there is no text).
    pub largest_slot_fraction: f64,
    /// Number of slots that are non-empty on at least one page.
    pub non_empty_slots: usize,
    /// Number of *significant* slots: slots holding at least
    /// [`SIGNIFICANT_SLOT_TOKENS`] text tokens and at least
    /// [`SIGNIFICANT_SLOT_SHARE`] of all slot text. A healthy template has
    /// one (the table) plus page chrome; numbered entries produce one per
    /// record.
    pub significant_slots: usize,
}

/// Minimum share of the varying text that the table slot must hold for the
/// template to be considered usable. Below this, data is fragmented across
/// slots (the numbered-entries failure mode) and the whole page should be
/// used instead.
pub const MIN_TABLE_SLOT_FRACTION: f64 = 0.5;

/// Minimum template length: shorter templates carry no page structure.
pub const MIN_TEMPLATE_LEN: usize = 4;

/// A slot is significant if it holds at least this many text tokens...
pub const SIGNIFICANT_SLOT_TOKENS: usize = 3;

/// ...and at least this share of all slot text.
pub const SIGNIFICANT_SLOT_SHARE: f64 = 0.05;

/// Maximum number of significant slots for a usable template. The table is
/// one; a couple more cover varying page chrome (result counts, ads). More
/// than that means the table itself was chopped apart.
pub const MAX_SIGNIFICANT_SLOTS: usize = 3;

impl TemplateQuality {
    /// Whether the template is trustworthy enough to use its table slot.
    pub fn is_usable(&self) -> bool {
        self.template_len >= MIN_TEMPLATE_LEN
            && self.total_slot_text > 0
            && self.largest_slot_fraction >= MIN_TABLE_SLOT_FRACTION
            && self.significant_slots <= MAX_SIGNIFICANT_SLOTS
    }
}

/// Assesses an induction result against its example pages' symbol
/// streams, interned through `interner`.
pub fn assess(
    induction: &Induction,
    streams: &[Vec<Symbol>],
    interner: &Interner,
) -> TemplateQuality {
    let slots = induction.slots(streams);
    let per_slot: Vec<usize> = slots
        .slots
        .iter()
        .map(|s| s.text_token_count(streams, interner))
        .collect();
    let total: usize = per_slot.iter().sum();
    let largest = per_slot.iter().copied().max().unwrap_or(0);
    let significant = per_slot
        .iter()
        .filter(|&&n| {
            n >= SIGNIFICANT_SLOT_TOKENS
                && total > 0
                && n as f64 / total as f64 >= SIGNIFICANT_SLOT_SHARE
        })
        .count();
    TemplateQuality {
        template_len: induction.template.len(),
        total_slot_text: total,
        largest_slot_text: largest,
        largest_slot_fraction: if total == 0 {
            0.0
        } else {
            largest as f64 / total as f64
        },
        non_empty_slots: slots.non_empty_count(),
        significant_slots: significant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::induce::induce_with;

    fn page(body: &str) -> String {
        format!(
            "<html><h1>Search Results Page</h1><table>{body}</table><p>Copyright Notice Text Here</p></html>"
        )
    }

    /// Interns the pages, induces their template and assesses it.
    fn assess_pages<S: AsRef<str>>(pages: &[S]) -> (Induction, TemplateQuality, Interner) {
        let mut interner = Interner::new();
        let streams: Vec<Vec<Symbol>> = pages
            .iter()
            .map(|p| interner.intern_page(p.as_ref()).0)
            .collect();
        let ind = induce_with(&streams, &interner).0;
        let q = assess(&ind, &streams, &interner);
        (ind, q, interner)
    }

    #[test]
    fn clean_site_template_is_usable() {
        let (_, q, _) = assess_pages(&[
            page("<tr><td>John Smith</td><td>New Holland</td></tr><tr><td>Mary Major</td><td>Springfield</td></tr>"),
            page("<tr><td>Bob Jones</td><td>Columbus</td></tr><tr><td>Ann Fuller</td><td>Dayton</td></tr>"),
        ]);
        assert!(q.is_usable(), "{q:?}");
        assert!(q.largest_slot_fraction >= 0.5);
    }

    #[test]
    fn numbered_entries_break_the_template() {
        // Numbered entries: "1 ." / "2 ." etc. appear on both pages, so they
        // become template anchors and chop the data into many small slots.
        let (ind, q, interner) = assess_pages(&[
            page("<li>1. Alpha Author One</li><li>2. Beta Author Two</li><li>3. Gamma Author Three</li>"),
            page("<li>1. Delta Other Name</li><li>2. Epsilon More Words</li><li>3. Zeta Third Entry</li>"),
        ]);
        // The entry numbers are anchors...
        let tpl: Vec<&str> = ind
            .template
            .symbols
            .iter()
            .map(|&s| interner.text(s))
            .collect();
        assert!(tpl.contains(&"1"), "{tpl:?}");
        assert!(tpl.contains(&"2"), "{tpl:?}");
        // ...so the data is fragmented and the template is not usable.
        assert!(!q.is_usable(), "{q:?}");
        assert!(q.largest_slot_fraction < MIN_TABLE_SLOT_FRACTION, "{q:?}");
    }

    #[test]
    fn identical_pages_are_unusable() {
        let p = page("<tr><td>Same Data</td></tr>");
        let (_, q, _) = assess_pages(&[p.clone(), p]);
        assert_eq!(q.total_slot_text, 0);
        assert!(!q.is_usable());
    }

    #[test]
    fn tiny_template_is_unusable() {
        let (_, q, _) = assess_pages(&["x a b c d e", "x p q r s t"]);
        assert!(q.template_len < MIN_TEMPLATE_LEN);
        assert!(!q.is_usable());
    }
}
