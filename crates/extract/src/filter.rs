//! The extract-filtering rules (Section 3.2).
//!
//! "If an extract appears in all the list pages or in all the detail pages,
//! it is ignored: such extracts will not contribute useful information to
//! the record segmentation task."
//!
//! Extracts that appear on *no* detail page are likewise unusable ("Only
//! the strings that appeared on both list and detail pages were used") but
//! are kept aside so that the pipeline can later attach them to the record
//! of the last assigned extract (Section 6.2).

/// Why an extract was excluded from the observation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The extract appears on every list page (template residue such as
    /// shared headings that survived template finding).
    OnAllListPages,
    /// The extract appears on every detail page (e.g. a field label or a
    /// value shared by every record) and so cannot discriminate records.
    OnAllDetailPages,
    /// The extract appears on no detail page ("More Info" link text,
    /// advertisements, attribute values not repeated on detail pages).
    OnNoDetailPage,
}

/// The decision for one extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep: the extract carries record-discriminating information.
    Keep,
    /// Skip for the given reason.
    Skip(SkipReason),
}

/// Decides whether an extract is kept, given the detail pages on which it
/// was observed and its presence on the site's other list pages.
///
/// `detail_hits` is the number of detail pages containing the extract and
/// `num_details` the total number of detail pages. `on_every_other_list`
/// reports whether the extract occurs on **every** list page other than
/// the one being segmented (it trivially appears on its own page); it must
/// return `false` when there are no other list pages. The closure is only
/// evaluated when the detail-page rules keep the extract, so callers can
/// make the (comparatively expensive) list-page probe lazy.
pub fn decide(
    detail_hits: usize,
    num_details: usize,
    on_every_other_list: impl FnOnce() -> bool,
) -> Decision {
    if detail_hits == 0 {
        return Decision::Skip(SkipReason::OnNoDetailPage);
    }
    if num_details > 1 && detail_hits == num_details {
        return Decision::Skip(SkipReason::OnAllDetailPages);
    }
    if on_every_other_list() {
        return Decision::Skip(SkipReason::OnAllListPages);
    }
    Decision::Keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::PageIndex;
    use tableseg_html::lexer::tokenize;
    use tableseg_html::Interner;

    /// The closure production callers build over the other list pages:
    /// the needle's words are interned, and each page is indexed
    /// read-only through the same interner.
    fn on_all(needle: &str, others: &[&str]) -> bool {
        let mut interner = Interner::new();
        let needle = interner.intern_tokens(&tokenize(needle));
        let others: Vec<PageIndex> = others
            .iter()
            .map(|p| PageIndex::build(&tokenize(p), &interner))
            .collect();
        !others.is_empty() && others.iter().all(|idx| idx.contains(&needle))
    }

    #[test]
    fn keeps_discriminating_extract() {
        assert_eq!(
            decide(1, 3, || on_all("John Smith", &["other page"])),
            Decision::Keep
        );
    }

    #[test]
    fn skips_on_no_detail_page() {
        assert_eq!(
            decide(0, 3, || unreachable!("lazy: not evaluated")),
            Decision::Skip(SkipReason::OnNoDetailPage)
        );
    }

    #[test]
    fn skips_on_all_detail_pages() {
        assert_eq!(
            decide(3, 3, || unreachable!("lazy: not evaluated")),
            Decision::Skip(SkipReason::OnAllDetailPages)
        );
    }

    #[test]
    fn skips_on_all_list_pages() {
        let others = ["Search Again here", "x Search Again"];
        assert_eq!(
            decide(1, 3, || on_all("Search Again", &others)),
            Decision::Skip(SkipReason::OnAllListPages)
        );
    }

    #[test]
    fn kept_when_absent_from_some_list_page() {
        let others = ["John Smith", "nothing relevant"];
        assert_eq!(
            decide(1, 3, || on_all("John Smith", &others)),
            Decision::Keep
        );
    }

    #[test]
    fn no_other_list_pages_never_skips_as_all_lists() {
        assert_eq!(decide(1, 3, || on_all("John", &[])), Decision::Keep);
    }

    #[test]
    fn single_detail_page_not_treated_as_all() {
        // With K = 1 every record extract appears on "all" detail pages;
        // the all-details rule only makes sense for K > 1.
        assert_eq!(decide(1, 1, || false), Decision::Keep);
    }
}
