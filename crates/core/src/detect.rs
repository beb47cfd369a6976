//! Table-region detection: partitioning an interned list page into
//! candidate table regions and non-table regions before segmentation.
//!
//! The paper's corpus is flat single-table list pages, but real result
//! pages carry more than one listy block: navigation bars, advertisement
//! blocks, footers, and sometimes several independent result tables
//! ("Identifying Web Tables", PAPERS.md). Segmenting such a page as one
//! table conflates unrelated regions; this module finds the table-like
//! blocks first so each can be fed through the prepare/segment pipeline
//! independently ([`crate::run_page`] with detection on).
//!
//! Detection works on the page's interned symbol stream — the same
//! stream template induction uses, with tag texts read back through the
//! site interner — and its token byte ranges, with purely structural
//! features:
//!
//! * **candidate blocks** are the outermost container elements
//!   (`<table>`, `<ul>`, `<ol>`, `<dl>`, `<div>`) in document order;
//! * **rows** are the row-delimiter elements inside a block (`<tr>`,
//!   `<li>`, `<p>`, `<dt>`) — the repeated unit a table template stamps
//!   out;
//! * a block is a **table region** when at least
//!   [`DetectOptions::min_rows`] of its rows carry a link (the paper's
//!   core assumption: each record links to its detail page), the rows'
//!   visible sizes are regular, and the block's text is not dominated by
//!   link anchors;
//! * a block whose rows are links-only is a **navigation** region; any
//!   other block (promo lists, ad blocks, free text) is classified
//!   [`RegionKind::Other`]. Neither is segmented.
//!
//! **Strict pass-through invariant:** when a page yields **at most one**
//! table region, [`detect_regions`] returns exactly one region covering
//! the whole page, flagged [`Detection::pass_through`]. The caller then
//! runs the classic whole-page pipeline unchanged, so every single-table
//! page — the entire paper corpus — produces byte-identical output with
//! detection enabled (`tests/detect_invariance.rs` and the table4 golden
//! enforce this at 1/2/N threads).

use std::ops::Range;

use tableseg_html::{Interner, Symbol, TokenType, TypeSet};

/// Thresholds for classifying candidate blocks. The defaults are tuned so
/// the whole paper corpus (grid, free-form and numbered layouts, promo
/// lists, ad links) stays single-region.
#[derive(Debug, Clone)]
pub struct DetectOptions {
    /// Minimum linked rows for a block to count as a table region.
    pub min_rows: usize,
    /// Maximum fraction of a block's text tokens that may sit inside
    /// `<a>` anchors; blocks above it are navigation, not tables.
    pub max_link_fraction: f64,
    /// Minimum ratio between the smallest and largest row (in visible
    /// tokens) — the row-regularity feature. Rows of wildly different
    /// sizes are not template-stamped records.
    pub min_row_regularity: f64,
}

impl Default for DetectOptions {
    fn default() -> DetectOptions {
        DetectOptions {
            min_rows: 2,
            max_link_fraction: 0.8,
            min_row_regularity: 0.05,
        }
    }
}

/// What a detected region looks like to the rest of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// A candidate result table: regular linked rows. Fed to the
    /// prepare/segment pipeline.
    Table,
    /// A link-dominated block (navigation bar, link footer). Withheld
    /// from segmentation.
    Navigation,
    /// Any other block: promo lists, ad blocks, free text. Withheld from
    /// segmentation.
    Other,
}

/// One detected region of an interned page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// The region's token range in the page's token stream.
    pub tokens: Range<usize>,
    /// The region's byte range in the page's HTML source: from the start
    /// of its first token to the source end of its last.
    pub bytes: Range<usize>,
    /// The region's classification.
    pub kind: RegionKind,
    /// Rows observed inside the region (row-delimiter elements).
    pub rows: usize,
}

/// The result of detecting regions on one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Every classified region, in document order. On a pass-through
    /// page this is exactly one whole-page [`RegionKind::Table`] region.
    pub regions: Vec<Region>,
    /// `true` when at most one table region was found and the page is
    /// passed through whole — the strict no-op guarantee for
    /// single-table pages.
    pub pass_through: bool,
}

impl Detection {
    /// The table regions, in document order.
    pub fn table_regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter().filter(|r| r.kind == RegionKind::Table)
    }
}

const CONTAINER_TAGS: [&str; 5] = ["table", "ul", "ol", "dl", "div"];
const ROW_TAGS: [&str; 4] = ["tr", "li", "p", "dt"];

/// What detection reads of a token: a tag's element name and whether it
/// closes, or `None` for visible text and punctuation.
type Tag<'a> = Option<(&'a str, bool)>;

fn tag(text: &str, types: TypeSet) -> Tag<'_> {
    if !types.contains(TokenType::Html) {
        return None;
    }
    let inner = text.strip_prefix('<').unwrap_or_default();
    let inner = inner.strip_suffix('>').unwrap_or(inner);
    let (closing, inner) = match inner.strip_prefix('/') {
        Some(rest) => (true, rest),
        None => (false, inner),
    };
    let name_end = inner
        .find(|c: char| c.is_whitespace() || c == '/')
        .unwrap_or(inner.len());
    Some((&inner[..name_end], closing))
}

/// Partitions an interned page into table and non-table regions.
///
/// `syms` is the page's symbol stream under `interner`, and `spans[i]`
/// the byte range of token `i` in the page (see
/// [`Interner::intern_page`]).
///
/// Returns the classified outermost container blocks in document order —
/// unless at most one of them is a table, in which case the whole page is
/// returned as a single pass-through table region (see the module docs).
///
/// # Examples
///
/// A page carrying two result tables separated by a navigation bar is
/// split into three regions, two of them tables:
///
/// ```
/// use tableseg::detect::{detect_regions, DetectOptions, RegionKind};
/// use tableseg::html::Interner;
///
/// let page = "<html><body>\
///   <table><tr><td><a href=\"/d/0\">Ada</a></td><td>555-0001</td></tr>\
///           <tr><td><a href=\"/d/1\">Alan</a></td><td>555-0002</td></tr></table>\
///   <ul><li><a href=\"/home\">Home</a></li><li><a href=\"/faq\">FAQ</a></li></ul>\
///   <table><tr><td><a href=\"/d/2\">Grace</a></td><td>555-0003</td></tr>\
///           <tr><td><a href=\"/d/3\">Kurt</a></td><td>555-0004</td></tr></table>\
///   </body></html>";
/// let mut interner = Interner::new();
/// let (syms, spans) = interner.intern_page(page);
/// let detection = detect_regions(&syms, &spans, &interner, &DetectOptions::default());
/// assert!(!detection.pass_through);
/// assert_eq!(detection.table_regions().count(), 2);
/// assert!(detection
///     .regions
///     .iter()
///     .any(|r| r.kind == RegionKind::Navigation));
/// ```
///
/// A single-table page — however much chrome surrounds the table — is
/// passed through whole:
///
/// ```
/// use tableseg::detect::{detect_regions, DetectOptions};
/// use tableseg::html::Interner;
///
/// let page = "<html><h1>Results</h1><table>\
///   <tr><td><a href=\"/d/0\">Ada Lovelace</a></td></tr>\
///   <tr><td><a href=\"/d/1\">Alan Turing</a></td></tr>\
///   </table><p>Copyright 2004</p></html>";
/// let mut interner = Interner::new();
/// let (syms, spans) = interner.intern_page(page);
/// let detection = detect_regions(&syms, &spans, &interner, &DetectOptions::default());
/// assert!(detection.pass_through);
/// assert_eq!(detection.regions.len(), 1);
/// assert_eq!(detection.regions[0].tokens, 0..syms.len());
/// assert_eq!(detection.regions[0].bytes, 0..page.len());
/// ```
pub fn detect_regions(
    syms: &[Symbol],
    spans: &[Range<u32>],
    interner: &Interner,
    opts: &DetectOptions,
) -> Detection {
    let tags: Vec<Tag> = syms
        .iter()
        .map(|&s| tag(interner.text(s), interner.types(s)))
        .collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tags.len() {
        match tags[i] {
            Some((name, false)) if CONTAINER_TAGS.contains(&name) => {
                let end = matching_close(&tags, i, name);
                let (kind, rows) = classify_block(&tags[i..end], opts);
                regions.push(Region {
                    tokens: i..end,
                    bytes: spans[i].start as usize..spans[end - 1].end as usize,
                    kind,
                    rows,
                });
                i = end;
            }
            _ => i += 1,
        }
    }
    let tables = regions
        .iter()
        .filter(|r| r.kind == RegionKind::Table)
        .count();
    if tables <= 1 {
        return Detection {
            regions: vec![Region {
                tokens: 0..syms.len(),
                bytes: 0..spans.last().map_or(0, |s| s.end as usize),
                kind: RegionKind::Table,
                rows: regions.iter().map(|r| r.rows).sum(),
            }],
            pass_through: true,
        };
    }
    Detection {
        regions,
        pass_through: false,
    }
}

/// Index one past the close tag matching the container opened at `open`
/// (balanced same-name counting; an unclosed container runs to the end of
/// the stream, which is how damaged chaos pages stay total).
fn matching_close(tags: &[Tag], open: usize, name: &str) -> usize {
    let mut depth = 0usize;
    for (j, t) in tags.iter().enumerate().skip(open) {
        match *t {
            Some((n, false)) if n == name => depth += 1,
            Some((n, true)) if n == name => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    tags.len()
}

/// Scores one candidate block and classifies it, counting its rows.
fn classify_block(tags: &[Tag], opts: &DetectOptions) -> (RegionKind, usize) {
    let mut rows = 0usize;
    let mut linked_rows = 0usize;
    let mut text_tokens = 0usize;
    let mut link_text_tokens = 0usize;
    let mut link_depth = 0usize;
    // Visible-token size of each row, for the regularity feature.
    let mut row_sizes: Vec<usize> = Vec::new();
    let mut row_linked = false;
    for t in tags {
        match *t {
            Some(("a", true)) => {
                link_depth = link_depth.saturating_sub(1);
            }
            Some(("a", false)) => {
                link_depth += 1;
                if !row_sizes.is_empty() {
                    row_linked = true;
                }
            }
            Some((name, false)) if ROW_TAGS.contains(&name) => {
                if row_linked {
                    linked_rows += 1;
                }
                rows += 1;
                row_sizes.push(0);
                row_linked = false;
            }
            None => {
                text_tokens += 1;
                if link_depth > 0 {
                    link_text_tokens += 1;
                }
                if let Some(size) = row_sizes.last_mut() {
                    *size += 1;
                }
            }
            _ => {}
        }
    }
    if row_linked {
        linked_rows += 1;
    }
    let link_fraction = if text_tokens == 0 {
        0.0
    } else {
        link_text_tokens as f64 / text_tokens as f64
    };
    let regularity = match (
        row_sizes.iter().filter(|&&s| s > 0).min(),
        row_sizes.iter().max(),
    ) {
        (Some(&min), Some(&max)) if max > 0 => min as f64 / max as f64,
        _ => 0.0,
    };
    let kind = if linked_rows >= opts.min_rows
        && link_fraction <= opts.max_link_fraction
        && regularity >= opts.min_row_regularity
    {
        RegionKind::Table
    } else if linked_rows >= opts.min_rows && link_fraction > opts.max_link_fraction {
        RegionKind::Navigation
    } else {
        RegionKind::Other
    };
    (kind, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detect(html: &str) -> Detection {
        let mut interner = Interner::new();
        let (syms, spans) = interner.intern_page(html);
        detect_regions(&syms, &spans, &interner, &DetectOptions::default())
    }

    fn table_block(ids: Range<usize>) -> String {
        let mut rows = String::new();
        for i in ids {
            rows.push_str(&format!(
                "<tr><td><a href=\"/d/{i}\">Person {i}</a></td>\
                 <td>(555) 100-000{i}</td></tr>"
            ));
        }
        format!("<table>{rows}</table>")
    }

    fn nav_block() -> &'static str {
        "<ul><li><a href=\"/home\">Home</a></li>\
         <li><a href=\"/faq\">FAQ</a></li>\
         <li><a href=\"/about\">About Us</a></li></ul>"
    }

    #[test]
    fn single_table_page_passes_through() {
        let html = format!("<html><h1>Results</h1>{}<p>Footer text</p></html>", {
            table_block(0..3)
        });
        let d = detect(&html);
        assert!(d.pass_through);
        assert_eq!(d.regions.len(), 1);
        assert_eq!(d.regions[0].kind, RegionKind::Table);
        assert_eq!(d.regions[0].bytes.start, 0);
        assert_eq!(d.regions[0].bytes.end, html.len());
    }

    #[test]
    fn two_tables_split_into_regions() {
        let html = format!(
            "<html>{}{}{}</html>",
            table_block(0..3),
            nav_block(),
            table_block(3..6)
        );
        let d = detect(&html);
        assert!(!d.pass_through);
        assert_eq!(d.table_regions().count(), 2);
        let kinds: Vec<RegionKind> = d.regions.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![RegionKind::Table, RegionKind::Navigation, RegionKind::Table]
        );
    }

    #[test]
    fn nav_plus_single_table_is_still_pass_through() {
        let html = format!("<html>{}{}</html>", nav_block(), table_block(0..4));
        let d = detect(&html);
        assert!(d.pass_through, "{:?}", d.regions);
        assert_eq!(d.regions.len(), 1);
    }

    #[test]
    fn promo_list_without_links_is_not_a_table() {
        // The paper corpus's "Customers also bought" list: rows, no links.
        let html = format!(
            "<html>{}<ul><li><i>Some Book</i></li><li><i>Another Book</i></li>\
             <li><i>Third Book</i></li></ul>{}</html>",
            table_block(0..3),
            table_block(3..6)
        );
        let d = detect(&html);
        assert!(!d.pass_through);
        assert_eq!(d.table_regions().count(), 2);
        assert!(d.regions.iter().any(|r| r.kind == RegionKind::Other));
    }

    #[test]
    fn region_bytes_cover_their_tables() {
        let html = format!("<html>{}{}</html>", table_block(0..2), table_block(2..4));
        let d = detect(&html);
        for r in d.table_regions() {
            let slice = &html[r.bytes.clone()];
            assert!(slice.starts_with("<table>"), "{slice:?}");
            assert!(slice.ends_with("</table>"), "{slice:?}");
        }
    }

    /// A region ends at the source end of its closing tag, however the
    /// tag is spelled: the tag's normalized text (`</table>`) is shorter
    /// than its source.
    #[test]
    fn region_bytes_end_at_a_normalized_closing_tag() {
        let first = table_block(0..2).replace("</table>", "</table  >");
        let second = table_block(2..4).replace("</table>", "</TABLE\n>");
        let html = format!("<html>{first}<p>between</p>{second}</html>");
        let d = detect(&html);
        let tables: Vec<&str> = d.table_regions().map(|r| &html[r.bytes.clone()]).collect();
        assert_eq!(tables, [first.as_str(), second.as_str()]);
    }

    #[test]
    fn unclosed_container_runs_to_end_without_panicking() {
        let html = "<html><table><tr><td><a href=\"/d/0\">A</a></td>";
        let d = detect(html);
        assert!(d.pass_through);
    }

    #[test]
    fn empty_page_is_one_empty_region() {
        let d = detect("");
        assert!(d.pass_through);
        assert_eq!(d.regions[0].tokens, 0..0);
        assert_eq!(d.regions[0].bytes, 0..0);
    }
}
