//! Wrapper induction from automatic segmentations.
//!
//! The paper situates itself in the web-wrapper literature (Section 1):
//! classic wrapper induction (Kushmerick's HLRT family) learns row and
//! field delimiters from *user-labeled* example records. The segmentations
//! produced by this system are exactly such labels — obtained with no user
//! at all. This module closes the loop: it induces an HLRT-style row
//! wrapper from one segmented list page, after which **new pages from the
//! same site can be extracted without any detail pages**.
//!
//! The wrapper consists of token sequences: a *head* delimiter preceding
//! each record's first field, one *separator* between each pair of
//! adjacent fields, and a *tail* following the last field. Induction takes
//! the records that display the full field count (the paper's period π)
//! and intersects their delimiter contexts; application scans a page's
//! token texts for head occurrences and reads fields up to each separator.
//! Delimiters hold a tag by its name alone (`<a href="/detail/3">` is
//! `<a>`), so rows that link to their own detail pages still share them.

use std::borrow::Cow;

use tableseg_extract::Segmentation;
use tableseg_html::lexer::{is_closing, tag_name};
use tableseg_html::scan;

use crate::pipeline::{PreparedPage, SiteTemplate};

/// Maximum delimiter length learned, in tokens.
const MAX_DELIM: usize = 8;

/// Maximum field length accepted during application, in tokens.
const MAX_FIELD: usize = 40;

/// An HLRT-style row wrapper: token-text delimiters around and between
/// the fields of one record row, each tag reduced to its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowWrapper {
    /// Tokens immediately preceding a record's first field.
    pub head: Vec<String>,
    /// Tokens between field `i` and field `i+1` (`num_fields - 1` entries).
    pub seps: Vec<Vec<String>>,
    /// Tokens immediately following a record's last field.
    pub tail: Vec<String>,
}

impl RowWrapper {
    /// Number of fields per record.
    pub fn num_fields(&self) -> usize {
        self.seps.len() + 1
    }

    /// Extracts records from the HTML of a page (e.g. a *new* list page
    /// from the same site).
    ///
    /// Returns one `Vec<String>` of field texts per detected record.
    pub fn extract(&self, html: &str) -> Vec<Vec<String>> {
        let scanned = scan(html);
        let texts: Vec<Cow<'_, str>> = scanned.iter(html).map(|(text, _, _)| delim(text)).collect();
        let mut records = Vec::new();
        let mut i = 0;
        while i + self.head.len() <= texts.len() {
            if !matches_at(&texts, i, &self.head) {
                i += 1;
                continue;
            }
            let mut pos = i + self.head.len();
            let mut fields = Vec::with_capacity(self.num_fields());
            let mut ok = true;
            for (f, delim) in self
                .seps
                .iter()
                .map(Vec::as_slice)
                .chain(std::iter::once(self.tail.as_slice()))
                .enumerate()
            {
                match read_field(&texts, pos, delim) {
                    Some((field, next)) => {
                        fields.push(field);
                        pos = next;
                    }
                    None => {
                        ok = false;
                        let _ = f;
                        break;
                    }
                }
            }
            if ok {
                records.push(fields);
                // The tail of one row may overlap the head of the next
                // (a tail that runs into the next row's opening tags), so
                // rewind by the tail length before scanning
                // for the next head. The record body itself is consumed,
                // so no row can match twice.
                i = pos.saturating_sub(self.tail.len());
            } else {
                i += 1;
            }
        }
        records
    }
}

/// The form a token takes in a delimiter: a (normalized) tag by its name
/// alone (`<a href="/detail/3">` is `<a>`), any other token by its text.
fn delim(text: &str) -> Cow<'_, str> {
    if text.len() > 1 && text.starts_with('<') {
        let slash = if is_closing(text) { "/" } else { "" };
        Cow::Owned(format!("<{slash}{}>", tag_name(text)))
    } else {
        Cow::Borrowed(text)
    }
}

fn matches_at(texts: &[Cow<'_, str>], pos: usize, delim: &[String]) -> bool {
    pos + delim.len() <= texts.len() && delim.iter().zip(&texts[pos..]).all(|(d, t)| d == t)
}

/// Reads one field starting at `pos`, terminated by `delim`. Returns the
/// joined field text and the position *after* the delimiter.
///
/// A field is an extract, and extracts never contain HTML tags
/// (Section 3.2's separator definition) — hitting a tag before the
/// delimiter means the row does not fit the wrapper, so the read fails
/// and the caller resynchronizes. This is what keeps a malformed row from
/// swallowing its successors.
fn read_field(texts: &[Cow<'_, str>], pos: usize, delim: &[String]) -> Option<(String, usize)> {
    for len in 1..=MAX_FIELD {
        let end = pos + len;
        if end > texts.len() {
            return None;
        }
        if texts[end - 1].starts_with('<') && texts[end - 1].len() > 1 {
            // A tag inside the would-be field: not a record row.
            return None;
        }
        if matches_at(texts, end, delim) {
            return Some((texts[pos..end].join(" "), end + delim.len()));
        }
    }
    None
}

/// Induces a row wrapper from a prepared page and its segmentation.
/// `prepared` is list page `target` of `template`, whose slot texts give
/// the delimiters.
///
/// Returns `None` when the page offers no consistent delimiters — fewer
/// than two full records, records with differing field counts only, or
/// empty common contexts.
pub fn induce_wrapper(
    template: &SiteTemplate,
    target: usize,
    prepared: &PreparedPage,
    seg: &Segmentation,
) -> Option<RowWrapper> {
    let tokens: Vec<Cow<'_, str>> = template.streams[target][prepared.slot.clone()]
        .iter()
        .map(|&s| delim(template.interner.text(s)))
        .collect();
    let obs = &prepared.observations;

    // Field spans per record: (start, end) token ranges of each assigned
    // extract, in stream order.
    let mut rows: Vec<Vec<(usize, usize)>> = Vec::new();
    for extracts in seg.records() {
        if extracts.is_empty() {
            continue;
        }
        let spans: Vec<(usize, usize)> = extracts
            .iter()
            .map(|&i| {
                let e = &obs.items[i].extract;
                (e.start, e.start + e.len)
            })
            .collect();
        rows.push(spans);
    }
    // Keep the modal field count.
    let modal = {
        let mut counts = std::collections::HashMap::new();
        for r in &rows {
            *counts.entry(r.len()).or_insert(0usize) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(len, n)| (n, len))
            .map(|(len, _)| len)?
    };
    let rows: Vec<&Vec<(usize, usize)>> = rows.iter().filter(|r| r.len() == modal).collect();
    if rows.len() < 2 || modal == 0 {
        return None;
    }

    // Head: longest common suffix of the token texts preceding each
    // record's first field, less the closing tags that lead it. Those end
    // the previous row (`</td></tr>`), and a page's first record follows a
    // header row (`</th></tr>`) or none at all.
    let mut head = common_suffix(
        rows.iter()
            .map(|r| preceding(&tokens, r[0].0))
            .collect::<Vec<_>>(),
    );
    let closing = head.iter().take_while(|t| is_closing(t)).count();
    head.drain(..closing);
    if head.is_empty() {
        return None;
    }

    // Separators between adjacent fields: the between tokens must agree as
    // a common suffix (anchoring the next field's start).
    let mut seps = Vec::with_capacity(modal - 1);
    for f in 0..modal - 1 {
        let sep = common_suffix(
            rows.iter()
                .map(|r| {
                    let (_, end) = r[f];
                    let (next_start, _) = r[f + 1];
                    texts(&tokens[end..next_start])
                })
                .collect::<Vec<_>>(),
        );
        if sep.is_empty() {
            return None;
        }
        seps.push(sep);
    }

    // Tail: longest common prefix of the tokens following each record's
    // last field.
    let tail = common_prefix(
        rows.iter()
            .map(|r| following(&tokens, r[modal - 1].1))
            .collect::<Vec<_>>(),
    );
    if tail.is_empty() {
        return None;
    }

    Some(RowWrapper { head, seps, tail })
}

/// Owned copies of token texts.
fn texts(tokens: &[Cow<'_, str>]) -> Vec<String> {
    tokens.iter().map(|t| t.to_string()).collect()
}

/// Up to [`MAX_DELIM`] token texts preceding `pos`.
fn preceding(tokens: &[Cow<'_, str>], pos: usize) -> Vec<String> {
    texts(&tokens[pos.saturating_sub(MAX_DELIM)..pos])
}

/// Up to [`MAX_DELIM`] token texts following `pos`.
fn following(tokens: &[Cow<'_, str>], pos: usize) -> Vec<String> {
    texts(&tokens[pos..(pos + MAX_DELIM).min(tokens.len())])
}

/// Longest common suffix of several sequences.
fn common_suffix(seqs: Vec<Vec<String>>) -> Vec<String> {
    let min_len = seqs.iter().map(Vec::len).min().unwrap_or(0);
    let mut k = 0;
    'outer: while k < min_len {
        let probe = &seqs[0][seqs[0].len() - 1 - k];
        for s in &seqs[1..] {
            if &s[s.len() - 1 - k] != probe {
                break 'outer;
            }
        }
        k += 1;
    }
    let first = &seqs[0];
    first[first.len() - k..].to_vec()
}

/// Longest common prefix of several sequences.
fn common_prefix(seqs: Vec<Vec<String>>) -> Vec<String> {
    let min_len = seqs.iter().map(Vec::len).min().unwrap_or(0);
    let mut k = 0;
    'outer: while k < min_len {
        let probe = &seqs[0][k];
        for s in &seqs[1..] {
            if &s[k] != probe {
                break 'outer;
            }
        }
        k += 1;
    }
    seqs[0][..k].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::try_prepare_with_template;
    use crate::segmenter::{CspSegmenter, Segmenter};

    fn page(rows: &[(&str, &str)]) -> String {
        let body: String = rows
            .iter()
            .map(|(a, b)| format!("<tr><td>{a}</td><td>{b}</td></tr>"))
            .collect();
        format!(
            "<html><h1>Example Results Page</h1><table>{body}</table>\
             <p>Copyright 2004 Example Inc Footer</p></html>"
        )
    }

    /// The wrapper induced from page 0 of a two-page site, if any.
    fn wrapper_of(a: &str, b: &str, details: &[&str]) -> Option<RowWrapper> {
        let template = SiteTemplate::build(&[a, b]);
        let prepared = try_prepare_with_template(&template, 0, details).expect("prepared");
        let seg = CspSegmenter::default()
            .segment(&prepared.observations)
            .segmentation;
        induce_wrapper(&template, 0, &prepared, &seg)
    }

    fn wrapper() -> RowWrapper {
        let a = page(&[
            ("Ada Lovelace", "(555) 100-0001"),
            ("Alan Turing", "(555) 100-0002"),
            ("Grace Hopper", "(555) 100-0003"),
        ]);
        let b = page(&[("Donald Knuth", "(555) 100-0004")]);
        let details = [
            "<html><h2>Ada Lovelace</h2><p>(555) 100-0001</p></html>",
            "<html><h2>Alan Turing</h2><p>(555) 100-0002</p></html>",
            "<html><h2>Grace Hopper</h2><p>(555) 100-0003</p></html>",
        ];
        wrapper_of(&a, &b, &details).expect("wrapper")
    }

    #[test]
    fn induces_row_delimiters() {
        let w = wrapper();
        assert_eq!(w.num_fields(), 2);
        assert_eq!(w.head.last().map(String::as_str), Some("<td>"));
        assert_eq!(w.seps[0].last().map(String::as_str), Some("<td>"));
        assert_eq!(w.tail.first().map(String::as_str), Some("</td>"));
    }

    #[test]
    fn wrapper_extracts_from_a_new_page_without_detail_pages() {
        let w = wrapper();
        // A brand-new page from the same site.
        let new_page = page(&[
            ("Edsger Dijkstra", "(555) 100-0009"),
            ("Tony Hoare", "(555) 100-0010"),
        ]);
        let records = w.extract(&new_page);
        assert_eq!(records.len(), 2, "{records:?}");
        assert_eq!(records[0][0], "Edsger Dijkstra");
        assert!(records[0][1].contains("100 - 0009"));
        assert_eq!(records[1][0], "Tony Hoare");
    }

    /// Rows whose first field links to its own detail page: the context
    /// before each record ends in a distinct `<a href=...>`, so only the
    /// tag name is common to all rows.
    #[test]
    fn rows_linking_to_distinct_detail_pages_share_a_head() {
        let linked = |rows: &[(usize, &str, &str)]| {
            let body: String = rows
                .iter()
                .map(|(id, a, b)| {
                    format!("<tr><td><a href=\"/detail/{id}\">{a}</a></td><td>{b}</td></tr>")
                })
                .collect();
            format!(
                "<html><h1>Example Results Page</h1><table>{body}</table>\
                 <p>Copyright 2004 Example Inc Footer</p></html>"
            )
        };
        let a = linked(&[
            (0, "Ada Lovelace", "(555) 100-0001"),
            (1, "Alan Turing", "(555) 100-0002"),
            (2, "Grace Hopper", "(555) 100-0003"),
        ]);
        let b = linked(&[(3, "Donald Knuth", "(555) 100-0004")]);
        let details = [
            "<html><h2>Ada Lovelace</h2><p>(555) 100-0001</p></html>",
            "<html><h2>Alan Turing</h2><p>(555) 100-0002</p></html>",
            "<html><h2>Grace Hopper</h2><p>(555) 100-0003</p></html>",
        ];
        let w = wrapper_of(&a, &b, &details).expect("wrapper despite distinct hrefs");
        assert_eq!(w.head.last().map(String::as_str), Some("<a>"));
        assert_eq!(w.seps[0].first().map(String::as_str), Some("</a>"));
        let new_page = linked(&[
            (7, "Edsger Dijkstra", "(555) 100-0009"),
            (8, "Tony Hoare", "(555) 100-0010"),
        ]);
        let records = w.extract(&new_page);
        assert_eq!(records.len(), 2, "{records:?}");
        assert_eq!(records[0][0], "Edsger Dijkstra");
        assert_eq!(records[1][0], "Tony Hoare");
        assert!(records[1][1].contains("100 - 0010"));
    }

    /// A header row of `<th>` cells sits in the template. Page 0's first
    /// record has no phone, so every full record that the head is induced
    /// from follows a data row's `</td>`; the first record of a new page
    /// follows the header's `</th>` instead.
    #[test]
    fn first_record_after_a_header_row_is_extracted() {
        let headed = |rows: &[(&str, &str)]| {
            let body: String = rows
                .iter()
                .map(|(a, b)| format!("<tr><td>{a}</td><td>{b}</td></tr>"))
                .collect();
            format!(
                "<html><h1>Example Results Page</h1><table>\
                 <tr><th>Name</th><th>Phone</th></tr>{body}</table>\
                 <p>Copyright 2004 Example Inc Footer</p></html>"
            )
        };
        let a = headed(&[
            ("Ada Lovelace", ""),
            ("Alan Turing", "(555) 100-0002"),
            ("Grace Hopper", "(555) 100-0003"),
        ]);
        let b = headed(&[("Donald Knuth", "(555) 100-0004")]);
        let details = [
            "<html><h2>Ada Lovelace</h2></html>",
            "<html><h2>Alan Turing</h2><p>(555) 100-0002</p></html>",
            "<html><h2>Grace Hopper</h2><p>(555) 100-0003</p></html>",
        ];
        let w = wrapper_of(&a, &b, &details).expect("wrapper");
        let new_page = headed(&[
            ("Edsger Dijkstra", "(555) 100-0009"),
            ("Tony Hoare", "(555) 100-0010"),
        ]);
        let records = w.extract(&new_page);
        assert_eq!(records.len(), 2, "{records:?}");
        assert_eq!(records[0][0], "Edsger Dijkstra");
        assert_eq!(records[1][0], "Tony Hoare");
    }

    #[test]
    fn delimiters_hold_tags_by_name() {
        assert_eq!(delim("<a href=\"/detail/3\">"), "<a>");
        assert_eq!(delim("</td>"), "</td>");
        assert_eq!(delim("<br/>"), "<br>");
        assert_eq!(delim("Smith"), "Smith");
        assert_eq!(delim("<"), "<");
    }

    #[test]
    fn too_few_records_yield_no_wrapper() {
        let a = page(&[("Ada Lovelace", "(555) 100-0001")]);
        let b = page(&[("Donald Knuth", "(555) 100-0004")]);
        let details = ["<html><h2>Ada Lovelace</h2><p>(555) 100-0001</p></html>"];
        assert!(wrapper_of(&a, &b, &details).is_none());
    }

    #[test]
    fn common_affix_helpers() {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            common_suffix(vec![v(&["a", "x", "y"]), v(&["b", "x", "y"])]),
            v(&["x", "y"])
        );
        assert_eq!(
            common_prefix(vec![v(&["x", "y", "a"]), v(&["x", "y", "b"])]),
            v(&["x", "y"])
        );
        assert!(common_suffix(vec![v(&["a"]), v(&["b"])]).is_empty());
        assert!(common_prefix(vec![v(&[]), v(&["b"])]).is_empty());
    }

    #[test]
    fn extract_resyncs_after_damage() {
        let w = wrapper();
        // A page with one malformed row between two good ones.
        let html = "<tr><td>Edsger Dijkstra</td><td>(555) 100-0009</td></tr>\
                    <tr><td>broken row no second cell</tr>\
                    <tr><td>Tony Hoare</td><td>(555) 100-0010</td></tr>";
        let records = w.extract(html);
        assert!(records.iter().any(|r| r[0] == "Edsger Dijkstra"));
        assert!(records.iter().any(|r| r[0] == "Tony Hoare"));
    }
}
