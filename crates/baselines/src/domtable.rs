//! The naive DOM heuristic: find the `<table>` with the most text, emit
//! one record per `<tr>` (skipping an apparent header row of `<th>`s).

use tableseg_html::dom::parse;
use tableseg_html::lexer::{is_closing, tag_name, tokenize};
use tableseg_html::Token;

use crate::BaselineSegmentation;

/// Segments a page with the `<table>`/`<tr>` heuristic. Pages without a
/// `<table>` element yield no records — the documented failure mode on
/// free-form sites.
pub fn segment(html: &str) -> BaselineSegmentation {
    let tokens = tokenize(html);
    let dom = parse(html);

    // Pick the table with the most text tokens.
    let Some(best) = dom
        .find_all("table")
        .into_iter()
        .max_by_key(|t| t.text_token_count())
    else {
        return BaselineSegmentation {
            records: Vec::new(),
        };
    };
    if best.text_token_count() == 0 {
        return BaselineSegmentation {
            records: Vec::new(),
        };
    }

    // Re-scan the token stream for the <tr> spans of that table. The DOM
    // has no offsets, so find the best table's byte region first: use the
    // offsets of <table> tags in the token stream paired by depth.
    let table_ranges = table_ranges(&tokens, html.len());
    let best_range = table_ranges
        .into_iter()
        .max_by_key(|r| {
            tokens
                .iter()
                .filter(|t| t.is_text() && r.contains(&t.offset))
                .count()
        })
        .unwrap_or(0..html.len());

    let mut records = Vec::new();
    let mut row_start: Option<usize> = None;
    let mut row_has_header = false;
    let mut row_has_data = false;
    for tok in &tokens {
        if !best_range.contains(&tok.offset) {
            continue;
        }
        if tok.is_html() {
            let name = tag_name(&tok.text);
            if name == "tr" {
                if is_closing(&tok.text) {
                    if let Some(start) = row_start.take() {
                        let end = tok.offset + tok.text.len();
                        if row_has_data && !row_has_header {
                            records.push(start..end);
                        }
                    }
                } else {
                    row_start = Some(tok.offset);
                    row_has_header = false;
                    row_has_data = false;
                }
            } else if name == "th" && !is_closing(&tok.text) {
                row_has_header = true;
            }
        } else if row_start.is_some() {
            row_has_data = true;
        }
    }
    BaselineSegmentation { records }
}

/// Byte ranges of `<table>...</table>` regions (nesting handled by a
/// stack; unterminated tables run to the end of the page).
fn table_ranges(tokens: &[Token], page_len: usize) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut stack = Vec::new();
    for tok in tokens {
        if !tok.is_html() {
            continue;
        }
        if tag_name(&tok.text) == "table" {
            if is_closing(&tok.text) {
                if let Some(start) = stack.pop() {
                    out.push(start..tok.offset + tok.text.len());
                }
            } else {
                stack.push(tok.offset);
            }
        }
    }
    for start in stack {
        out.push(start..page_len);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_record_per_data_row() {
        let html = "<table><tr><th>Name</th></tr>\
                    <tr><td>Ada</td></tr><tr><td>Alan</td></tr></table>";
        let seg = segment(html);
        assert_eq!(seg.len(), 2);
        assert!(html[seg.records[0].clone()].contains("Ada"));
        assert!(html[seg.records[1].clone()].contains("Alan"));
    }

    #[test]
    fn header_rows_skipped() {
        let html = "<table><tr><th>H1</th><th>H2</th></tr><tr><td>x</td><td>y</td></tr></table>";
        let seg = segment(html);
        assert_eq!(seg.len(), 1);
    }

    #[test]
    fn no_table_no_records() {
        let seg = segment("<p>Ada</p><hr><p>Alan</p>");
        assert!(seg.is_empty());
    }

    #[test]
    fn picks_largest_table() {
        let html = "<table><tr><td>nav</td></tr></table>\
                    <table><tr><td>one two three</td></tr><tr><td>four five six</td></tr></table>";
        let seg = segment(html);
        assert_eq!(seg.len(), 2);
        assert!(html[seg.records[0].clone()].contains("one"));
    }

    #[test]
    fn empty_rows_ignored() {
        let html = "<table><tr></tr><tr><td>x</td></tr></table>";
        let seg = segment(html);
        assert_eq!(seg.len(), 1);
    }
}
