//! The page tokenizer (Section 3.1 of the paper).
//!
//! "The pages are tokenized — the text is split into individual words, or
//! more accurately tokens, and HTML escape sequences are converted to ASCII
//! text."
//!
//! Rules:
//!
//! * an HTML tag `<...>` becomes a single [`Token`] of type `html`, with its
//!   tag name lowercased and internal whitespace normalized so that
//!   template induction can compare tags across pages byte-for-byte;
//! * HTML comments and the contents of `<script>` and `<style>` elements are
//!   skipped (they are invisible and never carry table data);
//! * visible text is entity-decoded and split into *words* (maximal runs of
//!   alphanumeric characters) and individual punctuation characters, each a
//!   token typed by [`TypeSet::classify_text`](crate::TypeSet::classify_text).
//!
//! The rules are implemented once, by the zero-copy scanner
//! ([`crate::scan()`]); [`tokenize`] materializes its owned token stream.
//! The test suite holds an independent allocating lexer
//! (`tests/oracle`) as the scanner's differential oracle.

use crate::scan::scan;
use crate::token::Token;

/// Tokenizes an HTML document into the paper's token stream: the owned
/// form of [`scan`]'s span tokens.
pub fn tokenize(input: &str) -> Vec<Token> {
    scan(input)
        .iter(input)
        .map(|(text, types, offset)| Token {
            text: text.to_owned(),
            types,
            offset,
        })
        .collect()
}

/// Tokenizes an arbitrary byte string — the form pages arrive in off the
/// wire, where nothing guarantees valid UTF-8 (truncated multi-byte
/// sequences, mixed encodings, binary junk behind a dead link).
///
/// Invalid sequences are decoded lossily (replaced with U+FFFD) before
/// tokenization, so this function is total: any byte string produces a
/// token stream. **Offset caveat:** when a lossy decode happened, token
/// offsets refer to the *decoded* text, not to `bytes` — a 1-byte invalid
/// sequence becomes the 3-byte U+FFFD, shifting everything after it. Use
/// [`tokenize_bytes_flagged`] to learn whether that remap occurred; only
/// when its `decoded` flag is `false` are offsets byte offsets into
/// `bytes`.
pub fn tokenize_bytes(bytes: &[u8]) -> Vec<Token> {
    tokenize_bytes_flagged(bytes).tokens
}

/// A byte-string token stream plus its decode provenance.
#[derive(Debug, Clone)]
pub struct BytesTokens {
    /// The token stream of the (possibly lossily decoded) page.
    pub tokens: Vec<Token>,
    /// `true` if the input was not valid UTF-8 and was decoded lossily.
    /// Token offsets then index the *decoded* text (each invalid sequence
    /// replaced by the 3-byte U+FFFD), **not** the input bytes. When
    /// `false`, offsets are byte offsets into the input as usual.
    pub decoded: bool,
}

/// [`tokenize_bytes`] with the offset semantics made explicit: the
/// `decoded` flag records whether a lossy decode remapped token offsets
/// away from input byte positions.
pub fn tokenize_bytes_flagged(bytes: &[u8]) -> BytesTokens {
    match String::from_utf8_lossy(bytes) {
        std::borrow::Cow::Borrowed(s) => BytesTokens {
            tokens: tokenize(s),
            decoded: false,
        },
        std::borrow::Cow::Owned(s) => BytesTokens {
            tokens: tokenize(&s),
            decoded: true,
        },
    }
}

/// Normalizes a raw tag: lowercases the tag name, collapses whitespace runs
/// to a single space, trims whitespace before `>`. The zero-copy
/// scanner's slow path ([`crate::scan()`]) for tags that are not already
/// in normal form.
pub(crate) fn normalize_tag(raw: &str) -> String {
    debug_assert!(raw.starts_with('<') && raw.ends_with('>'));
    let inner = &raw[1..raw.len() - 1];
    let mut out = String::with_capacity(raw.len());
    out.push('<');
    // Split into the name part and the attribute remainder.
    let inner = inner.trim();
    let name_end = inner
        .find(|c: char| c.is_whitespace())
        .unwrap_or(inner.len());
    let (name, attrs) = inner.split_at(name_end);
    for ch in name.chars() {
        out.push(ch.to_ascii_lowercase());
    }
    let attrs = attrs.trim();
    if !attrs.is_empty() {
        out.push(' ');
        let mut prev_space = false;
        for ch in attrs.chars() {
            if ch.is_whitespace() {
                if !prev_space {
                    out.push(' ');
                }
                prev_space = true;
            } else {
                out.push(ch);
                prev_space = false;
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
    }
    out.push('>');
    out
}

/// Extracts the lowercase tag name from a normalized tag, without any
/// leading `/`.
pub fn tag_name(normalized: &str) -> &str {
    let inner = normalized
        .trim_start_matches('<')
        .trim_end_matches('>')
        .trim_start_matches('/');
    let end = inner
        .find(|c: char| c.is_whitespace() || c == '/')
        .unwrap_or(inner.len());
    &inner[..end]
}

/// Returns `true` if a normalized tag is a closing tag (`</...>`).
pub fn is_closing(normalized: &str) -> bool {
    normalized.starts_with("</")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenType;

    fn texts(input: &str) -> Vec<String> {
        tokenize(input).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn simple_row() {
        assert_eq!(
            texts("<tr><td>John Smith</td></tr>"),
            ["<tr>", "<td>", "John", "Smith", "</td>", "</tr>"]
        );
    }

    #[test]
    fn phone_number_tokenization() {
        assert_eq!(
            texts("(740) 335-5555"),
            ["(", "740", ")", "335", "-", "5555"]
        );
    }

    #[test]
    fn entities_decoded_inside_words() {
        // &amp; becomes a punctuation token; &#65; joins the word.
        assert_eq!(texts("AT&amp;T"), ["AT", "&", "T"]);
        assert_eq!(texts("&#66;ob"), ["Bob"]);
        let toks = tokenize("&#66;ob");
        assert!(toks[0].types.contains(TokenType::Capitalized));
    }

    #[test]
    fn nbsp_separates_words() {
        assert_eq!(texts("a&nbsp;b"), ["a", "b"]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(texts("a<!-- hidden <b> -->c"), ["a", "c"]);
        assert_eq!(texts("a<!-- unterminated"), ["a"]);
    }

    #[test]
    fn script_and_style_contents_skipped() {
        assert_eq!(
            texts("<script>var x = '<td>data</td>';</script>after"),
            ["<script>", "</script>", "after"]
        );
        assert_eq!(
            texts("<style>td { color: red }</style>x"),
            ["<style>", "</style>", "x"]
        );
        assert_eq!(
            texts("<SCRIPT>boom</SCRIPT>y"),
            ["<script>", "</script>", "y"]
        );
    }

    #[test]
    fn unterminated_script_consumes_rest() {
        assert_eq!(texts("<script>never closed"), ["<script>"]);
    }

    #[test]
    fn tag_normalization() {
        assert_eq!(texts("<TD ALIGN=left>"), ["<td ALIGN=left>"]);
        assert_eq!(texts("<td\n  align = 'x'>"), ["<td align = 'x'>"]);
        assert_eq!(texts("<BR/>"), ["<br/>"]);
    }

    #[test]
    fn bare_less_than_is_text() {
        assert_eq!(texts("3 < 4"), ["3", "<", "4"]);
        let toks = tokenize("3 < 4");
        assert!(toks[1].types.contains(TokenType::Punctuation));
    }

    #[test]
    fn unterminated_tag_degrades_to_text() {
        assert_eq!(texts("<td never closes"), ["<", "td", "never", "closes"]);
    }

    #[test]
    fn offsets_point_into_source() {
        let src = "<td>Hi, Bob</td>";
        let toks = tokenize(src);
        for t in &toks {
            if !t.text.starts_with('<') || t.text == "<" {
                // Text tokens: source at offset starts with first char.
                assert!(src[t.offset..].starts_with(t.text.chars().next().unwrap()));
            }
        }
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].text, "Hi");
        assert_eq!(toks[1].offset, 4);
    }

    #[test]
    fn tag_name_extraction() {
        assert_eq!(tag_name("<td align=left>"), "td");
        assert_eq!(tag_name("</table>"), "table");
        assert_eq!(tag_name("<br/>"), "br");
        assert!(is_closing("</td>"));
        assert!(!is_closing("<td>"));
    }

    #[test]
    fn unicode_text() {
        assert_eq!(texts("Montréal, QC"), ["Montréal", ",", "QC"]);
        let toks = tokenize("Montréal");
        assert!(toks[0].types.contains(TokenType::Capitalized));
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn whitespace_only() {
        assert!(tokenize("  \n\t ").is_empty());
    }
}
