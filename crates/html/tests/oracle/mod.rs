//! The allocating page lexer: the differential oracle for the
//! production scanner ([`tableseg_html::scan()`]).
//!
//! This is the original tokenizer state machine, one owned `String` per
//! token. It implements the tokenization rules of `tableseg_html::lexer`
//! independently of the scanner — including its own tag normalization —
//! so `lexer::tokenize(p) == oracle::tokenize(p)` checks the scanner
//! against a second, simple implementation. Test binaries include it
//! with `mod oracle;`.

use tableseg_html::entities::decode_entity;
use tableseg_html::lexer::{is_closing, tag_name};
use tableseg_html::Token;

/// Tokenizes an HTML document with the allocating state machine.
pub fn tokenize(input: &str) -> Vec<Token> {
    Lexer::new(input).run()
}

struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    out: Vec<Token>,
    /// When inside `<script>`/`<style>`, the closing tag we are looking for.
    skip_until: Option<&'static str>,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            // A typical page yields roughly one token per 6 bytes.
            out: Vec::with_capacity(input.len() / 6 + 8),
            skip_until: None,
        }
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            if let Some(close) = self.skip_until {
                self.skip_raw_text(close);
                continue;
            }
            if self.bytes[self.pos] == b'<' {
                self.lex_markup();
            } else {
                self.lex_text();
            }
        }
        self.out
    }

    /// Skips raw text (script/style contents) until the closing tag, which
    /// is then lexed normally.
    fn skip_raw_text(&mut self, close: &'static str) {
        let rest = &self.input[self.pos..];
        match find_ci(rest, close) {
            Some(idx) => {
                self.pos += idx;
                self.skip_until = None;
                // The next iteration lexes the closing tag itself.
            }
            None => {
                // Unterminated script/style: consume to end of input.
                self.pos = self.bytes.len();
                self.skip_until = None;
            }
        }
    }

    fn lex_markup(&mut self) {
        let start = self.pos;
        let rest = &self.input[start..];
        if rest.starts_with("<!--") {
            match rest.find("-->") {
                Some(end) => self.pos = start + end + 3,
                None => self.pos = self.bytes.len(),
            }
            return;
        }
        // A bare '<' not beginning a tag is literal text.
        let is_tag_start = rest[1..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '/' || c == '!');
        if !is_tag_start {
            // Emit '<' as punctuation and move on.
            self.out.push(Token::text("<", start));
            self.pos += 1;
            return;
        }
        match rest.find('>') {
            Some(end) => {
                let raw = &rest[..=end];
                let normalized = normalize_tag(raw);
                let name = tag_name(&normalized).to_owned();
                let closing = is_closing(&normalized);
                self.out.push(Token::tag(normalized, start));
                self.pos = start + end + 1;
                if !closing {
                    if name == "script" {
                        self.skip_until = Some("</script");
                    } else if name == "style" {
                        self.skip_until = Some("</style");
                    }
                }
            }
            None => {
                // Unterminated tag: treat the '<' as text and continue.
                self.out.push(Token::text("<", start));
                self.pos += 1;
            }
        }
    }

    fn lex_text(&mut self) {
        // Accumulate one decoded word; flush at whitespace/punct/tag.
        let mut word = String::new();
        let mut word_start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b == b'<' {
                break;
            }
            let (ch, used) = if b == b'&' {
                match decode_entity(self.input, self.pos) {
                    Some((ch, used)) => (ch, used),
                    None => ('&', 1),
                }
            } else {
                match self.input.get(self.pos..).and_then(|s| s.chars().next()) {
                    Some(ch) => (ch, ch.len_utf8()),
                    // `pos` is always advanced by whole characters, so this
                    // is unreachable — but if the invariant ever breaks,
                    // resynchronize by skipping one byte instead of
                    // panicking mid-page.
                    None => {
                        self.flush_word(&mut word, word_start);
                        self.pos += 1;
                        word_start = self.pos;
                        continue;
                    }
                }
            };
            if ch.is_whitespace() {
                self.flush_word(&mut word, word_start);
                self.pos += used;
                word_start = self.pos;
            } else if ch.is_alphanumeric() {
                if word.is_empty() {
                    word_start = self.pos;
                }
                word.push(ch);
                self.pos += used;
            } else {
                // Punctuation or symbol: its own token.
                self.flush_word(&mut word, word_start);
                self.out.push(Token::text(ch.to_string(), self.pos));
                self.pos += used;
                word_start = self.pos;
            }
        }
        self.flush_word(&mut word, word_start);
    }

    fn flush_word(&mut self, word: &mut String, start: usize) {
        if !word.is_empty() {
            self.out.push(Token::text(std::mem::take(word), start));
        }
    }
}

/// Case-insensitive ASCII substring search.
fn find_ci(haystack: &str, needle: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() || h.len() < n.len() {
        return None;
    }
    (0..=h.len() - n.len()).find(|&i| h[i..i + n.len()].eq_ignore_ascii_case(n))
}

/// Normalizes a raw tag: lowercases the tag name, collapses whitespace runs
/// to a single space, trims whitespace before `>` — written out here
/// rather than shared with the scanner, so the oracle checks it too.
fn normalize_tag(raw: &str) -> String {
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
