//! The streaming zero-copy page scanner — the production front end.
//!
//! [`scan`] is the one implementation of the page tokenizer's rules
//! ([`crate::lexer`]): it produces the paper's token stream (texts,
//! [`TypeSet`]s, source byte ranges) without allocating a `String` per
//! token. The pipeline interns it straight into symbols plus byte ranges
//! ([`crate::Interner::intern_page`]); only [`crate::lexer::tokenize`]
//! builds owned tokens. Tokens are [`SpanToken`]s: small fixed-size records
//! whose text is a byte range into either the page itself (the common
//! case — words, punctuation, already-normalized tags) or a per-page
//! append-only *arena* holding the few texts that cannot be borrowed
//! (entity-decoded words, normalized tags). A typical page borrows well
//! over 95% of its tokens, so scanning a page costs two growable buffers
//! — the token vector and a small arena — instead of one heap string per
//! token.
//!
//! The hot loops are byte-oriented: a 256-entry class table drives bulk
//! runs over words and whitespace, tag ends and comment/script terminators
//! are found with a SWAR `memchr`, and per-`char` decoding only happens on
//! the rare bytes that need it (entities, non-ASCII). An allocating
//! lexer in the test suite (`tests/oracle`) is the differential oracle;
//! the equivalence is enforced token-for-token by unit tests here, by the
//! `lexer_props` property suite on arbitrary inputs, and over the
//! simulated corpora by `tableseg-sitegen`'s chaos suite.
//!
//! Lifetimes are explicit rather than borrowed: a [`SpanToken`] stores
//! ranges, not references, so [`ScanTokens`] is `'static`, freely
//! shareable, and the crate keeps its `#![forbid(unsafe_code)]`. Callers
//! re-supply the page text to resolve a span ([`ScanTokens::text`]); the
//! pipeline owns the page for the duration of a site anyway.

use std::ops::Range;

use crate::entities::decode_entity;
use crate::lexer::{is_closing, normalize_tag, tag_name};
use crate::token::TypeSet;

/// Byte classes driving the scanner's dispatch loop.
const CL_PUNCT: u8 = 0;
const CL_WS: u8 = 1;
const CL_WORD: u8 = 2;
const CL_LT: u8 = 3;
const CL_AMP: u8 = 4;
const CL_HI: u8 = 5;

/// The 256-entry byte class table. ASCII whitespace here is exactly the
/// set `char::is_whitespace` accepts below 0x80 (HT, LF, VT, FF, CR,
/// space); word bytes are ASCII alphanumerics; bytes ≥ 0x80 defer to
/// per-`char` decoding.
const CLASS: [u8; 256] = build_class();

const fn build_class() -> [u8; 256] {
    let mut t = [CL_PUNCT; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        t[b] = if c == b'<' {
            CL_LT
        } else if c == b'&' {
            CL_AMP
        } else if c >= 0x80 {
            CL_HI
        } else if matches!(c, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ') {
            CL_WS
        } else if c.is_ascii_alphanumeric() {
            CL_WORD
        } else {
            CL_PUNCT
        };
        b += 1;
    }
    t
}

/// SWAR `memchr`: finds the first occurrence of `needle` in `hay`, eight
/// bytes per step, without `unsafe` or an external crate.
#[inline]
pub fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let broadcast = needle as u64 * LO;
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let x = word ^ broadcast;
        if x.wrapping_sub(LO) & !x & HI != 0 {
            // A zero byte exists in x; locate it within the chunk.
            for (j, &b) in chunk.iter().enumerate() {
                if b == needle {
                    return Some(base + j);
                }
            }
        }
        base += 8;
    }
    let tail = chunks.remainder();
    tail.iter().position(|&b| b == needle).map(|j| base + j)
}

/// Where a token's text lives: borrowed from the page or owned by the
/// scan's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanKind {
    /// `start..start+len` indexes the scanned page.
    Input,
    /// `start..start+len` indexes [`ScanTokens::arena`].
    Arena,
}

/// One scanned token: a text span, its syntactic types, and its byte
/// range in the page — 20 bytes, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken {
    start: u32,
    len: u32,
    /// Byte offset of the token in the scanned page, identical to the
    /// oracle lexer's [`Token::offset`](crate::Token::offset).
    pub offset: u32,
    /// Byte offset one past the token's source in the page. It differs
    /// from `offset` plus the text length where the text was decoded or
    /// normalized (`&amp;`, `</TABLE >`).
    pub end: u32,
    /// The token's syntactic types, identical to the oracle lexer's.
    pub types: TypeSet,
    kind: SpanKind,
}

impl SpanToken {
    /// Returns `true` if the token's text is borrowed from the page
    /// (the zero-copy case).
    #[inline]
    pub fn is_borrowed(&self) -> bool {
        self.kind == SpanKind::Input
    }
}

/// The scan result: span tokens plus the arena holding the few texts that
/// could not be borrowed from the page.
///
/// Resolving a span needs the page the tokens were scanned from; callers
/// pass the *same* `&str` back to [`ScanTokens::text`] /
/// [`ScanTokens::iter`]. (Ranges were validated against that input
/// during the scan; a different string is caught by a length debug
/// assertion at best and produces garbage text at worst, exactly like
/// indexing with offsets from another page.)
#[derive(Debug, Clone, Default)]
pub struct ScanTokens {
    tokens: Vec<SpanToken>,
    arena: String,
    input_len: usize,
}

impl ScanTokens {
    /// Number of tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Returns `true` if the page produced no tokens.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The scanned tokens.
    #[inline]
    pub fn tokens(&self) -> &[SpanToken] {
        &self.tokens
    }

    /// Bytes held by the arena (texts that could not be borrowed).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Resolves one token's text against the page it was scanned from.
    #[inline]
    pub fn text<'a>(&'a self, input: &'a str, tok: &SpanToken) -> &'a str {
        debug_assert_eq!(
            input.len(),
            self.input_len,
            "resolve against the scanned page"
        );
        let range = tok.start as usize..(tok.start + tok.len) as usize;
        match tok.kind {
            SpanKind::Input => &input[range],
            SpanKind::Arena => &self.arena[range],
        }
    }

    /// Iterates `(text, types, offset)` resolved against the page.
    pub fn iter<'a>(
        &'a self,
        input: &'a str,
    ) -> impl Iterator<Item = (&'a str, TypeSet, usize)> + 'a {
        self.tokens
            .iter()
            .map(move |t| (self.text(input, t), t.types, t.offset as usize))
    }
}

/// Scans a page into span tokens — the paper's token stream (texts,
/// types, offsets) — while borrowing nearly every token's text from
/// `input`.
///
/// # Panics
///
/// Panics if `input` is 4 GiB or larger (spans are 32-bit; no real page
/// approaches this).
pub fn scan(input: &str) -> ScanTokens {
    assert!(
        u32::try_from(input.len()).is_ok(),
        "page too large for 32-bit token spans"
    );
    Scanner::new(input).run()
}

/// Word accumulation state: nothing pending, a contiguous borrowed run, or
/// an arena copy (after an entity decode joined the word).
#[derive(Clone, Copy)]
enum Word {
    None,
    /// `start..end` of the page; `end` always equals the scan position.
    Borrowed {
        start: usize,
        end: usize,
    },
    /// Arena bytes `start..arena.len()`; `offset` is the word's position
    /// in the page.
    Arena {
        start: usize,
        offset: usize,
    },
}

struct Scanner<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    out: Vec<SpanToken>,
    arena: String,
    skip_until: Option<&'static [u8]>,
}

impl<'a> Scanner<'a> {
    fn new(input: &'a str) -> Self {
        Scanner {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            // Same density estimate as the oracle lexer.
            out: Vec::with_capacity(input.len() / 6 + 8),
            arena: String::new(),
            skip_until: None,
        }
    }

    fn run(mut self) -> ScanTokens {
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
        ScanTokens {
            tokens: self.out,
            arena: self.arena,
            input_len: self.input.len(),
        }
    }

    /// Pushes a token borrowed from the page: its text is its source.
    #[inline]
    fn push_input(&mut self, start: usize, end: usize, types: TypeSet) {
        self.out.push(SpanToken {
            start: start as u32,
            len: (end - start) as u32,
            offset: start as u32,
            end: end as u32,
            types,
            kind: SpanKind::Input,
        });
    }

    /// Pushes a token whose text is arena bytes `start..`, scanned from
    /// page bytes `source`.
    #[inline]
    fn push_arena(&mut self, start: usize, types: TypeSet, source: Range<usize>) {
        self.out.push(SpanToken {
            start: start as u32,
            len: (self.arena.len() - start) as u32,
            offset: source.start as u32,
            end: source.end as u32,
            types,
            kind: SpanKind::Arena,
        });
    }

    /// Skips script/style contents: hop `<` to `<` until one starts the
    /// (case-insensitive) closing tag, which the main loop then lexes.
    fn skip_raw_text(&mut self, close: &'static [u8]) {
        let hay = &self.bytes[self.pos..];
        let mut i = 0usize;
        loop {
            match memchr(b'<', &hay[i..]) {
                Some(j) => {
                    let at = i + j;
                    if hay.len() - at >= close.len()
                        && hay[at..at + close.len()].eq_ignore_ascii_case(close)
                    {
                        self.pos += at;
                        self.skip_until = None;
                        return;
                    }
                    i = at + 1;
                }
                None => {
                    // Unterminated script/style: consume to end of input.
                    self.pos = self.bytes.len();
                    self.skip_until = None;
                    return;
                }
            }
        }
    }

    fn lex_markup(&mut self) {
        let start = self.pos;
        let rest = &self.bytes[start..];
        if rest.starts_with(b"<!--") {
            // Find "-->": hop '-' to '-' with memchr. The oracle searches
            // from the start of the comment, where the earliest possible
            // hit is byte 2 (`<!-->` is a complete comment).
            let mut i = 2usize;
            loop {
                match memchr(b'-', &rest[i..]) {
                    Some(j) if rest[i + j..].starts_with(b"-->") => {
                        self.pos = start + i + j + 3;
                        return;
                    }
                    Some(j) => i += j + 1,
                    None => {
                        self.pos = self.bytes.len();
                        return;
                    }
                }
            }
        }
        // A bare '<' not beginning a tag is literal text. Non-ASCII lead
        // bytes are never `is_ascii_alphabetic`, matching the char test.
        let is_tag_start = rest
            .get(1)
            .is_some_and(|&b| b.is_ascii_alphabetic() || b == b'/' || b == b'!');
        if !is_tag_start {
            self.push_input(start, start + 1, TypeSet::classify_text("<"));
            self.pos += 1;
            return;
        }
        match memchr(b'>', rest) {
            Some(end) => {
                let raw_bytes = &rest[..=end];
                self.pos = start + end + 1;
                if tag_is_normalized(raw_bytes) {
                    self.push_input(start, start + end + 1, TypeSet::html());
                    let closing = raw_bytes[1] == b'/';
                    if !closing {
                        // Name bytes are already lowercase here.
                        self.enter_raw_text_if_needed(&raw_bytes[1..]);
                    }
                } else {
                    let raw = &self.input[start..start + end + 1];
                    let normalized = normalize_tag(raw);
                    let closing = is_closing(&normalized);
                    let skip = if closing {
                        None
                    } else {
                        raw_text_close(tag_name(&normalized))
                    };
                    let astart = self.arena.len();
                    self.arena.push_str(&normalized);
                    self.push_arena(astart, TypeSet::html(), start..self.pos);
                    self.skip_until = skip;
                }
            }
            None => {
                // Unterminated tag: treat the '<' as text and continue.
                self.push_input(start, start + 1, TypeSet::classify_text("<"));
                self.pos += 1;
            }
        }
    }

    /// On a clean (already-normalized) non-closing tag, checks whether its
    /// name opens a raw-text element. `inner` starts at the name byte.
    #[inline]
    fn enter_raw_text_if_needed(&mut self, inner: &[u8]) {
        // The name ends at ' ', '/' or '>' — same cut as `tag_name`.
        let name_len = inner
            .iter()
            .position(|&b| b == b' ' || b == b'/' || b == b'>')
            .unwrap_or(inner.len());
        if let Ok(name) = std::str::from_utf8(&inner[..name_len]) {
            self.skip_until = raw_text_close(name);
        }
    }

    fn lex_text(&mut self) {
        let mut word = Word::None;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match CLASS[b as usize] {
                CL_LT => break,
                CL_WS => {
                    self.flush_word(&mut word);
                    // Bulk-skip the whitespace run.
                    let mut i = self.pos + 1;
                    while i < self.bytes.len() && CLASS[self.bytes[i] as usize] == CL_WS {
                        i += 1;
                    }
                    self.pos = i;
                }
                CL_WORD => {
                    // Bulk-consume the ASCII alphanumeric run.
                    let run_start = self.pos;
                    let mut i = run_start + 1;
                    while i < self.bytes.len() && CLASS[self.bytes[i] as usize] == CL_WORD {
                        i += 1;
                    }
                    match word {
                        Word::None => {
                            word = Word::Borrowed {
                                start: run_start,
                                end: i,
                            }
                        }
                        Word::Borrowed { start, .. } => word = Word::Borrowed { start, end: i },
                        Word::Arena { .. } => self.arena.push_str(&self.input[run_start..i]),
                    }
                    self.pos = i;
                }
                CL_PUNCT => {
                    self.flush_word(&mut word);
                    let p = self.pos;
                    self.push_input(p, p + 1, TypeSet::classify_text(&self.input[p..p + 1]));
                    self.pos = p + 1;
                }
                CL_AMP => match decode_entity(self.input, self.pos) {
                    Some((ch, used)) => {
                        if ch.is_whitespace() {
                            self.flush_word(&mut word);
                            self.pos += used;
                        } else if ch.is_alphanumeric() {
                            // The decoded char joins the word, which must
                            // now live in the arena.
                            match word {
                                Word::None => {
                                    word = Word::Arena {
                                        start: self.arena.len(),
                                        offset: self.pos,
                                    };
                                }
                                Word::Borrowed { start, end } => {
                                    let astart = self.arena.len();
                                    self.arena.push_str(&self.input[start..end]);
                                    word = Word::Arena {
                                        start: astart,
                                        offset: start,
                                    };
                                }
                                Word::Arena { .. } => {}
                            }
                            self.arena.push(ch);
                            self.pos += used;
                        } else {
                            self.flush_word(&mut word);
                            let astart = self.arena.len();
                            self.arena.push(ch);
                            let types = TypeSet::classify_text(&self.arena[astart..]);
                            self.push_arena(astart, types, self.pos..self.pos + used);
                            self.pos += used;
                        }
                    }
                    None => {
                        // Not an entity: '&' is an ordinary punctuation char.
                        self.flush_word(&mut word);
                        let p = self.pos;
                        self.push_input(p, p + 1, TypeSet::classify_text("&"));
                        self.pos = p + 1;
                    }
                },
                _ => {
                    // CL_HI: non-ASCII — decode the char.
                    let Some(ch) = self.input[self.pos..].chars().next() else {
                        // `pos` is always advanced by whole chars, so this
                        // is unreachable — resynchronize if it ever breaks.
                        self.flush_word(&mut word);
                        self.pos += 1;
                        continue;
                    };
                    let used = ch.len_utf8();
                    if ch.is_whitespace() {
                        self.flush_word(&mut word);
                    } else if ch.is_alphanumeric() {
                        match word {
                            Word::None => {
                                word = Word::Borrowed {
                                    start: self.pos,
                                    end: self.pos + used,
                                }
                            }
                            Word::Borrowed { start, end } => {
                                debug_assert_eq!(end, self.pos, "borrowed word is contiguous");
                                word = Word::Borrowed {
                                    start,
                                    end: self.pos + used,
                                };
                            }
                            Word::Arena { .. } => self.arena.push(ch),
                        }
                    } else {
                        self.flush_word(&mut word);
                        let p = self.pos;
                        let types = TypeSet::classify_text(&self.input[p..p + used]);
                        self.push_input(p, p + used, types);
                    }
                    self.pos += used;
                }
            }
        }
        self.flush_word(&mut word);
    }

    fn flush_word(&mut self, word: &mut Word) {
        match *word {
            Word::None => {}
            Word::Borrowed { start, end } => {
                let types = TypeSet::classify_text(&self.input[start..end]);
                self.push_input(start, end, types);
            }
            Word::Arena { start, offset } => {
                // A word ends where the scan stands: at the byte that
                // flushed it.
                let types = TypeSet::classify_text(&self.arena[start..]);
                self.push_arena(start, types, offset..self.pos);
            }
        }
        *word = Word::None;
    }
}

/// The closing needle if `name` opens a raw-text element.
#[inline]
fn raw_text_close(name: &str) -> Option<&'static [u8]> {
    match name {
        "script" => Some(b"</script"),
        "style" => Some(b"</style"),
        _ => None,
    }
}

/// Returns `true` if a raw tag (including `<` and `>`) is byte-identical
/// to its [`normalize_tag`] form, so its text can be borrowed from the
/// page. Conservative: any non-ASCII byte takes the slow path (Unicode
/// whitespace would be collapsed by normalization).
fn tag_is_normalized(raw: &[u8]) -> bool {
    let inner = &raw[1..raw.len() - 1];
    if inner.first() == Some(&b' ') {
        return false;
    }
    let mut in_name = true;
    for (j, &b) in inner.iter().enumerate() {
        if b >= 0x80 || matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r') {
            return false;
        }
        if b == b' ' {
            in_name = false;
            // No runs, no trailing space before '>'.
            if j + 1 == inner.len() || inner[j + 1] == b' ' {
                return false;
            }
        } else if in_name && b.is_ascii_uppercase() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workhorse assertion: scan ≡ the oracle lexer, token for token.
    fn assert_equiv(input: &str) {
        let oracle = crate::oracle::tokenize(input);
        let got = crate::lexer::tokenize(input);
        assert_eq!(got, oracle, "scan ≢ oracle lexer on {input:?}");
    }

    #[test]
    fn matches_oracle_on_lexer_test_corpus() {
        for input in [
            "",
            "  \n\t ",
            "<tr><td>John Smith</td></tr>",
            "(740) 335-5555",
            "AT&amp;T",
            "&#66;ob",
            "a&nbsp;b",
            "a<!-- hidden <b> -->c",
            "a<!-- unterminated",
            "a<!-- tricky -- ->x--->b",
            "<script>var x = '<td>data</td>';</script>after",
            "<style>td { color: red }</style>x",
            "<SCRIPT>boom</SCRIPT>y",
            "<script>never closed",
            "<script src=x>var a;</script>done",
            "<script/>not skipped?",
            "<TD ALIGN=left>",
            "<td\n  align = 'x'>",
            "<BR/>",
            "3 < 4",
            "<td never closes",
            "<td>Hi, Bob</td>",
            "Montréal, QC",
            "naïve café — über",
            "<p>price: $4.99 &lt; $10</p>",
            "<!DOCTYPE html><html a=1></html>",
            "x<y>z",
            "< td>",
            "<>",
            "<\u{00e9}>",
            "&bogus; &#xZZ; &",
            "A&#768;B",
            "<td >one</td\t>",
            "word&#65;more",
            "tail&#32;space",
            "&amp;&amp;",
            "ไทย ภาษา",
            "１２３ fullwidth",
        ] {
            assert_equiv(input);
        }
    }

    #[test]
    fn common_tokens_are_borrowed() {
        let page = "<tr><td align=x>John Smith</td><td>(555) 100-0001</td></tr>";
        let scanned = scan(page);
        assert!(scanned.tokens().iter().all(SpanToken::is_borrowed));
        assert_eq!(scanned.arena_len(), 0);
    }

    #[test]
    fn arena_holds_only_decoded_and_normalized_texts() {
        let page = "<TD>AT&amp;T &#66;ob</TD>";
        let scanned = scan(page);
        let texts: Vec<&str> = scanned
            .tokens()
            .iter()
            .filter(|t| !t.is_borrowed())
            .map(|t| scanned.text(page, t))
            .collect();
        assert_eq!(texts, ["<td>", "&", "Bob", "</td>"]);
        assert_equiv(page);
    }

    #[test]
    fn word_spanning_entity_then_run_stays_joined() {
        // Entity first, ASCII run after: the arena word keeps growing.
        assert_equiv("&#66;obby");
        // Borrowed run, entity, another run: converts mid-word.
        assert_equiv("Bo&#98;by");
        let scanned = scan("Bo&#98;by");
        assert!(!scanned.tokens()[0].is_borrowed());
        let toks = crate::lexer::tokenize("Bo&#98;by");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "Bobby");
        assert_eq!(toks[0].offset, 0);
    }

    #[test]
    fn memchr_agrees_with_position() {
        let hay = b"abcdefghijklmnop<qrstuvwx>yz&";
        for needle in [b'<', b'>', b'&', b'a', b'z', b'Q', 0u8, 0xFFu8] {
            assert_eq!(
                memchr(needle, hay),
                hay.iter().position(|&b| b == needle),
                "needle {needle:#x}"
            );
        }
        assert_eq!(memchr(b'x', b""), None);
        for n in 0..24 {
            let hay = vec![b'a'; n];
            assert_eq!(memchr(b'a', &hay), if n == 0 { None } else { Some(0) });
            assert_eq!(memchr(b'b', &hay), None);
        }
    }

    #[test]
    fn tag_cleanliness_matches_normalize() {
        for raw in [
            "<td>",
            "<td align=left>",
            "<br/>",
            "</table>",
            "<td  double>",
            "<td trailing >",
            "< leading>",
            "<TD>",
            "<td ALIGN=Left>",
            "<td\talign=x>",
            "<a href='x y'>",
            "<!doctype html>",
        ] {
            let clean = tag_is_normalized(raw.as_bytes());
            let expect = normalize_tag(raw) == raw;
            assert_eq!(clean, expect, "{raw:?}");
        }
    }

    #[test]
    fn sources_span_each_tokens_page_bytes() {
        let page = "<TD >Bo&#98;by &amp; caf&#233;</table  >\u{a0}x&lt;</TABLE\n>";
        let scanned = scan(page);
        let sources: Vec<(&str, &str)> = scanned
            .tokens()
            .iter()
            .map(|t| {
                (
                    scanned.text(page, t),
                    &page[t.offset as usize..t.end as usize],
                )
            })
            .collect();
        assert_eq!(
            sources,
            [
                ("<td>", "<TD >"),
                ("Bobby", "Bo&#98;by"),
                ("&", "&amp;"),
                ("café", "caf&#233;"),
                ("</table>", "</table  >"),
                ("x", "x"),
                ("<", "&lt;"),
                ("</table>", "</TABLE\n>"),
            ]
        );
        for t in scanned.tokens().iter().filter(|t| t.is_borrowed()) {
            assert_eq!((t.end - t.offset) as usize, scanned.text(page, t).len());
        }
    }

    #[test]
    fn offsets_are_page_byte_offsets() {
        let page = "<td>Hi, Bob &amp; Ann</td>";
        let scanned = scan(page);
        for (text, _types, offset) in scanned.iter(page) {
            if !text.starts_with('<') {
                let first = text.chars().next().expect("non-empty token");
                // Entity-decoded texts start at the '&' of the entity.
                if page[offset..].starts_with(first) {
                    continue;
                }
                assert!(page[offset..].starts_with('&'), "{text:?} at {offset}");
            }
        }
    }

    #[test]
    fn comment_terminator_edge_cases() {
        for input in ["<!-->after", "<!--->after", "<!---->after", "<!-- -- -->x"] {
            assert_equiv(input);
        }
    }
}
