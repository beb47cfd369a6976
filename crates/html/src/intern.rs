//! Token-text interning: the pipeline-wide symbol front end.
//!
//! Every downstream stage — template induction, LCS alignment, extract
//! derivation, separator classification, extract matching, evidence
//! building — compares token *texts*. Comparing interned `u32` symbols
//! instead keeps those inner loops to a single integer compare and lets
//! per-site state (occurrence indexes, separator masks) be keyed by dense
//! symbol ids. Pages are interned **once per site**; strings are
//! materialized again only at report/annotation time.
//!
//! Symbols also carry the token's syntactic [`TypeSet`]: the lexer derives
//! types deterministically from the text (tags are `<...>` and always
//! typed `html`; everything else goes through
//! [`TypeSet::classify_text`]), so two tokens with equal text always have
//! equal types and the set can be stored per symbol.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::token::{Token, TypeSet};

/// A symbol id for an interned token text.
pub type Symbol = u32;

/// A fast non-cryptographic hasher (the FxHash multiply-rotate scheme)
/// for the symbol front end's hot maps: the interner's text table, the
/// per-page occurrence buckets, and needle memo tables. None of those
/// maps is ever iterated, so hash order cannot leak into output; keys are
/// in-process token texts, so DoS-resistant hashing buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = rest.len() as u64;
            for &b in rest {
                word = (word << 8) | b as u64;
            }
            self.add(word);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`std::collections::HashMap`] with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// The sentinel symbol for a text that is *not* in an interner, produced
/// by the read-only [`Interner::project_tokens`]. Never allocated by
/// [`Interner::intern`], so it compares unequal to every real symbol.
pub const UNKNOWN_SYMBOL: Symbol = Symbol::MAX;

/// Interns token texts to dense `u32` symbols, remembering each symbol's
/// text and syntactic types.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    map: FastMap<String, Symbol>,
    texts: Vec<String>,
    types: Vec<TypeSet>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns one text with its syntactic types, returning its symbol.
    ///
    /// The first interning of a text fixes its types; the lexer's
    /// text-to-types mapping is deterministic, so later internings of the
    /// same text always carry the same set.
    pub fn intern_typed(&mut self, text: &str, types: TypeSet) -> Symbol {
        // Single owned key, allocated only on a miss (the seed version
        // called `to_owned()` twice per new text).
        match self.map.entry(text.to_owned()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let sym = Symbol::try_from(self.texts.len()).expect("fewer than 2^32 tokens");
                assert!(sym != UNKNOWN_SYMBOL, "interner full");
                self.texts.push(e.key().clone());
                self.types.push(types);
                e.insert(sym);
                sym
            }
        }
    }

    /// Interns one bare text, classifying its types from the text alone
    /// (tags — texts of the form `<...>` with length > 1 — type as
    /// `html`, everything else via [`TypeSet::classify_text`]).
    pub fn intern(&mut self, text: &str) -> Symbol {
        let types = if text.len() > 1 && text.starts_with('<') {
            TypeSet::html()
        } else {
            TypeSet::classify_text(text)
        };
        self.intern_typed(text, types)
    }

    /// Interns one token, taking the types the lexer assigned.
    pub fn intern_token(&mut self, token: &Token) -> Symbol {
        self.intern_typed(&token.text, token.types)
    }

    /// Interns a whole token stream.
    pub fn intern_tokens(&mut self, tokens: &[Token]) -> Vec<Symbol> {
        tokens.iter().map(|t| self.intern_token(t)).collect()
    }

    /// Looks up a text without interning it.
    pub fn lookup(&self, text: &str) -> Option<Symbol> {
        self.map.get(text).copied()
    }

    /// Maps a token stream through the interner **read-only**: tokens
    /// whose text is not interned become [`UNKNOWN_SYMBOL`].
    ///
    /// This is how detail pages enter the symbol domain: extract needles
    /// always come from already-interned list pages, so a detail token
    /// that misses the interner cannot equal any needle token — one
    /// shared sentinel loses nothing, and the site interner stays
    /// immutable (and freely shared across batch worker threads).
    pub fn project_tokens(&self, tokens: &[Token]) -> Vec<Symbol> {
        tokens
            .iter()
            .map(|t| self.lookup(&t.text).unwrap_or(UNKNOWN_SYMBOL))
            .collect()
    }

    /// Interns a zero-copy scanned stream (see [`crate::scan()`]) without
    /// materializing owned [`Token`]s: each span is resolved against the
    /// page it was scanned from and interned with its lexer-assigned
    /// types. Equivalent to `intern_tokens(&scanned.to_tokens(input))`.
    pub fn intern_scanned(
        &mut self,
        scanned: &crate::scan::ScanTokens,
        input: &str,
    ) -> Vec<Symbol> {
        scanned
            .iter(input)
            .map(|(text, types, _)| self.intern_typed(text, types))
            .collect()
    }

    /// Looks up the text of a symbol.
    pub fn text(&self, sym: Symbol) -> &str {
        &self.texts[sym as usize]
    }

    /// Looks up the syntactic types of a symbol.
    pub fn types(&self, sym: Symbol) -> TypeSet {
        self.types[sym as usize]
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Returns `true` if no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::token::TokenType;

    #[test]
    fn interning_is_stable() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        let a2 = i.intern("foo");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.text(a), "foo");
        assert_eq!(i.text(b), "bar");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn intern_tokens_maps_stream() {
        let toks = tokenize("<td>a</td><td>a</td>");
        let mut i = Interner::new();
        let syms = i.intern_tokens(&toks);
        assert_eq!(syms.len(), 6);
        assert_eq!(syms[0], syms[3], "<td> interned identically");
        assert_eq!(syms[1], syms[4], "'a' interned identically");
    }

    #[test]
    fn symbols_carry_token_types() {
        let toks = tokenize("<td>John 42</td>");
        let mut i = Interner::new();
        let syms = i.intern_tokens(&toks);
        assert!(i.types(syms[0]).contains(TokenType::Html));
        assert!(i.types(syms[1]).contains(TokenType::Capitalized));
        assert!(i.types(syms[2]).contains(TokenType::Numeric));
    }

    #[test]
    fn bare_intern_classifies_like_the_lexer() {
        let mut i = Interner::new();
        for (text, ty) in [
            ("<td>", TokenType::Html),
            ("</table>", TokenType::Html),
            ("<", TokenType::Punctuation),
            ("(", TokenType::Punctuation),
            ("Smith", TokenType::Capitalized),
            ("5555", TokenType::Numeric),
        ] {
            let sym = i.intern(text);
            assert!(i.types(sym).contains(ty), "{text}");
        }
    }

    #[test]
    fn projection_is_read_only() {
        let list = tokenize("<td>John</td>");
        let detail = tokenize("<p>John Doe</p>");
        let mut i = Interner::new();
        let list_syms = i.intern_tokens(&list);
        let before = i.len();
        let detail_syms = i.project_tokens(&detail);
        assert_eq!(i.len(), before, "projection never interns");
        // "John" resolves to its list symbol; unseen texts to the sentinel.
        assert_eq!(detail_syms[1], list_syms[1]);
        assert_eq!(detail_syms[0], UNKNOWN_SYMBOL);
        assert_eq!(detail_syms[2], UNKNOWN_SYMBOL);
        assert_eq!(i.lookup("John"), Some(list_syms[1]));
        assert_eq!(i.lookup("Doe"), None);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert_eq!(i.lookup("x"), None);
    }

    #[test]
    fn fast_hasher_distinguishes_and_repeats() {
        fn h(bytes: &[u8]) -> u64 {
            let mut hasher = FastHasher::default();
            hasher.write(bytes);
            hasher.finish()
        }
        assert_eq!(h(b"John Smith"), h(b"John Smith"));
        assert_ne!(h(b"John Smith"), h(b"John Smit"));
        assert_ne!(h(b"ab"), h(b"ba"));
        assert_ne!(h(b""), h(b"\0"));
        // Length feeds the tail word: a short prefix of zeros differs
        // from fewer zeros.
        assert_ne!(h(&[0, 0]), h(&[0]));
    }
}
