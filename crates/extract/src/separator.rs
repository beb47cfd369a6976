//! The separator definition (Section 3.2).
//!
//! "Separators are HTML tags and special punctuation characters (any
//! character that is not in the set `.,()-`)."

use tableseg_html::{Interner, Symbol, TokenType, TypeSet, UNKNOWN_SYMBOL};

/// Punctuation characters that are **not** separators — they may appear
/// inside an extract (street numbers `221-B`, phone numbers `(740)
/// 335-5555`, city-state `Findlay, OH`).
pub const NON_SEPARATOR_PUNCT: [char; 5] = ['.', ',', '(', ')', '-'];

/// Returns `true` if a punctuation character is a separator.
#[inline]
pub fn is_separator_char(ch: char) -> bool {
    !NON_SEPARATOR_PUNCT.contains(&ch)
}

/// Returns `true` if a token — its text and syntactic types — is a
/// separator: an HTML tag, or a punctuation token whose character is
/// outside `.,()-`. The per-symbol [`SeparatorMask`], extract derivation
/// and the zero-copy scan path all share this.
#[inline]
pub fn is_separator(text: &str, types: TypeSet) -> bool {
    if types.contains(TokenType::Html) {
        return true;
    }
    if types.contains(TokenType::Punctuation) {
        // Punctuation tokens produced by the lexer are single characters;
        // a pathological empty text (never lexer-produced) separates.
        return match text.chars().next() {
            Some(ch) => is_separator_char(ch),
            None => true,
        };
    }
    false
}

/// The separator decision precomputed for every symbol of an interner.
///
/// Token text determines the separator verdict, so on interned streams the
/// per-token classification collapses to one bit lookup per symbol —
/// computed once per site, not once per token occurrence.
#[derive(Debug, Clone)]
pub struct SeparatorMask {
    flags: Vec<bool>,
}

impl SeparatorMask {
    /// Classifies every symbol of `interner`.
    pub fn build(interner: &Interner) -> SeparatorMask {
        let flags = (0..interner.len() as Symbol)
            .map(|sym| is_separator(interner.text(sym), interner.types(sym)))
            .collect();
        SeparatorMask { flags }
    }

    /// Returns `true` if `sym` is a separator. [`UNKNOWN_SYMBOL`] (and any
    /// symbol interned after the mask was built) is treated as
    /// non-separator; pipeline streams are fully interned before masks are
    /// built, so neither occurs there.
    #[inline]
    pub fn is_separator(&self, sym: Symbol) -> bool {
        sym != UNKNOWN_SYMBOL && self.flags.get(sym as usize).copied().unwrap_or(false)
    }

    /// Number of classified symbols.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Returns `true` if no symbol was classified.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_html::scan;

    /// The separator verdict of each token of `html`.
    fn verdicts(html: &str) -> Vec<bool> {
        scan(html)
            .iter(html)
            .map(|(text, types, _)| is_separator(text, types))
            .collect()
    }

    #[test]
    fn tags_are_separators() {
        assert_eq!(verdicts("<br><td align=x></table>"), [true; 3]);
    }

    #[test]
    fn allowed_punctuation_is_not_a_separator() {
        for p in [".", ",", "(", ")", "-"] {
            assert_eq!(verdicts(p), [false], "{p}");
        }
    }

    #[test]
    fn special_punctuation_is_a_separator() {
        for p in ["~", "|", ":", ";", "$", "&", "*", "#", "/", "!"] {
            assert_eq!(verdicts(p), [true], "{p}");
        }
    }

    #[test]
    fn words_are_not_separators() {
        for w in ["John", "5555", "221R", "oh"] {
            assert_eq!(verdicts(w), [false], "{w}");
        }
    }

    #[test]
    fn mask_agrees_with_token_classification() {
        let html = "<td>John (740) 335-5555</td> ~ | more";
        let mut interner = Interner::new();
        let (syms, _) = interner.intern_page(html);
        let mask = SeparatorMask::build(&interner);
        assert_eq!(mask.len(), interner.len());
        let by_token: Vec<bool> = syms.iter().map(|&s| mask.is_separator(s)).collect();
        assert_eq!(by_token, verdicts(html));
    }

    #[test]
    fn mask_treats_unknown_as_non_separator() {
        let mask = SeparatorMask::build(&Interner::new());
        assert!(mask.is_empty());
        assert!(!mask.is_separator(UNKNOWN_SYMBOL));
        assert!(!mask.is_separator(7));
    }
}
