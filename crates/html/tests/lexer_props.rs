//! Property tests for the HTML substrate: writer → lexer → DOM
//! round-trips, lexer robustness on arbitrary input, and the scanner
//! against the allocating oracle lexer ([`oracle`]).

mod oracle;

use proptest::prelude::*;

use tableseg_html::dom::parse;
use tableseg_html::lexer::tokenize;
use tableseg_html::writer::{render_tokens, HtmlWriter};
use tableseg_html::{Interner, TypeSet};

/// Asserts the zero-copy scanner reproduces the oracle lexer exactly —
/// texts, types, offsets — and that both interning paths agree.
fn assert_scan_equiv(input: &str) -> Result<(), TestCaseError> {
    let oracle = oracle::tokenize(input);
    let got = tokenize(input);
    prop_assert_eq!(&got, &oracle, "scan ≢ tokenize on {:?}", input);
    let mut a = Interner::new();
    let mut b = Interner::new();
    let (syms, spans) = a.intern_page(input);
    let starts: Vec<usize> = spans.iter().map(|s| s.start as usize).collect();
    let offsets: Vec<usize> = oracle.iter().map(|t| t.offset).collect();
    prop_assert_eq!(starts, offsets, "span starts ≢ offsets on {:?}", input);
    prop_assert_eq!(
        syms,
        oracle
            .iter()
            .map(|t| b.intern_typed(&t.text, t.types))
            .collect::<Vec<_>>(),
        "interned streams diverged on {:?}",
        input
    );
    prop_assert_eq!(a.len(), b.len());
    Ok(())
}

/// Words safe to embed as text content (no markup characters; the writer
/// escapes those anyway, but keeping them plain makes assertions direct).
fn arb_word() -> impl Strategy<Value = String> {
    "[A-Za-z0-9]{1,10}"
}

/// A fragment of page markup: tags, words, entities, punctuation — the
/// pieces are concatenated with or without separating spaces, so entity
/// and word boundaries land in arbitrary places.
fn arb_html_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_tag().prop_map(|t| format!("<{t}>")),
        arb_tag().prop_map(|t| format!("</{t}>")),
        arb_word(),
        prop_oneof![
            Just("&amp;".to_owned()),
            Just("&lt;".to_owned()),
            Just("&gt;".to_owned()),
            Just("&quot;".to_owned()),
            Just("&nbsp;".to_owned()),
            Just("&#65;".to_owned()),
        ],
        prop_oneof![
            Just("(".to_owned()),
            Just(")".to_owned()),
            Just(",".to_owned()),
            Just(".".to_owned()),
            Just("-".to_owned()),
            Just("$".to_owned()),
        ],
    ]
}

fn arb_tag() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("div".to_owned()),
        Just("p".to_owned()),
        Just("td".to_owned()),
        Just("tr".to_owned()),
        Just("b".to_owned()),
        Just("span".to_owned()),
    ]
}

proptest! {
    /// The lexer never panics and produces typed tokens on arbitrary
    /// (possibly malformed) input.
    #[test]
    fn lexer_total_on_arbitrary_input(input in ".{0,300}") {
        let tokens = tokenize(&input);
        for t in tokens {
            prop_assert!(!t.text.is_empty());
            prop_assert!(t.offset <= input.len());
            if !t.is_html() {
                prop_assert!(!t.types.is_empty() || t.text.chars().all(char::is_whitespace));
            }
        }
    }

    /// The byte-level entry point is total: arbitrary byte strings —
    /// including invalid UTF-8, stray `<`, and NUL bytes — tokenize
    /// without panicking, and every token's text is non-empty.
    #[test]
    fn tokenize_bytes_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let tokens = tableseg_html::lexer::tokenize_bytes(&bytes);
        for t in &tokens {
            prop_assert!(!t.text.is_empty());
            // Lossy decoding can grow the text — each invalid byte may
            // become one 3-byte U+FFFD — so offsets are bounded by 3x.
            prop_assert!(t.offset <= bytes.len() * 3);
        }
    }

    /// Writer output tokenizes back to exactly the words written, in
    /// order, with balanced tags.
    #[test]
    fn writer_lexer_roundtrip(
        structure in proptest::collection::vec((arb_tag(), proptest::collection::vec(arb_word(), 0..4)), 1..8),
    ) {
        let mut w = HtmlWriter::new();
        let mut expected_words = Vec::new();
        for (tag, words) in &structure {
            w.open(tag);
            for word in words {
                w.text(word);
                w.text(" ");
                expected_words.push(word.clone());
            }
            w.close();
        }
        let html = w.finish();
        let tokens = tokenize(&html);
        let words: Vec<&str> = tokens
            .iter()
            .filter(|t| t.is_text())
            .map(|t| t.text.as_str())
            .collect();
        prop_assert_eq!(words, expected_words.iter().map(String::as_str).collect::<Vec<_>>());
        // Open and close tags balance.
        let opens = tokens.iter().filter(|t| t.is_html() && !t.text.starts_with("</")).count();
        let closes = tokens.iter().filter(|t| t.text.starts_with("</")).count();
        prop_assert_eq!(opens, closes);
    }

    /// DOM parsing of writer output preserves the full text content.
    #[test]
    fn writer_dom_roundtrip(words in proptest::collection::vec(arb_word(), 1..10)) {
        let mut w = HtmlWriter::new();
        w.open("html").open("body");
        for word in &words {
            w.element("p", word);
        }
        let html = w.finish();
        let dom = parse(&html);
        let text = dom.text_content();
        for word in &words {
            prop_assert!(text.contains(word.as_str()), "{} missing from {}", word, text);
        }
    }

    /// Entity decoding never panics and is identity on entity-free ASCII.
    #[test]
    fn entities_total(input in "[a-zA-Z0-9 .,;:!?-]{0,100}") {
        let decoded = tableseg_html::entities::decode_all(&input);
        prop_assert_eq!(decoded, input);
    }

    /// Tokenizer round-trip: `tokenize → render_tokens → tokenize` yields
    /// an identical token stream — same texts and same `TypeSet` bitsets —
    /// over generated HTML that mixes tags, words, punctuation and
    /// entities at arbitrary boundaries.
    #[test]
    fn tokenize_render_tokenize_is_identity(
        pieces in proptest::collection::vec((arb_html_piece(), proptest::bool::ANY), 0..30),
    ) {
        let mut html = String::new();
        for (piece, spaced) in &pieces {
            html.push_str(piece);
            if *spaced {
                html.push(' ');
            }
        }
        let tokens = tokenize(&html);
        let rendered = render_tokens(&tokens);
        let again = tokenize(&rendered);
        prop_assert_eq!(
            tokens.len(),
            again.len(),
            "token count changed\nsource:   {:?}\nrendered: {:?}",
            html,
            rendered
        );
        for (a, b) in tokens.iter().zip(&again) {
            prop_assert_eq!(&a.text, &b.text, "text drifted in {:?}", rendered);
            prop_assert_eq!(a.types, b.types, "types drifted for {:?} in {:?}", &a.text, rendered);
        }
    }

    /// The zero-copy scanner is equivalent to the allocating oracle on
    /// arbitrary (possibly malformed) text input.
    #[test]
    fn scan_equals_tokenize_on_arbitrary_input(input in ".{0,300}") {
        assert_scan_equiv(&input)?;
    }

    /// The equivalence holds on arbitrary *byte* strings after the same
    /// lossy decode the byte-level entry point performs — invalid UTF-8,
    /// NUL bytes, stray markup and all.
    #[test]
    fn scan_equals_tokenize_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        assert_scan_equiv(&text)?;
    }

    /// The equivalence holds over the round-trip `render_tokens` corpus:
    /// generated HTML mixing tags, words, entities and punctuation at
    /// arbitrary boundaries, plus its rendered normal form.
    #[test]
    fn scan_equals_tokenize_on_rendered_corpus(
        pieces in proptest::collection::vec((arb_html_piece(), proptest::bool::ANY), 0..30),
    ) {
        let mut html = String::new();
        for (piece, spaced) in &pieces {
            html.push_str(piece);
            if *spaced {
                html.push(' ');
            }
        }
        assert_scan_equiv(&html)?;
        let rendered = render_tokens(&tokenize(&html));
        assert_scan_equiv(&rendered)?;
    }

    /// Type classification is deterministic and consistent with the
    /// non-mutually-exclusive hierarchy.
    #[test]
    fn typeset_hierarchy(word in "[A-Za-z0-9]{1,12}") {
        use tableseg_html::TokenType as T;
        let set = TypeSet::classify_text(&word);
        prop_assert!(set.contains(T::Alphanumeric));
        if set.contains(T::Numeric) {
            prop_assert!(!set.contains(T::Alphabetic));
        }
        for sub in [T::Capitalized, T::Lowercase, T::Allcaps] {
            if set.contains(sub) {
                prop_assert!(set.contains(T::Alphabetic), "{:?} for {}", set, word);
            }
        }
    }
}
