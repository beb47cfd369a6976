//! HTML substrate for the `tableseg` pipeline.
//!
//! The segmentation algorithms of Lerman et al. (SIGMOD 2004) operate on
//! *token streams*, not DOM trees: a page is split into words ("tokens"),
//! HTML escape sequences are converted to ASCII, and every token is assigned
//! one or more of eight **syntactic token types** (Section 3.1 of the paper):
//!
//! * `html` — an HTML tag,
//! * `punctuation` — a punctuation character,
//! * `alphanumeric` — a run of letters and/or digits, which may additionally
//!   be `numeric` or `alphabetic`, and an alphabetic token may additionally
//!   be `capitalized`, `lowercase`, or `allcaps`.
//!
//! The types are deliberately **non-mutually exclusive** and are represented
//! here as a bitset ([`TypeSet`]).
//!
//! This crate provides:
//!
//! * [`scan()`] — the page tokenizer: one zero-copy pass producing span
//!   tokens with their source byte ranges,
//! * [`intern`] — token-text interning: pages are mapped once to dense
//!   `u32` [`Symbol`]s so that every downstream comparison (template LCS,
//!   extract matching, separator tests) is an integer compare. A list
//!   page lives in the pipeline as its symbol stream plus each token's
//!   byte range ([`Interner::intern_page`]); texts and types are read
//!   back through the interner,
//! * [`lexer::tokenize`] — the same stream as owned [`Token`]s, for the
//!   baselines and the differential tests,
//! * [`entities`] — HTML entity decoding (escape sequences → ASCII),
//! * [`dom`] — a small, forgiving DOM parser used by the DOM-heuristic
//!   baseline and by the site simulator's round-trip tests,
//! * [`writer`] — escaping helpers used when *generating* HTML.
//!
//! # Example
//!
//! ```
//! use tableseg_html::{Interner, TokenType};
//!
//! let page = "<tr><td>John Smith</td><td>(740) 335-5555</td></tr>";
//! let mut interner = Interner::new();
//! let (symbols, spans) = interner.intern_page(page);
//! let texts: Vec<&str> = symbols.iter().map(|&s| interner.text(s)).collect();
//! assert_eq!(
//!     texts,
//!     ["<tr>", "<td>", "John", "Smith", "</td>", "<td>", "(", "740", ")",
//!      "335", "-", "5555", "</td>", "</tr>"]
//! );
//! assert!(interner.types(symbols[2]).contains(TokenType::Capitalized));
//! assert!(interner.types(symbols[7]).contains(TokenType::Numeric));
//! assert_eq!(&page[spans[2].start as usize..spans[2].end as usize], "John");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dom;
pub mod entities;
pub mod error;
pub mod intern;
pub mod lexer;
pub mod scan;
pub mod token;
pub mod writer;

pub use error::SegError;
pub use intern::{FastHasher, FastMap, Interner, Symbol, UNKNOWN_SYMBOL};
pub use scan::{scan, ScanTokens, SpanToken};
pub use token::{Token, TokenType, TypeSet};
pub use writer::render_tokens;

// The allocating oracle lexer lives with the integration tests; the unit
// tests include the same file, which names this crate by its package name.
#[cfg(test)]
extern crate self as tableseg_html;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
