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
//!   tokens with source offsets; [`lexer::tokenize`] materializes them as
//!   owned [`Token`]s,
//! * [`intern`] — token-text interning: pages are mapped once to dense
//!   `u32` [`Symbol`]s so that every downstream comparison (template LCS,
//!   extract matching, separator tests) is an integer compare,
//! * [`entities`] — HTML entity decoding (escape sequences → ASCII),
//! * [`dom`] — a small, forgiving DOM parser used by the DOM-heuristic
//!   baseline and by the site simulator's round-trip tests,
//! * [`writer`] — escaping helpers used when *generating* HTML.
//!
//! # Example
//!
//! ```
//! use tableseg_html::{lexer::tokenize, TokenType};
//!
//! let toks = tokenize("<tr><td>John Smith</td><td>(740) 335-5555</td></tr>");
//! let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
//! assert_eq!(
//!     texts,
//!     ["<tr>", "<td>", "John", "Smith", "</td>", "<td>", "(", "740", ")",
//!      "335", "-", "5555", "</td>", "</tr>"]
//! );
//! assert!(toks[2].types.contains(TokenType::Capitalized));
//! assert!(toks[7].types.contains(TokenType::Numeric));
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
