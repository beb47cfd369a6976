//! Chaos-layer integration and property tests: every corruption operator
//! applied to real generated pages must leave the downstream tokenizer
//! total (no panic, guaranteed termination) and keep ground truth
//! well-formed, and the zero-copy scanner must agree with the allocating
//! oracle lexer on every simulated page. These tests live in
//! `tableseg-sitegen` (not `tableseg-html`) because the html crate cannot
//! dev-depend on the simulator without a dependency cycle; the oracle is
//! html's own test-suite copy.

#[path = "../../html/tests/oracle/mod.rs"]
mod oracle;

use proptest::prelude::*;

use tableseg_html::lexer::{tokenize, tokenize_bytes, tokenize_bytes_flagged};
use tableseg_html::scan;
use tableseg_sitegen::chaos::{apply_chaos, generate_chaotic, ChaosConfig, FaultKind};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;
use tableseg_sitegen::{Universe, UniverseConfig};

/// Every page (list and detail) of a chaos-damaged site.
fn all_pages(site: &tableseg_sitegen::GeneratedSite) -> Vec<&str> {
    site.pages
        .iter()
        .flat_map(|p| {
            std::iter::once(p.list_html.as_str()).chain(p.detail_html.iter().map(String::as_str))
        })
        .collect()
}

#[test]
fn every_operator_leaves_pages_tokenizable() {
    // Each fault kind alone at p=1, over several real site generators:
    // the damaged HTML must tokenize without panicking and with sane
    // offsets. This is the tokenizer-vs-corruption contract the pipeline
    // relies on.
    let specs = [paper_sites::butler(), paper_sites::amazon()];
    for spec in &specs {
        for kind in FaultKind::ALL {
            let (site, log) = generate_chaotic(spec, &ChaosConfig::only(kind, 1.0, 0xFEED));
            assert!(!log.is_empty(), "{kind:?} on {}", spec.name);
            for html in all_pages(&site) {
                let tokens = tokenize(html);
                for t in &tokens {
                    assert!(!t.text.is_empty());
                    assert!(t.offset < html.len().max(1), "{kind:?}: {t:?}");
                }
            }
        }
    }
}

#[test]
fn stacked_chaos_keeps_pages_tokenizable_across_seeds() {
    let spec = paper_sites::ohio();
    let clean = generate(&spec);
    for seed in 0..8u64 {
        let (site, _) = apply_chaos(&clean, &ChaosConfig::uniform(0.7, seed));
        for html in all_pages(&site) {
            // Termination + no panic; byte path too (encoding damage).
            let a = tokenize(html);
            let b = tokenize_bytes(html.as_bytes());
            assert_eq!(a.len(), b.len(), "seed {seed}");
        }
    }
}

#[test]
fn zero_copy_scan_matches_lexer_on_every_fault_kind() {
    // The span lexer must stay token-for-token identical to the
    // allocating oracle on damaged pages, not just clean ones: each
    // fault kind alone at p=1, then heavy stacked chaos across seeds.
    let specs = [paper_sites::butler(), paper_sites::amazon()];
    for spec in &specs {
        for kind in FaultKind::ALL {
            let (site, _) = generate_chaotic(spec, &ChaosConfig::only(kind, 1.0, 0xFEED));
            for html in all_pages(&site) {
                assert_eq!(
                    scan(html).to_tokens(html),
                    oracle::tokenize(html),
                    "{kind:?} on {}",
                    spec.name
                );
            }
        }
    }
    let clean = generate(&paper_sites::ohio());
    for seed in 0..4u64 {
        let (site, _) = apply_chaos(&clean, &ChaosConfig::uniform(0.7, seed));
        for html in all_pages(&site) {
            assert_eq!(
                scan(html).to_tokens(html),
                oracle::tokenize(html),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn zero_copy_scan_matches_lexer_on_universe_sites() {
    // A slice of the procedural universe, faults armed: the mega-corpus
    // generator cannot produce a page the two front ends disagree on.
    let u = Universe::new(UniverseConfig {
        sites: 12,
        fault_rate: 0.2,
        ..UniverseConfig::default()
    });
    for site in u.sites() {
        for html in all_pages(&site) {
            assert_eq!(scan(html).to_tokens(html), oracle::tokenize(html));
        }
    }
}

#[test]
fn zero_copy_scan_matches_lexer_on_paper_corpus_and_universe_sample() {
    // Every list and detail page of the twelve paper sites and of a
    // clean 25-site universe sample — the pages the pipeline and the
    // scale benchmark tokenize.
    let paper = paper_sites::all().iter().map(generate).collect::<Vec<_>>();
    let universe = Universe::new(UniverseConfig {
        sites: 25,
        ..UniverseConfig::default()
    });
    let mut pages = 0usize;
    for site in paper.into_iter().chain(universe.sites()) {
        for html in all_pages(&site) {
            assert_eq!(
                scan(html).to_tokens(html),
                oracle::tokenize(html),
                "{}",
                site.spec.name
            );
            pages += 1;
        }
    }
    assert!(pages > 500, "{pages} pages checked");
}

#[test]
fn truncated_multibyte_page_reports_lossy_decode() {
    // Regression for the `tokenize_bytes` offset caveat: slicing a page
    // mid-multibyte-character must set the `decoded` flag, because the
    // lossy decode rewrites the invalid tail to U+FFFD and token offsets
    // then index the *decoded* text, not the input bytes.
    // EncodingDamage at p=1 plants multibyte U+FFFD characters in every
    // page — the canonical truncated-multibyte chaos page.
    let (site, log) = generate_chaotic(
        &paper_sites::amazon(),
        &ChaosConfig::only(FaultKind::EncodingDamage, 1.0, 0xFEED),
    );
    assert!(!log.is_empty());
    let html = site
        .pages
        .iter()
        .map(|p| &p.list_html)
        .find(|h| h.chars().any(|c| c.len_utf8() > 1))
        .expect("encoding damage plants multibyte characters");
    let multibyte = html
        .char_indices()
        .find(|&(_, c)| c.len_utf8() > 1)
        .map(|(i, _)| i);
    // Cut one byte into the first multibyte character.
    let cut = multibyte.expect("page carries multibyte characters") + 1;
    let truncated = &html.as_bytes()[..cut];
    assert!(
        std::str::from_utf8(truncated).is_err(),
        "cut must land mid-character"
    );

    let flagged = tokenize_bytes_flagged(truncated);
    assert!(flagged.decoded, "lossy decode must be reported");
    // Offsets are valid in the decoded text: each token is findable at
    // its recorded offset of the decoded string.
    let decoded = String::from_utf8_lossy(truncated).into_owned();
    assert!(decoded.ends_with('\u{FFFD}'));
    for t in &flagged.tokens {
        assert!(t.offset <= decoded.len(), "{t:?}");
    }
    // The clean prefix (everything before the cut character) is
    // untouched, so there `decoded` stays false and offsets are byte
    // offsets into the input.
    let clean_prefix = &html.as_bytes()[..cut - 1];
    let clean = tokenize_bytes_flagged(clean_prefix);
    assert!(!clean.decoded);
    assert_eq!(
        clean.tokens,
        tokenize(std::str::from_utf8(clean_prefix).unwrap())
    );
}

#[test]
fn truth_values_survive_where_rows_survive() {
    // After chaos, every surviving truth span must still hold bytes the
    // evaluation can align: in-bounds and on char boundaries.
    let clean = generate(&paper_sites::lee());
    for seed in 0..10u64 {
        let (site, _) = apply_chaos(&clean, &ChaosConfig::uniform(0.5, seed));
        for page in &site.pages {
            for span in &page.truth.records {
                assert!(span.end <= page.list_html.len());
                assert!(page.list_html.is_char_boundary(span.start), "{span:?}");
                assert!(page.list_html.is_char_boundary(span.end), "{span:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any (probability, seed) pair produces a site whose every page
    /// tokenizes — the chaos layer cannot construct HTML the front end
    /// chokes on, no matter the knobs.
    #[test]
    fn arbitrary_chaos_is_always_tokenizable(p in 0.0f64..1.0, seed in any::<u64>()) {
        let (site, _) = generate_chaotic(
            &paper_sites::butler(),
            &ChaosConfig::uniform(p, seed),
        );
        for html in all_pages(&site) {
            let _ = tokenize(html);
        }
    }

    /// Chaos is a pure function of (site seed, chaos seed, probability).
    #[test]
    fn chaos_is_deterministic(p in 0.0f64..1.0, seed in any::<u64>()) {
        let cfg = ChaosConfig::uniform(p, seed);
        let a = generate_chaotic(&paper_sites::ohio(), &cfg);
        let b = generate_chaotic(&paper_sites::ohio(), &cfg);
        prop_assert_eq!(a, b);
    }
}
