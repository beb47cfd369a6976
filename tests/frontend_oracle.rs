//! The symbol front end against the owned-`Token` front end it replaced.
//!
//! For every list page of the paper corpus, a universe sample, the
//! multi-table detection cohort and chaos-damaged sites, the production
//! path — [`SiteTemplate`] (symbol streams and byte spans), its table
//! slot, [`derive_extracts`], [`try_prepare_with_template`] and
//! [`detect_regions`] — must give the values of the token oracle
//! (`oracle/mod.rs`, plus the naive matcher and token extraction of
//! `tableseg-extract`'s oracle): the template texts and anchors, the
//! [`TemplateQuality`](tableseg::template::TemplateQuality), the
//! table-slot ranges, the extracts (token range, offset, types, and
//! texts read through the site interner), the observation table and the
//! detected regions. Region byte
//! ranges may end later than the oracle's: a region now ends at its last
//! token's source end, where the oracle stopped at the token's
//! normalized text. Chaos seeds mix in `PROPTEST_SEED` when set.

#[path = "../crates/extract/tests/oracle/mod.rs"]
mod extract_oracle;
mod oracle;

use tableseg::html::lexer::tokenize;
use tableseg::html::Token;
use tableseg::{detect_regions, try_prepare_with_template, DetectOptions, SiteTemplate};
use tableseg_extract::derive_extracts;
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::scenario::{detect_cohort, generate_multi_table};
use tableseg_sitegen::site::{generate, GeneratedSite};
use tableseg_sitegen::{Universe, UniverseConfig};

/// The chaos seed: `PROPTEST_SEED` when set (decimal or `0x` hex), a fixed
/// default otherwise.
fn base_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(raw) => match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).expect("PROPTEST_SEED hex"),
            None => raw.parse().expect("PROPTEST_SEED u64"),
        },
        Err(_) => 0xF0E1_D2C3,
    }
}

/// Checks every page of `site` against the oracle; returns the pages
/// checked and how many of them detection split into regions.
fn assert_site_matches_oracle(site: &GeneratedSite, ctx: &str) -> (usize, usize) {
    let lists = site.list_htmls();
    let tokens: Vec<Vec<Token>> = lists.iter().map(|p| tokenize(p)).collect();
    let template = SiteTemplate::build(&lists);
    let interner = &template.interner;

    // Template: texts, anchors, quality, table slot.
    let induction = oracle::induce(&tokens);
    let texts: Vec<&str> = template
        .induction
        .template
        .symbols
        .iter()
        .map(|&s| interner.text(s))
        .collect();
    let oracle_texts: Vec<&str> = induction.template.iter().map(|t| t.text.as_str()).collect();
    assert_eq!(texts, oracle_texts, "{ctx}: template texts");
    assert_eq!(
        template.induction.anchors, induction.anchors,
        "{ctx}: anchors"
    );
    assert_eq!(
        template.quality,
        oracle::assess(&induction, &tokens),
        "{ctx}: quality"
    );
    let table_slot = oracle::table_slot(&induction, &tokens);
    assert_eq!(
        template.table_slot.as_ref().map(|s| &s.ranges),
        table_slot.as_ref(),
        "{ctx}: table slot"
    );

    let opts = DetectOptions::default();
    let mut split = 0;
    for (target, page) in site.pages.iter().enumerate() {
        let at = format!("{ctx} page {target}");
        let (syms, spans) = (&template.streams[target], &template.spans[target]);
        assert_eq!(syms.len(), tokens[target].len(), "{at}: stream length");

        // Extracts of the table slot (or the whole page).
        let slot = table_slot
            .as_ref()
            .map_or(0..syms.len(), |ranges| ranges[target].clone());
        let slot_syms = &syms[slot.clone()];
        let slot_tokens = &tokens[target][slot.clone()];
        let extracts = derive_extracts(slot_syms, &spans[slot.clone()], interner);
        let oracle_extracts = extract_oracle::derive_extracts_tokens(slot_tokens);
        assert_eq!(extracts, oracle_extracts, "{at}: extracts");
        for e in &extracts {
            assert_eq!(
                e.text(slot_syms, interner),
                extract_oracle::extract_texts(e, slot_tokens).join(" "),
                "{at}: extract {}",
                e.index
            );
        }

        // The observation table the pipeline builds.
        let details = page.detail_htmls();
        let prepared = try_prepare_with_template(&template, target, &details)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(prepared.slot, slot, "{at}: prepared slot");
        assert_eq!(prepared.used_whole_page, table_slot.is_none(), "{at}");
        let detail_tokens: Vec<Vec<Token>> = details.iter().map(|d| tokenize(d)).collect();
        let detail_refs: Vec<&[Token]> = detail_tokens.iter().map(Vec::as_slice).collect();
        let others: Vec<&[Token]> = (0..tokens.len())
            .filter(|&i| i != target)
            .map(|i| tokens[i].as_slice())
            .collect();
        let naive = extract_oracle::match_extracts_naive(
            oracle_extracts,
            slot_tokens,
            &others,
            &detail_refs,
        );
        let obs = &prepared.observations;
        assert_eq!(obs.num_records, naive.num_records, "{at}");
        assert_eq!(obs.items, naive.items, "{at}: kept extracts");
        assert_eq!(obs.skipped, naive.skipped, "{at}: skipped extracts");

        // Detected regions, apart from the later byte ends.
        let detection = detect_regions(syms, spans, interner, &opts);
        let expected = oracle::detect_regions(&tokens[target], &opts);
        assert_eq!(detection.pass_through, expected.pass_through, "{at}");
        split += usize::from(!detection.pass_through);
        assert_eq!(detection.regions.len(), expected.regions.len(), "{at}");
        for (r, e) in detection.regions.iter().zip(&expected.regions) {
            assert_eq!(
                (&r.tokens, r.kind, r.rows, r.bytes.start),
                (&e.tokens, e.kind, e.rows, e.bytes.start),
                "{at}: region"
            );
            let last = r.tokens.end.checked_sub(1).map(|i| spans[i].end as usize);
            assert!(r.bytes.end >= e.bytes.end, "{at}: region {r:?} ends early");
            assert_eq!(r.bytes.end, last.unwrap_or(0), "{at}: region {r:?} end");
        }
    }
    (site.pages.len(), split)
}

#[test]
fn symbol_path_matches_the_token_oracle_on_the_paper_corpus() {
    let pages: usize = paper_sites::all()
        .iter()
        .map(|spec| assert_site_matches_oracle(&generate(spec), &spec.name).0)
        .sum();
    assert_eq!(pages, 24);
}

#[test]
fn symbol_path_matches_the_token_oracle_on_a_universe_sample() {
    let universe = Universe::new(UniverseConfig {
        sites: 12,
        ..UniverseConfig::default()
    });
    for (i, site) in universe.sites().enumerate() {
        assert_site_matches_oracle(&site, &format!("universe site {i}"));
    }
}

#[test]
fn symbol_path_matches_the_token_oracle_on_multi_table_pages() {
    let mut split = 0;
    for spec in detect_cohort(base_seed()) {
        let site = generate_multi_table(&spec).as_generated_site();
        split += assert_site_matches_oracle(&site, &spec.name).1;
    }
    assert!(split > 0, "the cohort's pages must split into regions");
}

#[test]
fn symbol_path_matches_the_token_oracle_on_chaos_damaged_pages() {
    let base = base_seed();
    for (i, spec) in paper_sites::all().iter().enumerate() {
        let seed = base
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64);
        for rate in [0.2, 0.5] {
            let (site, _) = apply_chaos(&generate(spec), &ChaosConfig::uniform(rate, seed));
            assert_site_matches_oracle(&site, &format!("{} rate {rate} seed {seed:#x}", spec.name));
        }
    }
}
