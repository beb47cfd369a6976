//! Multi-page induction invariants and the chaos fuzz gate.
//!
//! The histogram rolling merge folds pages in a canonical order, so the
//! induced template must be invariant under permutations of the sample
//! pages; adding pages must not degrade template quality (the candidate
//! filter only tightens); and both LCS cores must survive arbitrary
//! chaos-mutated byte soup without panicking, agreeing on LCS length with
//! valid traces throughout. Seeds mix in `PROPTEST_SEED` when set, so the
//! CI seed matrix drives distinct corpora through the same invariants.
//! (The Hirschberg oracle *fold* is test code inside `tableseg-template`,
//! which runs it over the same chaos corpus.)

use tableseg::html::{Interner, Symbol};
use tableseg::template::lcs::lcs_indices;
use tableseg::template::{
    assess, candidate_streams, induce_with, lcs_indices_histogram, Induction,
};
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

/// The base fuzz seed: `PROPTEST_SEED` when set (decimal or `0x` hex),
/// a fixed default otherwise.
fn base_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(raw) => match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).expect("PROPTEST_SEED hex"),
            None => raw.parse().expect("PROPTEST_SEED u64"),
        },
        Err(_) => 0x7AB1E5E6,
    }
}

fn intern_pages(pages: &[&str]) -> (Vec<Vec<Symbol>>, Interner) {
    let mut interner = Interner::new();
    let streams = pages.iter().map(|p| interner.intern_page(p).0).collect();
    (streams, interner)
}

fn template_texts(ind: &Induction, interner: &Interner) -> Vec<String> {
    ind.template
        .symbols
        .iter()
        .map(|&s| interner.text(s).to_owned())
        .collect()
}

/// Every anchor must point at a token whose symbol matches its template
/// token, with strictly increasing positions per page.
fn assert_valid_embedding(ind: &Induction, pages: &[Vec<Symbol>], ctx: &str) {
    assert_eq!(
        ind.anchors.len(),
        pages.len(),
        "{ctx}: one anchor row per page"
    );
    for (p, anchor) in ind.anchors.iter().enumerate() {
        assert_eq!(
            anchor.len(),
            ind.template.len(),
            "{ctx}: page {p} anchor width"
        );
        for w in anchor.windows(2) {
            assert!(w[0] < w[1], "{ctx}: page {p} anchors not increasing");
        }
        for (k, &pos) in anchor.iter().enumerate() {
            assert_eq!(
                pages[p][pos], ind.template.symbols[k],
                "{ctx}: page {p} anchor {k} symbol mismatch"
            );
        }
    }
}

/// The canonical fold order makes the induced template independent of the
/// order the sample pages arrive in — the property that lets a crawler
/// feed pages into a site's template in any order.
#[test]
fn merge_order_permutations_yield_the_same_template() {
    let perms: [[usize; 4]; 6] = [
        [0, 1, 2, 3],
        [3, 2, 1, 0],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [1, 2, 3, 0],
        [3, 0, 2, 1],
    ];
    for spec in [
        paper_sites::butler(),
        paper_sites::lee(),
        paper_sites::ohio(),
    ] {
        let site = generate(&spec.with_page_count(4));
        let pages = site.list_htmls();
        let mut baseline: Option<Vec<String>> = None;
        for perm in perms {
            let permuted: Vec<&str> = perm.iter().map(|&i| pages[i]).collect();
            let (streams, interner) = intern_pages(&permuted);
            let ind = induce_with(&streams, &interner).0;
            assert_valid_embedding(&ind, &streams, &format!("{} {perm:?}", spec.name));
            let texts = template_texts(&ind, &interner);
            match &baseline {
                None => baseline = Some(texts),
                Some(base) => assert_eq!(
                    &texts, base,
                    "{}: permutation {perm:?} changed the template",
                    spec.name
                ),
            }
        }
    }
}

/// Folding more sample pages must tighten the template, not degrade it:
/// the usability verdict never flips off, and the table slot keeps (or
/// grows) its share of the varying text, from 2 up to 10 pages.
#[test]
fn quality_is_monotone_non_degrading_from_2_to_10_pages() {
    let mut fraction_2 = 0.0;
    let mut fraction_10 = 0.0;
    let mut usable_2 = 0usize;
    let mut usable_10 = 0usize;
    for spec in paper_sites::all() {
        let mut per_site = Vec::new();
        for n in [2usize, 6, 10] {
            let site = generate(&spec.with_page_count(n));
            let (streams, interner) = intern_pages(&site.list_htmls());
            let ind = induce_with(&streams, &interner).0;
            assert_valid_embedding(&ind, &streams, &format!("{} at {n} pages", spec.name));
            let q = assess(&ind, &streams, &interner);
            per_site.push((n, q));
        }
        let (_, first) = per_site[0];
        let (_, last) = *per_site.last().unwrap();
        assert!(
            !first.is_usable() || last.is_usable(),
            "{}: usable at 2 pages but not at 10: {first:?} -> {last:?}",
            spec.name
        );
        // The per-site slot fraction may wobble slightly as chrome slots
        // shift; on usable sites it must never collapse. Degenerate sites
        // (numbered entries chopping the table) are noisy per-site and
        // only held to the corpus aggregate below.
        if first.is_usable() {
            assert!(
                last.largest_slot_fraction >= first.largest_slot_fraction - 0.05,
                "{}: slot fraction collapsed {:.4} -> {:.4}",
                spec.name,
                first.largest_slot_fraction,
                last.largest_slot_fraction
            );
        }
        fraction_2 += first.largest_slot_fraction;
        fraction_10 += last.largest_slot_fraction;
        usable_2 += usize::from(first.is_usable());
        usable_10 += usize::from(last.is_usable());
    }
    // Corpus-level: strictly non-degrading.
    assert!(
        fraction_10 + 1e-9 >= fraction_2,
        "corpus slot fraction degraded: {fraction_2:.4} -> {fraction_10:.4}"
    );
    assert!(
        usable_10 >= usable_2,
        "usable sites degraded: {usable_2} -> {usable_10}"
    );
}

/// Seeded fuzz: chaos-mutated pages through the scanner, then both
/// LCS cores and the induction. Nothing may panic; traces must stay valid
/// common subsequences; the cores must agree on LCS length on every
/// window shape the mutations produce.
#[test]
fn chaos_mutated_pages_drive_both_lcs_paths_safely() {
    let base = base_seed();
    let specs = [
        paper_sites::butler(),
        paper_sites::amazon(),
        paper_sites::ohio(),
    ];
    for round in 0..4u64 {
        for (si, spec) in specs.iter().enumerate() {
            let seed = base
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round * 31 + si as u64);
            let (site, _log) = apply_chaos(&generate(spec), &ChaosConfig::uniform(0.4, seed));
            let (streams, interner) = intern_pages(&site.list_htmls());
            let ctx = format!("{} seed {seed:#x}", spec.name);

            // Full raw streams (truncated for the quadratic oracle):
            // repeat-heavy windows that drive the histogram core's filter,
            // fallback and split paths.
            let a: Vec<Symbol> = streams[0].iter().copied().take(500).collect();
            let b: Vec<Symbol> = streams[1].iter().copied().take(500).collect();
            check_cores_agree(&a, &b, &format!("{ctx} raw"));

            // Candidate streams: the unique-per-page fast path.
            let filtered = candidate_streams(&streams, interner.len());
            let fa: Vec<Symbol> = filtered[0].iter().map(|&(s, _)| s).collect();
            let fb: Vec<Symbol> = filtered[1].iter().map(|&(s, _)| s).collect();
            check_cores_agree(&fa, &fb, &format!("{ctx} filtered"));

            // The induction over the damaged site: a valid embedding, no
            // panics.
            let ind = induce_with(&streams, &interner).0;
            assert_valid_embedding(&ind, &streams, &format!("{ctx} histogram"));
        }
    }
}

/// Both cores on one window pair: equal LCS length, valid traces.
fn check_cores_agree(a: &[Symbol], b: &[Symbol], ctx: &str) {
    let oracle = lcs_indices(a, b);
    let fast = lcs_indices_histogram(a, b);
    assert_eq!(fast.len(), oracle.len(), "{ctx}: LCS length diverged");
    for pairs in [&oracle, &fast] {
        for w in pairs.windows(2) {
            assert!(
                w[0].0 < w[1].0 && w[0].1 < w[1].1,
                "{ctx}: trace not increasing"
            );
        }
        for &(i, j) in pairs.iter() {
            assert_eq!(a[i], b[j], "{ctx}: trace pair mismatch at ({i}, {j})");
        }
    }
}
