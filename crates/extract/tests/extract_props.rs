//! Property tests for extraction: extracts partition the non-separator
//! tokens, maximality holds, matching is sound and complete for planted
//! needles, and the indexed symbol matcher is a drop-in replacement for
//! the naive string matcher ([`oracle`]) — on arbitrary fragments and on
//! every page of the simulated paper corpus.

mod oracle;

use proptest::prelude::*;

use oracle::{match_extracts_naive, MatchStream};
use tableseg_extract::extracts::derive_extracts;
use tableseg_extract::matcher::PageIndex;
use tableseg_extract::observations::{match_extracts, match_extracts_indexed, Observations};
use tableseg_extract::separator::{is_separator, SeparatorMask};
use tableseg_html::lexer::tokenize;
use tableseg_html::{scan, Interner, Symbol, Token};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

/// Small HTML fragments mixing words, allowed punctuation, separators and
/// tags.
fn arb_html() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[A-Za-z0-9]{1,8}".prop_map(|w| format!("{w} ")),
            Just("( ".to_owned()),
            Just(") ".to_owned()),
            Just(", ".to_owned()),
            Just("- ".to_owned()),
            Just(". ".to_owned()),
            Just("~ ".to_owned()),
            Just("| ".to_owned()),
            Just("<td>".to_owned()),
            Just("</td>".to_owned()),
            Just("<br>".to_owned()),
        ],
        0..40,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    /// Extracts cover exactly the non-separator tokens, in order, and are
    /// maximal runs.
    #[test]
    fn extracts_partition_non_separator_tokens(html in arb_html()) {
        let tokens = tokenize(&html);
        let extracts = derive_extracts(&tokens);

        // Flattened extract tokens = the non-separator subsequence.
        let flattened: Vec<&str> = extracts
            .iter()
            .flat_map(|e| e.tokens.iter().map(|t| t.text.as_str()))
            .collect();
        let expected: Vec<&str> = tokens
            .iter()
            .filter(|t| !is_separator(t))
            .map(|t| t.text.as_str())
            .collect();
        prop_assert_eq!(flattened, expected);

        for e in &extracts {
            prop_assert!(!e.is_empty());
            // Separator-free.
            prop_assert!(e.tokens.iter().all(|t| !is_separator(t)));
            // Maximal: the token before `start` (if any) is a separator.
            if e.start > 0 {
                prop_assert!(is_separator(&tokens[e.start - 1]));
            }
            let end = e.start + e.len();
            if end < tokens.len() {
                prop_assert!(is_separator(&tokens[end]));
            }
            // start indexes the first token.
            prop_assert_eq!(&tokens[e.start].text, &e.tokens[0].text);
        }

        // Indices are consecutive from zero.
        for (i, e) in extracts.iter().enumerate() {
            prop_assert_eq!(e.index, i);
        }
    }

    /// A needle cut from the page's own reduced stream is always found at
    /// the position it came from.
    #[test]
    fn planted_needles_are_found(
        html in arb_html(),
        start_frac in 0.0f64..1.0,
        len in 1usize..5,
    ) {
        let stream = MatchStream::new(&tokenize(&html));
        prop_assume!(stream.len() >= len);
        let start = ((stream.len() - len) as f64 * start_frac) as usize;
        let needle: Vec<&str> = stream.texts()[start..start + len]
            .iter()
            .map(String::as_str)
            .collect();
        let hits = stream.find_all(&needle);
        prop_assert!(hits.contains(&start), "{needle:?} not at {start}: {hits:?}");
        // Soundness: every reported hit matches.
        for h in hits {
            for (k, n) in needle.iter().enumerate() {
                prop_assert_eq!(&stream.texts()[h + k], n);
            }
        }
    }

    /// `contains` agrees with `find_all`.
    #[test]
    fn contains_consistent(html in arb_html(), word in "[A-Za-z0-9]{1,8}") {
        let stream = MatchStream::new(&tokenize(&html));
        let needle = [word.as_str()];
        prop_assert_eq!(stream.contains(&needle), !stream.find_all(&needle).is_empty());
    }

    /// The indexed symbol matcher reports exactly the positions the naive
    /// string matcher reports, for arbitrary needle/page pairs — including
    /// pages containing tokens the interner has never seen.
    #[test]
    fn page_index_equals_match_stream(
        needle_html in arb_html(),
        page_html in arb_html(),
    ) {
        let needle_tokens = tokenize(&needle_html);
        let page_tokens = tokenize(&page_html);

        let mut interner = Interner::new();
        let needle_syms = interner.intern_tokens(&needle_tokens);
        let reduced: Vec<_> = needle_tokens
            .iter()
            .zip(&needle_syms)
            .filter(|(t, _)| !is_separator(t))
            .collect();
        let needle_texts: Vec<&str> =
            reduced.iter().map(|(t, _)| t.text.as_str()).collect();
        let needle: Vec<u32> = reduced.iter().map(|(_, &s)| s).collect();

        let stream = MatchStream::new(&page_tokens);
        let index = PageIndex::build(&page_tokens, &interner);
        prop_assert_eq!(index.len(), stream.len());

        let naive: Vec<u32> =
            stream.find_all(&needle_texts).into_iter().map(|p| p as u32).collect();
        prop_assert_eq!(index.find_all(&needle), naive);
        prop_assert_eq!(index.contains(&needle), stream.contains(&needle_texts));
    }

    /// Empty needles and needles longer than the page match nowhere in
    /// either implementation.
    #[test]
    fn degenerate_needles_match_nowhere(page_html in arb_html()) {
        let page_tokens = tokenize(&page_html);
        let stream = MatchStream::new(&page_tokens);

        let mut interner = Interner::new();
        // A needle strictly longer than the page's reduced stream, built
        // from the page's own tokens plus one extra word.
        let mut long_texts: Vec<String> = stream.texts().to_vec();
        long_texts.push("overflow".to_owned());
        let long_syms: Vec<u32> =
            long_texts.iter().map(|t| interner.intern(t)).collect();
        let index = PageIndex::build(&page_tokens, &interner);

        let long_refs: Vec<&str> = long_texts.iter().map(String::as_str).collect();
        prop_assert!(stream.find_all(&long_refs).is_empty());
        prop_assert!(index.find_all(&long_syms).is_empty());
        prop_assert!(stream.find_all(&[]).is_empty());
        prop_assert!(index.find_all(&[]).is_empty());
        prop_assert!(!index.contains(&[]));
    }

    /// End-to-end differential: the production `match_extracts` (interned,
    /// indexed, memoized) builds the same observation table as the naive
    /// oracle for random list/detail/other-list page sets.
    #[test]
    fn indexed_observations_equal_naive(
        list_html in arb_html(),
        detail_htmls in proptest::collection::vec(arb_html(), 0..4),
        other_htmls in proptest::collection::vec(arb_html(), 0..3),
    ) {
        let list = tokenize(&list_html);
        let details: Vec<Vec<_>> = detail_htmls.iter().map(|h| tokenize(h)).collect();
        let others: Vec<Vec<_>> = other_htmls.iter().map(|h| tokenize(h)).collect();
        let detail_refs: Vec<&[_]> = details.iter().map(Vec::as_slice).collect();
        let other_refs: Vec<&[_]> = others.iter().map(Vec::as_slice).collect();

        let fast = match_extracts(derive_extracts(&list), &other_refs, &detail_refs);
        let naive = match_extracts_naive(derive_extracts(&list), &other_refs, &detail_refs);

        prop_assert_eq!(fast.num_records, naive.num_records);
        prop_assert_eq!(fast.items, naive.items);
        let fast_skipped: Vec<_> =
            fast.skipped.iter().map(|s| (s.extract.index, s.reason)).collect();
        let naive_skipped: Vec<_> =
            naive.skipped.iter().map(|s| (s.extract.index, s.reason)).collect();
        prop_assert_eq!(fast_skipped, naive_skipped);
    }
}

/// Asserts two observation tables agree row for row, kept and skipped.
fn assert_same_observations(fast: &Observations, naive: &Observations, ctx: &str) {
    assert_eq!(fast.num_records, naive.num_records, "{ctx}");
    assert_eq!(fast.items, naive.items, "{ctx}: kept extracts");
    assert_eq!(fast.skipped, naive.skipped, "{ctx}: skipped extracts");
}

/// Corpus differential: on every list page of the twelve simulated paper
/// sites — the whole page as the table slot, the site's other list pages
/// for the all-list-pages filter, the page's detail pages as match
/// targets — the indexed matcher builds the naive oracle's observation
/// table. Both production shapes are checked: the site-interned path the
/// pipeline runs (list pages interned once, detail pages scanned and
/// projected read-only) and the one-shot [`match_extracts`].
#[test]
fn indexed_observations_equal_naive_on_the_paper_corpus() {
    let mut pages = 0usize;
    for spec in paper_sites::all() {
        let site = generate(&spec);
        let lists: Vec<Vec<Token>> = site.pages.iter().map(|p| tokenize(&p.list_html)).collect();
        let mut interner = Interner::new();
        let streams: Vec<Vec<Symbol>> = lists.iter().map(|p| interner.intern_tokens(p)).collect();
        let mask = SeparatorMask::build(&interner);
        let list_indexes: Vec<PageIndex> = streams
            .iter()
            .map(|s| PageIndex::from_interned(s, &mask))
            .collect();
        for (target, gp) in site.pages.iter().enumerate() {
            let ctx = format!("{} page {target}", spec.name);
            let extracts = derive_extracts(&lists[target]);
            let details: Vec<Vec<Token>> = gp.detail_html.iter().map(|d| tokenize(d)).collect();
            let detail_refs: Vec<&[Token]> = details.iter().map(Vec::as_slice).collect();
            let others: Vec<&[Token]> = (0..lists.len())
                .filter(|&i| i != target)
                .map(|i| lists[i].as_slice())
                .collect();
            let naive = match_extracts_naive(extracts.clone(), &others, &detail_refs);
            assert!(!naive.items.is_empty(), "{ctx}: no kept extracts");

            let needles: Vec<&[Symbol]> = extracts
                .iter()
                .map(|e| &streams[target][e.start..e.start + e.len()])
                .collect();
            let other_indexes: Vec<&PageIndex> = (0..lists.len())
                .filter(|&i| i != target)
                .map(|i| &list_indexes[i])
                .collect();
            let detail_indexes: Vec<PageIndex> = gp
                .detail_html
                .iter()
                .map(|d| PageIndex::from_scanned(&scan(d), d, &interner))
                .collect();
            let detail_index_refs: Vec<&PageIndex> = detail_indexes.iter().collect();
            let site_path = match_extracts_indexed(
                extracts.clone(),
                &needles,
                &other_indexes,
                &detail_index_refs,
            );
            assert_same_observations(&site_path, &naive, &ctx);
            let one_shot = match_extracts(extracts, &others, &detail_refs);
            assert_same_observations(&one_shot, &naive, &ctx);
            pages += 1;
        }
    }
    assert_eq!(pages, 24, "two list pages per paper site");
}
