//! The template-finding algorithm.
//!
//! The template is computed as the progressive LCS of the pages' interned
//! symbol streams: `T₁ = page₁`, `Tᵢ = LCS(Tᵢ₋₁, pageᵢ)`; texts are read
//! back through the [`Interner`] only to order the fold and to spot entry
//! numbering, so a [`Template`] is a symbol sequence. Every token of the final
//! template appears on every page in template order, which is precisely the
//! paper's definition of the page template ("data that is shared by all
//! list pages and is invariant from page to page"). Everything between
//! consecutive template anchors is a slot.
//!
//! One fold drives [`induce_with`]: a rolling merge with the histogram-LCS
//! core ([`crate::histogram`]), which is near-linear on templated pages
//! and falls back to exact dynamic programming ([`crate::lcs`]) on small
//! windows by itself. Pages are folded in a *canonical* order (shortest
//! candidate stream first, content tie-break), so the induced template is
//! invariant under permutations of the sample pages — the property that
//! makes multi-page rolling merges (10–100 pages per site) well-defined.
//! The test-only `oracle` module holds a progressive Hirschberg fold, the
//! fold's differential oracle; the owned-token induction this replaced is
//! the oracle of `tests/frontend_oracle.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use tableseg_html::{Interner, Symbol};

use crate::histogram::{lcs_indices_histogram_stats, LcsStats};
use crate::slot::{Slot, SlotSet};

/// Process-wide count of template inductions (any entry point).
static INDUCTIONS: AtomicUsize = AtomicUsize::new(0);

/// How many times induction has run in this process. Template induction
/// is the front end's most expensive step; batch runs cache it per site,
/// and tests assert on the *delta* of this counter to prove the cache
/// works (absolute values include other tests in the same process).
pub fn induction_count() -> usize {
    INDUCTIONS.load(Ordering::Relaxed)
}

/// What one induction did: fold counts, anchor attrition and LCS window
/// statistics. Flows into the observability counters
/// (`template.merge_folds`, `template.anchors_dropped`,
/// `template.lcs_fallbacks`) via the pipeline layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InduceStats {
    /// Number of sample pages the template was induced from.
    pub pages: usize,
    /// LCS folds performed (pages beyond the base page, when ≥ 2 pages).
    pub folds: usize,
    /// Candidate anchors dropped across all folds (tokens of the running
    /// template that some later page did not confirm).
    pub anchors_dropped: usize,
    /// Anchors removed by the run-stability pass (the linked-run rule
    /// that guards against coincidental anchors inside slots).
    pub unstable_dropped: usize,
    /// Histogram-LCS window statistics of the fold.
    pub lcs: LcsStats,
}

/// The induced page template: a sequence of tokens common to all pages,
/// as symbols of the interner the pages were interned with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    /// The template's token symbols, in page order.
    pub symbols: Vec<Symbol>,
}

impl Template {
    /// Template length in tokens.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Returns `true` if the template is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }
}

/// The result of template induction over a set of pages.
#[derive(Debug, Clone)]
pub struct Induction {
    /// The induced template.
    pub template: Template,
    /// For each page, the position of each template token in that page.
    /// `anchors[p][k]` is the index in page `p` of template token `k`.
    pub anchors: Vec<Vec<usize>>,
}

impl Induction {
    /// Derives the slot set over the pages' symbol streams: slot `k` is
    /// the per-page gap before template token `k`; the final slot is the
    /// gap after the last template token.
    pub fn slots(&self, streams: &[Vec<Symbol>]) -> SlotSet {
        let t = self.template.len();
        let mut slots = Vec::with_capacity(t + 1);
        for k in 0..=t {
            let ranges = self
                .anchors
                .iter()
                .zip(streams)
                .map(|(anchor, page)| {
                    let start = if k == 0 { 0 } else { anchor[k - 1] + 1 };
                    let end = if k == t { page.len() } else { anchor[k] };
                    start..end
                })
                .collect();
            slots.push(Slot { index: k, ranges });
        }
        SlotSet { slots }
    }
}

/// Induces the page template from the example pages' symbol streams.
///
/// Template tokens must be *invariant from page to page*: they must appear
/// on every page, in the same relative order, **exactly once per page**.
/// The once-per-page requirement is what keeps repeating table structure
/// out of the template — "If any of the tables on the pages contain more
/// than two rows, the tags specifying the structure of the table will not
/// be part of the page template, because they will appear more than once on
/// that page" (Section 3.1). Candidates are therefore tokens unique within
/// every page; the template is their progressive LCS across pages.
///
/// With fewer than two pages no template can be derived; the result has an
/// empty template and a single slot covering each whole page, which makes
/// the downstream pipeline equivalent to the paper's whole-page fallback.
///
/// `streams[p]` is page `p` interned through `interner`; the fold compares
/// symbols and reads texts back only for its canonical page order and the
/// enumeration rule of the stability pass.
pub fn induce_with(streams: &[Vec<Symbol>], interner: &Interner) -> (Induction, InduceStats) {
    INDUCTIONS.fetch_add(1, Ordering::Relaxed);
    let mut stats = InduceStats {
        pages: streams.len(),
        ..InduceStats::default()
    };
    if streams.len() < 2 {
        return (empty_induction(streams.len()), stats);
    }
    let filtered = candidate_streams(streams, interner.len());
    let template = fold(&filtered, interner, &mut stats);
    let induction = finish(&filtered, template, interner, &mut stats);
    (induction, stats)
}

/// The induction of fewer than two pages: an empty template, one slot
/// covering each whole page.
fn empty_induction(pages: usize) -> Induction {
    Induction {
        template: Template {
            symbols: Vec::new(),
        },
        anchors: vec![Vec::new(); pages],
    }
}

/// Computes the per-page candidate streams: tokens occurring **exactly
/// once on every page**, with their original positions. These are the
/// streams the fold aligns pairwise; exposed so benches can time the LCS
/// cores on exactly the inputs induction gives them.
pub fn candidate_streams(streams: &[Vec<Symbol>], num_symbols: usize) -> Vec<Vec<(Symbol, usize)>> {
    let mut counts = vec![0u32; num_symbols];
    let mut candidate = vec![true; num_symbols];
    for stream in streams {
        counts.iter_mut().for_each(|c| *c = 0);
        for &s in stream {
            // Symbols outside the declared range (e.g. UNKNOWN_SYMBOL from
            // a read-only projection) can never be template candidates;
            // ignore them instead of indexing out of bounds.
            if let Some(c) = counts.get_mut(s as usize) {
                *c += 1;
            }
        }
        for (sym, &n) in counts.iter().enumerate() {
            if n != 1 {
                candidate[sym] = false;
            }
        }
    }
    streams
        .iter()
        .map(|stream| {
            stream
                .iter()
                .enumerate()
                .filter(|&(_, &s)| candidate[s as usize])
                .map(|(i, &s)| (s, i))
                .collect()
        })
        .collect()
}

/// The fold: rolling histogram-LCS merge in canonical page order — shortest candidate stream first (the template is a subsequence
/// of every stream, so starting small bounds all later folds), token
/// texts as the deterministic tie-break. The canonical order makes the
/// induced template invariant under permutations of the sample pages,
/// which is what lets a site's template be maintained incrementally as
/// more pages are crawled.
fn fold(
    filtered: &[Vec<(Symbol, usize)>],
    interner: &Interner,
    stats: &mut InduceStats,
) -> Vec<Symbol> {
    let mut order: Vec<usize> = (0..filtered.len()).collect();
    order.sort_by(|&p, &q| {
        filtered[p].len().cmp(&filtered[q].len()).then_with(|| {
            let texts = |page: usize| filtered[page].iter().map(|&(s, _)| interner.text(s));
            texts(p).cmp(texts(q))
        })
    });
    let base = order[0];
    let mut template: Vec<Symbol> = filtered[base].iter().map(|&(s, _)| s).collect();
    for &p in &order[1..] {
        if template.is_empty() {
            break;
        }
        let s_syms: Vec<Symbol> = filtered[p].iter().map(|&(s, _)| s).collect();
        let (pairs, lcs_stats) = lcs_indices_histogram_stats(&template, &s_syms);
        stats.folds += 1;
        stats.anchors_dropped += template.len() - pairs.len();
        stats.lcs.merge(&lcs_stats);
        template = pairs.iter().map(|&(ti, _)| template[ti]).collect();
    }
    template
}

/// Embeds the folded template into every page and applies the
/// anchor-stability pass.
fn finish(
    filtered: &[Vec<(Symbol, usize)>],
    template: Vec<Symbol>,
    interner: &Interner,
    stats: &mut InduceStats,
) -> Induction {
    // Embed the template into every page. Every template symbol occurs
    // exactly once per page, so the embedding is unique: look the position
    // up in the filtered stream. If an embedding is ever missing (the
    // candidate invariant was broken by degenerate input), the offending
    // symbol is dropped from the template rather than panicking — a
    // smaller template degrades the slot decision, not the process.
    let embeddings: Vec<Vec<Option<usize>>> = filtered
        .iter()
        .map(|stream| {
            template
                .iter()
                .map(|&sym| stream.iter().find(|&&(s, _)| s == sym).map(|&(_, pos)| pos))
                .collect()
        })
        .collect();
    let kept: Vec<usize> = (0..template.len())
        .filter(|&col| embeddings.iter().all(|e| e[col].is_some()))
        .collect();
    let anchors: Vec<Vec<usize>> = embeddings
        .iter()
        .map(|e| kept.iter().map(|&col| e[col].unwrap_or_default()).collect())
        .collect();

    // Anchor positions are increasing on every page because the template is
    // an LCS of every filtered stream and each symbol is unique per page.
    debug_assert!(anchors.iter().all(|a| a.windows(2).all(|w| w[0] < w[1])));

    let mut induction = Induction {
        template: Template {
            symbols: kept.iter().map(|&col| template[col]).collect(),
        },
        anchors,
    };
    stats.unstable_dropped = drop_unstable_anchors(&mut induction, interner);
    induction
}

/// Re-runs the anchor-stability pass on an existing induction, returning
/// how many anchors were dropped.
///
/// This is the incremental-maintenance entry point: when a serving layer
/// re-anchors a cached template onto changed pages (instead of re-running
/// the full fold), the changed pages may stretch previously linked anchor
/// runs apart. Applying the same linked-run rule used by
/// [`induce_with`]'s finish step restores the stability invariant without
/// a re-induction; on an induction whose anchors are already stable it is
/// a no-op (the pass iterates to a fixpoint and the fixpoint is reached).
///
/// `interner` must be the one the template's symbols come from.
pub fn restabilize(induction: &mut Induction, interner: &Interner) -> usize {
    drop_unstable_anchors(induction, interner)
}

/// Two consecutive anchors are *linked* when they are at most this many
/// tokens apart **on every page**. Template regions (headers, footers,
/// label rows) form long linked runs; data tokens that happen to appear
/// once per page do not.
const LINK_GAP: usize = 4;

/// Minimum linked-run length for anchors to be trusted as template.
const MIN_RUN: usize = 3;

/// Removes anchors outside dense runs, returning how many were dropped.
/// A real page template is written out contiguously by the server, so its
/// tokens cluster; an anchor in a run shorter than [`MIN_RUN`] is almost
/// always record data that happens to appear exactly once per page (or a
/// chance pair, like a shared `City, ST`), and left in place it chops the
/// table slot apart.
///
/// The one deliberate exception is **enumeration chains**: ascending runs
/// `1, 2, 3, ...` from numbered entries. The paper's template finder keeps
/// those and consequently fails on numbered sites (Section 6.3: "the
/// entries were numbered. Thus, sequences such as `1.` will be found on
/// every page"); this reproduction preserves that failure mode. (The paper
/// suggests an enumeration heuristic as *future work*, i.e. the 2004
/// algorithm did not have one.)
fn drop_unstable_anchors(induction: &mut Induction, interner: &Interner) -> usize {
    let enumeration = enumeration_members(&induction.template.symbols, interner);
    let mut dropped = 0;
    loop {
        let t = induction.template.len();
        if t == 0 {
            return dropped;
        }
        // linked[k]: anchors k and k+1 are close on every page.
        let linked: Vec<bool> = (0..t.saturating_sub(1))
            .map(|k| {
                induction
                    .anchors
                    .iter()
                    .all(|anchor| anchor[k + 1] - anchor[k] <= LINK_GAP)
            })
            .collect();
        let mut drop = vec![false; t];
        let mut run_start = 0;
        // `linked` has t-1 entries; the appended `false` ends the last run.
        for (k, &lk) in linked.iter().chain(std::iter::once(&false)).enumerate() {
            let run_ends = !lk;
            if run_ends {
                let run_len = k + 1 - run_start;
                if run_len < MIN_RUN {
                    for d in drop.iter_mut().take(k + 1).skip(run_start) {
                        *d = true;
                    }
                }
                run_start = k + 1;
            }
        }
        // Enumeration members are exempt.
        for (k, d) in drop.iter_mut().enumerate() {
            if *d
                && enumeration
                    .binary_search(&induction.template.symbols[k])
                    .is_ok()
            {
                *d = false;
            }
        }
        if !drop.iter().any(|&d| d) {
            return dropped;
        }
        let keep: Vec<usize> = (0..t).filter(|&k| !drop[k]).collect();
        dropped += t - keep.len();
        induction.template.symbols = keep
            .iter()
            .map(|&k| induction.template.symbols[k])
            .collect();
        for anchor in &mut induction.anchors {
            *anchor = keep.iter().map(|&k| anchor[k]).collect();
        }
    }
}

/// Template symbols whose texts belong to an ascending `+1` integer chain
/// of length ≥ 3 starting at 1 or 2 (entry numbering), sorted for lookup.
fn enumeration_members(symbols: &[Symbol], interner: &Interner) -> Vec<Symbol> {
    let values: Vec<Option<u64>> = symbols
        .iter()
        .map(|&s| interner.text(s).parse::<u64>().ok())
        .collect();
    let mut members = Vec::new();
    let mut chain: Vec<usize> = Vec::new();
    let flush = |chain: &mut Vec<usize>, members: &mut Vec<Symbol>, values: &[Option<u64>]| {
        if chain.len() >= 3 {
            let first = values[chain[0]].expect("chain holds numerics");
            if first <= 2 {
                members.extend(chain.iter().map(|&k| symbols[k]));
            }
        }
        chain.clear();
    };
    for (k, v) in values.iter().enumerate() {
        let Some(n) = v else {
            // Non-numeric template tokens (tags between numbered entries
            // were already excluded by the uniqueness rule, but words may
            // intervene) do not break a chain.
            continue;
        };
        let extends = chain
            .last()
            .and_then(|&prev| values[prev])
            .is_some_and(|p| p + 1 == *n);
        if extends {
            chain.push(k);
        } else if *n <= 2 {
            // A plausible chain start: close out the previous chain.
            flush(&mut chain, &mut members, &values);
            chain.push(k);
        }
        // Any other numeric (a year, a price fragment that happens to
        // align once per page) is an interloper inside the enumeration
        // region; like words, it does not break the chain.
    }
    flush(&mut chain, &mut members, &values);
    members.sort_unstable();
    members.dedup();
    members
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The Hirschberg fold: the differential oracle for [`super::induce_with`]'s
    //! histogram fold.
    //!
    //! Progressive LCS over the candidate streams in input-page order, each
    //! step a full linear-space Hirschberg alignment ([`lcs_indices`]).
    //! Both folds share the candidate filter and the finish step
    //! (embedding plus anchor stability), so a divergence is the fold's.

    use tableseg_html::{Interner, Symbol};

    use super::{candidate_streams, empty_induction, finish, InduceStats, Induction};
    use crate::lcs::lcs_indices;

    /// [`crate::induce_with`] with the Hirschberg fold.
    pub(crate) fn induce_hirschberg(
        streams: &[Vec<Symbol>],
        interner: &Interner,
    ) -> (Induction, InduceStats) {
        let mut stats = InduceStats {
            pages: streams.len(),
            ..InduceStats::default()
        };
        if streams.len() < 2 {
            return (empty_induction(streams.len()), stats);
        }
        let filtered = candidate_streams(streams, interner.len());
        let template = fold_hirschberg(&filtered, &mut stats);
        let induction = finish(&filtered, template, interner, &mut stats);
        (induction, stats)
    }

    /// Progressive Hirschberg LCS over the candidate streams in input-page
    /// order.
    fn fold_hirschberg(filtered: &[Vec<(Symbol, usize)>], stats: &mut InduceStats) -> Vec<Symbol> {
        let mut template: Vec<Symbol> = filtered[0].iter().map(|&(s, _)| s).collect();
        for stream in &filtered[1..] {
            let s_syms: Vec<Symbol> = stream.iter().map(|&(s, _)| s).collect();
            let pairs = lcs_indices(&template, &s_syms);
            stats.folds += 1;
            stats.anchors_dropped += template.len() - pairs.len();
            template = pairs.iter().map(|&(ti, _)| template[ti]).collect();
            if template.is_empty() {
                break;
            }
        }
        template
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{assess, induce_with};
        use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
        use tableseg_sitegen::paper_sites;
        use tableseg_sitegen::site::generate;

        fn intern_pages<S: AsRef<str>>(pages: &[S]) -> (Vec<Vec<Symbol>>, Interner) {
            let mut interner = Interner::new();
            let streams = pages
                .iter()
                .map(|p| interner.intern_page(p.as_ref()).0)
                .collect();
            (streams, interner)
        }

        /// On a two-page sample the fold *is* one pair LCS, so both folds
        /// must find the same pre-stability template length and reach the
        /// same usability verdict. (Equal-length traces may pick different
        /// symbols, so the stability pass can drop different anchor counts
        /// afterwards; beyond two pages a progressive fold is trace-dependent,
        /// which the permutation-invariance tests cover instead.)
        #[test]
        fn paper_site_two_page_folds_agree_with_the_oracle() {
            for spec in paper_sites::all() {
                let site = generate(&spec.with_page_count(2));
                let (streams, interner) = intern_pages(&site.list_htmls());
                let (fast, fast_stats) = induce_with(&streams, &interner);
                let (oracle, oracle_stats) = induce_hirschberg(&streams, &interner);
                assert_eq!(
                    fast.template.len() + fast_stats.unstable_dropped,
                    oracle.template.len() + oracle_stats.unstable_dropped,
                    "{}: fold LCS length diverged from the oracle",
                    spec.name
                );
                assert_eq!(
                    assess(&fast, &streams, &interner).is_usable(),
                    assess(&oracle, &streams, &interner).is_usable(),
                    "{}: usability verdict diverged from the oracle",
                    spec.name
                );
            }
        }

        /// The fuzz seed: `PROPTEST_SEED` when set (decimal or `0x` hex), a
        /// fixed default otherwise, so the CI seed matrix drives distinct
        /// corpora.
        fn base_seed() -> u64 {
            match std::env::var("PROPTEST_SEED") {
                Ok(raw) => match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).expect("PROPTEST_SEED hex"),
                    None => raw.parse().expect("PROPTEST_SEED u64"),
                },
                Err(_) => 0x7AB1E5E6,
            }
        }

        /// Seeded fuzz: the oracle fold over chaos-mutated sites (the corpus
        /// of `tableseg-bench`'s induction fuzz) never panics and embeds its
        /// template validly, with strictly increasing anchors whose symbols
        /// match the template on every page.
        #[test]
        fn oracle_fold_embeds_validly_on_chaos_mutated_pages() {
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
                    let (site, _log) =
                        apply_chaos(&generate(spec), &ChaosConfig::uniform(0.4, seed));
                    let (streams, interner) = intern_pages(&site.list_htmls());
                    let (ind, _) = induce_hirschberg(&streams, &interner);
                    let ctx = format!("{} seed {seed:#x}", spec.name);
                    assert_eq!(ind.anchors.len(), streams.len(), "{ctx}");
                    for (p, anchor) in ind.anchors.iter().enumerate() {
                        assert_eq!(anchor.len(), ind.template.len(), "{ctx}: page {p}");
                        assert!(
                            anchor.windows(2).all(|w| w[0] < w[1]),
                            "{ctx}: page {p} anchors not increasing"
                        );
                        for (k, &pos) in anchor.iter().enumerate() {
                            assert_eq!(
                                streams[p][pos], ind.template.symbols[k],
                                "{ctx}: page {p} anchor {k}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(body: &str) -> String {
        format!(
            "<html><body><h1>Results</h1><table>{body}</table><p>Copyright 2004</p></body></html>"
        )
    }

    /// The pages' symbol streams under one interner.
    fn intern<S: AsRef<str>>(pages: &[S]) -> (Vec<Vec<Symbol>>, Interner) {
        let mut interner = Interner::new();
        let streams = pages
            .iter()
            .map(|p| interner.intern_page(p.as_ref()).0)
            .collect();
        (streams, interner)
    }

    /// Interns the pages and induces their template.
    fn induce<S: AsRef<str>>(pages: &[S]) -> (Induction, Vec<Vec<Symbol>>, Interner) {
        let (streams, interner) = intern(pages);
        let induction = induce_with(&streams, &interner).0;
        (induction, streams, interner)
    }

    fn texts<'a>(ind: &Induction, interner: &'a Interner) -> Vec<&'a str> {
        ind.template
            .symbols
            .iter()
            .map(|&s| interner.text(s))
            .collect()
    }

    /// Runs the fold and the Hirschberg oracle fold over the same pages
    /// and returns (histogram, hirschberg) inductions.
    fn both_paths(pages: &[String]) -> (Induction, Induction) {
        let (streams, interner) = intern(pages);
        let hist = induce_with(&streams, &interner).0;
        let hirsch = oracle::induce_hirschberg(&streams, &interner).0;
        (hist, hirsch)
    }

    #[test]
    fn template_is_shared_structure() {
        let pages = [
            page("<tr><td>John Smith</td></tr><tr><td>Jane Doe</td></tr>"),
            page("<tr><td>Bob Jones</td></tr>"),
        ];
        let (ind, _, interner) = induce(&pages);
        let tpl = texts(&ind, &interner);
        // Header and footer must be in the template.
        assert!(tpl.contains(&"Results"));
        assert!(tpl.contains(&"Copyright"));
        // Data must not be.
        assert!(!tpl.contains(&"John"));
        assert!(!tpl.contains(&"Bob"));
    }

    #[test]
    fn anchors_are_valid_embeddings() {
        let pages = [
            page("<tr><td>A B</td></tr>"),
            page("<tr><td>C D E</td></tr>"),
        ];
        let (ind, streams, _) = induce(&pages);
        for (p, anchor) in ind.anchors.iter().enumerate() {
            assert_eq!(anchor.len(), ind.template.len());
            for (k, &pos) in anchor.iter().enumerate() {
                assert_eq!(
                    streams[p][pos], ind.template.symbols[k],
                    "anchor {k} of page {p}"
                );
            }
            // Strictly increasing.
            for w in anchor.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn table_found_in_largest_text_slot() {
        let pages = [
            page("<tr><td>John Smith</td><td>New Holland</td></tr><tr><td>Mary Major</td><td>Springfield</td></tr>"),
            page("<tr><td>Bob Jones</td><td>Columbus</td></tr><tr><td>Ann Fuller</td><td>Dayton</td></tr><tr><td>Tom Tailor</td><td>Akron</td></tr>"),
        ];
        let (ind, streams, interner) = induce(&pages);
        let slots = ind.slots(&streams);
        let table = slots.table_slot(&streams, &interner).expect("a table slot");
        let slot = &slots.slots[table];
        // The table slot must contain the record data on both pages.
        for (p, r) in slot.ranges.iter().enumerate() {
            let texts: Vec<&str> = streams[p][r.clone()]
                .iter()
                .filter(|&&s| !interner.types(s).contains(tableseg_html::TokenType::Html))
                .map(|&s| interner.text(s))
                .collect();
            assert!(texts.len() >= 4, "page {p} table slot has data: {texts:?}");
        }
        let texts0: String = streams[0][slot.ranges[0].clone()]
            .iter()
            .map(|&s| interner.text(s))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(texts0.contains("John"));
        assert!(texts0.contains("Mary"));
        assert!(!texts0.contains("Results"));
    }

    #[test]
    fn fewer_than_two_pages_falls_back_to_whole_page() {
        let (ind, streams, _) = induce(&[page("<tr><td>A</td></tr>")]);
        assert!(ind.template.is_empty());
        let slots = ind.slots(&streams);
        assert_eq!(slots.slots.len(), 1);
        assert_eq!(slots.slots[0].ranges[0], 0..streams[0].len());
    }

    #[test]
    fn identical_pages_yield_full_template() {
        let p = page("<tr><td>Same</td></tr>");
        let (ind, streams, interner) = induce(&[p.clone(), p]);
        assert_eq!(ind.template.len(), streams[0].len());
        let slots = ind.slots(&streams);
        assert!(slots.slots.iter().all(Slot::is_empty));
        assert_eq!(slots.table_slot(&streams, &interner), None);
    }

    #[test]
    fn disjoint_pages_yield_empty_template() {
        let (ind, streams, _) = induce(&["alpha beta", "gamma delta"]);
        assert!(ind.template.is_empty());
        let slots = ind.slots(&streams);
        assert_eq!(slots.slots.len(), 1);
        // The single slot covers both whole pages.
        assert_eq!(slots.slots[0].ranges[0], 0..2);
        assert_eq!(slots.slots[0].ranges[1], 0..2);
    }

    #[test]
    fn three_pages_progressive() {
        let pages = [
            page("<tr><td>A1 A2</td></tr>"),
            page("<tr><td>B1</td></tr>"),
            page("<tr><td>C1 C2 C3</td></tr>"),
        ];
        let (ind, _, interner) = induce(&pages);
        let tpl = texts(&ind, &interner);
        assert!(tpl.contains(&"Results"));
        assert!(!tpl.contains(&"A1"));
        assert!(!tpl.contains(&"B1"));
        assert!(!tpl.contains(&"C1"));
        assert_eq!(ind.anchors.len(), 3);
    }

    #[test]
    fn slot_count_is_template_len_plus_one() {
        let pages = [page("<tr><td>X</td></tr>"), page("<tr><td>Y</td></tr>")];
        let (ind, streams, _) = induce(&pages);
        let slots = ind.slots(&streams);
        assert_eq!(slots.slots.len(), ind.template.len() + 1);
    }

    #[test]
    fn histogram_and_hirschberg_agree_on_clean_pages() {
        let pages = vec![
            page("<tr><td>John Smith</td><td>New Holland</td></tr>"),
            page("<tr><td>Bob Jones</td><td>Columbus</td></tr><tr><td>Ann Fuller</td><td>Dayton</td></tr>"),
        ];
        let (hist, hirsch) = both_paths(&pages);
        assert_eq!(hist.template, hirsch.template);
        assert_eq!(hist.anchors, hirsch.anchors);
    }

    #[test]
    fn induce_with_reports_stats() {
        let pages = [
            page("<tr><td>Alpha Beta</td></tr>"),
            page("<tr><td>Gamma Delta</td></tr>"),
            page("<tr><td>Epsilon Zeta</td></tr>"),
        ];
        let (streams, interner) = intern(&pages);
        let (ind, stats) = induce_with(&streams, &interner);
        assert_eq!(stats.pages, 3);
        assert_eq!(stats.folds, 2, "{stats:?}");
        assert!(!ind.template.is_empty());
        // The candidate streams are unique per page by construction, so
        // the histogram core must never hit its quadratic fallback.
        assert_eq!(stats.lcs.fallback_windows, 0, "{stats:?}");
        assert_eq!(stats.lcs.split_windows, 0, "{stats:?}");
    }

    #[test]
    fn histogram_fold_is_page_order_invariant() {
        let pages = [
            page("<tr><td>Alpha One</td></tr><tr><td>Beta Two</td></tr>"),
            page("<tr><td>Gamma Three</td></tr>"),
            page("<tr><td>Delta Four</td></tr><tr><td>Epsilon Five</td></tr><tr><td>Zeta Six</td></tr>"),
        ];
        let (ind, _, interner) = induce(&pages);
        let baseline = texts(&ind, &interner);
        for perm in [[1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1], [1, 2, 0]] {
            let p: Vec<&String> = perm.iter().map(|&i| &pages[i]).collect();
            let (ind, _, interner) = induce(&p);
            assert_eq!(texts(&ind, &interner), baseline, "permutation {perm:?}");
        }
    }

    #[test]
    fn restabilize_is_a_noop_on_fresh_inductions() {
        // induce_with already ran the stability pass to a fixpoint, so the
        // public re-entry must drop nothing and change nothing.
        let pages = [
            page("<tr><td>John Smith</td><td>New Holland</td></tr>"),
            page("<tr><td>Bob Jones</td><td>Columbus</td></tr><tr><td>Ann Fuller</td><td>Dayton</td></tr>"),
        ];
        let (mut ind, _, interner) = induce(&pages);
        let before = ind.clone();
        assert_eq!(restabilize(&mut ind, &interner), 0);
        assert_eq!(ind.template, before.template);
        assert_eq!(ind.anchors, before.anchors);
    }

    #[test]
    fn restabilize_drops_stretched_singletons() {
        // A hand-built induction with one isolated anchor far from the
        // rest on one page: the linked-run rule must remove it.
        let pages = [
            page("<tr><td>Alpha Beta Gamma</td></tr>"),
            page("<tr><td>Delta Epsilon</td></tr>"),
        ];
        let (mut ind, streams, interner) = induce(&pages);
        let t = ind.template.len();
        assert!(t >= MIN_RUN, "fixture template too small: {t}");
        // Stretch the final anchor of page 0 to the page end, breaking
        // its link to the previous anchor.
        let len0 = streams[0].len();
        let last = ind.anchors[0][t - 1];
        let stretched = (len0 - 1).max(last + LINK_GAP + 1);
        ind.anchors[0][t - 1] = stretched.min(len0 - 1);
        if ind.anchors[0][t - 1] - ind.anchors[0][t - 2] <= LINK_GAP {
            return; // page too short to stretch; nothing to assert
        }
        let dropped = restabilize(&mut ind, &interner);
        assert!(dropped >= 1, "stretched anchor must be dropped");
        assert_eq!(ind.template.len(), t - dropped);
    }
}
