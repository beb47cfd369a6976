//! The matcher microbenchmark behind `BENCH_frontend.json`: naive
//! string-scanning extract matching vs. the production indexed symbol
//! matcher, over the twelve simulated paper sites.
//!
//! Criterion owns the statistically careful per-site numbers
//! (`benches/frontend.rs`); this module is the cheap whole-corpus
//! wall-clock comparison that the `table4 --bench-json` smoke run emits
//! into CI artifacts.

use std::time::Instant;

use crate::corpus::{paper_prepared, site_count, BenchJson};
use tableseg::SiteTemplate;
use tableseg_extract::{
    derive_extracts, match_extracts_indexed, match_extracts_naive, Extract, Observations, PageIndex,
};
use tableseg_html::lexer::tokenize;
use tableseg_html::{Symbol, Token};

/// One page of the benchmark corpus, prepared for both matcher paths.
///
/// The whole list page is the table slot (every extract participates),
/// the site's other list pages feed the all-list-pages filter, and the
/// page's detail pages are the match targets — the same shape
/// `prepare_with_template` produces, minus slot selection.
pub struct MatchFixture {
    /// Site name.
    pub site: String,
    /// Extracts of the list page (cloned per run; derivation is not timed).
    pub extracts: Vec<Extract>,
    /// The site's cached template (interner, streams, list-page indexes).
    pub template: SiteTemplate,
    /// Which list page the extracts came from.
    pub page: usize,
    /// Tokenized detail pages of the list page.
    pub details: Vec<Vec<Token>>,
}

impl MatchFixture {
    /// Runs the naive oracle path: build [`tableseg_extract::MatchStream`]s
    /// for every page, scan each extract over each stream.
    pub fn run_naive(&self) -> Observations {
        self.run_naive_with(self.extracts.clone())
    }

    /// [`MatchFixture::run_naive`] on pre-cloned extracts, so timed loops
    /// can keep the deep `Extract` clone (which production never performs
    /// — matching takes ownership) out of the measurement.
    pub fn run_naive_with(&self, extracts: Vec<Extract>) -> Observations {
        let others: Vec<&[Token]> = self.other_pages();
        let details: Vec<&[Token]> = self.details.iter().map(Vec::as_slice).collect();
        match_extracts_naive(extracts, &others, &details)
    }

    /// Runs the production path: project + index the detail pages through
    /// the site interner, reuse the cached other-list-page indexes, match
    /// every needle against the first-symbol buckets.
    pub fn run_indexed(&self) -> Observations {
        self.run_indexed_with(self.extracts.clone())
    }

    /// [`MatchFixture::run_indexed`] on pre-cloned extracts; see
    /// [`MatchFixture::run_naive_with`].
    pub fn run_indexed_with(&self, extracts: Vec<Extract>) -> Observations {
        let syms = &self.template.streams[self.page];
        let needles: Vec<&[Symbol]> = extracts
            .iter()
            .map(|e| &syms[e.start..e.start + e.len()])
            .collect();
        let other_indexes: Vec<&PageIndex> = self
            .template
            .page_indexes
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.page)
            .map(|(_, idx)| idx)
            .collect();
        let detail_indexes: Vec<PageIndex> = self
            .details
            .iter()
            .map(|p| PageIndex::build(p, &self.template.interner))
            .collect();
        let detail_refs: Vec<&PageIndex> = detail_indexes.iter().collect();
        match_extracts_indexed(extracts, &needles, &other_indexes, &detail_refs)
    }

    fn other_pages(&self) -> Vec<&[Token]> {
        self.template
            .pages
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.page)
            .map(|(_, p)| p.as_slice())
            .collect()
    }
}

/// Builds the benchmark corpus: every list page of every simulated paper
/// site, with the site template built once per site (via
/// [`crate::corpus::paper_prepared`]).
pub fn corpus() -> Vec<MatchFixture> {
    let mut fixtures = Vec::new();
    for ps in paper_prepared() {
        for (page, gp) in ps.site.pages.iter().enumerate() {
            let extracts = derive_extracts(&ps.template.pages[page]);
            let details: Vec<Vec<Token>> = gp.detail_html.iter().map(|d| tokenize(d)).collect();
            fixtures.push(MatchFixture {
                site: ps.spec.name.clone(),
                extracts,
                // The template is cheap to clone relative to bench runtime
                // and keeps each fixture self-contained.
                template: ps.template.clone(),
                page,
                details,
            });
        }
    }
    fixtures
}

/// The corpus-level result of the naive-vs-indexed comparison.
#[derive(Debug, Clone, Copy)]
pub struct MatchBench {
    /// Number of sites in the corpus.
    pub sites: usize,
    /// Number of list pages matched.
    pub pages: usize,
    /// Total extracts matched per iteration.
    pub extracts: usize,
    /// Best (minimum) wall-clock nanoseconds of one naive corpus pass.
    pub naive_ns: u128,
    /// Best (minimum) wall-clock nanoseconds of one indexed corpus pass.
    pub indexed_ns: u128,
    /// Corpus passes each path ran; the reported time is the fastest
    /// pass, which is robust to interference from other load.
    pub iters: usize,
}

impl MatchBench {
    /// naive / indexed wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.naive_ns as f64 / self.indexed_ns.max(1) as f64
    }
}

/// Times both matcher paths over the full corpus, `iters` times each,
/// verifying on the first iteration that they produce identical
/// observation tables.
pub fn run_match_bench(iters: usize) -> MatchBench {
    let fixtures = corpus();
    let sites = site_count(fixtures.iter().map(|f| f.site.as_str()));
    let extracts = fixtures.iter().map(|f| f.extracts.len()).sum();

    for f in &fixtures {
        let naive = f.run_naive();
        let fast = f.run_indexed();
        assert_eq!(
            naive.items, fast.items,
            "{}: indexed matcher diverged from oracle",
            f.site
        );
    }

    let mut naive_ns = u128::MAX;
    let mut indexed_ns = u128::MAX;
    for _ in 0..iters {
        // Clone outside the timed region: production derives extracts
        // fresh each page and hands them to matching by value.
        let clones: Vec<Vec<Extract>> = fixtures.iter().map(|f| f.extracts.clone()).collect();
        let t = Instant::now();
        for (f, ex) in fixtures.iter().zip(clones) {
            std::hint::black_box(f.run_naive_with(ex));
        }
        naive_ns = naive_ns.min(t.elapsed().as_nanos());

        let clones: Vec<Vec<Extract>> = fixtures.iter().map(|f| f.extracts.clone()).collect();
        let t = Instant::now();
        for (f, ex) in fixtures.iter().zip(clones) {
            std::hint::black_box(f.run_indexed_with(ex));
        }
        indexed_ns = indexed_ns.min(t.elapsed().as_nanos());
    }

    MatchBench {
        sites,
        pages: fixtures.len(),
        extracts,
        naive_ns,
        indexed_ns,
        iters,
    }
}

/// Renders the benchmark (plus per-stage totals of a batch run, if given)
/// as the `BENCH_frontend.json` document.
pub fn render_json(bench: &MatchBench, stage_totals: &[(String, u128)]) -> String {
    let mut j = BenchJson::new("frontend_match");
    j.corpus(bench.sites, bench.pages, bench.extracts)
        .field("iters", bench.iters)
        .field("naive_ns", bench.naive_ns)
        .field("indexed_ns", bench.indexed_ns)
        .raw("speedup", format!("{:.2}", bench.speedup()))
        .stage_totals(stage_totals);
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_sitegen::paper_sites;

    #[test]
    fn corpus_covers_all_sites() {
        let fixtures = corpus();
        assert_eq!(
            fixtures.len(),
            paper_sites::all().iter().map(|_| 2).sum::<usize>(),
            "two list pages per site"
        );
        assert!(fixtures.iter().all(|f| !f.extracts.is_empty()));
    }

    #[test]
    fn paths_agree_and_speedup_positive() {
        let bench = run_match_bench(1);
        assert_eq!(bench.iters, 1);
        assert!(bench.sites >= 12);
        assert!(bench.speedup() > 0.0);
    }

    #[test]
    fn json_shape() {
        let bench = MatchBench {
            sites: 12,
            pages: 24,
            extracts: 100,
            naive_ns: 3000,
            indexed_ns: 1000,
            iters: 2,
        };
        let json = render_json(&bench, &[("tokenize".into(), 42)]);
        assert!(json.contains("\"schema\": \"tableseg.bench/v3\""));
        assert!(json.contains("\"speedup\": 3.00"));
        assert!(json.contains("\"tokenize\": 42"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }
}
