//! The matcher microbenchmark behind `BENCH_frontend.json`: the indexed
//! symbol matcher over every list page of the twelve simulated paper
//! sites.
//!
//! Criterion owns the statistically careful per-site numbers
//! (`benches/frontend.rs`); this module is the cheap whole-corpus
//! wall-clock run that `bench frontend` records. Its baseline is the
//! committed `BENCH_frontend.json`: the run fails when the corpus shape
//! or the kept/skipped extract counts
//! ([`MatchBench::work_counts`]) differ from it. The indexed matcher's
//! agreement with its naive oracle on this corpus is a test of
//! `tableseg-extract`.

use std::time::Instant;

use crate::corpus::{paper_prepared, site_count, BenchJson};
use tableseg::SiteTemplate;
use tableseg_extract::{derive_extracts, match_extracts_indexed, Extract, Observations, PageIndex};
use tableseg_html::lexer::tokenize;
use tableseg_html::{Symbol, Token};

/// One page of the benchmark corpus, prepared for matching.
///
/// The whole list page is the table slot (every extract participates),
/// the site's other list pages feed the all-list-pages filter, and the
/// page's detail pages are the match targets — the same shape
/// `try_prepare_with_template` produces, minus slot selection.
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
    /// Runs the production path: project + index the detail pages through
    /// the site interner, reuse the cached other-list-page indexes, match
    /// every needle against the first-symbol buckets.
    pub fn run_indexed(&self) -> Observations {
        self.run_indexed_with(self.extracts.clone())
    }

    /// [`MatchFixture::run_indexed`] on pre-cloned extracts, so timed
    /// loops can keep the deep `Extract` clone (which production never
    /// performs — matching takes ownership) out of the measurement.
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
}

/// Builds the benchmark corpus: every list page of every simulated paper
/// site, with the site template built once per site (via
/// [`crate::corpus::paper_prepared`]).
pub fn corpus() -> Vec<MatchFixture> {
    let mut fixtures = Vec::new();
    for (site, template) in paper_prepared() {
        for (page, gp) in site.pages.iter().enumerate() {
            let extracts = derive_extracts(&template.pages[page]);
            let details: Vec<Vec<Token>> = gp.detail_html.iter().map(|d| tokenize(d)).collect();
            fixtures.push(MatchFixture {
                site: site.spec.name.clone(),
                extracts,
                // The template is cheap to clone relative to bench runtime
                // and keeps each fixture self-contained.
                template: template.clone(),
                page,
                details,
            });
        }
    }
    fixtures
}

/// The corpus-level result of the matcher benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MatchBench {
    /// Number of sites in the corpus.
    pub sites: usize,
    /// Number of list pages matched.
    pub pages: usize,
    /// Total extracts matched per iteration.
    pub extracts: usize,
    /// Extracts kept in the observation tables.
    pub kept: usize,
    /// Extracts the filtering rules skipped.
    pub skipped: usize,
    /// Best (minimum) wall-clock nanoseconds of one corpus pass.
    pub indexed_ns: u128,
    /// Corpus passes run; the reported time is the fastest pass, which
    /// is robust to interference from other load.
    pub iters: usize,
}

impl MatchBench {
    /// The corpus shape and kept/skipped extract counts, keyed by their
    /// path in `BENCH_frontend.json` (see
    /// [`crate::corpus::count_mismatches`]).
    pub fn work_counts(&self) -> Vec<(String, f64)> {
        [
            ("corpus.sites", self.sites),
            ("corpus.pages", self.pages),
            ("corpus.extracts", self.extracts),
            ("observations.kept", self.kept),
            ("observations.skipped", self.skipped),
        ]
        .map(|(path, n)| (path.to_string(), n as f64))
        .to_vec()
    }
}

/// Times the indexed matcher over the full corpus, `iters` times.
pub fn run_match_bench(iters: usize) -> MatchBench {
    let fixtures = corpus();
    let mut bench = MatchBench {
        sites: site_count(fixtures.iter().map(|f| f.site.as_str())),
        pages: fixtures.len(),
        extracts: fixtures.iter().map(|f| f.extracts.len()).sum(),
        kept: 0,
        skipped: 0,
        indexed_ns: u128::MAX,
        iters,
    };
    for f in &fixtures {
        let obs = f.run_indexed();
        bench.kept += obs.items.len();
        bench.skipped += obs.skipped.len();
    }
    for _ in 0..iters {
        // Clone outside the timed region: production derives extracts
        // fresh each page and hands them to matching by value.
        let clones: Vec<Vec<Extract>> = fixtures.iter().map(|f| f.extracts.clone()).collect();
        let t = Instant::now();
        for (f, ex) in fixtures.iter().zip(clones) {
            std::hint::black_box(f.run_indexed_with(ex));
        }
        bench.indexed_ns = bench.indexed_ns.min(t.elapsed().as_nanos());
    }
    bench
}

/// Renders the benchmark (plus per-stage totals of a batch run, if given)
/// as the `BENCH_frontend.json` document.
pub fn render_json(bench: &MatchBench, stage_totals: &[(String, u128)]) -> String {
    let mut j = BenchJson::new("frontend_match");
    j.corpus(bench.sites, bench.pages, bench.extracts)
        .raw(
            "observations",
            format!(
                "{{ \"kept\": {}, \"skipped\": {} }}",
                bench.kept, bench.skipped
            ),
        )
        .field("iters", bench.iters)
        .field("indexed_ns", bench.indexed_ns)
        .stage_totals(stage_totals);
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::count_mismatches;
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
    fn counts_partition_the_corpus_extracts() {
        let bench = run_match_bench(1);
        assert_eq!(bench.iters, 1);
        assert!(bench.sites >= 12);
        assert!(bench.kept > 0 && bench.indexed_ns > 0);
        assert_eq!(bench.kept + bench.skipped, bench.extracts);
    }

    fn bench_fixture() -> MatchBench {
        MatchBench {
            sites: 12,
            pages: 24,
            extracts: 100,
            kept: 60,
            skipped: 40,
            indexed_ns: 1000,
            iters: 2,
        }
    }

    #[test]
    fn json_shape() {
        let json = render_json(&bench_fixture(), &[("tokenize".into(), 42)]);
        assert!(json.contains(&format!("\"schema\": \"{}\"", crate::corpus::SCHEMA)));
        assert!(json.contains("\"observations\": { \"kept\": 60, \"skipped\": 40 }"));
        assert!(json.contains("\"tokenize\": 42"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn work_counts_gate_on_the_committed_file() {
        let bench = bench_fixture();
        let committed = render_json(&bench, &[]);
        assert!(count_mismatches(&committed, &bench.work_counts()).is_empty());
        let drifted = MatchBench {
            kept: 61,
            skipped: 39,
            ..bench
        };
        assert_eq!(
            count_mismatches(&committed, &drifted.work_counts()),
            [
                "observations.kept: 61 vs committed 60",
                "observations.skipped: 39 vs committed 40"
            ]
        );
        assert_eq!(count_mismatches("{ }", &bench.work_counts()).len(), 5);
    }
}
