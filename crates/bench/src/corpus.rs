//! Shared corpus construction and bench-report helpers.
//!
//! Every microbenchmark in this crate (`matchbench`, `solvebench`,
//! `inducebench`, `scalebench`) walks the same twelve simulated paper
//! sites and writes a hand-rolled `BENCH_*.json` document (the serde
//! shim is a no-op marker, so JSON is rendered as strings throughout
//! the repo). This module owns the parts they used to copy:
//!
//! * the corpus builders over [`paper_sites::all`] — generation plus
//!   the once-per-site template, or page-count-scaled generation for
//!   induction depth curves;
//! * [`site_count`], the grouped-fixture site counter;
//! * [`stage_totals`], the corpus-wide per-stage wall-clock totals of
//!   a batch run (every `stage_totals_ns` JSON map comes from here);
//! * [`BenchJson`], the top-level document builder. Every document it
//!   produces carries a `"schema"` version field ([`SCHEMA`]) so
//!   downstream tooling can detect layout changes, and a `"bench"`
//!   name identifying the benchmark.

use tableseg::timing::{Registry, Stage};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::{generate, GeneratedSite, SiteSpec};

use crate::{prepare_site, PreparedSite};

/// Version tag stamped into every `BENCH_*.json` document as the
/// `"schema"` field. Bump when a writer changes field names or layout.
pub const SCHEMA: &str = "tableseg.bench/v3";

/// Generates every simulated paper site and builds its cached
/// [`SiteTemplate`](tableseg::SiteTemplate) — the shared site-level
/// front end of the matcher and solver corpora.
pub fn paper_prepared() -> Vec<PreparedSite> {
    paper_sites::all().iter().map(prepare_site).collect()
}

/// Generates every simulated paper site scaled to `page_count` sample
/// list pages — the induction benchmark's depth-curve corpus.
pub fn paper_generated_scaled(page_count: usize) -> Vec<(SiteSpec, GeneratedSite)> {
    paper_sites::all()
        .iter()
        .map(|spec| {
            let scaled = spec.with_page_count(page_count);
            let site = generate(&scaled);
            (scaled, site)
        })
        .collect()
}

/// Counts distinct sites in a fixture list's site-name column.
///
/// Corpus builders emit fixtures grouped by site, so consecutive
/// deduplication is exact.
pub fn site_count<'a>(names: impl IntoIterator<Item = &'a str>) -> usize {
    let mut names: Vec<&str> = names.into_iter().collect();
    names.dedup();
    names.len()
}

/// Sums a batch run's per-site stage times into corpus-wide totals, in
/// report order: the six pipeline stages, then the solve split.
pub fn stage_totals(timing: &Registry) -> Vec<(String, u128)> {
    let rows = timing.rows();
    Stage::ALL
        .into_iter()
        .chain(Stage::SOLVE_SPLIT)
        .map(|stage| {
            let total: u128 = rows
                .iter()
                .map(|(_, times)| times.get(stage).as_nanos())
                .sum();
            (stage.label().to_owned(), total)
        })
        .collect()
}

/// Builder for the top-level `BENCH_*.json` document.
///
/// Opens with the `"schema"` version field and the `"bench"` name;
/// fields render in insertion order; [`BenchJson::finish`] closes the
/// document. Values are raw JSON fragments — numbers via
/// [`BenchJson::field`], pre-rendered objects/arrays/strings via
/// [`BenchJson::raw`].
#[derive(Debug, Clone)]
pub struct BenchJson {
    entries: Vec<String>,
}

impl BenchJson {
    /// Starts a document for the benchmark named `bench`.
    pub fn new(bench: &str) -> BenchJson {
        let mut b = BenchJson {
            entries: Vec::new(),
        };
        b.raw("schema", format!("\"{SCHEMA}\""));
        b.raw("bench", format!("\"{bench}\""));
        b
    }

    /// Appends `"key": value` with `value` rendered verbatim — use for
    /// pre-rendered JSON objects, arrays, and quoted strings.
    pub fn raw(&mut self, key: &str, value: impl Into<String>) -> &mut BenchJson {
        self.entries.push(format!("  \"{key}\": {}", value.into()));
        self
    }

    /// Appends `"key": value` for a plain scalar (number or bool).
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut BenchJson {
        self.raw(key, value.to_string())
    }

    /// Appends the standard corpus header object.
    pub fn corpus(&mut self, sites: usize, pages: usize, extracts: usize) -> &mut BenchJson {
        self.raw(
            "corpus",
            format!("{{ \"sites\": {sites}, \"pages\": {pages}, \"extracts\": {extracts} }}"),
        )
    }

    /// Appends the `stage_totals_ns` map (see [`stage_totals`]).
    pub fn stage_totals(&mut self, totals: &[(String, u128)]) -> &mut BenchJson {
        let body: Vec<String> = totals
            .iter()
            .map(|(stage, ns)| format!("\"{stage}\": {ns}"))
            .collect();
        if body.is_empty() {
            self.raw("stage_totals_ns", "{ }")
        } else {
            self.raw("stage_totals_ns", format!("{{ {} }}", body.join(", ")))
        }
    }

    /// Renders the finished document.
    pub fn finish(&self) -> String {
        format!("{{\n{}\n}}\n", self.entries.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_opens_with_schema_and_bench() {
        let mut j = BenchJson::new("example");
        j.corpus(12, 24, 100)
            .field("iters", 3)
            .raw("speedup", format!("{:.2}", 3.5))
            .stage_totals(&[("tokenize".into(), 42u128), ("solve".into(), 7u128)]);
        let json = j.finish();
        assert!(json
            .starts_with("{\n  \"schema\": \"tableseg.bench/v3\",\n  \"bench\": \"example\",\n"));
        assert!(json.contains("\"corpus\": { \"sites\": 12, \"pages\": 24, \"extracts\": 100 }"));
        assert!(json.contains("\"speedup\": 3.50"));
        assert!(json.contains("\"stage_totals_ns\": { \"tokenize\": 42, \"solve\": 7 }"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn empty_stage_totals_render_as_empty_map() {
        let mut j = BenchJson::new("x");
        j.stage_totals(&[]);
        assert!(j.finish().contains("\"stage_totals_ns\": { }"));
    }

    #[test]
    fn site_count_dedups_grouped_names() {
        assert_eq!(site_count(["a", "a", "b", "c", "c", "c"]), 3);
        assert_eq!(site_count([]), 0);
    }

    #[test]
    fn stage_totals_cover_all_stages_and_solve_split() {
        let totals = stage_totals(&Registry::new());
        assert_eq!(totals.len(), Stage::ALL.len() + Stage::SOLVE_SPLIT.len());
        assert_eq!(totals[0].0, Stage::ALL[0].label());
        assert!(totals.iter().all(|&(_, ns)| ns == 0));
    }

    #[test]
    fn prepared_corpus_covers_every_paper_site() {
        let prepared = paper_prepared();
        assert_eq!(prepared.len(), paper_sites::all().len());
        let scaled = paper_generated_scaled(3);
        assert_eq!(scaled.len(), prepared.len());
        assert!(scaled.iter().all(|(_, site)| site.pages.len() == 3));
    }
}
