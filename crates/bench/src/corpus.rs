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
//!   name identifying the benchmark;
//! * the work-count gate: [`read_committed`] loads a committed
//!   `BENCH_*.json`, [`committed_number`] reads a figure from it, and
//!   [`count_mismatches`] / [`check_work_counts`] fail a run whose
//!   deterministic work counts differ from the committed ones. The
//!   committed file is the baseline; wall times are printed beside it
//!   for information only.

use tableseg::timing::{Registry, Stage};
use tableseg::SiteTemplate;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::{generate, GeneratedSite, SiteSpec};

/// Version tag stamped into every `BENCH_*.json` document as the
/// `"schema"` field. Bump when a writer changes field names or layout.
pub const SCHEMA: &str = "tableseg.bench/v3";

/// Generates every simulated paper site and builds its cached
/// [`SiteTemplate`] — the shared site-level front end of the matcher and
/// solver corpora.
pub fn paper_prepared() -> Vec<(GeneratedSite, SiteTemplate)> {
    paper_sites::all()
        .iter()
        .map(|spec| {
            let site = generate(spec);
            let template = SiteTemplate::build(&site.list_htmls());
            (site, template)
        })
        .collect()
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

/// Reads the committed `BENCH_*.json` document `name` from the
/// repository root.
pub fn read_committed(name: &str) -> Result<String, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Reads the number at `path` in a `BENCH_*.json` document: each segment
/// is the next `"key":` after the previous one, so `["prob", "wall_ns"]`
/// finds the `wall_ns` of the `prob` object. The documents are
/// hand-rendered by [`BenchJson`], whose key order this relies on.
pub fn committed_number(doc: &str, path: &[&str]) -> Option<f64> {
    let mut rest = doc;
    for key in path {
        let needle = format!("\"{key}\":");
        rest = &rest[rest.find(&needle)? + needle.len()..];
    }
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A committed nanosecond figure at `path`, rendered in milliseconds for
/// printing beside this run's (`"n/a"` when the document or the figure is
/// missing).
pub fn committed_ms(committed: &Result<String, String>, path: &[&str]) -> String {
    committed
        .as_deref()
        .ok()
        .and_then(|doc| committed_number(doc, path))
        .map_or("n/a".to_string(), |ns| format!("{:.2} ms", ns / 1e6))
}

/// Compares a run's deterministic work counts — `(dotted key path,
/// value)` pairs such as `("csp.bnb_nodes", 1940.0)`, read back with
/// [`committed_number`] — with a committed document; returns one line
/// per count that differs or is missing. Values within `1e-3` match, so
/// means rendered to three decimals compare exactly.
pub fn count_mismatches(committed: &str, counts: &[(String, f64)]) -> Vec<String> {
    counts
        .iter()
        .filter_map(|(path, got)| {
            let keys: Vec<&str> = path.split('.').collect();
            match committed_number(committed, &keys) {
                Some(want) if (got - want).abs() < 1e-3 => None,
                Some(want) => Some(format!("{path}: {got} vs committed {want}")),
                None => Some(format!("{path}: {got}, missing from the committed file")),
            }
        })
        .collect()
}

/// The work-count gate of a bench binary: prints each mismatch against
/// the committed document `name` (read with [`read_committed`] before the
/// run overwrote it) and returns whether the run repeated every count.
pub fn check_work_counts(
    name: &str,
    committed: &Result<String, String>,
    counts: &[(String, f64)],
) -> bool {
    let mismatches = match committed {
        Ok(doc) => count_mismatches(doc, counts),
        Err(e) => vec![e.clone()],
    };
    for m in &mismatches {
        eprintln!("FAIL: {m}");
    }
    if mismatches.is_empty() {
        eprintln!("work counts match {name}");
    }
    mismatches.is_empty()
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
    fn committed_numbers_follow_key_paths() {
        let mut j = BenchJson::new("x");
        j.raw("a", "{ \"n\": 3, \"m\": 4.500 }")
            .raw("b", "{ \"n\": 7, \"wall_ns\": 2500000 }");
        let doc = j.finish();
        let committed = Ok(doc.clone());
        assert_eq!(committed_ms(&committed, &["b", "wall_ns"]), "2.50 ms");
        assert_eq!(committed_ms(&committed, &["b", "cpu_ns"]), "n/a");
        assert_eq!(committed_ms(&Err("gone".into()), &["b", "wall_ns"]), "n/a");
        assert_eq!(committed_number(&doc, &["a", "n"]), Some(3.0));
        assert_eq!(committed_number(&doc, &["b", "n"]), Some(7.0));
        assert_eq!(committed_number(&doc, &["c"]), None);
        let counts = [
            ("a.n".to_string(), 3.0),
            ("a.m".to_string(), 4.5004),
            ("b.n".to_string(), 8.0),
            ("c".to_string(), 1.0),
        ];
        assert_eq!(
            count_mismatches(&doc, &counts),
            [
                "b.n: 8 vs committed 7",
                "c: 1, missing from the committed file"
            ]
        );
        assert!(check_work_counts("x", &Ok(doc.clone()), &counts[..2]));
        assert!(!check_work_counts("x", &Ok(doc), &counts));
        assert!(!check_work_counts("x", &Err("gone".into()), &[]));
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
