//! Shared corpus construction and bench-report helpers.
//!
//! Every recorded bench of the `bench` binary walks a simulated corpus
//! and writes a hand-rolled `BENCH_*.json` document (the serde shim is a
//! no-op marker, so JSON is rendered as strings throughout the repo).
//! This module owns the parts they share:
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
//! * the committed-file gate: [`read_committed`] loads a committed
//!   `BENCH_*.json`, [`committed_number`] reads a figure from it,
//!   [`count_mismatches`] lists the deterministic work counts a run
//!   failed to repeat, and [`write_gated`] writes a [`Record`] only when
//!   every count matches and every threshold gate passed. The committed
//!   file is the baseline; wall times are recorded, never gated;
//! * the Table 4 golden check ([`check_table4_golden`]) and the manifest
//!   writer ([`write_manifest`]) of the runs that take `--manifest`.

use std::path::Path;

use tableseg::obs::{self, Manifest};
use tableseg::timing::{Registry, Stage};
use tableseg::SiteTemplate;
use tableseg_eval::classify::PageCounts;
use tableseg_eval::Metrics;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::{generate, GeneratedSite, SiteSpec};

/// Version tag stamped into every `BENCH_*.json` document as the
/// `"schema"` field. Bump when a writer changes field names or layout.
pub const SCHEMA: &str = "tableseg.bench/v4";

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

/// A batch run's corpus-wide time per stage, for every stage in
/// [`Stage::EVERY`] (tree) order.
pub fn stage_totals(timing: &Registry) -> Vec<(String, u128)> {
    let total = timing.total();
    Stage::EVERY
        .into_iter()
        .map(|stage| (stage.label().to_owned(), total.get(stage).as_nanos()))
        .collect()
}

/// The repository root, where the committed `BENCH_*.json` files and
/// `tests/golden/` live.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Reads the committed `BENCH_*.json` document `name` from the
/// repository root.
pub fn read_committed(name: &str) -> Result<String, String> {
    let path = repo_root().join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Reads the number at a dotted `path` in a `BENCH_*.json` document:
/// each key is the next `"key":` after the previous one, so `prob.wall_ns`
/// finds the `wall_ns` of the `prob` object. A key may itself contain
/// dots (obs counter labels, fault rates): at each step the longest run
/// of segments that is a key further on wins. The documents are
/// hand-rendered by [`BenchJson`], whose key order this relies on.
pub fn committed_number(doc: &str, path: &str) -> Option<f64> {
    let segments: Vec<&str> = path.split('.').collect();
    let (mut rest, mut i) = (doc, 0);
    while i < segments.len() {
        let (end, at, needle) = (i + 1..=segments.len()).rev().find_map(|end| {
            let needle = format!("\"{}\":", segments[i..end].join("."));
            rest.find(&needle).map(|at| (end, at, needle))
        })?;
        rest = &rest[at + needle.len()..];
        i = end;
    }
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a run's deterministic work counts — `(dotted key path,
/// value)` pairs such as `("csp.bnb_nodes", 1940.0)`, read back with
/// [`committed_number`] — with a committed document; returns one line
/// per count that differs or is missing. Values within `1e-3` match, so
/// means rendered to three decimals compare exactly.
pub fn count_mismatches(committed: &str, counts: &[(String, f64)]) -> Vec<String> {
    counts
        .iter()
        .filter_map(|(path, got)| match committed_number(committed, path) {
            Some(want) if (got - want).abs() < 1e-3 => None,
            Some(want) => Some(format!("{path}: {got} vs committed {want}")),
            None => Some(format!("{path}: {got}, missing from the committed file")),
        })
        .collect()
}

/// Renders Cor/InC/FN/FP as the JSON members every scored document
/// uses: `"cor": 1, "inc": 2, "fn": 3, "fp": 4`.
pub fn counts_members(c: &PageCounts) -> String {
    format!(
        "\"cor\": {}, \"inc\": {}, \"fn\": {}, \"fp\": {}",
        c.cor, c.incor, c.fneg, c.fpos
    )
}

/// The object `{ <counts_members>, "precision": .., "recall": .., "f1": .. }`.
pub fn scored_json(c: &PageCounts) -> String {
    let m = Metrics::from_counts(c);
    format!(
        "{{ {}, \"precision\": {:.4}, \"recall\": {:.4}, \"f1\": {:.4} }}",
        counts_members(c),
        m.precision,
        m.recall,
        m.f1
    )
}

/// The four counts of [`counts_members`] as work counts under `prefix`.
pub fn count_keys(prefix: &str, c: &PageCounts) -> [(String, f64); 4] {
    [
        ("cor", c.cor),
        ("inc", c.incor),
        ("fn", c.fneg),
        ("fp", c.fpos),
    ]
    .map(|(key, n)| (format!("{prefix}.{key}"), n as f64))
}

/// Compares a Table 4 report with `tests/golden/table4.txt`.
pub fn check_table4_golden(report: &str) -> Result<(), String> {
    let path = repo_root().join("tests/golden/table4.txt");
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if report != golden {
        return Err(format!("Table 4 report differs from {}", path.display()));
    }
    eprintln!("Table 4 report matches golden");
    Ok(())
}

/// Writes a run manifest: summary JSON at `path` plus `.jsonl` event-log
/// and `.prom` sidecars, redacted when `TABLESEG_MANIFEST_DETERMINISTIC`
/// asks for it (see OBSERVABILITY.md).
pub fn write_manifest(manifest: &Manifest, path: &str) -> Result<(), String> {
    let written = manifest
        .write_files(Path::new(path), obs::deterministic_requested())
        .map_err(|e| format!("cannot write manifest {path}: {e}"))?;
    for p in &written {
        eprintln!("manifest: wrote {}", p.display());
    }
    Ok(())
}

/// One recorded bench run, ready for [`write_gated`].
#[derive(Debug, Clone)]
pub struct Record {
    /// The committed document this run repeats, e.g. `BENCH_solver.json`.
    pub name: &'static str,
    /// The rendered document.
    pub json: String,
    /// Deterministic counts that must equal the committed document's.
    pub counts: Vec<(String, f64)>,
    /// Threshold gates this run failed, one line each.
    pub failures: Vec<String>,
}

/// Gate, then write — the one rule of every recorded bench: the run's
/// document is printed on stdout, its work counts are compared with
/// `committed` and its threshold gates checked, and only a run that
/// passes them all writes `out`. A failing run prints each failure on
/// stderr and leaves `out` as it was, so it can never replace the
/// baseline the next run is checked against.
pub fn write_gated(
    committed: &Result<String, String>,
    run: &Record,
    out: &Path,
) -> Result<(), String> {
    print!("{}", run.json);
    let mut failures = match committed {
        Ok(doc) => count_mismatches(doc, &run.counts),
        Err(e) => vec![e.clone()],
    };
    failures.extend(run.failures.iter().cloned());
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        return Err(format!(
            "{} gate(s) failed against {}; {} left as it was",
            failures.len(),
            run.name,
            out.display()
        ));
    }
    std::fs::write(out, &run.json).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("counts match {}; written to {}", run.name, out.display());
    Ok(())
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
        assert!(json.starts_with(&format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"bench\": \"example\",\n"
        )));
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
            .raw("b", "{ \"n\": 7, \"wall_ns\": 2500000 }")
            .raw("c", "{ \"0.1\": { \"n\": 5 }, \"pages.ok\": 16 }");
        let doc = j.finish();
        assert_eq!(committed_number(&doc, "a.n"), Some(3.0));
        assert_eq!(committed_number(&doc, "b.n"), Some(7.0));
        assert_eq!(committed_number(&doc, "b.cpu_ns"), None);
        // Keys with dots in them: a fault rate and a counter label.
        assert_eq!(committed_number(&doc, "c.0.1.n"), Some(5.0));
        assert_eq!(committed_number(&doc, "c.pages.ok"), Some(16.0));
        let counts = [
            ("a.n".to_string(), 3.0),
            ("a.m".to_string(), 4.5004),
            ("b.n".to_string(), 8.0),
            ("d".to_string(), 1.0),
        ];
        assert_eq!(
            count_mismatches(&doc, &counts),
            [
                "b.n: 8 vs committed 7",
                "d: 1, missing from the committed file"
            ]
        );
        let c = PageCounts {
            cor: 4,
            incor: 3,
            fneg: 2,
            fpos: 1,
        };
        assert_eq!(
            counts_members(&c),
            "\"cor\": 4, \"inc\": 3, \"fn\": 2, \"fp\": 1"
        );
        let doc = format!("{{ \"prob\": {{ {} }} }}", counts_members(&c));
        assert!(count_mismatches(&doc, &count_keys("prob", &c)).is_empty());
    }

    /// A run that misses a committed count or a threshold gate leaves an
    /// existing `--out` file byte-identical; a passing run replaces it.
    #[test]
    fn a_failing_run_never_replaces_its_out_file() {
        let out = std::env::temp_dir().join(format!(
            "tableseg-bench-gate-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&out, "baseline").unwrap();
        let committed = Ok("{ \"n\": 7 }".to_string());
        let run = |n: f64, failures: Vec<String>| Record {
            name: "BENCH_x.json",
            json: format!("{{ \"n\": {n} }}\n"),
            counts: vec![("n".to_string(), n)],
            failures,
        };
        let read = || std::fs::read_to_string(&out).unwrap();
        assert!(write_gated(&committed, &run(8.0, vec![]), &out).is_err());
        assert_eq!(read(), "baseline", "a count mismatch wrote --out");
        let slow = run(7.0, vec!["too slow".into()]);
        assert!(write_gated(&committed, &slow, &out).is_err());
        assert_eq!(read(), "baseline", "a threshold failure wrote --out");
        assert!(write_gated(&Err("gone".into()), &run(7.0, vec![]), &out).is_err());
        assert_eq!(read(), "baseline", "a missing committed file wrote --out");
        assert!(write_gated(&committed, &run(7.0, vec![]), &out).is_ok());
        assert_eq!(read(), "{ \"n\": 7 }\n");
        std::fs::remove_file(&out).unwrap();
    }

    /// Every recorded bench has its committed document at the repository
    /// root, written by the current layout.
    #[test]
    fn every_committed_document_is_on_the_current_schema() {
        let mut names: Vec<String> = std::fs::read_dir(repo_root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        let recorded = [
            "detect",
            "frontend",
            "induce",
            "obs",
            "robustness",
            "scale",
            "serve",
            "solver",
        ];
        assert_eq!(names, recorded.map(|b| format!("BENCH_{b}.json")));
        for name in &names {
            let doc = read_committed(name).unwrap();
            assert!(
                doc.contains(&format!("\"schema\": \"{SCHEMA}\"")),
                "{name} is not on {SCHEMA}"
            );
        }
    }

    #[test]
    fn site_count_dedups_grouped_names() {
        assert_eq!(site_count(["a", "a", "b", "c", "c", "c"]), 3);
        assert_eq!(site_count([]), 0);
    }

    #[test]
    fn stage_totals_cover_all_stages_and_solve_split() {
        let totals = stage_totals(&Registry::new());
        assert_eq!(totals.len(), Stage::EVERY.len());
        assert_eq!(totals[0].0, Stage::EVERY[0].label());
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
