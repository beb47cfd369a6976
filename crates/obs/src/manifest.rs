//! Run manifests: one queryable record of "what happened on this run".
//!
//! A [`Manifest`] bundles the run configuration, seeds, merged metrics,
//! an optional robustness rollup and the span tree, and renders to three
//! sinks: a summary JSON document, a JSON-lines event log and a
//! Prometheus text exposition. All JSON is hand-rolled (the workspace
//! `serde` is an offline no-op shim) with fields emitted in a fixed
//! order, so two identical runs produce byte-identical documents.
//!
//! # Determinism and the volatile section
//!
//! Wall-clock durations and build metadata can never be byte-identical
//! across runs, so every volatile value — span durations, git-describe,
//! thread count — is isolated in an explicitly marked `volatile` section
//! (and in the spans' `nanos` fields). Rendering with `redact = true`
//! zeroes all of them, leaving only data that is fully determined by the
//! corpus, configuration and seeds; the byte-identity goldens compare
//! redacted renderings at 1, 2 and N threads. Setting the environment
//! variable [`DETERMINISTIC_ENV`]`=1` makes the CLI `--manifest` flags
//! write the redacted form.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::metric::{bucket_upper, Histogram};
use crate::recorder::Recorder;
use crate::span::{SpanKind, SpanNode};

/// The manifest schema version. Bump the `/vN` suffix on any breaking
/// change to field names, nesting or event shapes (see OBSERVABILITY.md).
pub const SCHEMA: &str = "tableseg.manifest/v1";

/// Environment variable: when set to `1`, CLI `--manifest` output is
/// written in redacted (deterministic) form.
pub const DETERMINISTIC_ENV: &str = "TABLESEG_MANIFEST_DETERMINISTIC";

/// `true` if [`DETERMINISTIC_ENV`] requests redacted manifests.
pub fn deterministic_requested() -> bool {
    std::env::var(DETERMINISTIC_ENV)
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable. Volatile: never part of redacted output.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The per-page outcome rollup mirrored from the core
/// `RobustnessReport` (duplicated here so `tableseg-obs` stays a leaf
/// crate with no pipeline dependencies).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessRollup {
    /// Pages attempted.
    pub pages: u64,
    /// Pages with a clean outcome.
    pub ok: u64,
    /// Pages processed with warnings.
    pub degraded: u64,
    /// Pages that failed outright.
    pub failed: u64,
    /// Warning counts by label, in deterministic label order.
    pub warnings: Vec<(String, u64)>,
    /// Failure counts by pipeline stage, in deterministic label order.
    pub failures_by_stage: Vec<(String, u64)>,
}

/// The volatile (non-deterministic) part of a manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Volatile {
    /// `git describe` of the build tree.
    pub git_describe: String,
    /// Worker threads the run used.
    pub threads: usize,
}

/// A complete run manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The tool that produced the run (`table4`, `chaossweep`, ...).
    pub tool: String,
    /// Configuration as ordered key/value pairs, exactly as resolved by
    /// the tool (flag defaults included).
    pub config: Vec<(String, String)>,
    /// Seeds the run consumed, in consumption order.
    pub seeds: Vec<u64>,
    /// Merged counters and histograms.
    pub metrics: Recorder,
    /// Robustness rollup, when the run used the fallible path.
    pub robustness: Option<RobustnessRollup>,
    /// The span tree (root kind [`SpanKind::Run`]).
    pub root: SpanNode,
    /// Build and machine facts excluded from redacted renderings.
    pub volatile: Volatile,
}

impl Manifest {
    /// A manifest skeleton for `tool` with an empty run span.
    pub fn new(tool: impl Into<String>) -> Manifest {
        let tool = tool.into();
        Manifest {
            root: SpanNode::new(SpanKind::Run, tool.clone(), 0),
            tool,
            config: Vec::new(),
            seeds: Vec::new(),
            metrics: Recorder::default(),
            robustness: None,
            volatile: Volatile {
                git_describe: git_describe(),
                threads: 0,
            },
        }
    }

    /// Adds one configuration pair (builder style).
    pub fn with_config(mut self, key: &str, value: impl ToString) -> Manifest {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Total nanoseconds attributed to stage/substage spans named
    /// `label`, summed over the whole tree. For a tree assembled from the
    /// pipeline's `StageTimes` this equals the `--rt` registry total for
    /// the same label exactly (both sum the same integers).
    pub fn stage_total_nanos(&self, label: &str) -> u128 {
        let mut total = 0u128;
        self.root.walk(&mut |_, node| {
            if matches!(node.kind, SpanKind::Stage | SpanKind::SolverSubstage) && node.name == label
            {
                total += node.nanos;
            }
        });
        total
    }

    /// `(label, nanos)` totals for every distinct stage/substage label,
    /// sorted by label.
    pub fn stage_totals(&self) -> Vec<(String, u128)> {
        let mut labels: Vec<&str> = Vec::new();
        self.root.walk(&mut |_, node| {
            if matches!(node.kind, SpanKind::Stage | SpanKind::SolverSubstage) {
                labels.push(node.name.as_str());
            }
        });
        labels.sort_unstable();
        labels.dedup();
        labels
            .into_iter()
            .map(|l| (l.to_string(), self.stage_total_nanos(l)))
            .collect()
    }

    /// The summary-JSON sink.
    ///
    /// With `redact = true` every volatile value is zeroed or replaced by
    /// `"redacted"`, producing a document fully determined by corpus,
    /// configuration and seeds — the form compared by the byte-identity
    /// goldens.
    pub fn render_json(&self, redact: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        push_json_str(&mut out, SCHEMA);
        out.push_str(",\n  \"tool\": ");
        push_json_str(&mut out, &self.tool);
        out.push_str(",\n  \"config\": {\n");
        push_members(&mut out, &self.config, |out, (k, v)| {
            push_json_str(out, k);
            out.push_str(": ");
            push_json_str(out, v);
        });
        out.push_str("  },\n  \"seeds\": [");
        for (i, &seed) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_u64(&mut out, seed);
        }
        out.push_str("],\n  \"counters\": {\n");
        push_members(
            &mut out,
            self.metrics.counters.iter(),
            |out, (label, total)| {
                push_json_str(out, label);
                out.push_str(": ");
                push_u64(out, total);
            },
        );
        out.push_str("  },\n  \"histograms\": {\n");
        push_members(&mut out, self.metrics.hists.iter(), |out, (label, h)| {
            push_json_str(out, label);
            out.push_str(": {");
            push_hist_fields(out, h);
            out.push('}');
        });
        out.push_str("  },\n");

        match &self.robustness {
            Some(r) => {
                out.push_str("  \"robustness\": {\n    ");
                push_rollup(&mut out, r, ",\n    ");
                out.push_str("\n  },\n");
            }
            None => out.push_str("  \"robustness\": null,\n"),
        }

        out.push_str("  \"spans\": ");
        span_json(&self.root, 1, redact, &mut out);
        out.push_str(",\n");

        if redact {
            out.push_str("  \"volatile\": {\"redacted\": true}\n");
        } else {
            out.push_str("  \"volatile\": {\n    \"git_describe\": ");
            push_json_str(&mut out, &self.volatile.git_describe);
            out.push_str(",\n    \"threads\": ");
            push_u64(&mut out, self.volatile.threads as u64);
            out.push_str("\n  }\n");
        }
        out.push_str("}\n");
        out
    }

    /// The JSON-lines sink: one event object per line — a header, every
    /// span in preorder, every counter, every histogram, the robustness
    /// rollup (if any) and a trailing `end` event.
    pub fn render_jsonl(&self, redact: bool) -> String {
        let mut out = String::new();
        out.push_str("{\"event\": \"manifest\", \"schema\": ");
        push_json_str(&mut out, SCHEMA);
        out.push_str(", \"tool\": ");
        push_json_str(&mut out, &self.tool);
        out.push_str("}\n");
        self.root.walk(&mut |depth, node| {
            out.push_str("{\"event\": \"span\", \"kind\": ");
            push_json_str(&mut out, node.kind.label());
            out.push_str(", \"name\": ");
            push_json_str(&mut out, &node.name);
            out.push_str(", \"depth\": ");
            push_u64(&mut out, depth as u64);
            out.push_str(", \"nanos\": ");
            push_u128(&mut out, if redact { 0 } else { node.nanos });
            out.push_str("}\n");
        });
        for (label, total) in self.metrics.counters.iter() {
            out.push_str("{\"event\": \"counter\", \"name\": ");
            push_json_str(&mut out, label);
            out.push_str(", \"value\": ");
            push_u64(&mut out, total);
            out.push_str("}\n");
        }
        for (label, h) in self.metrics.hists.iter() {
            out.push_str("{\"event\": \"hist\", \"name\": ");
            push_json_str(&mut out, label);
            out.push_str(", ");
            push_hist_fields(&mut out, h);
            out.push_str("}\n");
        }
        if let Some(r) = &self.robustness {
            out.push_str("{\"event\": \"robustness\", ");
            push_rollup(&mut out, r, ", ");
            out.push_str("}\n");
        }
        out.push_str("{\"event\": \"end\"}\n");
        out
    }

    /// The Prometheus text-exposition sink: counters as
    /// `tableseg_<name>_total`, histograms as cumulative
    /// `_bucket{{le=...}}` series, and per-stage seconds as a gauge.
    ///
    /// With `redact = true` the stage-seconds gauges (the only volatile
    /// series) are zeroed; the series set itself is deterministic.
    pub fn render_prometheus(&self, redact: bool) -> String {
        let mut out = String::new();
        for (label, total) in self.metrics.counters.iter() {
            out.push_str("# TYPE ");
            push_metric_name(&mut out, label, "_total");
            out.push_str(" counter\n");
            push_metric_name(&mut out, label, "_total");
            out.push(' ');
            push_u64(&mut out, total);
            out.push('\n');
        }
        for (label, h) in self.metrics.hists.iter() {
            out.push_str("# TYPE ");
            push_metric_name(&mut out, label, "");
            out.push_str(" histogram\n");
            let mut cumulative = 0u64;
            for (b, n) in h.nonzero_buckets() {
                cumulative += n;
                push_metric_name(&mut out, label, "_bucket{le=\"");
                push_u64(&mut out, bucket_upper(b));
                out.push_str("\"} ");
                push_u64(&mut out, cumulative);
                out.push('\n');
            }
            push_metric_name(&mut out, label, "_bucket{le=\"+Inf\"} ");
            push_u64(&mut out, h.count);
            out.push('\n');
            push_metric_name(&mut out, label, "_sum ");
            push_u128(&mut out, h.sum);
            out.push('\n');
            push_metric_name(&mut out, label, "_count ");
            push_u64(&mut out, h.count);
            out.push('\n');
        }
        let stages = self.stage_totals();
        if !stages.is_empty() {
            out.push_str("# TYPE tableseg_stage_seconds gauge\n");
            for (label, nanos) in stages {
                let secs = if redact { 0.0 } else { nanos as f64 / 1e9 };
                let _ = writeln!(out, "tableseg_stage_seconds{{stage=\"{label}\"}} {secs:.9}");
            }
        }
        out
    }

    /// The human sink: the span tree followed by non-zero counters and
    /// histogram summaries, in the style of the `--rt` tables.
    pub fn render_tree(&self) -> String {
        let mut out = self.root.render_tree();
        let counters: Vec<(&str, u64)> = self
            .metrics
            .counters
            .iter()
            .filter(|&(_, v)| v > 0)
            .collect();
        if !counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (label, total) in counters {
                let _ = writeln!(out, "  {label:<32} {total}");
            }
        }
        let hists: Vec<(&str, &Histogram)> = self
            .metrics
            .hists
            .iter()
            .filter(|&(_, h)| h.count > 0)
            .collect();
        if !hists.is_empty() {
            out.push_str("\nhistograms:\n");
            for (label, h) in hists {
                let mean = h.sum as f64 / h.count as f64;
                let _ = writeln!(out, "  {label:<32} count {} mean {mean:.2}", h.count);
            }
        }
        out
    }

    /// Writes all three sinks next to each other: the summary JSON at
    /// `path`, the event log at `path` with an extra `.jsonl` suffix and
    /// the Prometheus text with an extra `.prom` suffix. Returns the
    /// paths written.
    pub fn write_files(&self, path: &Path, redact: bool) -> io::Result<Vec<PathBuf>> {
        let jsonl = sibling(path, "jsonl");
        let prom = sibling(path, "prom");
        fs::write(path, self.render_json(redact))?;
        fs::write(&jsonl, self.render_jsonl(redact))?;
        fs::write(&prom, self.render_prometheus(redact))?;
        Ok(vec![path.to_path_buf(), jsonl, prom])
    }
}

/// `path` with `ext` appended after the existing extension
/// (`out.json` → `out.json.jsonl`).
fn sibling(path: &Path, ext: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".");
    name.push(ext);
    PathBuf::from(name)
}

/// A JSON string literal with the characters JSON requires escaped.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal: quotes, backslashes
/// and control characters escaped, every other run of bytes copied
/// whole.
pub fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends the decimal digits of `n` to `out`.
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ascii digits"));
}

/// [`push_u64`] for the `u128` span nanos and histogram sums.
fn push_u128(out: &mut String, n: u128) {
    match u64::try_from(n) {
        Ok(n) => push_u64(out, n),
        Err(_) => {
            let _ = write!(out, "{n}");
        }
    }
}

/// One `    <member>` line per item of a JSON object, comma-separated,
/// each ending in a newline.
fn push_members<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut member: impl FnMut(&mut String, I::Item),
) {
    let mut any = false;
    for item in items {
        out.push_str(if any { ",\n    " } else { "    " });
        member(out, item);
        any = true;
    }
    if any {
        out.push('\n');
    }
}

/// `"count": c, "sum": s, "buckets": [[bucket, count], ...]`, with only
/// the non-empty buckets listed.
fn push_hist_fields(out: &mut String, h: &Histogram) {
    out.push_str("\"count\": ");
    push_u64(out, h.count);
    out.push_str(", \"sum\": ");
    push_u128(out, h.sum);
    out.push_str(", \"buckets\": [");
    for (i, (b, n)) in h.nonzero_buckets().enumerate() {
        out.push_str(if i == 0 { "[" } else { ", [" });
        push_u64(out, b as u64);
        out.push_str(", ");
        push_u64(out, n);
        out.push(']');
    }
    out.push(']');
}

/// The rollup's fields as `"pages": n` members, `sep` between them.
fn push_rollup(out: &mut String, r: &RobustnessRollup, sep: &str) {
    for (key, n) in [
        ("\"pages\": ", r.pages),
        ("\"ok\": ", r.ok),
        ("\"degraded\": ", r.degraded),
        ("\"failed\": ", r.failed),
    ] {
        out.push_str(key);
        push_u64(out, n);
        out.push_str(sep);
    }
    out.push_str("\"warnings\": ");
    push_pairs(out, &r.warnings);
    out.push_str(sep);
    out.push_str("\"failures_by_stage\": ");
    push_pairs(out, &r.failures_by_stage);
}

/// Label/count pairs as `[["label", count], ...]`.
fn push_pairs(out: &mut String, pairs: &[(String, u64)]) {
    out.push('[');
    for (i, (label, n)) in pairs.iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ", [" });
        push_json_str(out, label);
        out.push_str(", ");
        push_u64(out, *n);
        out.push(']');
    }
    out.push(']');
}

/// `tableseg_<label><suffix>`, with the label's non-alphanumeric
/// characters mapped to `_` (Prometheus metric-name charset).
fn push_metric_name(out: &mut String, label: &str, suffix: &str) {
    out.push_str("tableseg_");
    out.extend(
        label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
    );
    out.push_str(suffix);
}

/// One span and its subtree as a JSON object, children one per line at
/// `indent + 1`; with `redact` every `nanos` reads 0.
fn span_json(node: &SpanNode, indent: usize, redact: bool, out: &mut String) {
    out.push_str("{\"kind\": ");
    push_json_str(out, node.kind.label());
    out.push_str(", \"name\": ");
    push_json_str(out, &node.name);
    out.push_str(", \"nanos\": ");
    push_u128(out, if redact { 0 } else { node.nanos });
    out.push_str(", \"children\": [");
    if node.children.is_empty() {
        out.push_str("]}");
        return;
    }
    for (i, child) in node.children.iter().enumerate() {
        out.push('\n');
        push_indent(out, indent + 1);
        span_json(child, indent + 1, redact, out);
        if i + 1 < node.children.len() {
            out.push(',');
        }
    }
    out.push('\n');
    push_indent(out, indent);
    out.push_str("]}");
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Counter, Hist, NUM_BUCKETS};

    fn manifest() -> Manifest {
        let mut m = Manifest::new("test-tool")
            .with_config("threads", 4)
            .with_config("corpus", "12-site");
        m.seeds = vec![7, 11];
        m.metrics = Recorder::always_on();
        m.metrics.bump(Counter::PagesProcessed, 117);
        m.metrics.bump(Counter::EmIterations, 40_000);
        m.metrics.observe(Hist::ExtractsPerPage, 0);
        m.metrics.observe(Hist::ExtractsPerPage, u64::MAX);
        m.robustness = Some(RobustnessRollup {
            pages: 117,
            ok: 110,
            degraded: 5,
            failed: 2,
            warnings: vec![("tokenizer.recovered".to_string(), 5)],
            failures_by_stage: vec![("solve".to_string(), 2)],
        });
        m.root = SpanNode::new(SpanKind::Run, "test-tool", 1000).with_child(
            SpanNode::new(SpanKind::Site, "site-a", 900).with_child(
                SpanNode::new(SpanKind::Stage, "solve", 800).with_child(SpanNode::new(
                    SpanKind::SolverSubstage,
                    "solve.csp",
                    700,
                )),
            ),
        );
        m.volatile = Volatile {
            git_describe: "v1-dirty".to_string(),
            threads: 4,
        };
        m
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn summary_json_has_schema_and_sections() {
        let j = manifest().render_json(false);
        assert!(j.contains("\"schema\": \"tableseg.manifest/v1\""));
        assert!(j.contains("\"tool\": \"test-tool\""));
        assert!(j.contains("\"pages.processed\": 117"));
        assert!(j.contains("\"prob.em.iterations\": 40000"));
        assert!(j.contains("\"seeds\": [7, 11]"));
        assert!(j.contains("\"git_describe\": \"v1-dirty\""));
        assert!(j.contains("\"failures_by_stage\": [[\"solve\", 2]]"));
        // Extreme-value buckets survive the round trip.
        assert!(j.contains(&format!("[[0, 1], [{}, 1]]", NUM_BUCKETS - 1)));
    }

    #[test]
    fn redacted_json_hides_volatile_data() {
        let j = manifest().render_json(true);
        assert!(j.contains("\"volatile\": {\"redacted\": true}"));
        assert!(!j.contains("v1-dirty"));
        assert!(j.contains("\"nanos\": 0"));
        assert!(!j.contains("\"nanos\": 700"));
        // Redaction is stable: rendering twice is byte-identical.
        assert_eq!(j, manifest().render_json(true));
    }

    #[test]
    fn jsonl_emits_one_event_per_line() {
        let log = manifest().render_jsonl(false);
        let lines: Vec<&str> = log.lines().collect();
        assert!(lines[0].contains("\"event\": \"manifest\""));
        assert!(lines.last().unwrap().contains("\"event\": \"end\""));
        // header + 4 spans + counters + hists + robustness + end.
        assert_eq!(
            lines.len(),
            1 + 4 + Counter::ALL.len() + Hist::ALL.len() + 1 + 1
        );
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let prom = manifest().render_prometheus(false);
        assert!(prom.contains("tableseg_pages_processed_total 117"));
        assert!(prom.contains("# TYPE tableseg_extracts_per_page histogram"));
        assert!(prom.contains("tableseg_extracts_per_page_bucket{le=\"0\"} 1"));
        assert!(prom.contains(&format!(
            "tableseg_extracts_per_page_bucket{{le=\"{}\"}} 2",
            u64::MAX
        )));
        assert!(prom.contains("tableseg_extracts_per_page_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("tableseg_extracts_per_page_count 2"));
        assert!(prom.contains("tableseg_stage_seconds{stage=\"solve\"}"));
    }

    #[test]
    fn stage_totals_sum_stage_and_substage_spans() {
        let m = manifest();
        assert_eq!(m.stage_total_nanos("solve"), 800);
        assert_eq!(m.stage_total_nanos("solve.csp"), 700);
        // Run/site spans are not stages.
        assert_eq!(m.stage_total_nanos("site-a"), 0);
        let totals = m.stage_totals();
        assert_eq!(
            totals,
            vec![("solve".to_string(), 800), ("solve.csp".to_string(), 700)]
        );
    }

    #[test]
    fn tree_sink_lists_counters() {
        let t = manifest().render_tree();
        assert!(t.contains("solve.csp"));
        assert!(t.contains("pages.processed"));
        assert!(t.contains("counters:"));
    }

    #[test]
    fn write_files_emits_three_sinks() {
        let dir = std::env::temp_dir().join("tableseg-obs-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let written = manifest().write_files(&path, true).unwrap();
        assert_eq!(written.len(), 3);
        assert!(written[1].to_string_lossy().ends_with("out.json.jsonl"));
        assert!(written[2].to_string_lossy().ends_with("out.json.prom"));
        for p in &written {
            assert!(fs::metadata(p).unwrap().len() > 0);
            let _ = fs::remove_file(p);
        }
    }
}
