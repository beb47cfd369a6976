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

use crate::metric::{bucket_upper, Histogram, NUM_BUCKETS};
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
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SCHEMA));
        let _ = writeln!(out, "  \"tool\": {},", json_str(&self.tool));
        let _ = writeln!(out, "  \"config\": {{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            let comma = if i + 1 < self.config.len() { "," } else { "" };
            let _ = writeln!(out, "    {}: {}{comma}", json_str(k), json_str(v));
        }
        out.push_str("  },\n");
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "  \"seeds\": [{}],", seeds.join(", "));

        out.push_str("  \"counters\": {\n");
        let counters: Vec<(&str, u64)> = self.metrics.counters.iter().collect();
        for (i, (label, total)) in counters.iter().enumerate() {
            let comma = if i + 1 < counters.len() { "," } else { "" };
            let _ = writeln!(out, "    {}: {total}{comma}", json_str(label));
        }
        out.push_str("  },\n");

        out.push_str("  \"histograms\": {\n");
        let hists: Vec<(&str, &Histogram)> = self.metrics.hists.iter().collect();
        for (i, (label, h)) in hists.iter().enumerate() {
            let comma = if i + 1 < hists.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {}: {{\"count\": {}, \"sum\": {}, \"buckets\": {}}}{comma}",
                json_str(label),
                h.count,
                h.sum,
                buckets_json(h),
            );
        }
        out.push_str("  },\n");

        match &self.robustness {
            Some(r) => {
                out.push_str("  \"robustness\": {\n");
                let _ = writeln!(out, "    \"pages\": {},", r.pages);
                let _ = writeln!(out, "    \"ok\": {},", r.ok);
                let _ = writeln!(out, "    \"degraded\": {},", r.degraded);
                let _ = writeln!(out, "    \"failed\": {},", r.failed);
                let _ = writeln!(out, "    \"warnings\": {},", pairs_json(&r.warnings));
                let _ = writeln!(
                    out,
                    "    \"failures_by_stage\": {}",
                    pairs_json(&r.failures_by_stage)
                );
                out.push_str("  },\n");
            }
            None => out.push_str("  \"robustness\": null,\n"),
        }

        out.push_str("  \"spans\": ");
        let root = if redact {
            self.root.redacted()
        } else {
            self.root.clone()
        };
        span_json(&root, 1, &mut out);
        out.push_str(",\n");

        if redact {
            out.push_str("  \"volatile\": {\"redacted\": true}\n");
        } else {
            out.push_str("  \"volatile\": {\n");
            let _ = writeln!(
                out,
                "    \"git_describe\": {},",
                json_str(&self.volatile.git_describe)
            );
            let _ = writeln!(out, "    \"threads\": {}", self.volatile.threads);
            out.push_str("  }\n");
        }
        out.push_str("}\n");
        out
    }

    /// The JSON-lines sink: one event object per line — a header, every
    /// span in preorder, every counter, every histogram, the robustness
    /// rollup (if any) and a trailing `end` event.
    pub fn render_jsonl(&self, redact: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"event\": \"manifest\", \"schema\": {}, \"tool\": {}}}",
            json_str(SCHEMA),
            json_str(&self.tool)
        );
        let root = if redact {
            self.root.redacted()
        } else {
            self.root.clone()
        };
        root.walk(&mut |depth, node| {
            let _ = writeln!(
                out,
                "{{\"event\": \"span\", \"kind\": {}, \"name\": {}, \"depth\": {depth}, \"nanos\": {}}}",
                json_str(node.kind.label()),
                json_str(&node.name),
                node.nanos
            );
        });
        for (label, total) in self.metrics.counters.iter() {
            let _ = writeln!(
                out,
                "{{\"event\": \"counter\", \"name\": {}, \"value\": {total}}}",
                json_str(label)
            );
        }
        for (label, h) in self.metrics.hists.iter() {
            let _ = writeln!(
                out,
                "{{\"event\": \"hist\", \"name\": {}, \"count\": {}, \"sum\": {}, \"buckets\": {}}}",
                json_str(label),
                h.count,
                h.sum,
                buckets_json(h)
            );
        }
        if let Some(r) = &self.robustness {
            let _ = writeln!(
                out,
                "{{\"event\": \"robustness\", \"pages\": {}, \"ok\": {}, \"degraded\": {}, \"failed\": {}, \"warnings\": {}, \"failures_by_stage\": {}}}",
                r.pages,
                r.ok,
                r.degraded,
                r.failed,
                pairs_json(&r.warnings),
                pairs_json(&r.failures_by_stage)
            );
        }
        let _ = writeln!(out, "{{\"event\": \"end\"}}");
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
            let name = format!("tableseg_{}_total", metric_name(label));
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {total}");
        }
        for (label, h) in self.metrics.hists.iter() {
            let name = format!("tableseg_{}", metric_name(label));
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for b in 0..NUM_BUCKETS {
                let n = h.bucket(b);
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(b)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
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
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Non-empty buckets as `[[bucket, count], ...]`.
fn buckets_json(h: &Histogram) -> String {
    let parts: Vec<String> = h
        .nonzero_buckets()
        .into_iter()
        .map(|(b, n)| format!("[{b}, {n}]"))
        .collect();
    format!("[{}]", parts.join(", "))
}

/// Label/count pairs as `[["label", count], ...]`.
fn pairs_json(pairs: &[(String, u64)]) -> String {
    let parts: Vec<String> = pairs
        .iter()
        .map(|(label, n)| format!("[{}, {n}]", json_str(label)))
        .collect();
    format!("[{}]", parts.join(", "))
}

/// `label` with non-alphanumeric characters mapped to `_` (Prometheus
/// metric-name charset).
fn metric_name(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn span_json(node: &SpanNode, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let _ = write!(
        out,
        "{{\"kind\": {}, \"name\": {}, \"nanos\": {}, \"children\": [",
        json_str(node.kind.label()),
        json_str(&node.name),
        node.nanos
    );
    if node.children.is_empty() {
        out.push_str("]}");
        return;
    }
    for (i, child) in node.children.iter().enumerate() {
        out.push('\n');
        out.push_str(&pad);
        out.push_str("  ");
        span_json(child, indent + 1, out);
        if i + 1 < node.children.len() {
            out.push(',');
        }
    }
    out.push('\n');
    out.push_str(&pad);
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Counter, Hist};

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
