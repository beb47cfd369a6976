//! The metric sets every workload reports, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them, measured on
/// its own operations (see `perfbench/README.md` for the definitions).
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "sites_per_s",
    "site_p50_ms",
    "site_mean_ms",
    "site_tail_ms",
    "csp_f",
    "prob_f",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by the traced run of every workload.
pub const PER_LAYER: [&str; 38] = [
    "core.site_build_ms",
    "core.prepare_ms",
    "core.batch_busy_frac",
    "html.tokenize_ms",
    "html.bytes",
    "template.induce_ms",
    "template.inductions",
    "template.lcs_fallbacks",
    "template.whole_page_fallbacks",
    "extract.match_ms",
    "extract.kept",
    "extract.matched_per_kept",
    "csp.segment_ms",
    "csp.reduce_ms",
    "csp.wsat_flips",
    "csp.wsat_tries",
    "csp.relaxed_pages",
    "csp.components",
    "csp.warm_start_hit_ratio",
    "prob.segment_ms",
    "prob.e_step_ms",
    "prob.em_iterations",
    "prob.em_iters_per_solve",
    "eval.classify_ms",
    "serve.codec_ms",
    "serve.fingerprint_ms",
    "serve.body_kb",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.cache_refreshes",
    "serve.rebuilds",
    "serve.rejected",
    "serve.inductions",
    "sitegen.generate_ms",
    "gen.late_p99_ms",
    "gen.inflight_max",
    "trace.overhead_frac",
    "trace.unattributed_frac",
];

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, such as `ms` or `count`.
    pub unit: &'static str,
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Metrics {
    /// End-to-end metrics ([`END_TO_END`]).
    pub e2e: Vec<Value>,
    /// Per-layer metrics ([`PER_LAYER`]); empty in untraced runs.
    pub layers: Vec<Value>,
    /// Workload-specific figures printed in the table only.
    pub info: Vec<Value>,
}

fn value(name: &str, value: f64, unit: &'static str) -> Value {
    Value {
        name: name.to_string(),
        value,
        unit,
    }
}

impl Metrics {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, v: f64, unit: &'static str) {
        self.e2e.push(value(name, v, unit));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, v: f64, unit: &'static str) {
        self.layers.push(value(name, v, unit));
    }

    /// Records a table-only figure.
    pub fn info(&mut self, name: &str, v: f64, unit: &'static str) {
        self.info.push(value(name, v, unit));
    }
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (pages for batch, requests for serve).
    pub attempted: u64,
    /// Operations that failed or gave a wrong output.
    pub failed: u64,
    /// The measurements.
    pub metrics: Metrics,
}

/// Checks that `values` holds exactly the names in `expected`, each once
/// and finite.
pub fn check_set(values: &[Value], expected: &[&str]) -> Result<(), String> {
    for name in expected {
        match values.iter().filter(|v| v.name == *name).count() {
            1 => {}
            n => return Err(format!("metric {name} reported {n} times")),
        }
    }
    if let Some(extra) = values.iter().find(|v| !expected.contains(&v.name.as_str())) {
        return Err(format!("unexpected metric {}", extra.name));
    }
    if let Some(bad) = values.iter().find(|v| !v.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok(())
}

/// The human-readable table: every figure with its unit.
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = format!(
        "# {workload}: correct={} attempted={} failed={}\n",
        outcome.correct, outcome.attempted, outcome.failed
    );
    let m = &outcome.metrics;
    for (section, values) in [
        ("end-to-end", &m.e2e),
        ("workload", &m.info),
        ("per-layer", &m.layers),
    ] {
        if values.is_empty() {
            continue;
        }
        let _ = writeln!(out, "## {section}");
        for v in values {
            let _ = writeln!(out, "{:<32} {:>16.4} {}", v.name, v.value, v.unit);
        }
    }
    out
}

/// The result line: one JSON object with the metrics of `values`.
pub fn result_line(outcome: &Outcome, values: &[Value]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, v) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            v.name, v.value, v.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Metrics::default(),
        };
        let line = result_line(&outcome, &[value("setup_s", 0.123456789012, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn check_set_rejects_missing_extra_and_nan() {
        let ok = [value("a", 1.0, "s"), value("b", 2.0, "s")];
        assert!(check_set(&ok, &["a", "b"]).is_ok());
        assert!(check_set(&ok[..1], &["a", "b"]).is_err());
        assert!(check_set(&ok, &["a"]).is_err());
        assert!(check_set(&[value("a", f64::NAN, "s")], &["a"]).is_err());
    }
}
