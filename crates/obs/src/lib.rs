//! Structured observability for the tableseg pipeline.
//!
//! The paper ("Using the Structure of Web Sites for Automatic
//! Segmentation of Tables", Section 6) evaluates the system per site and
//! per stage; this crate turns those ad-hoc measurements into one
//! instrumentation API used by every layer of the reproduction:
//!
//! * [`metric`] — typed [`Counter`]s and log2-bucket [`Histogram`]s for
//!   the quantities the paper (and the chaos layer) care about: pages
//!   processed, extracts matched, CSP relaxations and components, EM
//!   iterations, template-cache hits, warnings and failures.
//! * [`recorder`] — the per-job [`Recorder`] the batch engine merges in
//!   deterministic job order, plus the ambient enable switch
//!   ([`set_enabled`]) that makes everything a no-op by default.
//! * [`span`] — the `run > site > page > stage > substage` [`SpanNode`]
//!   tree, assembled from the pipeline's existing per-stage timers.
//! * [`manifest`] — the per-run [`Manifest`] with its three sinks:
//!   summary JSON, JSON-lines event log and Prometheus text.
//!
//! Determinism is the design constraint throughout: metric totals come
//! from per-job recorders merged in job order, span trees are assembled
//! in corpus order, and every wall-clock or build-specific value lives
//! in an explicitly volatile section that redacted renderings omit — so
//! a redacted manifest is byte-identical at 1, 2 or N worker threads.
//! See `OBSERVABILITY.md` at the repository root for the naming scheme
//! and schema reference.
//!
//! # Example
//!
//! ```
//! use tableseg_obs::{Counter, Hist, Manifest, Recorder, SpanKind, SpanNode};
//!
//! // Per-job recorders, merged in deterministic job order.
//! let mut job = Recorder::always_on();
//! job.incr(Counter::PagesProcessed);
//! job.observe(Hist::ExtractsPerPage, 12);
//! let mut run = Recorder::default();
//! run.merge(&job);
//!
//! // A manifest bundles metrics, config and the span tree.
//! let mut m = Manifest::new("example").with_config("threads", 1);
//! m.metrics = run;
//! m.root = SpanNode::new(SpanKind::Run, "example", 0)
//!     .with_child(SpanNode::new(SpanKind::Stage, "solve", 0));
//! assert!(m.render_json(true).contains("\"pages.processed\": 1"));
//! assert!(m.render_prometheus(false).contains("tableseg_pages_processed_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod metric;
pub mod recorder;
pub mod span;

pub use manifest::{
    deterministic_requested, git_describe, json_str, push_json_str, push_u64, Manifest,
    RobustnessRollup, Volatile, DETERMINISTIC_ENV, SCHEMA,
};
pub use metric::{
    bucket_of, bucket_upper, Counter, CounterSet, Hist, Histogram, HistogramSet, NUM_BUCKETS,
};
pub use recorder::{enabled, set_enabled, Recorder};
pub use span::{SpanKind, SpanNode};

/// Formats a nanosecond count for humans (`532ns`, `1.24ms`, `3.50s`),
/// matching the style of the core timing registry.
pub fn human_nanos(nanos: u128) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_nanos_units() {
        assert_eq!(human_nanos(532), "532ns");
        assert_eq!(human_nanos(1_240), "1.24us");
        assert_eq!(human_nanos(1_240_000), "1.24ms");
        assert_eq!(human_nanos(3_500_000_000), "3.50s");
    }
}
