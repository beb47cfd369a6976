//! Per-layer numbers the library already reports: the [`StageTimes`] on
//! site templates, prepared pages and solver outcomes, and the obs
//! [`Recorder`] counters (recorded only while obs is enabled, which the
//! benchmark does in its traced run alone).

use std::time::Instant;

use tableseg::obs::{Counter, Recorder};
use tableseg::timing::{Stage, StageTimes};
use tableseg::{PreparedPage, SegmenterOutcome, SiteTemplate};
use tableseg_serve::proto::{encode_request, encode_response, parse_request, parse_response};
use tableseg_serve::{fingerprint, SegmentRequest, SegmentResponse};

use crate::report::Metrics;
use crate::stats::median;

/// Reported stage times and counters, summed over library calls.
#[derive(Debug, Default)]
pub struct Reported {
    times: StageTimes,
    counters: Recorder,
    prob_solves: u64,
}

impl Reported {
    /// Adds a site template's site-level stages and counters.
    pub fn template(&mut self, t: &SiteTemplate) {
        self.times.merge(&t.timings);
        self.counters.merge(&t.metrics);
    }

    /// Adds a prepared page's per-page stages and counters.
    pub fn page(&mut self, p: &PreparedPage) {
        self.times.merge(&p.timings);
        self.counters.merge(&p.metrics);
    }

    /// Adds one solver outcome; `prob` marks a probabilistic solve.
    pub fn solve(&mut self, o: &SegmenterOutcome, prob: bool) {
        self.times.merge(&o.solver_times);
        self.counters.merge(&o.metrics);
        self.prob_solves += u64::from(prob);
    }

    /// Sums another record into this one.
    pub fn merge(&mut self, other: &Reported) {
        self.times.merge(&other.times);
        self.counters.merge(&other.counters);
        self.prob_solves += other.prob_solves;
    }

    /// Stage times (ms) and counters, each divided by `units` (the number
    /// of passes the record covers), under their per-layer names.
    pub fn emit(&self, m: &mut Metrics, units: f64) {
        let ms = |stages: &[Stage]| {
            stages
                .iter()
                .map(|&s| self.times.get(s).as_secs_f64())
                .sum::<f64>()
                * 1e3
                / units
        };
        let count = |c: Counter| self.counters.counters.get(c) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        m.layer("html.tokenize_ms", ms(&[Stage::Tokenize]), "ms");
        m.layer("html.bytes", count(Counter::FrontendBytes) / units, "bytes");
        m.layer("template.induce_ms", ms(&[Stage::TemplateInduction]), "ms");
        m.layer(
            "template.inductions",
            count(Counter::TemplateInductions) / units,
            "count",
        );
        m.layer(
            "template.lcs_fallbacks",
            count(Counter::TemplateLcsFallbacks) / units,
            "count",
        );
        m.layer(
            "template.whole_page_fallbacks",
            count(Counter::WholePageFallbacks) / units,
            "count",
        );
        m.layer(
            "extract.match_ms",
            ms(&[Stage::Extraction, Stage::Matching]),
            "ms",
        );
        m.layer(
            "extract.kept",
            count(Counter::ExtractsKept) / units,
            "count",
        );
        m.layer(
            "extract.matched_per_kept",
            ratio(
                count(Counter::ExtractsMatched),
                count(Counter::ExtractsKept),
            ),
            "ratio",
        );
        m.layer("csp.reduce_ms", ms(&[Stage::SolveReduce]), "ms");
        m.layer("csp.wsat_flips", count(Counter::WsatFlips) / units, "count");
        m.layer("csp.wsat_tries", count(Counter::WsatTries) / units, "count");
        m.layer(
            "csp.relaxed_pages",
            count(Counter::CspRelaxed) / units,
            "count",
        );
        m.layer(
            "csp.components",
            count(Counter::SolveComponents) / units,
            "count",
        );
        m.layer(
            "csp.warm_start_hit_ratio",
            ratio(
                count(Counter::SolveWarmStartHits),
                count(Counter::SolveComponents),
            ),
            "ratio",
        );
        m.layer("prob.e_step_ms", ms(&[Stage::SolveEmEStep]), "ms");
        m.layer(
            "prob.em_iterations",
            count(Counter::EmIterations) / units,
            "count",
        );
        m.layer(
            "prob.em_iters_per_solve",
            ratio(count(Counter::EmIterations), self.prob_solves as f64),
            "count",
        );
    }

    /// Every stage time (ms) and every nonzero counter, unnormalised, for
    /// the trace file.
    pub fn dump(&self) -> Vec<(String, f64)> {
        let stages = Stage::ALL
            .iter()
            .chain(&Stage::SOLVE_SPLIT)
            .chain(&Stage::TEMPLATE_SPLIT)
            .chain(&Stage::DETECT_SPLIT);
        let mut out: Vec<(String, f64)> = stages
            .map(|&s| {
                (
                    format!("stage.{}_ms", s.label()),
                    self.times.get(s).as_secs_f64() * 1e3,
                )
            })
            .collect();
        out.extend(
            self.counters
                .counters
                .iter()
                .filter(|&(_, v)| v > 0)
                .map(|(name, v)| (format!("counter.{name}"), v as f64)),
        );
        out
    }
}

/// Repetitions of the codec and fingerprint probes (the median is kept).
const PROBE_REPS: usize = 5;

/// Times the serve codec and page fingerprint on a workload's own bodies:
/// `serve.codec_ms` parses every request and response once,
/// `serve.fingerprint_ms` fingerprints every list page once, and
/// `serve.body_kb` is the mean request body.
pub fn serve_probes(m: &mut Metrics, requests: &[SegmentRequest], responses: &[SegmentResponse]) {
    let req_bodies: Vec<String> = requests.iter().map(encode_request).collect();
    let resp_bodies: Vec<String> = responses.iter().map(encode_response).collect();
    let codec: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            for b in &req_bodies {
                std::hint::black_box(parse_request(b).expect("own request body parses"));
            }
            for b in &resp_bodies {
                std::hint::black_box(parse_response(b).expect("own response body parses"));
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let fp: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            for r in requests {
                for p in &r.list_pages {
                    std::hint::black_box(fingerprint(p.as_bytes()));
                }
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let bytes: usize = req_bodies.iter().map(String::len).sum();
    m.layer("serve.codec_ms", median(&codec), "ms");
    m.layer("serve.fingerprint_ms", median(&fp), "ms");
    m.layer(
        "serve.body_kb",
        bytes as f64 / 1024.0 / req_bodies.len().max(1) as f64,
        "KB",
    );
}
