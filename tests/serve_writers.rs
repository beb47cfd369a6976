//! The serve layer's byte writers against their `format!`-based
//! oracles, and the page fingerprint against single-byte edits.
//!
//! `encode_response` and the manifest sinks write numbers, labels and
//! escapes straight into one buffer. The oracles below are the
//! string-joining writers they replaced, kept verbatim in behaviour:
//! every reply and manifest must come out byte for byte the same, on the
//! paper corpus as served by the daemon and on random inputs that reach
//! the corners (empty lists and groups, failed pages with multi-line
//! errors, labels that need JSON escapes, sums beyond `u64`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tableseg::obs::{
    self, Counter, Hist, Manifest, Recorder, RobustnessRollup, SpanKind, SpanNode, Volatile,
};
use tableseg_bench::run_sites;
use tableseg_bench::servebench::corpus_requests;
use tableseg_serve::client;
use tableseg_serve::proto::{encode_request, encode_response, parse_response};
use tableseg_serve::{fingerprint, PageResultMsg, SegmentResponse, SegmenterMsg};
use tableseg_serve::{Server, ServerConfig};
use tableseg_sitegen::paper_sites;

/// The string-joining writers the direct ones replaced.
mod oracle {
    use std::fmt::Write as _;

    use tableseg::obs::{bucket_upper, Histogram, Manifest, SpanNode, NUM_BUCKETS, SCHEMA};
    use tableseg_serve::{SegmentResponse, SegmenterMsg};

    fn encode_list(values: &[usize]) -> String {
        if values.is_empty() {
            return "-".to_string();
        }
        values
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }

    fn encode_groups(groups: &[Vec<usize>]) -> String {
        if groups.is_empty() {
            return "-".to_string();
        }
        groups
            .iter()
            .map(|g| g.iter().map(usize::to_string).collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
            .join("|")
    }

    fn encode_segmenter(out: &mut String, name: &str, m: &SegmenterMsg) {
        out.push_str(&format!(
            "{name} relaxed {} groups {}\n",
            m.relaxed as u8,
            encode_groups(&m.groups)
        ));
    }

    pub fn encode_response(resp: &SegmentResponse) -> String {
        let mut out = String::new();
        out.push_str("tablesegd/v1 result");
        out.push('\n');
        out.push_str(&format!("site {}\n", resp.site));
        out.push_str(&format!("cache {}\n", resp.cache));
        out.push_str(&format!("generation {}\n", resp.generation));
        out.push_str(&format!(
            "pages {} ok {} degraded {} failed {}\n",
            resp.pages, resp.ok, resp.degraded, resp.failed
        ));
        for p in &resp.page_results {
            out.push_str(&format!(
                "page {} {} {}\n",
                p.target,
                p.status,
                if p.cached { "cached" } else { "computed" }
            ));
            out.push_str(&format!("whole_page {}\n", p.whole_page as u8));
            let warnings = if p.warnings.is_empty() {
                "-".to_string()
            } else {
                p.warnings.join(",")
            };
            out.push_str(&format!("warnings {warnings}\n"));
            out.push_str(&format!("offsets {}\n", encode_list(&p.offsets)));
            if let Some(prob) = &p.prob {
                encode_segmenter(&mut out, "prob", prob);
            }
            if let Some(csp) = &p.csp {
                encode_segmenter(&mut out, "csp", csp);
            }
            if let Some((stage, message)) = &p.error {
                out.push_str(&format!("error {stage} {}\n", message.replace('\n', " ")));
            }
            out.push_str("endpage\n");
        }
        out.push_str(&format!("manifest {}\n", resp.manifest.len()));
        out.push_str(&resp.manifest);
        out.push('\n');
        out.push_str("end\n");
        out
    }

    fn json_str(s: &str) -> String {
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

    fn buckets_json(h: &Histogram) -> String {
        let parts: Vec<String> = h
            .nonzero_buckets()
            .map(|(b, n)| format!("[{b}, {n}]"))
            .collect();
        format!("[{}]", parts.join(", "))
    }

    fn pairs_json(pairs: &[(String, u64)]) -> String {
        let parts: Vec<String> = pairs
            .iter()
            .map(|(label, n)| format!("[{}, {n}]", json_str(label)))
            .collect();
        format!("[{}]", parts.join(", "))
    }

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

    pub fn render_json(m: &Manifest, redact: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SCHEMA));
        let _ = writeln!(out, "  \"tool\": {},", json_str(&m.tool));
        let _ = writeln!(out, "  \"config\": {{");
        for (i, (k, v)) in m.config.iter().enumerate() {
            let comma = if i + 1 < m.config.len() { "," } else { "" };
            let _ = writeln!(out, "    {}: {}{comma}", json_str(k), json_str(v));
        }
        out.push_str("  },\n");
        let seeds: Vec<String> = m.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "  \"seeds\": [{}],", seeds.join(", "));

        out.push_str("  \"counters\": {\n");
        let counters: Vec<(&str, u64)> = m.metrics.counters.iter().collect();
        for (i, (label, total)) in counters.iter().enumerate() {
            let comma = if i + 1 < counters.len() { "," } else { "" };
            let _ = writeln!(out, "    {}: {total}{comma}", json_str(label));
        }
        out.push_str("  },\n");

        out.push_str("  \"histograms\": {\n");
        let hists: Vec<(&str, &Histogram)> = m.metrics.hists.iter().collect();
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

        match &m.robustness {
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
            m.root.redacted()
        } else {
            m.root.clone()
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
                json_str(&m.volatile.git_describe)
            );
            let _ = writeln!(out, "    \"threads\": {}", m.volatile.threads);
            out.push_str("  }\n");
        }
        out.push_str("}\n");
        out
    }

    pub fn render_jsonl(m: &Manifest, redact: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"event\": \"manifest\", \"schema\": {}, \"tool\": {}}}",
            json_str(SCHEMA),
            json_str(&m.tool)
        );
        let root = if redact {
            m.root.redacted()
        } else {
            m.root.clone()
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
        for (label, total) in m.metrics.counters.iter() {
            let _ = writeln!(
                out,
                "{{\"event\": \"counter\", \"name\": {}, \"value\": {total}}}",
                json_str(label)
            );
        }
        for (label, h) in m.metrics.hists.iter() {
            let _ = writeln!(
                out,
                "{{\"event\": \"hist\", \"name\": {}, \"count\": {}, \"sum\": {}, \"buckets\": {}}}",
                json_str(label),
                h.count,
                h.sum,
                buckets_json(h)
            );
        }
        if let Some(r) = &m.robustness {
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

    pub fn render_prometheus(m: &Manifest, redact: bool) -> String {
        let mut out = String::new();
        for (label, total) in m.metrics.counters.iter() {
            let name = format!("tableseg_{}_total", metric_name(label));
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {total}");
        }
        for (label, h) in m.metrics.hists.iter() {
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
        let stages = m.stage_totals();
        if !stages.is_empty() {
            out.push_str("# TYPE tableseg_stage_seconds gauge\n");
            for (label, nanos) in stages {
                let secs = if redact { 0.0 } else { nanos as f64 / 1e9 };
                let _ = writeln!(out, "tableseg_stage_seconds{{stage=\"{label}\"}} {secs:.9}");
            }
        }
        out
    }
}

fn assert_reply_writers_agree(resp: &SegmentResponse) {
    let direct = encode_response(resp);
    assert_eq!(direct, oracle::encode_response(resp), "{resp:#?}");
}

fn assert_manifest_writers_agree(m: &Manifest) {
    for redact in [true, false] {
        assert_eq!(m.render_json(redact), oracle::render_json(m, redact));
        assert_eq!(m.render_jsonl(redact), oracle::render_jsonl(m, redact));
        assert_eq!(
            m.render_prometheus(redact),
            oracle::render_prometheus(m, redact)
        );
    }
}

#[test]
fn reply_writer_matches_its_oracle_on_served_paper_replies() {
    let server = Server::start(ServerConfig {
        workers: 2,
        batch_threads: 1,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr();
    let mut replies = 0;
    for (_, request) in corpus_requests() {
        let body = encode_request(&request).into_bytes();
        // Past its deadline (the site is built, every page fails), then
        // computed, then cached twice; redacted and in full.
        for headers in [
            &[("x-deadline-ms", "0")][..],
            &[("x-tableseg-redact", "1")][..],
            &[][..],
            &[("x-tableseg-redact", "1")][..],
        ] {
            let reply =
                client::http_request(addr, "POST", "/segment", headers, &body).expect("reply");
            assert_eq!(reply.status, 200, "{}", reply.text());
            let text = String::from_utf8(reply.body).expect("utf-8 reply");
            let resp = parse_response(&text).expect("reply parses");
            assert_eq!(encode_response(&resp), text, "{}", request.site);
            assert_reply_writers_agree(&resp);
            replies += 1;
        }
        client::invalidate(addr, &request.site).expect("invalidate");
    }
    server.shutdown();
    assert_eq!(replies, 48);
}

#[test]
fn manifest_writers_match_their_oracles_on_the_paper_corpus() {
    obs::set_enabled(true);
    let outcome = run_sites(&paper_sites::all(), 1);
    let m = outcome.manifest("table4", 1);
    assert!(m.metrics.counters.iter().any(|(_, total)| total > 0));
    assert!(!m.root.children.is_empty());
    assert_manifest_writers_agree(&m);
}

/// A string over an alphabet that reaches every escape and non-ASCII
/// text, possibly empty.
fn label(rng: &mut StdRng) -> String {
    const ALPHABET: [&str; 16] = [
        "a", "Z", "7", " ", ".", "_", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\u{7f}",
        "é", "表",
    ];
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

fn number(rng: &mut StdRng) -> usize {
    match rng.random_range(0..4u8) {
        0 => 0,
        1 => usize::MAX,
        2 => rng.random_range(0..10usize),
        _ => rng.random_range(0..1_000_000usize),
    }
}

fn segmenter(rng: &mut StdRng) -> Option<SegmenterMsg> {
    rng.random_bool(0.7).then(|| SegmenterMsg {
        relaxed: rng.random_bool(0.5),
        groups: (0..rng.random_range(0..5usize))
            .map(|_| {
                (0..rng.random_range(0..4usize))
                    .map(|_| number(rng))
                    .collect()
            })
            .collect(),
    })
}

fn random_response(rng: &mut StdRng) -> SegmentResponse {
    let page_results = (0..rng.random_range(0..4usize))
        .map(|_| {
            let failed = rng.random_bool(0.3);
            PageResultMsg {
                target: number(rng),
                status: ["ok", "degraded", "failed"][rng.random_range(0..3usize)].to_string(),
                cached: rng.random_bool(0.5),
                whole_page: rng.random_bool(0.3),
                warnings: (0..rng.random_range(0..3usize))
                    .map(|_| label(rng))
                    .collect(),
                offsets: (0..rng.random_range(0..8usize))
                    .map(|_| number(rng))
                    .collect(),
                prob: segmenter(rng),
                csp: segmenter(rng),
                error: failed.then(|| {
                    let lines: Vec<String> = (0..rng.random_range(1..4usize))
                        .map(|_| label(rng))
                        .collect();
                    (label(rng), lines.join("\n"))
                }),
            }
        })
        .collect();
    SegmentResponse {
        site: label(rng),
        cache: ["cold", "warm", "refresh", "rebuild"][rng.random_range(0..4usize)].to_string(),
        generation: rng.random_range(0..=u64::MAX),
        pages: number(rng),
        ok: number(rng),
        degraded: number(rng),
        failed: number(rng),
        page_results,
        manifest: label(rng),
    }
}

#[test]
fn reply_writer_matches_its_oracle_on_random_responses() {
    let mut rng = StdRng::seed_from_u64(0x5e7e);
    for _ in 0..2000 {
        assert_reply_writers_agree(&random_response(&mut rng));
    }
}

fn span(rng: &mut StdRng, depth: usize) -> SpanNode {
    let kinds = [
        SpanKind::Run,
        SpanKind::Site,
        SpanKind::Page,
        SpanKind::Stage,
        SpanKind::SolverSubstage,
    ];
    let nanos = match rng.random_range(0..3u8) {
        0 => 0,
        1 => u128::from(rng.random_range(0..=u64::MAX)),
        // Past `u64`, still far from overflowing the stage totals.
        _ => u128::from(u64::MAX) + u128::from(rng.random_range(1..1000u64)),
    };
    let mut node = SpanNode::new(kinds[rng.random_range(0..kinds.len())], label(rng), nanos);
    if depth < 3 {
        for _ in 0..rng.random_range(0..3usize) {
            node = node.with_child(span(rng, depth + 1));
        }
    }
    node
}

fn random_manifest(rng: &mut StdRng) -> Manifest {
    let mut metrics = Recorder::always_on();
    for _ in 0..rng.random_range(0..20usize) {
        let counter = Counter::ALL[rng.random_range(0..Counter::ALL.len())];
        metrics.bump(counter, rng.random_range(0..=u64::MAX / 4));
    }
    for _ in 0..rng.random_range(0..20usize) {
        let hist = Hist::ALL[rng.random_range(0..Hist::ALL.len())];
        // Extreme values push a histogram's `u128` sum past `u64`.
        let value = match rng.random_range(0..3u8) {
            0 => u64::MAX,
            1 => 0,
            _ => rng.random_range(0..100_000u64),
        };
        metrics.observe(hist, value);
    }
    let pairs = |rng: &mut StdRng| -> Vec<(String, u64)> {
        (0..rng.random_range(0..3usize))
            .map(|_| (label(rng), rng.random_range(0..=u64::MAX)))
            .collect()
    };
    Manifest {
        tool: label(rng),
        config: (0..rng.random_range(0..4usize))
            .map(|_| (label(rng), label(rng)))
            .collect(),
        seeds: (0..rng.random_range(0..4usize))
            .map(|_| rng.random_range(0..=u64::MAX))
            .collect(),
        metrics,
        robustness: rng.random_bool(0.6).then(|| RobustnessRollup {
            pages: rng.random_range(0..=u64::MAX),
            ok: rng.random_range(0..100u64),
            degraded: rng.random_range(0..100u64),
            failed: rng.random_range(0..100u64),
            warnings: pairs(rng),
            failures_by_stage: pairs(rng),
        }),
        root: span(rng, 0),
        volatile: Volatile {
            git_describe: label(rng),
            threads: number(rng),
        },
    }
}

#[test]
fn manifest_writers_match_their_oracles_on_random_manifests() {
    let mut rng = StdRng::seed_from_u64(0x3a4f);
    for _ in 0..500 {
        assert_manifest_writers_agree(&random_manifest(&mut rng));
    }
}

/// Two pages of one length that differ in one word always fingerprint
/// apart: every byte of a paper list page, and every value of every
/// byte of a paper detail page.
#[test]
fn single_byte_edits_change_paper_page_fingerprints() {
    let (site, _) = corpus_requests().swap_remove(0);
    let list = site.pages[0].list_html.as_bytes().to_vec();
    let base = fingerprint(&list);
    let mut edited = list.clone();
    for i in 0..edited.len() {
        for flip in [0x01, 0x80] {
            edited[i] ^= flip;
            assert_ne!(fingerprint(&edited), base, "list byte {i} ^ {flip:#x}");
            edited[i] ^= flip;
        }
    }

    let detail = site.pages[0].detail_html[0].as_bytes().to_vec();
    let base = fingerprint(&detail);
    let mut edited = detail.clone();
    for i in 0..edited.len() {
        for value in 0..=u8::MAX {
            if value == detail[i] {
                continue;
            }
            edited[i] = value;
            assert_ne!(fingerprint(&edited), base, "detail byte {i} = {value:#x}");
        }
        edited[i] = detail[i];
    }
}
