//! The serve workload, `serve_churn`: the in-process `tablesegd` daemon
//! (2 workers, 1 batch thread) over the paper corpus, under an open loop
//! with a fixed, seeded plan from [`sched::SENDERS`] sender threads.
//!
//! Requests are sent without retries through [`client::http_request`]
//! with bodies encoded in set-up, and each latency is timed from the
//! request's due time. Every reply must equal the reference the set-up
//! computed through the library for that site and revision: a cold
//! request equals `SiteTemplate::try_build` of revision A, an update
//! equals `build(A).try_refresh(B)` (or `build(B)` when the refresh
//! declines). The reply's cache label must name the expected path.

use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tableseg::template::induction_count;
use tableseg::{try_prepare_with_template, CspSegmenter, ProbSegmenter, Segmenter, SiteTemplate};
use tableseg_bench::scalebench::peak_rss_bytes;
use tableseg_eval::classify::{classify, truth_of_extracts, PageCounts};
use tableseg_serve::client::http_request;
use tableseg_serve::proto::{encode_request, parse_response};
use tableseg_serve::{SegmentRequest, SegmentResponse, Server, ServerConfig, TargetSpec};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::{generate, GeneratedSite};

use crate::batch::max_overlap;
use crate::layers::{serve_probes, Reported};
use crate::report::{Metrics, Outcome};
use crate::sched::{self, Class, Plan, Slot};
use crate::stats::{beyond, cell_mean, f_measure, median, percentile, slowest_median, sorted};
use crate::trace::{SpanBuf, Trace};
use crate::{timed, write_trace, Args};

/// Offered load between warm slots, requests per second: a constant,
/// never derived at run time. It keeps the daemon's workers well below
/// half busy, because at higher rates queueing behind the slowest cold
/// request made the tails unsteady (see `perfbench/README.md`).
pub const RATE: f64 = 200.0;

/// Extra gap after a cold or update slot on its sender, seconds. A sender
/// waits for each reply, so without it every request due during a slow
/// one waits for it too: latency of the load generator's two connections,
/// not of the daemon, and it grows with the square of the slow request's
/// time. It is longer than the median time of the slowest kind of
/// request, a cold or update request to Canada 411.
const HOLD: f64 = 0.06;

/// Rounds per run. Each round sets up afresh (new references, a new
/// daemon, a primed cache) and then runs `1 / ROUNDS` of the open loop.
/// One set-up takes about 0.3 s and varies by up to 1.6x within a run, so
/// `setup_s`, their median, needs this many samples to be steady.
const ROUNDS: usize = 15;

/// Daemon HTTP workers.
const WORKERS: usize = 2;

/// Batch-engine threads per request inside the daemon.
const BATCH_THREADS: usize = 1;

/// Lead time between the end of set-up and the first due request.
const LEAD: Duration = Duration::from_millis(50);

/// One target's expected reply.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    offsets: Vec<usize>,
    prob: Vec<Vec<usize>>,
    csp: Vec<Vec<usize>>,
}

/// One revision of a site: its encoded request body and expected reply.
struct Revision {
    body: Vec<u8>,
    request: SegmentRequest,
    expected: Vec<Expected>,
}

/// A site of the corpus with both revisions.
struct SiteData {
    name: String,
    site: GeneratedSite,
    a: Revision,
    b: Revision,
    /// The cache label an update must carry: `refresh` or `rebuild`.
    update_label: &'static str,
}

impl SiteData {
    fn revision(&self, rev_b: bool) -> &Revision {
        if rev_b {
            &self.b
        } else {
            &self.a
        }
    }

    fn label(&self, class: Class) -> &'static str {
        match class {
            Class::Cold => "cold",
            Class::Warm => "warm",
            Class::Update => self.update_label,
        }
    }
}

/// Shifts every ASCII letter one place (`z` wraps to `a`): a same-length
/// edit that keeps the text a plain word.
fn shift(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            'z' => 'a',
            'Z' => 'A',
            c if c.is_ascii_alphabetic() => (c as u8 + 1) as char,
            c => c,
        })
        .collect()
}

/// Revision B of a site: one same-length edit of a record value, on the
/// first list page whose record shows the value on both the list page
/// and its detail page. Returns the list pages and every page's details.
fn revise(site: &GeneratedSite) -> Option<(Vec<String>, Vec<Vec<String>>)> {
    for (p, page) in site.pages.iter().enumerate() {
        for (r, rec) in page.truth.records.iter().enumerate() {
            let row = &page.list_html[rec.start..rec.end];
            let detail = page.detail_html.get(r)?;
            let value = rec.values.iter().find(|v| {
                v.chars().filter(char::is_ascii_alphabetic).count() >= 4
                    && row.contains(v.as_str())
                    && detail.contains(v.as_str())
            });
            let Some(value) = value else { continue };
            let edited = shift(value);
            let mut lists: Vec<String> = site.pages.iter().map(|p| p.list_html.clone()).collect();
            lists[p] = format!(
                "{}{}{}",
                &page.list_html[..rec.start],
                row.replace(value.as_str(), &edited),
                &page.list_html[rec.end..]
            );
            let mut details: Vec<Vec<String>> =
                site.pages.iter().map(|p| p.detail_html.clone()).collect();
            details[p][r] = detail.replace(value.as_str(), &edited);
            return Some((lists, details));
        }
    }
    None
}

/// The site as one request covering all of its list pages.
pub fn site_request(site: &GeneratedSite) -> SegmentRequest {
    let lists: Vec<String> = site.pages.iter().map(|p| p.list_html.clone()).collect();
    let details: Vec<Vec<String>> = site.pages.iter().map(|p| p.detail_html.clone()).collect();
    request(&site.spec.name, &lists, &details)
}

fn request(name: &str, lists: &[String], details: &[Vec<String>]) -> SegmentRequest {
    SegmentRequest {
        site: name.to_string(),
        list_pages: lists.to_vec(),
        targets: details
            .iter()
            .enumerate()
            .map(|(target, d)| TargetSpec {
                target,
                details: d.clone(),
            })
            .collect(),
    }
}

/// Runs the library on every target of `req` against `template`, the way
/// the daemon does, recording spans and reported stage times.
fn expected(
    req: &SegmentRequest,
    template: &SiteTemplate,
    site: &GeneratedSite,
    buf: &mut SpanBuf,
    reported: &mut Reported,
) -> Result<Vec<Expected>, String> {
    let prob = ProbSegmenter::default();
    let csp = CspSegmenter::default();
    req.targets
        .iter()
        .map(|t| {
            let details: Vec<&str> = t.details.iter().map(String::as_str).collect();
            let page = buf
                .time("core.prepare", None, || {
                    try_prepare_with_template(template, t.target, &details)
                })
                .map_err(|e| format!("{} page {}: {e}", req.site, t.target))?;
            reported.page(&page);
            let p = buf
                .time("prob.segment", None, || {
                    prob.try_segment(&page.observations)
                })
                .map_err(|e| e.to_string())?;
            reported.solve(&p, true);
            let c = buf
                .time("csp.segment", None, || csp.try_segment(&page.observations))
                .map_err(|e| e.to_string())?;
            reported.solve(&c, false);
            let want = Expected {
                offsets: page.extract_offsets.clone(),
                prob: p.segmentation.records(),
                csp: c.segmentation.records(),
            };
            buf.time("eval.classify", None, || counts(site, t.target, &want));
            Ok(want)
        })
        .collect()
}

/// Classifies one target's reply against the generated truth. Revision
/// B's edit keeps every byte offset, so both revisions share the truth.
fn counts(site: &GeneratedSite, target: usize, got: &Expected) -> (PageCounts, PageCounts) {
    let page = &site.pages[target];
    let spans: Vec<Range<usize>> = page.truth.records.iter().map(|r| r.start..r.end).collect();
    let truth = truth_of_extracts(&got.offsets, &spans);
    (
        classify(&got.prob, &truth, page.truth.len()),
        classify(&got.csp, &truth, page.truth.len()),
    )
}

/// The inputs and references of the whole corpus, with the time spent
/// generating the sites.
struct Corpus {
    sites: Vec<SiteData>,
    generate_s: f64,
    trace: Trace,
    reported: Reported,
}

fn corpus(origin: Instant, traced: bool) -> Result<Corpus, String> {
    let t = Instant::now();
    let generated: Vec<GeneratedSite> = paper_sites::all().iter().map(generate).collect();
    let generate_s = t.elapsed().as_secs_f64();
    let mut trace = Trace::default();
    let mut reported = Reported::default();
    let mut sites = Vec::with_capacity(generated.len());
    for (id, site) in generated.into_iter().enumerate() {
        let name = site.spec.name.clone();
        let (lists_b, details_b) =
            revise(&site).ok_or_else(|| format!("{name}: no record value to edit"))?;
        let req_a = site_request(&site);
        let lists_a = &req_a.list_pages;
        let req_b = request(&name, &lists_b, &details_b);
        let mut buf = SpanBuf::new(origin, traced, id as u64);
        let refs_a: Vec<&str> = lists_a.iter().map(String::as_str).collect();
        let tpl_a = buf
            .time("core.site_build", None, || SiteTemplate::try_build(&refs_a))
            .map_err(|e| format!("{name}: {e}"))?;
        reported.template(&tpl_a);
        let expected_a = expected(&req_a, &tpl_a, &site, &mut buf, &mut reported)?;
        let refs_b: Vec<&str> = lists_b.iter().map(String::as_str).collect();
        let changed: Vec<bool> = lists_a.iter().zip(&lists_b).map(|(a, b)| a != b).collect();
        let (tpl_b, update_label) = match buf.time("core.refresh", None, || {
            tpl_a.try_refresh(&refs_b, &changed)
        }) {
            Some(t) => (t, "refresh"),
            None => (
                buf.time("core.site_build", None, || SiteTemplate::try_build(&refs_b))
                    .map_err(|e| format!("{name}: {e}"))?,
                "rebuild",
            ),
        };
        reported.template(&tpl_b);
        let expected_b = expected(&req_b, &tpl_b, &site, &mut buf, &mut reported)?;
        trace.absorb(buf, None);
        sites.push(SiteData {
            name,
            site,
            a: Revision {
                body: encode_request(&req_a).into_bytes(),
                request: req_a,
                expected: expected_a,
            },
            b: Revision {
                body: encode_request(&req_b).into_bytes(),
                request: req_b,
                expected: expected_b,
            },
            update_label,
        });
    }
    Ok(Corpus {
        sites,
        generate_s,
        trace,
        reported,
    })
}

/// Converts a reply to the comparable per-target form.
fn replies(resp: &SegmentResponse) -> Vec<Expected> {
    resp.page_results
        .iter()
        .map(|r| Expected {
            offsets: r.offsets.clone(),
            prob: r
                .prob
                .as_ref()
                .map(|m| m.groups.clone())
                .unwrap_or_default(),
            csp: r.csp.as_ref().map(|m| m.groups.clone()).unwrap_or_default(),
        })
        .collect()
}

/// Sends one segment request; `Ok(body)` on 200.
fn send(addr: SocketAddr, body: &[u8]) -> Result<Vec<u8>, String> {
    let resp =
        http_request(addr, "POST", "/segment", &[], body).map_err(|e| format!("transport: {e}"))?;
    if resp.status == 200 {
        Ok(resp.body)
    } else {
        Err(format!("http {}", resp.status))
    }
}

fn invalidate(addr: SocketAddr, site: &str) -> Result<(), String> {
    let resp = http_request(addr, "POST", "/invalidate", &[], site.as_bytes())
        .map_err(|e| format!("transport: {e}"))?;
    if resp.status == 200 {
        Ok(())
    } else {
        Err(format!("invalidate: http {}", resp.status))
    }
}

/// Checks one reply body against the site's reference for `class`.
fn check(
    body: &[u8],
    site: &SiteData,
    class: Class,
    rev_b: bool,
) -> Result<SegmentResponse, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply not utf-8".to_string())?;
    let resp = parse_response(text)?;
    let want = site.label(class);
    if resp.cache != want {
        return Err(format!(
            "{}: cache {} where {want} was due",
            site.name, resp.cache
        ));
    }
    if replies(&resp) != site.revision(rev_b).expected {
        return Err(format!("{}: reply differs from the reference", site.name));
    }
    Ok(resp)
}

/// One sent request. Times are nanoseconds after the run's origin.
struct Sent {
    slot: usize,
    /// Due time, send start and completion.
    due: u64,
    send: u64,
    done: u64,
    /// The id of the reply body, or why the request failed.
    reply: Result<usize, String>,
    spans: SpanBuf,
}

/// A distinct reply body, handed to the checker thread.
struct Reply {
    id: usize,
    slot: Slot,
    body: Vec<u8>,
}

/// One sender's loop over its slots, which are due after `start`. A reply
/// equal to the site's previous reply shares its id; every new body goes
/// to the checker, so memory stays flat however long the run.
#[allow(clippy::too_many_arguments)]
fn sender(
    addr: SocketAddr,
    plan: &Plan,
    me: usize,
    sites: &[SiteData],
    (origin, start): (Instant, Instant),
    traced: bool,
    ids: &AtomicUsize,
    checker: mpsc::Sender<Reply>,
) -> Vec<Sent> {
    let mut sent = Vec::new();
    let mut last: Vec<Option<(usize, Vec<u8>)>> = vec![None; sites.len()];
    let offset = start.duration_since(origin);
    let mine = plan
        .slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.sender == me);
    for (n, (k, slot)) in mine.enumerate() {
        let due = Duration::from_secs_f64(slot.due);
        // `start` lies in the future when the loop begins, so the wait is
        // measured against the absolute due instant.
        let at = start + due;
        let now = Instant::now();
        if at > now + Duration::from_micros(200) {
            std::thread::sleep(at - now - Duration::from_micros(200));
        }
        while Instant::now() < at {
            std::hint::spin_loop();
        }
        // Every other request of a traced run is traced, so the tracing
        // overhead is measured within the run.
        let mut buf = SpanBuf::new(origin, traced && n % 2 == 0, k as u64);
        let due_ns = (offset + due).as_nanos() as u64;
        let send_at = buf.now();
        let unit = buf.open_at("request", None, due_ns);
        let wait = buf.open_at("gen.wait", Some(unit), due_ns);
        buf.close(wait);
        let site = &sites[slot.site];
        let reply = (|| {
            if slot.class == Class::Cold {
                buf.time("serve.invalidate", Some(unit), || {
                    invalidate(addr, &site.name)
                })?;
            }
            buf.time("serve.segment", Some(unit), || {
                send(addr, &site.revision(slot.rev_b).body)
            })
        })();
        buf.close(unit);
        let done = buf.now();
        let reply = reply.map(|body| match &last[slot.site] {
            Some((id, prev)) if *prev == body => *id,
            _ => {
                let id = ids.fetch_add(1, Ordering::Relaxed);
                let _ = checker.send(Reply {
                    id,
                    slot: *slot,
                    body: body.clone(),
                });
                last[slot.site] = Some((id, body));
                id
            }
        });
        sent.push(Sent {
            slot: k,
            due: due_ns,
            send: send_at,
            done,
            reply,
            spans: buf,
        });
    }
    sent
}

/// Checks every distinct reply as it arrives: its verdict by id, and the
/// first few parsed replies as samples for the codec probe.
fn check_replies(
    rx: mpsc::Receiver<Reply>,
    sites: &[SiteData],
) -> (Vec<Option<Verdict>>, Vec<SegmentResponse>) {
    let mut verdicts: Vec<Option<Verdict>> = Vec::new();
    let mut samples = Vec::new();
    for r in rx {
        let site = &sites[r.slot.site];
        let verdict = check(&r.body, site, r.slot.class, r.slot.rev_b).map(|resp| {
            let (mut p, mut c) = (PageCounts::default(), PageCounts::default());
            for (t, got) in replies(&resp).iter().enumerate() {
                let (pp, cc) = counts(&site.site, t, got);
                p = p.add(&pp);
                c = c.add(&cc);
            }
            let label = resp.cache.clone();
            if samples.len() < 2 * sites.len() {
                samples.push(resp);
            }
            (p, c, label)
        });
        if verdicts.len() <= r.id {
            verdicts.resize(r.id + 1, None);
        }
        verdicts[r.id] = Some(verdict);
    }
    (verdicts, samples)
}

/// Everything a set-up produces.
struct Setup {
    corpus: Corpus,
    server: Server,
    plan: Plan,
}

/// Sets up one round: generates the corpus and its references, starts the
/// daemon and primes its cache for the round's share `plan` of the load.
fn setup(args: &Args, plan: Plan, origin: Instant) -> Result<Setup, String> {
    let corpus = corpus(origin, args.trace)?;
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        batch_threads: BATCH_THREADS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon: {e}"))?;
    let addr = server.addr();
    // Prime the cache to the state each site's first request expects.
    for (s, site) in corpus.sites.iter().enumerate() {
        let prime = |class: Class, rev_b: bool| {
            send(addr, &site.revision(rev_b).body).and_then(|b| check(&b, site, class, rev_b))
        };
        let primed = prime(Class::Cold, false).and_then(|_| {
            if plan.primed_with_b[s] {
                prime(Class::Update, true).map(|_| ())
            } else {
                Ok(())
            }
        });
        if let Err(e) = primed {
            server.shutdown();
            return Err(format!("priming: {e}"));
        }
    }
    Ok(Setup {
        corpus,
        server,
        plan,
    })
}

/// Reads one counter from a `/metrics` dump.
fn scrape(dump: &str, name: &str) -> f64 {
    dump.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn metrics_dump(addr: SocketAddr) -> Result<String, String> {
    http_request(addr, "GET", "/metrics", &[], b"")
        .map(|r| r.text())
        .map_err(|e| format!("metrics: {e}"))
}

/// A checked reply: its F counts and cache label, or why it is wrong.
type Verdict = Result<(PageCounts, PageCounts, String), String>;

/// Daemon counters read from `/metrics` around each round's open loop:
/// handler time, cache hits, misses and refreshes, and 429 refusals.
const SCRAPED: [&str; 5] = [
    "tableseg_serve_request_micros_sum",
    "tableseg_serve_cache_hits_total",
    "tableseg_serve_cache_misses_total",
    "tableseg_serve_cache_refreshes_total",
    "tableseg_serve_rejected_total",
];

/// One finished request: its slot, times (ns after the origin), whether
/// it was traced, and the verdict on its reply.
struct Done {
    slot: Slot,
    due: u64,
    send: u64,
    done: u64,
    traced: bool,
    verdict: Verdict,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) as f64 / 1e6
    }
}

/// What one round's open loop measured.
struct Round {
    done: Vec<Done>,
    /// Template inductions during the open loop.
    inductions: usize,
    /// [`SCRAPED`] deltas over the open loop.
    scraped: [f64; SCRAPED.len()],
    /// From the start of the loop to the last reply, seconds.
    wall_s: f64,
    trace: Trace,
    samples: Vec<SegmentResponse>,
}

/// Runs one round's open loop against the set-up daemon.
fn run_round(args: &Args, s: &Setup, origin: Instant) -> Result<Round, String> {
    let addr = s.server.addr();
    let sites = &s.corpus.sites;
    let before = metrics_dump(addr)?;
    let inductions = induction_count();
    let start = Instant::now() + LEAD;
    let ids = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let (per_sender, (verdicts, samples)) = std::thread::scope(|scope| {
        let checker = scope.spawn(|| check_replies(rx, sites));
        let handles: Vec<_> = (0..sched::SENDERS)
            .map(|me| {
                let (plan, ids, tx) = (&s.plan, &ids, tx.clone());
                scope.spawn(move || {
                    sender(addr, plan, me, sites, (origin, start), args.trace, ids, tx)
                })
            })
            .collect();
        drop(tx);
        let sent: Vec<Vec<Sent>> = handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect();
        (sent, checker.join().expect("checker thread panicked"))
    });
    let inductions = induction_count() - inductions;
    let after = metrics_dump(addr)?;

    let start_ns = start.duration_since(origin).as_nanos() as u64;
    let mut trace = Trace::default();
    let mut done = Vec::new();
    for sent in per_sender.into_iter().flatten() {
        let verdict = match sent.reply {
            Ok(id) => verdicts[id].clone().expect("every reply id is checked"),
            Err(e) => Err(e),
        };
        let traced = sent.spans.is_on();
        trace.absorb(sent.spans, None);
        done.push(Done {
            slot: s.plan.slots[sent.slot],
            due: sent.due,
            send: sent.send,
            done: sent.done,
            traced,
            verdict,
        });
    }
    let last = done.iter().map(|d| d.done).max().unwrap_or(start_ns);
    Ok(Round {
        done,
        inductions,
        scraped: SCRAPED.map(|name| scrape(&after, name) - scrape(&before, name)),
        wall_s: last.saturating_sub(start_ns) as f64 / 1e9,
        trace,
        samples,
    })
}

/// The serve_churn workload: [`ROUNDS`] rounds, each a fresh set-up
/// followed by its share of the run's open loop. Set-up times are thereby
/// sampled across the whole run, as the request latencies are. The rounds
/// cut one plan for the whole run, so its class mix is that of one long
/// run, whatever the seed.
pub fn churn(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    let plan = sched::plan(
        args.seed,
        paper_sites::all().len(),
        RATE,
        HOLD,
        args.seconds,
    );
    let share = args.seconds / ROUNDS as f64;
    let mut setup_times = Vec::with_capacity(ROUNDS);
    let mut generate_times = Vec::with_capacity(ROUNDS);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut corpus = None;
    for round in 0..ROUNDS {
        let window = plan.window(round as f64 * share, (round + 1) as f64 * share);
        let s = timed(&mut setup_times, || setup(args, window, origin))?;
        generate_times.push(s.corpus.generate_s);
        let r = run_round(args, &s, origin);
        s.server.shutdown();
        rounds.push(r?);
        // The pipeline layers of a traced run come from the last set-up's
        // reference pass.
        corpus = Some(s.corpus);
    }
    let corpus = corpus.expect("at least one round");

    // Tally every request by the verdict on its reply.
    let mut failed = 0u64;
    let mut rebuilds = 0u64;
    let mut colds = 0u64;
    let mut inductions = 0usize;
    let mut scraped = [0.0; SCRAPED.len()];
    let mut wall_s = 0.0;
    let mut prob_total = PageCounts::default();
    let mut csp_total = PageCounts::default();
    let mut requests: Vec<Done> = Vec::new();
    let mut request_trace = Trace::default();
    let mut samples = Vec::new();
    for r in rounds {
        inductions += r.inductions;
        for (sum, d) in scraped.iter_mut().zip(r.scraped) {
            *sum += d;
        }
        wall_s += r.wall_s;
        request_trace.append(r.trace);
        // The codec probe parses one round's worth of replies.
        if samples.is_empty() {
            samples = r.samples;
        }
        for d in r.done {
            match &d.verdict {
                Ok((p, c, label)) => {
                    prob_total = prob_total.add(p);
                    csp_total = csp_total.add(c);
                    rebuilds += u64::from(label == "rebuild");
                    colds += u64::from(label == "cold");
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: request due at {} ns: {e}", d.due);
                }
            }
            requests.push(d);
        }
    }
    let attempted = requests.len() as u64;
    let mut correct = failed == 0;
    if inductions as u64 != colds + rebuilds {
        eprintln!(
            "perfbench: {inductions} inductions for {colds} cold and {rebuilds} rebuilt replies"
        );
        correct = false;
    }

    let class_lat = |c: Class| {
        sorted(
            requests
                .iter()
                .filter(|d| d.slot.class == c)
                .map(Done::latency_ms)
                .collect(),
        )
    };
    let all = sorted(requests.iter().map(Done::latency_ms).collect());
    // One cell per site and class: a cold request to Canada 411 and a warm
    // one to the smallest site are different kinds of request.
    let mut cells = vec![Vec::new(); 3 * corpus.sites.len()];
    for d in &requests {
        let class = match d.slot.class {
            Class::Cold => 0,
            Class::Warm => 1,
            Class::Update => 2,
        };
        cells[3 * d.slot.site + class].push(d.latency_ms());
    }
    let (warm, update, cold) = (
        class_lat(Class::Warm),
        class_lat(Class::Update),
        class_lat(Class::Cold),
    );
    let ok = attempted - failed;
    // Handler time summed over every request of the open loops, seconds.
    let busy_s = scraped[0] / 1e6;

    let mut m = Metrics::default();
    m.e2e("setup_s", median(&setup_times), "s");
    m.e2e("sites_per_s", ok as f64 / busy_s, "1/s");
    m.e2e("site_p50_ms", percentile(&all, 50.0), "ms");
    m.e2e("site_mean_ms", cell_mean(&cells), "ms");
    m.e2e("site_tail_ms", slowest_median(&cells), "ms");
    m.e2e("csp_f", f_measure(&csp_total), "F");
    m.e2e("prob_f", f_measure(&prob_total), "F");
    m.e2e(
        "peak_rss_mb",
        peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64,
        "MB",
    );
    m.info("site_p99_ms", percentile(&all, 99.0), "ms");
    m.info("cold_p50_ms", percentile(&cold, 50.0), "ms");
    m.info("cold_p90_ms", percentile(&cold, 90.0), "ms");
    m.info("warm_p50_ms", percentile(&warm, 50.0), "ms");
    m.info("warm_p99_ms", percentile(&warm, 99.0), "ms");
    m.info("update_p50_ms", percentile(&update, 50.0), "ms");
    m.info("update_p90_ms", percentile(&update, 90.0), "ms");
    m.info(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.info("offered_rate", attempted as f64 / args.seconds, "1/s");
    m.info("served_rate", ok as f64 / wall_s.max(1e-9), "1/s");
    m.info("warm_requests", warm.len() as f64, "count");
    m.info("update_requests", update.len() as f64, "count");
    m.info("cold_requests", cold.len() as f64, "count");
    for (name, n, p) in [
        ("warm_p99_ms", warm.len(), 99.0),
        ("update_p90_ms", update.len(), 90.0),
        ("cold_p90_ms", cold.len(), 90.0),
    ] {
        if beyond(n, p) < crate::stats::MIN_BEYOND {
            eprintln!(
                "perfbench: {name} rests on {} samples beyond it",
                beyond(n, p)
            );
        }
    }

    if args.trace {
        let ms = |ns: u64| ns as f64 / 1e6;
        let late = sorted(
            requests
                .iter()
                .map(|d| ms(d.send.saturating_sub(d.due)))
                .collect(),
        );
        let inflight = max_overlap(requests.iter().map(|d| (d.send, d.done)).collect());
        let traced_warm = |on: bool| {
            let v: Vec<f64> = requests
                .iter()
                .filter(|d| d.slot.class == Class::Warm && d.traced == on)
                .map(Done::latency_ms)
                .collect();
            median(&v)
        };
        let overhead = traced_warm(true) / traced_warm(false) - 1.0;
        let unattributed = request_trace.unattributed_frac();
        let mut trace = corpus.trace;
        trace.append(request_trace);
        let span_ms = |name: &str| {
            trace
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| ms(s.end - s.start))
                .sum::<f64>()
        };
        let sites = &corpus.sites;
        let bodies: Vec<SegmentRequest> = sites
            .iter()
            .flat_map(|s| [s.a.request.clone(), s.b.request.clone()])
            .collect();
        m.layer("core.site_build_ms", span_ms("core.site_build"), "ms");
        m.layer("core.prepare_ms", span_ms("core.prepare"), "ms");
        m.layer(
            "core.batch_busy_frac",
            busy_s / (WORKERS as f64 * wall_s.max(1e-9)),
            "ratio",
        );
        corpus.reported.emit(&mut m, 1.0);
        m.layer("csp.segment_ms", span_ms("csp.segment"), "ms");
        m.layer("prob.segment_ms", span_ms("prob.segment"), "ms");
        m.layer("eval.classify_ms", span_ms("eval.classify"), "ms");
        serve_probes(&mut m, &bodies, &samples);
        m.layer("serve.cache_hits", scraped[1], "count");
        m.layer("serve.cache_misses", scraped[2], "count");
        m.layer("serve.cache_refreshes", scraped[3], "count");
        m.layer("serve.rebuilds", rebuilds as f64, "count");
        m.layer("serve.rejected", scraped[4], "count");
        m.layer("serve.inductions", inductions as f64, "count");
        m.layer("sitegen.generate_ms", median(&generate_times) * 1e3, "ms");
        m.layer("gen.late_p99_ms", percentile(&late, 99.0), "ms");
        m.layer("gen.inflight_max", inflight as f64, "count");
        m.layer("trace.overhead_frac", overhead, "ratio");
        m.layer("trace.unattributed_frac", unattributed, "ratio");
        write_trace(args, &trace, &corpus.reported.dump())?;
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}
