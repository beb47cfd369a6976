//! The `tablesegd` daemon: admission, dispatch, caching, rendering.
//!
//! One acceptor thread admits connections into a bounded queue; a fixed
//! pool of workers drains the queue, each handling one request per
//! connection. Overflow is answered `429` + `Retry-After` by the acceptor
//! the moment the connection lands, without reading the request, and one
//! shedder thread drains and closes the rejected sockets, so backpressure
//! costs no worker time and a connection flood creates no threads.
//! Segmentation requests fan their targets out over
//! [`tableseg::batch::execute`].
//!
//! **Site-state lifecycle.** The list pages of a request are
//! fingerprinted and compared against the cached state:
//!
//! * all fingerprints equal → **warm**: the template and any per-target
//!   results are reused; no pipeline stage re-runs for cached targets
//!   and no induction runs ([`tableseg::template::induction_count`]
//!   stays flat).
//! * same page count, some bytes changed → **refresh**:
//!   [`SiteTemplate::try_refresh`] re-anchors the cached template onto
//!   the changed pages (no induction); if slot stability degraded it
//!   returns `None` and the state is **rebuilt** by full induction.
//! * anything else → **cold**: full build.
//!
//! **What a warm request costs.** No pipeline stage runs. The handler
//! checks that the body is UTF-8, parses it into page slices that borrow
//! the body, fingerprints every list and detail page a word at a time,
//! looks the site and each target up in the cache, renders the manifest,
//! and writes the reply around the targets' page sections, which each
//! block wrote once, in wire form, when it was computed. No page is
//! copied and no cached result is re-encoded. On a 2-CPU x86-64 host
//! that is 17–23 µs of handler time back to back and 37–47 µs paced 5 ms
//! apart, when caches start cold (24–45 and 56–73 µs with copied pages).
//!
//! Endpoints: `POST /segment`, `POST /invalidate`, `GET /metrics`
//! (Prometheus), `GET /healthz`.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tableseg::obs::{
    self, git_describe, Counter, Hist, Manifest, Recorder, SpanKind, SpanNode, Volatile,
};
use tableseg::robustness::RobustnessReport;
use tableseg::timing::StageTimes;
use tableseg::{
    batch, caught, run_page, CspSegmenter, PageOutcome, PageResult, ProbSegmenter, SiteTemplate,
};
use tableseg_html::SegError;

use crate::cache::{fingerprint, finish, mix_word, SiteCache};
use crate::http::{read_request, write_response, HttpRequest};
use crate::proto::{
    parse_request, push_manifest, push_page_head, push_page_section, push_response_head,
    PageResultMsg, SegmentRequestRef, SegmenterMsg, TargetSpecRef,
};

/// Daemon configuration. [`ServerConfig::default`] is sized for tests
/// and local runs; the `tablesegd` binary maps flags onto it.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 selects an ephemeral port; the bound
    /// address is reported by [`Server::addr`].
    pub addr: String,
    /// HTTP worker threads draining the admission queue.
    pub workers: usize,
    /// Batch-engine threads per segmentation request.
    pub batch_threads: usize,
    /// Total site-state cache capacity (entries).
    pub cache_capacity: usize,
    /// Cache shards.
    pub cache_shards: usize,
    /// Admission-queue depth. Connections beyond it get `429`.
    pub queue_depth: usize,
    /// Maximum request-body size in bytes.
    pub max_body: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            batch_threads: 2,
            cache_capacity: 64,
            cache_shards: 8,
            queue_depth: 64,
            max_body: 16 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Cached per-site state: the page fingerprints it was built from, the
/// learned template, and per-target result blocks.
struct SiteState {
    fingerprints: Vec<u64>,
    template: Arc<SiteTemplate>,
    /// Finished per-target results, keyed by `(target, details
    /// fingerprint)`. A warm request whose targets are all resident
    /// re-runs nothing.
    results: Mutex<HashMap<(usize, u64), Arc<PageBlock>>>,
}

/// The per-target result, its reply page section written once, when the
/// block is computed. It keeps only what replies need, never the page.
struct PageBlock {
    outcome: PageOutcome,
    /// Deterministic pipeline metrics recorded while computing this
    /// block (merged into manifests of requests that *computed* it).
    metrics: Recorder,
    /// Everything after the block's `page` line ([`push_page_section`]).
    section: String,
}

impl PageBlock {
    /// Writes `page`'s block for `target` once, as its reply section.
    fn new(target: usize, page: PageResult) -> PageBlock {
        let mut solved = page.solved.iter().map(|solved| {
            solved.as_ref().ok().map(|o| SegmenterMsg {
                relaxed: o.relaxed,
                groups: o.segmentation.records(),
            })
        });
        let o = &page.outcome;
        let msg = PageResultMsg {
            target,
            status: o.label().to_string(),
            cached: false,
            whole_page: page.used_whole_page(),
            warnings: o.warnings().iter().map(|w| w.label().to_string()).collect(),
            offsets: page.extract_offsets(),
            prob: solved.next().flatten(),
            csp: solved.next().flatten(),
            error: o.error().map(|e| (e.stage().to_string(), e.to_string())),
        };
        let mut section = String::new();
        push_page_section(&mut section, &msg);
        PageBlock {
            outcome: page.outcome,
            metrics: page.metrics,
            section,
        }
    }

    /// True when this block records a request-local deadline expiry
    /// rather than a property of the target itself.
    fn deadline_exceeded(&self) -> bool {
        self.outcome.error().is_some_and(|e| e.stage() == "serve")
    }
}

/// Most rejected sockets the shedder holds at once; past it the oldest
/// is closed undrained.
const SHED_CAPACITY: usize = 256;
/// Longest a rejected socket is drained before it is closed.
const SHED_LINGER: Duration = Duration::from_secs(1);
/// Pause between the shedder's passes over its sockets.
const SHED_POLL: Duration = Duration::from_millis(10);
/// Reads per socket and pass, so one fast sender cannot hold the shedder.
const SHED_READS: usize = 16;

struct Inner {
    config: ServerConfig,
    cache: SiteCache<Arc<SiteState>>,
    /// The `/metrics` sink: every request's counters plus the volatile
    /// latency histograms land here.
    global: Mutex<Recorder>,
    /// `git describe`, resolved once at startup (running it per request
    /// would fork a subprocess on the hot path).
    git: String,
    shutdown: AtomicBool,
    /// Admitted connections, oldest first.
    queue: Mutex<VecDeque<TcpStream>>,
    queue_ready: Condvar,
    /// Rejected sockets, answered and half-closed, each with the instant
    /// the shedder gives up draining it, oldest first.
    shed: Mutex<VecDeque<(TcpStream, Instant)>>,
    shed_ready: Condvar,
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`Server::shutdown`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon. Worker and acceptor threads are
    /// running when this returns.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        // Pipeline recorders snapshot the global obs flag at creation:
        // turn it on so served requests carry real metrics.
        obs::set_enabled(true);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            cache: SiteCache::new(config.cache_capacity, config.cache_shards),
            global: Mutex::new(Recorder::always_on()),
            git: git_describe(),
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            shed: Mutex::new(VecDeque::new()),
            shed_ready: Condvar::new(),
            config,
        });
        let mut threads = Vec::new();
        for _ in 0..inner.config.workers.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || shedder_loop(&inner)));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || acceptor_loop(&inner, listener)));
        }
        Ok(Server {
            inner,
            addr,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers and joins all threads.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of accept() with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        self.inner.queue_ready.notify_all();
        // Notified under its lock, so the shedder cannot miss the wake-up
        // between checking the flag and waiting.
        {
            let _shed = self.inner.shed.lock().unwrap();
            self.inner.shed_ready.notify_all();
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn acceptor_loop(inner: &Inner, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            inner.queue_ready.notify_all();
            return;
        }
        let mut queue = inner.queue.lock().unwrap();
        if queue.len() >= inner.config.queue_depth {
            drop(queue);
            inner.global.lock().unwrap().incr(Counter::ServeRejected);
            reject(inner, stream);
            continue;
        }
        queue.push_back(stream);
        inner.queue_ready.notify_one();
    }
}

/// Answers an over-capacity connection on the acceptor: a rejection
/// needs nothing from the request, so the 429 goes out at once and the
/// write side closes. The socket then waits on the shedder, because
/// closing it with request bytes unread would send a reset that can
/// clobber the 429 before the client reads it.
fn reject(inner: &Inner, mut stream: TcpStream) {
    // A fresh socket's send buffer takes the whole response; nonblocking
    // keeps a misbehaving peer from ever stalling the acceptor.
    let _ = stream.set_nonblocking(true);
    let _ = write_response(
        &mut stream,
        429,
        "Too Many Requests",
        &[("retry-after", "1")],
        b"queue full\n",
    );
    let _ = stream.shutdown(Shutdown::Write);
    let mut shed = inner.shed.lock().unwrap();
    if shed.len() >= SHED_CAPACITY {
        shed.pop_front();
    }
    shed.push_back((stream, Instant::now() + SHED_LINGER));
    inner.shed_ready.notify_one();
}

/// The one shedder thread: reads and discards what rejected clients
/// still send, and closes each socket at its end of stream or after
/// [`SHED_LINGER`].
fn shedder_loop(inner: &Inner) {
    let mut scratch = [0u8; 4096];
    let mut shed = inner.shed.lock().unwrap();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shed.is_empty() {
            shed = inner.shed_ready.wait(shed).unwrap();
            continue;
        }
        let now = Instant::now();
        shed.retain_mut(|(stream, deadline)| now < *deadline && still_open(stream, &mut scratch));
        shed = inner.shed_ready.wait_timeout(shed, SHED_POLL).unwrap().0;
    }
}

/// Drains a nonblocking socket; `false` once the client has finished
/// (end of stream or an error).
fn still_open(stream: &mut TcpStream, scratch: &mut [u8]) -> bool {
    for _ in 0..SHED_READS {
        match stream.read(scratch) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

fn worker_loop(inner: &Inner) {
    loop {
        let stream = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.queue_ready.wait(queue).unwrap();
            }
        };
        handle_connection(inner, stream);
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
    let request = match read_request(&mut stream, inner.config.max_body) {
        Ok(request) => request,
        Err(e) => {
            let (code, reason) = e.status();
            let _ = write_response(
                &mut stream,
                code,
                reason,
                &[],
                format!("{}\n", e.detail()).as_bytes(),
            );
            return;
        }
    };
    let started = Instant::now();
    // The whole handler is panic-contained: one poisoned request costs
    // one 500, not the daemon.
    let reply = caught("serve", || dispatch(inner, &request));
    let (code, reason, body) = match reply {
        Ok(reply) => reply,
        Err(e) => (500, "Internal Server Error", format!("{e}\n")),
    };
    let micros = started.elapsed().as_micros() as u64;
    inner
        .global
        .lock()
        .unwrap()
        .observe(Hist::ServeRequestMicros, micros);
    let _ = write_response(&mut stream, code, reason, &[], body.as_bytes());
}

fn dispatch(inner: &Inner, request: &HttpRequest) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "OK", "ok\n".to_string()),
        ("GET", "/metrics") => {
            let metrics = inner.global.lock().unwrap().clone();
            let manifest = Manifest {
                tool: "tablesegd".to_string(),
                config: Vec::new(),
                seeds: Vec::new(),
                metrics,
                robustness: None,
                root: SpanNode::new(SpanKind::Run, "tablesegd", 0),
                volatile: Volatile {
                    git_describe: inner.git.clone(),
                    threads: inner.config.batch_threads,
                },
            };
            (200, "OK", manifest.render_prometheus(false))
        }
        ("POST", "/invalidate") => {
            let site = String::from_utf8_lossy(&request.body).trim().to_string();
            if site.is_empty() {
                return (400, "Bad Request", "missing site name\n".to_string());
            }
            let mut global = inner.global.lock().unwrap();
            match inner.cache.invalidate(&site) {
                Some(generation) => {
                    global.incr(Counter::ServeInvalidations);
                    (
                        200,
                        "OK",
                        format!("invalidated {site} generation {generation}\n"),
                    )
                }
                None => (200, "OK", format!("unknown {site}\n")),
            }
        }
        ("POST", "/segment") => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(body) => body,
                Err(_) => return (400, "Bad Request", "body not utf-8\n".to_string()),
            };
            let job = match parse_request(body) {
                Ok(job) => job,
                Err(e) => return (400, "Bad Request", format!("{e}\n")),
            };
            let deadline = request
                .header("x-deadline-ms")
                .and_then(|v| v.parse::<u64>().ok())
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let redact = request.header("x-tableseg-redact") == Some("1");
            match segment(inner, &job, deadline, redact) {
                Ok(reply) => (200, "OK", reply),
                Err(e) => (422, "Unprocessable Entity", format!("{e}\n")),
            }
        }
        (_, "/healthz" | "/metrics" | "/invalidate" | "/segment") => (
            405,
            "Method Not Allowed",
            "method not allowed\n".to_string(),
        ),
        _ => (404, "Not Found", "no such endpoint\n".to_string()),
    }
}

/// How the per-site state was obtained for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheKind {
    Cold,
    Warm,
    Refresh,
    Rebuild,
}

impl CacheKind {
    fn label(self) -> &'static str {
        match self {
            CacheKind::Cold => "cold",
            CacheKind::Warm => "warm",
            CacheKind::Refresh => "refresh",
            CacheKind::Rebuild => "rebuild",
        }
    }
}

fn segment(
    inner: &Inner,
    job: &SegmentRequestRef<'_>,
    deadline: Option<Instant>,
    redact: bool,
) -> Result<String, SegError> {
    let mut request_rec = Recorder::always_on();
    request_rec.incr(Counter::ServeRequests);
    request_rec.observe(Hist::ServePagesPerRequest, job.targets.len() as u64);

    let lists = &job.list_pages;
    let fps: Vec<u64> = lists.iter().map(|p| fingerprint(p.as_bytes())).collect();

    // Resolve site state: warm hit, incremental refresh, or (re)build.
    let (kind, state, generation) = match inner.cache.get(job.site) {
        Some((state, generation)) if state.fingerprints == fps => {
            request_rec.incr(Counter::ServeCacheHits);
            (CacheKind::Warm, state, generation)
        }
        Some((stale, _)) if stale.fingerprints.len() == fps.len() => {
            let changed: Vec<bool> = stale
                .fingerprints
                .iter()
                .zip(&fps)
                .map(|(old, new)| old != new)
                .collect();
            match stale.template.try_refresh(lists, &changed) {
                Some(template) => {
                    request_rec.incr(Counter::ServeCacheRefreshes);
                    request_rec.merge(&template.metrics);
                    let state = Arc::new(SiteState {
                        fingerprints: fps.clone(),
                        template: Arc::new(template),
                        results: Mutex::new(HashMap::new()),
                    });
                    let generation = inner.cache.insert(job.site, Arc::clone(&state));
                    (CacheKind::Refresh, state, generation)
                }
                None => {
                    request_rec.incr(Counter::ServeCacheMisses);
                    let (state, generation) = build_state(inner, job.site, lists, &fps)?;
                    (CacheKind::Rebuild, state, generation)
                }
            }
        }
        Some(_) | None => {
            request_rec.incr(Counter::ServeCacheMisses);
            let (state, generation) = build_state(inner, job.site, lists, &fps)?;
            (CacheKind::Cold, state, generation)
        }
    };
    if matches!(kind, CacheKind::Cold | CacheKind::Rebuild) {
        // Site-level build metrics (template.inductions among them) are
        // merged once per request, not once per target.
        request_rec.merge(&state.template.metrics);
    }

    // Per-target fan-out over the batch engine. Cached targets are
    // answered from the result cache without re-running any stage.
    let jobs: Vec<_> = job.targets.iter().collect();
    let blocks: Vec<(Arc<PageBlock>, bool)> =
        batch::execute(inner.config.batch_threads, jobs, |_, spec| {
            let key = (spec.target, details_fingerprint(&spec.details));
            if let Some(block) = state.results.lock().unwrap().get(&key) {
                return (Arc::clone(block), true);
            }
            let block = Arc::new(compute_block(&state.template, spec, deadline));
            // A deadline expiry is a property of *this* request, not of
            // the target: caching it would poison identical requests
            // that arrive with time to spare.
            if !block.deadline_exceeded() {
                state
                    .results
                    .lock()
                    .unwrap()
                    .insert(key, Arc::clone(&block));
            }
            (block, false)
        });

    // Roll the per-target outcomes into the manifest, then write the
    // reply around the blocks' stored sections.
    let mut report = RobustnessReport::default();
    let mut metrics = request_rec;
    for (block, cached) in &blocks {
        report.record(&block.outcome);
        if block.deadline_exceeded() {
            metrics.incr(Counter::ServeDeadlineExceeded);
        }
        if *cached {
            // Same meaning as the batch harness: the page was served by
            // cached per-site state instead of fresh work.
            metrics.incr(Counter::TemplateCacheHits);
        } else {
            metrics.merge(&block.metrics);
        }
    }

    inner.global.lock().unwrap().merge(&metrics);
    let manifest = Manifest {
        tool: "tablesegd".to_string(),
        config: vec![
            ("site".to_string(), job.site.to_string()),
            ("cache".to_string(), kind.label().to_string()),
            ("targets".to_string(), job.targets.len().to_string()),
        ],
        seeds: Vec::new(),
        metrics,
        robustness: Some(report.rollup()),
        root: SpanNode::new(SpanKind::Run, "tablesegd", 0),
        volatile: Volatile {
            git_describe: inner.git.clone(),
            threads: inner.config.batch_threads,
        },
    };

    let mut reply = String::new();
    let counts = [report.pages, report.ok, report.degraded, report.failed];
    push_response_head(&mut reply, job.site, kind.label(), generation, counts);
    for ((block, cached), spec) in blocks.iter().zip(&job.targets) {
        push_page_head(&mut reply, spec.target, block.outcome.label(), *cached);
        reply.push_str(&block.section);
    }
    push_manifest(&mut reply, &manifest.render_json(redact));
    Ok(reply)
}

fn details_fingerprint(details: &[&str]) -> u64 {
    finish(details.iter().fold(details.len() as u64, |h, d| {
        mix_word(h, fingerprint(d.as_bytes()))
    }))
}

fn build_state(
    inner: &Inner,
    site: &str,
    lists: &[&str],
    fps: &[u64],
) -> Result<(Arc<SiteState>, u64), SegError> {
    let template = SiteTemplate::try_build(lists)?;
    let state = Arc::new(SiteState {
        fingerprints: fps.to_vec(),
        template: Arc::new(template),
        results: Mutex::new(HashMap::new()),
    });
    let generation = inner.cache.insert(site, Arc::clone(&state));
    Ok((state, generation))
}

fn compute_block(
    template: &SiteTemplate,
    spec: &TargetSpecRef<'_>,
    deadline: Option<Instant>,
) -> PageBlock {
    // Graceful cancellation: a request past its deadline fails its
    // remaining targets through the fallible pipeline's error type
    // instead of computing them.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        let mut page = PageResult {
            outcome: PageOutcome::Failed {
                error: SegError::Internal {
                    stage: "serve",
                    detail: "deadline exceeded".to_string(),
                },
            },
            detection: None,
            regions: Vec::new(),
            solved: Vec::new(),
            timings: StageTimes::new(),
            metrics: Recorder::new(),
        };
        page.outcome.count(&mut page.metrics);
        return PageBlock::new(spec.target, page);
    }
    let (prob, csp) = (ProbSegmenter::default(), CspSegmenter::default());
    let page = run_page(template, spec.target, &spec.details, None, &[&prob, &csp]);
    PageBlock::new(spec.target, page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_kind_labels_are_distinct() {
        let labels: Vec<&str> = [
            CacheKind::Cold,
            CacheKind::Warm,
            CacheKind::Refresh,
            CacheKind::Rebuild,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn blocks_render_their_page_outcome() {
        let block = |outcome| {
            let page = PageResult {
                outcome,
                detection: None,
                regions: Vec::new(),
                solved: Vec::new(),
                timings: StageTimes::new(),
                metrics: Recorder::new(),
            };
            PageBlock::new(3, page)
        };
        let solver = block(PageOutcome::Failed {
            error: SegError::SolverFailed {
                solver: "CSP",
                detail: "boom".to_string(),
            },
        });
        assert_eq!(solver.outcome.label(), "failed");
        assert!(solver
            .section
            .starts_with("whole_page 0\nwarnings -\noffsets -\nerror solve "));
        assert!(solver.section.ends_with("boom\nendpage\n"));
        assert!(!solver.deadline_exceeded());

        let degraded = block(PageOutcome::Degraded {
            warnings: vec![tableseg::Warning::NoDetailPages],
        });
        assert_eq!(degraded.outcome.label(), "degraded");
        assert_eq!(
            degraded.section,
            "whole_page 0\nwarnings no_detail_pages\noffsets -\nendpage\n"
        );

        let late = compute_block(
            &SiteTemplate::try_build(&["<table><tr><td>a</td></tr></table>"; 2]).unwrap(),
            &TargetSpecRef {
                target: 0,
                details: Vec::new(),
            },
            Some(Instant::now()),
        );
        assert!(late.deadline_exceeded());
        assert!(late.section.contains("\nerror serve "), "{}", late.section);
        assert!(late.section.ends_with("deadline exceeded\nendpage\n"));
    }
}
