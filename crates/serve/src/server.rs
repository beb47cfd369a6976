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
//! Endpoints: `POST /segment`, `POST /invalidate`, `GET /metrics`
//! (Prometheus), `GET /healthz`.

use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tableseg::obs::{
    self, git_describe, Counter, Hist, Manifest, Recorder, SpanKind, SpanNode, Volatile,
};
use tableseg::robustness::RobustnessReport;
use tableseg::{
    batch, caught, prepare_outcome, CspSegmenter, PageOutcome, ProbSegmenter, Segmenter,
    SiteTemplate,
};
use tableseg_html::SegError;

use crate::cache::{fingerprint, SiteCache};
use crate::http::{read_request, write_response, HttpRequest};
use crate::proto::{
    encode_response, parse_request, PageResultMsg, SegmentRequest, SegmentResponse, SegmenterMsg,
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

/// The per-target result in wire-independent form; rendered into the
/// response by [`PageBlock::to_msg`].
struct PageBlock {
    status: &'static str,
    whole_page: bool,
    warnings: Vec<String>,
    offsets: Vec<usize>,
    prob: Option<SegmenterMsg>,
    csp: Option<SegmenterMsg>,
    error: Option<(String, String)>,
    /// Deterministic pipeline metrics recorded while computing this
    /// block (merged into manifests of requests that *computed* it).
    metrics: Recorder,
}

impl PageBlock {
    fn to_msg(&self, target: usize, cached: bool) -> PageResultMsg {
        PageResultMsg {
            target,
            status: self.status.to_string(),
            cached,
            whole_page: self.whole_page,
            warnings: self.warnings.clone(),
            offsets: self.offsets.clone(),
            prob: self.prob.clone(),
            csp: self.csp.clone(),
            error: self.error.clone(),
        }
    }

    /// True when this block records a request-local deadline expiry
    /// rather than a property of the target itself.
    fn deadline_exceeded(&self) -> bool {
        matches!(&self.error, Some((stage, _)) if stage == "serve")
    }

    fn from_error(error: &SegError) -> PageBlock {
        PageBlock {
            status: "failed",
            whole_page: false,
            warnings: Vec::new(),
            offsets: Vec::new(),
            prob: None,
            csp: None,
            error: Some((error.stage().to_string(), error.to_string())),
            metrics: Recorder::new(),
        }
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
    queue: Mutex<Vec<TcpStream>>,
    queue_ready: Condvar,
    /// Rejected sockets, answered and half-closed, each with the instant
    /// the shedder gives up draining it.
    shed: Mutex<Vec<(TcpStream, Instant)>>,
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
            queue: Mutex::new(Vec::new()),
            queue_ready: Condvar::new(),
            shed: Mutex::new(Vec::new()),
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
        queue.insert(0, stream);
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
        shed.remove(0);
    }
    shed.push((stream, Instant::now() + SHED_LINGER));
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
                if let Some(stream) = queue.pop() {
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
                Ok(resp) => (200, "OK", encode_response(&resp)),
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
    job: &SegmentRequest,
    deadline: Option<Instant>,
    redact: bool,
) -> Result<SegmentResponse, SegError> {
    let mut request_rec = Recorder::always_on();
    request_rec.incr(Counter::ServeRequests);
    request_rec.observe(Hist::ServePagesPerRequest, job.targets.len() as u64);

    let lists: Vec<&str> = job.list_pages.iter().map(String::as_str).collect();
    let fps: Vec<u64> = lists.iter().map(|p| fingerprint(p.as_bytes())).collect();

    // Resolve site state: warm hit, incremental refresh, or (re)build.
    let (kind, state, generation) = match inner.cache.get(&job.site) {
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
            match stale.template.try_refresh(&lists, &changed) {
                Some(template) => {
                    request_rec.incr(Counter::ServeCacheRefreshes);
                    request_rec.merge(&template.metrics);
                    let state = Arc::new(SiteState {
                        fingerprints: fps.clone(),
                        template: Arc::new(template),
                        results: Mutex::new(HashMap::new()),
                    });
                    let generation = inner.cache.insert(&job.site, Arc::clone(&state));
                    (CacheKind::Refresh, state, generation)
                }
                None => {
                    request_rec.incr(Counter::ServeCacheMisses);
                    let (state, generation) = build_state(inner, &job.site, &lists, &fps)?;
                    (CacheKind::Rebuild, state, generation)
                }
            }
        }
        Some(_) | None => {
            request_rec.incr(Counter::ServeCacheMisses);
            let (state, generation) = build_state(inner, &job.site, &lists, &fps)?;
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
    let jobs: Vec<(usize, &crate::proto::TargetSpec)> = job.targets.iter().enumerate().collect();
    let blocks: Vec<(Arc<PageBlock>, bool)> =
        batch::execute(inner.config.batch_threads, jobs, |_, (_, spec)| {
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

    // Roll the per-target outcomes into the response and manifest.
    let mut report = RobustnessReport::default();
    let mut page_results = Vec::with_capacity(blocks.len());
    let mut metrics = request_rec;
    for ((block, cached), spec) in blocks.iter().zip(&job.targets) {
        report.pages += 1;
        match block.status {
            "ok" => report.ok += 1,
            "degraded" => report.degraded += 1,
            _ => report.failed += 1,
        }
        for w in &block.warnings {
            bump_label(&mut report.warnings, w);
        }
        if let Some((stage, _)) = &block.error {
            bump_label(&mut report.failures_by_stage, stage);
            if stage == "serve" {
                metrics.incr(Counter::ServeDeadlineExceeded);
            }
        }
        if *cached {
            // Same meaning as the batch harness: the page was served by
            // cached per-site state instead of fresh work.
            metrics.incr(Counter::TemplateCacheHits);
        } else {
            metrics.merge(&block.metrics);
        }
        page_results.push(block.to_msg(spec.target, *cached));
    }

    let manifest = Manifest {
        tool: "tablesegd".to_string(),
        config: vec![
            ("site".to_string(), job.site.clone()),
            ("cache".to_string(), kind.label().to_string()),
            ("targets".to_string(), job.targets.len().to_string()),
        ],
        seeds: Vec::new(),
        metrics: metrics.clone(),
        robustness: Some(report.rollup()),
        root: SpanNode::new(SpanKind::Run, "tablesegd", 0),
        volatile: Volatile {
            git_describe: inner.git.clone(),
            threads: inner.config.batch_threads,
        },
    };

    inner.global.lock().unwrap().merge(&metrics);

    Ok(SegmentResponse {
        site: job.site.clone(),
        cache: kind.label().to_string(),
        generation,
        pages: report.pages,
        ok: report.ok,
        degraded: report.degraded,
        failed: report.failed,
        page_results,
        manifest: manifest.render_json(redact),
    })
}

/// The robustness report stores `&'static str` labels; serve-side
/// labels come from the fixed warning/stage vocabularies, so leak-free
/// interning is just a match over the known strings.
fn bump_label(rows: &mut Vec<(&'static str, usize)>, label: &str) {
    const KNOWN: &[&str] = &[
        "whole_page_fallback",
        "empty_list_page",
        "no_detail_pages",
        "empty_detail_page",
        "no_observations",
        "tokenize",
        "template",
        "extract",
        "match",
        "solve",
        "serve",
    ];
    let stable = KNOWN
        .iter()
        .find(|k| **k == label)
        .copied()
        .unwrap_or("other");
    match rows.iter_mut().find(|(l, _)| *l == stable) {
        Some(row) => row.1 += 1,
        None => rows.push((stable, 1)),
    }
}

fn details_fingerprint(details: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in details {
        h ^= fingerprint(d.as_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    spec: &crate::proto::TargetSpec,
    deadline: Option<Instant>,
) -> PageBlock {
    // Graceful cancellation: a request past its deadline fails its
    // remaining targets through the fallible pipeline's error type
    // instead of computing them.
    if let Some(deadline) = deadline {
        if Instant::now() >= deadline {
            return PageBlock::from_error(&SegError::Internal {
                stage: "serve",
                detail: "deadline exceeded".to_string(),
            });
        }
    }
    let details: Vec<&str> = spec.details.iter().map(String::as_str).collect();
    let outcome = prepare_outcome(template, spec.target, &details);
    let (status, prepared, warnings): (&'static str, _, Vec<String>) = match &outcome {
        PageOutcome::Ok(page) => ("ok", page, Vec::new()),
        PageOutcome::Degraded { page, warnings } => (
            "degraded",
            page,
            warnings.iter().map(|w| w.label().to_string()).collect(),
        ),
        PageOutcome::Failed { error } => return PageBlock::from_error(error),
    };
    let mut metrics = prepared.metrics.clone();
    let mut run = |segmenter: &dyn Segmenter| {
        let outcome = segmenter.segment(&prepared.observations);
        metrics.merge(&outcome.metrics);
        SegmenterMsg {
            relaxed: outcome.relaxed,
            groups: outcome.segmentation.records(),
        }
    };
    let prob = run(&ProbSegmenter::default());
    let csp = run(&CspSegmenter::default());
    PageBlock {
        status,
        whole_page: prepared.used_whole_page,
        warnings,
        offsets: prepared.extract_offsets.clone(),
        prob: Some(prob),
        csp: Some(csp),
        error: None,
        metrics,
    }
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
    fn bump_label_interns_known_labels() {
        let mut rows = Vec::new();
        bump_label(&mut rows, "serve");
        bump_label(&mut rows, "serve");
        bump_label(&mut rows, "solve");
        assert_eq!(rows, vec![("serve", 2), ("solve", 1)]);
    }
}
