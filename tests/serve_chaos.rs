//! Chaos-at-the-door: the daemon must answer hostile traffic with 4xx/5xx
//! instead of panicking, and `/healthz` must stay green throughout.
//!
//! Covered: truncated bodies, oversized payloads (rejected from the
//! `Content-Length` header alone), malformed HTTP, garbage segment
//! bodies, mid-request disconnects, wrong methods, unknown endpoints,
//! out-of-range targets (caught by the fallible pipeline and reported
//! as a failed page inside a 200), empty site samples, a zero-depth
//! admission queue (429 + `Retry-After` from the acceptor), and a
//! connection flood past a full queue (every client answered at once, on
//! a bounded number of threads).

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tableseg_serve::client;
use tableseg_serve::proto::encode_request;
use tableseg_serve::{SegmentRequest, Server, ServerConfig, TargetSpec};

/// Writes raw bytes, half-closes the write side, and reads the status
/// code of whatever comes back.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.write_all(bytes).ok()?;
    stream.shutdown(Shutdown::Write).ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let head = std::str::from_utf8(&raw).ok()?;
    head.strip_prefix("HTTP/1.1 ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

fn tiny_request() -> SegmentRequest {
    SegmentRequest {
        site: "chaos-site".to_string(),
        list_pages: vec![
            "<html><table><tr><td>Ada</td></tr><tr><td>Alan</td></tr></table></html>".to_string(),
            "<html><table><tr><td>Grace</td></tr></table></html>".to_string(),
        ],
        targets: vec![TargetSpec {
            target: 0,
            details: vec!["<h2>Ada</h2>".to_string()],
        }],
    }
}

#[test]
fn hostile_traffic_gets_4xx_5xx_and_healthz_stays_green() {
    let server = Server::start(ServerConfig {
        workers: 2,
        max_body: 64 * 1024,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    assert!(client::healthz(addr), "daemon must start healthy");

    // Malformed HTTP.
    assert_eq!(raw_exchange(addr, b"NONSENSE\r\n\r\n"), Some(400));
    assert_eq!(raw_exchange(addr, b"GET\r\n\r\n"), Some(400));
    assert_eq!(
        raw_exchange(
            addr,
            b"POST /segment HTTP/1.1\r\ncontent-length: ten\r\n\r\n"
        ),
        Some(400)
    );

    // Oversized payload: rejected from the header, body never read.
    assert_eq!(
        raw_exchange(
            addr,
            b"POST /segment HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n"
        ),
        Some(413)
    );

    // Truncated body: the peer half-closes before content-length bytes.
    assert_eq!(
        raw_exchange(
            addr,
            b"POST /segment HTTP/1.1\r\ncontent-length: 500\r\n\r\nonly this"
        ),
        Some(400)
    );

    // Mid-request disconnect: partial head, then the connection drops
    // entirely. No response can be delivered; the daemon must survive.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"POST /segm").expect("partial write");
        drop(stream);
    }

    // Garbage segment body: parsed, rejected, 400.
    let resp = client::http_request(addr, "POST", "/segment", &[], b"not a tablesegd request")
        .expect("transport");
    assert_eq!(resp.status, 400);

    // Non-UTF-8 segment body.
    let resp = client::http_request(addr, "POST", "/segment", &[], &[0xff, 0xfe, 0x00, 0x80])
        .expect("transport");
    assert_eq!(resp.status, 400);

    // Wrong method / unknown endpoint.
    let resp = client::http_request(addr, "GET", "/segment", &[], b"").expect("transport");
    assert_eq!(resp.status, 405);
    let resp = client::http_request(addr, "POST", "/nope", &[], b"").expect("transport");
    assert_eq!(resp.status, 404);

    // Empty site sample: the fallible pipeline reports it, 422.
    let empty = SegmentRequest {
        site: "empty".to_string(),
        list_pages: Vec::new(),
        targets: Vec::new(),
    };
    let resp = client::http_request(
        addr,
        "POST",
        "/segment",
        &[],
        encode_request(&empty).as_bytes(),
    )
    .expect("transport");
    assert_eq!(resp.status, 422);

    // Out-of-range target: caught by `outcome`'s fallible path and
    // reported as a failed page inside a successful response.
    let mut bad_target = tiny_request();
    bad_target.targets[0].target = 99;
    let resp = client::segment(addr, &bad_target, None, true).expect("segment");
    assert_eq!(resp.pages, 1);
    assert_eq!(resp.failed, 1);
    assert_eq!(resp.pages, resp.ok + resp.degraded + resp.failed);
    let page = &resp.page_results[0];
    assert_eq!(page.status, "failed");
    assert_eq!(
        page.error.as_ref().map(|(s, _)| s.as_str()),
        Some("template")
    );

    // A well-formed request still works after all of the above.
    let resp = client::segment(addr, &tiny_request(), None, true).expect("segment");
    assert_eq!(resp.pages, resp.ok + resp.degraded + resp.failed);
    assert_eq!(resp.failed, 0);

    // An expired deadline fails pages gracefully via the serve stage —
    // on a fresh site, so the result cache cannot answer first.
    let mut rushed = tiny_request();
    rushed.site = "chaos-deadline".to_string();
    let resp = client::segment(addr, &rushed, Some(0), true).expect("segment");
    assert_eq!(resp.failed, resp.pages);
    assert_eq!(
        resp.page_results[0].error.as_ref().map(|(s, _)| s.as_str()),
        Some("serve")
    );
    // The expiry must not poison the result cache: the same request
    // with time to spare computes the target and succeeds.
    let resp = client::segment(addr, &rushed, None, true).expect("segment");
    assert_eq!(resp.failed, 0, "deadline failure must not be cached");
    assert!(resp.page_results.iter().all(|p| !p.cached));

    // Throughout all of it: healthy, and /metrics still renders.
    assert!(
        client::healthz(addr),
        "daemon must stay healthy under chaos"
    );
    let metrics = client::metrics(addr).expect("metrics");
    assert!(metrics.contains("tableseg_serve_requests_total"));
    server.shutdown();
}

#[test]
fn zero_depth_queue_rejects_with_retry_after() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 0,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    // The rejection is written from the acceptor the moment the
    // connection lands — no request bytes needed (writing any would
    // race the acceptor's close and read back a reset instead).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read rejection");
    let head = String::from_utf8_lossy(&raw);
    assert!(
        head.starts_with("HTTP/1.1 429 "),
        "zero-depth queue must shed all load, got: {head}"
    );
    assert!(
        head.to_ascii_lowercase().contains("retry-after: 1"),
        "429 must carry Retry-After, got: {head}"
    );
    server.shutdown();
}

/// Live threads of this process, where the platform exposes them.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

#[test]
fn connection_flood_is_shed_at_once_on_bounded_threads() {
    let queue_depth = 2;
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let patience = Duration::from_millis(250);

    // Silent clients occupy the worker (blocked reading a request that
    // never comes) and every queue slot. A probe that reads nothing
    // within `patience` was admitted; one answered 429 arrived while the
    // worker had not yet taken its connection, so probing goes on.
    let mut admitted = Vec::new();
    for _ in 0..20 {
        if admitted.len() == 1 + queue_depth {
            break;
        }
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(patience)).expect("timeout");
        match stream.read(&mut [0u8; 1]) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                admitted.push(stream)
            }
            _ => {}
        }
    }
    assert_eq!(admitted.len(), 1 + queue_depth, "could not fill the queue");

    // The flood: every client is answered from the acceptor without
    // sending a byte, and keeps its socket open afterwards, so a
    // thread-per-rejection design would hold one thread per client.
    let threads_before = thread_count();
    let mut flood = Vec::new();
    for i in 0..50 * queue_depth {
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(patience)).expect("timeout");
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .unwrap_or_else(|e| panic!("client {i}: no 429 within {patience:?}: {e}"));
        let waited = started.elapsed();
        let head = String::from_utf8_lossy(&raw);
        assert!(head.starts_with("HTTP/1.1 429 "), "client {i} got: {head}");
        assert!(waited <= patience, "client {i} waited {waited:?}");
        flood.push(stream);
    }
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        // Slack for the other tests of this binary, which run alongside.
        assert!(
            after <= before + 16,
            "{} rejections grew the process from {before} to {after} threads",
            flood.len()
        );
    }
    drop(flood);
    drop(admitted);
    server.shutdown();
}
