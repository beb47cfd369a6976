//! A minimal HTTP/1.1 reader/writer over `std::net::TcpStream`.
//!
//! Hand-rolled because the workspace builds offline with no external
//! dependencies. The subset is deliberately small: one request per
//! connection (`Connection: close` semantics), a capped header block,
//! `Content-Length` bodies only (no chunked encoding), and every parse
//! failure mapped to a definite 4xx status so the daemon can answer
//! malformed traffic without panicking.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum size of the request line + headers, in bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request path, query string included.
    pub path: String,
    /// Header name/value pairs in arrival order. Names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one HTTP
/// status via [`HttpError::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The bytes on the wire are not an HTTP/1.1 request (bad request
    /// line, bad header syntax, oversized head, non-numeric length).
    Malformed(&'static str),
    /// The declared `Content-Length` exceeds the server's body cap. The
    /// body is *not* read: the check runs on the header alone.
    TooLarge {
        /// The configured cap, in bytes.
        limit: usize,
    },
    /// The peer closed the connection before the request was complete
    /// (truncated head or body).
    Truncated,
    /// The read timed out before the request was complete.
    Timeout,
}

impl HttpError {
    /// The HTTP status code and reason phrase for this error.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Malformed(_) => (400, "Bad Request"),
            HttpError::TooLarge { .. } => (413, "Payload Too Large"),
            HttpError::Truncated => (400, "Bad Request"),
            HttpError::Timeout => (408, "Request Timeout"),
        }
    }

    /// A one-line human-readable description (the error response body).
    pub fn detail(&self) -> String {
        match self {
            HttpError::Malformed(what) => format!("malformed request: {what}"),
            HttpError::TooLarge { limit } => {
                format!("body exceeds the {limit}-byte limit")
            }
            HttpError::Truncated => "connection closed mid-request".to_string(),
            HttpError::Timeout => "timed out reading the request".to_string(),
        }
    }
}

fn io_error(e: &std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => HttpError::Truncated,
        _ => HttpError::Malformed("io error"),
    }
}

/// Bytes asked of the socket per `read`. The buffer grows only by what
/// arrives, so a declared `Content-Length` reserves nothing up front.
const READ_CHUNK: usize = 16 * 1024;

/// Reads one HTTP/1.1 request from `stream`, rejecting bodies larger
/// than `max_body` *before* reading them.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<HttpRequest, HttpError> {
    // Head: everything up to the blank line, capped at MAX_HEAD. Each
    // pass searches only the new bytes, plus the 3 before them that a
    // terminator split across reads may start in.
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    let mut scanned = 0usize;
    let head_end = loop {
        let from = scanned.saturating_sub(3);
        if let Some(pos) = find_head_end(&buf[from..]) {
            break from + pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::Malformed("request head too large"));
        }
        scanned = buf.len();
        read_some(stream, &mut chunk, &mut buf)?;
    };
    if head_end > MAX_HEAD {
        return Err(HttpError::Malformed("request head too large"));
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head not utf-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("bad request line"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("bad header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad content-length"))?,
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge { limit: max_body });
    }
    // Body: whatever followed the head in the buffer, then the rest.
    buf.drain(..head_end + 4);
    let mut body = buf;
    loop {
        if body.len() > content_length {
            return Err(HttpError::Malformed("body longer than content-length"));
        }
        if body.len() == content_length {
            break;
        }
        read_some(stream, &mut chunk, &mut body)?;
    }
    Ok(HttpRequest {
        method,
        path,
        headers,
        body,
    })
}

/// One `read` into `chunk`, appended to `buf`; end of stream before the
/// request is complete is [`HttpError::Truncated`].
fn read_some(stream: &mut TcpStream, chunk: &mut [u8], buf: &mut Vec<u8>) -> Result<(), HttpError> {
    let n = stream.read(chunk).map_err(|e| io_error(&e))?;
    if n == 0 {
        return Err(HttpError::Truncated);
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes an HTTP/1.1 response with `Content-Length` and
/// `Connection: close`. Write errors are returned (the peer may have
/// disconnected mid-response); callers treat them as a closed client.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {reason}\r\n");
    head.push_str("connection: close\r\n");
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8], max_body: usize) -> Result<HttpRequest, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let got = read_request(&mut stream, max_body);
        writer.join().unwrap();
        got
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /segment HTTP/1.1\r\nContent-Length: 5\r\nX-Deadline-Ms: 250\r\n\r\nhello";
        let req = roundtrip(raw, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/segment");
        assert_eq!(req.header("x-deadline-ms"), Some("250"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn a_request_written_byte_by_byte_parses_like_one_written_whole() {
        let raw: &[u8] =
            b"POST /segment HTTP/1.1\r\nContent-Length: 12\r\nX-Deadline-Ms: 250\r\n\r\nhello\r\n\r\nyou";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            // A pause per byte, so the reader sees the request a byte
            // per read and the head terminator split across reads.
            for byte in raw {
                s.write_all(std::slice::from_ref(byte)).unwrap();
                s.flush().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let trickled = read_request(&mut stream, 1024);
        writer.join().unwrap();
        let whole = roundtrip(raw, 1024).unwrap();
        assert_eq!(whole.body, b"hello\r\n\r\nyou");
        assert_eq!(trickled, Ok(whole));
    }

    #[test]
    fn rejects_a_body_longer_than_its_content_length() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhello";
        assert!(matches!(roundtrip(raw, 1024), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn rejects_an_oversized_head() {
        let mut raw = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        raw.resize(MAX_HEAD + 10, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(
            roundtrip(&raw, 1024),
            Err(HttpError::Malformed("request head too large"))
        );
    }

    #[test]
    fn rejects_oversized_body_from_the_header_alone() {
        let raw = b"POST /segment HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert_eq!(
            roundtrip(raw, 1024),
            Err(HttpError::TooLarge { limit: 1024 })
        );
    }

    #[test]
    fn rejects_truncated_body() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        assert_eq!(roundtrip(raw, 1024), Err(HttpError::Truncated));
    }

    #[test]
    fn rejects_garbage_request_line() {
        assert!(matches!(
            roundtrip(b"NONSENSE\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn error_statuses_are_4xx() {
        for e in [
            HttpError::Malformed("x"),
            HttpError::TooLarge { limit: 1 },
            HttpError::Truncated,
            HttpError::Timeout,
        ] {
            let (code, _) = e.status();
            assert!((400..500).contains(&code), "{e:?} -> {code}");
        }
    }
}
