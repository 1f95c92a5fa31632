//! Hand-rolled HTTP/1.1 over `std::net`: request parsing, fixed responses
//! and chunked streaming.
//!
//! Deliberately minimal — the subset the v2 API needs and nothing else:
//! one request per connection (`Connection: close`), `Content-Length`
//! bodies, `Transfer-Encoding: chunked` for token streams. No keep-alive,
//! no pipelining, no TLS; the repo has no dependencies to hand those to,
//! and the ingress design (one ring job per connection) is simplest when a
//! connection is a request.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on the request head (request line + headers), bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body, bytes.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Uppercase method, e.g. `POST`.
    pub method: String,
    /// Request target path with the query string split off, e.g. `/v2/infer`.
    pub path: String,
    /// The query string (without the `?`), empty when the target has none.
    pub query: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, already length-delimited by `Content-Length`.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the query string contains the exact `key=value` pair.
    pub fn query_flag(&self, key: &str, value: &str) -> bool {
        self.query
            .split('&')
            .any(|pair| pair.split_once('=') == Some((key, value)))
    }
}

/// How long a client has, from accept, to deliver its whole request: head
/// and body together, however it spaces its bytes.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Reads one request from a connection accepted at `accepted_at`. `Ok(None)`
/// means the peer closed before sending anything (a clean no-request
/// connection).
///
/// # Errors
/// I/O errors, malformed request lines, heads/bodies past the caps, a
/// request not complete 5 s after `accepted_at`, or body framing this
/// server does not implement or cannot trust — any `Transfer-Encoding`, a
/// `Content-Length` that is not plain digits, several that disagree (all
/// mapped onto `io::ErrorKind::InvalidData`).
pub fn read_request(
    stream: &mut TcpStream,
    accepted_at: Instant,
) -> io::Result<Option<HttpRequest>> {
    read_request_by(stream, accepted_at + REQUEST_DEADLINE)
}

fn read_request_by(stream: &mut TcpStream, deadline: Instant) -> io::Result<Option<HttpRequest>> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        let found = find_head_end(&buf);
        // Until its terminator is complete, the head is at least all but the
        // last three bytes read.
        if found.unwrap_or(buf.len().saturating_sub(3)) > MAX_HEAD_BYTES {
            return Err(invalid("request head too large"));
        }
        if let Some(i) = found {
            break i;
        }
        let n = read_before(stream, &mut chunk, deadline)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(invalid("connection closed mid-head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("head not utf-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| invalid("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| invalid("missing method"))?
        .to_uppercase();
    let target = parts.next().ok_or_else(|| invalid("missing path"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let version = parts.next().ok_or_else(|| invalid("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| invalid("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // The body is delimited by `Content-Length` alone. Reading a request
    // that frames its body any other way as "no body" would leave that body
    // in the socket and answer a request the client did not send.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(invalid("transfer-encoding request bodies are unsupported"));
    }
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let content_length: usize = match lengths.next() {
        None => 0,
        Some(first) => {
            if lengths.any(|other| other != first) {
                return Err(invalid("conflicting content-length headers"));
            }
            // Digits only: `usize::from_str` alone would take `+5`.
            match first.parse() {
                Ok(n) if first.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return Err(invalid("bad content-length")),
            }
        }
    };
    if content_length > MAX_BODY_BYTES {
        return Err(invalid("body too large"));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_before(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(invalid("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Some(HttpRequest {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// One read, waiting no longer than what is left until `deadline`.
fn read_before(stream: &mut TcpStream, chunk: &mut [u8], deadline: Instant) -> io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(invalid("request deadline passed"));
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(chunk).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => invalid("request deadline passed"),
        _ => e,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The reason phrase for the status codes the v2 API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response with `Connection: close`.
pub fn write_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    write_response(stream, status, "application/json", body)
}

/// Writes a complete response of any content type with `Connection: close`
/// (the Prometheus text exposition at `GET /v2/metrics` is not JSON).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// `Retry-After` on shed responses, seconds.
const RETRY_AFTER_SECONDS: u64 = 1;

/// Writes the fixed shed response: `429` + `Retry-After`. Called on the
/// acceptor path, before any parsing — the bytes are assembled without
/// touching the request.
pub fn write_shed(stream: &mut TcpStream) -> io::Result<()> {
    let body = "{\"error\":\"overloaded\"}";
    let head = format!(
        "HTTP/1.1 429 Too Many Requests\r\nRetry-After: {RETRY_AFTER_SECONDS}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    // Drain request bytes that already arrived, without blocking: closing a
    // socket with unread data in its receive queue sends RST instead of
    // FIN, which would throw away the very response just written.
    let _ = stream.set_nonblocking(true);
    let mut scratch = [0u8; 4096];
    while matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
    let _ = stream.shutdown(std::net::Shutdown::Write);
    Ok(())
}

/// A `Transfer-Encoding: chunked` response in progress: one JSON document
/// per chunk (newline-terminated), ended by the zero-length chunk.
/// Writes are blocking — a slow or stalled client backpressures the
/// producer through the socket buffer.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Sends the response head and returns the writer.
    pub fn begin(stream: &'a mut TcpStream, status: u16) -> io::Result<ChunkedWriter<'a>> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status),
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one line as one chunk (the newline is appended here).
    pub fn chunk_line(&mut self, line: &str) -> io::Result<()> {
        let payload_len = line.len() + 1;
        write!(self.stream, "{payload_len:x}\r\n{line}\n\r\n")?;
        self.stream.flush()
    }

    /// Writes the terminating zero-length chunk.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        (client.join().unwrap(), server)
    }

    #[test]
    fn parses_a_request_with_body() {
        let (mut client, mut server) = pair();
        client
            .write_all(
                b"POST /v2/infer HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
            )
            .unwrap();
        let req = read_request(&mut server, Instant::now()).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v2/infer");
        assert_eq!(req.query, "");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn splits_the_query_string_off_the_path() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v2/generate?debug=timing&x=1 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let req = read_request(&mut server, Instant::now()).unwrap().unwrap();
        assert_eq!(req.path, "/v2/generate");
        assert_eq!(req.query, "debug=timing&x=1");
        assert!(req.query_flag("debug", "timing"));
        assert!(req.query_flag("x", "1"));
        assert!(!req.query_flag("debug", "on"));
    }

    #[test]
    fn clean_close_yields_none() {
        let (client, mut server) = pair();
        drop(client);
        assert!(read_request(&mut server, Instant::now()).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_request_line() {
        let (mut client, mut server) = pair();
        client.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        assert!(read_request(&mut server, Instant::now()).is_err());
    }

    #[test]
    fn rejects_body_framing_it_cannot_trust() {
        for (headers, why) in [
            ("Transfer-Encoding: chunked\r\n", "transfer-encoding"),
            (
                "Transfer-Encoding: chunked\r\nContent-Length: 5\r\n",
                "transfer-encoding",
            ),
            ("Content-Length: +5\r\n", "bad content-length"),
            ("Content-Length: \r\n", "bad content-length"),
            ("Content-Length: 5\r\nContent-Length: 6\r\n", "conflicting"),
        ] {
            let (mut client, mut server) = pair();
            client
                .write_all(format!("POST /v2/infer HTTP/1.1\r\n{headers}\r\nhello").as_bytes())
                .unwrap();
            let err = read_request(&mut server, Instant::now()).expect_err(headers);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{headers}");
            assert!(err.to_string().contains(why), "{headers}: {err}");
        }
        // Repeated but agreeing lengths are one length.
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(
            read_request(&mut server, Instant::now())
                .unwrap()
                .unwrap()
                .body,
            b"hello"
        );
    }

    /// A request means the same however TCP segments it: written in two
    /// pieces at every byte boundary, and one byte at a time, it parses to
    /// what the one-shot write parses to. The reader is started first and
    /// the writer sets `TCP_NODELAY`, so the pieces normally arrive as
    /// separate reads, with the head or the body cut mid-way.
    #[test]
    fn split_writes_parse_like_one_write() {
        let body = r#"{"model":"m","inputs":[[1.0,2.5]],"priority":"high"}"#;
        let wire = format!(
            "POST /v2/infer?debug=timing HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        let parse = |pieces: &[&[u8]]| {
            let (mut client, mut server) = pair();
            client.set_nodelay(true).unwrap();
            let reader = thread::spawn(move || read_request(&mut server, Instant::now()));
            for piece in pieces {
                client.write_all(piece).unwrap();
            }
            reader.join().unwrap().unwrap().unwrap()
        };
        let whole = parse(&[&wire]);
        assert_eq!(whole.path, "/v2/infer");
        assert_eq!(whole.body, body.as_bytes());
        for split in 1..wire.len() {
            let (head, tail) = wire.split_at(split);
            assert_eq!(parse(&[head, tail]), whole, "split at byte {split}");
        }
        let bytes: Vec<&[u8]> = wire.chunks(1).collect();
        assert_eq!(parse(&bytes), whole, "one byte at a time");
    }

    /// A client that keeps a connection alive by dribbling bytes cannot hold
    /// a lane past the one deadline for the whole request.
    #[test]
    fn a_dribbling_client_fails_at_the_deadline() {
        let (mut client, mut server) = pair();
        let dribbler = thread::spawn(move || {
            client.set_nodelay(true).unwrap();
            for byte in b"GET / HTTP/1.1\r\nX: ".iter().chain([b'a'; 100].iter()) {
                if client.write_all(&[*byte]).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(20));
            }
        });
        let start = Instant::now();
        let err = read_request_by(&mut server, start + Duration::from_millis(200)).unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The deadline plus scheduling slack; without it the read lasts as
        // long as the client keeps sending (over 2 s here).
        assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
        drop(server);
        dribbler.join().unwrap();
    }

    #[test]
    fn a_head_past_the_cap_is_rejected_even_in_one_write() {
        let line = "GET / HTTP/1.1\r\nX: ";
        let head = format!("{line}{}", "a".repeat(MAX_HEAD_BYTES + 100 - line.len()));
        assert_eq!(head.len(), 16_484);
        let (mut client, mut server) = pair();
        let writer = thread::spawn(move || {
            let _ = client.write_all(format!("{head}\r\n\r\n").as_bytes());
        });
        let err = read_request(&mut server, Instant::now()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("too large"), "{err}");
        drop(server);
        writer.join().unwrap();
    }

    #[test]
    fn chunked_stream_is_parseable() {
        let (mut client, mut server) = pair();
        let writer = thread::spawn(move || {
            let mut w = ChunkedWriter::begin(&mut server, 200).unwrap();
            w.chunk_line("{\"a\":1}").unwrap();
            w.chunk_line("{\"b\":2}").unwrap();
            w.finish().unwrap();
            // `server` drops here, closing the socket so the client sees EOF.
        });
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        writer.join().unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        assert!(text.contains("{\"a\":1}\n"), "{text}");
        assert!(text.contains("{\"b\":2}\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
    }
}
