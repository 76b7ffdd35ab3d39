//! The front end both sweep services share: one listener for TCP and
//! Unix sockets, one sniff-and-dispatch step per connection, the
//! `GET /metrics` answer, and one request-line reader.
//!
//! `macs-bench --serve` and `--coordinate` differ only in what they do
//! with a request stream — serialized local evaluation, or the cached
//! worker fleet. Everything between the socket and that stream handler
//! lives here, so both modes bound the same resources the same way: at
//! most [`MAX_CONNECTIONS`] live connections, request and header lines
//! capped at `max_line_bytes`, and a read timeout on every socket.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use c240_obs::json::Json;
use c240_obs::metrics::Counter;
use c240_obs::{Metrics, SweepOutcomes, Tracer};
use macs_core::sweep::{parse_point, ProtocolError, SweepPoint, SWEEP_ROW_SCHEMA};

use crate::lineio::{sniff_http, BoundedLines, LineEvent, Sniff};
use crate::serve::ServeObs;

/// Live connections one listener serves at once, metrics scrapes
/// included. Each connection holds a thread (and, under `--serve`, a
/// place in the queue for the sweep lock). A connection past this limit
/// gets one `overloaded` row and is closed; a slot frees as soon as any
/// live connection ends.
pub const MAX_CONNECTIONS: usize = 64;

/// Where a sweep service listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, `HOST:PORT` (port 0 picks a free port).
    Tcp(String),
    /// A Unix socket path; a stale socket file there is removed first.
    Unix(PathBuf),
}

/// The request side of an accepted sweep stream: the bytes the sniff
/// consumed, replayed ahead of the rest of the connection.
pub type StreamInput = io::Chain<io::Cursor<Vec<u8>>, BufReader<Box<dyn Read + Send>>>;

/// The response side of an accepted sweep stream.
pub type StreamOutput = Box<dyn Write + Send>;

/// What a service does with one sweep request stream.
type Handler = dyn Fn(StreamInput, StreamOutput) -> io::Result<SweepOutcomes> + Send + Sync;

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// Splits an accepted socket into its reading half (a second handle,
/// made by `reader`) and its writing half (the socket itself).
fn halves<S: Read + Write + Send + 'static>(
    socket: S,
    reader: impl FnOnce(&S) -> io::Result<S>,
) -> io::Result<(Box<dyn Read + Send>, StreamOutput)> {
    Ok((Box::new(reader(&socket)?), Box::new(socket)))
}

/// Binds `endpoint`, prints `macs-bench: {verb} on {address}` to stderr
/// (scripts parse this banner for the bound port), and serves
/// connections until accepting fails; the process is stopped
/// externally.
///
/// Each connection runs on its own thread. Its first line decides what
/// it is: a `GET`/`HEAD` request is answered as a metrics scrape from
/// `obs`, and anything else is a sweep request stream handed to
/// `handler`. Past [`MAX_CONNECTIONS`] live connections, a new one gets
/// a single `overloaded` row and is closed.
///
/// # Errors
///
/// Fails if the endpoint cannot be bound or accepting fails.
pub fn listen(
    endpoint: &Endpoint,
    verb: &str,
    max_line_bytes: usize,
    read_timeout: Option<Duration>,
    obs: Option<ServeObs>,
    handler: impl Fn(StreamInput, StreamOutput) -> io::Result<SweepOutcomes> + Send + Sync + 'static,
) -> io::Result<()> {
    let listener = match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr)?;
            eprintln!("macs-bench: {verb} on tcp {}", listener.local_addr()?);
            Listener::Tcp(listener)
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            eprintln!("macs-bench: {verb} on unix socket {}", path.display());
            Listener::Unix(listener)
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => return Err(io::Error::other("unix sockets need a unix host")),
    };
    // A zero-duration timeout is invalid at the socket layer; treat it
    // as "no timeout" rather than refusing every connection.
    let timeout = read_timeout.filter(|t| !t.is_zero());
    let handler: Arc<Handler> = Arc::new(handler);
    // Every connection thread holds a clone of `live`, so its strong
    // count is one more than the live connections, and a slot frees
    // however its thread ends.
    let live = Arc::new(());
    loop {
        let (peer, split) = match &listener {
            Listener::Tcp(listener) => {
                let (socket, peer) = listener.accept()?;
                let _ = socket.set_read_timeout(timeout);
                (format!("{peer}: "), halves(socket, TcpStream::try_clone))
            }
            #[cfg(unix)]
            Listener::Unix(listener) => {
                let (socket, _) = listener.accept()?;
                let _ = socket.set_read_timeout(timeout);
                (String::new(), halves(socket, UnixStream::try_clone))
            }
        };
        let (reader, mut writer) = match split {
            Ok(halves) => halves,
            Err(e) => {
                eprintln!("macs-bench: {peer}clone failed: {e}");
                continue;
            }
        };
        // Only this thread clones `live`, so the check cannot race
        // another admission; connection threads only ever drop theirs.
        if Arc::strong_count(&live) > MAX_CONNECTIONS {
            let message =
                format!("the server is at its limit of {MAX_CONNECTIONS} connections; retry later");
            let _ = writeln!(writer, "{}", stream_row("overloaded", &message))
                .and_then(|()| writer.flush());
            continue;
        }
        let slot = Arc::clone(&live);
        let (handler, obs) = (Arc::clone(&handler), obs.clone());
        std::thread::spawn(move || {
            let _slot = slot;
            match dispatch(reader, writer, max_line_bytes, obs.as_ref(), &*handler) {
                Ok(Some(outcomes)) => eprintln!("macs-bench: {peer}{outcomes}"),
                Ok(None) => {}
                Err(e) => eprintln!("macs-bench: {peer}connection failed: {e}"),
            }
        });
    }
}

/// Sniffs the first bytes of one connection and dispatches it: a metrics
/// scrape is answered here, a sweep stream goes to `handler`. Returns
/// the stream's outcomes, or `None` for a scrape or a silent peer.
fn dispatch(
    reader: Box<dyn Read + Send>,
    writer: StreamOutput,
    max_line_bytes: usize,
    obs: Option<&ServeObs>,
    handler: &Handler,
) -> io::Result<Option<SweepOutcomes>> {
    let mut reader = BufReader::new(reader);
    // The sniff reads at most five bytes and degrades a stall to a
    // stream, so every peer still reaches a bounded line reader.
    let seen = match sniff_http(&mut reader)? {
        Sniff::Empty => return Ok(None),
        Sniff::Http => {
            answer_http(reader, max_line_bytes, writer, obs)?;
            return Ok(None);
        }
        Sniff::Stream(seen) => seen,
    };
    handler(io::Cursor::new(seen).chain(reader), writer).map(Some)
}

/// Answers an HTTP request sniffed off a sweep listener. Only
/// `GET /metrics` is served (the Prometheus text exposition,
/// `version=0.0.4`); anything else is a 404.
///
/// `reader` continues right after the request's verb. The rest of the
/// request line and then the headers are read like a request stream: at
/// most 64 header lines of at most `max_line_bytes` each, up to the
/// blank line that ends them, so well-behaved HTTP clients see a clean
/// close. An oversized or stalled line, or the end of the stream, stops
/// the reading, and the request is still answered.
fn answer_http(
    reader: impl Read,
    max_line_bytes: usize,
    mut writer: impl Write,
    obs: Option<&ServeObs>,
) -> io::Result<()> {
    let mut lines = BoundedLines::new(reader, max_line_bytes);
    let mut path = String::new();
    for index in 0..=64 {
        match lines.next_event() {
            Ok(LineEvent::Line(request)) if index == 0 => {
                path = request.split_whitespace().next().unwrap_or("").to_string();
            }
            Ok(LineEvent::Line(header)) if !header.trim().is_empty() => {}
            _ => break,
        }
    }
    let (status, body) = match (path.as_str(), obs) {
        ("/metrics", Some(o)) => ("200 OK", o.metrics.render_prometheus()),
        ("/metrics", None) => (
            "404 Not Found",
            "metrics disabled: start the server with --metrics\n".into(),
        ),
        _ => ("404 Not Found", "only /metrics is served here\n".into()),
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

/// An error row without a point identity: stream-level abuse
/// (`oversized`, `stalled`), a refused connection (`overloaded`), or the
/// coordinator's `protocol` row.
pub(crate) fn stream_row(kind: &str, message: &str) -> Json {
    Json::obj()
        .field("schema", SWEEP_ROW_SCHEMA)
        .field("status", "error")
        .field("error_kind", kind)
        .field("message", message)
}

/// One request line, as [`read_requests`] hands it on.
pub(crate) enum Request {
    /// A well-formed sweep point.
    Point(SweepPoint),
    /// A line that is no sweep point: the parse error and the line.
    Malformed(ProtocolError, String),
    /// A finished `oversized` or `stalled` row. A stalled stream ends
    /// after it.
    Abuse(Json),
}

/// Reads a sweep request stream until it ends, fails, or stalls, and
/// hands every non-blank line to `handle` as a [`Request`]. Lines are
/// capped at `max_line_bytes`. Oversized lines and stalled streams are
/// counted on `metrics`; with `parse_spans`, each parse records a
/// `parse` span under the given parent span id.
pub(crate) fn read_requests(
    input: impl Read,
    max_line_bytes: usize,
    metrics: Option<&Metrics>,
    parse_spans: Option<(&Tracer, u64)>,
    mut handle: impl FnMut(Request),
) {
    let counter = |name| metrics.map(|m| m.counter(name, &[]));
    let oversized = counter("macs_lines_oversized_total");
    let stalled = counter("macs_streams_stalled_total");
    let mut lines = BoundedLines::new(input, max_line_bytes);
    loop {
        let line = match lines.next_event() {
            Err(_) | Ok(LineEvent::Eof) => return,
            Ok(LineEvent::Stalled) => {
                // The peer dribbled past the read timeout: answer with a
                // structured row and end the stream, so a slowloris
                // costs one row, not a pinned thread.
                stalled.iter().for_each(Counter::inc);
                handle(Request::Abuse(stream_row(
                    "stalled",
                    "no complete request line within the read timeout; closing the stream",
                )));
                return;
            }
            Ok(LineEvent::Oversized { length }) => {
                oversized.iter().for_each(Counter::inc);
                handle(Request::Abuse(stream_row(
                    "oversized",
                    &format!(
                        "request line of {length}+ bytes exceeds the {max_line_bytes}-byte limit"
                    ),
                )));
                continue;
            }
            Ok(LineEvent::Line(line)) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let span = parse_spans.map(|(tracer, parent)| tracer.span_under("parse", parent));
        let parsed = parse_point(&line);
        drop(span);
        handle(match parsed {
            Ok(point) => Request::Point(point),
            Err(e) => Request::Malformed(e, line),
        });
    }
}
