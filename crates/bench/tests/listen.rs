//! Process-level tests of the shared listener behind `macs-bench --serve`
//! and `--coordinate`, driven over a Unix socket in both modes: rows
//! match the stdin rows byte for byte, `GET /metrics` answers mid-stream
//! and past an oversized or stalled header, and the connection limit
//! refuses one connection too many, then recovers. Also the command-line
//! rejections both modes share.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use c240_obs::json::Json;
use macs_bench::MAX_CONNECTIONS;

/// One service mode: its flag, its own flags, and (for the coordinator)
/// the flags forwarded to its `--serve` workers after `--`.
struct Mode {
    flag: &'static str,
    own: &'static [&'static str],
    forwarded: &'static [&'static str],
}

const SERVE: Mode = Mode {
    flag: "--serve",
    own: &["--workers", "1"],
    forwarded: &[],
};

const COORDINATE: Mode = Mode {
    flag: "--coordinate",
    own: &["--fleet", "1"],
    forwarded: &["--workers", "1"],
};

impl Mode {
    fn command(&self, extra: &[&str]) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_macs-bench"));
        cmd.arg(self.flag).args(self.own).args(extra);
        if !self.forwarded.is_empty() {
            cmd.arg("--").args(self.forwarded);
        }
        cmd
    }

    /// Runs one stream over stdin and returns stdout.
    fn over_stdin(&self, extra: &[&str], input: &str) -> String {
        let mut child = self
            .command(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("service spawns");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(input.as_bytes())
            .expect("requests written");
        let out = child.wait_with_output().expect("service exits");
        assert!(out.status.success(), "{}: {:?}", self.flag, out.status);
        String::from_utf8(out.stdout).expect("UTF-8 rows")
    }
}

/// A service listening on a Unix socket in its own temp directory;
/// killed and cleaned up on drop.
struct Server {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
}

impl Server {
    fn start(mode: &Mode, tag: &str, extra: &[&str]) -> Server {
        let dir = std::env::temp_dir().join(format!(
            "macs-listen-{tag}-{}-{}",
            &mode.flag[2..],
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let socket = dir.join("sweep.sock");
        let log = dir.join("stderr.log");
        let mut args: Vec<&str> = extra.to_vec();
        args.extend(["--unix", socket.to_str().expect("UTF-8 temp path")]);
        let child = mode
            .command(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log).expect("stderr log"))
            .spawn()
            .expect("service spawns");
        let server = Server { child, dir, socket };
        let deadline = Instant::now() + Duration::from_secs(30);
        let banner = format!("on unix socket {}", server.socket.display());
        while !std::fs::read_to_string(&log).is_ok_and(|l| l.contains(&banner)) {
            assert!(Instant::now() < deadline, "{} never bound", mode.flag);
            std::thread::sleep(Duration::from_millis(20));
        }
        server
    }

    fn connect(&self) -> UnixStream {
        let stream = UnixStream::connect(&self.socket).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("client read timeout");
        stream
    }

    /// Sends `input`, closes the write half, and reads the whole answer.
    fn try_exchange(&self, input: &[u8]) -> std::io::Result<String> {
        let mut stream = self.connect();
        stream.write_all(input)?;
        stream.shutdown(Shutdown::Write)?;
        let mut answer = String::new();
        stream.read_to_string(&mut answer)?;
        Ok(answer)
    }

    fn exchange(&self, input: &[u8]) -> String {
        self.try_exchange(input).expect("request answered")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Rows in completion order differ run to run; compare them sorted, and
/// the summary (always last) on its own.
fn sorted_rows(output: &str) -> (Vec<&str>, &str) {
    let mut rows: Vec<&str> = output.lines().collect();
    let summary = rows.pop().expect("summary row");
    rows.sort_unstable();
    (rows, summary)
}

/// A grid covering healthy, invalid, duplicate, malformed and oversized
/// lines (the service runs with `--max-line-bytes 512`).
fn grid() -> String {
    let mut grid = String::from(concat!(
        "{\"id\":\"ok1\",\"kernel\":12,\"passes\":1}\n",
        "{\"id\":\"ok2\",\"kernel\":3,\"passes\":1}\n",
        "{\"id\":\"badcfg\",\"kernel\":1,\"config\":{\"cpus\":0}}\n",
        "{\"id\":\"nokern\",\"kernel\":5}\n",
        "{\"id\":\"dup\",\"kernel\":12,\"passes\":1}\n",
        "this is not json\n",
    ));
    grid.push_str(&format!(
        "{{\"id\":\"big\",\"junk\":\"{}\"}}\n",
        "x".repeat(2048)
    ));
    grid
}

fn socket_rows_match_stdin_rows(mode: &Mode) {
    let extra = ["--max-line-bytes", "512"];
    let server = Server::start(mode, "rows", &extra);
    let over_socket = server.exchange(grid().as_bytes());
    let over_stdin = mode.over_stdin(&extra, &grid());
    assert_eq!(over_socket.lines().count(), 8, "{over_socket}");
    assert_eq!(sorted_rows(&over_socket), sorted_rows(&over_stdin));
}

#[test]
fn serve_socket_rows_match_stdin_rows_byte_for_byte() {
    socket_rows_match_stdin_rows(&SERVE);
}

#[test]
fn coordinate_socket_rows_match_stdin_rows_byte_for_byte() {
    socket_rows_match_stdin_rows(&COORDINATE);
}

fn metrics_answer_mid_stream(mode: &Mode) {
    let server = Server::start(mode, "scrape", &["--metrics"]);
    let mut stream = server.connect();
    stream
        .write_all(b"{\"id\":\"p\",\"kernel\":12,\"passes\":1}\n")
        .expect("point written");
    let mut rows = BufReader::new(stream.try_clone().expect("clone"));
    let mut row = String::new();
    rows.read_line(&mut row).expect("first row");
    assert!(row.contains("\"status\":\"ok\""), "{row}");

    // The stream is still open (under --serve it holds the sweep lock).
    let scrape = server.exchange(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n");
    assert!(scrape.starts_with("HTTP/1.0 200 OK\r\n"), "{scrape}");
    assert!(scrape.contains("macs_"), "{scrape}");

    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    rows.read_to_string(&mut rest).expect("summary");
    assert!(rest.contains("c240-sweep-summary/v1"), "{rest}");
}

#[test]
fn serve_metrics_answer_mid_stream() {
    metrics_answer_mid_stream(&SERVE);
}

#[test]
fn coordinate_metrics_answer_mid_stream() {
    metrics_answer_mid_stream(&COORDINATE);
}

fn oversized_scrape_headers_still_get_an_answer(mode: &Mode) {
    let extra = [
        "--metrics",
        "--max-line-bytes",
        "256",
        "--read-timeout-ms",
        "300",
    ];
    let server = Server::start(mode, "headers", &extra);
    let long = "a".repeat(4096);

    // A terminated header line far over the limit.
    let scrape =
        server.exchange(format!("GET /metrics HTTP/1.0\r\nX-Long: {long}\r\n\r\n").as_bytes());
    assert!(scrape.starts_with("HTTP/1.0 200 OK\r\n"), "{scrape}");

    // A header line that never ends: the peer stalls with the socket
    // open, and the read timeout cuts the drain short.
    let stalled = |request: String| {
        let mut stream = server.connect();
        stream
            .write_all(request.as_bytes())
            .expect("request written");
        let mut answer = String::new();
        stream.read_to_string(&mut answer).expect("answer read");
        answer
    };
    let answer = stalled(format!("GET /metrics HTTP/1.0\r\nX-Long: {long}"));
    assert!(answer.starts_with("HTTP/1.0 200 OK\r\n"), "{answer}");

    // The request line itself runs away: its path is never seen whole,
    // so the answer is a 404, but there is one.
    let answer = stalled(format!("GET /{long}"));
    assert!(answer.starts_with("HTTP/1.0 404 Not Found\r\n"), "{answer}");
}

#[test]
fn serve_oversized_scrape_headers_still_get_an_answer() {
    oversized_scrape_headers_still_get_an_answer(&SERVE);
}

#[test]
fn coordinate_oversized_scrape_headers_still_get_an_answer() {
    oversized_scrape_headers_still_get_an_answer(&COORDINATE);
}

fn connection_limit_refuses_then_recovers(mode: &Mode) {
    // No read timeout: the held connections stay idle until closed.
    let server = Server::start(mode, "limit", &["--read-timeout-ms", "0"]);
    let mut held: Vec<UnixStream> = (0..MAX_CONNECTIONS).map(|_| server.connect()).collect();

    // Connections are accepted in order, so this one finds every slot
    // taken.
    let refused = server.exchange(b"");
    let rows: Vec<&str> = refused.lines().collect();
    assert_eq!(
        rows.len(),
        1,
        "one row, then the connection closes: {refused}"
    );
    let row = Json::parse(rows[0]).expect("the refusal is a JSON row");
    let field = |key| row.get(key).and_then(Json::as_str);
    assert_eq!(field("schema"), Some("c240-sweep-row/v1"));
    assert_eq!(field("status"), Some("error"));
    assert_eq!(field("error_kind"), Some("overloaded"));
    assert!(
        field("message").is_some_and(|m| m.contains("64 connections")),
        "{row}"
    );

    // Closing one held connection frees its slot once the server sees
    // the close; until then a new connection may still be refused, and a
    // refusal that leaves the request unread may reset the connection.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(30);
    let served = loop {
        let answer = server.try_exchange(b"{\"id\":\"p\",\"kernel\":12,\"passes\":1}\n");
        match answer {
            Ok(answer) if !answer.contains("\"error_kind\":\"overloaded\"") => break answer,
            _ => {}
        }
        assert!(Instant::now() < deadline, "the slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    };
    let rows: Vec<&str> = served.lines().collect();
    assert_eq!(rows.len(), 2, "{served}");
    assert!(rows[0].contains("\"status\":\"ok\""), "{served}");
    assert!(rows[1].contains("c240-sweep-summary/v1"), "{served}");
}

#[test]
fn serve_connection_limit_refuses_then_recovers() {
    connection_limit_refuses_then_recovers(&SERVE);
}

#[test]
fn coordinate_connection_limit_refuses_then_recovers() {
    connection_limit_refuses_then_recovers(&COORDINATE);
}

/// Runs the binary with `args` and returns its exit code and stderr.
fn rejected(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_macs-bench"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn both_modes_reject_bad_command_lines_with_a_message() {
    let socket = Path::new("/nonexistent-dir/never-bound.sock");
    for mode in ["--serve", "--coordinate"] {
        let cases: [(&[&str], String); 3] = [
            (
                &[
                    "--listen",
                    "127.0.0.1:0",
                    "--unix",
                    socket.to_str().unwrap(),
                ],
                "--listen and --unix are mutually exclusive".into(),
            ),
            (&["--bogus"], format!("unknown {mode} flag \"--bogus\"")),
            (&["--journal"], "--journal needs a value".into()),
        ];
        for (args, message) in cases {
            let mut full = vec![mode];
            full.extend(args);
            let (code, stderr) = rejected(&full);
            assert_eq!(code, Some(1), "{full:?}: {stderr}");
            assert!(
                stderr.contains(&format!("macs-bench {mode}: {message}")),
                "{full:?}: {stderr}"
            );
        }
    }
}
