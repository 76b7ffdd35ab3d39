//! Driving `macs-bench --serve` and `--coordinate` from outside: spawn
//! the process, run a closed loop over its stdin/stdout, and read its
//! peak memory from `/proc`.

use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use c240_obs::json::Json;
use macs_core::sweep::parse_point;

use crate::gen::{Request, WARMUP};

/// Longest wait for any single row before the run is declared failed.
const ROW_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest wait for a process to exit after its stdin closes.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// A spawned sweep process with a reader thread stamping each output
/// line with its arrival time.
pub struct Served {
    child: Child,
    stdin: Option<ChildStdin>,
    rows: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Served {
    pub fn spawn(program: &Path, args: &[String]) -> io::Result<Served> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rows) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Served {
            child,
            stdin: Some(stdin),
            rows,
            reader: Some(reader),
        })
    }

    /// Spawns and times launch → the answer to [`WARMUP`].
    pub fn spawn_warm(program: &Path, args: &[String]) -> Result<(Served, f64), String> {
        let start = Instant::now();
        let mut served = Served::spawn(program, args).map_err(|e| format!("spawn: {e}"))?;
        served.send(WARMUP)?;
        let (at, row) = served.recv()?;
        if !row.contains("\"status\":\"ok\"") {
            return Err(format!("warm-up request failed: {row}"));
        }
        Ok((served, (at - start).as_secs_f64()))
    }

    fn send(&mut self, line: &str) -> Result<Instant, String> {
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        let at = Instant::now();
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write request: {e}"))?;
        Ok(at)
    }

    fn recv(&self) -> Result<(Instant, String), String> {
        match self.rows.recv_timeout(ROW_TIMEOUT) {
            Ok(r) => Ok(r),
            Err(RecvTimeoutError::Timeout) => Err(format!("no row within {ROW_TIMEOUT:?}")),
            Err(RecvTimeoutError::Disconnected) => Err("the process closed its output".into()),
        }
    }

    /// Peak resident memory of the process and every descendant, in
    /// MiB (the sum of each process's `VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        let mut total_kb = 0u64;
        let mut stack = vec![self.child.id()];
        while let Some(pid) = stack.pop() {
            total_kb += vm_hwm_kb(pid).unwrap_or(0);
            stack.extend(children(pid));
        }
        total_kb as f64 / 1024.0
    }

    /// Closes stdin, collects the end-of-stream summary row, and waits
    /// for the process to exit.
    pub fn finish(mut self) -> Result<Json, String> {
        drop(self.stdin.take());
        let mut summary = None;
        loop {
            match self.rows.recv_timeout(EXIT_TIMEOUT) {
                Ok((_, line)) => {
                    let row = Json::parse(&line).map_err(|e| format!("bad row {line}: {e}"))?;
                    if row.get("schema").and_then(Json::as_str) == Some("c240-sweep-summary/v1") {
                        summary = Some(row);
                    } else {
                        return Err(format!("row after the last request: {line}"));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => return Err("process did not exit".into()),
            }
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(format!("process exited with {status}"));
        }
        summary.ok_or_else(|| "no summary row".to_string())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn children(pid: u32) -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|s| {
            s.split_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect::<Vec<u32>>()
        })
        .collect()
}

/// How a request related to the keys answered before it was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The key was already answered: the store can serve it.
    Hit,
    /// The key was never sent before: it must be computed.
    Miss,
    /// The key was sent but not yet answered (joins a computation).
    Joined,
    /// A seeded invalid line.
    Invalid,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Position in the request stream.
    pub index: usize,
    pub class: Class,
    pub line: String,
    pub expect_error: Option<&'static str>,
    /// The row's point key (`None` for protocol-error rows).
    pub key: Option<String>,
    pub sent: Instant,
    pub done: Instant,
    pub row: String,
}

impl Answer {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// A closed loop with `window` outstanding requests: a request is
/// written only when an earlier one has been answered. Sends from
/// `requests` until `until` has passed and at least `min` requests have
/// gone out, then drains. Rows are matched to requests
/// by point key (rows may come back in any order, and a cached row
/// carries the `id` of the request that computed it); keyless protocol
/// error rows match the oldest outstanding request with an unparseable
/// line.
pub fn closed_loop(
    served: &mut Served,
    requests: &mut dyn Iterator<Item = (usize, Request)>,
    until: Instant,
    min: usize,
    window: usize,
    answered: &mut HashSet<String>,
) -> Result<Vec<Answer>, String> {
    let mut sent_keys: HashSet<String> = answered.clone();
    let mut outstanding: Vec<Answer> = Vec::new();
    let mut done = Vec::new();
    let mut sent = 0;
    loop {
        while outstanding.len() < window && (sent < min || Instant::now() < until) {
            let Some((index, req)) = requests.next() else {
                break;
            };
            let key = parse_point(&req.line).ok().map(|p| p.key());
            let class = match &key {
                _ if req.expect_error.is_some() => Class::Invalid,
                Some(k) if answered.contains(k) => Class::Hit,
                Some(k) if sent_keys.contains(k) => Class::Joined,
                _ => Class::Miss,
            };
            if let Some(k) = &key {
                sent_keys.insert(k.clone());
            }
            let at = served.send(&req.line)?;
            sent += 1;
            outstanding.push(Answer {
                index,
                class,
                line: req.line,
                expect_error: req.expect_error,
                key,
                sent: at,
                done: at,
                row: String::new(),
            });
        }
        if outstanding.is_empty() {
            return Ok(done);
        }
        let (at, row) = served.recv()?;
        let parsed = Json::parse(&row).map_err(|e| format!("bad row {row}: {e}"))?;
        let key = parsed.get("key").and_then(Json::as_str);
        let slot = outstanding
            .iter()
            .position(|a| a.key.as_deref() == key)
            .ok_or_else(|| format!("row answers no outstanding request: {row}"))?;
        let mut answer = outstanding.remove(slot);
        answer.done = at;
        answer.row = row;
        if let Some(k) = &answer.key {
            answered.insert(k.clone());
        }
        done.push(answer);
    }
}
