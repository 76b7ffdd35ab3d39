//! The benchmark's own spans: one per timed call into a layer, kept in
//! memory during a traced run as `c240_obs` span records and written out
//! in the repository's span NDJSON when it ends.

use std::path::Path;
use std::time::Instant;

use c240_obs::span::spans_to_ndjson;
use c240_obs::{monotonic_ns, SpanRecord};

pub struct SpanLog {
    /// The same instant as `origin_ns` on the process monotonic clock.
    origin: Instant,
    origin_ns: u64,
    records: Vec<SpanRecord>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin_ns: monotonic_ns(),
            origin: Instant::now(),
            records: Vec::new(),
        }
    }

    /// Records a root span over `start..end`.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let offset = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.records.push(SpanRecord {
            id: self.records.len() as u64 + 1,
            parent: 0,
            name: name.to_string(),
            tid: 0,
            start_ns: self.origin_ns + offset,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            args: Vec::new(),
        });
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, spans_to_ndjson(&self.records))
    }
}
