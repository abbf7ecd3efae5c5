//! In-memory spans of the traced run, written out as JSONL at the end.
//!
//! A span covers one call the benchmark makes into a layer (`connect`,
//! `write`, `read`, `submit`, `resolve`, `parse`, `execute`). Spans of
//! one request share its id: queries use their trace index, updates
//! [`UPDATE_ID_BASE`] plus theirs.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Offset separating update ids from query ids.
pub const UPDATE_ID_BASE: u64 = 1 << 32;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// A span buffer for one thread; merged at the end of the run.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span of request `id`.
    pub fn record(&mut self, id: u64, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            id,
            name,
            start,
            end,
        });
    }

    /// Appends another buffer's spans.
    pub fn merge(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span, times in µs from `t0`, sorted by
    /// start time.
    pub fn write_jsonl(&mut self, path: &Path, t0: Instant) -> std::io::Result<()> {
        self.spans.sort_by_key(|s| (s.start, s.id));
        let mut out = String::with_capacity(self.spans.len() * 64);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"span\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.id,
                s.name,
                s.start.saturating_duration_since(t0).as_micros(),
                s.end.saturating_duration_since(t0).as_micros(),
            );
        }
        std::fs::write(path, out)
    }
}
