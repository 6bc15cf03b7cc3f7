//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span carries a name, start, end, the span that caused it and its own
//! id. Spans live in memory and are written as JSON lines when the
//! benchmark ends, so recording costs one vector push. A disabled tracer
//! records nothing, and the untraced pass runs with one.

use std::io::Write;
use std::time::Instant;

/// Span id 0 means "no parent".
pub const ROOT: u32 = 0;

/// Recorded spans beyond this are counted, not kept, so a long run cannot
/// exhaust memory.
const BUDGET: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new(), dropped: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was made: the clock every span uses.
    pub fn now_ns(&self) -> u64 {
        crate::stats::ns(self.origin.elapsed())
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn at_ns(&self, at: Instant) -> u64 {
        crate::stats::ns(at.saturating_duration_since(self.origin))
    }

    /// Records a finished span and returns its id (0 when disabled or over
    /// budget, which children then treat as the root).
    pub fn record(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() >= BUDGET {
            self.dropped += 1;
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, name, start_ns, end_ns });
        id
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let now = self.now_ns();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children count once; child time outside
/// the parent's interval is ignored). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name, in first-seen order: count, total duration and total
/// self time, in nanoseconds.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let dur = s.end_ns - s.start_ns;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += dur;
                r.3 += self_ns;
            }
            None => rows.push((s.name, 1, dur, self_ns)),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new(true);
        // root [0, 100): children [10, 30) and [20, 50) overlap (cover
        // [10, 50) = 40) and [90, 120) sticks out of the parent (covers 10).
        let root = t.record("root", ROOT, 0, 100);
        let a = t.record("a", root, 10, 30);
        t.record("b", root, 20, 50);
        t.record("c", root, 90, 120);
        // a's own child [12, 18) leaves a with 20 - 6 = 14.
        t.record("d", a, 12, 18);
        let selfs = self_times(t.spans());
        assert_eq!(selfs, vec![100 - 40 - 10, 14, 30, 30, 6]);
        let rows = by_name(t.spans());
        assert_eq!(rows[0], ("root", 1, 100, 50));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", ROOT);
        t.close(id);
        assert_eq!(id, ROOT);
        assert!(t.spans().is_empty());
    }
}
