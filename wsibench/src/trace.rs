//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the program's public functions. They stay in memory until the run
//! ends; per-layer busy time, self time and latency quantiles are all
//! computed from them, and `--trace-out` writes them as JSON lines.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary: `server.deploy`, `wire.wait`, …
    pub name: &'static str,
    /// Shared by every span of one request or one campaign cell.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span store with a common time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A store whose clock starts at `origin`; tracers that share an
    /// origin can be merged.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that ends at [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.open(name, id, parent);
        let out = f();
        self.close(index);
        out
    }

    /// Appends every span of `other` (same origin), keeping parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total time spent inside spans called `name`.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Each span's duration minus the part its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
            .collect()
    }

    /// `(name, spans, total ns, self ns)` per span name, sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut rows: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            std::collections::BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.duration_ns();
            row.2 += own;
        }
        rows.into_iter()
            .map(|(name, (n, total, own))| (name, n, total, own))
            .collect()
    }

    /// Writes one JSON object per span: name, id, span index, parent,
    /// start and end in nanoseconds since the run's origin.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"span\":{index},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 70),
            span("a.inner", Some(1), 15, 35),
        ];
        assert_eq!(t.self_ns(), vec![50, 10, 20, 20]);
        assert_eq!(t.busy_ns("a"), 30);
        let summary = t.summary();
        assert_eq!(summary[0], ("a", 1, 30, 10));
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("root", 1, None);
        a.close(root);
        let mut b = Tracer::new(origin);
        let p = b.open("req", 2, None);
        b.time("child", 2, Some(p), || ());
        b.close(p);
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.count("child"), 1);
    }
}
