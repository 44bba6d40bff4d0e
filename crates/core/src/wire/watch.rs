//! `wsitool watch` internals (DESIGN.md §16): scrape the admin
//! plane's `/metrics` text, parse it into scalar samples, diff
//! consecutive scrapes into a deterministic rate table, and journal a
//! checksummed time-series ring for post-hoc rate analysis.
//!
//! Everything here is a pure function of its inputs: the diff table
//! and the snapshot ring depend only on the scraped sample maps and
//! the caller-supplied timestamps, never on a live clock — rates are
//! fixed-point integer math over the measured interval, so two
//! renders of the same pair of scrapes are byte-identical.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::doccache::content_hash;

use super::http::{self, HttpLimits};

/// One `GET` against the admin plane over a fresh connection.
/// Returns `(status, body)` — a `503 degraded` health check is a
/// *answer*, not an error, so non-200 statuses come back as data.
fn scrape_text(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    let mut stream = stream;
    http::write_request(&mut stream, "GET", target, "127.0.0.1", None, b"", true)
        .map_err(|e| format!("write {target}: {e:?}"))?;
    // A scrape body is the full exposition text — size it generously
    // but keep the framing caps (a runaway body still errors).
    let limits = HttpLimits { max_body: 16 << 20, ..HttpLimits::default() };
    let response =
        http::read_response(&stream, &limits).map_err(|e| format!("read {target}: {e:?}"))?;
    let body = String::from_utf8(response.body)
        .map_err(|_| format!("{target}: response body is not UTF-8"))?;
    Ok((response.status, body))
}

/// One poll of a running server's admin plane: its `/healthz` answer
/// and its parsed `/metrics` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scrape {
    /// `/healthz` status — a `503 degraded` is an answer, kept as data.
    pub health_status: u16,
    /// `/healthz` body (`ok`, `degraded`, `draining`).
    pub health_body: String,
    /// `/metrics` samples, per [`parse_prometheus`].
    pub samples: BTreeMap<String, u64>,
}

/// Scrapes `/healthz` then `/metrics` on fresh connections. A
/// `/metrics` answer other than `200` is refused, as is a payload
/// [`parse_prometheus`] rejects; each error names the step that
/// failed.
pub fn scrape(addr: SocketAddr, timeout: Duration) -> Result<Scrape, String> {
    let (health_status, health_body) =
        scrape_text(addr, "/healthz", timeout).map_err(|e| format!("healthz scrape failed: {e}"))?;
    let (status, text) =
        scrape_text(addr, "/metrics", timeout).map_err(|e| format!("metrics scrape failed: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}, expected 200"));
    }
    let samples =
        parse_prometheus(&text).map_err(|e| format!("unparseable /metrics payload: {e}"))?;
    Ok(Scrape { health_status, health_body, samples })
}

/// Parses Prometheus text exposition into `name → value` samples.
///
/// Comment lines (`# HELP`, `# TYPE`, snapshot framing) and blanks
/// are skipped; an exemplar suffix (`… # {request_id="…"} 1600`) is
/// stripped before the value parse. The sample name keeps its label
/// set verbatim (`wire_server_responses_total{code="503"}`), so the
/// map's `BTreeMap` order is the registry's render order. Returns an
/// error naming the first malformed line — a scrape is either fully
/// parseable or rejected, never half-read.
pub fn parse_prometheus(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `value # {exemplar} exemplar_value` — everything from the
        // exemplar marker on is metadata, not the sample.
        let stripped = match line.find(" # {") {
            Some(at) => &line[..at],
            None => line,
        };
        let Some((name, value)) = stripped.rsplit_once(' ') else {
            return Err(format!("unparseable sample line: {line:?}"));
        };
        let value: u64 = value
            .parse()
            .map_err(|_| format!("non-integer sample value in: {line:?}"))?;
        samples.insert(name.trim_end().to_string(), value);
    }
    Ok(samples)
}

/// How a sample moves between scrapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Monotonic by contract — a negative delta means a counter
    /// reset (flagged, never silently clamped).
    Counter,
    /// Free to move both ways.
    Gauge,
}

/// Classifies a sample name by the registry's naming conventions:
/// `_total` / `_count` / `_sum` suffixes and `_bucket{` series are
/// counters, everything else (gauges, `_max`/`_p50`/`_p95`/`_p99`
/// quantile families) is a gauge.
pub fn sample_kind(name: &str) -> SampleKind {
    let base = name.split('{').next().unwrap_or(name);
    if base.ends_with("_total")
        || base.ends_with("_count")
        || base.ends_with("_sum")
        || base.ends_with("_bucket")
    {
        SampleKind::Counter
    } else {
        SampleKind::Gauge
    }
}

/// One row of the snapshot-diff table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeDiff {
    /// Full sample name, labels included.
    pub name: String,
    /// Counter or gauge, per [`sample_kind`].
    pub kind: SampleKind,
    /// Value in the earlier scrape (0 when the sample is new).
    pub prev: u64,
    /// Value in the later scrape (0 when the sample vanished).
    pub next: u64,
    /// Signed movement `next - prev`.
    pub delta: i64,
    /// Counter rate in milli-units per second
    /// (`delta × 1_000_000 / interval_ms`), fixed-point so rendering
    /// is deterministic; 0 for gauges and non-positive deltas.
    pub rate_milli_per_s: u64,
}

/// Diffs two scrapes over the union of their sample names (sorted —
/// both maps are `BTreeMap`s), computing fixed-point counter rates
/// over `interval_ms`. Pure in its inputs.
pub fn diff_samples(
    prev: &BTreeMap<String, u64>,
    next: &BTreeMap<String, u64>,
    interval_ms: u64,
) -> Vec<ScrapeDiff> {
    let mut names: Vec<&String> = prev.keys().chain(next.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let p = prev.get(name).copied().unwrap_or(0);
            let n = next.get(name).copied().unwrap_or(0);
            let kind = sample_kind(name);
            let delta = n as i64 - p as i64;
            let rate_milli_per_s = match (kind, delta) {
                (SampleKind::Counter, d) if d > 0 && interval_ms > 0 => {
                    (d as u64).saturating_mul(1_000_000) / interval_ms
                }
                _ => 0,
            };
            ScrapeDiff { name: name.clone(), kind, prev: p, next: n, delta, rate_milli_per_s }
        })
        .collect()
}

/// Counter rows that moved backwards: each one is a counter reset.
pub fn counter_resets(rows: &[ScrapeDiff]) -> usize {
    rows.iter().filter(|row| row.kind == SampleKind::Counter && row.delta < 0).count()
}

/// Renders the diff rows as a fixed-width table. With `only_changed`,
/// unmoved rows are elided and summarized in the trailer line. The
/// output is a pure function of the rows.
pub fn render_diff_table(rows: &[ScrapeDiff], only_changed: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<56} {:>5} {:>12} {:>12} {:>10} {:>12}\n",
        "METRIC", "KIND", "PREV", "NEXT", "DELTA", "RATE/S"
    ));
    let mut unchanged = 0usize;
    for row in rows {
        if row.delta == 0 && only_changed {
            unchanged += 1;
            continue;
        }
        let kind = match row.kind {
            SampleKind::Counter => "ctr",
            SampleKind::Gauge => "gauge",
        };
        let rate = format!(
            "{}.{:03}",
            row.rate_milli_per_s / 1000,
            row.rate_milli_per_s % 1000
        );
        out.push_str(&format!(
            "{:<56} {:>5} {:>12} {:>12} {:>+10} {:>12}\n",
            row.name, kind, row.prev, row.next, row.delta, rate
        ));
    }
    out.push_str(&format!(
        "-- {} samples, {} unchanged, {} counter resets\n",
        rows.len(),
        unchanged,
        counter_resets(rows)
    ));
    out
}

/// One journaled scrape: the raw sample map plus the caller's
/// timestamp (the watch loop stamps wall-clock; tests stamp virtual
/// time so frames are reproducible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFrame {
    /// Frame ordinal within the ring's lifetime (survives eviction —
    /// a gap in sequence numbers on disk means frames were evicted).
    pub seq: u64,
    /// Caller-supplied capture timestamp, milliseconds.
    pub at_ms: u64,
    /// The parsed scrape.
    pub samples: BTreeMap<String, u64>,
}

impl SnapshotFrame {
    /// The canonical sample block the checksum covers: one
    /// `name value` line per sample in map order.
    fn sample_block(&self) -> String {
        let mut block = String::new();
        for (name, value) in &self.samples {
            block.push_str(name);
            block.push(' ');
            block.push_str(&value.to_string());
            block.push('\n');
        }
        block
    }

    /// Serializes the frame: a framing comment carrying seq,
    /// timestamp and the FNV-1a checksum of the sample block, then
    /// the block itself (valid Prometheus text — [`parse_prometheus`]
    /// reads it back), then an end marker.
    pub fn render(&self) -> String {
        let block = self.sample_block();
        format!(
            "# snapshot seq={} at_ms={} checksum={:016x}\n{block}# end snapshot {}\n",
            self.seq,
            self.at_ms,
            content_hash(block.as_bytes()),
            self.seq
        )
    }
}

/// A capacity-bounded ring of [`SnapshotFrame`]s — the `--snapshots
/// FILE` journal. Eviction is oldest-first; `seq` keeps counting so
/// the on-disk record shows what was dropped.
#[derive(Debug)]
pub struct SnapshotRing {
    capacity: usize,
    next_seq: u64,
    /// Frames evicted over the ring's lifetime.
    pub evicted: u64,
    /// Live frames, oldest first.
    pub frames: VecDeque<SnapshotFrame>,
}

impl SnapshotRing {
    /// An empty ring holding at most `capacity` frames.
    pub fn new(capacity: usize) -> SnapshotRing {
        SnapshotRing {
            capacity: capacity.max(1),
            next_seq: 0,
            evicted: 0,
            frames: VecDeque::new(),
        }
    }

    /// Appends one scrape, evicting the oldest frame when full.
    pub fn push(&mut self, at_ms: u64, samples: BTreeMap<String, u64>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.frames.len() >= self.capacity {
            self.frames.pop_front();
            self.evicted += 1;
        }
        self.frames.push_back(SnapshotFrame { seq, at_ms, samples });
        seq
    }

    /// Serializes every live frame in order — the `--snapshots`
    /// artifact body.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for frame in &self.frames {
            out.push_str(&frame.render());
        }
        out
    }

    /// Writes the rendered ring to `path` (whole-file rewrite: the
    /// ring is the source of truth, the file is its snapshot).
    pub fn persist(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.render().as_bytes())?;
        file.flush()
    }

    /// Parses a rendered ring back, verifying every frame checksum.
    /// Returns an error naming the first bad frame — a corrupted
    /// journal is rejected, not partially trusted.
    pub fn parse(text: &str) -> Result<Vec<SnapshotFrame>, String> {
        let mut frames = Vec::new();
        let mut lines = text.lines().peekable();
        while let Some(line) = lines.next() {
            if line.trim().is_empty() {
                continue;
            }
            let header = line
                .strip_prefix("# snapshot ")
                .ok_or_else(|| format!("expected snapshot header, got: {line:?}"))?;
            let mut seq = None;
            let mut at_ms = None;
            let mut checksum = None;
            for part in header.split_whitespace() {
                if let Some(v) = part.strip_prefix("seq=") {
                    seq = v.parse::<u64>().ok();
                } else if let Some(v) = part.strip_prefix("at_ms=") {
                    at_ms = v.parse::<u64>().ok();
                } else if let Some(v) = part.strip_prefix("checksum=") {
                    checksum = u64::from_str_radix(v, 16).ok();
                }
            }
            let (Some(seq), Some(at_ms), Some(checksum)) = (seq, at_ms, checksum) else {
                return Err(format!("malformed snapshot header: {line:?}"));
            };
            let end_marker = format!("# end snapshot {seq}");
            let mut block = String::new();
            loop {
                let Some(line) = lines.next() else {
                    return Err(format!("snapshot {seq} is truncated (no end marker)"));
                };
                if line == end_marker {
                    break;
                }
                block.push_str(line);
                block.push('\n');
            }
            let actual = content_hash(block.as_bytes());
            if actual != checksum {
                return Err(format!(
                    "snapshot {seq} checksum mismatch: header {checksum:016x}, body {actual:016x}"
                ));
            }
            let samples = parse_prometheus(&block)?;
            frames.push(SnapshotFrame { seq, at_ms, samples });
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MetricsRegistry;

    fn samples(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn parses_a_real_registry_render_exemplars_included() {
        let registry = MetricsRegistry::new();
        registry.counter_handle("wire_server_accepted_total").inc();
        registry.gauge_handle("wire_server_queued").set(3);
        let hist = registry.histogram_handle("wire_server_request_ns");
        hist.observe_ns_with_exemplar(1_500, 0xBEEF);
        let text = registry.render_prometheus();
        let samples = parse_prometheus(&text).expect("full render parses");
        assert_eq!(samples["wire_server_accepted_total"], 1);
        assert_eq!(samples["wire_server_queued"], 3);
        assert_eq!(samples["wire_server_request_ns_count"], 1);
        // The exemplar-annotated bucket line parses to its count.
        assert!(samples.keys().any(|k| k.starts_with("wire_server_request_ns_bucket{")));
    }

    #[test]
    fn rejects_malformed_sample_lines() {
        assert!(parse_prometheus("just_a_name\n").is_err());
        assert!(parse_prometheus("name notanumber\n").is_err());
        assert!(parse_prometheus("# any comment\n\n").expect("comments ok").is_empty());
    }

    #[test]
    fn kind_classification_follows_naming_conventions() {
        assert_eq!(sample_kind("x_total"), SampleKind::Counter);
        assert_eq!(sample_kind("x_ns_count"), SampleKind::Counter);
        assert_eq!(sample_kind("x_ns_sum"), SampleKind::Counter);
        assert_eq!(sample_kind("x_ns_bucket{le=\"+Inf\"}"), SampleKind::Counter);
        assert_eq!(sample_kind("wire_server_queued"), SampleKind::Gauge);
        assert_eq!(sample_kind("x_ns_p99"), SampleKind::Gauge);
    }

    #[test]
    fn diff_and_table_are_deterministic() {
        let prev = samples(&[("a_total", 10), ("queued", 5)]);
        let next = samples(&[("a_total", 30), ("queued", 2), ("b_total", 1)]);
        let rows = diff_samples(&prev, &next, 2_000);
        assert_eq!(rows.len(), 3);
        let a = rows.iter().find(|r| r.name == "a_total").unwrap();
        assert_eq!(a.delta, 20);
        // 20 over 2s = 10/s = 10_000 milli-units.
        assert_eq!(a.rate_milli_per_s, 10_000);
        let q = rows.iter().find(|r| r.name == "queued").unwrap();
        assert_eq!(q.delta, -3);
        assert_eq!(q.rate_milli_per_s, 0, "gauges have no rate");
        let table_a = render_diff_table(&rows, false);
        let table_b = render_diff_table(&diff_samples(&prev, &next, 2_000), false);
        assert_eq!(table_a, table_b);
        assert!(table_a.contains("10.000"));
    }

    #[test]
    fn scrape_refuses_a_non_200_metrics_answer() {
        // Both requests are answered 503: `/healthz` keeps it as data,
        // `/metrics` refuses it.
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        std::thread::spawn(move || {
            for mut conn in listener.incoming().take(2).flatten() {
                let (mut head, mut byte) = (Vec::new(), [0u8; 1]);
                while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).is_ok_and(|n| n == 1) {
                    head.push(byte[0]);
                }
                let _ = conn.write_all(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 8\r\n\r\ndegraded");
            }
        });
        let err = scrape(addr, Duration::from_secs(5)).expect_err("a 503 /metrics is refused");
        assert_eq!(err, "/metrics answered 503, expected 200");
    }

    #[test]
    fn snapshot_frame_checksum_is_pinned() {
        // Snapshot files written by earlier builds must still verify.
        let mut ring = SnapshotRing::new(1);
        ring.push(1_000, samples(&[("a_total", 7), ("wire_server_queued", 2)]));
        let rendered = ring.render();
        let header = "# snapshot seq=0 at_ms=1000 checksum=175e964def44947f\n";
        assert!(rendered.starts_with(header), "{rendered}");
    }

    #[test]
    fn snapshot_ring_round_trips_and_rejects_corruption() {
        let mut ring = SnapshotRing::new(2);
        ring.push(100, samples(&[("a_total", 1)]));
        ring.push(200, samples(&[("a_total", 2)]));
        ring.push(300, samples(&[("a_total", 5), ("queued", 1)]));
        assert_eq!(ring.evicted, 1);
        assert_eq!(ring.frames.len(), 2);
        let text = ring.render();
        let frames = SnapshotRing::parse(&text).expect("round trip");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 1, "oldest surviving frame");
        assert_eq!(frames[1].at_ms, 300);
        assert_eq!(frames[1].samples["a_total"], 5);
        // A flipped sample value no longer matches the checksum.
        let corrupted = text.replace("a_total 5", "a_total 6");
        assert!(SnapshotRing::parse(&corrupted).is_err());
        // Truncation (missing end marker) is rejected too.
        let truncated = text.rsplit_once("# end").map(|(head, _)| head).unwrap();
        assert!(SnapshotRing::parse(truncated).is_err());
    }

    #[test]
    fn ring_frames_diff_like_live_scrapes() {
        let mut ring = SnapshotRing::new(8);
        ring.push(0, samples(&[("ops_total", 0)]));
        ring.push(1_000, samples(&[("ops_total", 50)]));
        let frames: Vec<SnapshotFrame> = ring.frames.iter().cloned().collect();
        let rows = diff_samples(
            &frames[0].samples,
            &frames[1].samples,
            frames[1].at_ms - frames[0].at_ms,
        );
        assert_eq!(rows[0].rate_milli_per_s, 50_000);
    }
}
