//! The observer bundle and its operator-facing exports: end-of-run
//! phase-latency report, top-10 slowest cells, and the live stderr
//! progress meter.
//!
//! [`Obs`] ties the three primitives together — a [`Clock`], a
//! [`MetricsRegistry`] and a [`TraceSink`] — and owns the glue the
//! campaign calls: `begin_phase`/`end_phase` emit the enter/exit trace
//! events, feed the per-phase and per-pair histograms, and track the
//! slowest cells, all without ever feeding a value back into the
//! pipeline (the determinism contract: telemetry observes, never
//! steers).

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

use crate::obs::clock::{Clock, Stopwatch};
use crate::obs::event::{TraceEvent, TracePhase, TraceSink};
use crate::obs::metrics::{HistogramHandle, LazyCounter, MetricsRegistry};
use crate::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};

/// How many slowest cells the end-of-run report keeps.
pub const SLOWEST_KEPT: usize = 10;

/// One entry in the slowest-cells table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowCell {
    /// Server framework name.
    pub server: String,
    /// Client subsystem name, when the phase involves one.
    pub client: Option<String>,
    /// Fully-qualified type under test.
    pub type_id: String,
    /// Which pipeline phase the duration belongs to.
    pub phase: TracePhase,
    /// Observed duration in nanoseconds.
    pub dur_ns: u64,
}

/// Dense index for the per-phase handle cache (covers every
/// [`TracePhase`] variant).
fn phase_idx(phase: TracePhase) -> usize {
    match phase {
        TracePhase::Describe => 0,
        TracePhase::Generate => 1,
        TracePhase::Compile => 2,
        TracePhase::Exchange => 3,
        TracePhase::Wire => 4,
        TracePhase::Fuzz => 5,
    }
}

/// Number of [`TracePhase`] variants, for the handle array.
const PHASE_COUNT: usize = 6;

/// Key of the per-pair histogram cache. Both name halves are
/// `&'static str` in every caller (framework/client registry names),
/// so the key allocates nothing.
type PairKey = (usize, &'static str, Option<&'static str>);

/// The observer: clock + metrics + trace sink + progress, attached to
/// a campaign with [`crate::Campaign::with_observer`].
#[derive(Debug)]
pub struct Obs {
    clock: Clock,
    metrics: std::sync::Arc<MetricsRegistry>,
    trace: TraceSink,
    slowest: Mutex<Vec<SlowCell>>,
    /// Admission threshold for the slowest table: once the table is
    /// full this holds the 10th-slowest duration, so spans strictly
    /// faster than it skip the lock (and the allocation) entirely.
    /// Ties still take the slow path — the table is ordered by the
    /// *total* (duration, identity) order, so which tie survives never
    /// depends on arrival order.
    slowest_floor: AtomicU64,
    progress: ProgressMeter,
    /// Aggregate per-phase histogram handles, resolved on first use so
    /// an untouched phase never registers (exports stay identical to
    /// the name-lookup era).
    phase_ns: [OnceLock<HistogramHandle>; PHASE_COUNT],
    /// Per-(phase, server, client) histogram handles. After the first
    /// span of a pair, `end_phase` neither builds the labeled metric
    /// name nor touches the registry lock — one shared-read lookup
    /// here replaces both.
    pair_ns: RwLock<HashMap<PairKey, HistogramHandle>>,
    /// `campaign_cells_total`, resolved once.
    cells_total: LazyCounter,
}

impl Obs {
    /// An observer over the given clock with default sink capacity.
    pub fn new(clock: Clock) -> Obs {
        Obs {
            clock,
            metrics: std::sync::Arc::new(MetricsRegistry::new()),
            trace: TraceSink::default(),
            slowest: Mutex::new(Vec::new()),
            slowest_floor: AtomicU64::new(0),
            progress: ProgressMeter::new(),
            phase_ns: [const { OnceLock::new() }; PHASE_COUNT],
            pair_ns: RwLock::new(HashMap::new()),
            cells_total: LazyCounter::new(),
        }
    }

    /// An observer with an explicit trace-sink capacity (tests).
    pub fn with_sink_capacity(clock: Clock, capacity: usize) -> Obs {
        Obs {
            trace: TraceSink::with_capacity(capacity),
            ..Obs::new(clock)
        }
    }

    /// Convenience: real wall-clock observer.
    pub fn monotonic() -> Obs {
        Obs::new(Clock::monotonic())
    }

    /// The clock instrumented code should time spans with.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A shareable handle to the registry, for instruments that
    /// outlive a borrow (the fault log, doc cache, journal writer,
    /// wire endpoints).
    pub fn metrics_arc(&self) -> std::sync::Arc<MetricsRegistry> {
        std::sync::Arc::clone(&self.metrics)
    }

    /// The trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The live progress meter (disabled until `enable` is called).
    pub fn progress(&self) -> &ProgressMeter {
        &self.progress
    }

    /// Stream trace events to `path` as JSON lines.
    pub fn set_trace_out(&self, path: &Path) -> std::io::Result<()> {
        self.trace.set_output(path)
    }

    /// Open a phase span: emits the enter event and starts the span
    /// timer keyed deterministically by phase + cell identity.
    pub fn begin_phase(
        &self,
        phase: TracePhase,
        server: &'static str,
        client: Option<&'static str>,
        type_id: &str,
    ) -> Stopwatch {
        let mut event = TraceEvent::enter(phase, server, type_id);
        if let Some(c) = client {
            event = event.with_client(c);
        }
        self.trace.record(event);
        if self.clock.is_monotonic() {
            // The span key only matters on the virtual clock (it *is*
            // the duration there); skip building it on the real one.
            return Stopwatch::real();
        }
        let key = span_key(phase, server, client, type_id);
        self.clock.start_span(&key)
    }

    /// Close a phase span: emits the exit event, feeds the aggregate
    /// and per-pair histograms, and updates the slowest-cells table.
    #[allow(clippy::too_many_arguments)]
    pub fn end_phase(
        &self,
        phase: TracePhase,
        server: &'static str,
        client: Option<&'static str>,
        type_id: &str,
        outcome: &'static str,
        fault_site: Option<&str>,
        retries: u64,
        breaker_open: bool,
        span: Stopwatch,
    ) {
        let dur_ns = span.elapsed_ns();
        let mut event = TraceEvent::enter(phase, server, type_id)
            .with_resilience(retries, breaker_open)
            .exit(outcome, dur_ns);
        if let Some(c) = client {
            event = event.with_client(c);
        }
        if let Some(site) = fault_site {
            event = event.with_fault_site(site);
        }
        self.trace.record(event);

        self.phase_ns[phase_idx(phase)]
            .get_or_init(|| self.metrics.histogram_handle(phase.metric_ns()))
            .observe_ns(dur_ns);
        self.pair_handle(phase, server, client).observe_ns(dur_ns);

        // Fast path: a span strictly faster than the full table's
        // floor can never enter the top 10 — no lock, no allocation.
        if dur_ns < self.slowest_floor.load(Ordering::Relaxed) {
            return;
        }
        // lock-order: L2 (obs handle caches / slowest table) — leaf.
        let mut slowest = lock_unpoisoned(&self.slowest);
        slowest.push(SlowCell {
            server: server.to_string(),
            client: client.map(str::to_string),
            type_id: type_id.to_string(),
            phase,
            dur_ns,
        });
        // Deterministic order: duration descending, then identity, so
        // virtual-clock runs keep the same table at any thread count.
        slowest.sort_by(|a, b| {
            b.dur_ns
                .cmp(&a.dur_ns)
                .then_with(|| a.server.cmp(&b.server))
                .then_with(|| a.client.cmp(&b.client))
                .then_with(|| a.type_id.cmp(&b.type_id))
                .then_with(|| a.phase.name().cmp(b.phase.name()))
        });
        slowest.truncate(SLOWEST_KEPT);
        if slowest.len() == SLOWEST_KEPT {
            self.slowest_floor
                .store(slowest[SLOWEST_KEPT - 1].dur_ns, Ordering::Relaxed);
        }
    }

    /// The per-pair histogram handle for `(phase, server, client)`,
    /// building the labeled metric name (e.g.
    /// `phase_generate_ns{client="gSOAP",server="Metro"}`) only on the
    /// pair's first span. Steady state is one shared-read map hit.
    fn pair_handle(
        &self,
        phase: TracePhase,
        server: &'static str,
        client: Option<&'static str>,
    ) -> HistogramHandle {
        let key: PairKey = (phase_idx(phase), server, client);
        {
            // lock-order: L2 (obs handle caches) — leaf.
            let cache = read_unpoisoned(&self.pair_ns);
            if let Some(handle) = cache.get(&key) {
                return handle.clone();
            }
        }
        let base = phase.metric_ns();
        let mut labeled = String::with_capacity(base.len() + 32);
        labeled.push_str(base);
        match client {
            Some(c) => {
                labeled.push_str("{client=\"");
                labeled.push_str(c);
                labeled.push_str("\",server=\"");
            }
            None => labeled.push_str("{server=\""),
        }
        labeled.push_str(server);
        labeled.push_str("\"}");
        let handle = self.metrics.histogram_handle(&labeled);
        // lock-order: L2 (obs handle caches) — leaf.
        write_unpoisoned(&self.pair_ns)
            .entry(key)
            .or_insert(handle)
            .clone()
    }

    /// Count one finished campaign cell: bumps `campaign_cells_total`
    /// through its cached handle and advances the progress meter.
    pub fn record_cell_done(&self) {
        self.cells_total.inc(&self.metrics, "campaign_cells_total");
        self.progress.cell_done(&self.clock);
    }

    /// The current slowest-cells table (duration descending).
    pub fn slowest_cells(&self) -> Vec<SlowCell> {
        // lock-order: L2 (obs handle caches / slowest table) — leaf.
        lock_unpoisoned(&self.slowest).clone()
    }

    /// Publish the sink's own accounting into the registry so every
    /// export (text, JSON, report) carries `obs_events_dropped` — the
    /// overflow contract: drops are reported, never silent.
    pub fn sync_sink_counters(&self) {
        let recorded = self.trace.recorded();
        let dropped = self.trace.dropped();
        let current_rec = self.metrics.counter("obs_events_recorded");
        let current_drop = self.metrics.counter("obs_events_dropped");
        self.metrics
            .add("obs_events_recorded", recorded.saturating_sub(current_rec));
        self.metrics
            .add("obs_events_dropped", dropped.saturating_sub(current_drop));
    }

    /// Prometheus-style text of every instrument (sink counters
    /// included).
    pub fn metrics_text(&self) -> String {
        self.sync_sink_counters();
        self.metrics.render_prometheus()
    }

    /// JSON object of every instrument (sink counters included).
    pub fn metrics_json(&self) -> String {
        self.sync_sink_counters();
        self.metrics.render_json()
    }

    /// The end-of-run report: per-phase latency table, slowest cells,
    /// and trace accounting. Printed to stderr after every campaign
    /// run unless `--quiet`.
    pub fn render_report(&self) -> String {
        self.sync_sink_counters();
        let mut out = String::new();
        out.push_str("Phase latency (per span)\n");
        out.push_str(&format!(
            "  {:<10} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
            "phase", "count", "p50", "p95", "p99", "max"
        ));
        for phase in [
            TracePhase::Describe,
            TracePhase::Generate,
            TracePhase::Compile,
            TracePhase::Exchange,
            TracePhase::Wire,
            TracePhase::Fuzz,
        ] {
            let Some(h) = self.metrics.histogram(phase.metric_ns()) else {
                continue;
            };
            out.push_str(&format!(
                "  {:<10} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
                phase.name(),
                h.count,
                fmt_ns(h.quantile_ns(0.50)),
                fmt_ns(h.quantile_ns(0.95)),
                fmt_ns(h.quantile_ns(0.99)),
                fmt_ns(h.max),
            ));
        }
        let slowest = self.slowest_cells();
        if !slowest.is_empty() {
            out.push_str("Slowest cells\n");
            for cell in &slowest {
                out.push_str(&format!(
                    "  {:>9}  {:<9} {} / {} / {}\n",
                    fmt_ns(cell.dur_ns),
                    cell.phase.name(),
                    cell.server,
                    cell.client.as_deref().unwrap_or("-"),
                    cell.type_id,
                ));
            }
        }
        out.push_str(&format!(
            "trace events: {} recorded, {} dropped\n",
            self.trace.recorded(),
            self.trace.dropped(),
        ));
        if let Some(err) = self.trace.write_error() {
            out.push_str(&format!("trace write error: {err}\n"));
        }
        out
    }
}

/// Deterministic span key: the virtual clock hashes this, so one cell
/// phase always reports one duration.
fn span_key(phase: TracePhase, server: &str, client: Option<&str>, type_id: &str) -> String {
    match client {
        Some(c) => format!("{}/{server}/{c}/{type_id}", phase.name()),
        None => format!("{}/{server}/{type_id}", phase.name()),
    }
}

/// Human-readable nanoseconds: `870ns`, `14.2µs`, `3.1ms`, `2.45s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Live one-line stderr progress meter: cells done, cells/sec, ETA.
///
/// Disabled by default (library callers and tests never see it); the
/// CLI enables it for interactive campaign runs unless `--quiet`. All
/// output goes to stderr so stdout stays the byte-stable scientific
/// record that CI diffs.
#[derive(Debug, Default)]
pub struct ProgressMeter {
    enabled: AtomicBool,
    total: AtomicU64,
    done: AtomicU64,
    last_print_ms: AtomicU64,
    printed: AtomicBool,
}

impl ProgressMeter {
    /// A disabled meter.
    pub fn new() -> ProgressMeter {
        ProgressMeter::default()
    }

    /// Turn the meter on (CLI only).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Grow the expected-cells denominator (the campaign learns the
    /// total one deployed document at a time).
    pub fn add_expected(&self, cells: u64) {
        self.total.fetch_add(cells, Ordering::Relaxed);
    }

    /// Record one finished cell and maybe repaint the stderr line
    /// (throttled to ~5 repaints a second off the real clock).
    pub fn cell_done(&self, clock: &Clock) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled.load(Ordering::Relaxed) || !clock.is_monotonic() {
            return;
        }
        let elapsed_ms = clock.elapsed_ns() / 1_000_000;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        if elapsed_ms.saturating_sub(last) < 200 {
            return;
        }
        if self
            .last_print_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another worker just repainted
        }
        self.printed.store(true, Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let secs = (elapsed_ms as f64 / 1_000.0).max(0.001);
        let rate = done as f64 / secs;
        let eta = if rate > 0.0 && total > done {
            ((total - done) as f64 / rate).ceil() as u64
        } else {
            0
        };
        eprint!("\r  {done}/{total} cells · {rate:.0} cells/s · ETA {eta}s   ");
        let _ = std::io::stderr().flush();
    }

    /// Finish the meter: clear the live line and print the final
    /// throughput summary (when the meter ever painted).
    pub fn finish(&self, clock: &Clock) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let done = self.done.load(Ordering::Relaxed);
        let elapsed_ms = clock.elapsed_ns() / 1_000_000;
        let secs = (elapsed_ms as f64 / 1_000.0).max(0.001);
        if self.printed.swap(false, Ordering::Relaxed) {
            eprint!("\r{:<60}\r", "");
        }
        eprintln!("  {done} cells in {secs:.1}s ({:.0} cells/s)", done as f64 / secs);
    }

    /// Cells completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_spans_feed_histograms_events_and_slowest() {
        let obs = Obs::new(Clock::virtual_seeded(42));
        let span = obs.begin_phase(
            TracePhase::Generate,
            "Metro",
            Some("Axis1 wsdl2java"),
            "java.util.Date",
        );
        obs.end_phase(
            TracePhase::Generate,
            "Metro",
            Some("Axis1 wsdl2java"),
            "java.util.Date",
            "success",
            Some("gen/Metro/Axis1/java.util.Date"),
            1,
            false,
            span,
        );
        assert_eq!(obs.trace().recorded(), 2);
        let agg = obs.metrics().histogram("phase_generate_ns").expect("aggregate");
        assert_eq!(agg.count, 1);
        let pair = obs
            .metrics()
            .histogram("phase_generate_ns{client=\"Axis1 wsdl2java\",server=\"Metro\"}")
            .expect("per-pair");
        assert_eq!(pair.count, 1);
        let slowest = obs.slowest_cells();
        assert_eq!(slowest.len(), 1);
        assert_eq!(slowest[0].dur_ns, agg.sum);
        let report = obs.render_report();
        assert!(report.contains("generate"), "{report}");
        assert!(report.contains("Slowest cells"), "{report}");
        assert!(report.contains("2 recorded, 0 dropped"), "{report}");
    }

    #[test]
    fn slowest_table_is_bounded_and_deterministically_ordered() {
        let obs = Obs::new(Clock::virtual_seeded(1));
        for i in 0..25 {
            let type_id = format!("t{i:02}");
            let span = obs.begin_phase(TracePhase::Compile, "Metro", Some("gSOAP"), &type_id);
            obs.end_phase(
                TracePhase::Compile,
                "Metro",
                Some("gSOAP"),
                &type_id,
                "success",
                None,
                0,
                false,
                span,
            );
        }
        let slowest = obs.slowest_cells();
        assert_eq!(slowest.len(), SLOWEST_KEPT);
        assert!(slowest.windows(2).all(|w| w[0].dur_ns >= w[1].dur_ns));
    }

    #[test]
    fn sink_counters_surface_in_exports() {
        let obs = Obs::with_sink_capacity(Clock::virtual_seeded(3), 1);
        for _ in 0..3 {
            let span = obs.begin_phase(TracePhase::Describe, "Metro", None, "java.util.Date");
            obs.end_phase(
                TracePhase::Describe,
                "Metro",
                None,
                "java.util.Date",
                "deployed",
                None,
                0,
                false,
                span,
            );
        }
        let text = obs.metrics_text();
        assert!(text.contains("obs_events_recorded 6"), "{text}");
        assert!(text.contains("obs_events_dropped 5"), "{text}");
        // Re-export must not double-count.
        let text2 = obs.metrics_text();
        assert!(text2.contains("obs_events_dropped 5"), "{text2}");
        assert!(obs.metrics_json().contains("\"obs_events_dropped\":5"));
        assert!(obs.render_report().contains("6 recorded, 5 dropped"));
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(870), "870ns");
        assert_eq!(fmt_ns(14_200), "14.2µs");
        assert_eq!(fmt_ns(3_100_000), "3.1ms");
        assert_eq!(fmt_ns(2_450_000_000), "2.45s");
    }

    #[test]
    fn progress_meter_counts_without_printing_when_disabled() {
        let meter = ProgressMeter::new();
        let clock = Clock::monotonic();
        meter.add_expected(10);
        for _ in 0..4 {
            meter.cell_done(&clock);
        }
        assert_eq!(meter.done(), 4);
    }
}
