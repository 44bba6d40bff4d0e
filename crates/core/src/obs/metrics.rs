//! A deterministic metrics registry: named counters and fixed-bucket
//! latency histograms.
//!
//! Design constraints, in order:
//!
//! 1. **Observe-only.** Nothing in the campaign reads a metric back to
//!    make a decision; the registry only accumulates.
//! 2. **Stable output.** Rendering is keyed by `BTreeMap`, so the
//!    Prometheus text and JSON forms are byte-stable for a given set
//!    of values — tests diff them directly.
//! 3. **Zero dependencies.** `std` only; the histogram buckets are a
//!    fixed power-of-two ladder so two registries filled with the same
//!    observations render identically with no float formatting drift.
//!
//! Metric names follow Prometheus conventions (`snake_case`, unit
//! suffix); labels are baked into the name string by the caller (e.g.
//! `phase_generate_ns{client="Axis1",server="Metro"}`) which keeps the
//! registry itself label-agnostic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};

/// Upper bounds (inclusive, in nanoseconds) of the fixed histogram
/// buckets: a power-of-two ladder from 1µs to ~8.6s, plus an implicit
/// overflow bucket. 24 buckets cover every latency this pipeline can
/// produce without per-registry configuration.
pub const BUCKET_BOUNDS_NS: [u64; 24] = {
    let mut bounds = [0u64; 24];
    let mut i = 0;
    while i < 24 {
        bounds[i] = 1_000u64 << i; // 1µs, 2µs, 4µs, ... ~8.59s
        i += 1;
    }
    bounds
};

/// One per-bucket exemplar: the most recent correlated observation
/// that landed in a bucket. `id` is the request ID (rendered as 16 hex
/// digits, matching the `X-Request-Id` response header), `value_ns`
/// the exact latency that fell into `bucket`. An exemplar turns a p99
/// bucket count into a concrete, trace-resolvable request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Disjoint-bin index into `Histogram::buckets`.
    pub bucket: usize,
    /// Correlation ID of the exemplified observation.
    pub id: u64,
    /// The exact observed value (always `<=` the bucket's bound).
    pub value_ns: u64,
}

/// One fixed-bucket latency histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts; index i counts values
    /// `<= BUCKET_BOUNDS_NS[i]` (cumulative-free, i.e. disjoint bins).
    pub buckets: [u64; BUCKET_BOUNDS_NS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket exemplars (at most one per bucket, bucket-sorted).
    /// Empty unless the cell was fed through
    /// [`HistogramHandle::observe_ns_with_exemplar`] — plain
    /// histograms render and merge exactly as before.
    pub exemplars: Vec<Exemplar>,
}

/// Disjoint-bin index for one observation.
fn bucket_index(value_ns: u64) -> usize {
    BUCKET_BOUNDS_NS
        .iter()
        .position(|&bound| value_ns <= bound)
        .unwrap_or(BUCKET_BOUNDS_NS.len())
}

impl Histogram {
    /// Accumulate one observation into this snapshot (offline
    /// aggregation and tests; the live path goes through
    /// [`MetricsRegistry::observe_ns`]).
    pub fn observe(&mut self, value_ns: u64) {
        self.buckets[bucket_index(value_ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value_ns);
        self.max = self.max.max(value_ns);
    }

    /// Fold `other` into this histogram: per-bucket counts, `count`
    /// and `sum` add; `max` takes the larger value.
    ///
    /// Because quantiles are *defined* over the bucket vector (see
    /// [`Histogram::quantile_ns`]), merging the per-shard bucket
    /// vectors of a partitioned run reproduces the single-process
    /// quantiles exactly — there is no interpolation to drift.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for e in &other.exemplars {
            self.note_exemplar(*e);
        }
    }

    /// Fold one exemplar into the per-bucket slots with a
    /// *deterministic* precedence — larger `(value_ns, id)` wins — so
    /// merging shard snapshots in any order yields the same exemplar
    /// set. (The live path in `AtomicHistogram` keeps the *last*
    /// observation instead; determinism only matters for merges.)
    pub fn note_exemplar(&mut self, e: Exemplar) {
        match self.exemplars.iter_mut().find(|x| x.bucket == e.bucket) {
            Some(slot) => {
                if (e.value_ns, e.id) > (slot.value_ns, slot.id) {
                    *slot = e;
                }
            }
            None => {
                self.exemplars.push(e);
                self.exemplars.sort_by_key(|x| x.bucket);
            }
        }
    }

    /// The bucket upper bound at or above quantile `q` (0.0..=1.0).
    ///
    /// Quantiles are reported as bucket bounds, not interpolated
    /// values: that makes them deterministic (two identical bucket
    /// vectors always report identical quantiles) at the cost of
    /// granularity no finer than the bucket ladder.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }
}

/// The live, lock-free-on-the-hot-path histogram cell. Per-field
/// relaxed atomics: accumulation commutes, so the totals are exact
/// regardless of interleaving; a snapshot taken *while* observers are
/// still running may be momentarily torn across fields, which is fine
/// for an observe-only layer that exports after the run quiesces.
#[derive(Debug)]
struct AtomicHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Last correlated observation per bucket. A leaf mutex, not an
    /// atomic, because an exemplar is a (id, value) *pair* that must
    /// never tear; it is touched only by `observe_with_exemplar`
    /// callers (the wire server's response-complete path) and by
    /// export-time snapshots, never by the plain `observe` hot path.
    exemplars: Mutex<[Option<Exemplar>; BUCKET_BOUNDS_NS.len() + 1]>,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplars: Mutex::new([None; BUCKET_BOUNDS_NS.len() + 1]),
        }
    }

    fn observe(&self, value_ns: u64) {
        self.buckets[bucket_index(value_ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value_ns))
            });
        self.max.fetch_max(value_ns, Ordering::Relaxed);
    }

    fn observe_with_exemplar(&self, value_ns: u64, id: u64) {
        self.observe(value_ns);
        let bucket = bucket_index(value_ns);
        // lock-order: L0.b (exemplar slot) — leaf; nothing is ever
        // acquired while this lock is held.
        lock_unpoisoned(&self.exemplars)[bucket] = Some(Exemplar {
            bucket,
            id,
            value_ns,
        });
    }

    fn snapshot(&self) -> Histogram {
        // lock-order: L0.b (exemplar slot) — leaf; nothing is ever
        // acquired while this lock is held. Callers may hold the L0
        // registry map read lock (histograms_snapshot), which is why
        // the slot sits strictly below L0.
        let exemplars = lock_unpoisoned(&self.exemplars)
            .iter()
            .flatten()
            .copied()
            .collect();
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            exemplars,
        }
    }
}

/// A pre-resolved reference to one counter cell. Incrementing through
/// a handle is a single relaxed atomic add — no name lookup and no
/// registry lock, which is what keeps hot paths free of shared-map
/// traffic at any thread count. Clones share the same cell.
#[derive(Debug, Clone)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Add 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A pre-resolved reference to one histogram cell; observing through
/// it touches only the cell's relaxed atomics (see [`CounterHandle`]).
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<AtomicHistogram>);

impl HistogramHandle {
    /// Record one latency observation.
    pub fn observe_ns(&self, value_ns: u64) {
        self.0.observe(value_ns);
    }

    /// Record one latency observation *with* a correlation ID: the
    /// bucket the value lands in remembers `(id, value_ns)` as its
    /// exemplar (last write wins), exported by both renders. Costs one
    /// leaf-mutex lock on top of [`HistogramHandle::observe_ns`], so
    /// callers opt in per observation.
    pub fn observe_ns_with_exemplar(&self, value_ns: u64, id: u64) {
        self.0.observe_with_exemplar(value_ns, id);
    }

    /// A point-in-time copy of the cell.
    pub fn snapshot(&self) -> Histogram {
        self.0.snapshot()
    }
}

/// A pre-resolved reference to one gauge cell: an instantaneous
/// level (open connections, queue depth) rather than a monotone
/// count, rendered under `# TYPE … gauge`. Same locking story as
/// [`CounterHandle`]: every operation is one atomic on the shared
/// cell. `SeqCst` because gauges mirror admission-ladder state whose
/// reads ( `/healthz`, `/statusz`) must not run ahead of the
/// increments they report.
#[derive(Debug, Clone)]
pub struct GaugeHandle(Arc<AtomicU64>);

impl GaugeHandle {
    /// Overwrite the level.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::SeqCst);
    }

    /// Raise the level by `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::SeqCst);
    }

    /// Lower the level by `delta`, saturating at zero.
    pub fn sub(&self, delta: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(delta))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// A named counter whose registry handle is resolved on first use and
/// cached forever after.
///
/// This keeps registration *lazy* — an instrument appears in exports
/// only once it has actually been touched, exactly like the name-keyed
/// [`MetricsRegistry::add`] path it replaces — while the steady state
/// is a pure [`CounterHandle`] atomic add. The cell is bound to the
/// first registry it is used with; owners that carry their own
/// `Arc<MetricsRegistry>` (doc cache, journal writer) always pass the
/// same one.
#[derive(Debug, Default)]
pub struct LazyCounter {
    cell: OnceLock<CounterHandle>,
}

impl LazyCounter {
    /// An unresolved lazy counter.
    pub const fn new() -> LazyCounter {
        LazyCounter {
            cell: OnceLock::new(),
        }
    }

    /// Add `delta` to the counter `name` in `registry`, resolving and
    /// caching the handle on first use.
    pub fn add(&self, registry: &MetricsRegistry, name: &str, delta: u64) {
        self.cell
            .get_or_init(|| registry.counter_handle(name))
            .add(delta);
    }

    /// Add 1 (see [`LazyCounter::add`]).
    pub fn inc(&self, registry: &MetricsRegistry, name: &str) {
        self.add(registry, name, 1);
    }
}

/// The registry. The steady-state increment path is a shared read
/// lock plus a relaxed atomic add — worker threads never serialize on
/// each other once an instrument exists; the write lock is taken only
/// the first time a name appears. Hot paths go one step further and
/// resolve a [`CounterHandle`]/[`HistogramHandle`] once, after which
/// the registry lock is not touched again until export.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add 1 to counter `name`, creating it at zero first if needed.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Add `delta` to counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        // lock-order: L0 (metrics registry map) — innermost.
        {
            let counters = read_unpoisoned(&self.counters);
            if let Some(c) = counters.get(name) {
                c.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        write_unpoisoned(&self.counters)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Resolve (registering at zero if needed) a pre-shared handle to
    /// counter `name`. Increments through the handle never touch the
    /// registry lock again.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        // lock-order: L0 (metrics registry map) — innermost.
        {
            if let Some(c) = read_unpoisoned(&self.counters).get(name) {
                return CounterHandle(Arc::clone(c));
            }
        }
        CounterHandle(Arc::clone(
            write_unpoisoned(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        ))
    }

    /// Resolve (registering at zero if needed) a pre-shared handle to
    /// gauge `name` (see [`MetricsRegistry::counter_handle`]).
    pub fn gauge_handle(&self, name: &str) -> GaugeHandle {
        // lock-order: L0 (metrics registry map) — innermost.
        {
            if let Some(g) = read_unpoisoned(&self.gauges).get(name) {
                return GaugeHandle(Arc::clone(g));
            }
        }
        GaugeHandle(Arc::clone(
            write_unpoisoned(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        ))
    }

    /// Current value of gauge `name` (0 when never registered).
    pub fn gauge(&self, name: &str) -> u64 {
        // lock-order: L0 (metrics registry map) — innermost.
        read_unpoisoned(&self.gauges)
            .get(name)
            .map(|g| g.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Resolve (registering an empty cell if needed) a pre-shared
    /// handle to histogram `name` (see [`MetricsRegistry::counter_handle`]).
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        // lock-order: L0 (metrics registry map) — innermost.
        {
            if let Some(h) = read_unpoisoned(&self.histograms).get(name) {
                return HistogramHandle(Arc::clone(h));
            }
        }
        HistogramHandle(Arc::clone(
            write_unpoisoned(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicHistogram::new())),
        ))
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        // lock-order: L0 (metrics registry map) — innermost.
        read_unpoisoned(&self.counters)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Record one latency observation into histogram `name`.
    pub fn observe_ns(&self, name: &str, value_ns: u64) {
        // lock-order: L0 (metrics registry map) — innermost.
        {
            let histograms = read_unpoisoned(&self.histograms);
            if let Some(h) = histograms.get(name) {
                h.observe(value_ns);
                return;
            }
        }
        write_unpoisoned(&self.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicHistogram::new()))
            .observe(value_ns);
    }

    /// Snapshot of histogram `name`, if it has ever been observed.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        // lock-order: L0 (metrics registry map) — innermost.
        read_unpoisoned(&self.histograms)
            .get(name)
            .map(|h| h.snapshot())
    }

    /// All counter (name, value) pairs in name order.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        // lock-order: L0 (metrics registry map) — innermost.
        read_unpoisoned(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// All gauge (name, value) pairs in name order.
    pub fn gauges_snapshot(&self) -> Vec<(String, u64)> {
        // lock-order: L0 (metrics registry map) — innermost.
        read_unpoisoned(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::SeqCst)))
            .collect()
    }

    /// All histogram (name, snapshot) pairs in name order.
    pub fn histograms_snapshot(&self) -> Vec<(String, Histogram)> {
        // lock-order: L0 (metrics registry map) — innermost.
        read_unpoisoned(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// A point-in-time copy of every instrument, suitable for merging
    /// across registries (sharded workers) or rendering offline.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters_snapshot().into_iter().collect(),
            gauges: self.gauges_snapshot().into_iter().collect(),
            histograms: self.histograms_snapshot().into_iter().collect(),
        }
    }

    /// Render every instrument as Prometheus text exposition format
    /// (see [`MetricsSnapshot::render_prometheus`]). Output is sorted
    /// by family then series and stable for a given set of values.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Render every instrument as a single JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {count, sum, max, p50, p95, p99, buckets: [...]}}}`. Key order
    /// is sorted, so the output is stable.
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

/// An immutable copy of a registry's instruments: what a shard worker
/// writes to disk and what the supervisor merges.
///
/// Merging is exact, not approximate: counters add (so one
/// `obs_events_dropped` total survives the merge), histogram bucket
/// vectors add bin-wise, and quantiles are recomputed from the merged
/// buckets — identical to what a single registry fed all the
/// observations would report, because quantiles are defined as bucket
/// bounds ([`Histogram::quantile_ns`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (instantaneous levels).
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Fold `other` into this snapshot: counters and gauges add,
    /// histograms merge bin-wise ([`Histogram::merge`]). Summing
    /// gauges is the right merge for shard workers: each reports its
    /// own level, and at quiesce every level is zero.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += value;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Prometheus text exposition format: every family gets a
    /// `# HELP` and `# TYPE` header (counters `counter`, gauges
    /// `gauge`, histograms `histogram` with cumulative `_bucket{le=…}`
    /// series plus `_sum`/`_count`); the deterministic `_max`/`_p50`/
    /// `_p95`/`_p99` derivations are exported as their own gauge
    /// families. Buckets carrying an exemplar render it in
    /// OpenMetrics form (`… # {request_id="…"} value`). Families are
    /// sorted by base name, series within a family by full name, so
    /// output is byte-stable for a given set of values.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        render_scalar_families(&mut out, &self.counters, "counter");
        render_scalar_families(&mut out, &self.gauges, "gauge");
        let mut families: BTreeMap<&str, Vec<(&str, &Histogram)>> = BTreeMap::new();
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            families.entry(base).or_default().push((labels, h));
        }
        for (base, members) in &families {
            let _ = writeln!(out, "# HELP {base} {}", help_text(base));
            let _ = writeln!(out, "# TYPE {base} histogram");
            for (labels, h) in members {
                let mut cumulative = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    cumulative += n;
                    let le = match BUCKET_BOUNDS_NS.get(i) {
                        Some(bound) => bound.to_string(),
                        None => "+Inf".to_string(),
                    };
                    let series = labels_with(labels, &format!("le=\"{le}\""));
                    match h.exemplars.iter().find(|e| e.bucket == i) {
                        Some(e) => {
                            let _ = writeln!(
                                out,
                                "{base}_bucket{series} {cumulative} # {{request_id=\"{:016x}\"}} {}",
                                e.id, e.value_ns
                            );
                        }
                        None => {
                            let _ = writeln!(out, "{base}_bucket{series} {cumulative}");
                        }
                    }
                }
                let _ = writeln!(out, "{base}_sum{labels} {}", h.sum);
                let _ = writeln!(out, "{base}_count{labels} {}", h.count);
            }
            for (suffix, q) in [
                ("max", None),
                ("p50", Some(0.50)),
                ("p95", Some(0.95)),
                ("p99", Some(0.99)),
            ] {
                let _ = writeln!(out, "# TYPE {base}_{suffix} gauge");
                for (labels, h) in members {
                    let value = match q {
                        Some(q) => h.quantile_ns(q),
                        None => h.max,
                    };
                    let _ = writeln!(out, "{base}_{suffix}{labels} {value}");
                }
            }
        }
        out
    }

    /// The JSON object form, byte-identical to what
    /// [`MetricsRegistry::render_json`] produces for the same values.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                json_string(name),
                h.count,
                h.sum,
                h.max,
                h.quantile_ns(0.50),
                h.quantile_ns(0.95),
                h.quantile_ns(0.99),
            );
            for (j, n) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{n}");
            }
            out.push(']');
            if !h.exemplars.is_empty() {
                out.push_str(",\"exemplars\":[");
                for (j, e) in h.exemplars.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{},{},{}]", e.bucket, e.id, e.value_ns);
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parse the exact JSON shape [`MetricsSnapshot::render_json`]
    /// emits (as written by `wsitool … --metrics-out` in JSON mode and
    /// by shard workers). The derived `p50`/`p95`/`p99` fields are
    /// accepted and discarded — quantiles are always recomputed from
    /// the bucket vector, so a snapshot round-trips bit-identically.
    ///
    /// Returns `None` on any structural mismatch; this is a recovery
    /// path for our own files, not a general JSON parser.
    pub fn parse_json(src: &str) -> Option<MetricsSnapshot> {
        let mut p = Parser { src, bytes: src.as_bytes(), at: 0 };
        let snapshot = p.snapshot()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return None;
        }
        Some(snapshot)
    }
}

/// Cursor over a snapshot JSON document.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&token) {
            self.at += 1;
            Some(())
        } else {
            None
        }
    }

    /// True (and consumed) when the next non-space byte is `token`.
    fn peek_eat(&mut self, token: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&token) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Option<String> {
        self.skip_ws();
        let (out, next) = parse_json_string(self.src, self.at)?;
        self.at = next;
        Some(out)
    }

    fn number(&mut self) -> Option<u64> {
        self.skip_ws();
        let start = self.at;
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        if self.at == start {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()?
            .parse()
            .ok()
    }

    fn key(&mut self, want: &str) -> Option<()> {
        let got = self.string()?;
        if got != want {
            return None;
        }
        self.eat(b':')
    }

    fn snapshot(&mut self) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::default();
        self.eat(b'{')?;
        self.key("counters")?;
        self.eat(b'{')?;
        if !self.peek_eat(b'}') {
            loop {
                let name = self.string()?;
                self.eat(b':')?;
                let value = self.number()?;
                snap.counters.insert(name, value);
                if self.peek_eat(b'}') {
                    break;
                }
                self.eat(b',')?;
            }
        }
        self.eat(b',')?;
        self.key("gauges")?;
        self.eat(b'{')?;
        if !self.peek_eat(b'}') {
            loop {
                let name = self.string()?;
                self.eat(b':')?;
                let value = self.number()?;
                snap.gauges.insert(name, value);
                if self.peek_eat(b'}') {
                    break;
                }
                self.eat(b',')?;
            }
        }
        self.eat(b',')?;
        self.key("histograms")?;
        self.eat(b'{')?;
        if !self.peek_eat(b'}') {
            loop {
                let name = self.string()?;
                self.eat(b':')?;
                snap.histograms.insert(name, self.histogram()?);
                if self.peek_eat(b'}') {
                    break;
                }
                self.eat(b',')?;
            }
        }
        self.eat(b'}')?;
        Some(snap)
    }

    fn histogram(&mut self) -> Option<Histogram> {
        let mut h = Histogram::default();
        self.eat(b'{')?;
        self.key("count")?;
        h.count = self.number()?;
        self.eat(b',')?;
        self.key("sum")?;
        h.sum = self.number()?;
        self.eat(b',')?;
        self.key("max")?;
        h.max = self.number()?;
        for q in ["p50", "p95", "p99"] {
            self.eat(b',')?;
            self.key(q)?;
            let _ = self.number()?; // derived; recomputed from buckets
        }
        self.eat(b',')?;
        self.key("buckets")?;
        self.eat(b'[')?;
        for (i, bucket) in h.buckets.iter_mut().enumerate() {
            if i > 0 {
                self.eat(b',')?;
            }
            *bucket = self.number()?;
        }
        self.eat(b']')?;
        // Optional exemplar list — only written for cells that carry
        // exemplars, so plain histograms keep their exact old shape.
        if self.peek_eat(b',') {
            self.key("exemplars")?;
            self.eat(b'[')?;
            if !self.peek_eat(b']') {
                loop {
                    self.eat(b'[')?;
                    let bucket = self.number()? as usize;
                    self.eat(b',')?;
                    let id = self.number()?;
                    self.eat(b',')?;
                    let value_ns = self.number()?;
                    self.eat(b']')?;
                    h.exemplars.push(Exemplar {
                        bucket,
                        id,
                        value_ns,
                    });
                    if self.peek_eat(b']') {
                        break;
                    }
                    self.eat(b',')?;
                }
            }
        }
        self.eat(b'}')?;
        Some(h)
    }
}

/// Split `phase_generate_ns{server="Metro"}` into
/// (`phase_generate_ns`, `{server="Metro"}`) so histogram suffixes
/// (`_count`, `_p95`, ...) attach to the base name, not after the
/// label set.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Append `extra` (a `key="value"` pair) to a `{…}` label set; an
/// empty label set becomes `{extra}`.
fn labels_with(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{{{},{extra}}}", &labels[1..labels.len() - 1])
    }
}

/// One scalar section (counters or gauges) in exposition format:
/// series grouped into families by base name, each family headed by
/// `# HELP` / `# TYPE` lines.
fn render_scalar_families(out: &mut String, values: &BTreeMap<String, u64>, kind: &str) {
    let mut families: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    for (name, value) in values {
        let (base, _) = split_labels(name);
        families.entry(base).or_default().push((name, *value));
    }
    for (base, members) in &families {
        let _ = writeln!(out, "# HELP {base} {}", help_text(base));
        let _ = writeln!(out, "# TYPE {base} {kind}");
        for (name, value) in members {
            let _ = writeln!(out, "{name} {value}");
        }
    }
}

/// The `# HELP` line for a metric family: a short description for the
/// families this codebase emits, a generic fallback for ad-hoc names.
/// Escaped per the exposition format (`\\` and `\n`).
fn help_text(base: &str) -> String {
    let text = match base {
        "wire_server_request_ns" => "serving-path response latency (admin routes excluded)",
        "wire_server_admin_request_ns" => "admin-route response latency",
        "wire_server_open_conns" => "connections currently open",
        "wire_server_in_flight" => "connections holding an in-flight slot",
        "wire_server_queued" => "connections parked in the bounded accept queue",
        "wire_server_responses_total" => "serving-path responses by status code",
        "wire_server_admin_responses_total" => "admin-route responses by route",
        "obs_events_recorded" => "trace events durably recorded",
        "obs_events_dropped" => "trace events dropped at ring capacity",
        _ => "wsinterop metric",
    };
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape one label *value* per the Prometheus text exposition format:
/// backslash, double quote, and line feed. Callers bake labels into
/// metric names (`name{key="value"}`), so escaping happens at bake
/// time — for the framework/code labels this codebase uses the
/// function is the identity, but ad-hoc values stay parseable.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A JSON string literal of `s`, quoted: minimal escaping (quotes,
/// backslash, control characters), everything else verbatim.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Decodes the JSON string literal starting at byte `i` of `src` —
/// the inverse of [`json_string`] — and returns it with the index one
/// past its closing quote.
pub(crate) fn parse_json_string(src: &str, i: usize) -> Option<(String, usize)> {
    let bytes = src.as_bytes();
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    let mut out = String::new();
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'"' => return Some((out, j + 1)),
            b'\\' => {
                j += 1;
                match bytes.get(j)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = src.get(j + 1..j + 5)?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        j += 4;
                    }
                    _ => return None,
                }
                j += 1;
            }
            _ => {
                // Multi-byte chars: copy the whole char, advance by its len.
                let c = src[j..].chars().next()?;
                out.push(c);
                j += c.len_utf8();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_decode_to_what_was_encoded() {
        for text in ["", "plain", "q\"uo\\te", "tab\tcr\rnl\n", "\u{1}\u{1f}", "héllo…🦀"] {
            let encoded = json_string(text);
            let padded = format!("x{encoded}y");
            assert_eq!(
                parse_json_string(&padded, 1),
                Some((text.to_string(), padded.len() - 1)),
                "{encoded}"
            );
        }
        assert_eq!(parse_json_string("\"\\u00e9\"", 0), Some(("é".to_string(), 8)));
        assert_eq!(parse_json_string("\"open", 0), None);
        assert_eq!(parse_json_string("\"bad\\x\"", 0), None);
        assert_eq!(parse_json_string("bare", 0), None);
    }

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let reg = MetricsRegistry::new();
        reg.inc("zeta_total");
        reg.add("alpha_total", 5);
        reg.inc("alpha_total");
        assert_eq!(reg.counter("alpha_total"), 6);
        assert_eq!(reg.counter("missing"), 0);
        let text = reg.render_prometheus();
        let alpha = text.find("alpha_total 6").expect("alpha rendered");
        let zeta = text.find("zeta_total 1").expect("zeta rendered");
        assert!(alpha < zeta, "sorted order:\n{text}");
    }

    #[test]
    fn histogram_buckets_quantiles_and_overflow() {
        let mut h = Histogram::default();
        for v in [500, 1_000, 3_000, 1_000_000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 2); // 500 and 1_000 both <= 1µs bound
        assert_eq!(*h.buckets.last().unwrap(), 1); // overflow bucket
        assert_eq!(h.quantile_ns(0.5), BUCKET_BOUNDS_NS[2]); // 3_000 <= 4µs
        assert_eq!(h.quantile_ns(1.0), h.max);
        assert_eq!(Histogram::default().quantile_ns(0.99), 0);
    }

    #[test]
    fn renders_are_stable_and_labels_split() {
        let reg = MetricsRegistry::new();
        reg.observe_ns("phase_generate_ns{server=\"Metro\"}", 2_000);
        reg.inc("cells_total");
        assert_eq!(reg.render_prometheus(), reg.render_prometheus());
        assert_eq!(reg.render_json(), reg.render_json());
        let text = reg.render_prometheus();
        assert!(
            text.contains("phase_generate_ns_count{server=\"Metro\"} 1"),
            "{text}"
        );
        let json = reg.render_json();
        assert!(json.contains("\"counters\":{\"cells_total\":1}"), "{json}");
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn label_value_escaping_covers_specials() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_label_value("Metro"), "Metro");
    }

    /// The exhaustive exposition-format pin: every family carries
    /// `# HELP` / `# TYPE` headers (exactly one per family, however
    /// many series share the base name), gauges are typed `gauge`,
    /// histograms emit cumulative `le`-labelled buckets ending at
    /// `+Inf`, and every non-comment line is `name value`-shaped.
    #[test]
    fn prometheus_exposition_format_is_compliant() {
        let reg = MetricsRegistry::new();
        reg.inc("requests_total{code=\"200\"}");
        reg.inc("requests_total{code=\"503\"}");
        reg.gauge_handle("depth").set(3);
        reg.observe_ns("lat_ns", 1_500);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE requests_total counter").count(), 1);
        assert_eq!(text.matches("# HELP requests_total ").count(), 1);
        assert!(text.contains("requests_total{code=\"200\"} 1"), "{text}");
        assert!(text.contains("# TYPE depth gauge"), "{text}");
        assert!(text.contains("\ndepth 3\n"), "{text}");
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"1000\"} 0"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"2000\"} 1"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("lat_ns_sum 1500"), "{text}");
        assert!(text.contains("lat_ns_count 1"), "{text}");
        for suffix in ["max", "p50", "p95", "p99"] {
            assert!(text.contains(&format!("# TYPE lat_ns_{suffix} gauge")), "{text}");
        }
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "stray comment: {line}"
                );
                continue;
            }
            let value_part = match line.split_once(" # {") {
                Some((head, _)) => head, // exemplar suffix
                None => line,
            };
            let value = value_part.rsplit_once(' ').map(|(_, v)| v).unwrap_or("");
            assert!(value.parse::<u64>().is_ok(), "bad series line: {line}");
        }
    }

    #[test]
    fn gauges_level_saturate_and_render_as_gauge() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge_handle("wire_server_queued");
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 1);
        g.sub(5);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        g.set(7);
        assert_eq!(reg.gauge("wire_server_queued"), 7);
        assert_eq!(reg.gauge("missing"), 0);
        let json = reg.render_json();
        assert!(json.contains("\"gauges\":{\"wire_server_queued\":7}"), "{json}");
        let parsed = MetricsSnapshot::parse_json(&json).expect("parses");
        assert_eq!(parsed.gauges.get("wire_server_queued"), Some(&7));
        assert_eq!(parsed.render_json(), json);
    }

    #[test]
    fn exemplars_record_render_merge_and_round_trip() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_handle("wire_server_request_ns");
        h.observe_ns_with_exemplar(1_500, 0xabcd);
        h.observe_ns_with_exemplar(1_600, 0xbeef); // same bucket: last wins
        h.observe_ns(9_999_999); // plain observation leaves no exemplar
        let snap = h.snapshot();
        assert_eq!(
            snap.exemplars,
            vec![Exemplar { bucket: 1, id: 0xbeef, value_ns: 1_600 }]
        );
        let text = reg.render_prometheus();
        assert!(
            text.contains("# {request_id=\"000000000000beef\"} 1600"),
            "{text}"
        );
        let json = reg.render_json();
        let parsed = MetricsSnapshot::parse_json(&json).expect("parses");
        assert_eq!(parsed, reg.snapshot());
        assert_eq!(parsed.render_json(), json);

        // Snapshot merge is order-independent: larger (value, id) wins.
        let mut a = Histogram::default();
        a.observe(1_500);
        a.note_exemplar(Exemplar { bucket: 1, id: 1, value_ns: 1_500 });
        let mut b = Histogram::default();
        b.observe(1_600);
        b.note_exemplar(Exemplar { bucket: 1, id: 2, value_ns: 1_600 });
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab.exemplars,
            vec![Exemplar { bucket: 1, id: 2, value_ns: 1_600 }]
        );
    }

    /// The sharding edge case called out in ISSUE 6: observations
    /// split across per-shard registries, merged bucket-wise, must
    /// report p50/p95/p99 identical to one registry that saw every
    /// observation — including values that straddle bucket boundaries
    /// and land in the overflow bucket.
    #[test]
    fn split_registries_merge_to_single_process_quantiles() {
        let values: Vec<u64> = (0..500)
            .map(|i: u64| (i * i * 7919) % 9_000_000_000) // spans all buckets + overflow
            .chain([0, 1, 999, 1_000, 1_001, u64::MAX])
            .collect();

        let single = MetricsRegistry::new();
        let shards: Vec<MetricsRegistry> = (0..3).map(|_| MetricsRegistry::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            single.observe_ns("phase_ns", v);
            single.add("cells_total", 1);
            shards[i % 3].observe_ns("phase_ns", v);
            shards[i % 3].add("cells_total", 1);
        }
        // Skewed instruments: only some shards ever see them.
        single.add("obs_events_dropped", 7);
        shards[0].add("obs_events_dropped", 2);
        shards[2].add("obs_events_dropped", 5);
        single.observe_ns("rare_ns", 42);
        shards[1].observe_ns("rare_ns", 42);

        let mut merged = MetricsSnapshot::default();
        for shard in &shards {
            merged.merge(&shard.snapshot());
        }
        let want = single.snapshot();
        let got = merged.histograms.get("phase_ns").unwrap();
        let reference = want.histograms.get("phase_ns").unwrap();
        for q in [0.50, 0.95, 0.99] {
            assert_eq!(got.quantile_ns(q), reference.quantile_ns(q), "q={q}");
        }
        assert_eq!(merged, want); // buckets, counts, sums, max, counters
        assert_eq!(merged.render_json(), single.render_json());
        assert_eq!(merged.render_prometheus(), single.render_prometheus());
    }

    #[test]
    fn snapshot_json_round_trips_bit_identically() {
        let reg = MetricsRegistry::new();
        reg.observe_ns("phase_generate_ns{server=\"Metro\"}", 2_000);
        reg.observe_ns("phase_generate_ns{server=\"Metro\"}", u64::MAX);
        reg.add("cells_total", 11);
        reg.add("weird \"name\"\n", 1);
        let json = reg.render_json();
        let parsed = MetricsSnapshot::parse_json(&json).expect("own output parses");
        assert_eq!(parsed, reg.snapshot());
        assert_eq!(parsed.render_json(), json);
        assert_eq!(MetricsSnapshot::parse_json("{}"), None);
        assert_eq!(MetricsSnapshot::parse_json(&json[..json.len() - 1]), None);
        let empty = MetricsRegistry::new().render_json();
        assert_eq!(
            MetricsSnapshot::parse_json(&empty),
            Some(MetricsSnapshot::default())
        );
    }
}
