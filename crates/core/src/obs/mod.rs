//! Campaign telemetry: structured tracing, a deterministic metrics
//! registry, and per-phase latency profiling.
//!
//! The layer is std-only and **observe-only** by construction:
//!
//! * attaching an [`Obs`] to a campaign never changes classification —
//!   telemetry options are excluded from the campaign config hash and
//!   no pipeline decision reads a metric, trace buffer or clock;
//! * the [`Clock`] abstraction keeps instrumented *tests*
//!   deterministic too: the seeded virtual clock derives span
//!   durations from span identity, so histograms are bit-identical at
//!   any thread count;
//! * trace-sink overflow is accounted (`obs_events_dropped`), never
//!   silent.
//!
//! See DESIGN.md §11 for the event schema, metric-name catalog and the
//! determinism contract.

pub mod clock;
pub mod event;
pub mod export;
pub mod metrics;

pub use clock::{Clock, Stopwatch};
pub use event::{
    read_trace_lines, TraceEvent, TraceKind, TracePhase, TraceSink, DEFAULT_SINK_CAPACITY,
    MAX_EVENT_LINE_BYTES,
};
pub use export::{fmt_ns, Obs, ProgressMeter, SlowCell, SLOWEST_KEPT};
pub use metrics::{
    escape_label_value, json_string, CounterHandle, Exemplar, GaugeHandle, Histogram,
    HistogramHandle, LazyCounter, MetricsRegistry, MetricsSnapshot, BUCKET_BOUNDS_NS,
};
