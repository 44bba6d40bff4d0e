//! Structured trace events and the bounded in-memory sink.
//!
//! Every campaign cell emits enter/exit events for the pipeline phases
//! it runs (describe → generate → compile, plus exchange/wire probes).
//! Events carry the full cell identity — server, client, type id —
//! and on exit the outcome, fault site, retry count, breaker state and
//! duration, so a single JSON line is enough to place a failure inside
//! the pipeline without consulting aggregate tables.
//!
//! The sink is a mutex + ring buffer bounded at a fixed capacity.
//! Overflow is **never silent**: evicting an old event (or refusing an
//! oversized serialized line) increments a dropped counter that the
//! exporter reports as `obs_events_dropped`.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::sync::lock_unpoisoned;
use crate::obs::metrics::{json_string, parse_json_string};

/// Default ring-buffer capacity: enough for a stride-200 campaign's
/// full event stream (~2 events × ~1.5k spans) with headroom.
pub const DEFAULT_SINK_CAPACITY: usize = 16_384;

/// Serialized trace lines longer than this are counted as dropped
/// rather than truncated mid-JSON (a truncated line would be worse
/// than a missing one: it poisons every downstream line parser).
pub const MAX_EVENT_LINE_BYTES: usize = 64 * 1024;

/// Pipeline phase a trace event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Service Description Generation (deploy + WS-I check).
    Describe,
    /// Client Artifact Generation.
    Generate,
    /// Client Artifact Compilation / instantiation.
    Compile,
    /// In-process SOAP message exchange (E13/E14).
    Exchange,
    /// Real-socket exchange over the loopback transport (E15).
    Wire,
    /// WSDL-guided property-based fuzzing of one exchange unit (E19).
    Fuzz,
}

impl TracePhase {
    /// Stable lowercase name used in JSON lines and metric names.
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::Describe => "describe",
            TracePhase::Generate => "generate",
            TracePhase::Compile => "compile",
            TracePhase::Exchange => "exchange",
            TracePhase::Wire => "wire",
            TracePhase::Fuzz => "fuzz",
        }
    }

    /// The phase's aggregate latency-histogram name
    /// (`phase_<name>_ns`), precomposed so the per-span hot path never
    /// formats it.
    pub fn metric_ns(self) -> &'static str {
        match self {
            TracePhase::Describe => "phase_describe_ns",
            TracePhase::Generate => "phase_generate_ns",
            TracePhase::Compile => "phase_compile_ns",
            TracePhase::Exchange => "phase_exchange_ns",
            TracePhase::Wire => "phase_wire_ns",
            TracePhase::Fuzz => "phase_fuzz_ns",
        }
    }

    fn from_name(name: &str) -> Option<TracePhase> {
        Some(match name {
            "describe" => TracePhase::Describe,
            "generate" => TracePhase::Generate,
            "compile" => TracePhase::Compile,
            "exchange" => TracePhase::Exchange,
            "wire" => TracePhase::Wire,
            "fuzz" => TracePhase::Fuzz,
            _ => return None,
        })
    }
}

/// Span boundary: `enter` opens a phase, `exit` closes it with the
/// outcome and duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Phase started.
    Enter,
    /// Phase finished.
    Exit,
}

impl TraceKind {
    fn name(self) -> &'static str {
        match self {
            TraceKind::Enter => "enter",
            TraceKind::Exit => "exit",
        }
    }
}

/// One structured trace event (one JSON line in `--trace-out`).
///
/// Identity fields are zero-copy where the producers allow it: the
/// campaign's server/client/outcome labels are `&'static str`
/// (`ServerId::name` etc.), so they ride as borrowed [`Cow`](std::borrow::Cow)s, and the
/// type id is a shared [`std::sync::Arc`] — the hot path allocates for
/// the cell identity once, not once per field per event. The JSON
/// reader half necessarily produces the owned variants; equality
/// compares contents either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number assigned by the sink at record time.
    pub seq: u64,
    /// Pipeline phase.
    pub phase: TracePhase,
    /// Enter or exit.
    pub kind: TraceKind,
    /// Server framework name (`"Metro"`, `"JBossWS CXF"`, ...).
    pub server: std::borrow::Cow<'static, str>,
    /// Client subsystem name, when the phase involves one.
    pub client: Option<std::borrow::Cow<'static, str>>,
    /// Fully-qualified platform type under test.
    pub type_id: std::sync::Arc<str>,
    /// Exit-side outcome (`"success"`, `"warning"`, `"error"`,
    /// `"refused"`, `"replayed"`, ...).
    pub outcome: Option<std::borrow::Cow<'static, str>>,
    /// Fault-plan site key, when a fault plan governs this span.
    pub fault_site: Option<String>,
    /// Retries consumed by the resilient executor for this span.
    ///
    /// Only `describe` spans can be non-zero: transient deploy
    /// refusals are the one executor-level retry loop, so every other
    /// phase reports 0 by construction. Wire-transport retries are
    /// internal to the request and surface as the
    /// `wire_client_retries_total` metric, not here.
    pub retries: u64,
    /// True when the per-client circuit breaker was open for the cell.
    pub breaker_open: bool,
    /// Exit-side duration in nanoseconds.
    pub dur_ns: Option<u64>,
    /// Wire-server request correlation id (DESIGN.md §16), when the
    /// span answers one admitted request. Serialized as the same
    /// 16-hex-digit string the `X-Request-Id` response header carries,
    /// so a trace line greps directly against client-side captures.
    pub request_id: Option<u64>,
}

impl TraceEvent {
    /// A minimal enter event for `phase`; callers fill in identity.
    pub fn enter(
        phase: TracePhase,
        server: impl Into<std::borrow::Cow<'static, str>>,
        type_id: impl Into<std::sync::Arc<str>>,
    ) -> TraceEvent {
        TraceEvent {
            seq: 0,
            phase,
            kind: TraceKind::Enter,
            server: server.into(),
            client: None,
            type_id: type_id.into(),
            outcome: None,
            fault_site: None,
            retries: 0,
            breaker_open: false,
            dur_ns: None,
            request_id: None,
        }
    }

    /// The matching exit event with an outcome and duration.
    pub fn exit(
        mut self,
        outcome: impl Into<std::borrow::Cow<'static, str>>,
        dur_ns: u64,
    ) -> TraceEvent {
        self.kind = TraceKind::Exit;
        self.outcome = Some(outcome.into());
        self.dur_ns = Some(dur_ns);
        self
    }

    /// Attach a client name.
    pub fn with_client(mut self, client: impl Into<std::borrow::Cow<'static, str>>) -> TraceEvent {
        self.client = Some(client.into());
        self
    }

    /// Attach the fault-plan site key.
    pub fn with_fault_site(mut self, site: &str) -> TraceEvent {
        self.fault_site = Some(site.to_string());
        self
    }

    /// Attach retry count and breaker state.
    pub fn with_resilience(mut self, retries: u64, breaker_open: bool) -> TraceEvent {
        self.retries = retries;
        self.breaker_open = breaker_open;
        self
    }

    /// Attach the wire-server request correlation id.
    pub fn with_request_id(mut self, id: u64) -> TraceEvent {
        self.request_id = Some(id);
        self
    }

    /// Serialize as one JSON object on one line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_json_line(&mut out);
        out
    }

    /// Serialize into a caller-provided buffer (not cleared first) —
    /// the sink's flush loop reuses one buffer across a whole batch so
    /// streaming allocates nothing per event.
    pub fn write_json_line(&self, out: &mut String) {
        out.push('{');
        push_field(out, "seq", &self.seq.to_string(), false);
        push_field(out, "phase", &json_string(self.phase.name()), true);
        push_field(out, "kind", &json_string(self.kind.name()), true);
        push_field(out, "server", &json_string(&self.server), true);
        match &self.client {
            Some(c) => push_field(out, "client", &json_string(c), true),
            None => push_field(out, "client", "null", true),
        }
        push_field(out, "type", &json_string(&self.type_id), true);
        match &self.outcome {
            Some(o) => push_field(out, "outcome", &json_string(o), true),
            None => push_field(out, "outcome", "null", true),
        }
        match &self.fault_site {
            Some(s) => push_field(out, "fault_site", &json_string(s), true),
            None => push_field(out, "fault_site", "null", true),
        }
        push_field(out, "retries", &self.retries.to_string(), true);
        push_field(
            out,
            "breaker_open",
            if self.breaker_open { "true" } else { "false" },
            true,
        );
        match self.dur_ns {
            Some(d) => push_field(out, "dur_ns", &d.to_string(), true),
            None => push_field(out, "dur_ns", "null", true),
        }
        match self.request_id {
            Some(id) => push_field(out, "request_id", &json_string(&format!("{id:016x}")), true),
            None => push_field(out, "request_id", "null", true),
        }
        out.push('}');
    }

    /// Parse one JSON line produced by [`TraceEvent::to_json_line`].
    ///
    /// This is the reader half of the round-trip contract: it accepts
    /// exactly the flat shape the writer emits (string / integer /
    /// bool / null values, no nesting) and returns `None` on anything
    /// else rather than guessing.
    pub fn from_json_line(line: &str) -> Option<TraceEvent> {
        let fields = parse_flat_object(line.trim())?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let str_of = |v: &JsonValue| match v {
            JsonValue::Str(s) => Some(s.clone()),
            _ => None,
        };
        let opt_str = |v: &JsonValue| match v {
            JsonValue::Str(s) => Some(Some(s.clone())),
            JsonValue::Null => Some(None),
            _ => None,
        };
        let num = |v: &JsonValue| match v {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        };
        Some(TraceEvent {
            seq: num(get("seq")?)?,
            phase: TracePhase::from_name(&str_of(get("phase")?)?)?,
            kind: match str_of(get("kind")?)?.as_str() {
                "enter" => TraceKind::Enter,
                "exit" => TraceKind::Exit,
                _ => return None,
            },
            server: str_of(get("server")?)?.into(),
            client: opt_str(get("client")?)?.map(Into::into),
            type_id: str_of(get("type")?)?.into(),
            outcome: opt_str(get("outcome")?)?.map(Into::into),
            fault_site: opt_str(get("fault_site")?)?,
            retries: num(get("retries")?)?,
            breaker_open: match get("breaker_open")? {
                JsonValue::Bool(b) => *b,
                _ => return None,
            },
            dur_ns: match get("dur_ns")? {
                JsonValue::Num(n) => Some(*n),
                JsonValue::Null => None,
                _ => return None,
            },
            // Absent on pre-§16 trace files — tolerated, not required.
            request_id: match get("request_id") {
                None | Some(JsonValue::Null) => None,
                Some(JsonValue::Str(s)) => Some(u64::from_str_radix(s, 16).ok()?),
                Some(_) => return None,
            },
        })
    }
}

fn push_field(out: &mut String, key: &str, rendered: &str, comma: bool) {
    if comma {
        out.push(',');
    }
    out.push_str(&json_string(key));
    out.push(':');
    out.push_str(rendered);
}

/// Values the flat trace-line parser understands.
enum JsonValue {
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
}

/// Parse `{"k":v,...}` with string/integer/bool/null values only.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let inner = line.strip_prefix('{')?.strip_suffix('}')?;
    let bytes = inner.as_bytes();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let (key, next) = parse_json_string(inner, i)?;
        i = skip_ws(bytes, next);
        if bytes.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(bytes, i + 1);
        let (value, next) = parse_json_value(inner, i)?;
        fields.push((key, value));
        i = skip_ws(bytes, next);
        match bytes.get(i) {
            Some(b',') => i = skip_ws(bytes, i + 1),
            None => break,
            _ => return None,
        }
    }
    Some(fields)
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
        i += 1;
    }
    i
}

fn parse_json_value(src: &str, i: usize) -> Option<(JsonValue, usize)> {
    let bytes = src.as_bytes();
    match bytes.get(i)? {
        b'"' => parse_json_string(src, i).map(|(s, n)| (JsonValue::Str(s), n)),
        b't' => src[i..]
            .starts_with("true")
            .then_some((JsonValue::Bool(true), i + 4)),
        b'f' => src[i..]
            .starts_with("false")
            .then_some((JsonValue::Bool(false), i + 5)),
        b'n' => src[i..].starts_with("null").then_some((JsonValue::Null, i + 4)),
        b'0'..=b'9' => {
            let mut end = i;
            while bytes.get(end).is_some_and(u8::is_ascii_digit) {
                end += 1;
            }
            src[i..end].parse().ok().map(|n| (JsonValue::Num(n), end))
        }
        _ => None,
    }
}

/// Events a thread stages locally before taking the sink's merge lock.
/// 64 events ≈ 32 spans: long enough to amortize the lock, short
/// enough that the ring and the trace stream never lag a live worker
/// by more than a few cells.
const LOCAL_BATCH: usize = 64;

/// One thread's shared staging buffer: the owning thread appends, and
/// any reader may steal its contents through the sink's stage
/// registry. The buffer mutex is all but uncontended — the owner takes
/// it per event, readers only at observation points.
type StageBuf = std::sync::Arc<Mutex<Vec<TraceEvent>>>;

/// One thread's staging handle for one sink, plus the weak back-edge
/// that lets the thread-exit destructor deregister the buffer and
/// flush whatever is still pending. Dropping a `LocalStage` whose sink
/// is already gone simply discards the events — nobody can observe a
/// dropped sink.
struct LocalStage {
    sink_id: u64,
    sink: std::sync::Weak<SinkCore>,
    buf: StageBuf,
}

impl Drop for LocalStage {
    fn drop(&mut self) {
        if let Some(core) = self.sink.upgrade() {
            // Publish the tail batch FIRST, while the stage is still
            // registered. Deregistering first opens a window where a
            // reader's steal sees neither the stage nor its events and
            // under-reports `recorded()` during thread teardown; with
            // this order a concurrent reader either steals the tail
            // itself (our ingest then merges nothing) or finds an
            // already-empty buffer after it — exact either way. The
            // owner is dying, so nothing is ever pushed after this.
            {
                // lock-order: L3.b (stage buffer) — above L3.c (ring).
                let mut pending = lock_unpoisoned(&self.buf);
                core.ingest(&mut pending);
            }
            // lock-order: L3.a (stage registry) — taken with no other
            // sink lock held.
            lock_unpoisoned(&core.stages).retain(|s| !std::sync::Arc::ptr_eq(s, &self.buf));
        }
    }
}

thread_local! {
    /// Per-thread staging handles, keyed by sink id (tests hold
    /// several sinks at once; campaigns hold one). Thread exit drops
    /// the stages, which deregisters the buffers and flushes every
    /// pending event.
    static STAGES: std::cell::RefCell<Vec<LocalStage>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Issues unique sink ids for the thread-local staging key.
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(0);

/// The shared state behind a [`TraceSink`]: the bounded ring, the
/// sequence/drop accounting and the optional output stream. Kept
/// behind an `Arc` so per-thread staging buffers can hold a weak
/// back-edge for their exit flush.
#[derive(Debug)]
struct SinkCore {
    id: u64,
    buf: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    /// Next sequence number == total events ever merged, so this one
    /// atomic serves both the flush numbering and
    /// [`TraceSink::recorded`].
    seq: AtomicU64,
    dropped: AtomicU64,
    /// Mirrors `out.is_some()` so the flush path can skip the file
    /// mutex (and the serialization) when nothing streams.
    has_out: std::sync::atomic::AtomicBool,
    out: Mutex<Option<File>>,
    write_error: Mutex<Option<String>>,
    /// Every live thread's staging buffer, so read-side accessors can
    /// steal staged tails from *all* threads — not just the caller's —
    /// before reporting. This is what keeps accounting exact even for
    /// a reader that races a worker's thread exit (`thread::scope` can
    /// return before the worker's TLS destructors have run).
    stages: Mutex<Vec<StageBuf>>,
}

impl SinkCore {
    /// Merge a staged batch into the ring (and the output stream)
    /// under one short lock hold.
    ///
    /// Sequence numbers are assigned and the batch's lines serialized
    /// while the ring lock is held; the stream lock is taken before the
    /// ring lock is released, and the batch then goes out in one
    /// `write_all`. So both the ring and the `--trace-out` stream stay
    /// monotonic in `seq` even with concurrent flushers, exactly as
    /// when `record` itself took the lock per event. An oversized
    /// serialized line (only detectable when streaming) drops the event
    /// from *both* the file and the ring, so each missing event is
    /// counted exactly once and `recorded() - len()` always equals
    /// `dropped()`.
    fn ingest(&self, pending: &mut Vec<TraceEvent>) {
        if pending.is_empty() {
            return;
        }
        // lock-order: L3.c (trace ring) — may acquire L3.d (trace out
        // stream) below; nothing else is ever taken under it.
        let mut buf = lock_unpoisoned(&self.buf);
        let streaming = self.has_out.load(Ordering::Relaxed);
        // Every line of the batch, for one write.
        let mut lines = String::new();
        for mut event in pending.drain(..) {
            event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
            if streaming {
                let start = lines.len();
                event.write_json_line(&mut lines);
                if lines.len() - start > MAX_EVENT_LINE_BYTES {
                    lines.truncate(start);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                lines.push('\n');
            }
            if buf.len() >= self.capacity {
                buf.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            buf.push_back(event);
        }
        if lines.is_empty() {
            return;
        }
        // lock-order: L3.d (trace out stream) — leaf, taken under L3.c
        // so batches reach the file in `seq` order; L3.c is released
        // before the write.
        let mut out = lock_unpoisoned(&self.out);
        drop(buf);
        if let Some(file) = out.as_mut() {
            if let Err(e) = file.write_all(lines.as_bytes()) {
                // lock-order: L3.e (write-error latch) — innermost of
                // the sink chain.
                let mut err = lock_unpoisoned(&self.write_error);
                if err.is_none() {
                    *err = Some(e.to_string());
                }
            }
        }
    }

    /// Steal and merge every registered thread's staged tail. Each
    /// buffer is ingested while its own mutex is held, so a racing
    /// owner can neither interleave its batch mid-steal nor invert its
    /// per-thread event order.
    fn flush_stages(&self) {
        // lock-order: L3.a (stage registry) — snapshot only; released
        // before the buffer/ring locks below.
        let stages: Vec<StageBuf> = lock_unpoisoned(&self.stages).clone();
        for stage in stages {
            // lock-order: L3.b (stage buffer) — above L3.c (ring).
            let mut pending = lock_unpoisoned(&stage);
            self.ingest(&mut pending);
        }
    }
}

/// The bounded in-memory trace sink, optionally teeing every event to
/// a JSON-lines file (`--trace-out`).
///
/// Recording goes through **per-thread staging buffers**: a worker
/// appends to its own registered buffer (one all-but-uncontended mutex
/// per thread) and only every `LOCAL_BATCH` (64) events — or at thread
/// exit — takes the shared merge lock to publish the batch. Read-side
/// accessors steal every registered buffer's staged tail first, so
/// they stay exact no matter which threads recorded or whether those
/// threads have finished tearing down. Workers therefore no longer
/// serialize on a single ring mutex per event, while every pinned
/// invariant of the single-lock design still holds: `seq` is assigned
/// under the merge lock (ring and stream stay seq-monotonic), eviction
/// still counts into `dropped`, and `recorded() - len() == dropped()`
/// at every observation point.
#[derive(Debug)]
pub struct TraceSink {
    core: std::sync::Arc<SinkCore>,
}

impl TraceSink {
    /// A sink holding at most `capacity` events in memory.
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            core: std::sync::Arc::new(SinkCore {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                // Reserve the whole ring up front (bounded at 64Ki
                // events) so no grow-realloc ever happens inside the
                // merge lock.
                buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 65_536))),
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                has_out: std::sync::atomic::AtomicBool::new(false),
                out: Mutex::new(None),
                write_error: Mutex::new(None),
                stages: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Stream every subsequent event to `path` as JSON lines.
    pub fn set_output(&self, path: &Path) -> std::io::Result<()> {
        self.flush_local();
        let file = File::create(path)?;
        // lock-order: L3.d (trace out stream) — leaf here.
        *lock_unpoisoned(&self.core.out) = Some(file);
        self.core.has_out.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Record one event into the calling thread's staging buffer,
    /// publishing the batch to the ring (and the output stream) every
    /// `LOCAL_BATCH` (64) events. See the type docs for the merge
    /// semantics; [`TraceSink::flush_local`] forces the tail batch
    /// out early.
    pub fn record(&self, event: TraceEvent) {
        let mut event = Some(event);
        let staged = STAGES.try_with(|stages| {
            let mut stages = stages.borrow_mut();
            let stage = match stages.iter_mut().find(|s| s.sink_id == self.core.id) {
                Some(stage) => stage,
                None => {
                    // Adopting a new sink is the natural moment to
                    // forget stages whose sink has been dropped.
                    stages.retain(|s| s.sink.strong_count() > 0);
                    let buf: StageBuf =
                        std::sync::Arc::new(Mutex::new(Vec::with_capacity(LOCAL_BATCH)));
                    // lock-order: L3.a (stage registry) — leaf here.
                    lock_unpoisoned(&self.core.stages).push(std::sync::Arc::clone(&buf));
                    stages.push(LocalStage {
                        sink_id: self.core.id,
                        sink: std::sync::Arc::downgrade(&self.core),
                        buf,
                    });
                    stages.last_mut().expect("just pushed")
                }
            };
            // lock-order: L3.b (stage buffer) — uncontended unless a
            // reader is stealing; held across the batch ingest so the
            // thread's event order survives concurrent steals.
            let mut pending = lock_unpoisoned(&stage.buf);
            pending.push(event.take().expect("event staged once"));
            if pending.len() >= LOCAL_BATCH {
                self.core.ingest(&mut pending);
            }
        });
        if staged.is_err() {
            // Thread-local storage is gone (we are inside thread
            // teardown): publish directly rather than lose the event.
            if let Some(event) = event.take() {
                self.core.ingest(&mut vec![event]);
            }
        }
    }

    /// Publish every thread's staged events now. Read-side accessors
    /// call this implicitly, so observation points always see exact
    /// accounting regardless of which threads recorded; worker threads
    /// also flush their own tail automatically at thread exit.
    pub fn flush_local(&self) {
        self.core.flush_stages();
    }

    /// Total events published to the sink (every thread's staged tail
    /// is flushed first, so a caller always sees everything recorded
    /// so far).
    pub fn recorded(&self) -> u64 {
        self.core.flush_stages();
        self.core.seq.load(Ordering::Relaxed)
    }

    /// Events evicted on overflow or refused as oversized — the value
    /// the exporter publishes as `obs_events_dropped`.
    pub fn dropped(&self) -> u64 {
        self.core.flush_stages();
        self.core.dropped.load(Ordering::Relaxed)
    }

    /// First trace-file write error, if any (latched, like the journal
    /// writer's).
    pub fn write_error(&self) -> Option<String> {
        self.core.flush_stages();
        // lock-order: L3.e (write-error latch) — leaf here.
        lock_unpoisoned(&self.core.write_error).clone()
    }

    /// Drain and return the buffered events in `seq` order (sequence
    /// numbers are assigned under the merge lock, so publish order and
    /// seq order coincide).
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.core.flush_stages();
        // lock-order: L3.c (trace ring) — leaf here.
        lock_unpoisoned(&self.core.buf).drain(..).collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.core.flush_stages();
        // lock-order: L3.c (trace ring) — leaf here.
        lock_unpoisoned(&self.core.buf).len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::with_capacity(DEFAULT_SINK_CAPACITY)
    }
}

/// Clones share the same core (ring, accounting, output stream) — a
/// clone is a second handle, not a second sink. The wire server's
/// config carries one so every reactor records into the campaign's
/// sink.
impl Clone for TraceSink {
    fn clone(&self) -> TraceSink {
        TraceSink { core: std::sync::Arc::clone(&self.core) }
    }
}

/// Read a JSON-lines trace file back into events, skipping blank
/// lines; returns `None` if any non-blank line fails to parse.
pub fn read_trace_lines(text: &str) -> Option<Vec<TraceEvent>> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(TraceEvent::from_json_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent::enter(TracePhase::Generate, "Metro", "java.util.Date")
            .with_client("Axis1 wsdl2java")
            .with_fault_site("gen/Metro/Axis1/java.util.Date")
            .with_resilience(2, false)
            .exit("warning", 123_456)
    }

    #[test]
    fn json_line_round_trips() {
        let mut event = sample();
        event.seq = 7;
        let line = event.to_json_line();
        let parsed = TraceEvent::from_json_line(&line).expect("parses");
        assert_eq!(parsed, event);
    }

    #[test]
    fn enter_events_round_trip_nulls() {
        let event = TraceEvent::enter(TracePhase::Describe, "WCF .NET", "System.Data.DataSet");
        let parsed = TraceEvent::from_json_line(&event.to_json_line()).expect("parses");
        assert_eq!(parsed, event);
        assert_eq!(parsed.client, None);
        assert_eq!(parsed.dur_ns, None);
    }

    #[test]
    fn escaped_strings_survive() {
        let mut event = sample();
        event.type_id = "weird\"quote\\back\nnew".into();
        let parsed = TraceEvent::from_json_line(&event.to_json_line()).expect("parses");
        assert_eq!(parsed.type_id, event.type_id);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in ["", "{", "{\"seq\":}", "[1,2]", "{\"seq\":1}", "not json"] {
            assert!(TraceEvent::from_json_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn overflow_counts_drops_never_silently() {
        let sink = TraceSink::with_capacity(2);
        for _ in 0..5 {
            sink.record(sample());
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.recorded(), 5);
        assert_eq!(sink.dropped(), 3);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].seq, 3, "oldest evicted first");
        assert!(sink.is_empty());
    }

    #[test]
    fn oversized_lines_drop_once_from_file_and_ring() {
        let path = std::env::temp_dir().join(format!(
            "wsinterop-obs-oversized-{}.jsonl",
            std::process::id()
        ));
        let sink = TraceSink::with_capacity(2);
        sink.set_output(&path).expect("create trace file");
        let mut huge = sample();
        huge.type_id = "x".repeat(MAX_EVENT_LINE_BYTES).into();
        sink.record(huge);
        sink.record(sample());
        // The oversized event is gone from both streams and counted
        // exactly once: recorded - len == dropped, never double.
        assert_eq!(sink.recorded(), 2);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
        let text = std::fs::read_to_string(&path).expect("read trace file");
        assert_eq!(read_trace_lines(&text).expect("parses").len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn request_id_round_trips_and_absent_key_parses() {
        let mut event = sample().with_request_id(0xDEAD_BEEF);
        event.seq = 3;
        let line = event.to_json_line();
        assert!(line.contains("\"request_id\":\"00000000deadbeef\""));
        let parsed = TraceEvent::from_json_line(&line).expect("parses");
        assert_eq!(parsed.request_id, Some(0xDEAD_BEEF));
        assert_eq!(parsed, event);
        // Pre-§16 lines carry no request_id key at all.
        let legacy = line
            .replace(",\"request_id\":\"00000000deadbeef\"", "")
            .replace(",\"request_id\":null", "");
        let parsed = TraceEvent::from_json_line(&legacy).expect("parses");
        assert_eq!(parsed.request_id, None);
        // A non-hex or non-string id is rejected, not guessed at.
        let bad = line.replace("\"00000000deadbeef\"", "\"zz\"");
        assert!(TraceEvent::from_json_line(&bad).is_none());
    }

    #[test]
    fn read_trace_lines_skips_blanks_and_rejects_garbage() {
        let a = sample().to_json_line();
        let text = format!("{a}\n\n{a}\n");
        assert_eq!(read_trace_lines(&text).expect("parses").len(), 2);
        assert!(read_trace_lines("garbage\n").is_none());
    }
}
