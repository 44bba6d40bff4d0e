//! The hardened loopback SOAP endpoint: a readiness-driven HTTP/1.1
//! server hosting every deployed echo service.
//!
//! Architecture (DESIGN.md §15): a small set of reactor threads share
//! one nonblocking listener; each accepted socket becomes a
//! per-connection state machine ([`super::conn::Conn`]) owned by
//! exactly one reactor, so connection state is thread-confined and the
//! serving path takes **no locks** (docs/CONCURRENCY.md). The only
//! cross-thread coordination is the atomic admission [`Gauges`] and
//! the handle-based [`WireStats`] counters.
//!
//! Degradation ladder (every layer answers with a well-formed,
//! deterministic HTTP response):
//!
//! 1. **Accept-gate shedding** — beyond `workers + queue_depth` open
//!    connections, a new peer gets `503` + `Retry-After` immediately.
//!    Nothing ever queues unboundedly.
//! 2. **In-flight budget with bounded queueing** — at most `workers`
//!    connections are actively served; up to `queue_depth` more wait
//!    *unread* for a slot, and the wait itself is deadline-bounded
//!    (`503` + `Retry-After` on expiry).
//! 3. **Per-connection deadlines** — read, write, and whole-connection
//!    budgets: a slow-loris peer gets `408`, a peer that stops reading
//!    its response is dropped, an idle keep-alive connection is closed
//!    silently.
//! 4. **Keep-alive demotion** — while any connection is queued, every
//!    response is demoted to `Connection: close` so slots recycle
//!    instead of being pinned by idle keep-alive sessions.
//!
//! Size limits (`413` before buffering) and graceful drain (stop
//! accepting, serve what is in flight, then exit) carry over from the
//! blocking design unchanged. Every dispatched response additionally
//! carries a deterministic `X-Request-Id` header (DESIGN.md §16) —
//! body bytes and status classification are untouched, which is what
//! the E15 loopback ≡ in-process equivalence actually compares.
//!
//! The **admin plane** (§16) rides the same reactors: `GET /metrics`
//! (Prometheus text), `GET /healthz` (readiness from the ladder
//! state) and `GET /statusz` (JSON snapshot) are served through the
//! identical state machine and `render_response` path as SOAP
//! traffic, but accounted under `wire_server_admin_*` so the
//! served-only latency histogram and its quantiles never mix scrape
//! traffic into serving numbers.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wsinterop_typecat::rng::splitmix64;
use wsinterop_wsdl::de::from_xml_str;
use wsinterop_wsdl::{soap, Definitions};
use wsinterop_xml::writer::{write_document, WriteOptions};

use crate::doccache::content_hash;
use crate::exchange::serve_echo;
use crate::obs::{
    CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry, TraceEvent, TracePhase,
    TraceSink,
};

use super::conn::{Conn, Drive, Phase};
use super::http::{self, HttpLimits, Request};

/// The admin path that triggers a remote graceful shutdown.
pub const SHUTDOWN_PATH: &str = "/__admin/shutdown";

/// Connections accepted per reactor pass before yielding to the
/// drive loop (bounds accept latency vs. serving latency).
const ACCEPT_BATCH: usize = 32;

/// Longest reactor nap, reached after a run of idle passes. Short
/// enough that deadline checks stay sharp, long enough that an idle
/// server does not spin a core.
const IDLE_NAP: Duration = Duration::from_micros(500);

/// First nap after a pass that made progress: a busy reactor re-checks
/// its sockets within tens of microseconds instead of a full
/// [`IDLE_NAP`].
const FIRST_NAP: Duration = Duration::from_micros(16);

/// The nap to take on the next idle pass, given the one before it:
/// back to [`FIRST_NAP`] once a pass made progress, otherwise twice
/// `prev`, capped at [`IDLE_NAP`].
fn next_nap(prev: Duration, progressed: bool) -> Duration {
    if progressed {
        FIRST_NAP
    } else {
        (prev * 2).min(IDLE_NAP)
    }
}

/// One hosted echo service.
pub struct HostedService {
    /// The published description, byte-for-byte what `GET ?wsdl`
    /// returns.
    pub wsdl_xml: String,
    /// The server's own parse of that description (kept pre-parsed so
    /// the hot path never re-parses), or the parse error.
    pub defs: Result<Definitions, String>,
}

impl HostedService {
    /// Hosts one description, pre-parsing it server-side.
    pub fn new(mut wsdl_xml: String) -> HostedService {
        // Held for the server's lifetime: release the renderer's spare
        // capacity rather than keep it allocated alongside the text.
        wsdl_xml.shrink_to_fit();
        let defs = from_xml_str(&wsdl_xml).map_err(|e| e.to_string());
        HostedService { wsdl_xml, defs }
    }
}

/// Deploys every `stride`-th catalog entry of every paper server and
/// returns the path → service map the loopback endpoint serves,
/// mirroring exactly the site enumeration of
/// [`crate::exchange::survey_sites`]. Paths are
/// `/{ServerId:?}/{fqcn}`.
pub fn host_survey_services(stride: usize) -> BTreeMap<String, HostedService> {
    use wsinterop_frameworks::server::{all_servers, DeployOutcome};

    let mut services = BTreeMap::new();
    for server in all_servers() {
        let id = format!("{:?}", server.info().id);
        for entry in server.catalog().entries().iter().step_by(stride.max(1)) {
            let DeployOutcome::Deployed { wsdl_xml } = server.deploy(entry) else {
                continue;
            };
            services.insert(
                format!("/{id}/{}", entry.fqcn),
                HostedService::new(wsdl_xml),
            );
        }
    }
    services
}

/// Tuning for the hardened endpoint.
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// In-flight budget: connections actively served at once.
    pub workers: usize,
    /// Bounded queue: connections admitted past the accept gate but
    /// waiting (unread) for an in-flight slot; beyond
    /// `workers + queue_depth` open connections, new peers are shed
    /// with `503`.
    pub queue_depth: usize,
    /// Reactor threads sharing the listener (each owns its accepted
    /// connections).
    pub reactors: usize,
    /// Per-request read deadline; also bounds the queue wait.
    pub read_timeout: Duration,
    /// Per-response write deadline.
    pub write_timeout: Duration,
    /// Whole-connection budget, keep-alive included.
    pub total_timeout: Duration,
    /// `Retry-After` seconds advertised on `503` sheds.
    pub retry_after_secs: u64,
    /// Framing limits (start line, headers, body).
    pub limits: HttpLimits,
    /// Maximum requests served per keep-alive connection.
    pub keep_alive_requests: usize,
    /// Optional shared telemetry registry. When set, every
    /// [`WireStats`] counter lives in it (`wire_server_*_total`),
    /// responses are tallied by status code
    /// (`wire_server_responses_total{code="..."}`) and the per-request
    /// latency histogram (`wire_server_request_ns`) is fed.
    /// Observe-only: responses are byte-identical with or without it.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Seed for the deterministic request-id stream: the id of the
    /// n-th dispatched request is `splitmix64(seed ^ mix(n))`, a
    /// bijective map, so ids are unique per request and the *set* of
    /// ids for a run depends only on the seed and the request count —
    /// not on reactor interleaving.
    pub request_seed: u64,
    /// Optional trace sink: when set, every dispatched request records
    /// one `wire`-phase exit span carrying its request id, path,
    /// status and flush-complete latency. Observe-only.
    pub trace: Option<TraceSink>,
}

impl Default for WireServerConfig {
    fn default() -> WireServerConfig {
        WireServerConfig {
            workers: 4,
            queue_depth: 8,
            reactors: 2,
            read_timeout: Duration::from_millis(2000),
            write_timeout: Duration::from_millis(2000),
            total_timeout: Duration::from_millis(30_000),
            retry_after_secs: 1,
            limits: HttpLimits::default(),
            keep_alive_requests: 64,
            metrics: None,
            request_seed: 0x5EED_1D00_C0DE_CAFE,
            trace: None,
        }
    }
}

/// Connection-lifecycle gauges. Gauges cannot ride on the monotonic
/// registry counters, so they stay atomics shared between the accept
/// gate (CAS admission) and the reactors; the registry mirrors them as
/// opened/closed and admitted/completed counter pairs.
#[derive(Debug, Default)]
pub(crate) struct Gauges {
    /// Connections currently open (admitted or queued; sheds excluded).
    pub(crate) open: AtomicUsize,
    /// Connections currently holding an in-flight slot.
    pub(crate) in_flight: AtomicUsize,
    /// Connections currently parked in the bounded queue.
    pub(crate) queued: AtomicUsize,
}

/// Pre-resolved status codes for `wire_server_responses_total` —
/// every code the degradation ladder can emit. A code outside this
/// set ticks `wire_server_responses_fallback_total` instead of taking
/// the registry lock on the serving path (docs/CONCURRENCY.md rule 5);
/// the set being exhaustive is pinned by a test, so the fallback
/// counter staying 0 is itself an invariant.
const RESPONSE_CODES: [u16; 8] = [200, 400, 404, 405, 408, 413, 500, 503];

/// Admin-plane routes, pre-resolved like the status codes so a scrape
/// never locks the registry either.
const ADMIN_ROUTES: [&str; 4] = ["metrics", "healthz", "statusz", "shutdown"];

/// Live serving-path telemetry: registry-backed counter/histogram
/// handles (pre-resolved once, per docs/CONCURRENCY.md rule 5) plus
/// the lifecycle gauges. Cloning is cheap (`Arc`s all the way down)
/// and clones observe the same live values — tests hold one across a
/// shutdown.
#[derive(Debug, Clone)]
pub struct WireStats {
    pub(crate) accepted: CounterHandle,
    pub(crate) shed: CounterHandle,
    pub(crate) served: CounterHandle,
    pub(crate) oversized: CounterHandle,
    pub(crate) timeouts: CounterHandle,
    pub(crate) malformed: CounterHandle,
    pub(crate) not_found: CounterHandle,
    pub(crate) queue_timeouts: CounterHandle,
    pub(crate) write_stalls: CounterHandle,
    pub(crate) demoted: CounterHandle,
    pub(crate) conn_opened: CounterHandle,
    pub(crate) conn_closed: CounterHandle,
    pub(crate) admitted: CounterHandle,
    pub(crate) completed: CounterHandle,
    pub(crate) request_ns: HistogramHandle,
    /// Admin-plane accounting (DESIGN.md §16): scrapes/health checks
    /// ride the serving reactors but never touch the serving-path
    /// counters or `wire_server_request_ns`.
    pub(crate) admin: CounterHandle,
    pub(crate) admin_request_ns: HistogramHandle,
    admin_responses: [(&'static str, CounterHandle); ADMIN_ROUTES.len()],
    responses: [(u16, CounterHandle); RESPONSE_CODES.len()],
    /// Responses with a status outside [`RESPONSE_CODES`] — the ladder
    /// never produces one, so this stays 0; it replaces the old
    /// by-name registry fallback that locked on the serving path.
    responses_fallback: CounterHandle,
    /// Ordinal source for the deterministic request-id stream.
    pub(crate) req_seq: Arc<AtomicU64>,
    /// Registry mirrors of the admission gauges, synced on scrape so
    /// `/metrics` and `/statusz` expose live connection state.
    open_gauge: GaugeHandle,
    in_flight_gauge: GaugeHandle,
    queued_gauge: GaugeHandle,
    pub(crate) gauges: Arc<Gauges>,
    pub(crate) registry: Arc<MetricsRegistry>,
}

impl WireStats {
    fn new(registry: Arc<MetricsRegistry>) -> WireStats {
        let counter = |name: &str| registry.counter_handle(name);
        WireStats {
            accepted: counter("wire_server_accepted_total"),
            shed: counter("wire_server_shed_total"),
            served: counter("wire_server_served_total"),
            oversized: counter("wire_server_oversized_total"),
            timeouts: counter("wire_server_timeouts_total"),
            malformed: counter("wire_server_malformed_total"),
            not_found: counter("wire_server_not_found_total"),
            queue_timeouts: counter("wire_server_queue_timeouts_total"),
            write_stalls: counter("wire_server_write_stalls_total"),
            demoted: counter("wire_server_demoted_total"),
            conn_opened: counter("wire_server_conns_opened_total"),
            conn_closed: counter("wire_server_conns_closed_total"),
            admitted: counter("wire_server_admitted_total"),
            completed: counter("wire_server_completed_total"),
            request_ns: registry.histogram_handle("wire_server_request_ns"),
            admin: counter("wire_server_admin_total"),
            admin_request_ns: registry.histogram_handle("wire_server_admin_request_ns"),
            admin_responses: ADMIN_ROUTES.map(|route| {
                (
                    route,
                    registry.counter_handle(&format!(
                        "wire_server_admin_responses_total{{route=\"{route}\"}}"
                    )),
                )
            }),
            responses: RESPONSE_CODES.map(|code| {
                (
                    code,
                    registry.counter_handle(&format!(
                        "wire_server_responses_total{{code=\"{code}\"}}"
                    )),
                )
            }),
            responses_fallback: counter("wire_server_responses_fallback_total"),
            req_seq: Arc::new(AtomicU64::new(0)),
            open_gauge: registry.gauge_handle("wire_server_open_conns"),
            in_flight_gauge: registry.gauge_handle("wire_server_in_flight"),
            queued_gauge: registry.gauge_handle("wire_server_queued"),
            gauges: Arc::new(Gauges::default()),
            registry,
        }
    }

    fn count_response(&self, status: u16) {
        match self.responses.iter().find(|(code, _)| *code == status) {
            Some((_, handle)) => handle.inc(),
            // Unreachable by construction (RESPONSE_CODES is the
            // ladder's whole vocabulary); counted, never locked on.
            None => self.responses_fallback.inc(),
        }
    }

    fn count_admin(&self, route: &str) {
        match self.admin_responses.iter().find(|(name, _)| *name == route) {
            Some((_, handle)) => handle.inc(),
            None => self.responses_fallback.inc(),
        }
    }

    /// Mirrors the live admission gauges into the registry so a render
    /// (scrape, statusz, loadgen summary) reports current connection
    /// state. Called on the admin path only — never while serving.
    pub fn sync_gauges(&self) {
        self.open_gauge.set(self.gauges.open.load(Ordering::SeqCst) as u64);
        self.in_flight_gauge.set(self.gauges.in_flight.load(Ordering::SeqCst) as u64);
        self.queued_gauge.set(self.gauges.queued.load(Ordering::SeqCst) as u64);
    }

    /// Connections accepted (including ones later shed).
    pub fn accepted(&self) -> usize {
        self.accepted.get() as usize
    }

    /// Connections shed with `503` (accept gate; queue-wait expiries
    /// are [`WireStats::queue_timeouts`]).
    pub fn shed(&self) -> usize {
        self.shed.get() as usize
    }

    /// Requests answered with a 2xx/5xx SOAP/WSDL response.
    pub fn served(&self) -> usize {
        self.served.get() as usize
    }

    /// Requests refused with `413` (size caps).
    pub fn oversized(&self) -> usize {
        self.oversized.get() as usize
    }

    /// Requests timed out with `408` (slow loris / stalled body).
    pub fn timeouts(&self) -> usize {
        self.timeouts.get() as usize
    }

    /// Requests refused with `400` (framing).
    pub fn malformed(&self) -> usize {
        self.malformed.get() as usize
    }

    /// Requests answered `404`/`405`.
    pub fn not_found(&self) -> usize {
        self.not_found.get() as usize
    }

    /// Queued connections shed with `503` when their slot wait
    /// exceeded the read deadline.
    pub fn queue_timeouts(&self) -> usize {
        self.queue_timeouts.get() as usize
    }

    /// Connections dropped because the peer stopped reading its
    /// response before the write deadline.
    pub fn write_stalls(&self) -> usize {
        self.write_stalls.get() as usize
    }

    /// Keep-alive responses demoted to `Connection: close` because
    /// connections were queued at response time.
    pub fn demoted(&self) -> usize {
        self.demoted.get() as usize
    }

    /// Gauge: connections currently open (admitted or queued).
    pub fn open(&self) -> usize {
        self.gauges.open.load(Ordering::SeqCst)
    }

    /// Gauge: connections currently holding an in-flight slot.
    pub fn in_flight(&self) -> usize {
        self.gauges.in_flight.load(Ordering::SeqCst)
    }

    /// Gauge: connections currently parked in the bounded queue.
    pub fn queued(&self) -> usize {
        self.gauges.queued.load(Ordering::SeqCst)
    }

    /// Admin-plane requests answered (`/metrics`, `/healthz`,
    /// `/statusz`, shutdown).
    pub fn admin(&self) -> usize {
        self.admin.get() as usize
    }

    /// Responses whose status fell outside the pre-resolved ladder set
    /// — 0 by construction; pinned by tests.
    pub fn responses_fallback(&self) -> usize {
        self.responses_fallback.get() as usize
    }

    /// Request ids issued so far (== dispatched requests, admin
    /// included).
    pub fn request_ids_issued(&self) -> u64 {
        self.req_seq.load(Ordering::SeqCst)
    }
}

pub(crate) struct Shared {
    services: BTreeMap<String, HostedService>,
    pub(crate) config: WireServerConfig,
    pub(crate) stats: WireStats,
    stop: AtomicBool,
    addr: SocketAddr,
    /// Server start time — `/statusz` uptime.
    started: Instant,
    /// FNV-1a over the numeric config fields — `/statusz` exposes it
    /// so a scrape can tell two differently-tuned servers apart.
    config_hash: u64,
}

/// What [`Env::respond`] hands back: the rendered bytes plus the
/// accounting facts the connection resolves when the flush completes.
pub(crate) struct Responded {
    pub(crate) bytes: Vec<u8>,
    pub(crate) status: u16,
    /// Admin-plane responses are excluded from the serving histogram
    /// and per-code counters.
    pub(crate) admin: bool,
}

/// Armed at dispatch, resolved when the response is fully flushed:
/// ties the latency observation (and the optional trace span) to the
/// request's deterministic id.
pub(crate) struct PendingResponse {
    pub(crate) started: Instant,
    pub(crate) request_id: u64,
    pub(crate) status: u16,
    pub(crate) admin: bool,
    /// Request path — captured only when a trace sink is attached, so
    /// the serving path allocates nothing for telemetry otherwise.
    pub(crate) path: Option<String>,
}

/// The reactor-side view of the server handed to every
/// [`Conn::drive`] pass.
pub(crate) struct Env<'a> {
    pub(crate) config: &'a WireServerConfig,
    pub(crate) stats: &'a WireStats,
    shared: &'a Shared,
}

impl Env<'_> {
    pub(crate) fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// The keep-alive demotion signal: any connection waiting for a
    /// slot means idle keep-alive sessions must not pin theirs.
    pub(crate) fn under_pressure(&self) -> bool {
        self.stats.queued() > 0
    }

    pub(crate) fn count_response(&self, status: u16) {
        self.stats.count_response(status);
    }

    /// Renders the deterministic overload refusal: `503` with a
    /// `Retry-After` hint, used by both the accept gate and the
    /// queue-wait deadline.
    pub(crate) fn overload_response(&self, reason: &str) -> Vec<u8> {
        self.count_response(503);
        let retry_after = self.config.retry_after_secs.to_string();
        http::render_response(
            503,
            "Service Unavailable",
            "text/plain",
            &[("Retry-After", &retry_after)],
            reason.as_bytes(),
            true,
        )
    }

    /// Draws the next deterministic request id: a bijective splitmix64
    /// over the seeded stream ordinal, so every dispatched request
    /// gets a unique id and the id *set* of a run is a pure function
    /// of `(request_seed, request count)` — reactor interleaving only
    /// permutes which request gets which id.
    pub(crate) fn next_request_id(&self) -> u64 {
        let ordinal = self.stats.req_seq.fetch_add(1, Ordering::SeqCst);
        splitmix64(self.config.request_seed ^ ordinal.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Resolves a flushed response: feeds the serving histogram (with
    /// the request id as that bucket's exemplar) or the admin-plane
    /// histogram, and records the optional trace span. Called by the
    /// connection exactly once per dispatched request.
    pub(crate) fn complete_response(&self, pending: &PendingResponse, dur_ns: u64) {
        if pending.admin {
            self.stats.admin_request_ns.observe_ns(dur_ns);
        } else {
            self.stats.request_ns.observe_ns_with_exemplar(dur_ns, pending.request_id);
        }
        if let Some(trace) = &self.config.trace {
            let path = pending.path.clone().unwrap_or_default();
            trace.record(
                TraceEvent::enter(TracePhase::Wire, "wire-server", path)
                    .exit(status_label(pending.status), dur_ns)
                    .with_request_id(pending.request_id),
            );
        }
    }

    /// Admin-plane routing (DESIGN.md §16). Returns `None` for SOAP
    /// traffic; admin responses are rendered by the caller through the
    /// same `render_response` path as everything else.
    fn admin_route(
        &self,
        request: &Request,
        path: &str,
    ) -> Option<(&'static str, u16, &'static str, &'static str, Vec<u8>)> {
        match (request.method.as_str(), path) {
            ("GET", "/metrics") => {
                self.stats.sync_gauges();
                let body = self.stats.registry.render_prometheus().into_bytes();
                Some(("metrics", 200, "OK", "text/plain; version=0.0.4", body))
            }
            ("GET", "/healthz") => Some(if self.stopping() {
                ("healthz", 503, "Service Unavailable", "text/plain", b"draining".to_vec())
            } else if self.under_pressure() {
                // Degraded exactly when the ladder is queueing — the
                // same signal that demotes keep-alive sessions.
                ("healthz", 503, "Service Unavailable", "text/plain", b"degraded".to_vec())
            } else {
                ("healthz", 200, "OK", "text/plain", b"ok".to_vec())
            }),
            ("GET", "/statusz") => {
                self.stats.sync_gauges();
                let body = self.render_statusz().into_bytes();
                Some(("statusz", 200, "OK", "application/json", body))
            }
            ("POST", p) if p == SHUTDOWN_PATH => {
                request_stop(self.shared);
                Some(("shutdown", 200, "OK", "text/plain", b"shutting down".to_vec()))
            }
            _ => None,
        }
    }

    /// The `/statusz` JSON body: gauges, ladder rung counters, uptime
    /// and build/config identity, hand-formatted with a fixed key
    /// order so two scrapes differ only where the values do.
    fn render_statusz(&self) -> String {
        let stats = self.stats;
        let shared = self.shared;
        let stopping = self.stopping();
        let healthy = !stopping && !self.under_pressure();
        format!(
            "{{\"healthy\":{healthy},\"stopping\":{stopping},\"uptime_ms\":{uptime},\
             \"build\":\"{build}\",\"config_hash\":\"{hash:016x}\",\
             \"gauges\":{{\"open\":{open},\"in_flight\":{in_flight},\"queued\":{queued}}},\
             \"ladder\":{{\"accepted\":{accepted},\"shed\":{shed},\
             \"queue_timeouts\":{queue_timeouts},\"timeouts\":{timeouts},\
             \"demoted\":{demoted},\"write_stalls\":{write_stalls}}},\
             \"requests\":{{\"served\":{served},\"oversized\":{oversized},\
             \"malformed\":{malformed},\"not_found\":{not_found},\"admin\":{admin}}}}}",
            uptime = shared.started.elapsed().as_millis(),
            build = env!("CARGO_PKG_VERSION"),
            hash = shared.config_hash,
            open = stats.open(),
            in_flight = stats.in_flight(),
            queued = stats.queued(),
            accepted = stats.accepted(),
            shed = stats.shed(),
            queue_timeouts = stats.queue_timeouts(),
            timeouts = stats.timeouts(),
            demoted = stats.demoted(),
            write_stalls = stats.write_stalls(),
            served = stats.served(),
            oversized = stats.oversized(),
            malformed = stats.malformed(),
            not_found = stats.not_found(),
            admin = stats.admin(),
        )
    }

    /// Handles one parsed request and renders the full response. The
    /// id is stamped into the `X-Request-Id` header of every
    /// dispatched response, admin or served.
    pub(crate) fn respond(&self, request: &Request, close: bool, request_id: u64) -> Responded {
        let shared = self.shared;
        let stats = self.stats;
        let path = request.path();
        let id_hex = format!("{request_id:016x}");
        if let Some((route, status, reason, content_type, body)) =
            self.admin_route(request, path)
        {
            stats.admin.inc();
            stats.count_admin(route);
            let bytes = http::render_response(
                status,
                reason,
                content_type,
                &[("X-Request-Id", &id_hex)],
                &body,
                close,
            );
            return Responded { bytes, status, admin: true };
        }
        let (status, reason, content_type, body): (u16, &str, &str, Vec<u8>) =
            match (request.method.as_str(), path) {
                ("GET", p) => match shared.services.get(p) {
                    Some(service) if request.query() == Some("wsdl") => {
                        stats.served.inc();
                        (200, "OK", "text/xml", service.wsdl_xml.clone().into_bytes())
                    }
                    Some(_) => {
                        stats.malformed.inc();
                        (400, "Bad Request", "text/plain", b"expected ?wsdl".to_vec())
                    }
                    None => {
                        stats.not_found.inc();
                        (404, "Not Found", "text/plain", b"no such service".to_vec())
                    }
                },
                ("POST", p) => match shared.services.get(p) {
                    Some(service) => match soap_response(service, &request.body) {
                        Ok((status, xml)) => {
                            stats.served.inc();
                            let reason =
                                if status == 200 { "OK" } else { "Internal Server Error" };
                            (status, reason, "text/xml", xml.into_bytes())
                        }
                        Err(detail) => {
                            stats.malformed.inc();
                            (400, "Bad Request", "text/plain", detail.into_bytes())
                        }
                    },
                    None => {
                        stats.not_found.inc();
                        (404, "Not Found", "text/plain", b"no such service".to_vec())
                    }
                },
                _ => {
                    stats.not_found.inc();
                    (405, "Method Not Allowed", "text/plain", b"GET or POST only".to_vec())
                }
            };
        self.count_response(status);
        let bytes = http::render_response(
            status,
            reason,
            content_type,
            &[("X-Request-Id", &id_hex)],
            &body,
            close,
        );
        Responded { bytes, status, admin: false }
    }
}

/// Status → trace-outcome label without allocating for the ladder's
/// own vocabulary.
fn status_label(status: u16) -> std::borrow::Cow<'static, str> {
    match status {
        200 => "200".into(),
        400 => "400".into(),
        404 => "404".into(),
        405 => "405".into(),
        408 => "408".into(),
        413 => "413".into(),
        500 => "500".into(),
        503 => "503".into(),
        other => other.to_string().into(),
    }
}

/// FNV-1a over the numeric config fields — stable across runs of the
/// same build + tuning, different for any retune.
fn config_hash(config: &WireServerConfig) -> u64 {
    let fields = [
        config.workers as u64,
        config.queue_depth as u64,
        config.reactors as u64,
        config.read_timeout.as_millis() as u64,
        config.write_timeout.as_millis() as u64,
        config.total_timeout.as_millis() as u64,
        config.retry_after_secs,
        config.keep_alive_requests as u64,
        config.request_seed,
    ];
    let bytes: Vec<u8> = fields.iter().flat_map(|v| v.to_le_bytes()).collect();
    content_hash(&bytes)
}

/// The running loopback endpoint. Dropping it without calling
/// [`WireServer::shutdown`] detaches the reactors (they exit once
/// asked to stop); tests and `wsitool serve` always shut down
/// explicitly.
pub struct WireServer {
    shared: Arc<Shared>,
    reactors: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `127.0.0.1:port` (0 ⇒ ephemeral) and starts the reactor
    /// threads over a shared nonblocking listener.
    pub fn start(
        port: u16,
        services: BTreeMap<String, HostedService>,
        config: WireServerConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let registry = config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let shared = Arc::new(Shared {
            services,
            stats: WireStats::new(registry),
            config_hash: config_hash(&config),
            config,
            stop: AtomicBool::new(false),
            addr,
            started: Instant::now(),
        });

        let mut reactors = Vec::new();
        for _ in 0..shared.config.reactors.max(1) {
            let shared = Arc::clone(&shared);
            let listener = listener.try_clone()?;
            reactors.push(std::thread::spawn(move || reactor_loop(&shared, &listener)));
        }

        Ok(WireServer { shared, reactors })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A live view of the serving-path counters and gauges (clones
    /// share the underlying atomics, so it stays valid across
    /// [`WireServer::shutdown`]).
    pub fn stats(&self) -> WireStats {
        self.shared.stats.clone()
    }

    /// Asks the reactors to stop accepting without waiting for the
    /// drain — the non-blocking half of [`WireServer::shutdown`].
    pub fn request_stop(&self) {
        request_stop(&self.shared);
    }

    /// Whether a stop has been requested (locally or via the admin
    /// endpoint).
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, join every reactor.
    pub fn shutdown(mut self) {
        self.request_stop();
        for handle in self.reactors.drain(..) {
            let _ = handle.join();
        }
    }

    /// Blocks until someone requests a stop — normally a `POST` to
    /// [`SHUTDOWN_PATH`] (used by `wsitool serve`) — then drains and
    /// joins like [`WireServer::shutdown`].
    pub fn wait(self) {
        while !self.stopping() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.shutdown();
    }
}

/// The reactors poll the stop flag every pass, so no wake-up
/// connection is needed — flipping the flag is enough.
fn request_stop(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
}

/// Claims one in-flight slot if the budget allows (CAS so concurrent
/// reactors never overshoot `workers`).
fn try_claim(gauge: &AtomicUsize, budget: usize) -> bool {
    let mut current = gauge.load(Ordering::SeqCst);
    while current < budget {
        match gauge.compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(seen) => current = seen,
        }
    }
    false
}

/// One reactor: accept a batch, promote queued connections into freed
/// slots, drive every owned state machine, nap only when nothing
/// moved. Exits when a stop is requested and its connections have
/// drained.
fn reactor_loop(shared: &Shared, listener: &TcpListener) {
    let env = Env { config: &shared.config, stats: &shared.stats, shared };
    let workers = shared.config.workers.max(1);
    let gauges = &shared.stats.gauges;
    let mut conns: Vec<Conn> = Vec::new();
    let mut nap = FIRST_NAP;
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        let mut progressed = false;

        if !stopping {
            for _ in 0..ACCEPT_BATCH {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progressed = true;
                        admit(&env, &mut conns, stream);
                    }
                    // WouldBlock: no pending handshake. Anything else
                    // (EMFILE, aborted handshake) is transient — yield
                    // and retry next pass.
                    Err(_) => break,
                }
            }
        }

        let now = Instant::now();
        // Promotion: queued connections claim freed in-flight slots in
        // arrival order within this reactor.
        for conn in conns.iter_mut() {
            if matches!(conn.phase, Phase::Queued) && try_claim(&gauges.in_flight, workers) {
                gauges.queued.fetch_sub(1, Ordering::SeqCst);
                env.stats.admitted.inc();
                conn.queued = false;
                conn.promote(&env, now);
                progressed = true;
            }
        }

        conns.retain_mut(|conn| match conn.drive(&env, now) {
            Drive::Progress => {
                progressed = true;
                true
            }
            Drive::Idle => true,
            Drive::Close => {
                conn.release(&env);
                progressed = true;
                false
            }
        });

        if stopping && conns.is_empty() {
            return;
        }
        if !progressed {
            std::thread::sleep(nap);
        }
        nap = next_nap(nap, progressed);
    }
}

/// Walks one new connection down the admission ladder: in-flight slot,
/// bounded queue, or `503` shed.
fn admit(env: &Env<'_>, conns: &mut Vec<Conn>, stream: TcpStream) {
    let shared = env.shared;
    let gauges = &shared.stats.gauges;
    shared.stats.accepted.inc();
    if stream.set_nonblocking(true).is_err() {
        // Socket already dead; nothing to refuse.
        return;
    }
    let now = Instant::now();
    if try_claim(&gauges.in_flight, shared.config.workers.max(1)) {
        gauges.open.fetch_add(1, Ordering::SeqCst);
        shared.stats.conn_opened.inc();
        shared.stats.admitted.inc();
        conns.push(Conn::admitted(stream, env, now));
    } else if try_claim(&gauges.queued, shared.config.queue_depth) {
        gauges.open.fetch_add(1, Ordering::SeqCst);
        shared.stats.conn_opened.inc();
        conns.push(Conn::parked(stream, env, now));
    } else {
        shared.stats.shed.inc();
        let response = env.overload_response("worker pool saturated");
        conns.push(Conn::shed(stream, env, now, response));
    }
}

/// Produces the SOAP response envelope and its HTTP status for one
/// request body. Per WS-I BP 1.1 R1126/R1111, a fault envelope rides
/// on `500`, a normal response on `200`.
fn soap_response(service: &HostedService, body: &[u8]) -> Result<(u16, String), String> {
    let Ok(request_xml) = std::str::from_utf8(body) else {
        return Err("request body is not UTF-8".to_string());
    };
    let response = match &service.defs {
        Ok(defs) => serve_echo(defs, request_xml),
        // Mirrors the in-process exchange's wording exactly — E15
        // equivalence depends on it.
        Err(e) => write_document(
            &soap::fault(
                "Server",
                &format!("server cannot re-parse its own description: {e}"),
            ),
            &WriteOptions::compact(),
        ),
    };
    let status = if soap::is_fault(&response) { 500 } else { 200 };
    Ok((status, response))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_codes_are_all_preresolved_never_fall_back() {
        let registry = Arc::new(MetricsRegistry::new());
        let stats = WireStats::new(Arc::clone(&registry));
        for code in RESPONSE_CODES {
            stats.count_response(code);
        }
        for route in ADMIN_ROUTES {
            stats.count_admin(route);
        }
        assert_eq!(stats.responses_fallback(), 0, "ladder set must be exhaustive");
        for code in RESPONSE_CODES {
            assert_eq!(
                registry.counter(&format!("wire_server_responses_total{{code=\"{code}\"}}")),
                1
            );
        }
        // A code outside the vocabulary ticks the fallback counter
        // rather than taking the registry lock by name.
        stats.count_response(418);
        assert_eq!(stats.responses_fallback(), 1);
        assert_eq!(registry.counter("wire_server_responses_fallback_total"), 1);
    }

    #[test]
    fn idle_nap_backs_off_to_the_cap_and_resets_on_progress() {
        let mut nap = FIRST_NAP;
        let mut schedule = vec![nap];
        for _ in 0..6 {
            nap = next_nap(nap, false);
            schedule.push(nap);
        }
        let us: Vec<u128> = schedule.iter().map(Duration::as_micros).collect();
        assert_eq!(us, [16, 32, 64, 128, 256, 500, 500]);
        // The cap is IDLE_NAP: an idle server wakes every 500 µs.
        assert_eq!(nap, IDLE_NAP);
        assert_eq!(next_nap(IDLE_NAP, true), FIRST_NAP);
        assert_eq!(next_nap(Duration::from_micros(64), true), FIRST_NAP);
    }

    #[test]
    fn request_ids_are_unique_and_seed_determined() {
        let seed = 0xABCD_EF01_2345_6789u64;
        let ids: Vec<u64> = (0..10_000u64)
            .map(|n| splitmix64(seed ^ n.wrapping_mul(0xA076_1D64_78BD_642F)))
            .collect();
        let unique: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "bijective stream never collides");
        let again: Vec<u64> = (0..10_000u64)
            .map(|n| splitmix64(seed ^ n.wrapping_mul(0xA076_1D64_78BD_642F)))
            .collect();
        assert_eq!(ids, again);
    }

    #[test]
    fn config_hash_tracks_tuning() {
        let a = WireServerConfig::default();
        let mut b = WireServerConfig::default();
        assert_eq!(config_hash(&a), config_hash(&b));
        b.workers += 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        let mut c = WireServerConfig::default();
        c.request_seed ^= 1;
        assert_ne!(config_hash(&a), config_hash(&c));
        // `/statusz` reports the hash; it must not drift across builds.
        assert_eq!(config_hash(&a), 0x9b9a_c5aa_801b_d6ab);
    }
}
