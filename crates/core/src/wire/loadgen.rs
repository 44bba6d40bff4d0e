//! Seeded deterministic load generator for the readiness-driven
//! endpoint (DESIGN.md §15).
//!
//! The *plan* — which of the `ops` operations is a well-behaved
//! request, a slow-loris body, a mid-request abort, or an oversized
//! post, which corpus entry it replays, and whether it asks for
//! keep-alive — is a pure function of `(seed, op index)` via
//! splitmix64, so two runs with the same config plan byte-identically
//! no matter how many client threads execute them or how the scheduler
//! interleaves. Timing (req/s, latency quantiles) is measured, not
//! planned, and is reported separately from the deterministic summary.
//!
//! Outcome accounting is a *closed* classification: every response a
//! client reads must be one the degradation ladder is allowed to give
//! for that profile (`200`/`500` served, `503` shed, `408` deadline,
//! `413` cap, or a clean transport-level close). Anything else counts
//! as `malformed`, and the overload property test pins `malformed ==
//! 0` at 4× overload.
//!
//! [`run_hosted`] is the whole `wsitool loadgen` run as a library call:
//! it hosts the survey services, replays [`survey_corpus`] against
//! them, and checks the closed world ([`Invariants`]). The CLI and the
//! overload test both call it, so the check and the documented p99
//! bound ([`p99_bound_ns`]) are defined once.

use std::collections::BTreeMap;
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wsinterop_typecat::rng::splitmix64;
use wsinterop_wsdl::soap;
use wsinterop_xml::writer::{write_document, WriteOptions};

use crate::exchange::{first_survey_operation, SURVEY_PROBE};
use crate::obs::{Histogram, MetricsSnapshot};

use super::http::{self, HttpLimits};
use super::server::{host_survey_services, HostedService, WireServer, WireServerConfig, WireStats};

/// One replayable request from the surveyed corpus.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Service path (`/{ServerId}/{fqcn}`).
    pub path: String,
    /// Operation name (becomes the `SOAPAction`).
    pub operation: String,
    /// Serialized SOAP request envelope.
    pub body: Vec<u8>,
}

/// Builds the replayable request corpus from hosted survey services:
/// for each deployed description, the first operation and its
/// serialized survey-probe envelope — the same construction
/// [`super::exchange_over_http`] performs per exchange, done once up
/// front. Services whose description does not parse, or that have no
/// invocable operation, are left out.
pub fn survey_corpus(services: &BTreeMap<String, HostedService>) -> Vec<CorpusEntry> {
    services
        .iter()
        .filter_map(|(path, hosted)| {
            let defs = hosted.defs.as_ref().ok()?;
            let operation = first_survey_operation(&hosted.wsdl_xml)?;
            let doc = soap::request(defs, &operation, SURVEY_PROBE).ok()?;
            Some(CorpusEntry {
                path: path.clone(),
                operation,
                body: write_document(&doc, &WriteOptions::compact()).into_bytes(),
            })
        })
        .collect()
}

/// The documented p99 bound on served latency (DESIGN.md §15): a
/// served request can queue for up to the read deadline, then be read
/// and written under one deadline each, plus 2 s of scheduler slack.
/// `BENCH_wire.json` records it as `p99_bound_ns`, so gates compare
/// against the recorded value, never a constant of their own.
pub fn p99_bound_ns(read_timeout_ms: u64) -> u64 {
    (3 * read_timeout_ms + 2_000) * 1_000_000
}

/// Load-mix tuning. Percentages are rolled per op, in the order
/// slow → abort → oversized → normal, each against an independent
/// seeded byte, so a profile's share is stable as the others change.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total operations across all clients.
    pub ops: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Plan seed.
    pub seed: u64,
    /// Percent of ops that stall mid-body past the server's read
    /// deadline (slow loris).
    pub slow_pct: u8,
    /// Percent of ops that abort mid-request (half a body, then
    /// close).
    pub abort_pct: u8,
    /// Percent of ops that declare a body over the server's cap.
    pub oversized_pct: u8,
    /// Percent of ops that scrape the admin plane instead of posting
    /// SOAP: `GET /metrics` + `GET /healthz`, each on a fresh
    /// connection, classified into the scrape closed set.
    pub scrape_pct: u8,
    /// Percent of *normal* ops that request keep-alive (connection
    /// churn is the complement).
    pub keep_alive_pct: u8,
    /// How long a slow-loris op dawdles before expecting its `408`
    /// (must exceed the server's read deadline to trigger it).
    pub dawdle: Duration,
    /// Declared length for oversized posts (must exceed the server's
    /// body cap).
    pub oversized_declared: usize,
    /// Client-side socket deadline for reads/writes; bounds how long a
    /// misbehaving server could stall the harness, and must comfortably
    /// exceed the server's own deadlines.
    pub client_timeout: Duration,
    /// Client-side framing limits (body cap must admit the largest
    /// WSDL/SOAP response in the corpus).
    pub limits: HttpLimits,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            ops: 200,
            clients: 8,
            seed: 42,
            slow_pct: 5,
            abort_pct: 5,
            oversized_pct: 5,
            scrape_pct: 0,
            keep_alive_pct: 50,
            dawdle: Duration::from_millis(400),
            oversized_declared: (1 << 20) + 1,
            client_timeout: Duration::from_millis(5000),
            limits: HttpLimits::default(),
        }
    }
}

/// What one planned op does on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpProfile {
    /// Complete request, read the response; `keep_alive` asks to
    /// reuse the connection for the next op this client runs.
    Normal {
        /// Whether the request asks for keep-alive.
        keep_alive: bool,
    },
    /// Send the head and half the body, dawdle past the server's read
    /// deadline, then expect `408` (or a clean close).
    SlowLoris,
    /// Send the head and half the body, then close without finishing.
    Abort,
    /// Declare a body over the server's cap; expect `413` before any
    /// body byte is sent.
    Oversized,
    /// Scrape the admin plane mid-load: `GET /metrics` then
    /// `GET /healthz`, each on its own connection so the scrape rides
    /// the same admission ladder as SOAP traffic.
    Scrape,
}

/// The deterministic half of a run: what was planned (pure function
/// of the config) and how every wire interaction classified.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadgenCounts {
    /// Planned ops per profile.
    pub planned_normal: usize,
    /// Planned slow-loris ops.
    pub planned_slow: usize,
    /// Planned mid-request aborts.
    pub planned_abort: usize,
    /// Planned oversized posts.
    pub planned_oversized: usize,
    /// Planned admin scrape ops.
    pub planned_scrape: usize,
    /// Planned keep-alive requests among the normal ops.
    pub planned_keep_alive: usize,
    /// `200` SOAP/WSDL responses.
    pub ok: usize,
    /// `500` fault-envelope responses (still a served request).
    pub fault: usize,
    /// `503` sheds (accept gate or queue-wait deadline).
    pub shed: usize,
    /// `408` read-deadline responses.
    pub timeout_408: usize,
    /// `413` size-cap responses.
    pub too_large: usize,
    /// Aborted ops (nothing read back, by design).
    pub aborted: usize,
    /// Transport-level closes/resets/timeouts where the ladder allows
    /// silence (e.g. a slow-loris socket dropped instead of answered).
    pub closed: usize,
    /// Responses outside the closed set for their profile — the
    /// degradation ladder never produces these; pinned to 0.
    pub malformed: usize,
    /// Responses carrying `Connection: close` against a keep-alive
    /// request (the demotion layer, or budget/drain closes).
    pub demoted: usize,
    /// `/metrics` scrapes answered `200`.
    pub scrape_ok: usize,
    /// `/healthz` checks answered `200 ok`.
    pub scrape_healthy: usize,
    /// `/healthz` checks answered `503 degraded`/`503 draining` by the
    /// route itself (the ladder is queueing or the server is
    /// stopping).
    pub scrape_degraded: usize,
    /// Admin requests shed `503` by the accept gate or queue deadline
    /// before reaching the route.
    pub scrape_shed: usize,
    /// Admin requests that ended in a transport-level close.
    pub scrape_closed: usize,
    /// Admin responses outside the scrape closed set — pinned to 0
    /// like `malformed`.
    pub scrape_malformed: usize,
}

/// The measured half of a run (excluded from byte-stable output).
#[derive(Debug, Clone)]
pub struct LoadgenTiming {
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Completed ops per second (all profiles).
    pub req_per_s: f64,
    /// Latency over *served* requests only (`200`/`500`), measured
    /// request-start → response-read.
    pub latency: Histogram,
    /// Latency over answered admin scrapes, kept out of the serving
    /// histogram for the same reason the server splits
    /// `wire_server_admin_request_ns` from `wire_server_request_ns`.
    pub scrape_latency: Histogram,
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Deterministic plan + outcome counts.
    pub counts: LoadgenCounts,
    /// Wall-clock measurements.
    pub timing: LoadgenTiming,
}

/// The planned profile of op `index` — pure in `(seed, index)`.
pub fn plan_op(config: &LoadgenConfig, index: usize) -> OpProfile {
    let bits = splitmix64(config.seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let roll = (bits % 100) as u8;
    let slow = config.slow_pct;
    let abort = slow.saturating_add(config.abort_pct);
    let oversized = abort.saturating_add(config.oversized_pct);
    let scrape = oversized.saturating_add(config.scrape_pct);
    if roll < slow {
        OpProfile::SlowLoris
    } else if roll < abort {
        OpProfile::Abort
    } else if roll < oversized {
        OpProfile::Oversized
    } else if roll < scrape {
        OpProfile::Scrape
    } else {
        let ka_roll = ((bits >> 32) % 100) as u8;
        OpProfile::Normal { keep_alive: ka_roll < config.keep_alive_pct }
    }
}

/// The corpus entry op `index` replays — pure in `(seed, index)`.
pub fn plan_corpus_index(config: &LoadgenConfig, index: usize, corpus_len: usize) -> usize {
    let bits = splitmix64(config.seed ^ 0xD6E8_FEB8_6659_FD93 ^ (index as u64));
    (bits % corpus_len.max(1) as u64) as usize
}

/// Tallies the plan without touching the network — the byte-stable
/// half of the summary, asserted identical across runs in CI.
pub fn plan_counts(config: &LoadgenConfig) -> LoadgenCounts {
    let mut counts = LoadgenCounts::default();
    for index in 0..config.ops {
        match plan_op(config, index) {
            OpProfile::Normal { keep_alive } => {
                counts.planned_normal += 1;
                if keep_alive {
                    counts.planned_keep_alive += 1;
                }
            }
            OpProfile::SlowLoris => counts.planned_slow += 1,
            OpProfile::Abort => counts.planned_abort += 1,
            OpProfile::Oversized => counts.planned_oversized += 1,
            OpProfile::Scrape => counts.planned_scrape += 1,
        }
    }
    counts
}

/// Per-thread tallies merged after the join (no contended atomics on
/// the measurement path).
#[derive(Default)]
struct ThreadTally {
    counts: LoadgenCounts,
    latency: Histogram,
    scrape_latency: Histogram,
}

/// Runs the full mix against `addr` and classifies every outcome.
///
/// Clients claim op indices from a shared cursor, so *which* thread
/// executes an op is scheduler-dependent but *what* every op does is
/// not; the outcome counts depend only on the server's deterministic
/// degradation ladder.
pub fn run(addr: SocketAddr, corpus: &[CorpusEntry], config: &LoadgenConfig) -> LoadgenReport {
    assert!(!corpus.is_empty(), "loadgen needs a non-empty corpus");
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut tallies: Vec<ThreadTally> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..config.clients.max(1) {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut tally = ThreadTally::default();
                // The connection a keep-alive op left open for reuse.
                let mut kept: Option<TcpStream> = None;
                loop {
                    let index = cursor.fetch_add(1, Ordering::SeqCst);
                    if index >= config.ops {
                        break;
                    }
                    let profile = plan_op(config, index);
                    let entry = &corpus[plan_corpus_index(config, index, corpus.len())];
                    run_op(addr, entry, profile, config, &mut kept, &mut tally);
                }
                tally
            }));
        }
        for handle in handles {
            if let Ok(tally) = handle.join() {
                tallies.push(tally);
            }
        }
    });
    let elapsed = started.elapsed();

    let mut counts = plan_counts(config);
    let mut latency = Histogram::default();
    let mut scrape_latency = Histogram::default();
    for tally in &tallies {
        merge_counts(&mut counts, &tally.counts);
        latency.merge(&tally.latency);
        scrape_latency.merge(&tally.scrape_latency);
    }
    let req_per_s = if elapsed.as_secs_f64() > 0.0 {
        config.ops as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    LoadgenReport {
        counts,
        timing: LoadgenTiming { elapsed, req_per_s, latency, scrape_latency },
    }
}

fn merge_counts(into: &mut LoadgenCounts, from: &LoadgenCounts) {
    into.ok += from.ok;
    into.fault += from.fault;
    into.shed += from.shed;
    into.timeout_408 += from.timeout_408;
    into.too_large += from.too_large;
    into.aborted += from.aborted;
    into.closed += from.closed;
    into.malformed += from.malformed;
    into.demoted += from.demoted;
    into.scrape_ok += from.scrape_ok;
    into.scrape_healthy += from.scrape_healthy;
    into.scrape_degraded += from.scrape_degraded;
    into.scrape_shed += from.scrape_shed;
    into.scrape_closed += from.scrape_closed;
    into.scrape_malformed += from.scrape_malformed;
}

fn connect(addr: SocketAddr, config: &LoadgenConfig) -> Option<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, config.client_timeout).ok()?;
    let _ = stream.set_read_timeout(Some(config.client_timeout));
    let _ = stream.set_write_timeout(Some(config.client_timeout));
    Some(stream)
}

fn run_op(
    addr: SocketAddr,
    entry: &CorpusEntry,
    profile: OpProfile,
    config: &LoadgenConfig,
    kept: &mut Option<TcpStream>,
    tally: &mut ThreadTally,
) {
    match profile {
        OpProfile::Normal { keep_alive } => {
            // Reuse the kept connection when the plan asks for
            // keep-alive; otherwise churn a fresh one.
            let mut stream = match (keep_alive, kept.take()) {
                (true, Some(stream)) => stream,
                _ => match connect(addr, config) {
                    Some(stream) => stream,
                    None => {
                        tally.counts.closed += 1;
                        return;
                    }
                },
            };
            let started = Instant::now();
            if http::write_request(
                &mut stream,
                "POST",
                &entry.path,
                "127.0.0.1",
                Some(&entry.operation),
                &entry.body,
                !keep_alive,
            )
            .is_err()
            {
                tally.counts.closed += 1;
                return;
            }
            let read = http::read_response(&stream, &config.limits);
            let elapsed = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let vocabulary = [200, 500, 503, 408, 413];
            let Some(response) = classify(read, &vocabulary, &mut tally.counts) else { return };
            if matches!(response.status, 200 | 500) {
                tally.latency.observe(elapsed);
            }
            let closing = response.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
            if keep_alive && closing {
                tally.counts.demoted += 1;
            }
            if keep_alive && !closing {
                *kept = Some(stream);
            }
        }
        OpProfile::SlowLoris => {
            let Some(mut stream) = connect(addr, config) else {
                tally.counts.closed += 1;
                return;
            };
            if write_partial(&mut stream, entry).is_err() {
                tally.counts.closed += 1;
                return;
            }
            std::thread::sleep(config.dawdle);
            classify(http::read_response(&stream, &config.limits), &[408, 503], &mut tally.counts);
        }
        OpProfile::Abort => {
            let Some(mut stream) = connect(addr, config) else {
                tally.counts.closed += 1;
                return;
            };
            let _ = write_partial(&mut stream, entry);
            drop(stream); // mid-request close; the server must absorb it
            tally.counts.aborted += 1;
        }
        OpProfile::Scrape => {
            // Each admin request rides its own connection so the
            // scrape walks the same admission ladder as SOAP traffic;
            // both classify independently into the scrape closed set.
            for target in ["/metrics", "/healthz"] {
                let Some(mut stream) = connect(addr, config) else {
                    tally.counts.scrape_closed += 1;
                    continue;
                };
                let started = Instant::now();
                if http::write_request(&mut stream, "GET", target, "127.0.0.1", None, b"", true)
                    .is_err()
                {
                    tally.counts.scrape_closed += 1;
                    continue;
                }
                match http::read_response(&stream, &config.limits) {
                    Ok(response) => {
                        tally.scrape_latency.observe(
                            started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                        );
                        classify_scrape(target, &response, &mut tally.counts);
                    }
                    Err(e) if closed_quietly(&e) => tally.counts.scrape_closed += 1,
                    Err(_) => tally.counts.scrape_malformed += 1,
                }
            }
        }
        OpProfile::Oversized => {
            let Some(mut stream) = connect(addr, config) else {
                tally.counts.closed += 1;
                return;
            };
            use std::io::Write;
            let head = format!(
                "POST {} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\
                 Content-Type: text/xml; charset=utf-8\r\nContent-Length: {}\r\n\r\n",
                entry.path, config.oversized_declared
            );
            if stream.write_all(head.as_bytes()).is_err() {
                tally.counts.closed += 1;
                return;
            }
            classify(http::read_response(&stream, &config.limits), &[413, 503], &mut tally.counts);
        }
    }
}

/// A self-hosted run: the endpoint [`run_hosted`] stands up over the
/// stride-`N` survey services, and the mix it drives against it.
#[derive(Debug, Clone)]
pub struct HostedRun {
    /// Survey stride of the hosted services.
    pub stride: usize,
    /// Server in-flight budget.
    pub workers: usize,
    /// Server queue depth.
    pub queue: usize,
    /// Server read/write deadline in milliseconds.
    pub read_timeout_ms: u64,
    /// The load mix. [`run_hosted`] derives its `dawdle` and
    /// `client_timeout` from `read_timeout_ms`.
    pub mix: LoadgenConfig,
}

impl Default for HostedRun {
    fn default() -> HostedRun {
        let server = WireServerConfig::default();
        HostedRun {
            stride: 200,
            workers: server.workers,
            queue: server.queue_depth,
            read_timeout_ms: 250,
            mix: LoadgenConfig::default(),
        }
    }
}

/// The closed-world check of one hosted run. Every exchange op is
/// classified exactly once into the ladder's vocabulary; every scrape
/// op issues exactly two admin requests (`/metrics` + `/healthz`), so
/// their classifications sum to twice the planned count; no serving
/// path hits the by-name response fallback; admin latencies stay out
/// of the serving histogram (DESIGN.md §16); and after the drain every
/// connection-lifecycle gauge reads zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariants {
    /// Exchange ops classified into the closed set.
    pub accounted: usize,
    /// Exchange ops planned (every op but the scrapes).
    pub exchange_ops: usize,
    /// Admin requests classified into the scrape closed set.
    pub scrape_accounted: usize,
    /// Admin requests planned (two per scrape op).
    pub scrape_requests: usize,
    /// Exchange responses outside the closed set.
    pub malformed: usize,
    /// Admin responses outside the scrape closed set.
    pub scrape_malformed: usize,
    /// Responses counted by the server's by-name fallback.
    pub response_fallbacks: usize,
    /// Serving and admin latencies landed in disjoint histograms, and
    /// every observation maps back to a dispatched request id.
    pub admin_excluded: bool,
    /// Open, in-flight and queued connections left after the drain.
    pub connection_leaks: usize,
}

impl Invariants {
    /// Checks `report` against the `plan` it ran, the server's `stats`
    /// and a `snapshot` of its registry taken after the drain.
    pub fn check(
        report: &LoadgenReport,
        plan: &LoadgenCounts,
        stats: &WireStats,
        snapshot: &MetricsSnapshot,
    ) -> Invariants {
        let c = &report.counts;
        let hist_count = |name: &str| snapshot.histograms.get(name).map_or(0, |h| h.count);
        let serving_ns = hist_count("wire_server_request_ns");
        let admin_ns = hist_count("wire_server_admin_request_ns");
        let (ids_issued, admin) = (stats.request_ids_issued(), stats.admin() as u64);
        Invariants {
            accounted: c.ok + c.fault + c.shed + c.timeout_408 + c.too_large + c.aborted
                + c.closed + c.malformed,
            exchange_ops: plan.planned_normal + plan.planned_slow + plan.planned_abort
                + plan.planned_oversized,
            scrape_accounted: c.scrape_ok + c.scrape_healthy + c.scrape_degraded + c.scrape_shed
                + c.scrape_closed + c.scrape_malformed,
            scrape_requests: 2 * plan.planned_scrape,
            malformed: c.malformed,
            scrape_malformed: c.scrape_malformed,
            response_fallbacks: stats.responses_fallback(),
            admin_excluded: admin_ns <= admin
                && serving_ns + admin_ns <= ids_issued
                && serving_ns <= ids_issued.saturating_sub(admin),
            connection_leaks: stats.open() + stats.in_flight() + stats.queued(),
        }
    }

    /// Whether the closed world held.
    pub fn holds(&self) -> bool {
        self.accounted == self.exchange_ops
            && self.scrape_accounted == self.scrape_requests
            && self.malformed == 0
            && self.scrape_malformed == 0
            && self.response_fallbacks == 0
            && self.admin_excluded
            && self.connection_leaks == 0
    }
}

/// The byte-stable `loadgen invariants:` line.
impl fmt::Display for Invariants {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loadgen invariants: accounted {}/{}, scrape accounted {}/{}, malformed {}, \
             scrape malformed {}, response fallbacks {}, admin excluded {}, connection leaks \
             {}, server stopped true",
            self.accounted, self.exchange_ops, self.scrape_accounted, self.scrape_requests,
            self.malformed, self.scrape_malformed, self.response_fallbacks, self.admin_excluded,
            self.connection_leaks,
        )
    }
}

/// One finished hosted run: what it planned, measured and checked.
#[derive(Debug, Clone)]
pub struct HostedReport {
    /// The run's settings.
    pub run: HostedRun,
    /// The seeded plan.
    pub plan: LoadgenCounts,
    /// Corpus entries the plan drew from.
    pub corpus_len: usize,
    /// Classified outcomes and timing.
    pub report: LoadgenReport,
    /// The stopped server's counters and gauges.
    pub stats: WireStats,
    /// The closed-world check.
    pub invariants: Invariants,
}

/// Hosts the stride-`N` survey services on a loopback endpoint, drives
/// the seeded mix against them, drains the server and checks the
/// closed world. Fails only when there is nothing to replay or the
/// endpoint cannot bind; a violated invariant is a result, read from
/// [`Invariants::holds`].
pub fn run_hosted(run: &HostedRun) -> Result<HostedReport, String> {
    let services = host_survey_services(run.stride);
    let corpus = survey_corpus(&services);
    if corpus.is_empty() {
        return Err(format!(
            "stride {} deploys no invokable service; nothing to replay",
            run.stride
        ));
    }
    let deadline = Duration::from_millis(run.read_timeout_ms);
    let server_config = WireServerConfig {
        workers: run.workers,
        queue_depth: run.queue,
        read_timeout: deadline,
        write_timeout: deadline,
        ..WireServerConfig::default()
    };
    let server = WireServer::start(0, services, server_config)
        .map_err(|e| format!("cannot bind loopback endpoint: {e}"))?;
    let stats = server.stats();
    // The dawdle must outlast the read deadline or the slow-loris
    // profile never triggers its 408; the client waits well past every
    // server deadline.
    let config = LoadgenConfig {
        dawdle: Duration::from_millis(2 * run.read_timeout_ms + 100),
        client_timeout: Duration::from_millis((4 * run.read_timeout_ms).max(5_000)),
        ..run.mix.clone()
    };
    let plan = plan_counts(&config);
    let report = self::run(server.addr(), &corpus, &config);
    server.request_stop();
    server.shutdown();
    stats.sync_gauges();
    let invariants = Invariants::check(&report, &plan, &stats, &stats.registry.snapshot());
    Ok(HostedReport { run: run.clone(), plan, corpus_len: corpus.len(), report, stats, invariants })
}

impl HostedReport {
    /// The byte-stable stdout lines that precede the invariants: the
    /// run config and the seeded plan.
    pub fn header(&self) -> String {
        let (run, mix, plan) = (&self.run, &self.run.mix, &self.plan);
        format!(
            "run config: loadgen ops {} clients {} seed {} stride {} workers {} queue {} \
             read-timeout-ms {} mix {}/{}/{}/{}/{}\n\
             loadgen plan: normal {} (keep-alive {}) / slow {} / abort {} / oversized {} / \
             scrape {} over {} corpus path(s)\n",
            mix.ops, mix.clients, mix.seed, run.stride, run.workers, run.queue,
            run.read_timeout_ms, mix.slow_pct, mix.abort_pct, mix.oversized_pct,
            mix.keep_alive_pct, mix.scrape_pct,
            plan.planned_normal, plan.planned_keep_alive, plan.planned_slow, plan.planned_abort,
            plan.planned_oversized, plan.planned_scrape, self.corpus_len,
        )
    }

    /// The measured half, one line per aspect: outcomes, scrapes,
    /// timing, server counters and the admin plane.
    pub fn summary(&self) -> String {
        let (c, timing, stats) = (&self.report.counts, &self.report.timing, &self.stats);
        let (lat, ms) = (&timing.latency, |ns: u64| ns as f64 / 1e6);
        format!(
            "loadgen outcomes: ok {}, fault {}, shed {}, 408 {}, 413 {}, aborted {}, \
             closed {}, demoted {}, malformed {}\n\
             loadgen scrape: metrics-ok {}, healthy {}, degraded {}, shed {}, closed {}, \
             malformed {}; p99 {:.3} ms over {} sample(s)\n\
             loadgen timing: {} op(s) in {:.1} ms ({:.1} req/s); served latency \
             p50 {:.3} ms p95 {:.3} ms p99 {:.3} ms max {:.3} ms over {} sample(s)\n\
             loadgen server: accepted {}, served {}, shed {}, timeouts {}, queue-timeouts {}, \
             write-stalls {}, demoted {}, oversized {}, malformed {}\n\
             loadgen admin: requests {}, response fallbacks {}, request ids issued {}\n",
            c.ok, c.fault, c.shed, c.timeout_408, c.too_large, c.aborted, c.closed, c.demoted,
            c.malformed,
            c.scrape_ok, c.scrape_healthy, c.scrape_degraded, c.scrape_shed, c.scrape_closed,
            c.scrape_malformed, ms(timing.scrape_latency.quantile_ns(0.99)),
            timing.scrape_latency.count,
            self.run.mix.ops, timing.elapsed.as_secs_f64() * 1e3, timing.req_per_s,
            ms(lat.quantile_ns(0.50)), ms(lat.quantile_ns(0.95)), ms(lat.quantile_ns(0.99)),
            ms(lat.max), lat.count,
            stats.accepted(), stats.served(), stats.shed(), stats.timeouts(),
            stats.queue_timeouts(), stats.write_stalls(), stats.demoted(), stats.oversized(),
            stats.malformed(),
            stats.admin(), stats.responses_fallback(), stats.request_ids_issued(),
        )
    }

    /// The `BENCH_wire.json` snapshot: settings, plan, outcomes,
    /// timing, the p99 bound, server counters and the invariant
    /// verdicts.
    pub fn bench_json(&self) -> String {
        let (run, mix, plan) = (&self.run, &self.run.mix, &self.plan);
        let (c, timing, stats, inv) =
            (&self.report.counts, &self.report.timing, &self.stats, &self.invariants);
        let lat = &timing.latency;
        format!(
            "{{\n  \"seed\": {},\n  \"ops\": {},\n  \"clients\": {},\n  \"stride\": {},\n  \
             \"workers\": {},\n  \"queue_depth\": {},\n  \"read_timeout_ms\": {},\n  \
             \"mix\": {{ \"slow_pct\": {}, \"abort_pct\": {}, \"oversized_pct\": {}, \
             \"keep_alive_pct\": {}, \"scrape_pct\": {} }},\n  \
             \"plan\": {{ \"normal\": {}, \"keep_alive\": {}, \"slow\": {}, \"abort\": {}, \
             \"oversized\": {}, \"scrape\": {} }},\n  \
             \"outcomes\": {{ \"ok\": {}, \"fault\": {}, \"shed\": {}, \"timeout_408\": {}, \
             \"too_large\": {}, \"aborted\": {}, \"closed\": {}, \"demoted\": {}, \
             \"malformed\": {} }},\n  \
             \"scrape\": {{ \"metrics_ok\": {}, \"healthy\": {}, \"degraded\": {}, \"shed\": {}, \
             \"closed\": {}, \"malformed\": {} }},\n  \
             \"elapsed_ms\": {:.3},\n  \"req_per_s\": {:.3},\n  \
             \"latency_ns\": {{ \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \
             \"max\": {} }},\n  \"p99_bound_ns\": {},\n  \"scrape_p99_ns\": {},\n  \
             \"server\": {{ \"accepted\": {}, \"served\": {}, \"shed\": {}, \"timeouts\": {}, \
             \"queue_timeouts\": {}, \"write_stalls\": {}, \"demoted\": {}, \"admin\": {}, \
             \"request_ids_issued\": {} }},\n  \
             \"invariants\": {{ \"accounted\": {}, \"scrape_accounted\": {}, \
             \"malformed_responses\": {}, \"scrape_malformed\": {}, \"response_fallbacks\": {}, \
             \"admin_excluded\": {}, \"connection_leaks\": {}, \"server_stopped\": true }}\n}}\n",
            mix.seed, mix.ops, mix.clients, run.stride, run.workers, run.queue,
            run.read_timeout_ms,
            mix.slow_pct, mix.abort_pct, mix.oversized_pct, mix.keep_alive_pct, mix.scrape_pct,
            plan.planned_normal, plan.planned_keep_alive, plan.planned_slow, plan.planned_abort,
            plan.planned_oversized, plan.planned_scrape,
            c.ok, c.fault, c.shed, c.timeout_408, c.too_large, c.aborted, c.closed, c.demoted,
            c.malformed,
            c.scrape_ok, c.scrape_healthy, c.scrape_degraded, c.scrape_shed, c.scrape_closed,
            c.scrape_malformed,
            timing.elapsed.as_secs_f64() * 1e3, timing.req_per_s,
            lat.count, lat.quantile_ns(0.50), lat.quantile_ns(0.95), lat.quantile_ns(0.99),
            lat.max, p99_bound_ns(run.read_timeout_ms), timing.scrape_latency.quantile_ns(0.99),
            stats.accepted(), stats.served(), stats.shed(), stats.timeouts(),
            stats.queue_timeouts(), stats.write_stalls(), stats.demoted(), stats.admin(),
            stats.request_ids_issued(),
            inv.accounted == inv.exchange_ops, inv.scrape_accounted == inv.scrape_requests,
            inv.malformed, inv.scrape_malformed, inv.response_fallbacks, inv.admin_excluded,
            inv.connection_leaks,
        )
    }
}

/// Counts one exchange read. A status in the op's `vocabulary` lands in
/// its counter and the response is handed back; a quiet close counts as
/// `closed`; any other status or read error is `malformed`.
fn classify(
    read: Result<http::Response, http::HttpError>,
    vocabulary: &[u16],
    counts: &mut LoadgenCounts,
) -> Option<http::Response> {
    match read {
        Ok(response) if vocabulary.contains(&response.status) => {
            *match response.status {
                200 => &mut counts.ok,
                500 => &mut counts.fault,
                503 => &mut counts.shed,
                408 => &mut counts.timeout_408,
                413 => &mut counts.too_large,
                _ => &mut counts.malformed,
            } += 1;
            return Some(response);
        }
        Err(e) if closed_quietly(&e) => counts.closed += 1,
        _ => counts.malformed += 1,
    }
    None
}

/// A read that ended in a transport-level close, reset or timeout —
/// silence the ladder allows, as opposed to a malformed answer.
fn closed_quietly(error: &http::HttpError) -> bool {
    use http::HttpError::{ConnectionClosed, Reset, Timeout, TruncatedBody};
    matches!(error, ConnectionClosed | Reset | Timeout | TruncatedBody { .. })
}

/// Classifies one admin response into the scrape closed set. The
/// route's own `503 degraded`/`503 draining` is distinguished from an
/// accept-gate shed by the body the healthz route writes — the ladder
/// sheds with its overload reason text instead.
fn classify_scrape(target: &str, response: &http::Response, counts: &mut LoadgenCounts) {
    match (target, response.status) {
        ("/metrics", 200) => counts.scrape_ok += 1,
        ("/healthz", 200) => counts.scrape_healthy += 1,
        ("/healthz", 503)
            if response.body == b"degraded".as_slice()
                || response.body == b"draining".as_slice() =>
        {
            counts.scrape_degraded += 1;
        }
        (_, 503) => counts.scrape_shed += 1,
        _ => counts.scrape_malformed += 1,
    }
}

/// Writes a request head declaring the full body, then only half the
/// body bytes — the shared setup for slow-loris and abort profiles.
fn write_partial(stream: &mut TcpStream, entry: &CorpusEntry) -> std::io::Result<()> {
    use std::io::Write;
    let head = format!(
        "POST {} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\
         Content-Type: text/xml; charset=utf-8\r\nSOAPAction: \"{}\"\r\nContent-Length: {}\r\n\r\n",
        entry.path,
        entry.operation,
        entry.body.len().max(2)
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&entry.body[..entry.body.len() / 2])?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_seed_and_index() {
        let config = LoadgenConfig { ops: 500, seed: 7, ..LoadgenConfig::default() };
        let a: Vec<OpProfile> = (0..config.ops).map(|i| plan_op(&config, i)).collect();
        let b: Vec<OpProfile> = (0..config.ops).map(|i| plan_op(&config, i)).collect();
        assert_eq!(a, b);
        assert_eq!(plan_counts(&config), plan_counts(&config));
    }

    #[test]
    fn plan_is_pinned() {
        // Output pins for the seeded plan: these bits are what CI's
        // byte-stable loadgen stdout is made of.
        let config = LoadgenConfig {
            seed: 42,
            slow_pct: 10,
            abort_pct: 10,
            oversized_pct: 10,
            scrape_pct: 10,
            ..LoadgenConfig::default()
        };
        let ops: Vec<OpProfile> = (0..8).map(|i| plan_op(&config, i)).collect();
        assert_eq!(
            ops,
            [
                OpProfile::Abort,
                OpProfile::Oversized,
                OpProfile::Oversized,
                OpProfile::Normal { keep_alive: true },
                OpProfile::Abort,
                OpProfile::SlowLoris,
                OpProfile::Normal { keep_alive: false },
                OpProfile::Normal { keep_alive: false },
            ]
        );
        let corpus: Vec<usize> = (0..8).map(|i| plan_corpus_index(&config, i, 1000)).collect();
        assert_eq!(corpus, [758, 85, 753, 333, 140, 299, 567, 273]);
    }

    #[test]
    fn plan_counts_cover_every_op_exactly_once() {
        let config = LoadgenConfig {
            ops: 1000,
            seed: 99,
            slow_pct: 10,
            abort_pct: 10,
            oversized_pct: 10,
            scrape_pct: 10,
            ..LoadgenConfig::default()
        };
        let counts = plan_counts(&config);
        assert_eq!(
            counts.planned_normal
                + counts.planned_slow
                + counts.planned_abort
                + counts.planned_oversized
                + counts.planned_scrape,
            config.ops
        );
        // Each non-normal profile gets a nonzero share at 10%.
        assert!(counts.planned_slow > 0);
        assert!(counts.planned_abort > 0);
        assert!(counts.planned_oversized > 0);
        assert!(counts.planned_scrape > 0);
        assert!(counts.planned_keep_alive <= counts.planned_normal);
    }

    #[test]
    fn scrape_share_is_opt_in_and_leaves_default_plans_unchanged() {
        // scrape_pct defaults to 0, so a pre-scrape plan is
        // byte-identical to one computed by this build.
        let config = LoadgenConfig { ops: 400, seed: 7, ..LoadgenConfig::default() };
        let counts = plan_counts(&config);
        assert_eq!(counts.planned_scrape, 0);
        let scraping =
            LoadgenConfig { ops: 400, seed: 7, scrape_pct: 15, ..LoadgenConfig::default() };
        assert!(plan_counts(&scraping).planned_scrape > 0);
    }

    /// A clean run of a fixed plan — three normal ops, one slow loris,
    /// one scrape — and the server state it leaves: three served
    /// requests, two admin requests, five request ids.
    fn fixture() -> (LoadgenReport, LoadgenCounts, WireStats) {
        let plan = LoadgenCounts {
            planned_normal: 3, planned_keep_alive: 1, planned_slow: 1, planned_scrape: 1,
            ..LoadgenCounts::default()
        };
        let (mut latency, mut scrape_latency) = (Histogram::default(), Histogram::default());
        [40_000, 60_000, 900_000].iter().for_each(|&ns| latency.observe(ns));
        [120_000, 130_000].iter().for_each(|&ns| scrape_latency.observe(ns));
        let counts = LoadgenCounts {
            ok: 2, fault: 1, timeout_408: 1, demoted: 1, scrape_ok: 1, scrape_healthy: 1,
            ..plan.clone()
        };
        let elapsed = Duration::from_millis(250);
        let timing = LoadgenTiming { elapsed, req_per_s: 20.0, latency, scrape_latency };
        let stats = WireStats::new(std::sync::Arc::new(crate::obs::MetricsRegistry::new()));
        for (counter, n) in [(&stats.accepted, 6), (&stats.served, 3), (&stats.timeouts, 1),
            (&stats.demoted, 1), (&stats.admin, 2)]
        {
            counter.add(n);
        }
        stats.req_seq.store(5, Ordering::SeqCst);
        [40_000, 60_000, 900_000].iter().for_each(|&ns| stats.request_ns.observe_ns(ns));
        [100_000, 110_000].iter().for_each(|&ns| stats.admin_request_ns.observe_ns(ns));
        (LoadgenReport { counts, timing }, plan, stats)
    }

    fn check(report: &LoadgenReport, plan: &LoadgenCounts, stats: &WireStats) -> Invariants {
        Invariants::check(report, plan, stats, &stats.registry.snapshot())
    }

    #[test]
    fn invariants_hold_on_a_clean_run() {
        let (report, plan, stats) = fixture();
        let invariants = check(&report, &plan, &stats);
        assert!(invariants.holds());
        assert_eq!(
            invariants.to_string(),
            "loadgen invariants: accounted 4/4, scrape accounted 2/2, malformed 0, scrape \
             malformed 0, response fallbacks 0, admin excluded true, connection leaks 0, server \
             stopped true"
        );
    }

    /// Applies one defect to the clean fixture and returns the check,
    /// which must fail.
    fn with_defect(defect: impl FnOnce(&mut LoadgenReport, &WireStats)) -> Invariants {
        let (mut report, plan, stats) = fixture();
        defect(&mut report, &stats);
        let invariants = check(&report, &plan, &stats);
        assert!(!invariants.holds(), "{invariants}");
        invariants
    }

    #[test]
    fn invariants_fail_on_a_leaked_connection() {
        let invariants = with_defect(|_, stats| {
            stats.gauges.open.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(invariants.connection_leaks, 1);
    }

    #[test]
    fn invariants_fail_on_a_malformed_response() {
        // Still classified exactly once, but outside the vocabulary.
        let invariants = with_defect(|report, _| {
            report.counts.ok -= 1;
            report.counts.malformed += 1;
        });
        assert_eq!((invariants.accounted, invariants.malformed), (4, 1));
    }

    #[test]
    fn invariants_fail_on_an_unaccounted_scrape() {
        let invariants = with_defect(|report, _| report.counts.scrape_healthy = 0);
        assert_eq!((invariants.scrape_accounted, invariants.scrape_requests), (1, 2));
    }

    #[test]
    fn invariants_fail_on_an_admin_observation_in_the_serving_histogram() {
        // One admin latency recorded as serving: five ids now cover six
        // observations.
        let invariants = with_defect(|_, stats| stats.request_ns.observe_ns(100_000));
        assert!(!invariants.admin_excluded);
    }

    #[test]
    fn bench_json_of_a_fixed_report_is_pinned() {
        let (report, plan, stats) = fixture();
        let invariants = check(&report, &plan, &stats);
        let mix = LoadgenConfig {
            ops: 5, clients: 4, seed: 7, slow_pct: 20, abort_pct: 1, oversized_pct: 2,
            keep_alive_pct: 30, scrape_pct: 20, ..LoadgenConfig::default()
        };
        let run = HostedRun { stride: 200, workers: 2, queue: 3, read_timeout_ms: 150, mix };
        let hosted = HostedReport { run, plan, corpus_len: 38, report, stats, invariants };
        let expected = r#"{
  "seed": 7,
  "ops": 5,
  "clients": 4,
  "stride": 200,
  "workers": 2,
  "queue_depth": 3,
  "read_timeout_ms": 150,
  "mix": { "slow_pct": 20, "abort_pct": 1, "oversized_pct": 2, "keep_alive_pct": 30, "scrape_pct": 20 },
  "plan": { "normal": 3, "keep_alive": 1, "slow": 1, "abort": 0, "oversized": 0, "scrape": 1 },
  "outcomes": { "ok": 2, "fault": 1, "shed": 0, "timeout_408": 1, "too_large": 0, "aborted": 0, "closed": 0, "demoted": 1, "malformed": 0 },
  "scrape": { "metrics_ok": 1, "healthy": 1, "degraded": 0, "shed": 0, "closed": 0, "malformed": 0 },
  "elapsed_ms": 250.000,
  "req_per_s": 20.000,
  "latency_ns": { "count": 3, "p50": 64000, "p95": 1024000, "p99": 1024000, "max": 900000 },
  "p99_bound_ns": 2450000000,
  "scrape_p99_ns": 256000,
  "server": { "accepted": 6, "served": 3, "shed": 0, "timeouts": 1, "queue_timeouts": 0, "write_stalls": 0, "demoted": 1, "admin": 2, "request_ids_issued": 5 },
  "invariants": { "accounted": true, "scrape_accounted": true, "malformed_responses": 0, "scrape_malformed": 0, "response_fallbacks": 0, "admin_excluded": true, "connection_leaks": 0, "server_stopped": true }
}
"#;
        assert_eq!(hosted.bench_json(), expected);
    }

    #[test]
    fn different_seeds_plan_different_mixes() {
        let a = LoadgenConfig { ops: 300, seed: 1, ..LoadgenConfig::default() };
        let b = LoadgenConfig { ops: 300, seed: 2, ..LoadgenConfig::default() };
        let plan_a: Vec<OpProfile> = (0..300).map(|i| plan_op(&a, i)).collect();
        let plan_b: Vec<OpProfile> = (0..300).map(|i| plan_op(&b, i)).collect();
        assert_ne!(plan_a, plan_b);
    }
}
