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

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wsinterop_typecat::rng::splitmix64;

use crate::obs::Histogram;

use super::http::{self, HttpLimits};

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
            match http::read_response(&stream, &config.limits) {
                Ok(response) => {
                    let served = matches!(response.status, 200 | 500);
                    if served {
                        tally
                            .latency
                            .observe(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    }
                    let closing = response
                        .headers
                        .iter()
                        .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
                    if keep_alive && closing {
                        tally.counts.demoted += 1;
                    }
                    match response.status {
                        200 => tally.counts.ok += 1,
                        500 => tally.counts.fault += 1,
                        503 => tally.counts.shed += 1,
                        408 => tally.counts.timeout_408 += 1,
                        413 => tally.counts.too_large += 1,
                        _ => tally.counts.malformed += 1,
                    }
                    if keep_alive && !closing {
                        *kept = Some(stream);
                    }
                }
                Err(
                    http::HttpError::ConnectionClosed
                    | http::HttpError::Reset
                    | http::HttpError::Timeout
                    | http::HttpError::TruncatedBody { .. },
                ) => tally.counts.closed += 1,
                Err(_) => tally.counts.malformed += 1,
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
            match http::read_response(&stream, &config.limits) {
                Ok(response) => match response.status {
                    408 => tally.counts.timeout_408 += 1,
                    503 => tally.counts.shed += 1,
                    _ => tally.counts.malformed += 1,
                },
                Err(
                    http::HttpError::ConnectionClosed
                    | http::HttpError::Reset
                    | http::HttpError::Timeout
                    | http::HttpError::TruncatedBody { .. },
                ) => tally.counts.closed += 1,
                Err(_) => tally.counts.malformed += 1,
            }
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
                    Err(
                        http::HttpError::ConnectionClosed
                        | http::HttpError::Reset
                        | http::HttpError::Timeout
                        | http::HttpError::TruncatedBody { .. },
                    ) => tally.counts.scrape_closed += 1,
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
            match http::read_response(&stream, &config.limits) {
                Ok(response) => match response.status {
                    413 => tally.counts.too_large += 1,
                    503 => tally.counts.shed += 1,
                    _ => tally.counts.malformed += 1,
                },
                Err(
                    http::HttpError::ConnectionClosed
                    | http::HttpError::Reset
                    | http::HttpError::Timeout
                    | http::HttpError::TruncatedBody { .. },
                ) => tally.counts.closed += 1,
                Err(_) => tally.counts.malformed += 1,
            }
        }
    }
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

    #[test]
    fn different_seeds_plan_different_mixes() {
        let a = LoadgenConfig { ops: 300, seed: 1, ..LoadgenConfig::default() };
        let b = LoadgenConfig { ops: 300, seed: 2, ..LoadgenConfig::default() };
        let plan_a: Vec<OpProfile> = (0..300).map(|i| plan_op(&a, i)).collect();
        let plan_b: Vec<OpProfile> = (0..300).map(|i| plan_op(&b, i)).collect();
        assert_ne!(plan_a, plan_b);
    }
}
