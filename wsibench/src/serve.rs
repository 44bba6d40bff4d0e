//! The serving workloads: closed-loop SOAP clients against an in-process
//! `WireServer`.
//!
//! Every client sends its next request only after reading the previous
//! response, as every SOAP caller in this system does. Requests replay
//! the survey corpus in the order `wire::loadgen::plan_corpus_index`
//! draws from the seed, and every response body must be byte-equal to
//! what the in-process `serve_echo` produces for the same request.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wsinterop_core::exchange::{serve_echo, SURVEY_PROBE};
use wsinterop_core::wire::loadgen::plan_corpus_index;
use wsinterop_core::wire::{
    host_survey_services, http, HostedService, HttpLimits, LoadgenConfig, WireServer,
    WireServerConfig, WireStats,
};
use wsinterop_wsdl::{soap, Definitions};
use wsinterop_xml::writer::{write_document, WriteOptions};

use crate::metrics::Report;
use crate::probe::Probe;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{elapsed_ns, nproc, record_peak_rss, Options};

/// Socket deadline on the client side: far above any healthy response,
/// so only a hung exchange hits it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Failed requests described in a run's output; the rest are counted.
const MAX_PROBLEMS: usize = 5;

/// One replayable request and the response it must get.
struct Entry {
    path: String,
    operation: String,
    /// The serialized survey-probe envelope.
    request: String,
    /// `serve_echo` over the same request, computed in-process.
    expected: Vec<u8>,
    /// 500 for a fault envelope, 200 otherwise.
    status: u16,
    /// The service's description, for the in-process replays.
    defs: Definitions,
}

/// The hosted corpus and the running endpoint.
pub struct Fixture {
    entries: Vec<Entry>,
    server: WireServer,
}

impl Fixture {
    /// Hosting, corpus and listen: deploys and pre-parses every
    /// `stride`-th service of every server, builds one survey-probe
    /// request per invocable service with its expected echo, and starts
    /// the endpoint on an ephemeral loopback port.
    pub fn start(stride: usize) -> std::io::Result<Fixture> {
        let services = host_survey_services(stride);
        let entries = corpus(&services);
        if entries.is_empty() {
            return Err(std::io::Error::other(format!(
                "stride {stride} hosts no invocable service"
            )));
        }
        let server = WireServer::start(0, services, WireServerConfig::default())?;
        Ok(Fixture { entries, server })
    }

    /// Drains and stops the endpoint.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn corpus(services: &BTreeMap<String, HostedService>) -> Vec<Entry> {
    let mut entries = Vec::new();
    for (path, hosted) in services {
        let Ok(defs) = &hosted.defs else { continue };
        let Some(op) = defs
            .port_types
            .iter()
            .flat_map(|pt| pt.operations.iter())
            .next()
        else {
            continue;
        };
        let Ok(doc) = soap::request(defs, &op.name, SURVEY_PROBE) else {
            continue;
        };
        let request = write_document(&doc, &WriteOptions::compact());
        let expected = serve_echo(defs, &request);
        entries.push(Entry {
            path: path.clone(),
            operation: op.name.clone(),
            status: if soap::is_fault(&expected) { 500 } else { 200 },
            expected: expected.into_bytes(),
            request,
            defs: defs.clone(),
        });
    }
    entries
}

/// When a load phase ends.
#[derive(Clone, Copy)]
enum Stop {
    /// No request starts after this instant.
    At(Instant),
    /// Exactly this many requests in total.
    After(usize),
}

/// What one load phase produced.
#[derive(Default)]
struct Load {
    /// Per-request latency; a failed request is `u64::MAX`, so it counts
    /// as missing any limit.
    latencies: Vec<u64>,
    completed: u64,
    failed: u64,
    problems: Vec<String>,
    elapsed: Duration,
    tracer: Option<Tracer>,
}

impl Load {
    /// Adds `other`'s requests and spans; `elapsed` stays as it is.
    fn merge(&mut self, other: Load) {
        self.latencies.extend(other.latencies);
        self.completed += other.completed;
        self.failed += other.failed;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
        match (self.tracer.as_mut(), other.tracer) {
            (Some(into), Some(from)) => into.merge(from),
            (None, from) => self.tracer = from,
            _ => {}
        }
    }
}

/// Closed-loop clients, one thread each. The seeded request order and
/// each client's kept-alive connection carry over from one load phase to
/// the next.
struct Clients {
    plan: LoadgenConfig,
    cursor: AtomicUsize,
    kept: Vec<Option<TcpStream>>,
    keep_alive: bool,
}

impl Clients {
    fn new(seed: u64, clients: usize, keep_alive: bool) -> Clients {
        Clients {
            plan: LoadgenConfig {
                seed,
                ..LoadgenConfig::default()
            },
            cursor: AtomicUsize::new(0),
            kept: (0..clients.max(1)).map(|_| None).collect(),
            keep_alive,
        }
    }

    /// Runs every client until `stop`. With `trace`, every request is
    /// split into spans and replayed in-process afterwards.
    fn run(&mut self, fx: &Fixture, stop: Stop, trace: Option<Instant>) -> Load {
        let Clients {
            plan,
            cursor,
            kept,
            keep_alive,
        } = self;
        let (plan, cursor, keep_alive) = (&*plan, &*cursor, *keep_alive);
        let addr = fx.server.addr();
        let started = Instant::now();
        let loads: Vec<Load> = std::thread::scope(|scope| {
            let handles: Vec<_> = kept
                .iter_mut()
                .map(|kept| {
                    scope.spawn(move || {
                        let mut load = Load {
                            tracer: trace.map(Tracer::new),
                            ..Load::default()
                        };
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            match stop {
                                Stop::At(end) if Instant::now() >= end => break,
                                Stop::After(n) if index >= n => break,
                                _ => {}
                            }
                            let entry =
                                &fx.entries[plan_corpus_index(plan, index, fx.entries.len())];
                            let id = index as u64;
                            let begun = Instant::now();
                            let result =
                                exchange(addr, entry, keep_alive, kept, load.tracer.as_mut(), id);
                            let ns = elapsed_ns(begun);
                            match result {
                                Ok(body) => {
                                    load.latencies.push(ns);
                                    load.completed += 1;
                                    if let Some(tracer) = load.tracer.as_mut() {
                                        replay_in_process(tracer, id, entry, &body, keep_alive);
                                    }
                                }
                                Err(problem) => {
                                    load.latencies.push(u64::MAX);
                                    load.failed += 1;
                                    if load.problems.len() < MAX_PROBLEMS {
                                        load.problems.push(problem);
                                    }
                                }
                            }
                        }
                        load
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a load client panicked"))
                .collect()
        });
        let mut total = Load::default();
        for load in loads {
            total.merge(load);
        }
        total.elapsed = started.elapsed();
        total
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(stream)
}

/// Runs `f` in a span under `parent` when tracing.
fn step<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.time(name, id, parent, f),
        None => f(),
    }
}

/// One request: connect (unless a kept connection is reused), write it
/// with `http::write_request`, read the reply with `http::read_response`
/// and compare it with the in-process echo. Returns the response body.
fn exchange(
    addr: SocketAddr,
    entry: &Entry,
    keep_alive: bool,
    kept: &mut Option<TcpStream>,
    mut tracer: Option<&mut Tracer>,
    id: u64,
) -> Result<Vec<u8>, String> {
    let root = tracer.as_mut().map(|t| t.open("request", id, None));
    let result = (|| {
        let mut stream = match kept.take() {
            Some(stream) => stream,
            None => step(&mut tracer, "wire.connect", id, root, || connect(addr))
                .map_err(|e| format!("connect: {e}"))?,
        };
        step(&mut tracer, "http.write_request", id, root, || {
            http::write_request(
                &mut stream,
                "POST",
                &entry.path,
                "127.0.0.1",
                Some(&entry.operation),
                entry.request.as_bytes(),
                !keep_alive,
            )
        })
        .map_err(|e| format!("{}: write: {e}", entry.path))?;
        let response = step(&mut tracer, "wire.wait", id, root, || {
            http::read_response(&stream, &HttpLimits::default())
        })
        .map_err(|e| format!("{}: read: {e}", entry.path))?;
        if response.status != entry.status || response.body != entry.expected {
            return Err(format!(
                "{}: response (status {}, {} bytes) differs from the in-process \
                 serve_echo (status {}, {} bytes)",
                entry.path,
                response.status,
                response.body.len(),
                entry.status,
                entry.expected.len()
            ));
        }
        let closing = response
            .headers
            .iter()
            .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
        if keep_alive && !closing {
            *kept = Some(stream);
        }
        Ok(response.body)
    })();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    result
}

/// Times the server-side work of one request in-process, on the same
/// bytes: head parsing, the echo, response rendering; and the client-side
/// envelope build and unwrap.
fn replay_in_process(tracer: &mut Tracer, id: u64, entry: &Entry, body: &[u8], keep_alive: bool) {
    let head = format!(
        "POST {} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: {}\r\n\
         Content-Type: text/xml; charset=utf-8\r\nSOAPAction: \"{}\"\r\nContent-Length: {}\r\n\r\n",
        entry.path,
        if keep_alive { "keep-alive" } else { "close" },
        entry.operation,
        entry.request.len()
    );
    let _ = tracer.time("http.parse_request_head", id, None, || {
        black_box(http::parse_request_head(
            head.as_bytes(),
            &HttpLimits::default(),
        ))
    });
    let echo = tracer.time("exchange.serve_echo", id, None, || {
        serve_echo(&entry.defs, &entry.request)
    });
    let reason = if entry.status == 200 {
        "OK"
    } else {
        "Internal Server Error"
    };
    tracer.time("http.render_response", id, None, || {
        black_box(http::render_response(
            entry.status,
            reason,
            "text/xml",
            &[("X-Request-Id", "0000000000000000")],
            echo.as_bytes(),
            !keep_alive,
        ))
    });
    let _ = tracer.time("soap.request_build", id, None, || {
        black_box(
            soap::request(&entry.defs, &entry.operation, SURVEY_PROBE)
                .map(|doc| write_document(&doc, &WriteOptions::compact())),
        )
    });
    let text = std::str::from_utf8(body).unwrap_or_default();
    let _ = tracer.time("soap.unwrap", id, None, || {
        black_box(soap::unwrap_single_value(text))
    });
}

/// The server's ladder counters at one instant.
#[derive(Clone, Copy)]
struct Counters {
    accepted: usize,
    shed: usize,
    demoted: usize,
    queue_timeouts: usize,
    write_stalls: usize,
}

impl Counters {
    fn read(stats: &WireStats) -> Counters {
        Counters {
            accepted: stats.accepted(),
            shed: stats.shed(),
            demoted: stats.demoted(),
            queue_timeouts: stats.queue_timeouts(),
            write_stalls: stats.write_stalls(),
        }
    }
}

fn warm_up(fx: &Fixture, clients: &mut Clients, opts: &Options, report: &mut Report) {
    let warm = clients.run(fx, Stop::At(Instant::now() + opts.warmup()), None);
    report.check(warm.failed == 0, || {
        format!("warm-up requests failed: {:?}", warm.problems)
    });
}

/// Builds the class catalogs the hosting step reads, once per process,
/// so every timed start measures the same work.
fn build_catalogs() {
    black_box(wsinterop_typecat::Catalog::java_se7());
    black_box(wsinterop_typecat::Catalog::dotnet40());
}

/// Starts a fixture; a failure to start is a failed check.
fn start(stride: usize, report: &mut Report) -> Option<Fixture> {
    Fixture::start(stride)
        .map_err(|e| {
            report
                .problems
                .push(format!("cannot start the endpoint: {e}"))
        })
        .ok()
}

/// Load between two probes: short enough that the probe before it still
/// tells the host's speed, long enough to hold about 2 000 churn
/// requests.
const WINDOW: Duration = Duration::from_millis(250);

/// The untraced serving run. Set-up (hosting, corpus and listen) is
/// timed three times before the load and twice after it; the last
/// fixture started before the load serves it. The load runs in
/// [`WINDOW`]s with the clients' connections kept across them. Every
/// set-up and every window starts with a probe, taken while the server
/// idles, which scales its busy share; the request latencies of a window
/// are scaled like the window.
pub fn run(keep_alive: bool, opts: &Options) -> Report {
    let mut report = Report::default();
    let stride = opts.serve_stride();
    let mut probe = Probe::start();
    build_catalogs();
    let mut setups = Vec::new();
    let mut fx = None;
    for _ in 0..3 {
        if let Some(old) = fx.take() {
            Fixture::shutdown(old);
        }
        let (started, ns) = probe.time(1, || start(stride, &mut report));
        setups.push(ns);
        fx = started;
    }
    let Some(fx) = fx else { return report };
    let mut clients = Clients::new(opts.seed, nproc(), keep_alive);
    warm_up(&fx, &mut clients, opts, &mut report);
    // Clients and reactors share the cores.
    let load_threads = nproc() + WireServerConfig::default().reactors;
    let mut load = Load::default();
    let mut busy_ns = 0;
    let started = Instant::now();
    while started.elapsed() < opts.measure {
        let sample = probe.begin();
        let mut window = clients.run(&fx, Stop::At(Instant::now() + WINDOW), None);
        let scale = sample.end(load_threads);
        busy_ns += scale.apply(u64::try_from(window.elapsed.as_nanos()).unwrap_or(u64::MAX));
        for ns in window.latencies.iter_mut().filter(|ns| **ns != u64::MAX) {
            *ns = scale.apply(*ns);
        }
        load.merge(window);
    }
    fx.shutdown();
    for _ in 0..2 {
        let (started, ns) = probe.time(1, || start(stride, &mut report));
        setups.push(ns);
        if let Some(extra) = started {
            extra.shutdown();
        }
    }
    report.attempted = load.latencies.len() as u64;
    report.failed = load.failed;
    report.problems.extend(load.problems);
    // Failed requests read `u64::MAX`, so they sort after every served one.
    load.latencies.sort_unstable();
    let served = &load.latencies[..load.completed as usize];
    record_peak_rss(&mut report);
    report.set(
        "setup_s",
        median(&mut setups).unwrap_or(0) as f64 / 1e9,
        setups.len(),
    );
    report.set(
        "throughput",
        load.completed as f64 / busy_ns as f64 * 1e9,
        load.latencies.len(),
    );
    report.set(
        "mean_ms",
        served.iter().map(|&ns| ns as f64).sum::<f64>() / served.len().max(1) as f64 / 1e6,
        served.len(),
    );
    report.set(
        "p90_ms",
        quantile(&load.latencies, 900).unwrap_or(0) as f64 / 1e6,
        load.latencies.len(),
    );
    report
}

/// The traced serving run: the measured load with every request split
/// into spans.
pub fn trace(keep_alive: bool, opts: &Options, tracer: &mut Tracer, report: &mut Report) {
    let Some(fx) = start(opts.serve_stride(), report) else {
        return;
    };
    let mut clients = Clients::new(opts.seed, nproc(), keep_alive);
    warm_up(&fx, &mut clients, opts, report);
    let stop = Stop::At(Instant::now() + opts.measure);
    trace_load(&fx, &mut clients, stop, tracer, report);
    fx.shutdown();
}

/// The wire layers for a workload that does not serve: one pass over the
/// survey corpus from one client on fresh connections.
pub fn trace_probe(opts: &Options, tracer: &mut Tracer, report: &mut Report) {
    let Some(fx) = start(opts.serve_stride(), report) else {
        return;
    };
    let stop = Stop::After(fx.entries.len());
    trace_load(
        &fx,
        &mut Clients::new(opts.seed, 1, false),
        stop,
        tracer,
        report,
    );
    fx.shutdown();
}

fn trace_load(
    fx: &Fixture,
    clients: &mut Clients,
    stop: Stop,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let stats = fx.server.stats();
    let before = Counters::read(&stats);
    let load = clients.run(fx, stop, Some(tracer.origin()));
    let after = Counters::read(&stats);
    if let Some(spans) = load.tracer {
        tracer.merge(spans);
    }
    report.attempted += load.latencies.len() as u64;
    report.failed += load.failed;
    report.problems.extend(load.problems);

    let us = |name: &str, q: u32| {
        let mut d = tracer.durations(name);
        d.sort_unstable();
        (quantile(&d, q).unwrap_or(0) as f64 / 1e3, d.len())
    };
    for (metric, span, q) in [
        ("wire.connect_p50_us", "wire.connect", 500),
        ("wire.connect_p99_us", "wire.connect", 990),
        ("http.write_request_p50_us", "http.write_request", 500),
        ("wire.wait_p50_us", "wire.wait", 500),
        ("wire.wait_p99_us", "wire.wait", 990),
        ("exchange.serve_echo_p50_us", "exchange.serve_echo", 500),
        ("exchange.serve_echo_p99_us", "exchange.serve_echo", 990),
        (
            "http.parse_request_head_p50_us",
            "http.parse_request_head",
            500,
        ),
        ("http.render_response_p50_us", "http.render_response", 500),
        ("soap.request_build_us", "soap.request_build", 500),
        ("soap.unwrap_us", "soap.unwrap", 500),
    ] {
        let (value, n) = us(span, q);
        report.set(metric, value, n);
    }

    // Per request: the wait the client saw, minus the server-side work
    // the in-process replay accounts for.
    let mut parts: BTreeMap<u64, [i64; 2]> = BTreeMap::new();
    for span in tracer.spans() {
        let slot = match span.name {
            "wire.wait" => 0,
            "http.parse_request_head" | "exchange.serve_echo" | "http.render_response" => 1,
            _ => continue,
        };
        parts.entry(span.id).or_default()[slot] += span.duration_ns() as i64;
    }
    let mut residual: Vec<i64> = parts.values().map(|[wait, work]| wait - work).collect();
    residual.sort_unstable();
    report.set(
        "wire.residual_p99_us",
        quantile(&residual, 990).unwrap_or(0) as f64 / 1e3,
        residual.len(),
    );

    let requests = load.latencies.len();
    report.set(
        "server.accepted_per_request",
        (after.accepted - before.accepted) as f64 / requests.max(1) as f64,
        requests,
    );
    report.set("server.shed", (after.shed - before.shed) as f64, requests);
    report.set(
        "server.demoted",
        (after.demoted - before.demoted) as f64,
        requests,
    );
    report.set(
        "server.queue_timeouts",
        (after.queue_timeouts - before.queue_timeouts) as f64,
        requests,
    );
    report.set(
        "server.write_stalls",
        (after.write_stalls - before.write_stalls) as f64,
        requests,
    );
}
