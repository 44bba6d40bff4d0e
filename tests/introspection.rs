//! The live introspection plane (DESIGN.md §16): admin endpoints on
//! the wire server, request-id correlation, and exemplar resolution.
//!
//! Three properties are pinned here:
//!
//! 1. **Admin exclusion** — `/metrics`, `/healthz` and `/statusz` are
//!    served by the same reactor and the same response renderer as
//!    SOAP traffic, but land in their own counters and histogram.
//!    `wire_server_request_ns` counts exactly the served exchanges;
//!    scraping it never perturbs it.
//! 2. **Request-id correlation** — every dispatched request carries a
//!    seeded deterministic `X-Request-Id`; the set of header ids
//!    equals the set of trace-span ids, and it is a pure function of
//!    `(request_seed, request count)` — serial and concurrent runs
//!    produce the same set.
//! 3. **Exemplars** — the slow-request exemplars rendered on
//!    `wire_server_request_ns` buckets resolve to ids that were
//!    actually issued to clients.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use wsinterop::core::obs::{MetricsRegistry, TracePhase, TraceSink};
use wsinterop::core::wire::{self, http, HttpLimits, WireServer, WireServerConfig};

const TIMEOUT: Duration = Duration::from_secs(5);

fn header<'r>(response: &'r http::Response, name: &str) -> Option<&'r str> {
    response
        .headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// One close-mode GET; returns the response. Panics on any framing
/// failure — these tests only drive well-formed requests.
fn get(addr: SocketAddr, target: &str) -> http::Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("deadline");
    http::write_request(&mut stream, "GET", target, "127.0.0.1", None, b"", true)
        .expect("write request");
    http::read_response(&stream, &HttpLimits::default()).expect("read response")
}

/// The `X-Request-Id` header parsed back to the u64 it renders.
fn request_id(response: &http::Response) -> u64 {
    let id = header(response, "x-request-id").expect("every dispatched response carries an id");
    assert_eq!(id.len(), 16, "ids render as exactly 16 hex digits, got {id:?}");
    u64::from_str_radix(id, 16).expect("id is hex")
}

/// A stride-400 survey host with a shared registry and trace sink.
fn start_instrumented(
    seed: u64,
) -> (WireServer, Arc<MetricsRegistry>, TraceSink, String) {
    let services = wire::host_survey_services(400);
    let path = services.keys().next().expect("stride 400 deploys services").clone();
    let registry = Arc::new(MetricsRegistry::new());
    let sink = TraceSink::with_capacity(4096);
    // Capacity comfortably above the widest client fan-out below, so
    // nothing is shed at the accept gate — a shed connection is never
    // dispatched and gets no request id, which is exactly what the
    // correlation tests must not trip over.
    let config = WireServerConfig {
        workers: 2,
        queue_depth: 16,
        read_timeout: TIMEOUT,
        metrics: Some(Arc::clone(&registry)),
        request_seed: seed,
        trace: Some(sink.clone()),
        ..WireServerConfig::default()
    };
    let server = WireServer::start(0, services, config).expect("bind loopback");
    (server, registry, sink, path)
}

/// Output pin for the request-id stream: serial requests take the
/// stream's ordinals in order, so their ids are fixed constants of the
/// seed — a change to the mixer shows up here, not only as a
/// collision.
#[test]
fn first_request_ids_are_pinned() {
    let (server, _registry, _sink, _path) = start_instrumented(11);
    let addr = server.addr();
    let ids: Vec<u64> = (0..3).map(|_| request_id(&get(addr, "/healthz"))).collect();
    assert_eq!(ids, [0x50f5_647d_2380_309d, 0xd517_1492_f6d0_63ef, 0xc261_a003_c920_4625]);
    server.shutdown();
}

#[test]
fn admin_endpoints_are_served_but_excluded_from_serving_metrics() {
    let (server, registry, _sink, path) = start_instrumented(11);
    let addr = server.addr();
    let stats = server.stats();
    let target = format!("{path}?wsdl");

    // 5 real exchanges, each carrying a request id.
    let mut issued = BTreeSet::new();
    for _ in 0..5 {
        let response = get(addr, &target);
        assert_eq!(response.status, 200);
        issued.insert(request_id(&response));
    }

    // 6 admin requests: 3 scrapes, 2 health checks, 1 status page.
    // All carry ids too — the admin plane is dispatched, not special.
    let mut metrics_bodies = Vec::new();
    for _ in 0..3 {
        let response = get(addr, "/metrics");
        assert_eq!(response.status, 200);
        assert_eq!(
            header(&response, "content-type"),
            Some("text/plain; version=0.0.4"),
            "Prometheus text exposition content type"
        );
        issued.insert(request_id(&response));
        metrics_bodies.push(response.body_str().expect("utf-8 metrics").to_string());
    }
    for _ in 0..2 {
        let response = get(addr, "/healthz");
        assert_eq!(response.status, 200);
        assert_eq!(response.body_str(), Some("ok"), "idle server is healthy");
        issued.insert(request_id(&response));
    }
    let statusz = get(addr, "/statusz");
    assert_eq!(statusz.status, 200);
    assert_eq!(header(&statusz, "content-type"), Some("application/json"));
    issued.insert(request_id(&statusz));
    let status_body = statusz.body_str().expect("utf-8 statusz");
    for key in [
        "\"healthy\":true",
        "\"stopping\":false",
        "\"uptime_ms\":",
        "\"config_hash\":",
        "\"gauges\":",
        "\"ladder\":",
        "\"requests\":",
    ] {
        assert!(status_body.contains(key), "statusz must carry {key}, got {status_body}");
    }

    assert_eq!(issued.len(), 11, "all 11 dispatched requests got distinct ids");

    // Exact exclusion: the serving histogram counted the 5 exchanges
    // and nothing else; the 6 admin requests landed in their own.
    // Latency is observed when the reactor finishes flushing the
    // response — a hair *after* the client has read it — so give the
    // final completion a bounded moment to land before snapshotting.
    let live_count = |name: &str| {
        registry.snapshot().histograms.get(name).map_or(0, |h| h.count)
    };
    let deadline = std::time::Instant::now() + TIMEOUT;
    while live_count("wire_server_admin_request_ns") < 6
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let snap = registry.snapshot();
    let count = |name: &str| snap.histograms.get(name).map_or(0, |h| h.count);
    assert_eq!(count("wire_server_request_ns"), 5, "admin ops must not inflate serving latency");
    assert_eq!(count("wire_server_admin_request_ns"), 6);
    assert_eq!(stats.admin(), 6);
    assert_eq!(stats.served(), 5);
    assert_eq!(stats.responses_fallback(), 0, "every ladder code is pre-resolved");
    assert_eq!(
        snap.counters.get("wire_server_admin_responses_total{route=\"metrics\"}"),
        Some(&3)
    );
    assert_eq!(
        snap.counters.get("wire_server_admin_responses_total{route=\"healthz\"}"),
        Some(&2)
    );
    assert_eq!(
        snap.counters.get("wire_server_admin_responses_total{route=\"statusz\"}"),
        Some(&1)
    );

    // Consecutive scrapes are self-consistent: every counter moved
    // monotonically between the first and last /metrics body.
    let first = wire::parse_prometheus(&metrics_bodies[0]).expect("scrape parses");
    let last = wire::parse_prometheus(metrics_bodies.last().expect("three scrapes"))
        .expect("scrape parses");
    for row in wire::diff_samples(&first, &last, 1_000) {
        if row.kind == wire::SampleKind::Counter {
            assert!(row.delta >= 0, "counter {} regressed: {} -> {}", row.name, row.prev, row.next);
        }
    }

    // Exemplars on the serving histogram resolve to ids that were
    // actually issued on exchange responses (never admin ids).
    let rendered = registry.render_prometheus();
    let mut exemplar_ids = BTreeSet::new();
    for line in rendered.lines() {
        if !line.starts_with("wire_server_request_ns_bucket") {
            continue;
        }
        if let Some(rest) = line.split("# {request_id=\"").nth(1) {
            let hex = rest.split('"').next().expect("quoted exemplar id");
            exemplar_ids.insert(u64::from_str_radix(hex, 16).expect("exemplar id is hex"));
        }
    }
    assert!(!exemplar_ids.is_empty(), "served traffic must leave exemplars");
    assert_eq!(stats.request_ids_issued(), 11);
    for id in &exemplar_ids {
        assert!(issued.contains(id), "exemplar {id:016x} must be a real request id");
    }

    server.request_stop();
    server.shutdown();
    assert_eq!(stats.open(), 0);
}

#[test]
fn healthz_degrades_under_queue_pressure_and_saturation_sheds_the_probe() {
    let services = wire::host_survey_services(400);
    // One reactor: promotion is arrival order *within a reactor*, so
    // a single reactor makes "the probe is promoted before the
    // backlog peer" deterministic rather than a cross-reactor race.
    let config = WireServerConfig {
        workers: 1,
        queue_depth: 2,
        reactors: 1,
        read_timeout: TIMEOUT,
        retry_after_secs: 3,
        ..WireServerConfig::default()
    };
    let server = WireServer::start(0, services, config).expect("bind loopback");
    let addr = server.addr();
    let stats = server.stats();
    let limits = HttpLimits::default();

    let wait_for = |label: &str, want: usize, get: &dyn Fn() -> usize| {
        let deadline = std::time::Instant::now() + TIMEOUT;
        while get() != want {
            assert!(std::time::Instant::now() < deadline, "{label} never reached {want}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    // Occupy the single worker with an idle peer, then queue a
    // healthz probe and one more idle peer behind it.
    let held = TcpStream::connect(addr).expect("connect held");
    wait_for("in_flight", 1, &|| stats.in_flight());
    let mut probe = TcpStream::connect(addr).expect("connect probe");
    probe.set_read_timeout(Some(TIMEOUT)).expect("deadline");
    wait_for("queued", 1, &|| stats.queued());
    let backlog = TcpStream::connect(addr).expect("connect backlog");
    wait_for("queued", 2, &|| stats.queued());

    // The probe's request bytes sit in the kernel until promotion.
    http::write_request(&mut probe, "GET", "/healthz", "127.0.0.1", None, b"", true)
        .expect("write healthz");

    // Past capacity, even a health check is shed at the accept gate —
    // readiness degradation applies to the admin plane too.
    let shed = TcpStream::connect(addr).expect("connect past capacity");
    shed.set_read_timeout(Some(TIMEOUT)).expect("deadline");
    let response = http::read_response(&shed, &limits).expect("shed 503");
    assert_eq!(response.status, 503);
    assert!(
        response.body_str().unwrap_or("").contains("worker pool saturated"),
        "saturation shed names its reason"
    );

    // Release the worker: the probe is promoted FIFO while the
    // backlog peer still queues, so the routed health check reports
    // the degradation it can see.
    drop(held);
    let response = http::read_response(&probe, &limits).expect("healthz under pressure");
    assert_eq!(response.status, 503, "queued backlog must degrade readiness");
    assert_eq!(response.body_str(), Some("degraded"));
    assert!(header(&response, "x-request-id").is_some(), "degraded healthz is dispatched");

    drop(backlog);
    server.request_stop();
    server.shutdown();
    assert_eq!(stats.open(), 0, "no leaked connections after drain");
}

/// Drives `total` exchange+healthz requests against a fresh seeded
/// server with `threads` client threads; returns the sorted header-id
/// set and the sorted trace-span id set.
fn run_correlated(seed: u64, threads: usize, per_thread: usize) -> (Vec<u64>, Vec<u64>) {
    let (server, _registry, sink, path) = start_instrumented(seed);
    let addr = server.addr();
    let target = format!("{path}?wsdl");

    let header_ids: BTreeSet<u64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let target = target.clone();
            handles.push(scope.spawn(move || {
                let mut ids = Vec::new();
                for i in 0..per_thread {
                    let which = if i % 2 == 0 { target.as_str() } else { "/healthz" };
                    let response = get(addr, which);
                    assert!(response.status == 200 || response.status == 503);
                    ids.push(request_id(&response));
                }
                ids
            }));
        }
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    server.request_stop();
    server.shutdown();

    let trace_ids: BTreeSet<u64> = sink
        .drain()
        .into_iter()
        .filter(|event| event.phase == TracePhase::Wire)
        .map(|event| event.request_id.expect("every wire span carries its request id"))
        .collect();

    assert_eq!(
        header_ids.len(),
        threads * per_thread,
        "ids are unique: one per dispatched request"
    );
    assert_eq!(
        header_ids, trace_ids,
        "the ids clients saw and the ids the spans recorded are the same set"
    );
    (header_ids.into_iter().collect(), trace_ids.into_iter().collect())
}

#[test]
fn request_ids_correlate_headers_with_spans_and_are_concurrency_invariant() {
    // Same seed, same request count — one serial client vs eight
    // concurrent ones. Interleaving changes which connection gets
    // which ordinal, but the *set* of ids is a pure function of
    // (seed, count).
    let (serial_ids, _) = run_correlated(0xC0FF_EE00_0000_0001, 1, 24);
    let (concurrent_ids, _) = run_correlated(0xC0FF_EE00_0000_0001, 8, 3);
    assert_eq!(serial_ids, concurrent_ids, "id set depends only on (seed, count)");

    // A different seed is a different stream.
    let (other_seed_ids, _) = run_correlated(0xD15E_A5E0_0000_0002, 1, 24);
    assert_ne!(serial_ids, other_seed_ids);
}

/// The round trip the ops story depends on: scrape a live server,
/// journal the frames, parse the journal back, and get the same
/// samples the live diff saw.
#[test]
fn snapshot_ring_journal_round_trips_a_live_scrape() {
    let (server, _registry, _sink, path) = start_instrumented(99);
    let addr = server.addr();

    let (status, first) = wire::scrape_text(addr, "/metrics", TIMEOUT).expect("scrape");
    assert_eq!(status, 200);
    let _ = get(addr, &format!("{path}?wsdl"));
    let (status, second) = wire::scrape_text(addr, "/metrics", TIMEOUT).expect("scrape");
    assert_eq!(status, 200);
    server.request_stop();
    server.shutdown();

    let mut ring = wire::SnapshotRing::new(8);
    let parsed_first = wire::parse_prometheus(&first).expect("parse");
    let parsed_second = wire::parse_prometheus(&second).expect("parse");
    ring.push(0, parsed_first.clone());
    ring.push(250, parsed_second.clone());

    let rendered = ring.render();
    let frames = wire::SnapshotRing::parse(&rendered).expect("journal verifies");
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[0].samples, parsed_first);
    assert_eq!(frames[1].samples, parsed_second);

    // The journal diffs exactly like the live pair did.
    let live: Vec<wire::ScrapeDiff> = wire::diff_samples(&parsed_first, &parsed_second, 250);
    let replayed = wire::diff_samples(&frames[0].samples, &frames[1].samples, 250);
    assert_eq!(live, replayed);

    // The exchange request moved the served counter by exactly one.
    let served: BTreeMap<&String, i64> = live
        .iter()
        .filter(|row| row.name == "wire_server_served_total")
        .map(|row| (&row.name, row.delta))
        .collect();
    assert_eq!(served.values().copied().sum::<i64>(), 1);
}
