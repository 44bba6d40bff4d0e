//! Integration tests for the real-socket SOAP transport (DESIGN.md
//! §10): E15 loopback/in-process equivalence, admission control,
//! slow-loris and size-cap hardening, graceful drain, keep-alive, the
//! fault proxy's socket faults, and thread-count invariance of the
//! socket-fault chaos campaign.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use wsinterop::core::campaign::ExchangeTransport;
use wsinterop::core::exchange::survey_sites;
use wsinterop::core::faults::{sock_site, FaultPlan, SocketFault};
use wsinterop::core::wire::{
    host_survey_services, http, survey_tcp, FaultProxy, HostedService, HttpLimits, WireClient,
    WireClientConfig, WireError, WireServer, WireServerConfig,
};
use wsinterop::core::Campaign;
use wsinterop::frameworks::server::{all_servers, DeployOutcome};

/// Polls a gauge/counter until it reaches `want` (the socket tests'
/// only synchronization primitive — no sleeps baked into assertions).
fn wait_for(what: &str, want: usize, read: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while read() != want {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what} == {want} (currently {})",
            read()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// E15: the loopback survey is bit-identical to the in-process one —
/// same sites, same outcomes, same bytes-on-the-wire accounting.
#[test]
fn loopback_survey_bit_identical_to_in_process() {
    let stride = 200;
    let in_process = survey_sites(stride);
    assert!(!in_process.is_empty(), "survey must cover sites");

    let server = WireServer::start(0, host_survey_services(stride), WireServerConfig::default())
        .expect("bind loopback");
    let client = WireClient::new(WireClientConfig::default());
    let over_tcp = survey_tcp(stride, server.addr(), &client);
    server.shutdown();

    assert_eq!(in_process, over_tcp);
}

/// Admission control: with the worker pool and accept queue saturated,
/// every further connection is shed with `503` — deterministically,
/// because the gauges are polled before the over-capacity probes.
#[test]
fn overload_sheds_excess_connections_deterministically() {
    let config = WireServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(5),
        ..WireServerConfig::default()
    };
    let server = WireServer::start(0, BTreeMap::new(), config).expect("bind loopback");
    let addr = server.addr();
    let stats = server.stats();

    // One connection held inside the worker (it sends nothing, the
    // worker blocks in read)...
    let held_in_worker = TcpStream::connect(addr).expect("connect");
    wait_for("in_flight", 1, || stats.in_flight());
    // ...and one parked in the accept queue.
    let held_in_queue = TcpStream::connect(addr).expect("connect");
    wait_for("queued", 1, || stats.queued());

    // Capacity is now exactly exhausted: each extra connection must be
    // refused with 503 at the accept gate.
    for i in 0..3 {
        let mut probe = TcpStream::connect(addr).expect("connect");
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        probe.read_to_string(&mut response).expect("read 503");
        assert!(
            response.starts_with("HTTP/1.1 503 "),
            "probe {i} expected 503, got: {response:?}"
        );
    }
    assert_eq!(stats.shed(), 3);

    drop(held_in_worker);
    drop(held_in_queue);
    server.shutdown();
}

/// A peer that connects and trickles nothing gets `408` at the read
/// deadline instead of pinning a worker forever.
#[test]
fn slow_loris_first_request_gets_408() {
    let config = WireServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(100),
        ..WireServerConfig::default()
    };
    let server = WireServer::start(0, BTreeMap::new(), config).expect("bind loopback");

    let mut slow = TcpStream::connect(server.addr()).expect("connect");
    slow.write_all(b"POST /half-a-request HTT").expect("write");
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut response = String::new();
    slow.read_to_string(&mut response).expect("read 408");
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "expected 408, got: {response:?}"
    );
    assert_eq!(server.stats().timeouts(), 1);
    server.shutdown();
}

/// A declared body over the cap is refused with `413` *before* any
/// body byte is buffered — the server never allocates for it.
#[test]
fn oversized_body_rejected_before_buffering() {
    let server = WireServer::start(0, BTreeMap::new(), WireServerConfig::default())
        .expect("bind loopback");
    let limit = HttpLimits::default().max_body;

    let mut big = TcpStream::connect(server.addr()).expect("connect");
    write!(
        big,
        "POST /x HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
        limit + 1
    )
    .expect("write head");
    big.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut response = String::new();
    big.read_to_string(&mut response).expect("read 413");
    assert!(
        response.starts_with("HTTP/1.1 413 "),
        "expected 413, got: {response:?}"
    );
    server.shutdown();
}

/// Picks one hosted survey path and its WSDL (any will do).
fn one_hosted_service() -> (String, BTreeMap<String, HostedService>) {
    let services = host_survey_services(200);
    let path = services.keys().next().expect("services hosted").clone();
    (path, services)
}

/// Graceful shutdown drains both the in-flight request and the queued
/// connection: both still get full `200` responses after the stop.
#[test]
fn graceful_shutdown_drains_in_flight_and_queued() {
    let (path, services) = one_hosted_service();
    let config = WireServerConfig {
        workers: 1,
        queue_depth: 4,
        ..WireServerConfig::default()
    };
    let server = WireServer::start(0, services, config).expect("bind loopback");
    let addr = server.addr();
    let stats = server.stats();

    // In-flight: the worker is blocked mid-read on this half request.
    let mut in_flight = TcpStream::connect(addr).expect("connect");
    write!(in_flight, "GET {path}?wsdl HTTP/1.1\r\n").expect("write half");
    wait_for("in_flight", 1, || stats.in_flight());

    // Queued: a complete request already on the wire, not yet claimed.
    let mut queued = TcpStream::connect(addr).expect("connect");
    write!(
        queued,
        "GET {path}?wsdl HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    )
    .expect("write full");
    wait_for("queued", 1, || stats.queued());

    server.request_stop();

    // Complete the in-flight request *after* the stop: it must still
    // be served, as must the queued connection.
    write!(in_flight, "Host: 127.0.0.1\r\nConnection: close\r\n\r\n").expect("finish request");
    for (label, stream) in [("in-flight", &mut in_flight), ("queued", &mut queued)] {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(
            response.starts_with("HTTP/1.1 200 "),
            "{label} connection expected 200 after stop, got: {response:?}"
        );
        assert!(
            response.contains("definitions"),
            "{label} response should carry the WSDL"
        );
    }
    server.shutdown();
}

/// One connection serves several requests back to back (keep-alive).
#[test]
fn keep_alive_serves_multiple_requests() {
    let (path, services) = one_hosted_service();
    let server = WireServer::start(0, services, WireServerConfig::default())
        .expect("bind loopback");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let limits = HttpLimits::default();
    for round in 0..3 {
        http::write_request(
            &mut stream,
            "GET",
            &format!("{path}?wsdl"),
            "127.0.0.1",
            None,
            b"",
            false,
        )
        .expect("write request");
        let response = http::read_response(&stream, &limits).expect("read response");
        assert_eq!(response.status, 200, "round {round}");
        assert!(response.body_str().unwrap_or("").contains("definitions"));
    }
    assert_eq!(server.stats().served(), 3);
    server.shutdown();
}

/// Fifty SOAP POSTs back to back on one kept-alive socket: every body
/// is byte-equal to the in-process `serve_echo`, and the run takes well
/// under a second. A request written as two segments (head, then body)
/// stalls each round trip on the peer's ~40 ms delayed ACK, which would
/// put this run past 2 s.
#[test]
fn keep_alive_soap_posts_do_not_stall() {
    use wsinterop::core::exchange::{first_survey_operation, serve_echo, SURVEY_PROBE};
    use wsinterop::wsdl::soap;
    use wsinterop::xml::writer::{write_document, WriteOptions};

    const REQUESTS: usize = 50;
    let services = host_survey_services(200);
    let corpus: Vec<(String, String, String, String)> = services
        .iter()
        .filter_map(|(path, hosted)| {
            let defs = hosted.defs.as_ref().ok()?;
            let operation = first_survey_operation(&hosted.wsdl_xml)?;
            let doc = soap::request(defs, &operation, SURVEY_PROBE).ok()?;
            let request = write_document(&doc, &WriteOptions::compact());
            let expected = serve_echo(defs, &request);
            Some((path.clone(), operation, request, expected))
        })
        .collect();
    assert!(!corpus.is_empty(), "survey must host invocable services");
    let server =
        WireServer::start(0, services, WireServerConfig::default()).expect("bind loopback");

    let started = Instant::now();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let limits = HttpLimits::default();
    for i in 0..REQUESTS {
        let (path, operation, request, expected) = &corpus[i % corpus.len()];
        http::write_request(
            &mut stream,
            "POST",
            path,
            "127.0.0.1",
            Some(operation),
            request.as_bytes(),
            false,
        )
        .expect("write request");
        let response = http::read_response(&stream, &limits).expect("read response");
        assert_eq!(response.body, expected.as_bytes(), "request {i} to {path}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "{REQUESTS} keep-alive requests took {elapsed:?}"
    );
    assert_eq!(server.stats().served(), REQUESTS);
    server.shutdown();
}

/// Finds a request path whose `sock/…` site draws the wanted fault
/// (and no interfering `wire/…` fault) from `plan`.
fn path_with_fault(plan: &FaultPlan, deadline_ms: u64, want: impl Fn(&SocketFault) -> bool) -> String {
    for i in 0..200_000 {
        let path = format!("/Probe/site{i}");
        if plan.wire_fault(&format!("wire{path}")).is_some() {
            continue;
        }
        if let Some(fault) = plan.socket_fault(&format!("sock{path}"), deadline_ms) {
            if want(&fault) {
                return path;
            }
        }
    }
    panic!("no path drawing the wanted socket fault in 200k candidates");
}

/// The fault proxy damages real bytes, and the client maps every
/// damage mode into its stable error taxonomy.
#[test]
fn fault_proxy_socket_faults_map_to_stable_client_errors() {
    const DEADLINE_MS: u64 = 150;
    let plan = FaultPlan::seeded(11);
    let (path, mut services) = one_hosted_service();
    let wsdl = {
        let client = WireClient::new(WireClientConfig::default());
        let server =
            WireServer::start(0, std::mem::take(&mut services), WireServerConfig::default())
                .expect("bind loopback");
        let response = client
            .get(server.addr(), &format!("{path}?wsdl"), &path)
            .expect("fetch wsdl");
        server.shutdown();
        response.body_str().expect("utf-8 wsdl").to_string()
    };

    // Host the echo service at every fault-drawing path the cases use.
    let garbage = path_with_fault(&plan, DEADLINE_MS, |f| matches!(f, SocketFault::GarbageStatus));
    let delayed = path_with_fault(&plan, DEADLINE_MS, |f| {
        matches!(f, SocketFault::DelayPastDeadline { .. })
    });
    let truncated = path_with_fault(&plan, DEADLINE_MS, |f| {
        matches!(f, SocketFault::TruncateBody { .. })
    });
    let reset = path_with_fault(&plan, DEADLINE_MS, |f| matches!(f, SocketFault::ResetMidBody));
    let mut hosted = BTreeMap::new();
    for p in [&garbage, &delayed, &truncated, &reset] {
        hosted.insert((*p).clone(), HostedService::new(wsdl.clone()));
    }
    let server = WireServer::start(0, hosted, WireServerConfig::default()).expect("bind loopback");
    let proxy =
        FaultProxy::start(server.addr(), plan.clone(), DEADLINE_MS).expect("start proxy");
    let client = WireClient::new(WireClientConfig {
        read_timeout: Duration::from_millis(DEADLINE_MS),
        ..WireClientConfig::default()
    })
    .with_plan(plan);

    // Garbage status line → framing error.
    let err = client
        .get(proxy.addr(), &format!("{garbage}?wsdl"), &garbage)
        .expect_err("garbage status must not parse");
    assert!(
        matches!(err, WireError::BadFraming(_)),
        "garbage status mapped to {err:?}"
    );

    // Delay past the read deadline → timeout.
    let err = client
        .get(proxy.addr(), &format!("{delayed}?wsdl"), &delayed)
        .expect_err("delayed response must time out");
    assert!(
        matches!(err, WireError::Timeout),
        "delay mapped to {err:?}"
    );

    // Truncated response → truncation/close, never a parsed success.
    let err = client
        .get(proxy.addr(), &format!("{truncated}?wsdl"), &truncated)
        .expect_err("truncated response must fail");
    assert!(
        matches!(
            err,
            WireError::Truncated | WireError::Closed | WireError::BadFraming(_)
        ),
        "truncation mapped to {err:?}"
    );

    // RST mid-body → reset (needs a request body, so POST).
    let err = client
        .post(proxy.addr(), &reset, "echo", b"<probe/>", &reset)
        .expect_err("reset connection must fail");
    assert!(
        matches!(err, WireError::Reset | WireError::Closed | WireError::Truncated),
        "reset mapped to {err:?}"
    );

    assert!(proxy.faulted_connections() >= 4);
    proxy.shutdown();
    server.shutdown();
}

/// Counts deployable survey services whose `sock/…` site draws a fault
/// at this seed — used to pick a seed where socket chaos actually runs.
fn planned_sock_faults(seed: u64, stride: usize) -> usize {
    let plan = FaultPlan::seeded(seed);
    let mut count = 0;
    for server in all_servers() {
        let id = server.info().id;
        for entry in server.catalog().entries().iter().step_by(stride) {
            if !matches!(server.deploy(entry), DeployOutcome::Deployed { .. }) {
                continue;
            }
            if plan.socket_fault(&sock_site(id, &entry.fqcn), 200).is_some() {
                count += 1;
            }
        }
    }
    count
}

/// The socket-fault chaos campaign classifies identically at -j1 and
/// -j8: the socket probe pass is sequential by design, and every fault
/// decision (including retry jitter) is a pure function of the seed.
#[test]
fn socket_fault_chaos_identical_across_thread_counts() {
    let stride = 400;
    let seed = (1..500)
        .find(|&s| planned_sock_faults(s, stride) > 0)
        .expect("some seed plans a socket fault at this stride");

    let run = |threads: usize| {
        Campaign::sampled(stride)
            .with_faults(FaultPlan::seeded(seed))
            .with_transport(ExchangeTransport::TcpLoopback)
            .with_threads(threads)
            .run_with_stats()
    };
    let (results_1, report_1, _) = run(1);
    let (results_8, report_8, _) = run(8);

    assert_eq!(report_1, report_8, "fault accounting must not depend on -j");
    assert_eq!(results_1.tests, results_8.tests);
    assert_eq!(results_1.services, results_8.services);
    assert!(
        format!("{report_1}").contains("sock-"),
        "the chosen seed must actually inject a socket fault:\n{report_1}"
    );
}

/// The campaign config hash pins the transport: a tcp run can never be
/// mistaken for an in-process run in journals or logs.
#[test]
fn transport_is_part_of_the_config_hash() {
    let in_process = Campaign::sampled(400)
        .with_faults(FaultPlan::seeded(7))
        .config_hash();
    let tcp = Campaign::sampled(400)
        .with_faults(FaultPlan::seeded(7))
        .with_transport(ExchangeTransport::TcpLoopback)
        .config_hash();
    assert_ne!(in_process, tcp);
}
