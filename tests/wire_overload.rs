//! The headline robustness property of the readiness-driven endpoint
//! (DESIGN.md §15): **graceful degradation under overload**. The
//! deterministic half pins the degradation ladder rung by rung —
//! exactly `workers + queue_depth` peers are held, every peer past
//! capacity gets a well-formed `503` carrying `Retry-After`, and a
//! keep-alive connection is demoted to `Connection: close` the moment
//! the queue backs up. The seeded half drives the full loadgen mix at
//! 4× overload and asserts the closed-world invariants: every op
//! classified, zero responses outside the ladder's vocabulary, p99
//! within the documented bound, and every lifecycle gauge back at
//! zero after the drain.

mod common;

use common::wait_for;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use wsinterop::core::wire::{
    self, http, loadgen, HostedRun, HttpLimits, LoadgenConfig, WireServer, WireServerConfig,
};

/// Rung by rung: with capacity `workers + queue_depth` saturated by
/// held connections, every additional peer is shed *deterministically*
/// — not dropped, not stalled, but answered with a complete `503`
/// response that names its retry window and closes cleanly.
#[test]
fn peers_past_capacity_get_a_well_formed_503_with_retry_after() {
    let config = WireServerConfig {
        workers: 2,
        queue_depth: 2,
        read_timeout: Duration::from_secs(5),
        retry_after_secs: 7,
        ..WireServerConfig::default()
    };
    let server = WireServer::start(0, BTreeMap::new(), config).expect("bind loopback");
    let addr = server.addr();
    let stats = server.stats();

    // Fill the in-flight budget and the queue with idle peers.
    let held: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    wait_for("in_flight", 2, || stats.in_flight());
    wait_for("queued", 2, || stats.queued());

    // Every peer past capacity: a full, parseable 503 — same bytes a
    // polite client would get — then a clean close.
    let limits = HttpLimits::default();
    for i in 0..3 {
        let over = TcpStream::connect(addr).expect("connect over capacity");
        over.set_read_timeout(Some(Duration::from_secs(5))).expect("deadline");
        let response = http::read_response(&over, &limits)
            .unwrap_or_else(|e| panic!("shed peer {i} expected a 503, got {e:?}"));
        assert_eq!(response.status, 503, "shed peer {i}");
        assert_eq!(
            response.header("retry-after"),
            Some("7"),
            "the 503 must name the configured retry window"
        );
        assert_eq!(response.header("connection"), Some("close"));
        assert!(
            response.body_str().unwrap_or("").contains("worker pool saturated"),
            "shed reason must be in the body"
        );
    }
    wait_for("shed", 3, || stats.shed());
    // The shed peers never touched the admission gauges.
    assert_eq!(stats.in_flight(), 2);
    assert_eq!(stats.queued(), 2);

    drop(held);
    server.shutdown();
    assert_eq!(stats.open(), 0, "no leaked connections after drain");
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(stats.queued(), 0);
}

/// The demotion rung: a keep-alive connection keeps its slot only
/// while nobody is waiting. The moment a peer queues behind it, the
/// very next response carries `Connection: close` — deterministically,
/// because `under_pressure` reads the queued gauge, not a heuristic.
#[test]
fn keep_alive_is_demoted_the_moment_the_queue_backs_up() {
    let services = wire::host_survey_services(400);
    let path = services.keys().next().expect("stride 400 deploys services").clone();
    let config = WireServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(5),
        ..WireServerConfig::default()
    };
    let server = WireServer::start(0, services, config).expect("bind loopback");
    let addr = server.addr();
    let stats = server.stats();
    let limits = HttpLimits::default();

    // First request on an uncontended keep-alive connection: honored.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).expect("deadline");
    let target = format!("{path}?wsdl");
    http::write_request(&mut conn, "GET", &target, "127.0.0.1", None, b"", false)
        .expect("write request");
    let first = http::read_response(&conn, &limits).expect("first response");
    assert_eq!(first.status, 200);
    assert_eq!(
        first.header("connection"),
        Some("keep-alive"),
        "uncontended keep-alive must be honored"
    );
    assert_eq!(stats.demoted(), 0);

    // A second peer queues behind the held worker slot → pressure.
    let _waiting = TcpStream::connect(addr).expect("connect");
    wait_for("queued", 1, || stats.queued());

    // The next response on the same connection is demoted.
    http::write_request(&mut conn, "GET", &target, "127.0.0.1", None, b"", false)
        .expect("write second request");
    let second = http::read_response(&conn, &limits).expect("second response");
    assert_eq!(second.status, 200, "demotion never degrades the answer itself");
    assert_eq!(
        second.header("connection"),
        Some("close"),
        "a queued peer must demote the keep-alive connection"
    );
    assert_eq!(stats.demoted(), 1);

    server.shutdown();
    assert_eq!(stats.open(), 0);
}

/// A request already read stays owned by its deadline even when the
/// client walks away: send a complete POST, immediately close the
/// socket, and the server must absorb the reset without counting a
/// malformed request or leaking the connection.
#[test]
fn mid_exchange_resets_are_absorbed_without_leaks() {
    let services = wire::host_survey_services(400);
    let server =
        WireServer::start(0, services, WireServerConfig::default()).expect("bind loopback");
    let addr = server.addr();
    let stats = server.stats();

    for _ in 0..8 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        // Half a request head, then a hard close.
        conn.write_all(b"POST ").expect("partial write");
        drop(conn);
    }
    wait_for("accepted", 8, || stats.accepted());
    // Give the reactor time to observe every reset, then drain.
    wait_for("open", 0, || stats.open());
    server.shutdown();
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(stats.queued(), 0);
    assert_eq!(stats.served(), 0);
}

/// The seeded 4× overload property, run exactly as `wsitool loadgen`
/// runs CI's smoke: 8 concurrent clients against a 2-worker/2-queue
/// endpoint, full abusive mix plus admin-plane scrapes. The plan is
/// byte-stable; the outcomes are a *closed world* — every op lands in
/// the ladder's vocabulary (`malformed == 0`), the accounting identity
/// holds, served p99 stays within the documented bound, and after the
/// drain every lifecycle gauge reads zero. This asserts everything
/// CI's BENCH_wire.json gate asserts.
#[test]
fn seeded_four_x_overload_degrades_gracefully() {
    let run = HostedRun {
        stride: 200,
        workers: 2,
        queue: 2,
        read_timeout_ms: 150,
        mix: LoadgenConfig {
            ops: 160,
            clients: 8, // 4× the in-flight budget
            seed: 42,
            slow_pct: 5,
            abort_pct: 5,
            oversized_pct: 5,
            keep_alive_pct: 50,
            scrape_pct: 10,
            ..LoadgenConfig::default()
        },
    };
    // The deterministic half: the same config plans the same mix,
    // byte for byte, before a single socket is opened.
    assert_eq!(loadgen::plan_counts(&run.mix), loadgen::plan_counts(&run.mix));

    let hosted = loadgen::run_hosted(&run).expect("stride 200 hosts an invokable corpus");
    let (c, inv, stats) = (&hosted.report.counts, &hosted.invariants, &hosted.stats);
    // The whole closed-world check, as wsitool gates its exit code on it.
    assert!(inv.holds(), "{inv}");

    // Closed-world accounting: every op classified exactly once, and
    // nothing outside what the degradation ladder is allowed to say.
    assert_eq!(
        inv.accounted + hosted.plan.planned_scrape,
        run.mix.ops,
        "every op must be classified exactly once"
    );
    assert_eq!(inv.scrape_accounted, 2 * hosted.plan.planned_scrape, "a scrape escaped");
    assert_eq!(c.malformed, 0, "the ladder never emits an out-of-vocabulary response");
    assert!(c.ok > 0, "overload must degrade, not deny all service");
    assert!(
        c.scrape_ok + c.scrape_healthy + c.scrape_degraded > 0,
        "the scrape leg never reached the admin plane"
    );

    // Served latency honors the documented bound, measured over served
    // responses only.
    let lat = &hosted.report.timing.latency;
    assert_eq!(lat.count as usize, c.ok + c.fault, "latency covers served responses only");
    assert!(lat.quantile_ns(0.50) > 0, "a served exchange cannot take 0 ns");
    let bound = loadgen::p99_bound_ns(run.read_timeout_ms);
    let p99 = lat.quantile_ns(0.99);
    assert!(p99 <= bound, "served p99 {p99}ns exceeds the documented bound {bound}ns");

    // No leaks: after the drain, every lifecycle gauge reads zero and
    // the open/close ledger balances.
    assert_eq!(stats.open(), 0, "open-connection gauge must drain to zero");
    assert_eq!(stats.in_flight(), 0, "in-flight gauge must drain to zero");
    assert_eq!(stats.queued(), 0, "queue gauge must drain to zero");
    assert!(stats.accepted() >= c.ok + c.fault, "ledger: accepts cover served ops");
}
