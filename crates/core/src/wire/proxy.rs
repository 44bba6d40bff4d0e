//! The interposed fault proxy: sits between the probe client and the
//! loopback endpoint and damages *real wire bytes* according to the
//! seeded [`FaultPlan`] — the socket-level half of the chaos campaign.
//!
//! Fault decisions are pure functions of the request path, so the
//! proxy and the campaign's accounting (which derives the same site
//! keys from the same path grammar) always agree on what was injected
//! where:
//!
//! * `wire{path}` — the request-side [`WireFault`]s
//!   (truncate-envelope, wrong-namespace, drop-response), now applied
//!   to real bytes in transit;
//! * `sock{path}` — the [`SocketFault`]s (delay past the client's
//!   read deadline, truncate-at-byte-N, RST mid-body, garbage status
//!   line).
//!
//! The RST fault needs no unsafe `setsockopt`: the proxy deliberately
//! reads only the request *head*, leaves the body bytes unread in the
//! kernel receive buffer, writes a partial response, and drops the
//! socket — Linux answers a close-with-unread-data with a genuine RST.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::faults::{FaultPlan, SocketFault, WireFault};
use crate::obs::MetricsRegistry;

use super::http::{self, HttpLimits, RequestHead};

/// Hard cap on anything the proxy buffers (a chaos tool must not be
/// its own memory bomb).
const MAX_RELAY: usize = 4 << 20;

/// The running proxy.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    handle: Option<JoinHandle<()>>,
}

struct ProxyShared {
    upstream: SocketAddr,
    plan: FaultPlan,
    /// The probe client's read deadline in milliseconds; injected
    /// delays are sized past it.
    client_deadline_ms: u64,
    stop: AtomicBool,
    /// Connections on which at least one fault was applied.
    faulted: AtomicUsize,
    /// Optional telemetry registry: relayed-connection and
    /// injected-fault counters (`wire_proxy_*_total`).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl FaultProxy {
    /// Binds an ephemeral loopback port and starts relaying to
    /// `upstream`. Connections are handled sequentially — the chaos
    /// campaign runs its socket probes one at a time, in campaign
    /// order, so a single-lane proxy adds no bottleneck.
    pub fn start(
        upstream: SocketAddr,
        plan: FaultPlan,
        client_deadline_ms: u64,
    ) -> io::Result<FaultProxy> {
        FaultProxy::start_with_metrics(upstream, plan, client_deadline_ms, None)
    }

    /// [`FaultProxy::start`] with a telemetry registry attached:
    /// `wire_proxy_connections_total` counts every relayed connection,
    /// `wire_proxy_faults_injected_total` those carrying at least one
    /// applied fault. Observe-only — relay behaviour is unchanged.
    pub fn start_with_metrics(
        upstream: SocketAddr,
        plan: FaultPlan,
        client_deadline_ms: u64,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            plan,
            client_deadline_ms,
            stop: AtomicBool::new(false),
            faulted: AtomicUsize::new(0),
            metrics,
        });
        let loop_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                if loop_shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                relay_connection(&loop_shared, stream);
            }
        });
        Ok(FaultProxy {
            addr,
            shared,
            handle: Some(handle),
        })
    }

    /// The proxy's listening address (point the probe client here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections on which at least one fault was applied so far.
    pub fn faulted_connections(&self) -> usize {
        self.shared.faulted.load(Ordering::SeqCst)
    }

    /// Stops the accept loop and joins the relay thread.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Hard cap on a request head the proxy reads.
const MAX_HEAD: usize = 16 * 1024;

/// Reads the request head byte-by-byte directly off the socket —
/// deliberately unbuffered, so the body stays in the kernel receive
/// buffer (the RST fault depends on that) — and parses it with the
/// server's head parser. Returns the head and its declared body
/// length.
fn read_head(stream: &mut TcpStream) -> Option<(RequestHead, usize)> {
    let mut raw = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            _ => return None,
        }
        // A head can only end at the newline just read, so only the
        // last three bytes need a look: the read stays linear.
        let tail = &raw[raw.len().saturating_sub(3)..];
        if byte[0] == b'\n' && http::find_head_end(tail).is_some() {
            break;
        }
        if raw.len() > MAX_HEAD {
            return None;
        }
    }
    // The server's limits, with the relay cap as the body cap.
    let limits = HttpLimits {
        max_body: MAX_RELAY,
        ..HttpLimits::default()
    };
    let head = http::parse_request_head(&raw, &limits).ok()?;
    let body_len = http::declared_body_len(&head, &limits, head.method() == "POST").ok()?;
    Some((head, body_len))
}

fn read_exact_body(stream: &mut TcpStream, len: usize) -> Option<Vec<u8>> {
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    Some(body)
}

/// Applies a request-side wire fault to the real body bytes.
fn damage_request(body: Vec<u8>, fault: WireFault) -> Vec<u8> {
    let Ok(text) = String::from_utf8(body) else {
        return Vec::new();
    };
    match fault {
        WireFault::TruncateEnvelope => {
            let mut cut = text.len() * 3 / 5;
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string().into_bytes()
        }
        WireFault::WrongNamespace => text
            .replace(
                "http://schemas.xmlsoap.org/soap/envelope/",
                "http://schemas.xmlsoap.org/soap/envelope-tampered/",
            )
            .into_bytes(),
        // Handled after the upstream exchange; the request is clean.
        WireFault::DropResponse => text.into_bytes(),
    }
}

fn relay_connection(shared: &ProxyShared, mut downstream: TcpStream) {
    let _ = downstream.set_read_timeout(Some(Duration::from_millis(2000)));
    let _ = downstream.set_write_timeout(Some(Duration::from_millis(2000)));
    let Some((head, body_len)) = read_head(&mut downstream) else {
        return;
    };
    let path = head.path();
    let wire = shared.plan.wire_fault(&format!("wire{path}"));
    let sock = shared
        .plan
        .socket_fault(&format!("sock{path}"), shared.client_deadline_ms);
    if let Some(metrics) = &shared.metrics {
        metrics.inc("wire_proxy_connections_total");
    }
    if wire.is_some() || sock.is_some() {
        shared.faulted.fetch_add(1, Ordering::SeqCst);
        if let Some(metrics) = &shared.metrics {
            metrics.inc("wire_proxy_faults_injected_total");
        }
    }

    // Faults that never touch the upstream.
    match sock {
        Some(SocketFault::ResetMidBody) if body_len > 0 => {
            // The body is still unread in the kernel buffer: write a
            // partial response, then drop the socket — the close with
            // unread data makes the kernel answer with a genuine RST.
            let _ = downstream.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\npartial-body-then-reset",
            );
            let _ = downstream.flush();
            std::thread::sleep(Duration::from_millis(5));
            return;
        }
        Some(SocketFault::GarbageStatus) => {
            // Drain the body first (an unread body would turn the
            // close into a RST and mask the framing fault).
            let _ = read_exact_body(&mut downstream, body_len);
            let _ = downstream.write_all(b"ZZTP/0.9 999 @@garbage@@\r\n\r\n");
            let _ = downstream.flush();
            return;
        }
        _ => {}
    }

    let Some(body) = read_exact_body(&mut downstream, body_len) else {
        return;
    };
    let body = match wire {
        Some(fault) => damage_request(body, fault),
        None => body,
    };

    // Forward to the real endpoint on a fresh, close-delimited
    // connection and slurp the whole raw response.
    let Ok(mut upstream) =
        TcpStream::connect_timeout(&shared.upstream, Duration::from_millis(1000))
    else {
        return;
    };
    let _ = upstream.set_read_timeout(Some(Duration::from_millis(2000)));
    let _ = upstream.set_write_timeout(Some(Duration::from_millis(2000)));
    let soap_action = head.header("soapaction").map(|value| value.trim_matches('"'));
    if http::write_request(
        &mut upstream,
        head.method(),
        head.target(),
        "127.0.0.1",
        soap_action,
        &body,
        true,
    )
    .is_err()
    {
        return;
    }
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match upstream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                response.extend_from_slice(&chunk[..n]);
                if response.len() > MAX_RELAY {
                    return;
                }
            }
            Err(_) => break,
        }
    }

    if wire == Some(WireFault::DropResponse) {
        // Forwarded, served, then lost in transit: close without
        // writing a byte back.
        return;
    }
    match sock {
        Some(SocketFault::DelayPastDeadline { ms }) => {
            // Past the client's read deadline: it observes a timeout
            // long before this write happens.
            std::thread::sleep(Duration::from_millis(ms));
            let _ = downstream.write_all(&response);
        }
        Some(SocketFault::TruncateBody { at }) => {
            let cut = at.min(response.len());
            let _ = downstream.write_all(&response[..cut]);
        }
        _ => {
            let _ = downstream.write_all(&response);
        }
    }
    let _ = downstream.flush();
}
