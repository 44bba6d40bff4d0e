//! Per-connection state machine for the readiness-driven server.
//!
//! Each accepted socket becomes one [`Conn`] owned by exactly one
//! reactor thread — connection state is **thread-confined by
//! construction** (see docs/CONCURRENCY.md), so the machine needs no
//! locks: the only cross-thread state it touches is the shared
//! admission [`Gauges`] (atomics) and the handle-based [`WireStats`]
//! counters.
//!
//! The machine walks the degradation ladder of DESIGN.md §15:
//!
//! * `Queued` — admitted past the accept gate but waiting for an
//!   in-flight slot; not a single byte is read while queued, and the
//!   wait is bounded (`503` + `Retry-After` at the read deadline).
//! * `ReadHead`/`ReadBody` — nonblocking incremental parsing under the
//!   framing caps (`413` before buffering, `400` on malformed bytes)
//!   and the read/total deadlines (`408` mid-request, silent close for
//!   idle keep-alive).
//! * `Write` — nonblocking response flush under the write deadline; a
//!   peer that stops reading is dropped, never waited on.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use super::http::{self, HttpError, RequestHead};
use super::server::{Env, PendingResponse};

/// Bytes read per `read()` call; reads per conn per reactor pass are
/// capped so one fast peer cannot starve the rest of the loop.
const READ_CHUNK: usize = 4096;
const MAX_IO_ROUNDS: usize = 16;

/// Where a connection is in its lifecycle.
pub(crate) enum Phase {
    /// Past the accept gate, waiting for an in-flight slot.
    Queued,
    /// Accumulating the request head.
    ReadHead,
    /// Accumulating the declared body.
    ReadBody { head: RequestHead, want: usize },
    /// Flushing the response buffer.
    Write,
}

/// One `drive()` verdict.
#[derive(PartialEq, Eq)]
pub(crate) enum Drive {
    /// Bytes moved or state advanced this pass.
    Progress,
    /// Nothing to do until the socket or a deadline wakes us.
    Idle,
    /// The connection is finished; the reactor reclaims it.
    Close,
}

/// One live connection.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) phase: Phase,
    /// Unconsumed bytes read off the socket (head accumulation and
    /// keep-alive pipelining).
    inbuf: Vec<u8>,
    /// The body being assembled for the current request.
    body: Vec<u8>,
    /// The response being flushed. A dispatched response is rendered
    /// into it in place, and it keeps its capacity from one keep-alive
    /// request to the next.
    outbuf: Vec<u8>,
    written: usize,
    /// Requests fully served on this connection.
    pub(crate) served: usize,
    /// Holds one of the `workers` in-flight slots.
    pub(crate) admitted: bool,
    /// Counted in the queued gauge.
    pub(crate) queued: bool,
    /// Accept-gate shed: never admitted, only flushes its `503`.
    pub(crate) shedding: bool,
    close_after_write: bool,
    read_deadline: Instant,
    write_deadline: Instant,
    total_deadline: Instant,
    /// Armed when a request is dispatched; resolved when its response
    /// is fully flushed (feeds `wire_server_request_ns` — or the
    /// admin-plane histogram — plus the optional trace span, keyed by
    /// the request's deterministic id).
    pending: Option<PendingResponse>,
}

impl Conn {
    /// A connection that just won an in-flight slot.
    pub(crate) fn admitted(stream: TcpStream, env: &Env<'_>, now: Instant) -> Conn {
        Conn::new(stream, Phase::ReadHead, env, now, true, false)
    }

    /// A connection parked in the bounded queue.
    pub(crate) fn parked(stream: TcpStream, env: &Env<'_>, now: Instant) -> Conn {
        Conn::new(stream, Phase::Queued, env, now, false, true)
    }

    /// An accept-gate shed: the pre-rendered `503` is all it writes.
    pub(crate) fn shed(stream: TcpStream, env: &Env<'_>, now: Instant, response: Vec<u8>) -> Conn {
        let mut conn = Conn::new(stream, Phase::Write, env, now, false, false);
        conn.shedding = true;
        conn.close_after_write = true;
        conn.outbuf = response;
        conn
    }

    fn new(
        stream: TcpStream,
        phase: Phase,
        env: &Env<'_>,
        now: Instant,
        admitted: bool,
        queued: bool,
    ) -> Conn {
        Conn {
            stream,
            phase,
            inbuf: Vec::new(),
            body: Vec::new(),
            outbuf: Vec::new(),
            written: 0,
            served: 0,
            admitted,
            queued,
            shedding: false,
            close_after_write: false,
            read_deadline: now + env.config.read_timeout,
            write_deadline: now + env.config.write_timeout,
            total_deadline: now + env.config.total_timeout,
            pending: None,
        }
    }

    /// Promotes a queued connection into a just-acquired in-flight
    /// slot (the caller already moved the gauges).
    pub(crate) fn promote(&mut self, env: &Env<'_>, now: Instant) {
        debug_assert!(matches!(self.phase, Phase::Queued));
        self.queued = false;
        self.admitted = true;
        self.phase = Phase::ReadHead;
        self.read_deadline = now + env.config.read_timeout;
    }

    /// Whether the current request is partially on the wire (a
    /// deadline hit now is a mid-request `408`, not an idle close).
    fn mid_request(&self) -> bool {
        match self.phase {
            Phase::ReadHead => !self.inbuf.is_empty(),
            Phase::ReadBody { .. } => true,
            _ => false,
        }
    }

    /// Switches to flushing a rendered response.
    fn start_write(&mut self, response: Vec<u8>, now: Instant, env: &Env<'_>) {
        self.outbuf = response;
        self.written = 0;
        self.close_after_write = true;
        self.write_deadline = now + env.config.write_timeout;
        self.phase = Phase::Write;
    }

    /// Advances the state machine one pass. Never blocks.
    pub(crate) fn drive(&mut self, env: &Env<'_>, now: Instant) -> Drive {
        match self.phase {
            Phase::Queued => self.drive_queued(env, now),
            Phase::ReadHead | Phase::ReadBody { .. } => self.drive_read(env, now),
            Phase::Write => self.drive_write(env, now),
        }
    }

    fn drive_queued(&mut self, env: &Env<'_>, now: Instant) -> Drive {
        if now >= self.read_deadline || now >= self.total_deadline {
            // Bounded queueing: a connection never waits unboundedly
            // for a slot — it is shed with the same well-formed 503
            // the accept gate uses.
            env.stats.queue_timeouts.inc();
            self.start_write(env.overload_response("queue wait exceeded"), now, env);
            return Drive::Progress;
        }
        Drive::Idle
    }

    fn drive_read(&mut self, env: &Env<'_>, now: Instant) -> Drive {
        if now >= self.read_deadline || now >= self.total_deadline {
            // Slow loris / stalled body: answer 408 when the peer owes
            // us bytes (or never sent any request at all); an idle
            // keep-alive connection is closed without ceremony.
            if self.served == 0 || self.mid_request() {
                env.stats.timeouts.inc();
                env.count_response(408);
                let response = http::render_response(
                    408,
                    "Request Timeout",
                    "text/plain",
                    &[],
                    b"read deadline exceeded",
                    true,
                );
                self.start_write(response, now, env);
                return Drive::Progress;
            }
            return Drive::Close;
        }

        let mut progressed = false;
        for _ in 0..MAX_IO_ROUNDS {
            // Consume already-buffered bytes before touching the
            // socket (keep-alive pipelining).
            match self.step_parse(env, now) {
                Step::Advanced => {
                    progressed = true;
                    if matches!(self.phase, Phase::Write) {
                        // Write on dispatch: a small response leaves in
                        // the pass that produced it, not the next one.
                        return match self.drive_write(env, now) {
                            Drive::Idle => Drive::Progress,
                            verdict => verdict,
                        };
                    }
                    continue;
                }
                Step::NeedBytes => {}
            }
            let mut chunk = [0u8; READ_CHUNK];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed. Between requests this is the clean
                    // keep-alive end state; mid-request there is no
                    // one left to answer.
                    return Drive::Close;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Drive::Close, // reset / fatal: nothing to say
            }
        }
        if progressed {
            Drive::Progress
        } else {
            Drive::Idle
        }
    }

    /// One parse step over the buffered bytes (no socket I/O).
    fn step_parse(&mut self, env: &Env<'_>, now: Instant) -> Step {
        match &self.phase {
            Phase::ReadHead => {
                let Some(end) = http::find_head_end(&self.inbuf) else {
                    return self.check_head_caps(env, now);
                };
                let head = http::parse_request_head(&self.inbuf[..end], &env.config.limits);
                self.inbuf.drain(..end);
                let head = match head {
                    Ok(head) => head,
                    Err(e) => {
                        self.refuse(env, now, &e);
                        return Step::Advanced;
                    }
                };
                let want = match http::declared_body_len(
                    &head,
                    &env.config.limits,
                    head.method() == "POST",
                ) {
                    Ok(want) => want,
                    Err(e) => {
                        self.refuse(env, now, &e);
                        return Step::Advanced;
                    }
                };
                self.body.clear();
                self.phase = Phase::ReadBody { head, want };
                Step::Advanced
            }
            Phase::ReadBody { want, .. } => {
                let want = *want;
                if self.body.len() < want && !self.inbuf.is_empty() {
                    let take = (want - self.body.len()).min(self.inbuf.len());
                    self.body.extend_from_slice(&self.inbuf[..take]);
                    self.inbuf.drain(..take);
                }
                if self.body.len() < want {
                    return Step::NeedBytes;
                }
                self.dispatch(env, now);
                Step::Advanced
            }
            _ => Step::NeedBytes,
        }
    }

    /// Head caps while the head is still incomplete: an over-long
    /// start line or header flood is refused *before* buffering more.
    fn check_head_caps(&mut self, env: &Env<'_>, now: Instant) -> Step {
        let limits = &env.config.limits;
        let no_line_yet = !self.inbuf.contains(&b'\n');
        if no_line_yet && self.inbuf.len() > limits.max_start_line {
            self.refuse(env, now, &HttpError::StartLineTooLong);
            return Step::Advanced;
        }
        let head_cap = limits.max_start_line + (limits.max_headers + 1) * limits.max_header_line;
        if self.inbuf.len() > head_cap {
            self.refuse(env, now, &HttpError::HeadersTooLarge);
            return Step::Advanced;
        }
        Step::NeedBytes
    }

    /// Maps a framing error onto the refusal ladder (the same status
    /// mapping the blocking server used) and starts the response.
    fn refuse(&mut self, env: &Env<'_>, now: Instant, error: &HttpError) {
        let (status, reason, body) = match error {
            HttpError::BodyTooLarge { .. }
            | HttpError::StartLineTooLong
            | HttpError::HeadersTooLarge => {
                env.stats.oversized.inc();
                (413, "Payload Too Large", "request exceeds the configured limits")
            }
            _ => {
                env.stats.malformed.inc();
                (400, "Bad Request", "malformed request")
            }
        };
        env.count_response(status);
        let response =
            http::render_response(status, reason, "text/plain", &[], body.as_bytes(), true);
        self.start_write(response, now, env);
    }

    /// A complete request: decide keep-alive vs close (budget,
    /// shutdown drain, pressure demotion), dispatch, start the flush.
    fn dispatch(&mut self, env: &Env<'_>, now: Instant) {
        let Phase::ReadBody { head, .. } = std::mem::replace(&mut self.phase, Phase::ReadHead)
        else {
            unreachable!("dispatch outside ReadBody");
        };
        let mut close = !head.keep_alive
            || self.served + 1 == env.config.keep_alive_requests
            || env.stopping();
        if !close && env.under_pressure() {
            // Keep-alive demotion: while connections are queued, every
            // response hands its slot back instead of pinning it.
            env.stats.demoted.inc();
            close = true;
        }
        let request_id = env.next_request_id();
        // The path is only captured for the trace span — the serving
        // path never allocates for telemetry that is switched off.
        let path = env.config.trace.is_some().then(|| head.path().to_string());
        let responded = env.respond(&head, &self.body, close, request_id, &mut self.outbuf);
        self.pending = Some(PendingResponse {
            started: now,
            request_id,
            status: responded.status,
            admin: responded.admin,
            path,
        });
        self.written = 0;
        self.close_after_write = close;
        self.write_deadline = now + env.config.write_timeout;
        self.phase = Phase::Write;
    }

    fn drive_write(&mut self, env: &Env<'_>, now: Instant) -> Drive {
        if now >= self.write_deadline {
            // A peer that stops reading its response is dropped — it
            // cannot pin a connection slot.
            env.stats.write_stalls.inc();
            return Drive::Close;
        }
        let mut progressed = false;
        for _ in 0..MAX_IO_ROUNDS {
            if self.written == self.outbuf.len() {
                if let Some(pending) = self.pending.take() {
                    // The flush may finish in the pass that dispatched
                    // the request, whose `now` is the dispatch time: read
                    // the clock, or the span would measure zero.
                    let dur_ns = pending.started.elapsed().as_nanos() as u64;
                    env.complete_response(&pending, dur_ns);
                }
                if self.close_after_write {
                    return Drive::Close;
                }
                // Keep-alive: recycle for the next request.
                self.served += 1;
                self.outbuf.clear();
                self.written = 0;
                self.phase = Phase::ReadHead;
                self.read_deadline = now + env.config.read_timeout;
                return Drive::Progress;
            }
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => return Drive::Close,
                Ok(n) => {
                    self.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Drive::Close, // reset while writing
            }
        }
        if progressed {
            Drive::Progress
        } else {
            Drive::Idle
        }
    }

    /// Close-time gauge restitution, called by the reactor exactly
    /// once per connection.
    pub(crate) fn release(&mut self, env: &Env<'_>) {
        use std::sync::atomic::Ordering;
        let gauges = &env.stats.gauges;
        if self.admitted {
            self.admitted = false;
            gauges.in_flight.fetch_sub(1, Ordering::SeqCst);
            env.stats.completed.inc();
        }
        if self.queued {
            self.queued = false;
            gauges.queued.fetch_sub(1, Ordering::SeqCst);
        }
        if !self.shedding {
            gauges.open.fetch_sub(1, Ordering::SeqCst);
        }
        env.stats.conn_closed.inc();
    }
}

enum Step {
    /// State advanced using buffered bytes only.
    Advanced,
    /// Parsing needs more bytes off the socket.
    NeedBytes,
}
