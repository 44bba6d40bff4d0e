//! Byte identity of the serving path: the echo envelope, its fault
//! status and the HTTP bytes the loopback server sends.
//!
//! `serve_echo` is what every hosted service answers with, in process
//! and over TCP, and whether its answer is a SOAP fault decides the
//! HTTP status (WS-I BP R1126: a fault rides on `500`). These digests
//! pin both for every invocable stride-20 survey service, over three
//! kinds of request:
//!
//! * generated cases (`fuzz::generate_case`) for fixed seeds: nested
//!   arguments, repeated arguments and escaped edge-case text;
//! * hand-built shapes the generator never writes: foreign and
//!   default-namespace declarations, namespaced attributes, comments,
//!   CDATA, processing instructions, self-closing against empty
//!   elements and whitespace-only text;
//! * error paths: not XML, truncated, not an envelope, no or empty
//!   Body, unknown operation, and descriptions whose output cannot be
//!   echoed (one-way, type-style part, unresolved wrapper) or whose
//!   response wrapper is itself `soapenv:Fault`.
//!
//! The serving core, `serve_echo_into`, must report the fault status
//! that `soap::is_fault` reads from its bytes, for every one of these
//! inputs. The corpus itself is in `tests/serve_corpus`.
//!
//! A last digest pins the full HTTP responses of a loopback
//! `WireServer`: a keep-alive and a closing SOAP POST, a SOAP fault,
//! `GET ?wsdl`, a 404 and a malformed request's 400.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

mod serve_corpus;

use serve_corpus::{each_request, envelope, hand_built, input_shape, invocable, STRIDE};
use wsinterop::core::doccache::content_hash;
use wsinterop::core::exchange::{serve_echo, serve_echo_into, SURVEY_PROBE};
use wsinterop::core::wire::{host_survey_services, http, WireServer, WireServerConfig};
use wsinterop::wsdl::soap;
use wsinterop::wsi::message::check_message;
use wsinterop::xml::writer::{write_document, WriteOptions};

/// Folds `bytes` into a running digest.
fn fold(digest: u64, bytes: &[u8]) -> u64 {
    content_hash(&[&digest.to_le_bytes()[..], bytes].concat())
}

#[test]
fn echo_envelopes_and_fault_status_are_byte_identical() {
    let mut digest = content_hash(b"");
    let (mut served, mut faults) = (0usize, 0usize);
    let services = each_request(|defs, request, _| {
        let response = serve_echo(defs, request);
        let fault = soap::is_fault(&response);
        // The serving core appends the same bytes to a used buffer and
        // reports the same status without re-reading them.
        let mut appended = String::from("kept");
        assert_eq!(serve_echo_into(defs, request, &mut appended), fault, "{request}");
        assert_eq!(appended.strip_prefix("kept"), Some(response.as_str()));
        served += 1;
        faults += usize::from(fault);
        digest = fold(digest, response.as_bytes());
        digest = fold(digest, &[u8::from(fault)]);
    });
    assert_eq!(services, 364);
    assert_eq!((served, faults), (18_928, 10_556), "served, faults");
    assert_eq!(digest, 0xaa84_a17b_3ac3_1bf4, "digest {digest:#018x}");
}

#[test]
fn echoes_of_the_hand_built_shapes_are_well_formed_messages() {
    // A prefix the echoed value uses but the request declared on an
    // ancestor must be declared in the response too.
    let mut checked = 0usize;
    for (_, defs, op) in invocable() {
        let Some((wrapper, uri, arg)) = input_shape(&defs, &op) else {
            continue;
        };
        for request in hand_built(&wrapper, &uri, &arg) {
            let response = serve_echo(&defs, &request);
            if !soap::is_fault(&response) {
                let report = check_message(&response);
                assert!(report.conformant(), "{request}\n{response}\n{report}");
                checked += 1;
            }
        }
    }
    assert!(checked > 0);
}

/// Reads one response off a keep-alive connection: the head, then the
/// body its `Content-Length` declares.
fn read_framed(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    while http::find_head_end(&out).is_none() {
        assert_eq!(stream.read(&mut byte).expect("read head"), 1, "closed mid-head");
        out.push(byte[0]);
    }
    let head = String::from_utf8(out.clone()).expect("UTF-8 head");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Content-Length");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read body");
    out.extend_from_slice(&body);
    out
}

#[test]
fn loopback_http_responses_are_byte_identical() {
    let services = invocable();
    let (path, defs, op) = &services[0];
    let probe = write_document(
        &soap::request(defs, op, SURVEY_PROBE).expect("a probe request"),
        &WriteOptions::compact(),
    );
    let unknown = envelope("<m:vanish xmlns:m=\"urn:x\"/>");
    let server = WireServer::start(0, host_survey_services(STRIDE), WireServerConfig::default())
        .expect("bind loopback");
    let post = |body: &str, close: bool| {
        http::render_request("POST", path, "127.0.0.1", Some(op), body.as_bytes(), close)
    };
    let get = |target: &str, close: bool| {
        http::render_request("GET", target, "127.0.0.1", None, b"", close)
    };

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut digest = content_hash(b"");
    let mut responses = Vec::new();
    for request in [
        post(&probe, false),
        post(&unknown, false),
        get(&format!("{path}?wsdl"), false),
        get("/no/such/service", false),
        post(&probe, true),
    ] {
        stream.write_all(&request).expect("write");
        responses.push(read_framed(&mut stream));
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "bytes after a closing response");

    let mut malformed = TcpStream::connect(server.addr()).expect("connect");
    malformed.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    malformed.write_all(b"POST /svc SPDY/3\r\n\r\n").expect("write");
    let mut refused = Vec::new();
    malformed.read_to_end(&mut refused).expect("read to close");
    responses.push(refused);
    server.shutdown();

    let statuses: Vec<&str> = responses
        .iter()
        .map(|r| std::str::from_utf8(&r[9..12]).expect("status digits"))
        .collect();
    assert_eq!(statuses, ["200", "500", "200", "404", "200", "400"]);
    for response in &responses {
        digest = fold(digest, response);
    }
    assert_eq!(digest, 0x5916_f616_71d8_82c7, "digest {digest:#018x}");
}
