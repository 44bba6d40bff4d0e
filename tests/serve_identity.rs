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
//! inputs.
//!
//! A last digest pins the full HTTP responses of a loopback
//! `WireServer`: a keep-alive and a closing SOAP POST, a SOAP fault,
//! `GET ?wsdl`, a 404 and a malformed request's 400.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use wsinterop::core::doccache::content_hash;
use wsinterop::core::exchange::{serve_echo, serve_echo_into, SURVEY_PROBE};
use wsinterop::core::fuzz::{generate_case, GenLimits};
use wsinterop::core::wire::{host_survey_services, http, WireServer, WireServerConfig};
use wsinterop::wsdl::{soap, Definitions, PartKind};
use wsinterop::xml::name::ns;
use wsinterop::xml::writer::{write_document, WriteOptions};

const STRIDE: usize = 20;

/// Folds `bytes` into a running digest.
fn fold(digest: u64, bytes: &[u8]) -> u64 {
    content_hash(&[&digest.to_le_bytes()[..], bytes].concat())
}

/// Every invocable hosted service of the stride-20 survey: its path,
/// its description and the operation a stub binds to.
fn invocable() -> Vec<(String, Definitions, String)> {
    let mut out = Vec::new();
    for (path, hosted) in host_survey_services(STRIDE) {
        let Ok(defs) = hosted.defs else { continue };
        let op = defs
            .port_types
            .iter()
            .flat_map(|pt| pt.operations.iter())
            .next()
            .map(|op| op.name.clone());
        if let Some(op) = op {
            out.push((path, defs, op));
        }
    }
    out
}

/// Wraps `payload` in a SOAP 1.1 envelope the way a hand-written
/// client would.
fn envelope(payload: &str) -> String {
    format!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><soapenv:Envelope \
         xmlns:soapenv=\"{}\"><soapenv:Body>{payload}</soapenv:Body></soapenv:Envelope>",
        ns::SOAP_ENV
    )
}

/// Requests the generator never writes, for operation `op` whose
/// wrapper is `wrapper` in namespace `uri` with first argument `arg`.
fn hand_built(wrapper: &str, uri: &str, arg: &str) -> Vec<String> {
    let w = |attrs: &str, content: &str| {
        envelope(&format!("<m:{wrapper} xmlns:m=\"{uri}\"{attrs}>{content}</m:{wrapper}>"))
    };
    let a = |attrs: &str, content: &str| format!("<m:{arg}{attrs}>{content}</m:{arg}>");
    let mut out = vec![
        // Foreign and default declarations on the payload wrapper; the
        // echoed value uses the foreign prefix on an attribute.
        w(
            " xmlns:f=\"urn:foreign\" xmlns=\"urn:default\"",
            &a(" f:a=\"1\"", "v<plain/>"),
        ),
        // Declarations and namespaced attributes on the echoed value.
        w(
            "",
            &a(" xmlns:p=\"urn:p\" p:x=\"1\" y=\"a&amp;b&quot;&#9;\"", "<p:q p:r=\"2\"/>"),
        ),
        // Default-namespace redeclaration and un-declaration below it.
        w("", &a(" xmlns=\"urn:d\"", "<inner xmlns=\"\"><deep/></inner><other/>")),
        // Comments, CDATA and a processing instruction.
        w("", &a("", "<!-- c -->t<![CDATA[<raw> & ]]>]]><?pi some data?><?bare?>")),
        // Self-closing against empty elements.
        w("", &a("", "")),
        w("", &format!("<m:{arg}/>")),
        w("", &a("", "<e></e><f/><g> </g>")),
        // Whitespace-only text, alone and around elements.
        w("", &a("", "   ")),
        w("", &a("", " <x/> ")),
        w("", &a("", "\n  <x>  </x>\n")),
        // Escaped text and character references.
        w("", &a("", "a &lt; b &amp; &quot;c&quot; &#233; &#x1F980; ]]&gt; &apos;")),
        // Repeated arguments: only the first is echoed.
        w("", &format!("{}{}", a("", "1"), a("", "2"))),
        // The echoed value's children in the wrapper's prefix, which
        // the response does not declare.
        w("", &a("", "<m:inner>v</m:inner>")),
        w("", &a(" m:attr=\"v\"", "")),
        // A payload without an element child, with and without text.
        w("", ""),
        w("", "just text"),
        // Whitespace, comments and a header around the payload.
        format!(
            "<soapenv:Envelope xmlns:soapenv=\"{}\">\n  <soapenv:Header><h>1</h></soapenv:Header>\n  \
             <soapenv:Body>\n    <!-- lead -->\n    <m:{wrapper} xmlns:m=\"{uri}\">{}</m:{wrapper}>\n  \
             </soapenv:Body>\n</soapenv:Envelope>\n",
            ns::SOAP_ENV,
            a("", "spaced")
        ),
    ];
    // A comment and a BOM before the root.
    out.push(format!("\u{feff}<!-- prolog -->{}", w("", &a("", "bom"))));
    out
}

/// Requests every service must refuse.
fn error_paths(probe: &str) -> Vec<String> {
    let cut = probe.len() / 2;
    vec![
        "not xml".to_string(),
        String::new(),
        probe[..cut].to_string(),
        "<x/>".to_string(),
        probe.replace(ns::SOAP_ENV, "urn:not-soap"),
        format!("<soapenv:Envelope xmlns:soapenv=\"{}\"/>", ns::SOAP_ENV),
        format!(
            "<soapenv:Envelope xmlns:soapenv=\"{}\"><soapenv:Header/></soapenv:Envelope>",
            ns::SOAP_ENV
        ),
        envelope(""),
        envelope("<!-- only a comment -->text"),
        envelope("<m:vanish xmlns:m=\"urn:x\"><m:a>1</m:a></m:vanish>"),
        envelope("<vanish>&bogus;</vanish>"),
    ]
}

/// Descriptions derived from `defs` whose output cannot be echoed, or
/// whose response wrapper is `{soapenv}Fault`.
fn damaged_descriptions(defs: &Definitions, op: &str) -> Vec<Definitions> {
    let mut out = Vec::new();
    let Some(message) = defs
        .find_operation(op)
        .and_then(|o| o.output.as_ref())
        .map(|r| r.local.clone())
    else {
        return out;
    };

    // One-way.
    let mut d = defs.clone();
    for pt in &mut d.port_types {
        for o in pt.operations.iter_mut().filter(|o| o.name == op) {
            o.output = None;
        }
    }
    out.push(d);
    // Missing output message.
    let mut d = defs.clone();
    d.messages.retain(|m| m.name != message);
    out.push(d);
    // Output message without parts.
    let mut d = defs.clone();
    for m in d.messages.iter_mut().filter(|m| m.name == message) {
        m.parts.clear();
    }
    out.push(d);
    // Type-style output part.
    let mut d = defs.clone();
    for m in d.messages.iter_mut().filter(|m| m.name == message) {
        for p in &mut m.parts {
            if let PartKind::Element(r) = &p.kind {
                p.kind = PartKind::Type(wsinterop::xsd::TypeRef::Named {
                    ns_uri: r.ns_uri.clone(),
                    local: r.local.clone(),
                });
            }
        }
    }
    out.push(d);
    // Unresolved wrapper element.
    let mut d = defs.clone();
    for m in d.messages.iter_mut().filter(|m| m.name == message) {
        for p in &mut m.parts {
            if let PartKind::Element(r) = &mut p.kind {
                r.local.push_str("Missing");
            }
        }
    }
    out.push(d);
    // The response wrapper is `{soapenv}Fault`.
    let mut d = defs.clone();
    let wrapper = d
        .message(&message)
        .and_then(|m| m.parts.first())
        .and_then(|p| d.resolve_part_element(p))
        .cloned();
    if let Some(mut decl) = wrapper {
        decl.name = "Fault".to_string();
        let mut schema = wsinterop::xsd::Schema::new(ns::SOAP_ENV);
        schema.elements.push(decl);
        d.schemas.push(schema);
        for m in d.messages.iter_mut().filter(|m| m.name == message) {
            for p in &mut m.parts {
                if let PartKind::Element(r) = &mut p.kind {
                    r.ns_uri = ns::SOAP_ENV.to_string();
                    r.local = "Fault".to_string();
                }
            }
        }
        out.push(d);
    }
    out
}

/// The wrapper element name, its namespace and the first argument's
/// name of `op`'s input, when the input is doc/literal wrapped.
fn input_shape(defs: &Definitions, op: &str) -> Option<(String, String, String)> {
    let (decl, uri) = soap::input_wrapper(defs, op).ok()?;
    let arg = decl
        .inline
        .as_ref()
        .and_then(|inline| match inline.content.particles.first() {
            Some(wsinterop::xsd::Particle::Element(el)) => Some(el.name.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "arg0".to_string());
    Some((decl.name.clone(), uri.to_string(), arg))
}

#[test]
fn echo_envelopes_and_fault_status_are_byte_identical() {
    let compact = WriteOptions::compact();
    let limits = GenLimits::default();
    let mut digest = content_hash(b"");
    let (mut served, mut faults) = (0usize, 0usize);
    let mut pin = |defs: &Definitions, request: &str| {
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
    };
    let services = invocable();
    for (_, defs, op) in &services {
        let probe = match soap::request(defs, op, SURVEY_PROBE) {
            Ok(doc) => write_document(&doc, &compact),
            Err(e) => {
                pin(defs, &e.to_string());
                continue;
            }
        };
        pin(defs, &probe);
        for seed in 0..4u64 {
            match generate_case(defs, op, seed, None, &limits) {
                Ok(case) => pin(defs, &case.request_xml),
                Err(e) => pin(defs, &e.to_string()),
            }
        }
        let shapes = input_shape(defs, op)
            .map(|(wrapper, uri, arg)| hand_built(&wrapper, &uri, &arg))
            .unwrap_or_default();
        for request in shapes.iter().chain(&error_paths(&probe)) {
            pin(defs, request);
        }
        for damaged in damaged_descriptions(defs, op) {
            pin(&damaged, &probe);
            pin(&damaged, &format!("{probe}<!-- trailing -->"));
            // A response the client cannot parse is not a fault, even
            // under a `{soapenv}Fault` wrapper.
            if let Some(unbound) = shapes.iter().find(|r| r.contains("<m:inner>")) {
                pin(&damaged, unbound);
            }
        }
    }
    assert_eq!(services.len(), 364);
    assert_eq!((served, faults), (18_928, 10_192), "served, faults");
    assert_eq!(digest, 0xb914_ec79_91c4_193e, "digest {digest:#018x}");
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
