//! The Communication and Execution steps (steps 4–5 of the paper's
//! Fig. 1) — the paper's declared **future work**, implemented here as
//! an extension.
//!
//! For a test that survived the three static steps, this module drives
//! an actual message exchange over the workspace's SOAP 1.1 layer:
//!
//! 1. the *client side* builds a doc/literal request from a parse of
//!    the WSDL (exactly what a generated stub does),
//! 2. the *server side* parses the request against its published
//!    description and produces the echo response,
//! 3. the client unwraps the response and checks the echoed value.
//!
//! Both endpoints read the same published text, so they share one
//! parse ([`exchange_parsed`]). Because they work from the same
//! document, a service that passed the static steps should complete
//! the exchange — and the operation-less documents demonstrably
//! cannot, which is the paper's argument for flagging them at
//! generation time.

use std::fmt;

use wsinterop_wsdl::de::from_xml_str;
use wsinterop_wsdl::{soap, Definitions};
use wsinterop_wsi::{message, Report};
use wsinterop_xml::name::ns;
use wsinterop_xml::writer::{write_document, WriteOptions};
use wsinterop_xml::{parse_arena, Arena, ElementRef, XmlWriter};

/// Outcome of one simulated message exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// Request and response were exchanged and the echoed value
    /// matched.
    Completed {
        /// Round-trip payload size in bytes (request + response).
        bytes_on_wire: usize,
    },
    /// The client could not even form a request from the description.
    ClientCannotInvoke {
        /// Failure detail.
        reason: String,
    },
    /// The server could not process the request (returned a fault).
    ServerFault {
        /// Fault reason.
        reason: String,
    },
    /// The response did not carry the expected echo.
    EchoMismatch {
        /// What was sent.
        sent: String,
        /// What came back.
        received: String,
    },
    /// A message violated the WS-I message-level profile.
    NonConformantMessage {
        /// `"request"` or `"response"`.
        side: &'static str,
        /// First violated assertion.
        detail: String,
    },
    /// The transport lost the message (e.g. an injected dropped
    /// response in the chaos campaign, or a timeout).
    TransportError {
        /// Failure detail.
        reason: String,
    },
}

impl ExchangeOutcome {
    /// `true` for [`ExchangeOutcome::Completed`].
    pub fn completed(&self) -> bool {
        matches!(self, ExchangeOutcome::Completed { .. })
    }
}

impl fmt::Display for ExchangeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeOutcome::Completed { bytes_on_wire } => {
                write!(f, "exchange completed ({bytes_on_wire} bytes on the wire)")
            }
            ExchangeOutcome::ClientCannotInvoke { reason } => {
                write!(f, "client cannot invoke: {reason}")
            }
            ExchangeOutcome::ServerFault { reason } => write!(f, "server fault: {reason}"),
            ExchangeOutcome::EchoMismatch { sent, received } => {
                write!(f, "echo mismatch: sent {sent:?}, received {received:?}")
            }
            ExchangeOutcome::NonConformantMessage { side, detail } => {
                write!(f, "non-conformant {side} message: {detail}")
            }
            ExchangeOutcome::TransportError { reason } => {
                write!(f, "transport error: {reason}")
            }
        }
    }
}

/// Simulates the server's Execution step: parse the request envelope
/// against the published description and produce the echo response (or
/// a fault envelope). A wrapper over [`serve_echo_into`].
pub fn serve_echo(defs: &Definitions, request_xml: &str) -> String {
    let mut out = String::with_capacity(1024);
    serve_echo_into(defs, request_xml, &mut out);
    out
}

/// The serving core: parses the request once, then appends the echo
/// response — or a fault envelope — to `out`, copying the echoed value
/// straight from the parse. Returns whether the envelope it wrote is a
/// SOAP fault, which is always what [`soap::is_fault`] reads from those
/// bytes: the wire server takes the HTTP status (WS-I BP R1126) from
/// it instead of re-reading its own response.
pub fn serve_echo_into(defs: &Definitions, request_xml: &str, out: &mut String) -> bool {
    let start = out.len();
    let compact = WriteOptions::compact();
    let mut w = XmlWriter::document_into(&compact, std::mem::take(out));
    let doc = soap::parse_envelope(request_xml);
    let echo = match &doc {
        Ok(doc) => resolve_echo(defs, doc),
        Err(e) => Err(("Client", e.to_string())),
    };
    let wrapper = match echo {
        Ok(echo) => {
            soap::open_envelope(&mut w);
            w.open(echo.wrapper).attr("xmlns", echo.ns_uri);
            if let Some(value) = echo.value {
                // Re-root the echoed value under the response's element
                // name, preserving all structured content.
                w.copy_renamed(echo.return_name, value);
            }
            w.close().close().close();
            Some(echo.wrapper)
        }
        Err((code, reason)) => {
            soap::write_fault(&mut w, code, &reason);
            None
        }
    };
    *out = w.finish();
    match wrapper {
        // A fault envelope always parses: its only variable part is
        // escaped text.
        None => true,
        // Only a wrapper named `Fault` can read as one, and only when
        // the echoed content parses too.
        Some(name) => {
            (name == "Fault" || name.ends_with(":Fault")) && soap::is_fault(&out[start..])
        }
    }
}

/// What the echo response holds: the output wrapper element, the name
/// the echoed value takes inside it, and the value.
struct Echo<'a> {
    wrapper: &'a str,
    ns_uri: &'a str,
    return_name: &'a str,
    value: Option<ElementRef<'a>>,
}

/// Reads the request's payload and resolves the operation's output
/// wrapper; an error is the fault code and reason to answer with.
fn resolve_echo<'a>(
    defs: &'a Definitions,
    doc: &'a Arena<'a>,
) -> Result<Echo<'a>, (&'static str, String)> {
    use wsinterop_wsdl::PartKind;

    let payload = soap::body_payload(doc).map_err(|e| ("Client", e.to_string()))?;
    let operation = payload.local_name();
    let op = defs
        .find_operation(operation)
        .ok_or_else(|| ("Client", format!("no such operation `{operation}`")))?;
    let server = |reason: String| ("Server", reason);
    let output = op
        .output
        .as_ref()
        .ok_or_else(|| server(format!("operation `{operation}` is one-way")))?;
    let message = defs
        .message(&output.local)
        .ok_or_else(|| server(format!("missing message `{}`", output.local)))?;
    let part = message
        .parts
        .first()
        .ok_or_else(|| server("output message has no parts".to_string()))?;
    let PartKind::Element(wrapper_ref) = &part.kind else {
        return Err(server("type-style output parts are not supported".to_string()));
    };
    let wrapper_decl = defs
        .resolve_part_element(part)
        .ok_or_else(|| server(format!("unresolved wrapper `{}`", wrapper_ref.local)))?;
    let return_name = wrapper_decl
        .inline
        .as_ref()
        .and_then(|inline| match inline.content.particles.first() {
            Some(wsinterop_xsd::Particle::Element(el)) => Some(el.name.as_str()),
            _ => None,
        })
        .unwrap_or("return");
    Ok(Echo {
        wrapper: &wrapper_decl.name,
        ns_uri: &wrapper_ref.ns_uri,
        return_name,
        value: payload.child_elements().next(),
    })
}

/// First message-profile failure in a serialized envelope, if any.
pub(crate) fn first_message_violation(xml: &str) -> Option<String> {
    first_failure(&message::check_message(xml))
}

fn first_failure(report: &Report) -> Option<String> {
    let first = report.failures().next();
    first.map(|f| format!("[{}] {}", f.assertion, f.detail))
}

/// Runs the full Communication + Execution cycle for one operation of
/// a published WSDL, echoing `value`.
pub fn exchange(wsdl_xml: &str, operation: &str, value: &str) -> ExchangeOutcome {
    exchange_with_faults(wsdl_xml, operation, value, None)
}

/// [`exchange`] with an optional injected wire fault (the chaos
/// campaign's Communication-step disruption): the request can be
/// truncated or namespace-mangled in transit, or the response dropped.
///
/// Both endpoints read the one published text, so one parse serves
/// both: a server cannot fail to re-parse a text its client parsed.
pub fn exchange_with_faults(
    wsdl_xml: &str,
    operation: &str,
    value: &str,
    fault: Option<crate::faults::WireFault>,
) -> ExchangeOutcome {
    match from_xml_str(wsdl_xml) {
        Ok(defs) => exchange_parsed(&defs, operation, value, fault),
        Err(e) => ExchangeOutcome::ClientCannotInvoke {
            reason: e.to_string(),
        },
    }
}

/// [`exchange_with_faults`] over an already-parsed description, which
/// the client stub and the echo server both read.
pub fn exchange_parsed(
    defs: &Definitions,
    operation: &str,
    value: &str,
    fault: Option<crate::faults::WireFault>,
) -> ExchangeOutcome {
    use crate::faults::WireFault;

    let request = match soap::request(defs, operation, value) {
        Ok(doc) => write_document(&doc, &WriteOptions::compact()),
        Err(e) => {
            return ExchangeOutcome::ClientCannotInvoke {
                reason: e.to_string(),
            }
        }
    };

    // The injected transit damage happens *after* the stub serialized a
    // correct request — it models the wire, not the client.
    let request = match fault {
        Some(WireFault::TruncateEnvelope) => {
            let mut cut = request.len() * 3 / 5;
            while cut > 0 && !request.is_char_boundary(cut) {
                cut -= 1;
            }
            request[..cut].to_string()
        }
        Some(WireFault::WrongNamespace) => request.replace(
            "http://schemas.xmlsoap.org/soap/envelope/",
            "http://schemas.xmlsoap.org/soap/envelope-tampered/",
        ),
        _ => request,
    };

    // Wire conformance: an untampered request must pass the WS-I
    // message profile. Tampered requests skip the check and go straight
    // to the server — the damage happened below the conformance
    // tooling.
    if fault.is_none() {
        if let Some(violation) = first_message_violation(&request) {
            return ExchangeOutcome::NonConformantMessage {
                side: "request",
                detail: violation,
            };
        }
    }

    let response = serve_echo(defs, &request);
    if fault == Some(WireFault::DropResponse) {
        return ExchangeOutcome::TransportError {
            reason: "response dropped in transit".to_string(),
        };
    }
    classify_response(&request, &response, value)
}

/// Runs the Communication + Execution cycle for a pre-serialized
/// request envelope whose first top-level argument is expected to echo
/// back as `expected` — the in-process leg of a fuzz case
/// ([`crate::fuzz`]). Unlike [`exchange`], the request is *given*, not
/// built from a probe value: the fuzz generator already serialized
/// adversarial structured content through [`soap::request_with_args`],
/// and this function only runs the wire-conformance gate, the server's
/// echo, and the shared response classifier over it.
pub fn exchange_generated(
    defs: &Definitions,
    request_xml: &str,
    expected: &str,
) -> ExchangeOutcome {
    if let Some(violation) = first_message_violation(request_xml) {
        return ExchangeOutcome::NonConformantMessage {
            side: "request",
            detail: violation,
        };
    }
    let response = serve_echo(defs, request_xml);
    classify_response(request_xml, &response, expected)
}

/// Client-side classification of a received response envelope — shared
/// verbatim between the in-process exchange and the loopback TCP
/// transport ([`crate::wire`]), which is what makes the two surveys
/// bit-identical (E15): both paths run exactly this code over exactly
/// the same envelope bytes.
///
/// The response is parsed once: the profile check, fault detection, the
/// fault reason and the echoed value all read that one arena.
pub fn classify_response(request: &str, response: &str, value: &str) -> ExchangeOutcome {
    let parsed = parse_arena(response);
    if let Some(violation) = first_failure(&message::check_parsed(parsed.as_ref())) {
        return ExchangeOutcome::NonConformantMessage {
            side: "response",
            detail: violation,
        };
    }
    let Ok(doc) = parsed else {
        unreachable!("a response that is not XML fails R9980");
    };
    // Client side: read the fault, or unwrap the echoed value.
    let received = match soap::body_payload(&doc) {
        Ok(fault) if fault.is_named(ns::SOAP_ENV, "Fault") => {
            return ExchangeOutcome::ServerFault {
                reason: fault.text_content(),
            };
        }
        payload => payload.and_then(soap::single_value),
    };
    match received {
        Ok(received) if received == value => ExchangeOutcome::Completed {
            bytes_on_wire: request.len() + response.len(),
        },
        Ok(received) => ExchangeOutcome::EchoMismatch {
            sent: value.to_string(),
            received,
        },
        Err(e) => ExchangeOutcome::ServerFault {
            reason: e.to_string(),
        },
    }
}

/// Aggregate outcome of exchanging against every deployed service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeSurvey {
    /// Services whose echo roundtrip completed.
    pub completed: usize,
    /// Services a client cannot even invoke (no operations, or the
    /// description gives the stub nothing to build a request from).
    pub not_invocable: usize,
    /// Services whose server side faulted or mangled the echo.
    pub faulted: usize,
}

impl ExchangeSurvey {
    /// Total services surveyed.
    pub fn total(&self) -> usize {
        self.completed + self.not_invocable + self.faulted
    }

    /// Tallies per-site outcomes into the aggregate counts.
    pub fn tally<'a, I: IntoIterator<Item = &'a SurveySite>>(sites: I) -> ExchangeSurvey {
        let mut out = ExchangeSurvey::default();
        for site in sites {
            match site.outcome {
                ExchangeOutcome::Completed { .. } => out.completed += 1,
                ExchangeOutcome::ClientCannotInvoke { .. } => out.not_invocable += 1,
                _ => out.faulted += 1,
            }
        }
        out
    }
}

/// One surveyed deployment site and what its exchange produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurveySite {
    /// Owning server (Debug form of its [`ServerId`], e.g. `Metro`).
    ///
    /// [`ServerId`]: wsinterop_frameworks::server::ServerId
    pub server: String,
    /// Fully-qualified class name the echo service was generated from.
    pub fqcn: String,
    /// What the Communication + Execution cycle produced there.
    pub outcome: ExchangeOutcome,
}

/// The probe value every survey exchange echoes.
pub const SURVEY_PROBE: &str = "survey-probe";

/// Extracts the first port-type operation of a description, mirroring
/// what a generated stub would bind to. `None` means the client has
/// nothing to invoke.
pub fn first_survey_operation(wsdl_xml: &str) -> Option<String> {
    from_xml_str(wsdl_xml).ok().and_then(|defs| {
        defs.port_types
            .iter()
            .flat_map(|pt| pt.operations.iter())
            .next()
            .map(|op| op.name.clone())
    })
}

/// Runs the Communication + Execution cycle once against every
/// `stride`-th deployed service of every server, reporting the outcome
/// at each site. [`crate::wire::survey_tcp`] is the loopback-TCP
/// counterpart; E15 asserts the two are bit-identical.
pub fn survey_sites(stride: usize) -> Vec<SurveySite> {
    survey_sites_observed(stride, None)
}

/// [`survey_sites`] with an optional telemetry observer: each surveyed
/// site becomes one `exchange` phase span (outcome `completed`,
/// `fault`, or `cannot-invoke`). Observation never changes the survey —
/// the sites come out identical with or without an observer.
pub fn survey_sites_observed(stride: usize, obs: Option<&crate::obs::Obs>) -> Vec<SurveySite> {
    use crate::obs::TracePhase;
    use wsinterop_frameworks::server::{all_servers, DeployOutcome};

    let mut out = Vec::new();
    for server in all_servers() {
        let server_name = format!("{:?}", server.info().id);
        for entry in server.catalog().entries().iter().step_by(stride.max(1)) {
            let DeployOutcome::Deployed { wsdl_xml } = server.deploy(entry) else {
                continue;
            };
            let span = obs
                .map(|o| o.begin_phase(TracePhase::Exchange, server.info().id.name(), None, &entry.fqcn));
            let outcome = match first_survey_operation(&wsdl_xml) {
                None => ExchangeOutcome::ClientCannotInvoke {
                    reason: "no operations in the description".to_string(),
                },
                Some(op) => exchange(&wsdl_xml, &op, SURVEY_PROBE),
            };
            if let (Some(o), Some(span)) = (obs, span) {
                let label = match &outcome {
                    ExchangeOutcome::Completed { .. } => "completed",
                    ExchangeOutcome::ClientCannotInvoke { .. } => "cannot-invoke",
                    _ => "fault",
                };
                o.end_phase(
                    TracePhase::Exchange,
                    server.info().id.name(),
                    None,
                    &entry.fqcn,
                    label,
                    None,
                    0,
                    false,
                    span,
                );
            }
            out.push(SurveySite {
                server: server_name.clone(),
                fqcn: entry.fqcn.clone(),
                outcome,
            });
        }
    }
    out
}

/// Runs the Communication + Execution cycle once against every
/// `stride`-th deployed service of every server — the quantified form
/// of the paper's future-work step 4/5.
pub fn survey(stride: usize) -> ExchangeSurvey {
    ExchangeSurvey::tally(&survey_sites(stride))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_frameworks::server::{JBossWs, Metro, ServerSubsystem, WcfDotNet};
    use wsinterop_typecat::java;

    fn wsdl_of(server: &dyn ServerSubsystem, fqcn: &str) -> String {
        server
            .deploy(server.catalog().get(fqcn).unwrap())
            .wsdl()
            .unwrap()
            .to_string()
    }

    #[test]
    fn plain_services_complete_the_exchange_on_all_servers() {
        for (server, fqcn) in [
            (&Metro as &dyn ServerSubsystem, "java.lang.String"),
            (&JBossWs, "java.util.Date"),
            (&WcfDotNet, "System.Text.StringBuilder"),
        ] {
            let wsdl = wsdl_of(server, fqcn);
            let outcome = exchange(&wsdl, "echo", "ping-42");
            assert!(outcome.completed(), "{fqcn}: {outcome}");
        }
    }

    #[test]
    fn operation_less_documents_cannot_be_invoked() {
        // The paper's core argument for EXT0001: these services pass
        // every static check yet can never be called.
        let wsdl = wsdl_of(&JBossWs, java::well_known::FUTURE);
        let outcome = exchange(&wsdl, "echo", "x");
        assert!(matches!(outcome, ExchangeOutcome::ClientCannotInvoke { .. }));
    }

    #[test]
    fn unknown_operation_yields_server_fault() {
        let wsdl = wsdl_of(&Metro, "java.lang.String");
        let defs = from_xml_str(&wsdl).unwrap();
        let request = soap::request(&defs, "echo", "v").unwrap();
        let mut tampered =
            write_document(&request, &WriteOptions::compact()).replace("echo", "vanish");
        // Keep the envelope well-formed: only the wrapper was renamed.
        tampered = tampered.replace("vanishResponse", "echoResponse");
        let response = serve_echo(&defs, &tampered);
        assert!(soap::is_fault(&response));
    }

    #[test]
    fn malformed_request_yields_client_fault() {
        let wsdl = wsdl_of(&Metro, "java.lang.String");
        let defs = from_xml_str(&wsdl).unwrap();
        let response = serve_echo(&defs, "<bogus/>");
        assert!(soap::is_fault(&response));
    }

    #[test]
    fn payload_value_survives_escaping() {
        let wsdl = wsdl_of(&Metro, "java.lang.String");
        let outcome = exchange(&wsdl, "echo", "a < b & \"c\"");
        assert!(outcome.completed(), "{outcome}");
    }

    #[test]
    fn strided_survey_matches_full_run_shape() {
        // The full-corpus numbers (asserted in tests/exchange_survey.rs):
        // 7 234 completed, 3 not invocable, 2 faulted. A strided survey
        // must show the same dominant shape.
        let s = survey(101);
        assert!(s.completed > 0);
        assert_eq!(s.total(), s.completed + s.not_invocable + s.faulted);
        assert!(s.completed * 10 > s.total() * 9, "{s:?}");
    }

    #[test]
    fn injected_wire_faults_break_the_exchange() {
        use crate::faults::WireFault;
        let wsdl = wsdl_of(&Metro, "java.lang.String");
        // Baseline sanity: the fault-free exchange completes.
        assert!(exchange_with_faults(&wsdl, "echo", "x", None).completed());
        let truncated =
            exchange_with_faults(&wsdl, "echo", "x", Some(WireFault::TruncateEnvelope));
        assert!(!truncated.completed(), "{truncated}");
        let dropped = exchange_with_faults(&wsdl, "echo", "x", Some(WireFault::DropResponse));
        assert!(
            matches!(dropped, ExchangeOutcome::TransportError { .. }),
            "{dropped}"
        );
        let tampered =
            exchange_with_faults(&wsdl, "echo", "x", Some(WireFault::WrongNamespace));
        assert!(!tampered.completed(), "{tampered}");
    }

    #[test]
    fn unparseable_description_never_panics_the_exchange() {
        // An unparseable document is rejected at the client-side parse;
        // no input may panic the Communication step.
        let outcome = exchange("<not-a-wsdl", "echo", "x");
        assert!(
            matches!(outcome, ExchangeOutcome::ClientCannotInvoke { .. }),
            "{outcome}"
        );
    }

    #[test]
    fn exchange_reports_wire_bytes() {
        let wsdl = wsdl_of(&Metro, "java.lang.String");
        match exchange(&wsdl, "echo", "x") {
            ExchangeOutcome::Completed { bytes_on_wire } => assert!(bytes_on_wire > 200),
            other => panic!("unexpected: {other}"),
        }
    }
}
