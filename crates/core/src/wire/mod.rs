//! The real-socket SOAP transport (DESIGN.md §10).
//!
//! Everything below `core::exchange` used to short-circuit both
//! endpoints through in-process function calls; this module puts a
//! real kernel socket between them:
//!
//! * [`server`] — a hardened, threaded HTTP/1.1 loopback endpoint
//!   hosting every deployed echo service (bounded worker pool,
//!   accept-queue admission control with `503` shedding, slow-loris
//!   deadlines, `413` size caps, keep-alive, graceful drain).
//! * [`client`] — a resilient HTTP client (connect/read deadlines,
//!   seeded deterministic retry with exponential backoff + jitter,
//!   every socket failure normalized into the
//!   [`ExchangeOutcome`]/`ErrorClass` taxonomy).
//! * [`proxy`] — the interposed fault proxy that damages real wire
//!   bytes according to the campaign's [`FaultPlan`]
//!   (delay-past-deadline, truncate-at-byte-N, RST mid-body, garbage
//!   status line, plus the request-side wire faults).
//! * [`survey_tcp`] — the loopback twin of
//!   [`crate::exchange::survey_sites`]; experiment E15 asserts the two
//!   are bit-identical site by site.
//!
//! Std-only by construction: the transport is `std::net` + threads,
//! no external dependencies (the build is offline).
//!
//! [`FaultPlan`]: crate::faults::FaultPlan

pub mod client;
mod conn;
pub mod http;
pub mod loadgen;
pub mod proxy;
pub mod server;
pub mod watch;

use std::net::SocketAddr;

use wsinterop_wsdl::de::from_xml_str;
use wsinterop_wsdl::soap;
use wsinterop_xml::writer::{write_document, WriteOptions};

use crate::exchange::{
    classify_response, first_message_violation, first_survey_operation, ExchangeOutcome,
    SurveySite, SURVEY_PROBE,
};

pub use client::{WireClient, WireClientConfig, WireError};
pub use http::HttpLimits;
pub use loadgen::{
    CorpusEntry, HostedReport, HostedRun, Invariants, LoadgenConfig, LoadgenCounts, LoadgenReport,
    OpProfile,
};
pub use proxy::FaultProxy;
pub use server::{
    host_survey_services, HostedService, WireServer, WireServerConfig, WireStats, SHUTDOWN_PATH,
};
pub use watch::{
    counter_resets, diff_samples, parse_prometheus, render_diff_table, scrape, SampleKind, Scrape,
    ScrapeDiff, SnapshotFrame, SnapshotRing,
};

/// Runs one Communication + Execution cycle **over the socket**: build
/// the request from the client's own parse of `wsdl_xml`, POST it to
/// `addr`/`path`, classify whatever comes back.
///
/// Step order and classification mirror
/// [`crate::exchange::exchange`] exactly — both end in
/// [`classify_response`] over the same envelope bytes — which is what
/// makes the loopback survey bit-identical to the in-process one
/// (E15). Socket-level failures surface as
/// [`ExchangeOutcome::TransportError`] with the client's stable
/// reasons.
pub fn exchange_over_http(
    wire: &WireClient,
    addr: SocketAddr,
    path: &str,
    wsdl_xml: &str,
    operation: &str,
    value: &str,
) -> ExchangeOutcome {
    // Client side: independent parse of the published description.
    let client_defs = match from_xml_str(wsdl_xml) {
        Ok(defs) => defs,
        Err(e) => {
            return ExchangeOutcome::ClientCannotInvoke {
                reason: e.to_string(),
            }
        }
    };
    let request = match soap::request(&client_defs, operation, value) {
        Ok(doc) => write_document(&doc, &WriteOptions::compact()),
        Err(e) => {
            return ExchangeOutcome::ClientCannotInvoke {
                reason: e.to_string(),
            }
        }
    };
    // Wire conformance on the outgoing request — any in-transit damage
    // (the fault proxy) happens below this check, exactly like the
    // in-process path.
    if let Some(violation) = first_message_violation(&request) {
        return ExchangeOutcome::NonConformantMessage {
            side: "request",
            detail: violation,
        };
    }

    let response = match wire.post(addr, path, operation, request.as_bytes(), path) {
        Ok(response) => response,
        Err(e) => {
            return ExchangeOutcome::TransportError { reason: e.reason() };
        }
    };
    let Some(body) = response.body_str() else {
        return ExchangeOutcome::TransportError {
            reason: "response body is not UTF-8".to_string(),
        };
    };
    classify_response(&request, body, value)
}

/// The loopback twin of [`crate::exchange::survey_sites`]: enumerate
/// the same sites, but fetch each description with `GET ?wsdl` and run
/// each exchange over `addr` — normally a [`WireServer`] built from
/// [`host_survey_services`] with the same stride. A `404` marks a
/// service the endpoint (like the in-process survey) skipped as
/// undeployed.
pub fn survey_tcp(stride: usize, addr: SocketAddr, wire: &WireClient) -> Vec<SurveySite> {
    use wsinterop_frameworks::server::all_servers;

    let mut out = Vec::new();
    for server in all_servers() {
        let id = format!("{:?}", server.info().id);
        for entry in server.catalog().entries().iter().step_by(stride.max(1)) {
            let path = format!("/{id}/{}", entry.fqcn);
            let wsdl_target = format!("{path}?wsdl");
            let outcome = match wire.get(addr, &wsdl_target, &path) {
                Err(WireError::Status(404)) => continue, // not deployed
                Err(e) => ExchangeOutcome::TransportError { reason: e.reason() },
                Ok(response) => match response.body_str() {
                    None => ExchangeOutcome::TransportError {
                        reason: "description is not UTF-8".to_string(),
                    },
                    Some(wsdl_xml) => match first_survey_operation(wsdl_xml) {
                        None => ExchangeOutcome::ClientCannotInvoke {
                            reason: "no operations in the description".to_string(),
                        },
                        Some(op) => {
                            exchange_over_http(wire, addr, &path, wsdl_xml, &op, SURVEY_PROBE)
                        }
                    },
                },
            };
            out.push(SurveySite {
                server: id.clone(),
                fqcn: entry.fqcn.clone(),
                outcome,
            });
        }
    }
    out
}
