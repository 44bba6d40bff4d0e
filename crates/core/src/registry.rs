//! An in-memory service host: the simulated "application server" the
//! examples and the Communication/Execution extension run against.
//!
//! Services are deployed at endpoint URLs; clients fetch `?wsdl`
//! descriptions and dispatch SOAP envelopes exactly as they would over
//! HTTP, except the wire is a function call. Requests are **validated
//! against the published schema** through the typed data-binding layer
//! before being echoed, so lexically invalid payloads produce faults —
//! the behaviour a real doc/literal stack exhibits.

use std::collections::BTreeMap;
use std::fmt;

use wsinterop_frameworks::server::{DeployOutcome, ServerSubsystem};
use wsinterop_wsdl::de::from_xml_str;
use wsinterop_wsdl::{soap, values, Definitions};
use wsinterop_xml::writer::{WriteOptions, XmlWriter};

/// One hosted service.
#[derive(Debug, Clone)]
struct HostedService {
    wsdl_xml: String,
    defs: Definitions,
}

/// Errors surfaced by the host's "HTTP" surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// No service is bound at the URL (a 404, in HTTP terms).
    NotFound {
        /// The requested endpoint.
        url: String,
    },
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::NotFound { url } => write!(f, "no service at `{url}`"),
        }
    }
}

impl std::error::Error for HostError {}

/// Summary of a bulk deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeploySummary {
    /// Services now reachable.
    pub deployed: usize,
    /// Classes the platform refused.
    pub refused: usize,
}

/// The in-memory service host.
#[derive(Debug, Default)]
pub struct ServiceHost {
    endpoints: BTreeMap<String, HostedService>,
}

impl ServiceHost {
    /// An empty host.
    pub fn new() -> ServiceHost {
        ServiceHost::default()
    }

    /// Deploys one catalog class through a server subsystem, returning
    /// the endpoint URL.
    ///
    /// # Errors
    ///
    /// Returns the platform's refusal reason when the class cannot be
    /// bound.
    pub fn deploy_one(
        &mut self,
        server: &dyn ServerSubsystem,
        fqcn: &str,
    ) -> Result<String, String> {
        let entry = server
            .catalog()
            .get(fqcn)
            .ok_or_else(|| format!("`{fqcn}` is not in the {} catalog", server.info().id))?;
        match server.deploy(entry) {
            DeployOutcome::Refused { reason } => Err(reason),
            DeployOutcome::Deployed { wsdl_xml } => {
                // A description the host cannot parse is a deployment
                // failure surfaced to the caller, never a panic — the
                // chaos campaign deliberately produces such documents.
                let defs = from_xml_str(&wsdl_xml).map_err(|e| {
                    format!("published description is unparseable: {e}")
                })?;
                let url = defs
                    .services
                    .first()
                    .and_then(|s| s.ports.first())
                    .and_then(|p| p.address.clone())
                    .unwrap_or_else(|| format!("http://localhost:8080/{fqcn}"));
                self.endpoints
                    .insert(url.clone(), HostedService { wsdl_xml, defs });
                Ok(url)
            }
        }
    }

    /// Deploys every deployable class of a server's catalog (or the
    /// first `limit` deployable ones).
    pub fn deploy_server(
        &mut self,
        server: &dyn ServerSubsystem,
        limit: Option<usize>,
    ) -> DeploySummary {
        let mut summary = DeploySummary::default();
        for entry in server.catalog().entries() {
            if let Some(limit) = limit {
                if summary.deployed >= limit {
                    break;
                }
            }
            match server.deploy(entry) {
                DeployOutcome::Refused { .. } => summary.refused += 1,
                DeployOutcome::Deployed { wsdl_xml } => {
                    // Unparseable description: the endpoint cannot be
                    // bound, so the host counts it as refused rather
                    // than aborting the bulk deployment.
                    let Ok(defs) = from_xml_str(&wsdl_xml) else {
                        summary.refused += 1;
                        continue;
                    };
                    let url = defs
                        .services
                        .first()
                        .and_then(|s| s.ports.first())
                        .and_then(|p| p.address.clone())
                        .unwrap_or_else(|| format!("http://localhost:8080/{}", entry.fqcn));
                    self.endpoints
                        .insert(url, HostedService { wsdl_xml, defs });
                    summary.deployed += 1;
                }
            }
        }
        summary
    }

    /// Number of live endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// `true` when nothing is deployed.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Iterates over the endpoint URLs.
    pub fn endpoints(&self) -> impl Iterator<Item = &str> {
        self.endpoints.keys().map(String::as_str)
    }

    /// The `?wsdl` surface: fetches the published description.
    ///
    /// # Errors
    ///
    /// [`HostError::NotFound`] when nothing is bound at `url`.
    pub fn wsdl(&self, url: &str) -> Result<&str, HostError> {
        self.endpoints
            .get(url)
            .map(|s| s.wsdl_xml.as_str())
            .ok_or_else(|| HostError::NotFound {
                url: url.to_string(),
            })
    }

    /// Dispatches a SOAP request envelope to an endpoint, returning the
    /// response envelope (an echo or a fault).
    ///
    /// The request payload is validated against the published schema
    /// through the typed binding layer; violations produce a `Client`
    /// fault rather than an echo.
    ///
    /// # Errors
    ///
    /// [`HostError::NotFound`] when nothing is bound at `url`; SOAP
    /// faults are returned in-band like a real endpoint would.
    pub fn dispatch(&self, url: &str, request_xml: &str) -> Result<String, HostError> {
        let service = self.endpoints.get(url).ok_or_else(|| HostError::NotFound {
            url: url.to_string(),
        })?;
        let compact = WriteOptions::compact();

        // Schema validation of the incoming payload (when the document
        // declares a typed echo parameter).
        if values::echo_parameter_type(&service.defs).is_some() {
            if let Err(e) = values::typed_payload_value(&service.defs, request_xml) {
                let mut w = XmlWriter::document(&compact);
                soap::write_fault(&mut w, "Client", &format!("payload rejected: {e}"));
                return Ok(w.finish());
            }
        }
        Ok(crate::exchange::serve_echo(&service.defs, request_xml))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_frameworks::server::{JBossWs, Metro, WcfDotNet};
    use wsinterop_wsdl::values::Value;
    use wsinterop_xml::writer::write_document;
    use wsinterop_xsd::BuiltIn;

    #[test]
    fn deploy_fetch_dispatch_cycle() {
        let mut host = ServiceHost::new();
        let url = host.deploy_one(&Metro, "java.lang.String").unwrap();
        let wsdl = host.wsdl(&url).unwrap().to_string();
        let defs = from_xml_str(&wsdl).unwrap();
        let request = soap::request(&defs, "echo", "hello").unwrap();
        let response = host
            .dispatch(&url, &write_document(&request, &WriteOptions::compact()))
            .unwrap();
        assert!(!soap::is_fault(&response), "{response}");
        assert_eq!(soap::unwrap_single_value(&response).unwrap(), "hello");
    }

    #[test]
    fn typed_dispatch_validates_payloads() {
        let mut host = ServiceHost::new();
        let url = host.deploy_one(&Metro, "java.util.Date").unwrap();
        let defs = from_xml_str(host.wsdl(&url).unwrap()).unwrap();
        let ty = values::echo_parameter_type(&defs).unwrap();
        let good = values::sample_value(&defs, &ty).unwrap();
        let request = values::typed_request(&defs, "echo", &good).unwrap();
        let response = host
            .dispatch(&url, &write_document(&request, &WriteOptions::compact()))
            .unwrap();
        assert!(!soap::is_fault(&response), "{response}");
        // The echoed payload carries the same typed value back.
        let echoed = values::typed_payload_value(&defs, &response).unwrap();
        assert_eq!(echoed, good);
        let _ = Value::Nil; // keep the typed API imported
    }

    #[test]
    fn unknown_endpoint_is_not_found() {
        let host = ServiceHost::new();
        assert!(matches!(
            host.wsdl("http://nowhere/x"),
            Err(HostError::NotFound { .. })
        ));
        assert!(host.dispatch("http://nowhere/x", "<x/>").is_err());
    }

    #[test]
    fn bulk_deploy_counts() {
        let mut host = ServiceHost::new();
        let summary = host.deploy_server(&JBossWs, Some(25));
        assert_eq!(summary.deployed, 25);
        assert!(host.len() >= 25);
        assert!(!host.is_empty());
    }

    #[test]
    fn wcf_endpoint_hosts_dotnet_services() {
        let mut host = ServiceHost::new();
        let url = host
            .deploy_one(&WcfDotNet, "System.Text.StringBuilder")
            .unwrap();
        assert!(host.wsdl(&url).unwrap().contains("<s:schema"));
    }

    #[test]
    fn refusal_reports_reason() {
        let mut host = ServiceHost::new();
        let err = host.deploy_one(&Metro, "java.util.List").unwrap_err();
        assert!(err.contains("JAXB"), "{err}");
    }

    #[test]
    fn dispatch_lexical_violation_faults() {
        // Hand-built envelope carrying a lexically invalid gYearMonth —
        // bypasses the client binder, so the *server-side* validation
        // must catch it.
        let mut host = ServiceHost::new();
        let url = host
            .deploy_one(&Metro, "javax.xml.datatype.XMLGregorianCalendar")
            .unwrap();
        let defs = from_xml_str(host.wsdl(&url).unwrap()).unwrap();
        let ty = values::echo_parameter_type(&defs).unwrap();
        let good = values::sample_value(&defs, &ty).unwrap();
        let request = values::typed_request(&defs, "echo", &good).unwrap();
        let good_xml = write_document(&request, &WriteOptions::compact());
        assert!(good_xml.contains("<yearMonth>"), "{good_xml}");
        let bad_xml = good_xml.replace(
            &format!("<yearMonth>{}</yearMonth>", wsinterop_xsd::lexical::sample(BuiltIn::GYearMonth)),
            "<yearMonth>not-a-year-month</yearMonth>",
        );
        assert_ne!(good_xml, bad_xml);
        let response = host.dispatch(&url, &bad_xml).unwrap();
        assert!(soap::is_fault(&response), "{response}");
        // The untampered request echoes fine.
        let ok = host.dispatch(&url, &good_xml).unwrap();
        assert!(!soap::is_fault(&ok), "{ok}");
    }
}
