//! Message-level conformance: Basic Profile assertions over SOAP 1.1
//! *envelopes* (the profile's requirements on what actually travels,
//! complementing the document-level checks in [`crate::assertions`]).
//!
//! Implemented assertion families:
//!
//! * **R9980** — the envelope must be namespace-qualified in the SOAP
//!   1.1 envelope namespace with `Envelope`/`Body` structure;
//! * **R1005/R1007** — no `soapenv:encodingStyle` attributes on any
//!   element of a literal message;
//! * **R1014** — the children of `soapenv:Body` must be
//!   namespace-qualified;
//! * **R1011** — the `Body` must contain at most one child element
//!   (doc/literal wrapped discipline);
//! * **R1004 (fault form)** — a fault body must carry `faultcode` and
//!   `faultstring` as unqualified children.

use wsinterop_xml::name::ns;
use wsinterop_xml::{parse_arena, Arena, ElementRef, ParseXmlError};

use crate::report::{Finding, Report, Severity};

fn finding(
    assertion: &'static str,
    severity: Severity,
    target: impl Into<String>,
    detail: impl Into<String>,
) -> Finding {
    Finding {
        assertion,
        severity,
        target: target.into(),
        detail: detail.into(),
    }
}

/// Checks one serialized SOAP 1.1 message for Basic Profile
/// conformance: [`check_parsed`] over its parse.
pub fn check_message(xml: &str) -> Report {
    check_parsed(parse_arena(xml).as_ref())
}

/// Checks a parsed SOAP 1.1 message for Basic Profile conformance.
///
/// Returns a [`Report`]; malformed XML yields a single `R9980` failure
/// rather than an error, because "not even XML" is the strongest
/// non-conformance there is.
pub fn check_parsed(parsed: Result<&Arena<'_>, &ParseXmlError>) -> Report {
    let mut report = Report::new();
    let doc = match parsed {
        Ok(doc) => doc,
        Err(e) => {
            report.push(finding(
                "R9980",
                Severity::Failure,
                "message",
                format!("not well-formed XML: {e}"),
            ));
            return report;
        }
    };
    let root = doc.root();

    if !root.is_named(ns::SOAP_ENV, "Envelope") {
        report.push(finding(
            "R9980",
            Severity::Failure,
            "message",
            format!(
                "root is {} — expected a SOAP 1.1 Envelope",
                root.expanded_name()
            ),
        ));
        return report;
    }

    let Some(body) = root.element(ns::SOAP_ENV, "Body") else {
        report.push(finding(
            "R9980",
            Severity::Failure,
            "Envelope",
            "no soapenv:Body child",
        ));
        return report;
    };

    // Header, if present, must precede the Body.
    let mut saw_body = false;
    for child in root.child_elements() {
        if child.is_named(ns::SOAP_ENV, "Body") {
            saw_body = true;
        } else if child.is_named(ns::SOAP_ENV, "Header") && saw_body {
            report.push(finding(
                "R9980",
                Severity::Failure,
                "Envelope",
                "Header appears after Body",
            ));
        }
    }

    // R1005/R1007: encodingStyle is banned on literal messages.
    let offenders = root
        .descendants()
        .filter(|el| el.attrs().any(|a| a.local_name() == "encodingStyle"));
    for el in offenders {
        report.push(finding(
            "R1005",
            Severity::Failure,
            el.name(),
            "carries a soapenv:encodingStyle attribute",
        ));
    }

    // R1011: at most one Body child in doc/literal wrapped exchanges.
    let body_children: Vec<ElementRef<'_>> = body.child_elements().collect();
    let is_fault = |el: &ElementRef<'_>| el.is_named(ns::SOAP_ENV, "Fault");
    if body_children.len() > 1 && !body_children.iter().any(is_fault) {
        report.push(finding(
            "R1011",
            Severity::Warning,
            "Body",
            format!("{} children; wrapped doc/literal expects one", body_children.len()),
        ));
    }

    for child in body_children {
        if is_fault(&child) {
            check_fault(child, &mut report);
        } else if child.ns_uri().is_none() {
            // R1014: body children must be namespace-qualified.
            report.push(finding(
                "R1014",
                Severity::Failure,
                child.name(),
                "Body child is not namespace-qualified",
            ));
        }
    }
    report
}

fn check_fault(fault: ElementRef<'_>, report: &mut Report) {
    for required in ["faultcode", "faultstring"] {
        match fault.child_elements().find(|el| el.local_name() == required) {
            None => report.push(finding(
                "R1004",
                Severity::Failure,
                "Fault",
                format!("missing `{required}` child"),
            )),
            Some(el) if el.ns_uri().is_some() => report.push(finding(
                "R1004",
                Severity::Failure,
                "Fault",
                format!("`{required}` must be unqualified"),
            )),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_wsdl::builder::doc_literal_echo;
    use wsinterop_wsdl::soap;
    use wsinterop_xml::writer::{write_document, WriteOptions};
    use wsinterop_xsd::{BuiltIn, TypeRef};

    fn echo_request_xml() -> String {
        let defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        let doc = soap::request(&defs, "echo", "7").unwrap();
        write_document(&doc, &WriteOptions::compact())
    }

    #[test]
    fn canonical_request_is_conformant() {
        let report = check_message(&echo_request_xml());
        assert!(report.conformant(), "{report}");
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn fault_envelopes_are_conformant() {
        let xml = write_document(&soap::fault("Server", "boom"), &WriteOptions::compact());
        let report = check_message(&xml);
        assert!(report.conformant(), "{report}");
    }

    #[test]
    fn garbage_fails_r9980() {
        let report = check_message("this is not xml");
        assert!(report.failures().any(|f| f.assertion == "R9980"));
        let report = check_message("<html/>");
        assert!(report.failures().any(|f| f.assertion == "R9980"));
    }

    #[test]
    fn encoding_style_fails_r1005() {
        let xml = echo_request_xml().replace(
            "<soapenv:Body>",
            r#"<soapenv:Body soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/">"#,
        );
        let report = check_message(&xml);
        assert!(report.failures().any(|f| f.assertion == "R1005"), "{report}");
    }

    #[test]
    fn unqualified_body_child_fails_r1014() {
        let xml = r#"<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
            <soapenv:Body><bare/></soapenv:Body></soapenv:Envelope>"#;
        let report = check_message(xml);
        assert!(report.failures().any(|f| f.assertion == "R1014"), "{report}");
    }

    #[test]
    fn multiple_body_children_warn_r1011() {
        let xml = r#"<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
            <soapenv:Body xmlns:m="urn:t"><m:a/><m:b/></soapenv:Body></soapenv:Envelope>"#;
        let report = check_message(xml);
        assert!(report.conformant());
        assert!(report.warnings().any(|f| f.assertion == "R1011"), "{report}");
    }

    #[test]
    fn missing_body_fails() {
        let xml = r#"<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"/>"#;
        let report = check_message(xml);
        assert!(!report.conformant());
    }

    #[test]
    fn malformed_fault_fails_r1004() {
        let xml = r#"<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
            <soapenv:Body><soapenv:Fault><faultcode>soapenv:Server</faultcode></soapenv:Fault>
            </soapenv:Body></soapenv:Envelope>"#;
        let report = check_message(xml);
        assert!(report.failures().any(|f| f.assertion == "R1004"), "{report}");
    }

    #[test]
    fn exchange_traffic_is_message_conformant() {
        // Everything the workspace's own SOAP layer produces passes the
        // message profile.
        let defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::String));
        for value in ["plain", "with <escapes> & quotes", ""] {
            let doc = soap::request(&defs, "echo", value).unwrap();
            let xml = write_document(&doc, &WriteOptions::pretty());
            assert!(check_message(&xml).conformant(), "{value}");
        }
    }
}
