//! SOAP 1.1 envelope construction and parsing for document/literal
//! exchanges.
//!
//! The reproduced study explicitly scopes out the Communication and
//! Execution steps, but a working message layer is part of any credible
//! web-service substrate; the examples use it to demonstrate what a
//! *successful* interop chain would go on to exchange.

use std::fmt;

use wsinterop_xml::name::ns;
use wsinterop_xml::{parse_arena, Arena, Document, Element, ElementRef, XmlWriter};

use crate::model::{Definitions, PartKind};

/// An error produced while building or reading SOAP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapError(String);

impl SoapError {
    fn new(message: impl Into<String>) -> SoapError {
        SoapError(message.into())
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SOAP error: {}", self.0)
    }
}

impl std::error::Error for SoapError {}

/// Wraps a payload element in a SOAP 1.1 envelope.
///
/// # Examples
///
/// ```
/// use wsinterop_wsdl::soap::envelope;
/// use wsinterop_xml::{Element, writer::{write_document, WriteOptions}};
/// let doc = envelope(Element::new("ping"));
/// let xml = write_document(&doc, &WriteOptions::compact());
/// assert!(xml.contains("soapenv:Envelope"));
/// assert!(xml.contains("<ping/>"));
/// ```
pub fn envelope(payload: Element) -> Document {
    let body = Element::new("soapenv:Body")
        .with_child(payload);
    Document::new(
        Element::new("soapenv:Envelope")
            .with_ns_decl(Some("soapenv"), ns::SOAP_ENV)
            .with_child(body),
    )
}

/// Resolves the doc/literal input wrapper of `op_name`: the wrapper
/// element declaration plus its namespace URI — the shared resolution
/// walk behind [`request`] and [`request_with_args`], exposed so
/// payload generators (the fuzz layer) can inspect the wrapper's
/// argument declaration before building structured content.
///
/// # Errors
///
/// Fails when the operation, its input message, or the wrapper element
/// cannot be resolved in `defs` — the same resolution steps a real
/// client stub performs before serializing a call.
pub fn input_wrapper<'a>(
    defs: &'a Definitions,
    op_name: &str,
) -> Result<(&'a wsinterop_xsd::ElementDecl, &'a str), SoapError> {
    let op = defs
        .find_operation(op_name)
        .ok_or_else(|| SoapError::new(format!("no operation `{op_name}` in port types")))?;
    let input = op
        .input
        .as_ref()
        .ok_or_else(|| SoapError::new(format!("operation `{op_name}` has no input")))?;
    let message = defs
        .message(&input.local)
        .ok_or_else(|| SoapError::new(format!("missing message `{}`", input.local)))?;
    let part = message
        .parts
        .first()
        .ok_or_else(|| SoapError::new(format!("message `{}` has no parts", message.name)))?;
    let wrapper_ref = match &part.kind {
        PartKind::Element(r) => r,
        PartKind::Type(_) => {
            return Err(SoapError::new(
                "rpc-style parts are not supported by the doc/literal message builder",
            ))
        }
    };
    let wrapper_decl = defs
        .resolve_part_element(part)
        .ok_or_else(|| SoapError::new(format!("unresolved wrapper element `{}`", wrapper_ref.local)))?;
    Ok((wrapper_decl, &wrapper_ref.ns_uri))
}

/// Builds a doc/literal-wrapped request for `op_name`, filling the
/// wrapper's first child element with `arg_text`.
///
/// # Errors
///
/// Same resolution failures as [`input_wrapper`].
pub fn request(defs: &Definitions, op_name: &str, arg_text: &str) -> Result<Document, SoapError> {
    let (wrapper_decl, _) = input_wrapper(defs, op_name)?;
    let mut args = Vec::new();
    if let Some(inline) = &wrapper_decl.inline {
        if let Some(wsinterop_xsd::Particle::Element(first)) =
            inline.content.particles.first()
        {
            args.push(Element::new(&format!("m:{}", first.name)).with_text(arg_text));
        }
    }
    request_with_args(defs, op_name, args)
}

/// Builds a doc/literal-wrapped request for `op_name` from
/// caller-supplied argument elements (already named `m:{arg}` in the
/// wrapper namespace, as [`request`] does). This is the structured
/// entry point the fuzz generator serializes through: nested content,
/// repeated arguments and adversarial text all pass through the same
/// envelope construction a nominal request uses.
///
/// # Errors
///
/// Same resolution failures as [`input_wrapper`].
pub fn request_with_args(
    defs: &Definitions,
    op_name: &str,
    args: Vec<Element>,
) -> Result<Document, SoapError> {
    let (wrapper_decl, ns_uri) = input_wrapper(defs, op_name)?;
    let mut wrapper = Element::new(&format!("m:{}", wrapper_decl.name))
        .with_ns_decl(Some("m"), ns_uri);
    for arg in args {
        wrapper.push_element(arg);
    }
    Ok(envelope(wrapper))
}

/// Parses a SOAP envelope into the arena [`body_payload`] reads.
///
/// # Errors
///
/// Fails when the input is not well-formed XML.
pub fn parse_envelope(xml: &str) -> Result<Arena<'_>, SoapError> {
    parse_arena(xml).map_err(|e| SoapError::new(e.to_string()))
}

/// The first payload element of a parsed SOAP envelope.
///
/// # Errors
///
/// Fails when the document is not an envelope or has an empty body.
pub fn body_payload<'a>(doc: &'a Arena<'a>) -> Result<ElementRef<'a>, SoapError> {
    let root = doc.root();
    if !root.is_named(ns::SOAP_ENV, "Envelope") {
        return Err(SoapError::new(format!(
            "expected soapenv:Envelope, found {}",
            root.expanded_name()
        )));
    }
    let body = root
        .element(ns::SOAP_ENV, "Body")
        .ok_or_else(|| SoapError::new("envelope has no Body"))?;
    let first = body.child_elements().next();
    first.ok_or_else(|| SoapError::new("Body is empty"))
}

/// Builds a SOAP 1.1 fault envelope (`faultcode`/`faultstring`).
pub fn fault(code: &str, reason: &str) -> Document {
    let fault = Element::new("soapenv:Fault")
        .with_child(Element::new("faultcode").with_text(format!("soapenv:{code}")))
        .with_child(Element::new("faultstring").with_text(reason));
    envelope(fault)
}

/// Writes the start of an [`envelope`] document, the `soapenv:Envelope`
/// and `soapenv:Body` start tags, leaving both open for the payload.
pub fn open_envelope(w: &mut XmlWriter<'_>) {
    w.open_prefixed("soapenv", "Envelope")
        .attr_prefixed(Some("xmlns"), "soapenv", ns::SOAP_ENV);
    w.open_prefixed("soapenv", "Body");
}

/// Writes the whole [`fault`] envelope without building its tree.
pub fn write_fault(w: &mut XmlWriter<'_>, code: &str, reason: &str) {
    open_envelope(w);
    w.open_prefixed("soapenv", "Fault")
        .text_element("faultcode", &format!("soapenv:{code}"))
        .text_element("faultstring", reason);
    w.close().close().close();
}

/// Returns `true` when the envelope carries a SOAP fault.
pub fn is_fault(xml: &str) -> bool {
    parse_envelope(xml).is_ok_and(|doc| {
        body_payload(&doc).is_ok_and(|el| el.is_named(ns::SOAP_ENV, "Fault"))
    })
}

/// Extracts the text of the first child of the payload wrapper — the
/// doc/literal "echoed value" in the study's canonical services.
///
/// # Errors
///
/// Fails when the input is not well-formed XML, not an envelope, has an
/// empty body, or its wrapper holds no element.
pub fn unwrap_single_value(xml: &str) -> Result<String, SoapError> {
    single_value(body_payload(&parse_envelope(xml)?)?)
}

/// The text of the first child element of a payload wrapper.
///
/// # Errors
///
/// Fails when the wrapper holds no element.
pub fn single_value(wrapper: ElementRef<'_>) -> Result<String, SoapError> {
    let first = wrapper
        .child_elements()
        .next()
        .ok_or_else(|| SoapError::new("wrapper has no value element"))?;
    Ok(first.text_content())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::doc_literal_echo;
    use wsinterop_xml::writer::{write_document, WriteOptions};
    use wsinterop_xsd::{BuiltIn, TypeRef};

    fn xml_of(doc: &Document) -> String {
        write_document(doc, &WriteOptions::compact())
    }

    #[test]
    fn request_builds_wrapped_payload() {
        let defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        let doc = request(&defs, "echo", "42").unwrap();
        let xml = xml_of(&doc);
        assert!(xml.contains("<m:echo"), "{xml}");
        assert!(xml.contains("<m:arg0>42</m:arg0>"), "{xml}");
    }

    #[test]
    fn request_fails_for_unknown_operation() {
        let defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        assert!(request(&defs, "nope", "x").is_err());
    }

    #[test]
    fn request_fails_for_operation_less_document() {
        let mut defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        defs.port_types[0].operations.clear();
        assert!(request(&defs, "echo", "1").is_err());
    }

    #[test]
    fn payload_roundtrip() {
        let defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        let xml = xml_of(&request(&defs, "echo", "7").unwrap());
        let doc = parse_envelope(&xml).unwrap();
        assert_eq!(body_payload(&doc).unwrap().local_name(), "echo");
        assert_eq!(unwrap_single_value(&xml).unwrap(), "7");
    }

    #[test]
    fn fault_envelope_detected() {
        let doc = fault("Server", "boom");
        let xml = xml_of(&doc);
        assert!(is_fault(&xml));
        assert!(!is_fault(&xml_of(&envelope(Element::new("ok")))));
    }

    #[test]
    fn written_faults_match_the_fault_tree() {
        let opts = WriteOptions::compact();
        for (code, reason) in [("Client", "boom"), ("Server", ""), ("Server", "a<b & \"c\" ]]>")] {
            let mut w = XmlWriter::document(&opts);
            write_fault(&mut w, code, reason);
            assert_eq!(w.finish(), xml_of(&fault(code, reason)));
        }
    }

    #[test]
    fn payload_rejects_non_envelope() {
        assert!(parse_envelope("not xml").is_err());
        let doc = parse_envelope("<x/>").unwrap();
        assert!(body_payload(&doc).is_err());
    }

    #[test]
    fn payload_rejects_empty_body() {
        let xml = r#"<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Body/></soapenv:Envelope>"#;
        let doc = parse_envelope(xml).unwrap();
        assert_eq!(body_payload(&doc).unwrap_err().to_string(), "SOAP error: Body is empty");
    }
}
