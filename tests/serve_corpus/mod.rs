//! The request corpus of the serving identity tests: every invocable
//! stride-20 survey service, each answered with its probe, generated
//! fuzz cases, hand-built shapes the generator never writes, error
//! paths, and descriptions whose output cannot be echoed.
//!
//! `tests/serve_identity.rs` pins the echo responses to this corpus and
//! `tests/message_identity.rs` pins what a client reads from them.

#![allow(dead_code)]

use wsinterop::core::exchange::SURVEY_PROBE;
use wsinterop::core::fuzz::{generate_case, GenLimits};
use wsinterop::core::wire::host_survey_services;
use wsinterop::wsdl::{soap, Definitions, PartKind};
use wsinterop::xml::name::ns;
use wsinterop::xml::writer::{write_document, WriteOptions};

pub const STRIDE: usize = 20;

/// Every invocable hosted service of the stride-20 survey: its path,
/// its description and the operation a stub binds to.
pub fn invocable() -> Vec<(String, Definitions, String)> {
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
pub fn envelope(payload: &str) -> String {
    format!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?><soapenv:Envelope \
         xmlns:soapenv=\"{}\"><soapenv:Body>{payload}</soapenv:Body></soapenv:Envelope>",
        ns::SOAP_ENV
    )
}

/// Requests the generator never writes, for operation `op` whose
/// wrapper is `wrapper` in namespace `uri` with first argument `arg`.
pub fn hand_built(wrapper: &str, uri: &str, arg: &str) -> Vec<String> {
    let w = |attrs: &str, content: &str| {
        envelope(&format!(
            "<m:{wrapper} xmlns:m=\"{uri}\"{attrs}>{content}</m:{wrapper}>"
        ))
    };
    let a = |attrs: &str, content: &str| format!("<m:{arg}{attrs}>{content}</m:{arg}>");
    let mut out = vec![
        // Foreign and default declarations on the payload wrapper; the
        // echoed value uses the foreign prefix on an attribute, which
        // the response must declare again.
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
        // The echoed value's children and attributes in the wrapper's
        // prefix, which the response must declare again.
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
pub fn error_paths(probe: &str) -> Vec<String> {
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
pub fn damaged_descriptions(defs: &Definitions, op: &str) -> Vec<Definitions> {
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
pub fn input_shape(defs: &Definitions, op: &str) -> Option<(String, String, String)> {
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

/// Visits every request of the corpus in a fixed order, with the
/// description that serves it and the value its echo should carry;
/// returns the number of services.
pub fn each_request(mut visit: impl FnMut(&Definitions, &str, &str)) -> usize {
    let compact = WriteOptions::compact();
    let limits = GenLimits::default();
    let services = invocable();
    for (_, defs, op) in &services {
        let probe = match soap::request(defs, op, SURVEY_PROBE) {
            Ok(doc) => write_document(&doc, &compact),
            Err(e) => {
                visit(defs, &e.to_string(), SURVEY_PROBE);
                continue;
            }
        };
        visit(defs, &probe, SURVEY_PROBE);
        for seed in 0..4u64 {
            match generate_case(defs, op, seed, None, &limits) {
                Ok(case) => visit(defs, &case.request_xml, &case.expected),
                Err(e) => visit(defs, &e.to_string(), SURVEY_PROBE),
            }
        }
        let shapes = input_shape(defs, op)
            .map(|(wrapper, uri, arg)| hand_built(&wrapper, &uri, &arg))
            .unwrap_or_default();
        for request in shapes.iter().chain(&error_paths(&probe)) {
            visit(defs, request, SURVEY_PROBE);
        }
        for damaged in damaged_descriptions(defs, op) {
            visit(&damaged, &probe, SURVEY_PROBE);
            visit(&damaged, &format!("{probe}<!-- trailing -->"), SURVEY_PROBE);
            // A value in a prefix the request declared on the wrapper:
            // its echo declares the prefix again, so under a
            // `{soapenv}Fault` wrapper it reads as a fault.
            if let Some(outer) = shapes.iter().find(|r| r.contains("<m:inner>")) {
                visit(&damaged, outer, SURVEY_PROBE);
            }
        }
    }
    services.len()
}
