//! Identity of what a client reads from a SOAP envelope: the WS-I
//! message check, the exchange classification and the typed payload.
//!
//! Every exchange ends in `classify_response`, which runs the Basic
//! Profile message check (`wsi::message::check_message`), detects a
//! fault, reads its reason and unwraps the echoed value. These digests
//! pin, as text:
//!
//! * the `Display` of `check_message` and the `Debug` of
//!   `classify_response` for every request and echo response of the
//!   serving corpus (`tests/serve_corpus`);
//! * both again for hand-built envelopes that reach each branch of the
//!   message check (R9980, Header after Body, R1005, R1011, R1014,
//!   R1004) and of the classification (fault reason, empty Body,
//!   wrapper without a value, echo mismatch, completed);
//! * the `Debug` of `values::typed_payload_value` for every stride-20
//!   survey service with a typed echo parameter: its sample request,
//!   the echo of it, a nil value, and, where the type allows, a bean
//!   missing its first field and an enumeration outside its constants.

mod serve_corpus;

use serve_corpus::{envelope, STRIDE};
use wsinterop::core::exchange::{classify_response, serve_echo};
use wsinterop::core::wire::host_survey_services;
use wsinterop::typecat::rng::fnv1a;
use wsinterop::wsdl::builder::DocLiteralBuilder;
use wsinterop::wsdl::values::{self, Value};
use wsinterop::wsdl::{soap, Definitions};
use wsinterop::wsi::message::check_message;
use wsinterop::xml::name::ns;
use wsinterop::xml::writer::{write_document, WriteOptions};
use wsinterop::xml::{Element, Node};
use wsinterop::xsd::{BuiltIn, ComplexType, ElementDecl, Particle, SimpleType, TypeRef};

/// Folds `text` into a running digest.
fn fold(digest: u64, text: &str) -> u64 {
    fnv1a([&digest.to_le_bytes()[..], text.as_bytes()].concat())
}

/// Folds what a client reads from `response`, an answer to `request`
/// that should echo `value`.
fn fold_read(digest: u64, request: &str, response: &str, value: &str) -> u64 {
    let digest = fold(digest, &check_message(response).to_string());
    fold(
        digest,
        &format!("{:?}", classify_response(request, response, value)),
    )
}

#[test]
fn corpus_reads_are_identical() {
    let mut digest = fnv1a(b"");
    let mut exchanges = 0usize;
    serve_corpus::each_request(|defs, request, expected| {
        let response = serve_echo(defs, request);
        digest = fold(digest, &check_message(request).to_string());
        digest = fold_read(digest, request, &response, expected);
        exchanges += 1;
    });
    assert_eq!(exchanges, 18_928);
    assert_eq!(digest, 0xef3c_3bae_e921_ffa1, "digest {digest:#018x}");
}

/// A SOAP 1.1 envelope around `body`, with `body_attrs` on the `Body`.
fn raw_envelope(body_attrs: &str, body: &str) -> String {
    format!(
        "<soapenv:Envelope xmlns:soapenv=\"{}\"><soapenv:Body{body_attrs}>{body}\
         </soapenv:Body></soapenv:Envelope>",
        ns::SOAP_ENV
    )
}

/// Envelopes that reach each branch of the message check and of the
/// response classification.
fn branch_envelopes() -> Vec<String> {
    let fault = |inner: &str| format!("<soapenv:Fault>{inner}</soapenv:Fault>");
    let code_and_reason = "<faultcode>soapenv:Server</faultcode><faultstring>boom</faultstring>";
    let echo = |value: &str| format!("<m:echoResponse xmlns:m=\"urn:t\">{value}</m:echoResponse>");
    let write = |doc| write_document(&doc, &WriteOptions::compact());
    vec![
        // R9980: not XML, a foreign root, no Body, a tampered namespace.
        "not xml".to_string(),
        String::new(),
        "<x/>".to_string(),
        "<m:Envelope xmlns:m=\"urn:not-soap\"><m:Body/></m:Envelope>".to_string(),
        format!("<soapenv:Envelope xmlns:soapenv=\"{}\"/>", ns::SOAP_ENV),
        format!(
            "<soapenv:Envelope xmlns:soapenv=\"{}\"><soapenv:Header/></soapenv:Envelope>",
            ns::SOAP_ENV
        ),
        // Header after Body, and before it.
        format!(
            "<soapenv:Envelope xmlns:soapenv=\"{0}\"><soapenv:Body>{1}</soapenv:Body>\
             <soapenv:Header/></soapenv:Envelope>",
            ns::SOAP_ENV,
            echo("<return>v</return>")
        ),
        format!(
            "<soapenv:Envelope xmlns:soapenv=\"{0}\"><soapenv:Header><h>1</h></soapenv:Header>\
             <soapenv:Body>{1}</soapenv:Body></soapenv:Envelope>",
            ns::SOAP_ENV,
            echo("<return>v</return>")
        ),
        // R1005 on the Body, on a nested element, and on a declaration.
        raw_envelope(
            " soapenv:encodingStyle=\"http://schemas.xmlsoap.org/soap/encoding/\"",
            &echo("<return>v</return>"),
        ),
        raw_envelope("", &echo("<return encodingStyle=\"x\">v</return>")),
        raw_envelope("", &echo("<return xmlns:encodingStyle=\"urn:e\">v</return>")),
        // R1011 without and with a Fault sibling, in both orders.
        raw_envelope("", &format!("{}{}", echo("<return>v</return>"), echo(""))),
        raw_envelope("", &format!("{}{}", fault(code_and_reason), echo(""))),
        raw_envelope("", &format!("{}{}", echo("<return>v</return>"), fault(code_and_reason))),
        // R1014: an unqualified Body child, and a default-namespace one.
        raw_envelope("", "<bare><return>v</return></bare>"),
        raw_envelope("", "<echoResponse xmlns=\"urn:t\"><return>v</return></echoResponse>"),
        // R1004: missing and qualified children.
        raw_envelope("", &fault("")),
        raw_envelope("", &fault("<faultcode>soapenv:Server</faultcode>")),
        raw_envelope("", &fault("<faultstring>only a reason</faultstring>")),
        raw_envelope(
            "",
            &fault("<soapenv:faultcode>soapenv:Client</soapenv:faultcode><faultstring>q</faultstring>"),
        ),
        raw_envelope(
            "",
            &fault("<faultcode>soapenv:Client</faultcode><faultstring xmlns=\"urn:q\">q</faultstring>"),
        ),
        // Faults the classification reads a reason from.
        write(soap::fault("Server", "boom")),
        write(soap::fault("Client", "a <b> & \"c\"")),
        raw_envelope("", &fault("<faultcode>soapenv:Server</faultcode>\n<faultstring>x<!--c--><![CDATA[y]]></faultstring><detail><d>z</d></detail>")),
        // An empty Body, with only text or a comment, and an empty wrapper.
        raw_envelope("", ""),
        raw_envelope("", "text only<!-- c -->"),
        raw_envelope("", &echo("")),
        raw_envelope("", &echo("no value element")),
        // Echoes that match, mismatch, nest and escape.
        raw_envelope("", &echo("<return>v</return>")),
        raw_envelope("", &echo("<return>w</return><second>v</second>")),
        raw_envelope("", &echo("<return>a<b>c</b><![CDATA[d]]>&amp;e</return>")),
        raw_envelope("", &echo("<return/>")),
        envelope(&echo("<return>v</return>")),
        format!("\u{feff}<!-- prolog --><?pi data?>{}", raw_envelope("", &echo("<return>v</return>"))),
    ]
}

#[test]
fn branch_envelope_reads_are_identical() {
    let mut digest = fnv1a(b"");
    for xml in branch_envelopes() {
        digest = fold_read(digest, "req", &xml, "v");
    }
    assert_eq!(digest, 0x50f7_3825_fe2a_82fe, "digest {digest:#018x}");
}

/// A parameter element inside `op`'s wrapper, enveloped the way
/// `values::typed_request` does but without validating it; `xsi`
/// declares that prefix on the wrapper.
fn typed_envelope(defs: &Definitions, op: &str, param: Element, xsi: bool) -> String {
    let (decl, uri) = soap::input_wrapper(defs, op).expect("a resolvable wrapper");
    let mut wrapper = Element::new(&decl.name)
        .with_ns_decl(None, uri);
    if xsi {
        wrapper.declare_ns(Some("xsi"), ns::XSI);
    }
    let wrapper = wrapper.with_child(param);
    write_document(&soap::envelope(wrapper), &WriteOptions::compact())
}

/// The name of the wrapper's first parameter element.
fn param_name(defs: &Definitions, op: &str) -> String {
    let (decl, _) = soap::input_wrapper(defs, op).expect("a resolvable wrapper");
    match decl
        .inline
        .as_ref()
        .and_then(|i| i.content.particles.first())
    {
        Some(wsinterop::xsd::Particle::Element(el)) => el.name.clone(),
        _ => "arg0".to_string(),
    }
}

/// What `values::typed_payload_value` reads, as text, from envelopes
/// around `defs`'s echo parameter of type `ty`: the sample value, its
/// request and echo, a bean missing its first field or an enumeration
/// outside its constants, and a nil without and with `xsi` declared.
fn typed_reads(defs: &Definitions, op: &str, ty: &TypeRef) -> Vec<String> {
    let name = param_name(defs, op);
    let sample = values::sample_value(defs, ty);
    let mut reads = vec![format!("{sample:?}")];
    let mut read = |xml: &str| reads.push(format!("{:?}", values::typed_payload_value(defs, xml)));
    if let Ok(sample) = &sample {
        match values::typed_request(defs, op, sample) {
            Ok(doc) => {
                let request = write_document(&doc, &WriteOptions::compact());
                read(&request);
                read(&serve_echo(defs, &request));
            }
            Err(e) => read(&e.to_string()),
        }
        match (sample, values::marshal(defs, ty, &name, sample)) {
            (Value::Struct(fields), Ok(full)) if !fields.is_empty() => {
                let mut cut = Element::new(&name);
                for kid in full
                    .children()
                    .iter()
                    .filter(|n| matches!(n, Node::Element(_)))
                    .skip(1)
                {
                    cut.push_node(kid.clone());
                }
                read(&typed_envelope(defs, op, cut, false));
            }
            (Value::Enum(constant), _) => {
                let bad = Element::new(&name).with_text(format!("NOT_{constant}"));
                read(&typed_envelope(defs, op, bad, false));
            }
            _ => {}
        }
    }
    let nil = values::marshal(defs, ty, &name, &Value::Nil).expect("nil always marshals");
    // `marshal` writes `xsi:nil` without declaring `xsi`.
    read(&typed_envelope(defs, op, nil.clone(), false));
    read(&typed_envelope(defs, op, nil, true));
    reads
}

/// An echo service over a bean with an enumeration field, and one
/// whose parameter is the enumeration itself.
fn enum_services() -> Vec<Definitions> {
    let status = || SimpleType {
        name: "Status".into(),
        base: BuiltIn::String,
        enumeration: vec!["OPEN".into(), "CLOSED".into()],
    };
    let order = ComplexType::named("Order")
        .with_particle(Particle::Element(ElementDecl::typed(
            "id",
            TypeRef::BuiltIn(BuiltIn::Long),
        )))
        .with_particle(Particle::Element(ElementDecl::typed(
            "status",
            TypeRef::named("urn:o", "Status"),
        )));
    [("Order", vec![order]), ("Status", vec![])]
        .into_iter()
        .map(|(param, types)| {
            let ty = TypeRef::named("urn:o", param);
            let mut defs = DocLiteralBuilder::new("OrderService", "urn:o")
                .operation_with_types("echo", ty.clone(), ty, types)
                .build();
            defs.schemas[0].simple_types.push(status());
            defs
        })
        .collect()
}

#[test]
fn typed_payload_values_are_identical() {
    let mut digest = fnv1a(b"");
    let mut typed = 0usize;
    let survey = host_survey_services(STRIDE)
        .into_values()
        .filter_map(|hosted| hosted.defs.ok());
    for defs in survey.chain(enum_services()) {
        let Some(ty) = values::echo_parameter_type(&defs) else {
            continue;
        };
        let op = defs
            .port_types
            .iter()
            .flat_map(|pt| pt.operations.iter())
            .next();
        let Some(op) = op.map(|op| op.name.clone()) else {
            continue;
        };
        if soap::input_wrapper(&defs, &op).is_err() {
            continue;
        }
        typed += 1;
        for text in typed_reads(&defs, &op, &ty) {
            digest = fold(digest, &text);
        }
    }
    assert_eq!(typed, 366, "typed services");
    assert_eq!(digest, 0x6c59_0e81_76b2_9275, "digest {digest:#018x}");
}
