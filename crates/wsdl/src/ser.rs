//! Serialization of [`Definitions`] to a WSDL XML document, streamed
//! through an [`XmlWriter`] with no intermediate tree.

use wsinterop_xml::name::ns;
use wsinterop_xml::writer::{WriteOptions, XmlWriter};
use wsinterop_xsd::ser::{write_schema, SerOptions};
use wsinterop_xsd::TypeRef;

use crate::model::{
    Binding, BindingOperation, Definitions, Message, NameRef, Operation, PartKind, PortType,
    Service,
};

/// Serializes the definitions to a complete XML document string.
///
/// # Examples
///
/// ```
/// use wsinterop_wsdl::builder::doc_literal_echo;
/// use wsinterop_wsdl::ser::to_xml_string;
/// use wsinterop_xsd::{BuiltIn, TypeRef};
/// let defs = doc_literal_echo("EchoService", "urn:echo", "echo", TypeRef::BuiltIn(BuiltIn::Int));
/// let xml = to_xml_string(&defs);
/// assert!(xml.contains("wsdl:definitions"));
/// assert!(xml.contains("soap:binding"));
/// ```
pub fn to_xml_string(defs: &Definitions) -> String {
    let opts = WriteOptions::pretty();
    let mut w = XmlWriter::document(&opts);
    write_definitions(&mut w, defs);
    w.finish()
}

/// Writes the definitions as a `wsdl:definitions` element.
fn write_definitions(w: &mut XmlWriter<'_>, defs: &Definitions) {
    let ctx = Ctx::new(defs);
    let fixed = [
        ("wsdl", ns::WSDL),
        ("soap", ns::WSDL_SOAP),
        (ctx.schema.xsd_prefix.as_str(), ns::XSD),
        ("tns", defs.target_ns.as_str()),
    ];
    let extra = ctx
        .schema
        .extra
        .iter()
        .map(|(uri, p)| (p.as_str(), uri.as_str()));
    w.open("wsdl:definitions").attrs_replacing(
        fixed
            .into_iter()
            .chain(extra)
            .map(|(p, uri)| (Some("xmlns"), p, uri)),
    );
    if let Some(name) = &defs.name {
        w.attr("name", name);
    }
    w.attr("targetNamespace", &defs.target_ns);

    if !defs.schemas.is_empty() {
        w.open("wsdl:types");
        for schema in &defs.schemas {
            write_schema(w, schema, &ctx.schema);
        }
        w.close();
    }
    for message in &defs.messages {
        write_message(w, message, &ctx);
    }
    for port_type in &defs.port_types {
        write_port_type(w, port_type, &ctx);
    }
    for binding in &defs.bindings {
        write_binding(w, binding, &ctx);
    }
    for service in &defs.services {
        write_service(w, service, &ctx);
    }
    w.close();
}

struct Ctx<'d> {
    target_ns: &'d str,
    /// The prefixes every embedded schema is written with. Prefixes are
    /// declared on `wsdl:definitions`, but schemas re-declare them so
    /// they stay valid when extracted.
    schema: SerOptions,
}

impl<'d> Ctx<'d> {
    fn new(defs: &'d Definitions) -> Ctx<'d> {
        let mut extra: Vec<(String, String)> = Vec::new();
        let mut counter = 1;
        let mut note = |uri: &str, extra: &mut Vec<(String, String)>, preferred: Option<&str>| {
            if uri == defs.target_ns || uri == ns::XSD || uri == ns::WSDL || uri == ns::WSDL_SOAP {
                return;
            }
            if extra.iter().any(|(u, _)| u == uri) {
                return;
            }
            let prefix = preferred.map(str::to_string).unwrap_or_else(|| {
                let p = format!("ns{counter}");
                counter += 1;
                p
            });
            extra.push((uri.to_string(), prefix));
        };
        for schema in &defs.schemas {
            for import in &schema.imports {
                note(&import.namespace, &mut extra, None);
            }
            if schema.target_ns != defs.target_ns {
                note(&schema.target_ns, &mut extra, None);
            }
        }
        for binding in &defs.bindings {
            for attr in &binding.extension_attrs {
                let preferred = attr
                    .lexical
                    .split_once(':')
                    .map(|(prefix, _)| prefix)
                    .filter(|p| !p.is_empty());
                note(&attr.ns_uri, &mut extra, preferred);
            }
        }
        Ctx {
            target_ns: &defs.target_ns,
            schema: SerOptions {
                xsd_prefix: if defs.dotnet_prefixes { "s" } else { "xsd" }.to_string(),
                tns_prefix: "tns".to_string(),
                extra,
                declare_namespaces: true,
            },
        }
    }

    /// The prefix a reference into `uri` is written with; `None` writes
    /// the bare local name.
    fn prefix(&self, uri: &str) -> Option<&str> {
        if uri == self.target_ns {
            Some("tns")
        } else if uri == ns::XSD {
            Some(&self.schema.xsd_prefix)
        } else {
            self.schema
                .extra
                .iter()
                .find(|(u, _)| u == uri)
                .map(|(_, p)| p.as_str())
        }
    }

    fn qname_attr(&self, w: &mut XmlWriter<'_>, name: &str, r: &NameRef) {
        w.attr_qname(name, self.prefix(&r.ns_uri), &r.local);
    }

    fn type_attr(&self, w: &mut XmlWriter<'_>, name: &str, r: &TypeRef) {
        match r {
            TypeRef::BuiltIn(b) => {
                w.attr_qname(name, Some(&self.schema.xsd_prefix), b.xsd_name());
            }
            TypeRef::Named { ns_uri, local } => {
                w.attr_qname(name, self.prefix(ns_uri), local);
            }
        }
    }
}

fn write_message(w: &mut XmlWriter<'_>, message: &Message, ctx: &Ctx) {
    w.open("wsdl:message").attr("name", &message.name);
    for part in &message.parts {
        w.open("wsdl:part").attr("name", &part.name);
        match &part.kind {
            PartKind::Element(r) => ctx.qname_attr(w, "element", r),
            PartKind::Type(r) => ctx.type_attr(w, "type", r),
        }
        w.close();
    }
    w.close();
}

fn write_operation(w: &mut XmlWriter<'_>, op: &Operation, ctx: &Ctx) {
    w.open("wsdl:operation").attr("name", &op.name);
    if let Some(input) = &op.input {
        w.open("wsdl:input");
        ctx.qname_attr(w, "message", input);
        w.close();
    }
    if let Some(output) = &op.output {
        w.open("wsdl:output");
        ctx.qname_attr(w, "message", output);
        w.close();
    }
    for fault in &op.faults {
        w.open("wsdl:fault").attr("name", &fault.name);
        ctx.qname_attr(w, "message", &fault.message);
        w.close();
    }
    w.close();
}

fn write_port_type(w: &mut XmlWriter<'_>, port_type: &PortType, ctx: &Ctx) {
    w.open("wsdl:portType").attr("name", &port_type.name);
    for op in &port_type.operations {
        write_operation(w, op, ctx);
    }
    w.close();
}

fn write_binding_operation(w: &mut XmlWriter<'_>, op: &BindingOperation) {
    w.open("wsdl:operation").attr("name", &op.name);
    if let Some(action) = &op.soap_action {
        w.open("soap:operation").attr("soapAction", action);
        if let Some(style) = op.style {
            w.attr("style", style.as_str());
        }
        w.close();
    }
    for (io, body_use) in [("wsdl:input", op.input_use), ("wsdl:output", op.output_use)] {
        w.open(io);
        w.open("soap:body").attr("use", body_use.as_str()).close();
        w.close();
    }
    w.close();
}

fn write_binding(w: &mut XmlWriter<'_>, binding: &Binding, ctx: &Ctx) {
    // An extension attribute may repeat a name, even `name` or `type`:
    // the name keeps its first position and takes the last value.
    let extension = &binding.extension_attrs;
    let last_value = |name: &str| {
        extension
            .iter()
            .rev()
            .find(|a| a.lexical == name)
            .map(|a| a.value.as_str())
    };
    w.open("wsdl:binding")
        .attr("name", last_value("name").unwrap_or(&binding.name));
    match last_value("type") {
        Some(value) => {
            w.attr("type", value);
        }
        None => ctx.qname_attr(w, "type", &binding.port_type),
    }
    w.attrs_replacing(
        extension
            .iter()
            .filter(|a| a.lexical != "name" && a.lexical != "type")
            .map(|a| (None, a.lexical.as_str(), a.value.as_str())),
    );
    if let Some(soap) = &binding.soap {
        w.open("soap:binding")
            .attr("transport", &soap.transport)
            .attr("style", soap.style.as_str())
            .close();
    }
    for op in &binding.operations {
        write_binding_operation(w, op);
    }
    w.close();
}

fn write_service(w: &mut XmlWriter<'_>, service: &Service, ctx: &Ctx) {
    w.open("wsdl:service").attr("name", &service.name);
    for port in &service.ports {
        w.open("wsdl:port").attr("name", &port.name);
        ctx.qname_attr(w, "binding", &port.binding);
        if let Some(location) = &port.address {
            w.open("soap:address").attr("location", location).close();
        }
        w.close();
    }
    w.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::doc_literal_echo;
    use wsinterop_xsd::{BuiltIn, TypeRef};

    #[test]
    fn document_has_all_sections() {
        let defs = doc_literal_echo("EchoService", "urn:echo", "echo", TypeRef::BuiltIn(BuiltIn::String));
        let xml = to_xml_string(&defs);
        for needle in [
            "wsdl:types",
            "wsdl:message",
            "wsdl:portType",
            "wsdl:binding",
            "wsdl:service",
            "soap:address",
            r#"targetNamespace="urn:echo""#,
        ] {
            assert!(xml.contains(needle), "missing {needle} in:\n{xml}");
        }
    }

    #[test]
    fn dotnet_prefixes_use_s() {
        let mut defs =
            doc_literal_echo("EchoService", "urn:echo", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        defs.dotnet_prefixes = true;
        let xml = to_xml_string(&defs);
        assert!(xml.contains("xmlns:s="), "{xml}");
        assert!(xml.contains("<s:schema"), "{xml}");
    }

    #[test]
    fn repeated_binding_attributes_keep_the_first_position_and_the_last_value() {
        let mut defs =
            doc_literal_echo("EchoService", "urn:echo", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        for (lexical, value) in [("wsaw:A", "1"), ("name", "Renamed"), ("wsaw:A", "2")] {
            defs.bindings[0].extension_attrs.push(crate::model::ExtensionAttr {
                ns_uri: ns::WSAW.to_string(),
                lexical: lexical.to_string(),
                value: value.to_string(),
            });
        }
        let xml = to_xml_string(&defs);
        assert!(
            xml.contains(r#"<wsdl:binding name="Renamed" type="tns:EchoServicePortType" wsaw:A="2">"#),
            "{xml}"
        );
    }

    #[test]
    fn extension_attrs_get_declared() {
        let mut defs =
            doc_literal_echo("EchoService", "urn:echo", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        defs.bindings[0].extension_attrs.push(crate::model::ExtensionAttr {
            ns_uri: ns::WSAW.to_string(),
            lexical: "wsaw:UsingAddressing".to_string(),
            value: "true".to_string(),
        });
        let xml = to_xml_string(&defs);
        assert!(xml.contains("xmlns:wsaw="), "{xml}");
        assert!(xml.contains(r#"wsaw:UsingAddressing="true""#), "{xml}");
    }
}
