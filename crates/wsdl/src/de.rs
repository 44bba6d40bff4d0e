//! Parsing of WSDL XML documents into [`Definitions`].
//!
//! This is the consumption path every simulated client tool goes
//! through: raw bytes → XML arena → `Definitions`. The arena borrows
//! the text and is dropped as soon as the definitions are read. Errors
//! here model the "cannot process the service description at all"
//! failure class.

use std::fmt;

use wsinterop_xml::name::ns;
use wsinterop_xml::scope::NsBindings;
use wsinterop_xml::{parse_arena, ElementRef, ParseXmlError};
use wsinterop_xsd::de::schema_from_element;

use crate::model::{
    Binding, BindingOperation, Definitions, ExtensionAttr, Fault, Message, NameRef, Operation,
    Part, PartKind, Port, PortType, Service, SoapBinding, Style, Use,
};

/// An error produced while reading a WSDL document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsdlReadError {
    /// The bytes were not well-formed XML.
    Xml(ParseXmlError),
    /// The XML was well-formed but not a readable WSDL document.
    Structure(String),
}

impl WsdlReadError {
    fn structure(message: impl Into<String>) -> WsdlReadError {
        WsdlReadError::Structure(message.into())
    }
}

impl fmt::Display for WsdlReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsdlReadError::Xml(e) => write!(f, "WSDL is not well-formed XML: {e}"),
            WsdlReadError::Structure(m) => write!(f, "invalid WSDL structure: {m}"),
        }
    }
}

impl std::error::Error for WsdlReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WsdlReadError::Xml(e) => Some(e),
            WsdlReadError::Structure(_) => None,
        }
    }
}

impl From<ParseXmlError> for WsdlReadError {
    fn from(e: ParseXmlError) -> Self {
        WsdlReadError::Xml(e)
    }
}

/// Parses WSDL text into [`Definitions`].
///
/// # Errors
///
/// Returns [`WsdlReadError::Xml`] for malformed XML and
/// [`WsdlReadError::Structure`] for well-formed documents that are not
/// readable WSDL (wrong root, unresolvable QNames, malformed schema).
///
/// # Examples
///
/// ```
/// use wsinterop_wsdl::{builder::doc_literal_echo, ser::to_xml_string, de::from_xml_str};
/// use wsinterop_xsd::{BuiltIn, TypeRef};
/// let defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
/// let xml = to_xml_string(&defs);
/// let back = from_xml_str(&xml)?;
/// assert_eq!(back, defs);
/// # Ok::<(), wsinterop_wsdl::de::WsdlReadError>(())
/// ```
pub fn from_xml_str(xml: &str) -> Result<Definitions, WsdlReadError> {
    let doc = parse_arena(xml)?;
    from_element(doc.root())
}

/// Parses an already-parsed `wsdl:definitions` element.
///
/// # Errors
///
/// See [`from_xml_str`].
pub fn from_element(root: ElementRef<'_>) -> Result<Definitions, WsdlReadError> {
    if !root.is_named(ns::WSDL, "definitions") {
        return Err(WsdlReadError::structure(format!(
            "expected wsdl:definitions, found {}",
            root.expanded_name()
        )));
    }
    let mut scope = NsBindings::new();
    scope.push_element(root);

    let target_ns = root.attr("targetNamespace").unwrap_or_default().to_string();
    let mut defs = Definitions::new(&target_ns);
    defs.name = root.attr("name").map(str::to_string);

    for child in root.child_elements() {
        if child.ns_uri() != Some(ns::WSDL) {
            continue;
        }
        match child.local_name() {
            "types" => {
                scope.push_element(child);
                for schema_el in child.elements(ns::XSD, "schema") {
                    let schema = schema_from_element(schema_el, &scope)
                        .map_err(|e| WsdlReadError::structure(e.to_string()))?;
                    if schema.target_ns == ns::XSD {
                        // Writing a schema FOR the XSD namespace itself is
                        // how self-referential DataSet documents break
                        // strict consumers; tolerate it at parse level.
                    }
                    defs.schemas.push(schema);
                    // Detect whether the emitter used the .NET `s:` prefix
                    // (observable by clients in error messages).
                    if schema_el.prefix() == Some("s") {
                        defs.dotnet_prefixes = true;
                    }
                }
                scope.pop();
            }
            "message" => defs.messages.push(read_message(child, &mut scope)?),
            "portType" => defs.port_types.push(read_port_type(child, &mut scope)?),
            "binding" => defs.bindings.push(read_binding(child, &mut scope)?),
            "service" => defs.services.push(read_service(child, &mut scope)?),
            "documentation" | "import" => {}
            other => {
                return Err(WsdlReadError::structure(format!(
                    "unsupported wsdl construct `wsdl:{other}`"
                )))
            }
        }
    }
    Ok(defs)
}

fn require_name(el: ElementRef<'_>, what: &str) -> Result<String, WsdlReadError> {
    el.attr("name")
        .map(str::to_string)
        .ok_or_else(|| WsdlReadError::structure(format!("{what} without a name attribute")))
}

fn resolve_ref(
    el: ElementRef<'_>,
    attr: &str,
    scope: &NsBindings,
) -> Result<NameRef, WsdlReadError> {
    let raw = el.attr(attr).ok_or_else(|| {
        WsdlReadError::structure(format!(
            "wsdl:{} missing `{attr}` attribute",
            el.local_name()
        ))
    })?;
    let (ns_uri, local) = scope.resolve_qname_value(raw).ok_or_else(|| {
        WsdlReadError::structure(format!("cannot resolve QName `{raw}`"))
    })?;
    Ok(NameRef::new(ns_uri.unwrap_or_default(), local))
}

fn read_message<'a>(
    el: ElementRef<'a>,
    scope: &mut NsBindings<'a>,
) -> Result<Message, WsdlReadError> {
    scope.push_element(el);
    let result = (|| {
        let name = require_name(el, "wsdl:message")?;
        let mut parts = Vec::new();
        for part_el in el.elements(ns::WSDL, "part") {
            scope.push_element(part_el);
            let part = (|| {
                let part_name = require_name(part_el, "wsdl:part")?;
                let kind = if part_el.attr("element").is_some() {
                    PartKind::Element(resolve_ref(part_el, "element", scope)?)
                } else if let Some(raw) = part_el.attr("type") {
                    let (ns_uri, local) =
                        scope.resolve_qname_value(raw).ok_or_else(|| {
                            WsdlReadError::structure(format!("cannot resolve QName `{raw}`"))
                        })?;
                    let type_ref = match ns_uri {
                        Some(uri) if uri == ns::XSD => local
                            .parse::<wsinterop_xsd::BuiltIn>()
                            .map(wsinterop_xsd::TypeRef::BuiltIn)
                            .map_err(|e| WsdlReadError::structure(e.to_string()))?,
                        Some(uri) => wsinterop_xsd::TypeRef::named(uri, local),
                        None => wsinterop_xsd::TypeRef::named("", local),
                    };
                    PartKind::Type(type_ref)
                } else {
                    return Err(WsdlReadError::structure(format!(
                        "wsdl:part `{part_name}` has neither element nor type"
                    )));
                };
                Ok(Part {
                    name: part_name,
                    kind,
                })
            })();
            scope.pop();
            parts.push(part?);
        }
        Ok(Message { name, parts })
    })();
    scope.pop();
    result
}

fn read_port_type<'a>(
    el: ElementRef<'a>,
    scope: &mut NsBindings<'a>,
) -> Result<PortType, WsdlReadError> {
    scope.push_element(el);
    let result = (|| {
        let name = require_name(el, "wsdl:portType")?;
        let mut operations = Vec::new();
        for op_el in el.elements(ns::WSDL, "operation") {
            scope.push_element(op_el);
            let op = (|| -> Result<Operation, WsdlReadError> {
                let op_name = require_name(op_el, "wsdl:operation")?;
                let input = match op_el.element(ns::WSDL, "input") {
                    Some(i) => Some(resolve_ref(i, "message", scope)?),
                    None => None,
                };
                let output = match op_el.element(ns::WSDL, "output") {
                    Some(o) => Some(resolve_ref(o, "message", scope)?),
                    None => None,
                };
                let mut faults = Vec::new();
                for f in op_el.elements(ns::WSDL, "fault") {
                    faults.push(Fault {
                        name: require_name(f, "wsdl:fault")?,
                        message: resolve_ref(f, "message", scope)?,
                    });
                }
                Ok(Operation {
                    name: op_name,
                    input,
                    output,
                    faults,
                })
            })();
            scope.pop();
            operations.push(op?);
        }
        Ok(PortType { name, operations })
    })();
    scope.pop();
    result
}

fn read_binding<'a>(
    el: ElementRef<'a>,
    scope: &mut NsBindings<'a>,
) -> Result<Binding, WsdlReadError> {
    scope.push_element(el);
    let result = (|| {
        let name = require_name(el, "wsdl:binding")?;
        let port_type = resolve_ref(el, "type", scope)?;

        let mut extension_attrs = Vec::new();
        for attr in el.attrs() {
            if let Some(prefix) = attr.prefix() {
                if prefix != "xmlns" {
                    if let Some(uri) = scope.resolve(Some(prefix)) {
                        if uri != ns::WSDL {
                            extension_attrs.push(ExtensionAttr {
                                ns_uri: uri.to_string(),
                                lexical: attr.name().to_string(),
                                value: attr.value().to_string(),
                            });
                        }
                    }
                }
            }
        }

        let soap = el.element(ns::WSDL_SOAP, "binding").map(|soap_el| SoapBinding {
            style: match soap_el.attr("style") {
                Some("rpc") => Style::Rpc,
                _ => Style::Document,
            },
            transport: soap_el.attr("transport").unwrap_or_default().to_string(),
        });

        let mut operations = Vec::new();
        for op_el in el.elements(ns::WSDL, "operation") {
            let op_name = require_name(op_el, "wsdl:operation (binding)")?;
            let soap_op = op_el.element(ns::WSDL_SOAP, "operation");
            let read_use = |io: Option<ElementRef<'_>>| -> Use {
                io.and_then(|e| e.element(ns::WSDL_SOAP, "body"))
                    .and_then(|b| b.attr("use"))
                    .map(|u| if u == "encoded" { Use::Encoded } else { Use::Literal })
                    .unwrap_or_default()
            };
            operations.push(BindingOperation {
                name: op_name,
                soap_action: soap_op
                    .map(|o| o.attr("soapAction").unwrap_or_default().to_string()),
                style: soap_op.and_then(|o| o.attr("style")).map(|s| {
                    if s == "rpc" {
                        Style::Rpc
                    } else {
                        Style::Document
                    }
                }),
                input_use: read_use(op_el.element(ns::WSDL, "input")),
                output_use: read_use(op_el.element(ns::WSDL, "output")),
            });
        }
        Ok(Binding {
            name,
            port_type,
            soap,
            operations,
            extension_attrs,
        })
    })();
    scope.pop();
    result
}

fn read_service<'a>(
    el: ElementRef<'a>,
    scope: &mut NsBindings<'a>,
) -> Result<Service, WsdlReadError> {
    scope.push_element(el);
    let result = (|| {
        let name = require_name(el, "wsdl:service")?;
        let mut ports = Vec::new();
        for port_el in el.elements(ns::WSDL, "port") {
            scope.push_element(port_el);
            let port = (|| -> Result<Port, WsdlReadError> {
                Ok(Port {
                    name: require_name(port_el, "wsdl:port")?,
                    binding: resolve_ref(port_el, "binding", scope)?,
                    address: port_el
                        .element(ns::WSDL_SOAP, "address")
                        .and_then(|a| a.attr("location"))
                        .map(str::to_string),
                })
            })();
            scope.pop();
            ports.push(port?);
        }
        Ok(Service { name, ports })
    })();
    scope.pop();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{doc_literal_echo, DocLiteralBuilder};
    use crate::ser::to_xml_string;
    use wsinterop_xsd::{BuiltIn, ComplexType, TypeRef};

    #[test]
    fn roundtrip_echo() {
        let defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::String));
        let back = from_xml_str(&to_xml_string(&defs)).unwrap();
        assert_eq!(back, defs);
    }

    #[test]
    fn roundtrip_with_faults_and_extensions() {
        let mut defs = DocLiteralBuilder::new("S", "urn:t")
            .operation("op", TypeRef::BuiltIn(BuiltIn::Int), TypeRef::BuiltIn(BuiltIn::Long))
            .fault("Oops", ComplexType::anonymous())
            .build();
        defs.bindings[0].extension_attrs.push(ExtensionAttr {
            ns_uri: ns::WSAW.to_string(),
            lexical: "wsaw:UsingAddressing".to_string(),
            value: "true".to_string(),
        });
        let back = from_xml_str(&to_xml_string(&defs)).unwrap();
        assert_eq!(back, defs);
    }

    #[test]
    fn roundtrip_dotnet_prefixes() {
        let mut defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        defs.dotnet_prefixes = true;
        let back = from_xml_str(&to_xml_string(&defs)).unwrap();
        assert_eq!(back, defs);
    }

    #[test]
    fn rejects_non_wsdl_root() {
        let err = from_xml_str("<html/>").unwrap_err();
        assert!(matches!(err, WsdlReadError::Structure(_)));
    }

    #[test]
    fn rejects_malformed_xml() {
        let err = from_xml_str("<wsdl:definitions").unwrap_err();
        assert!(matches!(err, WsdlReadError::Xml(_)));
    }

    #[test]
    fn operation_less_port_type_parses() {
        // The JBossWS bug shape: portType with zero operations must be
        // *parseable* — whether tools accept it is their policy.
        let xml = r#"<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
              targetNamespace="urn:t">
              <wsdl:portType name="Empty"/>
            </wsdl:definitions>"#;
        let defs = from_xml_str(xml).unwrap();
        assert_eq!(defs.port_types[0].operations.len(), 0);
        assert_eq!(defs.operation_count(), 0);
    }

    #[test]
    fn missing_part_target_is_error() {
        let xml = r#"<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
              targetNamespace="urn:t">
              <wsdl:message name="m"><wsdl:part name="p"/></wsdl:message>
            </wsdl:definitions>"#;
        let err = from_xml_str(xml).unwrap_err();
        assert!(err.to_string().contains("neither element nor type"));
    }

    #[test]
    fn unresolvable_message_qname_is_error() {
        let xml = r#"<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
              targetNamespace="urn:t">
              <wsdl:portType name="p">
                <wsdl:operation name="o"><wsdl:input message="ghost:m"/></wsdl:operation>
              </wsdl:portType>
            </wsdl:definitions>"#;
        let err = from_xml_str(xml).unwrap_err();
        assert!(err.to_string().contains("ghost:m"));
    }

    #[test]
    fn binding_without_soap_extension() {
        let xml = r#"<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
              xmlns:tns="urn:t" targetNamespace="urn:t">
              <wsdl:portType name="p"/>
              <wsdl:binding name="b" type="tns:p"/>
            </wsdl:definitions>"#;
        let defs = from_xml_str(xml).unwrap();
        assert!(defs.bindings[0].soap.is_none());
    }
}
