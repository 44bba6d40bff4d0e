//! The Basic Profile 1.1 assertion set implemented by the analyzer.
//!
//! Assertion identifiers follow the WS-I Basic Profile 1.1 numbering
//! where a direct counterpart exists (R2701, R2702, R2705, R2706,
//! R2745, R2204, R2718); document-resolution assertions are labelled
//! with the profile's schema-reference requirement family (R2105,
//! R2102, R2106), and two advisory checks carry `EXT` identifiers — in
//! particular `EXT0001`, which implements the paper's recommendation
//! that operation-less port types be flagged at generation time.

use wsinterop_wsdl::{Definitions, PartKind, Style, Use};
use wsinterop_xml::name::ns;
use wsinterop_xsd::Particle;

use crate::report::{Finding, Report, Severity};
use crate::resolve::{walk_schema_refs, SymbolTable};

/// A single profile assertion.
pub trait Assertion: Send + Sync {
    /// Stable identifier (`R2706`).
    fn id(&self) -> &'static str;
    /// One-line description.
    fn description(&self) -> &'static str;
    /// Runs the check, appending findings.
    fn check(&self, defs: &Definitions, table: &SymbolTable<'_>, report: &mut Report);
}

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

/// R2701: a `wsdl:binding` must include a `soap:binding` extension.
pub struct SoapBindingPresent;

impl Assertion for SoapBindingPresent {
    fn id(&self) -> &'static str {
        "R2701"
    }
    fn description(&self) -> &'static str {
        "wsdl:binding must use the WSDL SOAP binding (soap:binding child)"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            if binding.soap.is_none() {
                report.push(finding(
                    self.id(),
                    Severity::Failure,
                    format!("binding `{}`", binding.name),
                    "no soap:binding extension element",
                ));
            }
        }
    }
}

/// R2702: `soap:binding/@transport` must be the SOAP-over-HTTP URI.
pub struct HttpTransport;

impl Assertion for HttpTransport {
    fn id(&self) -> &'static str {
        "R2702"
    }
    fn description(&self) -> &'static str {
        "soap:binding transport must be the HTTP transport URI"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            if let Some(soap) = &binding.soap {
                if soap.transport != ns::SOAP_HTTP_TRANSPORT {
                    report.push(finding(
                        self.id(),
                        Severity::Failure,
                        format!("binding `{}`", binding.name),
                        format!("transport is `{}`", soap.transport),
                    ));
                }
            }
        }
    }
}

/// R2705: a binding must not mix document and rpc styles.
pub struct ConsistentStyle;

impl Assertion for ConsistentStyle {
    fn id(&self) -> &'static str {
        "R2705"
    }
    fn description(&self) -> &'static str {
        "all operations of a binding must share one style"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            let default_style = binding
                .soap
                .as_ref()
                .map(|s| s.style)
                .unwrap_or(Style::Document);
            let mut styles: Vec<Style> = binding
                .operations
                .iter()
                .map(|op| op.style.unwrap_or(default_style))
                .collect();
            styles.dedup();
            if styles.len() > 1 {
                report.push(finding(
                    self.id(),
                    Severity::Failure,
                    format!("binding `{}`", binding.name),
                    "operations mix document and rpc styles",
                ));
            }
        }
    }
}

/// R2706: `soap:body/@use` must be `literal`.
pub struct LiteralUse;

impl Assertion for LiteralUse {
    fn id(&self) -> &'static str {
        "R2706"
    }
    fn description(&self) -> &'static str {
        "soap:body use must be literal (encoded is disallowed)"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            for op in &binding.operations {
                if op.input_use == Use::Encoded || op.output_use == Use::Encoded {
                    report.push(finding(
                        self.id(),
                        Severity::Failure,
                        format!("binding `{}` operation `{}`", binding.name, op.name),
                        "uses SOAP encoding",
                    ));
                }
            }
        }
    }
}

/// R2745: each bound operation must carry a `soap:operation` with a
/// (possibly empty) `soapAction` attribute.
///
/// The simulated JBossWS emitter drops `soap:operation` for certain
/// types — this is the assertion those documents fail.
pub struct SoapActionPresent;

impl Assertion for SoapActionPresent {
    fn id(&self) -> &'static str {
        "R2745"
    }
    fn description(&self) -> &'static str {
        "binding operations must declare soap:operation/@soapAction"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            for op in &binding.operations {
                if op.soap_action.is_none() {
                    report.push(finding(
                        self.id(),
                        Severity::Failure,
                        format!("binding `{}` operation `{}`", binding.name, op.name),
                        "no soap:operation extension (soapAction missing)",
                    ));
                }
            }
        }
    }
}

/// R2204: in a document-literal binding, every part must reference a
/// global element (not a type).
pub struct DocLiteralElementParts;

impl Assertion for DocLiteralElementParts {
    fn id(&self) -> &'static str {
        "R2204"
    }
    fn description(&self) -> &'static str {
        "document-literal parts must reference element declarations"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        // Determine which messages participate in document-style bindings.
        for binding in &defs.bindings {
            let style = binding
                .soap
                .as_ref()
                .map(|s| s.style)
                .unwrap_or(Style::Document);
            if style != Style::Document {
                continue;
            }
            let Some(port_type) = defs.port_type(&binding.port_type.local) else {
                continue;
            };
            for op in &port_type.operations {
                for message_ref in op.input.iter().chain(op.output.iter()) {
                    let Some(message) = defs.message(&message_ref.local) else {
                        continue;
                    };
                    for part in &message.parts {
                        if matches!(part.kind, PartKind::Type(_)) {
                            report.push(finding(
                                self.id(),
                                Severity::Failure,
                                format!("message `{}` part `{}`", message.name, part.name),
                                "doc-literal part uses type= instead of element=",
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// R2203: in an **rpc**-literal binding, every part must reference a
/// *type* (the mirror image of R2204).
pub struct RpcLiteralTypeParts;

impl Assertion for RpcLiteralTypeParts {
    fn id(&self) -> &'static str {
        "R2203"
    }
    fn description(&self) -> &'static str {
        "rpc-literal parts must reference type definitions"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            let style = binding
                .soap
                .as_ref()
                .map(|s| s.style)
                .unwrap_or(Style::Document);
            if style != Style::Rpc {
                continue;
            }
            let Some(port_type) = defs.port_type(&binding.port_type.local) else {
                continue;
            };
            for op in &port_type.operations {
                for message_ref in op.input.iter().chain(op.output.iter()) {
                    let Some(message) = defs.message(&message_ref.local) else {
                        continue;
                    };
                    for part in &message.parts {
                        if matches!(part.kind, PartKind::Element(_)) {
                            report.push(finding(
                                self.id(),
                                Severity::Failure,
                                format!("message `{}` part `{}`", message.name, part.name),
                                "rpc-literal part uses element= instead of type=",
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// R2105 family: every referenced global element must be defined —
/// message parts and `<xsd:element ref>` particles alike. This is the
/// assertion the `.NET` `ref="s:schema"` DataSet documents fail.
pub struct ElementRefsResolve;

impl Assertion for ElementRefsResolve {
    fn id(&self) -> &'static str {
        "R2105"
    }
    fn description(&self) -> &'static str {
        "all element references must resolve to a declaration"
    }
    fn check(&self, defs: &Definitions, table: &SymbolTable<'_>, report: &mut Report) {
        for message in &defs.messages {
            for part in &message.parts {
                if let PartKind::Element(r) = &part.kind {
                    if !table.has_element(&r.ns_uri, &r.local) {
                        report.push(finding(
                            self.id(),
                            Severity::Failure,
                            format!("message `{}` part `{}`", message.name, part.name),
                            format!("references undeclared element `{{{}}}{}`", r.ns_uri, r.local),
                        ));
                    }
                }
            }
        }
        for schema in &defs.schemas {
            walk_schema_refs(
                schema,
                &mut |_, _| {},
                &mut |where_, ns_uri, local| {
                    if !table.has_element(ns_uri, local) {
                        report.push(finding(
                            self.id(),
                            Severity::Failure,
                            where_.to_string(),
                            format!("element ref `{{{ns_uri}}}{local}` does not resolve"),
                        ));
                    }
                },
                &mut |_, _, _| {},
            );
        }
    }
}

/// R2102 family: every referenced named *type* must be defined inline or
/// imported with a resolvable location. The JAX-WS `W3CEndpointReference`
/// documents — which import the WS-Addressing namespace **without** a
/// `schemaLocation` — fail here.
pub struct TypeRefsResolve;

impl Assertion for TypeRefsResolve {
    fn id(&self) -> &'static str {
        "R2102"
    }
    fn description(&self) -> &'static str {
        "all type references must resolve to a definition"
    }
    fn check(&self, defs: &Definitions, table: &SymbolTable<'_>, report: &mut Report) {
        for schema in &defs.schemas {
            walk_schema_refs(
                schema,
                &mut |type_ref, where_| {
                    if !table.type_resolves(type_ref) {
                        let extra = match type_ref {
                            wsinterop_xsd::TypeRef::Named { ns_uri, .. }
                                if table.imported_without_location(ns_uri) =>
                            {
                                " (namespace imported without schemaLocation)"
                            }
                            _ => "",
                        };
                        report.push(finding(
                            self.id(),
                            Severity::Failure,
                            where_.to_string(),
                            format!(
                                "type `{}` does not resolve{extra}",
                                type_ref.local_name()
                            ),
                        ));
                    }
                },
                &mut |_, _, _| {},
                &mut |_, _, _| {},
            );
        }
    }
}

/// R2106 family: attribute references must resolve. The `.NET`
/// `ref="s:lang"` emission fails here.
pub struct AttributeRefsResolve;

impl Assertion for AttributeRefsResolve {
    fn id(&self) -> &'static str {
        "R2106"
    }
    fn description(&self) -> &'static str {
        "all attribute references must resolve to a declaration"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for schema in &defs.schemas {
            walk_schema_refs(
                schema,
                &mut |_, _| {},
                &mut |_, _, _| {},
                &mut |where_, ns_uri, local| {
                    // The only global attributes that exist without a
                    // schema are xml:lang/xml:space; anything else —
                    // including refs into the XSD namespace itself — is
                    // unresolvable.
                    let resolvable = ns_uri == ns::XML && (local == "lang" || local == "space");
                    if !resolvable {
                        report.push(finding(
                            self.id(),
                            Severity::Failure,
                            where_.to_string(),
                            format!("attribute ref `{{{ns_uri}}}{local}` does not resolve"),
                        ));
                    }
                },
            );
        }
    }
}

/// R2304: operations within a port type must have distinct names
/// (WSDL 1.1 overloading is disallowed by the profile).
pub struct UniqueOperationNames;

impl Assertion for UniqueOperationNames {
    fn id(&self) -> &'static str {
        "R2304"
    }
    fn description(&self) -> &'static str {
        "port-type operations must have unique names"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for port_type in &defs.port_types {
            let mut seen = std::collections::HashSet::new();
            for op in &port_type.operations {
                if !seen.insert(op.name.as_str()) {
                    report.push(finding(
                        self.id(),
                        Severity::Failure,
                        format!("portType `{}`", port_type.name),
                        format!("operation `{}` is overloaded", op.name),
                    ));
                }
            }
        }
    }
}

/// R2201: a document-literal binding must use **at most one** part per
/// message.
pub struct DocLiteralSinglePart;

impl Assertion for DocLiteralSinglePart {
    fn id(&self) -> &'static str {
        "R2201"
    }
    fn description(&self) -> &'static str {
        "document-literal messages must have at most one part"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            let style = binding
                .soap
                .as_ref()
                .map(|s| s.style)
                .unwrap_or(Style::Document);
            if style != Style::Document {
                continue;
            }
            let Some(port_type) = defs.port_type(&binding.port_type.local) else {
                continue;
            };
            for op in &port_type.operations {
                for message_ref in op.input.iter().chain(op.output.iter()) {
                    let Some(message) = defs.message(&message_ref.local) else {
                        continue;
                    };
                    if message.parts.len() > 1 {
                        report.push(finding(
                            self.id(),
                            Severity::Failure,
                            format!("message `{}`", message.name),
                            format!("{} parts under a document binding", message.parts.len()),
                        ));
                    }
                }
            }
        }
    }
}

/// R2718: a binding must bind exactly the operations of its port type.
pub struct BindingMatchesPortType;

impl Assertion for BindingMatchesPortType {
    fn id(&self) -> &'static str {
        "R2718"
    }
    fn description(&self) -> &'static str {
        "binding operation set must match the port type"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            let Some(port_type) = defs.port_type(&binding.port_type.local) else {
                report.push(finding(
                    self.id(),
                    Severity::Failure,
                    format!("binding `{}`", binding.name),
                    format!("bound port type `{}` is not defined", binding.port_type.local),
                ));
                continue;
            };
            for op in &port_type.operations {
                if !binding.operations.iter().any(|b| b.name == op.name) {
                    report.push(finding(
                        self.id(),
                        Severity::Warning,
                        format!("binding `{}`", binding.name),
                        format!("port-type operation `{}` is not bound", op.name),
                    ));
                }
            }
            for op in &binding.operations {
                if !port_type.operations.iter().any(|p| p.name == op.name) {
                    report.push(finding(
                        self.id(),
                        Severity::Warning,
                        format!("binding `{}`", binding.name),
                        format!("bound operation `{}` does not exist in the port type", op.name),
                    ));
                }
            }
        }
    }
}

/// EXT0001 (advisory, this study's recommendation): flag port types
/// that declare **zero operations**. The WSDL schema allows them
/// (`minOccurs=0`), the WS-I analyzer passes them, and the paper argues
/// that tools should at least warn — so this assertion reports a
/// warning without affecting conformance.
pub struct OperationsPresent;

impl Assertion for OperationsPresent {
    fn id(&self) -> &'static str {
        "EXT0001"
    }
    fn description(&self) -> &'static str {
        "port types should declare at least one operation (advisory)"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for port_type in &defs.port_types {
            if port_type.operations.is_empty() {
                report.push(finding(
                    self.id(),
                    Severity::Warning,
                    format!("portType `{}`", port_type.name),
                    "declares no operations; generated clients will be unusable",
                ));
            }
        }
    }
}

/// EXT0002 (advisory): note the presence of `xsd:any` wildcards in
/// message wrappers. Conformant per the profile, but a known
/// cross-platform hazard (the paper's DataTable case).
pub struct WildcardNote;

impl Assertion for WildcardNote {
    fn id(&self) -> &'static str {
        "EXT0002"
    }
    fn description(&self) -> &'static str {
        "note xsd:any wildcards in message content (advisory)"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for schema in &defs.schemas {
            for el in &schema.elements {
                if let Some(inline) = &el.inline {
                    if inline
                        .content
                        .particles
                        .iter()
                        .any(|p| matches!(p, Particle::Any { .. }))
                    {
                        report.push(finding(
                            self.id(),
                            Severity::Note,
                            format!("element `{}`", el.name),
                            "wrapper content model contains xsd:any",
                        ));
                    }
                }
            }
        }
    }
}

/// R2711-family: every `wsdl:port` must carry a `soap:address`.
pub struct SoapAddressPresent;

impl Assertion for SoapAddressPresent {
    fn id(&self) -> &'static str {
        "R2711"
    }
    fn description(&self) -> &'static str {
        "service ports must include a soap:address extension"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for service in &defs.services {
            for port in &service.ports {
                if port.address.is_none() {
                    report.push(finding(
                        self.id(),
                        Severity::Failure,
                        format!("service `{}` port `{}`", service.name, port.name),
                        "no soap:address extension",
                    ));
                }
            }
        }
    }
}

/// EXT0003 (advisory): extension attributes from unrecognized
/// namespaces on bindings (e.g. WS-Addressing `wsaw:UsingAddressing`)
/// are flagged as warnings — consumers without addressing support will
/// surface these differently.
pub struct ForeignExtensionAttrs;

impl Assertion for ForeignExtensionAttrs {
    fn id(&self) -> &'static str {
        "EXT0003"
    }
    fn description(&self) -> &'static str {
        "note foreign extension attributes on bindings (advisory)"
    }
    fn check(&self, defs: &Definitions, _table: &SymbolTable<'_>, report: &mut Report) {
        for binding in &defs.bindings {
            for attr in &binding.extension_attrs {
                report.push(finding(
                    self.id(),
                    Severity::Warning,
                    format!("binding `{}`", binding.name),
                    format!("extension attribute `{}` from `{}`", attr.lexical, attr.ns_uri),
                ));
            }
        }
    }
}

/// The full assertion set of the profile, in check order.
pub fn basic_profile_1_1() -> Vec<Box<dyn Assertion>> {
    vec![
        Box::new(SoapBindingPresent),
        Box::new(HttpTransport),
        Box::new(ConsistentStyle),
        Box::new(LiteralUse),
        Box::new(SoapActionPresent),
        Box::new(DocLiteralElementParts),
        Box::new(RpcLiteralTypeParts),
        Box::new(UniqueOperationNames),
        Box::new(DocLiteralSinglePart),
        Box::new(ElementRefsResolve),
        Box::new(TypeRefsResolve),
        Box::new(AttributeRefsResolve),
        Box::new(BindingMatchesPortType),
        Box::new(OperationsPresent),
        Box::new(WildcardNote),
        Box::new(SoapAddressPresent),
        Box::new(ForeignExtensionAttrs),
    ]
}
