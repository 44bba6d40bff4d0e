//! Shared binding rules: how a platform class becomes a service
//! description.
//!
//! All three simulated servers publish the study's canonical service
//! shape — one `echo` operation whose input and output have the class's
//! type — but each framework's documented quirks change *how* certain
//! classes are rendered into schema. Everything here produces plain
//! [`Definitions`]; no flag travels beyond the emitted document.

use wsinterop_typecat::{FieldKind, Quirk, TypeEntry};
use wsinterop_wsdl::builder::DocLiteralBuilder;
use wsinterop_wsdl::Definitions;
use wsinterop_xsd::{
    AttributeDecl, BuiltIn, ComplexType, ElementDecl, Particle, TypeRef,
};

/// Maps a catalog field kind to its XSD built-in.
pub fn field_builtin(kind: FieldKind) -> BuiltIn {
    match kind {
        FieldKind::Text => BuiltIn::String,
        FieldKind::Integer => BuiltIn::Int,
        FieldKind::Long => BuiltIn::Long,
        FieldKind::Flag => BuiltIn::Boolean,
        FieldKind::Real => BuiltIn::Double,
        FieldKind::Timestamp => BuiltIn::DateTime,
        FieldKind::Binary => BuiltIn::Base64Binary,
    }
}

/// Target namespace for a deployed service.
pub fn service_ns(server_tag: &str, entry: &TypeEntry) -> String {
    const SCHEME: &str = "http://";
    const HOST: &str = ".wsinterop.example/";
    let (package, simple_name) = (entry.package(), entry.simple_name());
    let mut ns = String::with_capacity(
        SCHEME.len() + server_tag.len() + HOST.len() + package.len() + 1 + simple_name.len(),
    );
    ns.push_str(SCHEME);
    ns.push_str(server_tag);
    ns.push_str(HOST);
    // The package path, one `/` per `.`, then the class.
    for segment in package.split('.') {
        ns.push_str(segment);
        ns.push('/');
    }
    ns.push_str(simple_name);
    ns
}

/// Renders the class as a named complex type following the shared bean
/// rules:
///
/// * `Throwable`-derived classes expose an inherited `message` element
///   first (this is the shape Axis1's fault-wrapper heuristic keys on);
/// * [`Quirk::VbNameCollision`] / [`Quirk::WebControlsCollision`]
///   classes expose a case-colliding element pair (`text` / `Text`),
///   legal in XML but fatal for case-insensitive consumers;
/// * [`Quirk::JscriptTransportGap`] classes lead with a `base64Binary`
///   payload element;
/// * [`Quirk::XmlCalendar`] classes expose a `gYearMonth` element — the
///   exotic temporal built-in Axis2 mishandles.
pub fn bean_complex_type(entry: &TypeEntry) -> ComplexType {
    let mut ct = ComplexType::named(entry.simple_name());
    if entry.is_throwable {
        ct = ct.with_particle(Particle::Element(
            ElementDecl::typed("message", TypeRef::BuiltIn(BuiltIn::String)).min(0),
        ));
    }
    if entry.has_quirk(Quirk::VbNameCollision) || entry.has_quirk(Quirk::WebControlsCollision) {
        ct = ct
            .with_particle(Particle::Element(
                ElementDecl::typed("text", TypeRef::BuiltIn(BuiltIn::String)).min(0),
            ))
            .with_particle(Particle::Element(
                ElementDecl::typed("Text", TypeRef::BuiltIn(BuiltIn::String)).min(0),
            ));
    }
    if entry.has_quirk(Quirk::JscriptTransportGap) {
        ct = ct.with_particle(Particle::Element(
            ElementDecl::typed("payload", TypeRef::BuiltIn(BuiltIn::Base64Binary)).min(0),
        ));
    }
    if entry.has_quirk(Quirk::XmlCalendar) {
        ct = ct.with_particle(Particle::Element(
            ElementDecl::typed("yearMonth", TypeRef::BuiltIn(BuiltIn::GYearMonth)).min(0),
        ));
    }
    for field in &entry.fields {
        ct = ct.with_particle(Particle::Element(
            ElementDecl::typed(field.name, TypeRef::BuiltIn(field_builtin(field.kind))).min(0),
        ));
    }
    ct
}

/// The canonical doc/literal echo service for a bean class.
pub fn plain_echo(entry: &TypeEntry, server_tag: &str, dotnet: bool) -> Definitions {
    let tns = service_ns(server_tag, entry);
    let bean = bean_complex_type(entry);
    let type_ref = TypeRef::named(&tns, entry.simple_name());
    let mut builder = DocLiteralBuilder::new(format!("{}Service", entry.simple_name()), &tns)
        .operation_with_types("echo", type_ref.clone(), type_ref, vec![bean]);
    if dotnet {
        builder = builder.dotnet_prefixes();
    }
    builder.build()
}

/// Adds the WS-Addressing damage: an import of the addressing
/// namespace **without** a `schemaLocation`. The caller decides whether
/// the document then references the namespace via a *type* (Metro) or
/// an *element ref* (JBossWS).
pub const ADDRESSING_NS: &str = "http://www.w3.org/2005/08/addressing";

/// Attribute declaration for the `.NET` `s:lang` emission — a reference
/// into the XSD namespace itself, which no consumer can resolve.
pub fn s_lang_attr() -> AttributeDecl {
    AttributeDecl::Ref {
        ns_uri: wsinterop_xml::name::ns::XSD.to_string(),
        local: "lang".to_string(),
    }
}

/// Particle for the `.NET` `ref="s:schema"` emission.
pub fn s_schema_ref() -> Particle {
    Particle::ElementRef {
        ns_uri: wsinterop_xml::name::ns::XSD.to_string(),
        local: "schema".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_typecat::Catalog;

    #[test]
    fn field_kinds_map_to_distinct_builtins() {
        let kinds = [
            FieldKind::Text,
            FieldKind::Integer,
            FieldKind::Long,
            FieldKind::Flag,
            FieldKind::Real,
            FieldKind::Timestamp,
            FieldKind::Binary,
        ];
        let mut builtins: Vec<_> = kinds.into_iter().map(field_builtin).collect();
        builtins.sort();
        builtins.dedup();
        assert_eq!(builtins.len(), kinds.len());
    }

    #[test]
    fn throwable_bean_leads_with_message() {
        let catalog = Catalog::java_se7();
        let exception = catalog.get("java.lang.Exception").unwrap();
        let ct = bean_complex_type(exception);
        match &ct.content.particles[0] {
            Particle::Element(e) => assert_eq!(e.name, "message"),
            other => panic!("expected element, got {other:?}"),
        }
    }

    #[test]
    fn vb_collision_bean_has_case_pair() {
        let catalog = Catalog::java_se7();
        let insets = catalog.get("java.awt.Insets").unwrap();
        let ct = bean_complex_type(insets);
        let names: Vec<&str> = ct
            .content
            .particles
            .iter()
            .filter_map(|p| match p {
                Particle::Element(e) => Some(e.name.as_str()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"text"));
        assert!(names.contains(&"Text"));
    }

    #[test]
    fn transport_gap_bean_has_binary_payload() {
        let catalog = Catalog::java_se7();
        let entry = catalog
            .with_quirk(Quirk::JscriptTransportGap)
            .next()
            .unwrap();
        let ct = bean_complex_type(entry);
        let has_binary = ct.content.particles.iter().any(|p| {
            matches!(p, Particle::Element(e)
                if e.type_ref == Some(TypeRef::BuiltIn(BuiltIn::Base64Binary)))
        });
        assert!(has_binary);
    }

    #[test]
    fn plain_echo_is_wsi_clean() {
        let catalog = Catalog::java_se7();
        let entry = catalog.get("java.lang.String").unwrap();
        let defs = plain_echo(entry, "metro", false);
        let report = wsinterop_wsi::Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn service_ns_is_per_class() {
        let catalog = Catalog::java_se7();
        let a = service_ns("metro", catalog.get("java.lang.String").unwrap());
        let b = service_ns("metro", catalog.get("java.util.Date").unwrap());
        assert_eq!(a, "http://metro.wsinterop.example/java/lang/String");
        assert_ne!(a, b);
        assert!(a.starts_with("http://metro.wsinterop.example/"));
    }
}
