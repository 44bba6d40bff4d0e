//! The simulated Oracle Metro 2.3 server subsystem (GlassFish 4.0).

use wsinterop_typecat::{Catalog, Quirk, TypeEntry};
use wsinterop_wsdl::ser::to_xml_string;
use wsinterop_wsdl::{ExtensionAttr, PartKind};
use wsinterop_xml::name::ns;
use wsinterop_xsd::{ElementDecl, Import, TypeRef};

use super::binding::{bean_complex_type, plain_echo, service_ns, ADDRESSING_NS};
use super::{DeployOutcome, ServerId, ServerInfo, ServerSubsystem};

/// Oracle Metro 2.3 on GlassFish 4.0.
///
/// Documented behaviours reproduced here:
///
/// * refuses any class the JAXB binder cannot handle (interfaces,
///   abstract classes, generics, missing no-arg constructors) —
///   including the JAX-WS async infrastructure types, which is the
///   *correct* behaviour the paper contrasts with JBossWS;
/// * for [`Quirk::WsAddressing`] classes publishes a WSDL that imports
///   the WS-Addressing namespace without a `schemaLocation` and types
///   the wrapper field with an `EndpointReferenceType` from that
///   namespace (fails WS-I R2102);
/// * for [`Quirk::TextFormat`] classes publishes a document-style WSDL
///   whose message parts use `type=` instead of `element=` (fails WS-I
///   R2204).
#[derive(Debug, Default, Clone, Copy)]
pub struct Metro;

impl ServerSubsystem for Metro {
    fn info(&self) -> ServerInfo {
        ServerInfo {
            id: ServerId::Metro,
            app_server: "GlassFish 4.0",
            framework: "Metro 2.3",
            language: "Java",
        }
    }

    fn catalog(&self) -> &'static Catalog {
        Catalog::java_se7()
    }

    fn deploy(&self, entry: &TypeEntry) -> DeployOutcome {
        if !entry.is_bean_bindable() {
            return DeployOutcome::Refused {
                reason: format!(
                    "JAXB cannot bind `{}`: {:?} with {} type parameter(s){}",
                    entry.fqcn,
                    entry.kind,
                    entry.generic_arity,
                    if entry.has_default_ctor {
                        ""
                    } else {
                        ", no default constructor"
                    }
                ),
            };
        }

        let mut defs = plain_echo(entry, "metro", false);

        if entry.has_quirk(Quirk::WsAddressing) {
            // Import without schemaLocation + wrapper typed from the
            // imported namespace: the classic JAX-WS wsaddressing WSDL.
            let schema = &mut defs.schemas[0];
            schema.imports.push(Import {
                namespace: ADDRESSING_NS.to_string(),
                schema_location: None,
            });
            schema.elements.push(ElementDecl::typed(
                "endpointReference",
                TypeRef::named(ADDRESSING_NS, "EndpointReferenceType"),
            ));
            defs.bindings[0].extension_attrs.push(ExtensionAttr {
                ns_uri: ns::WSAW.to_string(),
                lexical: "wsaw:UsingAddressing".to_string(),
                value: "true".to_string(),
            });
        }

        if entry.has_quirk(Quirk::TextFormat) {
            // Rewrite every message part to `type=` form, dropping the
            // wrapper elements (Metro's anonymous-type fallback for
            // this class).
            let tns = service_ns("metro", entry);
            let bean_ref = TypeRef::named(&tns, entry.simple_name());
            for message in &mut defs.messages {
                for part in &mut message.parts {
                    part.kind = PartKind::Type(bean_ref.clone());
                }
            }
            let schema = &mut defs.schemas[0];
            schema.elements.clear();
            // The bean type itself must stay resolvable.
            if schema.complex_types.is_empty() {
                schema.complex_types.push(bean_complex_type(entry));
            }
            // The wildcard-ish inline wrappers are gone; nothing else
            // changes — the binding is still document style, which is
            // exactly the R2204 violation.
        }

        DeployOutcome::Deployed {
            wsdl_xml: to_xml_string(&defs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_typecat::java::well_known;
    use wsinterop_wsdl::de::from_xml_str;
    use wsinterop_wsi::Analyzer;

    fn deploy(fqcn: &str) -> DeployOutcome {
        Metro.deploy(Catalog::java_se7().get(fqcn).unwrap())
    }

    #[test]
    fn plain_class_deploys_conformant() {
        let outcome = deploy("java.lang.String");
        let wsdl = outcome.wsdl().unwrap();
        let defs = from_xml_str(wsdl).unwrap();
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(report.clean(), "{report}");
        assert_eq!(defs.operation_count(), 1);
    }

    #[test]
    fn refuses_interfaces_and_infrastructure() {
        assert!(matches!(deploy("java.util.List"), DeployOutcome::Refused { .. }));
        assert!(matches!(
            deploy(well_known::FUTURE),
            DeployOutcome::Refused { .. }
        ));
        assert!(matches!(
            deploy(well_known::RESPONSE),
            DeployOutcome::Refused { .. }
        ));
    }

    #[test]
    fn refuses_generics_and_missing_ctor() {
        assert!(matches!(deploy("java.util.ArrayList"), DeployOutcome::Refused { .. }));
        assert!(matches!(deploy("java.lang.Integer"), DeployOutcome::Refused { .. }));
    }

    #[test]
    fn wsaddressing_wsdl_fails_wsi_r2102() {
        let outcome = deploy(well_known::W3C_ENDPOINT_REFERENCE);
        let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(!report.conformant());
        assert!(report.failures().any(|f| f.assertion == "R2102"), "{report}");
    }

    #[test]
    fn simple_date_format_wsdl_fails_wsi_r2204() {
        let outcome = deploy(well_known::SIMPLE_DATE_FORMAT);
        let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(!report.conformant());
        assert!(report.failures().any(|f| f.assertion == "R2204"), "{report}");
    }

    #[test]
    fn throwable_service_is_conformant_but_has_message_element() {
        let outcome = deploy("java.io.IOException");
        let wsdl = outcome.wsdl().unwrap();
        assert!(wsdl.contains(r#"name="message""#), "{wsdl}");
        let defs = from_xml_str(wsdl).unwrap();
        assert!(Analyzer::basic_profile_1_1().analyze(&defs).clean());
    }
}
