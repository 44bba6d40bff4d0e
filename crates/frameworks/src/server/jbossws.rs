//! The simulated JBossWS CXF 4.2.3 server subsystem (JBoss AS 7.2).

use wsinterop_typecat::{Catalog, Quirk, TypeEntry};
use wsinterop_wsdl::builder::DocLiteralBuilder;
use wsinterop_wsdl::ser::to_xml_string;
use wsinterop_wsdl::{Binding, NameRef, Port, PortType, Service, SoapBinding};
use wsinterop_xsd::{Import, Particle};

use super::binding::{plain_echo, service_ns, ADDRESSING_NS};
use super::{DeployOutcome, ServerId, ServerInfo, ServerSubsystem};

/// JBossWS CXF 4.2.3 on JBoss AS 7.2.
///
/// Documented behaviours reproduced here:
///
/// * binds a stricter subset of classes than Metro: the bean must
///   declare at least one property (2 246 of Metro's 2 489);
/// * **deploys** the JAX-WS async infrastructure services
///   (`Future`/`Response`) and publishes WS-I-*conformant* WSDLs with
///   **zero operations** — the headline server-side bug (+2 services);
/// * for [`Quirk::WsAddressing`] classes publishes an addressing import
///   without `schemaLocation` plus an *element reference* into that
///   namespace (fails WS-I R2105);
/// * for [`Quirk::TextFormat`] classes drops the `soap:operation`
///   extension from the binding (fails WS-I R2745).
#[derive(Debug, Default, Clone, Copy)]
pub struct JBossWs;

impl ServerSubsystem for JBossWs {
    fn info(&self) -> ServerInfo {
        ServerInfo {
            id: ServerId::JBossWs,
            app_server: "JBoss AS 7.2",
            framework: "JBossWS CXF 4.2.3",
            language: "Java",
        }
    }

    fn catalog(&self) -> &'static Catalog {
        Catalog::java_se7()
    }

    fn deploy(&self, entry: &TypeEntry) -> DeployOutcome {
        if entry.has_quirk(Quirk::AsyncInfrastructure) {
            // The bug: instead of refusing, publish an operation-less
            // document. Conformant per WS-I; useless for every client.
            return DeployOutcome::Deployed {
                wsdl_xml: to_xml_string(&operation_less_defs(entry)),
            };
        }
        if !entry.is_bean_bindable() {
            return DeployOutcome::Refused {
                reason: format!("CXF databinding cannot map `{}`", entry.fqcn),
            };
        }
        if entry.fields.is_empty() && !entry.is_throwable {
            // Stricter than Metro: a bean with no declared properties
            // is rejected ("no serializable state").
            return DeployOutcome::Refused {
                reason: format!(
                    "CXF databinding rejects `{}`: class declares no bean properties",
                    entry.fqcn
                ),
            };
        }
        if entry.is_throwable && entry.fields.is_empty() {
            // Throwables only inherit `message`; JBossWS insists on a
            // declared property as well.
            return DeployOutcome::Refused {
                reason: format!(
                    "CXF databinding rejects `{}`: only inherited Throwable state",
                    entry.fqcn
                ),
            };
        }

        let mut defs = plain_echo(entry, "jbossws", false);

        if entry.has_quirk(Quirk::WsAddressing) {
            let schema = &mut defs.schemas[0];
            schema.imports.push(Import {
                namespace: ADDRESSING_NS.to_string(),
                schema_location: None,
            });
            // Unlike Metro, CXF emits an element *reference* into the
            // addressing namespace inside the response wrapper.
            if let Some(wrapper) = schema
                .elements
                .iter_mut()
                .find(|e| e.name == "echoResponse")
            {
                if let Some(inline) = wrapper.inline.as_mut() {
                    inline.content.particles.push(Particle::ElementRef {
                        ns_uri: ADDRESSING_NS.to_string(),
                        local: "EndpointReference".to_string(),
                    });
                }
            }
        }

        if entry.has_quirk(Quirk::TextFormat) {
            for binding in &mut defs.bindings {
                for op in &mut binding.operations {
                    op.soap_action = None; // soap:operation never emitted
                }
            }
        }

        DeployOutcome::Deployed {
            wsdl_xml: to_xml_string(&defs),
        }
    }
}

/// The operation-less document published for `Future`/`Response`.
fn operation_less_defs(entry: &TypeEntry) -> wsinterop_wsdl::Definitions {
    let tns = service_ns("jbossws", entry);
    let service_name = format!("{}Service", entry.simple_name());
    // Start from a well-formed document and strip the operations —
    // keeping binding/port/address so the result stays conformant.
    let mut defs = DocLiteralBuilder::new(&service_name, &tns).build();
    defs.schemas.clear();
    defs.messages.clear();
    defs.port_types = vec![PortType {
        name: format!("{service_name}PortType"),
        operations: Vec::new(),
    }];
    defs.bindings = vec![Binding {
        name: format!("{service_name}Binding"),
        port_type: NameRef::new(&tns, format!("{service_name}PortType")),
        soap: Some(SoapBinding::default()),
        operations: Vec::new(),
        extension_attrs: Vec::new(),
    }];
    defs.services = vec![Service {
        name: service_name.clone(),
        ports: vec![Port {
            name: format!("{service_name}Port"),
            binding: NameRef::new(&tns, format!("{service_name}Binding")),
            address: Some(format!("http://localhost:8080/{service_name}")),
        }],
    }];
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_typecat::java::well_known;
    use wsinterop_wsdl::de::from_xml_str;
    use wsinterop_wsi::Analyzer;

    fn deploy(fqcn: &str) -> DeployOutcome {
        JBossWs.deploy(Catalog::java_se7().get(fqcn).unwrap())
    }

    #[test]
    fn future_deploys_operation_less_but_wsi_conformant() {
        let outcome = deploy(well_known::FUTURE);
        let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
        assert_eq!(defs.operation_count(), 0);
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(report.conformant(), "{report}");
        assert!(report.warnings().any(|f| f.assertion == "EXT0001"));
    }

    #[test]
    fn rejects_field_less_beans_that_metro_accepts() {
        // java.lang.Object deploys on Metro but not on JBossWS.
        assert!(matches!(deploy("java.lang.Object"), DeployOutcome::Refused { .. }));
        assert!(matches!(
            super::super::Metro.deploy(Catalog::java_se7().get("java.lang.Object").unwrap()),
            DeployOutcome::Deployed { .. }
        ));
    }

    #[test]
    fn wsaddressing_wsdl_fails_wsi_r2105() {
        let outcome = deploy(well_known::W3C_ENDPOINT_REFERENCE);
        let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(!report.conformant());
        assert!(report.failures().any(|f| f.assertion == "R2105"), "{report}");
    }

    #[test]
    fn simple_date_format_wsdl_fails_wsi_r2745() {
        let outcome = deploy(well_known::SIMPLE_DATE_FORMAT);
        let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(!report.conformant());
        assert!(report.failures().any(|f| f.assertion == "R2745"), "{report}");
    }

    #[test]
    fn plain_class_is_conformant() {
        let outcome = deploy("java.lang.String");
        let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
        assert!(Analyzer::basic_profile_1_1().analyze(&defs).clean());
    }
}
