//! The simulated Microsoft WCF .NET 4.0 server subsystem (IIS 8.0).

use wsinterop_typecat::{Catalog, Quirk, TypeEntry, TypeKind};
use wsinterop_wsdl::ser::to_xml_string;
use wsinterop_xsd::{
    BuiltIn, ComplexType, Compositor, Group, Import, MaxOccurs, Particle, ProcessContents,
    SimpleType, TypeRef,
};

use super::binding::{plain_echo, s_lang_attr, s_schema_ref, service_ns};
use super::{DeployOutcome, ServerId, ServerInfo, ServerSubsystem};

/// Namespace of the Microsoft `msdata` serialization extensions.
pub const MSDATA_NS: &str = wsinterop_xml::name::ns::MS_DATA;

/// Microsoft WCF .NET 4.0.30319.17929 on IIS 8.0 Express.
///
/// Documented behaviours reproduced here:
///
/// * serializes with the `.NET` prefix convention (`s:` for XSD);
/// * for [`Quirk::DataSetStyle`] classes emits the DataSet wire shape:
///   `<s:element ref="s:schema"/>` plus an `s:lang` attribute reference
///   (fails WS-I R2105/R2106). The [`Quirk::DataSetAxis1Fatal`] subset
///   carries **two** `s:schema` refs, the [`Quirk::DataSetGsoapFatal`]
///   subset wraps its content in `s:choice`, and the
///   [`Quirk::DataSetDotnetWarn`] subset additionally imports the
///   `msdata` extension namespace;
/// * for [`Quirk::LangAttrOnly`] classes emits only the `s:lang`
///   attribute reference (fails WS-I, harmless to every consumer);
/// * for [`Quirk::AnyContent`] classes emits a WS-I-conformant
///   `xsd:any` wrapper (the DataTable shape);
/// * for [`Quirk::BareEnum`] classes emits a top-level enumeration
///   simple type;
/// * for [`Quirk::JscriptHostile`] classes emits `complexContent`
///   extension chains (depth 1, or depth 2 for the
///   [`Quirk::JscriptCrash`] subset);
/// * for [`Quirk::WebControlsCollision`] classes the shared binding
///   rules emit a case-colliding element pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct WcfDotNet;

impl ServerSubsystem for WcfDotNet {
    fn info(&self) -> ServerInfo {
        ServerInfo {
            id: ServerId::WcfDotNet,
            app_server: "IIS 8.0.8418.0 (Express)",
            framework: "WCF .NET 4.0.30319.17929",
            language: "C#",
        }
    }

    fn catalog(&self) -> &'static Catalog {
        Catalog::dotnet40()
    }

    fn deploy(&self, entry: &TypeEntry) -> DeployOutcome {
        if !entry.is_bean_bindable() {
            return DeployOutcome::Refused {
                reason: format!(
                    "XmlSerializer cannot map `{}` ({:?})",
                    entry.fqcn, entry.kind
                ),
            };
        }

        let mut defs = plain_echo(entry, "wcf", true);
        let tns = service_ns("wcf", entry);

        if entry.has_quirk(Quirk::DataSetStyle) {
            let schema = &mut defs.schemas[0];
            let bean = schema
                .complex_types
                .iter_mut()
                .find(|ct| ct.name.as_deref() == Some(entry.simple_name()))
                .expect("bean type must exist");
            // The DataSet wire shape: schema-in-schema reference(s).
            bean.content.particles.insert(0, s_schema_ref());
            if entry.has_quirk(Quirk::DataSetAxis1Fatal) {
                bean.content.particles.insert(1, s_schema_ref());
            }
            if entry.has_quirk(Quirk::DataSetGsoapFatal) {
                // Typed-DataSet variants wrap the remaining content in a
                // choice group — the particle gSOAP's two-stage pipeline
                // disagrees with itself about.
                let rest: Vec<Particle> = bean.content.particles.split_off(1);
                bean.content.particles.push(Particle::Group(Box::new(Group {
                    compositor: Compositor::Choice,
                    particles: rest,
                })));
            }
            bean.attributes.push(s_lang_attr());
            if entry.has_quirk(Quirk::DataSetDotnetWarn) {
                schema.imports.push(Import {
                    namespace: MSDATA_NS.to_string(),
                    schema_location: Some(
                        "http://schemas.microsoft.com/xml-msdata.xsd".to_string(),
                    ),
                });
            }
        }

        if entry.has_quirk(Quirk::LangAttrOnly) {
            let bean = defs.schemas[0]
                .complex_types
                .iter_mut()
                .find(|ct| ct.name.as_deref() == Some(entry.simple_name()))
                .expect("bean type must exist");
            bean.attributes.push(s_lang_attr());
        }

        if entry.has_quirk(Quirk::AnyContent) {
            // The DataTable shape: WS-I-conformant wildcard wrappers.
            for wrapper in &mut defs.schemas[0].elements {
                if let Some(inline) = wrapper.inline.as_mut() {
                    inline.content.particles = vec![Particle::Any {
                        process_contents: ProcessContents::Lax,
                        min_occurs: 0,
                        max_occurs: MaxOccurs::Bounded(1),
                    }];
                }
            }
        }

        if entry.kind == TypeKind::Enum || entry.has_quirk(Quirk::BareEnum) {
            // Enums serialize as a top-level restriction simple type and
            // the echo parameter is retyped accordingly.
            let schema = &mut defs.schemas[0];
            schema
                .complex_types
                .retain(|ct| ct.name.as_deref() != Some(entry.simple_name()));
            schema.simple_types.push(SimpleType {
                name: entry.simple_name().to_string(),
                base: BuiltIn::String,
                enumeration: vec![
                    "Success".to_string(),
                    "OperationAborted".to_string(),
                    "AccessDenied".to_string(),
                ],
            });
        }

        if entry.has_quirk(Quirk::JscriptHostile) {
            let schema = &mut defs.schemas[0];
            let base_name = format!("{}Base", entry.simple_name());
            if entry.has_quirk(Quirk::JscriptCrash) {
                // Depth-2 extension chain: Bean : BeanBase : BeanCore.
                let core_name = format!("{}Core", entry.simple_name());
                schema
                    .complex_types
                    .push(ComplexType::named(&core_name));
                schema.complex_types.push(
                    ComplexType::named(&base_name)
                        .extending(TypeRef::named(&tns, &core_name)),
                );
            } else {
                schema.complex_types.push(ComplexType::named(&base_name));
            }
            let bean = schema
                .complex_types
                .iter_mut()
                .find(|ct| ct.name.as_deref() == Some(entry.simple_name()))
                .expect("bean type must exist");
            bean.extends = Some(TypeRef::named(&tns, &base_name));
        }

        DeployOutcome::Deployed {
            wsdl_xml: to_xml_string(&defs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_typecat::dotnet::well_known;
    use wsinterop_wsdl::de::from_xml_str;
    use wsinterop_wsi::Analyzer;

    fn deploy(fqcn: &str) -> DeployOutcome {
        WcfDotNet.deploy(Catalog::dotnet40().get(fqcn).unwrap())
    }

    #[test]
    fn plain_class_is_conformant_with_dotnet_prefixes() {
        let outcome = deploy("System.Text.StringBuilder");
        let wsdl = outcome.wsdl().unwrap();
        assert!(wsdl.contains("<s:schema"), "{wsdl}");
        let defs = from_xml_str(wsdl).unwrap();
        assert!(defs.dotnet_prefixes);
        assert!(Analyzer::basic_profile_1_1().analyze(&defs).clean());
    }

    #[test]
    fn dataset_wsdl_fails_r2105_and_r2106() {
        let outcome = deploy(well_known::DATA_SET);
        let wsdl = outcome.wsdl().unwrap();
        assert!(wsdl.contains(r#"ref="s:schema""#), "{wsdl}");
        assert!(wsdl.contains(r#"ref="s:lang""#), "{wsdl}");
        let defs = from_xml_str(wsdl).unwrap();
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(!report.conformant());
        assert!(report.failures().any(|f| f.assertion == "R2105"));
        assert!(report.failures().any(|f| f.assertion == "R2106"));
    }

    #[test]
    fn datatable_any_wsdl_is_wsi_conformant() {
        let outcome = deploy(well_known::DATA_TABLE);
        let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(report.conformant(), "{report}");
        assert!(report.notes().any(|f| f.assertion == "EXT0002"));
    }

    #[test]
    fn socket_error_enum_is_conformant_simple_type() {
        let outcome = deploy(well_known::SOCKET_ERROR);
        let wsdl = outcome.wsdl().unwrap();
        assert!(wsdl.contains("enumeration"), "{wsdl}");
        let defs = from_xml_str(wsdl).unwrap();
        assert!(Analyzer::basic_profile_1_1().analyze(&defs).conformant());
        assert_eq!(defs.schemas[0].simple_types.len(), 1);
    }

    #[test]
    fn lang_attr_only_fails_wsi_but_nothing_else() {
        let entry = Catalog::dotnet40()
            .with_quirk(Quirk::LangAttrOnly)
            .next()
            .unwrap();
        let outcome = WcfDotNet.deploy(entry);
        let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
        let report = Analyzer::basic_profile_1_1().analyze(&defs);
        assert!(!report.conformant());
        assert!(report.failures().all(|f| f.assertion == "R2106"));
    }

    #[test]
    fn jscript_hostile_wsdls_are_conformant_extension_chains() {
        let plain = Catalog::dotnet40()
            .iter()
            .find(|e| e.has_quirk(Quirk::JscriptHostile) && !e.has_quirk(Quirk::JscriptCrash))
            .unwrap();
        let crash = Catalog::dotnet40()
            .with_quirk(Quirk::JscriptCrash)
            .next()
            .unwrap();
        for entry in [plain, crash] {
            let outcome = WcfDotNet.deploy(entry);
            let defs = from_xml_str(outcome.wsdl().unwrap()).unwrap();
            let report = Analyzer::basic_profile_1_1().analyze(&defs);
            assert!(report.conformant(), "{}: {report}", entry.fqcn);
        }
    }

    #[test]
    fn non_bindable_kinds_are_refused() {
        assert!(matches!(deploy("System.String"), DeployOutcome::Refused { .. }));
        assert!(matches!(deploy("System.IDisposable"), DeployOutcome::Refused { .. }));
        assert!(matches!(deploy("System.EventHandler"), DeployOutcome::Refused { .. }));
    }
}
