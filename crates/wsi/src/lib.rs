//! # wsinterop-wsi
//!
//! A WS-I Basic Profile 1.1 conformance analyzer for WSDL documents.
//!
//! The paper uses the WS-I testing tools as a binary oracle (does this
//! service description pass the Basic Profile?) plus a source of
//! warnings. This crate implements the assertion families that decide
//! that verdict for the documents the reproduced frameworks emit:
//! SOAP-binding discipline (R2701/R2702/R2705/R2706/R2745), doc-literal
//! message discipline (R2204), reference resolution (R2105/R2102/R2106),
//! binding/port-type agreement (R2718), address presence (R2711) — and
//! two advisory extensions, including the paper's own recommendation to
//! flag operation-less port types (`EXT0001`). The [`message`] module
//! adds the profile's message-level assertions over SOAP envelopes.
//!
//! ## Example
//!
//! ```
//! use wsinterop_wsi::Analyzer;
//! use wsinterop_wsdl::builder::doc_literal_echo;
//! use wsinterop_xsd::{BuiltIn, TypeRef};
//!
//! let defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
//! let report = Analyzer::basic_profile_1_1().analyze(&defs);
//! assert!(report.conformant());
//! assert!(report.clean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assertions;
pub mod message;
pub mod report;
pub mod resolve;

pub use report::{Finding, Report, Severity};

use assertions::Assertion;
use resolve::SymbolTable;
use wsinterop_wsdl::Definitions;

/// A configured conformance analyzer.
pub struct Analyzer {
    assertions: Vec<Box<dyn Assertion>>,
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("assertions", &self.assertion_ids())
            .finish()
    }
}

impl Analyzer {
    /// The full Basic Profile 1.1 assertion set.
    pub fn basic_profile_1_1() -> Analyzer {
        Analyzer {
            assertions: assertions::basic_profile_1_1(),
        }
    }

    /// Identifiers of the configured assertions, in check order.
    pub fn assertion_ids(&self) -> Vec<&'static str> {
        self.assertions.iter().map(|a| a.id()).collect()
    }

    /// `(id, description)` pairs for tool output.
    pub fn assertion_catalog(&self) -> Vec<(&'static str, &'static str)> {
        self.assertions
            .iter()
            .map(|a| (a.id(), a.description()))
            .collect()
    }

    /// Runs every assertion over the document.
    pub fn analyze(&self, defs: &Definitions) -> Report {
        let table = SymbolTable::build(defs);
        let mut report = Report::new();
        for assertion in &self.assertions {
            assertion.check(defs, &table, &mut report);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_wsdl::builder::doc_literal_echo;
    use wsinterop_wsdl::{ExtensionAttr, PartKind, Use};
    use wsinterop_xml::name::ns;
    use wsinterop_xsd::{
        AttributeDecl, BuiltIn, ComplexType, ElementDecl, Import, MaxOccurs, Particle,
        ProcessContents, TypeRef,
    };

    fn echo() -> wsinterop_wsdl::Definitions {
        doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int))
    }

    fn analyze(defs: &wsinterop_wsdl::Definitions) -> Report {
        Analyzer::basic_profile_1_1().analyze(defs)
    }

    #[test]
    fn canonical_echo_is_clean() {
        let report = analyze(&echo());
        assert!(report.conformant(), "{report}");
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn missing_soap_binding_fails_r2701() {
        let mut defs = echo();
        defs.bindings[0].soap = None;
        let report = analyze(&defs);
        assert!(!report.conformant());
        assert!(report.failures().any(|f| f.assertion == "R2701"));
    }

    #[test]
    fn wrong_transport_fails_r2702() {
        let mut defs = echo();
        defs.bindings[0].soap.as_mut().unwrap().transport = "urn:smtp".into();
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2702"));
    }

    #[test]
    fn mixed_styles_fail_r2705() {
        let mut defs = doc_literal_echo("S", "urn:t", "a", TypeRef::BuiltIn(BuiltIn::Int));
        // Add a second bound operation with an rpc override.
        let mut second = defs.bindings[0].operations[0].clone();
        second.name = "b".into();
        second.style = Some(wsinterop_wsdl::Style::Rpc);
        defs.bindings[0].operations.push(second);
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2705"));
    }

    #[test]
    fn encoded_use_fails_r2706() {
        let mut defs = echo();
        defs.bindings[0].operations[0].input_use = Use::Encoded;
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2706"));
    }

    #[test]
    fn missing_soap_operation_fails_r2745() {
        let mut defs = echo();
        defs.bindings[0].operations[0].soap_action = None;
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2745"));
    }

    #[test]
    fn empty_soap_action_is_fine() {
        let mut defs = echo();
        defs.bindings[0].operations[0].soap_action = Some(String::new());
        assert!(analyze(&defs).clean());
    }

    #[test]
    fn type_part_in_doc_binding_fails_r2204() {
        let mut defs = echo();
        defs.messages[0].parts[0].kind = PartKind::Type(TypeRef::BuiltIn(BuiltIn::String));
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2204"));
    }

    #[test]
    fn unresolved_part_element_fails_r2105() {
        let mut defs = echo();
        if let PartKind::Element(r) = &mut defs.messages[0].parts[0].kind {
            r.local = "ghost".into();
        }
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2105"));
    }

    #[test]
    fn schema_ref_into_xsd_namespace_fails_r2105() {
        let mut defs = echo();
        defs.schemas[0].elements.push(ElementDecl::with_inline(
            "broken",
            ComplexType::anonymous().with_particle(Particle::ElementRef {
                ns_uri: ns::XSD.to_string(),
                local: "schema".to_string(),
            }),
        ));
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2105"));
    }

    #[test]
    fn unresolved_type_in_unlocated_import_fails_r2102() {
        let mut defs = echo();
        defs.schemas[0].imports.push(Import {
            namespace: "http://www.w3.org/2005/08/addressing".into(),
            schema_location: None,
        });
        defs.schemas[0].elements.push(ElementDecl::typed(
            "epr",
            TypeRef::named("http://www.w3.org/2005/08/addressing", "EndpointReferenceType"),
        ));
        let report = analyze(&defs);
        let failures: Vec<_> = report
            .failures()
            .filter(|f| f.assertion == "R2102")
            .collect();
        assert!(!failures.is_empty(), "R2102 must fire");
        assert!(failures[0].detail.contains("without schemaLocation"));
    }

    #[test]
    fn located_import_passes_r2102() {
        let mut defs = echo();
        defs.schemas[0].imports.push(Import {
            namespace: "urn:lib".into(),
            schema_location: Some("lib.xsd".into()),
        });
        defs.schemas[0]
            .elements
            .push(ElementDecl::typed("x", TypeRef::named("urn:lib", "T")));
        assert!(analyze(&defs).conformant());
    }

    #[test]
    fn lang_attr_ref_fails_r2106_but_xml_lang_passes() {
        let mut defs = echo();
        defs.schemas[0].complex_types.push(
            ComplexType::named("WithLang").with_attribute(AttributeDecl::Ref {
                ns_uri: ns::XSD.to_string(),
                local: "lang".to_string(),
            }),
        );
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2106"));

        let mut defs2 = echo();
        defs2.schemas[0].complex_types.push(
            ComplexType::named("WithXmlLang").with_attribute(AttributeDecl::Ref {
                ns_uri: ns::XML.to_string(),
                local: "lang".to_string(),
            }),
        );
        assert!(analyze(&defs2).conformant());
    }

    #[test]
    fn unbound_operation_warns_r2718() {
        let mut defs = echo();
        defs.bindings[0].operations.clear();
        let report = analyze(&defs);
        assert!(report.conformant());
        assert!(report.warnings().any(|f| f.assertion == "R2718"));
    }

    #[test]
    fn operation_less_port_type_passes_with_ext_warning() {
        // The JBossWS Future/Response case: conformant, but flagged.
        let mut defs = echo();
        defs.port_types[0].operations.clear();
        defs.bindings[0].operations.clear();
        defs.messages.clear();
        defs.schemas.clear();
        let report = analyze(&defs);
        assert!(report.conformant(), "{report}");
        assert!(report.warnings().any(|f| f.assertion == "EXT0001"));
    }

    #[test]
    fn wildcard_is_a_note_only() {
        // The DataTable case: xsd:any passes WS-I.
        let mut defs = echo();
        defs.schemas[0].elements.push(ElementDecl::with_inline(
            "blob",
            ComplexType::anonymous().with_particle(Particle::Any {
                process_contents: ProcessContents::Lax,
                min_occurs: 0,
                max_occurs: MaxOccurs::Bounded(1),
            }),
        ));
        let report = analyze(&defs);
        assert!(report.conformant());
        assert!(report.notes().any(|f| f.assertion == "EXT0002"));
        assert!(report.warnings().count() == 0);
    }

    #[test]
    fn missing_address_fails_r2711() {
        let mut defs = echo();
        defs.services[0].ports[0].address = None;
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2711"));
    }

    #[test]
    fn foreign_extension_attr_warns_ext0003() {
        let mut defs = echo();
        defs.bindings[0].extension_attrs.push(ExtensionAttr {
            ns_uri: ns::WSAW.to_string(),
            lexical: "wsaw:UsingAddressing".to_string(),
            value: "true".to_string(),
        });
        let report = analyze(&defs);
        assert!(report.conformant());
        assert!(report.warnings().any(|f| f.assertion == "EXT0003"));
    }

    #[test]
    fn assertion_catalog_is_complete() {
        let analyzer = Analyzer::basic_profile_1_1();
        let ids = analyzer.assertion_ids();
        for expected in [
            "R2701", "R2702", "R2705", "R2706", "R2745", "R2204", "R2203", "R2304", "R2201",
            "R2105", "R2102", "R2106", "R2718", "EXT0001", "EXT0002", "R2711", "EXT0003",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
        assert_eq!(analyzer.assertion_catalog().len(), ids.len());
    }

    #[test]
    fn rpc_literal_is_conformant_and_element_parts_under_rpc_fail_r2203() {
        use wsinterop_wsdl::builder::RpcLiteralBuilder;
        let defs = RpcLiteralBuilder::new("Calc", "urn:calc")
            .operation(
                "add",
                vec![
                    ("a".into(), TypeRef::BuiltIn(BuiltIn::Int)),
                    ("b".into(), TypeRef::BuiltIn(BuiltIn::Int)),
                ],
                TypeRef::BuiltIn(BuiltIn::Int),
            )
            .build();
        let report = analyze(&defs);
        assert!(report.conformant(), "{report}");

        // Flip one part to element= — conformant under document style,
        // a violation under rpc.
        let mut broken = defs.clone();
        broken.schemas[0].elements.push(ElementDecl::typed(
            "a",
            TypeRef::BuiltIn(BuiltIn::Int),
        ));
        broken.messages[0].parts[0].kind = PartKind::Element(
            wsinterop_wsdl::NameRef::new("urn:calc", "a"),
        );
        let report = analyze(&broken);
        assert!(report.failures().any(|f| f.assertion == "R2203"), "{report}");
    }

    #[test]
    fn overloaded_operations_fail_r2304() {
        let mut defs = echo();
        let dup = defs.port_types[0].operations[0].clone();
        defs.port_types[0].operations.push(dup);
        let dup_binding = defs.bindings[0].operations[0].clone();
        defs.bindings[0].operations.push(dup_binding);
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2304"), "{report}");
    }

    #[test]
    fn multi_part_doc_literal_fails_r2201() {
        let mut defs = echo();
        let extra = defs.messages[0].parts[0].clone();
        defs.messages[0].parts.push(wsinterop_wsdl::Part {
            name: "extra".into(),
            ..extra
        });
        let report = analyze(&defs);
        assert!(report.failures().any(|f| f.assertion == "R2201"), "{report}");
    }

    #[test]
    fn rpc_literal_multi_part_is_fine() {
        use wsinterop_wsdl::builder::RpcLiteralBuilder;
        let defs = RpcLiteralBuilder::new("Calc", "urn:calc")
            .operation(
                "add",
                vec![
                    ("a".into(), TypeRef::BuiltIn(BuiltIn::Int)),
                    ("b".into(), TypeRef::BuiltIn(BuiltIn::Int)),
                ],
                TypeRef::BuiltIn(BuiltIn::Int),
            )
            .build();
        let report = analyze(&defs);
        assert!(report.conformant(), "{report}");
        assert!(!report.findings().iter().any(|f| f.assertion == "R2201"));
    }

    #[test]
    fn analyzer_on_parsed_document_matches_in_memory() {
        let defs = echo();
        let xml = wsinterop_wsdl::ser::to_xml_string(&defs);
        let parsed = wsinterop_wsdl::de::from_xml_str(&xml).unwrap();
        assert_eq!(analyze(&defs), analyze(&parsed));
    }
}
