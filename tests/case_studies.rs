//! E6/E7/E8: the technical case studies of Section IV.B, each
//! reproduced end to end against the concrete classes the paper names.

use wsinterop::compilers::{compiler_for, instantiate};
use wsinterop::frameworks::client::{
    all_clients, Axis1, Axis2, ClientId, ClientSubsystem, Cxf, DotnetCs, DotnetJs, DotnetVb,
    Gsoap, JBossWsClient, MetroClient, Suds, Zend,
};
use wsinterop::frameworks::server::{JBossWs, Metro, ServerSubsystem, WcfDotNet};
use wsinterop::typecat::{dotnet, java};
use wsinterop::wsdl::de::from_xml_str;
use wsinterop::wsi::Analyzer;

fn wsdl_of(server: &dyn ServerSubsystem, fqcn: &str) -> String {
    let entry = server
        .catalog()
        .get(fqcn)
        .unwrap_or_else(|| panic!("{fqcn} not in catalog"));
    server
        .deploy(entry)
        .wsdl()
        .unwrap_or_else(|| panic!("{fqcn} must deploy"))
        .to_string()
}

// --------------------------------------------------------------------
// E6 — WSDL generation case studies (Section IV.B.1)
// --------------------------------------------------------------------

#[test]
fn e6_both_java_servers_publish_non_wsi_descriptions() {
    // "GlassFish and JBoss successfully deploy two services that do not
    // pass the WS-I check."
    for server in [&Metro as &dyn ServerSubsystem, &JBossWs] {
        for fqcn in [
            java::well_known::W3C_ENDPOINT_REFERENCE,
            java::well_known::SIMPLE_DATE_FORMAT,
        ] {
            let defs = from_xml_str(&wsdl_of(server, fqcn)).unwrap();
            let report = Analyzer::basic_profile_1_1().analyze(&defs);
            assert!(
                !report.conformant(),
                "{fqcn} on {} must fail WS-I",
                server.info().id
            );
        }
    }
}

#[test]
fn e6_jboss_publishes_usable_looking_but_operation_less_wsdl() {
    // "JBoss also deploys two other services that pass the WS-I check
    // but provide no operations to be invoked."
    for fqcn in [java::well_known::FUTURE, java::well_known::RESPONSE] {
        let wsdl = wsdl_of(&JBossWs, fqcn);
        let defs = from_xml_str(&wsdl).unwrap();
        assert_eq!(defs.operation_count(), 0, "{fqcn}");
        assert!(Analyzer::basic_profile_1_1().analyze(&defs).conformant());
        // "GlassFish refused to deploy these two services."
        let metro_outcome = Metro.deploy(Metro.catalog().get(fqcn).unwrap());
        assert!(metro_outcome.wsdl().is_none(), "{fqcn} must be refused by Metro");
    }
}

#[test]
fn e6_operation_less_splits_the_client_field() {
    // Unusable by Metro, Axis2, .NET ×3, gSOAP; Zend and suds generate
    // client objects without methods; Axis1/CXF/JBossWS stay silent.
    let wsdl = wsdl_of(&JBossWs, java::well_known::FUTURE);
    for client in [
        &MetroClient as &dyn ClientSubsystem,
        &Axis2,
        &DotnetCs,
        &DotnetVb,
        &DotnetJs,
        &Gsoap,
    ] {
        assert!(
            !client.generate(&wsdl).succeeded(),
            "{} must error",
            client.info().id
        );
    }
    for client in [&Axis1 as &dyn ClientSubsystem, &Cxf, &JBossWsClient] {
        let outcome = client.generate(&wsdl);
        assert!(outcome.succeeded(), "{} must be silent", client.info().id);
        assert!(outcome.warnings.is_empty());
    }
    for client in [&Zend as &dyn ClientSubsystem, &Suds] {
        let outcome = client.generate(&wsdl);
        assert!(outcome.succeeded());
        let check = instantiate(outcome.artifacts.as_ref().unwrap());
        assert!(check.empty_client(), "{}: {check}", client.info().id);
    }
}

// --------------------------------------------------------------------
// E7 — client artifact generation case studies (Section IV.B.2)
// --------------------------------------------------------------------

#[test]
fn e7_sschema_and_slang_break_java_consumers() {
    // "These tools have problems ... because some XML tags used in the
    // WSDL (s:schema, s:lang) are not recognized."
    let wsdl = wsdl_of(&WcfDotNet, dotnet::well_known::DATA_SET);
    assert!(wsdl.contains(r#"ref="s:schema""#));
    assert!(wsdl.contains(r#"ref="s:lang""#));
    for client in [&MetroClient as &dyn ClientSubsystem, &Cxf, &JBossWsClient] {
        let outcome = client.generate(&wsdl);
        assert!(!outcome.succeeded(), "{}", client.info().id);
        assert!(
            outcome.error.as_deref().unwrap().contains("s:schema"),
            "{}: {:?}",
            client.info().id,
            outcome.error
        );
    }
    // The .NET tools consume their own dialect fine.
    assert!(DotnetCs.generate(&wsdl).succeeded());
}

#[test]
fn e7_wsi_compliant_sany_services_produce_very_similar_errors() {
    // "two other services that pass the WS-I tests produce very similar
    // errors for the use of the s:any tag."
    for fqcn in [
        dotnet::well_known::DATA_TABLE,
        dotnet::well_known::DATA_TABLE_COLLECTION,
    ] {
        let wsdl = wsdl_of(&WcfDotNet, fqcn);
        let defs = from_xml_str(&wsdl).unwrap();
        assert!(Analyzer::basic_profile_1_1().analyze(&defs).conformant());
        for client in [&MetroClient as &dyn ClientSubsystem, &Cxf, &JBossWsClient] {
            let outcome = client.generate(&wsdl);
            assert!(!outcome.succeeded(), "{} on {fqcn}", client.info().id);
            assert!(outcome.error.as_deref().unwrap().contains("s:any"));
        }
    }
}

#[test]
fn e7_suds_has_problems_with_exactly_one_dataset_service() {
    let catalog = WcfDotNet.catalog();
    let mut failures = 0;
    for entry in catalog.with_quirk(wsinterop::typecat::Quirk::DataSetStyle) {
        let wsdl = WcfDotNet.deploy(entry).wsdl().unwrap().to_string();
        if !Suds.generate(&wsdl).succeeded() {
            failures += 1;
        }
    }
    assert_eq!(failures, 1);
}

// --------------------------------------------------------------------
// E8 — client artifact compilation case studies (Section IV.B.3)
// --------------------------------------------------------------------

#[test]
fn e8_axis1_exception_wrapper_attribute_misnaming() {
    // "The services that use Java Exception and Error classes result in
    // a compilation issue ... caused by the incorrect naming of an
    // attribute inside the generated class."
    let wsdl = wsdl_of(&Metro, "java.lang.Exception");
    let outcome = Axis1.generate(&wsdl);
    assert!(outcome.succeeded());
    let bundle = outcome.artifacts.as_ref().unwrap();
    // The defect is in the artifact itself: a `message1` field with an
    // accessor still reading `message`.
    let wrapper = bundle
        .all_classes()
        .find(|c| c.name == "Exception")
        .expect("wrapper class");
    assert!(wrapper.fields.iter().any(|f| f.name == "message1"));
    let compiled = compiler_for(bundle.language).unwrap().compile(bundle);
    assert!(!compiled.success());
    assert!(compiled.errors().any(|d| d.message.contains("message")));
    // "Renaming the attribute fixes the compilation issue."
    let mut fixed = bundle.clone();
    for unit in &mut fixed.units {
        for class in &mut unit.classes {
            for field in &mut class.fields {
                if field.name == "message1" {
                    field.name = "message".into();
                }
            }
        }
    }
    assert!(compiler_for(fixed.language).unwrap().compile(&fixed).success());
}

#[test]
fn e8_axis2_xml_gregorian_calendar_missing_suffix() {
    // "Parameters ... follow the naming convention `local_suffixName`,
    // while in this case the parameter is missing the suffix."
    for server in [&Metro as &dyn ServerSubsystem, &JBossWs] {
        let wsdl = wsdl_of(server, java::well_known::XML_GREGORIAN_CALENDAR);
        let outcome = Axis2.generate(&wsdl);
        assert!(outcome.succeeded());
        let bundle = outcome.artifacts.as_ref().unwrap();
        let compiled = compiler_for(bundle.language).unwrap().compile(bundle);
        assert!(!compiled.success(), "{}", server.info().id);
        assert!(compiled.errors().any(|d| d.message.contains("local_")));
    }
}

#[test]
fn e8_vb_webcontrols_parameter_method_collision() {
    // "the VB.Net client artifacts fail to compile 4 services ... a
    // parameter and a method share the same name leading to a collision."
    let mut failing = 0;
    for fqcn in dotnet::well_known::WEB_CONTROLS {
        let wsdl = wsdl_of(&WcfDotNet, fqcn);
        let outcome = DotnetVb.generate(&wsdl);
        assert!(outcome.succeeded(), "{fqcn}");
        let bundle = outcome.artifacts.as_ref().unwrap();
        let compiled = compiler_for(bundle.language).unwrap().compile(bundle);
        if !compiled.success() {
            failing += 1;
            assert!(compiled.errors().any(|d| d.code == "BC30260"), "{fqcn}");
        }
    }
    assert_eq!(failing, 4);
}

#[test]
fn e8_mature_tools_never_emit_uncompilable_code() {
    // "Metro, JBossWS, Apache CXF, gSOAP, and C# .NET ... never produced
    // code that later results in compilation errors or warnings."
    let samples = [
        (&Metro as &dyn ServerSubsystem, "java.lang.String"),
        (&Metro, "java.io.IOException"),
        (&Metro, java::well_known::XML_GREGORIAN_CALENDAR),
        (&JBossWs, "java.util.Date"),
        (&WcfDotNet, "System.Text.StringBuilder"),
        (&WcfDotNet, dotnet::well_known::SOCKET_ERROR),
    ];
    for client in all_clients() {
        let id = client.info().id;
        if !matches!(
            id,
            ClientId::Metro | ClientId::Cxf | ClientId::JBossWs | ClientId::DotnetCs | ClientId::Gsoap
        ) {
            continue;
        }
        for (server, fqcn) in samples {
            let wsdl = wsdl_of(server, fqcn);
            let outcome = client.generate(&wsdl);
            if !outcome.succeeded() {
                continue; // failures are allowed; bad code is not
            }
            let bundle = outcome.artifacts.as_ref().unwrap();
            let compiled = compiler_for(bundle.language).unwrap().compile(bundle);
            assert!(compiled.success(), "{id} on {fqcn}: {compiled}");
            assert_eq!(compiled.warning_count(), 0, "{id} on {fqcn}");
        }
    }
}
