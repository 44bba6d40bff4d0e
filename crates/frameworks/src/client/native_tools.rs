//! The remaining client subsystems: gSOAP (C++), Zend (PHP) and suds
//! (Python).

use wsinterop_artifact::{ArtifactLanguage, VarDecl};
use wsinterop_wsdl::Definitions;

use super::facts::DocFacts;
use super::stubgen::{generate, StubOptions};
use super::{ClientId, ClientInfo, ClientSubsystem, CompilationMode, GenOutcome};

/// gSOAP 2.8.16 (`wsdl2h` + `soapcpp2`). The two-stage pipeline is
/// forgiving about unresolved references (they become `void*`
/// typedefs) but the stages disagree about `type=` doc-literal parts,
/// `xsd:choice` content models, and operation-less documents — all
/// fatal at generation. Whatever it emits compiles cleanly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gsoap;

impl ClientSubsystem for Gsoap {
    fn info(&self) -> ClientInfo {
        ClientInfo {
            id: ClientId::Gsoap,
            framework: "gSOAP Toolkit 2.8.16",
            tool: "wsdl2h.exe + soapcpp2.exe",
            language: ArtifactLanguage::Cpp,
            compilation: CompilationMode::CompiledViaScript,
        }
    }

    fn generate_from(&self, defs: &Definitions, facts: &DocFacts) -> GenOutcome {
        if facts.has_type_parts {
            return GenOutcome::fail(
                "soapcpp2 rejects the wsdl2h header: doc-literal type= parts are inconsistent",
            );
        }
        if facts.has_choice {
            return GenOutcome::fail(
                "soapcpp2 rejects the wsdl2h header: choice content model mapped inconsistently",
            );
        }
        if facts.operation_count == 0 {
            return GenOutcome::fail("wsdl2h: no operations found in the WSDL");
        }
        GenOutcome::ok(generate(
            defs,
            ArtifactLanguage::Cpp,
            &StubOptions::default(),
            facts,
        ))
    }
}

/// Zend Framework `Zend_Soap_Client` — fully dynamic: never errors at
/// generation, even for documents every other tool rejects. For the
/// WS-I-failing documents it produces an *uncommon data structure* (an
/// untyped raw member on the proxy), which the paper notes may be
/// problematic later; for operation-less documents it produces an
/// instantiable client without methods.
#[derive(Debug, Default, Clone, Copy)]
pub struct Zend;

impl ClientSubsystem for Zend {
    fn info(&self) -> ClientInfo {
        ClientInfo {
            id: ClientId::Zend,
            framework: "Zend Framework 1.9",
            tool: "Zend_Soap_Client",
            language: ArtifactLanguage::Php,
            compilation: CompilationMode::Dynamic,
        }
    }

    fn generate_from(&self, defs: &Definitions, facts: &DocFacts) -> GenOutcome {
        let mut bundle = generate(defs, ArtifactLanguage::Php, &StubOptions::default(), facts);
        if facts.strict_java_fatal() || facts.has_type_parts {
            // The "uncommon data structure": unresolvable content is
            // exposed as an untyped raw member on the proxy.
            if let Some(entry_name) = &bundle.entry_point {
                for unit in &mut bundle.units {
                    for class in &mut unit.classes {
                        if class.name == *entry_name {
                            class.fields.push(VarDecl::new("__raw_document", "mixed"));
                        }
                    }
                }
            }
        }
        GenOutcome::ok(bundle)
    }
}

/// Python suds 0.4 — dynamic like Zend, but stricter: unresolved
/// schema references are fatal, and the DataSet double-`s:schema`
/// + `choice` combination defeats its schema cache.
///
/// # Examples
///
/// ```
/// use wsinterop_frameworks::server::{JBossWs, ServerSubsystem};
/// use wsinterop_frameworks::client::{Suds, ClientSubsystem};
/// use wsinterop_compilers::instantiate;
///
/// let entry = JBossWs.catalog().get("javax.xml.ws.Response").unwrap();
/// let wsdl = JBossWs.deploy(entry).wsdl().unwrap().to_string();
/// let outcome = Suds.generate(&wsdl);
/// assert!(outcome.succeeded());
/// // …but the dynamic client object it builds has no methods.
/// assert!(instantiate(outcome.artifacts.as_ref().unwrap()).empty_client());
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct Suds;

impl ClientSubsystem for Suds {
    fn info(&self) -> ClientInfo {
        ClientInfo {
            id: ClientId::Suds,
            framework: "suds Python 0.4",
            tool: "suds client",
            language: ArtifactLanguage::Python,
            compilation: CompilationMode::Dynamic,
        }
    }

    fn generate_from(&self, defs: &Definitions, facts: &DocFacts) -> GenOutcome {
        if let Some(t) = facts.unresolved_types.first() {
            return GenOutcome::fail(format!("suds TypeNotFound: `{t}`"));
        }
        if let Some((ns, local)) = facts.unresolved_element_refs.first() {
            return GenOutcome::fail(format!("suds TypeNotFound: `{{{ns}}}{local}`"));
        }
        if facts.xsd_schema_refs >= 2 && facts.has_choice {
            return GenOutcome::fail(
                "suds schema cache cannot digest repeated s:schema refs inside a choice",
            );
        }
        GenOutcome::ok(generate(
            defs,
            ArtifactLanguage::Python,
            &StubOptions::default(),
            facts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{JBossWs, Metro, ServerSubsystem, WcfDotNet};
    use wsinterop_compilers::{instantiate, Compiler, Gpp};
    use wsinterop_typecat::{dotnet, java};

    fn wsdl_of(server: &dyn ServerSubsystem, fqcn: &str) -> String {
        server
            .deploy(server.catalog().get(fqcn).unwrap())
            .wsdl()
            .unwrap()
            .to_string()
    }

    #[test]
    fn gsoap_handles_plain_services_and_compiles() {
        let wsdl = wsdl_of(&Metro, "java.lang.String");
        let outcome = Gsoap.generate(&wsdl);
        assert!(outcome.succeeded());
        assert!(Gpp.compile(outcome.artifacts.as_ref().unwrap()).success());
    }

    #[test]
    fn gsoap_tolerates_addressing_but_rejects_type_parts() {
        let addressing = wsdl_of(&Metro, java::well_known::W3C_ENDPOINT_REFERENCE);
        assert!(Gsoap.generate(&addressing).succeeded());
        let type_parts = wsdl_of(&Metro, java::well_known::SIMPLE_DATE_FORMAT);
        assert!(!Gsoap.generate(&type_parts).succeeded());
    }

    #[test]
    fn gsoap_rejects_operation_less_and_choice() {
        let op_less = wsdl_of(&JBossWs, java::well_known::FUTURE);
        assert!(!Gsoap.generate(&op_less).succeeded());
        let choice = wsdl_of(&WcfDotNet, dotnet::well_known::DATA_SET);
        assert!(!Gsoap.generate(&choice).succeeded());
    }

    #[test]
    fn gsoap_tolerates_missing_soap_operation() {
        let wsdl = wsdl_of(&JBossWs, java::well_known::SIMPLE_DATE_FORMAT);
        assert!(Gsoap.generate(&wsdl).succeeded());
    }

    #[test]
    fn zend_never_fails_but_marks_uncommon_structures() {
        for (server, fqcn) in [
            (&Metro as &dyn ServerSubsystem, "java.lang.String"),
            (&Metro, java::well_known::W3C_ENDPOINT_REFERENCE),
            (&Metro, java::well_known::SIMPLE_DATE_FORMAT),
            (&JBossWs, java::well_known::FUTURE),
            (&WcfDotNet, dotnet::well_known::DATA_SET),
        ] {
            let outcome = Zend.generate(&wsdl_of(server, fqcn));
            assert!(outcome.succeeded(), "{fqcn}");
        }
        let marked = Zend.generate(&wsdl_of(&Metro, java::well_known::W3C_ENDPOINT_REFERENCE));
        let bundle = marked.artifacts.unwrap();
        let entry = bundle.entry_class().unwrap();
        assert!(entry.fields.iter().any(|f| f.name == "__raw_document"));
    }

    #[test]
    fn dynamic_clients_yield_empty_objects_for_operation_less_wsdl() {
        let wsdl = wsdl_of(&JBossWs, java::well_known::FUTURE);
        for client in [&Zend as &dyn ClientSubsystem, &Suds] {
            let outcome = client.generate(&wsdl);
            assert!(outcome.succeeded(), "{}", client.info().id);
            let check = instantiate(outcome.artifacts.as_ref().unwrap());
            assert!(check.empty_client(), "{}", client.info().id);
        }
    }

    #[test]
    fn suds_fails_on_addressing_and_dataset() {
        let addressing = wsdl_of(&Metro, java::well_known::W3C_ENDPOINT_REFERENCE);
        assert!(!Suds.generate(&addressing).succeeded());
        let dataset = wsdl_of(&WcfDotNet, dotnet::well_known::DATA_SET);
        assert!(!Suds.generate(&dataset).succeeded());
        // ...but a single-ref DataSet sibling is fine.
        let sibling = wsdl_of(&WcfDotNet, "System.Data.DataRowView");
        assert!(Suds.generate(&sibling).succeeded());
    }

    #[test]
    fn usable_dynamic_clients_for_plain_services() {
        let wsdl = wsdl_of(&Metro, "java.util.Date");
        for client in [&Zend as &dyn ClientSubsystem, &Suds] {
            let outcome = client.generate(&wsdl);
            let check = instantiate(outcome.artifacts.as_ref().unwrap());
            assert!(check.usable(), "{}", client.info().id);
        }
    }
}
