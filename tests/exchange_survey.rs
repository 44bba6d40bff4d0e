//! E9 quantified: the Communication + Execution cycle run once against
//! **every** deployed service of the corpus (the paper's future work,
//! measured).
//!
//! Of the 7 239 deployed services:
//!
//! * 7 234 complete the echo roundtrip,
//! * 3 cannot be invoked at all — the two WS-I-conformant
//!   operation-less JBossWS services plus Metro's `type=`-parts
//!   `SimpleDateFormat` document (nothing for a doc/literal stub to
//!   build a request from),
//! * 2 fault — the `xsd:any` DataTable family, whose wildcard wrappers
//!   give the echo no element to carry the value back in.
//!
//! All five non-completing services passed, or could have passed,
//! earlier static steps for at least some clients — the quantitative
//! core of the paper's argument that step-1/2/3 screening is not
//! sufficient.

use wsinterop::core::exchange::{exchange_parsed, exchange_with_faults, survey};
use wsinterop::core::faults::WireFault;
use wsinterop::core::wire::host_survey_services;
use wsinterop::core::DocCache;
use wsinterop::wsdl::de::from_xml_str;

#[test]
fn full_corpus_exchange_survey() {
    let s = survey(1);
    assert_eq!(s.total(), 7_239, "every deployed service is surveyed");
    assert_eq!(s.completed, 7_234);
    assert_eq!(s.not_invocable, 3);
    assert_eq!(s.faulted, 2);
}

/// The chaos wire probe runs the exchange core on the campaign's shared
/// parse. Over every invocable stride-20 service and every wire fault,
/// the text exchange equals that core run on a parse of the same text:
/// `from_xml_str`'s and the client tools' `ParsedService` alike.
#[test]
fn exchange_core_on_a_shared_parse_equals_the_text_exchange() {
    let faults = [
        None,
        Some(WireFault::TruncateEnvelope),
        Some(WireFault::WrongNamespace),
        Some(WireFault::DropResponse),
    ];
    let cache = DocCache::new();
    let mut invocable = 0;
    for (path, service) in host_survey_services(20) {
        let svc = cache.parse(service.wsdl_xml.clone());
        let (Some(shared), Some(op)) = (svc.defs(), svc.first_operation()) else {
            continue;
        };
        let defs = from_xml_str(&service.wsdl_xml).expect("an invocable text parses");
        invocable += 1;
        for fault in faults {
            let text = exchange_with_faults(&service.wsdl_xml, op, "chaos-probe", fault);
            assert_eq!(
                exchange_parsed(&defs, op, "chaos-probe", fault),
                text,
                "{path} {fault:?}"
            );
            assert_eq!(
                exchange_parsed(shared, op, "chaos-probe", fault),
                text,
                "{path} {fault:?}"
            );
        }
    }
    assert!(invocable > 300, "only {invocable} invocable services");
}
