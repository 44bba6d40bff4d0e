//! Bit-identity of the WS-I analysis and the document facts over the
//! published corpus.
//!
//! Every Table III cell reads the Basic Profile report of its
//! description (the SDG warnings of Fig. 4) and the `DocFacts` the
//! client policies are written against. This test parses every
//! stride-1 published WSDL of the three paper servers and the Axis2
//! extension server, renders the `Analyzer::basic_profile_1_1()` report
//! with `Display` and the facts with `{:?}`, and pins a digest of each.
//! A change to symbol resolution, to the schema walk or to how a
//! finding names its location changes a digest.

use wsinterop::frameworks::client::facts::DocFacts;
use wsinterop::frameworks::server::{extension_servers, DeployOutcome};
use wsinterop::typecat::rng::fnv1a;
use wsinterop::wsdl::de::from_xml_str;
use wsinterop::wsi::resolve::Where;
use wsinterop::wsi::Analyzer;

/// Folds `bytes` into a running digest.
fn fold(digest: u64, bytes: &[u8]) -> u64 {
    fnv1a([&digest.to_le_bytes()[..], bytes].concat())
}

#[test]
fn analysis_and_facts_are_bit_identical_over_the_corpus() {
    let analyzer = Analyzer::basic_profile_1_1();
    let mut reports = fnv1a(b"");
    let mut facts = fnv1a(b"");
    let (mut documents, mut nonconformant, mut findings) = (0usize, 0usize, 0usize);
    for server in extension_servers() {
        for entry in server.catalog().entries() {
            let DeployOutcome::Deployed { wsdl_xml } = server.deploy(entry) else {
                continue;
            };
            let defs = from_xml_str(&wsdl_xml).expect("a published WSDL parses");
            let report = analyzer.analyze(&defs);
            documents += 1;
            nonconformant += usize::from(!report.conformant());
            findings += report.findings().len();
            reports = fold(reports, report.to_string().as_bytes());
            facts = fold(facts, format!("{:?}", DocFacts::analyze(&defs)).as_bytes());
        }
    }
    assert_eq!((documents, nonconformant, findings), (9_728, 84, 171));
    assert_eq!(
        reports, 0x5a19_53ec_eb43_6235,
        "report digest {reports:#018x}"
    );
    assert_eq!(facts, 0x8ea8_8ccd_3db3_3909, "facts digest {facts:#018x}");
}

#[test]
fn finding_locations_display_as_before() {
    assert_eq!(Where::Element("x").to_string(), "element `x`");
    assert_eq!(Where::ComplexType(Some("x")).to_string(), "complexType `x`");
    assert_eq!(
        Where::ComplexType(None).to_string(),
        "complexType `<anonymous>`"
    );
}
