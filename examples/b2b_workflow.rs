//! A business-to-business scenario (the deployment environment the
//! paper's introduction motivates): a purchasing workflow spanning
//! services hosted on all three platforms, exchanged through typed,
//! schema-validated SOAP messages over the in-memory host.
//!
//! ```text
//! cargo run --example b2b_workflow
//! ```

use wsinterop::core::registry::ServiceHost;
use wsinterop::frameworks::server::{JBossWs, Metro, WcfDotNet};
use wsinterop::wsdl::de::from_xml_str;
use wsinterop::wsdl::values;
use wsinterop::wsdl::soap;
use wsinterop::xml::writer::{write_document, WriteOptions};
use wsinterop::xsd::BuiltIn;

fn main() {
    let mut host = ServiceHost::new();

    // Three partners, three platforms — the core interop premise.
    let partners = [
        ("supplier (GlassFish/Metro)", host.deploy_one(&Metro, "java.util.GregorianCalendar")),
        ("logistics (JBoss/JBossWS)", host.deploy_one(&JBossWs, "java.net.Socket")),
        ("billing (IIS/WCF .NET)", host.deploy_one(&WcfDotNet, "System.Drawing.Rectangle")),
    ];

    println!("== B2B deployment ==");
    let mut urls = Vec::new();
    for (who, deployed) in partners {
        match deployed {
            Ok(url) => {
                println!("  {who:<28} {url}");
                urls.push((who, url));
            }
            Err(reason) => println!("  {who:<28} REFUSED: {reason}"),
        }
    }

    println!("\n== typed exchanges across platforms ==");
    for (who, url) in &urls {
        let wsdl = host.wsdl(url).unwrap().to_string();
        let defs = from_xml_str(&wsdl).unwrap();
        let param_type = values::echo_parameter_type(&defs).expect("echo parameter");
        let order = values::sample_value(&defs, &param_type).unwrap();
        let request = values::typed_request(&defs, "echo", &order).unwrap();
        let request_xml = write_document(&request, &WriteOptions::compact());
        let response = host.dispatch(url, &request_xml).unwrap();
        assert!(!soap::is_fault(&response), "{who}: {response}");
        let echoed = values::typed_payload_value(&defs, &response).unwrap();
        assert_eq!(echoed, order);
        println!("  {who:<28} sent {} bytes, echoed: {echoed}", request_xml.len());
    }

    // A validation failure: a partner rejects a payload whose value
    // violates the schema's lexical space (corrupted on the wire, so
    // the *server-side* validation catches it).
    println!("\n== schema enforcement ==");
    let cal_url = host
        .deploy_one(&Metro, "javax.xml.datatype.XMLGregorianCalendar")
        .unwrap();
    let wsdl = host.wsdl(&cal_url).unwrap().to_string();
    let defs = from_xml_str(&wsdl).unwrap();
    let param_type = values::echo_parameter_type(&defs).unwrap();
    let good = values::sample_value(&defs, &param_type).unwrap();
    let request = values::typed_request(&defs, "echo", &good).unwrap();
    let wire = write_document(&request, &WriteOptions::compact()).replace(
        &format!("<yearMonth>{}</yearMonth>", wsinterop::xsd::lexical::sample(BuiltIn::GYearMonth)),
        "<yearMonth>NOT-A-YEAR-MONTH</yearMonth>",
    );
    let response = host.dispatch(&cal_url, &wire).unwrap();
    assert!(soap::is_fault(&response));
    let parsed = soap::parse_envelope(&response).unwrap();
    println!(
        "  corrupted `yearMonth` on the wire -> {}",
        soap::body_payload(&parsed).unwrap().text_content().trim()
    );

    println!("\nb2b workflow complete.");
}
