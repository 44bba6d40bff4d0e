//! The echo's cost must grow linearly with the size of the echoed
//! value: a hosted service answers whatever a client sends, on the
//! reactor thread that owns the connection. The checks compare
//! `serve_echo` on a value with `n` and with `8n` children, attributes
//! or namespace declarations, in one process, so they hold on any
//! host: a linear echo's time ratio sits near 8×, a quadratic one's
//! near 64×. The two sizes are timed alternately and their fastest
//! rounds compared, as in the XML crate's `linear_*` tests.

use std::time::{Duration, Instant};

use wsinterop::core::exchange::serve_echo;
use wsinterop::wsdl::builder::doc_literal_echo;
use wsinterop::wsdl::{soap, Definitions};
use wsinterop::xsd::{BuiltIn, TypeRef};

const ROUNDS: usize = 7;

/// A string echo service, its operation and wrapper namespace.
fn service() -> Definitions {
    doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::String))
}

/// A request whose echoed value has `attrs` on its start tag and
/// `content` inside it.
fn request(attrs: &str, content: &str) -> String {
    format!(
        "<soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">\
         <soapenv:Body><m:echo xmlns:m=\"urn:t\"><m:arg0{attrs}>{content}</m:arg0></m:echo>\
         </soapenv:Body></soapenv:Envelope>"
    )
}

fn children(n: usize) -> String {
    request("", &(0..n).map(|i| format!("<c k=\"{i}\">t&amp;{i}</c>")).collect::<String>())
}

fn attributes(n: usize) -> String {
    request(&(0..n).map(|i| format!(" a{i}=\"v{i}\"")).collect::<String>(), "t")
}

fn declarations(n: usize) -> String {
    let decls: String = (0..n).map(|i| format!(" xmlns:p{i}=\"urn:{i}\"")).collect();
    let uses: String = (0..n).map(|i| format!("<p{i}:c p{i}:a=\"v\"/>")).collect();
    request(&decls, &uses)
}

/// The fastest echo of `small` and of `large`, timed alternately.
fn minima(defs: &Definitions, small: &str, large: &str) -> (Duration, Duration) {
    let time = |xml: &str| {
        let start = Instant::now();
        let response = serve_echo(defs, xml);
        let elapsed = start.elapsed();
        assert!(!soap::is_fault(&response), "{}", &response[..response.len().min(300)]);
        elapsed
    };
    let (mut fast_small, mut fast_large) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        fast_small = fast_small.min(time(small));
        fast_large = fast_large.min(time(large));
    }
    (fast_small, fast_large)
}

fn assert_linear(what: &str, shape: fn(usize) -> String) {
    let n = 2_000;
    let defs = service();
    let (small, large) = minima(&defs, &shape(n), &shape(8 * n));
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    assert!(
        ratio < 20.0,
        "{n} {what} took {small:?}, {} took {large:?}: ratio {ratio:.1}",
        8 * n
    );
}

#[test]
fn echoed_children_scale_linearly() {
    assert_linear("children", children);
}

#[test]
fn echoed_attributes_scale_linearly() {
    assert_linear("attributes", attributes);
}

#[test]
fn echoed_namespace_declarations_scale_linearly() {
    assert_linear("namespace declarations", declarations);
}
