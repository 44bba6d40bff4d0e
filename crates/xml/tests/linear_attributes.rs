//! The parser's cost must grow linearly with the number of attributes
//! on one element: a request body the serving core parses may carry
//! any number of them. The method is [`timing`]'s alternating minima.

mod timing;

use timing::{assert_linear, minima};
use wsinterop_xml::parse_arena;

/// One element with `n` distinct attributes, optionally repeating the
/// first one at the end.
fn element(n: usize, duplicate_last: bool) -> String {
    let mut xml = String::from("<e");
    for i in 0..n {
        xml.push_str(&format!(" a{i}=\"v\""));
    }
    if duplicate_last {
        xml.push_str(" a0=\"v\"");
    }
    xml.push_str("/>");
    xml
}

#[test]
fn attribute_count_scales_linearly() {
    let n = 2_000;
    let (small, large) = (element(n, false), element(8 * n, false));
    let parse = |xml: &str| assert!(parse_arena(xml).is_ok());
    assert_linear("parse", n, "attributes", minima(|| parse(&small), || parse(&large)));
}

#[test]
fn duplicates_are_found_past_the_inline_scan() {
    for n in [1, 15, 16, 17, 100] {
        let err = parse_arena(&element(n, true)).expect_err("duplicate attribute");
        assert!(
            err.to_string().ends_with("duplicate attribute `a0`"),
            "{n} attributes: {err}"
        );
    }
    assert!(parse_arena(&element(100, false)).is_ok());
}
