//! The parser's cost must grow linearly with the number of attributes
//! on one element: a request body the serving core parses may carry
//! any number of them. The check compares two sizes in one process, so
//! it holds on any host: a linear parser's time ratio for 8× the
//! attributes sits near 8×, a quadratic one's near 64×.

use std::time::{Duration, Instant};

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

/// The fastest of a few parses of `xml`.
fn best_parse_time(xml: &str) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            assert!(parse_arena(xml).is_ok());
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

#[test]
fn attribute_count_scales_linearly() {
    let n = 2_000;
    let small = best_parse_time(&element(n, false));
    let large = best_parse_time(&element(8 * n, false));
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    assert!(
        ratio < 20.0,
        "{n} attributes took {small:?}, {} took {large:?}: ratio {ratio:.1}",
        8 * n
    );
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
