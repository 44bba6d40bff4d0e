//! Prefix resolution must cost linear time in the number of namespace
//! declarations in scope: a request body the serving core parses may
//! declare any number of prefixes and use each one. The checks compare
//! two sizes in one process, so they hold on any host: a linear
//! resolver's time ratio for 8× the declarations sits near 8×, a
//! quadratic one's near 64×.

use std::time::{Duration, Instant};

use wsinterop_xml::parse_arena;
use wsinterop_xml::scope::NsBindings;

/// A root declaring `n` prefixes, with one child per prefix named
/// through it, the first-declared prefix first.
fn document(n: usize) -> String {
    let mut xml = String::from("<r");
    for i in 0..n {
        xml.push_str(&format!(" xmlns:p{i}=\"urn:{i}\""));
    }
    xml.push('>');
    for i in 0..n {
        xml.push_str(&format!("<p{i}:c p{i}:a=\"v\"/>"));
    }
    xml.push_str("</r>");
    xml
}

/// The fastest of a few runs of `work`.
fn best_time(mut work: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

fn assert_linear(what: &str, n: usize, small: Duration, large: Duration) {
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    assert!(
        ratio < 20.0,
        "{what}: {n} declarations took {small:?}, {} took {large:?}: ratio {ratio:.1}",
        8 * n
    );
}

#[test]
fn parser_resolution_scales_linearly() {
    let n = 2_000;
    let (small, large) = (document(n), document(8 * n));
    let time = |xml: &str| best_time(|| assert!(parse_arena(xml).is_ok()));
    assert_linear("parse", n, time(&small), time(&large));
}

#[test]
fn binding_resolution_scales_linearly() {
    let n = 2_000;
    let (small, large) = (document(n), document(8 * n));
    let (small, large) = (parse_arena(&small).unwrap(), parse_arena(&large).unwrap());
    let time = |doc: &wsinterop_xml::arena::Arena<'_>| {
        best_time(|| {
            let mut scope = NsBindings::new();
            scope.push_element(doc.root());
            for child in doc.root().child_elements() {
                scope.push_element(child);
                let (uri, _) = scope.resolve_qname_value(child.name()).unwrap();
                assert!(uri.is_some());
                scope.pop();
            }
        })
    };
    assert_linear("NsBindings", n, time(&small), time(&large));
}

#[test]
fn shadowed_prefixes_resolve_past_the_inline_scan() {
    // 40 declarations of `p` nested one per element: each level must
    // see its own binding, and the outer one again after the inner
    // element closes.
    let depth = 40;
    let mut xml = String::new();
    for i in 0..depth {
        xml.push_str(&format!("<p:e{i} xmlns:p=\"urn:{i}\">"));
    }
    xml.push_str("<p:leaf/>");
    for i in (0..depth).rev() {
        xml.push_str(&format!("<p:tail{i}/></p:e{i}>"));
    }
    let doc = parse_arena(&xml).unwrap();
    let mut el = doc.root();
    for i in 0..depth {
        assert_eq!(el.ns_uri(), Some(format!("urn:{i}").as_str()));
        let mut children = el.child_elements();
        let next = children.next().unwrap();
        let tail = children.next().unwrap();
        assert_eq!(tail.ns_uri(), Some(format!("urn:{i}").as_str()));
        el = next;
    }
    assert_eq!(el.ns_uri(), Some(format!("urn:{}", depth - 1).as_str()));
    // An undeclared prefix still fails past the inline scan.
    let err = parse_arena(&document(40).replace("<p3:c p3:a", "<q:c p3:a")).unwrap_err();
    assert!(
        err.to_string().ends_with("undeclared namespace prefix `q`"),
        "{err}"
    );
}
