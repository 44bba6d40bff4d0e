//! Property-based tests for the XML crate: escaping, write→parse
//! roundtrips over randomly generated trees (the parsed arena read
//! back against the tree that was written), namespace resolution
//! against a reference resolver, and duplicate-attribute rejection.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wsinterop_xml::escape::{escape_attr, escape_text, unescape};
use wsinterop_xml::writer::{write_document, WriteOptions};
use wsinterop_xml::{parse_arena, Document, Element, ElementRef, Node};

proptest! {
    /// Any string survives text-escape → unescape unchanged.
    #[test]
    fn escape_text_roundtrip(raw in "\\PC{0,64}") {
        let escaped = escape_text(&raw);
        let un = unescape(&escaped).unwrap();
        prop_assert_eq!(un.as_ref(), raw.as_str());
    }

    /// Any string survives attr-escape → unescape unchanged.
    #[test]
    fn escape_attr_roundtrip(raw in "\\PC{0,64}") {
        let escaped = escape_attr(&raw);
        let un = unescape(&escaped).unwrap();
        prop_assert_eq!(un.as_ref(), raw.as_str());
    }

    /// Escaped text never contains raw markup characters.
    #[test]
    fn escaped_text_has_no_markup(raw in "\\PC{0,64}") {
        let escaped = escape_text(&raw);
        prop_assert!(!escaped.contains('<'));
        // `&` may only appear as the start of an entity.
        for (i, _) in escaped.match_indices('&') {
            prop_assert!(escaped[i..].contains(';'));
        }
    }
}

fn ncname() -> impl Strategy<Value = String> {
    // `xmlns` is excluded: declaring namespaces with random URIs changes
    // resolved element namespaces, which the roundtrip deliberately
    // exercises elsewhere with well-formed declarations.
    "[a-zA-Z_][a-zA-Z0-9_.-]{0,8}".prop_filter("not xmlns", |s| s != "xmlns")
}

/// Attribute values: printable chars, no surrogate issues.
fn attr_value() -> impl Strategy<Value = String> {
    "[ -~]{0,16}"
}

/// Text content that is not whitespace-only (whitespace-only text nodes
/// between elements are legitimately dropped by the parser).
fn text_value() -> impl Strategy<Value = String> {
    "[ -~]{0,16}[!-~]"
}

fn arb_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (ncname(), prop::collection::vec((ncname(), attr_value()), 0..3)).prop_map(
        |(name, attrs)| {
            let mut el = Element::new(&name);
            for (an, av) in attrs {
                el.set_attr(&an, av);
            }
            el
        },
    );
    if depth == 0 {
        return leaf.boxed();
    }
    (
        leaf,
        prop::collection::vec(
            prop_oneof![
                arb_element(depth - 1).prop_map(Node::Element),
                text_value().prop_map(Node::Text),
            ],
            0..3,
        ),
    )
        .prop_map(|(mut el, children)| {
            for c in children {
                el.push_node(c);
            }
            el
        })
        .boxed()
}

/// Normalizes a tree the way a write→parse cycle legitimately may:
/// adjacent text nodes merge; whitespace-only text between elements in
/// element-only content disappears under pretty printing.
fn canonical(el: &Element) -> Element {
    let mut out = Element::new(&el.name().to_string());
    for a in el.attrs() {
        out.set_attr(&a.name().to_string(), a.value());
    }
    let mut pending_text = String::new();
    let flush = |out: &mut Element, pending: &mut String| {
        if !pending.trim().is_empty() {
            out.push_text(std::mem::take(pending));
        } else {
            pending.clear();
        }
    };
    for c in el.children() {
        match c {
            Node::Text(t) | Node::CData(t) => pending_text.push_str(t),
            Node::Element(child) => {
                flush(&mut out, &mut pending_text);
                out.push_element(canonical(child));
            }
            _ => {}
        }
    }
    flush(&mut out, &mut pending_text);
    out
}

/// The child elements of an owned tree.
fn kids(el: &Element) -> impl Iterator<Item = &Element> {
    el.children().iter().filter_map(|node| match node {
        Node::Element(child) => Some(child),
        _ => None,
    })
}

/// Checks an arena view against a tree: name, attributes in order,
/// child elements in order, and text.
fn assert_view_matches(view: ElementRef<'_>, el: &Element) {
    assert_eq!(view.name(), el.name().to_string());
    let attrs: Vec<_> = view.attrs().map(|a| (a.name(), a.value())).collect();
    let want: Vec<_> = el
        .attrs()
        .iter()
        .map(|a| (a.name().to_string(), a.value()))
        .collect();
    assert_eq!(attrs.len(), want.len());
    for ((name, value), (want_name, want_value)) in attrs.iter().zip(&want) {
        assert_eq!((*name, *value), (want_name.as_str(), *want_value));
    }
    assert_eq!(view.text_content(), el.text_content());
    assert_eq!(view.child_elements().count(), kids(el).count());
    for (v, e) in view.child_elements().zip(kids(el)) {
        assert_view_matches(v, e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write → parse reads back a canonically equal tree, under both
    /// layouts.
    #[test]
    fn write_parse_roundtrip(el in arb_element(3)) {
        let expected = canonical(&el);
        let doc = Document::new(el);
        for opts in [WriteOptions::compact(), WriteOptions::pretty()] {
            let xml = write_document(&doc, &opts);
            let arena = parse_arena(&xml).unwrap();
            assert_view_matches(arena.root(), &expected);
        }
    }

    /// Parsing never panics on arbitrary input.
    #[test]
    fn parser_never_panics(raw in "\\PC{0,128}") {
        let _ = parse_arena(&raw);
    }
}

// ---- namespaces -------------------------------------------------------

/// Prefixes the namespace generator declares; `xml`/`xmlns` are reserved.
const PREFIXES: [&str; 3] = ["p", "q", "ns1"];
/// Namespace URIs it binds them to.
const URIS: [&str; 3] = ["urn:a", "urn:b", "http://example.org/c"];

/// Names with non-ASCII letters too, so the parser's Unicode name path
/// is exercised alongside its ASCII fast path.
fn any_ncname() -> impl Strategy<Value = String> {
    prop_oneof![ncname(), "[a-zA-Z_ßλ中][a-zA-Z0-9_.ßλ中-]{0,6}"]
}

/// One element of a namespace-heavy tree, before undeclared prefixes
/// are fixed up.
#[derive(Debug, Clone)]
struct NsSpec {
    prefix: Option<&'static str>,
    local: String,
    /// `xmlns:p="uri"` declarations, possibly shadowing an ancestor's.
    decls: Vec<(&'static str, &'static str)>,
    /// `xmlns="uri"`; `""` un-declares the default namespace.
    default_decl: Option<&'static str>,
    attrs: Vec<(Option<&'static str>, String, String)>,
    children: Vec<NsSpec>,
}

fn arb_ns_spec(depth: u32) -> BoxedStrategy<NsSpec> {
    let prefix = || prop::sample::select(PREFIXES.to_vec());
    let node = (
        prop::option::of(prefix()),
        any_ncname(),
        prop::collection::vec((prefix(), prop::sample::select(URIS.to_vec())), 0..3),
        prop::option::of(prop::sample::select(vec!["urn:a", "urn:b", ""])),
        prop::collection::vec((prop::option::of(prefix()), ncname(), attr_value()), 0..3),
    );
    let children = if depth == 0 {
        (0usize..1).prop_map(|_| Vec::new()).boxed()
    } else {
        prop::collection::vec(arb_ns_spec(depth - 1), 0..3).boxed()
    };
    (node, children)
        .prop_map(
            |((prefix, local, decls, default_decl, attrs), children)| NsSpec {
                prefix,
                local,
                decls,
                default_decl,
                attrs,
                children,
            },
        )
        .boxed()
}

/// Builds the element tree for `spec`. A prefix used on an element or
/// attribute but not declared on it or an ancestor gets a declaration
/// here, so the tree is always namespace-well-formed. No resolved
/// namespace is set: that is the parser's job.
fn realize(spec: &NsSpec, declared: &[&'static str]) -> Element {
    let mut declared = declared.to_vec();
    let name = match spec.prefix {
        Some(p) => format!("{p}:{}", spec.local),
        None => spec.local.clone(),
    };
    let mut el = Element::new(&name);
    if let Some(uri) = spec.default_decl {
        el.declare_ns(None, uri);
    }
    for (p, uri) in &spec.decls {
        el.declare_ns(Some(p), uri);
        declared.push(p);
    }
    let used = spec
        .prefix
        .into_iter()
        .chain(spec.attrs.iter().filter_map(|a| a.0));
    for p in used {
        if !declared.contains(&p) {
            el.declare_ns(Some(p), URIS[0]);
            declared.push(p);
        }
    }
    for (p, local, value) in &spec.attrs {
        match p {
            Some(p) => el.set_attr(&format!("{p}:{local}"), value.as_str()),
            None => el.set_attr(local, value.as_str()),
        }
    }
    for child in &spec.children {
        el.push_element(realize(child, &declared));
    }
    el
}

/// The reference resolver: recomputes every element's namespace from
/// the declarations in the tree, keeping a whole prefix→URI map per
/// level (no shared stack, no sharing of URIs), and appends them to
/// `out` in document order.
fn reference_ns(
    el: &Element,
    inherited: &BTreeMap<Option<String>, String>,
    out: &mut Vec<Option<String>>,
) {
    let mut scope = inherited.clone();
    for a in el.attrs() {
        let declared = match (a.name().prefix(), a.name().local_part()) {
            (None, "xmlns") => None,
            (Some("xmlns"), p) => Some(p.to_string()),
            _ => continue,
        };
        scope.insert(declared, a.value().to_string());
    }
    let prefix = el.name().prefix().map(str::to_string);
    out.push(scope.get(&prefix).filter(|uri| !uri.is_empty()).cloned());
    for child in kids(el) {
        reference_ns(child, &scope, out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Namespaces declared on ancestors, shadowed in children and
    /// un-declared with `xmlns=""` resolve on every element exactly as
    /// the reference resolver says, under both writer layouts.
    #[test]
    fn parsed_namespaces_match_the_reference_resolver(spec in arb_ns_spec(3)) {
        let tree = realize(&spec, &[]);
        let mut expected = Vec::new();
        reference_ns(&tree, &BTreeMap::new(), &mut expected);
        for opts in [WriteOptions::compact(), WriteOptions::pretty()] {
            let xml = write_document(&Document::new(tree.clone()), &opts);
            let parsed = parse_arena(&xml).unwrap();
            let uris: Vec<_> = parsed
                .root()
                .descendants()
                .map(|e| e.ns_uri().map(str::to_string))
                .collect();
            prop_assert_eq!(&uris, &expected, "{}", xml);
            assert_view_matches(parsed.root(), &canonical(&tree));
        }
    }

    /// Repeating any attribute of a start tag — plain, prefixed or a
    /// namespace declaration — is always rejected, at the repeat.
    #[test]
    fn duplicate_attributes_are_always_rejected(
        attrs in prop::collection::vec(
            (prop::option::of(prop::sample::select(vec!["p", "xmlns"])), any_ncname()),
            1..5,
        ),
        pick in 0usize..4,
        value in attr_value(),
    ) {
        // `xmlns:p` comes first so that `p:` attributes are declared.
        let mut names = vec!["xmlns:p".to_string()];
        names.extend(attrs.iter().map(|(p, local)| match p {
            Some(p) => format!("{p}:{local}"),
            None => local.clone(),
        }));
        names.push(names[1 + pick % attrs.len()].clone());
        let mut xml = String::from("<e");
        for name in &names {
            xml.push_str(&format!(" {name}=\"{}\"", escape_attr(&value)));
        }
        xml.push_str("/>");
        let err = parse_arena(&xml).unwrap_err();
        let first_dup = names
            .iter()
            .enumerate()
            .find(|(i, n)| names[..*i].contains(n))
            .map(|(_, n)| n)
            .expect("the last name repeats an earlier one");
        prop_assert_eq!(err.message(), format!("duplicate attribute `{first_dup}`"));
    }
}
