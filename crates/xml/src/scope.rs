//! Tracking of in-scope namespace bindings while walking a document.
//!
//! The parser resolves *element* namespaces, but attribute **values**
//! that are lexical QNames (`type="xsd:int"`,
//! `message="tns:echoRequest"`) must be resolved against the bindings in
//! scope at the element that carries them. [`NsBindings`] is a small
//! stack consumers push/pop while descending an [`Arena`]. It borrows
//! the declarations from the arena, so pushing an element copies no
//! strings.
//!
//! [`Arena`]: crate::arena::Arena

use crate::arena::ElementRef;
use crate::name::{local_start, ns, split_at};

/// A stack of namespace-declaration frames.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::{parse_arena, scope::NsBindings};
/// let doc = parse_arena(r#"<a xmlns:x="urn:x"><b type="x:T"/></a>"#)?;
/// let mut scope = NsBindings::new();
/// scope.push_element(doc.root());
/// let b = doc.root().child_elements().next().unwrap();
/// scope.push_element(b);
/// let (ns_uri, local) = scope.resolve_qname_value(b.attr("type").unwrap()).unwrap();
/// assert_eq!(ns_uri, Some("urn:x"));
/// assert_eq!(local, "T");
/// # Ok::<(), wsinterop_xml::ParseXmlError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct NsBindings<'a> {
    /// Every binding in scope, innermost last.
    bindings: Vec<(Option<&'a str>, &'a str)>,
    /// Where each frame starts in `bindings`.
    frames: Vec<usize>,
}

impl<'a> NsBindings<'a> {
    /// An empty scope with the `xml:` prefix predeclared.
    pub fn new() -> NsBindings<'a> {
        NsBindings {
            bindings: vec![(Some("xml"), ns::XML)],
            frames: vec![0],
        }
    }

    /// Pushes the namespace declarations found on `el` as a new frame.
    ///
    /// Call once per element while descending; pair with
    /// [`NsBindings::pop`] when leaving the element.
    pub fn push_element(&mut self, el: ElementRef<'a>) {
        self.frames.push(self.bindings.len());
        self.bindings.extend(el.ns_decls());
    }

    /// Pops the innermost frame.
    pub fn pop(&mut self) {
        if let Some(start) = self.frames.pop() {
            self.bindings.truncate(start);
        }
    }

    /// Resolves a prefix (`None` = default namespace) to a URI.
    pub fn resolve(&self, prefix: Option<&str>) -> Option<&'a str> {
        let (_, uri) = self.bindings.iter().rev().find(|(p, _)| *p == prefix)?;
        // An empty URI un-declares the default namespace.
        (!uri.is_empty()).then_some(*uri)
    }

    /// Resolves a lexical QName attribute value to `(ns-uri, local)`,
    /// both borrowed.
    ///
    /// Returns `None` when the value is not a lexical QName or uses an
    /// undeclared prefix. Unprefixed values resolve to the in-scope
    /// default namespace (per XSD QName-resolution rules).
    pub fn resolve_qname_value<'r>(&self, raw: &'r str) -> Option<(Option<&'a str>, &'r str)> {
        let (prefix, local) = split_at(raw, local_start(raw).ok()?);
        match prefix {
            Some(p) => Some((Some(self.resolve(Some(p))?), local)),
            None => Some((self.resolve(None), local)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_arena;

    #[test]
    fn resolves_across_frames_with_shadowing() {
        let doc = parse_arena(r#"<a xmlns:p="urn:1"><b xmlns:p="urn:2"/></a>"#).unwrap();
        let el = doc.root();
        let mut scope = NsBindings::new();
        scope.push_element(el);
        assert_eq!(scope.resolve(Some("p")), Some("urn:1"));
        let b = el.child_elements().next().unwrap();
        scope.push_element(b);
        assert_eq!(scope.resolve(Some("p")), Some("urn:2"));
        scope.pop();
        assert_eq!(scope.resolve(Some("p")), Some("urn:1"));
    }

    #[test]
    fn unprefixed_value_uses_default_ns() {
        let doc = parse_arena(r#"<a xmlns="urn:d"/>"#).unwrap();
        let mut scope = NsBindings::new();
        scope.push_element(doc.root());
        let (uri, local) = scope.resolve_qname_value("T").unwrap();
        assert_eq!(uri, Some("urn:d"));
        assert_eq!(local, "T");
    }

    #[test]
    fn undeclared_prefix_yields_none() {
        let scope = NsBindings::new();
        assert!(scope.resolve_qname_value("nope:T").is_none());
    }

    #[test]
    fn empty_default_namespace_undeclares_it() {
        let doc = parse_arena(r#"<a xmlns="urn:d"><b xmlns=""/></a>"#).unwrap();
        let el = doc.root();
        let mut scope = NsBindings::new();
        scope.push_element(el);
        scope.push_element(el.child_elements().next().unwrap());
        assert_eq!(scope.resolve(None), None);
        scope.pop();
        assert_eq!(scope.resolve(None), Some("urn:d"));
    }

    #[test]
    fn popping_the_base_frame_drops_the_xml_prefix() {
        let mut scope = NsBindings::new();
        scope.pop();
        assert_eq!(scope.resolve(Some("xml")), None);
        scope.pop();
        assert_eq!(scope.resolve(Some("xml")), None);
    }

    #[test]
    fn xml_prefix_predeclared() {
        let scope = NsBindings::new();
        assert_eq!(scope.resolve(Some("xml")), Some(ns::XML));
    }

    #[test]
    fn invalid_qname_yields_none() {
        let scope = NsBindings::new();
        assert!(scope.resolve_qname_value("a:b:c").is_none());
        assert!(scope.resolve_qname_value("").is_none());
    }
}
