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

use std::collections::HashMap;

use crate::arena::ElementRef;
use crate::name::{local_start, ns, split_at};

/// Bindings in scope resolved by a scan from the top; past this many,
/// through per-prefix binding stacks.
const INLINE_SCOPE: usize = 16;

/// The prefix bindings in scope, innermost last, each binding a prefix
/// (`None` for the default namespace) to a value. Both the parser and
/// [`NsBindings`] keep theirs here.
///
/// A document declares a handful of prefixes, so a resolution scans
/// the bindings from the top. Once more than [`INLINE_SCOPE`] are in
/// scope, every prefix also gets a stack of its bindings, and a
/// resolution reads the top of its prefix's stack: `n` declarations
/// resolved by `n` names then cost linear, not quadratic, time.
#[derive(Debug, Clone)]
pub(crate) struct PrefixScope<'a, V> {
    bindings: Vec<(Option<&'a str>, V)>,
    by_prefix: Option<HashMap<Option<&'a str>, Vec<V>>>,
}

impl<'a, V: Copy> PrefixScope<'a, V> {
    /// A scope holding `bindings`, outermost first.
    pub(crate) fn new(bindings: Vec<(Option<&'a str>, V)>) -> PrefixScope<'a, V> {
        PrefixScope {
            bindings,
            by_prefix: None,
        }
    }

    /// Bindings in scope.
    pub(crate) fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Binds `prefix` to `value`, shadowing any outer binding of it.
    pub(crate) fn push(&mut self, prefix: Option<&'a str>, value: V) {
        self.bindings.push((prefix, value));
        match &mut self.by_prefix {
            Some(stacks) => stacks.entry(prefix).or_default().push(value),
            None if self.bindings.len() > INLINE_SCOPE => {
                let mut stacks: HashMap<_, Vec<V>> = HashMap::new();
                for &(prefix, value) in &self.bindings {
                    stacks.entry(prefix).or_default().push(value);
                }
                self.by_prefix = Some(stacks);
            }
            None => {}
        }
    }

    /// Drops every binding past the first `len`.
    pub(crate) fn truncate(&mut self, len: usize) {
        if let Some(stacks) = &mut self.by_prefix {
            for (prefix, _) in self.bindings.get(len..).unwrap_or_default() {
                if let Some(stack) = stacks.get_mut(prefix) {
                    stack.pop();
                }
            }
        }
        self.bindings.truncate(len);
    }

    /// The innermost value bound to `prefix`.
    pub(crate) fn resolve(&self, prefix: Option<&str>) -> Option<V> {
        match &self.by_prefix {
            Some(stacks) => stacks.get(&prefix)?.last().copied(),
            None => self
                .bindings
                .iter()
                .rev()
                .find(|(p, _)| *p == prefix)
                .map(|&(_, value)| value),
        }
    }
}

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
#[derive(Debug, Clone)]
pub struct NsBindings<'a> {
    /// Every binding in scope, innermost last.
    bindings: PrefixScope<'a, &'a str>,
    /// Where each frame starts in `bindings`.
    frames: Vec<usize>,
}

impl Default for NsBindings<'_> {
    fn default() -> Self {
        NsBindings {
            bindings: PrefixScope::new(Vec::new()),
            frames: Vec::new(),
        }
    }
}

impl<'a> NsBindings<'a> {
    /// An empty scope with the `xml:` prefix predeclared.
    pub fn new() -> NsBindings<'a> {
        NsBindings {
            bindings: PrefixScope::new(vec![(Some("xml"), ns::XML)]),
            frames: vec![0],
        }
    }

    /// Pushes the namespace declarations found on `el` as a new frame.
    ///
    /// Call once per element while descending; pair with
    /// [`NsBindings::pop`] when leaving the element.
    pub fn push_element(&mut self, el: ElementRef<'a>) {
        self.frames.push(self.bindings.len());
        for (prefix, uri) in el.ns_decls() {
            self.bindings.push(prefix, uri);
        }
    }

    /// Pops the innermost frame.
    pub fn pop(&mut self) {
        if let Some(start) = self.frames.pop() {
            self.bindings.truncate(start);
        }
    }

    /// Resolves a prefix (`None` = default namespace) to a URI.
    pub fn resolve(&self, prefix: Option<&str>) -> Option<&'a str> {
        let uri = self.bindings.resolve(prefix)?;
        // An empty URI un-declares the default namespace.
        (!uri.is_empty()).then_some(uri)
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
    fn shadowing_holds_past_the_inline_scan() {
        let depth = 2 * INLINE_SCOPE;
        let mut xml = String::new();
        for i in 0..depth {
            xml.push_str(&format!("<e xmlns:p=\"urn:{i}\">"));
        }
        xml.push_str(&"</e>".repeat(depth));
        let doc = parse_arena(&xml).unwrap();
        let mut scope = NsBindings::new();
        let mut el = Some(doc.root());
        let mut depth_seen = 0;
        while let Some(e) = el {
            scope.push_element(e);
            let want = format!("urn:{depth_seen}");
            assert_eq!(scope.resolve(Some("p")), Some(want.as_str()));
            depth_seen += 1;
            el = e.child_elements().next();
        }
        for i in (0..depth).rev() {
            let want = format!("urn:{i}");
            assert_eq!(scope.resolve(Some("p")), Some(want.as_str()));
            scope.pop();
        }
        assert_eq!(scope.resolve(Some("p")), None);
        assert_eq!(scope.resolve(Some("xml")), Some(ns::XML));
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
