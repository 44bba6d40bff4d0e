//! Owned-tree XML document model.
//!
//! The model is deliberately small: elements, attributes, text, CDATA,
//! comments and processing instructions. Namespace *declarations* are
//! ordinary `xmlns`/`xmlns:p` attributes; in addition every [`Element`]
//! carries a **resolved namespace URI** (`ns_uri`), which the
//! [parser](crate::parser) fills in from the in-scope declarations and
//! which builder code sets explicitly. Keeping the resolved URI on the
//! node makes consumers (the WSDL parser, the WS-I checker) independent
//! of prefix spelling.
//!
//! The resolved URI is shared: a parsed document holds one `Arc<str>` per
//! namespace in use, and every element in that namespace points at it.
//!
//! Documents that are only read (WSDL and XSD) skip this tree: they are
//! read through the [arena](crate::arena) view and written by streaming
//! through an [`XmlWriter`](crate::writer::XmlWriter).

use std::sync::Arc;

use crate::name::{ExpandedName, QName};

/// Any node that may appear as the child of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (already unescaped).
    Text(String),
    /// A CDATA section (verbatim character data).
    CData(String),
    /// A comment (without the `<!--`/`-->` delimiters).
    Comment(String),
    /// A processing instruction.
    Pi {
        /// The PI target (e.g. `xml-stylesheet`).
        target: String,
        /// The raw PI data.
        data: String,
    },
}

impl Node {
    /// Returns the contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(el) => Some(el),
            _ => None,
        }
    }

    /// Mutable variant of [`Node::as_element`].
    pub fn as_element_mut(&mut self) -> Option<&mut Element> {
        match self {
            Node::Element(el) => Some(el),
            _ => None,
        }
    }
}

/// A single attribute: lexical name plus (unescaped) value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    name: QName,
    value: String,
}

impl Attr {
    /// Creates an attribute. `name` must parse as a QName.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a lexically valid QName.
    pub fn new(name: &str, value: impl Into<String>) -> Attr {
        Attr {
            name: name.parse().expect("attribute name must be a valid QName"),
            value: value.into(),
        }
    }

    /// Creates an attribute from an already-parsed name.
    pub(crate) fn from_parts(name: QName, value: String) -> Attr {
        Attr { name, value }
    }

    /// The attribute name.
    pub fn name(&self) -> &QName {
        &self.name
    }

    /// The attribute value.
    pub fn value(&self) -> &str {
        &self.value
    }

    /// Returns `(prefix-or-None, uri)` if this attribute is a namespace
    /// declaration (`xmlns="uri"` or `xmlns:p="uri"`).
    pub fn as_ns_decl(&self) -> Option<(Option<&str>, &str)> {
        match (self.name.prefix(), self.name.local_part()) {
            (None, "xmlns") => Some((None, &self.value)),
            (Some("xmlns"), p) => Some((Some(p), &self.value)),
            _ => None,
        }
    }
}

/// An XML element.
///
/// # Examples
///
/// Building a small fragment:
///
/// ```
/// use wsinterop_xml::{Element, name::ns};
/// let el = Element::new("wsdl:portType")
///     .in_ns(ns::WSDL)
///     .with_attr("name", "EchoPortType")
///     .with_child(Element::new("wsdl:operation").in_ns(ns::WSDL).with_attr("name", "echo"));
/// assert_eq!(el.attr("name"), Some("EchoPortType"));
/// assert_eq!(el.child_elements().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    name: QName,
    ns_uri: Option<Arc<str>>,
    attrs: Vec<Attr>,
    children: Vec<Node>,
}

impl Element {
    /// Creates an element from a lexical QName such as `"wsdl:message"`.
    ///
    /// The resolved namespace starts out as `None`; set it with
    /// [`Element::in_ns`] / [`Element::set_ns_uri`] (builders) — the
    /// parser sets it automatically.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a lexically valid QName. Use
    /// [`Element::try_new`] for untrusted input.
    pub fn new(name: &str) -> Element {
        Element::try_new(name).expect("element name must be a valid QName")
    }

    /// Fallible variant of [`Element::new`].
    ///
    /// # Errors
    ///
    /// Returns an error when `name` is not a lexically valid QName.
    pub fn try_new(name: &str) -> Result<Element, crate::name::ParseQNameError> {
        Ok(Element::from_parts(name.parse()?, None, Vec::new()))
    }

    /// Creates an element from an already-parsed name, its resolved
    /// namespace and its attributes (the parser's constructor).
    pub(crate) fn from_parts(name: QName, ns_uri: Option<Arc<str>>, attrs: Vec<Attr>) -> Element {
        Element {
            name,
            ns_uri,
            attrs,
            children: Vec::new(),
        }
    }

    /// The element's lexical name.
    pub fn name(&self) -> &QName {
        &self.name
    }

    /// The element's resolved namespace URI (if known).
    pub fn ns_uri(&self) -> Option<&str> {
        self.ns_uri.as_deref()
    }

    /// Sets the resolved namespace URI in place.
    pub fn set_ns_uri(&mut self, uri: impl Into<String>) {
        self.ns_uri = Some(Arc::from(uri.into()));
    }

    /// Builder form of [`Element::set_ns_uri`].
    #[must_use]
    pub fn in_ns(mut self, uri: impl Into<String>) -> Element {
        self.set_ns_uri(uri);
        self
    }

    /// The namespace-resolved name of this element.
    pub fn expanded_name(&self) -> ExpandedName {
        ExpandedName::new(self.ns_uri.as_deref(), self.name.local_part())
    }

    /// Returns `true` when the element's resolved namespace and local
    /// name match the given pair.
    pub fn is_named(&self, ns_uri: &str, local: &str) -> bool {
        self.ns_uri.as_deref() == Some(ns_uri) && self.name.local_part() == local
    }

    // ---- attributes -------------------------------------------------

    /// All attributes, in document order.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Looks up an attribute value by its *lexical* name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name.eq_lexical(name))
            .map(|a| a.value())
    }

    /// Sets (or replaces) an attribute.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a lexically valid QName.
    pub fn set_attr(&mut self, name: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(a) = self.attrs.iter_mut().find(|a| a.name.eq_lexical(name)) {
            a.value = value;
        } else {
            self.attrs.push(Attr::new(name, value));
        }
    }

    /// Builder form of [`Element::set_attr`].
    #[must_use]
    pub fn with_attr(mut self, name: &str, value: impl Into<String>) -> Element {
        self.set_attr(name, value);
        self
    }

    /// Declares a namespace on this element (`prefix = None` declares the
    /// default namespace).
    pub fn declare_ns(&mut self, prefix: Option<&str>, uri: &str) {
        match prefix {
            None => self.set_attr("xmlns", uri),
            Some(p) => self.set_attr(&format!("xmlns:{p}"), uri),
        }
    }

    /// Builder form of [`Element::declare_ns`].
    #[must_use]
    pub fn with_ns_decl(mut self, prefix: Option<&str>, uri: &str) -> Element {
        self.declare_ns(prefix, uri);
        self
    }

    /// Namespace declarations present directly on this element.
    pub fn ns_decls(&self) -> impl Iterator<Item = (Option<&str>, &str)> {
        self.attrs.iter().filter_map(Attr::as_ns_decl)
    }

    // ---- children ---------------------------------------------------

    /// All child nodes, in document order.
    pub fn children(&self) -> &[Node] {
        &self.children
    }

    /// Mutable access to the child nodes.
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        &mut self.children
    }

    /// Appends an arbitrary node.
    pub fn push_node(&mut self, node: Node) {
        self.children.push(node);
    }

    /// Appends a child element.
    pub fn push_element(&mut self, el: Element) {
        self.children.push(Node::Element(el));
    }

    /// Appends a text node.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// Builder form of [`Element::push_element`].
    #[must_use]
    pub fn with_child(mut self, el: Element) -> Element {
        self.push_element(el);
        self
    }

    /// Builder form of [`Element::push_text`].
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.push_text(text);
        self
    }

    /// Iterates over the direct child elements.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Direct child elements with the given resolved namespace and local
    /// name.
    pub fn elements<'a>(
        &'a self,
        ns_uri: &'a str,
        local: &'a str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements()
            .filter(move |e| e.is_named(ns_uri, local))
    }

    /// First direct child element with the given resolved name.
    pub fn element(&self, ns_uri: &str, local: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.is_named(ns_uri, local))
    }

    /// First direct child element with the given *local* name, ignoring
    /// namespaces. Useful for sloppy consumers (several of the simulated
    /// client tools are intentionally namespace-unaware).
    pub fn element_local(&self, local: &str) -> Option<&Element> {
        self.child_elements()
            .find(|e| e.name.local_part() == local)
    }

    /// Concatenation of all descendant text and CDATA content.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                Node::Text(t) | Node::CData(t) => out.push_str(t),
                Node::Element(el) => el.collect_text(out),
                _ => {}
            }
        }
    }

    /// Depth-first pre-order walk over this element and all descendants.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Element)) {
        visit(self);
        for child in self.child_elements() {
            child.walk(visit);
        }
    }

    /// Collects every descendant element (including `self`) matching the
    /// predicate, in document order.
    pub fn descendants_where(
        &self,
        mut pred: impl FnMut(&Element) -> bool,
    ) -> Vec<&Element> {
        let mut out = Vec::new();
        self.walk(&mut |el| {
            if pred(el) {
                out.push(el);
            }
        });
        out
    }
}

/// A complete XML document: optional prolog comments plus a root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    prolog_comments: Vec<String>,
    root: Element,
}

impl Document {
    /// Creates a document with the given root.
    pub fn new(root: Element) -> Document {
        Document {
            prolog_comments: Vec::new(),
            root,
        }
    }

    /// The root element.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Mutable access to the root element.
    pub fn root_mut(&mut self) -> &mut Element {
        &mut self.root
    }

    /// Consumes the document and returns the root element.
    pub fn into_root(self) -> Element {
        self.root
    }

    /// Adds a comment emitted between the XML declaration and the root.
    pub fn push_prolog_comment(&mut self, text: impl Into<String>) {
        self.prolog_comments.push(text.into());
    }

    /// Comments in the prolog, in document order.
    pub fn prolog_comments(&self) -> &[String] {
        &self.prolog_comments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ns;

    fn sample() -> Element {
        Element::new("wsdl:definitions")
            .in_ns(ns::WSDL)
            .with_ns_decl(Some("wsdl"), ns::WSDL)
            .with_attr("name", "EchoService")
            .with_child(
                Element::new("wsdl:message")
                    .in_ns(ns::WSDL)
                    .with_attr("name", "echoRequest"),
            )
            .with_child(
                Element::new("wsdl:message")
                    .in_ns(ns::WSDL)
                    .with_attr("name", "echoResponse"),
            )
    }

    #[test]
    fn attr_lookup_and_replace() {
        let mut el = sample();
        assert_eq!(el.attr("name"), Some("EchoService"));
        el.set_attr("name", "Other");
        assert_eq!(el.attr("name"), Some("Other"));
        assert_eq!(el.attrs().len(), 2); // xmlns:wsdl + name
    }

    #[test]
    fn ns_decl_detection() {
        let el = sample();
        let decls: Vec<_> = el.ns_decls().collect();
        assert_eq!(decls, vec![(Some("wsdl"), ns::WSDL)]);
    }

    #[test]
    fn default_ns_decl_detection() {
        let el = Element::new("schema").with_ns_decl(None, ns::XSD);
        assert_eq!(el.ns_decls().next(), Some((None, ns::XSD)));
    }

    #[test]
    fn named_child_lookup() {
        let el = sample();
        assert_eq!(el.elements(ns::WSDL, "message").count(), 2);
        assert!(el.element(ns::WSDL, "portType").is_none());
        assert!(el.element_local("message").is_some());
    }

    #[test]
    fn expanded_name_matches() {
        let el = sample();
        assert!(el.is_named(ns::WSDL, "definitions"));
        assert!(el.expanded_name().is(ns::WSDL, "definitions"));
    }

    #[test]
    fn text_content_concatenates_nested() {
        let el = Element::new("doc")
            .with_text("a")
            .with_child(Element::new("b").with_text("c"))
            .with_text("d");
        assert_eq!(el.text_content(), "acd");
    }

    #[test]
    fn walk_visits_in_preorder() {
        let el = sample();
        let mut names = Vec::new();
        el.walk(&mut |e| names.push(e.name().local_part().to_string()));
        assert_eq!(names, ["definitions", "message", "message"]);
    }

    #[test]
    fn descendants_where_filters() {
        let el = sample();
        let hits = el.descendants_where(|e| e.attr("name") == Some("echoRequest"));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn document_prolog_comments() {
        let mut doc = Document::new(sample());
        doc.push_prolog_comment("generated by test");
        assert_eq!(doc.prolog_comments(), ["generated by test"]);
    }
}
