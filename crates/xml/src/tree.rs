//! Owned-tree XML document model, for building documents to write.
//!
//! The model is deliberately small: elements, attributes, text, CDATA,
//! comments and processing instructions. Names are lexical, and
//! namespace declarations are ordinary `xmlns`/`xmlns:p` attributes:
//! the tree holds exactly what is written, and what a name resolves to
//! is the reader's business.
//!
//! Nothing parses into this tree: a parsed document is read through the
//! [arena](crate::arena) view, and a tree is written by streaming it
//! through an [`XmlWriter`](crate::writer::XmlWriter).

use crate::name::QName;

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

    /// The attribute name.
    pub fn name(&self) -> &QName {
        &self.name
    }

    /// The attribute value.
    pub fn value(&self) -> &str {
        &self.value
    }
}

/// An XML element.
///
/// # Examples
///
/// Building a small fragment:
///
/// ```
/// use wsinterop_xml::{write_element, Element, WriteOptions};
/// let el = Element::new("wsdl:portType")
///     .with_attr("name", "EchoPortType")
///     .with_child(Element::new("wsdl:operation").with_attr("name", "echo"));
/// assert_eq!(
///     write_element(&el, &WriteOptions::compact()),
///     r#"<wsdl:portType name="EchoPortType"><wsdl:operation name="echo"/></wsdl:portType>"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    name: QName,
    attrs: Vec<Attr>,
    children: Vec<Node>,
}

impl Element {
    /// Creates an element from a lexical QName such as `"wsdl:message"`.
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
        Ok(Element {
            name: name.parse()?,
            attrs: Vec::new(),
            children: Vec::new(),
        })
    }

    /// The element's lexical name.
    pub fn name(&self) -> &QName {
        &self.name
    }

    // ---- attributes -------------------------------------------------

    /// All attributes, in document order.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
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

    // ---- children ---------------------------------------------------

    /// All child nodes, in document order.
    pub fn children(&self) -> &[Node] {
        &self.children
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

    fn attrs(el: &Element) -> Vec<(String, &str)> {
        el.attrs().iter().map(|a| (a.name().to_string(), a.value())).collect()
    }

    #[test]
    fn set_attr_replaces_in_place() {
        let mut el = Element::new("e").with_attr("name", "EchoService").with_attr("x", "1");
        el.set_attr("name", "Other");
        assert_eq!(attrs(&el), [("name".to_string(), "Other"), ("x".to_string(), "1")]);
    }

    #[test]
    fn ns_decls_are_attributes() {
        let el = Element::new("wsdl:definitions")
            .with_ns_decl(Some("wsdl"), ns::WSDL)
            .with_ns_decl(None, ns::XSD);
        assert_eq!(
            attrs(&el),
            [("xmlns:wsdl".to_string(), ns::WSDL), ("xmlns".to_string(), ns::XSD)]
        );
    }

    #[test]
    fn text_content_concatenates_nested() {
        let el = Element::new("doc")
            .with_text("a")
            .with_child(Element::new("b").with_text("c"))
            .with_text("d");
        assert_eq!(el.text_content(), "acd");
        assert_eq!(el.children().len(), 3);
    }

    #[test]
    fn document_prolog_comments() {
        let mut doc = Document::new(Element::new("r"));
        doc.push_prolog_comment("generated by test");
        assert_eq!(doc.prolog_comments(), ["generated by test"]);
        assert_eq!(doc.root().name().local_part(), "r");
    }
}
