//! XML text output: the streaming [`XmlWriter`], and serialization of
//! [`Document`]/[`Element`] trees as a walk over it.
//!
//! Every byte the workspace writes as XML goes through [`XmlWriter`]:
//! the WSDL and XSD serializers drive it straight from their object
//! models, and [`write_document`] drives it from an owned tree.

use crate::escape::{push_escaped_attr, push_escaped_text};
use crate::tree::{Document, Element, Node};

/// Formatting options for [`write_document`] / [`write_element`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOptions {
    /// Emit the `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    pub declaration: bool,
    /// Indentation unit; `None` writes the document on one line.
    pub indent: Option<String>,
}

impl WriteOptions {
    /// Pretty output: declaration plus two-space indentation.
    pub fn pretty() -> WriteOptions {
        WriteOptions {
            declaration: true,
            indent: Some("  ".to_string()),
        }
    }

    /// Compact output: declaration, no whitespace between elements.
    pub fn compact() -> WriteOptions {
        WriteOptions {
            declaration: true,
            indent: None,
        }
    }
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions::pretty()
    }
}

/// An element whose start tag has been written but not its end.
struct Open {
    /// Where the element's lexical name starts in [`XmlWriter::names`].
    name_start: usize,
    /// Content is written on one line (compact output, or mixed
    /// content under pretty output).
    inline: bool,
    /// The start tag is closed: content has been written.
    has_content: bool,
}

/// Writes XML text into one `String` as elements are opened and closed.
///
/// Pretty output puts each child of element-only content on its own
/// indented line; an element with text content (written by
/// [`write_document`]) keeps its content on one line, so that a re-parse
/// yields its character data byte for byte. An element closed without
/// content is written self-closing (`<e/>`).
///
/// # Examples
///
/// ```
/// use wsinterop_xml::writer::{WriteOptions, XmlWriter};
/// let opts = WriteOptions::pretty();
/// let mut w = XmlWriter::document(&opts);
/// w.open("a").attr("x", "1 < 2");
/// w.open_prefixed("p", "b").attr_qname("type", Some("p"), "T").close();
/// w.close();
/// assert_eq!(
///     w.finish(),
///     "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
///      <a x=\"1 &lt; 2\">\n  <p:b type=\"p:T\"/>\n</a>\n"
/// );
/// ```
pub struct XmlWriter<'o> {
    out: String,
    indent: Option<&'o str>,
    /// Trailing newline on [`XmlWriter::finish`] (pretty documents).
    document: bool,
    /// Lexical names of the open elements, end to end.
    names: String,
    open: Vec<Open>,
}

impl<'o> XmlWriter<'o> {
    /// A writer for a fragment: no declaration, no trailing newline.
    pub fn new(opts: &'o WriteOptions) -> XmlWriter<'o> {
        XmlWriter::with_capacity(opts, 256)
    }

    fn with_capacity(opts: &'o WriteOptions, capacity: usize) -> XmlWriter<'o> {
        XmlWriter {
            out: String::with_capacity(capacity),
            indent: opts.indent.as_deref(),
            document: false,
            names: String::with_capacity(64),
            open: Vec::with_capacity(8),
        }
    }

    /// A writer for a whole document: writes the XML declaration when
    /// `opts` asks for it, and ends pretty output with a newline.
    pub fn document(opts: &'o WriteOptions) -> XmlWriter<'o> {
        let mut w = XmlWriter::with_capacity(opts, 1024);
        w.document = true;
        if opts.declaration {
            w.out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
            w.newline_after_prolog();
        }
        w
    }

    /// Writes a comment between the declaration and the root element.
    fn prolog_comment(&mut self, text: &str) {
        debug_assert!(self.open.is_empty(), "prolog comment inside an element");
        self.push_comment(text);
        self.newline_after_prolog();
    }

    /// Opens an element whose content is elements only (or nothing).
    pub fn open(&mut self, name: &str) -> &mut Self {
        self.open_with(None, name, false)
    }

    /// Opens `prefix:local` without formatting the name first.
    pub fn open_prefixed(&mut self, prefix: &str, local: &str) -> &mut Self {
        self.open_with(Some(prefix), local, false)
    }

    fn open_with(&mut self, prefix: Option<&str>, local: &str, inline: bool) -> &mut Self {
        self.begin_content();
        let name_start = self.names.len();
        if let Some(p) = prefix {
            self.names.push_str(p);
            self.names.push(':');
        }
        self.names.push_str(local);
        self.out.push('<');
        self.out.push_str(&self.names[name_start..]);
        self.open.push(Open {
            name_start,
            inline: inline || self.indent.is_none(),
            has_content: false,
        });
        self
    }

    /// Writes an attribute of the element just opened.
    pub fn attr(&mut self, name: &str, value: &str) -> &mut Self {
        self.attr_prefixed(None, name, value)
    }

    /// Writes the attribute `prefix:local` (or `local`) without
    /// formatting the name first.
    pub fn attr_prefixed(&mut self, prefix: Option<&str>, local: &str, value: &str) -> &mut Self {
        self.attr_name(prefix, local);
        push_escaped_attr(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Writes an attribute whose value is the QName `prefix:local` (or
    /// `local`), without formatting the value first.
    pub fn attr_qname(&mut self, name: &str, prefix: Option<&str>, local: &str) -> &mut Self {
        self.attr_name(None, name);
        if let Some(p) = prefix {
            push_escaped_attr(&mut self.out, p);
            self.out.push(':');
        }
        push_escaped_attr(&mut self.out, local);
        self.out.push('"');
        self
    }

    /// Writes a numeric attribute.
    pub fn attr_u32(&mut self, name: &str, value: u32) -> &mut Self {
        use std::fmt::Write;
        self.attr_name(None, name);
        // Writing to a String cannot fail.
        let _ = write!(self.out, "{value}\"");
        self
    }

    /// Writes attributes `(prefix, local, value)` the way repeated
    /// [`Element::set_attr`] calls build them: a name given twice keeps
    /// its first position and takes its last value.
    pub fn attrs_replacing<'s, I>(&mut self, attrs: I) -> &mut Self
    where
        I: Iterator<Item = (Option<&'s str>, &'s str, &'s str)> + Clone,
    {
        for (i, (prefix, local, _)) in attrs.clone().enumerate() {
            let same = |&(p, l, _): &(Option<&str>, &str, &str)| (p, l) == (prefix, local);
            if attrs.clone().take(i).any(|a| same(&a)) {
                continue;
            }
            let value = attrs.clone().filter(same).last().map_or("", |(_, _, v)| v);
            self.attr_prefixed(prefix, local, value);
        }
        self
    }

    fn attr_name(&mut self, prefix: Option<&str>, local: &str) {
        debug_assert!(
            self.open.last().is_some_and(|o| !o.has_content),
            "attribute `{local}` outside a start tag"
        );
        self.out.push(' ');
        if let Some(p) = prefix {
            self.out.push_str(p);
            self.out.push(':');
        }
        self.out.push_str(local);
        self.out.push_str("=\"");
    }

    /// Writes character data (escaped).
    fn text(&mut self, text: &str) {
        self.begin_content();
        push_escaped_text(&mut self.out, text);
    }

    /// Writes a CDATA section.
    fn cdata(&mut self, text: &str) {
        self.begin_content();
        self.out.push_str("<![CDATA[");
        self.out.push_str(text);
        self.out.push_str("]]>");
    }

    /// Writes a comment.
    fn comment(&mut self, text: &str) {
        self.begin_content();
        self.push_comment(text);
    }

    /// Writes a processing instruction.
    fn pi(&mut self, target: &str, data: &str) {
        self.begin_content();
        self.out.push_str("<?");
        self.out.push_str(target);
        if !data.is_empty() {
            self.out.push(' ');
            self.out.push_str(data);
        }
        self.out.push_str("?>");
    }

    /// Closes the innermost open element: self-closing when nothing was
    /// written inside it.
    ///
    /// # Panics
    ///
    /// Panics when no element is open.
    pub fn close(&mut self) -> &mut Self {
        let open = self.open.pop().expect("close without an open element");
        if !open.has_content {
            self.out.push_str("/>");
        } else {
            if !open.inline {
                self.newline_indent();
            }
            self.out.push_str("</");
            self.out.push_str(&self.names[open.name_start..]);
            self.out.push('>');
        }
        self.names.truncate(open.name_start);
        self
    }

    /// Returns the written text.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when an element is still open.
    pub fn finish(mut self) -> String {
        debug_assert!(self.open.is_empty(), "finish with open elements");
        if self.document {
            self.newline_after_prolog();
        }
        self.out
    }

    /// Closes the parent's start tag before its first content, and puts
    /// each child of element-only content on its own line.
    fn begin_content(&mut self) {
        let Some(parent) = self.open.last_mut() else {
            return;
        };
        if !parent.has_content {
            parent.has_content = true;
            self.out.push('>');
        }
        if !parent.inline {
            self.newline_indent();
        }
    }

    fn newline_indent(&mut self) {
        if let Some(unit) = self.indent {
            self.out.push('\n');
            for _ in 0..self.open.len() {
                self.out.push_str(unit);
            }
        }
    }

    fn newline_after_prolog(&mut self) {
        if self.indent.is_some() {
            self.out.push('\n');
        }
    }

    fn push_comment(&mut self, text: &str) {
        self.out.push_str("<!--");
        self.out.push_str(text);
        self.out.push_str("-->");
    }
}

/// Serializes a whole document.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::{Document, Element, writer::{write_document, WriteOptions}};
/// let doc = Document::new(Element::new("root").with_attr("a", "1"));
/// let xml = write_document(&doc, &WriteOptions::compact());
/// assert_eq!(xml, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><root a=\"1\"/>");
/// ```
pub fn write_document(doc: &Document, opts: &WriteOptions) -> String {
    let mut w = XmlWriter::document(opts);
    for comment in doc.prolog_comments() {
        w.prolog_comment(comment);
    }
    write_tree(&mut w, doc.root());
    w.finish()
}

/// Serializes a single element (no XML declaration).
pub fn write_element(el: &Element, opts: &WriteOptions) -> String {
    let mut w = XmlWriter::new(opts);
    write_tree(&mut w, el);
    w.finish()
}

/// Writes `el` and its subtree. Mixed content (any text or CDATA child)
/// is written inline.
fn write_tree(w: &mut XmlWriter<'_>, el: &Element) {
    let mixed = el
        .children()
        .iter()
        .any(|c| matches!(c, Node::Text(_) | Node::CData(_)));
    w.open_with(el.name().prefix(), el.name().local_part(), mixed);
    for attr in el.attrs() {
        w.attr_prefixed(attr.name().prefix(), attr.name().local_part(), attr.value());
    }
    for child in el.children() {
        match child {
            Node::Element(child_el) => write_tree(w, child_el),
            Node::Text(t) => w.text(t),
            Node::CData(t) => w.cdata(t),
            Node::Comment(t) => w.comment(t),
            Node::Pi { target, data } => w.pi(target, data),
        }
    }
    w.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Node;

    #[test]
    fn self_closes_empty_elements() {
        let el = Element::new("empty");
        assert_eq!(write_element(&el, &WriteOptions::compact()), "<empty/>");
    }

    #[test]
    fn writes_attributes_in_order() {
        let el = Element::new("e").with_attr("b", "2").with_attr("a", "1");
        assert_eq!(
            write_element(&el, &WriteOptions::compact()),
            r#"<e b="2" a="1"/>"#
        );
    }

    #[test]
    fn escapes_attribute_values_and_text() {
        let el = Element::new("e").with_attr("q", "a\"b<c").with_text("x<y&z");
        assert_eq!(
            write_element(&el, &WriteOptions::compact()),
            r#"<e q="a&quot;b&lt;c">x&lt;y&amp;z</e>"#
        );
    }

    #[test]
    fn pretty_indents_element_only_content() {
        let el = Element::new("a").with_child(Element::new("b").with_child(Element::new("c")));
        let xml = write_element(&el, &WriteOptions::pretty());
        assert_eq!(xml, "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
    }

    #[test]
    fn mixed_content_stays_inline_under_pretty() {
        let el = Element::new("p")
            .with_text("hello ")
            .with_child(Element::new("b").with_text("world"));
        let xml = write_element(&el, &WriteOptions::pretty());
        assert_eq!(xml, "<p>hello <b>world</b></p>");
    }

    #[test]
    fn writes_cdata_comment_pi() {
        let mut el = Element::new("e");
        el.push_node(Node::CData("raw <stuff>".into()));
        el.push_node(Node::Comment(" note ".into()));
        el.push_node(Node::Pi {
            target: "pi".into(),
            data: "d".into(),
        });
        let xml = write_element(&el, &WriteOptions::compact());
        assert_eq!(xml, "<e><![CDATA[raw <stuff>]]><!-- note --><?pi d?></e>");
    }

    #[test]
    fn document_declaration_and_prolog() {
        let mut doc = Document::new(Element::new("r"));
        doc.push_prolog_comment("hi");
        let xml = write_document(&doc, &WriteOptions::compact());
        assert_eq!(
            xml,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><!--hi--><r/>"
        );
        let xml = write_document(&doc, &WriteOptions::pretty());
        assert_eq!(
            xml,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!--hi-->\n<r/>\n"
        );
    }

    #[test]
    fn prefixed_names_rendered() {
        let el = Element::new("wsdl:types");
        assert_eq!(
            write_element(&el, &WriteOptions::compact()),
            "<wsdl:types/>"
        );
    }

    #[test]
    fn pretty_indents_comments_and_pis_in_element_content() {
        let mut el = Element::new("e").with_child(Element::new("a"));
        el.push_node(Node::Comment("c".into()));
        el.push_node(Node::Pi { target: "t".into(), data: String::new() });
        let xml = write_element(&el, &WriteOptions::pretty());
        assert_eq!(xml, "<e>\n  <a/>\n  <!--c-->\n  <?t?>\n</e>");
    }

    #[test]
    fn replaced_attributes_keep_their_first_position() {
        let opts = WriteOptions::compact();
        let mut w = XmlWriter::new(&opts);
        let attrs = [
            (Some("xmlns"), "a", "1"),
            (None, "n", "2"),
            (Some("xmlns"), "b", "3"),
            (Some("xmlns"), "a", "4"),
        ];
        w.open("e").attrs_replacing(attrs.into_iter()).close();
        let mut tree = Element::new("e");
        for (p, l, v) in attrs {
            match p {
                Some(p) => tree.set_attr(&format!("{p}:{l}"), v),
                None => tree.set_attr(l, v),
            }
        }
        assert_eq!(w.finish(), write_element(&tree, &opts));
    }

    #[test]
    fn streamed_attributes_match_the_tree_writer() {
        let opts = WriteOptions::compact();
        let mut w = XmlWriter::new(&opts);
        w.open_prefixed("x", "e")
            .attr_prefixed(Some("xmlns"), "x", "urn:\"x\"")
            .attr("xmlns", "urn:d")
            .attr_qname("type", Some("x"), "T<1>")
            .attr_qname("ref", None, "plain")
            .attr_u32("minOccurs", 0)
            .close();
        let tree = Element::new("x:e")
            .with_ns_decl(Some("x"), "urn:\"x\"")
            .with_ns_decl(None, "urn:d")
            .with_attr("type", "x:T<1>")
            .with_attr("ref", "plain")
            .with_attr("minOccurs", "0");
        assert_eq!(w.finish(), write_element(&tree, &opts));
    }
}
