//! Serialization of [`Document`]/[`Element`] trees to XML text.

use crate::escape::{escape_attr, escape_text};
use crate::name::QName;
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
    let mut out = String::with_capacity(1024);
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    for comment in doc.prolog_comments() {
        out.push_str("<!--");
        out.push_str(comment);
        out.push_str("-->");
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    write_element_into(doc.root(), opts, 0, &mut out);
    if opts.indent.is_some() {
        out.push('\n');
    }
    out
}

/// Serializes a single element (no XML declaration).
pub fn write_element(el: &Element, opts: &WriteOptions) -> String {
    let mut out = String::with_capacity(256);
    write_element_into(el, opts, 0, &mut out);
    out
}

fn write_element_into(el: &Element, opts: &WriteOptions, depth: usize, out: &mut String) {
    out.push('<');
    push_name(el.name(), out);
    for attr in el.attrs() {
        out.push(' ');
        push_name(attr.name(), out);
        out.push_str("=\"");
        out.push_str(&escape_attr(attr.value()));
        out.push('"');
    }
    if el.children().is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');

    // Mixed content (any text/CDATA child) is written inline so that a
    // re-parse yields byte-identical character data.
    let inline = opts.indent.is_none()
        || el
            .children()
            .iter()
            .any(|c| matches!(c, Node::Text(_) | Node::CData(_)));

    for child in el.children() {
        if !inline {
            push_newline_indent(opts, depth + 1, out);
        }
        match child {
            Node::Element(child_el) => write_element_into(child_el, opts, depth + 1, out),
            Node::Text(t) => out.push_str(&escape_text(t)),
            Node::CData(t) => {
                out.push_str("<![CDATA[");
                out.push_str(t);
                out.push_str("]]>");
            }
            Node::Comment(t) => {
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
            }
            Node::Pi { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
    }
    if !inline {
        push_newline_indent(opts, depth, out);
    }
    out.push_str("</");
    push_name(el.name(), out);
    out.push('>');
}

fn push_name(name: &QName, out: &mut String) {
    if let Some(p) = name.prefix() {
        out.push_str(p);
        out.push(':');
    }
    out.push_str(name.local_part());
}

fn push_newline_indent(opts: &WriteOptions, depth: usize, out: &mut String) {
    if let Some(unit) = &opts.indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
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
    }

    #[test]
    fn prefixed_names_rendered() {
        let el = Element::new("wsdl:types");
        assert_eq!(
            write_element(&el, &WriteOptions::compact()),
            "<wsdl:types/>"
        );
    }
}
