//! A recursive-descent XML parser for the subset of XML 1.0 + Namespaces
//! emitted by web-service toolchains.
//!
//! Supported: elements, attributes, namespace declarations and
//! resolution, character data with entity/char references, CDATA,
//! comments, processing instructions, the XML declaration and a DOCTYPE
//! declaration (skipped, internal subsets rejected).
//!
//! The parser resolves namespaces while building the tree: every
//! [`Element`] in the result carries its resolved namespace URI.
//!
//! Each element and attribute name is parsed into a [`QName`] once and
//! moved into the tree; lookups against it compare lexically without
//! allocating. Each namespace declaration becomes one shared `Arc<str>`,
//! so resolving an element's namespace is a reference-count bump.

use std::fmt;
use std::sync::Arc;

use crate::escape::unescape;
use crate::name::QName;
use crate::tree::{Attr, Document, Element, Node};

/// Position of an error within the input, 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in chars).
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An error produced while parsing XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseXmlError {
    pos: Pos,
    message: String,
}

impl ParseXmlError {
    /// Where the error occurred.
    pub fn pos(&self) -> Pos {
        self.pos
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseXmlError {}

/// Parses a complete document.
///
/// # Errors
///
/// Returns [`ParseXmlError`] on malformed input: unbalanced tags,
/// duplicate attributes, undeclared namespace prefixes, stray content
/// after the root element, bad entity references, etc.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::parse_document;
/// let doc = parse_document(r#"<a xmlns="urn:x"><b c="1">t</b></a>"#)?;
/// assert_eq!(doc.root().ns_uri(), Some("urn:x"));
/// let b = doc.root().element("urn:x", "b").unwrap();
/// assert_eq!(b.attr("c"), Some("1"));
/// assert_eq!(b.text_content(), "t");
/// # Ok::<(), wsinterop_xml::parser::ParseXmlError>(())
/// ```
pub fn parse_document(input: &str) -> Result<Document, ParseXmlError> {
    let mut p = Parser::new(input);
    p.skip_bom();
    p.skip_prolog()?;
    let mut prolog_comments = Vec::new();
    loop {
        p.skip_ws();
        if p.starts_with("<!--") {
            prolog_comments.push(p.read_comment()?);
        } else if p.starts_with("<?") {
            p.read_pi()?; // discard prolog PIs
        } else if p.starts_with("<!DOCTYPE") {
            p.skip_doctype()?;
        } else {
            break;
        }
    }
    p.skip_ws();
    if !p.starts_with("<") {
        return Err(p.error("expected root element"));
    }
    let root = p.read_element()?;
    p.skip_ws();
    while p.starts_with("<!--") {
        p.read_comment()?;
        p.skip_ws();
    }
    if !p.at_end() {
        return Err(p.error("content after root element"));
    }
    let mut doc = Document::new(root);
    for c in prolog_comments {
        doc.push_prolog_comment(c);
    }
    Ok(doc)
}

/// Parses a string containing exactly one element (fragment form).
///
/// # Errors
///
/// Same failure modes as [`parse_document`].
pub fn parse_element(input: &str) -> Result<Element, ParseXmlError> {
    parse_document(input).map(Document::into_root)
}

// ---------------------------------------------------------------------

/// The in-scope namespace bindings: a stack of `(prefix, uri)` frames,
/// innermost last. Prefixes borrow the input; each URI is shared by
/// every element resolved to it. `None` for the URI records an
/// un-declaration (`xmlns=""`).
struct NsScope<'a> {
    bindings: Vec<(Option<&'a str>, Option<Arc<str>>)>,
}

impl<'a> NsScope<'a> {
    fn root() -> NsScope<'a> {
        NsScope {
            bindings: vec![
                (Some("xml"), Some(Arc::from(crate::name::ns::XML))),
                (Some("xmlns"), Some(Arc::from(crate::name::ns::XMLNS))),
            ],
        }
    }

    fn declare(&mut self, prefix: Option<&'a str>, uri: &str) {
        // An empty URI un-declares the default namespace.
        let uri = (!uri.is_empty()).then(|| Arc::from(uri));
        self.bindings.push((prefix, uri));
    }

    fn resolve(&self, prefix: Option<&str>) -> Option<&Arc<str>> {
        self.bindings
            .iter()
            .rev()
            .find(|(p, _)| *p == prefix)
            .and_then(|(_, uri)| uri.as_ref())
    }
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    scope: NsScope<'a>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            scope: NsScope::root(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn current_pos(&self) -> Pos {
        let mut line = 1u32;
        let mut col = 1u32;
        for c in self.input[..self.pos].chars() {
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Pos { line, col }
    }

    fn error(&self, message: impl Into<String>) -> ParseXmlError {
        ParseXmlError {
            pos: self.current_pos(),
            message: message.into(),
        }
    }

    fn skip_bom(&mut self) {
        if self.rest().starts_with('\u{feff}') {
            self.bump('\u{feff}'.len_utf8());
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) -> Result<(), ParseXmlError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            let end = self.rest().find("?>").ok_or_else(|| {
                self.error("unterminated XML declaration")
            })?;
            self.bump(end + 2);
        }
        Ok(())
    }

    fn skip_doctype(&mut self) -> Result<(), ParseXmlError> {
        debug_assert!(self.starts_with("<!DOCTYPE"));
        if self.rest().contains('[')
            && self.rest().find('[').unwrap() < self.rest().find('>').unwrap_or(usize::MAX)
        {
            return Err(self.error("DOCTYPE internal subsets are not supported"));
        }
        match self.rest().find('>') {
            Some(end) => {
                self.bump(end + 1);
                Ok(())
            }
            None => Err(self.error("unterminated DOCTYPE")),
        }
    }

    fn read_comment(&mut self) -> Result<String, ParseXmlError> {
        debug_assert!(self.starts_with("<!--"));
        self.bump(4);
        let end = self
            .rest()
            .find("-->")
            .ok_or_else(|| self.error("unterminated comment"))?;
        let text = self.rest()[..end].to_string();
        if text.contains("--") {
            return Err(self.error("`--` not allowed inside comment"));
        }
        self.bump(end + 3);
        Ok(text)
    }

    fn read_pi(&mut self) -> Result<(String, String), ParseXmlError> {
        debug_assert!(self.starts_with("<?"));
        self.bump(2);
        let end = self
            .rest()
            .find("?>")
            .ok_or_else(|| self.error("unterminated processing instruction"))?;
        let body = &self.rest()[..end];
        let (target, data) = match body.find(|c: char| c.is_ascii_whitespace()) {
            Some(i) => (body[..i].to_string(), body[i..].trim_start().to_string()),
            None => (body.to_string(), String::new()),
        };
        if target.is_empty() {
            return Err(self.error("processing instruction needs a target"));
        }
        self.bump(end + 2);
        Ok((target, data))
    }

    fn read_name(&mut self) -> Result<&'a str, ParseXmlError> {
        let start = self.pos;
        // ASCII fast path over bytes; a non-ASCII byte hands the rest of
        // the name to the Unicode path below.
        let ascii = self.bytes[start..]
            .iter()
            .enumerate()
            .take_while(|&(i, &b)| {
                matches!(b, b'_' | b':')
                    || b.is_ascii_alphabetic()
                    || (i > 0 && (matches!(b, b'-' | b'.') || b.is_ascii_digit()))
            })
            .count();
        let mut len = ascii;
        if self.bytes.get(start + ascii).is_some_and(|b| !b.is_ascii()) {
            for c in self.input[start + ascii..].chars() {
                let ok = if len == 0 {
                    c == '_' || c == ':' || c.is_alphabetic()
                } else {
                    c == '_' || c == ':' || c == '-' || c == '.' || c.is_alphanumeric()
                };
                if !ok {
                    break;
                }
                len += c.len_utf8();
            }
        }
        if len == 0 {
            return Err(self.error("expected a name"));
        }
        self.bump(len);
        Ok(&self.input[start..start + len])
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseXmlError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.error(format!("expected `{s}`")))
        }
    }

    fn read_attr_value(&mut self) -> Result<String, ParseXmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        self.bump(1);
        let end = self.rest()
            .find(quote as char)
            .ok_or_else(|| self.error("unterminated attribute value"))?;
        let raw = &self.rest()[..end];
        if raw.contains('<') {
            return Err(self.error("`<` not allowed in attribute value"));
        }
        let value = unescape(raw)
            .map_err(|e| self.error(format!("bad attribute value: {e}")))?
            .into_owned();
        self.bump(end + 1);
        Ok(value)
    }

    fn read_element(&mut self) -> Result<Element, ParseXmlError> {
        self.expect("<")?;
        let name_raw = self.read_name()?;
        let name: QName = name_raw
            .parse()
            .map_err(|e| self.error(format!("bad element name: {e}")))?;

        // Attributes. Namespace declarations go on the scope stack as
        // they are read; the frame is popped when the element closes.
        let frame = self.scope.bindings.len();
        let mut attrs: Vec<Attr> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                None => return Err(self.error("unterminated start tag")),
                _ => {}
            }
            let attr_name_raw = self.read_name()?;
            self.skip_ws();
            self.expect("=")?;
            self.skip_ws();
            let value = self.read_attr_value()?;
            if attrs.iter().any(|a| a.name().eq_lexical(attr_name_raw)) {
                return Err(self.error(format!("duplicate attribute `{attr_name_raw}`")));
            }
            let attr_name: QName = attr_name_raw
                .parse()
                .map_err(|e| self.error(format!("bad attribute name: {e}")))?;
            let attr = Attr::from_parts(attr_name, value);
            if let Some((prefix, uri)) = attr.as_ns_decl() {
                // Bind the prefix as a slice of the input, not of `attr`.
                let prefix = prefix.map(|_| &attr_name_raw["xmlns:".len()..]);
                self.scope.declare(prefix, uri);
            }
            attrs.push(attr);
        }

        let ns_uri = match name.prefix() {
            Some(p) => Some(
                self.scope
                    .resolve(Some(p))
                    .ok_or_else(|| self.error(format!("undeclared namespace prefix `{p}`")))?
                    .clone(),
            ),
            None => self.scope.resolve(None).cloned(),
        };
        // Prefixed attributes must also resolve (value unused, but an
        // undeclared prefix is a well-formedness error under NSXML).
        for attr in &attrs {
            if let Some(p) = attr.name().prefix() {
                if p != "xmlns" && self.scope.resolve(Some(p)).is_none() {
                    return Err(self.error(format!(
                        "undeclared namespace prefix `{p}` on attribute `{}`",
                        attr.name()
                    )));
                }
            }
        }

        let mut element = Element::from_parts(name, ns_uri, attrs);

        // Empty element?
        if self.peek() == Some(b'/') {
            self.bump(1);
            self.expect(">")?;
            self.scope.bindings.truncate(frame);
            return Ok(element);
        }
        self.expect(">")?;

        // Content. Whitespace-only text is dropped until the element has
        // a text child, after which every text run is kept.
        let mut has_text = false;
        loop {
            if self.starts_with("</") {
                self.bump(2);
                let close_raw = self.read_name()?;
                if !element.name().eq_lexical(close_raw) {
                    return Err(self.error(format!(
                        "mismatched end tag: expected `</{}>`, found `</{close_raw}>`",
                        element.name()
                    )));
                }
                self.skip_ws();
                self.expect(">")?;
                self.scope.bindings.truncate(frame);
                return Ok(element);
            } else if self.starts_with("<![CDATA[") {
                self.bump(9);
                let end = self
                    .rest()
                    .find("]]>")
                    .ok_or_else(|| self.error("unterminated CDATA section"))?;
                element.push_node(Node::CData(self.rest()[..end].to_string()));
                self.bump(end + 3);
            } else if self.starts_with("<!--") {
                let text = self.read_comment()?;
                element.push_node(Node::Comment(text));
            } else if self.starts_with("<?") {
                let (target, data) = self.read_pi()?;
                element.push_node(Node::Pi { target, data });
            } else if self.starts_with("<") {
                let child = self.read_element()?;
                element.push_element(child);
            } else if self.at_end() {
                return Err(self.error(format!(
                    "unexpected end of input inside `<{}>`",
                    element.name()
                )));
            } else {
                // Character data up to the next `<`.
                let end = self.rest().find('<').unwrap_or(self.rest().len());
                let raw = &self.rest()[..end];
                let text =
                    unescape(raw).map_err(|e| self.error(format!("bad character data: {e}")))?;
                if has_text || !text.trim().is_empty() {
                    element.push_node(Node::Text(text.into_owned()));
                    has_text = true;
                }
                self.bump(end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ns;
    use crate::writer::{write_document, WriteOptions};

    #[test]
    fn parses_minimal_document() {
        let doc = parse_document("<r/>").unwrap();
        assert_eq!(doc.root().name().local_part(), "r");
        assert_eq!(doc.root().ns_uri(), None);
    }

    #[test]
    fn parses_declaration_and_doctype() {
        let doc =
            parse_document("<?xml version=\"1.0\"?><!DOCTYPE r SYSTEM \"x.dtd\"><r/>").unwrap();
        assert_eq!(doc.root().name().local_part(), "r");
    }

    #[test]
    fn rejects_doctype_internal_subset() {
        assert!(parse_document("<!DOCTYPE r [<!ENTITY x \"y\">]><r/>").is_err());
    }

    #[test]
    fn resolves_default_namespace() {
        let doc = parse_document(r#"<a xmlns="urn:a"><b/></a>"#).unwrap();
        assert_eq!(doc.root().ns_uri(), Some("urn:a"));
        let b = doc.root().child_elements().next().unwrap();
        assert_eq!(b.ns_uri(), Some("urn:a"));
    }

    #[test]
    fn resolves_prefixed_namespaces_with_shadowing() {
        let xml = r#"<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"><p:c/></p:b><p:d/></p:a>"#;
        let root = parse_element(xml).unwrap();
        assert_eq!(root.ns_uri(), Some("urn:1"));
        let b = root.child_elements().next().unwrap();
        assert_eq!(b.ns_uri(), Some("urn:2"));
        let c = b.child_elements().next().unwrap();
        assert_eq!(c.ns_uri(), Some("urn:2"));
        let d = root.child_elements().nth(1).unwrap();
        assert_eq!(d.ns_uri(), Some("urn:1"));
    }

    #[test]
    fn default_ns_can_be_undeclared() {
        let xml = r#"<a xmlns="urn:a"><b xmlns=""><c/></b></a>"#;
        let root = parse_element(xml).unwrap();
        let b = root.child_elements().next().unwrap();
        assert_eq!(b.ns_uri(), None);
        assert_eq!(b.child_elements().next().unwrap().ns_uri(), None);
    }

    #[test]
    fn rejects_undeclared_prefix() {
        let err = parse_element("<p:a/>").unwrap_err();
        assert!(err.message().contains("undeclared namespace prefix"));
    }

    #[test]
    fn rejects_undeclared_attribute_prefix() {
        assert!(parse_element(r#"<a q:x="1"/>"#).is_err());
    }

    #[test]
    fn xml_prefix_is_predeclared() {
        let el = parse_element(r#"<a xml:lang="en"/>"#).unwrap();
        assert_eq!(el.attr("xml:lang"), Some("en"));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = parse_element(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(err.message().contains("duplicate attribute"));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse_element("<a><b></a></b>").unwrap_err();
        assert!(err.message().contains("mismatched end tag"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_document("<a/><b/>").is_err());
    }

    #[test]
    fn whitespace_only_text_is_dropped_between_elements() {
        let el = parse_element("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(el.children().len(), 1);
    }

    #[test]
    fn significant_text_is_kept() {
        let el = parse_element("<a>hi <b/> there</a>").unwrap();
        assert_eq!(el.text_content(), "hi  there");
    }

    #[test]
    fn entities_are_expanded() {
        let el = parse_element("<a b=\"&lt;&amp;&quot;\">&#65;&apos;</a>").unwrap();
        assert_eq!(el.attr("b"), Some("<&\""));
        assert_eq!(el.text_content(), "A'");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let el = parse_element("<a><![CDATA[<not-xml> & stuff]]></a>").unwrap();
        assert_eq!(el.text_content(), "<not-xml> & stuff");
    }

    #[test]
    fn comments_and_pis_in_content() {
        let el = parse_element("<a><!-- c --><?t d?><b/></a>").unwrap();
        assert_eq!(el.children().len(), 3);
    }

    #[test]
    fn attribute_single_quotes() {
        let el = parse_element("<a x='v'/>").unwrap();
        assert_eq!(el.attr("x"), Some("v"));
    }

    #[test]
    fn error_position_is_reported() {
        let err = parse_document("<a>\n  <b x=></b>\n</a>").unwrap_err();
        assert_eq!(err.pos().line, 2);
    }

    #[test]
    fn write_parse_roundtrip_preserves_structure() {
        let el = crate::Element::new("wsdl:definitions")
            .in_ns(ns::WSDL)
            .with_ns_decl(Some("wsdl"), ns::WSDL)
            .with_ns_decl(Some("xsd"), ns::XSD)
            .with_attr("targetNamespace", "urn:test")
            .with_child(
                crate::Element::new("wsdl:types").in_ns(ns::WSDL).with_child(
                    crate::Element::new("xsd:schema")
                        .in_ns(ns::XSD)
                        .with_attr("targetNamespace", "urn:test"),
                ),
            );
        let doc = Document::new(el);
        for opts in [WriteOptions::pretty(), WriteOptions::compact()] {
            let xml = write_document(&doc, &opts);
            let parsed = parse_document(&xml).unwrap();
            assert_eq!(parsed.root(), doc.root());
        }
    }

    #[test]
    fn bom_is_skipped() {
        let doc = parse_document("\u{feff}<r/>").unwrap();
        assert_eq!(doc.root().name().local_part(), "r");
    }
}
