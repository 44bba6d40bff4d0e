//! The XML parser for the subset of XML 1.0 + Namespaces emitted by
//! web-service toolchains.
//!
//! Supported: elements, attributes, namespace declarations and
//! resolution, character data with entity/char references, CDATA,
//! comments, processing instructions, the XML declaration and a DOCTYPE
//! declaration (skipped, internal subsets rejected).
//!
//! One tokenizer fills a flat [`Arena`] ([`parse_arena`]) and resolves
//! every element's namespace on the way. Names, attribute values and
//! character data borrow from the input; only values holding entity
//! references are unescaped into owned strings. The arena is the only
//! parse result: every reader of XML goes through its views.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

use crate::arena::{Arena, AttrSlot, ElementSlot, Slot, NS_NONE, NS_XML, NS_XMLNS};
use crate::escape::unescape;
use crate::name::{local_start, split_at, ParseQNameError};
use crate::scope::PrefixScope;

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

/// Parses a complete document into an [`Arena`] that borrows `input`.
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
/// use wsinterop_xml::parse_arena;
/// let doc = parse_arena(r#"<a xmlns="urn:x"><b c="1">t</b></a>"#)?;
/// assert_eq!(doc.root().ns_uri(), Some("urn:x"));
/// let b = doc.root().element("urn:x", "b").unwrap();
/// assert_eq!(b.attr("c"), Some("1"));
/// assert_eq!(b.text_content(), "t");
/// # Ok::<(), wsinterop_xml::parser::ParseXmlError>(())
/// ```
pub fn parse_arena(input: &str) -> Result<Arena<'_>, ParseXmlError> {
    let mut p = Parser::new(input);
    p.skip_bom();
    p.skip_prolog()?;
    loop {
        p.skip_ws();
        if p.starts_with("<!--") {
            p.read_comment()?;
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
    p.read_root()?;
    p.skip_ws();
    while p.starts_with("<!--") {
        p.read_comment()?;
        p.skip_ws();
    }
    if !p.at_end() {
        return Err(p.error("content after root element"));
    }
    Ok(Arena {
        nodes: p.nodes,
        attrs: p.attrs,
    })
}

// ---------------------------------------------------------------------

/// Whether `b` may continue a name (any non-ASCII byte counts, so that
/// a caller falls back to the Unicode-aware [`Parser::read_name`]).
fn is_name_byte(b: u8) -> bool {
    !b.is_ascii() || b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
}

/// [`local_start`] for a name [`Parser::read_name`] accepted. Such a
/// name, when all ASCII, is a QName exactly when it has at most one
/// colon, not first, followed by a letter or `_`; anything else, and
/// every error, goes through the general check.
fn qname_local_start(name: &str) -> Result<usize, ParseQNameError> {
    let bytes = name.as_bytes();
    let mut colon = None;
    for (i, &b) in bytes.iter().enumerate() {
        if !b.is_ascii() || (b == b':' && colon.is_some()) {
            return local_start(name);
        }
        if b == b':' {
            colon = Some(i);
        }
    }
    match colon {
        None => Ok(0),
        Some(i)
            if i > 0
                && bytes
                    .get(i + 1)
                    .is_some_and(|&b| b == b'_' || b.is_ascii_alphabetic()) =>
        {
            Ok(i + 1)
        }
        Some(_) => local_start(name),
    }
}

/// An element whose end tag has not been read yet.
struct Open {
    /// Its slot in the arena.
    node: usize,
    /// Length of the namespace scope before its declarations.
    frame: usize,
    /// Whitespace-only text is dropped until the element has a text
    /// child, after which every text run is kept.
    has_text: bool,
}

/// Attributes of one element checked for duplicates by a scan; past
/// this many, by a hash set.
const INLINE_ATTRS: usize = 16;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The in-scope namespace bindings, innermost last: a prefix
    /// (`None` for the default namespace) and its namespace reference.
    scope: PrefixScope<'a, usize>,
    nodes: Vec<Slot<'a>>,
    attrs: Vec<AttrSlot<'a>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            scope: PrefixScope::new(vec![(Some("xml"), NS_XML), (Some("xmlns"), NS_XMLNS)]),
            // Published WSDL holds about one element per 75 bytes and one
            // attribute per 50; sizing a little above that means most
            // documents never regrow either vector.
            nodes: Vec::with_capacity(input.len() / 64 + 1),
            attrs: Vec::with_capacity(input.len() / 40 + 1),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
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
        let end = self.rest().find('>');
        if self
            .rest()
            .find('[')
            .is_some_and(|open| open < end.unwrap_or(usize::MAX))
        {
            return Err(self.error("DOCTYPE internal subsets are not supported"));
        }
        match end {
            Some(end) => {
                self.bump(end + 1);
                Ok(())
            }
            None => Err(self.error("unterminated DOCTYPE")),
        }
    }

    fn read_comment(&mut self) -> Result<&'a str, ParseXmlError> {
        debug_assert!(self.starts_with("<!--"));
        self.bump(4);
        let end = self
            .rest()
            .find("-->")
            .ok_or_else(|| self.error("unterminated comment"))?;
        let text = &self.rest()[..end];
        // XML 1.0 §2.5: no `--` inside, and no `-` right before `-->`.
        if text.contains("--") || text.ends_with('-') {
            return Err(self.error("`--` not allowed inside comment"));
        }
        self.bump(end + 3);
        Ok(text)
    }

    fn read_pi(&mut self) -> Result<(&'a str, &'a str), ParseXmlError> {
        debug_assert!(self.starts_with("<?"));
        self.bump(2);
        let end = self
            .rest()
            .find("?>")
            .ok_or_else(|| self.error("unterminated processing instruction"))?;
        let body = &self.rest()[..end];
        let (target, data) = match body.find(|c: char| c.is_ascii_whitespace()) {
            Some(i) => (&body[..i], body[i..].trim_start()),
            None => (body, ""),
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

    fn read_attr_value(&mut self) -> Result<Cow<'a, str>, ParseXmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        self.bump(1);
        // One pass to the closing quote, noting `<` and `&` on the way.
        let (mut lt, mut amp) = (false, false);
        let end = self.bytes[self.pos..]
            .iter()
            .position(|&b| {
                lt |= b == b'<';
                amp |= b == b'&';
                b == quote
            })
            .ok_or_else(|| self.error("unterminated attribute value"))?;
        let raw = &self.rest()[..end];
        if lt {
            return Err(self.error("`<` not allowed in attribute value"));
        }
        let value = if amp {
            unescape(raw).map_err(|e| self.error(format!("bad attribute value: {e}")))?
        } else {
            Cow::Borrowed(raw)
        };
        self.bump(end + 1);
        Ok(value)
    }

    fn open_name(&self, open: &Open) -> &'a str {
        match &self.nodes[open.node] {
            Slot::Element(el) => el.name,
            _ => unreachable!("open elements are element slots"),
        }
    }

    /// The namespace reference bound to `prefix`, `NS_NONE` when it is
    /// unbound or un-declared.
    fn resolve(&self, prefix: Option<&str>) -> usize {
        self.scope.resolve(prefix).unwrap_or(NS_NONE)
    }

    /// Reads the root element and everything inside it, keeping the open
    /// elements on an explicit stack.
    fn read_root(&mut self) -> Result<(), ParseXmlError> {
        let mut open: Vec<Open> = Vec::new();
        self.read_start_tag(&mut open)?;
        while let Some(top) = open.last_mut() {
            match (self.peek(), self.bytes.get(self.pos + 1)) {
                (Some(b'<'), Some(b'/')) => {
                    self.bump(2);
                    let name = self.open_name(top);
                    // The expected name, not followed by another name
                    // character, is what `read_name` would return.
                    let after = self.pos + name.len();
                    let close_raw = if self.bytes[self.pos..].starts_with(name.as_bytes())
                        && !self.bytes.get(after).is_some_and(|&b| is_name_byte(b))
                    {
                        self.bump(name.len());
                        name
                    } else {
                        self.read_name()?
                    };
                    let subtree_end = self.nodes.len();
                    if let Slot::Element(el) = &mut self.nodes[top.node] {
                        el.end = subtree_end;
                    }
                    if name != close_raw {
                        return Err(self.error(format!(
                            "mismatched end tag: expected `</{name}>`, found `</{close_raw}>`"
                        )));
                    }
                    let frame = top.frame;
                    self.skip_ws();
                    self.expect(">")?;
                    self.scope.truncate(frame);
                    open.pop();
                }
                (Some(b'<'), Some(b'!')) if self.starts_with("<![CDATA[") => {
                    self.bump(9);
                    let end = self
                        .rest()
                        .find("]]>")
                        .ok_or_else(|| self.error("unterminated CDATA section"))?;
                    self.nodes.push(Slot::CData(&self.rest()[..end]));
                    self.bump(end + 3);
                }
                (Some(b'<'), Some(b'!')) if self.starts_with("<!--") => {
                    let text = self.read_comment()?;
                    self.nodes.push(Slot::Comment(text));
                }
                (Some(b'<'), Some(b'?')) => {
                    let (target, data) = self.read_pi()?;
                    self.nodes.push(Slot::Pi { target, data });
                }
                (Some(b'<'), _) => self.read_start_tag(&mut open)?,
                (None, _) => {
                    let name = self.open_name(top);
                    return Err(self.error(format!("unexpected end of input inside `<{name}>`")));
                }
                _ => {
                    // Character data up to the next `<`. Indentation
                    // before the first text child is dropped unread.
                    let ws = self.bytes[self.pos..]
                        .iter()
                        .take_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
                        .count();
                    if !top.has_text && matches!(self.bytes.get(self.pos + ws), None | Some(b'<')) {
                        self.bump(ws);
                        continue;
                    }
                    let end = self.rest().find('<').unwrap_or(self.rest().len());
                    let raw = &self.rest()[..end];
                    let text = unescape(raw)
                        .map_err(|e| self.error(format!("bad character data: {e}")))?;
                    if top.has_text || !text.trim().is_empty() {
                        self.nodes.push(Slot::Text(text));
                        top.has_text = true;
                    }
                    self.bump(end);
                }
            }
        }
        Ok(())
    }

    /// Reads a start tag. An empty-element tag is complete on return;
    /// any other element is pushed onto `open`.
    fn read_start_tag(&mut self, open: &mut Vec<Open>) -> Result<(), ParseXmlError> {
        self.expect("<")?;
        let name = self.read_name()?;
        let name_local =
            qname_local_start(name).map_err(|e| self.error(format!("bad element name: {e}")))?;

        // Attributes. Namespace declarations go on the scope stack as
        // they are read; the frame is popped when the element closes.
        let frame = self.scope.len();
        let attrs_start = self.attrs.len();
        // Duplicate detection: a scan over the element's attributes up
        // to `INLINE_ATTRS`, then a hash of their borrowed names, so an
        // element with any number of attributes is checked in linear
        // time.
        let mut spilled: Option<HashSet<&'a str>> = None;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                None => return Err(self.error("unterminated start tag")),
                _ => {}
            }
            let attr_name = self.read_name()?;
            self.skip_ws();
            self.expect("=")?;
            self.skip_ws();
            let value = self.read_attr_value()?;
            let held = &self.attrs[attrs_start..];
            let duplicate = match &mut spilled {
                Some(names) => !names.insert(attr_name),
                None if held.len() < INLINE_ATTRS => held.iter().any(|a| a.name == attr_name),
                None => {
                    let names = spilled.insert(held.iter().map(|a| a.name).collect());
                    !names.insert(attr_name)
                }
            };
            if duplicate {
                return Err(self.error(format!("duplicate attribute `{attr_name}`")));
            }
            let attr_local = qname_local_start(attr_name)
                .map_err(|e| self.error(format!("bad attribute name: {e}")))?;
            let decl = match attr_name {
                "xmlns" => Some(None),
                _ => attr_name.strip_prefix("xmlns:").map(Some),
            };
            if let Some(prefix) = decl {
                // An empty URI un-declares the default namespace.
                let ns = if value.is_empty() {
                    NS_NONE
                } else {
                    self.attrs.len()
                };
                self.scope.push(prefix, ns);
            }
            self.attrs.push(AttrSlot {
                name: attr_name,
                local_start: attr_local,
                ns: NS_NONE,
                value,
            });
        }

        let ns = match split_at(name, name_local).0 {
            Some(p) => match self.resolve(Some(p)) {
                NS_NONE => return Err(self.error(format!("undeclared namespace prefix `{p}`"))),
                ns => ns,
            },
            None => self.resolve(None),
        };
        // Prefixed attributes must also resolve: an undeclared prefix
        // is a well-formedness error under NSXML.
        for i in attrs_start..self.attrs.len() {
            let (attr_name, attr_local) = (self.attrs[i].name, self.attrs[i].local_start);
            let Some(p) = split_at(attr_name, attr_local).0.filter(|&p| p != "xmlns") else {
                continue;
            };
            match self.resolve(Some(p)) {
                NS_NONE => {
                    return Err(self.error(format!(
                        "undeclared namespace prefix `{p}` on attribute `{attr_name}`"
                    )))
                }
                ns => self.attrs[i].ns = ns,
            }
        }

        let node = self.nodes.len();
        self.nodes.push(Slot::Element(ElementSlot {
            name,
            local_start: name_local,
            ns,
            attrs: attrs_start..self.attrs.len(),
            end: node + 1,
        }));

        // Empty element?
        if self.peek() == Some(b'/') {
            self.bump(1);
            self.expect(">")?;
            self.scope.truncate(frame);
            return Ok(());
        }
        self.expect(">")?;
        open.push(Open {
            node,
            frame,
            has_text: false,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ns;
    use crate::writer::{write_document, WriteOptions};
    use crate::{Document, Element};

    #[test]
    fn parses_minimal_document() {
        let doc = parse_arena("<r/>").unwrap();
        assert_eq!(doc.root().local_name(), "r");
        assert_eq!(doc.root().ns_uri(), None);
    }

    #[test]
    fn parses_declaration_and_doctype() {
        let doc = parse_arena("<?xml version=\"1.0\"?><!DOCTYPE r SYSTEM \"x.dtd\"><r/>").unwrap();
        assert_eq!(doc.root().local_name(), "r");
    }

    #[test]
    fn rejects_doctype_internal_subset() {
        assert!(parse_arena("<!DOCTYPE r [<!ENTITY x \"y\">]><r/>").is_err());
    }

    #[test]
    fn resolves_default_namespace() {
        let doc = parse_arena(r#"<a xmlns="urn:a"><b/></a>"#).unwrap();
        assert_eq!(doc.root().ns_uri(), Some("urn:a"));
        let b = doc.root().child_elements().next().unwrap();
        assert_eq!(b.ns_uri(), Some("urn:a"));
    }

    #[test]
    fn resolves_prefixed_namespaces_with_shadowing() {
        let xml = r#"<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"><p:c/></p:b><p:d/></p:a>"#;
        let doc = parse_arena(xml).unwrap();
        let root = doc.root();
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
        let doc = parse_arena(r#"<a xmlns="urn:a"><b xmlns=""><c/></b></a>"#).unwrap();
        let b = doc.root().child_elements().next().unwrap();
        assert_eq!(b.ns_uri(), None);
        assert_eq!(b.child_elements().next().unwrap().ns_uri(), None);
    }

    #[test]
    fn rejects_undeclared_prefix() {
        let err = parse_arena("<p:a/>").unwrap_err();
        assert!(err.message().contains("undeclared namespace prefix"));
    }

    #[test]
    fn rejects_undeclared_attribute_prefix() {
        assert!(parse_arena(r#"<a q:x="1"/>"#).is_err());
    }

    #[test]
    fn xml_prefix_is_predeclared() {
        let doc = parse_arena(r#"<a xml:lang="en"/>"#).unwrap();
        assert_eq!(doc.root().attr("xml:lang"), Some("en"));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = parse_arena(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(err.message().contains("duplicate attribute"));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse_arena("<a><b></a></b>").unwrap_err();
        assert!(err.message().contains("mismatched end tag"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_arena("<a/><b/>").is_err());
    }

    #[test]
    fn whitespace_only_text_is_dropped_between_elements() {
        let doc = parse_arena("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.nodes.len(), 2);
    }

    #[test]
    fn significant_text_is_kept() {
        let doc = parse_arena("<a>hi <b/> there</a>").unwrap();
        assert_eq!(doc.root().text_content(), "hi  there");
    }

    #[test]
    fn entities_are_expanded() {
        let doc = parse_arena("<a b=\"&lt;&amp;&quot;\">&#65;&apos;</a>").unwrap();
        assert_eq!(doc.root().attr("b"), Some("<&\""));
        assert_eq!(doc.root().text_content(), "A'");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = parse_arena("<a><![CDATA[<not-xml> & stuff]]></a>").unwrap();
        assert_eq!(doc.root().text_content(), "<not-xml> & stuff");
    }

    #[test]
    fn comments_and_pis_in_content() {
        let doc = parse_arena("<a><!-- c --><?t d?><b/></a>").unwrap();
        assert_eq!(doc.nodes.len(), 4);
    }

    #[test]
    fn attribute_single_quotes() {
        let doc = parse_arena("<a x='v'/>").unwrap();
        assert_eq!(doc.root().attr("x"), Some("v"));
    }

    #[test]
    fn error_position_is_reported() {
        let err = parse_arena("<a>\n  <b x=></b>\n</a>").unwrap_err();
        assert_eq!(err.pos().line, 2);
    }

    #[test]
    fn write_parse_roundtrip_preserves_structure() {
        let el = Element::new("wsdl:definitions")
            .with_ns_decl(Some("wsdl"), ns::WSDL)
            .with_ns_decl(Some("xsd"), ns::XSD)
            .with_attr("targetNamespace", "urn:test")
            .with_child(
                Element::new("wsdl:types").with_child(
                    Element::new("xsd:schema")
                        .with_attr("targetNamespace", "urn:test"),
                ),
            );
        let doc = Document::new(el);
        for opts in [WriteOptions::pretty(), WriteOptions::compact()] {
            let xml = write_document(&doc, &opts);
            let parsed = parse_arena(&xml).unwrap();
            let root = parsed.root();
            assert!(root.is_named(ns::WSDL, "definitions"));
            let attrs: Vec<_> = root.attrs().map(|a| (a.name(), a.value())).collect();
            assert_eq!(
                attrs,
                [("xmlns:wsdl", ns::WSDL), ("xmlns:xsd", ns::XSD), ("targetNamespace", "urn:test")]
            );
            let types = root.element(ns::WSDL, "types").unwrap();
            let schema = types.element(ns::XSD, "schema").unwrap();
            assert_eq!(schema.attr("targetNamespace"), Some("urn:test"));
            assert_eq!(root.descendants().count(), 3);
        }
    }

    #[test]
    fn bom_is_skipped() {
        let doc = parse_arena("\u{feff}<r/>").unwrap();
        assert_eq!(doc.root().local_name(), "r");
    }
}
