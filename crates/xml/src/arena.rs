//! A parsed document as a flat arena, read through borrowed views.
//!
//! The [parser](crate::parser) fills an [`Arena`]: one vector of nodes
//! in document order and one of attributes. Names, attribute values and
//! character data borrow from the input text; only a value holding an
//! entity reference is unescaped into an owned string. An element's
//! subtree is the run of nodes up to its recorded end, so walking the
//! children skips each child's subtree in one step.
//!
//! [`ElementRef`] reads an element the way [`Element`] does — `attr`,
//! `elements`, `element`, `child_elements`, `is_named`, `ns_uri` — and
//! [`ElementRef::to_element`] converts a subtree into the owned tree.

use std::borrow::Cow;
use std::sync::Arc;

use crate::name::{ns, split_at, ExpandedName, QName};
use crate::tree::{Attr, Document, Element, Node};

/// Namespace reference: the element is in no namespace. Any reference
/// but the `NS_*` constants is the index of the declaring attribute.
pub(crate) const NS_NONE: usize = usize::MAX;
/// Namespace reference: the predeclared `xml:` namespace.
pub(crate) const NS_XML: usize = usize::MAX - 1;
/// Namespace reference: the predeclared `xmlns:` namespace.
pub(crate) const NS_XMLNS: usize = usize::MAX - 2;

/// One node of the arena.
#[derive(Debug)]
pub(crate) enum Slot<'a> {
    Element(ElementSlot<'a>),
    Text(Cow<'a, str>),
    CData(&'a str),
    Comment(&'a str),
    Pi { target: &'a str, data: &'a str },
}

#[derive(Debug)]
pub(crate) struct ElementSlot<'a> {
    pub(crate) name: &'a str,
    pub(crate) local_start: usize,
    pub(crate) ns: usize,
    pub(crate) attrs: std::ops::Range<usize>,
    /// One past the last node of the subtree.
    pub(crate) end: usize,
}

#[derive(Debug)]
pub(crate) struct AttrSlot<'a> {
    pub(crate) name: &'a str,
    pub(crate) local_start: usize,
    pub(crate) value: Cow<'a, str>,
}

/// A parsed document. Node 0 is the root element.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::parse_arena;
/// let doc = parse_arena(r#"<a xmlns="urn:x"><b c="1&amp;2"/></a>"#)?;
/// let b = doc.root().element("urn:x", "b").unwrap();
/// assert_eq!(b.attr("c"), Some("1&2"));
/// # Ok::<(), wsinterop_xml::ParseXmlError>(())
/// ```
#[derive(Debug)]
pub struct Arena<'a> {
    pub(crate) nodes: Vec<Slot<'a>>,
    pub(crate) attrs: Vec<AttrSlot<'a>>,
    pub(crate) prolog_comments: Vec<&'a str>,
}

impl<'a> Arena<'a> {
    /// The root element.
    pub fn root(&self) -> ElementRef<'_> {
        ElementRef {
            arena: self,
            idx: 0,
        }
    }

    /// Converts the whole document into the owned tree.
    pub fn to_document(&self) -> Document {
        let mut doc = Document::new(self.root().to_element());
        for comment in &self.prolog_comments {
            doc.push_prolog_comment(*comment);
        }
        doc
    }

    fn ns_uri(&self, ns_ref: usize) -> Option<&str> {
        match ns_ref {
            NS_NONE => None,
            NS_XML => Some(ns::XML),
            NS_XMLNS => Some(ns::XMLNS),
            attr => Some(&self.attrs[attr].value),
        }
    }

    fn element(&self, idx: usize) -> &ElementSlot<'a> {
        match &self.nodes[idx] {
            Slot::Element(el) => el,
            _ => unreachable!("an element index points at an element slot"),
        }
    }
}

/// A borrowed view of one element of an [`Arena`]. Views compare equal
/// when they are the same element of the same arena.
#[derive(Clone, Copy)]
pub struct ElementRef<'a> {
    arena: &'a Arena<'a>,
    idx: usize,
}

impl PartialEq for ElementRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.arena, other.arena) && self.idx == other.idx
    }
}

impl Eq for ElementRef<'_> {}

impl std::fmt::Debug for ElementRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ElementRef({} at node {})", self.name(), self.idx)
    }
}

impl<'a> ElementRef<'a> {
    fn slot(&self) -> &'a ElementSlot<'a> {
        self.arena.element(self.idx)
    }

    /// The element's lexical name (`prefix:local` or `local`).
    pub fn name(&self) -> &'a str {
        self.slot().name
    }

    /// The name's prefix, if any.
    pub fn prefix(&self) -> Option<&'a str> {
        split_at(self.slot().name, self.slot().local_start).0
    }

    /// The name's local part.
    pub fn local_name(&self) -> &'a str {
        split_at(self.slot().name, self.slot().local_start).1
    }

    /// The element's resolved namespace URI.
    pub fn ns_uri(&self) -> Option<&'a str> {
        self.arena.ns_uri(self.slot().ns)
    }

    /// The namespace-resolved name of this element.
    pub fn expanded_name(&self) -> ExpandedName {
        ExpandedName::new(self.ns_uri(), self.local_name())
    }

    /// Returns `true` when the element's resolved namespace and local
    /// name match the given pair.
    pub fn is_named(&self, ns_uri: &str, local: &str) -> bool {
        self.local_name() == local && self.ns_uri() == Some(ns_uri)
    }

    /// All attributes, in document order.
    pub fn attrs(&self) -> impl Iterator<Item = AttrRef<'a>> + 'a {
        self.arena.attrs[self.slot().attrs.clone()]
            .iter()
            .map(|slot| AttrRef { slot })
    }

    /// Looks up an attribute value by its *lexical* name.
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        self.attrs().find(|a| a.name() == name).map(|a| a.value())
    }

    /// Namespace declarations present directly on this element.
    pub fn ns_decls(&self) -> impl Iterator<Item = (Option<&'a str>, &'a str)> + 'a {
        self.attrs().filter_map(|a| match a.name() {
            "xmlns" => Some((None, a.value())),
            name => name.strip_prefix("xmlns:").map(|p| (Some(p), a.value())),
        })
    }

    /// Iterates over the direct child elements.
    pub fn child_elements(&self) -> ChildElements<'a> {
        ChildElements {
            arena: self.arena,
            next: self.idx + 1,
            end: self.slot().end,
        }
    }

    /// Direct child elements with the given resolved namespace and local
    /// name.
    pub fn elements<'n>(
        &self,
        ns_uri: &'n str,
        local: &'n str,
    ) -> impl Iterator<Item = ElementRef<'a>> + 'n
    where
        'a: 'n,
    {
        self.child_elements()
            .filter(move |e| e.is_named(ns_uri, local))
    }

    /// First direct child element with the given resolved name.
    pub fn element(&self, ns_uri: &str, local: &str) -> Option<ElementRef<'a>> {
        self.child_elements().find(|e| e.is_named(ns_uri, local))
    }

    /// Concatenation of all descendant text and CDATA content.
    pub fn text_content(&self) -> String {
        let subtree = &self.arena.nodes[self.idx + 1..self.slot().end];
        let mut out = String::new();
        for slot in subtree {
            match slot {
                Slot::Text(t) => out.push_str(t),
                Slot::CData(t) => out.push_str(t),
                _ => {}
            }
        }
        out
    }

    /// Converts this element and its subtree into the owned tree. Each
    /// namespace URI becomes one `Arc<str>` shared by every element in
    /// that namespace.
    pub fn to_element(&self) -> Element {
        let arena = self.arena;
        let mut uris: Vec<(usize, Arc<str>)> = Vec::new();
        // Open elements with the end of their subtree, innermost last.
        let mut open: Vec<(Element, usize)> = Vec::new();
        for i in self.idx..self.slot().end {
            while open.last().is_some_and(|&(_, end)| end == i) {
                let (done, _) = open.pop().expect("checked non-empty");
                open.last_mut()
                    .expect("a closed child has an open parent")
                    .0
                    .push_element(done);
            }
            let node = match &arena.nodes[i] {
                Slot::Element(el) => {
                    let ns_uri = (el.ns != NS_NONE).then(|| {
                        if let Some((_, uri)) = uris.iter().find(|(r, _)| *r == el.ns) {
                            return uri.clone();
                        }
                        let uri: Arc<str> = Arc::from(arena.ns_uri(el.ns).unwrap_or_default());
                        uris.push((el.ns, uri.clone()));
                        uri
                    });
                    let attrs = arena.attrs[el.attrs.clone()]
                        .iter()
                        .map(|a| {
                            let name = QName::from_checked(a.name, a.local_start);
                            Attr::from_parts(name, a.value.to_string())
                        })
                        .collect();
                    let name = QName::from_checked(el.name, el.local_start);
                    open.push((Element::from_parts(name, ns_uri, attrs), el.end));
                    continue;
                }
                Slot::Text(t) => Node::Text(t.to_string()),
                Slot::CData(t) => Node::CData(t.to_string()),
                Slot::Comment(t) => Node::Comment(t.to_string()),
                Slot::Pi { target, data } => Node::Pi {
                    target: target.to_string(),
                    data: data.to_string(),
                },
            };
            open.last_mut()
                .expect("content nodes sit inside an element")
                .0
                .push_node(node);
        }
        // Everything still open ends with this subtree.
        let (mut done, _) = open.pop().expect("the subtree's own element");
        while let Some((mut parent, _)) = open.pop() {
            parent.push_element(done);
            done = parent;
        }
        done
    }
}

/// Iterator over the child elements of an [`ElementRef`].
pub struct ChildElements<'a> {
    arena: &'a Arena<'a>,
    next: usize,
    end: usize,
}

impl<'a> Iterator for ChildElements<'a> {
    type Item = ElementRef<'a>;

    fn next(&mut self) -> Option<ElementRef<'a>> {
        while self.next < self.end {
            let idx = self.next;
            match &self.arena.nodes[idx] {
                Slot::Element(el) => {
                    self.next = el.end;
                    return Some(ElementRef {
                        arena: self.arena,
                        idx,
                    });
                }
                _ => self.next += 1,
            }
        }
        None
    }
}

/// A borrowed view of one attribute of an [`Arena`].
#[derive(Clone, Copy)]
pub struct AttrRef<'a> {
    slot: &'a AttrSlot<'a>,
}

impl<'a> AttrRef<'a> {
    /// The attribute's lexical name.
    pub fn name(&self) -> &'a str {
        self.slot.name
    }

    /// The name's prefix, if any.
    pub fn prefix(&self) -> Option<&'a str> {
        split_at(self.slot.name, self.slot.local_start).0
    }

    /// The attribute value, unescaped.
    pub fn value(&self) -> &'a str {
        &self.slot.value
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_arena;

    #[test]
    fn child_elements_skip_subtrees_and_content() {
        let doc = parse_arena("<a>t<b><c/><d/></b><!--x--><e/>u</a>").unwrap();
        let names: Vec<_> = doc.root().child_elements().map(|e| e.name()).collect();
        assert_eq!(names, ["b", "e"]);
        let b = doc.root().child_elements().next().unwrap();
        let names: Vec<_> = b.child_elements().map(|e| e.name()).collect();
        assert_eq!(names, ["c", "d"]);
    }

    #[test]
    fn names_and_values_borrow_the_input_unless_escaped() {
        let input = r#"<p:a xmlns:p="urn:p" x="plain" y="a&lt;b"/>"#;
        let doc = parse_arena(input).unwrap();
        let root = doc.root();
        assert_eq!((root.prefix(), root.local_name()), (Some("p"), "a"));
        assert_eq!(root.ns_uri(), Some("urn:p"));
        let x = root.attr("x").unwrap();
        let within = |s: &str| input.as_bytes().as_ptr_range().contains(&s.as_ptr());
        assert!(within(x) && within(root.name()));
        assert_eq!(root.attr("y"), Some("a<b"));
        assert!(!within(root.attr("y").unwrap()));
    }

    #[test]
    fn views_compare_by_position() {
        let doc = parse_arena("<a><b/><b/></a>").unwrap();
        let mut kids = doc.root().child_elements();
        let (first, second) = (kids.next().unwrap(), kids.next().unwrap());
        assert_eq!(first, doc.root().child_elements().next().unwrap());
        assert_ne!(first, second);
    }

    #[test]
    fn to_element_converts_one_subtree() {
        let doc = parse_arena(r#"<a xmlns="urn:a"><b x="1">t<c/></b><d/></a>"#).unwrap();
        let b = doc.root().child_elements().next().unwrap().to_element();
        assert_eq!(b.ns_uri(), Some("urn:a"));
        assert_eq!(b.attr("x"), Some("1"));
        assert_eq!(b.children().len(), 2);
        assert_eq!(b.text_content(), "t");
    }
}
