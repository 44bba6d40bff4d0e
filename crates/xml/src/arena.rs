//! A parsed document as a flat arena, read through borrowed views.
//!
//! The [parser](crate::parser) fills an [`Arena`]: one vector of nodes
//! in document order and one of attributes. Names, attribute values and
//! character data borrow from the input text; only a value holding an
//! entity reference is unescaped into an owned string. An element's
//! subtree is the run of nodes up to its recorded end, so walking the
//! children skips each child's subtree in one step.
//!
//! [`ElementRef`] is the one way to read a parsed element — `attr`,
//! `elements`, `element`, `child_elements`, `descendants`, `is_named`,
//! `ns_uri`, `text_content`. The owned [`Element`](crate::Element) tree
//! is only for building documents to write.

use std::borrow::Cow;

use crate::name::{ns, split_at, ExpandedName};

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
    /// The namespace reference of a prefixed name, as for elements;
    /// `NS_NONE` for an unprefixed name or a namespace declaration.
    pub(crate) ns: usize,
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
}

impl<'a> Arena<'a> {
    /// The root element.
    pub fn root(&self) -> ElementRef<'_> {
        ElementRef {
            arena: self,
            idx: 0,
        }
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

    /// This element and every element below it, in document order.
    pub fn descendants(&self) -> impl Iterator<Item = ElementRef<'a>> + 'a {
        let arena = self.arena;
        (self.idx..self.slot().end)
            .filter(move |&idx| matches!(arena.nodes[idx], Slot::Element(_)))
            .map(move |idx| ElementRef { arena, idx })
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

    /// The prefixes that this element's name (unless it is `value`
    /// itself, whose name a copy replaces) and its attributes use and
    /// that are bound on an ancestor of `value`, each with its URI.
    /// Declarations are numbered in document order, so one numbered
    /// before `value`'s own attributes sits on an ancestor.
    pub(crate) fn outer_bindings(
        &self,
        value: ElementRef<'a>,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let (arena, first_inside) = (self.arena, value.slot().attrs.start);
        let name = (*self != value).then(|| (self.prefix(), self.slot().ns));
        let attrs = self.arena.attrs[self.slot().attrs.clone()]
            .iter()
            .map(|a| (split_at(a.name, a.local_start).0, a.ns));
        // The `NS_*` sentinels sort after every declaration.
        name.into_iter().chain(attrs).filter_map(move |(prefix, ns)| match prefix {
            Some(prefix) if ns < first_inside => Some((prefix, arena.attrs[ns].value.as_ref())),
            _ => None,
        })
    }

    /// Whether any direct child is character data (text or CDATA) —
    /// the mixed content a pretty writer keeps on one line.
    pub(crate) fn has_text_child(&self) -> bool {
        let mut i = self.idx + 1;
        while i < self.slot().end {
            match &self.arena.nodes[i] {
                Slot::Element(el) => i = el.end,
                Slot::Text(_) | Slot::CData(_) => return true,
                _ => i += 1,
            }
        }
        false
    }

    /// Visits everything inside this element in document order: each
    /// descendant element is opened, its content visited, and closed.
    pub(crate) fn walk_content(&self, mut visit: impl FnMut(Visit<'a>)) {
        let arena = self.arena;
        // Ends of the open descendants' subtrees, innermost last.
        let mut open: Vec<usize> = Vec::new();
        for i in self.idx + 1..self.slot().end {
            while open.last() == Some(&i) {
                open.pop();
                visit(Visit::Close);
            }
            match &arena.nodes[i] {
                Slot::Element(el) => {
                    visit(Visit::Open(ElementRef { arena, idx: i }));
                    open.push(el.end);
                }
                Slot::Text(t) => visit(Visit::Text(t)),
                Slot::CData(t) => visit(Visit::CData(t)),
                Slot::Comment(t) => visit(Visit::Comment(t)),
                Slot::Pi { target, data } => visit(Visit::Pi { target, data }),
            }
        }
        for _ in open {
            visit(Visit::Close);
        }
    }
}

/// One step of [`ElementRef::walk_content`].
pub(crate) enum Visit<'a> {
    /// A descendant element starts; its content and a matching
    /// [`Visit::Close`] follow.
    Open(ElementRef<'a>),
    /// The innermost open descendant ends.
    Close,
    Text(&'a str),
    CData(&'a str),
    Comment(&'a str),
    Pi { target: &'a str, data: &'a str },
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

    /// The name's local part.
    pub fn local_name(&self) -> &'a str {
        split_at(self.slot.name, self.slot.local_start).1
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
    fn descendants_are_in_document_order() {
        let doc = parse_arena(r#"<a x:n="1" xmlns:x="urn:x"><b>t<c/></b><!--d--><e/></a>"#).unwrap();
        let names: Vec<_> = doc.root().descendants().map(|e| e.name()).collect();
        assert_eq!(names, ["a", "b", "c", "e"]);
        let b = doc.root().child_elements().next().unwrap();
        assert_eq!(b.descendants().count(), 2);
        let attr = doc.root().attrs().next().unwrap();
        assert_eq!((attr.prefix(), attr.local_name()), (Some("x"), "n"));
    }
}
