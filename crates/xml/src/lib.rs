//! # wsinterop-xml
//!
//! A self-contained XML 1.0 + Namespaces implementation sized for
//! web-service description documents (WSDL, XSD, SOAP envelopes).
//!
//! The crate provides:
//!
//! * [`QName`] / [`ExpandedName`] — lexical and namespace-resolved names,
//! * [`Element`] / [`Document`] — an owned tree for *building* messages
//!   and documents to write,
//! * [`writer`] — the streaming [`XmlWriter`] behind all pretty and
//!   compact output, trees included,
//! * [`parser`] — one validating parser with positions, filling a flat
//!   [`Arena`] that borrows the input ([`parse_arena`]),
//! * [`arena`] — the parsed arena and its [`ElementRef`] view, the only
//!   way to read a parsed document,
//! * [`escape`] — entity escaping/unescaping.
//!
//! It exists because the offline crate set for this reproduction contains
//! no XML implementation; the subset implemented here is exactly what the
//! simulated web-service frameworks in the workspace produce and consume.
//!
//! ## Example
//!
//! ```
//! use wsinterop_xml::{parse_arena, Document, Element, name::ns};
//! use wsinterop_xml::writer::{write_document, WriteOptions};
//!
//! let doc = Document::new(
//!     Element::new("wsdl:definitions")
//!         .with_ns_decl(Some("wsdl"), ns::WSDL)
//!         .with_attr("name", "EchoService"),
//! );
//! let xml = write_document(&doc, &WriteOptions::pretty());
//! let back = parse_arena(&xml)?;
//! assert!(back.root().is_named(ns::WSDL, "definitions"));
//! assert_eq!(back.root().attr("name"), Some("EchoService"));
//! # Ok::<(), wsinterop_xml::parser::ParseXmlError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod escape;
pub mod name;
pub mod parser;
pub mod scope;
pub mod tree;
pub mod writer;

pub use name::{ExpandedName, QName};
pub use arena::{Arena, AttrRef, ElementRef};
pub use parser::{parse_arena, ParseXmlError};
pub use tree::{Attr, Document, Element, Node};
pub use writer::{write_document, write_element, WriteOptions, XmlWriter};
