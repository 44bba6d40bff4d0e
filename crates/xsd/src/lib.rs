//! # wsinterop-xsd
//!
//! An XML Schema (XSD) object model covering the subset of schema
//! constructs that SOAP web-service frameworks emit into WSDL `types`
//! sections: global elements, (anonymous) complex types with
//! sequence/choice/all content, element/attribute references, wildcards,
//! enumerated simple types, imports and form defaults.
//!
//! The model intentionally includes the *irregular* shapes the study
//! depends on — `ref="s:schema"` element references into the XSD
//! namespace itself and `ref="s:lang"` attribute references — because
//! the reproduced interoperability failures hinge on them.
//!
//! * [`model`] — the object model ([`Schema`], [`ComplexType`], …)
//! * [`builtin`] — the built-in simple types ([`BuiltIn`])
//! * [`ser`] — serialization through a `wsinterop-xml` writer
//! * [`de`] — parsing back from a parsed element
//! * [`lexical`] — lexical validation and canonical values (incl. a
//!   self-contained base64 codec)
//!
//! ## Example
//!
//! ```
//! use wsinterop_xsd::{Schema, ElementDecl, TypeRef, BuiltIn};
//! use wsinterop_xsd::ser::{write_schema, SerOptions};
//! use wsinterop_xsd::de::schema_from_element;
//! use wsinterop_xml::{parse_arena, scope::NsBindings, WriteOptions, XmlWriter};
//!
//! let mut schema = Schema::new("urn:quick");
//! schema.elements.push(ElementDecl::typed("value", TypeRef::BuiltIn(BuiltIn::Long)));
//! let opts = WriteOptions::compact();
//! let mut w = XmlWriter::new(&opts);
//! write_schema(&mut w, &schema, &SerOptions::default());
//! let xml = w.finish();
//! let doc = parse_arena(&xml).unwrap();
//! let back = schema_from_element(doc.root(), &NsBindings::new())?;
//! assert_eq!(back, schema);
//! # Ok::<(), wsinterop_xsd::de::SchemaReadError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builtin;
pub mod de;
pub mod lexical;
pub mod model;
pub mod ser;

pub use builtin::{BuiltIn, UnknownBuiltInError};
pub use model::{
    AttributeDecl, ComplexType, Compositor, ElementDecl, Form, Group, Import, MaxOccurs,
    Particle, ProcessContents, Schema, SimpleType, TypeRef,
};
