//! Symbol tables over the inline schemas of a WSDL document.
//!
//! Several Basic Profile assertions reduce to "does this QName resolve
//! to a definition somewhere in the document?". [`SymbolTable`] collects
//! every global element, complex type and simple type declared in the
//! inline schemas, plus the set of namespaces that are imported with and
//! without a resolvable `schemaLocation`.

use std::collections::HashSet;
use std::fmt;

use wsinterop_wsdl::Definitions;
use wsinterop_xml::name::ns;
use wsinterop_xsd::{AttributeDecl, BuiltIn, Group, Particle, Schema, TypeRef};

/// Resolution tables for one WSDL document, keyed by names borrowed
/// from it: building the table and looking a name up copy nothing.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable<'a> {
    elements: HashSet<(&'a str, &'a str)>,
    types: HashSet<(&'a str, &'a str)>,
    imported_with_location: HashSet<&'a str>,
    imported_without_location: HashSet<&'a str>,
}

impl<'a> SymbolTable<'a> {
    /// Builds the table from a document's inline schemas.
    pub fn build(defs: &'a Definitions) -> SymbolTable<'a> {
        let schemas = &defs.schemas;
        let mut table = SymbolTable {
            elements: HashSet::with_capacity(schemas.iter().map(|s| s.elements.len()).sum()),
            types: HashSet::with_capacity(
                schemas
                    .iter()
                    .map(|s| s.complex_types.len() + s.simple_types.len())
                    .sum(),
            ),
            ..SymbolTable::default()
        };
        for schema in schemas {
            let tns = schema.target_ns.as_str();
            for el in &schema.elements {
                table.elements.insert((tns, &el.name));
            }
            for ct in &schema.complex_types {
                if let Some(name) = &ct.name {
                    table.types.insert((tns, name));
                }
            }
            for st in &schema.simple_types {
                table.types.insert((tns, &st.name));
            }
            for import in &schema.imports {
                if import.schema_location.is_some() {
                    table.imported_with_location.insert(&import.namespace);
                } else {
                    table.imported_without_location.insert(&import.namespace);
                }
            }
        }
        table
    }

    /// Does a global element `{ns_uri}local` exist?
    pub fn has_element(&self, ns_uri: &str, local: &str) -> bool {
        self.elements.contains(&(ns_uri, local))
    }

    /// Does a named type resolve? Built-ins always do; named types must
    /// be declared inline or belong to a namespace imported *with* a
    /// schema location (we optimistically treat located imports as
    /// resolvable, as real tools download them).
    pub fn type_resolves(&self, type_ref: &TypeRef) -> bool {
        match type_ref {
            TypeRef::BuiltIn(_) => true,
            TypeRef::Named { ns_uri, local } => {
                if ns_uri == ns::XSD {
                    return local.parse::<BuiltIn>().is_ok();
                }
                self.types.contains(&(ns_uri.as_str(), local.as_str()))
                    || self.imported_with_location.contains(ns_uri.as_str())
            }
        }
    }

    /// Is `ns_uri` imported without a schema location (the JAX-WS
    /// WS-Addressing pattern that breaks consumers)?
    pub fn imported_without_location(&self, ns_uri: &str) -> bool {
        self.imported_without_location.contains(ns_uri)
    }
}

/// Where a schema reference sits: under a global element or a complex
/// type. Its `Display` is the location a finding reports
/// (``element `x` ``, ``complexType `x` ``), so a walk formats it only
/// for the references a visitor reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Where<'a> {
    /// Under the global element of that name.
    Element(&'a str),
    /// Under the complex type of that name; `None` when it is anonymous.
    ComplexType(Option<&'a str>),
}

impl fmt::Display for Where<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Where::Element(name) => write!(f, "element `{name}`"),
            Where::ComplexType(name) => {
                write!(f, "complexType `{}`", name.unwrap_or("<anonymous>"))
            }
        }
    }
}

/// Walks every particle of every schema, visiting element declarations,
/// element refs, attribute declarations and type references.
pub fn walk_schema_refs(
    schema: &Schema,
    visit_type: &mut dyn FnMut(&TypeRef, Where<'_>),
    visit_element_ref: &mut dyn FnMut(Where<'_>, &str, &str),
    visit_attr_ref: &mut dyn FnMut(Where<'_>, &str, &str),
) {
    fn walk_group(
        where_: Where<'_>,
        group: &Group,
        visit_type: &mut dyn FnMut(&TypeRef, Where<'_>),
        visit_element_ref: &mut dyn FnMut(Where<'_>, &str, &str),
        visit_attr_ref: &mut dyn FnMut(Where<'_>, &str, &str),
    ) {
        for particle in &group.particles {
            match particle {
                Particle::Element(decl) => {
                    if let Some(type_ref) = &decl.type_ref {
                        visit_type(type_ref, where_);
                    }
                    if let Some(inline) = &decl.inline {
                        walk_group(
                            where_,
                            &inline.content,
                            visit_type,
                            visit_element_ref,
                            visit_attr_ref,
                        );
                        for attr in &inline.attributes {
                            visit_attr(where_, attr, visit_type, visit_attr_ref);
                        }
                    }
                }
                Particle::ElementRef { ns_uri, local } => {
                    visit_element_ref(where_, ns_uri, local);
                }
                Particle::Any { .. } => {}
                Particle::Group(inner) => walk_group(
                    where_,
                    inner,
                    visit_type,
                    visit_element_ref,
                    visit_attr_ref,
                ),
            }
        }
    }

    fn visit_attr(
        where_: Where<'_>,
        attr: &AttributeDecl,
        visit_type: &mut dyn FnMut(&TypeRef, Where<'_>),
        visit_attr_ref: &mut dyn FnMut(Where<'_>, &str, &str),
    ) {
        match attr {
            AttributeDecl::Local { type_ref, .. } => visit_type(type_ref, where_),
            AttributeDecl::Ref { ns_uri, local } => visit_attr_ref(where_, ns_uri, local),
        }
    }

    for el in &schema.elements {
        let where_ = Where::Element(&el.name);
        if let Some(type_ref) = &el.type_ref {
            visit_type(type_ref, where_);
        }
        if let Some(inline) = &el.inline {
            walk_group(
                where_,
                &inline.content,
                visit_type,
                visit_element_ref,
                visit_attr_ref,
            );
            for attr in &inline.attributes {
                visit_attr(where_, attr, visit_type, visit_attr_ref);
            }
        }
    }
    for ct in &schema.complex_types {
        let where_ = Where::ComplexType(ct.name.as_deref());
        if let Some(base) = &ct.extends {
            visit_type(base, where_);
        }
        walk_group(
            where_,
            &ct.content,
            visit_type,
            visit_element_ref,
            visit_attr_ref,
        );
        for attr in &ct.attributes {
            visit_attr(where_, attr, visit_type, visit_attr_ref);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_wsdl::builder::doc_literal_echo;
    use wsinterop_xsd::{ComplexType, ElementDecl, Import};

    #[test]
    fn table_indexes_elements_and_types() {
        let mut defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        defs.schemas[0]
            .complex_types
            .push(ComplexType::named("Bean"));
        let table = SymbolTable::build(&defs);
        assert!(table.has_element("urn:t", "echo"));
        assert!(table.has_element("urn:t", "echoResponse"));
        assert!(!table.has_element("urn:t", "ghost"));
        assert!(table.type_resolves(&TypeRef::named("urn:t", "Bean")));
        assert!(!table.type_resolves(&TypeRef::named("urn:t", "Ghost")));
        assert!(table.type_resolves(&TypeRef::BuiltIn(BuiltIn::Int)));
    }

    #[test]
    fn located_imports_resolve_optimistically() {
        let mut defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        defs.schemas[0].imports.push(Import {
            namespace: "urn:located".into(),
            schema_location: Some("x.xsd".into()),
        });
        defs.schemas[0].imports.push(Import {
            namespace: "urn:floating".into(),
            schema_location: None,
        });
        let table = SymbolTable::build(&defs);
        assert!(table.type_resolves(&TypeRef::named("urn:located", "T")));
        assert!(!table.type_resolves(&TypeRef::named("urn:floating", "T")));
        assert!(table.imported_without_location("urn:floating"));
    }

    #[test]
    fn walk_visits_nested_refs() {
        let mut defs = doc_literal_echo("S", "urn:t", "echo", TypeRef::BuiltIn(BuiltIn::Int));
        defs.schemas[0].elements.push(ElementDecl::with_inline(
            "extra",
            ComplexType::anonymous().with_particle(Particle::ElementRef {
                ns_uri: ns::XSD.to_string(),
                local: "schema".to_string(),
            }),
        ));
        let mut types = 0;
        let mut element_refs = Vec::new();
        let mut attr_refs = 0;
        walk_schema_refs(
            &defs.schemas[0],
            &mut |_, _| types += 1,
            &mut |_, ns_uri, local| element_refs.push((ns_uri.to_string(), local.to_string())),
            &mut |_, _, _| attr_refs += 1,
        );
        assert!(types >= 2); // arg0 + return
        assert_eq!(element_refs, [(ns::XSD.to_string(), "schema".to_string())]);
        assert_eq!(attr_refs, 0);
    }
}
