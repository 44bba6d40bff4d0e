//! Parsing of `xsd:schema` elements back into the object model.

use std::fmt;

use wsinterop_xml::name::ns;
use wsinterop_xml::scope::NsBindings;
use wsinterop_xml::ElementRef;

use crate::builtin::BuiltIn;
use crate::model::{
    AttributeDecl, ComplexType, Compositor, ElementDecl, Form, Group, Import, MaxOccurs,
    Particle, ProcessContents, Schema, SimpleType, TypeRef,
};

/// An error produced while reading a schema document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaReadError {
    message: String,
}

impl SchemaReadError {
    fn new(message: impl Into<String>) -> SchemaReadError {
        SchemaReadError {
            message: message.into(),
        }
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SchemaReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema read error: {}", self.message)
    }
}

impl std::error::Error for SchemaReadError {}

/// Parses an `xsd:schema` element into a [`Schema`].
///
/// `outer_scope` carries namespace bindings declared on ancestors (e.g.
/// `wsdl:definitions`); pass a fresh [`NsBindings`] for standalone
/// documents.
///
/// # Errors
///
/// Returns [`SchemaReadError`] when the element is not an `xsd:schema`,
/// when QName attribute values use undeclared prefixes, or when
/// occurrence/type attributes are malformed.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::{parse_arena, scope::NsBindings};
/// use wsinterop_xsd::de::schema_from_element;
/// let doc = parse_arena(
///     r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
///          targetNamespace="urn:t" elementFormDefault="qualified">
///          <xsd:element name="a" type="xsd:int"/>
///        </xsd:schema>"#,
/// ).unwrap();
/// let schema = schema_from_element(doc.root(), &NsBindings::new())?;
/// assert_eq!(schema.target_ns, "urn:t");
/// assert_eq!(schema.elements.len(), 1);
/// # Ok::<(), wsinterop_xsd::de::SchemaReadError>(())
/// ```
pub fn schema_from_element<'a>(
    el: ElementRef<'a>,
    outer_scope: &NsBindings<'a>,
) -> Result<Schema, SchemaReadError> {
    if !el.is_named(ns::XSD, "schema") {
        return Err(SchemaReadError::new(format!(
            "expected xsd:schema, found {}",
            el.expanded_name()
        )));
    }
    let mut scope = outer_scope.clone();
    scope.push_element(el);

    let mut schema = Schema::new(el.attr("targetNamespace").unwrap_or_default());
    schema.element_form_default = match el.attr("elementFormDefault") {
        Some("qualified") => Form::Qualified,
        _ => Form::Unqualified,
    };

    for child in el.child_elements() {
        if child.ns_uri() != Some(ns::XSD) {
            continue; // foreign-namespace extension elements are skipped
        }
        match child.local_name() {
            "import" => schema.imports.push(Import {
                namespace: child.attr("namespace").unwrap_or_default().to_string(),
                schema_location: child.attr("schemaLocation").map(str::to_string),
            }),
            "element" => {
                let decl = read_element_decl(child, &mut scope)?;
                schema.elements.push(decl);
            }
            "complexType" => {
                let ct = read_complex_type(child, &mut scope)?;
                schema.complex_types.push(ct);
            }
            "simpleType" => {
                let st = read_simple_type(child, &mut scope)?;
                schema.simple_types.push(st);
            }
            "annotation" | "attribute" | "attributeGroup" | "group" | "notation"
            | "include" | "redefine" => {} // tolerated, not modeled
            other => {
                return Err(SchemaReadError::new(format!(
                    "unsupported top-level schema construct `xsd:{other}`"
                )))
            }
        }
    }
    Ok(schema)
}

fn resolve_type_ref(
    raw: &str,
    scope: &NsBindings,
) -> Result<TypeRef, SchemaReadError> {
    let (ns_uri, local) = scope.resolve_qname_value(raw).ok_or_else(|| {
        SchemaReadError::new(format!("cannot resolve QName `{raw}` (undeclared prefix?)"))
    })?;
    match ns_uri {
        Some(uri) if uri == ns::XSD => local
            .parse::<BuiltIn>()
            .map(TypeRef::BuiltIn)
            .map_err(|e| SchemaReadError::new(e.to_string())),
        Some(uri) => Ok(TypeRef::named(uri, local)),
        None => Ok(TypeRef::named("", local)),
    }
}

fn read_occurs(el: ElementRef<'_>) -> Result<(u32, MaxOccurs), SchemaReadError> {
    let min = match el.attr("minOccurs") {
        None => 1,
        Some(raw) => raw
            .parse::<u32>()
            .map_err(|_| SchemaReadError::new(format!("bad minOccurs `{raw}`")))?,
    };
    let max = match el.attr("maxOccurs") {
        None => MaxOccurs::Bounded(1),
        Some("unbounded") => MaxOccurs::Unbounded,
        Some(raw) => MaxOccurs::Bounded(
            raw.parse::<u32>()
                .map_err(|_| SchemaReadError::new(format!("bad maxOccurs `{raw}`")))?,
        ),
    };
    Ok((min, max))
}

fn read_element_decl<'a>(
    el: ElementRef<'a>,
    scope: &mut NsBindings<'a>,
) -> Result<ElementDecl, SchemaReadError> {
    scope.push_element(el);
    let result = (|| {
        let name = el
            .attr("name")
            .ok_or_else(|| SchemaReadError::new("xsd:element without name"))?
            .to_string();
        let (min_occurs, max_occurs) = read_occurs(el)?;
        let type_ref = match el.attr("type") {
            Some(raw) => Some(resolve_type_ref(raw, scope)?),
            None => None,
        };
        let inline = match el.element(ns::XSD, "complexType") {
            Some(ct_el) => Some(Box::new(read_complex_type(ct_el, scope)?)),
            None => None,
        };
        Ok(ElementDecl {
            name,
            type_ref,
            inline,
            min_occurs,
            max_occurs,
            nillable: el.attr("nillable") == Some("true"),
        })
    })();
    scope.pop();
    result
}

fn read_complex_type<'a>(
    el: ElementRef<'a>,
    scope: &mut NsBindings<'a>,
) -> Result<ComplexType, SchemaReadError> {
    scope.push_element(el);
    let result = (|| {
        let mut ct = ComplexType {
            name: el.attr("name").map(str::to_string),
            is_abstract: el.attr("abstract") == Some("true"),
            ..ComplexType::default()
        };

        // complexContent/extension?
        let (content_holder, extends) = match el.element(ns::XSD, "complexContent") {
            Some(cc) => match cc.element(ns::XSD, "extension") {
                Some(ext) => {
                    let base_raw = ext
                        .attr("base")
                        .ok_or_else(|| SchemaReadError::new("extension without base"))?;
                    (ext, Some(resolve_type_ref(base_raw, scope)?))
                }
                None => (cc, None),
            },
            None => (el, None),
        };
        ct.extends = extends;

        for compositor in [Compositor::Sequence, Compositor::Choice, Compositor::All] {
            if let Some(group_el) = content_holder.element(ns::XSD, compositor.xsd_name()) {
                ct.content = read_group(group_el, compositor, scope)?;
                break;
            }
        }
        for attr_el in content_holder.elements(ns::XSD, "attribute") {
            ct.attributes.push(read_attribute(attr_el, scope)?);
        }
        // Attributes may also sit on the complexType itself when content
        // came from an extension wrapper.
        if content_holder != el {
            for attr_el in el.elements(ns::XSD, "attribute") {
                ct.attributes.push(read_attribute(attr_el, scope)?);
            }
        }
        Ok(ct)
    })();
    scope.pop();
    result
}

fn read_group<'a>(
    el: ElementRef<'a>,
    compositor: Compositor,
    scope: &mut NsBindings<'a>,
) -> Result<Group, SchemaReadError> {
    scope.push_element(el);
    let result = (|| {
        let mut group = Group {
            compositor,
            particles: Vec::new(),
        };
        for child in el.child_elements() {
            if child.ns_uri() != Some(ns::XSD) {
                continue;
            }
            match child.local_name() {
                "element" => {
                    if let Some(raw) = child.attr("ref") {
                        let (ns_uri, local) =
                            scope.resolve_qname_value(raw).ok_or_else(|| {
                                SchemaReadError::new(format!(
                                    "cannot resolve element ref `{raw}`"
                                ))
                            })?;
                        group.particles.push(Particle::ElementRef {
                            ns_uri: ns_uri.unwrap_or_default().to_string(),
                            local: local.to_string(),
                        });
                    } else {
                        group
                            .particles
                            .push(Particle::Element(read_element_decl(child, scope)?));
                    }
                }
                "any" => {
                    let (min_occurs, max_occurs) = read_occurs(child)?;
                    let process_contents = match child.attr("processContents") {
                        Some("strict") => ProcessContents::Strict,
                        Some("skip") => ProcessContents::Skip,
                        _ => ProcessContents::Lax,
                    };
                    group.particles.push(Particle::Any {
                        process_contents,
                        min_occurs,
                        max_occurs,
                    });
                }
                "sequence" => group.particles.push(Particle::Group(Box::new(read_group(
                    child,
                    Compositor::Sequence,
                    scope,
                )?))),
                "choice" => group.particles.push(Particle::Group(Box::new(read_group(
                    child,
                    Compositor::Choice,
                    scope,
                )?))),
                "all" => group.particles.push(Particle::Group(Box::new(read_group(
                    child,
                    Compositor::All,
                    scope,
                )?))),
                "annotation" => {}
                other => {
                    return Err(SchemaReadError::new(format!(
                        "unsupported particle `xsd:{other}`"
                    )))
                }
            }
        }
        Ok(group)
    })();
    scope.pop();
    result
}

fn read_attribute<'a>(
    el: ElementRef<'a>,
    scope: &mut NsBindings<'a>,
) -> Result<AttributeDecl, SchemaReadError> {
    scope.push_element(el);
    let result = (|| {
        if let Some(raw) = el.attr("ref") {
            let (ns_uri, local) = scope.resolve_qname_value(raw).ok_or_else(|| {
                SchemaReadError::new(format!("cannot resolve attribute ref `{raw}`"))
            })?;
            return Ok(AttributeDecl::Ref {
                ns_uri: ns_uri.unwrap_or_default().to_string(),
                local: local.to_string(),
            });
        }
        let name = el
            .attr("name")
            .ok_or_else(|| SchemaReadError::new("xsd:attribute without name or ref"))?
            .to_string();
        let type_ref = match el.attr("type") {
            Some(raw) => resolve_type_ref(raw, scope)?,
            None => TypeRef::BuiltIn(BuiltIn::AnySimpleType),
        };
        Ok(AttributeDecl::Local {
            name,
            type_ref,
            required: el.attr("use") == Some("required"),
        })
    })();
    scope.pop();
    result
}

fn read_simple_type<'a>(
    el: ElementRef<'a>,
    scope: &mut NsBindings<'a>,
) -> Result<SimpleType, SchemaReadError> {
    scope.push_element(el);
    let result = (|| {
        let name = el
            .attr("name")
            .ok_or_else(|| SchemaReadError::new("top-level xsd:simpleType without name"))?
            .to_string();
        let restriction = el
            .element(ns::XSD, "restriction")
            .ok_or_else(|| SchemaReadError::new("simpleType without restriction"))?;
        let base_raw = restriction
            .attr("base")
            .ok_or_else(|| SchemaReadError::new("restriction without base"))?;
        let base = match resolve_type_ref(base_raw, scope)? {
            TypeRef::BuiltIn(b) => b,
            TypeRef::Named { local, .. } => {
                return Err(SchemaReadError::new(format!(
                    "simpleType restriction of non-built-in `{local}` is not supported"
                )))
            }
        };
        let enumeration = restriction
            .elements(ns::XSD, "enumeration")
            .filter_map(|e| e.attr("value").map(str::to_string))
            .collect();
        Ok(SimpleType {
            name,
            base,
            enumeration,
        })
    })();
    scope.pop();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ser::{write_schema, SerOptions};
    use wsinterop_xml::parse_arena;
    use wsinterop_xml::writer::{WriteOptions, XmlWriter};

    fn parse_schema(xml: &str) -> Result<Schema, SchemaReadError> {
        let doc = parse_arena(xml).expect("well-formed XML");
        schema_from_element(doc.root(), &NsBindings::new())
    }

    fn roundtrip(schema: &Schema, opts: &SerOptions) -> Schema {
        let wopts = WriteOptions::pretty();
        let mut w = XmlWriter::new(&wopts);
        write_schema(&mut w, schema, opts);
        parse_schema(&w.finish()).unwrap()
    }

    #[test]
    fn minimal_schema() {
        let s = parse_schema(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t"/>"#,
        )
        .unwrap();
        assert_eq!(s.target_ns, "urn:t");
        assert_eq!(s.element_form_default, Form::Unqualified);
    }

    #[test]
    fn rejects_non_schema_element() {
        let err = parse_schema("<foo/>").unwrap_err();
        assert!(err.message().contains("expected xsd:schema"));
    }

    #[test]
    fn reads_typed_element() {
        let s = parse_schema(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
                 <xsd:element name="n" type="xsd:dateTime" nillable="true" minOccurs="0"/>
               </xsd:schema>"#,
        )
        .unwrap();
        let e = &s.elements[0];
        assert_eq!(e.name, "n");
        assert_eq!(e.type_ref, Some(TypeRef::BuiltIn(BuiltIn::DateTime)));
        assert!(e.nillable);
        assert_eq!(e.min_occurs, 0);
    }

    #[test]
    fn reads_element_ref_into_xsd_namespace() {
        // The .NET DataSet shape: <s:element ref="s:schema"/><s:any/>
        let s = parse_schema(
            r#"<s:schema xmlns:s="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
                 <s:element name="res">
                   <s:complexType><s:sequence>
                     <s:element ref="s:schema"/>
                     <s:any/>
                   </s:sequence></s:complexType>
                 </s:element>
               </s:schema>"#,
        )
        .unwrap();
        let inline = s.elements[0].inline.as_ref().unwrap();
        assert_eq!(inline.content.particles.len(), 2);
        assert!(matches!(
            &inline.content.particles[0],
            Particle::ElementRef { ns_uri, local } if ns_uri == ns::XSD && local == "schema"
        ));
        assert!(matches!(&inline.content.particles[1], Particle::Any { .. }));
    }

    #[test]
    fn rejects_undeclared_prefix_in_type() {
        let err = parse_schema(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
                 <xsd:element name="x" type="missing:T"/>
               </xsd:schema>"#,
        )
        .unwrap_err();
        assert!(err.message().contains("missing:T"));
    }

    #[test]
    fn reads_simple_type_enumeration() {
        let s = parse_schema(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
                 <xsd:simpleType name="SocketError">
                   <xsd:restriction base="xsd:string">
                     <xsd:enumeration value="Success"/>
                     <xsd:enumeration value="SocketError"/>
                   </xsd:restriction>
                 </xsd:simpleType>
               </xsd:schema>"#,
        )
        .unwrap();
        let st = s.simple_type("SocketError").unwrap();
        assert_eq!(st.base, BuiltIn::String);
        assert_eq!(st.enumeration, ["Success", "SocketError"]);
    }

    #[test]
    fn ser_de_roundtrip() {
        let mut schema = Schema::new("urn:echo");
        let req = ComplexType::anonymous().with_particle(Particle::Element(
            ElementDecl::typed("arg0", TypeRef::BuiltIn(BuiltIn::String)).min(0),
        ));
        schema.elements.push(ElementDecl::with_inline("echo", req));
        schema
            .complex_types
            .push(ComplexType::named("Wrapper").with_particle(Particle::Element(
                ElementDecl::typed("value", TypeRef::named("urn:echo", "Wrapper")),
            )));
        schema.simple_types.push(SimpleType {
            name: "Mode".into(),
            base: BuiltIn::Int,
            enumeration: vec!["0".into(), "1".into()],
        });
        schema.imports.push(Import {
            namespace: "urn:other".into(),
            schema_location: None,
        });

        for opts in [SerOptions::default(), SerOptions::dotnet()] {
            assert_eq!(roundtrip(&schema, &opts), schema);
        }
    }

    #[test]
    fn foreign_namespace_children_are_skipped() {
        let s = parse_schema(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
                  xmlns:f="urn:foreign" targetNamespace="urn:t">
                 <f:custom/>
                 <xsd:element name="x" type="xsd:int"/>
               </xsd:schema>"#,
        )
        .unwrap();
        assert_eq!(s.elements.len(), 1);
    }

    #[test]
    fn extension_roundtrip() {
        let mut schema = Schema::new("urn:t");
        schema.complex_types.push(
            ComplexType::named("Derived")
                .extending(TypeRef::named("urn:t", "Base"))
                .with_particle(Particle::Element(ElementDecl::typed(
                    "extra",
                    TypeRef::BuiltIn(BuiltIn::Int),
                ))),
        );
        assert_eq!(roundtrip(&schema, &SerOptions::default()), schema);
    }
}
