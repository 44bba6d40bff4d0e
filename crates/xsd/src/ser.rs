//! Serialization of the schema object model, streamed through an
//! [`XmlWriter`].

use wsinterop_xml::name::ns;
use wsinterop_xml::XmlWriter;

use crate::model::{
    AttributeDecl, ComplexType, ElementDecl, Group, MaxOccurs, Particle, Schema, SimpleType,
    TypeRef,
};

/// Prefix assignments used while serializing a schema.
///
/// The XSD namespace and the schema's target namespace always have a
/// prefix; additional namespaces can be registered for cross-namespace
/// type references.
#[derive(Debug, Clone)]
pub struct SerOptions {
    /// Prefix bound to the XSD namespace (JAX-WS emits `xs`/`xsd`,
    /// `.NET` emits `s` — the difference is visible in the paper's
    /// error messages, so it is configurable).
    pub xsd_prefix: String,
    /// Prefix bound to the target namespace.
    pub tns_prefix: String,
    /// Extra `(namespace-uri, prefix)` pairs.
    pub extra: Vec<(String, String)>,
    /// Emit `xmlns` declarations on the `schema` element itself
    /// (standalone document form). When embedded in a WSDL the
    /// declarations usually live on `wsdl:definitions` instead.
    pub declare_namespaces: bool,
}

impl Default for SerOptions {
    fn default() -> Self {
        SerOptions {
            xsd_prefix: "xsd".to_string(),
            tns_prefix: "tns".to_string(),
            extra: Vec::new(),
            declare_namespaces: true,
        }
    }
}

impl SerOptions {
    /// The `.NET`-style prefix assignment (`s:` for XSD).
    pub fn dotnet() -> SerOptions {
        SerOptions {
            xsd_prefix: "s".to_string(),
            ..SerOptions::default()
        }
    }

    fn prefix_for(&self, uri: &str, target_ns: &str) -> Option<&str> {
        if uri == ns::XSD {
            Some(&self.xsd_prefix)
        } else if uri == target_ns {
            Some(&self.tns_prefix)
        } else {
            self.extra
                .iter()
                .find(|(u, _)| u == uri)
                .map(|(_, p)| p.as_str())
        }
    }

    /// Writes the attribute `name` as a reference to `{uri}local`.
    fn qname_attr(
        &self,
        w: &mut XmlWriter<'_>,
        name: &str,
        uri: &str,
        local: &str,
        target_ns: &str,
    ) {
        // Unknown namespace: emit the raw local name; consumers will
        // fail to resolve it, which is precisely the failure mode some
        // real generators exhibit.
        w.attr_qname(name, self.prefix_for(uri, target_ns), local);
    }

    fn type_attr(&self, w: &mut XmlWriter<'_>, name: &str, r: &TypeRef, target_ns: &str) {
        match r {
            TypeRef::BuiltIn(b) => {
                w.attr_qname(name, Some(&self.xsd_prefix), b.xsd_name());
            }
            TypeRef::Named { ns_uri, local } => self.qname_attr(w, name, ns_uri, local, target_ns),
        }
    }
}

/// Writes a [`Schema`] as an `xsd:schema` element.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::writer::{WriteOptions, XmlWriter};
/// use wsinterop_xsd::{Schema, ElementDecl, TypeRef, BuiltIn, ser::{write_schema, SerOptions}};
/// let mut schema = Schema::new("urn:example");
/// schema.elements.push(ElementDecl::typed("echo", TypeRef::BuiltIn(BuiltIn::String)));
/// let opts = WriteOptions::compact();
/// let mut w = XmlWriter::new(&opts);
/// write_schema(&mut w, &schema, &SerOptions::default());
/// let xml = w.finish();
/// assert!(xml.starts_with(r#"<xsd:schema targetNamespace="urn:example""#));
/// assert!(xml.ends_with(r#"<xsd:element name="echo" type="xsd:string"/></xsd:schema>"#));
/// ```
pub fn write_schema(w: &mut XmlWriter<'_>, schema: &Schema, opts: &SerOptions) {
    let xp = opts.xsd_prefix.as_str();
    w.open_prefixed(xp, "schema")
        .attr("targetNamespace", &schema.target_ns)
        .attr("elementFormDefault", schema.element_form_default.as_str());
    if opts.declare_namespaces {
        let decls = [
            (xp, ns::XSD),
            (opts.tns_prefix.as_str(), schema.target_ns.as_str()),
        ];
        let extra = opts.extra.iter().map(|(uri, p)| (p.as_str(), uri.as_str()));
        w.attrs_replacing(
            decls
                .into_iter()
                .chain(extra)
                .map(|(p, uri)| (Some("xmlns"), p, uri)),
        );
    }
    for import in &schema.imports {
        w.open_prefixed(xp, "import")
            .attr("namespace", &import.namespace);
        if let Some(loc) = &import.schema_location {
            w.attr("schemaLocation", loc);
        }
        w.close();
    }
    for el in &schema.elements {
        write_element_decl(w, el, schema, opts);
    }
    for ct in &schema.complex_types {
        write_complex_type(w, ct, schema, opts);
    }
    for st in &schema.simple_types {
        write_simple_type(w, st, opts);
    }
    w.close();
}

fn write_occurs(w: &mut XmlWriter<'_>, min_occurs: u32, max_occurs: MaxOccurs) {
    if min_occurs != 1 {
        w.attr_u32("minOccurs", min_occurs);
    }
    match max_occurs {
        MaxOccurs::Bounded(1) => {}
        MaxOccurs::Bounded(n) => {
            w.attr_u32("maxOccurs", n);
        }
        MaxOccurs::Unbounded => {
            w.attr("maxOccurs", "unbounded");
        }
    }
}

fn write_element_decl(
    w: &mut XmlWriter<'_>,
    decl: &ElementDecl,
    schema: &Schema,
    opts: &SerOptions,
) {
    w.open_prefixed(&opts.xsd_prefix, "element")
        .attr("name", &decl.name);
    write_occurs(w, decl.min_occurs, decl.max_occurs);
    if decl.nillable {
        w.attr("nillable", "true");
    }
    if let Some(r) = &decl.type_ref {
        opts.type_attr(w, "type", r, &schema.target_ns);
    }
    if let Some(inline) = &decl.inline {
        write_complex_type(w, inline, schema, opts);
    }
    w.close();
}

fn write_complex_type(w: &mut XmlWriter<'_>, ct: &ComplexType, schema: &Schema, opts: &SerOptions) {
    let xp = opts.xsd_prefix.as_str();
    w.open_prefixed(xp, "complexType");
    if let Some(name) = &ct.name {
        w.attr("name", name);
    }
    if ct.is_abstract {
        w.attr("abstract", "true");
    }
    if let Some(base) = &ct.extends {
        w.open_prefixed(xp, "complexContent");
        w.open_prefixed(xp, "extension");
        opts.type_attr(w, "base", base, &schema.target_ns);
        write_group(w, &ct.content, schema, opts);
        w.close().close();
    } else {
        write_group(w, &ct.content, schema, opts);
    }
    for attr in &ct.attributes {
        write_attribute(w, attr, schema, opts);
    }
    w.close();
}

fn write_group(w: &mut XmlWriter<'_>, group: &Group, schema: &Schema, opts: &SerOptions) {
    let xp = opts.xsd_prefix.as_str();
    w.open_prefixed(xp, group.compositor.xsd_name());
    for particle in &group.particles {
        match particle {
            Particle::Element(decl) => write_element_decl(w, decl, schema, opts),
            Particle::ElementRef { ns_uri, local } => {
                w.open_prefixed(xp, "element");
                opts.qname_attr(w, "ref", ns_uri, local, &schema.target_ns);
                w.close();
            }
            Particle::Any {
                process_contents,
                min_occurs,
                max_occurs,
            } => {
                w.open_prefixed(xp, "any")
                    .attr("processContents", process_contents.as_str());
                write_occurs(w, *min_occurs, *max_occurs);
                w.close();
            }
            Particle::Group(inner) => write_group(w, inner, schema, opts),
        }
    }
    w.close();
}

fn write_attribute(
    w: &mut XmlWriter<'_>,
    attr: &AttributeDecl,
    schema: &Schema,
    opts: &SerOptions,
) {
    w.open_prefixed(&opts.xsd_prefix, "attribute");
    match attr {
        AttributeDecl::Local {
            name,
            type_ref,
            required,
        } => {
            w.attr("name", name);
            opts.type_attr(w, "type", type_ref, &schema.target_ns);
            if *required {
                w.attr("use", "required");
            }
        }
        AttributeDecl::Ref { ns_uri, local } => {
            opts.qname_attr(w, "ref", ns_uri, local, &schema.target_ns);
        }
    }
    w.close();
}

fn write_simple_type(w: &mut XmlWriter<'_>, st: &SimpleType, opts: &SerOptions) {
    let xp = opts.xsd_prefix.as_str();
    w.open_prefixed(xp, "simpleType").attr("name", &st.name);
    w.open_prefixed(xp, "restriction")
        .attr_qname("base", Some(xp), st.base.xsd_name());
    for value in &st.enumeration {
        w.open_prefixed(xp, "enumeration")
            .attr("value", value)
            .close();
    }
    w.close().close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::BuiltIn;
    use crate::model::{AttributeDecl, Import, ProcessContents};
    use wsinterop_xml::writer::WriteOptions;
    use wsinterop_xml::{parse_arena, Arena};

    fn compact(schema: &Schema, opts: &SerOptions) -> String {
        let wopts = WriteOptions::compact();
        let mut w = XmlWriter::new(&wopts);
        write_schema(&mut w, schema, opts);
        w.finish()
    }

    fn parsed(xml: &str) -> Arena<'_> {
        parse_arena(xml).expect("serialized schemas are well-formed")
    }

    fn echo_schema() -> Schema {
        let mut s = Schema::new("urn:echo");
        let req = ComplexType::anonymous().with_particle(Particle::Element(
            ElementDecl::typed("arg0", TypeRef::BuiltIn(BuiltIn::String)).min(0),
        ));
        s.elements.push(ElementDecl::with_inline("echo", req));
        s
    }

    #[test]
    fn schema_root_shape() {
        let xml = compact(&echo_schema(), &SerOptions::default());
        let doc = parsed(&xml);
        let el = doc.root();
        assert!(el.is_named(ns::XSD, "schema"));
        assert_eq!(el.attr("targetNamespace"), Some("urn:echo"));
        assert_eq!(el.attr("elementFormDefault"), Some("qualified"));
        assert_eq!(el.attr("xmlns:xsd"), Some(ns::XSD));
    }

    #[test]
    fn dotnet_prefix_is_s() {
        let xml = compact(&echo_schema(), &SerOptions::dotnet());
        let doc = parsed(&xml);
        let el = doc.root();
        assert_eq!(el.prefix(), Some("s"));
        assert_eq!(el.attr("xmlns:s"), Some(ns::XSD));
    }

    #[test]
    fn inline_complex_type_nests() {
        let xml = compact(&echo_schema(), &SerOptions::default());
        let doc = parsed(&xml);
        let decl = doc.root().element(ns::XSD, "element").unwrap();
        assert_eq!(decl.attr("name"), Some("echo"));
        let ct = decl.element(ns::XSD, "complexType").unwrap();
        let seq = ct.element(ns::XSD, "sequence").unwrap();
        let arg = seq.element(ns::XSD, "element").unwrap();
        assert_eq!(arg.attr("type"), Some("xsd:string"));
        assert_eq!(arg.attr("minOccurs"), Some("0"));
    }

    #[test]
    fn element_ref_serializes_with_known_prefix() {
        let mut s = Schema::new("urn:x");
        s.complex_types.push(ComplexType::named("T").with_particle(
            Particle::ElementRef {
                ns_uri: ns::XSD.to_string(),
                local: "schema".to_string(),
            },
        ));
        let xml = compact(&s, &SerOptions::dotnet());
        assert!(xml.contains(r#"ref="s:schema""#), "{xml}");
    }

    #[test]
    fn any_and_occurs_attributes() {
        let mut s = Schema::new("urn:x");
        s.complex_types.push(ComplexType::named("T").with_particle(Particle::Any {
            process_contents: ProcessContents::Lax,
            min_occurs: 0,
            max_occurs: MaxOccurs::Unbounded,
        }));
        let xml = compact(&s, &SerOptions::default());
        assert!(xml.contains(r#"<xsd:any processContents="lax" minOccurs="0" maxOccurs="unbounded"/>"#), "{xml}");
    }

    #[test]
    fn attribute_ref_serializes() {
        let mut s = Schema::new("urn:x");
        s.complex_types.push(
            ComplexType::named("T").with_attribute(AttributeDecl::Ref {
                ns_uri: ns::XSD.to_string(),
                local: "lang".to_string(),
            }),
        );
        let xml = compact(&s, &SerOptions::dotnet());
        assert!(xml.contains(r#"<s:attribute ref="s:lang"/>"#), "{xml}");
    }

    #[test]
    fn simple_type_enumeration() {
        let mut s = Schema::new("urn:x");
        s.simple_types.push(SimpleType {
            name: "Color".into(),
            base: BuiltIn::String,
            enumeration: vec!["Red".into(), "Green".into()],
        });
        let xml = compact(&s, &SerOptions::default());
        assert!(xml.contains(r#"<xsd:enumeration value="Red"/>"#));
        assert!(xml.contains(r#"base="xsd:string""#));
    }

    #[test]
    fn extension_wraps_in_complex_content() {
        let mut s = Schema::new("urn:x");
        s.complex_types.push(
            ComplexType::named("Derived").extending(TypeRef::named("urn:x", "Base")),
        );
        let xml = compact(&s, &SerOptions::default());
        assert!(xml.contains("complexContent"), "{xml}");
        assert!(xml.contains(r#"base="tns:Base""#), "{xml}");
    }

    #[test]
    fn repeated_prefixes_keep_the_first_position_and_the_last_uri() {
        let opts = SerOptions {
            extra: vec![("urn:a".into(), "a".into()), ("urn:b".into(), "tns".into())],
            ..SerOptions::default()
        };
        let xml = compact(&Schema::new("urn:x"), &opts);
        assert!(
            xml.contains(r#"xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:tns="urn:b" xmlns:a="urn:a"/>"#),
            "{xml}"
        );
    }

    #[test]
    fn import_with_location() {
        let mut s = Schema::new("urn:x");
        s.imports.push(Import {
            namespace: "urn:other".into(),
            schema_location: Some("other.xsd".into()),
        });
        let xml = compact(&s, &SerOptions::default());
        let doc = parsed(&xml);
        let import = doc.root().element(ns::XSD, "import").unwrap();
        assert_eq!(import.attr("namespace"), Some("urn:other"));
        assert_eq!(import.attr("schemaLocation"), Some("other.xsd"));
    }
}
