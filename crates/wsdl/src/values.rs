//! Typed data binding: converting between in-memory [`Value`]s and the
//! XML wire form described by a service's schema.
//!
//! This is the runtime half of what the client artifact generators
//! promise: given a WSDL, marshal a typed value into the doc/literal
//! payload and unmarshal the response. The campaign's static steps
//! never reach this layer — which is exactly why the paper's broken
//! chains matter — but the Communication/Execution extension and the
//! examples exercise it fully.

use std::fmt;

use wsinterop_xml::{Element, ElementRef};
use wsinterop_xsd::lexical;
use wsinterop_xsd::{BuiltIn, ComplexType, ElementDecl, Particle, TypeRef};

use crate::model::Definitions;

/// A typed value exchangeable through an echo service.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A simple value in some built-in's lexical form.
    Simple(BuiltIn, String),
    /// A structured bean value: ordered `(field, value)` pairs.
    Struct(Vec<(String, Value)>),
    /// An enumeration constant.
    Enum(String),
    /// An absent optional value.
    Nil,
}

impl Value {
    /// Convenience constructor for a string value.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Simple(BuiltIn::String, s.into())
    }

    /// Convenience constructor for an `xsd:int`.
    pub fn int(v: i32) -> Value {
        Value::Simple(BuiltIn::Int, v.to_string())
    }

    /// Convenience constructor for a boolean.
    pub fn boolean(v: bool) -> Value {
        Value::Simple(BuiltIn::Boolean, v.to_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Simple(_, text) => write!(f, "{text}"),
            Value::Enum(name) => write!(f, "{name}"),
            Value::Nil => write!(f, "<nil>"),
            Value::Struct(fields) => {
                write!(f, "{{")?;
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// An error produced while binding values to or from XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError(String);

impl BindError {
    fn new(message: impl Into<String>) -> BindError {
        BindError(message.into())
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "data binding error: {}", self.0)
    }
}

impl std::error::Error for BindError {}

fn find_complex<'a>(defs: &'a Definitions, ns_uri: &str, local: &str) -> Option<&'a ComplexType> {
    defs.schemas
        .iter()
        .filter(|s| s.target_ns == ns_uri)
        .find_map(|s| s.complex_type(local))
}

fn find_simple<'a>(
    defs: &'a Definitions,
    ns_uri: &str,
    local: &str,
) -> Option<&'a wsinterop_xsd::SimpleType> {
    defs.schemas
        .iter()
        .filter(|s| s.target_ns == ns_uri)
        .find_map(|s| s.simple_type(local))
}

/// Marshals a value as an element named `name`, validating against the
/// declared type.
///
/// # Errors
///
/// Fails when the value does not conform to the type: wrong lexical
/// form, unknown enum constant, missing required bean field, or a type
/// the document does not define.
pub fn marshal(
    defs: &Definitions,
    type_ref: &TypeRef,
    name: &str,
    value: &Value,
) -> Result<Element, BindError> {
    match (type_ref, value) {
        (_, Value::Nil) => Ok(Element::new(name).with_attr("xsi:nil", "true")),
        (TypeRef::BuiltIn(b), Value::Simple(vb, text)) => {
            if b != vb {
                return Err(BindError::new(format!(
                    "expected {b}, got a {vb} value"
                )));
            }
            lexical::validate(*b, text).map_err(|e| BindError::new(e.to_string()))?;
            Ok(Element::new(name).with_text(text.clone()))
        }
        (TypeRef::BuiltIn(b), other) => Err(BindError::new(format!(
            "cannot bind {other} as {b}"
        ))),
        (TypeRef::Named { ns_uri, local }, Value::Enum(constant)) => {
            let st = find_simple(defs, ns_uri, local)
                .ok_or_else(|| BindError::new(format!("undefined simple type `{local}`")))?;
            if !st.enumeration.is_empty() && !st.enumeration.contains(constant) {
                return Err(BindError::new(format!(
                    "`{constant}` is not a constant of `{local}`"
                )));
            }
            Ok(Element::new(name).with_text(constant.clone()))
        }
        (TypeRef::Named { ns_uri, local }, Value::Struct(fields)) => {
            let ct = find_complex(defs, ns_uri, local)
                .ok_or_else(|| BindError::new(format!("undefined complex type `{local}`")))?;
            let mut out = Element::new(name);
            for particle in flatten_elements(ct) {
                let supplied = fields.iter().find(|(n, _)| n == &particle.name);
                match supplied {
                    Some((_, field_value)) => {
                        let field_type = particle
                            .type_ref
                            .clone()
                            .unwrap_or(TypeRef::BuiltIn(BuiltIn::AnyType));
                        out.push_element(marshal(defs, &field_type, &particle.name, field_value)?);
                    }
                    None if particle.min_occurs == 0 => {}
                    None => {
                        return Err(BindError::new(format!(
                            "missing required field `{}` of `{local}`",
                            particle.name
                        )))
                    }
                }
            }
            Ok(out)
        }
        (TypeRef::Named { local, .. }, other) => Err(BindError::new(format!(
            "cannot bind {other} as complex type `{local}`"
        ))),
    }
}

/// Unmarshals a parsed element back into a typed value.
///
/// # Errors
///
/// Fails when the XML does not conform to the declared type.
pub fn unmarshal(
    defs: &Definitions,
    type_ref: &TypeRef,
    element: ElementRef<'_>,
) -> Result<Value, BindError> {
    if element.attr("xsi:nil") == Some("true") {
        return Ok(Value::Nil);
    }
    match type_ref {
        TypeRef::BuiltIn(b) => {
            let text = element.text_content();
            lexical::validate(*b, &text).map_err(|e| BindError::new(e.to_string()))?;
            Ok(Value::Simple(*b, text))
        }
        TypeRef::Named { ns_uri, local } => {
            if let Some(st) = find_simple(defs, ns_uri, local) {
                let text = element.text_content();
                if !st.enumeration.is_empty() && !st.enumeration.contains(&text) {
                    return Err(BindError::new(format!(
                        "`{text}` is not a constant of `{local}`"
                    )));
                }
                return Ok(Value::Enum(text));
            }
            let ct = find_complex(defs, ns_uri, local)
                .ok_or_else(|| BindError::new(format!("undefined type `{local}`")))?;
            let mut fields = Vec::new();
            for particle in flatten_elements(ct) {
                let child = element
                    .child_elements()
                    .find(|el| el.local_name() == particle.name);
                match child {
                    Some(el) => {
                        let field_type = particle
                            .type_ref
                            .clone()
                            .unwrap_or(TypeRef::BuiltIn(BuiltIn::AnyType));
                        fields.push((
                            particle.name.clone(),
                            unmarshal(defs, &field_type, el)?,
                        ));
                    }
                    None if particle.min_occurs == 0 => {}
                    None => {
                        return Err(BindError::new(format!(
                            "missing required element `{}`",
                            particle.name
                        )))
                    }
                }
            }
            Ok(Value::Struct(fields))
        }
    }
}

/// Builds a canonical sample value for a declared type (used by the
/// typed-exchange simulator).
pub fn sample_value(defs: &Definitions, type_ref: &TypeRef) -> Result<Value, BindError> {
    match type_ref {
        TypeRef::BuiltIn(b) => Ok(Value::Simple(*b, lexical::sample(*b).to_string())),
        TypeRef::Named { ns_uri, local } => {
            if let Some(st) = find_simple(defs, ns_uri, local) {
                let constant = st
                    .enumeration
                    .first()
                    .cloned()
                    .unwrap_or_else(|| lexical::sample(st.base).to_string());
                return Ok(Value::Enum(constant));
            }
            let ct = find_complex(defs, ns_uri, local)
                .ok_or_else(|| BindError::new(format!("undefined type `{local}`")))?;
            let mut fields = Vec::new();
            for particle in flatten_elements(ct) {
                let field_type = particle
                    .type_ref
                    .clone()
                    .unwrap_or(TypeRef::BuiltIn(BuiltIn::String));
                // Self-referential bean graphs terminate at optionals.
                if let TypeRef::Named { local: inner, .. } = &field_type {
                    if inner == local {
                        continue;
                    }
                }
                fields.push((particle.name.clone(), sample_value(defs, &field_type)?));
            }
            Ok(Value::Struct(fields))
        }
    }
}

fn flatten_elements(ct: &ComplexType) -> Vec<&ElementDecl> {
    fn walk<'a>(group: &'a wsinterop_xsd::Group, out: &mut Vec<&'a ElementDecl>) {
        for particle in &group.particles {
            match particle {
                Particle::Element(el) => out.push(el),
                Particle::Group(inner) => walk(inner, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&ct.content, &mut out);
    out
}

/// Resolves the echo parameter type of a document's first operation.
pub fn echo_parameter_type(defs: &Definitions) -> Option<TypeRef> {
    let op = defs
        .port_types
        .iter()
        .flat_map(|pt| pt.operations.iter())
        .next()?;
    let input = op.input.as_ref()?;
    let message = defs.message(&input.local)?;
    let part = message.parts.first()?;
    match &part.kind {
        crate::model::PartKind::Type(t) => Some(t.clone()),
        crate::model::PartKind::Element(_) => {
            let wrapper = defs.resolve_part_element(part)?;
            let inline = wrapper.inline.as_ref()?;
            match inline.content.particles.first()? {
                Particle::Element(el) => el.type_ref.clone(),
                _ => None,
            }
        }
    }
}

/// Builds a doc/literal request envelope carrying a **typed** value
/// (the marshalled form of `value` under the operation's parameter
/// element).
///
/// # Errors
///
/// Fails when the operation cannot be resolved or the value does not
/// conform to the declared parameter type.
pub fn typed_request(
    defs: &Definitions,
    op_name: &str,
    value: &Value,
) -> Result<wsinterop_xml::Document, BindError> {
    let op = defs
        .find_operation(op_name)
        .ok_or_else(|| BindError::new(format!("no operation `{op_name}`")))?;
    let input = op
        .input
        .as_ref()
        .ok_or_else(|| BindError::new(format!("operation `{op_name}` has no input")))?;
    let message = defs
        .message(&input.local)
        .ok_or_else(|| BindError::new(format!("missing message `{}`", input.local)))?;
    let part = message
        .parts
        .first()
        .ok_or_else(|| BindError::new("message has no parts"))?;
    let crate::model::PartKind::Element(wrapper_ref) = &part.kind else {
        return Err(BindError::new("typed requests need element parts"));
    };
    let wrapper_decl = defs
        .resolve_part_element(part)
        .ok_or_else(|| BindError::new(format!("unresolved wrapper `{}`", wrapper_ref.local)))?;
    let inline = wrapper_decl
        .inline
        .as_ref()
        .ok_or_else(|| BindError::new("wrapper has no inline content"))?;
    let Some(Particle::Element(param)) = inline.content.particles.first() else {
        return Err(BindError::new("wrapper declares no parameter element"));
    };
    let param_type = param
        .type_ref
        .clone()
        .unwrap_or(TypeRef::BuiltIn(BuiltIn::AnyType));

    let mut wrapper = Element::new(&wrapper_decl.name);
    wrapper.declare_ns(None, &wrapper_ref.ns_uri);
    wrapper.push_element(marshal(defs, &param_type, &param.name, value)?);
    Ok(crate::soap::envelope(wrapper))
}

/// Extracts and unmarshals the typed payload from an envelope built by
/// [`typed_request`] (or its echo response).
///
/// # Errors
///
/// Fails when the envelope is malformed or the payload violates the
/// declared parameter type.
pub fn typed_payload_value(defs: &Definitions, envelope_xml: &str) -> Result<Value, BindError> {
    let soap_error = |e: crate::soap::SoapError| BindError::new(e.to_string());
    let doc = crate::soap::parse_envelope(envelope_xml).map_err(soap_error)?;
    let wrapper = crate::soap::body_payload(&doc).map_err(soap_error)?;
    let param_type = echo_parameter_type(defs)
        .ok_or_else(|| BindError::new("document declares no echo parameter"))?;
    let param_el = wrapper
        .child_elements()
        .next()
        .ok_or_else(|| BindError::new("payload wrapper is empty"))?;
    unmarshal(defs, &param_type, param_el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocLiteralBuilder;
    use wsinterop_xml::name::ns;
    use wsinterop_xml::{parse_arena, write_element, WriteOptions};
    use wsinterop_xsd::{ComplexType, ElementDecl, Particle, SimpleType};

    /// Writes `el` under a parent declaring `xsi`, parses it back and
    /// unmarshals the parsed copy.
    fn reread(defs: &Definitions, type_ref: &TypeRef, el: &Element) -> Result<Value, BindError> {
        let parent = Element::new("w").with_ns_decl(Some("xsi"), ns::XSI).with_child(el.clone());
        let xml = write_element(&parent, &WriteOptions::compact());
        let doc = parse_arena(&xml).unwrap();
        unmarshal(defs, type_ref, doc.root().child_elements().next().unwrap())
    }

    fn bean_defs() -> Definitions {
        let bean = ComplexType::named("Order")
            .with_particle(Particle::Element(ElementDecl::typed(
                "id",
                TypeRef::BuiltIn(BuiltIn::Long),
            )))
            .with_particle(Particle::Element(
                ElementDecl::typed("note", TypeRef::BuiltIn(BuiltIn::String)).min(0),
            ))
            .with_particle(Particle::Element(ElementDecl::typed(
                "paid",
                TypeRef::BuiltIn(BuiltIn::Boolean),
            )));
        DocLiteralBuilder::new("OrderService", "urn:orders")
            .operation_with_types(
                "echo",
                TypeRef::named("urn:orders", "Order"),
                TypeRef::named("urn:orders", "Order"),
                vec![bean],
            )
            .build()
    }

    fn order_type() -> TypeRef {
        TypeRef::named("urn:orders", "Order")
    }

    #[test]
    fn struct_marshal_unmarshal_roundtrip() {
        let defs = bean_defs();
        let value = Value::Struct(vec![
            ("id".into(), Value::Simple(BuiltIn::Long, "9001".into())),
            ("note".into(), Value::text("rush order")),
            ("paid".into(), Value::boolean(true)),
        ]);
        let el = marshal(&defs, &order_type(), "order", &value).unwrap();
        let back = reread(&defs, &order_type(), &el).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn optional_fields_may_be_absent() {
        let defs = bean_defs();
        let value = Value::Struct(vec![
            ("id".into(), Value::Simple(BuiltIn::Long, "1".into())),
            ("paid".into(), Value::boolean(false)),
        ]);
        let el = marshal(&defs, &order_type(), "order", &value).unwrap();
        assert_eq!(el.children().len(), 2);
        assert_eq!(reread(&defs, &order_type(), &el).unwrap(), value);
    }

    #[test]
    fn missing_required_field_is_an_error() {
        let defs = bean_defs();
        let value = Value::Struct(vec![("paid".into(), Value::boolean(false))]);
        let err = marshal(&defs, &order_type(), "order", &value).unwrap_err();
        assert!(err.message().contains("id"), "{err}");
    }

    #[test]
    fn lexical_violations_are_rejected_both_ways() {
        let defs = bean_defs();
        let bad = Value::Struct(vec![
            ("id".into(), Value::Simple(BuiltIn::Long, "not-a-long".into())),
            ("paid".into(), Value::boolean(true)),
        ]);
        assert!(marshal(&defs, &order_type(), "order", &bad).is_err());

        let mut el = Element::new("order");
        el.push_element(Element::new("id").with_text("NaN-ish"));
        el.push_element(Element::new("paid").with_text("true"));
        assert!(reread(&defs, &order_type(), &el).is_err());
    }

    #[test]
    fn enum_binding_validates_constants() {
        let mut defs = bean_defs();
        defs.schemas[0].simple_types.push(SimpleType {
            name: "Status".into(),
            base: BuiltIn::String,
            enumeration: vec!["OPEN".into(), "CLOSED".into()],
        });
        let status = TypeRef::named("urn:orders", "Status");
        let ok = marshal(&defs, &status, "status", &Value::Enum("OPEN".into())).unwrap();
        assert_eq!(reread(&defs, &status, &ok).unwrap(), Value::Enum("OPEN".into()));
        assert!(marshal(&defs, &status, "status", &Value::Enum("BROKEN".into())).is_err());
    }

    #[test]
    fn nil_roundtrip() {
        let defs = bean_defs();
        let el = marshal(&defs, &order_type(), "order", &Value::Nil).unwrap();
        assert_eq!(reread(&defs, &order_type(), &el).unwrap(), Value::Nil);
    }

    #[test]
    fn sample_values_always_marshal() {
        let defs = bean_defs();
        let ty = echo_parameter_type(&defs).unwrap();
        assert_eq!(ty, order_type());
        let sample = sample_value(&defs, &ty).unwrap();
        let el = marshal(&defs, &ty, "order", &sample).unwrap();
        assert_eq!(reread(&defs, &ty, &el).unwrap(), sample);
    }

    #[test]
    fn builtin_mismatch_is_an_error() {
        let defs = bean_defs();
        let err = marshal(
            &defs,
            &TypeRef::BuiltIn(BuiltIn::Int),
            "x",
            &Value::Simple(BuiltIn::String, "7".into()),
        )
        .unwrap_err();
        assert!(err.message().contains("expected"), "{err}");
    }

    #[test]
    fn typed_request_roundtrip() {
        let defs = bean_defs();
        let value = Value::Struct(vec![
            ("id".into(), Value::Simple(BuiltIn::Long, "5".into())),
            ("paid".into(), Value::boolean(true)),
        ]);
        let doc = typed_request(&defs, "echo", &value).unwrap();
        let xml = wsinterop_xml::writer::write_document(
            &doc,
            &wsinterop_xml::WriteOptions::compact(),
        );
        let back = typed_payload_value(&defs, &xml).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn typed_request_rejects_invalid_values() {
        let defs = bean_defs();
        let bad = Value::Struct(vec![("paid".into(), Value::boolean(true))]);
        assert!(typed_request(&defs, "echo", &bad).is_err());
        assert!(typed_request(&defs, "ghost", &Value::Nil).is_err());
    }

    #[test]
    fn display_formats_nested_values() {
        let value = Value::Struct(vec![
            ("id".into(), Value::int(1)),
            ("inner".into(), Value::Struct(vec![("x".into(), Value::Nil)])),
        ]);
        assert_eq!(value.to_string(), "{id: 1, inner: {x: <nil>}}");
    }
}
