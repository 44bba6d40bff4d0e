//! Property-based tests for the XSD crate: schema ser/de roundtrips
//! over generated schemas, and lexical-space laws.

use proptest::prelude::*;
use wsinterop_xml::parse_arena;
use wsinterop_xml::scope::NsBindings;
use wsinterop_xml::writer::{WriteOptions, XmlWriter};
use wsinterop_xsd::de::schema_from_element;
use wsinterop_xsd::lexical::{base64_decode, base64_encode, validate};
use wsinterop_xsd::ser::{write_schema, SerOptions};
use wsinterop_xsd::{
    BuiltIn, ComplexType, ElementDecl, MaxOccurs, Particle, Schema, SimpleType, TypeRef,
};

/// Writes `schema` as XML text and reads it back.
fn roundtrip(schema: &Schema, opts: &SerOptions) -> Schema {
    let wopts = WriteOptions::pretty();
    let mut w = XmlWriter::new(&wopts);
    write_schema(&mut w, schema, opts);
    let xml = w.finish();
    let doc = parse_arena(&xml).unwrap();
    schema_from_element(doc.root(), &NsBindings::new()).unwrap()
}

fn ncname() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9]{0,8}"
}

fn builtin() -> impl Strategy<Value = BuiltIn> {
    prop::sample::select(BuiltIn::ALL.to_vec())
}

fn arb_element_decl() -> impl Strategy<Value = ElementDecl> {
    (ncname(), builtin(), 0u32..2, any::<bool>(), any::<bool>()).prop_map(
        |(name, b, min, unbounded, nillable)| {
            let mut decl = ElementDecl::typed(name, TypeRef::BuiltIn(b)).min(min);
            if unbounded {
                decl = decl.max(MaxOccurs::Unbounded);
            }
            if nillable {
                decl = decl.nillable();
            }
            decl
        },
    )
}

fn arb_schema() -> impl Strategy<Value = Schema> {
    (
        prop::collection::btree_map(ncname(), arb_element_decl(), 0..4),
        prop::collection::btree_map(ncname(), prop::collection::vec(arb_element_decl(), 0..4), 0..3),
        prop::collection::btree_map(ncname(), prop::collection::vec("[A-Z]{1,6}", 1..4), 0..3),
    )
        .prop_map(|(elements, complex, simple)| {
            let mut schema = Schema::new("urn:prop");
            for (name, mut decl) in elements {
                decl.name = name;
                schema.elements.push(decl);
            }
            for (name, fields) in complex {
                // Avoid name collisions with simple types below.
                let mut ct = ComplexType::named(format!("C{name}"));
                for field in fields {
                    ct = ct.with_particle(Particle::Element(field));
                }
                schema.complex_types.push(ct);
            }
            for (name, constants) in simple {
                schema.simple_types.push(SimpleType {
                    name: format!("S{name}"),
                    base: BuiltIn::String,
                    enumeration: constants,
                });
            }
            schema
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated schema survives serialize → parse.
    #[test]
    fn schema_ser_de_roundtrip(schema in arb_schema(), dotnet in any::<bool>()) {
        let opts = if dotnet { SerOptions::dotnet() } else { SerOptions::default() };
        prop_assert_eq!(roundtrip(&schema, &opts), schema);
    }

    /// Element-declaration counts survive the roundtrip.
    #[test]
    fn decl_count_preserved(schema in arb_schema()) {
        let back = roundtrip(&schema, &SerOptions::default());
        prop_assert_eq!(back.element_decl_count(), schema.element_decl_count());
    }

    /// base64: encode → decode is the identity on arbitrary bytes.
    #[test]
    fn base64_roundtrip(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let encoded = base64_encode(&bytes);
        prop_assert!(validate(BuiltIn::Base64Binary, &encoded).is_ok());
        prop_assert_eq!(base64_decode(&encoded).unwrap(), bytes);
    }

    /// base64 decoding never panics on arbitrary text.
    #[test]
    fn base64_decode_total(raw in "\\PC{0,48}") {
        let _ = base64_decode(&raw);
    }

    /// Integer lexical spaces agree with Rust's parsers.
    #[test]
    fn int_lexical_matches_rust(v in any::<i64>()) {
        let text = v.to_string();
        prop_assert!(validate(BuiltIn::Long, &text).is_ok());
        prop_assert_eq!(
            validate(BuiltIn::Int, &text).is_ok(),
            i32::try_from(v).is_ok()
        );
        prop_assert_eq!(
            validate(BuiltIn::Short, &text).is_ok(),
            i16::try_from(v).is_ok()
        );
        prop_assert_eq!(
            validate(BuiltIn::UnsignedInt, &text).is_ok(),
            u32::try_from(v).is_ok()
        );
    }

    /// Doubles in canonical form always validate.
    #[test]
    fn double_lexical_total(v in any::<f64>()) {
        prop_assume!(v.is_finite());
        prop_assert!(validate(BuiltIn::Double, &v.to_string()).is_ok());
    }
}
