//! The shared stub-generation core.
//!
//! Every simulated client tool builds its artifacts through this
//! module: bean classes for the schema types, a proxy class for the
//! port type, and a transport function. Tool-specific *defects* are
//! switched on through [`StubOptions`] — each option inserts a genuine
//! flaw into the emitted code model, which the simulated compilers then
//! discover on their own.

use wsinterop_artifact::{
    ArtifactBundle, ArtifactLanguage, ClassDecl, CodeUnit, Expr, Function, LintMarker, Name,
    Stmt, TypeName, VarDecl,
};
use wsinterop_wsdl::{Definitions, PartKind};
use wsinterop_xsd::{BuiltIn, ComplexType, ElementDecl, Particle, SimpleType, TypeRef};

/// Name of the shared transport function emitted into stub bundles.
pub const TRANSPORT_FN: &str = "__soap_invoke";

/// Tool-specific generation behaviours.
#[derive(Debug, Clone, Copy, Default)]
pub struct StubOptions {
    /// Mark every unit with the unchecked-operations lint (Axis1/Axis2).
    pub unchecked_lint: bool,
    /// Axis1's fault-wrapper bug: beans exposing a `message` element are
    /// emitted with a misnamed `message1` field while the getter still
    /// reads `message`.
    pub fault_wrapper_bug: bool,
    /// Axis2's exotic-temporal bug: setters for `gYearMonth` elements
    /// assign to a `local_`-prefixed name that was never declared.
    pub local_prefix_bug: bool,
    /// Axis2's wildcard/enumeration bug: the proxy method declares the
    /// `returnValue` local twice.
    pub duplicate_local_bug: bool,
    /// JScript's transport gap: when the document carries base64
    /// content, the transport function is not emitted at all.
    pub omit_transport_for_base64: bool,
    /// JScript's extension-chain handling: bases are not emitted
    /// (depth 1) or mis-linked into a cycle (depth ≥ 2).
    pub jscript_extension_bug: bool,
}

/// Generates the artifact bundle for a parsed document.
pub fn generate(
    defs: &Definitions,
    language: ArtifactLanguage,
    opts: &StubOptions,
    facts: &super::facts::DocFacts,
) -> ArtifactBundle {
    let service = service_name(defs);
    let mut unit = CodeUnit::new([service, ".", language.extension()].concat());
    if opts.unchecked_lint {
        unit.lints.push(LintMarker::UncheckedOperations);
    }

    // ---- bean classes ---------------------------------------------------
    for schema in &defs.schemas {
        for ct in &schema.complex_types {
            let Some(name) = &ct.name else { continue };
            if opts.jscript_extension_bug && is_extension_base(defs, name) {
                // JScript bug: classes only reachable as extension bases
                // are skipped (depth 1) or mis-linked below (depth ≥ 2).
                if facts.max_extension_depth < 2 {
                    continue;
                }
            }
            unit.classes.push(bean_class(name, ct, language, opts, facts));
        }
        for st in &schema.simple_types {
            unit.classes.push(enum_class(st, language));
        }
    }

    // ---- proxy class ------------------------------------------------------
    let proxy_name = [service, "Proxy"].concat();
    let mut proxy = ClassDecl::new(proxy_name.clone()).field("endpoint", string_type(language));
    for port_type in &defs.port_types {
        for op in &port_type.operations {
            proxy = proxy.method(proxy_method(defs, op, language, opts));
        }
    }
    unit.classes.push(proxy);

    // ---- transport function ------------------------------------------------
    let omit_transport = opts.omit_transport_for_base64 && facts.base64_in_bean;
    if !omit_transport {
        let string = string_type(language);
        unit.functions.push(
            Function::new(TRANSPORT_FN)
                .param("action", string)
                .param("payload", string)
                .returns(string)
                .stmt(Stmt::Return(Some(Expr::Var("payload".into())))),
        );
    }

    ArtifactBundle::new(language).unit(unit).entry(proxy_name)
}

/// The service's base name (used for files and the proxy class).
pub fn service_name(defs: &Definitions) -> &str {
    defs.services
        .first()
        .map(|s| s.name.as_str())
        .or(defs.name.as_deref())
        .unwrap_or("Service")
}

fn is_extension_base(defs: &Definitions, name: &str) -> bool {
    let referenced_as_base = defs.schemas.iter().any(|s| {
        s.complex_types.iter().any(|ct| {
            matches!(&ct.extends, Some(TypeRef::Named { local, .. }) if local == name)
        })
    });
    if !referenced_as_base {
        return false;
    }
    // ...and not itself used as a message parameter type.
    !defs.schemas.iter().any(|s| {
        s.elements.iter().any(|el| {
            element_references_type(el, name)
        })
    })
}

fn element_references_type(el: &ElementDecl, name: &str) -> bool {
    match (&el.type_ref, &el.inline) {
        (Some(TypeRef::Named { local, .. }), _) if local == name => true,
        (_, Some(inline)) => inline.content.particles.iter().any(|p| {
            matches!(p, Particle::Element(e)
                if matches!(&e.type_ref, Some(TypeRef::Named { local, .. }) if local == name))
        }),
        _ => false,
    }
}

fn bean_class(
    name: &str,
    ct: &ComplexType,
    language: ArtifactLanguage,
    opts: &StubOptions,
    facts: &super::facts::DocFacts,
) -> ClassDecl {
    let mut class = ClassDecl::new(name.to_string());

    if let Some(TypeRef::Named { local, .. }) = &ct.extends {
        // Under the JScript extension bug (depth ≥ 2) the base is later
        // wired back to this class by `fixup_jscript_cycle`, producing a
        // genuine cycle.
        class = class.extends(local.clone());
    }

    let fault_bug = opts.fault_wrapper_bug && facts.fault_wrapper_types.iter().any(|t| t == name);
    let calendar_bug =
        opts.local_prefix_bug && facts.gyearmonth_types.iter().any(|t| t == name);

    each_leaf(&ct.content, &mut |particle| {
        let Particle::Element(el) = particle else {
            // Wildcards and refs become an opaque DOM-ish member.
            let index = class.fields.len();
            class
                .fields
                .push(VarDecl::new(numbered("any", index), object_type(language)));
            return;
        };
        let field_type = element_type_name(el, language);
        if fault_bug && el.name == "message" {
            // The Axis1 defect: field emitted under the wrong name while
            // the accessor still reads the schema name.
            class.fields.push(VarDecl::new("message1", field_type.clone()));
            class.methods.push(
                Function::new("getMessage")
                    .returns(field_type)
                    .stmt(Stmt::Return(Some(Expr::SelfField("message".into())))),
            );
        } else if calendar_bug && is_gyearmonth(el) {
            // The Axis2 defect: the setter parameter lost its `local_`
            // prefix but the body still assigns to the prefixed name.
            class.fields.push(VarDecl::new(el.name.clone(), field_type.clone()));
            class.methods.push(
                Function::new(["set_", &el.name].concat())
                    .param(el.name.clone(), field_type)
                    .stmt(Stmt::Assign {
                        target: ["local_", &el.name].concat().into(),
                        value: Expr::Var(el.name.clone().into()),
                    }),
            );
        } else {
            class.fields.push(VarDecl::new(el.name.clone(), field_type));
        }
    });
    class
}

/// Visits the particles of `group` in document order, descending into
/// nested groups.
fn each_leaf<'a>(group: &'a wsinterop_xsd::Group, visit: &mut dyn FnMut(&'a Particle)) {
    for particle in &group.particles {
        if let Particle::Group(inner) = particle {
            each_leaf(inner, visit);
        } else {
            visit(particle);
        }
    }
}

/// `prefix` followed by `n` in decimal, in one exactly sized string.
fn numbered(prefix: &str, mut n: usize) -> String {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let digits = std::str::from_utf8(&digits[start..]).expect("ASCII digits");
    [prefix, digits].concat()
}

fn is_gyearmonth(el: &ElementDecl) -> bool {
    el.type_ref == Some(TypeRef::BuiltIn(BuiltIn::GYearMonth))
}

fn enum_class(st: &SimpleType, language: ArtifactLanguage) -> ClassDecl {
    let mut class = ClassDecl::new(st.name.clone());
    for value in &st.enumeration {
        class = class.field(["VALUE_", value].concat(), string_type(language));
    }
    class
}

fn proxy_method(
    defs: &Definitions,
    op: &wsinterop_wsdl::Operation,
    language: ArtifactLanguage,
    opts: &StubOptions,
) -> Function {
    let param_type = message_param_type(defs, op.input.as_ref(), language);
    let return_type = message_param_type(defs, op.output.as_ref(), language);
    let mut f = Function::new(op.name.clone())
        .param("request", param_type)
        .returns(return_type);
    if opts.duplicate_local_bug {
        // The Axis2 defect: `returnValue` declared twice.
        f = f
            .stmt(Stmt::Local(
                VarDecl::new("returnValue", string_type(language)),
                None,
            ))
            .stmt(Stmt::Local(
                VarDecl::new("returnValue", string_type(language)),
                None,
            ));
    }
    f = f.stmt(Stmt::Expr(Expr::Call {
        function: TRANSPORT_FN.into(),
        args: vec![
            Expr::Literal(["\"", &op.name, "\""].concat().into()),
            Expr::Var("request".into()),
        ],
    }));
    f.stmt(Stmt::Return(Some(Expr::Var("request".into()))))
}

/// Resolves the stub-level type for a message reference: the wrapper
/// element's first child type (wrapped doc/literal), the part's type
/// (`type=` parts), or the language's object type as a fallback.
fn message_param_type(
    defs: &Definitions,
    message_ref: Option<&wsinterop_wsdl::NameRef>,
    language: ArtifactLanguage,
) -> Name {
    let object = || object_type(language).into();
    let Some(message_ref) = message_ref else {
        return object();
    };
    let Some(message) = defs.message(&message_ref.local) else {
        return object();
    };
    let Some(part) = message.parts.first() else {
        return object();
    };
    match &part.kind {
        PartKind::Type(type_ref) => type_ref_name(type_ref, language),
        PartKind::Element(_) => {
            let Some(wrapper) = defs.resolve_part_element(part) else {
                return object();
            };
            let Some(inline) = &wrapper.inline else {
                return object();
            };
            match inline.content.particles.first() {
                Some(Particle::Element(el)) => element_type_name(el, language),
                _ => object(),
            }
        }
    }
}

fn element_type_name(el: &ElementDecl, language: ArtifactLanguage) -> Name {
    match &el.type_ref {
        Some(type_ref) => type_ref_name(type_ref, language),
        None => object_type(language).into(),
    }
}

/// Per-language rendering of a schema type reference: a named type
/// keeps the document's name, a built-in borrows its language name.
pub fn type_ref_name(type_ref: &TypeRef, language: ArtifactLanguage) -> Name {
    match type_ref {
        TypeRef::Named { local, .. } => local.clone().into(),
        TypeRef::BuiltIn(b) => builtin_name(*b, language).into(),
    }
}

/// Per-language mapping of XSD built-ins to source-level type names.
pub fn builtin_name(b: BuiltIn, language: ArtifactLanguage) -> &'static str {
    use ArtifactLanguage as L;
    match language {
        L::Java => match b {
            BuiltIn::String | BuiltIn::AnyUri | BuiltIn::QName => "String",
            BuiltIn::Int | BuiltIn::UnsignedShort => "int",
            BuiltIn::Long | BuiltIn::UnsignedInt | BuiltIn::Integer => "long",
            BuiltIn::Short | BuiltIn::Byte | BuiltIn::UnsignedByte => "short",
            BuiltIn::Boolean => "boolean",
            BuiltIn::Float => "float",
            BuiltIn::Double | BuiltIn::Decimal => "double",
            BuiltIn::DateTime | BuiltIn::Date | BuiltIn::Time => "java.util.Calendar",
            BuiltIn::GYearMonth | BuiltIn::GYear | BuiltIn::Duration => {
                "javax.xml.datatype.XMLGregorianCalendar"
            }
            BuiltIn::Base64Binary | BuiltIn::HexBinary => "byte[]",
            _ => "Object",
        },
        L::CSharp | L::JScript => match b {
            BuiltIn::String | BuiltIn::AnyUri | BuiltIn::QName => "string",
            BuiltIn::Int | BuiltIn::UnsignedShort => "int",
            BuiltIn::Long | BuiltIn::UnsignedInt | BuiltIn::Integer => "long",
            BuiltIn::Short | BuiltIn::Byte | BuiltIn::UnsignedByte => "short",
            BuiltIn::Boolean => "bool",
            BuiltIn::Float => "float",
            BuiltIn::Double => "double",
            BuiltIn::Decimal => "decimal",
            BuiltIn::DateTime | BuiltIn::Date | BuiltIn::Time => "System.DateTime",
            BuiltIn::GYearMonth | BuiltIn::GYear | BuiltIn::Duration => "string",
            BuiltIn::Base64Binary | BuiltIn::HexBinary => "byte[]",
            _ => "object",
        },
        L::VisualBasic => match b {
            BuiltIn::String | BuiltIn::AnyUri | BuiltIn::QName => "String",
            BuiltIn::Int | BuiltIn::UnsignedShort => "Integer",
            BuiltIn::Long | BuiltIn::UnsignedInt | BuiltIn::Integer => "Long",
            BuiltIn::Short | BuiltIn::Byte | BuiltIn::UnsignedByte => "Integer",
            BuiltIn::Boolean => "Boolean",
            BuiltIn::Float | BuiltIn::Double | BuiltIn::Decimal => "Double",
            BuiltIn::DateTime | BuiltIn::Date | BuiltIn::Time => "Date",
            BuiltIn::GYearMonth | BuiltIn::GYear | BuiltIn::Duration => "String",
            BuiltIn::Base64Binary | BuiltIn::HexBinary => "byte[]",
            _ => "Object",
        },
        L::Cpp => match b {
            BuiltIn::String | BuiltIn::AnyUri | BuiltIn::QName => "std::string",
            BuiltIn::Int | BuiltIn::UnsignedShort => "int",
            BuiltIn::Long | BuiltIn::UnsignedInt | BuiltIn::Integer => "long",
            BuiltIn::Short | BuiltIn::Byte | BuiltIn::UnsignedByte => "short",
            BuiltIn::Boolean => "bool",
            BuiltIn::Float => "float",
            BuiltIn::Double | BuiltIn::Decimal => "double",
            BuiltIn::DateTime | BuiltIn::Date | BuiltIn::Time => "time_t",
            BuiltIn::GYearMonth | BuiltIn::GYear | BuiltIn::Duration => "std::string",
            BuiltIn::Base64Binary | BuiltIn::HexBinary => "std::vector<unsigned char>",
            _ => "void*",
        },
        L::Php | L::Python => "mixed",
    }
}

fn string_type(language: ArtifactLanguage) -> &'static str {
    builtin_name(BuiltIn::String, language)
}

fn object_type(language: ArtifactLanguage) -> &'static str {
    use ArtifactLanguage as L;
    match language {
        L::Java | L::VisualBasic => "Object",
        L::CSharp | L::JScript => "object",
        L::Cpp => "void*",
        L::Php | L::Python => "mixed",
    }
}

/// Applies JScript's chain mis-linking: for extension depth ≥ 2, the
/// first emitted base class gets wired back to its derived class,
/// forming a genuine inheritance cycle.
pub fn fixup_jscript_cycle(bundle: &mut ArtifactBundle) {
    let mut pair: Option<(Name, Name)> = None;
    for class in bundle.all_classes() {
        if let Some(base) = &class.extends {
            if bundle.all_classes().any(|c| c.name == base.0) {
                pair = Some((class.name.clone(), base.0.clone()));
                break;
            }
        }
    }
    if let Some((derived, base)) = pair {
        for unit in &mut bundle.units {
            for class in &mut unit.classes {
                if class.name == base {
                    class.extends = Some(TypeName(derived.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::facts::DocFacts;
    use wsinterop_compilers::{Compiler, Javac};
    use wsinterop_wsdl::builder::doc_literal_echo;
    use wsinterop_xsd::TypeRef as XTypeRef;

    fn echo_defs() -> Definitions {
        doc_literal_echo(
            "EchoService",
            "urn:t",
            "echo",
            XTypeRef::BuiltIn(BuiltIn::Int),
        )
    }

    #[test]
    fn clean_stub_compiles_in_every_language() {
        let defs = echo_defs();
        let facts = DocFacts::analyze(&defs);
        for language in [
            ArtifactLanguage::Java,
            ArtifactLanguage::CSharp,
            ArtifactLanguage::VisualBasic,
            ArtifactLanguage::JScript,
            ArtifactLanguage::Cpp,
        ] {
            let bundle = generate(&defs, language, &StubOptions::default(), &facts);
            let compiler = wsinterop_compilers::compiler_for(language).unwrap();
            let outcome = compiler.compile(&bundle);
            assert!(outcome.success(), "{language:?}: {outcome}");
        }
    }

    #[test]
    fn proxy_has_one_method_per_operation() {
        let defs = echo_defs();
        let facts = DocFacts::analyze(&defs);
        let bundle = generate(&defs, ArtifactLanguage::Java, &StubOptions::default(), &facts);
        let proxy = bundle.entry_class().unwrap();
        assert_eq!(proxy.methods.len(), 1);
        assert_eq!(proxy.methods[0].name, "echo");
        assert_eq!(proxy.methods[0].params[0].type_name.as_str(), "int");
    }

    #[test]
    fn operation_less_document_yields_empty_proxy() {
        let mut defs = echo_defs();
        defs.port_types[0].operations.clear();
        let facts = DocFacts::analyze(&defs);
        let bundle = generate(&defs, ArtifactLanguage::Php, &StubOptions::default(), &facts);
        assert_eq!(bundle.entry_class().unwrap().methods.len(), 0);
    }

    #[test]
    fn unchecked_lint_marks_units() {
        let defs = echo_defs();
        let facts = DocFacts::analyze(&defs);
        let opts = StubOptions {
            unchecked_lint: true,
            ..StubOptions::default()
        };
        let bundle = generate(&defs, ArtifactLanguage::Java, &opts, &facts);
        let outcome = Javac.compile(&bundle);
        assert!(outcome.success());
        assert_eq!(outcome.warning_count(), 1);
    }

    #[test]
    fn numbered_names_write_the_decimal_index() {
        assert_eq!(numbered("any", 0), "any0");
        assert_eq!(numbered("any", 1_234), "any1234");
        assert_eq!(numbered("", usize::MAX), usize::MAX.to_string());
    }

    #[test]
    fn duplicate_local_bug_breaks_compilation() {
        let defs = echo_defs();
        let facts = DocFacts::analyze(&defs);
        let opts = StubOptions {
            duplicate_local_bug: true,
            ..StubOptions::default()
        };
        let bundle = generate(&defs, ArtifactLanguage::Java, &opts, &facts);
        assert!(!Javac.compile(&bundle).success());
    }
}
