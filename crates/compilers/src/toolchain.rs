//! The per-language simulated compilers.

use wsinterop_artifact::{ArtifactBundle, ArtifactLanguage, LintMarker};

use crate::checks::{
    check_duplicate_fields, check_duplicate_locals, check_function_calls,
    check_inheritance_cycles, check_member_collisions, check_name_resolution,
    check_type_resolution, Dialect,
};
use crate::diag::{CompileOutcome, Diagnostic};

/// A simulated compiler for one artifact language.
pub trait Compiler: Send + Sync {
    /// Tool name as it would appear in a build log (`javac`, `csc`, …).
    fn name(&self) -> &'static str;
    /// The language this compiler accepts.
    fn language(&self) -> ArtifactLanguage;
    /// Compiles a bundle, producing diagnostics.
    fn compile(&self, bundle: &ArtifactBundle) -> CompileOutcome;
}

const JAVA_BUILTINS: &[&str] = &[
    "void", "int", "long", "short", "byte", "boolean", "char", "float", "double", "String",
    "Object", "byte[]", "int[]", "String[]",
];

const DOTNET_BUILTINS: &[&str] = &[
    "void", "int", "long", "short", "byte", "bool", "char", "float", "double", "decimal",
    "string", "object", "String", "Object", "Integer", "Long", "Boolean", "Double", "Date",
    "byte[]", "string[]",
];

const CPP_BUILTINS: &[&str] = &[
    "void", "void*", "int", "long", "short", "char", "bool", "float", "double", "char*",
    "wchar_t", "size_t", "time_t",
];

const fn base_dialect(builtin_types: &'static [&'static str], case_insensitive: bool) -> Dialect {
    Dialect {
        duplicate_field: ("dup-field", "field `{}` is already defined"),
        duplicate_local: ("dup-local", "variable `{}` is already defined in scope"),
        member_collision: ("member-collision", "`{}` collides with another member"),
        unknown_variable: ("unknown-var", "cannot find symbol: variable `{}`"),
        unknown_field: ("unknown-field", "cannot find symbol: field `{}`"),
        unknown_type: ("unknown-type", "cannot find symbol: class `{}`"),
        unknown_function: ("unknown-fn", "call to undefined function `{}`"),
        inheritance_cycle: ("cycle", "cyclic inheritance involving `{}`"),
        case_insensitive,
        builtin_types,
    }
}

static JAVAC: Dialect = Dialect {
    duplicate_local: ("javac:duplicate", "variable {} is already defined"),
    unknown_variable: ("javac:cant-resolve", "cannot find symbol: variable {}"),
    unknown_field: ("javac:cant-resolve", "cannot find symbol: variable {}"),
    ..base_dialect(JAVA_BUILTINS, false)
};

static CSC: Dialect = Dialect {
    unknown_type: ("CS0246", "the type or namespace name `{}` could not be found"),
    duplicate_local: ("CS0128", "a local variable named `{}` is already defined"),
    ..base_dialect(DOTNET_BUILTINS, false)
};

// VB reports case-folded duplicate members with the same code as
// member collisions.
static VBC: Dialect = Dialect {
    member_collision: ("BC30260", "`{}` is already declared as a member of this class"),
    duplicate_field: ("BC30260", "`{}` is already declared as a member of this class"),
    ..base_dialect(DOTNET_BUILTINS, true)
};

static JSC: Dialect = Dialect {
    unknown_function: ("JS1135", "reference to undefined transport function `{}`"),
    ..base_dialect(DOTNET_BUILTINS, false)
};

static GPP: Dialect = Dialect {
    unknown_type: ("gxx:undeclared", "`{}` was not declared in this scope"),
    ..base_dialect(CPP_BUILTINS, false)
};

/// Every pass except the inheritance-cycle one, in report order.
fn run_member_checks(bundle: &ArtifactBundle, dialect: &Dialect, out: &mut Vec<Diagnostic>) {
    check_duplicate_fields(bundle, dialect, out);
    check_duplicate_locals(bundle, dialect, out);
    check_member_collisions(bundle, dialect, out);
    check_name_resolution(bundle, dialect, out);
    check_type_resolution(bundle, dialect, out);
    check_function_calls(bundle, dialect, out);
}

fn run_common_checks(bundle: &ArtifactBundle, dialect: &Dialect) -> CompileOutcome {
    let mut outcome = CompileOutcome::clean();
    run_member_checks(bundle, dialect, &mut outcome.diagnostics);
    check_inheritance_cycles(bundle, dialect, &mut outcome.diagnostics);
    outcome
}

/// The Java compiler (used for wsimport/wsdl2java/wsconsume output).
#[derive(Debug, Default)]
pub struct Javac;

impl Compiler for Javac {
    fn name(&self) -> &'static str {
        "javac"
    }

    fn language(&self) -> ArtifactLanguage {
        ArtifactLanguage::Java
    }

    fn compile(&self, bundle: &ArtifactBundle) -> CompileOutcome {
        let mut outcome = run_common_checks(bundle, &JAVAC);
        for unit in &bundle.units {
            if unit.lints.contains(&LintMarker::UncheckedOperations) {
                outcome.diagnostics.push(Diagnostic::warning(
                    "javac:unchecked",
                    &*unit.file_name,
                    "uses unchecked or unsafe operations",
                ));
            }
        }
        outcome
    }
}

/// The C# compiler.
#[derive(Debug, Default)]
pub struct Csc;

impl Compiler for Csc {
    fn name(&self) -> &'static str {
        "csc"
    }

    fn language(&self) -> ArtifactLanguage {
        ArtifactLanguage::CSharp
    }

    fn compile(&self, bundle: &ArtifactBundle) -> CompileOutcome {
        run_common_checks(bundle, &CSC)
    }
}

/// The Visual Basic compiler — identifier comparisons are
/// case-insensitive, which is what turns the wsdl.exe member/method
/// emissions into hard errors.
#[derive(Debug, Default)]
pub struct Vbc;

impl Compiler for Vbc {
    fn name(&self) -> &'static str {
        "vbc"
    }

    fn language(&self) -> ArtifactLanguage {
        ArtifactLanguage::VisualBasic
    }

    fn compile(&self, bundle: &ArtifactBundle) -> CompileOutcome {
        run_common_checks(bundle, &VBC)
    }
}

/// The JScript .NET compiler. Inheritance cycles in generated code
/// crash the tool itself (`131 INTERNAL COMPILER CRASH`) instead of
/// producing a normal diagnostic.
#[derive(Debug, Default)]
pub struct Jsc;

impl Compiler for Jsc {
    fn name(&self) -> &'static str {
        "jsc"
    }

    fn language(&self) -> ArtifactLanguage {
        ArtifactLanguage::JScript
    }

    fn compile(&self, bundle: &ArtifactBundle) -> CompileOutcome {
        let mut outcome = CompileOutcome::clean();
        if check_inheritance_cycles(bundle, &JSC, &mut Vec::new()) {
            outcome.crashed = true;
            outcome.diagnostics.push(Diagnostic::error(
                "JS0131",
                bundle.entry_point.as_deref().unwrap_or("<bundle>"),
                "131 INTERNAL COMPILER CRASH",
            ));
            return outcome;
        }
        // The cycle pass already ran and found nothing.
        run_member_checks(bundle, &JSC, &mut outcome.diagnostics);
        outcome
    }
}

/// The gSOAP C++ toolchain's compile step (g++ over soapcpp2 output).
#[derive(Debug, Default)]
pub struct Gpp;

impl Compiler for Gpp {
    fn name(&self) -> &'static str {
        "g++"
    }

    fn language(&self) -> ArtifactLanguage {
        ArtifactLanguage::Cpp
    }

    fn compile(&self, bundle: &ArtifactBundle) -> CompileOutcome {
        run_common_checks(bundle, &GPP)
    }
}

/// Returns the compiler for a language, or `None` for dynamic
/// languages whose artifacts are never compiled (PHP, Python).
pub fn compiler_for(language: ArtifactLanguage) -> Option<&'static dyn Compiler> {
    match language {
        ArtifactLanguage::Java => Some(&Javac),
        ArtifactLanguage::CSharp => Some(&Csc),
        ArtifactLanguage::VisualBasic => Some(&Vbc),
        ArtifactLanguage::JScript => Some(&Jsc),
        ArtifactLanguage::Cpp => Some(&Gpp),
        ArtifactLanguage::Php | ArtifactLanguage::Python => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_artifact::{ClassDecl, CodeUnit, Expr, Function, Stmt};

    fn bundle_with(class: ClassDecl) -> ArtifactBundle {
        ArtifactBundle::new(ArtifactLanguage::Java).unit(CodeUnit::new("T.java").class(class))
    }

    #[test]
    fn clean_class_compiles_everywhere() {
        let class = ClassDecl::new("Proxy")
            .field("endpoint", "String")
            .method(
                Function::new("call")
                    .param("value", "int")
                    .returns("int")
                    .stmt(Stmt::Return(Some(Expr::Var("value".into())))),
            );
        for compiler in [
            compiler_for(ArtifactLanguage::Java).unwrap(),
            compiler_for(ArtifactLanguage::CSharp).unwrap(),
            compiler_for(ArtifactLanguage::VisualBasic).unwrap(),
            compiler_for(ArtifactLanguage::JScript).unwrap(),
        ] {
            let bundle = ArtifactBundle::new(compiler.language())
                .unit(CodeUnit::new("T").class(class.clone()));
            let outcome = compiler.compile(&bundle);
            assert!(outcome.success(), "{}: {}", compiler.name(), outcome);
        }
    }

    #[test]
    fn javac_reports_unknown_field() {
        // The Axis1 Throwable-wrapper defect: a getter reads a field
        // that was emitted under a different name.
        let class = ClassDecl::new("ErrorBean")
            .field("message1", "String")
            .method(
                Function::new("getMessage")
                    .returns("String")
                    .stmt(Stmt::Return(Some(Expr::SelfField("message".into())))),
            );
        let outcome = Javac.compile(&bundle_with(class));
        assert!(!outcome.success());
        assert!(outcome.errors().any(|d| d.message.contains("message")));
    }

    #[test]
    fn javac_reports_unknown_parameter() {
        // The Axis2 XMLGregorianCalendar defect: body references the
        // `local_`-prefixed name while the parameter lost its prefix.
        let class = ClassDecl::new("Stub").method(
            Function::new("setCalendar")
                .param("calendar", "XMLGregorianCalendar1")
                .stmt(Stmt::Assign {
                    target: "local_calendar".into(),
                    value: Expr::Var("calendar".into()),
                }),
        );
        let outcome = Javac.compile(&bundle_with(class));
        assert!(!outcome.success());
    }

    #[test]
    fn javac_duplicate_local_fails() {
        let class = ClassDecl::new("Stub").method(
            Function::new("m")
                .stmt(Stmt::Local(
                    wsinterop_artifact::VarDecl::new("x", "int"),
                    None,
                ))
                .stmt(Stmt::Local(
                    wsinterop_artifact::VarDecl::new("x", "int"),
                    None,
                )),
        );
        let outcome = Javac.compile(&bundle_with(class));
        assert_eq!(outcome.error_count(), 1);
    }

    #[test]
    fn javac_unchecked_lint_warns() {
        let bundle = ArtifactBundle::new(ArtifactLanguage::Java).unit(
            CodeUnit::new("Axis.java")
                .class(ClassDecl::new("Stub"))
                .lint(wsinterop_artifact::LintMarker::UncheckedOperations),
        );
        let outcome = Javac.compile(&bundle);
        assert!(outcome.success());
        assert_eq!(outcome.warning_count(), 1);
        assert!(outcome
            .warnings()
            .any(|d| d.message.contains("unchecked or unsafe")));
    }

    #[test]
    fn vbc_collides_case_insensitively_but_csc_does_not() {
        let class = ClassDecl::new("Proxy")
            .field("Value", "string")
            .method(Function::new("value").returns("string"));
        let vb_bundle = ArtifactBundle::new(ArtifactLanguage::VisualBasic)
            .unit(CodeUnit::new("P.vb").class(class.clone()));
        let cs_bundle = ArtifactBundle::new(ArtifactLanguage::CSharp)
            .unit(CodeUnit::new("P.cs").class(class));
        assert!(!Vbc.compile(&vb_bundle).success());
        assert!(Csc.compile(&cs_bundle).success());
    }

    #[test]
    fn jsc_crashes_on_inheritance_cycle() {
        let bundle = ArtifactBundle::new(ArtifactLanguage::JScript)
            .unit(
                CodeUnit::new("P.js")
                    .class(ClassDecl::new("A").extends("B"))
                    .class(ClassDecl::new("B").extends("A")),
            )
            .entry("A");
        let outcome = Jsc.compile(&bundle);
        assert!(outcome.crashed);
        assert!(outcome
            .errors()
            .any(|d| d.message.contains("131 INTERNAL COMPILER CRASH")));
    }

    #[test]
    fn javac_reports_cycle_as_ordinary_error() {
        let bundle = ArtifactBundle::new(ArtifactLanguage::Java).unit(
            CodeUnit::new("P.java")
                .class(ClassDecl::new("A").extends("B"))
                .class(ClassDecl::new("B").extends("A")),
        );
        let outcome = Javac.compile(&bundle);
        assert!(!outcome.crashed);
        assert!(!outcome.success());
    }

    #[test]
    fn jsc_reports_missing_transport_function() {
        let class = ClassDecl::new("Proxy").method(Function::new("call").stmt(Stmt::Expr(
            Expr::Call {
                function: "soapTransportInvoke".into(),
                args: vec![],
            },
        )));
        let bundle = ArtifactBundle::new(ArtifactLanguage::JScript)
            .unit(CodeUnit::new("P.js").class(class));
        let outcome = Jsc.compile(&bundle);
        assert!(!outcome.success());
        assert!(outcome.errors().any(|d| d.code == "JS1135"));
    }

    #[test]
    fn dotted_type_names_resolve_as_platform_types() {
        let class = ClassDecl::new("Proxy").field("cal", "javax.xml.datatype.XMLGregorianCalendar");
        assert!(Javac.compile(&bundle_with(class)).success());
    }

    #[test]
    fn bare_unknown_type_fails() {
        let class = ClassDecl::new("Proxy").field("x", "NoSuchLocalType");
        assert!(!Javac.compile(&bundle_with(class)).success());
    }

    #[test]
    fn dynamic_languages_have_no_compiler() {
        assert!(compiler_for(ArtifactLanguage::Php).is_none());
        assert!(compiler_for(ArtifactLanguage::Python).is_none());
    }

    #[test]
    fn duplicate_fields_error() {
        let class = ClassDecl::new("Bean").field("value", "int").field("value", "int");
        assert!(!Javac.compile(&bundle_with(class)).success());
    }

    #[test]
    fn gpp_resolves_scoped_names() {
        let class = ClassDecl::new("soap_proxy").field("name", "std::string");
        let bundle =
            ArtifactBundle::new(ArtifactLanguage::Cpp).unit(CodeUnit::new("p.cpp").class(class));
        assert!(Gpp.compile(&bundle).success());
    }
}
