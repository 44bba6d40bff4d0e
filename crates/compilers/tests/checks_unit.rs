//! Focused tests for the individual semantic passes in
//! `wsinterop_compilers::checks`, driven through the public compiler
//! fronts with minimal hand-built bundles.

use wsinterop_artifact::{
    ArtifactBundle, ArtifactLanguage, ClassDecl, CodeUnit, Expr, Function, Stmt, VarDecl,
};
use wsinterop_compilers::{Compiler, Csc, Gpp, Javac, Jsc, Vbc};

fn java_bundle(class: ClassDecl) -> ArtifactBundle {
    ArtifactBundle::new(ArtifactLanguage::Java).unit(CodeUnit::new("T.java").class(class))
}

#[test]
fn duplicate_parameters_are_duplicate_locals() {
    let class = ClassDecl::new("P").method(
        Function::new("m")
            .param("x", "int")
            .param("x", "int"),
    );
    let outcome = Javac.compile(&java_bundle(class));
    assert!(!outcome.success());
    assert!(outcome.errors().any(|d| d.message.contains("parameter list")));
}

#[test]
fn locals_shadowing_parameters_collide() {
    let class = ClassDecl::new("P").method(
        Function::new("m")
            .param("x", "int")
            .stmt(Stmt::Local(VarDecl::new("x", "int"), None)),
    );
    assert!(!Javac.compile(&java_bundle(class)).success());
}

#[test]
fn locals_extend_scope_for_later_statements() {
    let class = ClassDecl::new("P").method(
        Function::new("m")
            .stmt(Stmt::Local(
                VarDecl::new("tmp", "int"),
                Some(Expr::Literal("1".into())),
            ))
            .stmt(Stmt::Assign {
                target: "tmp".into(),
                value: Expr::Literal("2".into()),
            })
            .stmt(Stmt::Return(Some(Expr::Var("tmp".into())))),
    );
    let outcome = Javac.compile(&java_bundle(class));
    assert!(outcome.success(), "{outcome}");
}

#[test]
fn use_before_declaration_fails() {
    let class = ClassDecl::new("P").method(
        Function::new("m")
            .stmt(Stmt::Assign {
                target: "tmp".into(),
                value: Expr::Literal("2".into()),
            })
            .stmt(Stmt::Local(VarDecl::new("tmp", "int"), None)),
    );
    assert!(!Javac.compile(&java_bundle(class)).success());
}

#[test]
fn nested_call_arguments_are_resolved() {
    let class = ClassDecl::new("P").method(
        Function::new("m").param("a", "int").stmt(Stmt::Expr(Expr::MethodCall {
            receiver: Box::new(Expr::Var("a".into())),
            method: "frob".into(),
            args: vec![Expr::Var("ghost".into())],
        })),
    );
    let outcome = Javac.compile(&java_bundle(class));
    assert!(!outcome.success());
    assert!(outcome.errors().any(|d| d.message.contains("ghost")));
}

#[test]
fn field_references_resolve_against_the_owning_class_only() {
    let bundle = ArtifactBundle::new(ArtifactLanguage::Java).unit(
        CodeUnit::new("T.java")
            .class(ClassDecl::new("A").field("shared", "int"))
            .class(ClassDecl::new("B").method(
                Function::new("m").stmt(Stmt::Return(Some(Expr::SelfField("shared".into())))),
            )),
    );
    // `shared` lives on A; B's method must not see it.
    assert!(!Javac.compile(&bundle).success());
}

#[test]
fn vb_folds_case_on_locals_too() {
    let class = ClassDecl::new("P").method(
        Function::new("m")
            .stmt(Stmt::Local(VarDecl::new("Value", "String"), None))
            .stmt(Stmt::Local(VarDecl::new("value", "String"), None)),
    );
    let vb = ArtifactBundle::new(ArtifactLanguage::VisualBasic)
        .unit(CodeUnit::new("P.vb").class(class.clone()));
    assert!(!Vbc.compile(&vb).success());
    // The same bundle is fine for case-sensitive C#.
    let cs = ArtifactBundle::new(ArtifactLanguage::CSharp)
        .unit(CodeUnit::new("P.cs").class(class));
    assert!(Csc.compile(&cs).success());
}

#[test]
fn new_expressions_require_resolvable_types() {
    let class = ClassDecl::new("P").method(Function::new("m").stmt(Stmt::Expr(Expr::New(
        wsinterop_artifact::TypeName::of("MissingBean"),
    ))));
    let outcome = Javac.compile(&java_bundle(class));
    assert!(!outcome.success());
    assert!(outcome.errors().any(|d| d.message.contains("MissingBean")));
}

#[test]
fn new_expressions_resolve_bundle_classes() {
    let bundle = ArtifactBundle::new(ArtifactLanguage::Java).unit(
        CodeUnit::new("T.java")
            .class(ClassDecl::new("Bean"))
            .class(ClassDecl::new("P").method(
                Function::new("m").stmt(Stmt::Expr(Expr::New(
                    wsinterop_artifact::TypeName::of("Bean"),
                ))),
            )),
    );
    assert!(Javac.compile(&bundle).success());
}

#[test]
fn self_extension_is_a_cycle() {
    let class = ClassDecl::new("Loop").extends("Loop");
    let outcome = Javac.compile(&java_bundle(class));
    assert!(!outcome.success());
    assert!(outcome.errors().any(|d| d.code == "cycle"));
}

#[test]
fn three_class_cycle_detected_and_crashes_jsc_only() {
    let unit = CodeUnit::new("T")
        .class(ClassDecl::new("A").extends("B"))
        .class(ClassDecl::new("B").extends("C"))
        .class(ClassDecl::new("C").extends("A"));
    let java = ArtifactBundle::new(ArtifactLanguage::Java).unit(unit.clone());
    let js = ArtifactBundle::new(ArtifactLanguage::JScript).unit(unit);
    let javac = Javac.compile(&java);
    assert!(!javac.success());
    assert!(!javac.crashed);
    let jsc = Jsc.compile(&js);
    assert!(jsc.crashed);
}

#[test]
fn extension_to_platform_type_is_fine() {
    let class = ClassDecl::new("Derived").extends("java.lang.Exception");
    assert!(Javac.compile(&java_bundle(class)).success());
}

#[test]
fn free_functions_share_one_namespace_across_units() {
    let bundle = ArtifactBundle::new(ArtifactLanguage::Cpp)
        .unit(CodeUnit::new("a.cpp").function(
            Function::new("helper").stmt(Stmt::Return(None)),
        ))
        .unit(CodeUnit::new("b.cpp").function(
            Function::new("caller").stmt(Stmt::Expr(Expr::Call {
                function: "helper".into(),
                args: vec![],
            })),
        ));
    assert!(Gpp.compile(&bundle).success());
}

#[test]
fn diagnostics_carry_locations() {
    let class = ClassDecl::new("Located").field("x", "Nope");
    let outcome = Javac.compile(&java_bundle(class));
    let diag = outcome.errors().next().unwrap();
    assert_eq!(diag.location, "Located");
}

#[test]
fn free_function_and_local_types_must_resolve() {
    let bundle = ArtifactBundle::new(ArtifactLanguage::Cpp).unit(
        CodeUnit::new("t.cpp")
            .class(ClassDecl::new("P").method(
                Function::new("m").stmt(Stmt::Local(VarDecl::new("tmp", "MissingLocal"), None)),
            ))
            .function(
                Function::new("helper")
                    .param("x", "MissingParam")
                    .returns("MissingReturn")
                    .stmt(Stmt::Local(
                        VarDecl::new("y", "int"),
                        Some(Expr::New(wsinterop_artifact::TypeName::of("MissingNew"))),
                    )),
            ),
    );
    let outcome = Gpp.compile(&bundle);
    let unresolved: Vec<(&str, &str)> = outcome
        .errors()
        .map(|d| (d.location.as_str(), d.message.as_str()))
        .collect();
    assert_eq!(
        unresolved,
        [
            ("P.m", "`MissingLocal` was not declared in this scope"),
            ("<unit>.helper", "`MissingParam` was not declared in this scope"),
            ("<unit>.helper", "`MissingReturn` was not declared in this scope"),
            ("<unit>.helper", "`MissingNew` was not declared in this scope"),
        ]
    );
}
