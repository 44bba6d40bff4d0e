//! Property-based tests for the artifact model and renderers: rendering
//! is total over arbitrary code models and preserves declared names.

use proptest::prelude::*;
use wsinterop_artifact::render::{render_bundle, render_unit};
use wsinterop_artifact::{
    ArtifactBundle, ArtifactLanguage, ClassDecl, CodeUnit, Expr, Function, Stmt, VarDecl,
};

const LANGUAGES: [ArtifactLanguage; 7] = [
    ArtifactLanguage::Java,
    ArtifactLanguage::CSharp,
    ArtifactLanguage::VisualBasic,
    ArtifactLanguage::JScript,
    ArtifactLanguage::Cpp,
    ArtifactLanguage::Php,
    ArtifactLanguage::Python,
];

fn ident() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,10}"
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        ident().prop_map(|n| Expr::Var(n.into())),
        ident().prop_map(|n| Expr::SelfField(n.into())),
        "[0-9]{1,4}".prop_map(|n| Expr::Literal(n.into())),
        ident().prop_map(|n| Expr::New(wsinterop_artifact::TypeName::of(n))),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            (ident(), prop::collection::vec(inner.clone(), 0..3)).prop_map(
                |(function, args)| Expr::Call {
                    function: function.into(),
                    args,
                }
            ),
            (inner.clone(), ident(), prop::collection::vec(inner, 0..2)).prop_map(
                |(receiver, method, args)| Expr::MethodCall {
                    receiver: Box::new(receiver),
                    method: method.into(),
                    args,
                }
            ),
        ]
    })
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (ident(), ident(), prop::option::of(arb_expr()))
            .prop_map(|(n, t, init)| Stmt::Local(VarDecl::new(n, t), init)),
        (ident(), arb_expr()).prop_map(|(target, value)| Stmt::Assign {
            target: target.into(),
            value,
        }),
        (ident(), arb_expr()).prop_map(|(field, value)| Stmt::AssignField {
            field: field.into(),
            value,
        }),
        arb_expr().prop_map(Stmt::Expr),
        prop::option::of(arb_expr()).prop_map(Stmt::Return),
    ]
}

fn arb_function() -> impl Strategy<Value = Function> {
    (
        ident(),
        prop::collection::vec((ident(), ident()), 0..3),
        prop::option::of(ident()),
        prop::collection::vec(arb_stmt(), 0..4),
    )
        .prop_map(|(name, params, ret, body)| {
            let mut f = Function::new(name);
            for (p, t) in params {
                f = f.param(p, t);
            }
            if let Some(r) = ret {
                f = f.returns(r);
            }
            for s in body {
                f = f.stmt(s);
            }
            f
        })
}

fn arb_class() -> impl Strategy<Value = ClassDecl> {
    (
        ident(),
        prop::option::of(ident()),
        prop::collection::vec((ident(), ident()), 0..4),
        prop::collection::vec(arb_function(), 0..3),
    )
        .prop_map(|(name, base, fields, methods)| {
            let mut c = ClassDecl::new(name);
            if let Some(b) = base {
                c = c.extends(b);
            }
            for (f, t) in fields {
                c = c.field(f, t);
            }
            for m in methods {
                c = c.method(m);
            }
            c
        })
}

fn arb_unit() -> impl Strategy<Value = CodeUnit> {
    (
        ident(),
        prop::collection::vec(arb_class(), 0..3),
        prop::collection::vec(arb_function(), 0..2),
    )
        .prop_map(|(name, classes, functions)| {
            let mut u = CodeUnit::new(name);
            for c in classes {
                u = u.class(c);
            }
            for f in functions {
                u = u.function(f);
            }
            u
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rendering never panics, in any language, on any model.
    #[test]
    fn rendering_is_total(unit in arb_unit()) {
        for language in LANGUAGES {
            let _ = render_unit(language, &unit);
        }
    }

    /// Every declared class name appears in the rendered source.
    #[test]
    fn class_names_survive_rendering(unit in arb_unit()) {
        for language in LANGUAGES {
            let source = render_unit(language, &unit);
            for class in &unit.classes {
                prop_assert!(
                    source.contains(&*class.name),
                    "{language}: class {} missing from output",
                    class.name
                );
            }
        }
    }

    /// Bundle rendering pairs every unit with its file name.
    #[test]
    fn bundle_rendering_covers_all_units(
        units in prop::collection::vec(arb_unit(), 0..4),
    ) {
        let mut bundle = ArtifactBundle::new(ArtifactLanguage::Java);
        for u in units.clone() {
            bundle = bundle.unit(u);
        }
        let rendered = render_bundle(&bundle);
        prop_assert_eq!(rendered.len(), units.len());
        for ((file, _), unit) in rendered.iter().zip(&units) {
            prop_assert_eq!(file, &unit.file_name);
        }
    }

    /// Field names appear in class-bearing languages.
    #[test]
    fn field_names_survive_rendering(class in arb_class()) {
        let unit = CodeUnit::new("t").class(class.clone());
        for language in [ArtifactLanguage::Java, ArtifactLanguage::CSharp, ArtifactLanguage::VisualBasic] {
            let source = render_unit(language, &unit);
            for field in &class.fields {
                prop_assert!(source.contains(&*field.name), "{language}: {}", field.name);
            }
        }
    }
}
