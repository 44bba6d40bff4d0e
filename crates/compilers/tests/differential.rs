//! Differential test of the compile checks against a reference oracle.
//!
//! The oracle below is the straightforward form of the same passes:
//! every name is copied into a `HashSet<String>`, Visual Basic folds
//! case by copying each name through `to_ascii_lowercase`, locations
//! are formatted for every check, and the dialects are rebuilt on every
//! compile. The compilers under test borrow their names and format only
//! findings. Over random bundles with duplicate, mixed-case and
//! non-ASCII names, locals and statements, all five compilers must
//! produce exactly the oracle's `CompileOutcome`.

use std::collections::HashSet;

use proptest::prelude::*;
use wsinterop_artifact::{
    ArtifactBundle, ArtifactLanguage, ClassDecl, CodeUnit, Expr, Function, LintMarker, Stmt,
    TypeName, VarDecl,
};
use wsinterop_compilers::{compiler_for, CompileOutcome, Diagnostic};

// ---------------------------------------------------------------------
// The reference oracle.
// ---------------------------------------------------------------------

struct Dialect {
    duplicate_field: (&'static str, &'static str),
    duplicate_local: (&'static str, &'static str),
    member_collision: (&'static str, &'static str),
    unknown_variable: (&'static str, &'static str),
    unknown_field: (&'static str, &'static str),
    unknown_type: (&'static str, &'static str),
    unknown_function: (&'static str, &'static str),
    inheritance_cycle: (&'static str, &'static str),
    case_insensitive: bool,
    builtin_types: &'static [&'static str],
}

const JAVA_BUILTINS: &[&str] = &[
    "void", "int", "long", "short", "byte", "boolean", "char", "float", "double", "String",
    "Object", "byte[]", "int[]", "String[]",
];

const DOTNET_BUILTINS: &[&str] = &[
    "void", "int", "long", "short", "byte", "bool", "char", "float", "double", "decimal", "string",
    "object", "String", "Object", "Integer", "Long", "Boolean", "Double", "Date", "byte[]",
    "string[]",
];

const CPP_BUILTINS: &[&str] = &[
    "void", "void*", "int", "long", "short", "char", "bool", "float", "double", "char*", "wchar_t",
    "size_t", "time_t",
];

fn base_dialect(builtins: &'static [&'static str], case_insensitive: bool) -> Dialect {
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
        builtin_types: builtins,
    }
}

fn fold_case(dialect: &Dialect, name: &str) -> String {
    if dialect.case_insensitive {
        name.to_ascii_lowercase()
    } else {
        name.to_string()
    }
}

fn check_duplicate_fields(bundle: &ArtifactBundle, dialect: &Dialect, out: &mut Vec<Diagnostic>) {
    for class in bundle.all_classes() {
        let mut seen = HashSet::new();
        for field in &class.fields {
            if !seen.insert(fold_case(dialect, &field.name)) {
                let (code, template) = dialect.duplicate_field;
                out.push(Diagnostic::error(
                    code,
                    class.name.to_string(),
                    template.replace("{}", &field.name),
                ));
            }
        }
    }
}

fn check_duplicate_locals(bundle: &ArtifactBundle, dialect: &Dialect, out: &mut Vec<Diagnostic>) {
    let mut visit = |owner: &str, function: &Function| {
        let mut seen: HashSet<String> = function
            .params
            .iter()
            .map(|p| fold_case(dialect, &p.name))
            .collect();
        if seen.len() != function.params.len() {
            let (code, template) = dialect.duplicate_local;
            out.push(Diagnostic::error(
                code,
                format!("{owner}.{}", function.name),
                template.replace("{}", "parameter list"),
            ));
        }
        for stmt in &function.body {
            if let Stmt::Local(decl, _) = stmt {
                if !seen.insert(fold_case(dialect, &decl.name)) {
                    let (code, template) = dialect.duplicate_local;
                    out.push(Diagnostic::error(
                        code,
                        format!("{owner}.{}", function.name),
                        template.replace("{}", &decl.name),
                    ));
                }
            }
        }
    };
    for class in bundle.all_classes() {
        for method in &class.methods {
            visit(&class.name, method);
        }
    }
    for function in bundle.all_functions() {
        visit("<unit>", function);
    }
}

fn check_member_collisions(bundle: &ArtifactBundle, dialect: &Dialect, out: &mut Vec<Diagnostic>) {
    for class in bundle.all_classes() {
        let field_names: HashSet<String> = class
            .fields
            .iter()
            .map(|f| fold_case(dialect, &f.name))
            .collect();
        for method in &class.methods {
            if field_names.contains(&fold_case(dialect, &method.name)) {
                let (code, template) = dialect.member_collision;
                out.push(Diagnostic::error(
                    code,
                    class.name.to_string(),
                    template.replace("{}", &method.name),
                ));
            }
            for param in &method.params {
                if fold_case(dialect, &param.name) == fold_case(dialect, &method.name) {
                    let (code, template) = dialect.member_collision;
                    out.push(Diagnostic::error(
                        code,
                        format!("{}.{}", class.name, method.name),
                        template.replace("{}", &param.name),
                    ));
                }
            }
        }
    }
}

fn check_name_resolution(bundle: &ArtifactBundle, dialect: &Dialect, out: &mut Vec<Diagnostic>) {
    let visit = |owner: &str,
                 class: Option<&ClassDecl>,
                 function: &Function,
                 out: &mut Vec<Diagnostic>| {
        let mut scope: HashSet<String> = function
            .params
            .iter()
            .map(|p| fold_case(dialect, &p.name))
            .collect();
        let fields: HashSet<String> = class
            .map(|c| {
                c.fields
                    .iter()
                    .map(|f| fold_case(dialect, &f.name))
                    .collect()
            })
            .unwrap_or_default();
        for stmt in &function.body {
            let exprs: Vec<&Expr> = match stmt {
                Stmt::Local(_, Some(e)) => vec![e],
                Stmt::Local(_, None) => vec![],
                Stmt::Assign { value, .. } => vec![value],
                Stmt::AssignField { value, .. } => vec![value],
                Stmt::Expr(e) => vec![e],
                Stmt::Return(Some(e)) => vec![e],
                Stmt::Return(None) => vec![],
            };
            for e in exprs {
                walk_expr(e, &mut |expr| match expr {
                    Expr::Var(name)
                        if !scope.contains(&fold_case(dialect, name))
                            && !fields.contains(&fold_case(dialect, name)) =>
                    {
                        let (code, template) = dialect.unknown_variable;
                        out.push(Diagnostic::error(
                            code,
                            format!("{owner}.{}", function.name),
                            template.replace("{}", name),
                        ));
                    }
                    Expr::SelfField(name) if !fields.contains(&fold_case(dialect, name)) => {
                        let (code, template) = dialect.unknown_field;
                        out.push(Diagnostic::error(
                            code,
                            format!("{owner}.{}", function.name),
                            template.replace("{}", name),
                        ));
                    }
                    _ => {}
                });
            }
            match stmt {
                Stmt::Local(decl, _) => {
                    scope.insert(fold_case(dialect, &decl.name));
                }
                Stmt::Assign { target, .. }
                    if !scope.contains(&fold_case(dialect, target))
                        && !fields.contains(&fold_case(dialect, target)) =>
                {
                    let (code, template) = dialect.unknown_variable;
                    out.push(Diagnostic::error(
                        code,
                        format!("{owner}.{}", function.name),
                        template.replace("{}", target),
                    ));
                }
                Stmt::AssignField { field, .. } if !fields.contains(&fold_case(dialect, field)) => {
                    let (code, template) = dialect.unknown_field;
                    out.push(Diagnostic::error(
                        code,
                        format!("{owner}.{}", function.name),
                        template.replace("{}", field),
                    ));
                }
                _ => {}
            }
        }
    };
    for class in bundle.all_classes() {
        for method in &class.methods {
            visit(&class.name, Some(class), method, out);
        }
    }
    for function in bundle.all_functions() {
        visit("<unit>", None, function, out);
    }
}

/// The type pass, extended past its original form to the free
/// functions' signatures and every declared local type (which the
/// compilers under test now check too).
fn check_type_resolution(bundle: &ArtifactBundle, dialect: &Dialect, out: &mut Vec<Diagnostic>) {
    let declared: HashSet<&str> = bundle.all_classes().map(|c| &*c.name).collect();
    let resolves = |name: &str| -> bool {
        declared.contains(name)
            || dialect.builtin_types.contains(&name)
            || name.contains('.')
            || name.contains("::")
    };
    let check = |name: &str, location: String, out: &mut Vec<Diagnostic>| {
        if !resolves(name) {
            let (code, template) = dialect.unknown_type;
            out.push(Diagnostic::error(
                code,
                location,
                template.replace("{}", name),
            ));
        }
    };
    let check_function = |owner: &str, function: &Function, out: &mut Vec<Diagnostic>| {
        for param in &function.params {
            check(
                param.type_name.as_str(),
                format!("{owner}.{}", function.name),
                out,
            );
        }
        if let Some(ret) = &function.return_type {
            check(ret.as_str(), format!("{owner}.{}", function.name), out);
        }
        for stmt in &function.body {
            if let Stmt::Local(decl, _) = stmt {
                check(
                    decl.type_name.as_str(),
                    format!("{owner}.{}", function.name),
                    out,
                );
            }
            visit_news(stmt, &mut |type_name| {
                check(type_name, format!("{owner}.{}", function.name), out);
            });
        }
    };
    for class in bundle.all_classes() {
        if let Some(base) = &class.extends {
            check(base.as_str(), class.name.to_string(), out);
        }
        for field in &class.fields {
            check(field.type_name.as_str(), class.name.to_string(), out);
        }
        for method in &class.methods {
            check_function(&class.name, method, out);
        }
    }
    for function in bundle.all_functions() {
        check_function("<unit>", function, out);
    }
}

fn check_function_calls(bundle: &ArtifactBundle, dialect: &Dialect, out: &mut Vec<Diagnostic>) {
    let declared: HashSet<&str> = bundle.all_functions().map(|f| &*f.name).collect();
    let visit = |owner: &str, function: &Function, out: &mut Vec<Diagnostic>| {
        for stmt in &function.body {
            visit_stmt_exprs(stmt, &mut |e| {
                if let Expr::Call { function: name, .. } = e {
                    if !declared.contains(&**name) {
                        let (code, template) = dialect.unknown_function;
                        out.push(Diagnostic::error(
                            code,
                            format!("{owner}.{}", function.name),
                            template.replace("{}", name),
                        ));
                    }
                }
            });
        }
    };
    for class in bundle.all_classes() {
        for method in &class.methods {
            visit(&class.name, method, out);
        }
    }
    for function in bundle.all_functions() {
        visit("<unit>", function, out);
    }
}

fn check_inheritance_cycles(
    bundle: &ArtifactBundle,
    dialect: &Dialect,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let mut found = false;
    for class in bundle.all_classes() {
        let mut seen = HashSet::new();
        let mut current = Some(class.name.to_string());
        while let Some(name) = current {
            if !seen.insert(name.clone()) {
                let (code, template) = dialect.inheritance_cycle;
                out.push(Diagnostic::error(
                    code,
                    class.name.to_string(),
                    template.replace("{}", &name),
                ));
                found = true;
                break;
            }
            current = bundle
                .all_classes()
                .find(|c| c.name == name)
                .and_then(|c| c.extends.as_ref().map(|t| t.0.to_string()));
        }
    }
    found
}

fn visit_stmt_exprs(stmt: &Stmt, visit: &mut dyn FnMut(&Expr)) {
    let exprs: Vec<&Expr> = match stmt {
        Stmt::Local(_, Some(e)) => vec![e],
        Stmt::Assign { value, .. } => vec![value],
        Stmt::AssignField { value, .. } => vec![value],
        Stmt::Expr(e) => vec![e],
        Stmt::Return(Some(e)) => vec![e],
        _ => vec![],
    };
    for e in exprs {
        walk_expr(e, visit);
    }
}

fn visit_news(stmt: &Stmt, visit: &mut dyn FnMut(&str)) {
    visit_stmt_exprs(stmt, &mut |e| {
        if let Expr::New(type_name) = e {
            visit(type_name.as_str());
        }
    });
}

fn walk_expr(e: &Expr, visit: &mut dyn FnMut(&Expr)) {
    visit(e);
    match e {
        Expr::Call { args, .. } => {
            for a in args {
                walk_expr(a, visit);
            }
        }
        Expr::MethodCall { receiver, args, .. } => {
            walk_expr(receiver, visit);
            for a in args {
                walk_expr(a, visit);
            }
        }
        _ => {}
    }
}

fn run_common_checks(bundle: &ArtifactBundle, dialect: &Dialect) -> CompileOutcome {
    let mut outcome = CompileOutcome::clean();
    check_duplicate_fields(bundle, dialect, &mut outcome.diagnostics);
    check_duplicate_locals(bundle, dialect, &mut outcome.diagnostics);
    check_member_collisions(bundle, dialect, &mut outcome.diagnostics);
    check_name_resolution(bundle, dialect, &mut outcome.diagnostics);
    check_type_resolution(bundle, dialect, &mut outcome.diagnostics);
    check_function_calls(bundle, dialect, &mut outcome.diagnostics);
    check_inheritance_cycles(bundle, dialect, &mut outcome.diagnostics);
    outcome
}

/// The oracle's compile of `bundle` in its own language.
fn oracle_compile(bundle: &ArtifactBundle) -> CompileOutcome {
    match bundle.language {
        ArtifactLanguage::Java => {
            let mut dialect = base_dialect(JAVA_BUILTINS, false);
            dialect.duplicate_local = ("javac:duplicate", "variable {} is already defined");
            dialect.unknown_variable = ("javac:cant-resolve", "cannot find symbol: variable {}");
            dialect.unknown_field = ("javac:cant-resolve", "cannot find symbol: variable {}");
            let mut outcome = run_common_checks(bundle, &dialect);
            for unit in &bundle.units {
                if unit.lints.contains(&LintMarker::UncheckedOperations) {
                    outcome.diagnostics.push(Diagnostic::warning(
                        "javac:unchecked",
                        unit.file_name.to_string(),
                        "uses unchecked or unsafe operations",
                    ));
                }
            }
            outcome
        }
        ArtifactLanguage::CSharp => {
            let mut dialect = base_dialect(DOTNET_BUILTINS, false);
            dialect.unknown_type = (
                "CS0246",
                "the type or namespace name `{}` could not be found",
            );
            dialect.duplicate_local = ("CS0128", "a local variable named `{}` is already defined");
            run_common_checks(bundle, &dialect)
        }
        ArtifactLanguage::VisualBasic => {
            let mut dialect = base_dialect(DOTNET_BUILTINS, true);
            dialect.member_collision = (
                "BC30260",
                "`{}` is already declared as a member of this class",
            );
            dialect.duplicate_field = (
                "BC30260",
                "`{}` is already declared as a member of this class",
            );
            run_common_checks(bundle, &dialect)
        }
        ArtifactLanguage::JScript => {
            let mut dialect = base_dialect(DOTNET_BUILTINS, false);
            dialect.unknown_function = ("JS1135", "reference to undefined transport function `{}`");
            let mut outcome = CompileOutcome::clean();
            if check_inheritance_cycles(bundle, &dialect, &mut Vec::new()) {
                outcome.crashed = true;
                outcome.diagnostics.push(Diagnostic::error(
                    "JS0131",
                    bundle
                        .entry_point
                        .as_ref()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "<bundle>".to_string()),
                    "131 INTERNAL COMPILER CRASH",
                ));
                return outcome;
            }
            let mut rest = run_common_checks(bundle, &dialect);
            outcome.diagnostics.append(&mut rest.diagnostics);
            outcome
        }
        ArtifactLanguage::Cpp => {
            let mut dialect = base_dialect(CPP_BUILTINS, false);
            dialect.unknown_type = ("gxx:undeclared", "`{}` was not declared in this scope");
            run_common_checks(bundle, &dialect)
        }
        ArtifactLanguage::Php | ArtifactLanguage::Python => unreachable!("not compiled"),
    }
}

// ---------------------------------------------------------------------
// Random bundles.
// ---------------------------------------------------------------------

/// Identifiers drawn from a small pool so that duplicates are common:
/// ASCII case variants (which Visual Basic alone folds together) and
/// non-ASCII letters whose case `to_ascii_lowercase` leaves alone.
fn ident() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(
            [
                "value",
                "Value",
                "VALUE",
                "vAlUe",
                "request",
                "Request",
                "endpoint",
                "Endpoint",
                "x",
                "X",
                "Größe",
                "GRÖSSE",
                "größe",
                "Ärger",
                "ärger",
                "ÄRGER",
                "ß",
                "SS",
                "ss",
                "İd",
                "id",
                "ID",
                "getMessage",
                "message",
                "message1",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
        ),
        "[a-cA-C]{1,3}",
    ]
}

/// Type names: built-ins of every dialect, the pool's class names,
/// dotted and scoped platform names, and unknown names.
fn type_name() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(
            [
                "int",
                "void",
                "String",
                "string",
                "Integer",
                "void*",
                "std::string",
                "java.util.Date",
                "System.DateTime",
                "Missing",
                "Value",
                "value",
                "Größe",
                "byte[]",
                "time_t",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
        ),
        ident(),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        ident().prop_map(|n| Expr::Var(n.into())),
        ident().prop_map(|n| Expr::SelfField(n.into())),
        "[0-9]{1,3}".prop_map(|n| Expr::Literal(n.into())),
        type_name().prop_map(|t| Expr::New(TypeName::of(t))),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            (ident(), prop::collection::vec(inner.clone(), 0..3)).prop_map(|(function, args)| {
                Expr::Call {
                    function: function.into(),
                    args,
                }
            }),
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
        (ident(), type_name(), prop::option::of(arb_expr()))
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
        prop::collection::vec((ident(), type_name()), 0..4),
        prop::option::of(type_name()),
        prop::collection::vec(arb_stmt(), 0..6),
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
        // Up to 40 fields, so some classes pass the checks' inline set
        // size and exercise their hashed path.
        prop_oneof![
            prop::collection::vec((ident(), type_name()), 0..6),
            prop::collection::vec((ident(), type_name()), 14..40),
        ],
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
        prop::collection::vec(arb_class(), 0..5),
        prop::collection::vec(arb_function(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(name, classes, functions, lint)| {
            let mut u = CodeUnit::new(name);
            for c in classes {
                u = u.class(c);
            }
            for f in functions {
                u = u.function(f);
            }
            if lint {
                u = u.lint(LintMarker::UncheckedOperations);
            }
            u
        })
}

fn arb_bundle() -> impl Strategy<Value = (Vec<CodeUnit>, Option<String>)> {
    (
        prop::collection::vec(arb_unit(), 1..3),
        prop::option::of(ident()),
    )
}

const COMPILED: [ArtifactLanguage; 5] = [
    ArtifactLanguage::Java,
    ArtifactLanguage::CSharp,
    ArtifactLanguage::VisualBasic,
    ArtifactLanguage::JScript,
    ArtifactLanguage::Cpp,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn every_compiler_matches_the_oracle(generated in arb_bundle()) {
        let (units, entry) = generated;
        for language in COMPILED {
            let mut bundle = ArtifactBundle::new(language);
            bundle.units = units.clone();
            bundle.entry_point = entry.clone().map(Into::into);
            let compiler = compiler_for(language).expect("compiled language");
            prop_assert_eq!(
                compiler.compile(&bundle),
                oracle_compile(&bundle),
                "{} on {:#?}",
                compiler.name(),
                bundle
            );
        }
    }
}

/// The generators reach the cases the oracle exists for: clean
/// bundles, ASCII-case duplicates that only Visual Basic reports,
/// inheritance cycles, and duplicates in classes wide enough to take
/// the checks' hashed path.
#[test]
fn the_generated_bundles_cover_findings_and_clean_compiles() {
    let strategy = arb_bundle();
    let mut rng = TestRng::from_name("coverage");
    let (mut clean, mut vb_only, mut cycles, mut wide_duplicates) = (0, 0, 0, 0);
    for _ in 0..400 {
        let (units, _) = strategy.generate(&mut rng);
        let mut vb = ArtifactBundle::new(ArtifactLanguage::VisualBasic);
        vb.units = units.clone();
        let mut cs = ArtifactBundle::new(ArtifactLanguage::CSharp);
        cs.units = units;
        let wide = cs.all_classes().any(|c| c.fields.len() > 16);
        let (vb, cs) = (oracle_compile(&vb), oracle_compile(&cs));
        clean += usize::from(cs.success());
        vb_only += usize::from(vb.error_count() > cs.error_count());
        cycles += usize::from(cs.errors().any(|d| d.code == "cycle"));
        wide_duplicates += usize::from(wide && cs.errors().any(|d| d.code == "dup-field"));
    }
    assert!(clean > 0, "no clean bundle generated");
    assert!(vb_only > 0, "no case-folded duplicate generated");
    assert!(cycles > 0, "no inheritance cycle generated");
    assert!(
        wide_duplicates > 0,
        "no duplicate in a wide class generated"
    );
}
