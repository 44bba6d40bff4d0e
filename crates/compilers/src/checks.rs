//! Shared semantic passes over the artifact code model.
//!
//! Each pass detects one genuine defect class; the per-language
//! compilers compose passes and give the findings tool-appropriate
//! codes and messages.
//!
//! The passes borrow every name from the bundle: a clean compile
//! allocates nothing, and a finding's location and message are
//! formatted only when the finding is made.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use wsinterop_artifact::{ArtifactBundle, ClassDecl, Expr, Function, Stmt};

use crate::diag::Diagnostic;

/// How a specific compiler phrases the shared findings.
#[derive(Debug, Clone)]
pub struct Dialect {
    /// Duplicate field in one class.
    pub duplicate_field: (&'static str, &'static str),
    /// Duplicate local variable in one function.
    pub duplicate_local: (&'static str, &'static str),
    /// Field/method (or member/member) name collision.
    pub member_collision: (&'static str, &'static str),
    /// Unresolved variable reference.
    pub unknown_variable: (&'static str, &'static str),
    /// Unresolved field reference on `this`.
    pub unknown_field: (&'static str, &'static str),
    /// Unresolved type reference.
    pub unknown_type: (&'static str, &'static str),
    /// Unresolved free-function call.
    pub unknown_function: (&'static str, &'static str),
    /// Inheritance cycle.
    pub inheritance_cycle: (&'static str, &'static str),
    /// Identifiers are compared case-insensitively (Visual Basic).
    pub case_insensitive: bool,
    /// Built-in type names this language resolves implicitly.
    pub builtin_types: &'static [&'static str],
}

/// The owner that free functions report under.
const UNIT_OWNER: &str = "<unit>";

/// Whether two names are equal, exactly or (`fold`, Visual Basic's
/// identifiers) ignoring ASCII case.
fn same_name(fold: bool, a: &str, b: &str) -> bool {
    if fold {
        a.eq_ignore_ascii_case(b)
    } else {
        a == b
    }
}

/// A spilled [`NameSet`] entry, compared by [`same_name`]; the hash
/// folds ASCII case when the comparison does.
#[derive(Clone, Copy)]
struct Key<'a> {
    text: &'a str,
    fold: bool,
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        same_name(self.fold, self.text, other.text)
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        if self.fold {
            for byte in self.text.bytes() {
                state.write_u8(byte.to_ascii_lowercase());
            }
            state.write_u8(0xff);
        } else {
            self.text.hash(state);
        }
    }
}

/// How many names a [`NameSet`] scans inline before it spills into a
/// hash set. Generated classes and functions stay well below it, so
/// their checks allocate nothing; a very large one stays linear.
const INLINE_NAMES: usize = 16;

/// A set of names borrowed from the bundle, compared by [`same_name`].
struct NameSet<'a> {
    fold: bool,
    inline: [&'a str; INLINE_NAMES],
    len: usize,
    spilled: Option<HashSet<Key<'a>>>,
}

impl<'a> NameSet<'a> {
    /// An empty set comparing names exactly, or ignoring ASCII case.
    fn new(fold: bool) -> NameSet<'a> {
        NameSet {
            fold,
            inline: [""; INLINE_NAMES],
            len: 0,
            spilled: None,
        }
    }

    fn contains(&self, name: &str) -> bool {
        self.inline[..self.len]
            .iter()
            .any(|held| same_name(self.fold, held, name))
            || self.spilled.as_ref().is_some_and(|set| {
                set.contains(&Key {
                    text: name,
                    fold: self.fold,
                })
            })
    }

    /// Adds `name`; `false` when an equal name was already present.
    fn insert(&mut self, name: &'a str) -> bool {
        if self.contains(name) {
            return false;
        }
        if self.len < INLINE_NAMES {
            self.inline[self.len] = name;
            self.len += 1;
        } else {
            let fold = self.fold;
            let spilled = self.spilled.get_or_insert_with(HashSet::new);
            spilled.insert(Key { text: name, fold });
        }
        true
    }
}

impl<'a> FromIterator<&'a str> for NameSet<'a> {
    /// Collects names compared exactly.
    fn from_iter<I: IntoIterator<Item = &'a str>>(names: I) -> NameSet<'a> {
        let mut set = NameSet::new(false);
        for name in names {
            set.insert(name);
        }
        set
    }
}

/// Where a finding is reported: a class, or a function of a class (or
/// of the unit, for free functions).
#[derive(Clone, Copy)]
enum Site<'a> {
    Class(&'a str),
    Function(&'a str, &'a str),
}

impl Site<'_> {
    fn location(self) -> String {
        match self {
            Site::Class(class) => class.to_string(),
            Site::Function(owner, function) => format!("{owner}.{function}"),
        }
    }
}

/// Records one error finding about `subject` under the dialect's
/// `(code, template)` for it.
fn report(
    out: &mut Vec<Diagnostic>,
    (code, template): (&'static str, &'static str),
    site: Site<'_>,
    subject: &str,
) {
    out.push(Diagnostic::error(
        code,
        site.location(),
        template.replace("{}", subject),
    ));
}

/// Visits every class method, then every free function, with its
/// owner's name and (for methods) its class.
fn each_function<'a>(
    bundle: &'a ArtifactBundle,
    mut visit: impl FnMut(&'a str, Option<&'a ClassDecl>, &'a Function),
) {
    for class in bundle.all_classes() {
        for method in &class.methods {
            visit(&class.name, Some(class), method);
        }
    }
    for function in bundle.all_functions() {
        visit(UNIT_OWNER, None, function);
    }
}

/// Duplicate fields within each class.
pub fn check_duplicate_fields(
    bundle: &ArtifactBundle,
    dialect: &Dialect,
    out: &mut Vec<Diagnostic>,
) {
    for class in bundle.all_classes() {
        let mut seen = NameSet::new(dialect.case_insensitive);
        for field in &class.fields {
            if !seen.insert(&field.name) {
                report(
                    out,
                    dialect.duplicate_field,
                    Site::Class(&class.name),
                    &field.name,
                );
            }
        }
    }
}

/// Duplicate local variables within each function body (params count).
pub fn check_duplicate_locals(
    bundle: &ArtifactBundle,
    dialect: &Dialect,
    out: &mut Vec<Diagnostic>,
) {
    each_function(bundle, |owner, _, function| {
        let site = Site::Function(owner, &function.name);
        let mut seen = NameSet::new(dialect.case_insensitive);
        let mut params_distinct = true;
        for param in &function.params {
            params_distinct &= seen.insert(&param.name);
        }
        // A duplicated *parameter* is also a duplicate-local error.
        if !params_distinct {
            report(out, dialect.duplicate_local, site, "parameter list");
        }
        for stmt in &function.body {
            if let Stmt::Local(decl, _) = stmt {
                if !seen.insert(&decl.name) {
                    report(out, dialect.duplicate_local, site, &decl.name);
                }
            }
        }
    });
}

/// Field-vs-method name collisions within each class.
///
/// Only meaningful for dialects with case-insensitive identifiers
/// (Visual Basic reports `BC30260`); case-sensitive languages only
/// collide on exact matches, which generators never produce.
pub fn check_member_collisions(
    bundle: &ArtifactBundle,
    dialect: &Dialect,
    out: &mut Vec<Diagnostic>,
) {
    for class in bundle.all_classes() {
        let mut field_names = NameSet::new(dialect.case_insensitive);
        for field in &class.fields {
            field_names.insert(&field.name);
        }
        for method in &class.methods {
            if field_names.contains(&method.name) {
                report(
                    out,
                    dialect.member_collision,
                    Site::Class(&class.name),
                    &method.name,
                );
            }
            // Parameters colliding with the containing method's name are
            // the wsdl.exe/VB emission the paper describes.
            for param in &method.params {
                if same_name(dialect.case_insensitive, &param.name, &method.name) {
                    report(
                        out,
                        dialect.member_collision,
                        Site::Function(&class.name, &method.name),
                        &param.name,
                    );
                }
            }
        }
    }
}

/// Unresolved variable and `this`-field references in bodies.
pub fn check_name_resolution(
    bundle: &ArtifactBundle,
    dialect: &Dialect,
    out: &mut Vec<Diagnostic>,
) {
    each_function(bundle, |owner, class, function| {
        let site = Site::Function(owner, &function.name);
        let mut scope = NameSet::new(dialect.case_insensitive);
        for param in &function.params {
            scope.insert(&param.name);
        }
        let mut fields = NameSet::new(dialect.case_insensitive);
        for field in class.into_iter().flat_map(|c| &c.fields) {
            fields.insert(&field.name);
        }
        for stmt in &function.body {
            if let Some(e) = stmt_expr(stmt) {
                walk_expr(e, &mut |expr| match expr {
                    Expr::Var(name) if !scope.contains(name) && !fields.contains(name) => {
                        report(out, dialect.unknown_variable, site, name);
                    }
                    Expr::SelfField(name) if !fields.contains(name) => {
                        report(out, dialect.unknown_field, site, name);
                    }
                    _ => {}
                });
            }
            // Targets of assignments must resolve too; locals extend scope.
            match stmt {
                Stmt::Local(decl, _) => {
                    scope.insert(&decl.name);
                }
                Stmt::Assign { target, .. }
                    if !scope.contains(target) && !fields.contains(target) =>
                {
                    report(out, dialect.unknown_variable, site, target);
                }
                Stmt::AssignField { field, .. } if !fields.contains(field) => {
                    report(out, dialect.unknown_field, site, field);
                }
                _ => {}
            }
        }
    });
}

/// Unresolved type references: superclasses and field types, and in
/// every method and free function the parameter, return and local
/// types and the types of `new` expressions.
pub fn check_type_resolution(
    bundle: &ArtifactBundle,
    dialect: &Dialect,
    out: &mut Vec<Diagnostic>,
) {
    let declared: NameSet = bundle.all_classes().map(|c| &*c.name).collect();
    let mut check = |name: &str, site: Site<'_>| {
        let resolves = declared.contains(name)
            || dialect.builtin_types.contains(&name)
            // Dotted names reference platform libraries (assumed on the
            // classpath); only bare names must resolve locally.
            || name.contains('.')
            || name.contains("::");
        if !resolves {
            report(out, dialect.unknown_type, site, name);
        }
    };
    for class in bundle.all_classes() {
        if let Some(base) = &class.extends {
            check(base.as_str(), Site::Class(&class.name));
        }
        for field in &class.fields {
            check(field.type_name.as_str(), Site::Class(&class.name));
        }
        for method in &class.methods {
            check_function_types(
                method,
                Site::Function(&class.name, &method.name),
                &mut check,
            );
        }
    }
    for function in bundle.all_functions() {
        check_function_types(
            function,
            Site::Function(UNIT_OWNER, &function.name),
            &mut check,
        );
    }
}

fn check_function_types(
    function: &Function,
    site: Site<'_>,
    check: &mut dyn FnMut(&str, Site<'_>),
) {
    for param in &function.params {
        check(param.type_name.as_str(), site);
    }
    if let Some(ret) = &function.return_type {
        check(ret.as_str(), site);
    }
    for stmt in &function.body {
        if let Stmt::Local(decl, _) = stmt {
            check(decl.type_name.as_str(), site);
        }
        if let Some(e) = stmt_expr(stmt) {
            walk_expr(e, &mut |e| {
                if let Expr::New(type_name) = e {
                    check(type_name.as_str(), site);
                }
            });
        }
    }
}

/// Calls to free functions must resolve within the bundle.
pub fn check_function_calls(bundle: &ArtifactBundle, dialect: &Dialect, out: &mut Vec<Diagnostic>) {
    let declared: NameSet = bundle.all_functions().map(|f| &*f.name).collect();
    each_function(bundle, |owner, _, function| {
        let site = Site::Function(owner, &function.name);
        for e in function.body.iter().filter_map(stmt_expr) {
            walk_expr(e, &mut |e| {
                if let Expr::Call { function: name, .. } = e {
                    if !declared.contains(name) {
                        report(out, dialect.unknown_function, site, name);
                    }
                }
            });
        }
    });
}

/// Inheritance cycles across the bundle's classes.
///
/// A chain follows `extends` through the first class of each name, so
/// every chain either leaves the bundle or enters a cycle at one entry
/// class, which is the name reported. Each class's entry is resolved
/// once and shared by every chain through it, so the pass is linear.
/// Up to `INLINE_NAMES` classes it allocates nothing.
pub fn check_inheritance_cycles(
    bundle: &ArtifactBundle,
    dialect: &Dialect,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let count = bundle.all_classes().count();
    let mut inline = [Link::default(); INLINE_NAMES];
    let mut spilled = Vec::new();
    let links: &mut [Link] = if count <= INLINE_NAMES {
        &mut inline[..count]
    } else {
        spilled.resize(count, Link::default());
        &mut spilled
    };
    for (link, class) in links.iter_mut().zip(bundle.all_classes()) {
        link.name = &class.name;
    }
    let by_name: Option<HashMap<&str, usize>> = (count > INLINE_NAMES).then(|| {
        let mut map = HashMap::with_capacity(count);
        for (i, link) in links.iter().enumerate() {
            map.entry(link.name).or_insert(i);
        }
        map
    });
    // The position of the first class named `name`.
    let first = |links: &[Link], name: &str| match &by_name {
        Some(map) => map.get(name).copied(),
        None => links.iter().position(|link| link.name == name),
    };
    for (i, class) in bundle.all_classes().enumerate() {
        let next = class.extends.as_ref().and_then(|t| first(links, t.as_str()));
        links[i].next = next;
    }
    let mut found = false;
    for class in bundle.all_classes() {
        let Some(start) = first(links, &class.name) else { continue };
        if let Some(entry) = cycle_entry(links, start) {
            let name = links[entry].name;
            report(out, dialect.inheritance_cycle, Site::Class(&class.name), name);
            found = true;
        }
    }
    found
}

/// One class in [`check_inheritance_cycles`]' walk.
#[derive(Clone, Copy, Default)]
struct Link<'a> {
    name: &'a str,
    /// The first class named by this class's `extends`.
    next: Option<usize>,
    chain: Chain,
}

#[derive(Clone, Copy, Default)]
enum Chain {
    #[default]
    Unseen,
    /// On the walk in progress.
    OnPath,
    /// Resolved: the cycle entry the chain reaches, if any.
    Enters(Option<usize>),
}

/// The cycle entry the chain from `start` reaches, resolving every
/// class it passes so no later chain walks them again.
fn cycle_entry(links: &mut [Link], start: usize) -> Option<usize> {
    let mut at = Some(start);
    while let Some(i) = at.filter(|&i| matches!(links[i].chain, Chain::Unseen)) {
        links[i].chain = Chain::OnPath;
        at = links[i].next;
    }
    let on_path = |links: &[Link], at: Option<usize>| {
        at.filter(|&i| matches!(links[i].chain, Chain::OnPath))
    };
    let entry = match at.map(|i| (i, links[i].chain)) {
        None => None,
        Some((_, Chain::Enters(entry))) => entry,
        // The walk closed a loop at `i`: each class on it is its own entry.
        Some((i, _)) => {
            let mut at = Some(i);
            while let Some(j) = on_path(links, at) {
                links[j].chain = Chain::Enters(Some(j));
                at = links[j].next;
            }
            Some(i)
        }
    };
    let mut at = Some(start);
    while let Some(j) = on_path(links, at) {
        links[j].chain = Chain::Enters(entry);
        at = links[j].next;
    }
    entry
}

/// The one expression a statement evaluates, if any.
fn stmt_expr(stmt: &Stmt) -> Option<&Expr> {
    match stmt {
        Stmt::Local(_, value) | Stmt::Return(value) => value.as_ref(),
        Stmt::Assign { value, .. } | Stmt::AssignField { value, .. } | Stmt::Expr(value) => {
            Some(value)
        }
    }
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
