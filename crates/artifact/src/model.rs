//! The language-neutral client-artifact code model.
//!
//! Client artifact generators (wsimport, wsdl2java, wsdl.exe, …) emit
//! *code*. To make the downstream compilation step honest, the
//! simulated generators emit a real (if small) code model — classes,
//! fields, methods, statements — and the simulated compilers run real
//! semantic checks over it. Every compilation failure reproduced from
//! the paper corresponds to a genuine defect in this model (a dangling
//! name, a duplicate variable, an inheritance cycle), not a flag.
//!
//! Every name in the model is a [`Name`]: the constants a generator
//! emits (`endpoint`, `request`, built-in type names, the transport
//! function) are borrowed `'static` strings, and only names taken from
//! the input document are owned. Building a bundle therefore copies
//! no constant.

use std::borrow::Cow;
use std::fmt;

/// A name or source fragment in the model: borrowed when it is a
/// generator constant, owned when it comes from the input document.
pub type Name = Cow<'static, str>;

/// The source language of an artifact bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactLanguage {
    /// Java (wsimport, wsdl2java, wsconsume).
    Java,
    /// C# (wsdl.exe).
    CSharp,
    /// Visual Basic .NET (wsdl.exe /language:VB).
    VisualBasic,
    /// JScript .NET (wsdl.exe /language:JS).
    JScript,
    /// C++ (gSOAP wsdl2h + soapcpp2).
    Cpp,
    /// PHP (Zend_Soap_Client — dynamic, no compile step).
    Php,
    /// Python (suds — dynamic, no compile step).
    Python,
}

impl ArtifactLanguage {
    /// Whether artifacts in this language go through a compiler.
    pub fn compiled(self) -> bool {
        !matches!(self, ArtifactLanguage::Php | ArtifactLanguage::Python)
    }

    /// Identifier comparison is case-insensitive in Visual Basic.
    pub fn case_insensitive_identifiers(self) -> bool {
        matches!(self, ArtifactLanguage::VisualBasic)
    }

    /// Canonical source-file extension.
    pub fn extension(self) -> &'static str {
        match self {
            ArtifactLanguage::Java => "java",
            ArtifactLanguage::CSharp => "cs",
            ArtifactLanguage::VisualBasic => "vb",
            ArtifactLanguage::JScript => "js",
            ArtifactLanguage::Cpp => "cpp",
            ArtifactLanguage::Php => "php",
            ArtifactLanguage::Python => "py",
        }
    }
}

impl fmt::Display for ArtifactLanguage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactLanguage::Java => "Java",
            ArtifactLanguage::CSharp => "C#",
            ArtifactLanguage::VisualBasic => "Visual Basic .NET",
            ArtifactLanguage::JScript => "JScript .NET",
            ArtifactLanguage::Cpp => "C++",
            ArtifactLanguage::Php => "PHP",
            ArtifactLanguage::Python => "Python",
        })
    }
}

/// A type name as written in generated source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TypeName(pub Name);

impl TypeName {
    /// Convenience constructor.
    pub fn of(name: impl Into<Name>) -> TypeName {
        TypeName(name.into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A variable declaration (field, parameter, or local).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable name.
    pub name: Name,
    /// Declared type.
    pub type_name: TypeName,
}

impl VarDecl {
    /// Convenience constructor.
    pub fn new(name: impl Into<Name>, type_name: impl Into<Name>) -> VarDecl {
        VarDecl {
            name: name.into(),
            type_name: TypeName(type_name.into()),
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Reference to a parameter or local.
    Var(Name),
    /// Reference to a field of `this`/`self`.
    SelfField(Name),
    /// A literal (rendered verbatim).
    Literal(Name),
    /// Object construction.
    New(TypeName),
    /// A call to a free function.
    Call {
        /// Function name.
        function: Name,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A method call on an expression.
    MethodCall {
        /// Receiver.
        receiver: Box<Expr>,
        /// Method name.
        method: Name,
        /// Arguments.
        args: Vec<Expr>,
    },
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Local variable declaration with optional initializer.
    Local(VarDecl, Option<Expr>),
    /// Assignment to a local/param (`target = value`).
    Assign {
        /// Assignment target (resolved like [`Expr::Var`]).
        target: Name,
        /// Right-hand side.
        value: Expr,
    },
    /// Assignment to a field of `this`.
    AssignField {
        /// Field name on `this`.
        field: Name,
        /// Right-hand side.
        value: Expr,
    },
    /// Expression statement.
    Expr(Expr),
    /// Return statement.
    Return(Option<Expr>),
}

/// A function or method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Name.
    pub name: Name,
    /// Parameters, in order.
    pub params: Vec<VarDecl>,
    /// Return type; `None` = void.
    pub return_type: Option<TypeName>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl Function {
    /// An empty void function.
    pub fn new(name: impl Into<Name>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            return_type: None,
            body: Vec::new(),
        }
    }

    /// Builder: adds a parameter.
    #[must_use]
    pub fn param(mut self, name: impl Into<Name>, type_name: impl Into<Name>) -> Function {
        self.params.push(VarDecl::new(name, type_name));
        self
    }

    /// Builder: sets the return type.
    #[must_use]
    pub fn returns(mut self, type_name: impl Into<Name>) -> Function {
        self.return_type = Some(TypeName(type_name.into()));
        self
    }

    /// Builder: appends a statement.
    #[must_use]
    pub fn stmt(mut self, stmt: Stmt) -> Function {
        self.body.push(stmt);
        self
    }
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDecl {
    /// Class name.
    pub name: Name,
    /// Superclass, if any.
    pub extends: Option<TypeName>,
    /// Fields.
    pub fields: Vec<VarDecl>,
    /// Methods.
    pub methods: Vec<Function>,
}

impl ClassDecl {
    /// An empty class.
    pub fn new(name: impl Into<Name>) -> ClassDecl {
        ClassDecl {
            name: name.into(),
            extends: None,
            fields: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// Builder: sets the superclass.
    #[must_use]
    pub fn extends(mut self, type_name: impl Into<Name>) -> ClassDecl {
        self.extends = Some(TypeName(type_name.into()));
        self
    }

    /// Builder: adds a field.
    #[must_use]
    pub fn field(mut self, name: impl Into<Name>, type_name: impl Into<Name>) -> ClassDecl {
        self.fields.push(VarDecl::new(name, type_name));
        self
    }

    /// Builder: adds a method.
    #[must_use]
    pub fn method(mut self, function: Function) -> ClassDecl {
        self.methods.push(function);
        self
    }
}

/// Lint markers recorded by generators (surfaced as compiler warnings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintMarker {
    /// javac's "uses unchecked or unsafe operations" — the Axis1/Axis2
    /// artifact signature.
    UncheckedOperations,
}

/// One generated compilation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeUnit {
    /// File name (with extension).
    pub file_name: Name,
    /// Declared classes.
    pub classes: Vec<ClassDecl>,
    /// Free functions (C++/JScript/PHP-style units).
    pub functions: Vec<Function>,
    /// Lint markers.
    pub lints: Vec<LintMarker>,
}

impl CodeUnit {
    /// An empty unit.
    pub fn new(file_name: impl Into<Name>) -> CodeUnit {
        CodeUnit {
            file_name: file_name.into(),
            classes: Vec::new(),
            functions: Vec::new(),
            lints: Vec::new(),
        }
    }

    /// Builder: adds a class.
    #[must_use]
    pub fn class(mut self, class: ClassDecl) -> CodeUnit {
        self.classes.push(class);
        self
    }

    /// Builder: adds a free function.
    #[must_use]
    pub fn function(mut self, function: Function) -> CodeUnit {
        self.functions.push(function);
        self
    }

    /// Builder: adds a lint marker.
    #[must_use]
    pub fn lint(mut self, marker: LintMarker) -> CodeUnit {
        self.lints.push(marker);
        self
    }
}

/// Everything one client generator produced for one service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactBundle {
    /// Source language.
    pub language: ArtifactLanguage,
    /// Generated units.
    pub units: Vec<CodeUnit>,
    /// Name of the client proxy class an application would instantiate.
    pub entry_point: Option<Name>,
}

impl ArtifactBundle {
    /// An empty bundle for a language.
    pub fn new(language: ArtifactLanguage) -> ArtifactBundle {
        ArtifactBundle {
            language,
            units: Vec::new(),
            entry_point: None,
        }
    }

    /// Builder: adds a unit.
    #[must_use]
    pub fn unit(mut self, unit: CodeUnit) -> ArtifactBundle {
        self.units.push(unit);
        self
    }

    /// Builder: sets the proxy entry point.
    #[must_use]
    pub fn entry(mut self, class_name: impl Into<Name>) -> ArtifactBundle {
        self.entry_point = Some(class_name.into());
        self
    }

    /// Iterates over all declared classes across units.
    pub fn all_classes(&self) -> impl Iterator<Item = &ClassDecl> {
        self.units.iter().flat_map(|u| u.classes.iter())
    }

    /// Iterates over all free functions across units.
    pub fn all_functions(&self) -> impl Iterator<Item = &Function> {
        self.units.iter().flat_map(|u| u.functions.iter())
    }

    /// Finds the entry-point class declaration, if it exists.
    pub fn entry_class(&self) -> Option<&ClassDecl> {
        let name = self.entry_point.as_deref()?;
        self.all_classes().find(|c| c.name == name)
    }

    /// Total class count.
    pub fn class_count(&self) -> usize {
        self.units.iter().map(|u| u.classes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> ArtifactBundle {
        ArtifactBundle::new(ArtifactLanguage::Java)
            .unit(
                CodeUnit::new("EchoService.java")
                    .class(
                        ClassDecl::new("EchoService")
                            .field("endpoint", "String")
                            .method(
                                Function::new("echo")
                                    .param("arg0", "int")
                                    .returns("int")
                                    .stmt(Stmt::Return(Some(Expr::Var("arg0".into())))),
                            ),
                    )
                    .lint(LintMarker::UncheckedOperations),
            )
            .entry("EchoService")
    }

    #[test]
    fn bundle_accessors() {
        let bundle = sample_bundle();
        assert_eq!(bundle.class_count(), 1);
        assert!(bundle.entry_class().is_some());
        assert_eq!(bundle.all_classes().count(), 1);
        assert_eq!(bundle.all_functions().count(), 0);
    }

    #[test]
    fn entry_class_missing_is_none() {
        let bundle = ArtifactBundle::new(ArtifactLanguage::Php).entry("Ghost");
        assert!(bundle.entry_class().is_none());
    }

    #[test]
    fn language_properties() {
        assert!(ArtifactLanguage::Java.compiled());
        assert!(!ArtifactLanguage::Php.compiled());
        assert!(!ArtifactLanguage::Python.compiled());
        assert!(ArtifactLanguage::VisualBasic.case_insensitive_identifiers());
        assert!(!ArtifactLanguage::CSharp.case_insensitive_identifiers());
        assert_eq!(ArtifactLanguage::JScript.extension(), "js");
    }

    #[test]
    fn builders_compose() {
        let class = ClassDecl::new("A")
            .extends("Base")
            .field("x", "int")
            .method(Function::new("m"));
        assert_eq!(class.extends.as_ref().unwrap().as_str(), "Base");
        assert_eq!(class.fields.len(), 1);
        assert_eq!(class.methods.len(), 1);
    }
}
