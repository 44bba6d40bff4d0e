//! # wsinterop-artifact
//!
//! The language-neutral **client artifact** code model plus per-language
//! source renderers.
//!
//! In the reproduced study, client-side framework subsystems consume a
//! WSDL and emit stub code (Java classes, C# proxies, gSOAP C++
//! headers, …). This crate models that output as data — classes,
//! fields, methods, statements — so the simulated compilers in
//! `wsinterop-compilers` can run genuine semantic checks over it, and
//! so examples can render realistic stub source in all seven target
//! languages.
//!
//! ## Example
//!
//! ```
//! use wsinterop_artifact::{ArtifactBundle, ArtifactLanguage, ClassDecl, CodeUnit, Function};
//! use wsinterop_artifact::render::render_bundle;
//!
//! let bundle = ArtifactBundle::new(ArtifactLanguage::Java)
//!     .unit(CodeUnit::new("Echo.java").class(
//!         ClassDecl::new("Echo").method(Function::new("call")),
//!     ))
//!     .entry("Echo");
//! let files = render_bundle(&bundle);
//! assert!(files[0].1.contains("public class Echo"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod render;

pub use model::{
    ArtifactBundle, ArtifactLanguage, ClassDecl, CodeUnit, Expr, Function, LintMarker, Name,
    Stmt, TypeName, VarDecl,
};
