//! Runtime instantiation checks for dynamic-language artifacts.
//!
//! Zend (PHP) and suds (Python) have no compilation step; the paper
//! instead verifies that the generated client *object* can be
//! instantiated, and inspects whether it exposes any invocable
//! methods. This module performs the equivalent check over the
//! artifact model.

use std::fmt;

use wsinterop_artifact::ArtifactBundle;

/// The result of the dynamic instantiation check. It borrows the
/// proxy class name from the bundle; the text is formatted only when
/// the outcome is displayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstantiationOutcome<'a> {
    /// The client object could be constructed.
    pub constructed: bool,
    /// Number of service methods the client exposes.
    pub method_count: usize,
    /// The proxy class the generator designated, if any.
    pub proxy: Option<&'a str>,
}

impl InstantiationOutcome<'_> {
    /// `true` when the client is usable: constructed *and* has at
    /// least one invocable method.
    pub fn usable(&self) -> bool {
        self.constructed && self.method_count > 0
    }

    /// `true` for the paper's "client object without methods" case.
    pub fn empty_client(&self) -> bool {
        self.constructed && self.method_count == 0
    }
}

impl fmt::Display for InstantiationOutcome<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.constructed, self.proxy) {
            (_, None) => {
                f.write_str("instantiation failed: generator did not designate a proxy class")
            }
            (false, Some(name)) => {
                write!(
                    f,
                    "instantiation failed: proxy class `{name}` was not generated"
                )
            }
            (true, Some(name)) => write!(
                f,
                "client instantiated with {} method(s): proxy class `{name}`",
                self.method_count
            ),
        }
    }
}

/// Attempts to "instantiate" the bundle's entry-point client object.
pub fn instantiate(bundle: &ArtifactBundle) -> InstantiationOutcome<'_> {
    let class = bundle.entry_class();
    InstantiationOutcome {
        constructed: class.is_some(),
        method_count: class.map_or(0, |c| c.methods.len()),
        proxy: bundle.entry_point.as_deref(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_artifact::{ArtifactLanguage, ClassDecl, CodeUnit, Function};

    #[test]
    fn usable_client() {
        let bundle = ArtifactBundle::new(ArtifactLanguage::Python)
            .unit(
                CodeUnit::new("client.py")
                    .class(ClassDecl::new("Client").method(Function::new("echo"))),
            )
            .entry("Client");
        let outcome = instantiate(&bundle);
        assert!(outcome.usable());
        assert!(!outcome.empty_client());
    }

    #[test]
    fn empty_client_detected() {
        // The Zend/suds reaction to the operation-less JBossWS WSDLs.
        let bundle = ArtifactBundle::new(ArtifactLanguage::Php)
            .unit(CodeUnit::new("client.php").class(ClassDecl::new("Client")))
            .entry("Client");
        let outcome = instantiate(&bundle);
        assert!(outcome.constructed);
        assert!(outcome.empty_client());
        assert!(!outcome.usable());
    }

    #[test]
    fn missing_entry_point_fails() {
        let bundle = ArtifactBundle::new(ArtifactLanguage::Php).entry("Ghost");
        let outcome = instantiate(&bundle);
        assert!(!outcome.constructed);
        assert!(outcome.to_string().contains("Ghost"));
    }

    #[test]
    fn undesignated_entry_point_fails() {
        let bundle = ArtifactBundle::new(ArtifactLanguage::Python);
        assert!(!instantiate(&bundle).constructed);
    }
}
