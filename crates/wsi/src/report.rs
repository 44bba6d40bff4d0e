//! Findings and reports produced by the WS-I analyzer.

use std::fmt;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note; does not affect conformance.
    Note,
    /// Advisory; the document is conformant but risky.
    Warning,
    /// A Basic Profile violation; the document is non-conformant.
    Failure,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Failure => "failure",
        })
    }
}

/// A single analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Assertion identifier (e.g. `R2706`).
    pub assertion: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The WSDL component the finding is anchored to.
    pub target: String,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.assertion, self.severity, self.target, self.detail
        )
    }
}

/// The outcome of analyzing one WSDL document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    findings: Vec<Finding>,
}

impl Report {
    /// An empty (conformant) report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records a finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// All findings, in assertion order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// `true` when no failure-severity findings exist.
    ///
    /// Warnings and notes do not affect conformance — mirroring the
    /// WS-I analyzer the paper used, which passed e.g. operation-less
    /// port types.
    pub fn conformant(&self) -> bool {
        !self
            .findings
            .iter()
            .any(|f| f.severity == Severity::Failure)
    }

    /// Iterates over failures.
    pub fn failures(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Failure)
    }

    /// Iterates over warnings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
    }

    /// Iterates over notes.
    pub fn notes(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Note)
    }

    /// `true` when the report has neither failures nor warnings.
    pub fn clean(&self) -> bool {
        self.findings
            .iter()
            .all(|f| f.severity == Severity::Note)
    }
}

impl Report {
    /// Serializes the report as an XML conformance document, the form
    /// the real WS-I testing tools emit.
    ///
    /// ```xml
    /// <wsi:report xmlns:wsi="urn:wsinterop:wsi-report" conformant="false">
    ///   <wsi:finding assertion="R2105" severity="failure" target="…">…</wsi:finding>
    /// </wsi:report>
    /// ```
    pub fn to_xml(&self) -> String {
        use wsinterop_xml::writer::{write_document, WriteOptions};
        use wsinterop_xml::{Document, Element};

        const REPORT_NS: &str = "urn:wsinterop:wsi-report";
        let mut root = Element::new("wsi:report")
            .with_ns_decl(Some("wsi"), REPORT_NS)
            .with_attr("conformant", self.conformant().to_string());
        for finding in &self.findings {
            root.push_element(
                Element::new("wsi:finding")
                    .with_attr("assertion", finding.assertion)
                    .with_attr("severity", finding.severity.to_string())
                    .with_attr("target", &finding.target)
                    .with_text(finding.detail.clone()),
            );
        }
        write_document(&Document::new(root), &WriteOptions::pretty())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return writeln!(f, "WS-I Basic Profile 1.1: conformant (no findings)");
        }
        writeln!(
            f,
            "WS-I Basic Profile 1.1: {} ({} findings)",
            if self.conformant() {
                "conformant"
            } else {
                "NOT conformant"
            },
            self.findings.len()
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(sev: Severity) -> Finding {
        Finding {
            assertion: "R0000",
            severity: sev,
            target: "t".into(),
            detail: "d".into(),
        }
    }

    #[test]
    fn empty_report_is_conformant_and_clean() {
        let r = Report::new();
        assert!(r.conformant());
        assert!(r.clean());
    }

    #[test]
    fn warnings_do_not_break_conformance() {
        let mut r = Report::new();
        r.push(f(Severity::Warning));
        assert!(r.conformant());
        assert!(!r.clean());
        assert_eq!(r.warnings().count(), 1);
        assert_eq!(r.failures().count(), 0);
    }

    #[test]
    fn failures_break_conformance() {
        let mut r = Report::new();
        r.push(f(Severity::Note));
        r.push(f(Severity::Failure));
        assert!(!r.conformant());
        assert_eq!(r.notes().count(), 1);
    }

    #[test]
    fn display_mentions_conformance() {
        let mut r = Report::new();
        assert!(r.to_string().contains("conformant"));
        r.push(f(Severity::Failure));
        assert!(r.to_string().contains("NOT conformant"));
    }

    #[test]
    fn xml_report_roundtrips_through_the_xml_stack() {
        let mut r = Report::new();
        r.push(Finding {
            assertion: "R2105",
            severity: Severity::Failure,
            target: "message `m` part `p`".into(),
            detail: "references undeclared element <ghost> & friends".into(),
        });
        r.push(f(Severity::Warning));
        let xml = r.to_xml();
        let doc = wsinterop_xml::parse_arena(&xml).unwrap();
        assert_eq!(doc.root().attr("conformant"), Some("false"));
        let findings: Vec<_> = doc.root().child_elements().collect();
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].attr("assertion"), Some("R2105"));
        assert_eq!(findings[0].attr("severity"), Some("failure"));
        assert!(findings[0]
            .text_content()
            .contains("<ghost> & friends"));
    }

    #[test]
    fn conformant_xml_report() {
        let xml = Report::new().to_xml();
        assert!(xml.contains(r#"conformant="true""#));
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Failure);
    }
}
