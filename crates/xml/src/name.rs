//! Qualified names ([`QName`]) and namespace-expanded names
//! ([`ExpandedName`]) per *Namespaces in XML 1.0*.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Well-known namespace URIs used throughout the workspace.
pub mod ns {
    /// The `xmlns` reserved namespace.
    pub const XMLNS: &str = "http://www.w3.org/2000/xmlns/";
    /// The `xml:` reserved namespace.
    pub const XML: &str = "http://www.w3.org/XML/1998/namespace";
    /// XML Schema definition namespace (`xsd:`/`s:`).
    pub const XSD: &str = "http://www.w3.org/2001/XMLSchema";
    /// XML Schema instance namespace (`xsi:`).
    pub const XSI: &str = "http://www.w3.org/2001/XMLSchema-instance";
    /// WSDL 1.1 namespace.
    pub const WSDL: &str = "http://schemas.xmlsoap.org/wsdl/";
    /// WSDL 1.1 SOAP binding namespace.
    pub const WSDL_SOAP: &str = "http://schemas.xmlsoap.org/wsdl/soap/";
    /// SOAP 1.1 envelope namespace.
    pub const SOAP_ENV: &str = "http://schemas.xmlsoap.org/soap/envelope/";
    /// SOAP-over-HTTP transport URI used in `soap:binding/@transport`.
    pub const SOAP_HTTP_TRANSPORT: &str = "http://schemas.xmlsoap.org/soap/http";
    /// W3C WS-Addressing WSDL extension namespace (as used by JAX-WS).
    pub const WSAW: &str = "http://www.w3.org/2006/05/addressing/wsdl";
    /// Microsoft serialization namespace used by DataSet-style bindings.
    pub const MS_DATA: &str = "urn:schemas-microsoft-com:xml-msdata";
}

/// Error returned when a string is not a valid `QName`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQNameError {
    raw: String,
    reason: &'static str,
}

impl ParseQNameError {
    /// The offending input.
    pub fn input(&self) -> &str {
        &self.raw
    }
}

impl fmt::Display for ParseQNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid QName `{}`: {}", self.raw, self.reason)
    }
}

impl std::error::Error for ParseQNameError {}

/// Returns `true` when `s` is a valid `NCName` (no-colon name).
///
/// We implement the practically relevant subset of the XML name grammar:
/// the first character must be a letter or `_`, and subsequent characters
/// may also be digits, `-`, `.`, or combining Unicode letters/digits.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::name::is_ncname;
/// assert!(is_ncname("definitions"));
/// assert!(is_ncname("_private-name.v2"));
/// assert!(!is_ncname("2fast"));
/// assert!(!is_ncname("a:b"));
/// assert!(!is_ncname(""));
/// ```
pub fn is_ncname(s: &str) -> bool {
    let bytes = s.as_bytes();
    if bytes.is_ascii() {
        return match bytes.split_first() {
            Some((&first, rest)) => {
                (first == b'_' || first.is_ascii_alphabetic())
                    && rest
                        .iter()
                        .all(|&b| matches!(b, b'_' | b'-' | b'.') || b.is_ascii_alphanumeric())
            }
            None => false,
        };
    }
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c == '_' || c.is_alphabetic() => {}
        _ => return false,
    }
    chars.all(|c| c == '_' || c == '-' || c == '.' || c.is_alphanumeric())
}

/// A lexical qualified name: optional prefix plus local part.
///
/// A `QName` is purely lexical — resolving the prefix to a namespace URI
/// requires the in-scope namespace bindings and yields an
/// [`ExpandedName`].
///
/// # Examples
///
/// ```
/// use wsinterop_xml::QName;
/// let q: QName = "wsdl:definitions".parse()?;
/// assert_eq!(q.prefix(), Some("wsdl"));
/// assert_eq!(q.local_part(), "definitions");
/// assert_eq!(q.to_string(), "wsdl:definitions");
/// # Ok::<(), wsinterop_xml::name::ParseQNameError>(())
/// ```
///
/// The name is stored as its lexical form in one allocation. Equality,
/// ordering, hashing and `Debug` behave as on the `(prefix, local)` pair.
#[derive(Clone, PartialEq, Eq)]
pub struct QName {
    /// `prefix:local` or `local`.
    raw: Box<str>,
    /// Byte offset of the local part: 0 when unprefixed, else one past
    /// the colon. Equal `raw` strings imply equal offsets, since an
    /// NCName holds no colon.
    local_start: usize,
}

impl QName {
    /// Creates a `QName` with no prefix.
    ///
    /// # Panics
    ///
    /// Panics if `local` is not a valid NCName; use [`QName::from_str`]
    /// for fallible construction from untrusted input.
    pub fn local(local: impl Into<String>) -> QName {
        let local = local.into();
        assert!(is_ncname(&local), "invalid NCName for QName local part: {local:?}");
        QName {
            raw: local.into_boxed_str(),
            local_start: 0,
        }
    }

    /// Creates a prefixed `QName`.
    ///
    /// # Panics
    ///
    /// Panics if either part is not a valid NCName.
    pub fn prefixed(prefix: impl Into<String>, local: impl Into<String>) -> QName {
        let prefix = prefix.into();
        let local = local.into();
        assert!(is_ncname(&prefix), "invalid NCName for QName prefix: {prefix:?}");
        assert!(is_ncname(&local), "invalid NCName for QName local part: {local:?}");
        QName {
            local_start: prefix.len() + 1,
            raw: format!("{prefix}:{local}").into_boxed_str(),
        }
    }

    /// The prefix, if any.
    pub fn prefix(&self) -> Option<&str> {
        split_at(&self.raw, self.local_start).0
    }

    /// The local part.
    pub fn local_part(&self) -> &str {
        &self.raw[self.local_start..]
    }

    /// Returns `true` when `raw` is this name's lexical form (`prefix:local`
    /// or `local`), without allocating.
    ///
    /// # Examples
    ///
    /// ```
    /// use wsinterop_xml::QName;
    /// let q = QName::prefixed("wsdl", "message");
    /// assert!(q.eq_lexical("wsdl:message"));
    /// assert!(!q.eq_lexical("message"));
    /// assert!(QName::local("message").eq_lexical("message"));
    /// ```
    pub fn eq_lexical(&self, raw: &str) -> bool {
        *self.raw == *raw
    }
}

impl fmt::Debug for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QName")
            .field("prefix", &self.prefix())
            .field("local", &self.local_part())
            .finish()
    }
}

impl Hash for QName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.prefix().hash(state);
        self.local_part().hash(state);
    }
}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &QName) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QName {
    fn cmp(&self, other: &QName) -> Ordering {
        self.prefix()
            .cmp(&other.prefix())
            .then_with(|| self.local_part().cmp(other.local_part()))
    }
}

/// Checks that `s` is a lexical QName without allocating, and returns
/// the byte offset of its local part (0 when unprefixed).
pub(crate) fn local_start(s: &str) -> Result<usize, ParseQNameError> {
    let err = |reason| ParseQNameError { raw: s.to_string(), reason };
    match s.split_once(':') {
        None if is_ncname(s) => Ok(0),
        None => Err(err("local part is not an NCName")),
        Some((p, _)) if !is_ncname(p) => Err(err("prefix is not an NCName")),
        Some((_, l)) if !is_ncname(l) => Err(err("local part is not an NCName")),
        Some((p, _)) => Ok(p.len() + 1),
    }
}

/// Splits a lexical name at `local_start` (as returned by
/// [`local_start`]) into `(prefix, local)`.
pub(crate) fn split_at(raw: &str, local_start: usize) -> (Option<&str>, &str) {
    let prefix = local_start.checked_sub(1).map(|colon| &raw[..colon]);
    (prefix, &raw[local_start..])
}

impl QName {
    /// A name already checked by [`local_start`].
    pub(crate) fn from_checked(raw: &str, local_start: usize) -> QName {
        QName {
            raw: raw.into(),
            local_start,
        }
    }
}

impl FromStr for QName {
    type Err = ParseQNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(QName::from_checked(s, local_start(s)?))
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

/// A namespace-resolved name: `{namespace-uri}local`.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::{name::ns, ExpandedName};
/// let n = ExpandedName::new(Some(ns::WSDL), "definitions");
/// assert_eq!(n.to_string(), "{http://schemas.xmlsoap.org/wsdl/}definitions");
/// assert_eq!(ExpandedName::new(None, "x").to_string(), "x");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExpandedName {
    ns_uri: Option<String>,
    local: String,
}

impl ExpandedName {
    /// Creates an expanded name; `ns_uri = None` means "no namespace".
    pub fn new(ns_uri: Option<&str>, local: impl Into<String>) -> ExpandedName {
        ExpandedName {
            ns_uri: ns_uri.map(str::to_string),
            local: local.into(),
        }
    }

    /// The namespace URI, if the name is in a namespace.
    pub fn ns_uri(&self) -> Option<&str> {
        self.ns_uri.as_deref()
    }

    /// The local part.
    pub fn local_part(&self) -> &str {
        &self.local
    }

    /// Tests a `(namespace, local)` pair in one call.
    pub fn is(&self, ns_uri: &str, local: &str) -> bool {
        self.ns_uri.as_deref() == Some(ns_uri) && self.local == local
    }
}

impl fmt::Display for ExpandedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ns_uri {
            Some(uri) => write!(f, "{{{}}}{}", uri, self.local),
            None => f.write_str(&self.local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qname_parse_unprefixed() {
        let q: QName = "binding".parse().unwrap();
        assert_eq!(q.prefix(), None);
        assert_eq!(q.local_part(), "binding");
    }

    #[test]
    fn qname_parse_prefixed() {
        let q: QName = "soap:address".parse().unwrap();
        assert_eq!(q.prefix(), Some("soap"));
        assert_eq!(q.local_part(), "address");
    }

    #[test]
    fn qname_rejects_empty_and_double_colon() {
        assert!("".parse::<QName>().is_err());
        assert!(":x".parse::<QName>().is_err());
        assert!("x:".parse::<QName>().is_err());
        assert!("a:b:c".parse::<QName>().is_err());
        assert!("1x".parse::<QName>().is_err());
    }

    #[test]
    fn qname_display_roundtrip() {
        for raw in ["a", "p:a", "_x-1.y", "xsd:complexType"] {
            let q: QName = raw.parse().unwrap();
            assert_eq!(q.to_string(), raw);
        }
    }

    #[test]
    fn ncname_unicode() {
        assert!(is_ncname("héllo"));
        assert!(!is_ncname("he llo"));
        assert!(is_ncname("ünïcode"));
        assert!(!is_ncname("٣x"), "a non-ASCII digit cannot start a name");
        assert!(is_ncname("x٣"));
    }

    #[test]
    fn ncname_ascii_fast_path_agrees_with_char_classes() {
        for b in 0u8..0x80 {
            let c = char::from(b);
            let first = c == '_' || c.is_alphabetic();
            let rest = first || c == '-' || c == '.' || c.is_alphanumeric();
            assert_eq!(is_ncname(&c.to_string()), first, "{c:?} first");
            assert_eq!(is_ncname(&format!("a{c}")), rest, "{c:?} rest");
        }
    }

    #[test]
    fn eq_lexical_matches_display() {
        for raw in ["a", "p:a", "xsd:complexType"] {
            let q: QName = raw.parse().unwrap();
            for probe in ["a", "p:a", "pa", "p:", ":a", "xsd:complexType", "xsd:T", ""] {
                let expected = q.to_string() == probe;
                assert_eq!(q.eq_lexical(probe), expected, "{raw} vs {probe}");
            }
        }
    }

    /// The derived `(prefix, local)` behaviour the single-allocation
    /// layout must keep: order, hash and `Debug`.
    #[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct Pair {
        prefix: Option<String>,
        local: String,
    }

    fn pair(q: &QName) -> Pair {
        Pair {
            prefix: q.prefix().map(str::to_string),
            local: q.local_part().to_string(),
        }
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn qname_orders_hashes_and_debugs_as_the_pair() {
        let raws = [
            "a", "b", "ab", "a:b", "a:a", "ab:a", "b:a", "a-:b", "a.b", "é", "z:é",
        ];
        let names: Vec<QName> = raws.iter().map(|r| r.parse().unwrap()).collect();
        for x in &names {
            let debug = format!("{x:?}").replace("QName", "Pair");
            assert_eq!(debug, format!("{:?}", pair(x)));
            assert_eq!(hash_of(x), hash_of(&pair(x)), "{x}");
            for y in &names {
                assert_eq!(x.cmp(y), pair(x).cmp(&pair(y)), "{x} vs {y}");
                assert_eq!(x == y, pair(x) == pair(y), "{x} vs {y}");
            }
        }
        assert_eq!(QName::prefixed("a", "b"), "a:b".parse().unwrap());
        assert_eq!(QName::local("b"), "b".parse().unwrap());
    }

    #[test]
    fn expanded_name_is() {
        let n = ExpandedName::new(Some(ns::XSD), "element");
        assert!(n.is(ns::XSD, "element"));
        assert!(!n.is(ns::XSD, "attribute"));
        assert!(!n.is(ns::WSDL, "element"));
    }

    #[test]
    fn expanded_name_ordering_is_stable() {
        let a = ExpandedName::new(Some("a"), "z");
        let b = ExpandedName::new(Some("b"), "a");
        assert!(a < b);
    }
}
