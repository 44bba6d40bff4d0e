//! Escaping and unescaping of XML character data and attribute values.
//!
//! XML 1.0 defines five predefined entities (`&amp;`, `&lt;`, `&gt;`,
//! `&quot;`, `&apos;`) plus numeric character references
//! (`&#decimal;` / `&#xhex;`). This module implements both directions for
//! the subset of XML the rest of the workspace emits and consumes.

use std::borrow::Cow;
use std::fmt;

/// Escapes character data (element text content).
///
/// `<`, `&` and `>` are replaced by entity references. Quotes are left
/// untouched because they carry no meaning inside character data.
///
/// Returns [`Cow::Borrowed`] when no escaping is required so that the
/// common case allocates nothing.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::escape::escape_text;
/// assert_eq!(escape_text("a < b & c"), "a &lt; b &amp; c");
/// assert_eq!(escape_text("plain"), "plain");
/// ```
pub fn escape_text(raw: &str) -> Cow<'_, str> {
    escape_with(raw, text_entity)
}

/// Escapes an attribute value for emission inside double quotes.
///
/// In addition to the character-data escapes, `"` must be escaped, and
/// tab/newline/carriage-return are emitted as numeric references so that
/// attribute-value normalization performed by a conforming parser cannot
/// alter the value.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::escape::escape_attr;
/// assert_eq!(escape_attr(r#"say "hi" & go"#), "say &quot;hi&quot; &amp; go");
/// assert_eq!(escape_attr("a\tb"), "a&#9;b");
/// ```
pub fn escape_attr(raw: &str) -> Cow<'_, str> {
    escape_with(raw, attr_entity)
}

/// Appends `raw` to `out`, escaped as [`escape_text`] does.
pub(crate) fn push_escaped_text(out: &mut String, raw: &str) {
    push_escaped(out, raw, text_entity);
}

/// Appends `raw` to `out`, escaped as [`escape_attr`] does.
pub(crate) fn push_escaped_attr(out: &mut String, raw: &str) {
    push_escaped(out, raw, attr_entity);
}

fn text_entity(b: u8) -> Option<&'static str> {
    match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    }
}

fn attr_entity(b: u8) -> Option<&'static str> {
    match b {
        b'"' => Some("&quot;"),
        b'\t' => Some("&#9;"),
        b'\n' => Some("&#10;"),
        b'\r' => Some("&#13;"),
        _ => text_entity(b),
    }
}

/// Copies `raw` to `out` run by run, replacing each byte `entity` maps.
/// Every escaped character is ASCII, so a replaced byte is never part
/// of a multi-byte UTF-8 sequence.
fn push_escaped(out: &mut String, raw: &str, entity: impl Fn(u8) -> Option<&'static str>) {
    let mut run = 0;
    for (i, b) in raw.bytes().enumerate() {
        if let Some(rep) = entity(b) {
            out.push_str(&raw[run..i]);
            out.push_str(rep);
            run = i + 1;
        }
    }
    out.push_str(&raw[run..]);
}

fn escape_with(raw: &str, entity: impl Fn(u8) -> Option<&'static str>) -> Cow<'_, str> {
    if !raw.bytes().any(|b| entity(b).is_some()) {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len() + 8);
    push_escaped(&mut out, raw, entity);
    Cow::Owned(out)
}

/// An error produced while expanding entity references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnescapeError {
    /// Byte offset of the offending `&` within the input.
    pub offset: usize,
    /// Description of what went wrong.
    pub kind: UnescapeErrorKind,
}

/// The specific failure encountered while unescaping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnescapeErrorKind {
    /// An `&` that is not followed by a terminated entity reference.
    UnterminatedEntity,
    /// An entity name that is not one of the five predefined entities.
    UnknownEntity(String),
    /// A numeric character reference that does not denote a valid char.
    InvalidCharRef(String),
}

impl fmt::Display for UnescapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            UnescapeErrorKind::UnterminatedEntity => {
                write!(f, "unterminated entity reference at byte {}", self.offset)
            }
            UnescapeErrorKind::UnknownEntity(name) => {
                write!(f, "unknown entity `&{};` at byte {}", name, self.offset)
            }
            UnescapeErrorKind::InvalidCharRef(raw) => {
                write!(
                    f,
                    "invalid character reference `&#{};` at byte {}",
                    raw, self.offset
                )
            }
        }
    }
}

impl std::error::Error for UnescapeError {}

/// Expands the five predefined entities and numeric character references.
///
/// Returns [`Cow::Borrowed`] when the input contains no `&`.
///
/// # Errors
///
/// Returns [`UnescapeError`] on unterminated references, unknown entity
/// names, or numeric references that do not map to a Unicode scalar value.
///
/// # Examples
///
/// ```
/// use wsinterop_xml::escape::unescape;
/// assert_eq!(unescape("a &lt; b &amp; c")?, "a < b & c");
/// assert_eq!(unescape("&#65;&#x42;")?, "AB");
/// # Ok::<(), wsinterop_xml::escape::UnescapeError>(())
/// ```
pub fn unescape(raw: &str) -> Result<Cow<'_, str>, UnescapeError> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Advance over one UTF-8 encoded char.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&raw[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        let semi = raw[i..]
            .find(';')
            .ok_or(UnescapeError {
                offset: i,
                kind: UnescapeErrorKind::UnterminatedEntity,
            })
            .map(|rel| i + rel)?;
        let name = &raw[i + 1..semi];
        match name {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                if let Some(num) = name.strip_prefix('#') {
                    let code = if let Some(hex) = num.strip_prefix('x').or(num.strip_prefix('X')) {
                        u32::from_str_radix(hex, 16)
                    } else {
                        num.parse::<u32>()
                    };
                    let ch = code.ok().and_then(char::from_u32).ok_or(UnescapeError {
                        offset: i,
                        kind: UnescapeErrorKind::InvalidCharRef(num.to_string()),
                    })?;
                    out.push(ch);
                } else {
                    return Err(UnescapeError {
                        offset: i,
                        kind: UnescapeErrorKind::UnknownEntity(name.to_string()),
                    });
                }
            }
        }
        i = semi + 1;
    }
    Ok(Cow::Owned(out))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_passthrough_borrows() {
        assert!(matches!(escape_text("hello"), Cow::Borrowed(_)));
    }

    #[test]
    fn text_escapes_specials() {
        assert_eq!(escape_text("<a & b>"), "&lt;a &amp; b&gt;");
    }

    #[test]
    fn attr_escapes_quotes_and_whitespace() {
        assert_eq!(escape_attr("x\"y"), "x&quot;y");
        assert_eq!(escape_attr("x\ny"), "x&#10;y");
        assert_eq!(escape_attr("x\ry"), "x&#13;y");
    }

    #[test]
    fn attr_passthrough_borrows() {
        assert!(matches!(escape_attr("simple value"), Cow::Borrowed(_)));
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(
            unescape("&lt;&gt;&amp;&quot;&apos;").unwrap(),
            "<>&\"'"
        );
    }

    #[test]
    fn unescape_numeric_decimal_and_hex() {
        assert_eq!(unescape("&#65;").unwrap(), "A");
        assert_eq!(unescape("&#x41;").unwrap(), "A");
        assert_eq!(unescape("&#x1F600;").unwrap(), "\u{1F600}");
    }

    #[test]
    fn unescape_multibyte_passthrough() {
        assert_eq!(unescape("héllo ✓ &amp; done").unwrap(), "héllo ✓ & done");
    }

    #[test]
    fn unescape_rejects_unterminated() {
        let err = unescape("a &lt b").unwrap_err();
        assert_eq!(err.kind, UnescapeErrorKind::UnterminatedEntity);
        assert_eq!(err.offset, 2);
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        let err = unescape("&nbsp;").unwrap_err();
        assert_eq!(err.kind, UnescapeErrorKind::UnknownEntity("nbsp".into()));
    }

    #[test]
    fn unescape_rejects_bad_char_ref() {
        assert!(unescape("&#xD800;").is_err()); // surrogate
        assert!(unescape("&#notanumber;").is_err());
    }

    #[test]
    fn roundtrip_text() {
        let raw = "a<b>&c\"d'e\u{00e9}";
        assert_eq!(unescape(&escape_text(raw)).unwrap(), raw);
    }

    #[test]
    fn roundtrip_attr() {
        let raw = "a<b>\"c\t\n\r&";
        assert_eq!(unescape(&escape_attr(raw)).unwrap(), raw);
    }
}
