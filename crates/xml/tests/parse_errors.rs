//! Golden parse errors: the exact `Display` text, position included,
//! that the parser reports for malformed input.
//!
//! These strings are not just diagnostics. Client tools report an
//! unreadable description as `cannot read WSDL: {error}`, the campaign
//! records that text in its results and journal, and the error
//! classifier reads it. Any change to wording or to the `line:col`
//! position changes campaign output, so each one is pinned here.

use wsinterop_xml::parse_arena;

const CASES: &[(&str, &str, &str)] = &[
    (
        "duplicate attribute",
        "<a x=\"1\" b=\"2\" x=\"3\"/>",
        "XML parse error at 1:21: duplicate attribute `x`",
    ),
    (
        "duplicate attribute after a non-ASCII name",
        "<héllo><wörld x=\"1\" x=\"2\"/></héllo>",
        "XML parse error at 1:26: duplicate attribute `x`",
    ),
    (
        "mismatched end tag",
        "<a>\n  <b></c>\n</a>",
        "XML parse error at 2:9: mismatched end tag: expected `</b>`, found `</c>`",
    ),
    (
        "mismatched prefixed end tag",
        "<wsdl:definitions xmlns:wsdl=\"urn:w\">\n  <wsdl:types>\n  </wsdl:definitions>",
        "XML parse error at 3:21: mismatched end tag: expected `</wsdl:types>`, \
         found `</wsdl:definitions>`",
    ),
    (
        "undeclared element prefix",
        "<r>\n<p:a/></r>",
        "XML parse error at 2:5: undeclared namespace prefix `p`",
    ),
    (
        "prefix bound to the empty URI",
        "<a xmlns:p=\"\"><p:b/></a>",
        "XML parse error at 1:19: undeclared namespace prefix `p`",
    ),
    (
        "undeclared attribute prefix",
        "<a q:x=\"1\"/>",
        "XML parse error at 1:11: undeclared namespace prefix `q` on attribute `q:x`",
    ),
    (
        "`<` in an attribute value",
        "<a x=\"1<2\"/>",
        "XML parse error at 1:7: `<` not allowed in attribute value",
    ),
    (
        "unterminated attribute value",
        "<a x=\"1/>",
        "XML parse error at 1:7: unterminated attribute value",
    ),
    (
        "bad entity in character data",
        "<a>&bogus;</a>",
        "XML parse error at 1:4: bad character data: unknown entity `&bogus;` at byte 0",
    ),
    (
        "bad entity in an attribute value",
        "<a b='&amp'/>",
        "XML parse error at 1:7: bad attribute value: unterminated entity reference at byte 0",
    ),
    (
        "content after the root",
        "<a>\n</a>\n<b/>",
        "XML parse error at 3:1: content after root element",
    ),
    (
        "truncated mid-tag",
        "<a><b c",
        "XML parse error at 1:8: expected `=`",
    ),
    (
        "truncated in content",
        "<a>text",
        "XML parse error at 1:8: unexpected end of input inside `<a>`",
    ),
    (
        "truncated mid-comment",
        "<a><!-- never closed </a>",
        "XML parse error at 1:8: unterminated comment",
    ),
    (
        "comment ending in `-`",
        "<a><!-- a ---></a>",
        "XML parse error at 1:8: `--` not allowed inside comment",
    ),
    (
        "DOCTYPE internal subset",
        "<!DOCTYPE a [<!ENTITY e \"v\">]><a/>",
        "XML parse error at 1:1: DOCTYPE internal subsets are not supported",
    ),
    (
        "element name with two colons",
        "<a:b:c/>",
        "XML parse error at 1:7: bad element name: invalid QName `a:b:c`: \
         local part is not an NCName",
    ),
    (
        "attribute name starting with a digit",
        "<a 1x=\"v\"/>",
        "XML parse error at 1:4: expected a name",
    ),
];

#[test]
fn malformed_inputs_report_pinned_errors() {
    for (what, input, expected) in CASES {
        let err = parse_arena(input).expect_err(what);
        assert_eq!(err.to_string(), *expected, "{what}: {input:?}");
    }
}
