//! Bit-identity of the parse path over the published corpus.
//!
//! `parse_for_generation` is the single text-to-document step behind
//! every client tool. Its result — the `Definitions`, the `DocFacts`,
//! or the `cannot read WSDL: …` error string — feeds every Table III
//! cell. This test renders that result with `{:?}` for every
//! stride-20 published WSDL and for a fixed set of damaged variants of
//! each (truncations and single-byte flips, which hit most of the
//! parser's error paths), and pins a digest of the lot. A parser
//! change that alters any document, fact or error message changes the
//! digest.

use wsinterop::core::doccache::content_hash;
use wsinterop::frameworks::client::parse_for_generation;
use wsinterop::frameworks::server::{all_servers, DeployOutcome};

const STRIDE: usize = 20;

/// Every `STRIDE`-th published WSDL of every server, in catalog order.
fn published() -> Vec<String> {
    let mut docs = Vec::new();
    for server in all_servers() {
        for entry in server.catalog().entries().iter().step_by(STRIDE) {
            if let DeployOutcome::Deployed { wsdl_xml } = server.deploy(entry) {
                docs.push(wsdl_xml);
            }
        }
    }
    docs
}

/// The nearest char boundary at or after `at`.
fn boundary(doc: &str, mut at: usize) -> usize {
    while !doc.is_char_boundary(at) {
        at += 1;
    }
    at
}

/// Damaged variants of `doc`: three truncations and four ASCII byte
/// flips, at positions that depend on the document's index `k` so that
/// the corpus covers many different cut and flip sites.
fn variants(k: usize, doc: &str) -> Vec<String> {
    let len = doc.len();
    let mut out = Vec::new();
    for (num, den) in [(1, 5), (1, 2), (4, 5)] {
        let cut = boundary(doc, (len * num / den + k) % len);
        out.push(doc[..cut].to_string());
    }
    for (j, mask) in [0x01u8, 0x02, 0x04, 0x20].into_iter().enumerate() {
        let mut bytes = doc.as_bytes().to_vec();
        let mut at = (len * (j + 1) / 5 + 7 * k) % len;
        while !bytes[at].is_ascii() {
            at = (at + 1) % len;
        }
        bytes[at] ^= mask;
        out.push(String::from_utf8(bytes).expect("an ASCII flip keeps UTF-8"));
    }
    out
}

#[test]
fn parse_for_generation_is_bit_identical_over_the_corpus() {
    let docs = published();
    let mut digest = content_hash(b"");
    let (mut parsed, mut readable) = (0usize, 0usize);
    for (k, doc) in docs.iter().enumerate() {
        let inputs = std::iter::once(doc.clone()).chain(variants(k, doc));
        for text in inputs {
            let result = parse_for_generation(&text);
            parsed += 1;
            readable += usize::from(result.is_ok());
            let rendered = format!("{result:?}");
            digest = content_hash(&[&digest.to_le_bytes()[..], rendered.as_bytes()].concat());
        }
    }
    assert_eq!((docs.len(), parsed, readable), (364, 2912, 1157));
    assert_eq!(digest, 0xe428_6eb8_3adb_264b, "digest {digest:#018x}");
}
