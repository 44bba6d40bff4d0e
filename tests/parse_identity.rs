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
//!
//! Two more digests pin the *written* bytes, which a parse result
//! cannot see (whitespace, attribute order, escaping): every deployment
//! outcome of every extension server at stride 1 — published WSDL and
//! refusal reasons alike — and the compact SOAP envelopes the survey
//! exchanges over the stride-20 corpus.

use wsinterop::core::doccache::content_hash;
use wsinterop::core::exchange::{first_survey_operation, serve_echo, SURVEY_PROBE};
use wsinterop::frameworks::client::parse_for_generation;
use wsinterop::frameworks::server::{all_servers, extension_servers, DeployOutcome};
use wsinterop::wsdl::{de::from_xml_str, soap};
use wsinterop::xml::writer::{write_document, WriteOptions};

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

/// Folds `bytes` into a running digest.
fn fold(digest: u64, bytes: &[u8]) -> u64 {
    content_hash(&[&digest.to_le_bytes()[..], bytes].concat())
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

#[test]
fn every_deployment_outcome_is_byte_identical() {
    let mut digest = content_hash(b"");
    let (mut outcomes, mut deployed, mut bytes) = (0usize, 0usize, 0usize);
    for server in extension_servers() {
        for entry in server.catalog().entries() {
            let outcome = server.deploy(entry);
            outcomes += 1;
            if let DeployOutcome::Deployed { wsdl_xml } = &outcome {
                deployed += 1;
                bytes += wsdl_xml.len();
            }
            digest = fold(digest, format!("{outcome:?}").as_bytes());
        }
    }
    assert_eq!((outcomes, deployed, bytes), (25_995, 9_728, 26_163_243));
    assert_eq!(digest, 0xd613_76df_3277_6282, "digest {digest:#018x}");
}

#[test]
fn survey_envelopes_are_byte_identical() {
    let compact = WriteOptions::compact();
    let mut digest = content_hash(b"");
    let mut envelopes = 0usize;
    let mut pin = |xml: String| {
        envelopes += 1;
        digest = fold(digest, xml.as_bytes());
    };
    for doc in published() {
        let Some(op) = first_survey_operation(&doc) else {
            pin(write_document(&soap::fault("Client", "no operations <&>"), &compact));
            continue;
        };
        let defs = from_xml_str(&doc).expect("a published WSDL parses");
        for value in [SURVEY_PROBE, "a<b & \"c\" > 'd'\t\u{e9}"] {
            match soap::request(&defs, &op, value) {
                Ok(request) => {
                    let request = write_document(&request, &compact);
                    pin(serve_echo(&defs, &request));
                    pin(request);
                }
                Err(e) => pin(write_document(&soap::fault("Client", &e.to_string()), &compact)),
            }
        }
        pin(write_document(&soap::fault("Server", &format!("`{op}` <failed> & \"quoted\"")), &compact));
    }
    assert_eq!(envelopes, 1_820);
    assert_eq!(digest, 0x258a_92c0_c9b4_4f08, "digest {digest:#018x}");
}
