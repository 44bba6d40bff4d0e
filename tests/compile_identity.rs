//! Bit-identity of the artifact path over the full paper matrix.
//!
//! For every stride-1 cell — each of the 7 239 deployed documents of
//! the three servers against each of the eleven clients — this test
//! generates the client artifacts and classifies them the way the
//! campaign does: static clients compile, dynamic clients instantiate.
//! It pins three digests:
//!
//! - the rendered source of every bundle (`render_bundle`), which
//!   covers every name, type and statement the generators emit;
//! - the `Display` of every `CompileOutcome`: each diagnostic's level,
//!   code, location and message, plus the crash flag;
//! - the `Display` of every `InstantiationOutcome`.
//!
//! A change to the generators, the model, the compile checks or the
//! instantiation check that alters any byte of these moves a digest.

use wsinterop::artifact::render::render_bundle;
use wsinterop::compilers::{compiler_for, instantiate};
use wsinterop::frameworks::client::{all_clients, parse_for_generation, CompilationMode};
use wsinterop::frameworks::server::{all_servers, DeployOutcome};
use wsinterop::typecat::rng::fnv1a;

/// Folds `bytes` into a running digest.
fn fold(digest: u64, bytes: &[u8]) -> u64 {
    fnv1a([&digest.to_le_bytes()[..], bytes].concat())
}

#[derive(Debug, PartialEq, Eq)]
struct Pins {
    documents: usize,
    cells: usize,
    compiled: usize,
    instantiated: usize,
    bundles: u64,
    compiles: u64,
    instantiations: u64,
}

fn digest_matrix() -> Pins {
    let clients = all_clients();
    let seed = fnv1a(b"");
    let mut pins = Pins {
        documents: 0,
        cells: 0,
        compiled: 0,
        instantiated: 0,
        bundles: seed,
        compiles: seed,
        instantiations: seed,
    };
    for server in all_servers() {
        for entry in server.catalog().entries() {
            let DeployOutcome::Deployed { wsdl_xml } = server.deploy(entry) else {
                continue;
            };
            pins.documents += 1;
            let parsed = parse_for_generation(&wsdl_xml);
            for client in &clients {
                pins.cells += 1;
                let info = client.info();
                let header = format!("{} {} {}\n", info.id, server.info().id, entry.fqcn);
                let outcome = match &parsed {
                    Ok((defs, facts)) => client.generate_from(defs, facts),
                    Err(_) => continue,
                };
                let Some(bundle) = &outcome.artifacts else {
                    continue;
                };
                pins.bundles = fold(pins.bundles, header.as_bytes());
                for (file, text) in render_bundle(bundle) {
                    pins.bundles = fold(pins.bundles, file.as_bytes());
                    pins.bundles = fold(pins.bundles, text.as_bytes());
                }
                if info.compilation == CompilationMode::Dynamic {
                    if outcome.error.is_none() {
                        pins.instantiated += 1;
                        let text = format!("{header}{}\n", instantiate(bundle));
                        pins.instantiations = fold(pins.instantiations, text.as_bytes());
                    }
                } else if let Some(compiler) = compiler_for(bundle.language) {
                    pins.compiled += 1;
                    let text = format!("{header}{}", compiler.compile(bundle));
                    pins.compiles = fold(pins.compiles, text.as_bytes());
                }
            }
        }
    }
    pins
}

#[test]
fn artifacts_and_verdicts_are_bit_identical_over_the_paper_matrix() {
    let pins = digest_matrix();
    assert_eq!(
        pins,
        Pins {
            documents: 7_239,
            cells: 79_629,
            compiled: 64_875,
            instantiated: 14_475,
            bundles: 0xd0dd_9db2_372b_1554,
            compiles: 0x07f0_b49b_ba81_31e0,
            instantiations: 0x8f41_fb27_13b6_1145,
        }
    );
}
