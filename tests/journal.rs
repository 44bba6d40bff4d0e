//! Crash-safety contract of the campaign journal (E14): a journaled
//! run is bit-identical to a plain run; a run killed mid-campaign and
//! resumed — at any tear point, at any thread count — reproduces the
//! uninterrupted output exactly; and the reader tolerates arbitrary
//! torn or corrupted tails without ever panicking.

use proptest::prelude::*;
use std::path::PathBuf;
use wsinterop::core::doccache::content_hash;
use wsinterop::core::journal::{
    encode_cell, read_journal, read_journal_bytes, JournalCell, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
use wsinterop::core::{
    BreakerConfig, Campaign, FaultPlan, InstantiationKind, JournalError, TestRecord,
};
use wsinterop::frameworks::client::ClientId;
use wsinterop::frameworks::server::ServerId;
use wsinterop::typecat::rng::fnv1a;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wsitool-journal-test-{}-{name}", std::process::id()))
}

/// Builds a well-formed journal image in memory: header + one frame
/// per cell, exactly as [`wsinterop::core::JournalWriter`] lays it out.
fn image(config_hash: u64, cells: &[JournalCell]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&config_hash.to_le_bytes());
    bytes.extend_from_slice(&content_hash(&bytes).to_le_bytes());
    for cell in cells {
        bytes.extend_from_slice(&encode_cell(cell));
    }
    bytes
}

// --- end-to-end: journal writing and resume -------------------------

#[test]
fn journaled_run_is_bit_identical_to_a_plain_run() {
    let path = temp_path("plain");
    let plain = Campaign::sampled(199).run();
    let journaled = Campaign::sampled(199).with_journal(&path).run();
    assert_eq!(plain.services, journaled.services);
    assert_eq!(plain.tests, journaled.tests);

    // The journal holds exactly one clean record per classified cell…
    let read = read_journal(&path).expect("journal reads back");
    assert_eq!(read.cells.len(), journaled.tests.len());
    assert!(!read.torn());

    // …and a full resume replays every cell to the same results.
    let resumed = Campaign::sampled(199)
        .with_journal(&path)
        .with_resume(true)
        .run();
    assert_eq!(plain.services, resumed.services);
    assert_eq!(plain.tests, resumed.tests);
    std::fs::remove_file(&path).ok();
}

/// The `-j1` journal of a stride-20 seed-42 chaos campaign, byte for
/// byte: frame order, frame bytes and the header. A change to how
/// cells reach the file (batching, buffering) must leave these bytes
/// alone at one thread.
#[test]
fn j1_chaos_journal_bytes_are_pinned() {
    for (label, breaker, pin) in [
        ("chaos", None, "302a9db516ba4c00"),
        ("chaos + breaker", Some(BreakerConfig::new(1, 5)), "27b0e5855740750e"),
    ] {
        let path = temp_path(&format!("j1-bytes-{}", breaker.is_some()));
        let mut campaign = Campaign::sampled(20)
            .with_faults(FaultPlan::seeded(42))
            .with_threads(1)
            .with_journal(&path);
        if let Some(cfg) = breaker {
            campaign = campaign.with_breaker(cfg);
        }
        campaign.run();
        let bytes = std::fs::read(&path).expect("journal written");
        std::fs::remove_file(&path).ok();
        assert_eq!(format!("{:016x}", fnv1a(&bytes)), pin, "{label}");
    }
}

/// The E14 reference configuration: chaos campaign plus breaker, the
/// harshest setting the journal must survive.
fn e14_campaign() -> Campaign {
    Campaign::sampled(131)
        .with_faults(FaultPlan::seeded(42))
        .with_breaker(BreakerConfig::new(2, 6))
}

#[test]
fn killed_and_resumed_runs_match_the_uninterrupted_output() {
    let (clean, clean_report) = e14_campaign().with_threads(8).run_with_report();

    let full = temp_path("full");
    e14_campaign().with_journal(&full).run();
    let read = read_journal(&full).expect("full journal reads back");
    let bytes = std::fs::read(&full).unwrap();
    assert!(read.cells.len() > 10, "campaign too small to tear meaningfully");

    // Simulate kills at several points: truncate at a record boundary
    // (a clean kill between appends) and append garbage (a torn write),
    // then resume at a different thread count than the clean run used.
    let tear_points = [
        read.offsets[0],                      // killed before any append
        read.offsets[read.offsets.len() / 4], // early
        read.offsets[read.offsets.len() / 2], // midway
        read.offsets[read.offsets.len() - 1], // killed on the last cell
    ];
    for (i, &cut) in tear_points.iter().enumerate() {
        let partial = temp_path(&format!("partial-{i}"));
        let mut torn = bytes[..cut as usize].to_vec();
        torn.extend_from_slice(&[0x17, 0x00, 0x00]); // torn half-frame
        std::fs::write(&partial, &torn).unwrap();

        let (resumed, report) = e14_campaign()
            .with_journal(&partial)
            .with_resume(true)
            .with_threads(1)
            .run_with_report();
        assert_eq!(clean.services, resumed.services, "tear point {i}");
        assert_eq!(clean.tests, resumed.tests, "tear point {i}");
        assert_eq!(clean_report, report, "tear point {i}");

        // The resume healed the tail: the journal is now whole.
        let healed = read_journal(&partial).expect("resumed journal reads back");
        assert!(!healed.torn(), "tear point {i} left a torn tail");
        assert_eq!(healed.cells.len(), clean.tests.len());
        std::fs::remove_file(&partial).ok();
    }
    std::fs::remove_file(&full).ok();
}

#[test]
fn resume_refuses_a_journal_from_a_different_configuration() {
    let path = temp_path("mismatch");
    Campaign::sampled(400).with_journal(&path).run();
    let err = Campaign::sampled(401)
        .with_journal(&path)
        .with_resume(true)
        .try_run_with_stats()
        .expect_err("mismatched config must not replay");
    assert!(
        matches!(err, JournalError::ConfigMismatch { .. }),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

// --- property tests: the reader over damaged images -----------------

const HASH: u64 = 0x00c0_ffee_dead_beef;

fn arb_cell() -> impl Strategy<Value = JournalCell> {
    (
        (
            prop::sample::select(ServerId::ALL.to_vec()),
            prop::sample::select(ClientId::ALL.to_vec()),
            "[a-zA-Z0-9._$]{0,24}",
            0u8..4,
        ),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(|((server, client, fqcn, inst), flags, verdicts)| {
            let (gen_warning, gen_error, compile_ran, compile_warning, compile_error, crashed) =
                flags;
            let (breaker_skipped, disruptive) = verdicts;
            JournalCell {
                record: TestRecord {
                    server,
                    client,
                    fqcn,
                    gen_warning,
                    gen_error,
                    compile_ran,
                    compile_warning,
                    compile_error,
                    compiler_crashed: crashed,
                    instantiation: match inst {
                        0 => None,
                        1 => Some(InstantiationKind::Usable),
                        2 => Some(InstantiationKind::Empty),
                        _ => Some(InstantiationKind::Failed),
                    },
                },
                breaker_skipped,
                disruptive,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A clean image reads back every cell bit-for-bit.
    #[test]
    fn clean_image_roundtrips(cells in prop::collection::vec(arb_cell(), 0..8)) {
        let bytes = image(HASH, &cells);
        let read = read_journal_bytes(&bytes).unwrap();
        prop_assert_eq!(read.config_hash, HASH);
        prop_assert_eq!(read.cells, cells);
        prop_assert_eq!(read.torn_bytes, 0);
        prop_assert_eq!(read.valid_len, bytes.len() as u64);
    }

    /// Flipping any single byte never panics: header damage is a clean
    /// error; body damage recovers exactly the frames before the flip.
    #[test]
    fn single_byte_damage_recovers_the_maximal_valid_prefix(
        cells in prop::collection::vec(arb_cell(), 1..8),
        pos_seed in any::<usize>(),
        xor in 1u8..255,
    ) {
        let clean = image(HASH, &cells);
        let offsets = read_journal_bytes(&clean).unwrap().offsets;
        let pos = pos_seed % clean.len();
        let mut damaged = clean.clone();
        damaged[pos] ^= xor;
        match read_journal_bytes(&damaged) {
            Err(_) => prop_assert!(pos < HEADER_LEN, "body damage must not error"),
            Ok(read) => {
                prop_assert!(pos >= HEADER_LEN, "header damage must error");
                // The damaged frame is the last one starting at or
                // before the flipped byte; everything before it is
                // recovered intact, nothing after resyncs.
                let intact =
                    offsets.iter().filter(|&&o| (o as usize) <= pos).count() - 1;
                prop_assert_eq!(read.cells.as_slice(), &cells[..intact]);
                prop_assert_eq!(
                    read.valid_len + read.torn_bytes,
                    damaged.len() as u64
                );
            }
        }
    }

    /// Truncating anywhere never panics: the reader yields exactly the
    /// fully-contained frames and reports the rest as a torn tail.
    #[test]
    fn truncation_recovers_fully_contained_frames(
        cells in prop::collection::vec(arb_cell(), 0..8),
        cut_seed in any::<usize>(),
    ) {
        let clean = image(HASH, &cells);
        let whole = read_journal_bytes(&clean).unwrap();
        let cut = cut_seed % (clean.len() + 1);
        match read_journal_bytes(&clean[..cut]) {
            Err(_) => prop_assert!(cut < HEADER_LEN),
            Ok(read) => {
                prop_assert!(cut >= HEADER_LEN);
                let mut ends: Vec<u64> = whole.offsets[1..].to_vec();
                ends.push(whole.valid_len);
                let intact = ends.iter().filter(|&&e| e as usize <= cut).count();
                prop_assert_eq!(read.cells.as_slice(), &cells[..intact]);
                prop_assert_eq!(read.valid_len + read.torn_bytes, cut as u64);
            }
        }
    }

    /// Arbitrary bytes — journal or not — never panic the reader.
    #[test]
    fn reader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = read_journal_bytes(&bytes);
    }
}
