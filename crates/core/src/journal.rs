//! The crash-safe campaign journal: a write-ahead log of completed
//! campaign cells.
//!
//! The campaign's 79 629 cells are independent (service × client)
//! outcomes, so losing a run to a crash, SIGINT or deadline blow-up is
//! pure waste: every already-classified cell was a pure function of the
//! campaign configuration and would be recomputed bit-identically. The
//! journal makes that re-entrancy real:
//!
//! * every completed test cell is appended as one length-prefixed,
//!   FNV-1a-checksummed record (the same hash family as
//!   [`crate::doccache::content_hash`] and the fault plan's site hash);
//! * the file header pins the **campaign config hash** — servers,
//!   clients, stride, fault plan, resilience budget, breaker — so a
//!   journal can never be replayed into a differently-configured run;
//! * the reader is **corruption-tolerant**: a torn tail (the expected
//!   state after a kill mid-write) or a flipped byte truncates the log
//!   at the last fully-valid record instead of erroring, and decoding
//!   never panics;
//! * resuming truncates the torn tail and appends only newly-executed
//!   cells, so a journal converges to exactly one record per cell.
//!
//! Replayed cells re-account their fault-plan contributions (injection
//! decisions are pure functions of `(seed, kind, site)`), which is what
//! makes an interrupted-then-resumed chaos campaign bit-identical to an
//! uninterrupted one — records *and* [`crate::faults::FaultReport`].
//!
//! ## On-disk format (version 1)
//!
//! ```text
//! header  := magic "WSIJRNL\x01" (8) | version u16 LE | config_hash u64 LE
//!            | fnv1a(previous 18 bytes) u64 LE
//! record  := payload_len u32 LE | payload | fnv1a(payload) u64 LE
//! payload := cell | fuzz-repro | fuzz-unit        (discriminated on byte 0)
//! cell    := server u8 (0–3) | client u8 | flags u16 LE | instantiation u8
//!            | fqcn_len u16 LE | fqcn utf-8 bytes
//! fuzz-repro := 0xF5 | server u8 | client u8 | outcome u8 | case_index u32 LE
//!            | seed u64 LE | digest u64 LE | fqcn_len u16 LE | fqcn
//!            | tape_len u32 LE | tape_len × choice u32 LE
//! fuzz-unit  := 0xF6 | server u8 | fqcn_len u16 LE | fqcn | n u32 LE
//!            | n × outcome u8
//! ```
//!
//! All integers are little-endian; enum codes are frozen (append-only)
//! so journals stay readable across releases. The two fuzz payloads
//! (PR 8) ride the same frame format: byte 0 of a cell payload is a
//! server code (0–3), so the tags `0xF5`/`0xF6` can never collide with
//! a valid cell. A fuzz *unit* (all case outcomes for one
//! server × service) is appended as one atomic batch — its shrunk
//! reproducer frames immediately followed by the unit frame — so the
//! reader treats reproducers as *pending* until their unit frame
//! commits them; a tail of uncommitted reproducers is truncated on
//! fuzz resume exactly like a torn frame.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use wsinterop_frameworks::client::ClientId;
use wsinterop_frameworks::server::ServerId;

use crate::doccache::content_hash;
use crate::sync::lock_unpoisoned;
use crate::results::{InstantiationKind, TestRecord};

/// Journal format magic: `WSIJRNL` plus a format byte.
pub const MAGIC: [u8; 8] = *b"WSIJRNL\x01";

/// Current journal format version.
pub const FORMAT_VERSION: u16 = 1;

/// Byte length of the file header (magic + version + config hash +
/// header checksum).
pub const HEADER_LEN: usize = 8 + 2 + 8 + 8;

/// Upper bound on one record payload; anything larger is corruption by
/// definition (a fqcn is bounded far below this).
const MAX_PAYLOAD: u32 = 1 << 20;

/// Process exit code used by the deterministic mid-run kill switch
/// (`--halt-after-cells`), CI's stand-in for a SIGKILL.
pub const HALT_EXIT_CODE: u8 = 9;

// Payload flag bits.
const F_GEN_WARNING: u16 = 1 << 0;
const F_GEN_ERROR: u16 = 1 << 1;
const F_COMPILE_RAN: u16 = 1 << 2;
const F_COMPILE_WARNING: u16 = 1 << 3;
const F_COMPILE_ERROR: u16 = 1 << 4;
const F_COMPILER_CRASHED: u16 = 1 << 5;
const F_BREAKER_SKIPPED: u16 = 1 << 6;
const F_DISRUPTIVE: u16 = 1 << 7;

/// Why a journal could not be opened or (for resume) trusted.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file is not a campaign journal (bad magic, short or damaged
    /// header).
    NotAJournal,
    /// The journal was written by an unknown format version.
    UnsupportedVersion(u16),
    /// The journal belongs to a differently-configured campaign and
    /// must not be replayed into this one.
    ConfigMismatch {
        /// The running campaign's config hash.
        expected: u64,
        /// The hash pinned in the journal header.
        found: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal => {
                write!(f, "not a campaign journal (bad or truncated header)")
            }
            JournalError::UnsupportedVersion(v) => {
                write!(f, "unsupported journal format version {v}")
            }
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "journal config hash 0x{found:016x} does not match this campaign \
                 (0x{expected:016x}); re-run without --resume to start a fresh journal"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// One journaled campaign cell: the classified record plus the
/// supervision verdicts the breaker needs on replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalCell {
    /// The classified test record, exactly as the campaign emitted it.
    pub record: TestRecord,
    /// The cell was never executed: the per-client circuit breaker was
    /// open and recorded it as a skipped Error outcome.
    pub breaker_skipped: bool,
    /// The cell ended disruptively (isolated panic, blown cell budget,
    /// compiler crash or a crash-class generation error) — the breaker
    /// trigger taxonomy.
    pub disruptive: bool,
}

/// Frozen payload tag for a shrunk fuzz reproducer record.
pub const FUZZ_REPRO_TAG: u8 = 0xF5;

/// Frozen payload tag for a fuzz unit-outcome record.
pub const FUZZ_UNIT_TAG: u8 = 0xF6;

/// Number of defined fuzz outcome codes (see `core::fuzz`); anything
/// `>=` this is corruption. The journal stores outcomes as raw bytes so
/// the on-disk format does not depend on the fuzz module's enum.
const FUZZ_OUTCOME_CODES: u8 = 5;

/// One journaled shrunk reproducer: everything needed to replay a
/// failing fuzz case from `(seed, tape)` alone, plus a digest of the
/// shrunk request for artifact identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReproRecord {
    /// Server whose deployed service the case was generated against.
    pub server: ServerId,
    /// Client the outcome is attributed to in the 11×3 table.
    pub client: ClientId,
    /// Raw fuzz outcome code (`core::fuzz::FuzzOutcome::code`).
    pub outcome: u8,
    /// Index of the case within its unit (`0..cases`).
    pub case_index: u32,
    /// The per-case generator seed the tape replays under.
    pub seed: u64,
    /// [`content_hash`] of the shrunk request envelope.
    pub digest: u64,
    /// Fully-qualified class name of the fuzzed service.
    pub fqcn: String,
    /// The shrunk choice tape; replaying it under `seed` rebuilds the
    /// minimal failing request bit-identically.
    pub tape: Vec<u32>,
}

/// One journaled fuzz unit: the outcome code of every case generated
/// against one `server × service`, in case order. Client attribution is
/// positional (`case i` exercises client `i % 11`), so the full 11×3
/// outcome table rebuilds from these records alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzUnitRecord {
    /// Server whose deployed service was fuzzed.
    pub server: ServerId,
    /// Fully-qualified class name of the fuzzed service.
    pub fqcn: String,
    /// Raw outcome code per case, in case order.
    pub outcomes: Vec<u8>,
}

// --- enum codes (frozen; append-only) -------------------------------

fn server_code(id: ServerId) -> u8 {
    match id {
        ServerId::Metro => 0,
        ServerId::JBossWs => 1,
        ServerId::WcfDotNet => 2,
        ServerId::Axis2Java => 3,
    }
}

fn server_from(code: u8) -> Option<ServerId> {
    Some(match code {
        0 => ServerId::Metro,
        1 => ServerId::JBossWs,
        2 => ServerId::WcfDotNet,
        3 => ServerId::Axis2Java,
        _ => return None,
    })
}

fn client_code(id: ClientId) -> u8 {
    match id {
        ClientId::Metro => 0,
        ClientId::Axis1 => 1,
        ClientId::Axis2 => 2,
        ClientId::Cxf => 3,
        ClientId::JBossWs => 4,
        ClientId::DotnetCs => 5,
        ClientId::DotnetVb => 6,
        ClientId::DotnetJs => 7,
        ClientId::Gsoap => 8,
        ClientId::Zend => 9,
        ClientId::Suds => 10,
    }
}

fn client_from(code: u8) -> Option<ClientId> {
    Some(match code {
        0 => ClientId::Metro,
        1 => ClientId::Axis1,
        2 => ClientId::Axis2,
        3 => ClientId::Cxf,
        4 => ClientId::JBossWs,
        5 => ClientId::DotnetCs,
        6 => ClientId::DotnetVb,
        7 => ClientId::DotnetJs,
        8 => ClientId::Gsoap,
        9 => ClientId::Zend,
        10 => ClientId::Suds,
        _ => return None,
    })
}

fn instantiation_code(kind: Option<InstantiationKind>) -> u8 {
    match kind {
        None => 0,
        Some(InstantiationKind::Usable) => 1,
        Some(InstantiationKind::Empty) => 2,
        Some(InstantiationKind::Failed) => 3,
    }
}

fn instantiation_from(code: u8) -> Option<Option<InstantiationKind>> {
    Some(match code {
        0 => None,
        1 => Some(InstantiationKind::Usable),
        2 => Some(InstantiationKind::Empty),
        3 => Some(InstantiationKind::Failed),
        _ => return None,
    })
}

// --- encode / decode ------------------------------------------------

/// Encodes one cell as a complete record frame (length prefix, payload,
/// checksum), ready to append.
pub fn encode_cell(cell: &JournalCell) -> Vec<u8> {
    let mut frame = Vec::new();
    push_cell_frame(cell, &mut frame);
    frame
}

/// Appends one cell's complete frame to `buf`, after whatever it
/// already holds.
fn push_cell_frame(cell: &JournalCell, buf: &mut Vec<u8>) {
    let r = &cell.record;
    let mut flags = 0u16;
    for (bit, on) in [
        (F_GEN_WARNING, r.gen_warning),
        (F_GEN_ERROR, r.gen_error),
        (F_COMPILE_RAN, r.compile_ran),
        (F_COMPILE_WARNING, r.compile_warning),
        (F_COMPILE_ERROR, r.compile_error),
        (F_COMPILER_CRASHED, r.compiler_crashed),
        (F_BREAKER_SKIPPED, cell.breaker_skipped),
        (F_DISRUPTIVE, cell.disruptive),
    ] {
        if on {
            flags |= bit;
        }
    }
    let fqcn = r.fqcn.as_bytes();
    let payload_len = 7 + fqcn.len();
    buf.reserve(4 + payload_len + 8);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let start = buf.len();
    buf.push(server_code(r.server));
    buf.push(client_code(r.client));
    buf.extend_from_slice(&flags.to_le_bytes());
    buf.push(instantiation_code(r.instantiation));
    buf.extend_from_slice(&(fqcn.len() as u16).to_le_bytes());
    buf.extend_from_slice(fqcn);
    let checksum = content_hash(&buf[start..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
}

/// Decodes one record payload. `None` means corruption (unknown codes,
/// length mismatch, invalid UTF-8) — the reader truncates there.
pub fn decode_payload(payload: &[u8]) -> Option<JournalCell> {
    if payload.len() < 7 {
        return None;
    }
    let server = server_from(payload[0])?;
    let client = client_from(payload[1])?;
    let flags = u16::from_le_bytes([payload[2], payload[3]]);
    if flags & !(F_GEN_WARNING
        | F_GEN_ERROR
        | F_COMPILE_RAN
        | F_COMPILE_WARNING
        | F_COMPILE_ERROR
        | F_COMPILER_CRASHED
        | F_BREAKER_SKIPPED
        | F_DISRUPTIVE)
        != 0
    {
        return None;
    }
    let instantiation = instantiation_from(payload[4])?;
    let fqcn_len = u16::from_le_bytes([payload[5], payload[6]]) as usize;
    if payload.len() != 7 + fqcn_len {
        return None;
    }
    let fqcn = std::str::from_utf8(&payload[7..]).ok()?.to_string();
    Some(JournalCell {
        record: TestRecord {
            server,
            client,
            fqcn,
            gen_warning: flags & F_GEN_WARNING != 0,
            gen_error: flags & F_GEN_ERROR != 0,
            compile_ran: flags & F_COMPILE_RAN != 0,
            compile_warning: flags & F_COMPILE_WARNING != 0,
            compile_error: flags & F_COMPILE_ERROR != 0,
            compiler_crashed: flags & F_COMPILER_CRASHED != 0,
            instantiation,
        },
        breaker_skipped: flags & F_BREAKER_SKIPPED != 0,
        disruptive: flags & F_DISRUPTIVE != 0,
    })
}

/// Appends one complete frame (length prefix, payload, checksum) to a
/// caller-owned buffer — the shared framing behind the fuzz encoders.
fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.reserve(12 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&content_hash(payload).to_le_bytes());
}

/// Encodes one shrunk reproducer as a complete record frame.
pub fn encode_fuzz_repro(r: &FuzzReproRecord) -> Vec<u8> {
    let fqcn = r.fqcn.as_bytes();
    let mut payload = Vec::with_capacity(30 + fqcn.len() + 4 * r.tape.len());
    payload.push(FUZZ_REPRO_TAG);
    payload.push(server_code(r.server));
    payload.push(client_code(r.client));
    payload.push(r.outcome);
    payload.extend_from_slice(&r.case_index.to_le_bytes());
    payload.extend_from_slice(&r.seed.to_le_bytes());
    payload.extend_from_slice(&r.digest.to_le_bytes());
    payload.extend_from_slice(&(fqcn.len() as u16).to_le_bytes());
    payload.extend_from_slice(fqcn);
    payload.extend_from_slice(&(r.tape.len() as u32).to_le_bytes());
    for choice in &r.tape {
        payload.extend_from_slice(&choice.to_le_bytes());
    }
    let mut frame = Vec::new();
    push_frame(&mut frame, &payload);
    frame
}

/// Decodes a [`FUZZ_REPRO_TAG`] payload. `None` means corruption — the
/// reader truncates there, same as a damaged cell.
pub fn decode_fuzz_repro(payload: &[u8]) -> Option<FuzzReproRecord> {
    if payload.len() < 30 || payload[0] != FUZZ_REPRO_TAG {
        return None;
    }
    let server = server_from(payload[1])?;
    let client = client_from(payload[2])?;
    let outcome = payload[3];
    if outcome >= FUZZ_OUTCOME_CODES {
        return None;
    }
    let case_index = read_u32_le(payload, 4)?;
    let seed = read_u64_le(payload, 8)?;
    let digest = read_u64_le(payload, 16)?;
    let fqcn_len = u16::from_le_bytes([payload[24], payload[25]]) as usize;
    let fqcn_end = 26usize.checked_add(fqcn_len)?;
    let fqcn = std::str::from_utf8(payload.get(26..fqcn_end)?).ok()?.to_string();
    let tape_len = read_u32_le(payload, fqcn_end)? as usize;
    let tape_start = fqcn_end + 4;
    if payload.len() != tape_start.checked_add(tape_len.checked_mul(4)?)? {
        return None;
    }
    let mut tape = Vec::with_capacity(tape_len);
    for i in 0..tape_len {
        tape.push(read_u32_le(payload, tape_start + 4 * i)?);
    }
    Some(FuzzReproRecord {
        server,
        client,
        outcome,
        case_index,
        seed,
        digest,
        fqcn,
        tape,
    })
}

/// Encodes one fuzz unit-outcome record as a complete record frame.
pub fn encode_fuzz_unit(u: &FuzzUnitRecord) -> Vec<u8> {
    let fqcn = u.fqcn.as_bytes();
    let mut payload = Vec::with_capacity(8 + fqcn.len() + u.outcomes.len());
    payload.push(FUZZ_UNIT_TAG);
    payload.push(server_code(u.server));
    payload.extend_from_slice(&(fqcn.len() as u16).to_le_bytes());
    payload.extend_from_slice(fqcn);
    payload.extend_from_slice(&(u.outcomes.len() as u32).to_le_bytes());
    payload.extend_from_slice(&u.outcomes);
    let mut frame = Vec::new();
    push_frame(&mut frame, &payload);
    frame
}

/// Decodes a [`FUZZ_UNIT_TAG`] payload. `None` means corruption.
pub fn decode_fuzz_unit(payload: &[u8]) -> Option<FuzzUnitRecord> {
    if payload.len() < 8 || payload[0] != FUZZ_UNIT_TAG {
        return None;
    }
    let server = server_from(payload[1])?;
    let fqcn_len = u16::from_le_bytes([payload[2], payload[3]]) as usize;
    let fqcn_end = 4usize.checked_add(fqcn_len)?;
    let fqcn = std::str::from_utf8(payload.get(4..fqcn_end)?).ok()?.to_string();
    let n = read_u32_le(payload, fqcn_end)? as usize;
    let outcomes_start = fqcn_end + 4;
    if payload.len() != outcomes_start.checked_add(n)? {
        return None;
    }
    let outcomes = payload[outcomes_start..].to_vec();
    if outcomes.iter().any(|&code| code >= FUZZ_OUTCOME_CODES) {
        return None;
    }
    Some(FuzzUnitRecord {
        server,
        fqcn,
        outcomes,
    })
}

fn encode_header(config_hash: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&MAGIC);
    header[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[10..18].copy_from_slice(&config_hash.to_le_bytes());
    let checksum = content_hash(&header[..18]);
    header[18..26].copy_from_slice(&checksum.to_le_bytes());
    header
}

// --- reading --------------------------------------------------------

/// Everything a tolerant read recovered from a journal file.
#[derive(Debug)]
pub struct JournalReadOutcome {
    /// The campaign config hash pinned in the header.
    pub config_hash: u64,
    /// Every fully-valid record, in file order.
    pub cells: Vec<JournalCell>,
    /// Byte offset of each record's frame start (parallel to `cells`).
    pub offsets: Vec<u64>,
    /// Length of the valid prefix — resume truncates the file here.
    pub valid_len: u64,
    /// Bytes past the valid prefix (a torn or corrupted tail).
    pub torn_bytes: u64,
    /// Every *committed* fuzz unit record, in file order.
    pub fuzz_units: Vec<FuzzUnitRecord>,
    /// Every committed shrunk reproducer, in file order. Reproducers
    /// whose unit frame never landed (a kill mid-batch) are excluded —
    /// their unit re-executes on resume and re-emits them.
    pub repros: Vec<FuzzReproRecord>,
    /// Length of the *fuzz-committed* prefix: like `valid_len` but also
    /// excluding a trailing run of uncommitted reproducer frames.
    /// [`JournalWriter::resume_fuzz`] truncates here.
    pub fuzz_valid_len: u64,
}

impl JournalReadOutcome {
    /// `true` when the file carried damage past the valid prefix.
    pub fn torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// Reads a journal, tolerating a torn or corrupted tail: decoding stops
/// at the first bad frame and never panics. Only a damaged *header*
/// (or a non-journal file) is an error.
pub fn read_journal(path: &Path) -> Result<JournalReadOutcome, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    read_journal_bytes(&bytes)
}

/// Decodes a little-endian `u64` at `at`, or `None` when fewer than
/// 8 bytes remain — the panic-free form of the slice-then-`try_into`
/// idiom (part of the no-`unwrap`-in-core sweep).
fn read_u64_le(bytes: &[u8], at: usize) -> Option<u64> {
    let slice = bytes.get(at..at.checked_add(8)?)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(slice);
    Some(u64::from_le_bytes(buf))
}

/// Little-endian `u32` counterpart of [`read_u64_le`].
fn read_u32_le(bytes: &[u8], at: usize) -> Option<u32> {
    let slice = bytes.get(at..at.checked_add(4)?)?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(slice);
    Some(u32::from_le_bytes(buf))
}

/// [`read_journal`] over an in-memory image (exposed for tests).
pub fn read_journal_bytes(bytes: &[u8]) -> Result<JournalReadOutcome, JournalError> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return Err(JournalError::NotAJournal);
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    let stored = read_u64_le(bytes, 18).ok_or(JournalError::NotAJournal)?;
    if content_hash(&bytes[..18]) != stored {
        return Err(JournalError::NotAJournal);
    }
    if version != FORMAT_VERSION {
        return Err(JournalError::UnsupportedVersion(version));
    }
    let config_hash = read_u64_le(bytes, 10).ok_or(JournalError::NotAJournal)?;

    let mut cells = Vec::new();
    let mut offsets = Vec::new();
    let mut fuzz_units = Vec::new();
    let mut repros = Vec::new();
    // Reproducers are *pending* until their unit frame commits them —
    // a kill between the two leaves a tail the fuzz resume truncates.
    let mut pending_repros = Vec::new();
    let mut at = HEADER_LEN;
    let mut fuzz_valid_at = HEADER_LEN;
    while let Some(payload_len) = read_u32_le(bytes, at) {
        if payload_len > MAX_PAYLOAD {
            break;
        }
        let payload_len = payload_len as usize;
        let Some(payload) = bytes.get(at + 4..at + 4 + payload_len) else {
            break;
        };
        let Some(sum) = read_u64_le(bytes, at + 4 + payload_len) else {
            break;
        };
        if content_hash(payload) != sum {
            break;
        }
        match payload.first() {
            Some(&FUZZ_REPRO_TAG) => {
                let Some(repro) = decode_fuzz_repro(payload) else {
                    break;
                };
                pending_repros.push(repro);
                at += 12 + payload_len;
            }
            Some(&FUZZ_UNIT_TAG) => {
                let Some(unit) = decode_fuzz_unit(payload) else {
                    break;
                };
                repros.append(&mut pending_repros);
                fuzz_units.push(unit);
                at += 12 + payload_len;
                fuzz_valid_at = at;
            }
            _ => {
                let Some(cell) = decode_payload(payload) else {
                    break;
                };
                offsets.push(at as u64);
                cells.push(cell);
                at += 12 + payload_len;
                if pending_repros.is_empty() {
                    fuzz_valid_at = at;
                }
            }
        }
    }
    Ok(JournalReadOutcome {
        config_hash,
        cells,
        offsets,
        valid_len: at as u64,
        torn_bytes: (bytes.len() - at) as u64,
        fuzz_units,
        repros,
        fuzz_valid_len: fuzz_valid_at as u64,
    })
}

// --- writing --------------------------------------------------------

/// Encoded frames staged for one [`JournalWriter::append_batch`]: the
/// bytes of every frame back to back, and where each append ends, so
/// the halt and stall switches can still stop between two appends.
/// Reused across batches, it allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct JournalBatch {
    bytes: Vec<u8>,
    /// End offset in `bytes` of each append, in order.
    ends: Vec<usize>,
}

impl JournalBatch {
    /// An empty batch.
    pub const fn new() -> JournalBatch {
        JournalBatch {
            bytes: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Stages one cell's frame as one append.
    pub fn push_cell(&mut self, cell: &JournalCell) {
        push_cell_frame(cell, &mut self.bytes);
        self.ends.push(self.bytes.len());
    }

    /// Stages one completed fuzz unit as *one* append: its shrunk
    /// reproducer frames followed by the unit frame that commits them.
    fn push_fuzz_unit(&mut self, repros: &[FuzzReproRecord], unit: &FuzzUnitRecord) {
        for repro in repros {
            self.bytes.extend_from_slice(&encode_fuzz_repro(repro));
        }
        self.bytes.extend_from_slice(&encode_fuzz_unit(unit));
        self.ends.push(self.bytes.len());
    }

    /// Number of staged appends.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing is staged.
    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forgets every staged append, keeping the buffers.
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }
}

/// Thread-safe appender for a campaign journal.
///
/// Each batch of complete frames is emitted as one `write_all`, so a
/// kill can only ever tear the *tail* — exactly the damage the reader
/// tolerates. I/O errors are latched (never panicked) and surfaced
/// once, after the run.
pub struct JournalWriter {
    file: Mutex<File>,
    appended: AtomicUsize,
    /// Deterministic kill switch: exit the process (with
    /// [`HALT_EXIT_CODE`]) after this many appends — CI's SIGKILL
    /// stand-in for the resume smoke test.
    halt_after: Option<usize>,
    /// Deterministic hang switch: after this many appends the writer
    /// sleeps forever *holding the file lock*, so every other worker
    /// thread blocks on its next append and the journal stops growing
    /// — the supervisor's heartbeat sees a wedged worker, and kill
    /// tests have a process that is guaranteed alive until killed.
    stall_after: Option<usize>,
    error: Mutex<Option<std::io::Error>>,
    /// Observe-only mirror: when an observer is attached, each append
    /// also bumps `journal_frames_written_total`.
    metrics: Option<std::sync::Arc<crate::obs::MetricsRegistry>>,
    /// Cached handle for `journal_frames_written_total`, so the append
    /// path resolves the instrument name once instead of taking the
    /// registry lock per batch.
    frames_written: crate::obs::LazyCounter,
}

impl fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter")
            .field("appended", &self.appended.load(Ordering::Relaxed))
            .field("halt_after", &self.halt_after)
            .finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Starts a fresh journal at `path` (truncating any existing file)
    /// pinned to `config_hash`.
    pub fn create(
        path: &Path,
        config_hash: u64,
        halt_after: Option<usize>,
    ) -> Result<JournalWriter, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&encode_header(config_hash))?;
        Ok(JournalWriter::over(file, halt_after))
    }

    /// Resumes an existing journal: reads it tolerantly, verifies the
    /// config hash, truncates the torn tail and reopens for append.
    /// Returns the writer plus everything the read recovered.
    pub fn resume(
        path: &Path,
        config_hash: u64,
        halt_after: Option<usize>,
    ) -> Result<(JournalWriter, JournalReadOutcome), JournalError> {
        JournalWriter::resume_at(path, config_hash, halt_after, false)
    }

    /// [`JournalWriter::resume`] for a fuzz run: truncates at the
    /// *fuzz-committed* prefix ([`JournalReadOutcome::fuzz_valid_len`]),
    /// discarding any trailing reproducer frames whose unit never
    /// landed — that unit re-executes and re-emits them bit-identically.
    pub fn resume_fuzz(
        path: &Path,
        config_hash: u64,
        halt_after: Option<usize>,
    ) -> Result<(JournalWriter, JournalReadOutcome), JournalError> {
        JournalWriter::resume_at(path, config_hash, halt_after, true)
    }

    fn resume_at(
        path: &Path,
        config_hash: u64,
        halt_after: Option<usize>,
        fuzz: bool,
    ) -> Result<(JournalWriter, JournalReadOutcome), JournalError> {
        let read = read_journal(path)?;
        if read.config_hash != config_hash {
            return Err(JournalError::ConfigMismatch {
                expected: config_hash,
                found: read.config_hash,
            });
        }
        let keep = if fuzz { read.fuzz_valid_len } else { read.valid_len };
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(keep)?;
        file.seek(SeekFrom::End(0))?;
        Ok((JournalWriter::over(file, halt_after), read))
    }

    fn over(file: File, halt_after: Option<usize>) -> JournalWriter {
        JournalWriter {
            file: Mutex::new(file),
            appended: AtomicUsize::new(0),
            halt_after,
            stall_after: None,
            error: Mutex::new(None),
            metrics: None,
            frames_written: crate::obs::LazyCounter::new(),
        }
    }

    /// Appends one cell: the one-cell case of
    /// [`JournalWriter::append_batch`]. Failures are latched for
    /// [`JournalWriter::take_error`]; the campaign itself never aborts
    /// on journal I/O.
    pub fn append(&self, cell: &JournalCell) {
        thread_local! {
            /// Reusable one-cell batch: encoding happens outside the
            /// file lock and allocates nothing in steady state.
            static ONE: std::cell::RefCell<JournalBatch> =
                const { std::cell::RefCell::new(JournalBatch::new()) };
        }
        let one = |batch: &mut JournalBatch| {
            batch.push_cell(cell);
            self.append_batch(batch);
        };
        if ONE.try_with(|batch| one(&mut batch.borrow_mut())).is_err() {
            // TLS gone (thread teardown): fall back to a fresh buffer
            // rather than lose the frame.
            one(&mut JournalBatch::new());
        }
    }

    /// Appends one completed fuzz unit as a single atomic batch: the
    /// unit's shrunk reproducer frames followed by its unit-outcome
    /// frame, all in one `write_all`. The whole batch counts as *one*
    /// append toward the halt/stall switches (`--halt-after-units`
    /// halts between units, never between a reproducer and the unit
    /// frame that commits it), and a kill can only ever tear the tail
    /// of the batch — which the reader's pending-reproducer stash
    /// already treats as uncommitted.
    pub fn append_fuzz_batch(&self, repros: &[FuzzReproRecord], unit: &FuzzUnitRecord) {
        let mut batch = JournalBatch::new();
        batch.push_fuzz_unit(repros, unit);
        self.append_batch(&mut batch);
    }

    /// Writes every staged append in one `write_all`, runs the
    /// post-append bookkeeping (count, metrics mirror, halt/stall
    /// switches) and clears `batch`. The switches count appends, not
    /// writes: when one falls inside the batch, exactly the appends up
    /// to it are written before the process halts or stalls. The file
    /// lock is held across the write *and* the switches: halt syncs
    /// under it, and stall sleeps forever under it so every other
    /// worker blocks on its next append.
    pub fn append_batch(&self, batch: &mut JournalBatch) {
        if batch.is_empty() {
            return;
        }
        // lock-order: L4 (journal file) — may acquire L4.b (error
        // latch) and L0 (metrics registry) below; whole frames per
        // `write_all`, so a kill can only ever tear the tail.
        let mut file = lock_unpoisoned(&self.file);
        let before = self.appended.load(Ordering::Relaxed);
        let take = match self.halt_after.into_iter().chain(self.stall_after).min() {
            Some(switch) => switch.saturating_sub(before).clamp(1, batch.len()),
            None => batch.len(),
        };
        let written = file.write_all(&batch.bytes[..batch.ends[take - 1]]);
        batch.clear();
        if let Err(e) = written {
            // lock-order: L4.b (journal error latch) — under L4.
            let mut slot = lock_unpoisoned(&self.error);
            slot.get_or_insert(e);
            return;
        }
        let n = self.appended.fetch_add(take, Ordering::Relaxed) + take;
        if let Some(metrics) = &self.metrics {
            self.frames_written
                .add(metrics, "journal_frames_written_total", take as u64);
        }
        if self.halt_after.is_some_and(|halt| n >= halt) {
            // The deterministic kill: drop dead mid-campaign, exactly
            // like a SIGKILL, leaving the journal behind. The file
            // lock is held, so no frame is ever half-written by a
            // *racing* append (a torn tail can still come from the OS,
            // which the reader tolerates).
            let _ = file.sync_all();
            std::process::exit(i32::from(HALT_EXIT_CODE));
        }
        if self.stall_after.is_some_and(|stall| n >= stall) {
            // The deterministic hang: flush what we have, then sleep
            // forever while holding the file lock. Other worker
            // threads block on their next append, the journal stops
            // growing, and the process stays alive until something
            // external (a supervisor heartbeat, a test's SIGKILL)
            // ends it.
            let _ = file.sync_all();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }

    /// Attaches the deterministic hang switch: after `stall` appends
    /// the writer sleeps forever holding the file lock (see the field
    /// doc). `None` leaves the writer untouched.
    #[must_use]
    pub fn with_stall_after(mut self, stall: Option<usize>) -> JournalWriter {
        self.stall_after = stall;
        self
    }

    /// Attaches a metrics registry: every subsequent append also
    /// increments `journal_frames_written_total` (observe-only — the
    /// on-disk format and halt semantics are untouched).
    #[must_use]
    pub fn with_metrics(
        mut self,
        metrics: std::sync::Arc<crate::obs::MetricsRegistry>,
    ) -> JournalWriter {
        self.metrics = Some(metrics);
        self
    }

    /// Number of records appended by this writer.
    pub fn appended(&self) -> usize {
        self.appended.load(Ordering::Relaxed)
    }

    /// The first latched I/O error, if any.
    pub fn take_error(&self) -> Option<std::io::Error> {
        // lock-order: L4.b (journal error latch) — leaf here.
        lock_unpoisoned(&self.error).take()
    }
}

/// Per-client record counts for `wsitool journal inspect`.
pub fn per_client_counts(cells: &[JournalCell]) -> BTreeMap<ClientId, usize> {
    let mut counts = BTreeMap::new();
    for cell in cells {
        *counts.entry(cell.record.client).or_insert(0) += 1;
    }
    counts
}

/// Per-server record counts for `wsitool journal inspect --json`.
pub fn per_server_counts(cells: &[JournalCell]) -> BTreeMap<ServerId, usize> {
    let mut counts = BTreeMap::new();
    for cell in cells {
        *counts.entry(cell.record.server).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(fqcn: &str, gen_error: bool) -> JournalCell {
        JournalCell {
            record: TestRecord {
                server: ServerId::Metro,
                client: ClientId::Cxf,
                fqcn: fqcn.to_string(),
                gen_warning: false,
                gen_error,
                compile_ran: !gen_error,
                compile_warning: false,
                compile_error: false,
                compiler_crashed: false,
                instantiation: None,
            },
            breaker_skipped: false,
            disruptive: gen_error,
        }
    }

    fn journal_bytes(cells: &[JournalCell], config_hash: u64) -> Vec<u8> {
        let mut bytes = encode_header(config_hash).to_vec();
        for c in cells {
            bytes.extend_from_slice(&encode_cell(c));
        }
        bytes
    }

    #[test]
    fn frame_roundtrip_preserves_every_field() {
        let mut all = Vec::new();
        for (i, server) in [ServerId::Metro, ServerId::WcfDotNet, ServerId::Axis2Java]
            .into_iter()
            .enumerate()
        {
            let mut c = cell(&format!("com.example.Bean{i}"), i % 2 == 0);
            c.record.server = server;
            c.record.instantiation = instantiation_from((i % 4) as u8).unwrap();
            c.breaker_skipped = i == 1;
            all.push(c);
        }
        let bytes = journal_bytes(&all, 0xfeed_beef);
        let read = read_journal_bytes(&bytes).unwrap();
        assert_eq!(read.config_hash, 0xfeed_beef);
        assert_eq!(read.cells, all);
        assert_eq!(read.torn_bytes, 0);
        assert_eq!(read.valid_len, bytes.len() as u64);
        assert_eq!(read.offsets[0], HEADER_LEN as u64);
    }

    #[test]
    fn torn_tail_truncates_at_last_valid_record() {
        let all = vec![cell("a.A", false), cell("b.B", true), cell("c.C", false)];
        let mut bytes = journal_bytes(&all, 7);
        // Tear the last frame in half and add garbage, as a kill
        // mid-write would.
        let keep = bytes.len() - 9;
        bytes.truncate(keep);
        bytes.extend_from_slice(&[0xff; 3]);
        let read = read_journal_bytes(&bytes).unwrap();
        assert_eq!(read.cells, all[..2]);
        assert!(read.torn());
    }

    #[test]
    fn flipped_byte_mid_file_truncates_without_panicking() {
        let all = vec![cell("a.A", false), cell("b.B", true), cell("c.C", false)];
        let clean = journal_bytes(&all, 7);
        let read = read_journal_bytes(&clean).unwrap();
        let second_frame = read.offsets[1] as usize;
        for at in second_frame..clean.len() {
            let mut damaged = clean.clone();
            damaged[at] ^= 0x5a;
            let out = read_journal_bytes(&damaged).unwrap();
            // Records before the damaged frame always survive; nothing
            // recovered is ever wrong.
            assert!(!out.cells.is_empty(), "flip at {at}");
            for (i, c) in out.cells.iter().enumerate() {
                assert_eq!(c, &all[i], "flip at {at}");
            }
        }
    }

    #[test]
    fn damaged_header_is_an_error_not_a_panic() {
        let bytes = journal_bytes(&[cell("a.A", false)], 7);
        for at in 0..HEADER_LEN {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0x5a;
            assert!(
                matches!(
                    read_journal_bytes(&damaged),
                    Err(JournalError::NotAJournal) | Err(JournalError::UnsupportedVersion(_))
                ),
                "flip at {at}"
            );
        }
        assert!(matches!(
            read_journal_bytes(&bytes[..10]),
            Err(JournalError::NotAJournal)
        ));
        assert!(matches!(
            read_journal_bytes(b"not a journal at all, sorry"),
            Err(JournalError::NotAJournal)
        ));
    }

    #[test]
    fn writer_roundtrips_and_resume_rejects_config_mismatch() {
        let path = std::env::temp_dir().join(format!(
            "wsinterop-journal-unit-{}.bin",
            std::process::id()
        ));
        let all = vec![cell("a.A", false), cell("b.B", true)];
        {
            let writer = JournalWriter::create(&path, 99, None).unwrap();
            for c in &all {
                writer.append(c);
            }
            assert_eq!(writer.appended(), 2);
            assert!(writer.take_error().is_none());
        }
        let read = read_journal(&path).unwrap();
        assert_eq!(read.cells, all);

        assert!(matches!(
            JournalWriter::resume(&path, 100, None),
            Err(JournalError::ConfigMismatch {
                expected: 100,
                found: 99
            })
        ));

        // Tear the tail, resume, append: the file converges to a clean
        // journal again.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (writer, recovered) = JournalWriter::resume(&path, 99, None).unwrap();
        assert_eq!(recovered.cells, all[..1]);
        assert!(recovered.torn());
        writer.append(&all[1]);
        drop(writer);
        let healed = read_journal(&path).unwrap();
        assert_eq!(healed.cells, all);
        assert!(!healed.torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_batch_writes_the_bytes_of_its_appends_in_one_go() {
        let path = |name: &str| {
            std::env::temp_dir().join(format!(
                "wsinterop-journal-unit-batch-{name}-{}.bin",
                std::process::id()
            ))
        };
        let all: Vec<JournalCell> = (0..11)
            .map(|i| cell(&format!("p.C{i}"), i % 3 == 0))
            .collect();
        let (one_by_one, batched) = (path("one"), path("batch"));
        let writer = JournalWriter::create(&one_by_one, 5, None).unwrap();
        for c in &all {
            writer.append(c);
        }
        let writer = JournalWriter::create(&batched, 5, None).unwrap();
        let mut batch = JournalBatch::new();
        for c in &all {
            batch.push_cell(c);
        }
        assert_eq!(batch.len(), 11);
        writer.append_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(writer.appended(), 11);
        drop(writer);
        assert_eq!(
            std::fs::read(&one_by_one).unwrap(),
            std::fs::read(&batched).unwrap()
        );
        std::fs::remove_file(&one_by_one).ok();
        std::fs::remove_file(&batched).ok();
    }

    fn repro(case_index: u32, tape: &[u32]) -> FuzzReproRecord {
        FuzzReproRecord {
            server: ServerId::JBossWs,
            client: ClientId::Gsoap,
            outcome: 3,
            case_index,
            seed: 0xdead_beef_cafe_f00d,
            digest: 0x0123_4567_89ab_cdef,
            fqcn: "java.lang.String".to_string(),
            tape: tape.to_vec(),
        }
    }

    fn unit(outcomes: &[u8]) -> FuzzUnitRecord {
        FuzzUnitRecord {
            server: ServerId::JBossWs,
            fqcn: "java.lang.String".to_string(),
            outcomes: outcomes.to_vec(),
        }
    }

    #[test]
    fn fuzz_frames_roundtrip_alongside_cells() {
        let mut bytes = journal_bytes(&[cell("a.A", false)], 11);
        let r0 = repro(4, &[0, 7, 2]);
        let r1 = repro(9, &[]);
        let u0 = unit(&[0, 0, 3, 1, 4]);
        bytes.extend_from_slice(&encode_fuzz_repro(&r0));
        bytes.extend_from_slice(&encode_fuzz_repro(&r1));
        bytes.extend_from_slice(&encode_fuzz_unit(&u0));
        bytes.extend_from_slice(&encode_cell(&cell("b.B", true)));
        let read = read_journal_bytes(&bytes).unwrap();
        assert_eq!(read.cells.len(), 2);
        assert_eq!(read.repros, vec![r0, r1]);
        assert_eq!(read.fuzz_units, vec![u0]);
        assert_eq!(read.valid_len, bytes.len() as u64);
        assert_eq!(read.fuzz_valid_len, bytes.len() as u64);
        assert!(!read.torn());
    }

    #[test]
    fn uncommitted_repros_are_excluded_and_truncated_on_fuzz_resume() {
        let mut bytes = journal_bytes(&[], 11);
        let committed = repro(1, &[5]);
        bytes.extend_from_slice(&encode_fuzz_repro(&committed));
        bytes.extend_from_slice(&encode_fuzz_unit(&unit(&[0, 3])));
        let committed_len = bytes.len() as u64;
        // A kill between a reproducer frame and its unit frame: the
        // reproducer is structurally valid but uncommitted.
        bytes.extend_from_slice(&encode_fuzz_repro(&repro(7, &[1, 2, 3])));
        let read = read_journal_bytes(&bytes).unwrap();
        assert_eq!(read.repros, vec![committed]);
        assert_eq!(read.fuzz_units.len(), 1);
        assert_eq!(read.valid_len, bytes.len() as u64);
        assert_eq!(read.fuzz_valid_len, committed_len);
        assert!(!read.torn());
    }

    #[test]
    fn damaged_fuzz_frames_truncate_without_panicking() {
        let mut clean = journal_bytes(&[cell("a.A", false)], 11);
        let prefix = clean.len();
        clean.extend_from_slice(&encode_fuzz_repro(&repro(0, &[9, 9])));
        clean.extend_from_slice(&encode_fuzz_unit(&unit(&[2])));
        for at in prefix..clean.len() {
            let mut damaged = clean.clone();
            damaged[at] ^= 0x5a;
            let out = read_journal_bytes(&damaged).unwrap();
            // The cell prefix always survives; nothing recovered is
            // ever wrong.
            assert_eq!(out.cells.len(), 1, "flip at {at}");
            assert!(out.fuzz_valid_len >= prefix as u64, "flip at {at}");
        }
        // Out-of-range outcome codes are corruption, not data.
        let mut bad_unit = journal_bytes(&[], 11);
        bad_unit.extend_from_slice(&encode_fuzz_unit(&unit(&[FUZZ_OUTCOME_CODES])));
        let out = read_journal_bytes(&bad_unit).unwrap();
        assert!(out.fuzz_units.is_empty());
        assert!(out.torn());
    }

    #[test]
    fn fuzz_batch_append_and_resume_converge() {
        let path = std::env::temp_dir().join(format!(
            "wsinterop-journal-fuzz-unit-{}.bin",
            std::process::id()
        ));
        let r = repro(2, &[4, 0, 1]);
        let u0 = unit(&[0, 0, 0, 2]);
        let u1 = unit(&[1, 4]);
        {
            let writer = JournalWriter::create(&path, 42, None).unwrap();
            writer.append_fuzz_batch(std::slice::from_ref(&r), &u0);
            writer.append_fuzz_batch(&[], &u1);
            // The whole batch is one halt/stall tick.
            assert_eq!(writer.appended(), 2);
            assert!(writer.take_error().is_none());
        }
        let read = read_journal(&path).unwrap();
        assert_eq!(read.repros, vec![r.clone()]);
        assert_eq!(read.fuzz_units, vec![u0.clone(), u1.clone()]);

        // Simulate a kill mid-batch: orphan reproducer on the tail.
        let bytes = std::fs::read(&path).unwrap();
        let mut torn = bytes.clone();
        torn.extend_from_slice(&encode_fuzz_repro(&repro(9, &[8])));
        std::fs::write(&path, &torn).unwrap();
        let (writer, recovered) = JournalWriter::resume_fuzz(&path, 42, None).unwrap();
        assert_eq!(recovered.fuzz_units, vec![u0.clone(), u1.clone()]);
        assert_eq!(recovered.repros, vec![r.clone()]);
        let u2 = unit(&[3]);
        writer.append_fuzz_batch(&[repro(0, &[6])], &u2);
        drop(writer);
        let healed = read_journal(&path).unwrap();
        assert_eq!(healed.fuzz_units, vec![u0, u1, u2]);
        assert_eq!(healed.repros.len(), 2);
        assert!(!healed.torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn per_client_counts_group_records() {
        let mut b = cell("b.B", false);
        b.record.client = ClientId::Suds;
        let counts = per_client_counts(&[cell("a.A", false), cell("c.C", true), b]);
        assert_eq!(counts[&ClientId::Cxf], 2);
        assert_eq!(counts[&ClientId::Suds], 1);
    }
}
