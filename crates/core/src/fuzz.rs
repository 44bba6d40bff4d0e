//! WSDL-guided property-based exchange fuzzing with shrinking and
//! journaled reproducers.
//!
//! The paper only measures whether generated stubs describe, compile
//! and exchange under **nominal** inputs; real interoperability
//! failures surface when valid-but-adversarial payloads hit the type
//! mapping. This module derives seeded payload generators directly
//! from each deployed service's XSD types (the approach of
//! "WSDL-guided Test Case Generation for PropEr Testing of Web
//! Services") and drives them through the same exchange machinery the
//! campaign uses:
//!
//! * **Choice-tape generation** ([`ChoiceStream`]): every random
//!   decision the generator makes (cardinalities, choice branches,
//!   text edge cases) is one bounded `choose(n)` call, recorded on a
//!   tape of `u32`s. Replaying the tape under the same seed rebuilds
//!   the payload bit-identically, which makes every failing input
//!   replayable from `(seed, tape)` alone.
//! * **XSD-driven walkers**: recursion depth caps, element
//!   cardinality (`minOccurs`/`maxOccurs`/unbounded), `choice`
//!   branches, enumeration facets, and per-built-in text pools with
//!   boundary numerics (`i32::MIN`/`MAX`, overflow, `NaN`, `INF`),
//!   XML-meaningful characters, non-ASCII and whitespace/empty values.
//! * **Dual-path execution**: the in-process path
//!   ([`crate::exchange::exchange_generated`]) and the real-socket
//!   path ([`crate::wire`]) run the *same* request bytes, with an
//!   E15-style equivalence check (`divergences`, pinned zero) and a
//!   deliberate 413 size-cap boundary (`cap_hits`).
//! * **Shrinking** ([`shrink_tape`]): failing inputs delta-debug over
//!   the choice tape (chunk removal, then pointwise reduction toward
//!   choice 0 — generators order options simplest-first) until no
//!   smaller tape reproduces the same [`FuzzOutcome`].
//! * **Journaled reproducers**: each fuzzed `server × service` unit
//!   appends one atomic batch of checksummed records to the campaign
//!   journal ([`crate::journal::FuzzReproRecord`] /
//!   [`crate::journal::FuzzUnitRecord`]), surviving crash/resume and
//!   shard merge bit-identically.
//! * **Graceful degradation**: a panicking cell is isolated by
//!   `catch_unwind` and classified [`FuzzOutcome::Crash`]; an armed
//!   hang is classified [`FuzzOutcome::HangDeadline`] by the virtual
//!   watchdog verdict — a cell never aborts the run. Injected
//!   failures come from the existing fault layer
//!   ([`crate::faults::FaultPlan`]) gated on a *property of the
//!   generated payload* ([`PayloadProperty`]), so they are pure
//!   functions of the input and therefore shrink meaningfully.
//!
//! See DESIGN.md §14 for the full design and EXPERIMENTS.md E19 for
//! the findings table across the 11×3 framework matrix.

use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use wsinterop_frameworks::client::{ClientId, ErrorClass};
use wsinterop_frameworks::server::{all_servers, extension_servers, DeployOutcome, ServerId};
use wsinterop_typecat::rng::{splitmix64, GOLDEN_GAMMA};
use wsinterop_wsdl::de::from_xml_str;
use wsinterop_wsdl::{soap, Definitions};
use wsinterop_xml::writer::{write_document, WriteOptions};
use wsinterop_xml::Element;
use wsinterop_xsd::{BuiltIn, ElementDecl, Group, MaxOccurs, Particle, SimpleType, TypeRef};

use crate::doccache::content_hash;
use crate::exchange::{classify_response, exchange_generated, ExchangeOutcome};
use crate::faults::{fuzz_site, FaultKind, FaultPlan};
use crate::journal::{FuzzReproRecord, FuzzUnitRecord, JournalWriter};
use crate::obs::{Obs, TracePhase};
use crate::shard::ShardSpec;
use crate::sync::lock_unpoisoned;
use crate::wire::{
    HostedService, WireClient, WireClientConfig, WireServer, WireServerConfig,
};

// --- choice tape ----------------------------------------------------

enum ChoiceMode {
    /// Draw fresh choices from a splitmix64 stream: tiny, seedable,
    /// and with full 64-bit avalanche — successive case seeds (which
    /// differ in one counter) still decorrelate completely.
    Fresh(u64),
    /// Replay a recorded tape; exhausted positions yield 0 (the
    /// simplest option), which is what lets shrinking *remove* tape.
    Replay { tape: Vec<u32>, cursor: usize },
}

/// The generator's source of randomness: a stream of bounded choices,
/// recorded on a tape so any generation is replayable and shrinkable.
///
/// Convention: **choice 0 is the simplest option** at every decision
/// point (fewest repeats, plainest text, first branch), so reducing
/// tape entries toward zero shrinks the payload meaningfully.
pub struct ChoiceStream {
    mode: ChoiceMode,
    recorded: Vec<u32>,
}

impl ChoiceStream {
    /// A fresh stream seeded with `seed`.
    pub fn fresh(seed: u64) -> ChoiceStream {
        ChoiceStream {
            mode: ChoiceMode::Fresh(seed),
            recorded: Vec::new(),
        }
    }

    /// A replay stream over a recorded (possibly shrunk) tape.
    pub fn replay(tape: &[u32]) -> ChoiceStream {
        ChoiceStream {
            mode: ChoiceMode::Replay {
                tape: tape.to_vec(),
                cursor: 0,
            },
            recorded: Vec::new(),
        }
    }

    /// Draws one choice in `0..bound` (`bound` is clamped to ≥ 1) and
    /// records it. Replay streams reduce the tape entry modulo the
    /// bound, so an edited tape can never index out of range.
    pub fn choose(&mut self, bound: usize) -> usize {
        let bound = bound.max(1) as u64;
        let pick = match &mut self.mode {
            ChoiceMode::Fresh(state) => {
                let drawn = splitmix64(*state);
                *state = state.wrapping_add(GOLDEN_GAMMA);
                drawn % bound
            }
            ChoiceMode::Replay { tape, cursor } => {
                let raw = tape.get(*cursor).copied().unwrap_or(0);
                *cursor += 1;
                u64::from(raw) % bound
            }
        };
        self.recorded.push(pick as u32);
        pick as usize
    }

    /// The choices recorded so far (post-modulo, so a recorded tape
    /// replays to itself exactly).
    pub fn into_tape(self) -> Vec<u32> {
        self.recorded
    }
}

// --- generation limits and text pools -------------------------------

/// Structural caps on one generated payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenLimits {
    /// Maximum nesting depth of generated complex content.
    pub max_depth: usize,
    /// Extra repeats granted to `maxOccurs="unbounded"` particles.
    pub max_repeat: usize,
    /// Length of the long-string edge case.
    pub max_text_len: usize,
    /// Element budget per payload; once spent, every structural choice
    /// collapses to option 0 (the smallest). The budget is a pure
    /// function of prior choices, so replay stays tape-aligned.
    pub payload_budget: usize,
}

impl Default for GenLimits {
    fn default() -> GenLimits {
        GenLimits {
            max_depth: 3,
            max_repeat: 3,
            max_text_len: 64,
            payload_budget: 256,
        }
    }
}

/// The per-built-in text edge-case pool. Index 0 is always the
/// simplest lexical value, per the shrinking convention.
fn builtin_pool(builtin: BuiltIn) -> &'static [&'static str] {
    match builtin {
        BuiltIn::Boolean => &["true", "false", "1", "0", " true"],
        BuiltIn::Byte => &["0", "1", "-1", "127", "-128", "128"],
        BuiltIn::Short => &["0", "1", "-1", "32767", "-32768", "32768"],
        BuiltIn::Int => &["0", "1", "-1", "2147483647", "-2147483648", "2147483648", "+7", "007"],
        BuiltIn::Long | BuiltIn::Integer => &[
            "0",
            "1",
            "-1",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
        ],
        BuiltIn::UnsignedByte => &["0", "1", "255", "256", "-1"],
        BuiltIn::UnsignedShort => &["0", "1", "65535", "65536", "-1"],
        BuiltIn::UnsignedInt => &["0", "1", "4294967295", "4294967296", "-1"],
        BuiltIn::UnsignedLong => &[
            "0",
            "1",
            "18446744073709551615",
            "18446744073709551616",
            "-1",
        ],
        BuiltIn::Float | BuiltIn::Double => &[
            "0",
            "1.5",
            "-0.0",
            "NaN",
            "INF",
            "-INF",
            "1e308",
            "-1e-308",
            "0.30000000000000004",
        ],
        BuiltIn::Decimal => &[
            "0",
            "0.1",
            "-1",
            "99999999999999999999.99999999999999999999",
            ".5",
            "1.",
        ],
        BuiltIn::DateTime => &[
            "2014-01-01T00:00:00Z",
            "9999-12-31T23:59:59.999Z",
            "2014-02-30T12:00:00Z",
            "2014-01-01T00:00:00+14:00",
        ],
        BuiltIn::Date => &["2014-01-01", "0001-01-01", "2014-13-01"],
        BuiltIn::Time => &["00:00:00", "23:59:60", "12:00:00.000000001Z"],
        BuiltIn::Duration => &["PT0S", "P1Y2M3DT4H5M6S", "-P1D", "P"],
        BuiltIn::GYearMonth => &["2014-01", "0000-01"],
        BuiltIn::GYear => &["2014", "-0001"],
        BuiltIn::Base64Binary => &["", "QQ==", "QUJD", "not base64!"],
        BuiltIn::HexBinary => &["", "00", "ff", "0g"],
        BuiltIn::AnyUri => &["urn:a", "http://example.com/?q=a b", "%%%"],
        BuiltIn::QName => &["a", "p:b", "soapenv:Envelope"],
        _ => &[
            "",
            "v",
            " leading and trailing ",
            "a<b&c]]>",
            "quote\"apos'",
            "héllo wörld — ✓ 🦀",
            "\u{0627}\u{0644}\u{0633}\u{0644}\u{0627}\u{0645}",
            "\ttab\tand\nnewline",
            "<![CDATA[not-a-cdata]]>",
        ],
    }
}

/// `true` for types whose pool gets the extra long-string slot.
fn has_long_slot(builtin: BuiltIn) -> bool {
    matches!(
        builtin,
        BuiltIn::String | BuiltIn::AnyType | BuiltIn::AnySimpleType
    )
}

// --- the generator walker -------------------------------------------

/// One generated fuzz case: the serialized request envelope, the value
/// the echo must return, and the choice tape that rebuilds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedCase {
    /// The compact-serialized SOAP request.
    pub request_xml: String,
    /// Text content of the first top-level argument — what
    /// [`classify_response`] expects the echo to return.
    pub expected: String,
    /// The operation invoked.
    pub operation: String,
    /// The recorded choice tape.
    pub tape: Vec<u32>,
}

struct Gen<'a> {
    defs: &'a Definitions,
    cs: ChoiceStream,
    limits: &'a GenLimits,
    budget: i64,
}

impl<'a> Gen<'a> {
    /// One bounded choice, collapsed to option 0 once the element
    /// budget is spent. `choose(1)` yields 0 in both modes and still
    /// consumes one tape slot, so fresh and replay streams stay
    /// aligned no matter where the budget runs out.
    fn pick(&mut self, bound: usize) -> usize {
        if self.budget <= 0 {
            self.cs.choose(1)
        } else {
            self.cs.choose(bound)
        }
    }

    fn occurs(&mut self, min: u32, max: MaxOccurs) -> usize {
        let min = min as usize;
        let hi = match max {
            MaxOccurs::Bounded(n) => (n as usize).max(min),
            MaxOccurs::Unbounded => min + self.limits.max_repeat,
        };
        min + self.pick(hi - min + 1)
    }

    fn find_simple(&self, ns_uri: &str, local: &str) -> Option<&'a SimpleType> {
        self.defs
            .schemas
            .iter()
            .filter(|s| s.target_ns == ns_uri)
            .find_map(|s| s.simple_type(local))
    }

    fn find_complex(&self, ns_uri: &str, local: &str) -> Option<&'a wsinterop_xsd::ComplexType> {
        self.defs
            .schemas
            .iter()
            .filter(|s| s.target_ns == ns_uri)
            .find_map(|s| s.complex_type(local))
    }

    fn find_global_element(&self, ns_uri: &str, local: &str) -> Option<&'a ElementDecl> {
        self.defs
            .schemas
            .iter()
            .filter(|s| s.target_ns == ns_uri)
            .find_map(|s| s.element(local))
    }

    fn text_value(&mut self, builtin: BuiltIn) -> String {
        let pool = builtin_pool(builtin);
        let extra = usize::from(has_long_slot(builtin));
        let idx = self.pick(pool.len() + extra);
        match pool.get(idx) {
            Some(text) => (*text).to_string(),
            None => "x".repeat(self.limits.max_text_len),
        }
    }

    fn simple_value(&mut self, st: &SimpleType) -> String {
        if st.enumeration.is_empty() {
            return self.text_value(st.base);
        }
        // One extra slot deliberately violates the enumeration facet.
        let idx = self.pick(st.enumeration.len() + 1);
        match st.enumeration.get(idx) {
            Some(value) => value.clone(),
            None => "not-in-enumeration".to_string(),
        }
    }

    fn gen_element(&mut self, name: &str, decl: &ElementDecl, depth: usize) -> Element {
        self.budget -= 1;
        let el = Element::new(name);
        if let Some(inline) = &decl.inline {
            return self.with_children(el, &inline.content, depth);
        }
        match &decl.type_ref {
            Some(TypeRef::BuiltIn(b)) => {
                let text = self.text_value(*b);
                el.with_text(text)
            }
            Some(TypeRef::Named { ns_uri, local }) => {
                if let Some(st) = self.find_simple(ns_uri, local) {
                    let text = self.simple_value(st);
                    el.with_text(text)
                } else if let Some(ct) = self.find_complex(ns_uri, local) {
                    self.with_children(el, &ct.content, depth)
                } else {
                    // Unresolvable named type (e.g. a cross-namespace
                    // import the document never inlines): emit empty
                    // content — the adversarial case *is* the gap.
                    el
                }
            }
            None => {
                let text = self.text_value(BuiltIn::AnyType);
                el.with_text(text)
            }
        }
    }

    fn with_children(&mut self, mut el: Element, group: &Group, depth: usize) -> Element {
        if depth >= self.limits.max_depth {
            return el;
        }
        let mut kids = Vec::new();
        self.gen_group(group, depth + 1, &mut kids);
        for kid in kids {
            el.push_element(kid);
        }
        el
    }

    fn gen_group(&mut self, group: &Group, depth: usize, out: &mut Vec<Element>) {
        match group.compositor {
            wsinterop_xsd::Compositor::Choice => {
                if !group.particles.is_empty() {
                    let branch = self.pick(group.particles.len());
                    if let Some(p) = group.particles.get(branch) {
                        self.gen_particle(p, depth, out);
                    }
                }
            }
            _ => {
                for p in &group.particles {
                    self.gen_particle(p, depth, out);
                }
            }
        }
    }

    fn gen_particle(&mut self, particle: &Particle, depth: usize, out: &mut Vec<Element>) {
        match particle {
            Particle::Element(decl) => {
                let n = self.occurs(decl.min_occurs, decl.max_occurs);
                for _ in 0..n {
                    out.push(self.gen_element(&decl.name, decl, depth));
                }
            }
            Particle::ElementRef { ns_uri, local } => {
                if let Some(decl) = self.find_global_element(ns_uri, local) {
                    let n = self.occurs(decl.min_occurs, decl.max_occurs);
                    for _ in 0..n {
                        out.push(self.gen_element(&decl.name, decl, depth));
                    }
                }
                // Unresolvable refs (the `.NET` `ref="s:schema"` shape)
                // contribute nothing — exactly what a stub would emit.
            }
            Particle::Any { .. } => {}
            Particle::Group(inner) => self.gen_group(inner, depth, out),
        }
    }

    /// The doc/literal wrapper's argument elements, named `m:{arg}` in
    /// the wrapper namespace exactly as [`soap::request`] names its
    /// single argument. The first argument particle is clamped to at
    /// least one instance so the echoed value is well-defined.
    fn wrapper_args(&mut self, wrapper: &'a ElementDecl) -> Vec<Element> {
        let mut args = Vec::new();
        let Some(inline) = &wrapper.inline else {
            return args;
        };
        for (i, particle) in inline.content.particles.iter().enumerate() {
            match particle {
                Particle::Element(decl) => {
                    let mut n = self.occurs(decl.min_occurs, decl.max_occurs);
                    if i == 0 {
                        n = n.max(1);
                    }
                    for _ in 0..n {
                        let el = self.gen_element(&format!("m:{}", decl.name), decl, 0);
                        args.push(el);
                    }
                }
                other => self.gen_particle(other, 0, &mut args),
            }
        }
        args
    }
}

/// Generates one fuzz case for `op_name` of `defs`. `tape == None`
/// draws fresh choices under `seed`; `Some(tape)` replays a recorded
/// (possibly shrunk) tape — the same seed replays the same case
/// bit-identically.
///
/// # Errors
///
/// Fails with the same resolution errors as [`soap::input_wrapper`] —
/// the generator cannot build a request the stub couldn't either.
pub fn generate_case(
    defs: &Definitions,
    op_name: &str,
    seed: u64,
    tape: Option<&[u32]>,
    limits: &GenLimits,
) -> Result<GeneratedCase, soap::SoapError> {
    let (wrapper, _) = soap::input_wrapper(defs, op_name)?;
    let cs = match tape {
        None => ChoiceStream::fresh(seed),
        Some(tape) => ChoiceStream::replay(tape),
    };
    let mut gen = Gen {
        defs,
        cs,
        limits,
        budget: limits.payload_budget as i64,
    };
    let args = gen.wrapper_args(wrapper);
    let expected = args.first().map(Element::text_content).unwrap_or_default();
    let doc = soap::request_with_args(defs, op_name, args)?;
    Ok(GeneratedCase {
        request_xml: write_document(&doc, &WriteOptions::compact()),
        expected,
        operation: op_name.to_string(),
        tape: gen.cs.into_tape(),
    })
}

/// The deterministic per-case generator seed: a pure function of the
/// run seed and the case's coordinates, so any case regenerates in
/// isolation — on any thread, any shard, or from a journaled
/// reproducer.
pub fn case_seed(run_seed: u64, server: ServerId, fqcn: &str, case_index: usize) -> u64 {
    content_hash(
        format!("wsitool-fuzz-case-v1;seed={run_seed};server={server:?};service={fqcn};case={case_index}")
            .as_bytes(),
    )
}

// --- outcome taxonomy -----------------------------------------------

/// The closed fuzz outcome taxonomy. Codes are frozen (journaled);
/// [`FuzzOutcome::error_class`] folds the taxonomy into the existing
/// [`ErrorClass`] machinery without a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuzzOutcome {
    /// The exchange completed and the echo matched.
    Accept,
    /// The payload was rejected through an orderly channel: the stub
    /// could not serialize it, the server faulted, the echo
    /// mismatched, or a message failed the WS-I profile.
    RejectClean,
    /// The cell hit its deadline (an armed hang, or a wire timeout).
    HangDeadline,
    /// The cell panicked and was isolated by `catch_unwind`.
    Crash,
    /// The socket transport failed below SOAP (reset, framing, 413).
    WireError,
}

impl FuzzOutcome {
    /// Every outcome, in code order.
    pub const ALL: [FuzzOutcome; 5] = [
        FuzzOutcome::Accept,
        FuzzOutcome::RejectClean,
        FuzzOutcome::HangDeadline,
        FuzzOutcome::Crash,
        FuzzOutcome::WireError,
    ];

    /// The frozen journal code.
    pub fn code(self) -> u8 {
        match self {
            FuzzOutcome::Accept => 0,
            FuzzOutcome::RejectClean => 1,
            FuzzOutcome::HangDeadline => 2,
            FuzzOutcome::Crash => 3,
            FuzzOutcome::WireError => 4,
        }
    }

    /// Decodes a journal code.
    pub fn from_code(code: u8) -> Option<FuzzOutcome> {
        FuzzOutcome::ALL.into_iter().find(|o| o.code() == code)
    }

    /// Stable display name (also the metrics label).
    pub fn name(self) -> &'static str {
        match self {
            FuzzOutcome::Accept => "accept",
            FuzzOutcome::RejectClean => "reject-clean",
            FuzzOutcome::HangDeadline => "hang-deadline",
            FuzzOutcome::Crash => "crash",
            FuzzOutcome::WireError => "wire-error",
        }
    }

    /// Maps an exchange outcome into the fuzz taxonomy. Every
    /// [`ExchangeOutcome`] variant lands in exactly one class — the
    /// exhaustive table test lives in `tests/fuzz_taxonomy.rs`.
    pub fn from_exchange(outcome: &ExchangeOutcome) -> FuzzOutcome {
        match outcome {
            ExchangeOutcome::Completed { .. } => FuzzOutcome::Accept,
            ExchangeOutcome::ClientCannotInvoke { .. }
            | ExchangeOutcome::ServerFault { .. }
            | ExchangeOutcome::EchoMismatch { .. }
            | ExchangeOutcome::NonConformantMessage { .. } => FuzzOutcome::RejectClean,
            ExchangeOutcome::TransportError { reason } => {
                if reason.contains("timeout") {
                    FuzzOutcome::HangDeadline
                } else {
                    FuzzOutcome::WireError
                }
            }
        }
    }

    /// Folds the fuzz taxonomy into the campaign's process-health
    /// classes: an accept is no error, a clean reject is an orderly
    /// [`ErrorClass::Diagnostic`], everything else means the cell
    /// itself misbehaved — [`ErrorClass::Disruptive`], the breaker
    /// trigger class.
    pub fn error_class(self) -> Option<ErrorClass> {
        match self {
            FuzzOutcome::Accept => None,
            FuzzOutcome::RejectClean => Some(ErrorClass::Diagnostic),
            FuzzOutcome::HangDeadline | FuzzOutcome::Crash | FuzzOutcome::WireError => {
                Some(ErrorClass::Disruptive)
            }
        }
    }
}

impl fmt::Display for FuzzOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// --- injected failure triggers --------------------------------------

/// A property of the generated payload that arms an injected failure.
/// Evaluated on the generated case alone (`request_xml` + the
/// pre-serialization `expected` text), so the trigger is a pure
/// function of the input — which is what makes an injected crash or
/// hang *shrinkable*: the minimal tape is the smallest input still
/// exhibiting the property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadProperty {
    /// Any non-ASCII byte in the echoed value.
    NonAscii,
    /// An XML-meaningful character (`<` or `&`) in the echoed value.
    XmlMeta,
    /// The serialized request nests elements
    /// [`DEEP_NESTING_THRESHOLD`] levels or deeper — the structural
    /// stressor real stacks mishandle (stack-recursive parsers,
    /// fixed-depth binders).
    DeepNesting,
    /// The echoed value is a boundary numeric: IEEE-754 specials
    /// (`NaN`/`INF`/`-INF`) or an integer whose magnitude overflows
    /// `xsd:int` — the 32-/64-bit seam the paper's frameworks disagree
    /// on.
    BoundaryNumeric,
}

/// Element depth at which [`PayloadProperty::DeepNesting`] holds. The
/// SOAP scaffolding (`Envelope > Body > operation > part`) is 4
/// levels, so 6 requires genuinely nested payload structure, which
/// the generator only produces for nested complex types.
pub const DEEP_NESTING_THRESHOLD: usize = 6;

/// Maximum element nesting depth of a serialized XML document
/// (self-closing elements count at their own level; declarations,
/// comments and text add nothing).
fn xml_element_depth(xml: &str) -> usize {
    let bytes = xml.as_bytes();
    let mut depth = 0usize;
    let mut deepest = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        match bytes.get(i + 1) {
            Some(b'/') => {
                depth = depth.saturating_sub(1);
                i += 2;
            }
            Some(b'?') | Some(b'!') => i += 2,
            Some(_) => {
                let end = xml[i..].find('>').map_or(bytes.len(), |e| i + e);
                depth += 1;
                deepest = deepest.max(depth);
                if bytes.get(end.wrapping_sub(1)) == Some(&b'/') {
                    depth -= 1;
                }
                i = end + 1;
            }
            None => break,
        }
    }
    deepest
}

/// Whether `text` is a boundary numeric: an IEEE-754 special or an
/// integer past the `xsd:int` range (either sign). Decimal-notation
/// only, mirroring the generator's pools — scientific notation like
/// `1e308` is a float edge the `NonAscii`/`XmlMeta` side never claims,
/// not an integer overflow.
fn is_boundary_numeric(text: &str) -> bool {
    if matches!(text, "NaN" | "INF" | "-INF") {
        return true;
    }
    text.parse::<i128>()
        .map(|v| v > i128::from(i32::MAX) || v < i128::from(i32::MIN))
        .unwrap_or(false)
}

impl PayloadProperty {
    /// Whether the generated case exhibits the property. `request_xml`
    /// is the serialized request, `expected` the pre-serialization
    /// echoed value.
    pub fn holds(self, request_xml: &str, expected: &str) -> bool {
        match self {
            PayloadProperty::NonAscii => expected.bytes().any(|b| b >= 0x80),
            PayloadProperty::XmlMeta => expected.contains('<') || expected.contains('&'),
            PayloadProperty::DeepNesting => {
                xml_element_depth(request_xml) >= DEEP_NESTING_THRESHOLD
            }
            PayloadProperty::BoundaryNumeric => is_boundary_numeric(expected),
        }
    }
}

/// The armed failure injections for one fuzz unit, derived from the
/// campaign fault plan: [`FaultKind::ClientGenPanic`] at the unit's
/// [`fuzz_site`] arms a crash, [`FaultPlan::slow_virtual_ms`] arms a
/// virtual hang; both fire only on payloads exhibiting the unit's
/// [`PayloadProperty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzTrigger {
    crash_armed: bool,
    hang_armed: bool,
    property: PayloadProperty,
}

impl FuzzTrigger {
    /// Derives the unit's trigger from the fault plan.
    pub fn from_plan(plan: &FaultPlan, server: ServerId, fqcn: &str) -> FuzzTrigger {
        let site = fuzz_site(server, fqcn);
        let property_hash =
            content_hash(format!("{site};fuzz-trigger;seed={}", plan.seed()).as_bytes());
        FuzzTrigger {
            crash_armed: plan.decide(FaultKind::ClientGenPanic, &site),
            hang_armed: plan.slow_virtual_ms(&site).is_some(),
            property: match property_hash % 4 {
                0 => PayloadProperty::NonAscii,
                1 => PayloadProperty::XmlMeta,
                2 => PayloadProperty::DeepNesting,
                _ => PayloadProperty::BoundaryNumeric,
            },
        }
    }

    /// A trigger that never fires (the silent plan's shape).
    pub fn none() -> FuzzTrigger {
        FuzzTrigger {
            crash_armed: false,
            hang_armed: false,
            property: PayloadProperty::XmlMeta,
        }
    }

    fn hang_fires(&self, case: &GeneratedCase) -> bool {
        self.hang_armed && self.property.holds(&case.request_xml, &case.expected)
    }

    fn crash_fires(&self, case: &GeneratedCase) -> bool {
        self.crash_armed && self.property.holds(&case.request_xml, &case.expected)
    }
}

// --- case execution -------------------------------------------------

/// Runs one generated case through the in-process exchange path with
/// full isolation: an armed hang returns the virtual watchdog verdict
/// before any work, an armed crash panics *inside* `catch_unwind`
/// (exercising the same isolation a genuine panic would hit), and any
/// genuine panic in the stack is likewise caught and classified.
pub fn evaluate_in_process(
    defs: &Definitions,
    case: &GeneratedCase,
    trigger: &FuzzTrigger,
) -> FuzzOutcome {
    if trigger.hang_fires(case) {
        return FuzzOutcome::HangDeadline;
    }
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if trigger.crash_fires(case) {
            panic!("injected fuzz client panic");
        }
        FuzzOutcome::from_exchange(&exchange_generated(defs, &case.request_xml, &case.expected))
    }));
    run.unwrap_or(FuzzOutcome::Crash)
}

/// Replays a `(seed, tape)` pair in-process and classifies it — the
/// shrinking predicate, and the reproducer verification entry point:
/// a journaled [`FuzzReproRecord`] replays through exactly this.
pub fn replay_outcome(
    defs: &Definitions,
    op_name: &str,
    seed: u64,
    tape: &[u32],
    trigger: &FuzzTrigger,
    limits: &GenLimits,
) -> FuzzOutcome {
    let generated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        generate_case(defs, op_name, seed, Some(tape), limits)
    }));
    match generated {
        Err(_) => FuzzOutcome::Crash,
        Ok(Err(_)) => FuzzOutcome::RejectClean,
        Ok(Ok(case)) => evaluate_in_process(defs, &case, trigger),
    }
}

// --- shrinking ------------------------------------------------------

/// Delta-debugs a failing tape to a (locally) minimal reproducer:
/// chunk removal at halving granularity, then pointwise reduction
/// toward choice 0, repeated to fixpoint within `attempt_budget`
/// replays. Only candidates reproducing exactly `target` are accepted,
/// so the shrunk tape fails the same way the original did.
#[allow(clippy::too_many_arguments)] // a replay coordinate, not a config
pub fn shrink_tape(
    defs: &Definitions,
    op_name: &str,
    seed: u64,
    tape: &[u32],
    target: FuzzOutcome,
    trigger: &FuzzTrigger,
    limits: &GenLimits,
    attempt_budget: usize,
) -> Vec<u32> {
    let mut best = tape.to_vec();
    let mut attempts = 0usize;
    let reproduces = |candidate: &[u32], attempts: &mut usize| {
        *attempts += 1;
        replay_outcome(defs, op_name, seed, candidate, trigger, limits) == target
    };
    loop {
        let before = best.clone();
        // Phase 1: remove chunks, halving the chunk size.
        let mut chunk = (best.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < best.len() {
                if attempts >= attempt_budget {
                    return best;
                }
                let mut candidate = best.clone();
                let end = (start + chunk).min(candidate.len());
                candidate.drain(start..end);
                if reproduces(&candidate, &mut attempts) {
                    best = candidate;
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        // Phase 2: reduce each surviving choice toward 0.
        let mut i = 0;
        while i < best.len() {
            while best[i] > 0 {
                if attempts >= attempt_budget {
                    return best;
                }
                let mut candidate = best.clone();
                candidate[i] = 0;
                if reproduces(&candidate, &mut attempts) {
                    best = candidate;
                    break;
                }
                let halved = best[i] / 2;
                if halved == 0 {
                    break;
                }
                candidate = best.clone();
                candidate[i] = halved;
                if reproduces(&candidate, &mut attempts) {
                    best = candidate;
                } else {
                    break;
                }
            }
            i += 1;
        }
        if best == before {
            return best;
        }
    }
}

// --- run configuration ----------------------------------------------

/// Which exchange path(s) a fuzz run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FuzzTransport {
    /// In-process only (the canonical, socket-free path).
    #[default]
    InProcess,
    /// Loopback TCP only ([`crate::wire`]).
    Tcp,
    /// Both paths, with the E15-style equivalence check: the
    /// in-process outcome is canonical and any disagreement counts a
    /// divergence (pinned zero).
    Both,
}

impl FuzzTransport {
    fn uses_tcp(self) -> bool {
        !matches!(self, FuzzTransport::InProcess)
    }

    /// Parses the CLI form.
    pub fn parse(text: &str) -> Result<FuzzTransport, String> {
        match text {
            "in-process" => Ok(FuzzTransport::InProcess),
            "tcp" => Ok(FuzzTransport::Tcp),
            "both" => Ok(FuzzTransport::Both),
            other => Err(format!(
                "unknown transport {other:?}: expected in-process, tcp or both"
            )),
        }
    }
}

impl fmt::Display for FuzzTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FuzzTransport::InProcess => "in-process",
            FuzzTransport::Tcp => "tcp",
            FuzzTransport::Both => "both",
        })
    }
}

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Cases generated per `server × service` unit.
    pub cases: usize,
    /// The run seed every per-case seed derives from.
    pub seed: u64,
    /// Catalog stride (every `stride`-th entry per server).
    pub stride: usize,
    /// Include the extension platforms (Axis2 server).
    pub extended: bool,
    /// Worker threads. Never part of the config hash — results are
    /// bit-identical at any thread count.
    pub threads: usize,
    /// Exchange path(s).
    pub transport: FuzzTransport,
    /// Structural generation caps.
    pub limits: GenLimits,
    /// Replay budget per shrink.
    pub shrink_budget: usize,
    /// The wire server's request-body cap (the 413 boundary); the
    /// fuzz client's own response limit is kept strictly larger so
    /// the cap under test is always the server's.
    pub max_body: usize,
    /// Read/write deadline for both wire endpoints, milliseconds (the
    /// slow-loris bound a hang must beat).
    pub wire_timeout_ms: u64,
    /// The fault plan arming injected crash/hang triggers.
    pub plan: FaultPlan,
    /// Journal path; `None` disables journaling.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of truncating it.
    pub resume: bool,
    /// Deterministic kill switch: halt (exit 9) after this many unit
    /// batches are appended.
    pub halt_after_units: Option<usize>,
    /// Run only this shard's units.
    pub shard: Option<ShardSpec>,
}

impl FuzzConfig {
    /// A default-shaped config for `cases` per unit under `seed`.
    pub fn new(cases: usize, seed: u64) -> FuzzConfig {
        FuzzConfig {
            cases,
            seed,
            stride: 1,
            extended: false,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            transport: FuzzTransport::InProcess,
            limits: GenLimits::default(),
            shrink_budget: 500,
            max_body: crate::wire::HttpLimits::default().max_body,
            wire_timeout_ms: 2000,
            plan: FaultPlan::silent(seed),
            journal: None,
            resume: false,
            halt_after_units: None,
            shard: None,
        }
    }

    /// The config hash pinned in fuzz journal headers. Deliberately
    /// excludes threads, journal/resume/halt plumbing and the shard
    /// spec, so journals from any execution shape of the *same*
    /// science merge and compare bit-identically.
    pub fn config_hash(&self) -> u64 {
        let limits = &self.limits;
        content_hash(
            format!(
                "wsitool-fuzz-config-v1;cases={};seed={};stride={};extended={};transport={};\
                 depth={};repeat={};text={};budget={};shrink={};max_body={};timeout={};fault={}",
                self.cases,
                self.seed,
                self.stride,
                self.extended,
                self.transport,
                limits.max_depth,
                limits.max_repeat,
                limits.max_text_len,
                limits.payload_budget,
                self.shrink_budget,
                self.max_body,
                self.wire_timeout_ms,
                self.plan.fingerprint(),
            )
            .as_bytes(),
        )
    }
}

// --- unit enumeration -----------------------------------------------

/// One fuzzable unit: a deployed `server × service` pair.
#[derive(Debug, Clone)]
pub struct FuzzUnit {
    /// Owning server platform.
    pub server: ServerId,
    /// Fully-qualified class name the echo service was generated from.
    pub fqcn: String,
    /// The published description.
    pub wsdl_xml: String,
}

/// Enumerates every fuzzable unit in canonical (server, catalog)
/// order — the order journals commit in and shard merges rebuild. The
/// same enumeration drives workers, resume matching and the merge, so
/// the three can never disagree about what unit index means.
pub fn fuzz_units(stride: usize, extended: bool) -> Vec<FuzzUnit> {
    let servers = if extended {
        extension_servers()
    } else {
        all_servers()
    };
    let mut units = Vec::new();
    for server in servers {
        let id = server.info().id;
        for entry in server.catalog().entries().iter().step_by(stride.max(1)) {
            let DeployOutcome::Deployed { wsdl_xml } = server.deploy(entry) else {
                continue;
            };
            units.push(FuzzUnit {
                server: id,
                fqcn: entry.fqcn.clone(),
                wsdl_xml,
            });
        }
    }
    units
}

// --- outcome tables -------------------------------------------------

/// Per-pair outcome counts across the fuzzed matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzTable {
    counts: BTreeMap<(ServerId, ClientId), [u64; 5]>,
}

impl FuzzTable {
    /// Tallies one case outcome.
    pub fn record(&mut self, server: ServerId, client: ClientId, outcome: FuzzOutcome) {
        self.counts.entry((server, client)).or_default()[outcome.code() as usize] += 1;
    }

    /// Rebuilds the table from journaled unit records (client
    /// attribution is positional: case `i` → `ClientId::ALL[i % 11]`).
    pub fn from_units(units: &[FuzzUnitRecord]) -> FuzzTable {
        let mut table = FuzzTable::default();
        for unit in units {
            for (i, code) in unit.outcomes.iter().enumerate() {
                let client = ClientId::ALL[i % ClientId::ALL.len()];
                if let Some(outcome) = FuzzOutcome::from_code(*code) {
                    table.record(unit.server, client, outcome);
                }
            }
        }
        table
    }

    /// Total cases per outcome, across all pairs.
    pub fn totals(&self) -> [u64; 5] {
        let mut totals = [0u64; 5];
        for row in self.counts.values() {
            for (t, v) in totals.iter_mut().zip(row) {
                *t += v;
            }
        }
        totals
    }

    /// The byte-stable one-line totals summary CI greps for.
    pub fn totals_line(&self) -> String {
        let t = self.totals();
        format!(
            "fuzz totals: accept={} reject-clean={} hang-deadline={} crash={} wire-error={}",
            t[0], t[1], t[2], t[3], t[4]
        )
    }
}

impl fmt::Display for FuzzTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fuzz outcomes (server × client):")?;
        let mut current: Option<ServerId> = None;
        for ((server, client), row) in &self.counts {
            if current != Some(*server) {
                writeln!(f, "{server:?}:")?;
                writeln!(
                    f,
                    "  {:<28} {:>7} {:>13} {:>14} {:>6} {:>11}",
                    "client", "accept", "reject-clean", "hang-deadline", "crash", "wire-error"
                )?;
                current = Some(*server);
            }
            writeln!(
                f,
                "  {:<28} {:>7} {:>13} {:>14} {:>6} {:>11}",
                client.name(),
                row[0],
                row[1],
                row[2],
                row[3],
                row[4]
            )?;
        }
        write!(f, "{}", self.totals_line())
    }
}

// --- the run driver -------------------------------------------------

/// Everything a fuzz run (or a shard merge) produced.
#[derive(Debug)]
pub struct FuzzRunOutcome {
    /// The per-pair outcome table.
    pub table: FuzzTable,
    /// Unit records in canonical order (what the journal holds).
    pub units: Vec<FuzzUnitRecord>,
    /// Shrunk reproducers in canonical order.
    pub repros: Vec<FuzzReproRecord>,
    /// Units replayed from the journal instead of executed.
    pub replayed_units: usize,
    /// Units actually executed this run.
    pub executed_units: usize,
    /// Cases whose request exceeded the wire body cap (the deliberate
    /// 413 boundary; counted, and excluded from the equivalence check).
    pub cap_hits: u64,
    /// In-process vs TCP outcome disagreements under
    /// [`FuzzTransport::Both`] (pinned zero by E19's equivalence).
    pub divergences: u64,
}

struct UnitDone {
    record: FuzzUnitRecord,
    repros: Vec<FuzzReproRecord>,
    replayed: bool,
    cap_hits: u64,
    divergences: u64,
}

struct TcpLeg {
    server: WireServer,
    addr: SocketAddr,
    client: WireClient,
    /// Serializes posts: the accept-gate's 503 shedding is load
    /// dependent, and determinism may not hang on scheduler luck.
    post_lock: Mutex<()>,
}

impl TcpLeg {
    fn start(units: &[FuzzUnit], owned: &[usize], config: &FuzzConfig) -> Result<TcpLeg, String> {
        let mut services = BTreeMap::new();
        for &i in owned {
            let unit = &units[i];
            services.insert(
                format!("/{:?}/{}", unit.server, unit.fqcn),
                HostedService::new(unit.wsdl_xml.clone()),
            );
        }
        let timeout = Duration::from_millis(config.wire_timeout_ms.max(1));
        let mut server_config = WireServerConfig {
            workers: 8,
            queue_depth: 64,
            read_timeout: timeout,
            write_timeout: timeout,
            ..WireServerConfig::default()
        };
        // Satellite fix: the 413 cap and slow-loris deadlines are per
        // fuzz run, so large-payload generators exercise the boundary
        // deliberately instead of tripping a fixed default as noise.
        server_config.limits.max_body = config.max_body;
        let server = WireServer::start(0, services, server_config)
            .map_err(|e| format!("fuzz wire server failed to start: {e}"))?;
        let addr = server.addr();
        let mut client_config = WireClientConfig {
            connect_timeout: timeout,
            read_timeout: timeout,
            write_timeout: timeout,
            ..WireClientConfig::default()
        };
        // The client must always out-accept the server's cap, so the
        // boundary under test is unambiguous.
        client_config.limits.max_body =
            client_config.limits.max_body.max(config.max_body * 2 + 4096);
        Ok(TcpLeg {
            server,
            addr,
            client: WireClient::new(client_config),
            post_lock: Mutex::new(()),
        })
    }

    fn post_outcome(&self, path: &str, case: &GeneratedCase) -> FuzzOutcome {
        let _serialized = lock_unpoisoned(&self.post_lock);
        let exchange = match self.client.post(
            self.addr,
            path,
            &case.operation,
            case.request_xml.as_bytes(),
            path,
        ) {
            Err(e) => ExchangeOutcome::TransportError { reason: e.reason() },
            Ok(response) => match response.body_str() {
                None => ExchangeOutcome::TransportError {
                    reason: "response body is not UTF-8".to_string(),
                },
                Some(body) => classify_response(&case.request_xml, body, &case.expected),
            },
        };
        FuzzOutcome::from_exchange(&exchange)
    }
}

fn worst_label(outcomes: &[u8]) -> &'static str {
    outcomes
        .iter()
        .filter_map(|&code| FuzzOutcome::from_code(code))
        .max()
        .unwrap_or(FuzzOutcome::Accept)
        .name()
}

fn run_unit(
    unit: &FuzzUnit,
    config: &FuzzConfig,
    tcp: Option<&TcpLeg>,
    obs: Option<&Obs>,
) -> UnitDone {
    let span = obs.map(|o| o.begin_phase(TracePhase::Fuzz, unit.server.name(), None, &unit.fqcn));
    let defs = from_xml_str(&unit.wsdl_xml).ok();
    let op = defs.as_ref().and_then(|d| {
        d.port_types
            .iter()
            .flat_map(|pt| pt.operations.iter())
            .next()
            .map(|o| o.name.clone())
    });
    let trigger = FuzzTrigger::from_plan(&config.plan, unit.server, &unit.fqcn);
    let tcp_path = format!("/{:?}/{}", unit.server, unit.fqcn);

    let mut outcomes = Vec::with_capacity(config.cases);
    let mut repros = Vec::new();
    let mut cap_hits = 0u64;
    let mut divergences = 0u64;

    for i in 0..config.cases {
        let client = ClientId::ALL[i % ClientId::ALL.len()];
        let seed = case_seed(config.seed, unit.server, &unit.fqcn, i);
        let (outcome, case) = match (&defs, &op) {
            (Some(defs), Some(op)) => {
                let generated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    generate_case(defs, op, seed, None, &config.limits)
                }));
                match generated {
                    Err(_) => (FuzzOutcome::Crash, None),
                    Ok(Err(_)) => (FuzzOutcome::RejectClean, None),
                    Ok(Ok(case)) => {
                        let triggered = trigger.hang_fires(&case)
                            || trigger.crash_fires(&case);
                        let in_process = evaluate_in_process(defs, &case, &trigger);
                        let over_cap = case.request_xml.len() > config.max_body;
                        let outcome = match config.transport {
                            FuzzTransport::InProcess => in_process,
                            FuzzTransport::Tcp => {
                                if over_cap {
                                    cap_hits += 1;
                                }
                                if triggered {
                                    // Pre-transport verdicts (the armed
                                    // hang/crash model the *client*, not
                                    // the wire) are transport-agnostic.
                                    in_process
                                } else {
                                    tcp.map_or(in_process, |leg| {
                                        leg.post_outcome(&tcp_path, &case)
                                    })
                                }
                            }
                            FuzzTransport::Both => {
                                if over_cap {
                                    cap_hits += 1;
                                } else if !triggered {
                                    if let Some(leg) = tcp {
                                        let wire = leg.post_outcome(&tcp_path, &case);
                                        if wire != in_process {
                                            divergences += 1;
                                        }
                                    }
                                }
                                in_process
                            }
                        };
                        (outcome, Some(case))
                    }
                }
            }
            // No parseable description or no operation: nothing to
            // invoke — the orderly rejection the survey reports too.
            _ => (FuzzOutcome::RejectClean, None),
        };
        outcomes.push(outcome.code());
        if let Some(o) = obs {
            let metrics = o.metrics_arc();
            metrics.inc("fuzz_cases_total");
            metrics.inc(&format!(
                "fuzz_outcome_total{{outcome=\"{}\"}}",
                outcome.name()
            ));
        }
        if outcome.error_class() == Some(ErrorClass::Disruptive) {
            // A disruptive case becomes a journaled reproducer; crash
            // and hang verdicts replay in-process, so they shrink.
            let (tape, digest) = match (&defs, &op, &case) {
                (Some(defs), Some(op), Some(case)) => {
                    let tape = if matches!(
                        outcome,
                        FuzzOutcome::Crash | FuzzOutcome::HangDeadline
                    ) {
                        shrink_tape(
                            defs,
                            op,
                            seed,
                            &case.tape,
                            outcome,
                            &trigger,
                            &config.limits,
                            config.shrink_budget,
                        )
                    } else {
                        case.tape.clone()
                    };
                    let digest = generate_case(defs, op, seed, Some(&tape), &config.limits)
                        .map(|c| content_hash(c.request_xml.as_bytes()))
                        .unwrap_or(0);
                    (tape, digest)
                }
                _ => (Vec::new(), 0),
            };
            repros.push(FuzzReproRecord {
                server: unit.server,
                client,
                outcome: outcome.code(),
                case_index: i as u32,
                seed,
                digest,
                fqcn: unit.fqcn.clone(),
                tape,
            });
        }
    }

    if let (Some(o), Some(span)) = (obs, span) {
        o.end_phase(
            TracePhase::Fuzz,
            unit.server.name(),
            None,
            &unit.fqcn,
            worst_label(&outcomes),
            None,
            0,
            false,
            span,
        );
    }
    UnitDone {
        record: FuzzUnitRecord {
            server: unit.server,
            fqcn: unit.fqcn.clone(),
            outcomes,
        },
        repros,
        replayed: false,
        cap_hits,
        divergences,
    }
}

/// Flushes every consecutive ready slot at the commit cursor: journal
/// batch append (skipped for replayed units — their frames are already
/// on disk) and canonical-order result collection. Workers finish
/// units in any order; this re-serializes the visible effects, which
/// is what makes journal bytes identical at any thread count.
fn flush_ready(
    cursor: &Mutex<usize>,
    slots: &[Mutex<Option<UnitDone>>],
    writer: Option<&JournalWriter>,
    out: &Mutex<Vec<UnitDone>>,
) {
    let mut at = lock_unpoisoned(cursor);
    while *at < slots.len() {
        let taken = lock_unpoisoned(&slots[*at]).take();
        let Some(done) = taken else {
            break;
        };
        if let Some(w) = writer {
            if !done.replayed {
                w.append_fuzz_batch(&done.repros, &done.record);
            }
        }
        lock_unpoisoned(out).push(done);
        *at += 1;
    }
}

/// Runs a fuzz campaign over every owned unit. Deterministic by
/// construction: identical outcome tables, journal bytes and shrunk
/// reproducers across repeat runs, thread counts and shard counts.
///
/// # Errors
///
/// Journal open/config failures and wire-server start failures; the
/// fuzzing itself never errors (every cell is isolated and
/// classified).
pub fn run(config: &FuzzConfig, obs: Option<&Obs>) -> Result<FuzzRunOutcome, String> {
    let units = fuzz_units(config.stride, config.extended);
    let owned: Vec<usize> = units
        .iter()
        .enumerate()
        .filter(|(i, _)| config.shard.is_none_or(|s| s.owns(*i)))
        .map(|(i, _)| i)
        .collect();

    // Journal: fresh, or resume with already-committed units replayed.
    let mut writer = None;
    let mut replayed: BTreeMap<(ServerId, String), (FuzzUnitRecord, Vec<FuzzReproRecord>)> =
        BTreeMap::new();
    if let Some(path) = &config.journal {
        if config.resume && path.exists() {
            let (w, read) =
                JournalWriter::resume_fuzz(path, config.config_hash(), config.halt_after_units)
                    .map_err(|e| e.to_string())?;
            for unit in read.fuzz_units {
                replayed.insert((unit.server, unit.fqcn.clone()), (unit, Vec::new()));
            }
            for repro in read.repros {
                if let Some(slot) = replayed.get_mut(&(repro.server, repro.fqcn.clone())) {
                    slot.1.push(repro);
                }
            }
            writer = Some(w);
        } else {
            writer = Some(
                JournalWriter::create(path, config.config_hash(), config.halt_after_units)
                    .map_err(|e| e.to_string())?,
            );
        }
    }

    let slots: Vec<Mutex<Option<UnitDone>>> =
        owned.iter().map(|_| Mutex::new(None)).collect();
    let mut replayed_units = 0usize;
    for (slot, &unit_index) in slots.iter().zip(&owned) {
        let unit = &units[unit_index];
        if let Some((record, repros)) = replayed.remove(&(unit.server, unit.fqcn.clone())) {
            if record.outcomes.len() == config.cases {
                *lock_unpoisoned(slot) = Some(UnitDone {
                    record,
                    repros,
                    replayed: true,
                    cap_hits: 0,
                    divergences: 0,
                });
                replayed_units += 1;
            }
        }
    }

    let tcp = if config.transport.uses_tcp() {
        Some(TcpLeg::start(&units, &owned, config)?)
    } else {
        None
    };

    let claim = AtomicUsize::new(0);
    let cursor = Mutex::new(0usize);
    let committed: Mutex<Vec<UnitDone>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..config.threads.max(1) {
            scope.spawn(|| loop {
                let i = claim.fetch_add(1, Ordering::Relaxed);
                if i >= owned.len() {
                    break;
                }
                let prefilled = lock_unpoisoned(&slots[i]).is_some();
                if !prefilled {
                    let done = run_unit(&units[owned[i]], config, tcp.as_ref(), obs);
                    *lock_unpoisoned(&slots[i]) = Some(done);
                }
                flush_ready(&cursor, &slots, writer.as_ref(), &committed);
            });
        }
    });
    // All-replayed runs (and torn stragglers) flush here.
    flush_ready(&cursor, &slots, writer.as_ref(), &committed);

    if let Some(leg) = tcp {
        leg.server.shutdown();
    }
    if let Some(w) = &writer {
        if let Some(e) = w.take_error() {
            return Err(format!("fuzz journal write failed: {e}"));
        }
    }

    let done = lock_unpoisoned(&committed);
    let mut outcome = FuzzRunOutcome {
        table: FuzzTable::default(),
        units: Vec::with_capacity(done.len()),
        repros: Vec::new(),
        replayed_units,
        executed_units: done.len() - replayed_units,
        cap_hits: 0,
        divergences: 0,
    };
    for unit in done.iter() {
        outcome.cap_hits += unit.cap_hits;
        outcome.divergences += unit.divergences;
        outcome.repros.extend(unit.repros.iter().cloned());
        outcome.units.push(unit.record.clone());
    }
    outcome.table = FuzzTable::from_units(&outcome.units);
    Ok(outcome)
}

// --- shard merge ----------------------------------------------------

/// Merges per-shard fuzz journals back into one canonical journal
/// (`merged.journal` in `dir`) plus the run outcome, exactly-once:
/// every owned unit must appear in precisely the shard that owns it,
/// with a full case vector, under the same config hash. The merged
/// journal is bit-identical to a single-process run by construction —
/// units are re-emitted in canonical enumeration order through the
/// same batch encoder.
///
/// # Errors
///
/// Unreadable/mismatched shard journals, missing or duplicate units,
/// and short (torn) case vectors.
pub fn merge_fuzz_shard_dir(
    dir: &std::path::Path,
    count: usize,
    config: &FuzzConfig,
) -> Result<(FuzzRunOutcome, PathBuf), String> {
    let expected_hash = config.config_hash();
    let mut by_key: BTreeMap<(ServerId, String), (usize, FuzzUnitRecord, Vec<FuzzReproRecord>)> =
        BTreeMap::new();
    for shard_index in 0..count {
        let spec = ShardSpec::new(shard_index, count);
        let path = spec.journal_file(dir);
        let read = crate::journal::read_journal(&path)
            .map_err(|e| format!("shard {shard_index}/{count} journal {path:?}: {e}"))?;
        if read.config_hash != expected_hash {
            return Err(format!(
                "shard {shard_index}/{count} journal was written by a different fuzz \
                 configuration (0x{:016x} != 0x{expected_hash:016x})",
                read.config_hash
            ));
        }
        let mut pending: BTreeMap<(ServerId, String), Vec<FuzzReproRecord>> = BTreeMap::new();
        for repro in read.repros {
            pending
                .entry((repro.server, repro.fqcn.clone()))
                .or_default()
                .push(repro);
        }
        for unit in read.fuzz_units {
            let key = (unit.server, unit.fqcn.clone());
            let repros = pending.remove(&key).unwrap_or_default();
            if by_key
                .insert(key.clone(), (shard_index, unit, repros))
                .is_some()
            {
                return Err(format!(
                    "unit {:?}/{} appears in more than one shard journal",
                    key.0, key.1
                ));
            }
        }
    }

    let units = fuzz_units(config.stride, config.extended);
    let merged_path = dir.join("merged.journal");
    let writer = JournalWriter::create(&merged_path, expected_hash, None)
        .map_err(|e| e.to_string())?;
    let mut outcome = FuzzRunOutcome {
        table: FuzzTable::default(),
        units: Vec::new(),
        repros: Vec::new(),
        replayed_units: 0,
        executed_units: 0,
        cap_hits: 0,
        divergences: 0,
    };
    for (global_index, unit) in units.iter().enumerate() {
        let Some((from_shard, record, repros)) =
            by_key.remove(&(unit.server, unit.fqcn.clone()))
        else {
            return Err(format!(
                "unit {:?}/{} missing from every shard journal",
                unit.server, unit.fqcn
            ));
        };
        let owner = ShardSpec::new(from_shard, count);
        if !owner.owns(global_index) {
            return Err(format!(
                "unit {:?}/{} was journaled by shard {from_shard}/{count}, which does not own it",
                unit.server, unit.fqcn
            ));
        }
        if record.outcomes.len() != config.cases {
            return Err(format!(
                "unit {:?}/{} journaled {} of {} cases (torn shard run)",
                unit.server,
                unit.fqcn,
                record.outcomes.len(),
                config.cases
            ));
        }
        writer.append_fuzz_batch(&repros, &record);
        outcome.executed_units += 1;
        outcome.repros.extend(repros);
        outcome.units.push(record);
    }
    if let Some(stray) = by_key.keys().next() {
        return Err(format!(
            "shard journals contain a unit outside this configuration: {:?}/{}",
            stray.0, stray.1
        ));
    }
    if let Some(e) = writer.take_error() {
        return Err(format!("merged fuzz journal write failed: {e}"));
    }
    outcome.table = FuzzTable::from_units(&outcome.units);
    Ok((outcome, merged_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_frameworks::server::{Metro, ServerSubsystem};

    #[test]
    fn tape_prng_is_the_standard_splitmix64_stream() {
        // The published splitmix64 reference outputs for seed 0.
        let mut tape = ChoiceStream::fresh(0);
        let drawn: Vec<u64> = (0..3).map(|_| tape.choose(usize::MAX) as u64).collect();
        assert_eq!(
            drawn,
            [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]
        );
    }

    fn metro_string_wsdl() -> String {
        Metro
            .deploy(Metro.catalog().get("java.lang.String").unwrap())
            .wsdl()
            .unwrap()
            .to_string()
    }

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn choice_stream_replays_its_own_tape() {
        let mut fresh = ChoiceStream::fresh(42);
        let drawn: Vec<usize> = (0..64).map(|i| fresh.choose(3 + i % 7)).collect();
        let tape = fresh.into_tape();
        let mut replay = ChoiceStream::replay(&tape);
        let replayed: Vec<usize> = (0..64).map(|i| replay.choose(3 + i % 7)).collect();
        assert_eq!(drawn, replayed);
        assert_eq!(replay.into_tape(), tape);
    }

    #[test]
    fn exhausted_replay_collapses_to_simplest() {
        let mut cs = ChoiceStream::replay(&[5]);
        assert_eq!(cs.choose(10), 5);
        assert_eq!(cs.choose(10), 0);
        assert_eq!(cs.choose(1), 0);
    }

    #[test]
    fn generation_is_deterministic_and_replayable() {
        let wsdl = metro_string_wsdl();
        let defs = from_xml_str(&wsdl).unwrap();
        let limits = GenLimits::default();
        for seed in [1u64, 99, 0xdead_beef] {
            let a = generate_case(&defs, "echo", seed, None, &limits).unwrap();
            let b = generate_case(&defs, "echo", seed, None, &limits).unwrap();
            assert_eq!(a, b);
            let replayed = generate_case(&defs, "echo", seed, Some(&a.tape), &limits).unwrap();
            assert_eq!(replayed.request_xml, a.request_xml);
            assert_eq!(replayed.expected, a.expected);
            assert_eq!(replayed.tape, a.tape);
        }
    }

    #[test]
    fn generated_cases_classify_without_panicking() {
        let wsdl = metro_string_wsdl();
        let defs = from_xml_str(&wsdl).unwrap();
        let limits = GenLimits::default();
        let trigger = FuzzTrigger::none();
        let mut seen_accept = false;
        for i in 0..40 {
            let case = generate_case(&defs, "echo", i, None, &limits).unwrap();
            let outcome = evaluate_in_process(&defs, &case, &trigger);
            assert_ne!(outcome, FuzzOutcome::Crash, "case {i}");
            seen_accept |= outcome == FuzzOutcome::Accept;
        }
        assert!(seen_accept, "no generated case ever completed an exchange");
    }

    #[test]
    fn forced_crash_shrinks_to_minimal_reproducer() {
        // A plain-string echo, so the payload can exhibit either
        // trigger property (XML-meta and non-ASCII pool entries).
        let defs = wsinterop_wsdl::builder::doc_literal_echo(
            "S",
            "urn:t",
            "echo",
            wsinterop_xsd::TypeRef::BuiltIn(BuiltIn::String),
        );
        let limits = GenLimits::default();
        let plan = FaultPlan::silent(7).force_at(
            FaultKind::ClientGenPanic,
            fuzz_site(ServerId::Metro, "test.Case"),
        );
        let trigger = FuzzTrigger::from_plan(&plan, ServerId::Metro, "test.Case");
        // Assertions stay outside quiet_panics so failures report; the
        // injected panics inside are all caught by the replay machinery.
        let outcome = quiet_panics(|| {
            let (seed, case) = (0u64..200).find_map(|seed| {
                let case = generate_case(&defs, "echo", seed, None, &limits).ok()?;
                (evaluate_in_process(&defs, &case, &trigger) == FuzzOutcome::Crash)
                    .then_some((seed, case))
            })?;
            let shrunk = shrink_tape(
                &defs,
                "echo",
                seed,
                &case.tape,
                FuzzOutcome::Crash,
                &trigger,
                &limits,
                500,
            );
            let replays =
                replay_outcome(&defs, "echo", seed, &shrunk, &trigger, &limits)
                    == FuzzOutcome::Crash;
            // 1-minimality: zeroing any surviving choice must lose the crash.
            let reducible: Vec<usize> = (0..shrunk.len())
                .filter(|&i| {
                    if shrunk[i] == 0 {
                        return false;
                    }
                    let mut smaller = shrunk.clone();
                    smaller[i] = 0;
                    replay_outcome(&defs, "echo", seed, &smaller, &trigger, &limits)
                        == FuzzOutcome::Crash
                })
                .collect();
            Some((case.tape.len(), shrunk.len(), replays, reducible))
        });
        let (original_len, shrunk_len, replays, reducible) =
            outcome.expect("no crashing seed in 200 tries");
        assert!(shrunk_len <= original_len);
        assert!(replays, "shrunk tape no longer reproduces the crash");
        assert!(reducible.is_empty(), "reducible choices: {reducible:?}");
    }

    #[test]
    fn outcome_codes_roundtrip_and_order_by_severity() {
        for outcome in FuzzOutcome::ALL {
            assert_eq!(FuzzOutcome::from_code(outcome.code()), Some(outcome));
        }
        assert_eq!(FuzzOutcome::from_code(5), None);
        assert!(FuzzOutcome::Accept < FuzzOutcome::Crash);
    }

    #[test]
    fn config_hash_ignores_execution_shape() {
        let mut a = FuzzConfig::new(22, 9);
        let mut b = FuzzConfig::new(22, 9);
        a.threads = 1;
        b.threads = 16;
        b.journal = Some(PathBuf::from("/tmp/x.journal"));
        b.shard = Some(ShardSpec::new(0, 3));
        b.halt_after_units = Some(1);
        assert_eq!(a.config_hash(), b.config_hash());
        b.seed = 10;
        assert_ne!(a.config_hash(), b.config_hash());
    }

    #[test]
    fn fuzz_units_enumerates_in_canonical_order() {
        let units = fuzz_units(1500, false);
        assert!(!units.is_empty());
        let mut last_server_index = 0;
        for unit in &units {
            let idx = ServerId::ALL
                .iter()
                .position(|s| *s == unit.server)
                .unwrap();
            assert!(idx >= last_server_index, "servers out of order");
            last_server_index = idx;
        }
        assert_eq!(units.len(), fuzz_units(1500, false).len());
    }

    #[test]
    fn run_is_thread_count_invariant() {
        let mut one = FuzzConfig::new(11, 3);
        one.stride = 1500;
        one.threads = 1;
        let mut many = one.clone();
        many.threads = 8;
        let a = run(&one, None).unwrap();
        let b = run(&many, None).unwrap();
        assert_eq!(a.table, b.table);
        assert_eq!(a.units, b.units);
        assert_eq!(a.repros, b.repros);
    }
}
