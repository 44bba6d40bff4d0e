//! The parse-once pipeline: per-service parsed descriptions, shared by
//! reference, behind a campaign-wide content-addressed memo.
//!
//! The naive campaign re-reads every published description ~13 times
//! per service: once for the WS-I Basic Profile check, once per client
//! for each of the eleven Artifact Generation steps, and once more for
//! the chaos wire probe — plus eleven independent [`DocFacts`]
//! analyses. One parse and one analysis suffice: a description is
//! immutable once published, and every consumer is a pure function of
//! its content.
//!
//! [`ParsedService`] holds the text, the parsed [`Definitions`], the
//! precomputed [`DocFacts`] and a content hash, computed exactly once
//! at deploy time and shared by `Arc` across the WS-I analyzer, all
//! eleven `generate_from` calls and the wire probe. [`DocCache`] adds
//! the campaign-wide memo:
//!
//! * **hash(WSDL bytes) → [`ParsedService`]** — structurally identical
//!   descriptions across catalog entries are parsed and analyzed once;
//! * **(ClientId, hash) → [`GenOutcome`]** — a client's reaction to a
//!   document it has already classified is replayed from the memo.
//!
//! Both memos are provably safe: `generate_from` must be a pure
//! function of the document (see [`ClientSubsystem`]), hash hits are
//! verified byte-for-byte before reuse (a colliding document is parsed
//! fresh and never memoized), and parse-failure messages are preserved
//! verbatim so the cached pipeline reproduces the text path's
//! [`GenOutcome`]s bit-identically. Fault-injected (corrupted-WSDL)
//! sites bypass the memo entirely — wire-level damage must hit the
//! real parser, and its classification must never leak into (or out
//! of) the memo shared by pristine sites.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wsinterop_frameworks::client::facts::DocFacts;
use wsinterop_frameworks::client::{parse_for_generation, ClientId, ClientSubsystem, GenOutcome};
use wsinterop_wsdl::Definitions;

use crate::sync::lock_unpoisoned;
use crate::obs::{LazyCounter, MetricsRegistry};

/// Registry names for the cache's instruments. Private: the public
/// surface is [`PipelineStats`]; the names are documented in
/// DESIGN.md §11 and visible through `wsitool metrics`.
const M_PARSES: &str = "doccache_parses_total";
const M_DOC_HITS: &str = "doccache_doc_memo_hits_total";
const M_GEN_RUNS: &str = "doccache_gen_runs_total";
const M_GEN_HITS: &str = "doccache_gen_memo_hits_total";
const M_FAULT_BYPASSES: &str = "doccache_fault_bypasses_total";
const M_TEXT_GENERATES: &str = "doccache_text_generates_total";
const M_FAULT_TEXT_GENERATES: &str = "doccache_fault_text_generates_total";
const M_JOURNAL_REPLAYS: &str = "journal_cells_replayed_total";

/// One service description, parsed exactly once.
#[derive(Debug)]
pub struct ParsedService {
    /// The published WSDL text, verbatim — the tool-fidelity input for
    /// the fault-injection path and byte-equality collision checks.
    wsdl_xml: String,
    /// FNV-1a hash of the WSDL bytes (the content address).
    content_hash: u64,
    /// The parse: document + facts, or the generation-error message
    /// every text-input tool reports for this (unreadable) description.
    doc: Result<(Definitions, DocFacts), String>,
    /// `false` for fault-damaged or hash-colliding documents, which
    /// must never serve from (or populate) the generation memo.
    memoizable: bool,
    /// `true` when this parse came through the fault-site bypass — the
    /// published bytes were (or may have been) damaged by injection.
    /// Lets the pipeline stats count injected-and-parsed sites exactly
    /// once, never both as a bypass and a plain text generate.
    fault_damaged: bool,
}

impl ParsedService {
    /// Parses `wsdl_xml` outside any memo (fault sites, cache-disabled
    /// runs, colliding hashes).
    pub fn parse_uncached(wsdl_xml: String) -> ParsedService {
        let content_hash = content_hash(wsdl_xml.as_bytes());
        let doc = parse_for_generation(&wsdl_xml);
        ParsedService {
            wsdl_xml,
            content_hash,
            doc,
            memoizable: false,
            fault_damaged: false,
        }
    }

    /// Whether this parse came through the fault-site bypass.
    pub fn fault_damaged(&self) -> bool {
        self.fault_damaged
    }

    /// The published description text.
    pub fn wsdl_xml(&self) -> &str {
        &self.wsdl_xml
    }

    /// The content address (FNV-1a over the WSDL bytes).
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// The parsed document, when the description was readable.
    pub fn defs(&self) -> Option<&Definitions> {
        self.doc.as_ref().ok().map(|(defs, _)| defs)
    }

    /// The precomputed document facts, when the description was
    /// readable.
    pub fn facts(&self) -> Option<&DocFacts> {
        self.doc.as_ref().ok().map(|(_, facts)| facts)
    }

    /// The generation-error message for an unreadable description.
    pub fn parse_error(&self) -> Option<&str> {
        self.doc.as_ref().err().map(String::as_str)
    }

    /// The first operation declared across the port types — the wire
    /// probe's invocation target (no re-parse required).
    pub fn first_operation(&self) -> Option<&str> {
        self.defs().and_then(|defs| {
            defs.port_types
                .iter()
                .flat_map(|pt| pt.operations.iter())
                .next()
                .map(|op| op.name.as_str())
        })
    }
}

/// FNV-1a over the description bytes: the catalog's
/// [`wsinterop_typecat::rng::fnv1a`], the workspace's one
/// implementation. Stable across platforms and releases.
///
/// The journal's frame checksums, the wire server's config hash, the
/// virtual clock's span durations and the snapshot ring's frame
/// checksums all call it.
pub fn content_hash(bytes: &[u8]) -> u64 {
    wsinterop_typecat::rng::fnv1a(bytes)
}

/// Default number of independent lock stripes each memo is split
/// across (see [`DocCache::with_stripe_count`]).
pub const DEFAULT_MEMO_STRIPES: usize = 8;

/// One lock stripe of the memo: a slice of the document memo and the
/// matching slice of the generation memo, behind their own mutexes.
///
/// Striping by content hash means two workers contend only when they
/// touch documents that land in the same stripe — at N stripes the
/// expected contention on the parse-once hot path drops by ~N compared
/// to the historical single-map memos, without changing what the memo
/// stores: a key maps to exactly one stripe, so first-insert-wins and
/// byte-verified hits behave exactly as before.
#[derive(Debug, Default)]
struct MemoStripe {
    docs: Mutex<HashMap<u64, Arc<ParsedService>>>,
    gen: Mutex<HashMap<(ClientId, u64), GenOutcome>>,
}

/// Campaign-wide content-addressed memo over parsed descriptions and
/// per-client generation outcomes, with hit/miss accounting.
///
/// The memos are split into hash-addressed lock stripes
/// ([`DEFAULT_MEMO_STRIPES`] by default) so parallel workers only
/// contend when their documents collide on a stripe; the stripe count
/// is an execution detail with no observable effect on results (a
/// property test pins single-stripe ≡ striped campaigns bit-for-bit).
///
/// The hit/miss counters are registry-backed instruments
/// (`doccache_*` / `journal_cells_replayed_total`), pre-resolved into
/// lock-free [`LazyCounter`] handles on first use: an uninstrumented
/// cache owns a private [`MetricsRegistry`]; an instrumented campaign
/// shares its observer's, so `wsitool metrics` sees the same numbers
/// [`DocCache::stats`] reports.
#[derive(Debug)]
pub struct DocCache {
    stripes: Box<[MemoStripe]>,
    metrics: Arc<MetricsRegistry>,
    parses: LazyCounter,
    doc_hits: LazyCounter,
    gen_runs: LazyCounter,
    gen_hits: LazyCounter,
    fault_bypasses: LazyCounter,
    text_generates: LazyCounter,
    fault_text_generates: LazyCounter,
    journal_replays: LazyCounter,
}

impl Default for DocCache {
    fn default() -> DocCache {
        DocCache::with_config(DEFAULT_MEMO_STRIPES, Arc::default())
    }
}

impl DocCache {
    /// A fresh, empty cache with a private metrics registry.
    pub fn new() -> DocCache {
        DocCache::default()
    }

    /// A fresh cache publishing its accounting into `metrics`.
    pub fn with_registry(metrics: Arc<MetricsRegistry>) -> DocCache {
        DocCache::with_config(DEFAULT_MEMO_STRIPES, metrics)
    }

    /// A fresh cache with a custom stripe count and a private registry
    /// (`1` reproduces the historical single-map memo — the baseline
    /// the striping equivalence test compares against).
    pub fn with_stripe_count(stripes: usize) -> DocCache {
        DocCache::with_config(stripes, Arc::default())
    }

    /// A fresh cache with an explicit stripe count and registry.
    pub fn with_config(stripes: usize, metrics: Arc<MetricsRegistry>) -> DocCache {
        let stripes = stripes.max(1);
        DocCache {
            stripes: (0..stripes).map(|_| MemoStripe::default()).collect(),
            metrics,
            parses: LazyCounter::new(),
            doc_hits: LazyCounter::new(),
            gen_runs: LazyCounter::new(),
            gen_hits: LazyCounter::new(),
            fault_bypasses: LazyCounter::new(),
            text_generates: LazyCounter::new(),
            fault_text_generates: LazyCounter::new(),
            journal_replays: LazyCounter::new(),
        }
    }

    /// The stripe owning content hash `hash`. A key maps to exactly
    /// one stripe, so striping never changes which entry a lookup
    /// sees; the fold mixes the high bits in so the stripe index stays
    /// uniform even for hash families that vary mostly above bit 32.
    fn stripe(&self, hash: u64) -> &MemoStripe {
        let mixed = hash ^ (hash >> 32);
        &self.stripes[(mixed as usize) % self.stripes.len()]
    }

    /// Parses `wsdl_xml` through the content-addressed memo: the first
    /// sighting of a document parses and analyzes it; every later
    /// byte-identical sighting shares the same [`ParsedService`].
    pub fn parse(&self, wsdl_xml: String) -> Arc<ParsedService> {
        let hash = content_hash(wsdl_xml.as_bytes());
        let stripe = self.stripe(hash);
        // lock-order: L1 (doccache memo stripe) — leaf lock,
        // released before the counter bump.
        let cached = lock_unpoisoned(&stripe.docs).get(&hash).map(Arc::clone);
        if let Some(hit) = cached {
            if hit.wsdl_xml == wsdl_xml {
                self.doc_hits.inc(&self.metrics, M_DOC_HITS);
                return hit;
            }
            // A 64-bit collision between distinct documents: parse
            // fresh and keep it out of both memos. Correctness never
            // depends on the hash being collision-free.
            self.parses.inc(&self.metrics, M_PARSES);
            return Arc::new(ParsedService::parse_uncached(wsdl_xml));
        }
        self.parses.inc(&self.metrics, M_PARSES);
        let mut svc = ParsedService::parse_uncached(wsdl_xml);
        svc.memoizable = true;
        let svc = Arc::new(svc);
        // Two workers may race past the miss; first insert wins so the
        // canonical entry for a hash is unique (the loser's copy is
        // byte-identical anyway).
        // lock-order: L1 (doccache memo stripe) — leaf lock.
        let mut docs = lock_unpoisoned(&stripe.docs);
        Arc::clone(docs.entry(hash).or_insert(svc))
    }

    /// Parses a fault-damaged description, bypassing the memo: damaged
    /// bytes must hit the real parser and must never be shared with
    /// (or served to) pristine sites.
    pub fn parse_bypassing_memo(&self, wsdl_xml: String) -> Arc<ParsedService> {
        self.parses.inc(&self.metrics, M_PARSES);
        self.fault_bypasses.inc(&self.metrics, M_FAULT_BYPASSES);
        let mut svc = ParsedService::parse_uncached(wsdl_xml);
        svc.fault_damaged = true;
        Arc::new(svc)
    }

    /// Parses outside the memo for a cache-disabled run (counted as a
    /// plain parse, not a fault bypass).
    pub fn parse_unshared(&self, wsdl_xml: String) -> Arc<ParsedService> {
        self.parses.inc(&self.metrics, M_PARSES);
        Arc::new(ParsedService::parse_uncached(wsdl_xml))
    }

    /// One Client Artifact Generation step over a shared parse,
    /// memoized by `(client, content_hash)` for memoizable documents.
    ///
    /// Bit-equivalent to `client.generate(svc.wsdl_xml())`: unreadable
    /// descriptions replay the preserved parse-error message, readable
    /// ones run (or replay) the pure `generate_from` path.
    pub fn generate(&self, client: &dyn ClientSubsystem, svc: &ParsedService) -> GenOutcome {
        let (defs, facts) = match &svc.doc {
            Ok(parsed) => parsed,
            Err(message) => return GenOutcome::fail(message.clone()),
        };
        let key = (client.info().id, svc.content_hash);
        let stripe = self.stripe(svc.content_hash);
        if svc.memoizable {
            // lock-order: L1 (doccache memo stripe) — leaf lock,
            // released before the counter bump.
            let hit = lock_unpoisoned(&stripe.gen).get(&key).cloned();
            if let Some(hit) = hit {
                self.gen_hits.inc(&self.metrics, M_GEN_HITS);
                return hit;
            }
        }
        self.gen_runs.inc(&self.metrics, M_GEN_RUNS);
        let outcome = client.generate_from(defs, facts);
        if svc.memoizable {
            // lock-order: L1 (doccache memo stripe) — leaf lock.
            lock_unpoisoned(&stripe.gen)
                .entry(key)
                .or_insert_with(|| outcome.clone());
        }
        outcome
    }

    /// Records one text-path generation (cache-disabled or chaos cells,
    /// where the tool re-parses the text itself).
    pub fn note_text_generate(&self) {
        self.parses.inc(&self.metrics, M_PARSES);
        self.text_generates.inc(&self.metrics, M_TEXT_GENERATES);
    }

    /// Records one text-path generation over a **fault-damaged**
    /// description. Counted separately from plain text generates so a
    /// site that is both injected and parsed is never double-counted:
    /// its bypass parse lands in `fault_bypasses` and its generations
    /// here, never in `text_generates` too.
    pub fn note_fault_generate(&self) {
        self.parses.inc(&self.metrics, M_PARSES);
        self.fault_text_generates
            .inc(&self.metrics, M_FAULT_TEXT_GENERATES);
    }

    /// Records one cell replayed from a resume journal (no parse, no
    /// generation — the outcome came off disk).
    pub fn note_journal_replay(&self) {
        self.journal_replays.inc(&self.metrics, M_JOURNAL_REPLAYS);
    }

    /// Snapshot of the parse/memo accounting, read back from the
    /// registry (same instruments `wsitool metrics` exports).
    pub fn stats(&self) -> PipelineStats {
        let counter = |name| self.metrics.counter(name) as usize;
        PipelineStats {
            parses: counter(M_PARSES),
            doc_memo_hits: counter(M_DOC_HITS),
            distinct_docs: self
                .stripes
                .iter()
                // lock-order: L1 (doccache memo stripe) — one at a
                // time, leaf.
                .map(|s| lock_unpoisoned(&s.docs).len())
                .sum(),
            gen_runs: counter(M_GEN_RUNS),
            gen_memo_hits: counter(M_GEN_HITS),
            fault_bypasses: counter(M_FAULT_BYPASSES),
            text_generates: counter(M_TEXT_GENERATES),
            fault_text_generates: counter(M_FAULT_TEXT_GENERATES),
            journal_replays: counter(M_JOURNAL_REPLAYS),
        }
    }
}

/// Parse and memo accounting for one campaign run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Full XML parses performed (one per distinct document in a
    /// cached run; one per consumer in an uncached run).
    pub parses: usize,
    /// Document lookups served from the content-addressed memo.
    pub doc_memo_hits: usize,
    /// Distinct document contents seen by the memo.
    pub distinct_docs: usize,
    /// `generate_from` invocations actually executed.
    pub gen_runs: usize,
    /// Generation outcomes replayed from the `(client, hash)` memo.
    pub gen_memo_hits: usize,
    /// Parses forced past the memo because a fault site damaged (or
    /// may have damaged) the published bytes.
    pub fault_bypasses: usize,
    /// Generation steps that went down the text path (cache disabled
    /// or chaos cells), each re-parsing the text inside the tool —
    /// over **pristine** descriptions only.
    pub text_generates: usize,
    /// Text-path generation steps over fault-damaged descriptions.
    /// Disjoint from `text_generates` by construction, so an injected
    /// site's parses are never counted under both.
    pub fault_text_generates: usize,
    /// Cells replayed from a resume journal instead of executed.
    pub journal_replays: usize,
}

impl std::fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Parse-once pipeline")?;
        writeln!(
            f,
            "  parses: {} (distinct documents {}, doc-memo hits {}, fault bypasses {})",
            self.parses, self.distinct_docs, self.doc_memo_hits, self.fault_bypasses
        )?;
        writeln!(
            f,
            "  generation: {} executed, {} replayed from memo, {} via text path \
             ({} over fault-damaged docs), {} replayed from journal",
            self.gen_runs,
            self.gen_memo_hits,
            self.text_generates,
            self.fault_text_generates,
            self.journal_replays
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsinterop_frameworks::client::{all_clients, MetroClient};
    use wsinterop_frameworks::server::{Metro, ServerSubsystem};

    fn sample_wsdl() -> String {
        let entry = Metro.catalog().get("java.lang.String").unwrap();
        Metro.deploy(entry).wsdl().unwrap().to_string()
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let doc = sample_wsdl();
        assert_eq!(content_hash(doc.as_bytes()), content_hash(doc.as_bytes()));
        assert_ne!(
            content_hash(doc.as_bytes()),
            content_hash(format!("{doc} ").as_bytes())
        );
        // Pinned so the content address stays stable across releases
        // (persisted BENCH_campaign.json counters depend on it).
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn identical_documents_share_one_parse() {
        let cache = DocCache::new();
        let doc = sample_wsdl();
        let a = cache.parse(doc.clone());
        let b = cache.parse(doc.clone());
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.doc_memo_hits, 1);
        assert_eq!(stats.distinct_docs, 1);
        assert_eq!(a.content_hash(), content_hash(doc.as_bytes()));
        assert!(a.defs().is_some());
        assert!(a.facts().is_some());
        assert_eq!(a.first_operation(), Some("echo"));
    }

    #[test]
    fn parse_errors_replay_the_text_path_message() {
        let cache = DocCache::new();
        let svc = cache.parse("<not-wsdl/>".to_string());
        assert!(svc.defs().is_none());
        assert!(svc.first_operation().is_none());
        let cached = cache.generate(&MetroClient, &svc);
        let text = MetroClient.generate("<not-wsdl/>");
        assert_eq!(cached, text);
        assert!(!cached.succeeded());
        assert!(svc.parse_error().unwrap().starts_with("cannot read WSDL:"));
    }

    #[test]
    fn cached_generation_is_bit_identical_to_the_text_path() {
        let cache = DocCache::new();
        let doc = sample_wsdl();
        let svc = cache.parse(doc.clone());
        for client in all_clients() {
            let cached = cache.generate(client.as_ref(), &svc);
            let replayed = cache.generate(client.as_ref(), &svc);
            let text = client.generate(&doc);
            assert_eq!(cached, text, "{}", client.info().id);
            assert_eq!(replayed, text, "{}", client.info().id);
        }
        let stats = cache.stats();
        assert_eq!(stats.gen_runs, 11);
        assert_eq!(stats.gen_memo_hits, 11);
    }

    #[test]
    fn fault_and_plain_text_generates_are_counted_disjointly() {
        let cache = DocCache::new();
        cache.note_text_generate();
        cache.note_text_generate();
        cache.note_fault_generate();
        cache.note_journal_replay();
        let stats = cache.stats();
        assert_eq!(stats.text_generates, 2);
        assert_eq!(stats.fault_text_generates, 1);
        assert_eq!(stats.journal_replays, 1);
        // Each text-path generate is one parse; journal replays parse
        // nothing.
        assert_eq!(stats.parses, 3);
        assert!(stats.to_string().contains("(1 over fault-damaged docs)"));
    }

    #[test]
    fn fault_bypass_parses_stay_out_of_both_memos() {
        let cache = DocCache::new();
        let doc = sample_wsdl();
        let damaged = cache.parse_bypassing_memo(doc.clone());
        assert!(!damaged.memoizable);
        assert!(damaged.fault_damaged());
        assert!(!ParsedService::parse_uncached(doc.clone()).fault_damaged());
        let _ = cache.generate(&MetroClient, &damaged);
        let _ = cache.generate(&MetroClient, &damaged);
        let stats = cache.stats();
        assert_eq!(stats.distinct_docs, 0);
        assert_eq!(stats.fault_bypasses, 1);
        assert_eq!(stats.gen_runs, 2, "bypass cells must not memoize");
        assert_eq!(stats.gen_memo_hits, 0);
    }
}
