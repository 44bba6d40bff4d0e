//! The parse-once pipeline: each published description is parsed
//! exactly once, at deploy time, and every consumer reads that parse.
//!
//! The naive campaign re-reads every published description ~13 times
//! per service: once for the WS-I Basic Profile check, once per client
//! for each of the eleven Artifact Generation steps, and once more for
//! the chaos wire probe — plus eleven independent [`DocFacts`]
//! analyses. One parse and one analysis suffice: a description is
//! immutable once published, and every consumer is a pure function of
//! its content.
//!
//! [`ParsedService`] holds the text, the parsed [`Definitions`] and the
//! precomputed [`DocFacts`], computed once at deploy time and borrowed
//! by the WS-I analyzer, all eleven `generate_from`
//! calls and the wire probe. It lives only while its document's cells
//! run: there is no campaign-wide memo, because every published
//! document of the paper's matrix is distinct and a memo would only
//! keep them all alive. [`DocCache`] is the pipeline's accounting
//! front: it parses, runs generation over a parse, and counts both.
//!
//! Generation over the shared parse is bit-identical to the text path
//! (`client.generate(svc.wsdl_xml())`): `generate_from` is a pure
//! function of the document (see [`ClientSubsystem`]) and parse-failure
//! messages are preserved verbatim. Fault-damaged descriptions are no
//! exception — deploy parses the damaged bytes through the same real
//! parser the tool would run, so that one parse already holds the
//! tool's reaction to them.

use std::sync::Arc;

use wsinterop_frameworks::client::facts::DocFacts;
use wsinterop_frameworks::client::{parse_for_generation, ClientSubsystem, GenOutcome};
use wsinterop_wsdl::Definitions;

use crate::obs::{LazyCounter, MetricsRegistry};

/// Registry names for the cache's instruments. Private: the public
/// surface is [`PipelineStats`]; the names are documented in
/// DESIGN.md §11 and visible through `wsitool metrics`.
const M_PARSES: &str = "doccache_parses_total";
const M_GEN_RUNS: &str = "doccache_gen_runs_total";
const M_TEXT_GENERATES: &str = "doccache_text_generates_total";
const M_JOURNAL_REPLAYS: &str = "journal_cells_replayed_total";

/// One service description, parsed exactly once.
#[derive(Debug)]
pub struct ParsedService {
    /// The published WSDL text, verbatim — the input of the text path
    /// that cache-disabled runs keep as the reference oracle.
    wsdl_xml: String,
    /// The parse: document + facts, or the generation-error message
    /// every text-input tool reports for this (unreadable) description.
    doc: Result<(Definitions, DocFacts), String>,
}

impl ParsedService {
    /// The published description text.
    pub fn wsdl_xml(&self) -> &str {
        &self.wsdl_xml
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

    /// One Client Artifact Generation step over this parse, uncounted
    /// (see [`DocCache::generate`]).
    pub fn generate(&self, client: &dyn ClientSubsystem) -> GenOutcome {
        match &self.doc {
            Ok((defs, facts)) => client.generate_from(defs, facts),
            Err(message) => GenOutcome::fail(message.clone()),
        }
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

/// FNV-1a over `bytes`: the catalog's [`wsinterop_typecat::rng::fnv1a`],
/// the workspace's one implementation and its one persisted checksum.
/// Stable across platforms and releases.
///
/// The journal's frame checksums, the campaign and wire server config
/// hashes, the virtual clock's span durations and the snapshot ring's
/// frame checksums all call it. The campaign's distinct-document count
/// does not: it keys each text by an in-memory SipHash instead.
pub fn content_hash(bytes: &[u8]) -> u64 {
    wsinterop_typecat::rng::fnv1a(bytes)
}

/// The parse-once pipeline's accounting front: parses descriptions,
/// runs generation over a parse, and counts both.
///
/// It holds no documents and takes no lock. The counters are
/// registry-backed instruments (`doccache_*` /
/// `journal_cells_replayed_total`), pre-resolved into lock-free
/// [`LazyCounter`] handles on first use: an uninstrumented cache owns a
/// private [`MetricsRegistry`]; an instrumented campaign shares its
/// observer's, so `wsitool metrics` sees the same numbers
/// [`DocCache::stats`] reports.
#[derive(Debug, Default)]
pub struct DocCache {
    metrics: Arc<MetricsRegistry>,
    parses: LazyCounter,
    gen_runs: LazyCounter,
    text_generates: LazyCounter,
    journal_replays: LazyCounter,
}

impl DocCache {
    /// A fresh cache with a private metrics registry.
    pub fn new() -> DocCache {
        DocCache::default()
    }

    /// A fresh cache publishing its accounting into `metrics`.
    pub fn with_registry(metrics: Arc<MetricsRegistry>) -> DocCache {
        DocCache {
            metrics,
            ..DocCache::default()
        }
    }

    /// Parses and analyzes a published description: one counted parse.
    pub fn parse(&self, wsdl_xml: String) -> ParsedService {
        self.parses.inc(&self.metrics, M_PARSES);
        ParsedService {
            doc: parse_for_generation(&wsdl_xml),
            wsdl_xml,
        }
    }

    /// One Client Artifact Generation step over a shared parse.
    ///
    /// Bit-equivalent to `client.generate(svc.wsdl_xml())`: unreadable
    /// descriptions return the preserved parse-error message, readable
    /// ones run the pure `generate_from` path.
    pub fn generate(&self, client: &dyn ClientSubsystem, svc: &ParsedService) -> GenOutcome {
        self.note_gen_run();
        svc.generate(client)
    }

    /// Records one generation step run over a shared parse (the
    /// campaign counts a cell when it commits, so a cell an open
    /// breaker discards is never counted).
    pub fn note_gen_run(&self) {
        self.gen_runs.inc(&self.metrics, M_GEN_RUNS);
    }

    /// Records one text-path generation (cache-disabled runs, where
    /// the tool re-parses the text itself).
    pub fn note_text_generate(&self) {
        self.parses.inc(&self.metrics, M_PARSES);
        self.text_generates.inc(&self.metrics, M_TEXT_GENERATES);
    }

    /// Records one cell replayed from a resume journal (no parse, no
    /// generation — the outcome came off disk).
    pub fn note_journal_replay(&self) {
        self.journal_replays.inc(&self.metrics, M_JOURNAL_REPLAYS);
    }

    /// Snapshot of the accounting, read back from the registry (same
    /// instruments `wsitool metrics` exports). The cache keeps no
    /// documents, so the caller, which owns the parses, supplies how
    /// many distinct contents it saw.
    pub fn stats(&self, distinct_docs: usize) -> PipelineStats {
        let counter = |name| self.metrics.counter(name) as usize;
        PipelineStats {
            parses: counter(M_PARSES),
            distinct_docs,
            gen_runs: counter(M_GEN_RUNS),
            gen_memo_hits: 0,
            text_generates: counter(M_TEXT_GENERATES),
            journal_replays: counter(M_JOURNAL_REPLAYS),
        }
    }
}

/// Parse and generation accounting for one campaign run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Full XML parses performed: one per deployed service, plus one
    /// per text-path generation in a cache-disabled run.
    pub parses: usize,
    /// Distinct document contents among the parses, counted by a
    /// 64-bit SipHash of each text that never leaves the process.
    pub distinct_docs: usize,
    /// Generation steps run over the shared parse: one per executed
    /// cell whose tool ran (an unreadable description's step returns
    /// its parse error).
    pub gen_runs: usize,
    /// Always 0: generation outcomes are no longer memoized. Kept so
    /// existing readers of the stats still build.
    pub gen_memo_hits: usize,
    /// Text-path generation steps (cache-disabled runs), each
    /// re-parsing the text inside the tool.
    pub text_generates: usize,
    /// Cells replayed from a resume journal instead of executed.
    pub journal_replays: usize,
}

impl std::fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Parse-once pipeline")?;
        writeln!(
            f,
            "  parses: {} (distinct documents {})",
            self.parses, self.distinct_docs
        )?;
        writeln!(
            f,
            "  generation: {} executed over the shared parse, {} via text path, \
             {} replayed from journal",
            self.gen_runs, self.text_generates, self.journal_replays
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
        // Pinned: journal frames and config hashes persist it, so it
        // must stay stable across releases.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn parse_counts_once_and_exposes_the_document() {
        let cache = DocCache::new();
        let doc = sample_wsdl();
        let svc = cache.parse(doc.clone());
        let stats = cache.stats(1);
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.distinct_docs, 1);
        assert_eq!(svc.wsdl_xml(), doc);
        assert!(svc.defs().is_some());
        assert!(svc.facts().is_some());
        assert_eq!(svc.first_operation(), Some("echo"));
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
        assert_eq!(cache.stats(1).gen_runs, 1);
    }

    #[test]
    fn shared_generation_is_bit_identical_to_the_text_path() {
        let cache = DocCache::new();
        let doc = sample_wsdl();
        let svc = cache.parse(doc.clone());
        for client in all_clients() {
            let shared = cache.generate(client.as_ref(), &svc);
            let text = client.generate(&doc);
            assert_eq!(shared, text, "{}", client.info().id);
        }
        let stats = cache.stats(1);
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.gen_runs, 11);
        assert_eq!(stats.gen_memo_hits, 0);
    }

    #[test]
    fn text_generates_and_journal_replays_are_counted() {
        let cache = DocCache::new();
        cache.note_text_generate();
        cache.note_text_generate();
        cache.note_journal_replay();
        let stats = cache.stats(0);
        assert_eq!(stats.text_generates, 2);
        assert_eq!(stats.journal_replays, 1);
        // Each text-path generate is one parse; journal replays parse
        // nothing.
        assert_eq!(stats.parses, 2);
        assert!(stats.to_string().contains("2 via text path"));
    }
}
