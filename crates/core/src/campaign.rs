//! The interoperability campaign engine: the paper's Preparation and
//! Testing phases, end to end.
//!
//! For every class of every server's catalog the engine attempts
//! deployment (Service Description Generation), checks the published
//! WSDL against WS-I BP 1.1, then drives all eleven client subsystems
//! through Artifact Generation and Artifact Compilation (or the
//! dynamic-language instantiation check), classifying each step.
//!
//! ## Resilience
//!
//! The runner never lets a disruptive step kill the campaign — every
//! test ends in a classification:
//!
//! * a published description that fails to parse is recorded as a
//!   deployed-but-non-conformant service with a description warning,
//!   and its (corrupt) WSDL text still goes to all eleven clients;
//! * an injected transient deployment refusal is retried within
//!   [`ResilienceConfig::max_retries`], charging a deterministic
//!   virtual backoff per retry; a refusal that outlasts the budget
//!   refuses the service;
//! * a panicking test worker is isolated with `catch_unwind` and
//!   becomes one Error-classified [`TestRecord`];
//! * result collection uses poison-tolerant locks, so an isolated
//!   panic can never cascade into a poisoned-lock abort.
//!
//! With [`Campaign::with_faults`] the runner injects a seeded
//! [`FaultPlan`]'s faults around its own deploy, generation and
//! exchange calls (the chaos campaign, experiment E12), and
//! [`Campaign::run_with_report`] additionally returns the
//! [`FaultReport`] accounting of injected vs detected vs masked
//! faults. Each fault site is decided, injected and accounted in one
//! place: the deploy step, a cell's commit, the in-process wire probe
//! or the socket probe pass.
//!
//! ## One document at a time
//!
//! A worker claims one published document at a time, in campaign
//! order, and runs it end to end: deploy, one parse and analysis into
//! a [`ParsedService`], all eleven clients' cells on that parse, the
//! chaos wire probe, and then the parse is dropped (see
//! [`crate::doccache`]). Fault-damaged descriptions are parsed there
//! too, damaged bytes and all, so chaos cells generate from that one
//! parse as well. Records are sorted once at the end, so the output is
//! the same at any thread count. Shared-parse and text-path runs
//! produce bit-identical [`CampaignResults`].
//! [`Campaign::run_with_stats`] surfaces the parse accounting;
//! [`Campaign::with_doc_cache`] switches generation back to the text
//! path, the reference oracle for equivalence tests and benchmarks.
//!
//! ## Crash safety and supervision
//!
//! With [`Campaign::with_journal`] every completed test cell is
//! appended to a write-ahead [`crate::journal`]; adding
//! [`Campaign::with_resume`] replays already-journaled cells instead
//! of executing them, re-deriving their fault accounting from the pure
//! plan decisions — an interrupted-then-resumed run is bit-identical
//! to an uninterrupted one. Execution is additionally supervised by a
//! virtual-clock per-cell watchdog ([`ResilienceConfig::cell_budget_ms`])
//! and, with [`Campaign::with_breaker`], a deterministic per-client
//! circuit breaker: each client subsystem's cells form one stream in
//! campaign order. Workers run cells in any order, but with a breaker
//! their documents commit in campaign order (the breaker gate, fault
//! accounting and journal append happen at commit), so breaker
//! decisions are identical at any thread count.

use std::collections::{BTreeMap, HashSet};
use std::hash::{DefaultHasher, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use wsinterop_compilers::{compiler_for, instantiate};
use wsinterop_frameworks::client::{
    all_clients, classify_error, ClientId, ClientSubsystem, CompilationMode, ErrorClass,
};
use wsinterop_frameworks::server::{all_servers, DeployOutcome, ServerId, ServerSubsystem};
use wsinterop_typecat::TypeEntry;
use wsinterop_wsi::Analyzer;

use crate::doccache::{content_hash, DocCache, ParsedService, PipelineStats};
use crate::exchange::exchange_parsed;
use crate::faults::{
    sock_site, wire_site, BreakerConfig, BreakerState, CellFaults, FaultKind, FaultLog,
    FaultPlan, FaultReport, ResilienceConfig, SiteKey, SocketFault, WireFault, WsdlDamage,
};
use crate::journal::{JournalBatch, JournalCell, JournalError, JournalWriter};
use crate::shard::ShardSpec;
use crate::obs::{Obs, Stopwatch, TracePhase};
use crate::results::{CampaignResults, InstantiationKind, ServiceRecord, TestRecord};
use crate::sync::lock_unpoisoned;

/// A configured interoperability campaign.
pub struct Campaign {
    servers: Vec<Box<dyn ServerSubsystem>>,
    clients: Vec<Box<dyn ClientSubsystem>>,
    /// Test every `stride`-th catalog entry (1 = full campaign).
    stride: usize,
    /// Worker threads; each claims one document at a time.
    threads: usize,
    /// Injected-fault plan (`None` for the faithful paper campaign).
    faults: Option<FaultPlan>,
    /// The runner's coping budget for disruptions.
    resilience: ResilienceConfig,
    /// Generate from the deploy-time parse (`false` re-parses the text
    /// in every cell, the historical parse-per-consumer pipeline).
    doc_cache: bool,
    /// Write-ahead journal path (`None` disables journaling).
    journal: Option<PathBuf>,
    /// Replay already-journaled cells instead of executing them.
    resume: bool,
    /// Per-client circuit breaker (`None` disables it).
    breaker: Option<BreakerConfig>,
    /// Deterministic kill switch: exit the process after this many
    /// journal appends (the resume smoke test's SIGKILL stand-in).
    halt_after_cells: Option<usize>,
    /// Deterministic hang switch: wedge the journal writer after this
    /// many appends (the supervision tests' guaranteed-alive target).
    stall_after_cells: Option<usize>,
    /// Run only this worker's share of the partitioned campaign
    /// (`None` = the whole campaign). Excluded from
    /// [`Campaign::config_hash`]: a shard executes a subset of the
    /// same cells, it never changes what any cell produces.
    shard: Option<ShardSpec>,
    /// How the chaos campaign's Communication-step probes travel.
    transport: ExchangeTransport,
    /// Observe-only telemetry (`None` for unobserved runs). Excluded
    /// from [`Campaign::config_hash`]: attaching an observer never
    /// changes what a campaign produces.
    obs: Option<Arc<Obs>>,
}

/// How the Communication-step probes of a chaos campaign travel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExchangeTransport {
    /// Both endpoints short-circuited through in-process calls (the
    /// historical path).
    #[default]
    InProcess,
    /// Over a real loopback TCP socket, through the hardened
    /// [`crate::wire`] endpoint and its fault proxy — wire and socket
    /// faults damage real bytes.
    TcpLoopback,
}

impl std::fmt::Display for ExchangeTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExchangeTransport::InProcess => "in-process",
            ExchangeTransport::TcpLoopback => "tcp",
        })
    }
}

/// Replayable cells recovered from a resume journal, keyed by campaign
/// cell identity.
type PriorCells = BTreeMap<(ServerId, ClientId, String), JournalCell>;

/// The probe client's read deadline for the socket probes; injected
/// delays overshoot it, so a delayed response is always a classified
/// timeout.
const PROBE_DEADLINE_MS: u64 = 200;

/// Campaign-wide cell-execution environment, shared by every worker.
struct CellEnv<'a> {
    analyzer: &'a Analyzer,
    log: &'a FaultLog,
    cache: &'a DocCache,
    writer: Option<&'a JournalWriter>,
    prior: &'a PriorCells,
}

/// What one worker produced, merged and sorted once the pass is over.
/// Services are keyed by rank (their index in campaign order), tests by
/// (server order, client, rank).
#[derive(Default)]
struct WorkerOutput {
    services: Vec<(usize, ServiceRecord)>,
    tests: Vec<((usize, ClientId, usize), TestRecord)>,
    /// [`doc_key`] of every parsed description, for the stats'
    /// distinct-document count.
    distinct_docs: HashSet<u64>,
    /// Socket probes planned under `--transport tcp`.
    probes: Vec<SocketProbe>,
    /// The worker's journal staging buffer: each commit stages its
    /// document's frames here and writes them in one append.
    frames: JournalBatch,
}

/// One document whose cells have run but are not yet committed.
struct PendingDoc<'p> {
    rank: usize,
    /// Index of the publishing server in the campaign's server order.
    server: usize,
    record: ServiceRecord,
    /// One per client, in client order; empty when deployment failed.
    cells: Vec<PendingCell<'p>>,
}

/// One cell awaiting its commit.
struct PendingCell<'p> {
    /// The faults planned on the cell (under a fault plan only).
    faults: Option<CellFaults>,
    /// The Generate trace span, stopped when the cell ran; its exit
    /// is recorded at commit (with an observer only).
    span: Option<Stopwatch>,
    run: CellRun<'p>,
}

/// How a cell got its verdict.
enum CellRun<'p> {
    /// Taken from the resume journal.
    Replayed(&'p JournalCell),
    /// Executed here; `ran_tool` is false when an injected crash fired
    /// before the tool ran.
    Live { cell: JournalCell, ran_tool: bool },
}

/// The breaker runs' commit frontier (lock level L5): documents that
/// finish out of campaign order wait in `pending` until every document
/// ranked before them has been committed.
struct Frontier<'p> {
    next: usize,
    pending: BTreeMap<usize, PendingDoc<'p>>,
    /// One breaker per client, in client order, carried across
    /// servers in campaign order.
    breakers: Vec<BreakerState>,
}

/// One fault-planned socket probe, planned while its document's parse
/// is alive and run once the pass is over.
struct SocketProbe {
    rank: usize,
    server_id: ServerId,
    fqcn: String,
    wsdl_xml: String,
    /// The invocation target; `None` when the description declares no
    /// operation.
    operation: Option<String>,
    wire: Option<WireFault>,
    sock: Option<SocketFault>,
    wire_key: String,
    sock_key: String,
}

impl SocketProbe {
    /// The probe for one document, when the plan faults its wire or
    /// its socket.
    fn plan(
        plan: &FaultPlan,
        rank: usize,
        server_id: ServerId,
        record: &ServiceRecord,
        svc: &ParsedService,
    ) -> Option<SocketProbe> {
        let wire_key = wire_site(server_id, &record.fqcn);
        let sock_key = sock_site(server_id, &record.fqcn);
        let wire = plan.wire_fault(&wire_key);
        let sock = plan.socket_fault(&sock_key, PROBE_DEADLINE_MS);
        if wire.is_none() && sock.is_none() {
            return None;
        }
        Some(SocketProbe {
            rank,
            server_id,
            fqcn: record.fqcn.clone(),
            wsdl_xml: svc.wsdl_xml().to_string(),
            operation: svc.first_operation().map(str::to_string),
            wire,
            sock,
            wire_key,
            sock_key,
        })
    }

    /// The hosted path of the probed service.
    fn path(&self) -> String {
        format!("/{:?}/{}", self.server_id, self.fqcn)
    }
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("servers", &self.servers.len())
            .field("clients", &self.clients.len())
            .field("stride", &self.stride)
            .field("threads", &self.threads)
            .field("faults", &self.faults.as_ref().map(|p| p.seed()))
            .field("resilience", &self.resilience)
            .field("doc_cache", &self.doc_cache)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .field("breaker", &self.breaker)
            .field("shard", &self.shard)
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// The paper's full campaign: 3 servers × 11 clients over the full
    /// catalogs (22 024 candidate services, 79 629 tests).
    pub fn paper() -> Campaign {
        Campaign {
            servers: all_servers(),
            clients: all_clients(),
            stride: 1,
            threads: default_threads(),
            faults: None,
            resilience: ResilienceConfig::default(),
            doc_cache: true,
            journal: None,
            resume: false,
            breaker: None,
            halt_after_cells: None,
            stall_after_cells: None,
            shard: None,
            transport: ExchangeTransport::InProcess,
            obs: None,
        }
    }

    /// A strided sub-campaign: every `stride`-th catalog entry. Useful
    /// for benchmarks and smoke tests; `stride = 1` is the full run.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn sampled(stride: usize) -> Campaign {
        assert!(stride > 0, "stride must be positive");
        Campaign {
            stride,
            ..Campaign::paper()
        }
    }

    /// The widened campaign of the paper's future work: the three paper
    /// servers **plus** the extension platforms (the Axis2 server).
    pub fn extended() -> Campaign {
        Campaign {
            servers: wsinterop_frameworks::server::extension_servers(),
            ..Campaign::paper()
        }
    }

    /// Strided variant of [`Campaign::extended`].
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn extended_sampled(stride: usize) -> Campaign {
        assert!(stride > 0, "stride must be positive");
        Campaign {
            stride,
            ..Campaign::extended()
        }
    }

    /// Overrides the worker-thread count (defaults to available
    /// parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Campaign {
        self.threads = threads.max(1);
        self
    }

    /// Restricts the campaign to a subset of server subsystems.
    #[must_use]
    pub fn with_servers(
        mut self,
        ids: &[wsinterop_frameworks::server::ServerId],
    ) -> Campaign {
        self.servers.retain(|s| ids.contains(&s.info().id));
        self
    }

    /// Restricts the campaign to a subset of client subsystems.
    #[must_use]
    pub fn with_clients(
        mut self,
        ids: &[wsinterop_frameworks::client::ClientId],
    ) -> Campaign {
        self.clients.retain(|c| ids.contains(&c.info().id));
        self
    }

    /// Layers a seeded fault plan over every subsystem boundary — the
    /// chaos campaign. Sites the plan leaves untouched produce records
    /// bit-identical to the fault-free run.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Campaign {
        self.faults = Some(plan);
        self
    }

    /// Overrides the resilience budget (retries, deadline, panic
    /// isolation).
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Campaign {
        self.resilience = resilience;
        self
    }

    /// Enables or disables generation from the shared deploy-time
    /// parse (enabled by default). Disabling sends every generation
    /// cell down the text path, where the tool re-parses the published
    /// text — the historical parse-per-consumer pipeline. Results are
    /// bit-identical either way, only the work count changes.
    #[must_use]
    pub fn with_doc_cache(mut self, enabled: bool) -> Campaign {
        self.doc_cache = enabled;
        self
    }

    /// Journals every completed test cell to a write-ahead log at
    /// `path` (see [`crate::journal`]).
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.journal = Some(path.into());
        self
    }

    /// With a journal configured, replays already-journaled cells
    /// instead of executing them. Resuming a journal written under a
    /// different campaign configuration is a
    /// [`JournalError::ConfigMismatch`]; a missing journal file simply
    /// starts fresh.
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Campaign {
        self.resume = resume;
        self
    }

    /// Enables the deterministic per-client circuit breaker.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Campaign {
        self.breaker = Some(breaker);
        self
    }

    /// Kills the process (exit code [`crate::journal::HALT_EXIT_CODE`])
    /// after `cells` journal appends — the deterministic SIGKILL
    /// stand-in driving the kill/resume smoke test. Only meaningful
    /// with [`Campaign::with_journal`].
    #[must_use]
    pub fn with_halt_after_cells(mut self, cells: usize) -> Campaign {
        self.halt_after_cells = Some(cells.max(1));
        self
    }

    /// Wedges the journal writer after `cells` appends: the writer
    /// sleeps forever holding the journal file lock, so the process
    /// stays alive but makes no further progress — the deterministic
    /// hang the supervisor's heartbeat must detect, and a
    /// guaranteed-alive SIGKILL target for kill/respawn tests. Only
    /// meaningful with [`Campaign::with_journal`].
    #[must_use]
    pub fn with_stall_after_cells(mut self, cells: usize) -> Campaign {
        self.stall_after_cells = Some(cells.max(1));
        self
    }

    /// Restricts the run to one shard of the partitioned campaign:
    /// per server, the strided catalog entries are grouped into
    /// chunks of [`crate::shard::ENTRIES_PER_CHUNK`] and shard `k` of
    /// `n` owns every chunk with `chunk_index % n == k` (see
    /// [`ShardSpec::owns`]). Shards of the same campaign are disjoint
    /// and jointly exhaustive, so merging their results reproduces
    /// the unsharded run bit-identically
    /// ([`crate::shard::merge_results`]).
    ///
    /// Incompatible with [`Campaign::with_breaker`]: breaker
    /// decisions depend on the full preceding per-client cell stream,
    /// which a shard by construction does not see — `run` panics on
    /// the combination rather than produce merge-dependent results.
    #[must_use]
    pub fn with_shard(mut self, shard: ShardSpec) -> Campaign {
        self.shard = Some(shard);
        self
    }

    /// Selects the transport for the chaos campaign's
    /// Communication-step probes. [`ExchangeTransport::TcpLoopback`]
    /// hosts every fault-planned site on a [`crate::wire::WireServer`]
    /// behind a [`crate::wire::FaultProxy`] and exchanges real bytes.
    #[must_use]
    pub fn with_transport(mut self, transport: ExchangeTransport) -> Campaign {
        self.transport = transport;
        self
    }

    /// Attaches an observer: structured phase tracing, the metrics
    /// registry and the progress meter (see [`crate::obs`]).
    ///
    /// Strictly observe-only: the observer is excluded from
    /// [`Campaign::config_hash`], no pipeline decision reads it, and
    /// an instrumented run's results, fault report and journal are
    /// bit-identical to an unobserved run's.
    #[must_use]
    pub fn with_observer(mut self, obs: Arc<Obs>) -> Campaign {
        self.obs = Some(obs);
        self
    }

    /// The campaign configuration hash pinned into journal headers and
    /// echoed in `wsitool` output: FNV-1a over a canonical rendering
    /// of everything that shapes the *results* — servers, clients,
    /// stride, cache mode, fault plan, resilience budget, breaker.
    /// Thread count, journal path, resume flag, the halt/stall
    /// switches, the shard spec and the telemetry observer are
    /// deliberately excluded: they change how a run executes (or what
    /// it reports about itself), never what it produces. Excluding
    /// the shard is what lets every per-shard journal carry the *same*
    /// hash as the unsharded campaign — the merge step verifies all
    /// shard journals agree on it.
    pub fn config_hash(&self) -> u64 {
        let servers: Vec<String> = self
            .servers
            .iter()
            .map(|s| format!("{:?}", s.info().id))
            .collect();
        let clients: Vec<String> = self
            .clients
            .iter()
            .map(|c| format!("{:?}", c.info().id))
            .collect();
        let faults = match &self.faults {
            None => "none".to_string(),
            Some(plan) => plan.fingerprint(),
        };
        let breaker = match self.breaker {
            None => "off".to_string(),
            Some(b) => format!("{}:{}", b.threshold, b.cooldown_cells),
        };
        let r = &self.resilience;
        let canonical = format!(
            "wsitool-campaign-config-v1;servers={};clients={};stride={};doc_cache={};\
             faults={};resilience=retries:{},backoff:{:?},step:{},cell:{},panics:{};breaker={};\
             transport={}",
            servers.join(","),
            clients.join(","),
            self.stride,
            self.doc_cache,
            faults,
            r.max_retries,
            r.backoff_ms,
            r.step_deadline_ms,
            r.cell_budget_ms,
            r.isolate_panics,
            breaker,
            self.transport
        );
        content_hash(canonical.as_bytes())
    }

    /// Runs the campaign.
    pub fn run(&self) -> CampaignResults {
        self.run_with_stats().0
    }

    /// Runs the campaign and returns the fault-injection accounting
    /// alongside the results. Without [`Campaign::with_faults`] the
    /// report is empty.
    pub fn run_with_report(&self) -> (CampaignResults, FaultReport) {
        let (results, report, _) = self.run_with_stats();
        (results, report)
    }

    /// Runs the campaign and additionally returns the parse-once
    /// pipeline's parse and generation accounting.
    ///
    /// # Panics
    ///
    /// Panics on a journal error (unreadable/mismatched journal, I/O
    /// failure); use [`Campaign::try_run_with_stats`] to handle those
    /// gracefully. Journal-free campaigns never hit that path.
    pub fn run_with_stats(&self) -> (CampaignResults, FaultReport, PipelineStats) {
        self.try_run_with_stats()
            .unwrap_or_else(|e| panic!("campaign journal error: {e}"))
    }

    /// [`Campaign::run_with_stats`], surfacing journal failures as
    /// errors instead of panics.
    pub fn try_run_with_stats(
        &self,
    ) -> Result<(CampaignResults, FaultReport, PipelineStats), JournalError> {
        assert!(
            self.shard.is_none() || self.breaker.is_none(),
            "sharding is incompatible with the circuit breaker: breaker state \
             depends on the full preceding per-client cell stream, which a \
             shard does not see"
        );
        let analyzer = Analyzer::basic_profile_1_1();
        // With an observer attached, the fault log and doc cache
        // publish their accounting through the shared registry — same
        // numbers, one instrument namespace. The public report shapes
        // (`FaultReport`, `PipelineStats`) are unchanged either way.
        let (log, cache) = match &self.obs {
            Some(obs) => (
                FaultLog::with_registry(obs.metrics_arc()),
                DocCache::with_registry(obs.metrics_arc()),
            ),
            None => (FaultLog::new(), DocCache::new()),
        };

        // Open (or resume) the write-ahead journal before any work: a
        // mismatched or unreadable journal must fail the run up front,
        // not after an hour of cells.
        let (writer, prior): (Option<JournalWriter>, PriorCells) = match &self.journal {
            None => (None, PriorCells::new()),
            Some(path) => {
                let config_hash = self.config_hash();
                if self.resume && path.exists() {
                    let (writer, read) =
                        JournalWriter::resume(path, config_hash, self.halt_after_cells)?;
                    let mut prior = PriorCells::new();
                    for cell in read.cells {
                        let key =
                            (cell.record.server, cell.record.client, cell.record.fqcn.clone());
                        prior.insert(key, cell);
                    }
                    (Some(writer), prior)
                } else {
                    let writer = JournalWriter::create(path, config_hash, self.halt_after_cells)?;
                    (Some(writer), PriorCells::new())
                }
            }
        };
        // Journal frame accounting flows into the shared registry when
        // an observer is attached; the journal format is untouched.
        let writer = match (&self.obs, writer) {
            (Some(obs), Some(w)) => Some(w.with_metrics(obs.metrics_arc())),
            (_, w) => w,
        };
        let writer = writer.map(|w| w.with_stall_after(self.stall_after_cells));

        let queue = self.queue();
        if let Some(obs) = &self.obs {
            obs.metrics()
                .add("campaign_deploys_total", queue.len() as u64);
        }
        let env = CellEnv {
            analyzer: &analyzer,
            log: &log,
            cache: &cache,
            writer: writer.as_ref(),
            prior: &prior,
        };
        let frontier = Mutex::new(Frontier {
            next: 0,
            pending: BTreeMap::new(),
            breakers: vec![BreakerState::new(); self.clients.len()],
        });

        // One schedule for every configuration: a worker claims one
        // document at a time, in campaign order, and runs it end to
        // end while its parse is hot.
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(queue.len()).max(1);
        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = WorkerOutput::default();
                        loop {
                            let rank = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(server, entry)) = queue.get(rank) else {
                                break;
                            };
                            let doc = self.run_document(&env, rank, server, entry, &mut out);
                            if self.breaker.is_none() {
                                self.commit(&env, doc, &mut [], &mut out);
                                continue;
                            }
                            // lock-order: L5 (breaker commit frontier) —
                            // held across each commit's journal, trace
                            // and fault-log locks.
                            let mut guard = lock_unpoisoned(&frontier);
                            let frontier = &mut *guard;
                            frontier.pending.insert(rank, doc);
                            while let Some(doc) = frontier.pending.remove(&frontier.next) {
                                frontier.next += 1;
                                self.commit(&env, doc, &mut frontier.breakers, &mut out);
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });

        let mut services = Vec::new();
        let mut tests = Vec::new();
        let mut probes = Vec::new();
        let mut distinct_docs = HashSet::new();
        for out in outputs {
            services.extend(out.services);
            tests.extend(out.tests);
            probes.extend(out.probes);
            distinct_docs.extend(out.distinct_docs);
        }
        services.sort_unstable_by_key(|(rank, _)| *rank);
        tests.sort_unstable_by_key(|(key, _)| *key);
        if let Some(plan) = &self.faults {
            probes.sort_unstable_by_key(|probe: &SocketProbe| probe.rank);
            self.socket_probe_pass(plan, &log, probes)?;
        }
        if let Some(writer) = &writer {
            if let Some(e) = writer.take_error() {
                return Err(JournalError::Io(e));
            }
        }
        let results = CampaignResults {
            services: services.into_iter().map(|(_, record)| record).collect(),
            tests: tests.into_iter().map(|(_, record)| record).collect(),
        };
        let stats = cache.stats(distinct_docs.len());
        if let Some(obs) = &self.obs {
            obs.sync_sink_counters();
        }
        Ok((results, log.report(), stats))
    }

    /// Every document the run deploys, in campaign order: servers in
    /// configuration order, each server's strided entries by fqcn. A
    /// document's index here is its rank. Shard ownership is decided
    /// on the *strided* entry index: the chunk grid partitions exactly
    /// the entries this configuration would execute, so every shard
    /// sees the same grid regardless of which shard it is.
    fn queue(&self) -> Vec<(usize, &'static TypeEntry)> {
        let mut queue = Vec::new();
        for (server, subsystem) in self.servers.iter().enumerate() {
            let start = queue.len();
            queue.extend(
                subsystem
                    .catalog()
                    .entries()
                    .iter()
                    .step_by(self.stride)
                    .enumerate()
                    .filter(|(strided_index, _)| {
                        self.shard.is_none_or(|s| s.owns(*strided_index))
                    })
                    .map(|(_, entry)| (server, entry)),
            );
            queue[start..].sort_by(|a, b| a.1.fqcn.cmp(&b.1.fqcn));
        }
        queue
    }

    /// One document, end to end: deploy it, parse and analyse it once,
    /// run every client on that parse, probe its wire, and drop the
    /// parse. The cells wait in the returned [`PendingDoc`] for their
    /// commit.
    fn run_document<'p>(
        &self,
        env: &CellEnv<'p>,
        rank: usize,
        server: usize,
        entry: &TypeEntry,
        out: &mut WorkerOutput,
    ) -> PendingDoc<'p> {
        let subsystem = self.servers[server].as_ref();
        let server_id = subsystem.info().id;
        let (record, svc) = self.deploy_entry(env, subsystem, server_id, entry);
        let mut cells = Vec::new();
        if let Some(svc) = svc {
            out.distinct_docs.insert(doc_key(svc.wsdl_xml()));
            if let Some(obs) = &self.obs {
                obs.progress().add_expected(self.clients.len() as u64);
            }
            cells = self
                .clients
                .iter()
                .map(|client| self.start_cell(env, server_id, &record, &svc, client.as_ref()))
                .collect();
            // Communication-step wire faults (chaos campaigns only).
            // A probe feeds the fault report, never the records.
            if let Some(plan) = &self.faults {
                match self.transport {
                    ExchangeTransport::InProcess => {
                        wire_probe(plan, env.log, server_id, &record, &svc, self.obs.as_deref());
                    }
                    ExchangeTransport::TcpLoopback => {
                        out.probes
                            .extend(SocketProbe::plan(plan, rank, server_id, &record, &svc));
                    }
                }
            }
        }
        PendingDoc {
            rank,
            server,
            record,
            cells,
        }
    }

    /// The socket-level twin of the [`wire_probe`] calls: hosts every
    /// fault-planned site of the campaign on one real loopback
    /// endpoint behind one fault proxy, runs each probe over the
    /// socket in campaign order, and resolves the injections against
    /// the classified outcome. Endpoint start-up failures surface as
    /// [`JournalError::Io`] — the campaign's existing I/O error path.
    fn socket_probe_pass(
        &self,
        plan: &FaultPlan,
        log: &FaultLog,
        probes: Vec<SocketProbe>,
    ) -> Result<(), JournalError> {
        use crate::wire::{
            exchange_over_http, FaultProxy, HostedService, WireClient, WireClientConfig,
            WireServer, WireServerConfig,
        };

        // No planned fault ⇒ no endpoint.
        if probes.is_empty() {
            return Ok(());
        }
        let services = probes
            .iter()
            .map(|p| (p.path(), HostedService::new(p.wsdl_xml.clone())))
            .collect();

        let registry = self.obs.as_ref().map(|o| o.metrics_arc());
        let server_config = WireServerConfig {
            metrics: registry.clone(),
            ..WireServerConfig::default()
        };
        let server = WireServer::start(0, services, server_config).map_err(JournalError::Io)?;
        let proxy = FaultProxy::start_with_metrics(
            server.addr(),
            plan.clone(),
            PROBE_DEADLINE_MS,
            registry.clone(),
        )
        .map_err(JournalError::Io)?;
        let config = WireClientConfig {
            read_timeout: std::time::Duration::from_millis(PROBE_DEADLINE_MS),
            metrics: registry,
            ..WireClientConfig::from_resilience(&self.resilience)
        };
        let client = WireClient::new(config).with_plan(plan.clone());

        for probe in probes {
            let server_id = probe.server_id;
            let obs = self.obs.as_deref();
            let span = obs.map(|o| {
                o.begin_phase(TracePhase::Wire, server_id.name(), None, &probe.fqcn)
            });
            let detected = match &probe.operation {
                // No invocable operation: the probe never leaves the
                // client, the fault never bites — masked.
                None => false,
                Some(op) => !exchange_over_http(
                    &client,
                    proxy.addr(),
                    &probe.path(),
                    &probe.wsdl_xml,
                    op,
                    "chaos-probe",
                )
                .completed(),
            };
            if let Some(w) = probe.wire {
                log.record(&probe.wire_key, [w.kind()], detected);
            }
            if let Some(s) = probe.sock {
                log.record(&probe.sock_key, [s.kind()], detected);
            }
            if let (Some(o), Some(span)) = (obs, span) {
                let site = if probe.wire.is_some() {
                    &probe.wire_key
                } else {
                    &probe.sock_key
                };
                o.end_phase(
                    TracePhase::Wire,
                    server_id.name(),
                    None,
                    &probe.fqcn,
                    if detected { "detected" } else { "masked" },
                    Some(site),
                    0,
                    false,
                    span,
                );
            }
        }
        proxy.shutdown();
        server.shutdown();
        Ok(())
    }

    /// One Service Description Generation step, with fault injection,
    /// transient-refusal retries and graceful handling of unparseable
    /// published descriptions. The step's faults are decided, injected
    /// and accounted here, once.
    fn deploy_entry(
        &self,
        env: &CellEnv<'_>,
        server: &dyn ServerSubsystem,
        server_id: ServerId,
        entry: &TypeEntry,
    ) -> (ServiceRecord, Option<ParsedService>) {
        let log = env.log;
        let obs = self.obs.as_deref();
        let span = obs.map(|o| {
            o.begin_phase(
                TracePhase::Describe,
                server_id.name(),
                None,
                &entry.fqcn,
            )
        });
        // The site's faults are decided from one hash of its key. A
        // transient refusal eats its first `refusals` attempts: each
        // one the retry budget covers costs a retry and its backoff,
        // and past the budget the service is refused before the
        // platform ever sees it.
        let key = SiteKey::Deploy(server_id, &entry.fqcn);
        let faults = self
            .faults
            .as_ref()
            .map(|plan| plan.deploy_faults(key))
            .unwrap_or_default();
        let refusals = faults.refusals.unwrap_or(0);
        let retries = refusals.min(self.resilience.max_retries);
        for retry in 0..retries {
            log.retried(self.resilience.backoff_for(retry));
        }
        let published = if refusals > self.resilience.max_retries {
            None
        } else if let DeployOutcome::Deployed { wsdl_xml } = server.deploy(entry) {
            Some(wsdl_xml)
        } else {
            None
        };
        // Only published bytes can be damaged.
        let damage = faults.damage.filter(|_| published.is_some());
        let published = published.map(|wsdl_xml| match damage {
            Some(damage) => damage.apply(&wsdl_xml),
            None => wsdl_xml,
        });

        let (record, wsdl) = match published {
            None => (
                ServiceRecord {
                    server: server_id,
                    fqcn: entry.fqcn.clone(),
                    deployed: false,
                    wsi_conformant: None,
                    description_warning: false,
                },
                None,
            ),
            Some(wsdl_xml) => {
                // The one parse every later step of this service reads —
                // of the published bytes, damaged ones included.
                let svc = env.cache.parse(wsdl_xml);
                match svc.defs() {
                    Some(defs) => {
                        let report = env.analyzer.analyze(defs);
                        let conformant = report.conformant();
                        let advisory = report
                            .warnings()
                            .any(|w| w.assertion == "EXT0001");
                        (
                            ServiceRecord {
                                server: server_id,
                                fqcn: entry.fqcn.clone(),
                                deployed: true,
                                wsi_conformant: Some(conformant),
                                description_warning: !conformant || advisory,
                            },
                            Some(svc),
                        )
                    }
                    // Graceful degradation: an unparseable published
                    // description is a real interoperability finding,
                    // not a reason to abort the campaign. Record it as
                    // deployed-but-non-conformant and keep the text —
                    // all eleven clients still get to classify it.
                    None => (
                        ServiceRecord {
                            server: server_id,
                            fqcn: entry.fqcn.clone(),
                            deployed: true,
                            wsi_conformant: Some(false),
                            description_warning: true,
                        },
                        Some(svc),
                    ),
                }
            }
        };

        // The site is formatted only for its readers: an injected
        // fault, a trace of a fault-planned run.
        let refusal = faults.refusals.map(|_| FaultKind::TransientDeployRefusal);
        let affected = refusal.is_some() || damage.is_some();
        let traced = obs.is_some() && self.faults.is_some();
        let site = (affected || traced).then(|| key.to_string());
        if let Some(site) = site.as_deref().filter(|_| affected) {
            // Detected when the step surfaced the disruption as a
            // refusal or a flagged description; masked when the record
            // came out clean (retry-absorbed refusals, benign
            // corruption).
            let detected = !record.deployed || record.description_warning;
            let kinds = refusal.into_iter().chain(damage.map(WsdlDamage::kind));
            log.record(site, kinds, detected);
        }
        if let (Some(o), Some(span)) = (obs, span) {
            let outcome_label = if !record.deployed {
                "refused"
            } else if record.description_warning {
                "warning"
            } else {
                "deployed"
            };
            o.end_phase(
                TracePhase::Describe,
                server_id.name(),
                None,
                &entry.fqcn,
                outcome_label,
                site.as_deref(),
                u64::from(retries),
                false,
                span,
            );
        }
        (record, wsdl)
    }

    /// Starts one (server, client, service) cell on a worker: a cell
    /// the resume journal already holds is taken from it, any other
    /// is executed. Nothing here touches the fault log, the breaker or
    /// the journal; [`Campaign::commit`] does.
    fn start_cell<'p>(
        &self,
        env: &CellEnv<'p>,
        server_id: ServerId,
        record: &ServiceRecord,
        svc: &ParsedService,
        client: &dyn ClientSubsystem,
    ) -> PendingCell<'p> {
        let client_id = client.info().id;
        // The cell's site is hashed once, as its key is written; the
        // journal key is formatted only for a resume journal.
        let faults = self
            .faults
            .as_ref()
            .map(|plan| plan.cell_faults(SiteKey::Gen(server_id, client_id, &record.fqcn)));
        let span = self.obs.as_deref().map(|o| {
            o.begin_phase(
                TracePhase::Generate,
                server_id.name(),
                Some(client_id.name()),
                &record.fqcn,
            )
        });
        let prior = if env.prior.is_empty() {
            None
        } else {
            env.prior.get(&(server_id, client_id, record.fqcn.clone()))
        };
        let run = match prior {
            Some(prior) => CellRun::Replayed(prior),
            None => self.run_cell(server_id, record, svc, client, faults),
        };
        PendingCell {
            faults,
            span: span.map(Stopwatch::stop),
            run,
        }
    }

    /// Commits one document's cells, client by client: breaker gate →
    /// fault accounting → breaker bookkeeping → journal staging; the
    /// document's frames then go to the journal in one append. Without
    /// a breaker documents commit in any order, since every step here
    /// is order-free; with one they commit in campaign order, so each
    /// client's breaker sees its cells exactly as a sequential run
    /// would.
    ///
    /// A live cell and a replayed one go through the same accounting,
    /// [`account_cell`], so a resumed run's [`FaultReport`] is
    /// bit-identical to an uninterrupted one. Replayed cells never
    /// re-append (a journal converges to one record per cell). A cell
    /// the open breaker skips is discarded: it counts as never run.
    fn commit(
        &self,
        env: &CellEnv<'_>,
        doc: PendingDoc<'_>,
        breakers: &mut [BreakerState],
        out: &mut WorkerOutput,
    ) {
        let PendingDoc {
            rank,
            server,
            record,
            cells,
        } = doc;
        let server_id = self.servers[server].info().id;
        for (k, (client, pending)) in self.clients.iter().zip(cells).enumerate() {
            let client_id = client.info().id;
            let replayed = matches!(pending.run, CellRun::Replayed(_));
            // The site is formatted only for its readers: an injected
            // fault, a breaker skip, a trace of a fault-planned run.
            let key = SiteKey::Gen(server_id, client_id, &record.fqcn);
            let faults = pending.faults.filter(|f| f.any());
            let traced = self.obs.is_some() && self.faults.is_some();
            let mut site = (faults.is_some() || traced).then(|| key.to_string());
            let cell = if self.breaker.is_some() && breakers[k].should_skip() {
                // Open breaker: the cell is recorded as a skipped Error
                // outcome. The decision replays identically on resume
                // (it depends only on the preceding stream), so a
                // journaled skip is simply not re-appended.
                env.log
                    .breaker_skip(site.get_or_insert_with(|| key.to_string()));
                JournalCell {
                    record: generation_error(server_id, client_id, &record.fqcn),
                    breaker_skipped: true,
                    disruptive: false,
                }
            } else {
                let cell = match pending.run {
                    CellRun::Replayed(prior) => {
                        env.cache.note_journal_replay();
                        prior.clone()
                    }
                    CellRun::Live { cell, ran_tool } => {
                        if ran_tool {
                            if self.doc_cache {
                                env.cache.note_gen_run();
                            } else {
                                env.cache.note_text_generate();
                            }
                        }
                        cell
                    }
                };
                if let (Some(faults), Some(site)) = (faults, &site) {
                    account_cell(faults, &self.resilience, site, &cell, env.log);
                }
                cell
            };

            if let Some(cfg) = self.breaker {
                if !cell.breaker_skipped && breakers[k].observe(cfg, cell.disruptive) {
                    env.log.breaker_tripped();
                }
            }
            if env.writer.is_some() && !replayed {
                out.frames.push_cell(&cell);
            }
            if let (Some(o), Some(span)) = (self.obs.as_deref(), pending.span) {
                let outcome_label = if cell.breaker_skipped {
                    "breaker-skipped"
                } else if replayed {
                    "replayed"
                } else if cell.record.gen_error {
                    "error"
                } else if cell.record.gen_warning {
                    "warning"
                } else {
                    "success"
                };
                o.end_phase(
                    TracePhase::Generate,
                    server_id.name(),
                    Some(client_id.name()),
                    &record.fqcn,
                    outcome_label,
                    site.as_deref().filter(|_| self.faults.is_some()),
                    0,
                    cell.breaker_skipped,
                    span,
                );
                o.record_cell_done();
            }
            out.tests.push(((server, client_id, rank), cell.record));
        }
        if let Some(writer) = env.writer {
            writer.append_batch(&mut out.frames);
        }
        out.services.push((rank, record));
    }

    /// One (server, client, service) test cell, with fault injection,
    /// panic isolation, the virtual step deadline and the per-cell
    /// watchdog. `faults` are the cell's planned faults under a fault
    /// plan.
    ///
    /// The client-side faults never touch the description: an injected
    /// crash fires before the tool runs, and a slow step is virtual.
    /// So chaos cells generate from the deploy-time parse exactly like
    /// fault-free ones; a fault-damaged description was already parsed
    /// there, damaged bytes and all.
    fn run_cell<'p>(
        &self,
        server_id: ServerId,
        record: &ServiceRecord,
        svc: &ParsedService,
        client: &dyn ClientSubsystem,
        faults: Option<CellFaults>,
    ) -> CellRun<'p> {
        let Some(faults) = faults else {
            return CellRun::Live {
                cell: self.generate_cell(server_id, record, svc, client),
                ran_tool: true,
            };
        };

        let crash = faults.crash;
        let step = || {
            if crash {
                let site = SiteKey::Gen(server_id, client.info().id, &record.fqcn);
                panic!("injected fault: artifact generator crashed at {site}");
            }
            self.generate_cell(server_id, record, svc, client)
        };
        let mut cell = if self.resilience.isolate_panics {
            catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|_| {
                // The worker died mid-step; the test still gets a
                // verdict: generation failed, disruptively.
                JournalCell {
                    record: generation_error(server_id, client.info().id, &record.fqcn),
                    breaker_skipped: false,
                    disruptive: true,
                }
            })
        } else {
            step()
        };

        if let Some(virtual_ms) = faults.slow_ms {
            if virtual_ms > self.resilience.step_deadline_ms {
                // The step blew its deadline budget: classified as an
                // Error, exactly like a hung tool killed by a watchdog.
                cell.record.gen_error = true;
            }
            if virtual_ms > self.resilience.cell_budget_ms {
                // The whole cell blew the watchdog budget: a
                // disruptive Error — the kind that trips breakers.
                cell.record.gen_error = true;
                cell.disruptive = true;
            }
        }
        CellRun::Live {
            cell,
            ran_tool: !crash,
        }
    }

    /// One Artifact Generation step and its classification: from the
    /// shared parse, or — with the doc cache off — down the text path,
    /// where the tool re-parses the published text itself.
    fn generate_cell(
        &self,
        server_id: ServerId,
        record: &ServiceRecord,
        svc: &ParsedService,
        client: &dyn ClientSubsystem,
    ) -> JournalCell {
        let outcome = if self.doc_cache {
            svc.generate(client)
        } else {
            client.generate(svc.wsdl_xml())
        };
        classify_outcome(
            server_id,
            record,
            client.info(),
            outcome,
            self.obs.as_deref(),
        )
    }
}

/// A published description's key in the distinct-document count:
/// std's SipHash over its text, eight bytes per round. The key never
/// leaves the process — only the count is reported — so it need not be
/// stable across releases, unlike [`content_hash`].
fn doc_key(wsdl_xml: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(wsdl_xml.as_bytes());
    hasher.finish()
}

/// A test record whose generation step failed before classification:
/// an isolated generator crash, or a cell an open breaker skipped.
fn generation_error(server: ServerId, client: ClientId, fqcn: &str) -> TestRecord {
    TestRecord {
        server,
        client,
        fqcn: fqcn.to_string(),
        gen_warning: false,
        gen_error: true,
        compile_ran: false,
        compile_warning: false,
        compile_error: false,
        compiler_crashed: false,
        instantiation: None,
    }
}

/// A faulted cell's contributions to the fault log, derived from the
/// pure plan decisions — injection, panic isolation, deadline and
/// watchdog hits, detected-vs-masked resolution — and the cell's
/// verdict. Live and journal-replayed cells both go through here,
/// which is what makes a resumed chaos campaign's [`FaultReport`]
/// bit-identical to an uninterrupted one. Nothing else injects at a
/// `gen/…` site, so the site is affected exactly when `faults` holds
/// one; a cell without faults never gets here.
fn account_cell(
    faults: CellFaults,
    resilience: &ResilienceConfig,
    site: &str,
    cell: &JournalCell,
    log: &FaultLog,
) {
    if faults.crash && resilience.isolate_panics {
        log.panic_isolated();
    }
    if let Some(virtual_ms) = faults.slow_ms {
        if virtual_ms > resilience.step_deadline_ms {
            log.deadline_hit();
        }
        if virtual_ms > resilience.cell_budget_ms {
            log.watchdog_cell();
        }
    }
    let detected = cell.record.any_error() || cell.record.any_warning();
    log.record(site, faults.kinds(), detected);
}

/// Runs one wire-fault probe for the chaos campaign's Communication
/// step, resolving the injection as detected unless the exchange still
/// completed. The invocation target and the exchange's one parse come
/// from the shared [`ParsedService`] — no re-parse.
fn wire_probe(
    plan: &FaultPlan,
    log: &FaultLog,
    server_id: ServerId,
    record: &ServiceRecord,
    svc: &ParsedService,
    obs: Option<&Obs>,
) {
    let Some(wire) = plan.wire_fault_key(SiteKey::Wire(server_id, &record.fqcn)) else {
        return;
    };
    let site = wire_site(server_id, &record.fqcn);
    let span = obs.map(|o| {
        o.begin_phase(
            TracePhase::Exchange,
            server_id.name(),
            None,
            &record.fqcn,
        )
    });
    let detected = match (svc.defs(), svc.first_operation()) {
        (Some(defs), Some(op)) => !exchange_parsed(defs, op, "chaos-probe", Some(wire)).completed(),
        // No invocable operation (or unparseable description): the
        // wire fault never gets a chance to bite — masked.
        _ => false,
    };
    log.record(&site, [wire.kind()], detected);
    if let (Some(o), Some(span)) = (obs, span) {
        o.end_phase(
            TracePhase::Exchange,
            server_id.name(),
            None,
            &record.fqcn,
            if detected { "detected" } else { "masked" },
            Some(&site),
            0,
            false,
            span,
        );
    }
}

/// The classification steps shared by both generation paths, plus the
/// supervision verdict: a cell is *disruptive* (a breaker trigger)
/// when its compiler crashed or its error message classifies as a
/// process-health failure rather than an ordinary diagnostic.
fn classify_outcome(
    server_id: ServerId,
    record: &ServiceRecord,
    info: wsinterop_frameworks::client::ClientInfo,
    outcome: wsinterop_frameworks::client::GenOutcome,
    obs: Option<&Obs>,
) -> JournalCell {
    let mut test = TestRecord {
        server: server_id,
        client: info.id,
        fqcn: record.fqcn.clone(),
        gen_warning: !outcome.warnings.is_empty(),
        gen_error: outcome.error.is_some(),
        compile_ran: false,
        compile_warning: false,
        compile_error: false,
        compiler_crashed: false,
        instantiation: None,
    };

    if let Some(bundle) = &outcome.artifacts {
        // The compile span covers artifact classification only —
        // compilation for static clients, instantiation for dynamic
        // ones. Cells that never produced artifacts have no compile
        // phase to time.
        let span = obs.map(|o| {
            o.begin_phase(
                TracePhase::Compile,
                server_id.name(),
                Some(info.id.name()),
                &record.fqcn,
            )
        });
        match info.compilation {
            CompilationMode::Dynamic => {
                // Classification step for dynamic clients: instantiate
                // the client object and check it is actually usable.
                if outcome.error.is_none() {
                    let check = instantiate(bundle);
                    let kind = if !check.constructed {
                        InstantiationKind::Failed
                    } else if check.empty_client() {
                        InstantiationKind::Empty
                    } else {
                        InstantiationKind::Usable
                    };
                    test.instantiation = Some(kind);
                    match kind {
                        InstantiationKind::Empty => test.gen_warning = true,
                        InstantiationKind::Failed => test.gen_error = true,
                        InstantiationKind::Usable => {}
                    }
                }
            }
            _ => {
                if let Some(compiler) = compiler_for(bundle.language) {
                    let compiled = compiler.compile(bundle);
                    test.compile_ran = true;
                    test.compile_warning = compiled.warning_count() > 0;
                    test.compile_error = !compiled.success();
                    test.compiler_crashed = compiled.crashed;
                }
            }
        }
        if let (Some(o), Some(span)) = (obs, span) {
            let outcome_label = if test.compiler_crashed {
                "crashed"
            } else if test.compile_error
                || test.instantiation == Some(InstantiationKind::Failed)
            {
                "error"
            } else if test.compile_warning
                || test.instantiation == Some(InstantiationKind::Empty)
            {
                "warning"
            } else {
                "success"
            };
            o.end_phase(
                TracePhase::Compile,
                server_id.name(),
                Some(info.id.name()),
                &record.fqcn,
                outcome_label,
                None,
                0,
                false,
                span,
            );
        }
    }

    let disruptive = test.compiler_crashed
        || outcome
            .error
            .as_deref()
            .is_some_and(|m| classify_error(m) == ErrorClass::Disruptive);
    JournalCell {
        record: test,
        breaker_skipped: false,
        disruptive,
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::deploy_site;
    use wsinterop_frameworks::client::ClientId;
    use wsinterop_frameworks::server::ServerId;

    #[test]
    fn sampled_campaign_has_consistent_shape() {
        let results = Campaign::sampled(97).run();
        // Every deployed service produced exactly 11 tests.
        let deployed: usize = ServerId::ALL
            .iter()
            .map(|&s| results.deployed(s))
            .sum();
        assert_eq!(results.tests.len(), deployed * 11);
        // Tests never report compilation without artifacts.
        for t in &results.tests {
            if t.compile_ran {
                assert!(matches!(
                    t.client,
                    ClientId::Metro
                        | ClientId::Axis1
                        | ClientId::Axis2
                        | ClientId::Cxf
                        | ClientId::JBossWs
                        | ClientId::DotnetCs
                        | ClientId::DotnetVb
                        | ClientId::DotnetJs
                        | ClientId::Gsoap
                ));
            }
            if t.instantiation.is_some() {
                assert!(matches!(t.client, ClientId::Zend | ClientId::Suds));
            }
        }
    }

    #[test]
    fn subset_campaigns_restrict_servers_and_clients() {
        let results = Campaign::sampled(149)
            .with_servers(&[ServerId::Metro])
            .with_clients(&[ClientId::Axis1, ClientId::Suds])
            .run();
        assert!(results.tests.iter().all(|t| t.server == ServerId::Metro));
        assert!(results
            .tests
            .iter()
            .all(|t| matches!(t.client, ClientId::Axis1 | ClientId::Suds)));
        let deployed = results.deployed(ServerId::Metro);
        assert_eq!(results.tests.len(), deployed * 2);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let _ = Campaign::sampled(0);
    }

    #[test]
    fn cached_and_uncached_campaigns_are_bit_identical() {
        let cached = Campaign::sampled(149).with_threads(4).run();
        let uncached = Campaign::sampled(149)
            .with_threads(3)
            .with_doc_cache(false)
            .run();
        assert_eq!(cached.services, uncached.services);
        assert_eq!(cached.tests, uncached.tests);
    }

    #[test]
    fn cached_and_uncached_chaos_campaigns_are_bit_identical() {
        // Under a fault plan, chaos cells generate from the deploy-time
        // parse, damaged bytes included — which must be invisible to
        // both the records and the fault accounting.
        let (cached, cached_report, stats) = Campaign::sampled(97)
            .with_faults(FaultPlan::seeded(42))
            .run_with_stats();
        let (uncached, uncached_report) = Campaign::sampled(97)
            .with_faults(FaultPlan::seeded(42))
            .with_doc_cache(false)
            .run_with_report();
        assert_eq!(cached.services, uncached.services);
        assert_eq!(cached.tests, uncached.tests);
        assert_eq!(cached_report, uncached_report);
        // The seeded plan actually damaged some descriptions, and no
        // cell re-parsed its text.
        let damaged = cached_report.counts(FaultKind::WsdlTruncation).injected
            + cached_report.counts(FaultKind::WsdlCorruption).injected;
        assert!(damaged > 0, "{cached_report:?}");
        assert_eq!(stats.text_generates, 0, "{stats:?}");
    }

    #[test]
    fn cache_accounting_bounds_hold() {
        let (results, _, stats) = Campaign::sampled(97).run_with_stats();
        let deployed = results.services.iter().filter(|s| s.deployed).count();
        assert!(deployed > 0);
        // Parse-once: exactly one parse per deployed service, and one
        // generation step over it per test cell.
        assert_eq!(stats.text_generates, 0);
        assert_eq!(stats.parses, deployed);
        assert!(stats.distinct_docs <= deployed);
        assert_eq!(stats.gen_runs, results.tests.len());
        assert_eq!(stats.gen_memo_hits, 0);

        // The historical pipeline parses per consumer: one WS-I parse
        // plus eleven client parses per deployed service.
        let (_, _, uncached) = Campaign::sampled(97)
            .with_doc_cache(false)
            .run_with_stats();
        assert_eq!(uncached.parses, 12 * deployed);
        assert_eq!(uncached.text_generates, 11 * deployed);
        assert_eq!(uncached.gen_runs, 0);
        assert_eq!(uncached.distinct_docs, stats.distinct_docs);
    }

    #[test]
    fn strided_runs_are_deterministic() {
        let a = Campaign::sampled(149).with_threads(3).run();
        let b = Campaign::sampled(149).with_threads(7).run();
        assert_eq!(a.services.len(), b.services.len());
        assert_eq!(a.tests.len(), b.tests.len());
        assert_eq!(a.tests, b.tests);
    }

    #[test]
    fn faultless_plan_report_is_empty_and_results_match_baseline() {
        let baseline = Campaign::sampled(199).run();
        let (results, report) = Campaign::sampled(199)
            .with_faults(FaultPlan::silent(5))
            .run_with_report();
        assert_eq!(report.injected_total(), 0);
        assert_eq!(report.retries_spent, 0);
        assert_eq!(results.services, baseline.services);
        assert_eq!(results.tests, baseline.tests);
    }

    #[test]
    fn transient_refusals_within_budget_are_masked() {
        // Force a transient refusal at one deploy site; with the
        // default budget (2 retries) a 1–3-failure fault either
        // recovers (masked) or exhausts the budget (detected) — but it
        // must always be accounted and never panic the run.
        let fqcn = "java.lang.String";
        let plan = FaultPlan::silent(9).force_at(
            FaultKind::TransientDeployRefusal,
            deploy_site(ServerId::Metro, fqcn),
        );
        let (results, report) = Campaign::sampled(1)
            .with_servers(&[ServerId::Metro])
            .with_clients(&[ClientId::Metro])
            .with_faults(plan)
            .run_with_report();
        let counts = report.counts(FaultKind::TransientDeployRefusal);
        assert_eq!(counts.injected, 1);
        assert_eq!(counts.detected + counts.masked, 1);
        assert!(report.retries_spent >= 1);
        let record = results
            .services
            .iter()
            .find(|s| s.fqcn == fqcn)
            .expect("record exists");
        // Either the retries recovered it (deployed) or the budget ran
        // out (refused) — in both cases the campaign shape holds.
        assert_eq!(
            results.tests.iter().filter(|t| t.fqcn == fqcn).count(),
            usize::from(record.deployed)
        );
    }
}
