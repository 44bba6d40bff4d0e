//! Supervised multi-process campaign sharding: partitioning,
//! crash-recovering supervision, and deterministic merge.
//!
//! The paper's full matrix (22 024 candidate services → 79 629 tests)
//! runs as one monolithic sweep; one wedged or killed process loses
//! the whole run. This module splits a campaign across N worker
//! processes and makes the split invisible in the output:
//!
//! * **Partitioning** ([`ShardSpec`]): per server, the strided catalog
//!   entries are grouped into chunks of [`ENTRIES_PER_CHUNK`] and
//!   dealt round-robin — shard `k` of `n` owns chunk `c` iff
//!   `c % n == k`. Shards are disjoint and jointly exhaustive by
//!   construction (a property test pins this for arbitrary `n` and
//!   stride), and the grid depends only on the campaign
//!   configuration, never on which shard computes it.
//! * **Exactly-once claiming**: every shard journal carries the *same*
//!   campaign config hash (the shard spec is excluded from
//!   [`crate::Campaign::config_hash`]), each worker journals its own
//!   cells crash-safely, and a respawned worker resumes from its
//!   journal — already-classified cells are replayed, not re-executed.
//!   The merge refuses duplicate cells and verifies every deployed
//!   service has exactly one cell per client.
//! * **Supervision** ([`Supervisor`]): the parent polls worker exit
//!   status (crash = any nonzero exit, including `kill -9`) and
//!   journal growth (no append within the heartbeat window = hang →
//!   the worker is killed and treated as crashed), then respawns with
//!   capped exponential backoff up to a respawn budget.
//! * **Deterministic merge**: results are re-sorted into the canonical
//!   `(server, client, fqcn)` order the single-process campaign
//!   produces, metrics registries merge exactly (summed counters —
//!   one `obs_events_dropped` total — and bin-wise histogram merges,
//!   see [`crate::obs::MetricsSnapshot`]), fault reports add
//!   per-kind, and trace streams are renumbered into one seq-stable
//!   stream. The merged journal, tables and metrics are bit-identical
//!   to an uninterrupted single-process run regardless of shard count
//!   or injected worker deaths (E17).
//!
//! The one campaign feature that cannot shard is the per-client
//! circuit breaker: its decisions depend on the full preceding cell
//! stream of a client, which no shard sees. [`crate::Campaign`]
//! panics on the combination; `wsitool` rejects it as a usage error.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use wsinterop_frameworks::client::ClientId;
use wsinterop_frameworks::server::ServerId;

use crate::faults::FaultReport;
use crate::journal::{read_journal, JournalBatch, JournalCell, JournalError, JournalWriter};
use crate::obs::{MetricsSnapshot, TraceEvent};
use crate::results::{CampaignResults, ServiceRecord};

/// Chunk granularity of the shard partition: each shard owns runs of
/// this many consecutive *strided* catalog entries, dealt round-robin.
/// Matches the in-process work-queue claim granularity, so a shard's
/// share has the same locality as a thread's.
pub const ENTRIES_PER_CHUNK: usize = 16;

/// One worker's identity in a partitioned campaign: shard `index` of
/// `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardSpec {
    /// This worker's shard index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the campaign is split into.
    pub count: usize,
}

impl ShardSpec {
    /// A validated shard spec.
    ///
    /// # Panics
    ///
    /// Panics when `count == 0` or `index >= count`.
    pub fn new(index: usize, count: usize) -> ShardSpec {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardSpec { index, count }
    }

    /// Parses the CLI form `k/N` (e.g. `--shard 1/3`).
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        let bad = || format!("invalid shard spec {spec:?}: expected k/N with 0 <= k < N");
        let (index, count) = spec.split_once('/').ok_or_else(bad)?;
        let index: usize = index.trim().parse().map_err(|_| bad())?;
        let count: usize = count.trim().parse().map_err(|_| bad())?;
        if count == 0 || index >= count {
            return Err(bad());
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this shard owns the strided catalog entry at
    /// `strided_index` (the index into the already-strided entry
    /// sequence of one server, not into the raw catalog).
    pub fn owns(self, strided_index: usize) -> bool {
        (strided_index / ENTRIES_PER_CHUNK) % self.count == self.index
    }

    /// The chunk a strided entry index belongs to.
    pub fn chunk_of(strided_index: usize) -> usize {
        strided_index / ENTRIES_PER_CHUNK
    }

    fn file(self, dir: &Path, suffix: &str) -> PathBuf {
        dir.join(format!("shard-{}-of-{}.{suffix}", self.index, self.count))
    }

    /// This shard's write-ahead journal inside the shard directory.
    pub fn journal_file(self, dir: &Path) -> PathBuf {
        self.file(dir, "journal")
    }

    /// This shard's per-service TSV, written atomically on success.
    pub fn services_file(self, dir: &Path) -> PathBuf {
        self.file(dir, "services.tsv")
    }

    /// This shard's metrics-registry snapshot (JSON).
    pub fn metrics_file(self, dir: &Path) -> PathBuf {
        self.file(dir, "metrics.json")
    }

    /// This shard's trace stream (JSON lines).
    pub fn trace_file(self, dir: &Path) -> PathBuf {
        self.file(dir, "trace.jsonl")
    }

    /// The live worker's pid, written by the supervisor at each spawn
    /// (kill tests read it to SIGKILL a real process).
    pub fn pid_file(self, dir: &Path) -> PathBuf {
        self.file(dir, "pid")
    }

    /// The worker's combined stdout+stderr log, appended across
    /// respawns.
    pub fn log_file(self, dir: &Path) -> PathBuf {
        self.file(dir, "log")
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Why a shard merge was refused. Every variant is a hard error: a
/// merge must never paper over missing, duplicated or mismatched work.
#[derive(Debug)]
pub enum ShardError {
    /// A shard's journal could not be read.
    Journal(usize, JournalError),
    /// A shard's journal ends in a torn tail — its worker never exited
    /// cleanly, so its cells may be incomplete.
    TornJournal(usize),
    /// A shard's journal was written under a different campaign
    /// configuration.
    ConfigMismatch {
        /// The shard whose journal disagrees.
        shard: usize,
        /// The hash the other shards agree on.
        expected: u64,
        /// The hash this shard's journal carries.
        found: u64,
    },
    /// A shard finished without publishing its services TSV.
    MissingServices(usize),
    /// A shard's services TSV failed to parse.
    BadServices(usize, String),
    /// A shard's metrics snapshot is missing or failed to parse.
    BadMetrics(usize),
    /// Two shards (or one shard twice) produced the same test cell —
    /// the exactly-once invariant is broken.
    DuplicateCell {
        /// Hosting server of the duplicated cell.
        server: ServerId,
        /// Consuming client of the duplicated cell.
        client: ClientId,
        /// Class under test.
        fqcn: String,
    },
    /// Two shards deployed the same service.
    DuplicateService {
        /// Hosting server of the duplicated service.
        server: ServerId,
        /// Duplicated class.
        fqcn: String,
    },
    /// A deployed service is missing test cells (or has extras) after
    /// the merge.
    IncompleteService {
        /// Hosting server of the under-covered service.
        server: ServerId,
        /// The under-covered class.
        fqcn: String,
        /// Cells found across all shards.
        cells: usize,
        /// Cells required (one per client).
        expected: usize,
    },
    /// Test cells exist for a service no shard reported as deployed.
    StrayCells {
        /// Server the stray cells name.
        server: ServerId,
        /// Class the stray cells name.
        fqcn: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Journal(shard, e) => write!(f, "shard {shard}: {e}"),
            ShardError::TornJournal(shard) => write!(
                f,
                "shard {shard}: journal has a torn tail — its worker never finished"
            ),
            ShardError::ConfigMismatch {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard}: journal config hash 0x{found:016x} does not match \
                 0x{expected:016x}"
            ),
            ShardError::MissingServices(shard) => {
                write!(f, "shard {shard}: services TSV missing (worker incomplete?)")
            }
            ShardError::BadServices(shard, why) => {
                write!(f, "shard {shard}: bad services TSV: {why}")
            }
            ShardError::BadMetrics(shard) => {
                write!(f, "shard {shard}: metrics snapshot missing or unparsable")
            }
            ShardError::DuplicateCell {
                server,
                client,
                fqcn,
            } => write!(
                f,
                "duplicate cell {client} vs {server} for {fqcn}: exactly-once claiming violated"
            ),
            ShardError::DuplicateService { server, fqcn } => {
                write!(f, "duplicate service {fqcn} on {server}")
            }
            ShardError::IncompleteService {
                server,
                fqcn,
                cells,
                expected,
            } => write!(
                f,
                "service {fqcn} on {server} has {cells} of {expected} client cells"
            ),
            ShardError::StrayCells { server, fqcn } => write!(
                f,
                "test cells exist for {fqcn} on {server}, which no shard deployed"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

// --- deterministic merge --------------------------------------------

/// Re-sorts results into the order the single-process campaign emits:
/// services by `(server, fqcn)`, tests by `(server, client, fqcn)`.
///
/// This reproduces the unsharded order exactly because the campaign
/// sorts its records the same way within each server (deploys by
/// fqcn, tests by `(client, fqcn)`) and takes the servers in
/// [`ServerId`] declaration order.
pub fn canonical_sort(results: &mut CampaignResults) {
    results.services.sort_by(|a, b| {
        (a.server, a.fqcn.as_str()).cmp(&(b.server, b.fqcn.as_str()))
    });
    results.tests.sort_by(|a, b| {
        (a.server, a.client, a.fqcn.as_str()).cmp(&(b.server, b.client, b.fqcn.as_str()))
    });
}

/// Merges per-shard results into one canonical [`CampaignResults`] —
/// the in-process half of the merge contract (the process-level half
/// is [`merge_shard_dir`]).
pub fn merge_results(parts: impl IntoIterator<Item = CampaignResults>) -> CampaignResults {
    let mut merged = CampaignResults::default();
    for part in parts {
        merged.services.extend(part.services);
        merged.tests.extend(part.tests);
    }
    canonical_sort(&mut merged);
    merged
}

/// Merges per-shard fault reports ([`FaultReport::merge`]); `None`
/// when `parts` is empty.
pub fn merge_reports(parts: impl IntoIterator<Item = FaultReport>) -> Option<FaultReport> {
    let mut iter = parts.into_iter();
    let mut merged = iter.next()?;
    for part in iter {
        merged.merge(&part);
    }
    Some(merged)
}

/// Parses the `services_tsv` export back into records (the shard
/// workers' deploy-phase hand-off; deploys are not journaled because
/// resume recomputes them).
pub fn parse_services_tsv(tsv: &str) -> Result<Vec<ServiceRecord>, String> {
    const HEADER: &str = "server\tclass\tdeployed\twsi_conformant\tdescription_warning";
    let mut lines = tsv.lines();
    if lines.next() != Some(HEADER) {
        return Err("missing services TSV header".to_string());
    }
    let server_by_name: BTreeMap<&str, ServerId> = [
        ServerId::Metro,
        ServerId::JBossWs,
        ServerId::WcfDotNet,
        ServerId::Axis2Java,
    ]
    .into_iter()
    .map(|id| (id.name(), id))
    .collect();
    let parse_bool = |field: &str| match field {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("bad boolean {other:?}")),
    };
    let mut services = Vec::new();
    for (i, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        let [server, fqcn, deployed, wsi, warning] = fields.as_slice() else {
            return Err(format!("line {}: expected 5 fields", i + 2));
        };
        let server = *server_by_name
            .get(server)
            .ok_or_else(|| format!("line {}: unknown server {server:?}", i + 2))?;
        services.push(ServiceRecord {
            server,
            fqcn: fqcn.to_string(),
            deployed: parse_bool(deployed).map_err(|e| format!("line {}: {e}", i + 2))?,
            wsi_conformant: match *wsi {
                "-" => None,
                other => Some(parse_bool(other).map_err(|e| format!("line {}: {e}", i + 2))?),
            },
            description_warning: parse_bool(warning)
                .map_err(|e| format!("line {}: {e}", i + 2))?,
        });
    }
    Ok(services)
}

/// Everything [`merge_shard_dir`] recovered from a shard directory.
#[derive(Debug)]
pub struct MergedRun {
    /// Canonically-ordered merged results.
    pub results: CampaignResults,
    /// Canonically-ordered merged journal cells (one per test).
    pub cells: Vec<JournalCell>,
    /// The campaign config hash all shard journals agree on.
    pub config_hash: u64,
    /// Cells recovered per shard, in shard order.
    pub shard_cells: Vec<usize>,
}

/// Reads and merges the `count` shard journals + services TSVs in
/// `dir`: verifies they agree on the config hash, refuses torn
/// journals and duplicate cells/services, and returns canonically
/// sorted results. Call [`verify_exactly_once`] afterwards to check
/// coverage against the client count.
pub fn merge_shard_dir(dir: &Path, count: usize) -> Result<MergedRun, ShardError> {
    let mut cells: Vec<JournalCell> = Vec::new();
    let mut services: Vec<ServiceRecord> = Vec::new();
    let mut config_hash: Option<u64> = None;
    let mut shard_cells = Vec::with_capacity(count);
    for k in 0..count {
        let spec = ShardSpec::new(k, count);
        let read = read_journal(&spec.journal_file(dir)).map_err(|e| ShardError::Journal(k, e))?;
        if read.torn() {
            return Err(ShardError::TornJournal(k));
        }
        match config_hash {
            None => config_hash = Some(read.config_hash),
            Some(expected) if expected != read.config_hash => {
                return Err(ShardError::ConfigMismatch {
                    shard: k,
                    expected,
                    found: read.config_hash,
                });
            }
            Some(_) => {}
        }
        shard_cells.push(read.cells.len());
        cells.extend(read.cells);
        let tsv = fs::read_to_string(spec.services_file(dir))
            .map_err(|_| ShardError::MissingServices(k))?;
        services.extend(parse_services_tsv(&tsv).map_err(|e| ShardError::BadServices(k, e))?);
    }

    let mut seen_cells = BTreeSet::new();
    for cell in &cells {
        let key = (cell.record.server, cell.record.client, cell.record.fqcn.clone());
        if !seen_cells.insert(key) {
            return Err(ShardError::DuplicateCell {
                server: cell.record.server,
                client: cell.record.client,
                fqcn: cell.record.fqcn.clone(),
            });
        }
    }
    let mut seen_services = BTreeSet::new();
    for s in &services {
        if !seen_services.insert((s.server, s.fqcn.clone())) {
            return Err(ShardError::DuplicateService {
                server: s.server,
                fqcn: s.fqcn.clone(),
            });
        }
    }

    cells.sort_by(|a, b| {
        (a.record.server, a.record.client, a.record.fqcn.as_str()).cmp(&(
            b.record.server,
            b.record.client,
            b.record.fqcn.as_str(),
        ))
    });
    let mut results = CampaignResults {
        services,
        tests: cells.iter().map(|c| c.record.clone()).collect(),
    };
    canonical_sort(&mut results);
    Ok(MergedRun {
        results,
        cells,
        config_hash: config_hash.unwrap_or(0),
        shard_cells,
    })
}

/// Verifies the exactly-once contract over a merged run: every
/// deployed service has exactly `clients` test cells, and no cell
/// names a service nobody deployed. (Duplicate cells were already
/// refused during [`merge_shard_dir`].)
pub fn verify_exactly_once(merged: &MergedRun, clients: usize) -> Result<(), ShardError> {
    let mut per_service: BTreeMap<(ServerId, &str), usize> = BTreeMap::new();
    for t in &merged.results.tests {
        *per_service.entry((t.server, t.fqcn.as_str())).or_insert(0) += 1;
    }
    for s in &merged.results.services {
        if !s.deployed {
            continue;
        }
        let cells = per_service.remove(&(s.server, s.fqcn.as_str())).unwrap_or(0);
        if cells != clients {
            return Err(ShardError::IncompleteService {
                server: s.server,
                fqcn: s.fqcn.clone(),
                cells,
                expected: clients,
            });
        }
    }
    if let Some(((server, fqcn), _)) = per_service.into_iter().next() {
        return Err(ShardError::StrayCells {
            server,
            fqcn: fqcn.to_string(),
        });
    }
    Ok(())
}

/// Writes the canonical merged journal: a fresh journal at `path`
/// pinned to `config_hash`, with `cells` appended in the (already
/// canonical) order given. Byte-stable for a given cell sequence.
pub fn write_merged_journal(
    path: &Path,
    config_hash: u64,
    cells: &[JournalCell],
) -> Result<(), JournalError> {
    let writer = JournalWriter::create(path, config_hash, None)?;
    let mut batch = JournalBatch::new();
    for cell in cells {
        batch.push_cell(cell);
    }
    writer.append_batch(&mut batch);
    if let Some(e) = writer.take_error() {
        return Err(JournalError::Io(e));
    }
    Ok(())
}

/// Reads and merges the `count` per-shard metrics snapshots in `dir`
/// (summed counters — including one `obs_events_dropped` total — and
/// bin-wise histogram merges).
pub fn merge_metrics_files(dir: &Path, count: usize) -> Result<MetricsSnapshot, ShardError> {
    let mut merged = MetricsSnapshot::default();
    for k in 0..count {
        let spec = ShardSpec::new(k, count);
        let json = fs::read_to_string(spec.metrics_file(dir))
            .map_err(|_| ShardError::BadMetrics(k))?;
        let snapshot =
            MetricsSnapshot::parse_json(json.trim_end()).ok_or(ShardError::BadMetrics(k))?;
        merged.merge(&snapshot);
    }
    Ok(merged)
}

/// Concatenates per-shard trace streams into one seq-stable stream:
/// events keep shard-file order, seq numbers are reassigned
/// monotonically from 0. Missing shard files are skipped (a shard
/// only writes a trace when tracing is enabled). Returns the number
/// of events written.
pub fn merge_trace_files(inputs: &[PathBuf], out: &Path) -> std::io::Result<u64> {
    let mut file = File::create(out)?;
    let mut seq = 0u64;
    for input in inputs {
        let reader = match File::open(input) {
            Ok(f) => BufReader::new(f),
            Err(_) => continue,
        };
        for line in reader.lines() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let Some(mut event) = TraceEvent::from_json_line(&line) else {
                continue;
            };
            event.seq = seq;
            seq += 1;
            writeln!(file, "{}", event.to_json_line())?;
        }
    }
    file.sync_all()?;
    Ok(seq)
}

// --- supervision ----------------------------------------------------

/// Supervision knobs; the defaults match the CLI defaults documented
/// in DESIGN.md §12.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Respawns allowed *per worker* beyond its first spawn before the
    /// supervisor gives up on that shard.
    pub max_respawns: usize,
    /// A worker whose journal has not grown for this long is declared
    /// hung, killed and treated as crashed.
    pub heartbeat: Duration,
    /// Base respawn backoff; respawn `r` of a worker waits
    /// `base << (r - 1)`, capped at [`SupervisorConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on the exponential respawn backoff.
    pub backoff_cap: Duration,
    /// Supervision poll interval (exit status + journal size checks).
    pub poll: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_respawns: 3,
            heartbeat: Duration::from_secs(30),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            poll: Duration::from_millis(20),
        }
    }
}

/// What a supervision run did, for the `shards:` accounting line and
/// BENCH_campaign.json.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisionOutcome {
    /// Workers respawned after a crash or detected hang.
    pub respawns: usize,
    /// Crashes that were detected as hangs (heartbeat expiry), a
    /// subset of the events counted by `respawns` + `gave_up`.
    pub hung_workers: usize,
    /// Journal cells already safe at the moment of each respawn — work
    /// the replacement worker replays instead of re-executing.
    pub reclaimed_cells: usize,
    /// Distinct partition chunks those reclaimed cells span (requires
    /// a chunk index, see [`Supervisor::with_chunk_index`]).
    pub chunks_reclaimed: usize,
    /// Shards whose respawn budget ran out, in shard order. Empty on
    /// a fully successful run.
    pub gave_up: Vec<usize>,
    /// Total spawns per shard (1 = never respawned), in shard order.
    pub worker_attempts: Vec<usize>,
}

impl SupervisionOutcome {
    /// Every shard eventually completed.
    pub fn all_completed(&self) -> bool {
        self.gave_up.is_empty()
    }

    /// At least one worker died and was successfully recovered.
    pub fn recovered(&self) -> bool {
        self.respawns > 0
    }
}

/// Maps a journaled cell's `(server, fqcn)` back to its strided entry
/// index, for the re-claimed-chunk accounting.
type ChunkIndexFn<'a> = Box<dyn Fn(ServerId, &str) -> Option<usize> + 'a>;

/// Per-worker supervision state.
struct WorkerState {
    spec: ShardSpec,
    child: Option<Child>,
    /// Spawns so far (first spawn included).
    attempts: usize,
    done: bool,
    gave_up: bool,
    next_spawn: Instant,
    last_journal_len: u64,
    last_progress: Instant,
}

/// The supervising parent: spawns one worker process per shard,
/// detects crashes and hangs, respawns with capped exponential
/// backoff, and accounts what the respawns re-claimed.
///
/// The supervisor is command-agnostic: the spawner callback builds the
/// [`Command`] for a given shard and attempt number, so tests can
/// supervise anything from the real `wsitool` binary to a script that
/// always dies. Worker stdio is redirected to the shard's log file;
/// the pid of every live worker is published in its pid file so chaos
/// tests can `kill -9` real processes.
pub struct Supervisor<'a> {
    dir: PathBuf,
    count: usize,
    config: SupervisorConfig,
    spawn: Box<dyn Fn(ShardSpec, usize) -> Command + 'a>,
    chunk_index: Option<ChunkIndexFn<'a>>,
}

impl<'a> Supervisor<'a> {
    /// A supervisor over `count` shards working in `dir`, spawning
    /// workers via `spawn(shard, attempt)` (attempt 0 is the first
    /// spawn — fault-injection flags usually apply only there).
    pub fn new(
        dir: impl Into<PathBuf>,
        count: usize,
        spawn: impl Fn(ShardSpec, usize) -> Command + 'a,
    ) -> Supervisor<'a> {
        assert!(count > 0, "shard count must be positive");
        Supervisor {
            dir: dir.into(),
            count,
            config: SupervisorConfig::default(),
            spawn: Box::new(spawn),
            chunk_index: None,
        }
    }

    /// Overrides the supervision knobs.
    #[must_use]
    pub fn with_config(mut self, config: SupervisorConfig) -> Supervisor<'a> {
        self.config = config;
        self
    }

    /// Attaches a chunk index — maps a journaled cell's
    /// `(server, fqcn)` to its strided entry index — enabling the
    /// `chunks_reclaimed` accounting.
    #[must_use]
    pub fn with_chunk_index(
        mut self,
        index: impl Fn(ServerId, &str) -> Option<usize> + 'a,
    ) -> Supervisor<'a> {
        self.chunk_index = Some(Box::new(index));
        self
    }

    /// Runs all workers to completion (or to their respawn budgets)
    /// and returns the accounting. I/O errors in the supervision
    /// machinery itself (spawn failure, unpollable child) abort the
    /// run after killing every live worker.
    pub fn run(&self) -> std::io::Result<SupervisionOutcome> {
        fs::create_dir_all(&self.dir)?;
        let now = Instant::now();
        let mut states: Vec<WorkerState> = (0..self.count)
            .map(|k| WorkerState {
                spec: ShardSpec::new(k, self.count),
                child: None,
                attempts: 0,
                done: false,
                gave_up: false,
                next_spawn: now,
                last_journal_len: 0,
                last_progress: now,
            })
            .collect();
        let result = self.drive(&mut states);
        if result.is_err() {
            for state in &mut states {
                if let Some(child) = &mut state.child {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        result
    }

    fn drive(&self, states: &mut [WorkerState]) -> std::io::Result<SupervisionOutcome> {
        let mut outcome = SupervisionOutcome::default();
        loop {
            let mut all_settled = true;
            for state in states.iter_mut() {
                if state.done || state.gave_up {
                    continue;
                }
                all_settled = false;
                match &mut state.child {
                    None => {
                        if Instant::now() >= state.next_spawn {
                            self.spawn_worker(state)?;
                        }
                    }
                    Some(child) => match child.try_wait()? {
                        Some(status) if status.success() => {
                            state.done = true;
                            state.child = None;
                            let _ = fs::remove_file(state.spec.pid_file(&self.dir));
                        }
                        Some(_) => {
                            // Crash: nonzero exit or a signal (SIGKILL
                            // reports no exit code at all).
                            state.child = None;
                            self.note_crash(state, &mut outcome);
                        }
                        None => {
                            let len = fs::metadata(state.spec.journal_file(&self.dir))
                                .map(|m| m.len())
                                .unwrap_or(0);
                            if len != state.last_journal_len {
                                state.last_journal_len = len;
                                state.last_progress = Instant::now();
                            } else if state.last_progress.elapsed() >= self.config.heartbeat {
                                // Hang: alive but the journal stopped
                                // growing. Kill and treat as a crash.
                                let _ = child.kill();
                                let _ = child.wait();
                                state.child = None;
                                outcome.hung_workers += 1;
                                self.note_crash(state, &mut outcome);
                            }
                        }
                    },
                }
            }
            if all_settled {
                break;
            }
            std::thread::sleep(self.config.poll);
        }
        outcome.gave_up = states
            .iter()
            .filter(|s| s.gave_up)
            .map(|s| s.spec.index)
            .collect();
        outcome.worker_attempts = states.iter().map(|s| s.attempts).collect();
        Ok(outcome)
    }

    fn spawn_worker(&self, state: &mut WorkerState) -> std::io::Result<()> {
        let mut cmd = (self.spawn)(state.spec, state.attempts);
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(state.spec.log_file(&self.dir))?;
        cmd.stdout(Stdio::from(log.try_clone()?))
            .stderr(Stdio::from(log))
            .stdin(Stdio::null());
        let child = cmd.spawn()?;
        fs::write(state.spec.pid_file(&self.dir), child.id().to_string())?;
        state.attempts += 1;
        state.last_journal_len = fs::metadata(state.spec.journal_file(&self.dir))
            .map(|m| m.len())
            .unwrap_or(0);
        state.last_progress = Instant::now();
        state.child = Some(child);
        Ok(())
    }

    /// A worker died without finishing: either schedule a respawn
    /// (with backoff, accounting what its journal already holds) or
    /// exhaust its budget.
    fn note_crash(&self, state: &mut WorkerState, outcome: &mut SupervisionOutcome) {
        if state.attempts > self.config.max_respawns {
            state.gave_up = true;
            return;
        }
        outcome.respawns += 1;
        if let Ok(read) = read_journal(&state.spec.journal_file(&self.dir)) {
            outcome.reclaimed_cells += read.cells.len();
            if let Some(chunk_index) = &self.chunk_index {
                let chunks: BTreeSet<(ServerId, usize)> = read
                    .cells
                    .iter()
                    .filter_map(|cell| {
                        chunk_index(cell.record.server, &cell.record.fqcn)
                            .map(|idx| (cell.record.server, ShardSpec::chunk_of(idx)))
                    })
                    .collect();
                outcome.chunks_reclaimed += chunks.len();
            }
        }
        let respawn_number = state.attempts as u32; // 1 for the first respawn
        let backoff = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (respawn_number - 1).min(16))
            .min(self.config.backoff_cap);
        state.next_spawn = Instant::now() + backoff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parse_and_display() {
        let spec = ShardSpec::parse("1/3").unwrap();
        assert_eq!(spec, ShardSpec::new(1, 3));
        assert_eq!(spec.to_string(), "1/3");
        assert!(ShardSpec::parse("3/3").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("1-3").is_err());
        assert!(ShardSpec::parse("x/3").is_err());
    }

    #[test]
    fn ownership_is_chunked_round_robin() {
        let spec = ShardSpec::new(1, 3);
        assert!(!spec.owns(0)); // chunk 0 → shard 0
        assert!(spec.owns(ENTRIES_PER_CHUNK)); // chunk 1 → shard 1
        assert!(!spec.owns(2 * ENTRIES_PER_CHUNK)); // chunk 2 → shard 2
        assert!(spec.owns(4 * ENTRIES_PER_CHUNK)); // chunk 4 → shard 1
        let one = ShardSpec::new(0, 1);
        assert!((0..1000).all(|j| one.owns(j)));
    }

    #[test]
    fn services_tsv_round_trips() {
        let results = CampaignResults {
            services: vec![
                ServiceRecord {
                    server: ServerId::Metro,
                    fqcn: "a.B".into(),
                    deployed: true,
                    wsi_conformant: Some(false),
                    description_warning: true,
                },
                ServiceRecord {
                    server: ServerId::WcfDotNet,
                    fqcn: "c.D".into(),
                    deployed: false,
                    wsi_conformant: None,
                    description_warning: false,
                },
            ],
            tests: Vec::new(),
        };
        let tsv = crate::export::services_tsv(&results);
        assert_eq!(parse_services_tsv(&tsv).unwrap(), results.services);
        assert!(parse_services_tsv("nonsense").is_err());
        assert!(parse_services_tsv(&tsv.replace("true", "yes")).is_err());
    }
}
