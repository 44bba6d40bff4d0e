//! Deterministic fault injection and campaign resilience.
//!
//! The paper's methodology only works because the campaign *classifies*
//! disruptive behaviour instead of dying on it: every one of the
//! 79 629 tests must end in a Success/Warning/Error verdict even when a
//! subsystem misbehaves. This module turns that contract into an
//! executable experiment (E12, the chaos campaign):
//!
//! * [`FaultPlan`] — a seeded, deterministic plan deciding, per
//!   campaign *site* (a deploy, a test cell, a wire exchange), which
//!   [`FaultKind`] to inject. Decisions are pure functions of
//!   `(seed, kind, site)`, so the same seed produces the same faults
//!   regardless of stride order or worker-thread count.
//! * [`ResilienceConfig`] — the runner's coping budget: bounded
//!   retries with a deterministic backoff schedule for transient
//!   faults, a per-step deadline, and `catch_unwind` panic isolation.
//! * [`FaultReport`] — the accounting: per kind, how many faults were
//!   injected, how many were *detected* (surfaced as a Warning/Error
//!   classification or a refused deployment), and how many were
//!   *masked* (absorbed by retries or harmless to the pipeline), plus
//!   retries spent, virtual backoff, and deadline hits.
//!
//! Time is **virtual**: slow-step faults carry a deterministic
//! simulated duration that is compared against the deadline budget
//! without real sleeping, so chaos campaigns stay fast and their
//! reports bit-reproducible.
//!
//! The *injected* faults modelled here are deliberately distinct from
//! the *modeled* faults of the framework simulations (DESIGN.md §4):
//! modeled faults are the paper's measured platform defects and are
//! always on; injected faults are synthetic disruptions layered on top:
//! server-side ones by wrapping the deploy step in the
//! [`wsinterop_frameworks::fault`] decorator, client-side ones by the
//! campaign around its own generation call.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::sync::lock_unpoisoned;
use wsinterop_frameworks::client::ClientId;
use wsinterop_frameworks::fault::{ServerFaultHook, TRANSIENT_REFUSAL_PREFIX};
use wsinterop_frameworks::server::{DeployOutcome, ServerId, ServerSubsystem};
use wsinterop_typecat::rng::{splitmix64, GOLDEN_GAMMA};
use wsinterop_typecat::TypeEntry;

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Truncate the published WSDL bytes after deployment.
    WsdlTruncation,
    /// Corrupt the published WSDL bytes after deployment (sometimes
    /// malforming the document, sometimes a benign whitespace tweak —
    /// the latter population is what the *masked* column measures).
    WsdlCorruption,
    /// Refuse the first deploy attempt(s) with a retryable I/O-style
    /// error; the resilient runner's retry budget may absorb it.
    TransientDeployRefusal,
    /// Panic inside the client artifact-generation tool.
    ClientGenPanic,
    /// A slow or hanging step, modelled as a deterministic virtual
    /// duration checked against the per-step deadline budget.
    SlowStep,
    /// Wire fault: truncate the request envelope mid-document.
    WireTruncateEnvelope,
    /// Wire fault: rewrite the SOAP envelope namespace.
    WireWrongNamespace,
    /// Wire fault: drop the response on the floor.
    WireDropResponse,
    /// Socket fault: hold the response past the client's read deadline
    /// (applied by the loopback fault proxy, [`crate::wire`]).
    SockDelay,
    /// Socket fault: truncate the response body at byte N and close.
    SockTruncateBody,
    /// Socket fault: reset (RST) the connection mid-body.
    SockReset,
    /// Socket fault: replace the status line with garbage framing.
    SockGarbageStatus,
}

impl FaultKind {
    /// Every kind, in report order.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::WsdlTruncation,
        FaultKind::WsdlCorruption,
        FaultKind::TransientDeployRefusal,
        FaultKind::ClientGenPanic,
        FaultKind::SlowStep,
        FaultKind::WireTruncateEnvelope,
        FaultKind::WireWrongNamespace,
        FaultKind::WireDropResponse,
        FaultKind::SockDelay,
        FaultKind::SockTruncateBody,
        FaultKind::SockReset,
        FaultKind::SockGarbageStatus,
    ];

    fn index(self) -> usize {
        // Exhaustive match instead of a positional lookup: adding a
        // kind without slotting it here (and in `ALL`) fails to
        // compile, and no `.unwrap()` can ever fire.
        match self {
            FaultKind::WsdlTruncation => 0,
            FaultKind::WsdlCorruption => 1,
            FaultKind::TransientDeployRefusal => 2,
            FaultKind::ClientGenPanic => 3,
            FaultKind::SlowStep => 4,
            FaultKind::WireTruncateEnvelope => 5,
            FaultKind::WireWrongNamespace => 6,
            FaultKind::WireDropResponse => 7,
            FaultKind::SockDelay => 8,
            FaultKind::SockTruncateBody => 9,
            FaultKind::SockReset => 10,
            FaultKind::SockGarbageStatus => 11,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::WsdlTruncation => "wsdl-truncation",
            FaultKind::WsdlCorruption => "wsdl-corruption",
            FaultKind::TransientDeployRefusal => "transient-deploy-refusal",
            FaultKind::ClientGenPanic => "client-gen-panic",
            FaultKind::SlowStep => "slow-step",
            FaultKind::WireTruncateEnvelope => "wire-truncate-envelope",
            FaultKind::WireWrongNamespace => "wire-wrong-namespace",
            FaultKind::WireDropResponse => "wire-drop-response",
            FaultKind::SockDelay => "sock-delay",
            FaultKind::SockTruncateBody => "sock-truncate-body",
            FaultKind::SockReset => "sock-reset",
            FaultKind::SockGarbageStatus => "sock-garbage-status",
        })
    }
}

/// A wire-level fault for the Communication/Execution (E9) step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Truncate the request envelope.
    TruncateEnvelope,
    /// Rewrite the SOAP envelope namespace of the request.
    WrongNamespace,
    /// Drop the response.
    DropResponse,
}

impl WireFault {
    /// The [`FaultKind`] this wire fault is accounted under.
    pub fn kind(self) -> FaultKind {
        match self {
            WireFault::TruncateEnvelope => FaultKind::WireTruncateEnvelope,
            WireFault::WrongNamespace => FaultKind::WireWrongNamespace,
            WireFault::DropResponse => FaultKind::WireDropResponse,
        }
    }
}

/// A socket-level fault for the loopback TCP transport, applied to the
/// real wire bytes by the interposed fault proxy
/// ([`crate::wire::FaultProxy`]) — damage the string-level
/// [`WireFault`]s cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// Hold the response for `ms` real milliseconds — past the probe
    /// client's read deadline, so the client observes a timeout.
    DelayPastDeadline {
        /// Real delay in milliseconds (sized above the client's
        /// deadline by the plan).
        ms: u64,
    },
    /// Forward only the first `at` bytes of the response, then close
    /// the connection cleanly (a short read).
    TruncateBody {
        /// Byte offset to cut at (clamped to the response length).
        at: usize,
    },
    /// Abort the connection mid-body so the peer sees a TCP RST.
    ResetMidBody,
    /// Replace the HTTP status line with garbage framing.
    GarbageStatus,
}

impl SocketFault {
    /// The [`FaultKind`] this socket fault is accounted under.
    pub fn kind(self) -> FaultKind {
        match self {
            SocketFault::DelayPastDeadline { .. } => FaultKind::SockDelay,
            SocketFault::TruncateBody { .. } => FaultKind::SockTruncateBody,
            SocketFault::ResetMidBody => FaultKind::SockReset,
            SocketFault::GarbageStatus => FaultKind::SockGarbageStatus,
        }
    }
}

/// Site key for a Service Description Generation step.
pub fn deploy_site(server: ServerId, fqcn: &str) -> String {
    format!("deploy/{server:?}/{fqcn}")
}

/// Site key for one (server, client, service) test cell.
pub fn gen_site(server: ServerId, client: ClientId, fqcn: &str) -> String {
    format!("gen/{server:?}/{client:?}/{fqcn}")
}

/// Site key for one wire exchange.
pub fn wire_site(server: ServerId, fqcn: &str) -> String {
    format!("wire/{server:?}/{fqcn}")
}

/// Site key for the socket-level faults of one loopback exchange.
///
/// The grammar deliberately matches the loopback URL space: the fault
/// proxy rebuilds this key as `"sock" + path` from the request path
/// `/{server:?}/{fqcn}`, so proxy and campaign accounting agree
/// without sharing state.
pub fn sock_site(server: ServerId, fqcn: &str) -> String {
    format!("sock/{server:?}/{fqcn}")
}

/// Site key for one fuzzed (server, service) exchange unit.
///
/// The fuzz driver arms payload-property triggers from this key:
/// [`FaultPlan::decide`] with [`FaultKind::ClientGenPanic`] arms an
/// injected crash and [`FaultPlan::slow_virtual_ms`] arms a virtual
/// hang, both gated on a property of the *generated payload* so the
/// failure is a pure function of the input — and therefore shrinkable.
pub fn fuzz_site(server: ServerId, fqcn: &str) -> String {
    format!("fuzz/{server:?}/{fqcn}")
}

/// A seeded, deterministic fault plan.
///
/// Decisions are pure functions of `(seed, kind, site)`; the plan
/// carries no mutable state and can be shared across runs — two runs
/// under the same plan inject exactly the same faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Injection rate per kind, in permille of sites.
    rates: [u32; FaultKind::ALL.len()],
    /// Sites where a kind is unconditionally injected.
    forced: BTreeSet<(FaultKind, String)>,
}

impl FaultPlan {
    /// A plan with the standard chaos-campaign rates (roughly 1–3 % of
    /// sites per kind).
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::silent(seed);
        plan.rates[FaultKind::WsdlTruncation.index()] = 12;
        plan.rates[FaultKind::WsdlCorruption.index()] = 15;
        plan.rates[FaultKind::TransientDeployRefusal.index()] = 20;
        plan.rates[FaultKind::ClientGenPanic.index()] = 6;
        plan.rates[FaultKind::SlowStep.index()] = 10;
        plan.rates[FaultKind::WireTruncateEnvelope.index()] = 25;
        plan.rates[FaultKind::WireWrongNamespace.index()] = 25;
        plan.rates[FaultKind::WireDropResponse.index()] = 25;
        // Socket faults only fire over the TCP transport; the delay
        // fault costs real wall-clock time per hit, so its rate is the
        // lowest of the family.
        plan.rates[FaultKind::SockDelay.index()] = 8;
        plan.rates[FaultKind::SockTruncateBody.index()] = 15;
        plan.rates[FaultKind::SockReset.index()] = 15;
        plan.rates[FaultKind::SockGarbageStatus.index()] = 15;
        plan
    }

    /// A plan that injects nothing unless told to — the base for
    /// targeted plans built with [`FaultPlan::with_rate`] and
    /// [`FaultPlan::force_at`].
    pub fn silent(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0; FaultKind::ALL.len()],
            forced: BTreeSet::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A canonical fingerprint of the whole plan (seed, rates, forced
    /// sites) — folded into the campaign config hash so a journal can
    /// never be resumed under a different fault plan.
    pub fn fingerprint(&self) -> String {
        format!(
            "seed:{};rates:{:?};forced:{:?}",
            self.seed, self.rates, self.forced
        )
    }

    /// Overrides the injection rate (permille of sites) for one kind.
    #[must_use]
    pub fn with_rate(mut self, kind: FaultKind, per_mille: u32) -> FaultPlan {
        self.rates[kind.index()] = per_mille.min(1000);
        self
    }

    /// Unconditionally injects `kind` at one site (see [`deploy_site`],
    /// [`gen_site`], [`wire_site`] for the key grammar).
    #[must_use]
    pub fn force_at(mut self, kind: FaultKind, site: impl Into<String>) -> FaultPlan {
        self.forced.insert((kind, site.into()));
        self
    }

    /// Number of kinds with a non-zero chance of injection.
    pub fn active_kinds(&self) -> usize {
        let forced: BTreeSet<FaultKind> = self.forced.iter().map(|(k, _)| *k).collect();
        FaultKind::ALL
            .iter()
            .filter(|k| self.rates[k.index()] > 0 || forced.contains(k))
            .count()
    }

    fn hash(&self, kind: FaultKind, site: &str) -> u64 {
        // FNV-1a over the site with a seed-keyed offset basis (so not
        // the shared `fnv1a`), mixed with the kind, then the splitmix64
        // finalizer. Stable across platforms and releases.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in site.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        splitmix64(h ^ (kind.index() as u64 + 1).wrapping_mul(GOLDEN_GAMMA))
    }

    /// Whether `kind` is injected at `site`.
    pub fn decide(&self, kind: FaultKind, site: &str) -> bool {
        if self.forced.contains(&(kind, site.to_string())) {
            return true;
        }
        let rate = self.rates[kind.index()];
        rate > 0 && self.hash(kind, site) % 1000 < u64::from(rate)
    }

    /// How many initial deploy attempts a transient refusal eats at
    /// `site` (1–3; values above the retry budget become permanent).
    pub fn transient_failures(&self, site: &str) -> u32 {
        1 + (self.hash(FaultKind::TransientDeployRefusal, site) >> 16) as u32 % 3
    }

    /// Virtual duration of a slow step at `site`, when injected.
    pub fn slow_virtual_ms(&self, site: &str) -> Option<u64> {
        if !self.decide(FaultKind::SlowStep, site) {
            return None;
        }
        Some(10 + (self.hash(FaultKind::SlowStep, site) >> 16) % 190)
    }

    /// The wire fault (if any) injected at `site`, first match in
    /// truncate → namespace → drop order.
    pub fn wire_fault(&self, site: &str) -> Option<WireFault> {
        if self.decide(FaultKind::WireTruncateEnvelope, site) {
            Some(WireFault::TruncateEnvelope)
        } else if self.decide(FaultKind::WireWrongNamespace, site) {
            Some(WireFault::WrongNamespace)
        } else if self.decide(FaultKind::WireDropResponse, site) {
            Some(WireFault::DropResponse)
        } else {
            None
        }
    }

    /// The socket fault (if any) injected at `site` by the loopback
    /// fault proxy, first match in delay → truncate → reset → garbage
    /// order. `deadline_ms` is the probe client's read deadline; the
    /// planned delay always overshoots it so an injected delay is
    /// always observable.
    pub fn socket_fault(&self, site: &str, deadline_ms: u64) -> Option<SocketFault> {
        if self.decide(FaultKind::SockDelay, site) {
            let extra = (self.hash(FaultKind::SockDelay, site) >> 16) % 100;
            return Some(SocketFault::DelayPastDeadline {
                ms: deadline_ms + 50 + extra,
            });
        }
        if self.decide(FaultKind::SockTruncateBody, site) {
            // Cut inside the headers or early body; the exact offset is
            // clamped to the message by the proxy.
            let at = 20 + (self.hash(FaultKind::SockTruncateBody, site) >> 16) as usize % 180;
            return Some(SocketFault::TruncateBody { at });
        }
        if self.decide(FaultKind::SockReset, site) {
            return Some(SocketFault::ResetMidBody);
        }
        if self.decide(FaultKind::SockGarbageStatus, site) {
            return Some(SocketFault::GarbageStatus);
        }
        None
    }

    /// Deterministic retry jitter in milliseconds for `attempt` at
    /// `site` — the seeded RNG the resilient HTTP client mixes into its
    /// exponential backoff, so `-j1` and `-j8` runs retry (and
    /// therefore classify) identically.
    pub fn retry_jitter_ms(&self, site: &str, attempt: u32, cap_ms: u64) -> u64 {
        if cap_ms == 0 {
            return 0;
        }
        let h = self
            .hash(FaultKind::SockDelay, site)
            .rotate_left(attempt % 64)
            .wrapping_mul(0x2545_f491_4f6c_dd1d);
        h % cap_ms
    }

    /// Applies the WSDL damage planned for `site` (if any), returning
    /// the damaged document and the kind injected.
    pub fn damage_wsdl(&self, site: &str, wsdl_xml: &str) -> Option<(String, FaultKind)> {
        if self.decide(FaultKind::WsdlTruncation, site) {
            let percent = 30 + (self.hash(FaultKind::WsdlTruncation, site) >> 16) % 51;
            let cut = (wsdl_xml.len() as u64 * percent / 100) as usize;
            let cut = floor_char_boundary(wsdl_xml, cut);
            return Some((wsdl_xml[..cut].to_string(), FaultKind::WsdlTruncation));
        }
        if self.decide(FaultKind::WsdlCorruption, site) {
            let h = self.hash(FaultKind::WsdlCorruption, site);
            let damaged = if h & (1 << 9) == 0 {
                // Malforming corruption: splice an unclosed element at a
                // deterministic position.
                let at = floor_char_boundary(wsdl_xml, (h >> 16) as usize % wsdl_xml.len().max(1));
                format!(
                    "{}<injected-fault>{}",
                    &wsdl_xml[..at],
                    &wsdl_xml[at..]
                )
            } else {
                // Benign corruption: inter-element whitespace only. The
                // document still parses identically — this is the
                // population the `masked` column measures.
                wsdl_xml.replacen("><", ">\n<", 1)
            };
            return Some((damaged, FaultKind::WsdlCorruption));
        }
        None
    }
}

fn floor_char_boundary(s: &str, mut at: usize) -> usize {
    at = at.min(s.len());
    while at > 0 && !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// The runner's coping budget for injected (and real) disruptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Retry budget for transient deploy refusals.
    pub max_retries: u32,
    /// Deterministic backoff schedule (virtual milliseconds per retry;
    /// the last entry repeats). Recorded in the report, never slept.
    pub backoff_ms: Vec<u64>,
    /// Per-step deadline budget in virtual milliseconds; a slow-step
    /// fault exceeding it is classified as an Error.
    pub step_deadline_ms: u64,
    /// Isolate each test with `catch_unwind` so a panicking worker
    /// becomes one Error-classified record instead of a dead campaign.
    pub isolate_panics: bool,
    /// Per-cell watchdog budget in virtual milliseconds. A whole test
    /// cell whose virtual duration exceeds this is killed by the
    /// watchdog and classified as a disruptive Error — the cell-level
    /// extension of `step_deadline_ms`.
    pub cell_budget_ms: u64,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_retries: 2,
            backoff_ms: vec![1, 2, 4],
            step_deadline_ms: 50,
            isolate_panics: true,
            cell_budget_ms: 150,
        }
    }
}

impl ResilienceConfig {
    /// Backoff for the `n`-th retry (0-based; the schedule's last
    /// entry repeats).
    pub fn backoff_for(&self, retry: u32) -> u64 {
        match self.backoff_ms.as_slice() {
            [] => 0,
            s => s[(retry as usize).min(s.len() - 1)],
        }
    }
}

/// Per-client circuit breaker tuning.
///
/// The breaker watches each client subsystem's stream of cells: after
/// `threshold` *consecutive disruptive* errors (isolated panics, blown
/// cell budgets, compiler crashes — see
/// [`wsinterop_frameworks::client::classify_error`]) it opens and
/// skips that client's next `cooldown_cells` cells (each recorded as a
/// breaker-skipped Error), then half-opens: one probe cell runs for
/// real, and a single disruptive outcome re-trips the breaker while a
/// clean one closes it.
///
/// Decisions depend only on each client's cell stream in campaign
/// order, never on wall-clock time or worker interleaving, so the
/// breaker-skipped cell set is identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive disruptive errors from one client that trip it.
    pub threshold: u32,
    /// Cells skipped while open, before half-opening.
    pub cooldown_cells: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            threshold: 5,
            cooldown_cells: 25,
        }
    }
}

impl BreakerConfig {
    /// A breaker with both knobs clamped to at least 1 (a zero
    /// threshold would trip on nothing; a zero cooldown would never
    /// actually skip).
    pub fn new(threshold: u32, cooldown_cells: u32) -> BreakerConfig {
        BreakerConfig {
            threshold: threshold.max(1),
            cooldown_cells: cooldown_cells.max(1),
        }
    }
}

/// One client's breaker state, advanced cell by cell in campaign
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerState {
    consecutive: u32,
    cooldown_left: u32,
    half_open: bool,
}

impl BreakerState {
    /// A fresh, closed breaker.
    pub fn new() -> BreakerState {
        BreakerState::default()
    }

    /// Whether the breaker is open for the next cell. Consumes one
    /// cooldown cell when it is; the cell after the last cooldown cell
    /// runs half-open.
    pub fn should_skip(&mut self) -> bool {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            if self.cooldown_left == 0 {
                self.half_open = true;
            }
            true
        } else {
            false
        }
    }

    /// Feeds one executed cell's verdict into the breaker. Returns
    /// `true` when this observation trips it (including a half-open
    /// probe failing).
    pub fn observe(&mut self, cfg: BreakerConfig, disruptive: bool) -> bool {
        if disruptive {
            self.consecutive += 1;
            if self.half_open || self.consecutive >= cfg.threshold {
                self.consecutive = 0;
                self.half_open = false;
                self.cooldown_left = cfg.cooldown_cells;
                return true;
            }
        } else {
            self.consecutive = 0;
            self.half_open = false;
        }
        false
    }
}

/// Registry instrument names for the fault accounting. The labeled
/// per-kind counters append `{kind="<display name>"}`.
const M_INJECTED: &str = "faults_injected_total";
const M_DETECTED: &str = "faults_detected_total";
const M_MASKED: &str = "faults_masked_total";
const M_RETRIES: &str = "faults_retries_total";
const M_BACKOFF_MS: &str = "faults_backoff_virtual_ms_total";
const M_DEADLINE_HITS: &str = "faults_deadline_hits_total";
const M_PANICS: &str = "faults_panics_isolated_total";
const M_WATCHDOG: &str = "faults_watchdog_cells_total";
const M_BREAKER_TRIPS: &str = "faults_breaker_trips_total";

fn kind_counter(base: &str, kind: FaultKind) -> String {
    format!("{base}{{kind=\"{kind}\"}}")
}

/// Thread-safe fault accounting for one campaign run.
///
/// The counts live in a [`MetricsRegistry`] (`faults_*` instruments):
/// an uninstrumented log owns a private registry, an instrumented
/// campaign shares its observer's — so [`FaultLog::report`] and
/// `wsitool metrics` read the same numbers. The registry is
/// observe-only; the resolution state (which kinds hit which sites)
/// stays in the site maps below.
#[derive(Debug, Default)]
pub struct FaultLog {
    metrics: Arc<crate::obs::MetricsRegistry>,
    /// Injected kinds per site, pending resolution into
    /// detected/masked.
    sites: Mutex<BTreeMap<String, Vec<FaultKind>>>,
    /// Sites whose cell was skipped by an open circuit breaker.
    breaker_skipped: Mutex<BTreeSet<String>>,
}

impl FaultLog {
    /// A fresh, empty log with a private metrics registry.
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    /// A fresh log publishing its accounting into `metrics`.
    pub fn with_registry(metrics: Arc<crate::obs::MetricsRegistry>) -> FaultLog {
        FaultLog {
            metrics,
            ..FaultLog::default()
        }
    }

    /// Records an injection of `kind` at `site` (idempotent per
    /// `(site, kind)` — retries re-observe the same fault).
    pub fn injected(&self, kind: FaultKind, site: &str) {
        // lock-order: L2 (fault-log site map) — held across the L0
        // counter bump so `(site, kind)` idempotence stays atomic.
        let mut sites = lock_unpoisoned(&self.sites);
        let kinds = sites.entry(site.to_string()).or_default();
        if !kinds.contains(&kind) {
            kinds.push(kind);
            self.metrics.inc(&kind_counter(M_INJECTED, kind));
        }
    }

    /// Records one retry and its virtual backoff.
    pub fn retried(&self, backoff_ms: u64) {
        self.metrics.inc(M_RETRIES);
        self.metrics.add(M_BACKOFF_MS, backoff_ms);
    }

    /// Records a step exceeding its deadline budget.
    pub fn deadline_hit(&self) {
        self.metrics.inc(M_DEADLINE_HITS);
    }

    /// Records one isolated panic.
    pub fn panic_isolated(&self) {
        self.metrics.inc(M_PANICS);
    }

    /// Records one cell killed by the per-cell watchdog.
    pub fn watchdog_cell(&self) {
        self.metrics.inc(M_WATCHDOG);
    }

    /// Records one circuit-breaker trip.
    pub fn breaker_tripped(&self) {
        self.metrics.inc(M_BREAKER_TRIPS);
    }

    /// Records one cell skipped by an open breaker (idempotent per
    /// site, so journal replay cannot double-count).
    pub fn breaker_skip(&self, site: &str) {
        // lock-order: L2 (fault-log site map) — leaf.
        lock_unpoisoned(&self.breaker_skipped).insert(site.to_string());
    }

    /// Resolves every fault injected at `site`: `detected` means the
    /// affected step surfaced a Warning/Error classification (or a
    /// refused deployment); otherwise the fault was masked.
    pub fn resolve(&self, site: &str, detected: bool) {
        // lock-order: L2 (fault-log site map) — released before the
        // L0 counter bumps.
        let kinds = lock_unpoisoned(&self.sites).get(site).cloned();
        let Some(kinds) = kinds else { return };
        let base = if detected { M_DETECTED } else { M_MASKED };
        for kind in kinds {
            self.metrics.inc(&kind_counter(base, kind));
        }
    }

    /// Whether any fault was injected at `site`.
    pub fn is_affected(&self, site: &str) -> bool {
        // lock-order: L2 (fault-log site map) — leaf.
        lock_unpoisoned(&self.sites).contains_key(site)
    }

    /// Snapshot of the accounting, read back from the registry (the
    /// same instruments `wsitool metrics` exports).
    pub fn report(&self) -> FaultReport {
        // lock-order: L2 (fault-log site maps) — taken one at a time
        // (never nested with each other), `sites` held across L0
        // registry reads so the snapshot is internally consistent.
        let breaker_skipped_sites = lock_unpoisoned(&self.breaker_skipped).clone();
        let sites = lock_unpoisoned(&self.sites);
        let counter = |name: &str| self.metrics.counter(name) as usize;
        FaultReport {
            per_kind: FaultKind::ALL
                .iter()
                .map(|&kind| {
                    (
                        kind,
                        FaultCounts {
                            injected: counter(&kind_counter(M_INJECTED, kind)),
                            detected: counter(&kind_counter(M_DETECTED, kind)),
                            masked: counter(&kind_counter(M_MASKED, kind)),
                        },
                    )
                })
                .collect(),
            retries_spent: counter(M_RETRIES),
            backoff_ms: self.metrics.counter(M_BACKOFF_MS),
            deadline_hits: counter(M_DEADLINE_HITS),
            panics_isolated: counter(M_PANICS),
            watchdog_cells: counter(M_WATCHDOG),
            breaker_trips: counter(M_BREAKER_TRIPS),
            breaker_skipped_sites,
            affected_sites: sites.keys().cloned().collect(),
        }
    }
}

/// Per-kind injection accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Faults the plan injected.
    pub injected: usize,
    /// Injected faults that surfaced as a Warning/Error classification
    /// or a refused deployment.
    pub detected: usize,
    /// Injected faults absorbed without a classification change
    /// (retry-recovered refusals, benign corruption, slow steps within
    /// budget).
    pub masked: usize,
}

/// The chaos campaign's accounting, rendered alongside Fig. 4 and
/// Table III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Per-kind counts, in [`FaultKind::ALL`] order.
    pub per_kind: Vec<(FaultKind, FaultCounts)>,
    /// Retries spent on transient faults.
    pub retries_spent: usize,
    /// Total virtual backoff charged for those retries.
    pub backoff_ms: u64,
    /// Steps whose virtual duration exceeded the deadline budget.
    pub deadline_hits: usize,
    /// Worker panics converted into Error-classified records.
    pub panics_isolated: usize,
    /// Cells whose virtual duration blew the per-cell watchdog budget.
    pub watchdog_cells: usize,
    /// Times a per-client circuit breaker tripped open.
    pub breaker_trips: usize,
    /// Sites whose cell an open breaker skipped instead of executing.
    pub breaker_skipped_sites: BTreeSet<String>,
    /// Every site at which a fault was injected.
    pub affected_sites: BTreeSet<String>,
}

impl FaultReport {
    /// Total injected faults.
    pub fn injected_total(&self) -> usize {
        self.per_kind.iter().map(|(_, c)| c.injected).sum()
    }

    /// Total detected faults.
    pub fn detected_total(&self) -> usize {
        self.per_kind.iter().map(|(_, c)| c.detected).sum()
    }

    /// Total masked faults.
    pub fn masked_total(&self) -> usize {
        self.per_kind.iter().map(|(_, c)| c.masked).sum()
    }

    /// Counts for one kind.
    pub fn counts(&self, kind: FaultKind) -> FaultCounts {
        self.per_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Number of distinct kinds actually injected.
    pub fn kinds_injected(&self) -> usize {
        self.per_kind.iter().filter(|(_, c)| c.injected > 0).count()
    }

    /// Whether a fault was injected at `site`.
    pub fn affects(&self, site: &str) -> bool {
        self.affected_sites.contains(site)
    }

    /// Fold another shard's report into this one: numeric accounting
    /// adds per kind, site sets union.
    ///
    /// Sound because a sharded campaign partitions the cells: each
    /// fault site is executed — and therefore accounted — by exactly
    /// one worker, so per-shard counts are disjoint contributions to
    /// the single-process totals. (The circuit breaker is the one
    /// instrument whose decisions span cells; campaigns reject
    /// breaker + shard for exactly that reason, so `breaker_trips`
    /// merges trivially as 0 + 0.)
    pub fn merge(&mut self, other: &FaultReport) {
        for (kind, counts) in &other.per_kind {
            match self.per_kind.iter_mut().find(|(k, _)| k == kind) {
                Some((_, mine)) => {
                    mine.injected += counts.injected;
                    mine.detected += counts.detected;
                    mine.masked += counts.masked;
                }
                None => self.per_kind.push((*kind, *counts)),
            }
        }
        self.retries_spent += other.retries_spent;
        self.backoff_ms += other.backoff_ms;
        self.deadline_hits += other.deadline_hits;
        self.panics_isolated += other.panics_isolated;
        self.watchdog_cells += other.watchdog_cells;
        self.breaker_trips += other.breaker_trips;
        self.breaker_skipped_sites
            .extend(other.breaker_skipped_sites.iter().cloned());
        self.affected_sites
            .extend(other.affected_sites.iter().cloned());
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fault report (injected / detected / masked)")?;
        writeln!(f, "  {:<26} {:>8} {:>8} {:>8}", "kind", "inj", "det", "mask")?;
        for (kind, counts) in &self.per_kind {
            if counts.injected == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<26} {:>8} {:>8} {:>8}",
                kind.to_string(),
                counts.injected,
                counts.detected,
                counts.masked
            )?;
        }
        writeln!(
            f,
            "  {:<26} {:>8} {:>8} {:>8}",
            "total",
            self.injected_total(),
            self.detected_total(),
            self.masked_total()
        )?;
        writeln!(
            f,
            "  retries spent: {} (virtual backoff {} ms); deadline hits: {}; panics isolated: {}",
            self.retries_spent, self.backoff_ms, self.deadline_hits, self.panics_isolated
        )?;
        writeln!(
            f,
            "  watchdog cell kills: {}; breaker trips: {} (skipped {} cells)",
            self.watchdog_cells,
            self.breaker_trips,
            self.breaker_skipped_sites.len()
        )?;
        writeln!(f, "  affected sites: {}", self.affected_sites.len())
    }
}

/// Plan-driven deploy hook: transient refusals first, then real
/// deployment, then WSDL damage on the published bytes.
pub struct PlanServerHook<'a> {
    plan: &'a FaultPlan,
    log: &'a FaultLog,
    resilience: &'a ResilienceConfig,
    server: ServerId,
    attempts: Mutex<BTreeMap<String, u32>>,
}

impl<'a> PlanServerHook<'a> {
    /// A hook injecting `plan`'s deploy-step faults for `server`.
    pub fn new(
        plan: &'a FaultPlan,
        log: &'a FaultLog,
        resilience: &'a ResilienceConfig,
        server: ServerId,
    ) -> PlanServerHook<'a> {
        PlanServerHook {
            plan,
            log,
            resilience,
            server,
            attempts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl ServerFaultHook for PlanServerHook<'_> {
    fn deploy(&self, inner: &dyn ServerSubsystem, entry: &TypeEntry) -> DeployOutcome {
        let site = deploy_site(self.server, &entry.fqcn);

        if self.plan.decide(FaultKind::TransientDeployRefusal, &site) {
            let failures = self
                .plan
                .transient_failures(&site)
                .min(self.resilience.max_retries + 1);
            let attempt = {
                // lock-order: L2 (fault-hook attempt map) — leaf.
                let mut attempts = lock_unpoisoned(&self.attempts);
                let n = attempts.entry(site.clone()).or_insert(0);
                *n += 1;
                *n
            };
            self.log.injected(FaultKind::TransientDeployRefusal, &site);
            if attempt <= failures {
                return DeployOutcome::Refused {
                    reason: format!(
                        "{TRANSIENT_REFUSAL_PREFIX} connection reset during deployment \
                         (attempt {attempt})"
                    ),
                };
            }
        }

        let outcome = inner.deploy(entry);
        match outcome {
            DeployOutcome::Deployed { wsdl_xml } => {
                match self.plan.damage_wsdl(&site, &wsdl_xml) {
                    Some((damaged, kind)) => {
                        self.log.injected(kind, &site);
                        DeployOutcome::Deployed { wsdl_xml: damaged }
                    }
                    None => DeployOutcome::Deployed { wsdl_xml },
                }
            }
            refused => refused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let c = FaultPlan::seeded(43);
        let sites: Vec<String> = (0..2000).map(|i| format!("deploy/Metro/c{i}")).collect();
        let pick = |p: &FaultPlan| -> Vec<bool> {
            sites
                .iter()
                .map(|s| p.decide(FaultKind::WsdlCorruption, s))
                .collect()
        };
        assert_eq!(pick(&a), pick(&b));
        assert_ne!(pick(&a), pick(&c));
        let hits = pick(&a).iter().filter(|&&x| x).count();
        // 15‰ of 2000 ≈ 30; allow generous slack.
        assert!((5..120).contains(&hits), "{hits}");
    }

    #[test]
    fn forced_sites_always_inject() {
        let plan = FaultPlan::silent(7).force_at(FaultKind::ClientGenPanic, "gen/x/y/z");
        assert!(plan.decide(FaultKind::ClientGenPanic, "gen/x/y/z"));
        assert!(!plan.decide(FaultKind::ClientGenPanic, "gen/x/y/other"));
        assert!(!plan.decide(FaultKind::WsdlTruncation, "gen/x/y/z"));
        assert_eq!(plan.active_kinds(), 1);
    }

    #[test]
    fn damage_is_deterministic_and_char_safe() {
        let plan = FaultPlan::silent(1).with_rate(FaultKind::WsdlTruncation, 1000);
        let doc = "<?xml version=\"1.0\"?><a>héllo wörld…</a>".repeat(4);
        let (once, kind) = plan.damage_wsdl("deploy/Metro/x", &doc).unwrap();
        let (twice, _) = plan.damage_wsdl("deploy/Metro/x", &doc).unwrap();
        assert_eq!(kind, FaultKind::WsdlTruncation);
        assert_eq!(once, twice);
        assert!(once.len() < doc.len());
    }

    #[test]
    fn benign_and_malforming_corruption_both_occur() {
        let plan = FaultPlan::silent(3).with_rate(FaultKind::WsdlCorruption, 1000);
        let doc = "<?xml version=\"1.0\"?><a><b/></a>";
        let mut malformed = 0;
        let mut benign = 0;
        for i in 0..64 {
            let (damaged, _) = plan.damage_wsdl(&format!("deploy/Metro/c{i}"), doc).unwrap();
            if damaged.contains("<injected-fault>") {
                malformed += 1;
            } else {
                assert!(damaged.contains(">\n<"));
                benign += 1;
            }
        }
        assert!(malformed > 0 && benign > 0, "{malformed}/{benign}");
    }

    #[test]
    fn log_resolves_into_detected_and_masked() {
        let log = FaultLog::new();
        log.injected(FaultKind::WsdlCorruption, "deploy/Metro/a");
        log.injected(FaultKind::WsdlCorruption, "deploy/Metro/a"); // idempotent
        log.injected(FaultKind::SlowStep, "gen/Metro/Axis1/a");
        log.resolve("deploy/Metro/a", true);
        log.resolve("gen/Metro/Axis1/a", false);
        log.retried(4);
        log.deadline_hit();
        let report = log.report();
        assert_eq!(report.counts(FaultKind::WsdlCorruption).injected, 1);
        assert_eq!(report.counts(FaultKind::WsdlCorruption).detected, 1);
        assert_eq!(report.counts(FaultKind::SlowStep).masked, 1);
        assert_eq!(report.retries_spent, 1);
        assert_eq!(report.backoff_ms, 4);
        assert_eq!(report.deadline_hits, 1);
        assert_eq!(report.injected_total(), 2);
        assert!(report.affects("deploy/Metro/a"));
        assert!(!report.affects("deploy/Metro/b"));
        assert!(report.to_string().contains("wsdl-corruption"));
    }

    #[test]
    fn backoff_schedule_repeats_its_tail() {
        let resilience = ResilienceConfig::default();
        assert_eq!(resilience.backoff_for(0), 1);
        assert_eq!(resilience.backoff_for(1), 2);
        assert_eq!(resilience.backoff_for(2), 4);
        assert_eq!(resilience.backoff_for(9), 4);
    }

    #[test]
    fn breaker_trips_after_threshold_and_cools_down_in_cells() {
        let cfg = BreakerConfig::new(3, 2);
        let mut state = BreakerState::new();
        // Two disruptive cells: below threshold, still closed.
        assert!(!state.observe(cfg, true));
        assert!(!state.observe(cfg, true));
        assert!(!state.should_skip());
        // A clean cell resets the streak.
        assert!(!state.observe(cfg, false));
        assert!(!state.observe(cfg, true));
        assert!(!state.observe(cfg, true));
        // Third consecutive disruption trips it.
        assert!(state.observe(cfg, true));
        // Open: exactly `cooldown_cells` skips, then half-open.
        assert!(state.should_skip());
        assert!(state.should_skip());
        assert!(!state.should_skip());
    }

    #[test]
    fn half_open_probe_retrips_on_one_failure_or_closes_on_success() {
        let cfg = BreakerConfig::new(3, 1);
        let mut tripped = BreakerState::new();
        for _ in 0..2 {
            assert!(!tripped.observe(cfg, true));
        }
        assert!(tripped.observe(cfg, true));
        assert!(tripped.should_skip());
        // Half-open probe fails: re-trips on a single disruption.
        let mut reopened = tripped;
        assert!(reopened.observe(cfg, true));
        assert!(reopened.should_skip());
        // Half-open probe succeeds: breaker closes, threshold applies
        // again in full.
        let mut closed = tripped;
        assert!(!closed.observe(cfg, false));
        assert!(!closed.observe(cfg, true));
        assert!(!closed.observe(cfg, true));
        assert!(closed.observe(cfg, true));
    }

    #[test]
    fn breaker_config_clamps_zeroes() {
        let cfg = BreakerConfig::new(0, 0);
        assert_eq!(cfg.threshold, 1);
        assert_eq!(cfg.cooldown_cells, 1);
    }

    #[test]
    fn log_counts_watchdog_and_breaker_events() {
        let log = FaultLog::new();
        log.watchdog_cell();
        log.breaker_tripped();
        log.breaker_skip("gen/Metro/Cxf/a");
        log.breaker_skip("gen/Metro/Cxf/a"); // idempotent
        log.breaker_skip("gen/Metro/Cxf/b");
        let report = log.report();
        assert_eq!(report.watchdog_cells, 1);
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.breaker_skipped_sites.len(), 2);
        assert!(report.to_string().contains("watchdog cell kills: 1"));
        assert!(report.to_string().contains("breaker trips: 1 (skipped 2 cells)"));
    }

    #[test]
    fn plan_fingerprint_is_seed_and_shape_sensitive() {
        let a = FaultPlan::seeded(42);
        assert_eq!(a.fingerprint(), FaultPlan::seeded(42).fingerprint());
        assert_ne!(a.fingerprint(), FaultPlan::seeded(43).fingerprint());
        assert_ne!(
            a.fingerprint(),
            FaultPlan::seeded(42)
                .force_at(FaultKind::SlowStep, "gen/x/y/z")
                .fingerprint()
        );
    }

    #[test]
    fn wire_fault_choice_is_deterministic() {
        let plan = FaultPlan::seeded(11);
        for i in 0..50 {
            let site = wire_site(ServerId::Metro, &format!("c{i}"));
            assert_eq!(plan.wire_fault(&site), plan.wire_fault(&site));
        }
        let forced = FaultPlan::silent(0).with_rate(FaultKind::WireDropResponse, 1000);
        assert_eq!(
            forced.wire_fault("wire/Metro/x"),
            Some(WireFault::DropResponse)
        );
    }

    #[test]
    fn site_hash_and_decisions_are_pinned() {
        // Output pins: the site hash feeds every seeded injection, so
        // its bits must not drift across refactors of the mixer.
        let plan = FaultPlan::seeded(42);
        assert_eq!(plan.hash(FaultKind::WsdlCorruption, "deploy/Metro/c0"), 0x5440_6adb_c886_f4e7);
        let hits: Vec<usize> = (0..2000)
            .filter(|i| plan.decide(FaultKind::WsdlCorruption, &format!("deploy/Metro/c{i}")))
            .take(5)
            .collect();
        assert_eq!(hits, [15, 26, 55, 70, 107]);
    }
}
