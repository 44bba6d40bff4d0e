//! # wsinterop-core
//!
//! The interoperability assessment campaign — the paper's primary
//! contribution, reproduced end to end:
//!
//! 1. **Preparation** — select servers/clients, generate one echo
//!    service per platform class ([`Campaign::paper`]).
//! 2. **Testing** — Service Description Generation (deploy + WS-I
//!    check), Client Artifact Generation, Client Artifact
//!    Compilation / instantiation, with interleaved classification.
//!
//! Reports regenerate the paper's artifacts: [`report::Fig4`],
//! [`report::TableIII`] and [`report::Totals`]; the
//! [`expected`] module freezes the published numbers the full run must
//! reproduce. The [`exchange`] module implements the paper's declared
//! future work — the Communication and Execution steps — as an
//! extension. The [`faults`] module layers a deterministic, seeded
//! fault-injection plan over the campaign (the chaos campaign, E12)
//! and accounts for injected vs detected vs masked faults. The
//! [`doccache`] module is the parse-once pipeline: each published
//! description is parsed and analyzed exactly once, at deploy time,
//! and every consumer reads that parse — with shared-parse and
//! text-path runs provably bit-identical. The [`journal`] module is
//! the crash-safety layer: a write-ahead log of completed cells with a
//! corruption-tolerant reader, so an interrupted campaign resumes
//! bit-identically; the campaign supervises execution with a per-cell
//! watchdog and deterministic per-client circuit breakers
//! ([`faults::BreakerConfig`]). The [`wire`] module is the real-socket
//! transport: a hardened loopback HTTP/1.1 SOAP endpoint, a resilient
//! client, and a fault proxy that lets the chaos campaign damage real
//! wire bytes — with the loopback exchange survey provably
//! bit-identical to the in-process one (E15).
//!
//! ## Example
//!
//! ```
//! use wsinterop_core::{Campaign, report::Totals};
//! // A strided smoke run (the full campaign is `Campaign::paper()`).
//! let results = Campaign::sampled(500).run();
//! let totals = Totals::from_results(&results);
//! assert_eq!(totals.tests_executed, totals.services_deployed * 11);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod complexity;
pub mod doccache;
pub mod exchange;
pub mod expected;
pub mod export;
pub mod faults;
pub mod fuzz;
pub mod journal;
pub mod obs;
pub mod registry;
pub mod report;
pub mod results;
pub mod shard;
pub mod sync;
pub mod wire;

pub use campaign::Campaign;
pub use doccache::{DocCache, ParsedService, PipelineStats};
pub use faults::{BreakerConfig, FaultKind, FaultPlan, FaultReport, ResilienceConfig};
pub use fuzz::{FuzzConfig, FuzzOutcome, FuzzTransport};
pub use journal::{JournalCell, JournalError, JournalWriter};
pub use obs::{Clock, MetricsRegistry, MetricsSnapshot, Obs, TraceEvent, TracePhase, TraceSink};
pub use shard::{ShardSpec, Supervisor, SupervisorConfig};
pub use results::{CampaignResults, InstantiationKind, ServiceRecord, TestRecord};
