//! The campaign workloads: the paper matrix and the chaos campaign.
//!
//! Untraced, a workload runs the whole matrix again and again as
//! [`SHARDS`] shard campaigns, timing each shard from outside and scaling
//! it to the probe's reference speed. Traced, it runs one `-j1` and one
//! `-jN` campaign and then replays the same services on one thread,
//! calling each layer's public function inside a span.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wsinterop_compilers::{compiler_for, instantiate};
use wsinterop_core::report::{Fig4, TableIII, Totals};
use wsinterop_core::shard::merge_results;
use wsinterop_core::{
    expected, Campaign, CampaignResults, DocCache, FaultPlan, FaultReport, JournalCell,
    JournalWriter, PipelineStats, ShardSpec,
};
use wsinterop_frameworks::client::{
    all_clients, parse_for_generation, CompilationMode, GenOutcome,
};
use wsinterop_frameworks::server::{all_servers, DeployOutcome};
use wsinterop_wsi::Analyzer;

use crate::metrics::Report;
use crate::probe::Probe;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{nproc, record_peak_rss, Options};

/// Shard campaigns one timed pass over the matrix is split into: short
/// enough that the probe before a shard still tells the host's speed
/// while it runs, long enough that the per-shard start-up stays a small
/// share.
const SHARDS: usize = 16;

/// One campaign configuration the benchmark drives.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Every `stride`-th catalog entry (1 = the paper's full matrix).
    pub stride: usize,
    /// Seed of the fault plan; `None` for the fault-free matrix.
    pub faults: Option<u64>,
    /// Journal every cell to a file under the scratch directory.
    pub journal: Option<PathBuf>,
}

impl Spec {
    /// Generation re-parses the description text in every cell (chaos
    /// cells), instead of sharing one parse through the doc cache.
    fn text_path(&self) -> bool {
        self.faults.is_some()
    }

    fn campaign(&self, threads: usize, shard: Option<ShardSpec>) -> Campaign {
        let mut campaign = Campaign::sampled(self.stride).with_threads(threads);
        if let Some(shard) = shard {
            campaign = campaign.with_shard(shard);
        }
        if let Some(seed) = self.faults {
            campaign = campaign.with_faults(FaultPlan::seeded(seed));
        }
        if let Some(path) = &self.journal {
            campaign = campaign.with_journal(path);
        }
        campaign
    }

    /// Runs one campaign, or one shard of it, silencing the panic
    /// messages of injected generator crashes (the campaign isolates and
    /// counts them).
    fn run(
        &self,
        threads: usize,
        shard: Option<ShardSpec>,
    ) -> (CampaignResults, FaultReport, PipelineStats) {
        let campaign = self.campaign(threads, shard);
        if self.faults.is_none() {
            return campaign.run_with_stats();
        }
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = campaign.run_with_stats();
        std::panic::set_hook(hook);
        out
    }
}

/// Builds everything a campaign needs before its first cell: both class
/// catalogs, the server and client subsystems, the WS-I analyzer and
/// the configured campaign.
fn set_up(spec: &Spec) {
    black_box(wsinterop_typecat::java::build());
    black_box(wsinterop_typecat::dotnet::build());
    black_box(Analyzer::basic_profile_1_1());
    black_box(spec.campaign(nproc(), None));
}

/// What the output checks compare between runs of one workload.
#[derive(PartialEq)]
enum Outcome {
    /// The fault-free matrix: the paper's tables.
    Tables(Fig4, TableIII, Totals),
    /// The chaos campaign: every record and the fault accounting.
    Chaos(CampaignResults, FaultReport),
}

fn outcome(spec: &Spec, results: CampaignResults, report: FaultReport) -> Outcome {
    if spec.faults.is_some() {
        Outcome::Chaos(results, report)
    } else {
        Outcome::Tables(
            Fig4::from_results(&results),
            TableIII::from_results(&results),
            Totals::from_results(&results),
        )
    }
}

/// Checks that hold for any single run of `spec`.
fn check_run(spec: &Spec, results: &CampaignResults, report: &mut Report) {
    let totals = Totals::from_results(results);
    report.check(
        totals.tests_executed == 11 * totals.services_deployed,
        || {
            format!(
                "{} tests for {} deployed services, expected 11 per service",
                totals.tests_executed, totals.services_deployed
            )
        },
    );
    if spec.stride == 1 && spec.faults.is_none() {
        let paper = Totals {
            services_created: expected::TOTAL_CREATED,
            services_excluded: expected::TOTAL_EXCLUDED,
            services_deployed: expected::TOTAL_DEPLOYED,
            tests_executed: expected::TOTAL_TESTS,
            description_warnings: expected::TOTAL_DESCRIPTION_WARNINGS,
            generation_warnings: expected::TOTAL_GENERATION_WARNINGS,
            generation_errors: expected::TOTAL_GENERATION_ERRORS,
            compilation_warnings: expected::TOTAL_COMPILATION_WARNINGS,
            compilation_errors: expected::TOTAL_COMPILATION_ERRORS,
            interop_errors: expected::TOTAL_INTEROP_ERRORS,
            same_framework_errors: expected::SAME_FRAMEWORK_ERRORS,
        };
        report.check(totals == paper, || {
            format!("totals differ from the paper: {totals:?}")
        });
    }
}

/// The untraced run: one unsharded `-jN` warm-up campaign that every
/// later pass must reproduce, then back-to-back passes over the matrix
/// (`-j1` for the matrix, `-jN` for chaos) until the measuring time is
/// used up. Each pass runs the [`SHARDS`] shards in turn, one sample
/// each, and merges them for the output check. A set-up is timed before
/// the warm-up and after every pass, so its median spans the whole run.
/// Every sample is scaled to the probe's reference speed.
pub fn run(spec: &Spec, threads: usize, opts: &Options) -> Report {
    let mut report = Report::default();
    let mut probe = Probe::start();
    let mut setups = vec![probe.time(1, || set_up(spec)).1];

    let (results, faults, _) = spec.run(nproc(), None);
    check_run(spec, &results, &mut report);
    let reference = outcome(spec, results, faults);
    // A user runs one campaign per process: its memory peak is the
    // set-up plus this first run, before any repeated pass.
    record_peak_rss(&mut report);

    let mut samples = Vec::new();
    let mut tests = 0;
    let mut passes = 0;
    let started = Instant::now();
    while passes < 2 || started.elapsed() < opts.measure {
        let mut parts = Vec::with_capacity(SHARDS);
        let mut merged: Option<FaultReport> = None;
        for k in 0..SHARDS {
            let shard = Some(ShardSpec::new(k, SHARDS));
            let ((results, faults, _), ns) = probe.time(threads, || spec.run(threads, shard));
            samples.push(ns);
            tests += results.tests.len();
            parts.push(results);
            match &mut merged {
                Some(report) => report.merge(&faults),
                None => merged = Some(faults),
            }
        }
        passes += 1;
        report.attempted += 1;
        let faults = merged.expect("a pass runs at least one shard");
        if outcome(spec, merge_results(parts), faults) != reference {
            report.failed += 1;
            report.problems.push(format!(
                "pass {passes} differs from the unsharded -j{} reference run",
                nproc()
            ));
        }
        setups.push(probe.time(1, || set_up(spec)).1);
    }
    let busy_ns = samples.iter().sum::<u64>() as f64;
    samples.sort_unstable();
    report.set(
        "setup_s",
        median(&mut setups).unwrap_or(0) as f64 / 1e9,
        setups.len(),
    );
    report.set("throughput", tests as f64 / busy_ns * 1e9, samples.len());
    report.set(
        "mean_ms",
        busy_ns / samples.len() as f64 / 1e6,
        samples.len(),
    );
    report.set(
        "p90_ms",
        quantile(&samples, 900).unwrap_or(0) as f64 / 1e6,
        samples.len(),
    );
    report
}

/// Layer counts the replay checks against the campaign.
#[derive(Debug, Default)]
struct Replay {
    deployed: usize,
    generates: usize,
    gen_errors: usize,
    crashes: usize,
    wsdl_bytes: usize,
    parsed_bytes: usize,
}

/// Replays `spec`'s services on one thread, one span per layer call:
/// deploy, parse, WS-I analysis, then for each of the eleven clients the
/// bare `generate_from`, the doc-cache `generate` and the compile or
/// instantiation check. On the text path every client re-parses the
/// description, as chaos cells do. Faults are not injected.
fn replay(spec: &Spec, tracer: &mut Tracer) -> Replay {
    let analyzer = Analyzer::basic_profile_1_1();
    let cache = DocCache::new();
    let clients = all_clients();
    let mut counts = Replay::default();
    let mut id = 0u64;
    for server in all_servers() {
        for entry in server.catalog().entries().iter().step_by(spec.stride) {
            id += 1;
            let root = tracer.open("replay.service", id, None);
            let deployed = tracer.time("server.deploy", id, Some(root), || server.deploy(entry));
            if let DeployOutcome::Deployed { wsdl_xml } = deployed {
                counts.deployed += 1;
                counts.wsdl_bytes += wsdl_xml.len();
                counts.parsed_bytes += wsdl_xml.len();
                let svc = tracer.time("wsdl.parse", id, Some(root), || cache.parse(wsdl_xml));
                if let Some(defs) = svc.defs() {
                    tracer.time("wsi.analyze", id, Some(root), || {
                        black_box(analyzer.analyze(defs))
                    });
                }
                for (k, client) in clients.iter().enumerate() {
                    let client = client.as_ref();
                    if spec.text_path() {
                        counts.parsed_bytes += svc.wsdl_xml().len();
                    }
                    let direct = |tracer: &mut Tracer| -> GenOutcome {
                        if spec.text_path() {
                            let parsed = tracer.time("wsdl.parse", id, Some(root), || {
                                parse_for_generation(svc.wsdl_xml())
                            });
                            return match parsed {
                                Ok((defs, facts)) => {
                                    tracer.time("client.generate", id, Some(root), || {
                                        client.generate_from(&defs, &facts)
                                    })
                                }
                                Err(message) => GenOutcome::fail(message),
                            };
                        }
                        match (svc.defs(), svc.facts()) {
                            (Some(defs), Some(facts)) => {
                                tracer.time("client.generate", id, Some(root), || {
                                    client.generate_from(defs, facts)
                                })
                            }
                            _ => {
                                GenOutcome::fail(svc.parse_error().unwrap_or_default().to_string())
                            }
                        }
                    };
                    let cached = |tracer: &mut Tracer| {
                        tracer.time("doccache.generate", id, Some(root), || {
                            cache.generate(client, &svc)
                        })
                    };
                    // Alternate which call runs first, so neither one
                    // always finds the other's data in the CPU caches.
                    let outcome = if k % 2 == 0 {
                        let outcome = direct(tracer);
                        black_box(cached(tracer));
                        outcome
                    } else {
                        black_box(cached(tracer));
                        direct(tracer)
                    };
                    counts.generates += 1;
                    counts.gen_errors += usize::from(outcome.error.is_some());
                    let Some(bundle) = &outcome.artifacts else {
                        continue;
                    };
                    if client.info().compilation == CompilationMode::Dynamic {
                        if outcome.error.is_none() {
                            tracer.time("compilers.instantiate", id, Some(root), || {
                                black_box(instantiate(bundle))
                            });
                        }
                    } else {
                        let compiled = tracer.time("compilers.compile", id, Some(root), || {
                            compiler_for(bundle.language).map(|c| c.compile(bundle))
                        });
                        counts.crashes += usize::from(compiled.is_some_and(|c| c.crashed));
                    }
                }
            }
            tracer.close(root);
        }
    }
    counts
}

/// Appends every test record of `results` to a fresh journal, one span
/// per append. Returns the journal's size in bytes.
fn replay_journal(
    results: &CampaignResults,
    config_hash: u64,
    path: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> u64 {
    let writer = match JournalWriter::create(path, config_hash, None) {
        Ok(writer) => writer,
        Err(e) => {
            report
                .problems
                .push(format!("cannot create journal {}: {e}", path.display()));
            return 0;
        }
    };
    for (i, record) in results.tests.iter().enumerate() {
        let cell = JournalCell {
            record: record.clone(),
            breaker_skipped: false,
            disruptive: false,
        };
        tracer.time("journal.append", i as u64, None, || writer.append(&cell));
    }
    report.check(writer.take_error().is_none(), || {
        "journal append failed".to_string()
    });
    report.check(writer.appended() == results.tests.len(), || {
        format!(
            "journal took {} of {} appends",
            writer.appended(),
            results.tests.len()
        )
    });
    drop(writer);
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(path);
    bytes
}

/// The traced campaign layers of `spec`: a `-j1` and a `-jN` campaign,
/// the single-thread replay, and a journal replay of the `-j1` records.
/// Sets every `server.*`/`wsdl.*`/`wsi.*`/`client.*`/`compilers.*`/
/// `doccache.*`/`campaign.*`/`journal.*`/`faults.*` per-layer metric.
pub fn trace_layers(spec: &Spec, scratch: &Path, tracer: &mut Tracer, report: &mut Report) {
    // Builds the class catalogs and warms the code paths, so neither
    // timed campaign pays for them.
    Spec {
        stride: spec.stride * 20,
        ..spec.clone()
    }
    .run(nproc(), None);
    let (j1, faults, pipeline) = tracer.time("campaign.j1", 0, None, || spec.run(1, None));
    let (jn, jn_faults, _) = tracer.time("campaign.jn", 0, None, || spec.run(nproc(), None));
    check_run(spec, &j1, report);
    report.check(j1 == jn && faults == jn_faults, || {
        format!("-j1 and -j{} campaigns disagree", nproc())
    });

    let counts = replay(spec, tracer);
    let deployed = j1.services.iter().filter(|s| s.deployed).count();
    if spec.faults.is_none() {
        report.check(counts.deployed == deployed, || {
            format!(
                "replay deployed {} services, the campaign {deployed}",
                counts.deployed
            )
        });
    }
    if spec.stride == 1 {
        report.check(counts.deployed == expected::TOTAL_DEPLOYED, || {
            format!(
                "replay deployed {}, expected {}",
                counts.deployed,
                expected::TOTAL_DEPLOYED
            )
        });
        report.check(counts.generates == expected::TOTAL_TESTS, || {
            format!(
                "replay made {} generate calls, expected {}",
                counts.generates,
                expected::TOTAL_TESTS
            )
        });
    }
    report.check(counts.generates == 11 * counts.deployed, || {
        format!(
            "replay made {} generate calls for {} services",
            counts.generates, counts.deployed
        )
    });

    let journal_path = scratch.join(format!("trace-{}.journal", std::process::id()));
    let config_hash = spec.campaign(1, None).config_hash();
    let journal_bytes = replay_journal(&j1, config_hash, &journal_path, tracer, report);

    let s = |name| tracer.busy_ns(name) as f64 / 1e9;
    let n = |name| tracer.count(name);
    // The layers a campaign of this spec actually calls, once each.
    let mut path_layers = vec!["server.deploy", "wsdl.parse", "wsi.analyze"];
    path_layers.push(if spec.text_path() {
        "client.generate"
    } else {
        "doccache.generate"
    });
    path_layers.extend(["compilers.compile", "compilers.instantiate"]);
    if spec.journal.is_some() {
        path_layers.push("journal.append");
    }
    let wall_j1 = s("campaign.j1");
    let busy: f64 = path_layers.iter().map(|l| s(l)).sum();

    report.set("server.deploy_s", s("server.deploy"), n("server.deploy"));
    report.set(
        "server.wsdl_mb",
        counts.wsdl_bytes as f64 / 1e6,
        counts.deployed,
    );
    report.set("wsdl.parse_s", s("wsdl.parse"), n("wsdl.parse"));
    report.set(
        "wsdl.parse_mb_per_s",
        counts.parsed_bytes as f64 / 1e6 / s("wsdl.parse").max(1e-9),
        n("wsdl.parse"),
    );
    report.set(
        "doccache.parses_per_doc",
        pipeline.parses as f64 / pipeline.distinct_docs.max(1) as f64,
        pipeline.parses,
    );
    report.set("wsi.analyze_s", s("wsi.analyze"), n("wsi.analyze"));
    report.set(
        "client.generate_s",
        s("client.generate"),
        n("client.generate"),
    );
    report.set(
        "client.gen_errors",
        counts.gen_errors as f64,
        counts.generates,
    );
    report.set(
        "compilers.compile_s",
        s("compilers.compile"),
        n("compilers.compile"),
    );
    report.set(
        "compilers.instantiate_s",
        s("compilers.instantiate"),
        n("compilers.instantiate"),
    );
    report.set(
        "compilers.crashes",
        counts.crashes as f64,
        n("compilers.compile"),
    );
    report.set(
        "doccache.generate_s",
        s("doccache.generate"),
        n("doccache.generate"),
    );
    report.set(
        "doccache.memo_overhead_s",
        s("doccache.generate") - s("client.generate"),
        n("doccache.generate"),
    );
    let generations = pipeline.gen_runs + pipeline.gen_memo_hits;
    report.set(
        "doccache.gen_hit_ratio",
        pipeline.gen_memo_hits as f64 / generations.max(1) as f64,
        generations,
    );
    report.set("campaign.wall_j1_s", wall_j1, 1);
    report.set("campaign.self_s", wall_j1 - busy, 1);
    report.set(
        "campaign.jn_speedup",
        wall_j1 / s("campaign.jn").max(1e-9),
        2,
    );
    report.set("journal.append_s", s("journal.append"), n("journal.append"));
    report.set("journal.bytes", journal_bytes as f64, n("journal.append"));
    report.set(
        "journal.appends",
        n("journal.append") as f64,
        n("journal.append"),
    );
    let fault_sites = faults.affected_sites.len();
    report.set(
        "faults.injected",
        faults.injected_total() as f64,
        fault_sites,
    );
    report.set(
        "faults.detected",
        faults.detected_total() as f64,
        fault_sites,
    );
    report.set("faults.masked", faults.masked_total() as f64, fault_sites);
    report.set(
        "faults.panics_isolated",
        faults.panics_isolated as f64,
        fault_sites,
    );
    report.set("faults.retries", faults.retries_spent as f64, fault_sites);
}
