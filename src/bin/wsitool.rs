//! `wsitool` — the command-line face of the interoperability
//! assessment approach (the counterpart of the tool the paper
//! published alongside the study).
//!
//! `usage()` lists every command and each flag it accepts. A command
//! rejects, as a usage error, any argument it would not read.
//!
//! Every campaign-family command echoes a `run config:` line with the
//! stride, seed and campaign config hash, so any run can be reproduced
//! from its logs alone (journal headers pin the same hash).
//!
//! ## Exit codes
//!
//! The contract is documented in README.md and stable:
//! `0` success, `1` runtime failure (including non-conformant audits),
//! `2` usage errors, `3` sharded campaign or fuzz run completed after
//! recovering one or more crashed/hung workers, `4` shard supervision
//! gave up after exhausting a worker's respawn budget, `9`
//! deterministic journal halt (`--halt-after-cells`).

use std::path::Path;
use std::process::{Command, ExitCode};
use std::str::FromStr;

use wsinterop::core::campaign::ExchangeTransport;
use wsinterop::core::exchange::{survey_sites_observed, ExchangeSurvey};
use wsinterop::core::faults::BreakerConfig;
use wsinterop::core::fuzz::{FuzzConfig, FuzzTransport};
use wsinterop::core::obs::{Clock, Obs};
use wsinterop::core::registry::ServiceHost;
use wsinterop::core::report::{Fig4, TableIII, Totals};
use wsinterop::core::shard::{
    merge_metrics_files, merge_shard_dir, merge_trace_files, verify_exactly_once,
    write_merged_journal, ShardSpec, SupervisionOutcome, Supervisor, SupervisorConfig,
};
use wsinterop::core::wire;
use wsinterop::core::Campaign;
use wsinterop::compilers::{compiler_for, instantiate};
use wsinterop::frameworks::client::{all_clients, CompilationMode};
use wsinterop::frameworks::server::{
    all_servers, extension_servers, DeployOutcome, ServerId, ServerSubsystem,
};
use wsinterop::typecat::TypeEntry;
use wsinterop::wsdl::de::from_xml_str;
use wsinterop::wsdl::values;
use wsinterop::wsi::Analyzer;
use wsinterop::xml::writer::{write_document, WriteOptions};

/// Exit code for runtime failures (I/O, refused deployments,
/// non-conformant audits).
const EXIT_RUNTIME: u8 = 1;

/// Exit code when a sharded campaign or fuzz run completed, but only
/// after the supervisor recovered at least one crashed or hung
/// worker — the run is good (merged output verified exactly-once and
/// bit-identical), the distinct code makes the recovery visible to CI.
const EXIT_RECOVERED: u8 = 3;

/// Exit code when shard supervision gave up: some worker exhausted
/// its `--max-respawns` budget and the run is incomplete. No merged
/// output is produced; per-shard journals keep the completed work for
/// a later `--resume`.
const EXIT_GAVE_UP: u8 = 4;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    match dispatch(Args::new(&argv)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    }
}

/// Parses one command line and runs it; `Err` is a usage error.
fn dispatch(mut args: Args) -> Result<ExitCode, String> {
    let command = args.next().ok_or("no command given")?;
    Ok(match command {
        "catalogs" => args.done().map(|()| catalogs())?,
        "complexity" => args.done().map(|()| complexity())?,
        "deploy" => deploy(args.only("deploy needs <fqcn>")?),
        "matrix" => matrix(args.only("matrix needs <fqcn>")?),
        "audit" => {
            let (target, xml) = args.target_and_switch("--xml", "audit needs <fqcn|file>")?;
            audit(target, xml)
        }
        "invoke" => {
            let fqcn = args.next().ok_or("invoke needs <fqcn>")?;
            let value = args.next();
            args.done()?;
            invoke(fqcn, value)
        }
        "journal" => {
            if args.next() != Some("inspect") {
                return Err("journal needs `inspect <file>`".to_string());
            }
            let (path, json) = args.target_and_switch("--json", "journal inspect needs <file>")?;
            journal_inspect(path, json)
        }
        "export" => {
            let stride = args.next().map(|raw| parse("stride", raw)).transpose()?;
            let dir = args.next().unwrap_or(".");
            args.done()?;
            export(stride, dir)
        }
        "campaign" => campaign(&RunOpts::parse(args, false)?),
        "chaos" => chaos(&RunOpts::parse(args, true)?),
        "fuzz" => fuzz_cmd(&FuzzOpts::parse(args)?),
        "metrics" => metrics_cmd(&MetricsOpts::parse(args)?),
        "serve" => serve(&ServeOpts::parse(args)?),
        "loadgen" => loadgen_cmd(&LoadgenOpts::parse(args)?),
        "watch" => watch_cmd(&WatchOpts::parse(args)?),
        "exchange-survey" => exchange_survey(&SurveyOpts::parse(args)?),
        "bench-campaign" => bench_campaign(&BenchOpts::parse(args)?),
        other => return Err(format!("unknown command `{other}`")),
    })
}

/// A cursor over one command's arguments, in argv order. A parser
/// takes each argument with [`Args::next`] and a flag's value with
/// [`Args::value`], [`Args::path`] or [`Args::num`], so the leftmost
/// bad argument is the one reported and the last occurrence of a flag
/// wins. A value is the next argument, whatever it looks like.
struct Args<'a> {
    rest: std::slice::Iter<'a, &'a str>,
}

impl<'a> Args<'a> {
    fn new(argv: &'a [&'a str]) -> Args<'a> {
        Args { rest: argv.iter() }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().copied()
    }

    /// The value of `flag`; at the end of argv, `{flag} needs {needs}`.
    fn value(&mut self, flag: &str, needs: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs {needs}"))
    }

    fn path(&mut self, flag: &str) -> Result<Option<String>, String> {
        Ok(Some(self.value(flag, "a file path")?.to_string()))
    }

    fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        parse(flag, self.value(flag, "a value")?)
    }

    /// Rejects the first argument left over.
    fn done(mut self) -> Result<(), String> {
        self.next().map_or(Ok(()), |arg| Err(unrecognized(arg)))
    }

    /// The one positional argument of a command that takes nothing else.
    fn only(mut self, needs: &str) -> Result<&'a str, String> {
        let arg = self.next().ok_or(needs)?;
        self.done().map(|()| arg)
    }

    /// One positional argument and an optional `switch`, in either order.
    fn target_and_switch(mut self, switch: &str, needs: &str) -> Result<(&'a str, bool), String> {
        let (mut target, mut on) = (None, false);
        while let Some(arg) = self.next() {
            match arg {
                _ if arg == switch => on = true,
                _ if target.is_none() => target = Some(arg),
                _ => return Err(unrecognized(arg)),
            }
        }
        Ok((target.ok_or(needs)?, on))
    }
}

fn parse<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

fn unrecognized(arg: &str) -> String {
    format!("unrecognized argument `{arg}`")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: wsitool <command>\n\
         \n\
         commands:\n\
         \x20 catalogs               platform catalog statistics\n\
         \x20 deploy  <fqcn>         publish one service, print its WSDL\n\
         \x20 audit   <fqcn|file> [--xml]  WS-I Basic Profile 1.1 audit\n\
         \x20 matrix  <fqcn>         one service against all 11 clients\n\
         \x20 invoke  <fqcn> [val]   deploy + typed echo roundtrip\n\
         \x20 campaign [stride] [--stride N] [--extended] [--no-cache]  run the campaign (default stride 50)\n\
         \x20          [--fuzz N [--seed N]]  …append a fuzz axis: N property-based cases per deployed service\n\
         \x20          [--journal FILE] [--resume] [--breaker N[,C]] [--halt-after-cells N]\n\
         \x20          [--trace-out FILE] [--metrics-out FILE] [--quiet]\n\
         \x20          [--shards N] [--shard-dir DIR] [--max-respawns N]\n\
         \x20          [--heartbeat-ms N] [--backoff-ms N]\n\
         \x20          [--worker-halt K:C] [--worker-stall K:C]\n\
         \x20                        …supervised multi-process sharding: N workers,\n\
         \x20                        crash/hang recovery, deterministic merged output\n\
         \x20          [--shard K/N --shard-dir DIR]  run as worker shard K of N\n\
         \x20 chaos [stride] [--stride N] [--seed N] [--transport tcp|in-process]\n\
         \x20       [--extended] [--no-cache] [--journal FILE] [--resume] [--breaker N[,C]]\n\
         \x20       [--halt-after-cells N] [--trace-out FILE] [--metrics-out FILE] [--quiet]\n\
         \x20                        single-process fault-injected campaign + fault report;\n\
         \x20                        `tcp` probes real sockets\n\
         \x20 fuzz [--cases N] [--seed N] [--stride N] [-j|--threads N] [--extended]\n\
         \x20      [--transport in-process|tcp|both] [--journal FILE] [--resume]\n\
         \x20      [--halt-after-units N] [--fault-seed N] [--crash-fqcn F] [--hang-fqcn F]\n\
         \x20      [--max-body-bytes N] [--wire-timeout-ms N] [--shrink-budget N]\n\
         \x20      [--shards N --shard-dir DIR [--max-respawns N] | --shard K/N --shard-dir DIR]\n\
         \x20      [--trace-out FILE] [--metrics-out FILE] [--quiet]\n\
         \x20                        WSDL-guided property-based exchange fuzzing:\n\
         \x20                        per-pair outcome tables, tape-shrunk journaled\n\
         \x20                        reproducers, deterministic at any -j/shard count\n\
         \x20 metrics [--stride N] [--seed N] [--json] [--out FILE]\n\
         \x20                        deterministic instrumented-campaign metrics snapshot\n\
         \x20 journal inspect <file> [--json]  decode a campaign journal (cells, config hash, torn tail)\n\
         \x20 export  [stride] [dir] run + write services.tsv / tests.tsv\n\
         \x20 complexity             run the complexity-extension matrix\n\
         \x20 serve [--port N] [--stride N] [--workers N] [--queue N]\n\
         \x20       [--max-body-bytes N] [--read-timeout-ms N]\n\
         \x20                        hardened loopback SOAP endpoint (POST /__admin/shutdown stops it);\n\
         \x20                        per-run 413 body cap and slow-loris deadline\n\
         \x20 loadgen [--ops N] [--clients N] [--seed N] [--stride N]\n\
         \x20         [--workers N] [--queue N] [--read-timeout-ms N]\n\
         \x20         [--slow-pct N] [--abort-pct N] [--oversized-pct N] [--keep-alive-pct N]\n\
         \x20         [--scrape-pct N] [--bench-out FILE]\n\
         \x20                        seeded deterministic load run against a self-hosted\n\
         \x20                        endpoint (slow-loris / abort / oversized / admin-scrape\n\
         \x20                        mixes); byte-stable plan + invariants on stdout, timing\n\
         \x20                        on stderr, req/s + latency quantiles into BENCH_wire.json\n\
         \x20 watch --addr HOST:PORT [--interval-ms N] [--count N]\n\
         \x20       [--snapshots FILE] [--ring N] [--timeout-ms N] [--all]\n\
         \x20                        poll a live server's /metrics + /healthz, print a\n\
         \x20                        deterministic counter-rate / gauge-delta table per\n\
         \x20                        scrape, journal a checksummed snapshot ring\n\
         \x20 exchange-survey [--stride N] [--transport tcp|in-process] [--addr HOST:PORT]\n\
         \x20                 [--shutdown-server] [--trace-out FILE] [--metrics-out FILE]\n\
         \x20                        Communication/Execution survey (E15)\n\
         \x20 bench-campaign [--stride N] [--iters N] [--out FILE] [--scaling]\n\
         \x20                [--full-stride N] [--full-shards N] [--skip-full]\n\
         \x20                        time shared vs per-cell parse, then the sharded\n\
         \x20                        full paper matrix; --scaling adds the -j1..-jN\n\
         \x20                        thread ladder + output bit-identity check; write JSON\n\
         \n\
         exit codes: 0 success, 1 runtime failure, 2 usage error (including\n\
         \x20           an argument the command does not read), 3 recovered worker\n\
         \x20           crash(es), 4 supervision gave up, 9 journal halt"
    );
    ExitCode::from(2)
}

/// Prints a runtime error and returns the stable runtime exit code.
fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(EXIT_RUNTIME)
}

/// Finds the platform owning `fqcn` together with its catalog entry —
/// returning the entry up front removes the historical re-lookup
/// `.unwrap()`s in `deploy`/`audit`/`matrix`.
fn find_service(fqcn: &str) -> Option<(Box<dyn ServerSubsystem>, &'static TypeEntry)> {
    all_servers()
        .into_iter()
        .find_map(|s| s.catalog().get(fqcn).map(|entry| (s, entry)))
}

fn catalogs() -> ExitCode {
    for server in all_servers() {
        let info = server.info();
        let stats = server.catalog().stats();
        println!("{} ({} / {}):", info.id, info.framework, info.app_server);
        println!("  {stats}");
        let deployable = server
            .catalog()
            .iter()
            .filter(|e| matches!(server.deploy(e), DeployOutcome::Deployed { .. }))
            .count();
        println!("  deployable services: {deployable}\n");
    }
    ExitCode::SUCCESS
}

fn deploy(fqcn: &str) -> ExitCode {
    let Some((server, entry)) = find_service(fqcn) else {
        return fail(format!("`{fqcn}` is in neither catalog"));
    };
    match server.deploy(entry) {
        DeployOutcome::Refused { reason } => {
            fail(format!("{}: deployment refused: {reason}", server.info().id))
        }
        DeployOutcome::Deployed { wsdl_xml } => {
            println!("{wsdl_xml}");
            ExitCode::SUCCESS
        }
    }
}

fn audit(target: &str, as_xml: bool) -> ExitCode {
    let xml = if std::path::Path::new(target).exists() {
        match std::fs::read_to_string(target) {
            Ok(xml) => xml,
            Err(e) => {
                eprintln!("cannot read {target}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let Some((server, entry)) = find_service(target) else {
            return fail(format!("`{target}` is neither a file nor a catalog class"));
        };
        match server.deploy(entry) {
            DeployOutcome::Refused { reason } => {
                return fail(format!("deployment refused: {reason}"));
            }
            DeployOutcome::Deployed { wsdl_xml } => wsdl_xml,
        }
    };
    match from_xml_str(&xml) {
        Err(e) => {
            eprintln!("unreadable WSDL: {e}");
            ExitCode::FAILURE
        }
        Ok(defs) => {
            let report = Analyzer::basic_profile_1_1().analyze(&defs);
            if as_xml {
                print!("{}", report.to_xml());
            } else {
                print!("{report}");
            }
            if report.conformant() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn matrix(fqcn: &str) -> ExitCode {
    let Some((server, entry)) = find_service(fqcn) else {
        return fail(format!("`{fqcn}` is in neither catalog"));
    };
    let wsdl = match server.deploy(entry) {
        DeployOutcome::Refused { reason } => {
            println!("deployment refused: {reason}");
            return ExitCode::SUCCESS;
        }
        DeployOutcome::Deployed { wsdl_xml } => wsdl_xml,
    };
    println!("{fqcn} on {}:", server.info().id);
    for client in all_clients() {
        let info = client.info();
        let outcome = client.generate(&wsdl);
        let status = if let Some(error) = &outcome.error {
            format!("generation ERROR: {error}")
        } else {
            let tail = match &outcome.artifacts {
                None => "no artifacts".to_string(),
                Some(bundle) => match info.compilation {
                    CompilationMode::Dynamic => instantiate(bundle).to_string(),
                    _ => match compiler_for(bundle.language) {
                        None => format!("no toolchain for {:?} artifacts", bundle.language),
                        Some(compiler) => {
                            let compiled = compiler.compile(bundle);
                            if compiled.crashed {
                                "COMPILER CRASH".to_string()
                            } else if compiled.success() {
                                format!("compiled, {} warning(s)", compiled.warning_count())
                            } else {
                                format!("{} compile error(s)", compiled.error_count())
                            }
                        }
                    },
                },
            };
            match outcome.warnings.len() {
                0 => tail,
                n => format!("{n} warning(s); {tail}"),
            }
        };
        println!("  {:<26} {status}", info.id.to_string());
    }
    ExitCode::SUCCESS
}

fn invoke(fqcn: &str, value: Option<&str>) -> ExitCode {
    let Some((server, _)) = find_service(fqcn) else {
        return fail(format!("`{fqcn}` is in neither catalog"));
    };
    let mut host = ServiceHost::new();
    let url = match host.deploy_one(server.as_ref(), fqcn) {
        Ok(url) => url,
        Err(reason) => {
            return fail(format!("deployment refused: {reason}"));
        }
    };
    println!("deployed at {url}");
    let wsdl_xml = match host.wsdl(&url) {
        Ok(xml) => xml,
        Err(e) => return fail(format!("published description unavailable: {e}")),
    };
    let defs = match from_xml_str(wsdl_xml) {
        Ok(defs) => defs,
        Err(e) => return fail(format!("published description is unreadable: {e}")),
    };
    let Some(param_type) = values::echo_parameter_type(&defs) else {
        return fail("service declares no invocable echo operation");
    };
    let mut payload = match values::sample_value(&defs, &param_type) {
        Ok(payload) => payload,
        Err(e) => return fail(format!("cannot build a sample value: {e}")),
    };
    if let Some(text) = value {
        // Thread the user's value into the payload: directly for simple
        // parameters, into the first string-typed field of a bean.
        match &mut payload {
            values::Value::Simple(_, slot) => *slot = text.to_string(),
            values::Value::Struct(fields) => {
                if let Some((_, values::Value::Simple(b, slot))) = fields
                    .iter_mut()
                    .find(|(_, v)| matches!(v, values::Value::Simple(b, _) if *b == wsinterop::xsd::BuiltIn::String))
                {
                    let _ = b;
                    *slot = text.to_string();
                } else {
                    eprintln!("note: bean has no string field; echoing the sample value instead");
                }
            }
            _ => {}
        }
    }
    let request = match values::typed_request(&defs, "echo", &payload) {
        Ok(doc) => doc,
        Err(e) => {
            return fail(format!("cannot build request: {e}"));
        }
    };
    let request_xml = write_document(&request, &WriteOptions::compact());
    println!("request:  {request_xml}");
    let response = match host.dispatch(&url, &request_xml) {
        Ok(response) => response,
        Err(e) => return fail(format!("dispatch failed: {e}")),
    };
    println!("response: {response}");
    match values::typed_payload_value(&defs, &response) {
        Ok(echoed) => {
            println!("echoed value: {echoed}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("bad response: {e}")),
    }
}

fn export(stride: Option<usize>, dir: &str) -> ExitCode {
    use wsinterop::core::export::{services_tsv, tests_tsv};
    let stride = stride.unwrap_or(50).max(1);
    println!("running campaign with stride {stride}…");
    let results = Campaign::sampled(stride).run();
    let services_path = format!("{dir}/services.tsv");
    let tests_path = format!("{dir}/tests.tsv");
    if let Err(e) = std::fs::write(&services_path, services_tsv(&results)) {
        eprintln!("cannot write {services_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&tests_path, tests_tsv(&results)) {
        eprintln!("cannot write {tests_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {services_path} ({} services) and {tests_path} ({} tests)",
        results.services.len(),
        results.tests.len()
    );
    ExitCode::SUCCESS
}

fn complexity() -> ExitCode {
    use wsinterop::core::complexity::{default_tiers, ComplexityMatrix};
    let matrix = ComplexityMatrix::run(&default_tiers());
    print!("{matrix}");
    ExitCode::SUCCESS
}

/// The crash-recovery flags `campaign`/`chaos` and `fuzz` share: a
/// single-process journal, or a supervised set of shard workers.
#[derive(Default)]
struct Recovery {
    journal: Option<String>,
    resume: bool,
    /// Worker mode: run exactly this shard (`--shard K/N`, normally
    /// passed by the supervisor).
    shard: Option<ShardSpec>,
    /// Supervisor mode: partition the run across N worker processes.
    shards: Option<usize>,
    /// Directory holding the per-shard journals / metrics / traces and
    /// the merged artifacts.
    shard_dir: Option<String>,
    max_respawns: Option<usize>,
}

impl Recovery {
    /// Takes `flag` and its value when it is a recovery flag.
    fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--journal" => self.journal = args.path(flag)?,
            "--resume" => self.resume = true,
            "--shard" => {
                let spec = ShardSpec::parse(args.value(flag, "K/N (e.g. 0/3)")?);
                self.shard = Some(spec.map_err(|e| format!("--shard: {e}"))?);
            }
            "--shards" => self.shards = Some(args.num(flag)?),
            "--shard-dir" => self.shard_dir = Some(args.value(flag, "a directory path")?.into()),
            "--max-respawns" => self.max_respawns = Some(args.num(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Supervisor mode (`--shards`) and worker mode (`--shard`) are
    /// mutually exclusive and journal per shard; each remaining flag
    /// needs the mode that reads it.
    fn validate(&self) -> Result<(), String> {
        let (supervisor, worker) = (self.shards.is_some(), self.shard.is_some());
        if supervisor && worker {
            return Err("--shards (supervisor) and --shard (worker) are mutually exclusive".into());
        }
        if self.shards == Some(0) {
            return Err("--shards: need at least one worker".into());
        }
        if worker && self.shard_dir.is_none() {
            return Err("--shard needs --shard-dir (per-shard artifacts live there)".into());
        }
        if (supervisor || worker) && self.journal.is_some() {
            return Err("sharding manages its own per-shard journals; drop --journal and use --shard-dir".into());
        }
        if !supervisor && self.max_respawns.is_some() {
            return Err("--max-respawns needs --shards (it drives the supervisor)".into());
        }
        if !supervisor && !worker && self.shard_dir.is_some() {
            return Err("--shard-dir needs --shard or --shards".into());
        }
        if self.resume && !supervisor && self.journal.is_none() {
            return Err("--resume needs --journal or --shards (it replays their journals)".into());
        }
        Ok(())
    }

    fn shard_dir(&self, default: &str) -> std::path::PathBuf {
        self.shard_dir.as_deref().unwrap_or(default).into()
    }

    /// Supervision with the `--max-respawns` budget.
    fn supervision(&self) -> SupervisorConfig {
        let defaults = SupervisorConfig::default();
        SupervisorConfig {
            max_respawns: self.max_respawns.unwrap_or(defaults.max_respawns),
            ..defaults
        }
    }
}

/// The telemetry flags `campaign`/`chaos` and `fuzz` share.
#[derive(Default)]
struct Telemetry {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    quiet: bool,
}

impl Telemetry {
    /// Takes `flag` and its value when it is a telemetry flag.
    fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--trace-out" => self.trace_out = args.path(flag)?,
            "--metrics-out" => self.metrics_out = args.path(flag)?,
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Options of the campaign-family commands (`campaign`, `chaos`).
#[derive(Default)]
struct RunOpts {
    stride: usize,
    /// The fault seed of `chaos` and of the `--fuzz` axis.
    seed: Option<u64>,
    extended: bool,
    no_cache: bool,
    breaker: Option<BreakerConfig>,
    halt_after: Option<usize>,
    transport: ExchangeTransport,
    recovery: Recovery,
    telemetry: Telemetry,
    /// Deterministic hang switch: sleep forever (holding the journal
    /// lock) after N appends. Worker-side counterpart of
    /// `--halt-after-cells`.
    stall_after: Option<usize>,
    heartbeat_ms: Option<u64>,
    backoff_ms: Option<u64>,
    /// Chaos injection for the supervisor: make worker K exit with the
    /// journal-halt code after C cells — on its *first* attempt only.
    worker_halt: Option<(usize, usize)>,
    /// Chaos injection for the supervisor: make worker K hang after C
    /// cells — on its *first* attempt only.
    worker_stall: Option<(usize, usize)>,
    /// The fuzz axis: after the campaign, run N property-based cases
    /// against every deployed service and print the outcome table.
    fuzz_cases: Option<usize>,
}

impl RunOpts {
    /// Parses `campaign` arguments, or `chaos` ones when `chaos` is set:
    /// chaos reads `--transport` but neither `--fuzz` nor the sharding
    /// flags. A bare number is the stride.
    fn parse(mut args: Args, chaos: bool) -> Result<RunOpts, String> {
        let mut o = RunOpts { stride: 50, ..RunOpts::default() };
        while let Some(arg) = args.next() {
            match arg {
                "--extended" => o.extended = true,
                "--no-cache" => o.no_cache = true,
                "--stride" => o.stride = args.num(arg)?,
                "--seed" => o.seed = Some(args.num(arg)?),
                "--halt-after-cells" => o.halt_after = Some(args.num(arg)?),
                "--breaker" => o.breaker = Some(parse_breaker(&mut args)?),
                "--transport" if chaos => o.transport = parse_transport(&mut args)?,
                "--fuzz" if !chaos => o.fuzz_cases = Some(args.num(arg)?),
                "--stall-after-cells" if !chaos => o.stall_after = Some(args.num(arg)?),
                "--heartbeat-ms" if !chaos => o.heartbeat_ms = Some(args.num(arg)?),
                "--backoff-ms" if !chaos => o.backoff_ms = Some(args.num(arg)?),
                "--worker-halt" if !chaos => o.worker_halt = Some(worker_chaos(&mut args, arg)?),
                "--worker-stall" if !chaos => o.worker_stall = Some(worker_chaos(&mut args, arg)?),
                // Chaos runs are single-process.
                "--shard" | "--shards" | "--shard-dir" | "--max-respawns" if chaos => {
                    return Err(unrecognized(arg))
                }
                _ if o.recovery.take(arg, &mut args)? || o.telemetry.take(arg, &mut args)? => {}
                bare => o.stride = bare.parse().map_err(|_| unrecognized(bare))?,
            }
        }
        o.stride = o.stride.max(1);
        o.validate(chaos)?;
        Ok(o)
    }

    /// Both sharding modes are incompatible with the circuit breaker
    /// (breaker state depends on the full preceding per-client cell
    /// stream, which a shard does not see); every flag needs the mode
    /// that reads it.
    fn validate(&self, chaos: bool) -> Result<(), String> {
        self.recovery.validate()?;
        let (supervisor, worker) = (self.recovery.shards.is_some(), self.recovery.shard.is_some());
        if (supervisor || worker) && self.breaker.is_some() {
            return Err("sharding is incompatible with --breaker: breaker state depends on the \
                        full per-client cell stream, which a shard does not see"
                .into());
        }
        if (supervisor || worker) && self.fuzz_cases.is_some() {
            return Err("--fuzz rides the single-process campaign; shard the fuzz axis with \
                        `wsitool fuzz --shards N` instead"
                .into());
        }
        if supervisor && self.halt_after.is_some() {
            return Err("--halt-after-cells halts the supervisor itself; use --worker-halt K:C to \
                        halt one worker"
                .into());
        }
        if self.stall_after.is_some() && !worker {
            return Err("--stall-after-cells needs --shard (it stalls the worker's journal writer)".into());
        }
        if !supervisor {
            for (flag, set) in [
                ("--worker-halt", self.worker_halt.is_some()),
                ("--worker-stall", self.worker_stall.is_some()),
                ("--heartbeat-ms", self.heartbeat_ms.is_some()),
                ("--backoff-ms", self.backoff_ms.is_some()),
            ] {
                if set {
                    return Err(format!("{flag} needs --shards (it drives the supervisor)"));
                }
            }
        }
        if let Some(n) = self.recovery.shards {
            for (flag, pair) in [
                ("--worker-halt", self.worker_halt),
                ("--worker-stall", self.worker_stall),
            ] {
                if let Some((k, _)) = pair.filter(|&(k, _)| k >= n) {
                    return Err(format!("{flag}: worker index {k} out of range (shards={n})"));
                }
            }
        }
        if self.halt_after.is_some() && !worker && self.recovery.journal.is_none() {
            return Err("--halt-after-cells needs --journal (it halts the journal writer)".into());
        }
        if !chaos && self.seed.is_some() && self.fuzz_cases.is_none() {
            return Err("--seed needs --fuzz (a campaign draws nothing else from it)".into());
        }
        Ok(())
    }

    /// The sampled campaign these options select, before any layer.
    fn base(&self) -> Campaign {
        if self.extended {
            Campaign::extended_sampled(self.stride)
        } else {
            Campaign::sampled(self.stride)
        }
    }

    fn seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }
}

/// Parses the `K:C` argument of `--worker-halt` / `--worker-stall`.
fn worker_chaos(args: &mut Args, flag: &str) -> Result<(usize, usize), String> {
    let spec = args.value(flag, "K:C (worker index : cell count)")?;
    let parsed = spec.split_once(':').and_then(|(k, c)| {
        Some((k.parse::<usize>().ok()?, c.parse::<usize>().ok()?))
    });
    parsed.ok_or_else(|| format!("{flag}: cannot parse `{spec}` (want K:C)"))
}

fn parse_transport(args: &mut Args) -> Result<ExchangeTransport, String> {
    match args.value("--transport", "`tcp` or `in-process`")? {
        "tcp" => Ok(ExchangeTransport::TcpLoopback),
        "in-process" => Ok(ExchangeTransport::InProcess),
        other => Err(format!("--transport: `{other}` is not `tcp` or `in-process`")),
    }
}

fn parse_breaker(args: &mut Args) -> Result<BreakerConfig, String> {
    let spec = args.value("--breaker", "N or N,C (threshold[,cooldown])")?;
    let bad = || format!("--breaker: cannot parse `{spec}` (want N or N,C)");
    let (threshold, cooldown) = match spec.split_once(',') {
        Some((t, c)) => (t, Some(c)),
        None => (spec, None),
    };
    let threshold: u32 = threshold.parse().map_err(|_| bad())?;
    let cooldown: u32 = match cooldown {
        Some(c) => c.parse().map_err(|_| bad())?,
        None => BreakerConfig::default().cooldown_cells,
    };
    Ok(BreakerConfig::new(threshold, cooldown))
}

/// Applies the journal/supervision options to a configured campaign.
fn apply_run_opts(mut campaign: Campaign, opts: &RunOpts) -> Campaign {
    if let Some(path) = &opts.recovery.journal {
        campaign = campaign.with_journal(path.as_str()).with_resume(opts.recovery.resume);
        if let Some(halt) = opts.halt_after {
            campaign = campaign.with_halt_after_cells(halt);
        }
    }
    if let Some(breaker) = opts.breaker {
        campaign = campaign.with_breaker(breaker);
    }
    campaign
}

/// Builds the run's telemetry observer: real clock, optional JSON-lines
/// trace stream, live progress meter unless `--quiet`. Every campaign
/// and fuzz run carries one — observation is proven not to perturb
/// results, and the end-of-run report rides on it.
fn build_observer(telemetry: &Telemetry) -> Result<std::sync::Arc<Obs>, String> {
    let obs = Obs::new(Clock::monotonic());
    if let Some(path) = &telemetry.trace_out {
        obs.set_trace_out(std::path::Path::new(path))
            .map_err(|e| format!("cannot open trace output {path}: {e}"))?;
    }
    if !telemetry.quiet {
        obs.progress().enable();
    }
    Ok(std::sync::Arc::new(obs))
}

/// Post-run telemetry: close the progress meter, write the metrics
/// snapshot when asked, and print the phase-latency report to stderr
/// (stdout stays the byte-stable scientific record).
fn finish_observability(obs: &Obs, telemetry: &Telemetry) -> Result<(), ExitCode> {
    if !telemetry.quiet {
        obs.progress().finish(obs.clock());
    }
    if let Some(path) = &telemetry.metrics_out {
        if let Err(e) = std::fs::write(path, obs.metrics_text()) {
            eprintln!("cannot write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("metrics: wrote {path}");
    }
    if !telemetry.quiet {
        eprint!("{}", obs.render_report());
    }
    Ok(())
}

/// The reproducibility echo: stride, seed (`-` when the run is
/// fault-free) and the campaign config hash that journal headers pin.
fn echo_run_config(stride: usize, seed: Option<u64>, campaign: &Campaign) {
    let seed = seed.map_or_else(|| "-".to_string(), |s| s.to_string());
    println!(
        "run config: stride={stride} seed={seed} config-hash=0x{:016x}",
        campaign.config_hash()
    );
}

/// Pre-run journal status (prefixed `journal:` so diffs between clean
/// and resumed runs can filter bookkeeping lines).
fn announce_journal(recovery: &Recovery) {
    let Some(path) = &recovery.journal else { return };
    if !recovery.resume {
        println!("journal: writing to {path}");
        return;
    }
    match wsinterop::core::journal::read_journal(std::path::Path::new(path)) {
        Ok(read) => {
            let torn = if read.torn() {
                format!(", truncating {} torn tail byte(s)", read.torn_bytes)
            } else {
                String::new()
            };
            println!(
                "journal: resuming from {path}: {} replayable cell(s){torn}",
                read.cells.len()
            );
        }
        Err(_) => println!("journal: {path} missing or unreadable; starting fresh"),
    }
}

/// Post-run journal status.
fn journal_summary(recovery: &Recovery) {
    let Some(path) = &recovery.journal else { return };
    if let Ok(read) = wsinterop::core::journal::read_journal(std::path::Path::new(path)) {
        println!("journal: {path} holds {} cell(s)", read.cells.len());
    }
}

fn journal_inspect(path: &str, json: bool) -> ExitCode {
    use wsinterop::core::journal::{per_client_counts, per_server_counts, read_journal};
    use wsinterop::core::obs::json_string;
    let read = match read_journal(std::path::Path::new(path)) {
        Ok(read) => read,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let skipped = read.cells.iter().filter(|c| c.breaker_skipped).count();
    let disruptive = read.cells.iter().filter(|c| c.disruptive).count();
    let outcome_name = |code: u8| {
        wsinterop::core::fuzz::FuzzOutcome::from_code(code).map_or("unknown", |o| o.name())
    };
    if json {
        let object_of = |counts: std::collections::BTreeMap<String, usize>| {
            counts
                .into_iter()
                .map(|(name, count)| format!("{}:{count}", json_string(&name)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let per_server = object_of(
            per_server_counts(&read.cells)
                .into_iter()
                .map(|(id, n)| (id.to_string(), n))
                .collect(),
        );
        let per_client = object_of(
            per_client_counts(&read.cells)
                .into_iter()
                .map(|(id, n)| (id.to_string(), n))
                .collect(),
        );
        // Reproducer records carry everything needed to replay the
        // failing input from `(seed, tape)` alone.
        let reproducers = read
            .repros
            .iter()
            .map(|r| {
                let tape = r
                    .tape
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"server\":\"{:?}\",\"client\":{},\"service\":{},\
                     \"case\":{},\"outcome\":\"{}\",\"seed\":{},\
                     \"digest\":\"0x{:016x}\",\"tape\":[{tape}]}}",
                    r.server,
                    json_string(r.client.name()),
                    json_string(&r.fqcn),
                    r.case_index,
                    outcome_name(r.outcome),
                    r.seed,
                    r.digest,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"journal\":{},\"config_hash\":\"0x{:016x}\",\"cells\":{},\
             \"breaker_skipped\":{skipped},\"disruptive\":{disruptive},\"torn_bytes\":{},\
             \"per_server\":{{{per_server}}},\"per_client\":{{{per_client}}},\
             \"fuzz_units\":{},\"reproducers\":[{reproducers}]}}",
            json_string(path),
            read.config_hash,
            read.cells.len(),
            read.torn_bytes,
            read.fuzz_units.len(),
        );
        return ExitCode::SUCCESS;
    }
    println!("journal: {path}");
    println!("config-hash=0x{:016x}", read.config_hash);
    println!(
        "cells: {} (breaker-skipped {skipped}, disruptive {disruptive})",
        read.cells.len()
    );
    println!("torn tail: {} byte(s)", read.torn_bytes);
    println!("per-client cells:");
    for (client, count) in per_client_counts(&read.cells) {
        println!("  {:<26} {count}", client.to_string());
    }
    if !read.fuzz_units.is_empty() {
        let cases: usize = read.fuzz_units.iter().map(|u| u.outcomes.len()).sum();
        println!(
            "fuzz units: {} ({cases} case(s), {} reproducer(s))",
            read.fuzz_units.len(),
            read.repros.len()
        );
        for repro in &read.repros {
            println!(
                "  repro: {:?}/{} client={} case={} outcome={} seed={} tape={} digest=0x{:016x}",
                repro.server,
                repro.fqcn,
                repro.client.name(),
                repro.case_index,
                outcome_name(repro.outcome),
                repro.seed,
                repro.tape.len(),
                repro.digest,
            );
        }
    }
    ExitCode::SUCCESS
}

fn chaos(opts: &RunOpts) -> ExitCode {
    use wsinterop::core::faults::FaultPlan;
    println!(
        "running chaos campaign with stride {}, seed {}, {} transport…",
        opts.stride,
        opts.seed(),
        opts.transport
    );
    let obs = match build_observer(&opts.telemetry) {
        Ok(obs) => obs,
        Err(e) => return fail(e),
    };
    let run = apply_run_opts(
        opts.base()
            .with_doc_cache(!opts.no_cache)
            .with_faults(FaultPlan::seeded(opts.seed()))
            .with_transport(opts.transport),
        opts,
    )
    .with_observer(std::sync::Arc::clone(&obs));
    echo_run_config(opts.stride, Some(opts.seed()), &run);
    announce_journal(&opts.recovery);
    // Injected panics are part of the experiment; keep the default
    // hook's backtraces out of the report.
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = run.try_run_with_stats();
    let _ = std::panic::take_hook();
    let (results, report, stats) = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", Fig4::from_results(&results));
    println!("{}", TableIII::from_results(&results));
    println!("{}", Totals::from_results(&results));
    println!("{report}");
    println!("{stats}");
    let classified = results.tests.len();
    println!("classified {classified} tests under fault injection; campaign completed without aborting");
    journal_summary(&opts.recovery);
    if let Err(code) = finish_observability(&obs, &opts.telemetry) {
        return code;
    }
    ExitCode::SUCCESS
}

/// Options for `wsitool fuzz`.
#[derive(Default)]
struct FuzzOpts {
    cases: usize,
    seed: u64,
    stride: usize,
    threads: Option<usize>,
    extended: bool,
    transport: FuzzTransport,
    halt_after_units: Option<usize>,
    /// `--fault-seed N`: arm the chaos-rate fault plan under seed N
    /// (default: the silent plan — only forced sites fire).
    fault_seed: Option<u64>,
    /// `--crash-fqcn F`: force an injected client panic at every
    /// server's fuzz site for service F.
    crash_fqcn: Option<String>,
    /// `--hang-fqcn F`: force an armed hang (virtual deadline verdict)
    /// at every server's fuzz site for service F.
    hang_fqcn: Option<String>,
    max_body_bytes: Option<usize>,
    wire_timeout_ms: Option<u64>,
    shrink_budget: Option<usize>,
    recovery: Recovery,
    telemetry: Telemetry,
}

impl FuzzOpts {
    fn parse(mut args: Args) -> Result<FuzzOpts, String> {
        let mut o = FuzzOpts { cases: 16, seed: 42, stride: 200, ..FuzzOpts::default() };
        while let Some(arg) = args.next() {
            match arg {
                "--extended" => o.extended = true,
                "--cases" => o.cases = args.num(arg)?,
                "--seed" => o.seed = args.num(arg)?,
                "--stride" => o.stride = args.num(arg)?,
                "-j" | "--threads" => o.threads = Some(args.num("-j")?),
                "--transport" => {
                    let raw = args.value(arg, "in-process, tcp or both")?;
                    o.transport = FuzzTransport::parse(raw).map_err(|e| format!("--transport: {e}"))?;
                }
                "--halt-after-units" => o.halt_after_units = Some(args.num(arg)?),
                "--fault-seed" => o.fault_seed = Some(args.num(arg)?),
                "--crash-fqcn" => o.crash_fqcn = Some(args.value(arg, "a service class name")?.into()),
                "--hang-fqcn" => o.hang_fqcn = Some(args.value(arg, "a service class name")?.into()),
                "--max-body-bytes" => o.max_body_bytes = Some(args.num(arg)?),
                "--wire-timeout-ms" => o.wire_timeout_ms = Some(args.num(arg)?),
                "--shrink-budget" => o.shrink_budget = Some(args.num(arg)?),
                _ if o.recovery.take(arg, &mut args)? || o.telemetry.take(arg, &mut args)? => {}
                bare => return Err(unrecognized(bare)),
            }
        }
        o.cases = o.cases.max(1);
        o.stride = o.stride.max(1);
        o.recovery.validate()?;
        let (supervisor, worker) = (o.recovery.shards.is_some(), o.recovery.shard.is_some());
        let observed = o.telemetry.metrics_out.is_some() || o.telemetry.trace_out.is_some();
        if supervisor && o.halt_after_units.is_some() {
            return Err("--halt-after-units halts a single-process fuzz run; drop --shards".into());
        }
        if supervisor && observed {
            return Err("--metrics-out and --trace-out observe a single-process fuzz run; drop --shards".into());
        }
        if worker && observed {
            return Err("--metrics-out and --trace-out observe a single-process fuzz run; \
                        a --shard worker runs unobserved"
                .into());
        }
        if o.halt_after_units.is_some() && !worker && o.recovery.journal.is_none() {
            return Err("--halt-after-units needs --journal (it halts the journal writer)".into());
        }
        Ok(o)
    }
}

/// Builds the seeded fault plan for a fuzz run: silent (only forced
/// sites fire) unless `--fault-seed` arms the chaos rates; forced
/// crash/hang fqcns are armed at every server's fuzz site so the flag
/// does not need to know which platforms deploy the service.
fn fuzz_fault_plan(opts: &FuzzOpts) -> wsinterop::core::faults::FaultPlan {
    use wsinterop::core::faults::{fuzz_site, FaultKind, FaultPlan};
    let mut plan = match opts.fault_seed {
        Some(seed) => FaultPlan::seeded(seed),
        None => FaultPlan::silent(opts.seed),
    };
    let mut servers = ServerId::ALL.to_vec();
    if opts.extended {
        servers.push(ServerId::Axis2Java);
    }
    if let Some(fqcn) = &opts.crash_fqcn {
        for server in &servers {
            plan = plan.force_at(FaultKind::ClientGenPanic, fuzz_site(*server, fqcn));
        }
    }
    if let Some(fqcn) = &opts.hang_fqcn {
        for server in &servers {
            plan = plan.force_at(FaultKind::SlowStep, fuzz_site(*server, fqcn));
        }
    }
    plan
}

/// Assembles the library-level fuzz configuration from CLI options.
fn fuzz_config(opts: &FuzzOpts) -> FuzzConfig {
    let mut config = FuzzConfig::new(opts.cases, opts.seed);
    config.stride = opts.stride;
    config.extended = opts.extended;
    config.transport = opts.transport;
    config.plan = fuzz_fault_plan(opts);
    config.threads = opts.threads.map_or(config.threads, |threads| threads.max(1));
    config.max_body = opts.max_body_bytes.unwrap_or(config.max_body);
    config.wire_timeout_ms = opts.wire_timeout_ms.unwrap_or(config.wire_timeout_ms);
    config.shrink_budget = opts.shrink_budget.unwrap_or(config.shrink_budget);
    config
}

/// The fuzz reproducibility echo; fuzz journal headers pin the same
/// config hash.
fn echo_fuzz_config(config: &FuzzConfig) {
    println!(
        "run config: cases={} seed={} stride={} transport={} config-hash=0x{:016x}",
        config.cases,
        config.seed,
        config.stride,
        config.transport,
        config.config_hash()
    );
}

/// Prints the byte-stable fuzz record: outcome table (with the totals
/// line CI greps), then one line per journaled reproducer.
fn print_fuzz_outcome(outcome: &wsinterop::core::fuzz::FuzzRunOutcome) {
    println!("{}", outcome.table);
    println!("fuzz reproducers: {}", outcome.repros.len());
    for repro in &outcome.repros {
        let name = wsinterop::core::fuzz::FuzzOutcome::from_code(repro.outcome)
            .map_or("unknown", |o| o.name());
        println!(
            "repro: {:?}/{} client={} case={} outcome={name} seed={} tape={} digest=0x{:016x}",
            repro.server,
            repro.fqcn,
            repro.client.name(),
            repro.case_index,
            repro.seed,
            repro.tape.len(),
            repro.digest,
        );
    }
}

fn fuzz_cmd(opts: &FuzzOpts) -> ExitCode {
    if let Some(shards) = opts.recovery.shards {
        return fuzz_supervise(opts, shards);
    }
    if let Some(spec) = opts.recovery.shard {
        return fuzz_shard_worker(opts, spec);
    }
    let mut config = fuzz_config(opts);
    config.journal = opts.recovery.journal.as_ref().map(std::path::PathBuf::from);
    config.resume = opts.recovery.resume;
    config.halt_after_units = opts.halt_after_units;
    let obs = match build_observer(&opts.telemetry) {
        Ok(obs) => obs,
        Err(e) => return fail(e),
    };
    echo_fuzz_config(&config);
    // Injected client panics are part of the experiment; keep the
    // default hook's backtraces out of the record.
    std::panic::set_hook(Box::new(|_| {}));
    let run = wsinterop::core::fuzz::run(&config, Some(&obs));
    let _ = std::panic::take_hook();
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => return fail(e),
    };
    print_fuzz_outcome(&outcome);
    if let Some(path) = &opts.recovery.journal {
        println!(
            "journal: {path} holds {} fuzz unit(s) ({} replayed on resume)",
            outcome.units.len(),
            outcome.replayed_units
        );
    }
    // Wire-boundary telemetry goes to stderr: resume replays lose the
    // counters (they are not part of the journaled science), so stdout
    // stays byte-stable across fresh and resumed runs.
    if outcome.cap_hits > 0 || outcome.divergences > 0 {
        eprintln!(
            "wire boundary: {} request(s) over the {}-byte cap, {} transport divergence(s)",
            outcome.cap_hits, config.max_body, outcome.divergences
        );
    }
    match finish_observability(&obs, &opts.telemetry) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Runs as one worker shard of a sharded fuzz run: journals into the
/// shard journal and always resumes it, so a respawned replacement
/// replays the dead worker's committed units instead of redoing them.
/// Stdout stays silent — the supervisor owns the merged record.
fn fuzz_shard_worker(opts: &FuzzOpts, spec: ShardSpec) -> ExitCode {
    let dir = opts.recovery.shard_dir("wsitool-fuzz-shards");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(format!("cannot create shard dir {}: {e}", dir.display()));
    }
    let mut config = fuzz_config(opts);
    config.shard = Some(spec);
    config.journal = Some(spec.journal_file(&dir));
    config.resume = true;
    config.halt_after_units = opts.halt_after_units;
    eprintln!("fuzz shard {spec}: journal {}", spec.journal_file(&dir).display());
    std::panic::set_hook(Box::new(|_| {}));
    let run = wsinterop::core::fuzz::run(&config, None);
    let _ = std::panic::take_hook();
    match run {
        Ok(outcome) => {
            eprintln!(
                "fuzz shard {spec}: done — {} unit(s), {} reproducer(s)",
                outcome.units.len(),
                outcome.repros.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("fuzz shard {spec}: {e}")),
    }
}

/// The supervising parent of a sharded fuzz run: [`run_shards`] over
/// fuzz workers (a respawned worker resumes its shard journal), then
/// merges the per-shard journals into a canonical journal
/// bit-identical to a single-process run.
fn fuzz_supervise(opts: &FuzzOpts, shards: usize) -> ExitCode {
    let config = fuzz_config(opts);
    echo_fuzz_config(&config);
    let dir = opts.recovery.shard_dir("wsitool-fuzz-shards");
    let worker_args = |cmd: &mut Command, spec: ShardSpec, _attempt: usize| {
        cmd.arg("fuzz")
            .arg("--cases")
            .arg(opts.cases.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string())
            .arg("--stride")
            .arg(opts.stride.to_string())
            .arg("--transport")
            .arg(opts.transport.to_string())
            .arg("--shard")
            .arg(spec.to_string())
            .arg("--shard-dir")
            .arg(&dir)
            .arg("--quiet");
        if opts.extended {
            cmd.arg("--extended");
        }
        if let Some(threads) = opts.threads {
            cmd.arg("-j").arg(threads.to_string());
        }
        if let Some(seed) = opts.fault_seed {
            cmd.arg("--fault-seed").arg(seed.to_string());
        }
        if let Some(fqcn) = &opts.crash_fqcn {
            cmd.arg("--crash-fqcn").arg(fqcn);
        }
        if let Some(fqcn) = &opts.hang_fqcn {
            cmd.arg("--hang-fqcn").arg(fqcn);
        }
        if let Some(bytes) = opts.max_body_bytes {
            cmd.arg("--max-body-bytes").arg(bytes.to_string());
        }
        if let Some(ms) = opts.wire_timeout_ms {
            cmd.arg("--wire-timeout-ms").arg(ms.to_string());
        }
        if let Some(budget) = opts.shrink_budget {
            cmd.arg("--shrink-budget").arg(budget.to_string());
        }
    };
    // Fuzz journals hold unit batches, not cells: no chunks to account.
    let no_chunks = |_: ServerId, _: &str| None;
    let supervision = opts.recovery.supervision();
    run_shards(&dir, shards, opts.recovery.resume, supervision, worker_args, no_chunks, |_| {
        let (outcome, merged_path) =
            wsinterop::core::fuzz::merge_fuzz_shard_dir(&dir, shards, &config)
                .map_err(|e| fail(format!("fuzz shard merge refused: {e}")))?;
        print_fuzz_outcome(&outcome);
        println!(
            "journal: merged fuzz journal {} holds {} unit(s)",
            merged_path.display(),
            outcome.units.len()
        );
        Ok(())
    })
}

fn campaign(opts: &RunOpts) -> ExitCode {
    if let Some(shards) = opts.recovery.shards {
        return supervise_campaign(opts, shards);
    }
    if let Some(spec) = opts.recovery.shard {
        return shard_worker(opts, spec);
    }
    println!(
        "running {} campaign with stride {}{}…",
        if opts.extended {
            "extended (4-server)"
        } else {
            "paper (3-server)"
        },
        opts.stride,
        if opts.no_cache {
            ", parse cache disabled"
        } else {
            ""
        }
    );
    let obs = match build_observer(&opts.telemetry) {
        Ok(obs) => obs,
        Err(e) => return fail(e),
    };
    let run = apply_run_opts(opts.base().with_doc_cache(!opts.no_cache), opts)
        .with_observer(std::sync::Arc::clone(&obs));
    echo_run_config(opts.stride, None, &run);
    announce_journal(&opts.recovery);
    let (results, report, stats) = match run.try_run_with_stats() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", Fig4::from_results(&results));
    println!("{}", TableIII::from_results(&results));
    println!("{}", Totals::from_results(&results));
    if opts.breaker.is_some() {
        println!("{report}");
    }
    println!("{stats}");
    if let Some(cases) = opts.fuzz_cases {
        // The fuzz axis: property-based cases against every service the
        // campaign just deployed, on the same stride and seed space.
        let mut config = FuzzConfig::new(cases, opts.seed());
        config.stride = opts.stride;
        config.extended = opts.extended;
        match wsinterop::core::fuzz::run(&config, Some(&obs)) {
            Ok(outcome) => {
                println!("fuzz axis: {cases} case(s) per deployed service, seed {}", opts.seed());
                println!("{}", outcome.table);
                println!("fuzz reproducers: {}", outcome.repros.len());
            }
            Err(e) => return fail(format!("fuzz axis failed: {e}")),
        }
    }
    journal_summary(&opts.recovery);
    if let Err(code) = finish_observability(&obs, &opts.telemetry) {
        return code;
    }
    ExitCode::SUCCESS
}

/// Runs as one worker shard of a supervised campaign (`--shard K/N`).
///
/// A worker journals into its shard journal and *always* resumes it:
/// a respawned replacement must replay the dead worker's completed
/// cells, never truncate them. Nothing is printed to stdout — the
/// supervisor owns the scientific record; per-shard artifacts
/// (journal, services TSV, metrics snapshot) land in the shard dir.
fn shard_worker(opts: &RunOpts, spec: ShardSpec) -> ExitCode {
    let dir = opts.recovery.shard_dir("wsitool-shards");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(format!("cannot create shard dir {}: {e}", dir.display()));
    }
    let obs = match build_observer(&opts.telemetry) {
        Ok(obs) => obs,
        Err(e) => return fail(e),
    };
    let journal = spec.journal_file(&dir);
    let mut run = opts
        .base()
        .with_doc_cache(!opts.no_cache)
        .with_journal(journal.as_path())
        .with_resume(true)
        .with_shard(spec)
        .with_observer(std::sync::Arc::clone(&obs));
    if let Some(halt) = opts.halt_after {
        run = run.with_halt_after_cells(halt);
    }
    if let Some(stall) = opts.stall_after {
        run = run.with_stall_after_cells(stall);
    }
    eprintln!("shard {spec}: journal {}", journal.display());
    let (results, _, _) = match run.try_run_with_stats() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("shard {spec}: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    };
    // Publish the deploy-phase hand-off atomically: a crash mid-write
    // must not leave a half-written TSV for the merge to trip on.
    let services = spec.services_file(&dir);
    let tmp = services.with_extension("tsv.tmp");
    let write = std::fs::write(&tmp, wsinterop::core::export::services_tsv(&results))
        .and_then(|()| std::fs::rename(&tmp, &services));
    if let Err(e) = write {
        return fail(format!(
            "shard {spec}: cannot write {}: {e}",
            services.display()
        ));
    }
    if let Err(e) = std::fs::write(spec.metrics_file(&dir), obs.metrics_json()) {
        return fail(format!("shard {spec}: cannot write metrics snapshot: {e}"));
    }
    if let Err(code) = finish_observability(&obs, &opts.telemetry) {
        return code;
    }
    eprintln!(
        "shard {spec}: done — {} service(s), {} test cell(s)",
        results.services.len(),
        results.tests.len()
    );
    ExitCode::SUCCESS
}

/// Maps `(server, fqcn)` to its strided entry index — the same grid
/// [`Campaign`] partitions on — for the supervisor's re-claimed-chunk
/// accounting.
fn chunk_index_map(opts: &RunOpts) -> std::collections::BTreeMap<(ServerId, String), usize> {
    let servers = if opts.extended {
        extension_servers()
    } else {
        all_servers()
    };
    let mut map = std::collections::BTreeMap::new();
    for server in servers {
        let id = server.info().id;
        for (j, entry) in server
            .catalog()
            .entries()
            .iter()
            .step_by(opts.stride)
            .enumerate()
        {
            map.insert((id, entry.fqcn.clone()), j);
        }
    }
    map
}

/// The supervising parent of a sharded campaign (`--shards N`):
/// partitions the run across N worker processes, recovers crashed and
/// hung workers, then merges the per-shard artifacts into output
/// bit-identical to an uninterrupted single-process run.
fn supervise_campaign(opts: &RunOpts, shards: usize) -> ExitCode {
    println!(
        "running {} campaign with stride {} across {shards} supervised worker shard(s)…",
        if opts.extended {
            "extended (4-server)"
        } else {
            "paper (3-server)"
        },
        opts.stride,
    );
    // The shard layout is excluded from the config hash, so this echo —
    // and every shard journal header — matches the unsharded run.
    echo_run_config(opts.stride, None, &opts.base());
    let dir = opts.recovery.shard_dir("wsitool-shards");
    let worker_args = |cmd: &mut Command, spec: ShardSpec, attempt: usize| {
        cmd.arg("campaign")
            .arg(opts.stride.to_string())
            .arg("--shard")
            .arg(spec.to_string())
            .arg("--shard-dir")
            .arg(&dir)
            .arg("--quiet");
        if opts.extended {
            cmd.arg("--extended");
        }
        if opts.no_cache {
            cmd.arg("--no-cache");
        }
        if opts.telemetry.trace_out.is_some() {
            cmd.arg("--trace-out").arg(spec.trace_file(&dir));
        }
        // Injected chaos hits the first attempt only — the experiment
        // is that the respawned replacement finishes the job.
        if attempt == 0 {
            if let Some((k, cells)) = opts.worker_halt {
                if k == spec.index {
                    cmd.arg("--halt-after-cells").arg(cells.to_string());
                }
            }
            if let Some((k, cells)) = opts.worker_stall {
                if k == spec.index {
                    cmd.arg("--stall-after-cells").arg(cells.to_string());
                }
            }
        }
    };
    let chunk_map = chunk_index_map(opts);
    let chunk_index =
        |server: ServerId, fqcn: &str| chunk_map.get(&(server, fqcn.to_string())).copied();
    let defaults = opts.recovery.supervision();
    let supervision = SupervisorConfig {
        heartbeat: opts.heartbeat_ms.map_or(defaults.heartbeat, std::time::Duration::from_millis),
        backoff_base: opts.backoff_ms.map_or(defaults.backoff_base, std::time::Duration::from_millis),
        ..defaults
    };
    run_shards(&dir, shards, opts.recovery.resume, supervision, worker_args, chunk_index, |outcome| {
        let merged = merge_shard_dir(&dir, shards)
            .map_err(|e| fail(format!("shard merge refused: {e}")))?;
        verify_exactly_once(&merged, all_clients().len())
            .map_err(|e| fail(format!("exactly-once verification failed: {e}")))?;
        let merged_journal = dir.join("merged.journal");
        write_merged_journal(&merged_journal, merged.config_hash, &merged.cells)
            .map_err(|e| fail(format!("cannot write {}: {e}", merged_journal.display())))?;
        let metrics = merge_metrics_files(&dir, shards)
            .map_err(|e| fail(format!("metrics merge refused: {e}")))?;
        std::fs::write(dir.join("merged.metrics.json"), metrics.render_json())
            .map_err(|e| fail(format!("cannot write merged metrics: {e}")))?;
        if let Some(path) = &opts.telemetry.metrics_out {
            std::fs::write(path, metrics.render_prometheus())
                .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
            eprintln!("metrics: wrote {path}");
        }
        if let Some(path) = &opts.telemetry.trace_out {
            let inputs: Vec<std::path::PathBuf> = (0..shards)
                .map(|k| ShardSpec::new(k, shards).trace_file(&dir))
                .collect();
            let events = merge_trace_files(&inputs, std::path::Path::new(path))
                .map_err(|e| fail(format!("cannot merge traces into {path}: {e}")))?;
            eprintln!("trace: merged {events} event(s) into {path}");
        }
        println!("{}", Fig4::from_results(&merged.results));
        println!("{}", TableIII::from_results(&merged.results));
        println!("{}", Totals::from_results(&merged.results));
        println!(
            "shards: {shards} worker(s), {} respawn(s) ({} hung), \
             {} cell(s) re-claimed across {} chunk(s)",
            outcome.respawns,
            outcome.hung_workers,
            outcome.reclaimed_cells,
            outcome.chunks_reclaimed
        );
        println!(
            "journal: merged journal {} holds {} cell(s)",
            merged_journal.display(),
            merged.cells.len()
        );
        Ok(())
    })
}

/// The shared half of every `--shards N` parent (`campaign`, `fuzz`):
/// prepares the shard dir, supervises `shards` worker copies of this
/// binary with [`Supervisor`], and once every shard completed hands
/// the outcome to `merge`, which merges the per-shard output and
/// prints the record.
///
/// `worker_args(cmd, shard, attempt)` appends a worker's arguments;
/// `chunk_index` feeds the re-claimed-chunk accounting. Outside
/// `--resume`, stale per-shard files from an earlier run are removed
/// first. A give-up exits [`EXIT_GAVE_UP`] with the shard journals
/// kept for `--resume`; a recovered run exits [`EXIT_RECOVERED`] once
/// `merge` has verified it.
fn run_shards(
    dir: &Path,
    shards: usize,
    resume: bool,
    config: SupervisorConfig,
    worker_args: impl Fn(&mut Command, ShardSpec, usize),
    chunk_index: impl Fn(ServerId, &str) -> Option<usize>,
    merge: impl FnOnce(&SupervisionOutcome) -> Result<(), ExitCode>,
) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        return fail(format!("cannot create shard dir {}: {e}", dir.display()));
    }
    if !resume {
        for k in 0..shards {
            let spec = ShardSpec::new(k, shards);
            for file in [
                spec.journal_file(dir),
                spec.services_file(dir),
                spec.metrics_file(dir),
                spec.trace_file(dir),
                spec.pid_file(dir),
                spec.log_file(dir),
            ] {
                let _ = std::fs::remove_file(file);
            }
        }
        let _ = std::fs::remove_file(dir.join("merged.journal"));
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(format!("cannot locate own executable: {e}")),
    };
    let supervisor = Supervisor::new(dir, shards, |spec, attempt| {
        let mut cmd = Command::new(&exe);
        worker_args(&mut cmd, spec, attempt);
        cmd
    })
    .with_config(config)
    .with_chunk_index(chunk_index);
    let outcome = match supervisor.run() {
        Ok(outcome) => outcome,
        Err(e) => return fail(format!("supervision failed: {e}")),
    };
    if !outcome.all_completed() {
        for k in &outcome.gave_up {
            eprintln!(
                "shard {k}/{shards}: gave up after {} spawn(s); see {}",
                outcome.worker_attempts[*k],
                ShardSpec::new(*k, shards).log_file(dir).display()
            );
        }
        eprintln!(
            "supervision gave up: {} of {shards} shard(s) incomplete; \
             per-shard journals kept in {} for --resume",
            outcome.gave_up.len(),
            dir.display(),
        );
        return ExitCode::from(EXIT_GAVE_UP);
    }
    if let Err(code) = merge(&outcome) {
        return code;
    }
    if outcome.recovered() {
        eprintln!(
            "note: {} worker crash(es)/hang(s) recovered; merged output verified \
             — exiting {EXIT_RECOVERED} to make the recovery visible",
            outcome.respawns,
        );
        return ExitCode::from(EXIT_RECOVERED);
    }
    ExitCode::SUCCESS
}

/// Options for `wsitool metrics`.
struct MetricsOpts {
    stride: usize,
    seed: u64,
    json: bool,
    out: Option<String>,
}

impl MetricsOpts {
    fn parse(mut args: Args) -> Result<MetricsOpts, String> {
        let mut o = MetricsOpts { stride: 200, seed: 42, json: false, out: None };
        while let Some(arg) = args.next() {
            match arg {
                "--json" => o.json = true,
                "--stride" => o.stride = args.num(arg)?,
                "--seed" => o.seed = args.num(arg)?,
                "--out" => o.out = args.path(arg)?,
                bare => return Err(unrecognized(bare)),
            }
        }
        o.stride = o.stride.max(1);
        Ok(o)
    }
}

/// Runs one instrumented stride-`N` campaign on the seeded *virtual*
/// clock and renders every instrument — Prometheus text by default,
/// JSON with `--json`. Virtual time plus a single worker make the
/// whole snapshot a pure function of (stride, seed): two invocations
/// print identical bytes, so the snapshot can be diffed and archived
/// like any other scientific record.
fn metrics_cmd(opts: &MetricsOpts) -> ExitCode {
    let obs = std::sync::Arc::new(Obs::new(Clock::virtual_seeded(opts.seed)));
    let campaign = Campaign::sampled(opts.stride)
        .with_threads(1)
        .with_observer(std::sync::Arc::clone(&obs));
    eprintln!(
        "metrics: instrumented stride-{} campaign (virtual clock, seed {}), config-hash=0x{:016x}",
        opts.stride,
        opts.seed,
        campaign.config_hash()
    );
    let _ = campaign.run();
    let rendered = if opts.json {
        obs.metrics_json()
    } else {
        obs.metrics_text()
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                return fail(format!("cannot write {path}: {e}"));
            }
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

/// Options for `wsitool serve`.
struct ServeOpts {
    port: u16,
    stride: usize,
    workers: usize,
    queue: usize,
    /// Request-body cap (the 413 boundary), overridable per run so a
    /// fuzz campaign can place the boundary where its generators
    /// probe.
    max_body: usize,
    /// Read/write deadline in milliseconds — the slow-loris bound.
    read_timeout_ms: u64,
}

impl ServeOpts {
    fn parse(mut args: Args) -> Result<ServeOpts, String> {
        let defaults = wire::WireServerConfig::default();
        let mut o = ServeOpts {
            port: 0,
            stride: 200,
            workers: defaults.workers,
            queue: defaults.queue_depth,
            max_body: defaults.limits.max_body,
            read_timeout_ms: defaults.read_timeout.as_millis() as u64,
        };
        while let Some(arg) = args.next() {
            match arg {
                "--port" => o.port = args.num(arg)?,
                "--stride" => o.stride = args.num(arg)?,
                "--workers" => o.workers = args.num(arg)?,
                "--queue" => o.queue = args.num(arg)?,
                "--max-body-bytes" => o.max_body = args.num(arg)?,
                "--read-timeout-ms" => o.read_timeout_ms = args.num(arg)?,
                bare => return Err(unrecognized(bare)),
            }
        }
        o.stride = o.stride.max(1);
        o.workers = o.workers.max(1);
        o.max_body = o.max_body.max(1);
        o.read_timeout_ms = o.read_timeout_ms.max(1);
        Ok(o)
    }
}

/// Hosts the stride-`N` survey services on a real loopback socket and
/// blocks until something POSTs the admin shutdown path. The `ready:`
/// line is the machine-readable contract CI greps for the bound
/// address (the port is ephemeral by default).
fn serve(opts: &ServeOpts) -> ExitCode {
    let services = wire::host_survey_services(opts.stride);
    let deployed = services.len();
    let timeout = std::time::Duration::from_millis(opts.read_timeout_ms);
    let mut config = wire::WireServerConfig {
        workers: opts.workers,
        queue_depth: opts.queue,
        read_timeout: timeout,
        write_timeout: timeout,
        ..wire::WireServerConfig::default()
    };
    config.limits.max_body = opts.max_body;
    let server = match wire::WireServer::start(opts.port, services, config) {
        Ok(server) => server,
        Err(e) => return fail(format!("cannot bind loopback endpoint: {e}")),
    };
    let addr = server.addr();
    println!(
        "serving {deployed} service(s) at http://{addr} (stride {}, {} worker(s), queue {}); \
         POST {} stops the server",
        opts.stride,
        opts.workers,
        opts.queue,
        wire::SHUTDOWN_PATH
    );
    println!("ready: {addr}");
    server.wait();
    println!("server stopped");
    ExitCode::SUCCESS
}

/// Options for `wsitool loadgen`.
struct LoadgenOpts {
    ops: usize,
    clients: usize,
    seed: u64,
    stride: usize,
    workers: usize,
    queue: usize,
    /// Server read/write deadline in milliseconds; the slow-loris
    /// dawdle is derived from it (2× + margin) so the deadline always
    /// fires.
    read_timeout_ms: u64,
    slow_pct: u8,
    abort_pct: u8,
    oversized_pct: u8,
    keep_alive_pct: u8,
    /// Share of ops that scrape the admin plane (`/metrics` +
    /// `/healthz`) mid-load instead of exchanging SOAP.
    scrape_pct: u8,
    /// Where to write the BENCH_wire.json snapshot (`None` = don't).
    bench_out: Option<String>,
}

impl LoadgenOpts {
    fn parse(mut args: Args) -> Result<LoadgenOpts, String> {
        let server_defaults = wire::WireServerConfig::default();
        let mix_defaults = wire::LoadgenConfig::default();
        let mut o = LoadgenOpts {
            ops: mix_defaults.ops,
            clients: mix_defaults.clients,
            seed: mix_defaults.seed,
            stride: 200,
            workers: server_defaults.workers,
            queue: server_defaults.queue_depth,
            read_timeout_ms: 250,
            slow_pct: mix_defaults.slow_pct,
            abort_pct: mix_defaults.abort_pct,
            oversized_pct: mix_defaults.oversized_pct,
            keep_alive_pct: mix_defaults.keep_alive_pct,
            scrape_pct: mix_defaults.scrape_pct,
            bench_out: None,
        };
        while let Some(arg) = args.next() {
            match arg {
                "--ops" => o.ops = args.num(arg)?,
                "--clients" => o.clients = args.num(arg)?,
                "--seed" => o.seed = args.num(arg)?,
                "--stride" => o.stride = args.num(arg)?,
                "--workers" => o.workers = args.num(arg)?,
                "--queue" => o.queue = args.num(arg)?,
                "--read-timeout-ms" => o.read_timeout_ms = args.num(arg)?,
                "--slow-pct" => o.slow_pct = args.num(arg)?,
                "--abort-pct" => o.abort_pct = args.num(arg)?,
                "--oversized-pct" => o.oversized_pct = args.num(arg)?,
                "--keep-alive-pct" => o.keep_alive_pct = args.num(arg)?,
                "--scrape-pct" => o.scrape_pct = args.num(arg)?,
                "--bench-out" => o.bench_out = args.path(arg)?,
                bare => return Err(unrecognized(bare)),
            }
        }
        let [slow, abort, oversized, scrape] = [o.slow_pct, o.abort_pct, o.oversized_pct, o.scrape_pct];
        if slow.saturating_add(abort).saturating_add(oversized).saturating_add(scrape) > 100 {
            return Err("--slow-pct + --abort-pct + --oversized-pct + --scrape-pct must not exceed 100".into());
        }
        o.ops = o.ops.max(1);
        o.clients = o.clients.max(1);
        o.stride = o.stride.max(1);
        o.workers = o.workers.max(1);
        o.read_timeout_ms = o.read_timeout_ms.max(1);
        Ok(o)
    }
}

/// Builds the replayable request corpus from the hosted survey
/// services: for each deployed description, the first operation and
/// its serialized survey-probe envelope — the same construction
/// `exchange_over_http` performs per exchange, done once up front.
fn build_loadgen_corpus(
    services: &std::collections::BTreeMap<String, wire::HostedService>,
) -> Vec<wire::CorpusEntry> {
    use wsinterop::core::exchange::{first_survey_operation, SURVEY_PROBE};
    use wsinterop::wsdl::soap;

    let mut corpus = Vec::new();
    for (path, hosted) in services {
        let Ok(defs) = &hosted.defs else { continue };
        let Some(operation) = first_survey_operation(&hosted.wsdl_xml) else {
            continue;
        };
        let Ok(doc) = soap::request(defs, &operation, SURVEY_PROBE) else {
            continue;
        };
        let body = write_document(&doc, &WriteOptions::compact()).into_bytes();
        corpus.push(wire::CorpusEntry {
            path: path.clone(),
            operation,
            body,
        });
    }
    corpus
}

/// Documented p99 latency bound for a loadgen run: a served request
/// can queue for up to the read deadline, then be read and written
/// under one deadline each, plus scheduler slack. DESIGN.md §15 pins
/// the same formula; the CI gate asserts against the value recorded
/// in BENCH_wire.json, never a magic constant.
fn loadgen_p99_bound_ns(read_timeout_ms: u64) -> u64 {
    (3 * read_timeout_ms + 2_000) * 1_000_000
}

/// Seeded deterministic load run against a self-hosted endpoint
/// (DESIGN.md §15). Stdout carries only the byte-stable half — the
/// plan and the invariant verdicts — so CI can diff two runs; measured
/// outcomes and timing go to stderr and into `--bench-out`.
fn loadgen_cmd(opts: &LoadgenOpts) -> ExitCode {
    let services = wire::host_survey_services(opts.stride);
    let corpus = build_loadgen_corpus(&services);
    if corpus.is_empty() {
        return fail(format!(
            "stride {} deploys no invokable service; nothing to replay",
            opts.stride
        ));
    }

    let read_timeout = std::time::Duration::from_millis(opts.read_timeout_ms);
    // Shared registry so the run can cross-check the server's
    // histograms (admin-plane exclusion, §16) after the drain.
    let registry = std::sync::Arc::new(wsinterop::core::obs::MetricsRegistry::new());
    let server_config = wire::WireServerConfig {
        workers: opts.workers,
        queue_depth: opts.queue,
        read_timeout,
        write_timeout: read_timeout,
        metrics: Some(std::sync::Arc::clone(&registry)),
        ..wire::WireServerConfig::default()
    };
    let server = match wire::WireServer::start(0, services, server_config) {
        Ok(server) => server,
        Err(e) => return fail(format!("cannot bind loopback endpoint: {e}")),
    };
    let stats = server.stats();

    let config = wire::LoadgenConfig {
        ops: opts.ops,
        clients: opts.clients,
        seed: opts.seed,
        slow_pct: opts.slow_pct,
        abort_pct: opts.abort_pct,
        oversized_pct: opts.oversized_pct,
        keep_alive_pct: opts.keep_alive_pct,
        scrape_pct: opts.scrape_pct,
        // The dawdle must outlast the server's read deadline or the
        // slow-loris profile never triggers its 408.
        dawdle: std::time::Duration::from_millis(2 * opts.read_timeout_ms + 100),
        client_timeout: std::time::Duration::from_millis(
            (4 * opts.read_timeout_ms).max(5_000),
        ),
        ..wire::LoadgenConfig::default()
    };

    println!(
        "run config: loadgen ops {} clients {} seed {} stride {} workers {} queue {} \
         read-timeout-ms {} mix {}/{}/{}/{}/{}",
        opts.ops,
        opts.clients,
        opts.seed,
        opts.stride,
        opts.workers,
        opts.queue,
        opts.read_timeout_ms,
        opts.slow_pct,
        opts.abort_pct,
        opts.oversized_pct,
        opts.keep_alive_pct,
        opts.scrape_pct,
    );
    let plan = wire::loadgen::plan_counts(&config);
    println!(
        "loadgen plan: normal {} (keep-alive {}) / slow {} / abort {} / oversized {} / \
         scrape {} over {} corpus path(s)",
        plan.planned_normal,
        plan.planned_keep_alive,
        plan.planned_slow,
        plan.planned_abort,
        plan.planned_oversized,
        plan.planned_scrape,
        corpus.len(),
    );

    let report = wire::loadgen::run(server.addr(), &corpus, &config);
    server.request_stop();
    server.shutdown();

    let c = &report.counts;
    eprintln!(
        "loadgen outcomes: ok {}, fault {}, shed {}, 408 {}, 413 {}, aborted {}, \
         closed {}, demoted {}, malformed {}",
        c.ok, c.fault, c.shed, c.timeout_408, c.too_large, c.aborted, c.closed, c.demoted,
        c.malformed,
    );
    eprintln!(
        "loadgen scrape: metrics-ok {}, healthy {}, degraded {}, shed {}, closed {}, \
         malformed {}; p99 {:.3} ms over {} sample(s)",
        c.scrape_ok,
        c.scrape_healthy,
        c.scrape_degraded,
        c.scrape_shed,
        c.scrape_closed,
        c.scrape_malformed,
        report.timing.scrape_latency.quantile_ns(0.99) as f64 / 1e6,
        report.timing.scrape_latency.count,
    );
    let lat = &report.timing.latency;
    eprintln!(
        "loadgen timing: {} op(s) in {:.1} ms ({:.1} req/s); served latency \
         p50 {:.3} ms p95 {:.3} ms p99 {:.3} ms max {:.3} ms over {} sample(s)",
        opts.ops,
        report.timing.elapsed.as_secs_f64() * 1e3,
        report.timing.req_per_s,
        lat.quantile_ns(0.50) as f64 / 1e6,
        lat.quantile_ns(0.95) as f64 / 1e6,
        lat.quantile_ns(0.99) as f64 / 1e6,
        lat.max as f64 / 1e6,
        lat.count,
    );
    eprintln!(
        "loadgen server: accepted {}, served {}, shed {}, timeouts {}, queue-timeouts {}, \
         write-stalls {}, demoted {}, oversized {}, malformed {}",
        stats.accepted(),
        stats.served(),
        stats.shed(),
        stats.timeouts(),
        stats.queue_timeouts(),
        stats.write_stalls(),
        stats.demoted(),
        stats.oversized(),
        stats.malformed(),
    );
    eprintln!(
        "loadgen admin: requests {}, response fallbacks {}, request ids issued {}",
        stats.admin(),
        stats.responses_fallback(),
        stats.request_ids_issued(),
    );

    // Invariants: every op classified exactly once into the closed
    // set, nothing outside the ladder's vocabulary, and after the
    // drain every connection-lifecycle gauge is back to zero. Scrape
    // ops have their own closed world: each one issues exactly two
    // admin requests (/metrics + /healthz), so their classifications
    // must sum to twice the planned count.
    let accounted = c.ok
        + c.fault
        + c.shed
        + c.timeout_408
        + c.too_large
        + c.aborted
        + c.closed
        + c.malformed;
    let scrape_accounted = c.scrape_ok
        + c.scrape_healthy
        + c.scrape_degraded
        + c.scrape_shed
        + c.scrape_closed
        + c.scrape_malformed;
    let exchange_ops = opts.ops - plan.planned_scrape;
    let scrape_requests = 2 * plan.planned_scrape;
    let leaks = stats.open() + stats.in_flight() + stats.queued();
    // Admin-plane exclusion (DESIGN.md §16): serving and admin
    // latencies land in disjoint histograms, and every observation
    // maps back to a dispatched request id.
    stats.sync_gauges();
    let snap = registry.snapshot();
    let hist_count =
        |name: &str| snap.histograms.get(name).map_or(0, |h| h.count);
    let serving_ns = hist_count("wire_server_request_ns");
    let admin_ns = hist_count("wire_server_admin_request_ns");
    let ids_issued = stats.request_ids_issued();
    let admin_excluded = admin_ns <= stats.admin() as u64
        && serving_ns + admin_ns <= ids_issued
        && serving_ns <= ids_issued.saturating_sub(stats.admin() as u64);
    let ok = accounted == exchange_ops
        && scrape_accounted == scrape_requests
        && c.malformed == 0
        && c.scrape_malformed == 0
        && stats.responses_fallback() == 0
        && admin_excluded
        && leaks == 0;
    println!(
        "loadgen invariants: accounted {accounted}/{exchange_ops}, scrape accounted \
         {scrape_accounted}/{scrape_requests}, malformed {}, scrape malformed {}, \
         response fallbacks {}, admin excluded {admin_excluded}, connection leaks \
         {leaks}, server stopped true",
        c.malformed,
        c.scrape_malformed,
        stats.responses_fallback(),
    );

    if let Some(path) = &opts.bench_out {
        let p99_bound_ns = loadgen_p99_bound_ns(opts.read_timeout_ms);
        let json = format!(
            "{{\n  \"seed\": {seed},\n  \"ops\": {ops},\n  \"clients\": {clients},\n  \
             \"stride\": {stride},\n  \"workers\": {workers},\n  \"queue_depth\": {queue},\n  \
             \"read_timeout_ms\": {rt},\n  \
             \"mix\": {{ \"slow_pct\": {sp}, \"abort_pct\": {ap}, \"oversized_pct\": {op}, \
             \"keep_alive_pct\": {kp}, \"scrape_pct\": {scp} }},\n  \
             \"plan\": {{ \"normal\": {pn}, \"keep_alive\": {pk}, \"slow\": {ps}, \
             \"abort\": {pa}, \"oversized\": {po}, \"scrape\": {psc} }},\n  \
             \"outcomes\": {{ \"ok\": {ok_n}, \"fault\": {fault}, \"shed\": {shed}, \
             \"timeout_408\": {t408}, \"too_large\": {t413}, \"aborted\": {aborted}, \
             \"closed\": {closed}, \"demoted\": {demoted}, \"malformed\": {malformed} }},\n  \
             \"scrape\": {{ \"metrics_ok\": {sc_ok}, \"healthy\": {sc_h}, \
             \"degraded\": {sc_deg}, \"shed\": {sc_shed}, \"closed\": {sc_cl}, \
             \"malformed\": {sc_mal} }},\n  \
             \"elapsed_ms\": {elapsed:.3},\n  \"req_per_s\": {rps:.3},\n  \
             \"latency_ns\": {{ \"count\": {lc}, \"p50\": {p50}, \"p95\": {p95}, \
             \"p99\": {p99}, \"max\": {lmax} }},\n  \"p99_bound_ns\": {p99_bound_ns},\n  \
             \"scrape_p99_ns\": {scrape_p99},\n  \
             \"server\": {{ \"accepted\": {s_acc}, \"served\": {s_srv}, \"shed\": {s_shed}, \
             \"timeouts\": {s_to}, \"queue_timeouts\": {s_qto}, \"write_stalls\": {s_ws}, \
             \"demoted\": {s_dem}, \"admin\": {s_adm}, \"request_ids_issued\": {s_ids} }},\n  \
             \"invariants\": {{ \"accounted\": {acc_ok}, \"scrape_accounted\": {scr_ok}, \
             \"malformed_responses\": {malformed}, \"scrape_malformed\": {sc_mal}, \
             \"response_fallbacks\": {s_fb}, \"admin_excluded\": {admin_excluded}, \
             \"connection_leaks\": {leaks}, \"server_stopped\": true }}\n}}\n",
            seed = opts.seed,
            ops = opts.ops,
            clients = opts.clients,
            stride = opts.stride,
            workers = opts.workers,
            queue = opts.queue,
            rt = opts.read_timeout_ms,
            sp = opts.slow_pct,
            ap = opts.abort_pct,
            op = opts.oversized_pct,
            kp = opts.keep_alive_pct,
            scp = opts.scrape_pct,
            pn = plan.planned_normal,
            pk = plan.planned_keep_alive,
            ps = plan.planned_slow,
            pa = plan.planned_abort,
            po = plan.planned_oversized,
            psc = plan.planned_scrape,
            sc_ok = c.scrape_ok,
            sc_h = c.scrape_healthy,
            sc_deg = c.scrape_degraded,
            sc_shed = c.scrape_shed,
            sc_cl = c.scrape_closed,
            sc_mal = c.scrape_malformed,
            scrape_p99 = report.timing.scrape_latency.quantile_ns(0.99),
            ok_n = c.ok,
            fault = c.fault,
            shed = c.shed,
            t408 = c.timeout_408,
            t413 = c.too_large,
            aborted = c.aborted,
            closed = c.closed,
            demoted = c.demoted,
            malformed = c.malformed,
            elapsed = report.timing.elapsed.as_secs_f64() * 1e3,
            rps = report.timing.req_per_s,
            lc = lat.count,
            p50 = lat.quantile_ns(0.50),
            p95 = lat.quantile_ns(0.95),
            p99 = lat.quantile_ns(0.99),
            lmax = lat.max,
            s_acc = stats.accepted(),
            s_srv = stats.served(),
            s_shed = stats.shed(),
            s_to = stats.timeouts(),
            s_qto = stats.queue_timeouts(),
            s_ws = stats.write_stalls(),
            s_dem = stats.demoted(),
            s_adm = stats.admin(),
            s_ids = stats.request_ids_issued(),
            s_fb = stats.responses_fallback(),
            acc_ok = accounted == exchange_ops,
            scr_ok = scrape_accounted == scrape_requests,
        );
        if let Err(e) = std::fs::write(path, json) {
            return fail(format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote {path}");
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        fail("loadgen invariants violated")
    }
}

/// Options for `wsitool watch`.
struct WatchOpts {
    addr: std::net::SocketAddr,
    interval_ms: u64,
    count: usize,
    /// Snapshot-ring capacity (oldest frames evicted beyond it).
    ring: usize,
    timeout_ms: u64,
    /// Show unchanged samples too (default: changed rows only).
    all: bool,
    /// Where to persist the checksummed snapshot ring (`None` = don't).
    snapshots: Option<String>,
}

impl WatchOpts {
    fn parse(mut args: Args) -> Result<WatchOpts, String> {
        let mut addr = None;
        let mut o = WatchOpts {
            addr: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
            interval_ms: 1_000,
            count: 5,
            ring: 60,
            timeout_ms: 2_000,
            all: false,
            snapshots: None,
        };
        while let Some(arg) = args.next() {
            match arg {
                "--addr" => addr = Some(args.num(arg)?),
                "--interval-ms" => o.interval_ms = args.num(arg)?,
                "--count" => o.count = args.num(arg)?,
                "--ring" => o.ring = args.num(arg)?,
                "--timeout-ms" => o.timeout_ms = args.num(arg)?,
                "--all" => o.all = true,
                "--snapshots" => o.snapshots = args.path(arg)?,
                bare => return Err(unrecognized(bare)),
            }
        }
        o.addr = addr.ok_or("watch needs --addr HOST:PORT")?;
        o.interval_ms = o.interval_ms.max(1);
        o.count = o.count.max(1);
        o.ring = o.ring.max(1);
        o.timeout_ms = o.timeout_ms.max(1);
        Ok(o)
    }
}

/// Live introspection loop (DESIGN.md §16): poll `/metrics` +
/// `/healthz` on a running wire server, print a deterministic
/// counter-rate / gauge-delta table for each consecutive pair of
/// scrapes, and journal every parsed scrape into a checksummed
/// snapshot ring. Frame timestamps are run-relative milliseconds, so
/// a persisted journal diffs the same way the live session did. A
/// monotonic sample moving backwards is a counter regression and
/// fails the run.
fn watch_cmd(opts: &WatchOpts) -> ExitCode {
    let timeout = std::time::Duration::from_millis(opts.timeout_ms);
    let mut ring = wire::SnapshotRing::new(opts.ring);
    let mut prev: Option<std::collections::BTreeMap<String, u64>> = None;
    let started = std::time::Instant::now();
    for iteration in 0..opts.count {
        if iteration > 0 {
            std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
        }
        let (health_status, health_body) =
            match wire::scrape_text(opts.addr, "/healthz", timeout) {
                Ok(reply) => reply,
                Err(e) => return fail(format!("healthz scrape failed: {e}")),
            };
        let (status, text) = match wire::scrape_text(opts.addr, "/metrics", timeout) {
            Ok(reply) => reply,
            Err(e) => return fail(format!("metrics scrape failed: {e}")),
        };
        if status != 200 {
            return fail(format!("/metrics answered {status}, expected 200"));
        }
        let samples = match wire::parse_prometheus(&text) {
            Ok(samples) => samples,
            Err(e) => return fail(format!("unparseable /metrics payload: {e}")),
        };
        let at_ms = started.elapsed().as_millis() as u64;
        let seq = ring.push(at_ms, samples.clone());
        println!(
            "scrape {seq}: {} sample(s), healthz {health_status} {}",
            samples.len(),
            health_body.trim_end(),
        );
        if let Some(prev) = &prev {
            let rows = wire::diff_samples(prev, &samples, opts.interval_ms);
            print!("{}", wire::render_diff_table(&rows, !opts.all));
            let resets = rows
                .iter()
                .filter(|row| row.kind == wire::SampleKind::Counter && row.delta < 0)
                .count();
            if resets > 0 {
                return fail(format!(
                    "counter regression: {resets} monotonic sample(s) moved backwards"
                ));
            }
        }
        prev = Some(samples);
    }
    if let Some(path) = &opts.snapshots {
        if let Err(e) = ring.persist(std::path::Path::new(path)) {
            return fail(format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote {} snapshot frame(s) to {path}", ring.frames.len());
    }
    ExitCode::SUCCESS
}

/// Options for `wsitool exchange-survey`.
struct SurveyOpts {
    stride: usize,
    transport: ExchangeTransport,
    addr: Option<std::net::SocketAddr>,
    shutdown_server: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl SurveyOpts {
    fn parse(mut args: Args) -> Result<SurveyOpts, String> {
        let mut o = SurveyOpts {
            stride: 200,
            transport: ExchangeTransport::default(),
            addr: None,
            shutdown_server: false,
            trace_out: None,
            metrics_out: None,
        };
        while let Some(arg) = args.next() {
            match arg {
                "--stride" => o.stride = args.num(arg)?,
                "--transport" => o.transport = parse_transport(&mut args)?,
                "--addr" => o.addr = Some(args.num(arg)?),
                "--shutdown-server" => o.shutdown_server = true,
                "--trace-out" => o.trace_out = args.path(arg)?,
                "--metrics-out" => o.metrics_out = args.path(arg)?,
                bare => return Err(unrecognized(bare)),
            }
        }
        o.stride = o.stride.max(1);
        if o.addr.is_some() && o.transport != ExchangeTransport::TcpLoopback {
            return Err("--addr only makes sense with --transport tcp".into());
        }
        if o.shutdown_server && o.addr.is_none() {
            return Err("--shutdown-server needs --addr (it stops that server)".into());
        }
        Ok(o)
    }
}

/// Runs the Communication/Execution survey over either transport.
///
/// Everything on stdout except the leading `transport:` line is
/// byte-identical between `in-process` and `tcp` (experiment E15) —
/// CI diffs the two outputs with that one line filtered out.
/// Operational notes go to stderr so they never perturb the diff.
fn exchange_survey(opts: &SurveyOpts) -> ExitCode {
    println!("transport: {}", opts.transport);
    // Telemetry is opt-in here and always observe-only: spans for the
    // in-process exchange, wire counters + latency histograms for TCP.
    // Every byte of it lands on stderr or in files, never in the
    // E15-diffed stdout.
    let obs = Obs::new(Clock::monotonic());
    if let Some(path) = &opts.trace_out {
        if let Err(e) = obs.set_trace_out(std::path::Path::new(path)) {
            return fail(format!("cannot open trace output {path}: {e}"));
        }
    }
    let observing = opts.trace_out.is_some() || opts.metrics_out.is_some();
    let sites = match opts.transport {
        ExchangeTransport::InProcess => {
            survey_sites_observed(opts.stride, observing.then_some(&obs))
        }
        ExchangeTransport::TcpLoopback => {
            let client = wire::WireClient::new(wire::WireClientConfig {
                metrics: observing.then(|| obs.metrics_arc()),
                ..wire::WireClientConfig::default()
            });
            match opts.addr {
                Some(addr) => {
                    let sites = wire::survey_tcp(opts.stride, addr, &client);
                    if opts.shutdown_server {
                        match client.post(
                            addr,
                            wire::SHUTDOWN_PATH,
                            "",
                            b"",
                            wire::SHUTDOWN_PATH,
                        ) {
                            Ok(_) => eprintln!("note: asked {addr} to shut down"),
                            Err(e) => {
                                return fail(format!(
                                    "shutdown request to {addr} failed: {}",
                                    e.reason()
                                ))
                            }
                        }
                    }
                    sites
                }
                None => {
                    // Self-host on an ephemeral port: the loopback twin
                    // of the in-process survey, torn down on the way out.
                    let server = match wire::WireServer::start(
                        0,
                        wire::host_survey_services(opts.stride),
                        wire::WireServerConfig {
                            metrics: observing.then(|| obs.metrics_arc()),
                            ..wire::WireServerConfig::default()
                        },
                    ) {
                        Ok(server) => server,
                        Err(e) => return fail(format!("cannot bind loopback endpoint: {e}")),
                    };
                    eprintln!("note: self-hosting at {}", server.addr());
                    let sites = wire::survey_tcp(opts.stride, server.addr(), &client);
                    server.shutdown();
                    sites
                }
            }
        }
    };
    for site in &sites {
        println!("  {}/{}: {}", site.server, site.fqcn, site.outcome);
    }
    let survey = ExchangeSurvey::tally(&sites);
    println!(
        "exchange survey: {} surveyed, {} completed, {} not invocable, {} faulted",
        survey.total(),
        survey.completed,
        survey.not_invocable,
        survey.faulted
    );
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = std::fs::write(path, obs.metrics_text()) {
            return fail(format!("cannot write {path}: {e}"));
        }
        eprintln!("metrics: wrote {path}");
    }
    ExitCode::SUCCESS
}

/// Options for `wsitool bench-campaign`.
struct BenchOpts {
    stride: usize,
    iters: usize,
    out: Option<String>,
    full_stride: Option<usize>,
    full_shards: Option<usize>,
    skip_full: bool,
    scaling: bool,
}

impl BenchOpts {
    fn parse(mut args: Args) -> Result<BenchOpts, String> {
        let mut o = BenchOpts {
            stride: 200,
            iters: 5,
            out: None,
            full_stride: None,
            full_shards: None,
            skip_full: false,
            scaling: false,
        };
        while let Some(arg) = args.next() {
            match arg {
                "--stride" => o.stride = args.num(arg)?,
                "--iters" => o.iters = args.num(arg)?,
                "--out" => o.out = args.path(arg)?,
                "--full-stride" => o.full_stride = Some(args.num(arg)?),
                "--full-shards" => o.full_shards = Some(args.num(arg)?),
                "--skip-full" => o.skip_full = true,
                "--scaling" => o.scaling = true,
                bare => return Err(unrecognized(bare)),
            }
        }
        if o.skip_full && (o.full_stride.is_some() || o.full_shards.is_some()) {
            return Err("--full-stride and --full-shards size the full-matrix run; drop --skip-full".into());
        }
        o.stride = o.stride.max(1);
        o.iters = o.iters.max(1);
        Ok(o)
    }
}

/// Times the stride-`N` campaign generating from the shared deploy-time
/// parse and down the per-cell text path, and writes the comparison
/// (wall times + parse counters) as a machine-readable JSON snapshot, so CI can track the
/// perf trajectory run over run.
///
/// Unless `--skip-full`, it then runs the *full stride-1 paper matrix*
/// through the sharded supervisor (the bench process is the parent),
/// records the wall clock and shard/respawn accounting, and checks the
/// merged totals against the paper's published headline numbers — the
/// `full_matrix` block of the snapshot, gated in CI.
fn bench_campaign(opts: &BenchOpts) -> ExitCode {
    let &BenchOpts { stride, iters, full_stride, full_shards, skip_full, scaling, .. } = opts;
    let out = opts.out.as_deref().unwrap_or("BENCH_campaign.json");
    println!("benchmarking stride-{stride} campaign, {iters} iteration(s) per mode…");
    echo_run_config(stride, None, &Campaign::sampled(stride));

    let journal_path = std::env::temp_dir().join(format!(
        "wsitool-bench-{}-{stride}.journal",
        std::process::id()
    ));
    // All bench timing flows through the telemetry clock — the same
    // span source instrumented campaigns use — rather than ad-hoc
    // `Instant::now()` stopwatches per subcommand.
    let clock = Clock::monotonic();
    let run_once = |make: &dyn Fn() -> Campaign| -> f64 {
        let span = clock.start_span("bench-campaign/iteration");
        let _ = std::hint::black_box(make().run());
        span.elapsed_ns() as f64 / 1e6
    };

    // Warm-up (page cache, allocator), then measure the four modes:
    // shared parse, per-cell parse, shared parse + write-ahead journal
    // (the robustness layer's cost), and shared parse + telemetry
    // observer (the observability layer's cost).
    //
    // The modes are *interleaved* round-robin and each reports its
    // minimum across rounds: on a shared container the noise is
    // one-sided (scheduling only ever slows a run down) and
    // non-stationary (ambient load drifts between rounds), so
    // sequential medians of overlapping modes can even invert an
    // overhead below zero. Interleaving exposes every mode to the
    // same drift; the minimum picks each mode's quietest round.
    let _ = Campaign::sampled(stride).run();
    let mut mins = [f64::INFINITY; 4];
    for _ in 0..iters {
        mins[0] = mins[0].min(run_once(&|| Campaign::sampled(stride)));
        mins[1] = mins[1].min(run_once(&|| Campaign::sampled(stride).with_doc_cache(false)));
        mins[2] =
            mins[2].min(run_once(&|| {
                Campaign::sampled(stride).with_journal(journal_path.as_path())
            }));
        mins[3] = mins[3].min(run_once(&|| {
            Campaign::sampled(stride)
                .with_observer(std::sync::Arc::new(Obs::new(Clock::monotonic())))
        }));
    }
    std::fs::remove_file(&journal_path).ok();
    let [shared_ms, per_cell_ms, journal_ms, instrumented_ms] = mins;

    let (results, _, shared_stats) = Campaign::sampled(stride).run_with_stats();
    let (_, _, per_cell_stats) = Campaign::sampled(stride)
        .with_doc_cache(false)
        .run_with_stats();
    let deployed = results.services.iter().filter(|s| s.deployed).count();
    let speedup = per_cell_ms / shared_ms.max(f64::EPSILON);
    let journal_overhead_pct = (journal_ms / shared_ms.max(f64::EPSILON) - 1.0) * 100.0;
    let instrumentation_overhead_pct =
        (instrumented_ms / shared_ms.max(f64::EPSILON) - 1.0) * 100.0;
    let config_hash = Campaign::sampled(stride).config_hash();

    let scaling_json = if !scaling {
        "null".to_string()
    } else {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Doubling ladder, always ending at the core count: 1, 2, 4, …
        // On a single-core box this degenerates to [1] and the
        // efficiency below is exactly 1.0 by construction.
        let mut ladder = vec![1usize];
        let mut next = 2usize;
        while next < cores {
            ladder.push(next);
            next *= 2;
        }
        if cores > 1 {
            ladder.push(cores);
        }
        println!("scaling: thread ladder {ladder:?} on {cores} core(s)…");

        // Wall clock per thread count, interleaved min-of-rounds like
        // the mode bench above (same one-sided-noise reasoning).
        let mut walls = vec![f64::INFINITY; ladder.len()];
        for _ in 0..iters {
            for (i, &threads) in ladder.iter().enumerate() {
                walls[i] =
                    walls[i].min(run_once(&|| Campaign::sampled(stride).with_threads(threads)));
            }
        }
        let t1 = walls[0];
        let jmax = *ladder.last().expect("ladder never empty");
        let tj = *walls.last().expect("ladder never empty");
        // Near-linear scaling ⇒ t(-jN) ≈ t(-j1)/N ⇒ efficiency ≈ 1.
        let efficiency = t1 / (jmax as f64 * tj.max(f64::EPSILON));

        // Bit-identity across the ladder: results, the virtual-clock
        // metrics export and the canonicalized trace stream at every
        // thread count must equal the -j1 run's. (Trace seq and line
        // order legitimately vary with worker interleaving, so events
        // are compared with seq zeroed, sorted — same set, same
        // payloads.)
        let observed_run = |threads: usize| {
            let obs = std::sync::Arc::new(Obs::new(Clock::virtual_seeded(42)));
            let results = Campaign::sampled(stride)
                .with_threads(threads)
                .with_observer(std::sync::Arc::clone(&obs))
                .run();
            let metrics = obs.metrics_json();
            let mut lines: Vec<String> = obs
                .trace()
                .drain()
                .into_iter()
                .map(|mut event| {
                    event.seq = 0;
                    event.to_json_line()
                })
                .collect();
            lines.sort();
            (results, metrics, lines)
        };
        let baseline = observed_run(1);
        let mut outputs_identical = true;
        for &threads in ladder.iter().skip(1) {
            let run = observed_run(threads);
            if run != baseline {
                outputs_identical = false;
                eprintln!(
                    "scaling: -j{threads} output diverged from -j1 \
                     (results {}, metrics {}, traces {})",
                    if run.0 == baseline.0 { "ok" } else { "DIFFER" },
                    if run.1 == baseline.1 { "ok" } else { "DIFFER" },
                    if run.2 == baseline.2 { "ok" } else { "DIFFER" },
                );
            }
        }

        let points: Vec<String> = ladder
            .iter()
            .zip(&walls)
            .map(|(threads, wall)| {
                format!("{{ \"threads\": {threads}, \"wall_ms\": {wall:.3} }}")
            })
            .collect();
        // On a single-core box the ladder degenerates to [1] and
        // t1/(1·t1) is 1.0 *by construction* — a vacuous pass. Record
        // the gate as skipped so CI asserts nothing it didn't measure.
        let efficiency_gate = if ladder.len() > 1 { "enforced" } else { "skipped" };
        println!(
            "scaling: -j1 {t1:.1} ms → -j{jmax} {tj:.1} ms; efficiency {efficiency:.2} \
             ({efficiency_gate}); outputs identical across ladder: {outputs_identical}"
        );
        format!(
            "{{ \"cores\": {cores}, \"points\": [{}], \
             \"scaling_efficiency\": {efficiency:.3}, \
             \"efficiency_gate\": \"{efficiency_gate}\", \
             \"outputs_identical\": {outputs_identical} }}",
            points.join(", ")
        )
    };

    let full_matrix = if skip_full {
        "null".to_string()
    } else {
        let full_stride = full_stride.unwrap_or(1).max(1);
        let full_shards = full_shards
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(3, |n| n.get().clamp(2, 4))
            })
            .max(1);
        println!(
            "full matrix: stride {full_stride} across {full_shards} supervised worker shard(s)…"
        );
        let dir = std::env::temp_dir().join(format!(
            "wsitool-bench-shards-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return fail(format!("cannot locate own executable: {e}")),
        };
        let spawner = |spec: ShardSpec, _attempt: usize| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("campaign")
                .arg(full_stride.to_string())
                .arg("--shard")
                .arg(spec.to_string())
                .arg("--shard-dir")
                .arg(&dir)
                .arg("--quiet");
            cmd
        };
        let span = clock.start_span("bench-campaign/full-matrix");
        let outcome = match Supervisor::new(&dir, full_shards, spawner).run() {
            Ok(outcome) => outcome,
            Err(e) => return fail(format!("full-matrix supervision failed: {e}")),
        };
        let wall_ms = span.elapsed_ns() as f64 / 1e6;
        if !outcome.all_completed() {
            return fail("full-matrix supervision gave up; bench aborted");
        }
        let merged = match merge_shard_dir(&dir, full_shards) {
            Ok(merged) => merged,
            Err(e) => return fail(format!("full-matrix merge refused: {e}")),
        };
        if let Err(e) = verify_exactly_once(&merged, all_clients().len()) {
            return fail(format!("full-matrix exactly-once verification failed: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
        use wsinterop::core::expected;
        let created = merged.results.services.len();
        let full_deployed = merged.results.services.iter().filter(|s| s.deployed).count();
        let full_tests = merged.results.tests.len();
        let golden = full_stride == 1
            && created == expected::TOTAL_CREATED
            && full_deployed == expected::TOTAL_DEPLOYED
            && full_tests == expected::TOTAL_TESTS;
        println!(
            "full matrix: {created} created, {full_deployed} deployed, {full_tests} tests \
             in {wall_ms:.0} ms ({} respawn(s)); golden={golden}",
            outcome.respawns
        );
        format!(
            "{{ \"stride\": {full_stride}, \"shards\": {full_shards}, \"wall_ms\": {wall_ms:.3}, \
             \"respawns\": {respawns}, \"hung_workers\": {hung}, \
             \"reclaimed_cells\": {reclaimed}, \"chunks_reclaimed\": {chunks}, \
             \"services_created\": {created}, \"services_deployed\": {full_deployed}, \
             \"tests_classified\": {full_tests}, \"golden\": {golden} }}",
            respawns = outcome.respawns,
            hung = outcome.hung_workers,
            reclaimed = outcome.reclaimed_cells,
            chunks = outcome.chunks_reclaimed,
        )
    };

    let json = format!(
        "{{\n  \"bench\": \"campaign_scaling/stride-{stride}\",\n  \
         \"stride\": {stride},\n  \
         \"iterations\": {iters},\n  \
         \"config_hash\": \"0x{config_hash:016x}\",\n  \
         \"services_deployed\": {deployed},\n  \
         \"tests_classified\": {tests},\n  \
         \"shared_parse_ms\": {shared_ms:.3},\n  \
         \"per_cell_parse_ms\": {per_cell_ms:.3},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"journal_ms\": {journal_ms:.3},\n  \
         \"journal_overhead_pct\": {journal_overhead_pct:.1},\n  \
         \"instrumented_ms\": {instrumented_ms:.3},\n  \
         \"instrumentation_overhead_pct\": {instrumentation_overhead_pct:.1},\n  \
         \"shared\": {{ \"parses\": {sp}, \"distinct_docs\": {sd}, \"gen_runs\": {sg} }},\n  \
         \"per_cell\": {{ \"parses\": {pp}, \"text_generates\": {pt} }},\n  \
         \"scaling\": {scaling_json},\n  \
         \"full_matrix\": {full_matrix}\n}}\n",
        tests = results.tests.len(),
        sp = shared_stats.parses,
        sd = shared_stats.distinct_docs,
        sg = shared_stats.gen_runs,
        pp = per_cell_stats.parses,
        pt = per_cell_stats.text_generates,
    );
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    println!(
        "shared {shared_ms:.1} ms vs per-cell {per_cell_ms:.1} ms ({speedup:.2}x); \
         journal overhead {journal_overhead_pct:+.1}%; \
         instrumentation overhead {instrumentation_overhead_pct:+.1}%; wrote {out}"
    );
    ExitCode::SUCCESS
}
