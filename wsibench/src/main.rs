//! `wsibench`: one benchmark for the paper matrix, the chaos campaign
//! and the wire server.
//!
//! ```text
//! wsibench [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]]
//!          [--trace-out FILE] [--out FILE] [--smoke]
//! ```
//!
//! Without `--workload`, every workload runs in a child process of its
//! own, so peak memory is measured per workload. Each run prints one
//! `name value unit n=samples` line per metric and, as its last line, a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero when any output check fails.
//!
//! An untraced run reports the end-to-end metrics, its times scaled to a
//! reference host speed (see [`probe`]); a traced run (`--trace 1`)
//! reports the per-layer metrics from in-memory spans.
//! The seed is the benchmark's input only: it picks the fault plan and
//! the request order, and the program receives just the generated
//! inputs. The paper matrix has no seeded input.

mod campaign;
mod metrics;
mod probe;
mod serve;
mod stats;
mod trace;

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use campaign::Spec;
use metrics::{Report, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The workloads, in the order a full run executes them.
const WORKLOADS: [&str; 4] = ["matrix", "chaos", "serve_churn", "serve_keepalive"];

const USAGE: &str = "usage: wsibench [--workload matrix|chaos|serve_churn|serve_keepalive] \
[--seed N] [--seconds N] [--trace [0|1]] [--trace-out FILE] [--out FILE] [--smoke]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    workload: Option<String>,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the measured phase of a run lasts.
    pub measure: Duration,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
    /// The arguments as given, for child processes.
    seconds_arg: Option<String>,
}

impl Options {
    /// Load before the measured phase of a serving run.
    pub fn warmup(&self) -> Duration {
        if self.smoke {
            Duration::from_millis(100)
        } else {
            Duration::from_millis(500)
        }
    }

    /// The survey corpus the serving workloads host: 364 invocable
    /// services at stride 20.
    pub fn serve_stride(&self) -> usize {
        if self.smoke {
            200
        } else {
            20
        }
    }

    /// The campaign stride: the paper's full matrix.
    fn campaign_stride(&self) -> usize {
        if self.smoke {
            200
        } else {
            1
        }
    }
}

/// Nanoseconds since `started`.
pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Load threads and campaign workers: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 42,
        measure: Duration::from_secs(20),
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
        seconds_arg: None,
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(i, "--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                opts.workload = Some(w);
                i += 1;
            }
            "--seed" => {
                opts.seed = value(i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                let s = value(i, "--seconds")?;
                let secs: f64 = s.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                opts.measure = Duration::from_secs_f64(secs);
                opts.seconds_arg = Some(s);
                i += 1;
            }
            "--trace" => {
                opts.trace = true;
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        opts.trace = false;
                        i += 1;
                    }
                    Some("1") => i += 1,
                    _ => {}
                }
            }
            "--trace-out" => {
                opts.trace_out = Some(value(i, "--trace-out")?.into());
                i += 1;
            }
            "--out" => {
                opts.out = Some(value(i, "--out")?.into());
                i += 1;
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if opts.smoke {
        opts.measure = opts.measure.min(Duration::from_millis(300));
    }
    Ok(opts)
}

/// Where runs keep temporary files: under the build directory, inside
/// the checkout.
fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        )
        .join("wsibench-scratch")
}

/// Records the process's peak resident set so far (`VmHWM`), in MiB,
/// as `peak_rss_mb`.
pub fn record_peak_rss(report: &mut Report) {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match kib {
        Some(kib) => report.set("peak_rss_mb", kib / 1024.0, 1),
        None => report
            .problems
            .push("no VmHWM in /proc/self/status".to_string()),
    }
}

fn campaign_spec(workload: &str, opts: &Options, scratch: &std::path::Path) -> Spec {
    let chaos = workload == "chaos";
    Spec {
        stride: opts.campaign_stride(),
        faults: chaos.then_some(opts.seed),
        journal: chaos.then(|| scratch.join(format!("chaos-{}.journal", std::process::id()))),
    }
}

fn run_one(workload: &str, opts: &Options) -> ExitCode {
    let scratch = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("wsibench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let mut tracer = Tracer::new(Instant::now());
    let keep_alive = workload == "serve_keepalive";
    let mut report = Report::default();
    match workload {
        "matrix" | "chaos" => {
            let spec = campaign_spec(workload, opts, &scratch);
            if opts.trace {
                report.attempted = 2;
                campaign::trace_layers(&spec, &scratch, &mut tracer, &mut report);
                serve::trace_probe(opts, &mut tracer, &mut report);
            } else {
                let threads = if workload == "matrix" { 1 } else { nproc() };
                report = campaign::run(&spec, threads, opts);
            }
            if let Some(journal) = &spec.journal {
                let _ = std::fs::remove_file(journal);
            }
        }
        _ if opts.trace => {
            serve::trace(keep_alive, opts, &mut tracer, &mut report);
            let spec = Spec {
                stride: opts.serve_stride(),
                faults: None,
                journal: None,
            };
            campaign::trace_layers(&spec, &scratch, &mut tracer, &mut report);
            report.attempted += 2;
        }
        _ => report = serve::run(keep_alive, opts),
    }
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    report.seal(declared);

    if opts.trace {
        eprintln!(
            "{:<32} {:>9} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, count, total, own) in tracer.summary() {
            eprintln!(
                "{name:<32} {count:>9} {:>12.6} {:>12.6}",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
        if let Some(path) = &opts.trace_out {
            if let Err(e) = tracer.write_jsonl(path) {
                report
                    .problems
                    .push(format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    for problem in &report.problems {
        eprintln!("wsibench: {workload}: check failed: {problem}");
    }
    let json = report.json(declared);
    print!("{}", report.human(declared));
    println!("{json}");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("wsibench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, relaying its output;
/// `--out` collects each workload's result line.
fn run_all(opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wsibench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = String::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()]);
        cmd.args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(seconds) = &opts.seconds_arg {
            cmd.args(["--seconds", seconds]);
        }
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &opts.trace_out {
            cmd.arg("--trace-out")
                .arg(format!("{}.{workload}", path.display()));
        }
        let mut child = match cmd.stdout(Stdio::piped()).spawn() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("wsibench: cannot start {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut last = String::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                println!("{line}");
                last = line;
            }
        }
        ok &= child.wait().is_ok_and(|status| status.success());
        results.push_str(&format!(
            "{{\"workload\": \"{workload}\", \"result\": {last}}}\n"
        ));
    }
    let _ = std::io::stdout().flush();
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, results) {
            eprintln!("wsibench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("wsibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.workload.clone() {
        Some(workload) => run_one(&workload, &opts),
        None => run_all(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_parses() {
        let opts = parse(&[
            "--workload",
            "chaos",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(opts.workload.as_deref(), Some("chaos"));
        assert_eq!(
            (opts.seed, opts.measure, opts.trace),
            (7, Duration::from_secs(10), false)
        );
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
