//! Supervised multi-process campaign sharding (E17): the partition
//! covers every cell exactly once for any shard count; in-process and
//! process-level merges reproduce the uninterrupted single-process
//! output bit-for-bit; and the supervisor recovers killed, hung and
//! halted workers without perturbing the merged record.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use wsinterop::core::journal::read_journal;
use wsinterop::core::shard::{
    merge_reports, merge_results, ShardSpec, Supervisor, SupervisorConfig, ENTRIES_PER_CHUNK,
};
use wsinterop::core::{Campaign, Clock, FaultPlan, MetricsSnapshot, Obs};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsitool-shard-test-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn wsitool(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wsitool"))
        .args(args)
        .output()
        .expect("wsitool runs")
}

/// The scientific core of a campaign run's stdout: everything except
/// the mode banner, journal/shard bookkeeping and pipeline stats —
/// exactly the filter the CI smoke step applies.
fn scientific_record(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            !l.is_empty()
                && !l.starts_with("running")
                && !l.starts_with("journal")
                && !l.starts_with("shards:")
                && !l.starts_with("Parse-once")
                && !l.starts_with("  parses:")
                && !l.starts_with("  generation:")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

// --- partition ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Disjoint and jointly exhaustive: for any shard count and any
    /// campaign size, every strided entry index is owned by exactly
    /// one shard.
    #[test]
    fn every_strided_entry_is_owned_by_exactly_one_shard(
        entries in 0usize..5000,
        count in 1usize..33,
    ) {
        for strided_index in 0..entries {
            let owners = (0..count)
                .filter(|&k| ShardSpec::new(k, count).owns(strided_index))
                .count();
            prop_assert_eq!(owners, 1, "entry {strided_index} of {count} shards");
            prop_assert_eq!(
                ShardSpec::chunk_of(strided_index),
                strided_index / ENTRIES_PER_CHUNK
            );
        }
    }
}

// --- in-process merge equivalence -----------------------------------

#[test]
fn sharded_runs_merge_to_the_single_process_results() {
    let full = Campaign::sampled(97).run();
    for count in [2usize, 3, 5, 8] {
        let merged = merge_results(
            (0..count).map(|k| Campaign::sampled(97).with_shard(ShardSpec::new(k, count)).run()),
        );
        assert_eq!(full.services, merged.services, "{count} shards");
        assert_eq!(full.tests, merged.tests, "{count} shards");
    }
}

#[test]
fn sharded_chaos_runs_merge_results_and_fault_reports() {
    let chaos = || Campaign::sampled(131).with_faults(FaultPlan::seeded(42));
    // Injected panics are part of the experiment; silence the hook's
    // backtraces exactly as the chaos CLI does.
    std::panic::set_hook(Box::new(|_| {}));
    let (full, full_report) = chaos().run_with_report();
    let parts: Vec<_> = (0..3)
        .map(|k| chaos().with_shard(ShardSpec::new(k, 3)).run_with_report())
        .collect();
    let _ = std::panic::take_hook();
    let merged = merge_results(parts.iter().map(|(r, _)| r.clone()));
    assert_eq!(full.services, merged.services);
    assert_eq!(full.tests, merged.tests);
    let report = merge_reports(parts.into_iter().map(|(_, r)| r)).expect("three reports");
    assert_eq!(full_report, report);
    assert!(merge_reports(std::iter::empty()).is_none());
}

#[test]
fn sharded_metrics_registries_merge_to_the_single_process_snapshot() {
    // The virtual clock makes a span's duration a pure function of
    // (seed, span key), so per-shard histograms are bin-exact slices
    // of the single-process ones and the merge must reproduce the
    // whole snapshot — quantiles included — regardless of process
    // count.
    let observed_run = |shard: Option<ShardSpec>| {
        let obs = std::sync::Arc::new(Obs::new(Clock::virtual_seeded(7)));
        let mut campaign = Campaign::sampled(149).with_observer(std::sync::Arc::clone(&obs));
        if let Some(spec) = shard {
            campaign = campaign.with_shard(spec);
        }
        let _ = campaign.run();
        MetricsSnapshot::parse_json(obs.metrics_json().trim_end()).expect("snapshot parses")
    };
    let single = observed_run(None);
    let mut merged = MetricsSnapshot::default();
    for k in 0..3 {
        merged.merge(&observed_run(Some(ShardSpec::new(k, 3))));
    }
    assert_eq!(single, merged);
    assert_eq!(single.render_json(), merged.render_json());
    assert_eq!(single.render_prometheus(), merged.render_prometheus());
}

#[test]
#[should_panic(expected = "incompatible with the circuit breaker")]
fn sharding_refuses_the_circuit_breaker() {
    let _ = Campaign::sampled(400)
        .with_breaker(wsinterop::core::BreakerConfig::new(2, 6))
        .with_shard(ShardSpec::new(0, 2))
        .run();
}

// --- supervised CLI runs --------------------------------------------

/// Reference output for the supervised CLI tests (stride 100).
fn plain_record() -> String {
    let out = wsitool(&["campaign", "100"]);
    assert!(out.status.success());
    scientific_record(&out.stdout)
}

/// Asserts a finished shard dir merged to the single-process record
/// and returns the merged journal's cell count.
fn assert_merged_matches(dir: &Path, stdout: &[u8], plain: &str) -> usize {
    assert_eq!(scientific_record(stdout), *plain);
    let merged = read_journal(&dir.join("merged.journal")).expect("merged journal reads back");
    assert!(!merged.torn());
    let metrics = std::fs::read_to_string(dir.join("merged.metrics.json")).unwrap();
    assert!(MetricsSnapshot::parse_json(metrics.trim_end()).is_some());
    merged.cells.len()
}

#[test]
fn supervised_campaign_reproduces_the_single_process_run() {
    let plain = plain_record();
    let dir = temp_dir("clean");
    let dir_str = dir.to_str().unwrap();
    let out = wsitool(&["campaign", "100", "--shards", "3", "--shard-dir", dir_str]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("shards: 3 worker(s), 0 respawn(s)"),
        "{stdout}"
    );

    // The merged journal holds one cell per classified test, in the
    // canonical order, under the unsharded config hash.
    let journal_path = std::env::temp_dir().join(format!(
        "wsitool-shard-test-{}-plain.journal",
        std::process::id()
    ));
    let journaled = wsitool(&["campaign", "100", "--journal", journal_path.to_str().unwrap()]);
    assert!(journaled.status.success());
    let single = read_journal(&journal_path).unwrap();
    let merged = read_journal(&dir.join("merged.journal")).unwrap();
    assert_eq!(merged.config_hash, single.config_hash);
    let mut sorted = single.cells.clone();
    sorted.sort_by(|a, b| {
        (a.record.server, a.record.client, a.record.fqcn.clone()).cmp(&(
            b.record.server,
            b.record.client,
            b.record.fqcn.clone(),
        ))
    });
    assert_eq!(merged.cells, sorted);
    assert_merged_matches(&dir, &out.stdout, &plain);
    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn halted_worker_is_respawned_and_the_merge_is_bit_identical() {
    let plain = plain_record();
    let dir = temp_dir("halt");
    let dir_str = dir.to_str().unwrap();
    // Worker 0 exits with the journal-halt code after 40 cells on its
    // first attempt; the supervisor must respawn it and the
    // replacement must resume — not redo — the journaled work.
    let out = wsitool(&[
        "campaign", "100", "--shards", "3", "--shard-dir", dir_str,
        "--worker-halt", "0:40", "--backoff-ms", "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 respawn(s) (0 hung)"), "{stdout}");
    // 40 journaled cells were re-claimed by the replacement worker.
    assert!(stdout.contains("40 cell(s) re-claimed"), "{stdout}");
    assert_merged_matches(&dir, &out.stdout, &plain);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hung_worker_is_detected_killed_and_recovered() {
    let plain = plain_record();
    let dir = temp_dir("hang");
    let dir_str = dir.to_str().unwrap();
    // Worker 0 stalls (sleeps forever) after 10 cells; a 700 ms
    // heartbeat window must flag it as hung, kill it, and respawn.
    let out = wsitool(&[
        "campaign", "100", "--shards", "3", "--shard-dir", dir_str,
        "--worker-stall", "0:10", "--heartbeat-ms", "700", "--backoff-ms", "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 respawn(s) (1 hung)"), "{stdout}");
    assert_merged_matches(&dir, &out.stdout, &plain);
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn sigkilled_worker_is_respawned_and_the_merge_is_bit_identical() {
    let plain = plain_record();
    let dir = temp_dir("kill");
    let dir_str = dir.to_str().unwrap();
    // Stall worker 1 after 25 cells with a heartbeat too long to fire:
    // the worker is guaranteed alive and quiescent when we SIGKILL it,
    // so the supervisor sees a real `kill -9` crash, not a hang.
    let supervisor = Command::new(env!("CARGO_BIN_EXE_wsitool"))
        .args([
            "campaign", "100", "--shards", "3", "--shard-dir", dir_str,
            "--worker-stall", "1:25", "--heartbeat-ms", "60000", "--backoff-ms", "1",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("supervisor starts");

    let journal = ShardSpec::new(1, 3).journal_file(&dir);
    let pid_file = ShardSpec::new(1, 3).pid_file(&dir);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        assert!(std::time::Instant::now() < deadline, "worker 1 never stalled");
        if let Ok(read) = read_journal(&journal) {
            if read.cells.len() >= 25 {
                break; // the stall switch engages on the 25th append
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let pid = std::fs::read_to_string(&pid_file).expect("pid file");
    let killed = Command::new("kill")
        .args(["-9", pid.trim()])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    let out = supervisor.wait_with_output().expect("supervisor finishes");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 respawn(s) (0 hung)"), "{stdout}");
    assert!(stdout.contains("25 cell(s) re-claimed"), "{stdout}");
    assert_merged_matches(&dir, &out.stdout, &plain);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_respawn_budget_exits_4_and_keeps_shard_journals() {
    let dir = temp_dir("give-up");
    let dir_str = dir.to_str().unwrap();
    let out = wsitool(&[
        "campaign", "100", "--shards", "3", "--shard-dir", dir_str,
        "--worker-halt", "1:5", "--max-respawns", "0", "--backoff-ms", "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("supervision gave up"), "{stderr}");
    // No merged output — but the failed shard's journal survives with
    // the five cells it managed, ready for a --resume.
    assert!(!dir.join("merged.journal").exists());
    let read = read_journal(&ShardSpec::new(1, 3).journal_file(&dir)).unwrap();
    assert_eq!(read.cells.len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn supervisor_gives_up_on_a_worker_that_always_dies() {
    let dir = temp_dir("always-dies");
    let supervisor = Supervisor::new(&dir, 2, |spec, _attempt| {
        // Shard 0 succeeds instantly; shard 1 always crashes.
        let mut cmd = Command::new(if spec.index == 0 { "true" } else { "false" });
        cmd.arg("ignored");
        cmd
    })
    .with_config(SupervisorConfig {
        max_respawns: 2,
        backoff_base: std::time::Duration::from_millis(1),
        backoff_cap: std::time::Duration::from_millis(4),
        poll: std::time::Duration::from_millis(2),
        ..SupervisorConfig::default()
    });
    let outcome = supervisor.run().expect("supervision machinery holds");
    assert!(!outcome.all_completed());
    assert_eq!(outcome.gave_up, vec![1]);
    assert_eq!(outcome.respawns, 2);
    assert_eq!(outcome.worker_attempts, vec![1, 3]);
    assert!(outcome.recovered());
    std::fs::remove_dir_all(&dir).ok();
}

// --- fuzz supervision ----------------------------------------------

/// A fuzz run whose shard workers, at `-j 1`, append units for a few
/// seconds in the test profile, so a worker is reliably alive to be
/// killed. Thread count does not change the journal bytes.
const FUZZ_ARGS: [&str; 4] = ["--stride", "5", "--cases", "16"];

#[cfg(unix)]
#[test]
fn sigkilled_fuzz_worker_is_respawned_and_the_merge_is_bit_identical() {
    let dir = temp_dir("fuzz-kill");
    let dir_str = dir.to_str().unwrap();
    let reference = std::env::temp_dir().join(format!(
        "wsitool-shard-test-{}-fuzz-plain.journal",
        std::process::id()
    ));
    let mut plain_args = vec!["fuzz", "--quiet", "--journal", reference.to_str().unwrap()];
    plain_args.extend(FUZZ_ARGS);
    let plain = wsitool(&plain_args);
    assert!(plain.status.success(), "{}", String::from_utf8_lossy(&plain.stderr));

    let mut sharded_args =
        vec!["fuzz", "--quiet", "--shards", "2", "--shard-dir", dir_str, "-j", "1"];
    sharded_args.extend(FUZZ_ARGS);
    let supervisor = Command::new(env!("CARGO_BIN_EXE_wsitool"))
        .args(&sharded_args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("supervisor starts");

    // Kill worker 1 through its pid file once it has committed a unit:
    // the replacement must resume its journal, not redo or drop it.
    let spec = ShardSpec::new(1, 2);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let pid = loop {
        assert!(std::time::Instant::now() < deadline, "worker 1 never committed a unit");
        let committed = read_journal(&spec.journal_file(&dir)).map_or(0, |r| r.fuzz_units.len());
        if committed > 0 {
            break std::fs::read_to_string(spec.pid_file(&dir)).expect("pid file");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let killed = Command::new("kill")
        .args(["-9", pid.trim()])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    let out = supervisor.wait_with_output().expect("supervisor finishes");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let science = |stdout: &[u8]| -> String {
        String::from_utf8_lossy(stdout)
            .lines()
            .filter(|l| !l.starts_with("journal:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(science(&out.stdout), science(&plain.stdout));
    assert_eq!(
        std::fs::read(dir.join("merged.journal")).unwrap(),
        std::fs::read(&reference).unwrap(),
        "merged journal differs from the single-process journal"
    );
    // Worker stderr lands in the shard log, both attempts appended.
    let log = std::fs::read_to_string(spec.log_file(&dir)).unwrap();
    assert_eq!(log.matches("fuzz shard 1/2: journal").count(), 2, "{log}");
    std::fs::remove_file(&reference).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_supervisor_gives_up_on_a_mismatched_shard_journal() {
    let dir = temp_dir("fuzz-give-up");
    let dir_str = dir.to_str().unwrap();
    let small = ["--stride", "400", "--cases", "2", "--quiet"];
    // A shard journal left behind by a run under another seed: every
    // resume of shard 0 refuses it, so its budget runs out.
    let mut seed_args = vec!["fuzz", "--shard", "0/2", "--shard-dir", dir_str, "--seed", "1"];
    seed_args.extend(small);
    assert!(wsitool(&seed_args).status.success());
    let journal = ShardSpec::new(0, 2).journal_file(&dir);
    let seeded = std::fs::read(&journal).unwrap();

    let mut args = vec![
        "fuzz", "--shards", "2", "--shard-dir", dir_str, "--resume", "--max-respawns", "1",
    ];
    args.extend(small);
    let out = wsitool(&args);
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("supervision gave up"), "{stderr}");
    assert!(!dir.join("merged.journal").exists());
    // Both shard journals are kept; the refused one is untouched.
    assert_eq!(std::fs::read(&journal).unwrap(), seeded);
    assert!(ShardSpec::new(1, 2).journal_file(&dir).exists());
    let log = std::fs::read_to_string(ShardSpec::new(0, 2).log_file(&dir)).unwrap();
    assert_eq!(log.matches("does not match this campaign").count(), 2, "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

// --- CLI flag matrix ------------------------------------------------

#[test]
fn sharding_usage_errors_exit_2() {
    for args in [
        // supervisor × worker, and malformed specs
        &["campaign", "--shards", "2", "--shard", "0/2", "--shard-dir", "d"][..],
        &["campaign", "--shards", "0"][..],
        &["campaign", "--shard", "2/2", "--shard-dir", "d"][..],
        &["campaign", "--shard", "0-2", "--shard-dir", "d"][..],
        &["campaign", "--shard", "0/2"][..], // worker without --shard-dir
        // incompatible features
        &["campaign", "--shards", "2", "--breaker", "2"][..],
        &["campaign", "--shards", "2", "--journal", "j"][..],
        &["campaign", "--shards", "2", "--halt-after-cells", "5"][..],
        &["campaign", "--stall-after-cells", "5"][..],
        // supervision knobs outside supervisor mode
        &["campaign", "--worker-halt", "0:5"][..],
        &["campaign", "--worker-stall", "0:5"][..],
        &["campaign", "--shards", "2", "--worker-halt", "2:5"][..], // index out of range
        &["campaign", "--shards", "2", "--worker-halt", "nope"][..],
        // chaos campaigns are single-process
        &["chaos", "--shards", "2"][..],
        &["chaos", "--shard", "0/2", "--shard-dir", "d"][..],
        // single-process fuzz features a sharded fuzz run would drop
        &["fuzz", "--shards", "2", "--halt-after-units", "1"][..],
        &["fuzz", "--shards", "2", "--metrics-out", "m.txt"][..],
        &["fuzz", "--shards", "2", "--trace-out", "t.jsonl"][..],
    ] {
        let out = wsitool(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
