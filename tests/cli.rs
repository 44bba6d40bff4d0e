//! Smoke tests for the `wsitool` CLI binary, driven through the real
//! executable (`CARGO_BIN_EXE_wsitool`).

use std::process::Command;

fn wsitool(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wsitool"))
        .args(args)
        .output()
        .expect("wsitool runs")
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = wsitool(&[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: wsitool"), "{stderr}");
    assert!(stderr.contains("campaign"));
}

#[test]
fn catalogs_lists_all_three_platforms() {
    let out = wsitool(&["catalogs"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["Metro", "JBossWS CXF", "WCF .NET", "deployable services: 2489"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
}

#[test]
fn deploy_prints_wsdl_for_known_class() {
    let out = wsitool(&["deploy", "java.util.Date"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wsdl:definitions"), "{stdout}");
    assert!(stdout.contains("DateService"), "{stdout}");
}

#[test]
fn deploy_fails_for_unknown_class() {
    let out = wsitool(&["deploy", "no.such.Class"]);
    assert!(!out.status.success());
}

#[test]
fn audit_flags_dataset_and_passes_date() {
    let bad = wsitool(&["audit", "System.Data.DataSet"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stdout).contains("NOT conformant"));

    let good = wsitool(&["audit", "java.util.Date"]);
    assert!(good.status.success());
    assert!(String::from_utf8_lossy(&good.stdout).contains("conformant"));
}

#[test]
fn audit_xml_emits_a_conformance_report() {
    let out = wsitool(&["audit", "System.Data.DataSet", "--xml"]);
    assert!(!out.status.success()); // non-conformant → non-zero
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<wsi:report"), "{stdout}");
    assert!(stdout.contains(r#"conformant="false""#), "{stdout}");
    assert!(stdout.contains(r#"assertion="R2105""#), "{stdout}");
}

#[test]
fn matrix_shows_eleven_clients() {
    let out = wsitool(&["matrix", "java.lang.Exception"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Axis1 wsdl2java"), "{stdout}");
    assert!(stdout.contains("compile error"), "{stdout}");
    assert_eq!(stdout.lines().count(), 12); // header + 11 clients
}

/// The classes of the E6–E8 case studies, in `tests/case_studies.rs`
/// order: E6's non-WS-I and operation-less Java classes, E7's DataSet
/// family, then E8's Axis1, Axis2 and Visual Basic defect classes.
const CASE_STUDY_CLASSES: [&str; 13] = [
    "javax.xml.ws.wsaddressing.W3CEndpointReference",
    "java.text.SimpleDateFormat",
    "java.util.concurrent.Future",
    "javax.xml.ws.Response",
    "System.Data.DataSet",
    "System.Data.DataTable",
    "System.Data.DataTableCollection",
    "java.lang.Exception",
    "javax.xml.datatype.XMLGregorianCalendar",
    "System.Web.UI.WebControls.Button",
    "System.Web.UI.WebControls.Label",
    "System.Web.UI.WebControls.TextBox",
    "System.Web.UI.WebControls.CheckBox",
];

#[test]
fn matrix_stdout_is_pinned_for_the_case_study_classes() {
    let mut actual = String::new();
    for fqcn in CASE_STUDY_CLASSES {
        let out = wsitool(&["matrix", fqcn]);
        assert!(out.status.success(), "{fqcn}");
        actual.push_str(&String::from_utf8(out.stdout).expect("UTF-8 stdout"));
    }
    let expected = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/matrix_case_studies.txt"
    ))
    .expect("golden matrix stdout");
    assert_eq!(actual, expected);
}

#[test]
fn invoke_roundtrips_a_value_through_a_bean_field() {
    // java.util.Properties has a string-typed bean field, so the CLI
    // threads the given value into the typed payload.
    let out = wsitool(&["invoke", "java.util.Properties", "cli-probe"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("value: cli-probe"), "{stdout}");
}

#[test]
fn invoke_without_value_echoes_a_sample() {
    let out = wsitool(&["invoke", "java.util.Date"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("echoed value:"), "{stdout}");
}

#[test]
fn export_writes_tsv_files() {
    let dir = std::env::temp_dir().join("wsitool-export-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.to_str().unwrap();
    let out = wsitool(&["export", "400", dir_str]);
    assert!(out.status.success());
    let tests = std::fs::read_to_string(dir.join("tests.tsv")).unwrap();
    assert!(tests.starts_with("server\tclient\tclass"));
    assert!(tests.lines().count() > 100);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_prints_a_fault_report_and_succeeds() {
    let out = wsitool(&["chaos", "--stride", "200", "--seed", "42"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The run config echo pins seed and config hash for reproduction.
    assert!(
        stdout.contains("run config: stride=200 seed=42 config-hash=0x"),
        "{stdout}"
    );
    assert!(stdout.contains("Fault report"), "{stdout}");
    assert!(
        stdout.contains("campaign completed without aborting"),
        "{stdout}"
    );
    // The chaos run still renders the paper reports.
    assert!(stdout.contains("Campaign totals"), "{stdout}");
}

#[test]
fn complexity_prints_the_matrix() {
    let out = wsitool(&["complexity"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("success rate"), "{stdout}");
    assert!(stdout.contains("style=rpc"), "{stdout}");
}

#[test]
fn campaign_echoes_its_run_config() {
    let out = wsitool(&["campaign", "400"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Fault-free runs echo `seed=-`: the hash alone pins the config.
    assert!(
        stdout.contains("run config: stride=400 seed=- config-hash=0x"),
        "{stdout}"
    );
}

#[test]
fn usage_errors_exit_2_and_runtime_errors_exit_1() {
    // Usage: unknown command, unknown flag, unparsable flag value.
    for args in [
        &["no-such-command"][..],
        &["chaos", "--transport", "carrier-pigeon"][..],
        &["serve", "--port", "not-a-port"][..],
        &["exchange-survey", "--addr", "127.0.0.1:1"][..], // --addr without tcp
    ] {
        let out = wsitool(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    // Runtime: well-formed request that fails while executing.
    for args in [
        &["deploy", "no.such.Class"][..],
        &["invoke", "no.such.Class"][..],
    ] {
        let out = wsitool(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
    }
}

#[test]
fn exchange_survey_is_transport_invariant() {
    let in_process = wsitool(&["exchange-survey", "--stride", "200"]);
    assert!(in_process.status.success());
    let tcp = wsitool(&["exchange-survey", "--stride", "200", "--transport", "tcp"]);
    assert!(tcp.status.success());

    let strip = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("transport:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    // E15 at the CLI layer: everything but the transport banner is
    // byte-identical (this is exactly what the CI smoke step diffs).
    assert_eq!(strip(&in_process), strip(&tcp));
    assert!(String::from_utf8_lossy(&in_process.stdout).contains("transport: in-process"));
    assert!(String::from_utf8_lossy(&tcp.stdout).contains("transport: tcp"));
    assert!(
        String::from_utf8_lossy(&tcp.stdout).contains("exchange survey: 38 surveyed"),
        "{}",
        String::from_utf8_lossy(&tcp.stdout)
    );
}

#[test]
fn chaos_over_tcp_still_completes_and_reports() {
    let out = wsitool(&["chaos", "--stride", "400", "--seed", "42", "--transport", "tcp"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tcp transport"), "{stdout}");
    assert!(stdout.contains("Fault report"), "{stdout}");
    assert!(
        stdout.contains("campaign completed without aborting"),
        "{stdout}"
    );
}

#[test]
fn journal_inspect_agrees_with_the_campaign_config_hash() {
    let path = std::env::temp_dir().join(format!("wsitool-cli-inspect-{}.journal", std::process::id()));
    let path_str = path.to_str().unwrap();
    let run = wsitool(&["campaign", "400", "--journal", path_str]);
    assert!(run.status.success());
    let run_out = String::from_utf8_lossy(&run.stdout);
    let hash = run_out
        .lines()
        .find_map(|l| l.split_whitespace().find(|w| w.starts_with("config-hash=0x")))
        .expect("campaign echoes its config hash")
        .to_string();

    let inspect = wsitool(&["journal", "inspect", path_str]);
    assert!(inspect.status.success());
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    assert!(stdout.contains(&hash), "hash mismatch ({hash}):\n{stdout}");
    assert!(stdout.contains("cells: 220"), "{stdout}");
    assert!(stdout.contains("torn tail: 0 byte(s)"), "{stdout}");
    assert!(stdout.contains("per-client cells:"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_inspect_json_is_machine_readable() {
    let path = std::env::temp_dir().join(format!(
        "wsitool-cli-inspect-json-{}.journal",
        std::process::id()
    ));
    let path_str = path.to_str().unwrap();
    let run = wsitool(&["campaign", "400", "--journal", path_str]);
    assert!(run.status.success());

    // Flag order must not matter.
    let first = wsitool(&["journal", "inspect", path_str, "--json"]);
    let second = wsitool(&["journal", "inspect", "--json", path_str]);
    assert!(first.status.success());
    assert_eq!(first.stdout, second.stdout);

    let stdout = String::from_utf8_lossy(&first.stdout);
    assert_eq!(stdout.lines().count(), 1, "single JSON line:\n{stdout}");
    for needle in [
        "{\"journal\":",
        "\"config_hash\":\"0x",
        "\"cells\":220",
        "\"breaker_skipped\":0",
        "\"torn_bytes\":0",
        "\"per_server\":{",
        "\"Metro\":",
        "\"per_client\":{",
    ] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_subcommand_prints_deterministic_prometheus_text() {
    let first = wsitool(&["metrics", "--stride", "400", "--seed", "42"]);
    assert!(first.status.success());
    let second = wsitool(&["metrics", "--stride", "400", "--seed", "42"]);
    // The virtual clock makes two invocations byte-identical.
    assert_eq!(first.stdout, second.stdout);
    let stdout = String::from_utf8_lossy(&first.stdout);
    for needle in [
        "campaign_cells_total 220",
        "obs_events_dropped 0",
        "phase_generate_ns_count",
        "doccache_parses_total",
    ] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }

    let json = wsitool(&["metrics", "--stride", "400", "--seed", "42", "--json"]);
    assert!(json.status.success());
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.starts_with("{\"counters\":{"), "{stdout}");
    assert!(stdout.contains("\"histograms\""), "{stdout}");
}

#[test]
fn telemetry_flags_never_touch_campaign_stdout() {
    let tmp = std::env::temp_dir();
    let trace = tmp.join(format!("wsitool-cli-trace-{}.jsonl", std::process::id()));
    let metrics = tmp.join(format!("wsitool-cli-metrics-{}.txt", std::process::id()));

    let plain = wsitool(&["campaign", "400"]);
    assert!(plain.status.success());
    let instrumented = wsitool(&[
        "campaign",
        "400",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(instrumented.status.success());
    // Observe-only at the CLI layer too: stdout is the scientific
    // record and stays byte-identical; all telemetry goes to stderr
    // and the requested files.
    assert_eq!(plain.stdout, instrumented.stdout);

    let stderr = String::from_utf8_lossy(&instrumented.stderr);
    assert!(stderr.contains("Phase latency"), "{stderr}");
    assert!(stderr.contains("Slowest cells"), "{stderr}");

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.lines().count() > 100, "trace too short");
    assert!(trace_text.lines().all(|l| l.starts_with("{\"seq\":")));
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(metrics_text.contains("obs_events_dropped 0"), "{metrics_text}");

    // --quiet suppresses the stderr report but not the files.
    let quiet = wsitool(&["campaign", "400", "--quiet"]);
    assert!(quiet.status.success());
    assert_eq!(plain.stdout, quiet.stdout);
    assert!(!String::from_utf8_lossy(&quiet.stderr).contains("Phase latency"));

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn telemetry_usage_errors_exit_2() {
    for args in [
        &["metrics", "--no-such-flag"][..],
        &["metrics", "--stride", "many"][..],
        &["campaign", "400", "--trace-out"][..], // missing value
    ] {
        let out = wsitool(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
