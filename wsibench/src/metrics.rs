//! The declared metrics and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
    ("mean_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics: printed by every traced run, on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.deploy_s", "s"),
    ("server.wsdl_mb", "MB"),
    ("wsdl.parse_s", "s"),
    ("wsdl.parse_mb_per_s", "MB/s"),
    ("doccache.parses_per_doc", "ratio"),
    ("wsi.analyze_s", "s"),
    ("client.generate_s", "s"),
    ("client.gen_errors", "count"),
    ("compilers.compile_s", "s"),
    ("compilers.instantiate_s", "s"),
    ("compilers.crashes", "count"),
    ("doccache.generate_s", "s"),
    ("doccache.memo_overhead_s", "s"),
    ("doccache.gen_hit_ratio", "ratio"),
    ("campaign.wall_j1_s", "s"),
    ("campaign.self_s", "s"),
    ("campaign.jn_speedup", "ratio"),
    ("journal.append_s", "s"),
    ("journal.bytes", "B"),
    ("journal.appends", "count"),
    ("faults.injected", "count"),
    ("faults.detected", "count"),
    ("faults.masked", "count"),
    ("faults.panics_isolated", "count"),
    ("faults.retries", "count"),
    ("wire.connect_p50_us", "us"),
    ("wire.connect_p99_us", "us"),
    ("http.write_request_p50_us", "us"),
    ("wire.wait_p50_us", "us"),
    ("wire.wait_p99_us", "us"),
    ("wire.residual_p99_us", "us"),
    ("exchange.serve_echo_p50_us", "us"),
    ("exchange.serve_echo_p99_us", "us"),
    ("http.parse_request_head_p50_us", "us"),
    ("http.render_response_p50_us", "us"),
    ("soap.request_build_us", "us"),
    ("soap.unwrap_us", "us"),
    ("server.accepted_per_request", "ratio"),
    ("server.shed", "count"),
    ("server.demoted", "count"),
    ("server.queue_timeouts", "count"),
    ("server.write_stalls", "count"),
];

/// The metric-name grammar: starts with a letter or digit, at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: campaign rounds or requests.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    /// Records metric `name` measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Checks that exactly the declared metrics were recorded, each a
    /// finite number; a gap is a failed check.
    pub fn seal(&mut self, declared: &[(&'static str, &'static str)]) {
        for (name, unit) in declared {
            if !valid_name(name) || !valid_unit(unit) {
                self.problems
                    .push(format!("metric {name} ({unit}) breaks the naming grammar"));
            }
            match self.values.get(name) {
                None => self
                    .problems
                    .push(format!("metric {name} was not measured")),
                Some((v, _)) if !v.is_finite() => {
                    self.problems
                        .push(format!("metric {name} is not finite: {v}"));
                }
                Some(_) => {}
            }
        }
        let extra: Vec<&str> = self
            .values
            .keys()
            .filter(|k| !declared.iter().any(|(name, _)| name == *k))
            .copied()
            .collect();
        for name in extra {
            self.problems.push(format!("metric {name} is not declared"));
            self.values.remove(name);
        }
    }

    /// One `name value unit n=samples` line per metric.
    pub fn human(&self, declared: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in declared {
            if let Some((value, samples)) = self.values.get(name) {
                let _ = writeln!(out, "{name} {value} {unit} n={samples}");
            }
        }
        out
    }

    /// The result object, on one line.
    pub fn json(&self, declared: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            if let Some((value, _)) = self.values.get(name) {
                let value = if value.is_finite() { *value } else { 0.0 };
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_follow_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn seal_flags_missing_and_undeclared_metrics() {
        let mut report = Report::default();
        report.set("setup_s", 0.5, 3);
        report.set("bogus", 1.0, 1);
        report.seal(END_TO_END);
        assert!(!report.correct());
        assert!(report.problems.iter().any(|p| p.contains("mean_ms")));
        assert!(report.problems.iter().any(|p| p.contains("bogus")));
        assert!(!report.json(END_TO_END).contains("bogus"));
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("setup_s", 0.123_456_789_012_345, 5);
        let line = report.json(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}}"
        );
    }
}
