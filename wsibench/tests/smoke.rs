//! Runs every workload in `--smoke` mode (tiny strides and durations)
//! and checks the result line against the metrics `BENCHMARK.json`
//! declares.

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text:?}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    assert!(
                        map.insert(key.clone(), self.value()).is_none(),
                        "duplicate key {key}"
                    );
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s[self.i] {
                        b'"' => break,
                        b'\\' => {
                            self.i += 1;
                            out.push(self.s[self.i] as char);
                        }
                        _ => {
                            let rest = std::str::from_utf8(&self.s[self.i..]).expect("utf-8");
                            let c = rest.chars().next().expect("char");
                            out.push(c);
                            self.i += c.len_utf8() - 1;
                        }
                    }
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// `name -> unit` for one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_wsibench"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run wsibench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    let Json::Obj(top) = &result else {
        panic!("result is not an object")
    };
    assert_eq!(
        top.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert_eq!(result.get("failed"), &Json::Num(0.0));
    assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0 && n.fract() == 0.0));

    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                "{name}"
            );
            (name.clone(), m.get("unit").str().to_string())
        })
        .collect();
    assert_eq!(
        got, want,
        "{workload}: printed metrics differ from BENCHMARK.json"
    );
    for name in want.keys() {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} ")) && l.contains(" n=")),
            "{workload}: no human-readable line for {name}"
        );
    }
}

#[test]
fn matrix_prints_the_declared_metrics() {
    smoke("matrix", false);
    smoke("matrix", true);
}

#[test]
fn chaos_prints_the_declared_metrics() {
    smoke("chaos", false);
    smoke("chaos", true);
}

#[test]
fn serve_churn_prints_the_declared_metrics() {
    smoke("serve_churn", false);
    smoke("serve_churn", true);
}

#[test]
fn serve_keepalive_prints_the_declared_metrics() {
    smoke("serve_keepalive", false);
    smoke("serve_keepalive", true);
}

#[test]
fn benchmark_json_declares_the_workloads_and_bounds() {
    let bench = benchmark();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(
        workloads,
        ["matrix", "chaos", "serve_churn", "serve_keepalive"]
    );
    let e2e = declared("end_to_end");
    assert_eq!(e2e.get("setup_s").map(String::as_str), Some("s"));
    for m in bench.get("end_to_end").arr() {
        let Json::Num(bound) = m.get("bound") else {
            panic!("bound")
        };
        assert!(*bound > 0.0 && *bound <= 0.25, "{m:?}");
    }
}

#[test]
fn unknown_arguments_are_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_wsibench"))
        .args(["--workload", "nope"])
        .output()
        .expect("run wsibench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
