//! Smoke runs of every workload at tiny sizes: each must print, as its last
//! line, a correct result with exactly the metrics `BENCHMARK.json`
//! declares for its mode, each with the declared unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Just enough JSON to read `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> &Value {
        match self {
            Value::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("{other:?} is not a string"),
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
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Value {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Value::Obj(map);
                }
                loop {
                    self.ws();
                    let Value::Str(key) = self.value() else { panic!("object key") };
                    self.eat(b':');
                    map.insert(key, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Value::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Value::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Value::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Value::Str(out)
            }
            b't' => {
                self.i += 4;
                Value::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Value::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Value::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Value::Num(text.parse().unwrap_or_else(|_| panic!("number {text:?}")))
            }
        }
    }
}

fn parse(text: &str) -> Value {
    Parser { s: text.as_bytes(), i: 0 }.value()
}

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let benchmark = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"));
    let Value::Arr(metrics) = benchmark.get(section) else { panic!("{section} is not a list") };
    metrics
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn smoke_run(workload: &str, trace: bool) -> Value {
    // Each run works in a directory of its own: tests run in parallel.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3", "--scale", "smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).unwrap();
    parse(stdout.lines().last().expect("a result line"))
}

fn assert_reports(workload: &str, trace: bool) {
    let result = smoke_run(workload, trace);
    assert_eq!(result.get("correct"), &Value::Bool(true), "{result:?}");
    assert_eq!(result.get("failed"), &Value::Num(0.0));
    assert!(matches!(result.get("attempted"), Value::Num(n) if *n >= 1.0));
    let Value::Obj(metrics) = result.get("metrics") else { panic!("metrics is not an object") };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: BTreeMap<String, String> =
        metrics.iter().map(|(name, m)| (name.clone(), m.get("unit").str().to_string())).collect();
    assert_eq!(got, want, "{workload} (trace {trace})");
    for (name, m) in metrics {
        assert!(matches!(m.get("value"), Value::Num(v) if v.is_finite()), "{name}: {m:?}");
    }
}

#[test]
fn ingest_reports_every_metric() {
    assert_reports("ingest", false);
    assert_reports("ingest", true);
}

#[test]
fn query_reports_every_metric() {
    assert_reports("query", false);
    assert_reports("query", true);
}

#[test]
fn edit_reports_every_metric() {
    assert_reports("edit", false);
    assert_reports("edit", true);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run perfbench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
