//! Self-check of the benchmark's contract: every workload named in
//! `BENCHMARK.json` runs at a reduced size, prints every metric the file
//! names with its unit, and passes every correctness check.

use std::collections::BTreeMap;

use ccbench::harness::{result_json, RunConfig, Scale};
use ccbench::metrics::{Better, END_TO_END, PER_LAYER};

/// A JSON value, just enough to read `BENCHMARK.json`.
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
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
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
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn better(d: Better) -> &'static str {
    match d {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

#[test]
fn benchmark_json_matches_the_metric_lists() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, ccbench::WORKLOADS);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = b.get(key).arr();
        assert_eq!(listed.len(), defs.len(), "{key}: count");
        for (m, d) in listed.iter().zip(defs) {
            assert_eq!(m.get("name").str(), d.name, "{key}: order and names");
            assert_eq!(m.get("unit").str(), d.unit, "{}: unit", d.name);
            assert_eq!(
                m.get("better").str(),
                better(d.better),
                "{}: direction",
                d.name
            );
        }
    }
    for m in b.get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            m.get("name").str()
        );
    }
    let setup = b
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    let largest = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| m.get("bound").num())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").num(),
        largest,
        "setup_s has the largest bound"
    );
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let b = benchmark_json();
    for w in b.get("workloads").arr() {
        let name = w.get("name").str();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = RunConfig {
                seed: 7,
                seconds: 0.0,
                trace,
                scale: Scale::Small,
            };
            let out = ccbench::run(name, &cfg).expect("a known workload");
            assert!(out.attempted > 0, "{name}: no checks ran");
            assert_eq!(out.failed, 0, "{name}: failed checks {:?}", out.failures);
            let line = parse(&result_json(&out, trace));
            assert_eq!(line.get("correct"), &Json::Bool(true));
            assert_eq!(line.get("failed").num(), 0.0);
            let metrics = line.get("metrics");
            for m in b.get(key).arr() {
                let (metric, unit) = (m.get("name").str(), m.get("unit").str());
                let got = metrics.get(metric);
                assert_eq!(got.get("unit").str(), unit, "{name}: {metric} unit");
                let v = got.get("value").num();
                assert!(v.is_finite(), "{name}: {metric} = {v}");
                if key == "end_to_end" {
                    assert!(v > 0.0, "{name}: end-to-end {metric} must never be 0");
                }
            }
            if trace {
                assert_eq!(
                    metrics.get("check.fail_frac").get("value").num(),
                    0.0,
                    "{name}: fail_frac"
                );
            }
        }
    }
}
