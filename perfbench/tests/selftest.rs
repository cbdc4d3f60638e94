//! Self-test of the benchmark at micro scale: every metric `BENCHMARK.json`
//! declares is printed with its declared unit, the traced run agrees with
//! the untraced one, and the seed really changes the generated inputs.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["enum-heavy", "window-churn", "serve"];

/// A parsed JSON value (just enough JSON for the two files involved).
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

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.at, p.s.len(), "trailing data after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.at), Some(&c), "expected {:?}", c as char);
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.at] {
            b'{' => {
                self.at += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.at += 1;
                    match self.s[self.at - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.at += 1;
                    match self.s[self.at - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.at += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.at];
                    self.at += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.at];
                            self.at += 1;
                            match e {
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.at..self.at + 4])
                                        .expect("ascii escape");
                                    let code = u32::from_str_radix(hex, 16).expect("hex escape");
                                    out.push(char::from_u32(code).expect("valid escape"));
                                    self.at += 4;
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            // Copy one UTF-8 sequence.
                            let start = self.at - 1;
                            let len = match c {
                                0x00..=0x7f => 1,
                                0xc0..=0xdf => 2,
                                0xe0..=0xef => 3,
                                _ => 4,
                            };
                            self.at = start + len;
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.at]).expect("utf-8"),
                            );
                        }
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.s.len()
                    && matches!(
                        self.s[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.at..].starts_with(w.as_bytes()), "expected {w}");
        self.at += w.len();
        v
    }
}

/// The declared metrics of one section of `BENCHMARK.json`: name → unit.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Parser::parse(&text)
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

/// One micro-scale run: (manifest, result).
fn run(workload: &str, seed: u64, trace: u8) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--scale",
            "micro",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = Parser::parse(lines.next().expect("a result line"));
    let manifest = Parser::parse(lines.next().expect("a manifest line"))
        .get("manifest")
        .clone();
    (manifest, result)
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (section, trace) in [("end_to_end", 0), ("per_layer", 1)] {
        let expected = declared(section);
        for workload in WORKLOADS {
            let (_, result) = run(workload, 1, trace);
            assert_eq!(
                result.obj().keys().collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"],
                "{workload}: result keys"
            );
            assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
            assert_eq!(result.get("failed").num(), 0.0, "{workload}");
            assert!(result.get("attempted").num() >= 1.0, "{workload}");
            let printed: BTreeMap<String, String> = result
                .get("metrics")
                .obj()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").num().is_finite(), "{workload} {name}");
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(
                printed, expected,
                "{workload} --trace {trace}: metrics and units"
            );
        }
    }
}

#[test]
fn traced_and_untraced_runs_count_the_same_embeddings() {
    for workload in WORKLOADS {
        let (untraced, _) = run(workload, 3, 0);
        let (traced, _) = run(workload, 3, 1);
        let (u, t) = (untraced.get("outcomes"), traced.get("outcomes"));
        assert_eq!(
            u.get("embeddings_positive_per_replay"),
            t.get("embeddings_positive"),
            "{workload}: positive embeddings"
        );
        assert_eq!(
            u.get("embeddings_negative_per_replay"),
            t.get("embeddings_negative"),
            "{workload}: negative embeddings"
        );
        assert!(traced.get("mismatches").arr().is_empty(), "{workload}");
    }
}

#[test]
fn the_seed_selects_the_inputs() {
    for workload in WORKLOADS {
        let fingerprint = |seed| run(workload, seed, 1).0.get("input_fingerprint").clone();
        let first = fingerprint(1);
        assert_eq!(first, fingerprint(1), "{workload}: same seed, same inputs");
        assert_ne!(first, fingerprint(2), "{workload}: two seeds, two inputs");
    }
}
