//! Result reporting: the metric list, the run manifest and the final JSON
//! line, plus the order statistics every workload shares.

use std::fmt::Write as _;
use std::time::Duration;

/// Minimal JSON object writer (the repository's `serde` is an offline shim
/// without serialisation, so the benchmark writes its two JSON lines by
/// hand).
#[derive(Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&quote(key));
        self.body.push_str(": ");
    }

    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.body.push_str(&number(value));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.body.push_str(&quote(value));
        self
    }

    pub fn strings(mut self, key: &str, values: &[String]) -> Self {
        self.key(key);
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        let _ = write!(self.body, "[{}]", items.join(", "));
        self
    }

    pub fn object(mut self, key: &str, value: JsonObject) -> Self {
        self.key(key);
        self.body.push_str(&value.finish());
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot carry) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The metrics of one run, in the order they are produced.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    pub fn to_json(&self) -> JsonObject {
        self.entries
            .iter()
            .fold(JsonObject::default(), |obj, &(name, value, unit)| {
                obj.object(
                    name,
                    JsonObject::default()
                        .num("value", value)
                        .string("unit", unit),
                )
            })
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
