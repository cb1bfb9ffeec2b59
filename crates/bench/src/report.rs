//! The one writer behind every `BENCH_<bench>.json` the benches emit.
//!
//! # Schema
//!
//! ```text
//! {
//!   "bench": "<bench>",
//!   "bench_env": { "hardware_threads": 2, "page_size_bytes": 4096,
//!                  "build_profile": "release", "git_sha": "<describe>" },
//!   "gates":   [ { "name", "value", "op", "bound", "enforced", "pass" }, … ],
//!   "metrics": [ { "name", "unit", "median", "min", "max", "runs" }, … ]
//! }
//! ```
//!
//! * `git_sha` is `git describe --always --dirty --abbrev=40` of the
//!   workspace (`-dirty` marks uncommitted changes), or `"unknown"`.
//! * A gate tests `value op bound` (`op`: `<`, `<=`, `==`, `>=`, `>`). Its
//!   name is the quantity `value` measures; the bound is a target or
//!   another measured quantity. `enforced` follows the gate's [`GateKind`].
//! * A metric summarizes its samples: the median (mean of the two middle
//!   samples for an even count), min, max and sample count `runs`. A
//!   deterministic counter is a metric with one run.
//! * Numbers are rounded to three decimals; NaN and ±inf become `null`.
//!
//! Each gate and metric is printed as it is recorded. [`Report::write`]
//! writes the file, then panics listing every enforced gate that failed,
//! so a failing run still leaves its evidence on disk.

use std::path::Path;

/// When a gate is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Always enforced: deterministic counters do not jitter.
    Hard,
    /// A wall-clock gate, enforced only when `RCUBE_BENCH_SOFT` is unset
    /// and the machine has at least `min_threads` hardware threads;
    /// shared runners and small containers make timing ratios flaky.
    Clock { min_threads: usize },
}

/// The comparison a gate makes: `value op bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

impl Op {
    fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Eq => "==",
            Op::Ge => ">=",
            Op::Gt => ">",
        }
    }

    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Lt => value < bound,
            Op::Le => value <= bound,
            Op::Eq => value == bound,
            Op::Ge => value >= bound,
            Op::Gt => value > bound,
        }
    }
}

/// Whether a gate of `kind` is enforced when `RCUBE_BENCH_SOFT` is set
/// (`soft`) on a machine with `threads` hardware threads.
fn enforced(kind: GateKind, soft: bool, threads: usize) -> bool {
    match kind {
        GateKind::Hard => true,
        GateKind::Clock { min_threads } => !soft && threads >= min_threads,
    }
}

/// One bench run's gates and metrics; see the module docs for the file
/// it writes.
pub struct Report {
    bench: String,
    hardware_threads: usize,
    soft: bool,
    git_sha: String,
    /// Rendered JSON objects, in recording order.
    gates: Vec<String>,
    metrics: Vec<String>,
    /// `name: value op bound` of every enforced gate that failed.
    failed: Vec<String>,
}

impl Report {
    /// Starts the report for `BENCH_<bench>.json`, reading the machine's
    /// hardware threads, `RCUBE_BENCH_SOFT` and the git revision once.
    pub fn new(bench: &str) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let soft = std::env::var_os("RCUBE_BENCH_SOFT").is_some();
        Self::with_env(bench, threads, soft, git_sha())
    }

    fn with_env(bench: &str, hardware_threads: usize, soft: bool, git_sha: String) -> Self {
        let (gates, metrics, failed) = (Vec::new(), Vec::new(), Vec::new());
        Self { bench: bench.to_string(), hardware_threads, soft, git_sha, gates, metrics, failed }
    }

    /// Records a measurement summarized over `samples`.
    pub fn metric(&mut self, name: &str, unit: &str, samples: &[f64]) -> &mut Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let runs = sorted.len();
        let (median, min, max) = match runs {
            0 => (f64::NAN, f64::NAN, f64::NAN),
            _ => ((sorted[(runs - 1) / 2] + sorted[runs / 2]) / 2.0, sorted[0], sorted[runs - 1]),
        };
        let (median, min, max) = (number(median), number(min), number(max));
        println!("{name}: {median} {unit} [{min} – {max}] ({runs} runs)");
        self.metrics.push(format!(
            "{{ \"name\": {}, \"unit\": {}, \"median\": {median}, \"min\": {min}, \"max\": {max}, \
             \"runs\": {runs} }}",
            quote(name),
            quote(unit)
        ));
        self
    }

    /// Records every criterion measurement as an `ns` (per iteration)
    /// metric named by its benchmark id, one run per timed batch.
    pub fn criterion(&mut self, measurements: &[criterion::Measurement]) -> &mut Self {
        for m in measurements {
            self.metric(&m.id, "ns", &m.samples);
        }
        self
    }

    /// Records the gate `value op bound`, enforced per `kind`.
    pub fn gate(
        &mut self,
        name: &str,
        value: f64,
        op: Op,
        bound: f64,
        kind: GateKind,
    ) -> &mut Self {
        let enforced = enforced(kind, self.soft, self.hardware_threads);
        let pass = op.holds(value, bound);
        let (value, op, bound) = (number(value), op.symbol(), number(bound));
        let test = format!("{name}: {value} {op} {bound}");
        match (pass, enforced) {
            (true, _) => println!("gate {test} (pass)"),
            (false, false) => eprintln!("WARNING: gate {test} failed (not enforced)"),
            (false, true) => self.failed.push(test),
        }
        self.gates.push(format!(
            "{{ \"name\": {}, \"value\": {value}, \"op\": \"{op}\", \"bound\": {bound}, \
             \"enforced\": {enforced}, \"pass\": {pass} }}",
            quote(name)
        ));
        self
    }

    /// Writes `BENCH_<bench>.json` at the workspace root, then panics if
    /// any enforced gate failed.
    pub fn write(&self) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        self.write_to(&root.join(format!("BENCH_{}.json", self.bench)));
    }

    fn write_to(&self, path: &Path) {
        std::fs::write(path, self.to_json())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        assert!(
            self.failed.is_empty(),
            "BENCH_{}: enforced gates failed: {}",
            self.bench,
            self.failed.join("; ")
        );
    }

    fn to_json(&self) -> String {
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        format!(
            "{{\n  \"bench\": {},\n  \"bench_env\": {{ \"hardware_threads\": {}, \
             \"page_size_bytes\": {}, \"build_profile\": \"{profile}\", \"git_sha\": {} }},\n  \
             \"gates\": {},\n  \"metrics\": {}\n}}\n",
            quote(&self.bench),
            self.hardware_threads,
            rcube_storage::DEFAULT_PAGE_SIZE,
            quote(&self.git_sha),
            array(&self.gates),
            array(&self.metrics)
        )
    }
}

/// The workspace's `git describe --always --dirty --abbrev=40`, or
/// `"unknown"` when git or the checkout is absent.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON array with one element per line.
fn array(items: &[String]) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// A JSON number rounded to three decimals, trailing zeros dropped; NaN
/// and ±inf have no JSON form and become `null`.
fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out + "\""
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_the_shared_schema() {
        let mut r = Report::with_env("demo", 2, false, "abc".to_string());
        r.gate("speedup", 6.54321, Op::Ge, 5.0, GateKind::Clock { min_threads: 1 });
        r.metric("wall", "ns", &[3.0, 1.0, 2.0, 10.0]).metric("blocks", "count", &[7.0]);
        let want = format!(
            "{{\n  \"bench\": \"demo\",\n  \"bench_env\": {{ \"hardware_threads\": 2, \
             \"page_size_bytes\": 4096, \"build_profile\": \"{}\", \"git_sha\": \"abc\" }},\n  \
             \"gates\": [\n    {{ \"name\": \"speedup\", \"value\": 6.543, \"op\": \">=\", \
             \"bound\": 5, \"enforced\": true, \"pass\": true }}\n  ],\n  \"metrics\": [\n    \
             {{ \"name\": \"wall\", \"unit\": \"ns\", \"median\": 2.5, \"min\": 1, \"max\": 10, \
             \"runs\": 4 }},\n    {{ \"name\": \"blocks\", \"unit\": \"count\", \"median\": 7, \
             \"min\": 7, \"max\": 7, \"runs\": 1 }}\n  ]\n}}\n",
            if cfg!(debug_assertions) { "debug" } else { "release" }
        );
        assert_eq!(r.to_json(), want);
        let empty = Report::with_env("empty", 1, false, "x".into()).to_json();
        assert!(empty.contains("\"gates\": [],\n  \"metrics\": []\n"));
    }

    #[test]
    fn names_are_escaped_and_non_finite_numbers_are_null() {
        assert_eq!(quote("a\"b\\c\td"), r#""a\"b\\c\u0009d""#);
        let mut r = Report::with_env(r"q\uote", 1, false, "x".into());
        r.gate(r#"say "hi""#, f64::NAN, Op::Ge, f64::INFINITY, GateKind::Hard);
        r.metric("neg", "ns", &[f64::NEG_INFINITY]).metric("none", "ns", &[]);
        let json = r.to_json();
        assert!(json.contains(r#""bench": "q\\uote""#));
        assert!(json.contains(r#""name": "say \"hi\"", "value": null, "op": ">=", "bound": null"#));
        assert!(json.contains("\"median\": null, \"min\": null, \"max\": null, \"runs\": 1"));
        assert!(json.contains("\"runs\": 0"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        assert_eq!(r.failed.len(), 1, "a NaN value never passes");
    }

    #[test]
    fn enforcement_rule() {
        for (threads, soft) in [(1, false), (1, true), (8, false), (8, true)] {
            assert!(enforced(GateKind::Hard, soft, threads));
        }
        let clock = |min_threads| GateKind::Clock { min_threads };
        assert!(enforced(clock(1), false, 1));
        assert!(!enforced(clock(1), true, 8));
        assert!(!enforced(clock(4), false, 3));
        assert!(enforced(clock(4), false, 4));
        assert!(!enforced(clock(4), true, 4));
    }

    #[test]
    fn failed_hard_gate_panics_even_when_soft_after_writing() {
        let path = std::env::temp_dir().join(format!("rcube_report_{}.json", std::process::id()));
        let mut r = Report::with_env("hard", 8, true, "x".into());
        r.gate("scaling", 1.0, Op::Ge, 2.5, GateKind::Clock { min_threads: 4 });
        r.gate("inconsistent_answers", 1.0, Op::Eq, 0.0, GateKind::Hard);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.write_to(&path)));
        let written = std::fs::read_to_string(&path).expect("file written before the panic");
        std::fs::remove_file(&path).ok();
        let msg = *outcome.expect_err("enforced gate failed").downcast::<String>().unwrap();
        assert!(msg.ends_with("enforced gates failed: inconsistent_answers: 1 == 0"), "{msg}");
        assert!(written.contains("\"enforced\": false, \"pass\": false"), "soft clock gate");
        assert!(written.contains("\"enforced\": true, \"pass\": false"), "hard gate");
    }
}
