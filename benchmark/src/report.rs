//! What a run reports: the metric set declared in `BENCHMARK.json`, the
//! per-request tally every workload fills, and the printer that refuses
//! to emit a metric the declaration does not know (or to skip one it
//! does).

use std::collections::{BTreeMap, BTreeSet};

use serde::Value;

use crate::stats;

/// The declaration the driver reads, compiled in so a metric renamed in
/// one place and not the other fails the run instead of drifting.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Every workload keeps measuring past `--seconds` until it has this many
/// latency samples, so `req_p95_ms` always has ten samples beyond it.
pub const MIN_SAMPLES: usize = 240;

/// Setup runs at least this many times per process, and keeps repeating
/// (up to [`SETUP_REPS_MAX`]) until it has taken [`SETUP_MIN_TOTAL_S`] in
/// all; `setup_s` is the median. One slow page-in then does not read as a
/// setup regression, and a 25 ms setup is timed as steadily as a 2 s one.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 30;
const SETUP_MIN_TOTAL_S: f64 = 1.0;

/// Runs `setup` repeatedly (dropping each result before the next, so peak
/// memory holds one copy) and returns the last result with the median
/// wall time in seconds.
pub fn median_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS_MIN
        || (times.len() < SETUP_REPS_MAX && times.iter().sum::<f64>() < SETUP_MIN_TOTAL_S)
    {
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("setup ran"), stats::median(&times)))
}

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Names the driver accepts: a letter or digit first, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: `{key}` must be a string")),
    }
}

/// A JSON number of any of the shim's three kinds.
pub fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Ok(Value::Seq(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` must be a list")),
    }
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }

    fn parse(json: &str) -> Result<Spec, String> {
        let root = serde::json::parse(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(&root, key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        better: text(m, "better")?,
                        bound: m.get("bound").ok().and_then(number),
                    })
                })
                .collect()
        };
        let spec = Spec {
            run_seconds: root
                .get("run_seconds")
                .ok()
                .and_then(number)
                .ok_or("BENCHMARK.json: `run_seconds` must be a number")?,
            workloads: list(&root, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        let mut seen = BTreeSet::new();
        let names = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name));
        for name in names {
            if !valid_name(name) {
                return Err(format!("BENCHMARK.json: `{name}` is not a valid name"));
            }
            if !seen.insert(name) {
                return Err(format!("BENCHMARK.json: `{name}` is used twice"));
            }
        }
        Ok(spec)
    }

    /// The metric set a run with this `--trace` setting must print.
    pub fn declared(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Emitted-but-undeclared and declared-but-missing metric names.
pub fn check_declared(emitted: &[&str], declared: &[&str]) -> Result<(), String> {
    let emitted_set: BTreeSet<_> = emitted.iter().collect();
    let declared_set: BTreeSet<_> = declared.iter().collect();
    if emitted_set.len() != emitted.len() {
        return Err("a metric was emitted twice".into());
    }
    let undeclared: Vec<_> = emitted_set.difference(&declared_set).collect();
    let missing: Vec<_> = declared_set.difference(&emitted_set).collect();
    if undeclared.is_empty() && missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metric set differs from BENCHMARK.json: emitted but undeclared {undeclared:?}, \
             declared but missing {missing:?}"
        ))
    }
}

/// Per-request outcomes of a measured phase. A request is attempted once
/// and is either verified OK (latency + cost ratio recorded) or failed.
#[derive(Default)]
pub struct Tally {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    cost_ratio_sum: f64,
    cost_samples: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn ok(&mut self, latency_ms: f64) {
        self.attempted += 1;
        self.latencies_ms.push(latency_ms);
    }

    /// One answer's cost over the optimal cost of the same instance.
    pub fn cost_ratio(&mut self, ratio: f64) {
        self.cost_ratio_sum += ratio;
        self.cost_samples += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Records a failed check that is not a request of its own (e.g. the
    /// feasibility sweep of the dynamic world).
    pub fn fail_check(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cost_ratio_sum += other.cost_ratio_sum;
        self.cost_samples += other.cost_samples;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn verified(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    pub fn mean_cost_ratio(&self) -> f64 {
        self.cost_ratio_sum / self.cost_samples.max(1) as f64
    }

    /// `(p50, p95)` of the verified requests' latencies.
    pub fn p50_p95(&self) -> Result<(f64, f64), String> {
        let mut v = self.latencies_ms.clone();
        stats::sort(&mut v);
        match (stats::percentile(&v, 50.0), stats::percentile(&v, 95.0)) {
            (Some(p50), Some(p95)) => Ok((p50, p95)),
            _ => Err(format!(
                "{} latency samples leave fewer than {} beyond p95",
                v.len(),
                stats::TAIL_MIN
            )),
        }
    }
}

/// What one workload run hands to the printer.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Human-readable context lines (sizes, clamps, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.metrics.insert(name, value);
        assert!(previous.is_none(), "metric `{name}` set twice");
    }

    /// Layers this workload does not exercise report 0 by construction —
    /// the "no change expected here" side of each prediction.
    pub fn not_exercised(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics every workload reports the same way.
    pub fn end_to_end(&mut self, tally: &Tally, wall_s: f64, setup_s: f64) -> Result<(), String> {
        let (p50, p95) = tally.p50_p95()?;
        self.set("setup_s", setup_s);
        self.set("req_p50_ms", p50);
        self.set("req_p95_ms", p95);
        self.set("throughput_rps", tally.verified() as f64 / wall_s);
        self.set("cost_ratio", tally.mean_cost_ratio());
        self.set("peak_rss_mb", peak_rss_mb()?);
        self.note(format!(
            "{} latency samples over {wall_s:.3} s measured",
            tally.verified()
        ));
        Ok(())
    }

    pub fn count(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&tally.first_failure);
        }
    }
}

/// `VmHWM` of this process: the high-water mark of its resident set.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The serde shim writes `Serialize` types, not a bare [`Value`].
struct Tree(Value);

impl serde::Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Prints every metric by name with its unit, then the result object as
/// the last line. Returns whether the run was correct.
pub fn emit(spec: &Spec, trace: bool, report: &Report) -> Result<bool, String> {
    let declared = spec.declared(trace);
    let emitted: Vec<&str> = report.metrics.keys().copied().collect();
    let declared_names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    check_declared(&emitted, &declared_names)?;
    if report.attempted == 0 {
        return Err("the run attempted nothing".into());
    }

    for line in &report.notes {
        println!("# {line}");
    }
    let mut metrics = BTreeMap::new();
    for m in declared {
        let value = report.metrics[m.name.as_str()];
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite", m.name));
        }
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", bound {:.1} %", b * 100.0));
        println!(
            "{:<28} {:>16.6} {:<6} ({} is better{bound})",
            m.name, value, m.unit, m.better
        );
        metrics.insert(
            m.name.clone(),
            Value::map([
                ("value", Value::F64(value)),
                ("unit", Value::Str(m.unit.clone())),
            ]),
        );
    }
    let correct = report.failed == 0;
    if let Some(why) = &report.first_failure {
        println!("# first failure: {why}");
    }
    let result = Value::map([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(report.attempted)),
        ("failed", Value::U64(report.failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    println!("{}", serde::json::to_string(&Tree(result)));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_drivers_rule() {
        for good in ["req_p50_ms", "net.resp_decode_us", "1x", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn undeclared_and_missing_metrics_are_both_errors() {
        assert!(check_declared(&["a", "b"], &["b", "a"]).is_ok());
        let e = check_declared(&["a", "x"], &["a", "b"]).unwrap_err();
        assert!(
            e.contains("undeclared [\"x\"]") && e.contains("missing [\"b\"]"),
            "{e}"
        );
        assert!(check_declared(&["a", "a"], &["a"]).is_err());
    }

    #[test]
    fn the_committed_declaration_parses_and_is_consistent() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.len() <= 128);
    }

    #[test]
    fn duplicate_or_malformed_names_are_rejected() {
        let doc = |name: &str| {
            format!(
                "{{\"run_seconds\": 1, \"workloads\": [{{\"name\": \"w\", \"why\": \"y\"}}], \
                 \"end_to_end\": [{{\"name\": \"{name}\", \"unit\": \"s\", \"better\": \"lower\", \
                 \"bound\": 0.1}}], \"per_layer\": []}}"
            )
        };
        assert!(Spec::parse(&doc("setup_s")).is_ok());
        assert!(Spec::parse(&doc("w")).is_err(), "name used twice");
        assert!(Spec::parse(&doc("bad name")).is_err());
    }

    #[test]
    fn tally_counts_each_request_once() {
        let mut t = Tally::default();
        for i in 0..300 {
            t.ok(f64::from(i));
            t.cost_ratio(1.5);
        }
        t.fail("boom".into());
        let mut other = Tally::default();
        other.fail("later".into());
        t.merge(other);
        assert_eq!((t.attempted, t.failed, t.verified()), (302, 2, 300));
        assert_eq!(t.mean_cost_ratio(), 1.5);
        assert_eq!(t.first_failure.as_deref(), Some("boom"));
        assert_eq!(t.p50_p95().unwrap(), (149.0, 284.0));
        assert!(Tally::default().p50_p95().is_err());
    }
}
