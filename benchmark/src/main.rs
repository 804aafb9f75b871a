//! The repo's benchmark: four workloads over the seven layers a CCA
//! request crosses, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat N] [--trace-out FILE]
//! ```
//!
//! One workload runs per process (so `peak_rss_mb` and caches never leak
//! between workloads); `all` and `--repeat` re-execute this binary.

mod dyn_events;
mod inputs;
mod layers;
mod lib_paper;
mod probes;
mod report;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use report::{Report, Spec};
use serde::Value;

/// What a workload needs to know about the invocation.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const DEFAULT_SEED: u64 = 2008;
const WORKLOADS: [&str; 4] = ["lib_paper", "wire_dataset", "wire_inline", "dyn_events"];

struct Cli {
    workload: String,
    args: Args,
    repeat: Option<usize>,
    trace_out: Option<String>,
}

fn parse_cli(spec: &Spec) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        args: Args {
            seed: DEFAULT_SEED,
            seconds: spec.run_seconds,
            trace: false,
        },
        repeat: None,
        trace_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                cli.args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => cli.repeat = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?),
            "--trace-out" => cli.trace_out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let known = cli.workload == "all" || WORKLOADS.contains(&cli.workload.as_str());
    if !known {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or `all`, not `{}`",
            cli.workload
        ));
    }
    if !(cli.args.seconds > 0.0 && cli.args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout is not a repository: `unknown` there).
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map_or_else(|| reference.to_string(), |rev| rev.trim().to_string()),
        None => head.to_string(),
    }
}

fn run_workload(name: &str, args: &Args, spans: &mut Vec<trace::Span>) -> Result<Report, String> {
    match name {
        "lib_paper" => lib_paper::run(args, spans),
        "wire_dataset" => wire::run(&wire::DATASET, args, spans),
        "wire_inline" => wire::run(&wire::INLINE, args, spans),
        "dyn_events" => dyn_events::run(args, spans),
        other => Err(format!("no workload `{other}`")),
    }
}

/// Runs one workload in this process and prints its result.
fn run_here(spec: &Spec, cli: &Cli) -> Result<bool, String> {
    let args = &cli.args;
    println!(
        "# workload={} seed={} seconds={} trace={} git_rev={} host_cores={}",
        cli.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        inputs::host_cores(),
    );
    let mut spans = Vec::new();
    let report = run_workload(&cli.workload, args, &mut spans)?;
    if let Some(path) = &cli.trace_out {
        trace::write_jsonl(path, &spans).map_err(|e| format!("{path}: {e}"))?;
        println!("# wrote {} spans to {path}", spans.len());
    }
    report::emit(spec, args.trace, &report)
}

/// This binary again, for one workload and one seed.
fn child(workload: &str, seed: u64, args: &Args) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    Ok(cmd)
}

/// `--workload all`: each workload in a fresh process, output passed on.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = child(workload, args.seed, args)?
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// The `metrics` of a child's result line, name → value.
fn result_metrics(stdout: &str) -> Result<BTreeMap<String, f64>, String> {
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = serde::json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let Ok(Value::Map(metrics)) = result.get("metrics") else {
        return Err("result line has no `metrics`".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").ok().and_then(report::number);
            Ok((
                name.clone(),
                value.ok_or(format!("metric `{name}` has no numeric value"))?,
            ))
        })
        .collect()
}

/// `--repeat N`: the workload N times, seeds `seed .. seed+N`, each in a
/// fresh process; then per metric the median, the quartiles and the
/// spread the driver holds against the bound (IQR ÷ median), as Python's
/// `statistics.quantiles(values, n=4)` would give them.
fn run_repeated(spec: &Spec, workload: &str, args: &Args, n: usize) -> Result<bool, String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let out = child(workload, seed, args)?
            .stdout(Stdio::piped())
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        all_ok &= out.status.success();
        let stdout = String::from_utf8_lossy(&out.stdout);
        for (name, value) in result_metrics(&stdout).map_err(|e| format!("seed {seed}: {e}"))? {
            values.entry(name).or_default().push(value);
        }
        println!("# {workload} seed {seed}: exit {}", out.status);
    }
    println!(
        "{workload}: {n} runs, seeds {}..{}\n{:<28} {:>14} {:>14} {:>14} {:>9} {:>9}  bound",
        args.seed,
        args.seed + n as u64,
        "metric",
        "median",
        "q1",
        "q3",
        "iqr/med",
        "range/med",
    );
    for m in spec.declared(args.trace) {
        let v = values
            .get(&m.name)
            .ok_or(format!("no `{}` values", m.name))?;
        let mid = stats::median(v);
        let [q1, _, q3] = stats::quartiles(v).ok_or("--repeat needs at least 2 runs")?;
        let spread = stats::relative_spread(v).unwrap_or(0.0);
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let range = if mid == 0.0 {
            0.0
        } else {
            (hi - lo) / mid.abs()
        };
        let bound = m.bound.map_or(String::new(), |b| {
            let verdict = if spread <= b / 3.0 {
                "steady"
            } else if spread <= b {
                "within"
            } else {
                "TOO WIDE"
            };
            format!("{:.1} % {verdict}", b * 100.0)
        });
        println!(
            "{:<28} {mid:>14.4} {q1:>14.4} {q3:>14.4} {:>8.2}% {:>8.2}%  {bound}",
            m.name,
            spread * 100.0,
            range * 100.0,
        );
    }
    Ok(all_ok)
}

fn run(spec: &Spec) -> Result<bool, String> {
    let cli = parse_cli(spec)?;
    let declared: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    if declared != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json declares workloads {declared:?}, the binary has {WORKLOADS:?}"
        ));
    }
    let workloads: Vec<&str> = match cli.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    match cli.repeat {
        Some(n) => {
            let mut all_ok = true;
            for workload in workloads {
                all_ok &= run_repeated(spec, workload, &cli.args, n)?;
            }
            Ok(all_ok)
        }
        None if cli.workload == "all" => run_all(&cli.args),
        None => run_here(spec, &cli),
    }
}

fn main() -> ExitCode {
    match Spec::load().and_then(|spec| run(&spec)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
