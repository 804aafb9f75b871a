//! `lib_paper` — the paper's experiment, called in-process.
//!
//! One thread calls `SpatialAssignment::run_config` on disk-resident
//! instances whose R-tree is far larger than the buffer (4 pages of ~65),
//! from a cold cache per solve, cycling the paper's two exact algorithms
//! and its two approximations. `cca-flow`, `cca-rtree` and the
//! `cca-storage` fault path do all the work; `cca-net` and `cca-serve` do
//! none, so a codec or scheduler change must predict "no change" here.
//!
//! A run pools 128 instances drawn from the seed. Solve time varies by
//! ±40 % (one standard deviation) from one instance to the next whatever
//! their size or distribution, so a run on a handful of instances would
//! measure the draw, not the program.

use std::time::Instant;

use cca::datagen::SpatialDistribution;
use cca::{RunResult, SolverConfig, SpatialAssignment};

use crate::inputs::{check_cost, instance, solver, sub_seed};
use crate::layers::{self, Counts};
use crate::report::{median_setup, Report, Tally, MIN_SAMPLES};
use crate::trace::{span_times, Clock, Span, SpanBuf};
use crate::{probes, Args};

const INSTANCES: usize = 64;
const PROVIDERS: usize = 50;
const CUSTOMERS: usize = 2_500;
const CAPACITY: u32 = 25;
const PAGE_SIZE: usize = 1024;
/// 6 % of the ~65-page tree: a 4-page buffer.
const BUFFER_PERCENT: f64 = 6.0;
const SOLVERS: [&str; 4] = ["ida", "nia", "ca", "sa"];

struct Instance {
    data: SpatialAssignment,
    /// Optimal cost, from the reference `ida` solve in setup.
    optimum: f64,
}

fn setup(seed: u64) -> Result<Vec<Instance>, String> {
    (0..INSTANCES as u64)
        .map(|i| {
            let w = instance(
                sub_seed(seed, i),
                PROVIDERS,
                CUSTOMERS,
                CAPACITY,
                SpatialDistribution::Clustered,
            );
            let data = SpatialAssignment::build_with_storage_sharded(
                w.providers,
                w.customers,
                PAGE_SIZE,
                BUFFER_PERCENT,
                1,
            );
            let reference = data.run_config(&solver("ida")).map_err(|e| e.to_string())?;
            reference.validate()?;
            let optimum = reference.cost();
            Ok(Instance { data, optimum })
        })
        .collect()
}

/// Checks one reply; returns its cost ratio to the optimum.
fn verify(result: &RunResult<'_>, name: &str, reference: f64, optimum: f64) -> Result<f64, String> {
    if let Some(reason) = result.aborted {
        return Err(format!("{name} aborted: {reason}"));
    }
    result.validate().map_err(|e| format!("{name}: {e}"))?;
    check_cost(name, result.cost(), reference, optimum)
}

struct Phase {
    tally: Tally,
    /// Seconds spent inside requests (verification excluded).
    busy_s: f64,
    /// Counts over the first full cycle of (instance × solver), and the
    /// stores' lock acquisitions during it.
    first_cycle: Counts,
    first_cycle_locks: u64,
    /// Per solver: latencies of the requests that ran under spans, and
    /// of the rest.
    traced_ms: [Vec<f64>; 4],
    plain_ms: [Vec<f64>; 4],
}

fn measure(
    instances: &[Instance],
    seconds: f64,
    min_samples: usize,
    mut spans: Option<&mut SpanBuf>,
) -> Phase {
    let configs: Vec<SolverConfig> = SOLVERS.iter().map(|s| solver(s)).collect();
    let mut phase = Phase {
        tally: Tally::default(),
        busy_s: 0.0,
        first_cycle: Counts::default(),
        first_cycle_locks: 0,
        traced_ms: Default::default(),
        plain_ms: Default::default(),
    };
    // The cost each (instance, solver) must reproduce bit for bit: the
    // setup's for `ida`, the first one seen for the others.
    let mut reference: Vec<[Option<f64>; 4]> = instances
        .iter()
        .map(|inst| [Some(inst.optimum), None, None, None])
        .collect();
    let started = Instant::now();
    let mut req = 0u64;
    for cycle in 0u64.. {
        for (inst, reference) in instances.iter().zip(&mut reference) {
            let store = inst.data.tree().store();
            let locks_before = store.lock_acquisitions();
            for (s, (name, config)) in SOLVERS.iter().zip(&configs).enumerate() {
                req += 1;
                // A traced run puts every other request under spans, and
                // swaps which on each cycle, so for every solver both
                // halves see all instances.
                let traced = spans
                    .as_deref_mut()
                    .filter(|_| (req + cycle).is_multiple_of(2));
                let is_traced = traced.is_some();
                let t0 = Instant::now();
                let result = match traced {
                    None => inst.data.run_config(config),
                    Some(buf) => {
                        let start = buf.now_ns();
                        let r = buf.span(layers::solve_span(name), Some("request"), req, || {
                            inst.data.run_config(config)
                        });
                        buf.push("request", None, req, start, buf.now_ns());
                        r
                    }
                };
                let latency = t0.elapsed().as_secs_f64();
                phase.busy_s += latency;
                if is_traced {
                    phase.traced_ms[s].push(latency * 1e3);
                } else {
                    phase.plain_ms[s].push(latency * 1e3);
                }
                let result = result.expect("workload solvers are registered");
                let expected = *reference[s].get_or_insert(result.cost());
                match verify(&result, name, expected, inst.optimum) {
                    Ok(ratio) => {
                        phase.tally.ok(latency * 1e3);
                        phase.tally.cost_ratio(ratio);
                    }
                    Err(why) => phase.tally.fail(why),
                }
                if cycle == 0 {
                    phase.first_cycle.add(&result.stats);
                }
            }
            if cycle == 0 {
                phase.first_cycle_locks += store.lock_acquisitions() - locks_before;
            }
            // Stop only between instances, so every solver is sampled
            // equally often.
            let enough = phase.tally.latencies_ms.len() >= min_samples;
            if cycle > 0 && enough && started.elapsed().as_secs_f64() >= seconds {
                return phase;
            }
        }
    }
    unreachable!("the cycle loop only ends by returning")
}

pub fn run(args: &Args, spans_out: &mut Vec<Span>) -> Result<Report, String> {
    let mut report = Report::default();
    let (instances, setup_s) = median_setup(|| setup(args.seed))?;
    report.note(format!(
        "lib_paper: {INSTANCES} instances of |Q|={PROVIDERS} |P|={CUSTOMERS} k={CAPACITY}, \
         {} pages each, buffer {} pages, 1 thread, solvers {SOLVERS:?}",
        instances[0].data.tree().store().num_pages(),
        instances[0].data.tree().store().buffer_capacity(),
    ));

    if !args.trace {
        let phase = measure(&instances, args.seconds, MIN_SAMPLES, None);
        report.count(&phase.tally);
        report.end_to_end(&phase.tally, phase.busy_s, setup_s)?;
        return Ok(report);
    }

    let mut buf = SpanBuf::new(Clock::start());
    let traced = measure(&instances, args.seconds, 0, Some(&mut buf));
    report.count(&traced.tally);
    let times = span_times(&mut buf.spans);

    report.not_exercised(layers::NET);
    report.not_exercised(layers::SERVE);
    report.not_exercised(layers::DYNAMIC);
    layers::set_solver_times(&mut report, &times);
    traced.first_cycle.set_algo(&mut report);

    let reads = traced.first_cycle.algo.io.logical_reads();
    traced.first_cycle.set_storage(
        &mut report,
        traced.first_cycle_locks as f64 * 1e3 / reads.max(1) as f64,
    );

    let first = &instances[0].data;
    let queries: Vec<_> = first.providers().iter().map(|&(p, _)| p).collect();
    layers::set_probes(
        &mut report,
        &probes::rtree(first.customers(), &queries, &[]),
        &probes::storage(first.customers()),
        &probes::flow(first.providers(), first.customers()),
    );
    // Per solver, then averaged: the pooled latencies are four-modal.
    let overhead: f64 = traced
        .plain_ms
        .iter()
        .zip(&traced.traced_ms)
        .map(|(plain, spanned)| layers::overhead_pct(plain, spanned))
        .sum::<f64>()
        / SOLVERS.len() as f64;
    layers::set_trace_quality(&mut report, &times, overhead);
    report.note(format!(
        "{} requests, {} of them under spans",
        traced.tally.verified(),
        traced.traced_ms.iter().map(Vec::len).sum::<usize>()
    ));
    spans_out.append(&mut buf.spans);
    Ok(report)
}
