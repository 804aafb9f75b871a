//! `dyn_events` — a stream of world events through `ContinuousAssignment`.
//!
//! One thread applies a mixed `ArrivalProcess` stream (arrivals,
//! departures, capacity changes, provider moves) with
//! `ContinuousConfig::default()`. The same layers as `lib_paper` are used
//! differently: R-tree `insert`/`delete` and page *writes* beside reads,
//! `SspaCache::apply_delta`, and a full re-solve every time a quarter of
//! the world is dirty. The median event is a ~0.1 ms local repair and
//! hides those re-solves; `throughput_rps` and `setup_s` (the initial
//! build is the same cold solve) do not. A read-path gain that taxes
//! writes shows up here.
//!
//! Arrivals and departures are equally likely, so the world keeps its
//! size and a run measures one input size however many events it gets
//! through. A run drives several worlds drawn from the seed in turn, one
//! block of events each: the worlds are small enough that a block holds a
//! whole re-solve period (so the window's end cuts at most a percent of
//! the work), and pooling them averages out the draw.

use std::time::Instant;

use cca::datagen::{ArrivalProcess, SpatialDistribution, Workload};
use cca::storage::IoStats;
use cca::{
    ContinuousAssignment, ContinuousConfig, DynamicStats, RepairKind, SolverConfig,
    SpatialAssignment,
};

use crate::inputs::{instance, sub_seed, world_event};
use crate::layers::{self, Counts};
use crate::report::{median_setup, Report, Tally, MIN_SAMPLES};
use crate::stats::median;
use crate::trace::{span_times, Clock, Span, SpanBuf};
use crate::{probes, Args};

const WORLDS: usize = 8;
const PROVIDERS: usize = 40;
const CUSTOMERS: usize = 1_000;
const CAPACITY: u32 = 20;
/// Odds of arrive / depart / capacity change / provider move: the default
/// mix's total, with arrivals and departures balanced.
const EVENT_WEIGHTS: [f64; 4] = [3.5, 3.5, 1.0, 0.5];
/// Events a world gets per turn; feasibility and cost are checked after
/// each block.
const BLOCK: u64 = 250;
/// The exact-count metrics cover this many rounds over all worlds.
const COUNT_ROUNDS: u64 = 2;
const COUNT_EVENTS: u64 = COUNT_ROUNDS * WORLDS as u64 * BLOCK;
const PROBE_POINTS: usize = 500;

struct World {
    seed_world: Workload,
    engine: ContinuousAssignment,
    stream: ArrivalProcess,
    build_s: f64,
}

fn setup(seed: u64) -> Result<Vec<World>, String> {
    (0..WORLDS as u64)
        .map(|i| {
            let seed_world = instance(
                sub_seed(seed, 2 * i),
                PROVIDERS,
                CUSTOMERS,
                CAPACITY,
                SpatialDistribution::Clustered,
            );
            let [arrive, depart, capacity, moves] = EVENT_WEIGHTS;
            let stream = ArrivalProcess::new(&seed_world, sub_seed(seed, 2 * i + 1))
                .with_weights(arrive, depart, capacity, moves);
            let t0 = Instant::now();
            let engine = ContinuousAssignment::build(
                seed_world.providers.clone(),
                seed_world.customers.clone(),
                ContinuousConfig::default(),
            );
            let build_s = t0.elapsed().as_secs_f64();
            engine.check_feasible()?;
            Ok(World {
                seed_world,
                engine,
                stream,
                build_s,
            })
        })
        .collect()
}

/// `engine.cost()` over a from-scratch `ida` on the same world, after
/// checking the engine's matching is feasible and maximal.
fn checkpoint(engine: &ContinuousAssignment) -> Result<f64, String> {
    engine.check_feasible()?;
    if engine.deficit() != 0 {
        return Err(format!("matching is {} short of maximal", engine.deficit()));
    }
    let scratch = SpatialAssignment::build(
        engine.providers().to_vec(),
        engine.alive_customers().to_vec(),
    );
    let optimum = scratch
        .run_config(&SolverConfig::new("ida"))
        .map_err(|e| e.to_string())?;
    optimum.validate()?;
    Ok(engine.cost() / optimum.cost())
}

fn apply_span(kind: RepairKind) -> &'static str {
    match kind {
        RepairKind::None => "core.apply.none",
        RepairKind::Local => "core.apply.local",
        RepairKind::Full => "core.apply.full",
    }
}

/// Engine counters, store traffic and store lock acquisitions, summed
/// over the worlds.
fn totals(worlds: &[World]) -> (DynamicStats, IoStats, u64) {
    let mut sum = (DynamicStats::default(), IoStats::default(), 0);
    for w in worlds {
        let (s, store) = (w.engine.stats(), w.engine.tree().store());
        sum.0.local_repairs += s.local_repairs;
        sum.0.expansions += s.expansions;
        sum.0.full_resolves += s.full_resolves;
        sum.0.evicted += s.evicted;
        sum.1 = sum.1 + store.io_stats();
        sum.2 += store.lock_acquisitions();
    }
    sum
}

struct Phase {
    tally: Tally,
    /// Seconds spent inside `apply` (checks excluded).
    busy_s: f64,
    /// [`totals`] after exactly [`COUNT_ROUNDS`] rounds.
    prefix: Option<(DynamicStats, IoStats, u64)>,
    /// Latencies of the events that ran under spans, and of the rest.
    traced_ms: Vec<f64>,
    plain_ms: Vec<f64>,
}

fn measure(
    worlds: &mut [World],
    seconds: f64,
    min_samples: u64,
    mut spans: Option<&mut SpanBuf>,
) -> Phase {
    let mut phase = Phase {
        tally: Tally::default(),
        busy_s: 0.0,
        prefix: None,
        traced_ms: Vec::new(),
        plain_ms: Vec::new(),
    };
    let started = Instant::now();
    let mut n = 0u64;
    for round in 1u64.. {
        for world in worlds.iter_mut() {
            for _ in 0..BLOCK {
                n += 1;
                let event = world_event(world.stream.next_event());
                // A traced run puts every other event under spans, so
                // both halves see the same states of the worlds.
                let traced = spans.as_deref_mut().filter(|_| n.is_multiple_of(2));
                let is_traced = traced.is_some();
                let t0 = Instant::now();
                let outcome = match traced {
                    None => world.engine.apply(event, None),
                    Some(buf) => {
                        let start = buf.now_ns();
                        let r = world.engine.apply(event, None);
                        let end = buf.now_ns();
                        buf.push(apply_span(r.repair), Some("request"), n, start, end);
                        buf.push("request", None, n, start, buf.now_ns());
                        r
                    }
                };
                let latency = t0.elapsed().as_secs_f64();
                phase.busy_s += latency;
                if is_traced {
                    phase.traced_ms.push(latency * 1e3);
                } else {
                    phase.plain_ms.push(latency * 1e3);
                }
                match outcome.aborted {
                    None => phase.tally.ok(latency * 1e3),
                    Some(reason) => phase.tally.fail(format!("event {n} aborted: {reason}")),
                }
            }
            match checkpoint(&world.engine) {
                Ok(ratio) => phase.tally.cost_ratio(ratio),
                Err(why) => phase.tally.fail_check(format!("after event {n}: {why}")),
            }
        }
        if round == COUNT_ROUNDS {
            phase.prefix = Some(totals(worlds));
        }
        // Stop only between rounds, so every world is sampled equally.
        if n >= min_samples && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase
}

pub fn run(args: &Args, spans_out: &mut Vec<Span>) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut worlds, setup_s) = median_setup(|| setup(args.seed))?;
    report.note(format!(
        "dyn_events: {WORLDS} worlds of |Q|={PROVIDERS} |P|={CUSTOMERS} k={CAPACITY} taking turns \
         of {BLOCK} events, ContinuousConfig::default(), 1 thread, ArrivalProcess weights \
         {EVENT_WEIGHTS:?}, feasibility and cost checked after every turn"
    ));

    if !args.trace {
        let phase = measure(&mut worlds, args.seconds, MIN_SAMPLES as u64, None);
        report.count(&phase.tally);
        report.end_to_end(&phase.tally, phase.busy_s, setup_s)?;
        return Ok(report);
    }

    let mut buf = SpanBuf::new(Clock::start());
    let traced = measure(&mut worlds, args.seconds, COUNT_EVENTS, Some(&mut buf));
    report.count(&traced.tally);
    let times = span_times(&mut buf.spans);

    report.not_exercised(layers::NET);
    report.not_exercised(layers::SERVE);
    report.not_exercised(layers::ALGO);
    layers::set_solver_times(&mut report, &times);

    // The worlds are fresh from `build` when the traced phase starts, so
    // their counters at the end of the prefix are the prefix's own.
    let (dynamic, io, locks) = traced.prefix.expect("the traced phase covers the prefix");
    let builds: Vec<f64> = worlds.iter().map(|w| w.build_s).collect();
    report.set("core.dyn_build_s", median(&builds));
    report.set(
        "core.dyn_local_event_us",
        median(times.total_of("core.apply.local")) / 1e3,
    );
    report.set(
        "core.dyn_full_resolve_ms",
        median(times.total_of("core.apply.full")) / 1e6,
    );
    report.set("core.dyn_local_repairs", dynamic.local_repairs as f64);
    report.set("core.dyn_expansions", dynamic.expansions as f64);
    report.set("core.dyn_full_resolves", dynamic.full_resolves as f64);
    report.set("core.dyn_evicted", dynamic.evicted as f64);

    let mut counts = Counts {
        requests: COUNT_EVENTS,
        ..Counts::default()
    };
    counts.algo.io = io;
    counts.set_storage(
        &mut report,
        locks as f64 * 1e3 / io.logical_reads().max(1) as f64,
    );

    let w = &worlds[0].seed_world;
    let queries: Vec<_> = w.providers.iter().map(|&(p, _)| p).collect();
    let fresh = instance(
        sub_seed(args.seed, 2 * WORLDS as u64),
        1,
        PROBE_POINTS,
        1,
        SpatialDistribution::Clustered,
    );
    layers::set_probes(
        &mut report,
        &probes::rtree(&w.customers, &queries, &fresh.customers),
        &probes::storage(&w.customers),
        &probes::flow(&w.providers, &w.customers),
    );
    layers::set_trace_quality(
        &mut report,
        &times,
        layers::overhead_pct(&traced.plain_ms, &traced.traced_ms),
    );
    let share = |span: &str| times.total_sum(span) / times.total_sum("request") * 100.0;
    report.note(format!(
        "{} events, {} of them under spans; counts cover the first {COUNT_EVENTS}; of the traced \
         events' time {:.1} % went to {} full re-solves, {:.1} % to {} local repairs",
        traced.tally.verified(),
        traced.traced_ms.len(),
        share("core.apply.full"),
        times.total_of("core.apply.full").len(),
        share("core.apply.local"),
        times.total_of("core.apply.local").len(),
    ));
    spans_out.append(&mut buf.spans);
    Ok(report)
}
