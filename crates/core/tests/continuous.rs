//! End-to-end tests of the continuous-assignment engine over
//! `cca-datagen` event streams: feasibility after every event of a
//! 1 000-event stream (including mid-repair aborts), and the cost of a
//! from-scratch solve after every event of a clean one.

use std::time::Duration;

use cca_core::{ContinuousAssignment, ContinuousConfig, RepairKind, WorldEvent};
use cca_datagen::{ArrivalProcess, CapacitySpec, StreamEvent, WorkloadConfig};
use cca_flow::{unit_customers, FlowProvider, Sspa};
use cca_storage::{AbortReason, QueryContext};
use cca_testutil::optimal_cost;
use proptest::prelude::*;

/// The datagen vocabulary maps one-to-one onto the engine's (datagen sits
/// below core in the crate layering, so the conversion lives with callers).
fn world(ev: StreamEvent) -> WorldEvent {
    match ev {
        StreamEvent::CustomerArrive { id, pos } => WorldEvent::CustomerArrive { id, pos },
        StreamEvent::CustomerDepart { id, .. } => WorldEvent::CustomerDepart { id },
        StreamEvent::ProviderCapacityDelta { index, delta } => {
            WorldEvent::ProviderCapacityDelta { index, delta }
        }
        StreamEvent::ProviderMove { index, to } => WorldEvent::ProviderMove { index, to },
    }
}

fn small_world(seed: u64, num_providers: usize, num_customers: usize, k: u32) -> WorkloadConfig {
    WorkloadConfig {
        num_providers,
        num_customers,
        capacity: CapacitySpec::Fixed(k),
        seed,
        ..WorkloadConfig::paper_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The acceptance stream: 1 000 mixed events, a hostile context every
    /// 37th event, and the matching must validate after every single one.
    #[test]
    fn prop_thousand_event_stream_stays_feasible(seed in 0u64..1_000) {
        let spec = small_world(seed, 10, 120, 20);
        let workload = spec.generate();
        let mut stream = ArrivalProcess::new(&workload, seed);
        let mut engine = ContinuousAssignment::build(
            workload.providers.clone(),
            workload.customers.clone(),
            ContinuousConfig::default(),
        );
        let mut aborted_events = 0u32;
        for i in 0..1_000u64 {
            let event = world(stream.next_event());
            let report = if i % 37 == 36 {
                // Alternate abort flavours mid-repair: a cancelled context,
                // an exhausted I/O budget, an expired deadline.
                let ctx = match (i / 37) % 3 {
                    0 => {
                        let c = QueryContext::new();
                        c.cancel();
                        c
                    }
                    1 => QueryContext::new().with_io_budget(1),
                    _ => QueryContext::new().with_timeout(Duration::ZERO),
                };
                let report = engine.apply(event, Some(&ctx));
                if report.aborted.is_some() {
                    aborted_events += 1;
                }
                report
            } else {
                engine.apply(event, None)
            };
            // Feasibility holds unconditionally — aborts unwind to the
            // last committed matching.
            engine.check_feasible().unwrap_or_else(|e| {
                panic!("event {i} ({event:?}, aborted={:?}): {e}", report.aborted)
            });
            prop_assert_eq!(engine.alive_customers().len(), stream.live_customers());
        }
        // The hostile contexts really did interrupt repairs mid-flight...
        prop_assert!(aborted_events > 0, "no abort ever fired: {:?}", engine.stats());
        prop_assert_eq!(u64::from(aborted_events), engine.stats().aborted_repairs);
        // ...and one clean repair pass recovers maximality.
        engine.repair(None).unwrap();
        prop_assert_eq!(engine.deficit(), 0);
        engine.check_feasible().unwrap();
    }
}

/// The optimum by the complete-graph SSPA baseline: exact, and sharing no
/// code with the engine's provider graph. The per-event checks below use it
/// because the Hungarian oracle ([`optimal_cost`]) is about 20× slower on
/// these worlds in debug builds; each stream still ends on that oracle.
fn sspa_cost(engine: &ContinuousAssignment) -> f64 {
    let providers: Vec<FlowProvider> = engine
        .providers()
        .iter()
        .map(|&(pos, cap)| FlowProvider { pos, cap })
        .collect();
    let customers = unit_customers(engine.alive_customers());
    let (asg, _) = Sspa::default().solve(&providers, &customers).unwrap();
    asg.cost
}

/// Feasible, maximal, and on the cost `want`.
fn assert_cost(engine: &ContinuousAssignment, want: f64, at: &str) {
    engine
        .check_feasible()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_eq!(engine.deficit(), 0, "{at}");
    assert!(
        (engine.cost() - want).abs() <= 1e-9 * want.max(1.0),
        "{at}: engine {} vs optimum {want}",
        engine.cost()
    );
}

/// Feasible, maximal, and on the Hungarian oracle's cost.
fn assert_optimal(engine: &ContinuousAssignment, at: &str) {
    let want = optimal_cost(engine.providers(), engine.alive_customers());
    assert_cost(engine, want, at);
}

/// The engine sits on the from-scratch optimum after every event of a
/// mixed stream.
#[test]
fn mixed_stream_cost_stays_near_scratch() {
    let spec = small_world(42, 12, 150, 16);
    let workload = spec.generate();
    let mut stream = ArrivalProcess::new(&workload, 42);
    let mut engine = ContinuousAssignment::build(
        workload.providers.clone(),
        workload.customers.clone(),
        ContinuousConfig::default(),
    );
    for i in 0..600 {
        let event = world(stream.next_event());
        let report = engine.apply(event, None);
        assert!(report.aborted.is_none());
        assert_cost(
            &engine,
            sspa_cost(&engine),
            &format!("event {i} ({event:?})"),
        );
    }
    assert_optimal(&engine, "end of stream");
    let stats = engine.stats();
    assert!(stats.local_repairs > 0, "{stats:?}");
    assert_eq!(stats.full_resolves, 1, "only the initial solve: {stats:?}");
}

/// Arrivals-only (the benchmark's regime): the engine sits on the
/// from-scratch optimum after every arrival.
#[test]
fn arrival_stream_cost_within_one_percent() {
    let spec = small_world(7, 10, 200, 30);
    let workload = spec.generate();
    let mut stream = ArrivalProcess::arrivals_only(&workload, 7);
    let mut engine = ContinuousAssignment::build(
        workload.providers.clone(),
        workload.customers.clone(),
        ContinuousConfig::default(),
    );
    for i in 0..400 {
        let event = world(stream.next_event());
        let report = engine.apply(event, None);
        assert!(report.aborted.is_none());
        assert_cost(&engine, sspa_cost(&engine), &format!("arrival {i}"));
    }
    assert_optimal(&engine, "end of stream");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On worlds of every (small) size and capacity regime the engine must
    /// sit exactly on the optimum after `build` and after each event.
    #[test]
    fn prop_full_resolve_tracks_the_sspa_oracle(
        seed in 0u64..10_000,
        num_providers in 1usize..7,
        num_customers in 4usize..48,
        k in 1u32..12,
    ) {
        let workload = small_world(seed, num_providers, num_customers, k).generate();
        let mut stream = ArrivalProcess::new(&workload, seed);
        let mut engine = ContinuousAssignment::build(
            workload.providers.clone(),
            workload.customers.clone(),
            ContinuousConfig::default(),
        );
        assert_optimal(&engine, "build");
        for i in 0..30 {
            let event = world(stream.next_event());
            let report = engine.apply(event, None);
            prop_assert!(report.aborted.is_none());
            assert_optimal(&engine, &format!("event {i} ({event:?})"));
        }
    }
}

/// An aborted re-optimisation undoes its own moves and labels and keeps the
/// committed matching untouched.
#[test]
fn aborted_full_resolve_leaves_the_matching_bit_identical() {
    let workload = small_world(11, 6, 60, 20).generate();
    let mut engine = ContinuousAssignment::build(
        workload.providers.clone(),
        workload.customers.clone(),
        ContinuousConfig::default(),
    );
    let before = (engine.matching().pairs, engine.size(), engine.cost());
    let tried = engine.stats().local_repairs;

    // An arrival commits without touching any standing pair.
    let ctx = QueryContext::new().with_timeout(Duration::ZERO);
    let arrival = WorldEvent::CustomerArrive {
        id: 9_000,
        pos: workload.providers[0].0,
    };
    let report = engine.apply(arrival, Some(&ctx));
    assert_eq!(report.aborted, Some(AbortReason::DeadlineExceeded));
    assert_eq!(report.repair, RepairKind::None);
    assert_eq!(
        report.deficit, 1,
        "surplus capacity: the arrival is owed a slot"
    );
    assert_eq!(engine.stats().local_repairs, tried + 1, "it was tried");
    engine.check_feasible().unwrap();
    assert_eq!(engine.matching().pairs, before.0);
    assert_eq!(engine.size(), before.1);
    assert_eq!(engine.cost().to_bits(), before.2.to_bits());

    assert_eq!(engine.repair(None).unwrap(), RepairKind::Local);
    assert_optimal(&engine, "repair");
}
