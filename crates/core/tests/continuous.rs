//! End-to-end tests of the continuous-assignment engine over
//! `cca-datagen` event streams: feasibility after every event of a
//! 1 000-event stream (including mid-repair aborts), and cost staying close
//! to a from-scratch solve.

use std::time::Duration;

use cca_core::{ContinuousAssignment, ContinuousConfig, RepairKind, WorldEvent};
use cca_datagen::{ArrivalProcess, CapacitySpec, StreamEvent, WorkloadConfig};
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

/// Every event crosses the dirty threshold, so every event fully re-solves.
fn always_full_resolve() -> ContinuousConfig {
    ContinuousConfig {
        dirty_threshold: 0.0,
        ..ContinuousConfig::default()
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

/// Incremental repair tracks the from-scratch optimum on a mixed stream.
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
    for _ in 0..600 {
        let report = engine.apply(world(stream.next_event()), None);
        assert!(report.aborted.is_none());
        assert_eq!(report.deficit, 0);
        // Local splices and full re-solves alike leave a valid matching.
        engine.check_feasible().unwrap();
    }
    let scratch = optimal_cost(engine.providers(), engine.alive_customers());
    let ratio = engine.cost() / scratch.max(1e-9);
    assert!(
        ratio <= 1.02,
        "engine drifted {ratio:.4}× from the from-scratch optimum \
         (engine {}, scratch {scratch})",
        engine.cost()
    );
    let stats = engine.stats();
    assert!(stats.local_repairs > 0, "{stats:?}");
    assert!(
        stats.full_resolves > 1,
        "dirty threshold never fired: {stats:?}"
    );
}

/// Arrivals-only (the benchmark's regime): cost within 1% of from-scratch.
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
    for _ in 0..400 {
        let report = engine.apply(world(stream.next_event()), None);
        assert!(report.aborted.is_none());
    }
    engine.check_feasible().unwrap();
    let scratch = optimal_cost(engine.providers(), engine.alive_customers());
    let ratio = engine.cost() / scratch.max(1e-9);
    assert!(
        ratio <= 1.01,
        "arrivals-only drift {ratio:.4}× (engine {}, scratch {scratch})",
        engine.cost()
    );
}

/// Feasible, maximal, and on the complete-bipartite SSPA oracle's cost.
fn assert_optimal(engine: &ContinuousAssignment, at: &str) {
    engine
        .check_feasible()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_eq!(engine.deficit(), 0, "{at}");
    let want = optimal_cost(engine.providers(), engine.alive_customers());
    assert!(
        (engine.cost() - want).abs() <= 1e-9 * want.max(1.0),
        "{at}: engine {} vs oracle {want}",
        engine.cost()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With every event fully re-solving, on worlds of every (small) size
    /// and capacity regime the engine must sit exactly on the optimum after
    /// `build` and after each event.
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
            always_full_resolve(),
        );
        assert_optimal(&engine, "build");
        for i in 0..30 {
            let event = world(stream.next_event());
            let report = engine.apply(event, None);
            prop_assert_eq!(report.repair, RepairKind::Full);
            assert_optimal(&engine, &format!("event {i} ({event:?})"));
        }
    }
}

/// A forced full re-solve that aborts discards IDA's partial and keeps the
/// committed matching untouched.
#[test]
fn aborted_full_resolve_leaves_the_matching_bit_identical() {
    let workload = small_world(11, 6, 60, 20).generate();
    let mut engine = ContinuousAssignment::build(
        workload.providers.clone(),
        workload.customers.clone(),
        always_full_resolve(),
    );
    let before = (engine.matching().pairs, engine.size(), engine.cost());
    let full_resolves = engine.stats().full_resolves;

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
    assert_eq!(
        engine.stats().full_resolves,
        full_resolves + 1,
        "it was tried"
    );
    engine.check_feasible().unwrap();
    assert_eq!(engine.matching().pairs, before.0);
    assert_eq!(engine.size(), before.1);
    assert_eq!(engine.cost().to_bits(), before.2.to_bits());

    assert_eq!(engine.repair(None).unwrap(), RepairKind::Full);
    assert_eq!(engine.deficit(), 0);
}
