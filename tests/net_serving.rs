//! PR 6 acceptance: one persistent [`ServingInstance`] behind a TCP
//! gateway serves sequential batches *and* concurrent network tenants,
//! with cross-batch tenant stats, quota shedding and aborts observable as
//! distinct typed wire errors, and per-tenant I/O attribution that sums
//! to the store's fault delta.

mod common;

use std::slice;
use std::sync::Arc;
use std::time::Duration;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{
    Priority, QueryContext, ServeConfig, SolverConfig, SpatialAssignment, TenantId, TenantQuota,
};
use cca_net::{
    codec, ErrorCode, Gateway, Hello, NetClient, NetError, NetRequest, NetResponse, NetServer,
    ProblemSpec, SolveRequest, PROTOCOL_VERSION,
};
use common::run_batch;

const TENANT_A: TenantId = TenantId(1);
const TENANT_B: TenantId = TenantId(2);

/// A disk-backed dataset small enough to solve quickly, big enough that a
/// 1-fault I/O budget is hopeless.
fn dataset() -> Arc<SpatialAssignment> {
    let w = WorkloadConfig {
        num_providers: 8,
        num_customers: 2_000,
        capacity: CapacitySpec::Fixed(300),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 60,
    }
    .generate();
    Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        1.0,
    ))
}

/// A CPU-heavy inline problem: large complete-bipartite SSPA solve that
/// cannot finish inside a sub-second deadline but aborts cooperatively
/// from the flow loop.
fn blocker_problem() -> ProblemSpec {
    let w = WorkloadConfig {
        num_providers: 10,
        num_customers: 8_000,
        capacity: CapacitySpec::Fixed(1_000),
        q_dist: SpatialDistribution::Uniform,
        p_dist: SpatialDistribution::Uniform,
        seed: 61,
    }
    .generate();
    ProblemSpec::Inline {
        providers: w.providers,
        customers: w.customers,
    }
}

/// A small inline problem that solves in milliseconds.
fn quick_problem() -> ProblemSpec {
    let w = WorkloadConfig {
        num_providers: 4,
        num_customers: 60,
        capacity: CapacitySpec::Fixed(20),
        q_dist: SpatialDistribution::Uniform,
        p_dist: SpatialDistribution::Uniform,
        seed: 62,
    }
    .generate();
    ProblemSpec::Inline {
        providers: w.providers,
        customers: w.customers,
    }
}

fn server_fault(err: NetError) -> cca_net::WireFault {
    match err {
        NetError::Server(fault) => *fault,
        other => panic!("expected a server fault, got {other:?}"),
    }
}

fn spin_until(what: &str, mut done: impl FnMut() -> bool) {
    for _ in 0..2_000 {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn one_instance_serves_batches_and_concurrent_tenants_with_typed_shedding() {
    let data = dataset();
    let store_before = data.tree().store().io_stats();

    // One worker and a one-slot global queue make shedding deterministic;
    // tenant B additionally gets a single queue slot of its own.
    let gateway = Arc::new(
        Gateway::builder()
            .serve_config(
                ServeConfig::default()
                    .workers(1)
                    .queue_capacity(1)
                    .tenant_quota(TENANT_B, TenantQuota::default().queue_slots(1)),
            )
            .dataset("paper", Arc::clone(&data))
            .start(),
    );

    // ---- Phase 0: two sequential batches through the same instance -----
    // (no TCP involved yet — the instance outlives individual batches and
    // accumulates tenant A's stats across them). The one-slot queue would
    // shed a second queued query, so each query is waited on before the
    // next is submitted.
    let batch = [SolverConfig::new("ida"), SolverConfig::new("nia")];
    let tenant_a = || QueryContext::new().with_tenant(TENANT_A);
    for round in 1..=2 {
        let mut faults = 0;
        for config in &batch {
            let (results, io) =
                run_batch(gateway.instance(), &data, slice::from_ref(config), tenant_a).unwrap();
            assert_eq!(results.len(), 1);
            faults += io.faults;
        }
        assert!(faults > 0, "disk-backed batch faults pages");
        let stats = gateway
            .instance()
            .tenant_stats_for(TENANT_A)
            .expect("tenant A served a batch");
        assert_eq!(
            stats.completed,
            2 * round,
            "stats accumulate across batches on one instance"
        );
    }

    // ---- Phase 1: the TCP front-end goes live over the same instance ---
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway)).unwrap();
    let addr = server.local_addr();

    let mut a1 = NetClient::connect(addr, TENANT_A).unwrap();
    let mut a2 = NetClient::connect(addr, TENANT_A).unwrap();
    let b1 = NetClient::connect(addr, TENANT_B).unwrap();
    let mut b2 = NetClient::connect(addr, TENANT_B).unwrap();
    a1.ping().unwrap();

    // An I/O-budgeted dataset solve aborts with its own wire code and
    // carries its exact partial attribution (faults == budget).
    let fault = server_fault(
        a1.solve(
            SolveRequest::new(
                SolverConfig::new("ida"),
                ProblemSpec::Dataset("paper".into()),
            )
            .io_budget(1),
        )
        .unwrap_err(),
    );
    assert_eq!(fault.code, ErrorCode::IoBudgetExceeded);
    let partial = fault.partial_stats.expect("aborts carry partial stats");
    assert_eq!(partial.io.faults, 1, "charged exactly the budget");

    // Occupy the single worker with a deadline-doomed CPU-bound solve...
    let blocker = std::thread::spawn({
        let mut a1 = a1;
        move || {
            let err = a1
                .solve(
                    SolveRequest::new(SolverConfig::new("sspa"), blocker_problem())
                        .deadline(Duration::from_millis(750)),
                )
                .unwrap_err();
            (a1, server_fault(err))
        }
    });
    spin_until("the blocker to occupy the worker", || {
        gateway
            .instance()
            .tenant_stats_for(TENANT_A)
            .is_some_and(|s| s.in_flight == 1)
    });

    // ...queue tenant B's quick solve behind it (fills the global queue)...
    let queued_b = std::thread::spawn({
        let mut b1 = b1;
        move || {
            let reply = b1.solve(SolveRequest::new(
                SolverConfig::new("sspa"),
                quick_problem(),
            ));
            (b1, reply)
        }
    });
    spin_until("tenant B's solve to queue", || {
        gateway.instance().queue_len() == 1
    });

    // ...and observe both shedding variants as their own wire codes:
    // tenant B's second request trips B's one-slot quota, tenant A's
    // second request trips the full global queue.
    let fault = server_fault(
        b2.solve(SolveRequest::new(
            SolverConfig::new("sspa"),
            quick_problem(),
        ))
        .unwrap_err(),
    );
    assert_eq!(fault.code, ErrorCode::TenantQuotaExceeded);
    let fault = server_fault(
        a2.solve(SolveRequest::new(
            SolverConfig::new("sspa"),
            quick_problem(),
        ))
        .unwrap_err(),
    );
    assert_eq!(fault.code, ErrorCode::QueueFull);

    // The blocker comes back as a deadline abort (not a hang, not a drop).
    let (a1, fault) = blocker.join().unwrap();
    assert_eq!(fault.code, ErrorCode::DeadlineExceeded);
    assert!(fault.partial_stats.is_some());
    let (b1, queued_reply) = queued_b.join().unwrap();
    queued_reply.expect("tenant B's queued solve runs once the worker frees");

    // ---- Phase 2: both tenants solve concurrently against the dataset --
    let solver_names = ["ida", "nia"];
    let workers: Vec<_> = [(a1, TENANT_A), (b1, TENANT_B)]
        .into_iter()
        .map(|(mut client, tenant)| {
            std::thread::spawn(move || {
                for name in solver_names {
                    loop {
                        match client.solve(SolveRequest::new(
                            SolverConfig::new(name),
                            ProblemSpec::Dataset("paper".into()),
                        )) {
                            Ok(reply) => {
                                assert!(reply.matching.size() > 0, "{tenant:?}/{name}");
                                break;
                            }
                            // The shared queue is tiny; shedding is the
                            // backpressure signal, so re-offer.
                            Err(NetError::Server(fault))
                                if matches!(
                                    fault.code,
                                    ErrorCode::QueueFull | ErrorCode::TenantQuotaExceeded
                                ) =>
                            {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(other) => panic!("{tenant:?}/{name}: {other}"),
                        }
                    }
                }
                client
            })
        })
        .collect();
    let mut clients: Vec<NetClient> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // ---- Stats: attribution, rates and cross-source accumulation -------
    let stats = clients[0].stats().unwrap().tenants;
    let a = stats
        .iter()
        .find(|s| s.tenant == TENANT_A)
        .expect("tenant A visible over the wire");
    let b = stats
        .iter()
        .find(|s| s.tenant == TENANT_B)
        .expect("tenant B visible over the wire");
    // Tenant A: 4 batch queries + the io-budget abort + the deadline
    // abort + 2 dataset solves. Tenant B: 3 solves. Shed counts are lower
    // bounds: phase 2's backpressure retries shed nondeterministically.
    assert_eq!(a.completed, 6, "batches and wire solves share one ledger");
    assert_eq!(a.aborted, 2);
    assert!(a.rejected >= 1, "tenant A saw the full global queue");
    assert_eq!(b.completed, 3);
    assert!(b.rejected >= 1, "tenant B tripped its own quota");
    assert!(a.qps > 0.0, "offered-rate meter saw tenant A");
    assert!(b.qps > 0.0, "offered-rate meter saw tenant B");

    // Every page fault since the snapshot happened under some tenant's
    // context: per-tenant attributed faults sum to the store-wide delta.
    let store_delta = data.tree().store().io_stats().since(&store_before);
    assert_eq!(
        a.io.faults + b.io.faults,
        store_delta.faults,
        "attributed I/O sums to the store's fault delta"
    );
    assert!(store_delta.faults > 0);

    server.shutdown();
    gateway.instance().tenant_stats();
}

/// PR 8: the approximate tier is reachable by name through the unchanged
/// wire protocol — `coreset` solves a loopback client's requests
/// end-to-end, a retired name (`da`) is a typed unknown-solver fault
/// listing what is registered, admission and per-tenant attribution
/// hold, and a doomed
/// I/O budget still surfaces as the same typed abort carrying exact
/// partial attribution.
#[test]
fn approximate_solvers_serve_by_name_with_attribution_and_typed_aborts() {
    let data = dataset();
    let store_before = data.tree().store().io_stats();
    let gateway = Arc::new(
        Gateway::builder()
            .serve_config(ServeConfig::default().workers(1).queue_capacity(4))
            .dataset("paper", Arc::clone(&data))
            .start(),
    );
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway)).unwrap();
    let mut client = NetClient::connect(server.local_addr(), TENANT_A).unwrap();

    // Coreset against the disk-backed dataset: a genuinely subsampled run
    // (256 reps for 2 000 customers) must still return the full matching —
    // feasibility is by construction, γ = min(2 000, 8·300).
    let reply = client
        .solve(SolveRequest::new(
            SolverConfig::new("coreset")
                .coreset_size(256)
                .swap_passes(1),
            ProblemSpec::Dataset("paper".into()),
        ))
        .unwrap();
    assert_eq!(reply.matching.size(), 2_000, "lifted matching is full-size");

    // `da` is no longer registered: a typed fault naming the alternatives.
    let fault = server_fault(
        client
            .solve(SolveRequest::new(SolverConfig::new("da"), quick_problem()))
            .unwrap_err(),
    );
    assert_eq!(fault.code, ErrorCode::UnknownSolver);
    assert!(fault.message.contains("coreset"), "{}", fault.message);

    // A 1-fault budget cannot even sweep the customer pages: the abort
    // comes back as the existing typed wire error with exact partial
    // attribution, no new protocol surface.
    let fault = server_fault(
        client
            .solve(
                SolveRequest::new(
                    SolverConfig::new("coreset"),
                    ProblemSpec::Dataset("paper".into()),
                )
                .io_budget(1),
            )
            .unwrap_err(),
    );
    assert_eq!(fault.code, ErrorCode::IoBudgetExceeded);
    let partial = fault.partial_stats.expect("aborts carry partial stats");
    assert_eq!(partial.io.faults, 1, "charged exactly the budget");

    // Admission ledger and I/O attribution cover the approximate tier like
    // any other solver: 1 completion + 1 abort (the unknown name never took
    // a queue slot), and tenant A's attributed faults equal the store-wide
    // delta (it was the only tenant).
    let stats = client.stats().unwrap().tenants;
    let a = stats
        .iter()
        .find(|s| s.tenant == TENANT_A)
        .expect("tenant A visible over the wire");
    assert_eq!(a.submitted, 2);
    assert_eq!(a.completed, 1);
    assert_eq!(a.aborted, 1);
    let store_delta = data.tree().store().io_stats().since(&store_before);
    assert_eq!(a.io.faults, store_delta.faults, "attribution sums exactly");
    assert!(store_delta.faults > 0, "the dataset solve faulted pages");

    server.shutdown();
}

#[test]
fn version_mismatch_and_garbage_frames_get_typed_errors() {
    let gateway = Arc::new(
        Gateway::builder()
            .serve_config(ServeConfig::default().workers(1).queue_capacity(2))
            .start(),
    );
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway)).unwrap();
    let addr = server.local_addr();
    let max = gateway.max_frame();

    // A client speaking the wrong protocol version is told so and cut off.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let hello = Hello {
            tenant: TENANT_A,
            version: PROTOCOL_VERSION + 1,
        };
        codec::send_message(&mut stream, &hello, max).unwrap();
        let reply: NetResponse = codec::recv_message(&mut stream, max).unwrap().unwrap();
        match reply {
            NetResponse::Error(fault) => assert_eq!(fault.code, ErrorCode::VersionMismatch),
            other => panic!("expected version mismatch, got {other:?}"),
        }
        assert!(
            codec::recv_message::<NetResponse>(&mut stream, max)
                .unwrap()
                .is_none(),
            "server closes a mismatched connection"
        );
    }

    // A well-framed but undecodable payload gets a BadRequest *and keeps
    // the connection alive* (framing never desynchronised).
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        codec::send_message(&mut stream, &Hello::new(TENANT_A), max).unwrap();
        let ack: NetResponse = codec::recv_message(&mut stream, max).unwrap().unwrap();
        assert!(matches!(ack, NetResponse::Hello(_)));

        codec::write_frame(&mut stream, b"}{ definitely not a request", max).unwrap();
        let reply: NetResponse = codec::recv_message(&mut stream, max).unwrap().unwrap();
        match reply {
            NetResponse::Error(fault) => assert_eq!(fault.code, ErrorCode::BadRequest),
            other => panic!("expected bad request, got {other:?}"),
        }

        codec::send_message(&mut stream, &NetRequest::Ping, max).unwrap();
        let reply: NetResponse = codec::recv_message(&mut stream, max).unwrap().unwrap();
        assert!(matches!(reply, NetResponse::Pong), "connection survived");
    }

    // Priority still rides the wire end-to-end after a reconnect.
    let mut client = NetClient::connect(addr, TENANT_B).unwrap();
    let reply = client
        .solve(
            SolveRequest::new(
                SolverConfig::new("sspa"),
                ProblemSpec::Inline {
                    providers: vec![(cca::geo::Point::new(0.0, 0.0), 4)],
                    customers: vec![cca::geo::Point::new(1.0, 1.0)],
                },
            )
            .priority(Priority::High),
        )
        .unwrap();
    assert_eq!(reply.matching.size(), 1);

    server.shutdown();
}
