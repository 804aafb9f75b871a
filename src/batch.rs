//! [`BatchRunner`] — many independent CCA queries over one shared,
//! immutable R-tree, executed across threads.
//!
//! The runner is a thin adapter over the [`cca_serve`] scheduler: queries
//! are submitted as owned serving requests (each under its own
//! [`QueryContext`], holding an `Arc` on the instance and on its solver)
//! into the bounded priority queue and executed by an owned
//! [`ServingInstance`] (private and per-batch in [`BatchRunner::run`];
//! shared, long-lived and caller-provided in [`BatchRunner::run_on`], where
//! batches coexist with a network gateway's traffic and tenant stats
//! accumulate across batches). A batch admits every query (the queue is
//! sized to the batch, so nothing is shed) and blocks until all tickets
//! resolve, with the serving semantics: per-query deadlines and I/O budgets
//! ([`BatchRunner::query_deadline`], [`BatchRunner::query_io_budget`]) that
//! turn runaway queries into [`QueryResult::aborted`] partial results, and
//! a batch-wide scheduling priority ([`BatchRunner::priority`]).
//!
//! Matchings are bit-identical between parallel and sequential execution —
//! the algorithms never read buffer-pool state, only charge it — which
//! [`BatchRunner::run_sequential`] exists to demonstrate (and tests
//! enforce). Every query runs under its own [`QueryContext`], so per-query
//! [`AlgoStats::io`] reports exactly the pages that query touched even
//! while workers share the one buffer pool; the per-query fault counts
//! sum to the batch-aggregate delta on [`BatchReport::io`] — aborted
//! queries included, since a context is charged for precisely the faults it
//! caused before stopping.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cca_core::solver::{Solver, SolverConfig, SolverConfigError, SolverRegistry};
use cca_core::{AlgoStats, Matching};
use cca_serve::{Request, ServeConfig, ServingInstance, Ticket};
use cca_storage::{AbortReason, IoStats, Priority, QueryContext, TenantId};

use crate::SpatialAssignment;

/// Executes batches of queries against one shared [`SpatialAssignment`].
pub struct BatchRunner {
    instance: Arc<SpatialAssignment>,
    threads: usize,
    priority: Priority,
    tenant: TenantId,
    deadline: Option<Duration>,
    io_budget: Option<u64>,
}

impl BatchRunner {
    /// A runner over `instance` with one worker per available hardware
    /// thread.
    pub fn new(instance: Arc<SpatialAssignment>) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchRunner {
            instance,
            threads,
            priority: Priority::Normal,
            tenant: TenantId::DEFAULT,
            deadline: None,
            io_budget: None,
        }
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one worker thread");
        self.threads = threads;
        self
    }

    /// Sets the scheduling priority the batch's queries are submitted at
    /// (relevant when several batches share one instance's serving layer).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Labels every query of the batch with `tenant`: each query's
    /// [`QueryContext`] carries the id, so its buffer-pool traffic and
    /// abort state are attributable to the tenant all the way down, and a
    /// serving deployment running several batches through one shared
    /// `cca_serve` scheduler gets tenant-fair dispatch and per-tenant
    /// quotas between them.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Gives every query of the batch a deadline of `timeout` from its
    /// submission (queue wait included). Queries past the deadline abort
    /// cooperatively and come back as partial results with
    /// [`QueryResult::aborted`] set.
    pub fn query_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
        self
    }

    /// Caps every query of the batch at `faults` page faults. A query that
    /// exhausts its budget aborts with [`AbortReason::IoBudgetExceeded`]
    /// and its partial `stats.io.faults` equals the budget exactly.
    pub fn query_io_budget(mut self, faults: u64) -> Self {
        self.io_budget = Some(faults);
        self
    }

    /// Runs `queries` across the configured worker threads.
    ///
    /// Fails up front (before touching the instance) if any query names an
    /// unregistered solver or carries an out-of-range parameter.
    pub fn run(&self, queries: &[SolverConfig]) -> Result<BatchReport, SolverConfigError> {
        self.execute(queries, self.threads)
    }

    /// Runs `queries` one after another on a single worker — the reference
    /// semantics `run` must reproduce result-wise.
    pub fn run_sequential(
        &self,
        queries: &[SolverConfig],
    ) -> Result<BatchReport, SolverConfigError> {
        self.execute(queries, 1)
    }

    /// The per-query context a batch query is submitted under.
    fn query_context(&self) -> QueryContext {
        let mut ctx = QueryContext::new()
            .with_priority(self.priority)
            .with_tenant(self.tenant);
        if let Some(faults) = self.io_budget {
            ctx = ctx.with_io_budget(faults);
        }
        if let Some(timeout) = self.deadline {
            ctx = ctx.with_timeout(timeout);
        }
        ctx
    }

    fn execute(
        &self,
        queries: &[SolverConfig],
        threads: usize,
    ) -> Result<BatchReport, SolverConfigError> {
        // Build every solver up front: any bad config fails the batch
        // before the instance is touched.
        let solvers = self.build_all(queries)?;
        let store = self.instance.tree().store();
        // One defined starting state per batch; queries then share the
        // warming cache, as concurrent traffic on a live instance would.
        store.clear_cache();
        let io_before = store.io_stats();
        let start = Instant::now();

        // A private instance whose queue admits the whole batch, so
        // `submit_all` never has to retry here.
        let config = ServeConfig::default()
            .workers(threads.min(queries.len()).max(1))
            .queue_capacity(queries.len().max(1));
        let instance = ServingInstance::start(config);
        let results = self.submit_all(&instance, queries, &solvers);
        instance.shutdown();
        Ok(BatchReport {
            results,
            io: store.io_stats().since(&io_before),
            wall: start.elapsed(),
        })
    }

    /// Runs `queries` on a *shared* [`ServingInstance`] instead of a
    /// private per-batch pool — the cross-batch serving path: several
    /// sequential batches (and any concurrent submitters, e.g. a network
    /// gateway) share the instance's workers, queue capacity, tenant
    /// quotas and cumulative [`cca_serve::TenantStats`].
    ///
    /// Differences from [`BatchRunner::run`], which follow from sharing:
    /// the buffer pool is *not* cleared (a live instance's cache keeps its
    /// warmth across batches); shed submissions are retried with
    /// backpressure until admitted (the queue belongs to everyone, so the
    /// batch waits its turn rather than panicking); and
    /// [`BatchReport::io`] is the *sum of the batch's own per-query
    /// attributed I/O*, not a store-wide delta — concurrent traffic from
    /// other submitters must not pollute this batch's number.
    pub fn run_on(
        &self,
        instance: &ServingInstance<QueryResult>,
        queries: &[SolverConfig],
    ) -> Result<BatchReport, SolverConfigError> {
        let solvers = self.build_all(queries)?;
        let start = Instant::now();
        let results = self.submit_all(instance, queries, &solvers);
        let io = results
            .iter()
            .fold(IoStats::default(), |acc, r| acc + r.stats.io);
        Ok(BatchReport {
            results,
            io,
            wall: start.elapsed(),
        })
    }

    /// Builds every query's solver, failing on the first bad config.
    fn build_all(&self, queries: &[SolverConfig]) -> Result<Vec<Arc<Solver>>, SolverConfigError> {
        let registry = SolverRegistry::with_defaults();
        queries
            .iter()
            .map(|q| registry.build(q).map(Arc::new))
            .collect()
    }

    /// Submits every query as owned work (each closure holds its own
    /// handles on the instance and its solver) and waits for all tickets.
    /// A shed submission is retried until the queue admits it: batch
    /// semantics are "run all", so on a shared queue that is momentarily
    /// full (or out of this tenant's slots) shedding degrades to waiting.
    fn submit_all(
        &self,
        instance: &ServingInstance<QueryResult>,
        queries: &[SolverConfig],
        solvers: &[Arc<Solver>],
    ) -> Vec<QueryResult> {
        let tickets: Vec<Ticket<QueryResult>> = queries
            .iter()
            .zip(solvers)
            .enumerate()
            .map(|(index, (config, solver))| loop {
                let data = Arc::clone(&self.instance);
                let solver = Arc::clone(solver);
                let config = config.clone();
                let request = Request::new(move |ctx: &QueryContext| {
                    run_one(&data, index, config, &solver, ctx)
                })
                .context(self.query_context());
                match instance.submit(request) {
                    Ok(ticket) => break ticket,
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            })
            .collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }
}

fn run_one(
    data: &SpatialAssignment,
    index: usize,
    config: SolverConfig,
    solver: &Solver,
    ctx: &QueryContext,
) -> QueryResult {
    // The scheduler hands each query its own context: the store charges
    // it alongside the store counters, so `stats.io` is this query's own
    // traffic even with other workers hammering the same pool — and the
    // context's deadline/budget/cancellation govern the run.
    let outcome = solver.run(&data.problem().with_context(ctx));
    let aborted = outcome.abort_reason();
    let (matching, stats) = outcome.into_parts();
    QueryResult {
        index,
        label: solver.label(),
        config,
        matching,
        stats,
        aborted,
    }
}

/// One query's outcome within a batch.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Position of the query in the submitted batch.
    pub index: usize,
    /// The solver's figure label (`"IDA"`, `"CAN"`, …).
    pub label: String,
    /// The config the query was built from.
    pub config: SolverConfig,
    pub matching: Matching,
    /// Algorithm counters, CPU time, and this query's own buffer-pool
    /// traffic (attributed through its [`QueryContext`]).
    pub stats: AlgoStats,
    /// Why the query aborted (deadline / I/O budget / cancellation), or
    /// `None` when it ran to completion. Aborted queries carry their
    /// partial matching and exact partial I/O attribution.
    pub aborted: Option<AbortReason>,
}

/// The outcome of one batch: per-query results (in submission order) plus
/// batch-aggregate I/O and wall time.
pub struct BatchReport {
    pub results: Vec<QueryResult>,
    /// Buffer-pool traffic of the whole batch over the shared tree: the
    /// store-wide delta for a private-pool run ([`BatchRunner::run`]), or
    /// the sum of the batch's own per-query attributed I/O when the
    /// instance is shared ([`BatchRunner::run_on`]).
    pub io: IoStats,
    /// Wall-clock time of the batch (all workers).
    pub wall: Duration,
}

impl BatchReport {
    /// Sum of all matching costs.
    pub fn total_cost(&self) -> f64 {
        self.results.iter().map(|r| r.matching.cost()).sum()
    }

    /// Sum of per-query CPU time (exceeds `wall` when workers overlap).
    pub fn total_cpu(&self) -> Duration {
        self.results.iter().map(|r| r.stats.cpu_time).sum()
    }

    /// Number of queries that aborted (deadline / budget / cancellation).
    pub fn num_aborted(&self) -> usize {
        self.results.iter().filter(|r| r.aborted.is_some()).count()
    }

    /// Aggregate algorithm counters across the batch, with the batch-level
    /// I/O folded in.
    pub fn aggregate_stats(&self) -> AlgoStats {
        let mut agg = AlgoStats {
            io: self.io,
            ..Default::default()
        };
        for r in &self.results {
            agg.esub_edges += r.stats.esub_edges;
            agg.dijkstra_runs += r.stats.dijkstra_runs;
            agg.pua_runs += r.stats.pua_runs;
            agg.iterations += r.stats.iterations;
            agg.invalid_paths += r.stats.invalid_paths;
            agg.fast_phase_matches += r.stats.fast_phase_matches;
            agg.cpu_time += r.stats.cpu_time;
        }
        agg
    }
}
