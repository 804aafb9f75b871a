//! The scheduler's parts: its configuration, the request and rejection
//! vocabulary, the completion cell behind every ticket, and the worker loop
//! that drains the two-level ready queue (tenant-fair DRR over per-tenant
//! priority+aging queues). [`crate::ServingInstance`] owns and drives them.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cca_storage::{Priority, QueryContext, TenantId};

use crate::drr::{DrrQueue, TenantQuota};

/// Scheduler tuning.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Global admission bound: queued (not yet running) requests beyond
    /// this are shed with [`Rejected::QueueFull`]. This is semaphore-style
    /// admission control — the capacity is the number of backlog permits,
    /// shared by all tenants.
    pub queue_capacity: usize,
    /// *Per-tenant* dispatches between priority-aging rounds (`0` disables
    /// aging). With `L` priority levels, a waiter reaches its tenant's top
    /// level after at most `(L − 1) × aging_period` of that tenant's own
    /// dispatches — the anti-starvation bound, now per tenant.
    pub aging_period: u32,
    /// Weight and quotas applied to tenants without an explicit entry in
    /// [`ServeConfig::quotas`].
    pub default_quota: TenantQuota,
    /// Per-tenant overrides of weight / queue slots / in-flight cap.
    pub quotas: Vec<(TenantId, TenantQuota)>,
    /// Width of the sliding window behind [`crate::TenantStats::qps`]: each
    /// tenant's submission rate is averaged over the last `rate_window`
    /// seconds (whole seconds; at least one).
    pub rate_window: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 1024,
            aging_period: 8,
            default_quota: TenantQuota::default(),
            quotas: Vec::new(),
            rate_window: Duration::from_secs(10),
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker");
        self.workers = workers;
        self
    }

    /// Sets the global admission bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity of at least one request");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the aging period (`0` disables anti-starvation promotion).
    pub fn aging_period(mut self, period: u32) -> Self {
        self.aging_period = period;
        self
    }

    /// Sets the quota applied to tenants without an explicit override.
    pub fn default_quota(mut self, quota: TenantQuota) -> Self {
        self.default_quota = quota;
        self
    }

    /// Sets (or replaces) one tenant's weight and admission quotas.
    pub fn tenant_quota(mut self, tenant: TenantId, quota: TenantQuota) -> Self {
        if let Some(entry) = self.quotas.iter_mut().find(|(t, _)| *t == tenant) {
            entry.1 = quota;
        } else {
            self.quotas.push((tenant, quota));
        }
        self
    }

    /// Sets the QPS sliding-window width (≥ 1 s; whole seconds).
    pub fn rate_window(mut self, window: Duration) -> Self {
        assert!(
            window >= Duration::from_secs(1),
            "rate window of at least one second"
        );
        self.rate_window = window;
        self
    }
}

/// Why a submission was refused — the explicit load-shedding signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The global backlog is at capacity; retry later or shed the query.
    QueueFull {
        /// The configured admission bound that was hit.
        capacity: usize,
    },
    /// The submitting tenant's own queue-slot quota is exhausted — other
    /// tenants' traffic is unaffected, which is the point: one party
    /// cannot convert its flood into everyone's `QueueFull`.
    TenantQuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: TenantId,
        /// The tenant's configured backlog permit count.
        queue_slots: usize,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} queued requests)")
            }
            Rejected::TenantQuotaExceeded {
                tenant,
                queue_slots,
            } => {
                write!(f, "{tenant} queue quota exhausted ({queue_slots} slots)")
            }
        }
    }
}

impl std::error::Error for Rejected {}

pub(crate) type Work<'env, T> = Box<dyn FnOnce(&QueryContext) -> T + Send + 'env>;

/// One query submission: the work closure plus its [`QueryContext`]
/// (tenant, priority, deadline, I/O budget, cancellation).
pub struct Request<'env, T> {
    pub(crate) ctx: QueryContext,
    pub(crate) work: Work<'env, T>,
}

impl<'env, T> Request<'env, T> {
    /// A request running `work` under a fresh default context.
    pub fn new(work: impl FnOnce(&QueryContext) -> T + Send + 'env) -> Self {
        Request {
            ctx: QueryContext::new(),
            work: Box::new(work),
        }
    }

    /// Replaces the query context (tenant, deadline, budget, priority, …).
    pub fn context(mut self, ctx: QueryContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Sets just the priority, keeping the rest of the context.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.ctx = self.ctx.with_priority(priority);
        self
    }

    /// Sets just the tenant, keeping the rest of the context.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.ctx = self.ctx.with_tenant(tenant);
        self
    }
}

/// Completion state of one submitted query. Distinguishing `Taken` and
/// `Panicked` from `Pending` keeps [`crate::Ticket::wait`] from blocking
/// forever on a slot that will never be (re)filled.
pub(crate) enum Slot<T> {
    /// Not finished yet.
    Pending,
    /// Finished; result not yet claimed.
    Done(T),
    /// Result already claimed by [`crate::Ticket::try_take`].
    Taken,
    /// The query closure panicked; the payload is re-raised at the waiter.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Completion cell shared between a running job and its [`crate::Ticket`].
pub(crate) struct TicketCell<T> {
    slot: Mutex<Slot<T>>,
    done: Condvar,
}

impl<T> TicketCell<T> {
    pub(crate) fn new() -> Self {
        TicketCell {
            slot: Mutex::new(Slot::Pending),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slot<T>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn fill(&self, slot: Slot<T>) {
        *self.lock() = slot;
        self.done.notify_all();
    }

    /// Blocks until the cell resolves and claims the result; re-raises the
    /// closure's panic; panics if the result was already claimed.
    pub(crate) fn wait_take(&self) -> T {
        let mut slot = self.lock();
        loop {
            match std::mem::replace(&mut *slot, Slot::Pending) {
                Slot::Done(result) => {
                    *slot = Slot::Taken;
                    return result;
                }
                Slot::Panicked(payload) => {
                    *slot = Slot::Taken;
                    drop(slot);
                    std::panic::resume_unwind(payload);
                }
                Slot::Taken => panic!("ticket result already taken"),
                Slot::Pending => {
                    slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Claims the result if resolved (`None` while pending or after it was
    /// taken); re-raises the closure's panic.
    pub(crate) fn try_take(&self) -> Option<T> {
        let mut slot = self.lock();
        match std::mem::replace(&mut *slot, Slot::Pending) {
            Slot::Done(result) => {
                *slot = Slot::Taken;
                Some(result)
            }
            Slot::Panicked(payload) => {
                *slot = Slot::Taken;
                drop(slot);
                std::panic::resume_unwind(payload);
            }
            Slot::Taken => {
                *slot = Slot::Taken;
                None
            }
            Slot::Pending => None,
        }
    }

    /// True once the cell resolved (stays true after the result is taken).
    pub(crate) fn is_done(&self) -> bool {
        !matches!(*self.lock(), Slot::Pending)
    }
}

/// Runs a job's closure under its context, catching a panicking closure so
/// the waiter never blocks on an unfilled cell.
pub(crate) fn execute<T>(work: Work<'static, T>, ctx: &QueryContext) -> Slot<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(ctx))) {
        Ok(value) => Slot::Done(value),
        Err(payload) => Slot::Panicked(payload),
    }
}

pub(crate) struct Job<T> {
    /// Scheduler-unique id, so a cancel can withdraw exactly this entry.
    pub(crate) seq: u64,
    pub(crate) ctx: QueryContext,
    pub(crate) cell: Arc<TicketCell<T>>,
    pub(crate) work: Work<'static, T>,
    pub(crate) submitted_at: Instant,
}

pub(crate) struct State<T> {
    pub(crate) queue: DrrQueue<Job<T>>,
    pub(crate) next_seq: u64,
    pub(crate) shutdown: bool,
}

pub(crate) struct Shared<T> {
    pub(crate) state: Mutex<State<T>>,
    pub(crate) work_ready: Condvar,
}

impl<T> Shared<T> {
    pub(crate) fn new(config: &ServeConfig) -> Self {
        assert!(config.workers >= 1, "at least one worker");
        assert!(config.queue_capacity >= 1, "capacity of at least one");
        Shared {
            state: Mutex::new(State {
                queue: DrrQueue::new(
                    config.queue_capacity,
                    config.aging_period,
                    config.default_quota,
                    &config.quotas,
                    config.rate_window,
                ),
                next_seq: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub(crate) fn worker<T>(shared: &Shared<T>) {
    let mut state = shared.lock();
    loop {
        if let Some((tenant, job)) = state.queue.pop() {
            drop(state);
            // The closure polls the context itself (an expired deadline or
            // cancelled queued job unwinds on its first poll).
            let Job {
                ctx,
                cell,
                work,
                submitted_at,
                ..
            } = job;
            let slot = execute(work, &ctx);
            state = shared.lock();
            // `recorded_abort`, not `abort_reason`: the latter is an active
            // poll that could record a deadline that expired *after* the
            // closure finished, counting a cleanly completed query as
            // aborted in the stats while its ticket reports completion.
            state.queue.finish(
                tenant,
                ctx.stats(),
                submitted_at.elapsed(),
                ctx.recorded_abort().is_some(),
            );
            // A completion can unblock an in-flight-capped tenant's backlog
            // for the *other* parked workers, and during shutdown sleepers
            // must recheck the exit condition — wake everyone (completions
            // are not a hot path; the dispatch path still uses notify_one).
            if !state.queue.is_empty() || state.shutdown {
                shared.work_ready.notify_all();
            }
            drop(state);
            // Resolve the ticket only after the accounting landed, so a
            // waiter that observes the result also observes its tenant's
            // stats updated.
            cell.fill(slot);
            state = shared.lock();
        } else if state.queue.is_empty() && state.shutdown {
            // Drained and shutting down. (A non-empty queue whose tenants
            // are all at their in-flight caps waits below instead: their
            // running queries are on other workers, whose completions
            // notify.)
            return;
        } else {
            state = shared
                .work_ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ServingInstance, Ticket};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// Parks an instance's only worker: submits a blocker that holds the
    /// worker until the returned sender is dropped, and returns once the
    /// blocker is running — so the queue is empty and every later
    /// submission queues up behind it deterministically.
    pub(crate) fn park_worker<T: Send + 'static>(
        instance: &ServingInstance<T>,
        result: T,
    ) -> (Ticket<T>, mpsc::Sender<()>) {
        let (started_tx, started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let blocker = instance
            .submit(Request::new(move |_: &QueryContext| {
                started_tx.send(()).unwrap();
                let _ = released.recv();
                result
            }))
            .unwrap();
        started.recv().unwrap();
        (blocker, release)
    }

    #[test]
    fn submits_run_and_tickets_resolve() {
        let outputs = ServingInstance::start(ServeConfig::default().workers(4)).scope(|scope| {
            let tickets: Vec<_> = (0..32)
                .map(|i| scope.submit(Request::new(move |_| i * 2)).unwrap())
                .collect();
            tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
        });
        assert_eq!(outputs, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn queue_full_sheds_explicitly() {
        // One worker parked so the queue can be saturated deterministically.
        let config = ServeConfig::default()
            .workers(1)
            .queue_capacity(2)
            .aging_period(0);
        let instance = ServingInstance::start(config);
        let (blocker, release) = park_worker(&instance, ());
        let _a = instance.submit(Request::new(|_| ())).unwrap();
        let _b = instance.submit(Request::new(|_| ())).unwrap();
        let shed = instance.submit(Request::new(|_| ()));
        assert!(matches!(shed, Err(Rejected::QueueFull { capacity: 2 })));
        drop(release); // release the worker; shutdown drains the rest
        blocker.wait();
    }

    #[test]
    fn higher_priority_overtakes_with_one_worker() {
        let order = Mutex::new(Vec::new());
        let config = ServeConfig::default()
            .workers(1)
            .queue_capacity(16)
            .aging_period(0);
        ServingInstance::start(config).scope(|scope| {
            let (blocker, release) = park_worker(scope.instance(), ());
            let mut tickets = Vec::new();
            for (name, priority) in [
                ("low", Priority::Low),
                ("normal", Priority::Normal),
                ("critical", Priority::Critical),
                ("high", Priority::High),
            ] {
                let order = &order;
                tickets.push(
                    scope
                        .submit(
                            Request::new(move |_| order.lock().unwrap().push(name))
                                .priority(priority),
                        )
                        .unwrap(),
                );
            }
            drop(release);
            blocker.wait();
            for t in tickets {
                t.wait();
            }
        });
        assert_eq!(
            *order.lock().unwrap(),
            vec!["critical", "high", "normal", "low"]
        );
    }

    #[test]
    fn panicking_request_resurfaces_at_wait_without_hanging() {
        let result = std::panic::catch_unwind(|| {
            let instance = ServingInstance::start(ServeConfig::default().workers(1));
            let bad = instance
                .submit(Request::new(|_| -> usize { panic!("solver bug") }))
                .unwrap();
            // The worker survives the panic and keeps serving.
            let good = instance.submit(Request::new(|_| 7usize)).unwrap();
            assert_eq!(good.wait(), 7);
            bad.wait() // re-raises "solver bug"
        });
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"solver bug"));
    }

    #[test]
    fn panicking_body_still_shuts_workers_down() {
        // The instance's `Drop` runs while the panic unwinds: without the
        // shutdown flag it sets, the join there would hang forever instead
        // of propagating the panic.
        let result = std::panic::catch_unwind(|| {
            ServingInstance::<()>::start(ServeConfig::default().workers(2))
                .scope(|_scope| panic!("body bug"))
        });
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"body bug"));
    }

    #[test]
    fn wait_after_try_take_panics_instead_of_blocking() {
        let result = std::panic::catch_unwind(|| {
            let instance = ServingInstance::start(ServeConfig::default().workers(1));
            let ticket = instance.submit(Request::new(|_| 42usize)).unwrap();
            // One worker runs jobs in order: once a later job resolved,
            // this one has too.
            instance.submit(Request::new(|_| 0usize)).unwrap().wait();
            assert!(ticket.is_done());
            assert_eq!(ticket.try_take(), Some(42));
            assert!(ticket.is_done(), "done stays true after taking");
            assert_eq!(ticket.try_take(), None, "second poll sees it taken");
            ticket.wait() // must fail fast, not block forever
        });
        assert!(result.is_err());
    }

    #[test]
    fn cancellation_reaches_the_running_closure() {
        let instance = ServingInstance::start(ServeConfig::default().workers(1));
        let (started_tx, started) = mpsc::channel();
        let ticket = instance
            .submit(Request::new(move |ctx: &QueryContext| {
                started_tx.send(()).unwrap();
                // Poll until the ticket cancels us.
                while ctx.abort_reason().is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ctx.abort_reason()
            }))
            .unwrap();
        started.recv().unwrap();
        ticket.cancel();
        assert_eq!(ticket.wait(), Some(cca_storage::AbortReason::Cancelled));
    }

    /// Cancelling a *still-queued* ticket releases its admission slot at
    /// cancel time — the freed permit is reusable immediately, before any
    /// worker touches the dead entry — and the ticket still resolves with
    /// the closure's cancelled-context result.
    #[test]
    fn cancel_of_queued_job_releases_the_slot_immediately() {
        let config = ServeConfig::default()
            .workers(1)
            .queue_capacity(2)
            .aging_period(0);
        let instance = ServingInstance::start(config);
        let (blocker, release) = park_worker(&instance, "blocker");
        // Saturate the backlog while the only worker is parked.
        let doomed = instance
            .submit(Request::new(|ctx: &QueryContext| {
                match ctx.abort_reason() {
                    Some(_) => "unwound",
                    None => "ran",
                }
            }))
            .unwrap();
        let _keep = instance.submit(Request::new(|_| "keep")).unwrap();
        assert!(matches!(
            instance.submit(Request::new(|_| "over")),
            Err(Rejected::QueueFull { .. })
        ));
        // Cancel the queued job: both permits' accounting must update
        // with the worker still parked.
        doomed.cancel();
        assert_eq!(instance.queue_len(), 1, "slot released at cancel time");
        let refill = instance.submit(Request::new(|_| "refill")).unwrap();
        // The cancelled ticket resolved on the cancelling thread with the
        // closure's cancelled-context result.
        assert!(doomed.is_done());
        assert_eq!(doomed.wait(), "unwound");
        let stats = instance.tenant_stats_for(TenantId::DEFAULT).unwrap();
        assert_eq!(stats.cancelled_queued, 1);
        drop(release);
        assert_eq!(blocker.wait(), "blocker");
        refill.wait();
    }

    /// The ISSUE's adversarial fairness scenario, end to end: tenant A
    /// floods critical-priority work, tenant B (equal weight) submits less
    /// and at lower priority — yet over every 50-dispatch window of a
    /// saturated run, B receives at least 40 % of the dispatches.
    #[test]
    fn adversarial_tenant_cannot_starve_an_equal_weight_peer() {
        const A: TenantId = TenantId(1);
        const B: TenantId = TenantId(2);
        let order = Mutex::new(Vec::new());
        let config = ServeConfig::default()
            .workers(1)
            .queue_capacity(256)
            .aging_period(4);
        ServingInstance::start(config).scope(|scope| {
            let (blocker, release) = park_worker(scope.instance(), ());
            let mut tickets = Vec::new();
            let order = &order;
            // A floods 120 critical requests; B submits 60 normal ones.
            for (tenant, n, priority) in [(A, 120, Priority::Critical), (B, 60, Priority::Normal)] {
                for _ in 0..n {
                    tickets.push(
                        scope
                            .submit(
                                Request::new(move |ctx: &QueryContext| {
                                    order.lock().unwrap().push(ctx.tenant());
                                })
                                .tenant(tenant)
                                .priority(priority),
                            )
                            .unwrap(),
                    );
                }
            }
            drop(release);
            blocker.wait();
            for t in tickets {
                t.wait();
            }
            let a_stats = scope.instance().tenant_stats_for(A).unwrap();
            let b_stats = scope.instance().tenant_stats_for(B).unwrap();
            assert_eq!(a_stats.dispatched, 120);
            assert_eq!(b_stats.dispatched, 60);
            assert_eq!(a_stats.completed, 120);
            assert!(b_stats.max_latency >= b_stats.mean_latency());
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 180);
        // While both tenants are backlogged (the first 120 dispatches),
        // every 50-wide window splits 25/25 — B's ≥ 40 % share holds.
        for window in order[..120].windows(50) {
            let b = window.iter().filter(|&&t| t == B).count();
            assert!(
                b >= 20,
                "tenant B got {b}/50 dispatches in a saturated window"
            );
        }
    }

    #[test]
    fn tenant_queue_quota_rejects_only_that_tenant() {
        const NOISY: TenantId = TenantId(9);
        let config = ServeConfig::default()
            .workers(1)
            .queue_capacity(64)
            .tenant_quota(NOISY, TenantQuota::default().queue_slots(2));
        let instance = ServingInstance::start(config);
        let (blocker, release) = park_worker(&instance, ());
        let mut tickets = Vec::new();
        for _ in 0..2 {
            tickets.push(instance.submit(Request::new(|_| ()).tenant(NOISY)).unwrap());
        }
        let shed = instance.submit(Request::new(|_| ()).tenant(NOISY));
        assert_eq!(
            shed.err(),
            Some(Rejected::TenantQuotaExceeded {
                tenant: NOISY,
                queue_slots: 2
            })
        );
        // The default tenant still has the global queue to itself.
        tickets.push(instance.submit(Request::new(|_| ())).unwrap());
        let stats = instance.tenant_stats_for(NOISY).unwrap();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queued, 2);
        drop(release);
        blocker.wait();
        for t in tickets {
            t.wait();
        }
    }

    /// An in-flight cap bounds worker occupancy: with 2 workers and a cap
    /// of 1, no two of the capped tenant's queries may ever run
    /// concurrently — dispatch is gated, admission is not.
    #[test]
    fn in_flight_cap_bounds_concurrency() {
        const CAPPED: TenantId = TenantId(3);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let config = ServeConfig::default()
            .workers(2)
            .queue_capacity(64)
            .tenant_quota(CAPPED, TenantQuota::default().max_in_flight(1));
        ServingInstance::start(config).scope(|scope| {
            let concurrent = &concurrent;
            let peak = &peak;
            let tickets: Vec<_> = (0..6)
                .map(|_| {
                    scope
                        .submit(
                            Request::new(move |_| {
                                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                // Stay running long enough for the other
                                // worker to overlap, were the cap broken.
                                std::thread::sleep(Duration::from_millis(2));
                                concurrent.fetch_sub(1, Ordering::SeqCst);
                            })
                            .tenant(CAPPED),
                        )
                        .unwrap()
                })
                .collect();
            for t in tickets {
                t.wait();
            }
        });
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "cap of 1 must serialise the tenant's queries"
        );
    }

    /// The satellite starvation bound, end to end — unchanged from PR 4
    /// but now *per tenant*: one worker, a saturated stream of
    /// high-priority requests, and a single low-priority request submitted
    /// first, all under one tenant. With aging every `A` of the tenant's
    /// dispatches the low request must be dispatched within `3A + 1`
    /// rounds of entering the queue.
    #[test]
    fn aged_low_priority_request_completes_within_bounded_rounds() {
        const AGING: u32 = 4;
        const HIGH_BACKLOG: usize = 8;
        let dispatched = AtomicUsize::new(0);
        let config = ServeConfig::default()
            .workers(1)
            .queue_capacity(64)
            .aging_period(AGING);
        let low_round = ServingInstance::start(config).scope(|scope| {
            let (blocker, release) = park_worker(scope.instance(), 0usize);
            // Low enters first, then a standing high-priority backlog.
            let dispatched = &dispatched;
            let submit = |priority| {
                scope.submit(
                    Request::new(move |_| dispatched.fetch_add(1, Ordering::SeqCst) + 1)
                        .priority(priority),
                )
            };
            let low = submit(Priority::Low).unwrap();
            let mut highs: Vec<_> = (0..HIGH_BACKLOG)
                .map(|_| submit(Priority::High).unwrap())
                .collect();
            drop(release);
            blocker.wait();
            // Keep the queue saturated with fresh high-priority work until
            // the low request completes.
            loop {
                if let Some(round) = low.try_take() {
                    for h in highs {
                        h.wait();
                    }
                    return round;
                }
                if let Ok(t) = submit(Priority::High) {
                    highs.push(t);
                }
                std::thread::yield_now();
            }
        });
        let bound = (3 * AGING + 1) as usize;
        assert!(
            low_round <= bound,
            "low-priority request dispatched in round {low_round}, bound {bound}"
        );
    }
}
