//! [`ServingInstance`] — the scheduler's one owner: worker threads plus the
//! two-level tenant-fair queue, living behind an `Arc` for as long as the
//! value does. Submissions arrive from any thread across many batches and
//! connections, and the per-tenant [`TenantStats`] accumulate over the
//! instance's whole lifetime — the cross-batch fairness picture a gateway
//! reports to operators.
//!
//! Work enters one way, [`ServingInstance::submit`], and comes back as a
//! [`Ticket`]. The queue is `'static`, so submitted work owns its data (the
//! wire path: a request decoded from a socket owns its problem). Work that
//! borrows from the caller's stack — e.g. a `SpatialAssignment` held by a
//! batch runner — goes through [`ServingInstance::scope`], whose
//! [`InstanceScope::submit`] blocks the scope's exit until every closure it
//! submitted has been consumed, which is what makes the borrow sound.
//!
//! Dropping the instance flips the shutdown flag and joins the workers;
//! they drain every admitted request first, so outstanding tickets still
//! resolve.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use cca_storage::{QueryContext, TenantId};

use crate::drr::TenantStats;
use crate::scheduler::{execute, Job, Rejected, Request, ServeConfig, Shared, TicketCell, Work};

/// An owned scheduler: worker threads plus the two-level tenant-fair queue,
/// living for as long as the value (not a scope) does.
pub struct ServingInstance<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> ServingInstance<T> {
    /// Starts `config.workers` worker threads over a fresh queue.
    pub fn start(config: ServeConfig) -> Self {
        let shared = Arc::new(Shared::new(&config));
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cca-serve-{i}"))
                    .spawn(move || crate::scheduler::worker(&*shared))
                    .expect("spawn serving worker")
            })
            .collect();
        ServingInstance { shared, workers }
    }

    /// Submits owned (`'static`) work for scheduling. Returns the
    /// [`Ticket`] to await, or sheds the request explicitly (no ticket is
    /// created): [`Rejected::TenantQuotaExceeded`] when the submitting
    /// tenant's own queue-slot quota is exhausted, [`Rejected::QueueFull`]
    /// when the shared backlog is at capacity.
    pub fn submit(&self, request: Request<'static, T>) -> Result<Ticket<T>, Rejected> {
        let Request { ctx, work } = request;
        let cell = Arc::new(TicketCell::new());
        let mut state = self.shared.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let job = Job {
            seq,
            ctx: ctx.clone(),
            cell: Arc::clone(&cell),
            work,
            submitted_at: Instant::now(),
        };
        state.queue.push(ctx.tenant(), ctx.priority(), job)?;
        debug_assert!(state.queue.len() <= state.queue.capacity());
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(Ticket {
            cell,
            ctx,
            seq,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Runs `body` with an [`InstanceScope`] through which work may borrow
    /// from the caller's environment (`'env`). The work is scheduled
    /// *against* whatever else is submitting concurrently and lands in the
    /// same cumulative [`TenantStats`].
    ///
    /// Returns only after every closure submitted through the scope has
    /// been consumed (run to completion on a worker, run on a cancelling
    /// thread, or dropped at teardown), so the borrows are dead — the
    /// scope's whole soundness argument. Waiting on the scope's tickets
    /// inside `body` (the usual pattern) makes this wait a no-op.
    pub fn scope<'env, Out>(&self, body: impl FnOnce(&InstanceScope<'_, 'env, T>) -> Out) -> Out {
        let pending = Arc::new(ScopeState::default());
        let scope = InstanceScope {
            instance: self,
            pending: Arc::clone(&pending),
            _env: std::marker::PhantomData,
        };
        // Declared after `scope`, so it drops first — the wait runs on
        // normal return *and* on a panicking `body`, before `'env` ends.
        let _wait = ScopeWait { state: &pending };
        body(&scope)
    }

    /// Requests currently queued (admitted, not yet dispatched), across
    /// all tenants.
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Operator snapshot of every tenant the instance has seen (or was
    /// configured with), sorted by tenant id: dispatch/abort counters,
    /// cumulative attributed I/O, latency and offered QPS — lifetime
    /// figures, across batches and connections.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.shared.lock().queue.tenant_stats()
    }

    /// Lifetime snapshot of one tenant, if the instance has seen it.
    pub fn tenant_stats_for(&self, tenant: TenantId) -> Option<TenantStats> {
        self.shared.lock().queue.tenant_stats_for(tenant)
    }

    /// Shuts the instance down explicitly (identical to dropping it):
    /// blocks until the workers drain every admitted request and exit.
    /// Outstanding [`Ticket`]s keep working — they share the completion
    /// cells, which all resolve during the drain.
    pub fn shutdown(self) {}
}

impl<T: Send + 'static> Drop for ServingInstance<T> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The caller's handle on one submitted query: await the result, poll it,
/// or cancel the query cooperatively. It is `'static` (it holds no borrowed
/// data), so a connection thread can hold it as long as it likes.
pub struct Ticket<T: Send + 'static> {
    cell: Arc<TicketCell<T>>,
    ctx: QueryContext,
    /// Scheduler-unique id, so a cancel withdraws exactly this entry.
    seq: u64,
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> Ticket<T> {
    /// Blocks until the query finishes and returns its result.
    ///
    /// # Panics
    /// Re-raises the query closure's panic, if it panicked; panics if the
    /// result was already claimed via [`Ticket::try_take`].
    pub fn wait(self) -> T {
        self.cell.wait_take()
    }

    /// Takes the result if the query already finished (`None` while it is
    /// still pending or after the result was taken).
    ///
    /// # Panics
    /// Re-raises the query closure's panic, if it panicked.
    pub fn try_take(&self) -> Option<T> {
        self.cell.try_take()
    }

    /// True once the query finished (stays true after the result is
    /// taken).
    pub fn is_done(&self) -> bool {
        self.cell.is_done()
    }

    /// Requests cooperative cancellation of the query.
    ///
    /// A query that is *still queued* is withdrawn right here: its
    /// admission slot (global and per-tenant) is released at cancel time —
    /// not when a worker would eventually pop the dead entry — and its
    /// closure runs on the cancelling thread, where it observes the
    /// cancelled context at its first poll and unwinds with its partial
    /// result. A *running* query aborts at its next context poll. Either
    /// way, [`Ticket::wait`] still returns the (partial) result.
    pub fn cancel(&self) {
        self.ctx.cancel();
        let withdrawn = self
            .shared
            .lock()
            .queue
            .remove_queued(self.ctx.tenant(), |job| job.seq == self.seq);
        if let Some(job) = withdrawn {
            job.cell.fill(execute(job.work, &job.ctx));
        }
    }

    /// The query's context (for inspecting attribution mid-flight).
    pub fn context(&self) -> &QueryContext {
        &self.ctx
    }
}

/// Count of scope-submitted closures not yet consumed, plus the condvar
/// the scope's exit wait parks on.
#[derive(Default)]
struct ScopeState {
    outstanding: Mutex<usize>,
    all_consumed: Condvar,
}

impl ScopeState {
    fn incr(&self) {
        *self.outstanding.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }

    fn decr(&self) {
        let mut n = self.outstanding.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        if *n == 0 {
            self.all_consumed.notify_all();
        }
    }

    fn wait_consumed(&self) {
        let mut n = self.outstanding.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            n = self.all_consumed.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Owned by every closure a scope submits; dropping it (the closure ran,
/// unwound, or was torn down unrun) is what the scope's exit wait counts.
struct ScopeToken {
    state: Arc<ScopeState>,
}

impl ScopeToken {
    fn new(state: Arc<ScopeState>) -> Self {
        state.incr();
        ScopeToken { state }
    }
}

impl Drop for ScopeToken {
    fn drop(&mut self) {
        self.state.decr();
    }
}

/// Blocks, when dropped, until every token the scope handed out is dead.
struct ScopeWait<'s> {
    state: &'s ScopeState,
}

impl Drop for ScopeWait<'_> {
    fn drop(&mut self) {
        self.state.wait_consumed();
    }
}

/// Submission handle inside [`ServingInstance::scope`]: accepts work
/// borrowing from the scope's environment `'env`.
pub struct InstanceScope<'a, 'env, T: Send + 'static> {
    instance: &'a ServingInstance<T>,
    pending: Arc<ScopeState>,
    /// Invariant in `'env`, like `std::thread::Scope` — the environment
    /// lifetime must not be shortened behind the scope's back.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env, T: Send + 'static> InstanceScope<'_, 'env, T> {
    /// Submits work that may borrow from `'env`, onto the shared
    /// instance. Admission semantics are those of
    /// [`ServingInstance::submit`]; the returned ticket may outlive the
    /// scope (it holds no `'env` data — `T` is `'static`).
    #[allow(unsafe_code)] // the crate's one exception; see SAFETY below
    pub fn submit(&self, request: Request<'env, T>) -> Result<Ticket<T>, Rejected> {
        let Request { ctx, work } = request;
        let token = ScopeToken::new(Arc::clone(&self.pending));
        let work: Work<'env, T> = Box::new(move |ctx: &QueryContext| {
            // Hold the token for the closure's whole run: it drops when
            // the call frame ends — after `work` returns *or* while its
            // panic unwinds — and with the environment if never called.
            let _consumed = token;
            work(ctx)
        });
        // SAFETY: the closure is erased to `'static` so it can sit in the
        // instance's queue, but nothing borrowed from `'env` can
        // be used after `'env` ends: the closure owns a `ScopeToken`, and
        // `ServingInstance::scope` blocks (via `ScopeWait`) until every
        // token is dropped before it returns — i.e. until the closure has
        // been consumed (run on a worker, run on a cancelling thread, or
        // destroyed). `T` itself is `'static`, so results carry no `'env`
        // borrows. Box<dyn FnOnce>'s layout does not depend on the trait
        // object's lifetime bound, so the transmute is layout-safe.
        let work: Work<'static, T> =
            unsafe { std::mem::transmute::<Work<'env, T>, Work<'static, T>>(work) };
        self.instance.submit(Request { ctx, work })
    }

    /// The shared instance the scope submits to.
    pub fn instance(&self) -> &ServingInstance<T> {
        self.instance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drr::TenantQuota;
    use crate::scheduler::tests::park_worker;
    use cca_storage::{IoStats, Priority};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const A: TenantId = TenantId(1);
    const B: TenantId = TenantId(2);

    #[test]
    fn one_instance_serves_sequential_batches_with_cumulative_stats() {
        let instance: ServingInstance<u64> =
            ServingInstance::start(ServeConfig::default().workers(2).queue_capacity(64));
        for batch in 0..3u64 {
            let tickets: Vec<_> = (0..8u64)
                .map(|i| {
                    instance
                        .submit(Request::new(move |_: &QueryContext| batch * 100 + i).tenant(A))
                        .unwrap()
                })
                .collect();
            let sum: u64 = tickets.into_iter().map(Ticket::wait).sum();
            assert_eq!(sum, batch * 800 + 28);
            // The whole point of the owned instance: stats survive the
            // batch boundary instead of dying with a scope.
            let stats = instance.tenant_stats_for(A).unwrap();
            assert_eq!(stats.submitted, (batch + 1) * 8);
            assert_eq!(stats.completed, (batch + 1) * 8);
        }
        instance.shutdown();
    }

    #[test]
    fn submissions_from_many_threads_interleave_on_one_instance() {
        let instance: ServingInstance<u32> =
            ServingInstance::start(ServeConfig::default().workers(4).queue_capacity(256));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let instance = &instance;
                s.spawn(move || {
                    let tenant = TenantId(t % 2 + 1);
                    let tickets: Vec<_> = (0..16)
                        .map(|i| {
                            instance
                                .submit(Request::new(move |_: &QueryContext| i).tenant(tenant))
                                .unwrap()
                        })
                        .collect();
                    for (i, ticket) in tickets.into_iter().enumerate() {
                        assert_eq!(ticket.wait(), i as u32);
                    }
                });
            }
        });
        let a = instance.tenant_stats_for(A).unwrap();
        let b = instance.tenant_stats_for(B).unwrap();
        assert_eq!(a.completed + b.completed, 64);
        assert!(a.qps > 0.0 && b.qps > 0.0);
    }

    #[test]
    fn drop_drains_admitted_work_and_outstanding_tickets_resolve() {
        let ran = Arc::new(AtomicUsize::new(0));
        let instance: ServingInstance<usize> =
            ServingInstance::start(ServeConfig::default().workers(1).queue_capacity(64));
        let (_blocker, release) = park_worker(&instance, usize::MAX);
        let tickets: Vec<_> = (0..16)
            .map(|i| {
                let ran = Arc::clone(&ran);
                instance
                    .submit(Request::new(move |_: &QueryContext| {
                        ran.fetch_add(1, Ordering::SeqCst);
                        i
                    }))
                    .unwrap()
            })
            .collect();
        drop(release);
        drop(instance); // joins workers; they drain all 16 first
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.try_take(), Some(i), "resolved during the drain");
        }
    }

    #[test]
    fn scope_lets_work_borrow_the_callers_stack() {
        let instance: ServingInstance<u64> =
            ServingInstance::start(ServeConfig::default().workers(2).queue_capacity(64));
        // Stack data the closures borrow — this must not require 'static.
        let data: Vec<u64> = (0..100).collect();
        let total: u64 = instance.scope(|scope| {
            let tickets: Vec<_> = data
                .chunks(10)
                .map(|chunk| {
                    scope
                        .submit(Request::new(move |_: &QueryContext| {
                            chunk.iter().sum::<u64>()
                        }))
                        .unwrap()
                })
                .collect();
            tickets.into_iter().map(Ticket::wait).sum()
        });
        assert_eq!(total, 4950);
        // The instance is still alive and serving after the scope.
        let after = instance
            .submit(Request::new(|_: &QueryContext| 7u64))
            .unwrap();
        assert_eq!(after.wait(), 7);
    }

    #[test]
    fn scope_exit_waits_for_unawaited_borrowed_work() {
        let instance: ServingInstance<usize> =
            ServingInstance::start(ServeConfig::default().workers(1).queue_capacity(64));
        let hits = AtomicUsize::new(0);
        instance.scope(|scope| {
            // The worker is parked until the body ends, so every closure
            // below is still queued when the scope starts its exit wait.
            let (_blocker, _release) = park_worker(scope.instance(), 0);
            // Deliberately do NOT wait on the tickets: the scope itself
            // must block until the borrowed closures are consumed.
            for _ in 0..8 {
                let hits = &hits;
                scope
                    .submit(Request::new(move |_: &QueryContext| {
                        hits.fetch_add(1, Ordering::SeqCst)
                    }))
                    .unwrap();
            }
        });
        // Had the scope returned early, this would read fewer than 8.
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn owned_ticket_cancel_withdraws_queued_work_and_frees_the_slot() {
        let instance: ServingInstance<&'static str> = ServingInstance::start(
            ServeConfig::default()
                .workers(1)
                .queue_capacity(2)
                .aging_period(0),
        );
        let (blocker, release) = park_worker(&instance, "blocker");
        let doomed = instance
            .submit(Request::new(|ctx: &QueryContext| {
                match ctx.abort_reason() {
                    Some(_) => "unwound",
                    None => "ran",
                }
            }))
            .unwrap();
        let _keep = instance
            .submit(Request::new(|_: &QueryContext| "keep"))
            .unwrap();
        assert!(matches!(
            instance.submit(Request::new(|_: &QueryContext| "over")),
            Err(Rejected::QueueFull { .. })
        ));
        doomed.cancel();
        assert_eq!(instance.queue_len(), 1, "slot released at cancel time");
        assert_eq!(doomed.wait(), "unwound");
        let stats = instance.tenant_stats_for(TenantId::DEFAULT).unwrap();
        assert_eq!(stats.cancelled_queued, 1);
        drop(release);
        assert_eq!(blocker.wait(), "blocker");
        instance.shutdown();
    }

    #[test]
    fn tenant_quotas_apply_across_submission_sources() {
        let instance: ServingInstance<()> = ServingInstance::start(
            ServeConfig::default()
                .workers(1)
                .queue_capacity(64)
                .tenant_quota(B, TenantQuota::default().queue_slots(1)),
        );
        let (blocker, release) = park_worker(&instance, ());
        // `submit` fills B's only slot; the scope's `submit` then sheds.
        let _queued = instance
            .submit(Request::new(|_: &QueryContext| ()).tenant(B))
            .unwrap();
        instance.scope(|scope| {
            let shed = scope.submit(Request::new(|_: &QueryContext| ()).tenant(B));
            assert_eq!(
                shed.err(),
                Some(Rejected::TenantQuotaExceeded {
                    tenant: B,
                    queue_slots: 1
                })
            );
        });
        drop(release);
        blocker.wait();
    }

    #[test]
    fn stats_io_is_attributed_across_batches() {
        // `finish` folds each query's context-attributed IO into the
        // tenant aggregate; fake it by charging contexts directly.
        let instance: ServingInstance<IoStats> =
            ServingInstance::start(ServeConfig::default().workers(1).queue_capacity(8));
        for _ in 0..2 {
            let ticket = instance
                .submit(
                    Request::new(|ctx: &QueryContext| {
                        ctx.charge(IoStats {
                            hits: 2,
                            faults: 3,
                            writes: 0,
                        });
                        ctx.stats()
                    })
                    .tenant(A)
                    .priority(Priority::High),
                )
                .unwrap();
            assert_eq!(ticket.wait().faults, 3);
        }
        let stats = instance.tenant_stats_for(A).unwrap();
        assert_eq!(stats.io.faults, 6, "IO accumulates across submissions");
        assert_eq!(stats.io.hits, 4);
    }
}
