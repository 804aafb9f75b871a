//! [`ServingInstance`] — the scheduler's one owner: worker threads plus the
//! two-level tenant-fair queue, living behind an `Arc` for as long as the
//! value does. Submissions arrive from any thread across many batches and
//! connections, and the per-tenant [`TenantStats`] accumulate over the
//! instance's whole lifetime — the cross-batch fairness picture a gateway
//! reports to operators.
//!
//! Work enters one way, [`ServingInstance::submit`], and comes back as a
//! [`Ticket`]. The queue is `'static`, so submitted work owns its data: a
//! request decoded from a socket owns its problem, and a batch runner's
//! query holds an `Arc` on the instance it solves.
//!
//! Dropping the instance flips the shutdown flag and joins the workers;
//! they drain every admitted request first, so outstanding tickets still
//! resolve.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cca_storage::{QueryContext, TenantId};

use crate::drr::TenantStats;
use crate::scheduler::{execute, Job, Rejected, Request, ServeConfig, Shared, TicketCell};

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
    pub fn submit(&self, request: Request<T>) -> Result<Ticket<T>, Rejected> {
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
        // One thread fills B's only slot; a second thread's submission for
        // B then sheds.
        let _queued = instance
            .submit(Request::new(|_: &QueryContext| ()).tenant(B))
            .unwrap();
        std::thread::scope(|s| {
            let shed = s
                .spawn(|| instance.submit(Request::new(|_: &QueryContext| ()).tenant(B)))
                .join()
                .unwrap();
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
