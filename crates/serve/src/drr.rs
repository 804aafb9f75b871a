//! [`DrrQueue`] — the scheduler's two-level, tenant-fair ready queue.
//!
//! Level 1 picks the *tenant* by weighted deficit-round-robin (DRR):
//! backlogged tenants sit in a ring, each with a deficit counter refilled
//! with its weight when its turn starts, and every dispatch costs one
//! deficit unit — so over any saturated window tenants receive dispatches
//! in proportion to their weights, regardless of how many requests (or how
//! high-priority) an aggressive tenant floods in. Level 2 keeps the
//! [`AgingQueue`] priority+aging semantics *within* each tenant, preserving
//! the deterministic per-tenant starvation bound (`3 × aging_period + 1`
//! tenant-local dispatches) the PR 4 tests pin down.
//!
//! Admission is bounded twice: a global backlog capacity shared by all
//! tenants, and per-tenant quotas ([`TenantQuota`]) — queue slots rejected
//! at submit time, and an in-flight cap that gates *dispatch* (a tenant at
//! its cap is rotated past without spending deficit, so its backlog waits
//! without blocking anyone else's).
//!
//! The queue also owns the per-tenant accounting behind the scheduler's
//! [`TenantStats`] snapshots: admission/rejection/dispatch counters, abort
//! and latency aggregates, and cumulative I/O aggregated from each query's
//! [`cca_storage::QueryContext`] attribution at completion time.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use cca_storage::{IoStats, Priority, TenantId};

use crate::queue::AgingQueue;
use crate::rate::RateMeter;
use crate::scheduler::Rejected;

/// Per-tenant scheduling weight and admission quotas.
///
/// Built builder-style; the default is weight 1 with unlimited quotas
/// (fairness without caps):
///
/// ```
/// use cca_serve::TenantQuota;
/// let quota = TenantQuota::default().weight(3).queue_slots(64).max_in_flight(2);
/// assert_eq!(quota.weight, 3);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TenantQuota {
    /// DRR weight: dispatches granted per round while backlogged (≥ 1).
    /// A tenant with weight 2 receives twice the dispatch share of a
    /// weight-1 tenant under saturation.
    pub weight: u32,
    /// Backlog permits: queued (not yet dispatched) requests beyond this
    /// are shed with `Rejected::TenantQuotaExceeded` even when the global
    /// queue still has room.
    pub queue_slots: usize,
    /// Concurrency cap: the tenant's queued work is not dispatched while
    /// this many of its queries are running, bounding how much of the
    /// worker pool one tenant can occupy.
    pub max_in_flight: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            weight: 1,
            queue_slots: usize::MAX,
            max_in_flight: usize::MAX,
        }
    }
}

impl TenantQuota {
    /// Sets the DRR weight (≥ 1).
    pub fn weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "a tenant needs a positive weight");
        self.weight = weight;
        self
    }

    /// Sets the per-tenant backlog permit count (≥ 1).
    pub fn queue_slots(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "at least one queue slot");
        self.queue_slots = slots;
        self
    }

    /// Sets the per-tenant concurrency cap (≥ 1).
    pub fn max_in_flight(mut self, max: usize) -> Self {
        assert!(max >= 1, "at least one in-flight query");
        self.max_in_flight = max;
        self
    }
}

/// Operator-facing snapshot of one tenant's serving state, taken under the
/// scheduler lock by [`crate::ServingInstance::tenant_stats`].
#[derive(Clone, Debug)]
pub struct TenantStats {
    pub tenant: TenantId,
    /// The DRR weight the tenant is scheduled at.
    pub weight: u32,
    /// Requests admitted into the queue (lifetime).
    pub submitted: u64,
    /// Requests shed at admission (tenant quota or global capacity).
    pub rejected: u64,
    /// Requests handed to a worker (lifetime).
    pub dispatched: u64,
    /// Dispatched requests that finished with a clean context.
    pub completed: u64,
    /// Dispatched requests whose context was aborted (deadline, I/O
    /// budget or cancellation) by the time they finished.
    pub aborted: u64,
    /// Still-queued requests withdrawn at cancel time (their admission
    /// slot was released without a dispatch).
    pub cancelled_queued: u64,
    /// Requests queued right now.
    pub queued: usize,
    /// Requests running right now.
    pub in_flight: usize,
    /// Cumulative buffer-pool traffic attributed to this tenant's queries
    /// (summed from each query's `QueryContext` at completion).
    pub io: IoStats,
    /// Sum of submit→finish latencies of finished queries.
    pub total_latency: Duration,
    /// Worst submit→finish latency seen.
    pub max_latency: Duration,
    /// Offered submission rate (requests/s, admitted *and* shed) averaged
    /// over the scheduler's sliding `rate_window` — the load the tenant is
    /// putting on the admission queue right now.
    pub qps: f64,
}

impl TenantStats {
    /// Finished queries (completed + aborted).
    pub fn finished(&self) -> u64 {
        self.completed + self.aborted
    }

    /// Mean submit→finish latency, or zero before anything finished.
    pub fn mean_latency(&self) -> Duration {
        match self.finished() {
            0 => Duration::ZERO,
            n => self.total_latency / u32::try_from(n.min(u64::from(u32::MAX))).unwrap_or(1),
        }
    }

    /// The paper's charged I/O time for this tenant's cumulative faults.
    pub fn charged_io_ms(&self) -> f64 {
        self.io.charged_io_time_ms()
    }
}

/// One tenant's level-2 queue plus its DRR and accounting state.
struct TenantState<T> {
    queue: AgingQueue<T>,
    quota: TenantQuota,
    /// Remaining dispatches in the tenant's current DRR turn.
    deficit: u64,
    in_flight: usize,
    submitted: u64,
    rejected: u64,
    dispatched: u64,
    completed: u64,
    aborted: u64,
    cancelled_queued: u64,
    io: IoStats,
    total_latency: Duration,
    max_latency: Duration,
    meter: RateMeter,
}

impl<T> TenantState<T> {
    fn new(quota: TenantQuota, aging_period: u32, rate_window: Duration) -> Self {
        TenantState {
            // The tenant's quota and the global capacity are checked by
            // `DrrQueue::push` before the entry reaches its AgingQueue.
            queue: AgingQueue::new(aging_period),
            quota,
            deficit: 0,
            in_flight: 0,
            submitted: 0,
            rejected: 0,
            dispatched: 0,
            completed: 0,
            aborted: 0,
            cancelled_queued: 0,
            io: IoStats::default(),
            total_latency: Duration::ZERO,
            max_latency: Duration::ZERO,
            meter: RateMeter::new(rate_window),
        }
    }

    fn stats(&self, tenant: TenantId) -> TenantStats {
        TenantStats {
            tenant,
            weight: self.quota.weight,
            submitted: self.submitted,
            rejected: self.rejected,
            dispatched: self.dispatched,
            completed: self.completed,
            aborted: self.aborted,
            cancelled_queued: self.cancelled_queued,
            queued: self.queue.len(),
            in_flight: self.in_flight,
            io: self.io,
            total_latency: self.total_latency,
            max_latency: self.max_latency,
            qps: self.meter.rate(),
        }
    }
}

/// The two-level ready queue: weighted DRR across tenants, priority+aging
/// within each tenant. All operations run under the scheduler's mutex.
pub(crate) struct DrrQueue<T> {
    tenants: HashMap<TenantId, TenantState<T>>,
    /// Backlogged tenants in round-robin order; invariant: a tenant is in
    /// the ring iff its level-2 queue is non-empty (each appears once).
    ring: VecDeque<TenantId>,
    len: usize,
    capacity: usize,
    aging_period: u32,
    default_quota: TenantQuota,
    rate_window: Duration,
}

impl<T> DrrQueue<T> {
    pub(crate) fn new(
        capacity: usize,
        aging_period: u32,
        default_quota: TenantQuota,
        quotas: &[(TenantId, TenantQuota)],
        rate_window: Duration,
    ) -> Self {
        let mut q = DrrQueue {
            tenants: HashMap::new(),
            ring: VecDeque::new(),
            len: 0,
            capacity,
            aging_period,
            default_quota,
            rate_window,
        };
        // Pre-seed configured tenants so their weights/quotas apply from
        // the first submit and they appear in stats snapshots immediately.
        for &(tenant, quota) in quotas {
            q.tenants
                .insert(tenant, TenantState::new(quota, aging_period, rate_window));
        }
        q
    }

    /// Total queued entries across all tenants.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The global admission bound.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    fn tenant_mut(&mut self, tenant: TenantId) -> &mut TenantState<T> {
        let (aging, quota, window) = (self.aging_period, self.default_quota, self.rate_window);
        self.tenants
            .entry(tenant)
            .or_insert_with(|| TenantState::new(quota, aging, window))
    }

    /// Admits `item` for `tenant` at `priority`, or sheds it (the item is
    /// dropped) with the quota/capacity that was hit. Tenant quota is
    /// checked first — the more specific shedding signal.
    pub(crate) fn push(
        &mut self,
        tenant: TenantId,
        priority: Priority,
        item: T,
    ) -> Result<(), Rejected> {
        let global_full = self.len >= self.capacity;
        // A tenant the scheduler has never admitted anything for gets no
        // state while the queue is full — an adversary cycling fresh
        // tenant ids against a saturated queue must not grow the map (the
        // un-tracked rejection costs it its stats entry, nothing else).
        if global_full && !self.tenants.contains_key(&tenant) {
            return Err(Rejected::QueueFull {
                capacity: self.capacity,
            });
        }
        let state = self.tenant_mut(tenant);
        // Meter the *offer*, not just the admission: shed traffic is
        // exactly what a quota-sizing operator needs to see. (The
        // never-admitted-tenant rejection above stays unmetered by design —
        // no state may be allocated for it.)
        state.meter.record();
        if state.queue.len() >= state.quota.queue_slots {
            state.rejected += 1;
            return Err(Rejected::TenantQuotaExceeded {
                tenant,
                queue_slots: state.quota.queue_slots,
            });
        }
        if global_full {
            state.rejected += 1;
            return Err(Rejected::QueueFull {
                capacity: self.capacity,
            });
        }
        let was_empty = state.queue.is_empty();
        state.queue.push(priority, item);
        state.submitted += 1;
        self.len += 1;
        if was_empty {
            self.ring.push_back(tenant);
        }
        Ok(())
    }

    /// Dequeues the next job by the two-level policy, or `None` when the
    /// backlog is empty *or* every backlogged tenant sits at its in-flight
    /// cap (a completion will unblock it — the scheduler re-polls then).
    pub(crate) fn pop(&mut self) -> Option<(TenantId, T)> {
        // One pass over the ring: tenants at their in-flight cap are
        // rotated past without spending deficit; if everyone is capped,
        // report no eligible work.
        let mut capped = 0;
        while capped < self.ring.len() {
            let tenant = *self.ring.front().expect("ring non-empty in loop");
            let state = self.tenants.get_mut(&tenant).expect("ring tenant exists");
            debug_assert!(!state.queue.is_empty(), "ring holds backlogged tenants");
            if state.in_flight >= state.quota.max_in_flight {
                self.ring.rotate_left(1);
                capped += 1;
                continue;
            }
            // The tenant's turn: refill the deficit if a new turn starts,
            // spend one unit per dispatch.
            if state.deficit == 0 {
                state.deficit = u64::from(state.quota.weight);
            }
            state.deficit -= 1;
            let item = state.queue.pop().expect("backlogged tenant has work");
            state.in_flight += 1;
            state.dispatched += 1;
            self.len -= 1;
            if state.queue.is_empty() {
                // Classic DRR: an emptied tenant leaves the ring and
                // forfeits its residual deficit (no credit hoarding while
                // idle).
                state.deficit = 0;
                self.ring.pop_front();
            } else if state.deficit == 0 {
                self.ring.rotate_left(1);
            }
            return Some((tenant, item));
        }
        None
    }

    /// Withdraws the first still-queued entry of `tenant` matching `pred`
    /// (cancel-time slot release). Returns the entry so the caller can
    /// resolve its ticket.
    pub(crate) fn remove_queued(
        &mut self,
        tenant: TenantId,
        pred: impl FnMut(&T) -> bool,
    ) -> Option<T> {
        let state = self.tenants.get_mut(&tenant)?;
        let item = state.queue.remove_first(pred)?;
        state.cancelled_queued += 1;
        self.len -= 1;
        if state.queue.is_empty() {
            state.deficit = 0;
            self.ring.retain(|&t| t != tenant);
        }
        Some(item)
    }

    /// Records the completion of a dispatched job: frees the in-flight
    /// slot and folds the query's attribution into the tenant aggregates.
    pub(crate) fn finish(
        &mut self,
        tenant: TenantId,
        io: IoStats,
        latency: Duration,
        aborted: bool,
    ) {
        let state = self.tenant_mut(tenant);
        debug_assert!(state.in_flight > 0, "finish without a dispatch");
        state.in_flight = state.in_flight.saturating_sub(1);
        if aborted {
            state.aborted += 1;
        } else {
            state.completed += 1;
        }
        state.io = state.io + io;
        state.total_latency += latency;
        state.max_latency = state.max_latency.max(latency);
    }

    /// Queued entries of one tenant (test observability).
    #[cfg(test)]
    pub(crate) fn queued_of(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |s| s.queue.len())
    }

    /// Snapshots every tenant ever seen (configured or observed), sorted
    /// by tenant id for stable operator output.
    pub(crate) fn tenant_stats(&self) -> Vec<TenantStats> {
        let mut stats: Vec<TenantStats> = self
            .tenants
            .iter()
            .map(|(&tenant, state)| state.stats(tenant))
            .collect();
        stats.sort_by_key(|s| s.tenant);
        stats
    }

    /// Snapshot of one tenant, if it has been configured or seen.
    pub(crate) fn tenant_stats_for(&self, tenant: TenantId) -> Option<TenantStats> {
        self.tenants.get(&tenant).map(|s| s.stats(tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drr(capacity: usize, quotas: &[(TenantId, TenantQuota)]) -> DrrQueue<&'static str> {
        DrrQueue::new(
            capacity,
            0,
            TenantQuota::default(),
            quotas,
            Duration::from_secs(10),
        )
    }

    const A: TenantId = TenantId(1);
    const B: TenantId = TenantId(2);
    const C: TenantId = TenantId(3);

    #[test]
    fn equal_weights_alternate_under_saturation() {
        let mut q = drr(64, &[]);
        for _ in 0..8 {
            q.push(A, Priority::High, "a").unwrap();
            q.push(B, Priority::Low, "b").unwrap();
        }
        let mut order = Vec::new();
        while let Some((t, _)) = q.pop() {
            q.finish(t, IoStats::default(), Duration::ZERO, false);
            order.push(t);
        }
        assert_eq!(order.len(), 16);
        // Strict alternation: tenant A's high priority buys it nothing at
        // level 1 — priorities order work *within* a tenant only.
        for pair in order.chunks(2) {
            assert_ne!(pair[0], pair[1], "one dispatch each per DRR round");
        }
    }

    /// The ISSUE's fairness invariant, at queue level: equal weights and a
    /// saturated queue give each tenant ≥ 40 % of any ≥ 50-dispatch window.
    #[test]
    fn fairness_invariant_over_sliding_windows() {
        let mut q = drr(1024, &[]);
        // Tenant A floods 10× more high-priority work than B submits.
        for _ in 0..300 {
            q.push(A, Priority::Critical, "flood").unwrap();
        }
        for _ in 0..120 {
            q.push(B, Priority::Normal, "fair").unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..200 {
            let (t, _) = q.pop().expect("saturated");
            q.finish(t, IoStats::default(), Duration::ZERO, false);
            order.push(t);
        }
        for window in order.windows(50) {
            let a = window.iter().filter(|&&t| t == A).count();
            assert!(
                (20..=30).contains(&a),
                "tenant A got {a}/50 in a window — not the weighted share"
            );
        }
    }

    #[test]
    fn weights_skew_the_share() {
        let quotas = [(A, TenantQuota::default().weight(3))];
        let mut q = drr(256, &quotas);
        for _ in 0..40 {
            q.push(A, Priority::Normal, "a").unwrap();
            q.push(B, Priority::Normal, "b").unwrap();
        }
        let mut first = Vec::new();
        for _ in 0..40 {
            let (t, _) = q.pop().unwrap();
            q.finish(t, IoStats::default(), Duration::ZERO, false);
            first.push(t);
        }
        let a = first.iter().filter(|&&t| t == A).count();
        assert_eq!(a, 30, "weight 3 vs 1 → 3/4 of dispatches while saturated");
        // And the pattern is burst-of-3 then 1: A A A B A A A B ...
        assert_eq!(&first[..8], &[A, A, A, B, A, A, A, B]);
    }

    #[test]
    fn queue_slot_quota_rejects_before_global_capacity() {
        let quotas = [(A, TenantQuota::default().queue_slots(2))];
        let mut q = drr(64, &quotas);
        q.push(A, Priority::Normal, "1").unwrap();
        q.push(A, Priority::Normal, "2").unwrap();
        assert_eq!(
            q.push(A, Priority::Critical, "3"),
            Err(Rejected::TenantQuotaExceeded {
                tenant: A,
                queue_slots: 2
            })
        );
        // Another tenant is unaffected.
        q.push(B, Priority::Normal, "b").unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.tenant_stats_for(A).unwrap().rejected, 1);
    }

    #[test]
    fn global_capacity_rejects_across_tenants() {
        let mut q = drr(2, &[]);
        q.push(A, Priority::Normal, "1").unwrap();
        q.push(B, Priority::Normal, "2").unwrap();
        assert_eq!(
            q.push(C, Priority::Critical, "3"),
            Err(Rejected::QueueFull { capacity: 2 })
        );
        // A never-admitted tenant rejected at a full queue leaves no state
        // behind — cycling fresh tenant ids cannot grow the map.
        for i in 100..200 {
            let fresh = TenantId(i);
            assert!(q.push(fresh, Priority::Normal, "spam").is_err());
            assert!(q.tenant_stats_for(fresh).is_none());
        }
        assert_eq!(q.tenant_stats().len(), 2, "only admitted tenants tracked");
    }

    #[test]
    fn in_flight_cap_gates_dispatch_not_admission() {
        let quotas = [(A, TenantQuota::default().max_in_flight(1))];
        let mut q = drr(64, &quotas);
        q.push(A, Priority::Normal, "a1").unwrap();
        q.push(A, Priority::Normal, "a2").unwrap();
        q.push(B, Priority::Normal, "b1").unwrap();
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1, A);
        // A is now at its cap: its second job must wait; B runs instead.
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, B);
        assert_eq!(q.pop().map(|(t, _)| t), None, "only capped work remains");
        assert_eq!(q.len(), 1, "a2 still queued");
        // A completion unblocks the tenant.
        q.finish(A, IoStats::default(), Duration::ZERO, false);
        assert_eq!(q.pop().map(|(t, _)| t), Some(A));
    }

    #[test]
    fn priority_and_aging_survive_within_a_tenant() {
        // Within one tenant the level-2 queue is the PR 4 AgingQueue:
        // highest priority first, FIFO within a level.
        let mut q = DrrQueue::new(64, 0, TenantQuota::default(), &[], Duration::from_secs(10));
        q.push(A, Priority::Low, "low").unwrap();
        q.push(A, Priority::Critical, "crit").unwrap();
        q.push(A, Priority::Normal, "norm").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, j)| j)).collect();
        assert_eq!(order, ["crit", "norm", "low"]);
    }

    #[test]
    fn remove_queued_releases_the_slot_and_ring_entry() {
        let quotas = [(A, TenantQuota::default().queue_slots(1))];
        let mut q = drr(64, &quotas);
        q.push(A, Priority::Normal, "only").unwrap();
        assert!(q.push(A, Priority::Normal, "over").is_err());
        assert_eq!(q.remove_queued(A, |&j| j == "only"), Some("only"));
        assert_eq!(q.len(), 0);
        assert_eq!(q.queued_of(A), 0);
        // The slot is free again and the ring no longer lists the tenant.
        q.push(A, Priority::Normal, "again").unwrap();
        assert_eq!(q.pop().map(|(_, j)| j), Some("again"));
        let stats = q.tenant_stats_for(A).unwrap();
        assert_eq!(stats.cancelled_queued, 1);
        assert_eq!(stats.dispatched, 1);
    }

    #[test]
    fn finish_aggregates_io_latency_and_outcomes() {
        let mut q = drr(8, &[]);
        q.push(A, Priority::Normal, "x").unwrap();
        q.push(A, Priority::Normal, "y").unwrap();
        q.pop().unwrap();
        q.pop().unwrap();
        q.finish(
            A,
            IoStats {
                hits: 5,
                faults: 3,
                writes: 0,
            },
            Duration::from_millis(10),
            false,
        );
        q.finish(
            A,
            IoStats {
                hits: 0,
                faults: 7,
                writes: 1,
            },
            Duration::from_millis(30),
            true,
        );
        let s = q.tenant_stats_for(A).unwrap();
        assert_eq!(s.completed, 1);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.finished(), 2);
        assert_eq!(s.io.faults, 10);
        assert_eq!(s.charged_io_ms(), 100.0);
        assert_eq!(s.total_latency, Duration::from_millis(40));
        assert_eq!(s.max_latency, Duration::from_millis(30));
        assert_eq!(s.mean_latency(), Duration::from_millis(20));
        assert_eq!(s.in_flight, 0);
        // Both submissions landed inside the 10 s window just now.
        assert_eq!(s.qps, 0.2);
    }

    #[test]
    fn qps_meters_offered_load_including_shed_submissions() {
        let quotas = [(A, TenantQuota::default().queue_slots(1))];
        let mut q = drr(64, &quotas);
        q.push(A, Priority::Normal, "in").unwrap();
        assert!(q.push(A, Priority::Normal, "shed").is_err());
        let s = q.tenant_stats_for(A).unwrap();
        // 2 offers (1 admitted + 1 shed) over the 10 s window.
        assert_eq!(s.qps, 0.2);
        assert!(q.tenant_stats_for(B).is_none());
    }

    #[test]
    fn idle_tenant_forfeits_residual_deficit() {
        // Weight 4, but only one job queued: after it drains, re-arriving
        // work must not burst 4+4 — the deficit resets on emptying.
        let quotas = [(A, TenantQuota::default().weight(4))];
        let mut q = drr(64, &quotas);
        q.push(A, Priority::Normal, "a").unwrap();
        q.push(B, Priority::Normal, "b").unwrap();
        assert_eq!(q.pop().map(|(t, _)| t), Some(A));
        q.finish(A, IoStats::default(), Duration::ZERO, false);
        // A re-arrives behind B in the ring with a *fresh* 4-quantum (not a
        // hoarded 3 + 4): after B's turn, A gets exactly 4 consecutive
        // dispatches.
        for _ in 0..4 {
            q.push(A, Priority::Normal, "a").unwrap();
        }
        let mut order = Vec::new();
        while let Some((t, _)) = q.pop() {
            q.finish(t, IoStats::default(), Duration::ZERO, false);
            order.push(t);
        }
        assert_eq!(order, [B, A, A, A, A]);
    }

    #[test]
    fn snapshots_list_configured_and_observed_tenants_sorted() {
        let quotas = [(C, TenantQuota::default().weight(2))];
        let mut q = drr(8, &quotas);
        q.push(A, Priority::Normal, "a").unwrap();
        let stats = q.tenant_stats();
        let ids: Vec<TenantId> = stats.iter().map(|s| s.tenant).collect();
        assert_eq!(ids, [A, C], "sorted; C listed although never submitted");
        assert_eq!(stats[1].weight, 2);
        assert!(q.tenant_stats_for(B).is_none());
    }
}
