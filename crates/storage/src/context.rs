//! [`QueryContext`] — the per-query control block threaded through every
//! storage access: I/O attribution counters, a scheduling [`Priority`], an
//! optional deadline, an optional I/O (fault) budget and a cooperative
//! cancellation flag.
//!
//! The [`crate::PageStore`] charges every page access to the context, and the
//! charge itself trips the budget check — a query whose fault count reaches
//! its budget is marked aborted *at page-fault time*, before the traversal
//! can issue another access. Higher layers (the R-tree cursors, the solver
//! drivers, the `cca-serve` scheduler) poll [`QueryContext::abort_reason`]
//! at their loop heads and unwind with partial results instead of burning
//! unbounded I/O on adversarial inputs.
//!
//! All state is behind `Arc`s, so a context can be cloned into a ticket
//! held by the submitting thread while the worker runs the query: calling
//! [`QueryContext::cancel`] on either clone stops the other.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{IoSession, IoStats};

/// Scheduling priority of a query, lowest to highest.
///
/// The serving layer maps each level to its own FIFO queue and ages waiting
/// queries upward, so [`Priority::Low`] work is deferred under load but
/// never starved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: bulk re-optimisation, prefetching, analytics.
    Low,
    /// The default for interactive queries.
    #[default]
    Normal,
    /// Latency-sensitive queries that should overtake the normal tier.
    High,
    /// Operator traffic that must run as soon as a worker frees up.
    Critical,
}

impl Priority {
    /// All levels, lowest first.
    pub const ALL: [Priority; 4] = [
        Priority::Low,
        Priority::Normal,
        Priority::High,
        Priority::Critical,
    ];

    /// Queue index of the level (0 = lowest).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The next level up (saturating at [`Priority::Critical`]).
    #[inline]
    pub fn promote(self) -> Priority {
        match self {
            Priority::Low => Priority::Normal,
            Priority::Normal => Priority::High,
            Priority::High => Priority::Critical,
            Priority::Critical => Priority::Critical,
        }
    }
}

/// Identifies the querying party a request runs on behalf of.
///
/// A tenant is the unit of *fairness and quota enforcement* in the serving
/// layer: the two-level scheduler picks the tenant first (weighted
/// deficit-round-robin) and only then applies priority+aging among that
/// tenant's own queries, and per-tenant admission quotas bound how much of
/// the shared queue and worker pool one party can occupy. Every
/// [`QueryContext`] carries a tenant id (defaulting to
/// [`TenantId::DEFAULT`]), so attribution — I/O counters, abort reasons,
/// latency — can be aggregated per party all the way down the stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant unlabelled queries run under (id 0).
    pub const DEFAULT: TenantId = TenantId(0);

    /// A tenant with the given id.
    #[inline]
    pub fn new(id: u32) -> Self {
        TenantId(id)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant {}", self.0)
    }
}

/// Why a query was aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// [`QueryContext::cancel`] was called (by a ticket holder or the
    /// serving layer).
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The fault count reached the configured I/O budget.
    IoBudgetExceeded,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Cancelled => write!(f, "cancelled"),
            AbortReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            AbortReason::IoBudgetExceeded => write!(f, "I/O budget exceeded"),
        }
    }
}

/// Typed abort error returned by the R-tree's context-aware traversals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted {
    pub reason: AbortReason,
}

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query aborted: {}", self.reason)
    }
}

impl std::error::Error for Aborted {}

/// Sticky abort marker values (0 = not aborted). Stored in an `AtomicU8` so
/// the *first* recorded reason wins and later polls agree with it.
const ABORT_NONE: u8 = 0;

fn encode_reason(reason: AbortReason) -> u8 {
    match reason {
        AbortReason::Cancelled => 1,
        AbortReason::DeadlineExceeded => 2,
        AbortReason::IoBudgetExceeded => 3,
    }
}

fn decode_reason(v: u8) -> Option<AbortReason> {
    match v {
        1 => Some(AbortReason::Cancelled),
        2 => Some(AbortReason::DeadlineExceeded),
        3 => Some(AbortReason::IoBudgetExceeded),
        _ => None,
    }
}

#[derive(Debug, Default)]
struct Control {
    cancelled: AtomicBool,
    /// First abort reason observed; sticky once set.
    abort: AtomicU8,
}

/// Per-query control block: attribution counters plus priority, deadline,
/// I/O budget and cancellation.
///
/// Cheap to clone — clones share the same counters and flags. Built
/// builder-style before the query starts:
///
/// ```
/// use cca_storage::{Priority, QueryContext};
/// use std::time::Duration;
///
/// let ctx = QueryContext::new()
///     .with_priority(Priority::High)
///     .with_io_budget(1_000)
///     .with_timeout(Duration::from_millis(250));
/// assert_eq!(ctx.priority(), Priority::High);
/// assert_eq!(ctx.abort_reason(), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct QueryContext {
    session: IoSession,
    control: Arc<Control>,
    priority: Priority,
    tenant: TenantId,
    deadline: Option<Instant>,
    io_budget: Option<u64>,
}

impl QueryContext {
    /// A fresh context: normal priority, no deadline, no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Labels the query with the tenant it runs on behalf of. The serving
    /// layer schedules and meters per tenant; unlabelled queries run under
    /// [`TenantId::DEFAULT`].
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Caps the query at `faults` page faults. The budget trips exactly at
    /// the fault that reaches it: the store records the abort while charging
    /// that fault, and context-aware traversals stop before the next access,
    /// so the partial stats report `io.faults == budget`.
    ///
    /// # Panics
    /// Panics on a zero budget — the abort poll runs before each page
    /// access (it cannot know whether the access would hit or fault), so a
    /// zero-fault budget would abort even queries whose whole working set
    /// is cached. Use [`QueryContext::cancel`] to refuse a query outright.
    pub fn with_io_budget(mut self, faults: u64) -> Self {
        assert!(faults >= 1, "I/O budget must allow at least one fault");
        self.io_budget = Some(faults);
        self
    }

    /// Traffic charged to this context so far.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.session.stats()
    }

    /// Scheduling priority.
    #[inline]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The tenant this query runs on behalf of.
    #[inline]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The absolute deadline, if any.
    #[inline]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The fault budget, if any.
    #[inline]
    pub fn io_budget(&self) -> Option<u64> {
        self.io_budget
    }

    /// Requests cooperative cancellation: the next abort poll (at the next
    /// page access or loop head) returns [`AbortReason::Cancelled`].
    pub fn cancel(&self) {
        self.control.cancelled.store(true, Ordering::Release);
    }

    /// True once [`QueryContext::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.control.cancelled.load(Ordering::Acquire)
    }

    /// Charges `delta` to the context's counters; called by the store
    /// under its lock. A fault that reaches the I/O budget records
    /// [`AbortReason::IoBudgetExceeded`] right here — the budget check is
    /// charged at page-fault time.
    pub fn charge(&self, delta: IoStats) {
        self.session.charge(delta);
        if delta.faults != 0 {
            if let Some(budget) = self.io_budget {
                if self.session.stats().faults >= budget {
                    self.record_abort(AbortReason::IoBudgetExceeded);
                }
            }
        }
    }

    /// Polls the abort state: the sticky recorded reason if one exists,
    /// otherwise cancellation, budget and deadline are checked (in that
    /// order) and the first hit is recorded so every later poll agrees.
    ///
    /// `None` means the query may continue.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        if let Some(reason) = decode_reason(self.control.abort.load(Ordering::Acquire)) {
            return Some(reason);
        }
        if self.is_cancelled() {
            return Some(self.record_abort(AbortReason::Cancelled));
        }
        if let Some(budget) = self.io_budget {
            if self.session.stats().faults >= budget {
                return Some(self.record_abort(AbortReason::IoBudgetExceeded));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(self.record_abort(AbortReason::DeadlineExceeded));
            }
        }
        None
    }

    /// The abort reason *already recorded* by an earlier poll, without
    /// checking (or recording) anything new. Use this for after-the-fact
    /// accounting: a query that ran to completion without ever observing
    /// an abort stays clean here, even if its deadline has passed by the
    /// time the bookkeeper looks — [`QueryContext::abort_reason`] would
    /// record a fresh reason and disagree with the returned outcome.
    pub fn recorded_abort(&self) -> Option<AbortReason> {
        decode_reason(self.control.abort.load(Ordering::Acquire))
    }

    /// [`QueryContext::abort_reason`] as a `Result`, for `?`-style use in
    /// traversal code.
    pub fn check(&self) -> Result<(), Aborted> {
        match self.abort_reason() {
            Some(reason) => Err(Aborted { reason }),
            None => Ok(()),
        }
    }

    /// Records `reason` if no reason is set yet; returns the reason that
    /// actually sticks (the first writer wins under concurrency).
    fn record_abort(&self, reason: AbortReason) -> AbortReason {
        match self.control.abort.compare_exchange(
            ABORT_NONE,
            encode_reason(reason),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => reason,
            Err(existing) => decode_reason(existing).unwrap_or(reason),
        }
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    //! Wire encodings for the scheduling/abort vocabulary: enums as their
    //! snake-case names (self-describing on the wire), [`TenantId`] as its
    //! bare integer.

    use super::{AbortReason, Priority, TenantId};
    use serde::json::{Parser, Writer};
    use serde::{Deserialize, Error, Serialize};

    impl Serialize for Priority {
        fn serialize(&self, w: &mut Writer) {
            w.str(match self {
                Priority::Low => "low",
                Priority::Normal => "normal",
                Priority::High => "high",
                Priority::Critical => "critical",
            });
        }
    }

    impl Deserialize for Priority {
        fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
            match &*p.str()? {
                "low" => Ok(Priority::Low),
                "normal" => Ok(Priority::Normal),
                "high" => Ok(Priority::High),
                "critical" => Ok(Priority::Critical),
                other => Err(Error(format!("unknown priority `{other}`"))),
            }
        }
    }

    impl Serialize for AbortReason {
        fn serialize(&self, w: &mut Writer) {
            w.str(match self {
                AbortReason::Cancelled => "cancelled",
                AbortReason::DeadlineExceeded => "deadline_exceeded",
                AbortReason::IoBudgetExceeded => "io_budget_exceeded",
            });
        }
    }

    impl Deserialize for AbortReason {
        fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
            match &*p.str()? {
                "cancelled" => Ok(AbortReason::Cancelled),
                "deadline_exceeded" => Ok(AbortReason::DeadlineExceeded),
                "io_budget_exceeded" => Ok(AbortReason::IoBudgetExceeded),
                other => Err(Error(format!("unknown abort reason `{other}`"))),
            }
        }
    }

    impl Serialize for TenantId {
        fn serialize(&self, w: &mut Writer) {
            self.0.serialize(w);
        }
    }

    impl Deserialize for TenantId {
        fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
            u32::deserialize(p).map(TenantId)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn scheduling_vocabulary_json_roundtrip() {
            for p in Priority::ALL {
                let back: Priority = serde::json::from_str(&serde::json::to_string(&p)).unwrap();
                assert_eq!(back, p);
            }
            for r in [
                AbortReason::Cancelled,
                AbortReason::DeadlineExceeded,
                AbortReason::IoBudgetExceeded,
            ] {
                let back: AbortReason = serde::json::from_str(&serde::json::to_string(&r)).unwrap();
                assert_eq!(back, r);
            }
            for t in [TenantId::DEFAULT, TenantId(7), TenantId(u32::MAX)] {
                let back: TenantId = serde::json::from_str(&serde::json::to_string(&t)).unwrap();
                assert_eq!(back, t);
            }
            assert!(serde::json::from_str::<Priority>("\"urgent\"").is_err());
            assert!(serde::json::from_str::<AbortReason>("\"oom\"").is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_context_is_clean() {
        let ctx = QueryContext::new();
        assert_eq!(ctx.priority(), Priority::Normal);
        assert_eq!(ctx.abort_reason(), None);
        assert!(ctx.check().is_ok());
        assert_eq!(ctx.stats(), IoStats::default());
        assert!(!ctx.is_cancelled());
    }

    #[test]
    fn cancellation_is_shared_and_sticky() {
        let ctx = QueryContext::new();
        let clone = ctx.clone();
        clone.cancel();
        assert_eq!(ctx.abort_reason(), Some(AbortReason::Cancelled));
        assert_eq!(
            clone.check(),
            Err(Aborted {
                reason: AbortReason::Cancelled
            })
        );
        assert_eq!(
            QueryContext::new().abort_reason(),
            None,
            "unrelated context"
        );
    }

    #[test]
    fn budget_trips_exactly_at_charge_time() {
        let ctx = QueryContext::new().with_io_budget(3);
        ctx.charge(IoStats {
            hits: 5,
            faults: 2,
            writes: 0,
        });
        assert_eq!(ctx.abort_reason(), None, "2 of 3 faults used");
        // Hits alone never trip the budget.
        ctx.charge(IoStats {
            hits: 100,
            faults: 0,
            writes: 0,
        });
        assert_eq!(ctx.abort_reason(), None);
        ctx.charge(IoStats {
            hits: 0,
            faults: 1,
            writes: 0,
        });
        assert_eq!(ctx.abort_reason(), Some(AbortReason::IoBudgetExceeded));
        assert_eq!(ctx.stats().faults, 3);
    }

    #[test]
    fn first_abort_reason_wins() {
        let ctx = QueryContext::new().with_io_budget(1);
        ctx.charge(IoStats {
            hits: 0,
            faults: 1,
            writes: 0,
        });
        assert_eq!(ctx.abort_reason(), Some(AbortReason::IoBudgetExceeded));
        ctx.cancel();
        // The recorded reason is sticky even though cancellation also holds.
        assert_eq!(ctx.abort_reason(), Some(AbortReason::IoBudgetExceeded));
    }

    #[test]
    fn expired_deadline_aborts() {
        let ctx = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(ctx.abort_reason(), Some(AbortReason::DeadlineExceeded));
        // A generous deadline does not.
        let ctx = QueryContext::new().with_timeout(Duration::from_secs(3600));
        assert_eq!(ctx.abort_reason(), None);
    }

    #[test]
    #[should_panic(expected = "at least one fault")]
    fn zero_fault_budget_is_rejected() {
        let _ = QueryContext::new().with_io_budget(0);
    }

    #[test]
    fn clone_shares_counters() {
        let ctx = QueryContext::new();
        ctx.clone().charge(IoStats {
            hits: 1,
            faults: 2,
            writes: 0,
        });
        assert_eq!(ctx.stats().faults, 2);
    }

    #[test]
    fn recorded_abort_peeks_without_recording() {
        let ctx = QueryContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
        // Passive peek: nothing recorded yet, and the peek records nothing
        // even though the deadline has passed.
        assert_eq!(ctx.recorded_abort(), None);
        assert_eq!(ctx.recorded_abort(), None);
        // An active poll records; the peek then agrees.
        assert_eq!(ctx.abort_reason(), Some(AbortReason::DeadlineExceeded));
        assert_eq!(ctx.recorded_abort(), Some(AbortReason::DeadlineExceeded));
    }

    #[test]
    fn tenant_label_defaults_and_sticks() {
        let ctx = QueryContext::new();
        assert_eq!(ctx.tenant(), TenantId::DEFAULT);
        let ctx = ctx.with_tenant(TenantId::new(7));
        assert_eq!(ctx.tenant(), TenantId(7));
        // Clones keep the label (it travels with tickets).
        assert_eq!(ctx.clone().tenant(), TenantId(7));
        assert_eq!(format!("{}", ctx.tenant()), "tenant 7");
        assert!(TenantId(1) < TenantId(2));
    }

    #[test]
    fn priority_ladder() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::High < Priority::Critical);
        assert_eq!(Priority::Low.promote(), Priority::Normal);
        assert_eq!(Priority::Critical.promote(), Priority::Critical);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
