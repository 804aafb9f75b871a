//! `cca-serve` — the tenant-fair, priority-scheduled serving layer for CCA
//! queries.
//!
//! The UYMM08 algorithms can burn unbounded I/O on adversarial inputs, so a
//! serving path needs more than a work-stealing cursor: it needs *admission
//! control* (a bounded backlog that sheds load explicitly), *fairness
//! across tenants* (one aggressive party must not monopolise the queue or
//! the workers, however high it bids its priorities), *priorities* (with
//! aging, so low-priority work is deferred but never starved — per tenant),
//! *deadlines and I/O budgets* (enforced cooperatively through
//! [`QueryContext`], which the storage layer charges at page-fault time and
//! the flow engine polls inside its CPU loops) and *cancellation*. This
//! crate provides that serving layer as a **two-level scheduler**:
//!
//! * level 1 picks the *tenant* by weighted deficit-round-robin over the
//!   backlogged tenants ([`TenantQuota::weight`]), with per-tenant
//!   admission quotas (queue slots, in-flight cap);
//! * level 2 keeps the PR 4 priority+aging semantics *within* each tenant,
//!   preserving the deterministic per-tenant starvation bound
//!   (`3 × aging_period + 1` tenant-local dispatches).
//!
//! The pieces:
//!
//! * [`ServingInstance`] — the scheduler: owned worker threads plus the
//!   queue, whose cumulative [`TenantStats`] outlive any one batch or
//!   connection (the serving core a network gateway runs on);
//! * [`ServingInstance::submit`] — admission of owned work: returns a
//!   [`Ticket`] or sheds the request with [`Rejected::QueueFull`] /
//!   [`Rejected::TenantQuotaExceeded`];
//! * [`Ticket`] — await / poll / cancel one query (cancelling a queued
//!   query releases its admission slot immediately);
//! * [`ServingInstance::tenant_stats`] — operator snapshots: per-tenant
//!   dispatch/abort counters, cumulative attributed I/O, latency, and a
//!   sliding-window submission rate ([`TenantStats::qps`]);
//! * [`ServeConfig`] — workers, queue capacity, aging period, tenant
//!   weights and quotas, QPS window.
//!
//! ```
//! use cca_serve::{
//!     Priority, QueryContext, Request, ServeConfig, ServingInstance, TenantId, TenantQuota,
//! };
//!
//! let config = ServeConfig::default()
//!     .workers(2)
//!     .queue_capacity(8)
//!     .tenant_quota(TenantId(1), TenantQuota::default().weight(2));
//! let instance = ServingInstance::start(config);
//! let tickets: Vec<_> = (0..4u64)
//!     .map(|i| {
//!         let req = Request::new(move |_ctx: &QueryContext| i * 10)
//!             .tenant(TenantId(u32::from(i % 2 == 0)))
//!             .priority(if i == 0 { Priority::High } else { Priority::Normal });
//!         instance.submit(req).expect("queue has room")
//!     })
//!     .collect();
//! let total: u64 = tickets.into_iter().map(|t| t.wait()).sum();
//! assert_eq!(total, 60);
//! assert_eq!(instance.tenant_stats_for(TenantId(1)).unwrap().completed, 2);
//! ```
//!
//! The façade crate's `BatchRunner` and `cca-net`'s gateway both run on a
//! `ServingInstance`, and `examples/tenants.rs` shows two weighted tenants
//! sharing one, quota shedding included.

#![forbid(unsafe_code)]

mod drr;
mod instance;
mod queue;
mod rate;
mod scheduler;
#[cfg(feature = "serde")]
mod serde_impls;

pub use cca_storage::{AbortReason, Aborted, IoStats, Priority, QueryContext, TenantId};
pub use drr::{TenantQuota, TenantStats};
pub use instance::{ServingInstance, Ticket};
pub use scheduler::{Rejected, Request, ServeConfig};
