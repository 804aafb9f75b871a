//! Paged storage substrate for the CCA reproduction.
//!
//! The paper assumes the customer set `P` "resides in secondary storage,
//! indexed by a spatial access method" (§1) and its evaluation fixes a 1 KB
//! page size, an LRU buffer sized at 1 % of the R-tree, and charges 10 ms per
//! page fault (§5.1). This crate reproduces that storage model, with one
//! stated difference: replacement is clock (second-chance), not strict LRU.
//! The fault-count delta between the two on the paper's workloads is
//! unmeasured (ROADMAP item 5b).
//!
//! * [`disk::DiskManager`] — an in-memory simulated disk holding fixed-size
//!   pages,
//! * [`buffer::BufferPool`] — a buffer pool with clock (second-chance)
//!   replacement and write-back of dirty pages; frames are plain data behind
//!   `&mut`, and a cleared pool holds no frame at all, so a cold run faults
//!   the same whatever ran before it,
//! * [`stats::IoStats`] — fault counters plus the paper's charged I/O time,
//! * [`context::QueryContext`] — the per-query control block (attribution
//!   counters + tenant + priority + deadline + I/O budget + cancellation)
//!   threaded through every page access, so concurrent queries each see
//!   their own traffic; budgets trip at page-fault time,
//! * [`store::PageStore`] — the facade: one buffer pool over one disk
//!   behind one mutex, shared across the serving layer's worker threads.
//!   There is one read path: every access, hit or fault, takes the mutex
//!   once and is charged there, to atomic counters readable without it.
//!   The eviction sequence depends only on the access sequence, so fault
//!   counts are the same on every host.
//!
//! The disk is in-memory (documented substitution in DESIGN.md §5): the
//! paper itself *charges* I/O time per fault rather than measuring a device,
//! so fault counting through a real buffer pool is the fidelity required.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod context;
pub mod disk;
pub mod stats;
pub mod store;

pub use buffer::BufferPool;
pub use context::{AbortReason, Aborted, Priority, QueryContext, TenantId};
pub use disk::{DiskManager, PageId};
pub use stats::IoStats;
pub use store::PageStore;

/// Default page size used in the paper's evaluation ("indexed by an R-tree
/// with 1Kbyte page size", §5.1).
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// I/O cost charged per page fault ("we measure I/O time by charging 10ms
/// per page fault", §5.1).
pub const IO_COST_PER_FAULT_MS: f64 = 10.0;

/// Always `1`: the store has one buffer pool.
#[doc(hidden)]
pub fn default_shards() -> usize {
    1
}
