//! [`PageStore`]: the facade the R-tree talks to.
//!
//! One buffer pool over one simulated disk behind one mutex, as in the
//! paper's evaluation (a single buffer sized at 1 % of the tree, §5.1).
//! There is one read path: every access — hit or fault — takes the lock
//! once and sees the frame in place, so the eviction sequence depends only
//! on the access sequence, never on the host. Counters are atomics readable
//! without the lock, and every access can additionally be charged to a
//! per-query [`QueryContext`], which is what gives parallel batches
//! per-query I/O attribution — and what trips per-query I/O budgets at
//! page-fault time.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::buffer::BufferPool;
use crate::context::QueryContext;
use crate::disk::{DiskManager, PageId};
use crate::stats::{IoSession, IoStats};
use crate::DEFAULT_PAGE_SIZE;

/// The lock-protected working state: the disk and the pool over it.
struct Inner {
    disk: DiskManager,
    pool: BufferPool,
}

impl Inner {
    /// Grows the disk so `id` is a valid page (pages are allocated by an
    /// atomic counter without the lock; the disk materialises them lazily
    /// on first touch).
    fn ensure_page(&mut self, id: PageId) {
        while self.disk.num_pages() <= id.index() {
            self.disk.alloc_page();
        }
    }
}

/// Paged storage with one clock (second-chance) buffer pool, usable through
/// shared references from many threads.
pub struct PageStore {
    page_size: usize,
    inner: Mutex<Inner>,
    /// Store-wide counters: the same three-counter atomic bundle a
    /// per-query context charges, fed from the same place.
    stats: IoSession,
    /// Times `inner` was locked.
    lock_count: AtomicU64,
    /// Dense page allocator.
    next_page: AtomicU32,
}

impl PageStore {
    /// Creates a store with the paper's default 1 KB pages and a provisional
    /// buffer capacity (callers re-size it to 1 % of the tree after loading).
    pub fn new() -> Self {
        Self::with_config(DEFAULT_PAGE_SIZE, 64)
    }

    /// Creates a store with explicit page size (bytes) and buffer capacity
    /// (pages, at least one).
    pub fn with_config(page_size: usize, buffer_pages: usize) -> Self {
        PageStore {
            page_size,
            inner: Mutex::new(Inner {
                disk: DiskManager::new(page_size),
                pool: BufferPool::new(buffer_pages),
            }),
            stats: IoSession::default(),
            lock_count: AtomicU64::new(0),
            next_page: AtomicU32::new(0),
        }
    }

    /// [`PageStore::with_config`]; `shards` must be `1`.
    #[doc(hidden)]
    pub fn with_config_sharded(page_size: usize, buffer_pages: usize, shards: usize) -> Self {
        assert_eq!(shards, 1, "the page store has one buffer pool");
        Self::with_config(page_size, buffer_pages)
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.next_page.load(Ordering::Acquire) as usize
    }

    /// Allocates a fresh zeroed page.
    pub fn alloc_page(&self) -> PageId {
        let id = self.next_page.fetch_add(1, Ordering::AcqRel);
        assert!(id != u32::MAX, "page id overflow");
        PageId(id)
    }

    /// Panics on ids that were never handed out by [`PageStore::alloc_page`]
    /// — accessing them is a storage-layer bug.
    fn check_allocated(&self, id: PageId) {
        assert!(id.index() < self.num_pages(), "access to unallocated {id}");
    }

    /// Locks the store; poisoning is deliberately ignored (all mutation is
    /// in-memory bookkeeping that cannot be left torn).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.lock_count.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `op` under the store lock and charges the pool-stat delta to
    /// the store counters and, when given, to `ctx` — whose charge also
    /// performs the per-query I/O-budget check at fault time.
    ///
    /// The charge happens *before* the lock is released so it cannot race
    /// [`PageStore::reset_stats`] (a post-unlock charge could resurrect
    /// pre-reset traffic into freshly zeroed counters).
    fn with_inner<R>(&self, ctx: Option<&QueryContext>, op: impl FnOnce(&mut Inner) -> R) -> R {
        let mut guard = self.lock();
        let before = guard.pool.stats();
        let result = op(&mut guard);
        let delta = guard.pool.stats().since(&before);
        if delta != IoStats::default() {
            self.stats.charge(delta);
            if let Some(ctx) = ctx {
                ctx.charge(delta);
            }
        }
        drop(guard);
        result
    }

    /// Reads a page through the buffer pool; `f` receives the page bytes.
    /// Traffic is charged to the store counters only.
    ///
    /// The closure runs under the store lock and must not re-enter the
    /// store (re-entry deadlocks).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        self.with_page_ctx(id, None, f)
    }

    /// Like [`PageStore::with_page`], additionally charging the access to
    /// `ctx` — the per-query attribution path. Charging a fault to a
    /// context with an I/O budget performs the budget check right here, so
    /// a context-aware traversal observes the abort before its next access.
    pub fn with_page_ctx<R>(
        &self,
        id: PageId,
        ctx: Option<&QueryContext>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        self.check_allocated(id);
        self.with_inner(ctx, |inner| {
            inner.ensure_page(id);
            inner.pool.with_page(&mut inner.disk, id, f)
        })
    }

    /// Writes a full page through the buffer pool (write-back), charging
    /// eviction write-backs to `ctx` when given.
    pub fn write_page(&self, id: PageId, data: &[u8], ctx: Option<&QueryContext>) {
        self.check_allocated(id);
        self.with_inner(ctx, |inner| {
            inner.ensure_page(id);
            inner.pool.write_page(&mut inner.disk, id, data);
        });
    }

    /// Flushes dirty pages to the simulated disk.
    pub fn flush(&self) {
        self.with_inner(None, |inner| inner.pool.flush_all(&mut inner.disk));
    }

    /// Store-mutex acquisitions since construction. Every access counts:
    /// each read (hit or fault), write and maintenance call takes the lock
    /// exactly once.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_count.load(Ordering::Relaxed)
    }

    /// Buffer-pool statistics accumulated so far, read without the lock.
    pub fn io_stats(&self) -> IoStats {
        self.stats.stats()
    }

    /// Clears I/O statistics (e.g. after bulk load, before measuring
    /// queries). The pool-internal counters and the store atomics reset
    /// under one lock hold so no delta can slip between the two.
    pub fn reset_stats(&self) {
        let mut guard = self.lock();
        guard.pool.reset_stats();
        self.stats.reset();
    }

    /// Re-sizes the buffer capacity (at least one page); used to apply the
    /// paper's "1 % of the tree size" rule once the tree has been built.
    pub fn set_buffer_capacity(&self, pages: usize) {
        self.with_inner(None, |inner| {
            inner.pool.set_capacity(&mut inner.disk, pages)
        });
    }

    /// Current buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.with_inner(None, |inner| inner.pool.capacity())
    }

    /// Pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.with_inner(None, |inner| inner.pool.cached_pages())
    }

    /// Flushes and empties the cache so a subsequent run starts cold.
    pub fn clear_cache(&self) {
        self.with_inner(None, |inner| inner.pool.clear(&mut inner.disk));
    }
}

impl Default for PageStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_facade() {
        let store = PageStore::with_config(32, 4);
        let a = store.alloc_page();
        let b = store.alloc_page();
        store.write_page(a, &[1u8; 32], None);
        store.write_page(b, &[2u8; 32], None);
        store.with_page(a, |d| assert_eq!(d, &[1u8; 32]));
        store.with_page(b, |d| assert_eq!(d, &[2u8; 32]));
        assert_eq!(store.num_pages(), 2);
    }

    #[test]
    fn stats_visible_and_resettable() {
        let store = PageStore::with_config(32, 1);
        let a = store.alloc_page();
        let b = store.alloc_page();
        store.write_page(a, &[1u8; 32], None);
        store.flush();
        store.clear_cache();
        store.reset_stats();
        store.with_page(a, |_| ());
        store.with_page(b, |_| ()); // evicts a (capacity 1)
        store.with_page(a, |_| ());
        let s = store.io_stats();
        assert_eq!(s.faults, 3);
        assert_eq!(s.hits, 0);
        assert!(s.charged_io_time_ms() == 30.0);
    }

    #[test]
    fn one_percent_rule_applied_by_caller() {
        let store = PageStore::with_config(32, 1000);
        for _ in 0..500 {
            store.alloc_page();
        }
        // Caller computes 1% of pages, min 1.
        let cap = (store.num_pages() / 100).max(1);
        store.set_buffer_capacity(cap);
        assert_eq!(store.buffer_capacity(), 5);
    }

    #[test]
    fn capacity_splits_across_shards_exactly() {
        // The requested capacity is honoured exactly, at construction and
        // on every re-size; zero is clamped to one frame.
        let store = PageStore::with_config(32, 10);
        assert_eq!(store.buffer_capacity(), 10);
        store.set_buffer_capacity(2);
        assert_eq!(store.buffer_capacity(), 2);
        store.set_buffer_capacity(7);
        assert_eq!(store.buffer_capacity(), 7);
        store.set_buffer_capacity(0);
        assert_eq!(store.buffer_capacity(), 1);
        assert_eq!(PageStore::with_config(32, 0).buffer_capacity(), 1);
    }

    /// A tiny buffer under a larger tree: every requested capacity is kept
    /// exactly, and a cold pass faults every page.
    #[test]
    fn tiny_buffer_split_is_size_aware() {
        let store = PageStore::with_config(32, 64);
        let pages: Vec<_> = (0..10).map(|_| store.alloc_page()).collect();
        for &p in &pages {
            store.write_page(p, &[7u8; 32], None);
        }
        store.flush();
        for cap in 1..=8 {
            store.set_buffer_capacity(cap);
            assert_eq!(store.buffer_capacity(), cap, "requested {cap}");
        }
        store.set_buffer_capacity(2);
        store.clear_cache();
        store.reset_stats();
        for &p in &pages {
            store.with_page(p, |d| assert_eq!(d[0], 7));
        }
        assert_eq!(store.io_stats().faults, 10, "cold pass faults every page");
        assert_eq!(store.cached_pages(), 2);
    }

    #[test]
    fn cold_start_after_clear_cache() {
        let store = PageStore::with_config(32, 8);
        let a = store.alloc_page();
        store.write_page(a, &[5u8; 32], None);
        store.flush();
        store.with_page(a, |_| ());
        store.clear_cache();
        store.reset_stats();
        store.with_page(a, |d| assert_eq!(d, &[5u8; 32]));
        assert_eq!(store.io_stats().faults, 1);
        assert_eq!(store.cached_pages(), 1);
    }

    #[test]
    fn contexts_attribute_traffic_per_caller() {
        let store = PageStore::with_config(32, 8);
        let pages: Vec<_> = (0..8).map(|_| store.alloc_page()).collect();
        for (i, &p) in pages.iter().enumerate() {
            store.write_page(p, &[i as u8; 32], None);
        }
        store.flush();
        store.clear_cache();
        store.reset_stats();
        let a = QueryContext::new();
        let b = QueryContext::new();
        store.with_page_ctx(pages[0], Some(&a), |_| ());
        store.with_page_ctx(pages[0], Some(&a), |_| ());
        store.with_page_ctx(pages[1], Some(&b), |_| ());
        assert_eq!(a.stats().faults, 1);
        assert_eq!(a.stats().hits, 1);
        assert_eq!(b.stats().faults, 1);
        let global = store.io_stats();
        assert_eq!(global, a.stats() + b.stats());
    }

    #[test]
    fn context_budget_trips_at_fault_time_in_store() {
        let store = PageStore::with_config(32, 8);
        let pages: Vec<_> = (0..8).map(|_| store.alloc_page()).collect();
        for &p in &pages {
            store.write_page(p, &[1u8; 32], None);
        }
        store.flush();
        store.clear_cache();
        store.reset_stats();
        let ctx = QueryContext::new().with_io_budget(3);
        for &p in &pages[..3] {
            store.with_page_ctx(p, Some(&ctx), |_| ());
        }
        assert_eq!(
            ctx.abort_reason(),
            Some(crate::AbortReason::IoBudgetExceeded)
        );
        assert_eq!(ctx.stats().faults, 3);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = PageStore::with_config(32, 4);
        let pages: Vec<_> = (0..8).map(|_| store.alloc_page()).collect();
        for (i, &p) in pages.iter().enumerate() {
            store.write_page(p, &[i as u8; 32], None);
        }
        store.flush();
        store.clear_cache();
        store.reset_stats();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                let pages = &pages;
                scope.spawn(move || {
                    for round in 0..50 {
                        let idx = (t + round) % pages.len();
                        store.with_page(pages[idx], |d| assert_eq!(d[0] as usize, idx));
                    }
                });
            }
        });
        let s = store.io_stats();
        assert_eq!(s.hits + s.faults, 200);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_page_access_panics() {
        let store = PageStore::with_config(32, 4);
        store.alloc_page();
        store.with_page(PageId(3), |_| ());
    }

    #[test]
    fn store_charges_atomics_and_context() {
        let store = PageStore::with_config(16, 2);
        let id = store.alloc_page();
        let ctx = QueryContext::new();
        store.with_page_ctx(id, Some(&ctx), |_| ());
        store.with_page_ctx(id, Some(&ctx), |_| ());
        let want = IoStats {
            hits: 1,
            faults: 1,
            writes: 0,
        };
        assert_eq!(store.io_stats(), want);
        assert_eq!(ctx.stats(), want);
        assert_eq!(store.lock_acquisitions(), 2);
        store.reset_stats();
        assert_eq!(store.io_stats(), IoStats::default());
    }
}
