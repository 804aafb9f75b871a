//! [`PageStore`]: the facade the R-tree talks to.
//!
//! A *sharded* buffer pool: page ids hash (stripe) to one of N shards, each
//! owning its own frames, clock hand, disk segment and lock, so concurrent
//! queries over a shared tree fault pages independently instead of
//! serialising on one global mutex. There is one read path: every access —
//! hit or fault — runs under its shard's lock and sees the frame in place.
//! Counters are per-shard atomics aggregated on read, and every access can
//! additionally be charged to a per-query [`QueryContext`], which is what
//! restores per-query I/O attribution in parallel batches — and what trips
//! per-query I/O budgets at page-fault time.
//!
//! With `shards = 1` the store behaves exactly like one `Mutex<BufferPool>`
//! (one global clock) — the equivalence proptest in
//! `tests/shard_equivalence.rs` pins that down.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::context::QueryContext;
use crate::disk::PageId;
use crate::shard::{Shard, ShardRouter};
use crate::stats::IoStats;
use crate::DEFAULT_PAGE_SIZE;

/// Sharded paged storage with per-shard clock (second-chance) buffers,
/// usable through shared references from many threads.
pub struct PageStore {
    page_size: usize,
    router: ShardRouter,
    shards: Box<[Shard]>,
    /// Global dense page allocator; shards materialise their stripe lazily.
    next_page: AtomicU32,
}

/// Default shard count: the next power of two at or above the number of
/// available hardware threads, capped at 16: 16 independent locks already
/// decongest the batch runner's worker counts, and more shards only spread a
/// small paper-style buffer thinner (see [`PageStore::set_buffer_capacity`]).
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
        .min(16)
}

impl PageStore {
    /// Creates a store with the paper's default 1 KB pages and a provisional
    /// buffer capacity (callers re-size it to 1 % of the tree after loading).
    pub fn new() -> Self {
        Self::with_config(DEFAULT_PAGE_SIZE, 64)
    }

    /// Creates a store with explicit page size (bytes) and total buffer
    /// capacity (pages), sharded [`default_shards`] ways.
    pub fn with_config(page_size: usize, buffer_pages: usize) -> Self {
        Self::with_config_sharded(page_size, buffer_pages, default_shards())
    }

    /// Creates a store with an explicit shard count (rounded up to a power
    /// of two; `1` is a single mutex around a single clock-replaced pool).
    /// `buffer_pages` is the *total* capacity, split evenly across shards
    /// (each shard holds at least one page). A shard count exceeding
    /// `buffer_pages` is clamped down so the per-shard floor cannot
    /// inflate the requested capacity at construction time.
    pub fn with_config_sharded(page_size: usize, buffer_pages: usize, shards: usize) -> Self {
        let max_shards = prev_power_of_two(buffer_pages.max(1));
        let shards = shards.max(1).next_power_of_two().min(max_shards);
        let router = ShardRouter::new(shards);
        let shards: Box<[Shard]> = split_capacity(buffer_pages, router.shards())
            .into_iter()
            .map(|cap| Shard::new(page_size, cap))
            .collect();
        PageStore {
            page_size,
            router,
            shards,
            next_page: AtomicU32::new(0),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.router.shards()
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
    /// — accessing them is a storage-layer bug, exactly as on the old
    /// unsharded disk.
    fn check_allocated(&self, id: PageId) {
        assert!(id.index() < self.num_pages(), "access to unallocated {id}");
    }

    /// Reads a page through its shard's buffer pool; `f` receives the page
    /// bytes. Traffic is charged to the shard counters only.
    ///
    /// The closure runs under the shard lock and must not re-enter the
    /// store (same-shard re-entry deadlocks; cross-shard re-entry risks
    /// lock-order inversion against concurrent callers).
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
        let local = self.router.local_id(id);
        self.shards[self.router.shard_of(id)].with_inner(ctx, |inner| {
            inner.ensure_local_page(local);
            inner.pool.with_page(&mut inner.disk, local, f)
        })
    }

    /// Writes a full page through its shard's buffer pool (write-back).
    pub fn write_page(&self, id: PageId, data: &[u8]) {
        self.write_page_ctx(id, None, data)
    }

    /// Like [`PageStore::write_page`], charging eviction write-backs to
    /// `ctx`.
    pub fn write_page_ctx(&self, id: PageId, ctx: Option<&QueryContext>, data: &[u8]) {
        self.check_allocated(id);
        let local = self.router.local_id(id);
        self.shards[self.router.shard_of(id)].with_inner(ctx, |inner| {
            inner.ensure_local_page(local);
            inner.pool.write_page(&mut inner.disk, local, data);
        });
    }

    /// Flushes dirty pages of every shard to the simulated disk.
    pub fn flush(&self) {
        for shard in self.shards.iter() {
            shard.with_inner(None, |inner| inner.pool.flush_all(&mut inner.disk));
        }
    }

    /// Total shard-mutex acquisitions since construction, summed across
    /// shards. Every access counts: each read (hit or fault), write and
    /// maintenance call takes its shard's lock exactly once.
    pub fn lock_acquisitions(&self) -> u64 {
        self.shards.iter().map(|s| s.lock_acquisitions()).sum()
    }

    /// Buffer-pool statistics accumulated so far, aggregated across shards
    /// without taking any shard lock.
    pub fn io_stats(&self) -> IoStats {
        self.shards
            .iter()
            .fold(IoStats::default(), |acc, s| acc + s.stats())
    }

    /// Clears I/O statistics (e.g. after bulk load, before measuring
    /// queries).
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            shard.reset_stats();
        }
    }

    /// Re-sizes the total buffer capacity; used to apply the paper's "1 %
    /// of the tree size" rule once the tree has been built.
    ///
    /// The split is *size-aware*: each shard receives capacity proportional
    /// to the number of allocated pages striped to it (largest-remainder
    /// rounding), so the effective total always equals `pages` exactly —
    /// even below one page per shard, where a shard can end up with zero
    /// frames and serves its stripe read-through. This closes the old
    /// truncate-and-floor gap that inflated tiny paper-style buffers on
    /// many-shard stores.
    pub fn set_buffer_capacity(&self, pages: usize) {
        let sizes: Vec<usize> = (0..self.num_shards())
            .map(|i| self.stripe_size(i))
            .collect();
        for (shard, cap) in self
            .shards
            .iter()
            .zip(split_capacity_size_aware(pages, &sizes))
        {
            shard.with_inner(None, move |inner| {
                inner.pool.set_capacity(&mut inner.disk, cap)
            });
        }
    }

    /// Number of allocated pages striped to `shard` (ids stripe
    /// round-robin, so the first `num_pages % num_shards` shards hold one
    /// page more).
    fn stripe_size(&self, shard: usize) -> usize {
        let n = self.num_pages();
        let s = self.num_shards();
        (n + s - 1 - shard) / s
    }

    /// Current total buffer capacity in pages (sum over shards).
    pub fn buffer_capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.with_inner(None, |inner| inner.pool.capacity()))
            .sum()
    }

    /// Pages currently cached across all shards.
    pub fn cached_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.with_inner(None, |inner| inner.pool.cached_pages()))
            .sum()
    }

    /// Flushes and empties every shard's cache so a subsequent run starts
    /// cold.
    pub fn clear_cache(&self) {
        for shard in self.shards.iter() {
            shard.with_inner(None, |inner| inner.pool.clear(&mut inner.disk));
        }
    }
}

/// Splits `total` buffer pages over `shards` shards: an even split with the
/// remainder spread over the first shards, and at least one page each. Used
/// at construction time, when no pages exist to weight the split by (the
/// shard count is clamped so the floor cannot inflate the total).
fn split_capacity(total: usize, shards: usize) -> Vec<usize> {
    let base = total / shards;
    let rem = total % shards;
    (0..shards)
        .map(|i| (base + usize::from(i < rem)).max(1))
        .collect()
}

/// Splits `total` buffer pages proportionally to per-shard resident page
/// counts (`sizes`), using largest-remainder rounding. The returned
/// capacities sum to exactly `total`; shards holding no pages get no
/// frames. With all sizes equal this degrades to the even split (without
/// the one-page floor).
fn split_capacity_size_aware(total: usize, sizes: &[usize]) -> Vec<usize> {
    let shards = sizes.len();
    let weight: usize = sizes.iter().sum();
    if weight == 0 {
        // No pages allocated yet: plain even split, first shards take the
        // remainder.
        let base = total / shards;
        let rem = total % shards;
        return (0..shards).map(|i| base + usize::from(i < rem)).collect();
    }
    let mut caps: Vec<usize> = Vec::with_capacity(shards);
    let mut order: Vec<(usize, usize, usize)> = Vec::with_capacity(shards); // (rem, size, idx)
    for (i, &size) in sizes.iter().enumerate() {
        let ideal = total * size;
        caps.push(ideal / weight);
        order.push((ideal % weight, size, i));
    }
    let assigned: usize = caps.iter().sum();
    // Hand the leftover pages to the largest fractional remainders,
    // breaking ties toward larger stripes then lower indices.
    order.sort_by(|a, b| (b.0, b.1).cmp(&(a.0, a.1)).then(a.2.cmp(&b.2)));
    for &(_, _, i) in order.iter().take(total - assigned) {
        caps[i] += 1;
    }
    caps
}

/// The largest power of two at or below `n` (`n >= 1`).
fn prev_power_of_two(n: usize) -> usize {
    let next = n.next_power_of_two();
    if next == n {
        n
    } else {
        next / 2
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
        for shards in [1, 4] {
            let store = PageStore::with_config_sharded(32, 4, shards);
            let a = store.alloc_page();
            let b = store.alloc_page();
            store.write_page(a, &[1u8; 32]);
            store.write_page(b, &[2u8; 32]);
            store.with_page(a, |d| assert_eq!(d, &[1u8; 32]));
            store.with_page(b, |d| assert_eq!(d, &[2u8; 32]));
            assert_eq!(store.num_pages(), 2);
        }
    }

    #[test]
    fn stats_visible_and_resettable() {
        // shards = 1: one global clock, so the eviction sequence is exact.
        let store = PageStore::with_config_sharded(32, 1, 1);
        let a = store.alloc_page();
        let b = store.alloc_page();
        store.write_page(a, &[1u8; 32]);
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
        let store = PageStore::with_config_sharded(32, 1000, 1);
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
        let store = PageStore::with_config_sharded(32, 10, 4);
        assert_eq!(store.num_shards(), 4);
        // 10 over 4 shards: 3+3+2+2.
        assert_eq!(store.buffer_capacity(), 10);
        // Sub-shard totals are honoured exactly: the size-aware split hands
        // out 0-frame (read-through) shards instead of flooring at one.
        store.set_buffer_capacity(2);
        assert_eq!(store.buffer_capacity(), 2);
        store.set_buffer_capacity(7);
        assert_eq!(store.buffer_capacity(), 7);
    }

    /// The ROADMAP regression: at ≤ 2 pages of capacity per shard the old
    /// truncate-then-floor split inflated the requested total; the
    /// size-aware split keeps it exact and weighted by stripe population.
    #[test]
    fn tiny_buffer_split_is_size_aware() {
        let store = PageStore::with_config_sharded(32, 64, 4);
        // 10 pages stripe as 3,3,2,2 over the 4 shards.
        let pages: Vec<_> = (0..10).map(|_| store.alloc_page()).collect();
        for &p in &pages {
            store.write_page(p, &[7u8; 32]);
        }
        store.flush();
        for cap in 1..=8 {
            store.set_buffer_capacity(cap);
            assert_eq!(store.buffer_capacity(), cap, "requested {cap}");
        }
        // ≤ 2 pages/shard: every page stays readable through the 0-frame
        // (read-through) shards and fault accounting still works.
        store.set_buffer_capacity(2);
        store.clear_cache();
        store.reset_stats();
        for &p in &pages {
            store.with_page(p, |d| assert_eq!(d[0], 7));
        }
        assert_eq!(store.io_stats().faults, 10, "cold pass faults every page");
        assert!(store.cached_pages() <= 2);

        // Proportionality: with capacity 5 over stripes 3,3,2,2 the two
        // 3-page shards take the remainder before the 2-page shards.
        assert_eq!(
            split_capacity_size_aware(5, &[3, 3, 2, 2]),
            vec![2, 1, 1, 1]
        );
        assert_eq!(
            split_capacity_size_aware(2, &[2, 2, 2, 2]),
            vec![1, 1, 0, 0]
        );
        assert_eq!(
            split_capacity_size_aware(3, &[0, 4, 0, 2]),
            vec![0, 2, 0, 1]
        );
        assert_eq!(
            split_capacity_size_aware(4, &[0, 0, 0, 0]),
            vec![1, 1, 1, 1]
        );
    }

    #[test]
    fn cold_start_after_clear_cache() {
        for shards in [1, 8] {
            let store = PageStore::with_config_sharded(32, 8, shards);
            let a = store.alloc_page();
            store.write_page(a, &[5u8; 32]);
            store.flush();
            store.with_page(a, |_| ());
            store.clear_cache();
            store.reset_stats();
            store.with_page(a, |d| assert_eq!(d, &[5u8; 32]));
            assert_eq!(store.io_stats().faults, 1);
            assert_eq!(store.cached_pages(), 1);
        }
    }

    #[test]
    fn contexts_attribute_traffic_per_caller() {
        let store = PageStore::with_config_sharded(32, 8, 4);
        let pages: Vec<_> = (0..8).map(|_| store.alloc_page()).collect();
        for (i, &p) in pages.iter().enumerate() {
            store.write_page(p, &[i as u8; 32]);
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
        for shards in [1, 4] {
            let store = PageStore::with_config_sharded(32, 8, shards);
            let pages: Vec<_> = (0..8).map(|_| store.alloc_page()).collect();
            for &p in &pages {
                store.write_page(p, &[1u8; 32]);
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
                Some(crate::AbortReason::IoBudgetExceeded),
                "shards = {shards}"
            );
            assert_eq!(ctx.stats().faults, 3);
        }
    }

    #[test]
    fn store_is_shareable_across_threads() {
        for shards in [1, 4] {
            let store = PageStore::with_config_sharded(32, 4, shards);
            let pages: Vec<_> = (0..8).map(|_| store.alloc_page()).collect();
            for (i, &p) in pages.iter().enumerate() {
                store.write_page(p, &[i as u8; 32]);
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
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_page_access_panics() {
        let store = PageStore::with_config_sharded(32, 4, 4);
        store.alloc_page();
        store.with_page(PageId(3), |_| ());
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        let store = PageStore::with_config_sharded(32, 16, 5);
        assert_eq!(store.num_shards(), 8);
        assert!(default_shards().is_power_of_two());
        assert!(default_shards() <= 16);
    }

    #[test]
    fn shard_count_clamped_by_requested_capacity() {
        // 3 buffer pages cannot honour 8 one-page-minimum shards; the shard
        // count is clamped so the requested total stays exact.
        let store = PageStore::with_config_sharded(32, 3, 8);
        assert_eq!(store.num_shards(), 2);
        assert_eq!(store.buffer_capacity(), 3);
    }
}
