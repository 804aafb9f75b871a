//! One shard of the sharded buffer pool: a slice of the page-id space with
//! its own disk segment, clock-replaced frames, lock, and atomic counters.
//!
//! Page ids are dense allocation indices, so the store stripes them
//! round-robin: with `N = 2^bits` shards, page `i` lives in shard
//! `i & (N-1)` under the shard-local id `i >> bits`. Striding (rather than
//! range partitioning) spreads any access locality — an R-tree traversal
//! touches pages allocated together — evenly across shards, which is what
//! makes independent shard locks pay off under concurrent queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::buffer::BufferPool;
use crate::context::QueryContext;
use crate::disk::{DiskManager, PageId};
use crate::stats::{IoSession, IoStats};

/// The lock-protected working state of one shard.
pub(crate) struct ShardInner {
    pub(crate) disk: DiskManager,
    pub(crate) pool: BufferPool,
}

impl ShardInner {
    /// Grows the shard-local disk so `local` is a valid page (pages are
    /// allocated globally by an atomic counter; the owning shard lazily
    /// materialises its stripe on first touch).
    pub(crate) fn ensure_local_page(&mut self, local: PageId) {
        while self.disk.num_pages() <= local.index() {
            self.disk.alloc_page();
        }
    }
}

/// One shard: its own frames, clock hand, disk segment and lock, plus atomic
/// counters readable without the lock. The counters reuse [`IoSession`] —
/// a shard's aggregate is the same three-counter atomic bundle a per-query
/// context charges, fed from the same place.
pub(crate) struct Shard {
    inner: Mutex<ShardInner>,
    stats: IoSession,
    /// Times `inner` was locked.
    lock_count: AtomicU64,
}

impl Shard {
    pub(crate) fn new(page_size: usize, buffer_pages: usize) -> Self {
        Shard {
            inner: Mutex::new(ShardInner {
                disk: DiskManager::new(page_size),
                pool: BufferPool::new(buffer_pages),
            }),
            stats: IoSession::default(),
            lock_count: AtomicU64::new(0),
        }
    }

    /// Counters accumulated by this shard so far.
    pub(crate) fn stats(&self) -> IoStats {
        self.stats.stats()
    }

    /// Mutex acquisitions so far: every read, write and maintenance call.
    pub(crate) fn lock_acquisitions(&self) -> u64 {
        self.lock_count.load(Ordering::Relaxed)
    }

    /// Locks the shard; poisoning is deliberately ignored (all mutation is
    /// in-memory bookkeeping that cannot be left torn).
    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        self.lock_count.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `op` under the shard lock and charges the pool-stat delta to
    /// the shard counters and, when given, to `ctx` — whose charge also
    /// performs the per-query I/O-budget check at fault time.
    ///
    /// The charge happens *before* the lock is released so it cannot race
    /// [`Shard::reset_stats`] (a post-unlock charge could resurrect
    /// pre-reset traffic into freshly zeroed counters).
    pub(crate) fn with_inner<R>(
        &self,
        ctx: Option<&QueryContext>,
        op: impl FnOnce(&mut ShardInner) -> R,
    ) -> R {
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

    /// Resets both the pool-internal counters and the shard atomics, under
    /// one lock hold so no delta can slip between the two.
    pub(crate) fn reset_stats(&self) {
        let mut guard = self.lock();
        guard.pool.reset_stats();
        self.stats.reset();
    }
}

/// Routes page ids to shards: `shard = index & mask`, `local = index >> bits`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardRouter {
    bits: u32,
    mask: u32,
}

impl ShardRouter {
    /// Builds a router over `shards` shards (must be a power of two).
    pub(crate) fn new(shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        assert!(shards <= 1 << 16, "shard count out of range");
        let bits = shards.trailing_zeros();
        ShardRouter {
            bits,
            mask: (shards - 1) as u32,
        }
    }

    #[inline]
    pub(crate) fn shards(&self) -> usize {
        (self.mask as usize) + 1
    }

    #[inline]
    pub(crate) fn shard_of(&self, id: PageId) -> usize {
        (id.0 & self.mask) as usize
    }

    #[inline]
    pub(crate) fn local_id(&self, id: PageId) -> PageId {
        PageId(id.0 >> self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_stripes_round_robin() {
        let r = ShardRouter::new(4);
        assert_eq!(r.shards(), 4);
        assert_eq!(r.shard_of(PageId(0)), 0);
        assert_eq!(r.shard_of(PageId(5)), 1);
        assert_eq!(r.shard_of(PageId(7)), 3);
        assert_eq!(r.local_id(PageId(0)), PageId(0));
        assert_eq!(r.local_id(PageId(5)), PageId(1));
        assert_eq!(r.local_id(PageId(14)), PageId(3));
    }

    #[test]
    fn single_shard_router_is_identity() {
        let r = ShardRouter::new(1);
        for i in [0u32, 1, 17, 4096] {
            assert_eq!(r.shard_of(PageId(i)), 0);
            assert_eq!(r.local_id(PageId(i)), PageId(i));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        ShardRouter::new(3);
    }

    #[test]
    fn shard_charges_atomics_and_context() {
        let shard = Shard::new(16, 2);
        let ctx = QueryContext::new();
        shard.with_inner(Some(&ctx), |inner| {
            let id = inner.disk.alloc_page();
            inner.pool.with_page(&mut inner.disk, id, |_| ());
            inner.pool.with_page(&mut inner.disk, id, |_| ());
        });
        let want = IoStats {
            hits: 1,
            faults: 1,
            writes: 0,
        };
        assert_eq!(shard.stats(), want);
        assert_eq!(ctx.stats(), want);
        shard.reset_stats();
        assert_eq!(shard.stats(), IoStats::default());
    }
}
