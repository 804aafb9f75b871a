//! The store is one buffer pool behind one mutex, and must behave exactly
//! like that pool:
//!
//! 1. A [`PageStore`] built with plain [`PageStore::with_config`] reproduces
//!    one clock-replaced pool over one disk, access for access: the same
//!    hit/fault/evict sequence, pinned against a reference model built from
//!    the raw [`BufferPool`] + [`DiskManager`] pair (the store minus the
//!    lock) — on every host, whatever its core count.
//! 2. Per-query [`QueryContext`]s partition the store's traffic exactly:
//!    under concurrency, disjoint sessions sum to the global aggregate.

use cca_storage::{BufferPool, DiskManager, IoStats, PageId, PageStore, QueryContext};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Read page `i % allocated` through the pool.
    Read(usize),
    /// Write page `i % allocated` through the pool (write-allocate, dirty).
    Write(usize, u8),
    /// Flush all dirty frames.
    Flush,
    /// Cold-start the cache.
    Clear,
    /// Re-size the buffer (1..=8 pages).
    SetCapacity(usize),
}

fn op_strategy(pages: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..pages).prop_map(Op::Read),
        (0..pages).prop_map(Op::Read),
        (0..pages).prop_map(Op::Read),
        ((0..pages), any::<u8>()).prop_map(|(i, b)| Op::Write(i, b)),
        ((0..pages), any::<u8>()).prop_map(|(i, b)| Op::Write(i, b)),
        Just(Op::Flush),
        Just(Op::Clear),
        (1usize..=8).prop_map(Op::SetCapacity),
    ]
}

/// The reference model: one pool over one disk, no lock.
struct Reference {
    disk: DiskManager,
    pool: BufferPool,
    ids: Vec<PageId>,
}

impl Reference {
    fn new(page_size: usize, capacity: usize, pages: usize) -> Self {
        let mut disk = DiskManager::new(page_size);
        let ids = (0..pages).map(|_| disk.alloc_page()).collect();
        Reference {
            disk,
            pool: BufferPool::new(capacity),
            ids,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Default-built store ≡ one pool over one disk, op for op: identical
    /// hit/fault/write deltas (hence identical eviction decisions — a
    /// diverging victim would surface as a diverging fault within a few
    /// ops of the cyclic access mixes generated here) and identical bytes.
    #[test]
    fn single_shard_matches_old_pool_behaviour(
        capacity in 1usize..6,
        ops in proptest::collection::vec(op_strategy(12), 1..120),
    ) {
        const PAGE: usize = 16;
        const PAGES: usize = 12;
        let mut reference = Reference::new(PAGE, capacity, PAGES);
        let store = PageStore::with_config(PAGE, capacity);
        let ids: Vec<PageId> = (0..PAGES).map(|_| store.alloc_page()).collect();

        for (step, op) in ops.iter().enumerate() {
            let before_ref = reference.pool.stats();
            let before_store = store.io_stats();
            match *op {
                Op::Read(i) => {
                    let got_ref = reference.pool.with_page(
                        &mut reference.disk,
                        reference.ids[i],
                        |d| d.to_vec(),
                    );
                    let got_store = store.with_page(ids[i], |d| d.to_vec());
                    prop_assert_eq!(&got_ref, &got_store, "bytes diverged at step {}", step);
                }
                Op::Write(i, byte) => {
                    let data = vec![byte; PAGE];
                    reference.pool.write_page(&mut reference.disk, reference.ids[i], &data);
                    store.write_page(ids[i], &data);
                }
                Op::Flush => {
                    reference.pool.flush_all(&mut reference.disk);
                    store.flush();
                }
                Op::Clear => {
                    reference.pool.clear(&mut reference.disk);
                    store.clear_cache();
                }
                Op::SetCapacity(cap) => {
                    reference.pool.set_capacity(&mut reference.disk, cap);
                    store.set_buffer_capacity(cap);
                    prop_assert_eq!(reference.pool.capacity(), store.buffer_capacity());
                }
            }
            let delta_ref = reference.pool.stats().since(&before_ref);
            let delta_store = store.io_stats().since(&before_store);
            prop_assert_eq!(
                delta_ref, delta_store,
                "stat delta diverged at step {} on {:?}", step, op
            );
            prop_assert_eq!(reference.pool.cached_pages(), store.cached_pages());
        }
    }
}

/// Disjoint sessions partition the store's traffic exactly: with every
/// access charged to some session, per-session stats sum to the global
/// aggregate even under contention.
#[test]
fn concurrent_sessions_sum_to_global_aggregate() {
    const THREADS: usize = 8;
    const PAGES: usize = 64;
    const ROUNDS: usize = 300;
    let store = PageStore::with_config(32, 16);
    let ids: Vec<PageId> = (0..PAGES).map(|_| store.alloc_page()).collect();
    for (i, &id) in ids.iter().enumerate() {
        store.write_page(id, &[i as u8; 32]);
    }
    store.flush();
    store.clear_cache();
    store.reset_stats();

    let sessions: Vec<QueryContext> = (0..THREADS).map(|_| QueryContext::new()).collect();
    std::thread::scope(|scope| {
        for (t, session) in sessions.iter().enumerate() {
            let store = &store;
            let ids = &ids;
            scope.spawn(move || {
                // Each worker walks its own stride so the mix covers hits,
                // cross-thread sharing and evictions.
                for round in 0..ROUNDS {
                    let idx = (t * 7 + round * 3) % ids.len();
                    store.with_page_ctx(ids[idx], Some(session), |d| {
                        assert_eq!(d[0] as usize, idx);
                    });
                }
            });
        }
    });

    let total: IoStats = sessions
        .iter()
        .fold(IoStats::default(), |acc, s| acc + s.stats());
    let global = store.io_stats();
    assert_eq!(
        total, global,
        "per-session traffic must partition the global counters"
    );
    assert_eq!(global.logical_reads() as usize, THREADS * ROUNDS);
    assert!(
        global.faults > 0,
        "working set exceeds the pool: must fault"
    );
    for s in &sessions {
        assert_eq!(s.stats().logical_reads() as usize, ROUNDS);
    }
}
