//! Buffer pool with clock (second-chance) replacement and write-back of
//! dirty pages.
//!
//! A frame is plain data owned by the pool: the page it holds, the page
//! bytes, a clock reference bit and a dirty bit. Every operation takes
//! `&mut BufferPool`, so whatever serialises access to the pool (the store
//! mutex in [`crate::PageStore`]) serialises hits, faults, writes and
//! resizes alike — there is one read path, and the closure handed to
//! [`BufferPool::with_page`] sees the frame's bytes in place.
//!
//! Replacement is clock/second-chance rather than the paper's strict LRU: a
//! hit only sets the frame's reference bit (no list mutation), and the
//! eviction hand sweeps frames clearing bits until it finds one already
//! clear.

use crate::disk::{DiskManager, PageId};
use crate::stats::IoStats;

const NO_FRAME: u32 = u32::MAX;

struct Frame {
    /// Index of the page held.
    page: u32,
    bytes: Box<[u8]>,
    /// Clock reference bit: set on every access, cleared by the sweeping
    /// hand.
    referenced: bool,
    dirty: bool,
}

impl Frame {
    /// Writes the frame back if dirty, counting the write in `stats`.
    fn write_back(&mut self, disk: &mut DiskManager, stats: &mut IoStats) {
        if std::mem::take(&mut self.dirty) {
            disk.write_page(PageId(self.page), &self.bytes);
            stats.writes += 1;
        }
    }
}

/// A buffer pool caching up to `capacity` pages (at least one) with clock
/// (second-chance) replacement.
///
/// The evaluation uses a buffer sized at "1% of the tree size" (§5.1); the
/// R-tree configures that after bulk loading via
/// [`BufferPool::set_capacity`]. Every cache miss is a page fault charged at
/// 10 ms by [`IoStats`]. Hits touch no replacement list — they only set the
/// frame's reference bit.
///
/// Every frame holds a page: frames are created on a fault below capacity
/// and dropped by [`BufferPool::clear`] and by shrinking, so a cleared pool
/// is an empty pool, exactly like a fresh one.
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    /// Maps `PageId` index → frame slot (`NO_FRAME` when uncached). Page ids
    /// are dense, so a vector beats a hash map here.
    page_table: Vec<u32>,
    /// Clock hand position for the second-chance sweep.
    hand: usize,
    stats: IoStats,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages; `0` is clamped to
    /// one frame.
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity: capacity.max(1),
            frames: Vec::new(),
            page_table: Vec::new(),
            hand: 0,
            stats: IoStats::default(),
        }
    }

    /// Current capacity in pages.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently cached.
    #[inline]
    pub fn cached_pages(&self) -> usize {
        self.frames.len()
    }

    /// Accumulated I/O statistics.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the statistics (cache content is kept).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Returns the frame slot caching `id`, if any.
    fn lookup(&self, id: PageId) -> Option<usize> {
        let slot = *self.page_table.get(id.index())?;
        (slot != NO_FRAME).then_some(slot as usize)
    }

    /// Clock second-chance sweep: advances the hand, clearing reference bits,
    /// until it finds a frame whose bit is already clear. Bounded: one full
    /// pass clears every bit.
    fn pick_victim(&mut self) -> usize {
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if !std::mem::take(&mut self.frames[slot].referenced) {
                return slot;
            }
        }
    }

    /// Gives uncached page `id` a frame — a new one below capacity, else the
    /// clock victim, written back if dirty — and returns its slot. The frame
    /// comes back referenced and clean; the caller fills its bytes.
    ///
    /// # Panics
    /// Panics if `id` is not on `disk`, before the pool changes.
    fn attach(&mut self, disk: &mut DiskManager, id: PageId) -> usize {
        assert!(id.index() < disk.num_pages(), "{id} is not on disk");
        let slot = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page: id.0,
                bytes: vec![0u8; disk.page_size()].into_boxed_slice(),
                referenced: true,
                dirty: false,
            });
            self.frames.len() - 1
        } else {
            let slot = self.pick_victim();
            let frame = &mut self.frames[slot];
            frame.write_back(disk, &mut self.stats);
            self.page_table[frame.page as usize] = NO_FRAME;
            frame.page = id.0;
            frame.referenced = true;
            slot
        };
        if id.index() >= self.page_table.len() {
            self.page_table.resize(id.index() + 1, NO_FRAME);
        }
        self.page_table[id.index()] = slot as u32;
        slot
    }

    /// Reads page `id` through the pool and passes its bytes to `f`.
    ///
    /// Counts a hit if cached, otherwise a fault plus a physical read
    /// straight into the victim frame.
    pub fn with_page<R>(
        &mut self,
        disk: &mut DiskManager,
        id: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let slot = match self.lookup(id) {
            Some(slot) => {
                self.stats.hits += 1;
                self.frames[slot].referenced = true;
                slot
            }
            None => {
                self.stats.faults += 1;
                let slot = self.attach(disk, id);
                disk.read_page(id, &mut self.frames[slot].bytes);
                slot
            }
        };
        f(&self.frames[slot].bytes)
    }

    /// Writes a full page through the pool (write-allocate, no read needed
    /// because the whole page is replaced). The page is marked dirty and hits
    /// the disk on eviction or [`BufferPool::flush_all`].
    pub fn write_page(&mut self, disk: &mut DiskManager, id: PageId, data: &[u8]) {
        assert_eq!(data.len(), disk.page_size(), "buffer/page size mismatch");
        let slot = match self.lookup(id) {
            Some(slot) => slot,
            None => self.attach(disk, id),
        };
        let frame = &mut self.frames[slot];
        frame.bytes.copy_from_slice(data);
        frame.referenced = true;
        frame.dirty = true;
    }

    /// Drops page `id`'s frame, if it has one, without writing it back:
    /// the page is dead. The last frame takes the freed slot.
    pub fn discard(&mut self, id: PageId) {
        let Some(slot) = self.lookup(id) else {
            return;
        };
        self.page_table[id.index()] = NO_FRAME;
        self.frames.swap_remove(slot);
        if let Some(moved) = self.frames.get(slot) {
            self.page_table[moved.page as usize] = slot as u32;
        }
        if self.hand >= self.frames.len() {
            self.hand = 0;
        }
    }

    /// Writes back every dirty frame.
    pub fn flush_all(&mut self, disk: &mut DiskManager) {
        for frame in &mut self.frames {
            frame.write_back(disk, &mut self.stats);
        }
    }

    /// Flushes and drops every frame: the next run starts from an empty
    /// pool, as in the paper, and faults exactly as on a fresh pool whatever
    /// ran before. Capacity and statistics are kept.
    pub fn clear(&mut self, disk: &mut DiskManager) {
        self.flush_all(disk);
        self.frames.clear();
        self.page_table.clear();
        self.hand = 0;
    }

    /// Changes the capacity (`0` is clamped to one frame). Shrinking below
    /// the cached page count evicts at once the frames that as many
    /// consecutive faults would take; the survivors keep their clock order
    /// and the hand restarts where this sweep began.
    pub fn set_capacity(&mut self, disk: &mut DiskManager, capacity: usize) {
        self.capacity = capacity.max(1);
        let mut excess = self.frames.len().saturating_sub(self.capacity);
        if excess == 0 {
            return;
        }
        // The sweep starts at the hand. Its first lap takes unreferenced
        // frames and clears the bits of the rest; the second takes frames
        // in order until enough are gone.
        self.frames.rotate_left(self.hand);
        for lap in 0..2 {
            self.frames.retain_mut(|frame| {
                if excess == 0 || (lap == 0 && std::mem::take(&mut frame.referenced)) {
                    return true;
                }
                frame.write_back(disk, &mut self.stats);
                self.page_table[frame.page as usize] = NO_FRAME;
                excess -= 1;
                false
            });
        }
        self.hand = 0;
        for (slot, frame) in self.frames.iter().enumerate() {
            self.page_table[frame.page as usize] = slot as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(
        pool_cap: usize,
        pages: usize,
        page_size: usize,
    ) -> (DiskManager, BufferPool, Vec<PageId>) {
        let mut disk = DiskManager::new(page_size);
        let ids: Vec<PageId> = (0..pages).map(|_| disk.alloc_page()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let data = vec![i as u8; page_size];
            disk.write_page(id, &data);
        }
        (disk, BufferPool::new(pool_cap), ids)
    }

    #[test]
    fn first_access_faults_second_hits() {
        let (mut disk, mut pool, ids) = setup(2, 2, 16);
        pool.with_page(&mut disk, ids[0], |d| assert_eq!(d[0], 0));
        pool.with_page(&mut disk, ids[0], |d| assert_eq!(d[0], 0));
        let s = pool.stats();
        assert_eq!(s.faults, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn eviction_follows_clock_second_chance() {
        let (mut disk, mut pool, ids) = setup(2, 3, 16);
        pool.with_page(&mut disk, ids[0], |_| ()); // slot 0, referenced
        pool.with_page(&mut disk, ids[1], |_| ()); // slot 1, referenced
        pool.with_page(&mut disk, ids[0], |_| ()); // hit
                                                   // Fault page 2: the hand sweeps slots 0 and 1 (both referenced,
                                                   // bits cleared), wraps, and takes slot 0 — second chance means the
                                                   // *first* swept frame loses once everyone has been referenced.
        pool.with_page(&mut disk, ids[2], |_| ());
        pool.with_page(&mut disk, ids[1], |_| ()); // page 1 survived -> hit
        pool.with_page(&mut disk, ids[0], |_| ()); // page 0 was evicted -> fault
        let s = pool.stats();
        assert_eq!(s.faults, 4, "pages 0,1,2 cold + page 0 re-read");
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn unreferenced_frame_is_taken_before_a_referenced_one() {
        let (mut disk, mut pool, ids) = setup(2, 4, 16);
        pool.with_page(&mut disk, ids[0], |_| ());
        pool.with_page(&mut disk, ids[1], |_| ());
        // Evicting for page 2 sweeps both bits clear and takes slot 0; the
        // fresh page 2 is referenced, page 1 is not.
        pool.with_page(&mut disk, ids[2], |_| ());
        // The next eviction finds page 1's bit already clear and takes it,
        // sparing the referenced page 2.
        pool.with_page(&mut disk, ids[3], |_| ());
        pool.reset_stats();
        pool.with_page(&mut disk, ids[2], |_| ());
        assert_eq!(pool.stats().hits, 1, "referenced page survived the sweep");
        pool.with_page(&mut disk, ids[1], |_| ());
        assert_eq!(pool.stats().faults, 1, "unreferenced page was the victim");
    }

    /// A trace on which clock and FIFO part ways: FIFO would evict page 1,
    /// the oldest page left, but its touch gives it a second chance.
    #[test]
    fn a_touched_page_survives_where_fifo_would_evict_it() {
        let (mut disk, mut pool, ids) = setup(3, 5, 16);
        for &id in &ids[..3] {
            pool.with_page(&mut disk, id, |_| ());
        }
        // The sweep clears all three bits and takes page 0.
        pool.with_page(&mut disk, ids[3], |_| ());
        pool.with_page(&mut disk, ids[1], |_| ()); // hit: page 1's bit is set again
                                                   // The hand passes page 1, clearing its bit, and takes page 2.
        pool.with_page(&mut disk, ids[4], |_| ());
        pool.reset_stats();
        pool.with_page(&mut disk, ids[1], |_| ());
        assert_eq!(pool.stats().hits, 1, "page 1 survived");
        pool.with_page(&mut disk, ids[2], |_| ());
        assert_eq!(pool.stats().faults, 1, "page 2 was the victim");
    }

    #[test]
    fn discarded_page_leaves_unwritten_and_its_slot_is_reused() {
        let (mut disk, mut pool, ids) = setup(4, 3, 64);
        for &id in &ids {
            pool.write_page(&mut disk, id, &[9u8; 64]);
        }
        pool.discard(ids[0]);
        pool.discard(ids[0]); // not cached: nothing to do
        assert_eq!(pool.cached_pages(), 2);
        pool.flush_all(&mut disk);
        assert_eq!(pool.stats().writes, 2, "the discarded page is not written");
        let mut buf = [0u8; 64];
        disk.read_page(ids[0], &mut buf);
        assert_eq!(buf, [0u8; 64]);
        // The moved frame is still found: a hit, not a fault.
        pool.with_page(&mut disk, ids[2], |b| assert_eq!(b[0], 9));
        assert_eq!((pool.stats().hits, pool.stats().faults), (1, 0));
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (mut disk, mut pool, ids) = setup(1, 2, 8);
        let mut on_disk = [0xFFu8; 8];
        pool.write_page(&mut disk, ids[0], &[9u8; 8]);
        assert_eq!(pool.stats().writes, 0, "write-back is deferred");
        disk.read_page(ids[0], &mut on_disk);
        assert_eq!(on_disk, [0u8; 8], "the disk still holds the old bytes");
        pool.with_page(&mut disk, ids[1], |_| ()); // evicts dirty page 0
        assert_eq!(pool.stats().writes, 1);
        disk.read_page(ids[0], &mut on_disk);
        assert_eq!(on_disk, [9u8; 8]);
        // Content must survive the round trip.
        pool.with_page(&mut disk, ids[0], |d| assert_eq!(d, &[9u8; 8]));
        assert_eq!(pool.stats().writes, 1);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let (mut disk, mut pool, ids) = setup(4, 2, 8);
        pool.write_page(&mut disk, ids[0], &[7u8; 8]);
        pool.write_page(&mut disk, ids[1], &[8u8; 8]);
        pool.flush_all(&mut disk);
        assert_eq!(pool.stats().writes, 2);
        let mut on_disk = [0u8; 8];
        disk.read_page(ids[0], &mut on_disk);
        assert_eq!(on_disk, [7u8; 8]);
        disk.read_page(ids[1], &mut on_disk);
        assert_eq!(on_disk, [8u8; 8]);
        // Flushing twice writes nothing new.
        pool.flush_all(&mut disk);
        assert_eq!(pool.stats().writes, 2);
        assert_eq!(pool.cached_pages(), 2, "flushing evicts nothing");
    }

    #[test]
    fn clear_cold_starts_the_cache() {
        let (mut disk, mut pool, ids) = setup(2, 2, 8);
        pool.with_page(&mut disk, ids[0], |_| ());
        pool.clear(&mut disk);
        pool.reset_stats();
        pool.with_page(&mut disk, ids[0], |_| ());
        assert_eq!(pool.stats().faults, 1, "cache was cold after clear");
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let (mut disk, mut pool, ids) = setup(3, 3, 8);
        for &id in &ids {
            pool.with_page(&mut disk, id, |_| ());
        }
        assert_eq!(pool.cached_pages(), 3);
        pool.set_capacity(&mut disk, 1);
        assert!(pool.cached_pages() <= 1);
        // The survivor is the last frame the clock hand spared: with all
        // three referenced the sweep clears 0,1,2 then evicts 0 and 1.
        pool.reset_stats();
        pool.with_page(&mut disk, ids[2], |_| ());
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn working_set_larger_than_pool_thrashes() {
        let (mut disk, mut pool, ids) = setup(2, 5, 8);
        // Cyclic scan over 5 pages with a 2-page pool: every access faults.
        for _ in 0..3 {
            for &id in &ids {
                pool.with_page(&mut disk, id, |_| ());
            }
        }
        let s = pool.stats();
        assert_eq!(s.faults, 15);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn cleared_pool_replays_like_a_fresh_one() {
        // A cold run must not depend on what ran before: after `clear`, an
        // access sequence hits and faults exactly as on a new pool.
        fn replay(pool: &mut BufferPool, disk: &mut DiskManager, ids: &[PageId]) -> IoStats {
            pool.reset_stats();
            for i in [0, 1, 2, 3, 1, 2, 4, 3] {
                pool.with_page(disk, ids[i], |d| assert_eq!(d[0], i as u8));
            }
            pool.stats()
        }
        let (mut disk, mut fresh, ids) = setup(3, 5, 8);
        let expected = replay(&mut fresh, &mut disk, &ids);
        let mut used = BufferPool::new(3);
        for &id in ids.iter().rev() {
            used.with_page(&mut disk, id, |_| ());
        }
        used.write_page(&mut disk, ids[4], &[4u8; 8]);
        used.clear(&mut disk);
        assert_eq!(used.cached_pages(), 0);
        assert_eq!(replay(&mut used, &mut disk, &ids), expected);
        assert_eq!(expected.hits, 3, "the sequence mixes hits and faults");
    }

    #[test]
    fn shrinking_capacity_compacts_without_leaking_frames() {
        let (mut disk, mut pool, ids) = setup(8, 8, 8);
        for &id in &ids {
            pool.with_page(&mut disk, id, |_| ());
        }
        assert_eq!(pool.cached_pages(), 8);
        pool.set_capacity(&mut disk, 3);
        assert_eq!(pool.capacity(), 3);
        assert_eq!(pool.cached_pages(), 3, "shrink must drop spare frames");
        // All eight were referenced once, so the sweep clears every bit and
        // then evicts slots 0..5 in hand order: pages 5,6,7 survive.
        pool.reset_stats();
        for &id in &ids[5..] {
            pool.with_page(&mut disk, id, |_| ());
        }
        assert_eq!(pool.stats().hits, 3);
        // The pool still works at the reduced size: a cold page faults in
        // and the working set stays within the new capacity.
        pool.with_page(&mut disk, ids[0], |_| ());
        assert_eq!(pool.stats().faults, 1);
        assert_eq!(pool.cached_pages(), 3);
    }

    #[test]
    fn clear_after_shrink_has_no_stale_page_table_entries() {
        let (mut disk, mut pool, ids) = setup(4, 6, 8);
        for &id in &ids {
            pool.with_page(&mut disk, id, |_| ());
        }
        pool.set_capacity(&mut disk, 2);
        pool.clear(&mut disk);
        pool.reset_stats();
        // Every page must fault again; a stale table entry would fake a hit
        // (or worse, serve another page's bytes).
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page(&mut disk, id, |d| assert_eq!(d[0], i as u8));
        }
        assert_eq!(pool.stats().faults as usize, ids.len());
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn shrink_to_zero_then_grow_again() {
        let (mut disk, mut pool, ids) = setup(2, 2, 8);
        pool.write_page(&mut disk, ids[0], &[5u8; 8]);
        pool.with_page(&mut disk, ids[1], |_| ());
        // Zero is clamped to one frame: the sweep evicts dirty page 0.
        pool.set_capacity(&mut disk, 0);
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.stats().writes, 1, "dirty page written back");
        assert_eq!(pool.cached_pages(), 1);
        pool.with_page(&mut disk, ids[0], |d| assert_eq!(d, &[5u8; 8]));
        pool.set_capacity(&mut disk, 2);
        pool.reset_stats();
        pool.with_page(&mut disk, ids[0], |_| ());
        pool.with_page(&mut disk, ids[0], |_| ());
        assert_eq!(pool.stats().hits, 2, "caching resumes after regrow");
    }

    #[test]
    fn write_then_read_same_frame_no_fault() {
        let (mut disk, mut pool, ids) = setup(2, 1, 8);
        pool.write_page(&mut disk, ids[0], &[3u8; 8]);
        pool.with_page(&mut disk, ids[0], |d| assert_eq!(d, &[3u8; 8]));
        let s = pool.stats();
        assert_eq!(s.faults, 0, "write-allocate avoids the read fault");
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn non_word_page_sizes_roundtrip_through_cells() {
        for size in [1usize, 7, 9, 15, 17] {
            let (mut disk, mut pool, ids) = setup(1, 2, size);
            let bytes: Vec<u8> = (0..size as u8).collect();
            pool.write_page(&mut disk, ids[0], &bytes);
            pool.with_page(&mut disk, ids[0], |d| {
                assert_eq!(d, &bytes[..], "page size {size}")
            });
            // And byte-exact again after a write-back / re-fault round trip.
            pool.with_page(&mut disk, ids[1], |_| ());
            pool.with_page(&mut disk, ids[0], |d| {
                assert_eq!(d, &bytes[..], "page size {size}")
            });
        }
    }
}
