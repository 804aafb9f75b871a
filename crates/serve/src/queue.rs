//! [`AgingQueue`] — the scheduler's multi-level priority queue.
//!
//! One FIFO ring per [`Priority`] level, popped highest level first. To
//! prevent starvation under a saturated stream of high-priority work, the
//! queue *ages* waiters: every `aging_period` pops, the front (oldest)
//! entry of each non-top level is promoted to the *front* of the level
//! above. The oldest entry of the lowest level therefore reaches the top
//! level after at most `(levels − 1) × aging_period` pops and is served on
//! the next one — a bound that holds however many higher-priority entries
//! are queued or keep arriving, which the starvation tests pin down.
//!
//! The queue itself is unbounded: admission control is the caller's
//! (`DrrQueue::push` checks the tenant's `queue_slots` and the
//! global capacity before it pushes).

use std::collections::VecDeque;

use cca_storage::Priority;

/// Multi-level FIFO queue with priority aging.
#[derive(Debug)]
pub struct AgingQueue<T> {
    /// One FIFO per priority level, indexed by [`Priority::index`].
    levels: Vec<VecDeque<T>>,
    len: usize,
    /// Pops between promotion rounds (`0` disables aging).
    aging_period: u32,
    pops_since_promotion: u32,
}

impl<T> AgingQueue<T> {
    /// A queue promoting waiters every `aging_period` pops (`0` = never
    /// promote).
    pub fn new(aging_period: u32) -> Self {
        AgingQueue {
            levels: (0..Priority::ALL.len()).map(|_| VecDeque::new()).collect(),
            len: 0,
            aging_period,
            pops_since_promotion: 0,
        }
    }

    /// Entries currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item` at `priority`.
    pub fn push(&mut self, priority: Priority, item: T) {
        self.levels[priority.index()].push_back(item);
        self.len += 1;
    }

    /// Dequeues the front of the highest non-empty level, after applying a
    /// promotion round if one is due.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        if self.aging_period > 0 {
            self.pops_since_promotion += 1;
            if self.pops_since_promotion >= self.aging_period {
                self.pops_since_promotion = 0;
                self.promote_round();
            }
        }
        for level in (0..self.levels.len()).rev() {
            if let Some(item) = self.levels[level].pop_front() {
                self.len -= 1;
                return Some(item);
            }
        }
        unreachable!("len > 0 but every level was empty");
    }

    /// One aging round: the oldest waiter of each non-top level moves to
    /// the front of the level above. Joining at the back would make its
    /// wait depend on that level's backlog, which a saturating producer
    /// controls — no bound at all.
    fn promote_round(&mut self) {
        for level in (0..self.levels.len() - 1).rev() {
            if let Some(item) = self.levels[level].pop_front() {
                self.levels[level + 1].push_front(item);
            }
        }
    }

    /// Removes and returns the first queued entry matching `pred` (scanning
    /// highest level first), or `None`. This is how a still-queued job is
    /// withdrawn at cancel time — the admission slot frees immediately
    /// instead of when a worker would eventually pop the dead entry.
    pub fn remove_first(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        for level in self.levels.iter_mut().rev() {
            if let Some(i) = level.iter().position(&mut pred) {
                self.len -= 1;
                return level.remove(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_highest_priority_first_fifo_within_level() {
        let mut q = AgingQueue::new(0);
        q.push(Priority::Normal, "n1");
        q.push(Priority::High, "h1");
        q.push(Priority::Normal, "n2");
        q.push(Priority::Critical, "c1");
        q.push(Priority::Low, "l1");
        q.push(Priority::High, "h2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, ["c1", "h1", "h2", "n1", "n2", "l1"]);
        assert!(q.is_empty());
    }

    /// Pops until a `Low` entry queued ahead of `backlog` standing `High`
    /// entries is served, topping the `High`s up after every pop.
    fn pops_until_low_is_served(backlog: usize, period: u32) -> u32 {
        let mut q = AgingQueue::new(period);
        q.push(Priority::Low, u32::MAX);
        let mut next_high = 0u32;
        for _ in 0..backlog {
            q.push(Priority::High, next_high);
            next_high += 1;
        }
        let mut pops = 0u32;
        loop {
            let item = q.pop().expect("queue kept saturated");
            pops += 1;
            if item == u32::MAX {
                return pops;
            }
            q.push(Priority::High, next_high);
            next_high += 1;
        }
    }

    #[test]
    fn aging_promotes_a_starved_low_entry_within_the_bound() {
        const PERIOD: u32 = 3;
        let pops = pops_until_low_is_served(4, PERIOD);
        // Low → Normal → High → Critical takes ≤ 3 rounds of PERIOD pops;
        // at Critical it is served on the next pop.
        let bound = 3 * PERIOD + 1;
        assert!(
            pops <= bound,
            "low-priority entry served after {pops} pops (bound {bound})"
        );
    }

    #[test]
    fn aging_bound_holds_behind_a_full_standing_backlog() {
        // The worst a saturating producer can do under a 64-slot quota:
        // every slot but the Low entry's own holds a High, refilled after
        // every pop.
        const PERIOD: u32 = 4;
        const SLOTS: usize = 64;
        let pops = pops_until_low_is_served(SLOTS - 1, PERIOD);
        let bound = 3 * PERIOD + 1;
        assert!(
            pops <= bound,
            "low-priority entry served after {pops} pops (bound {bound})"
        );
    }

    #[test]
    fn aging_disabled_starves_lower_levels() {
        let mut q = AgingQueue::new(0);
        q.push(Priority::Low, 999);
        for i in 0..20 {
            q.push(Priority::High, i);
        }
        for _ in 0..20 {
            assert_ne!(q.pop(), Some(999), "high work drains first without aging");
        }
        assert_eq!(q.pop(), Some(999));
    }

    #[test]
    fn remove_first_frees_a_slot_and_preserves_order() {
        let mut q = AgingQueue::new(0);
        q.push(Priority::Low, "a");
        q.push(Priority::High, "b");
        q.push(Priority::Low, "c");
        assert_eq!(q.remove_first(|&x| x == "a"), Some("a"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.remove_first(|&x| x == "a"), None, "already removed");
        // Remaining order is untouched.
        q.push(Priority::Low, "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, ["b", "c", "d"]);
    }

    #[test]
    fn promotion_preserves_relative_age() {
        // Two low entries: the older one must be promoted (and served)
        // first.
        let mut q = AgingQueue::new(1);
        q.push(Priority::Low, "old");
        q.push(Priority::Low, "young");
        q.push(Priority::High, "h");
        assert_eq!(q.pop(), Some("h"));
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!((a, b), ("old", "young"));
    }
}
