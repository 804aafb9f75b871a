//! I/O statistics and the paper's charged I/O time model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::IO_COST_PER_FAULT_MS;

/// Counters describing buffer-pool / disk traffic.
///
/// The evaluation (§5.1) measures "I/O time by charging 10ms per page
/// fault"; [`IoStats::charged_io_time_ms`] applies exactly that model. A
/// *fault* is a logical page request the buffer pool could not serve from a
/// cached frame (a physical read).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Logical page requests served from the buffer pool (no disk access).
    pub hits: u64,
    /// Logical page requests that required a physical read (page faults).
    pub faults: u64,
    /// Physical writes (dirty-page write-backs plus direct writes).
    pub writes: u64,
}

impl IoStats {
    /// Total logical page requests.
    #[inline]
    pub fn logical_reads(&self) -> u64 {
        self.hits + self.faults
    }

    /// Fraction of logical reads served from the buffer (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.logical_reads();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The paper's charged I/O time, in milliseconds: `faults × 10 ms`.
    #[inline]
    pub fn charged_io_time_ms(&self) -> f64 {
        self.faults as f64 * IO_COST_PER_FAULT_MS
    }

    /// Charged I/O time in seconds (the unit of the paper's figures).
    #[inline]
    pub fn charged_io_time_s(&self) -> f64 {
        self.charged_io_time_ms() / 1000.0
    }

    /// Element-wise difference (`self - earlier`), for measuring a phase.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            hits: self.hits - earlier.hits,
            faults: self.faults - earlier.faults,
            writes: self.writes - earlier.writes,
        }
    }
}

/// A cheap, cloneable bundle of three atomic [`IoStats`] counters — the
/// storage the store-wide counters and every [`crate::QueryContext`]
/// both count into. Cloning shares the counters (it is an `Arc` underneath).
#[derive(Clone, Debug, Default)]
pub(crate) struct IoSession {
    inner: Arc<SessionCounters>,
}

#[derive(Debug, Default)]
struct SessionCounters {
    hits: AtomicU64,
    faults: AtomicU64,
    writes: AtomicU64,
}

impl IoSession {
    /// The traffic charged so far.
    pub(crate) fn stats(&self) -> IoStats {
        IoStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            faults: self.inner.faults.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
        }
    }

    /// Adds `delta` to the counters.
    pub(crate) fn charge(&self, delta: IoStats) {
        if delta.hits != 0 {
            self.inner.hits.fetch_add(delta.hits, Ordering::Relaxed);
        }
        if delta.faults != 0 {
            self.inner.faults.fetch_add(delta.faults, Ordering::Relaxed);
        }
        if delta.writes != 0 {
            self.inner.writes.fetch_add(delta.writes, Ordering::Relaxed);
        }
    }

    /// Zeroes the counters.
    pub(crate) fn reset(&self) {
        self.inner.hits.store(0, Ordering::Relaxed);
        self.inner.faults.store(0, Ordering::Relaxed);
        self.inner.writes.store(0, Ordering::Relaxed);
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::IoStats;

    serde::derive_struct!(IoStats {
        faults,
        hits,
        writes
    });

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn io_stats_json_roundtrip() {
            let s = IoStats {
                hits: 10,
                faults: 7,
                writes: 3,
            };
            let back: IoStats = serde::json::from_str(&serde::json::to_string(&s)).unwrap();
            assert_eq!(back, s);
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            hits: self.hits + rhs.hits,
            faults: self.faults + rhs.faults,
            writes: self.writes + rhs.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charged_time_follows_ten_ms_rule() {
        let s = IoStats {
            hits: 5,
            faults: 100,
            writes: 0,
        };
        assert_eq!(s.charged_io_time_ms(), 1000.0);
        assert_eq!(s.charged_io_time_s(), 1.0);
    }

    #[test]
    fn hit_ratio_handles_zero_and_mixed() {
        assert_eq!(IoStats::default().hit_ratio(), 0.0);
        let s = IoStats {
            hits: 3,
            faults: 1,
            writes: 0,
        };
        assert_eq!(s.hit_ratio(), 0.75);
        assert_eq!(s.logical_reads(), 4);
    }

    #[test]
    fn since_subtracts_elementwise() {
        let a = IoStats {
            hits: 10,
            faults: 7,
            writes: 2,
        };
        let b = IoStats {
            hits: 4,
            faults: 5,
            writes: 1,
        };
        assert_eq!(
            a.since(&b),
            IoStats {
                hits: 6,
                faults: 2,
                writes: 1
            }
        );
    }

    #[test]
    fn session_charges_accumulate_across_clones() {
        let s = IoSession::default();
        let t = s.clone();
        s.charge(IoStats {
            hits: 2,
            faults: 1,
            writes: 0,
        });
        t.charge(IoStats {
            hits: 0,
            faults: 3,
            writes: 1,
        });
        assert_eq!(
            s.stats(),
            IoStats {
                hits: 2,
                faults: 4,
                writes: 1
            }
        );
        s.reset();
        assert_eq!(t.stats(), IoStats::default());
    }

    #[test]
    fn add_accumulates() {
        let a = IoStats {
            hits: 1,
            faults: 2,
            writes: 3,
        };
        let b = IoStats {
            hits: 10,
            faults: 20,
            writes: 30,
        };
        assert_eq!(
            a + b,
            IoStats {
                hits: 11,
                faults: 22,
                writes: 33
            }
        );
    }
}
