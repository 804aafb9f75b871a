//! The page-read hot path under concurrency. Every access — hit or fault —
//! goes through the one locked path, so under racing readers and writers:
//!
//! 1. the bytes and the exact hit/fault counts are identical to a
//!    sequential run: every access is charged to exactly one counter,
//! 2. no reader ever observes a torn page, even with a concurrent writer
//!    flipping page contents,
//! 3. no reader is ever handed another page's bytes, or a stale generation
//!    of its own, across evictions and dirty write-backs.

use cca_storage::{IoStats, PageStore, QueryContext};

/// Racing readers over a fully resident working set: identical bytes and
/// exact per-session attribution.
#[test]
fn concurrent_hits_match_mutex_path_exactly() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 500;
    let store = PageStore::with_config(32, 16);
    let pages: Vec<_> = (0..16).map(|_| store.alloc_page()).collect();
    for (i, &p) in pages.iter().enumerate() {
        store.write_page(p, &[i as u8; 32], None);
    }
    for &p in &pages {
        store.with_page(p, |_| ());
    }
    store.reset_stats();

    let sessions: Vec<QueryContext> = (0..THREADS).map(|_| QueryContext::new()).collect();
    std::thread::scope(|scope| {
        for (t, session) in sessions.iter().enumerate() {
            let store = &store;
            let pages = &pages;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let idx = (t * 5 + round * 3) % pages.len();
                    store.with_page_ctx(pages[idx], Some(session), |d| {
                        // Byte-exact, never a torn mix.
                        assert_eq!(d, &[idx as u8; 32]);
                    });
                }
            });
        }
    });

    // Exact counts: every access was a hit, charged to exactly one
    // session, and the aggregate matches the mutex path's bookkeeping.
    let total: IoStats = sessions
        .iter()
        .fold(IoStats::default(), |acc, s| acc + s.stats());
    let expect = IoStats {
        hits: (THREADS * ROUNDS) as u64,
        faults: 0,
        writes: 0,
    };
    assert_eq!(total, expect);
    assert_eq!(store.io_stats(), expect);
}

/// A writer flipping whole pages while readers race: the store must never
/// expose a torn page — every observed page is uniformly old or uniformly
/// new — and reads + writes still partition the counters exactly.
#[test]
fn racing_writer_never_exposes_torn_pages() {
    const READERS: usize = 6;
    const READS: usize = 4000;
    const WRITES: usize = 2000;
    let store = PageStore::with_config(256, 8);
    let pages: Vec<_> = (0..4).map(|_| store.alloc_page()).collect();
    for &p in &pages {
        store.write_page(p, &[0u8; 256], None);
    }
    for &p in &pages {
        store.with_page(p, |_| ());
    }
    store.reset_stats();

    let sessions: Vec<QueryContext> = (0..READERS).map(|_| QueryContext::new()).collect();
    let writer_session = QueryContext::new();
    std::thread::scope(|scope| {
        for (t, session) in sessions.iter().enumerate() {
            let store = &store;
            let pages = &pages;
            scope.spawn(move || {
                for round in 0..READS {
                    let idx = (t + round) % pages.len();
                    store.with_page_ctx(pages[idx], Some(session), |d| {
                        let first = d[0];
                        assert!(
                            d.iter().all(|&b| b == first),
                            "torn page observed: starts {first}, mixed bytes"
                        );
                    });
                }
            });
        }
        let store = &store;
        let pages = &pages;
        let writer_session = &writer_session;
        scope.spawn(move || {
            for round in 0..WRITES {
                let idx = round % pages.len();
                let byte = (round % 251) as u8;
                store.write_page(pages[idx], &[byte; 256], Some(writer_session));
            }
        });
    });

    let mut total: IoStats = sessions
        .iter()
        .fold(IoStats::default(), |acc, s| acc + s.stats());
    total = total + writer_session.stats();
    assert_eq!(
        total,
        store.io_stats(),
        "sessions must partition the global counters exactly"
    );
    assert_eq!(
        total.hits + total.faults,
        (READERS * READS) as u64,
        "every read charged exactly once"
    );
}

const IMAGE_SIZE: usize = 128;

/// A self-describing page image: `(page id, generation, filler, checksum of
/// everything before it)`.
fn page_image(page: u32, generation: u32) -> [u8; IMAGE_SIZE] {
    let mut image = [0u8; IMAGE_SIZE];
    image[0..4].copy_from_slice(&page.to_le_bytes());
    image[4..8].copy_from_slice(&generation.to_le_bytes());
    for (i, b) in image[8..IMAGE_SIZE - 8].iter_mut().enumerate() {
        *b = (page as usize * 31 + generation as usize * 7 + i) as u8;
    }
    let sum = checksum(&image[..IMAGE_SIZE - 8]);
    image[IMAGE_SIZE - 8..].copy_from_slice(&sum.to_le_bytes());
    image
}

/// FNV-1a over `bytes`.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Readers and a writer race over a working set four times the buffer, so
/// frames are recycled constantly and dirty pages are written back and
/// re-faulted mid-race. Every read must see a checksum-valid image *of the
/// page it asked for* (never page A's bytes for page B across an eviction),
/// at a generation no older than the last one that reader saw (a lost
/// write-back would resurrect an old one), and sessions must still partition
/// the global counters exactly.
#[test]
fn evictions_under_race_never_serve_the_wrong_page() {
    const PAGES: usize = 16;
    const READERS: usize = 6;
    const READS: usize = 3000;
    const WRITES: usize = 2000;
    // 16 pages cycle through 4 frames.
    let store = PageStore::with_config(IMAGE_SIZE, 4);
    assert_eq!(store.buffer_capacity(), 4);
    let pages: Vec<_> = (0..PAGES).map(|_| store.alloc_page()).collect();
    for &p in &pages {
        store.write_page(p, &page_image(p.0, 0), None);
    }
    store.reset_stats();

    let sessions: Vec<QueryContext> = (0..READERS).map(|_| QueryContext::new()).collect();
    let writer_session = QueryContext::new();
    // All seven threads start together, so the race is a race.
    let start = std::sync::Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for (t, session) in sessions.iter().enumerate() {
            let (store, pages, start) = (&store, &pages, &start);
            scope.spawn(move || {
                start.wait();
                let mut last_generation = [0u32; PAGES];
                for round in 0..READS {
                    let idx = (t * 3 + round * 5) % PAGES;
                    let want = pages[idx];
                    let generation = store.with_page_ctx(want, Some(session), |d| {
                        let (payload, sum) = d.split_at(IMAGE_SIZE - 8);
                        assert_eq!(
                            checksum(payload),
                            u64::from_le_bytes(sum.try_into().unwrap()),
                            "corrupt image for {want}"
                        );
                        let got = u32::from_le_bytes(d[0..4].try_into().unwrap());
                        assert_eq!(got, want.0, "asked for {want}, served page {got}");
                        u32::from_le_bytes(d[4..8].try_into().unwrap())
                    });
                    assert!(
                        generation >= last_generation[idx],
                        "{want} went back from generation {} to {generation}",
                        last_generation[idx]
                    );
                    last_generation[idx] = generation;
                }
            });
        }
        let (store, pages, start) = (&store, &pages, &start);
        let writer_session = &writer_session;
        scope.spawn(move || {
            start.wait();
            for round in 0..WRITES {
                let p = pages[round % PAGES];
                let generation = (round / PAGES + 1) as u32;
                store.write_page(p, &page_image(p.0, generation), Some(writer_session));
            }
        });
    });

    let total = sessions
        .iter()
        .fold(writer_session.stats(), |acc, s| acc + s.stats());
    assert_eq!(
        total,
        store.io_stats(),
        "sessions must partition the global counters exactly"
    );
    assert_eq!(
        total.hits + total.faults,
        (READERS * READS) as u64,
        "every read charged exactly once"
    );
    assert!(
        total.faults > PAGES as u64 && total.writes > 0,
        "the race must actually evict and write back: {total:?}"
    );

    // Every page ends at the writer's last generation, through whatever mix
    // of resident frames and written-back disk pages the race left behind.
    for (i, &p) in pages.iter().enumerate() {
        let last = ((WRITES - 1 - i) / PAGES + 1) as u32;
        store.with_page(p, |d| assert_eq!(d, &page_image(p.0, last)[..]));
    }
}
