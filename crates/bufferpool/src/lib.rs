//! The compute-node buffer pool (§IV-C3).
//!
//! Regular pages live in a hash map + LRU and are shared by all scans.
//! *NDP pages* are different: they are custom-made for one table access, so
//! although they are allocated from the pool's capacity (the free list),
//! they are **never** inserted into the hash map or LRU — invisible to
//! every other query, exactly as the paper requires. Their number is
//! bounded per scan by `innodb_ndp_max_pages_look_ahead` (enforced by the
//! scan, which sizes its batches to that quota) and globally by the pool
//! capacity; an [`NdpFrameGuard`] returns its frame on drop ("after an NDP
//! scan finishes processing an NDP page in the batch, the page is
//! immediately released back to buffer pool free list").
//!
//! Pages are immutable [`Arc`] snapshots: mutation goes through
//! [`BufferPool::update`], which clones-on-write. Readers holding an `Arc`
//! are unaffected by eviction, which stands in for pin counts.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use taurus_common::{Error, Metrics, PageRef, Result, SpaceId};
use taurus_page::Page;

struct Entry {
    page: Arc<Page>,
    /// Stamp of this entry's newest position in the lazy-LRU queue.
    stamp: u64,
}

struct Inner {
    map: HashMap<PageRef, Entry>,
    /// Lazy LRU: (stamp, page). Entries whose stamp no longer matches the
    /// map are stale and skipped at eviction time.
    lru: VecDeque<(u64, PageRef)>,
    next_stamp: u64,
    /// Frames currently lent out to NDP scans.
    ndp_allocated: usize,
}

/// The buffer pool.
pub struct BufferPool {
    capacity: usize,
    inner: Mutex<Inner>,
    metrics: Arc<Metrics>,
    /// Signaled whenever an NDP frame is released, so a scan waiting in
    /// [`BufferPool::alloc_ndp_frame_timeout`] wakes immediately (std
    /// pair — the vendored `parking_lot` has no Condvar).
    frame_freed: (std::sync::Mutex<()>, std::sync::Condvar),
}

impl BufferPool {
    pub fn new(capacity: usize, metrics: Arc<Metrics>) -> Arc<BufferPool> {
        assert!(capacity > 0);
        Arc::new(BufferPool {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: VecDeque::new(),
                next_stamp: 0,
                ndp_allocated: 0,
            }),
            metrics,
            frame_freed: (std::sync::Mutex::new(()), std::sync::Condvar::new()),
        })
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of regular pages cached.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn ndp_frames_in_use(&self) -> usize {
        self.inner.lock().ndp_allocated
    }

    /// Look up a page; refreshes LRU position on hit.
    pub fn get(&self, pref: PageRef) -> Option<Arc<Page>> {
        let mut g = self.inner.lock();
        let stamp = g.next_stamp;
        match g.map.get_mut(&pref) {
            Some(e) => {
                e.stamp = stamp;
                let page = e.page.clone();
                g.next_stamp += 1;
                g.lru.push_back((stamp, pref));
                drop(g);
                self.metrics.add(|m| &m.bp_hits, 1);
                Some(page)
            }
            None => {
                drop(g);
                self.metrics.add(|m| &m.bp_misses, 1);
                None
            }
        }
    }

    /// Peek without touching the LRU or metrics (used by the optimizer's
    /// cache-awareness estimate, §VII-C footnote 4).
    pub fn contains(&self, pref: PageRef) -> bool {
        self.inner.lock().map.contains_key(&pref)
    }

    /// Insert (or replace) a regular page, evicting LRU pages if needed.
    /// For pages whose newest state the caller holds: a writer's new page
    /// image, a replica tailer's applied page.
    pub fn insert(&self, pref: PageRef, page: Arc<Page>) {
        self.put(pref, page, true);
    }

    /// Insert a page fetched from storage unless a copy is resident, and
    /// say whether it went in. A resident copy is never replaced by a
    /// fetched one: writes are mirrored onto it, so it is at least as new
    /// as anything a reader was sent.
    pub fn insert_if_absent(&self, pref: PageRef, page: Arc<Page>) -> bool {
        self.put(pref, page, false)
    }

    fn put(&self, pref: PageRef, page: Arc<Page>, replace: bool) -> bool {
        let mut g = self.inner.lock();
        if !replace && g.map.contains_key(&pref) {
            return false;
        }
        let stamp = g.next_stamp;
        g.next_stamp += 1;
        let budget = self.capacity.saturating_sub(g.ndp_allocated).max(1);
        g.map.insert(pref, Entry { page, stamp });
        g.lru.push_back((stamp, pref));
        let evicted = Self::evict_to(&mut g, budget);
        drop(g);
        if evicted > 0 {
            self.metrics.add(|m| &m.bp_evictions, evicted);
        }
        true
    }

    /// Clone-on-write mutation. Returns false if the page is not cached.
    pub fn update(&self, pref: PageRef, f: impl FnOnce(&mut Page)) -> bool {
        let mut g = self.inner.lock();
        match g.map.get_mut(&pref) {
            Some(e) => {
                f(Arc::make_mut(&mut e.page));
                true
            }
            None => false,
        }
    }

    /// Drop a page from the cache (e.g. after a structural split during
    /// which stale copies must not be served).
    pub fn remove(&self, pref: PageRef) {
        self.inner.lock().map.remove(&pref);
    }

    /// Evict map entries (stale-stamp-aware) until `map.len() <= budget`.
    /// Returns the number of evictions.
    fn evict_to(g: &mut Inner, budget: usize) -> u64 {
        let mut evicted = 0;
        while g.map.len() > budget {
            match g.lru.pop_front() {
                Some((stamp, pref)) => {
                    let is_current = g.map.get(&pref).map(|e| e.stamp == stamp).unwrap_or(false);
                    if is_current {
                        g.map.remove(&pref);
                        evicted += 1;
                    }
                    // Stale entries are skipped silently.
                }
                None => break, // inconsistent only if map empty; defensive
            }
        }
        evicted
    }

    /// Allocate an NDP frame for `page`. The frame counts against pool
    /// capacity (evicting regular pages if the pool is full) but the page
    /// is *not* registered in the hash map/LRU — invisible to other scans.
    pub fn alloc_ndp_frame(self: &Arc<Self>, page: Arc<Page>) -> Result<NdpFrameGuard> {
        let mut g = self.inner.lock();
        if g.ndp_allocated >= self.capacity {
            return Err(Error::InvalidState(
                "buffer pool exhausted by NDP frames".into(),
            ));
        }
        g.ndp_allocated += 1;
        let budget = self.capacity - g.ndp_allocated;
        let evicted = Self::evict_to(&mut g, budget.max(1).min(self.capacity));
        drop(g);
        if evicted > 0 {
            self.metrics.add(|m| &m.bp_evictions, evicted);
        }
        self.metrics.add(|m| &m.bp_ndp_frames, 1);
        Ok(NdpFrameGuard {
            pool: Arc::clone(self),
            page,
        })
    }

    /// Best-effort variant of [`BufferPool::alloc_ndp_frame`]: `None`
    /// instead of an error when the NDP area is exhausted. Prefetching
    /// scans use this while *staging* look-ahead pages — under cross-scan
    /// contention they degrade to deferred (consume-time) allocation
    /// rather than failing a query that only needs one frame at a time.
    pub fn try_alloc_ndp_frame(self: &Arc<Self>, page: Arc<Page>) -> Option<NdpFrameGuard> {
        self.alloc_ndp_frame(page).ok()
    }

    /// Allocate an NDP frame, waiting up to `timeout` for one to be
    /// released if the NDP area is momentarily exhausted by concurrent
    /// scans. Wakes on every [`NdpFrameGuard`] drop (no polling); on
    /// timeout the pool-exhausted error surfaces. Callers must hold
    /// **zero** NDP frames while waiting (the prefetching scan sheds its
    /// staged accounting first) — that is what makes the wait
    /// deadlock-free: every held frame belongs to a scan that is making
    /// progress and will release it.
    pub fn alloc_ndp_frame_timeout(
        self: &Arc<Self>,
        page: Arc<Page>,
        timeout: std::time::Duration,
    ) -> Result<NdpFrameGuard> {
        let deadline = std::time::Instant::now() + timeout;
        let (lock, cvar) = &self.frame_freed;
        // Holding `frame_freed` across the failed attempt and the wait
        // (releasers take it before notifying) prevents lost wakeups.
        let mut signal = lock.lock().expect("frame_freed poisoned");
        loop {
            match self.alloc_ndp_frame(page.clone()) {
                Ok(f) => return Ok(f),
                Err(e) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return Err(e);
                    }
                    signal = cvar
                        .wait_timeout(signal, deadline - now)
                        .expect("frame_freed poisoned")
                        .0;
                }
            }
        }
    }

    /// Pages cached for a given space — the counter behind the paper's Q4
    /// buffer-pool experiment (§VII-D: lineitem pages present after Q1–Q3).
    pub fn count_pages_in_space(&self, space: SpaceId) -> usize {
        self.inner
            .lock()
            .map
            .keys()
            .filter(|p| p.space == space)
            .count()
    }

    /// Drop everything (used between benchmark runs for cold-cache starts).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.map.clear();
        g.lru.clear();
    }
}

/// An NDP page occupying one pool frame, released on drop.
pub struct NdpFrameGuard {
    pool: Arc<BufferPool>,
    page: Arc<Page>,
}

impl NdpFrameGuard {
    pub fn page(&self) -> &Arc<Page> {
        &self.page
    }
}

impl Drop for NdpFrameGuard {
    fn drop(&mut self) {
        self.pool.inner.lock().ndp_allocated -= 1;
        // Take the signal lock before notifying so a waiter that just
        // failed its attempt cannot miss this release (lost wakeup).
        drop(
            self.pool
                .frame_freed
                .0
                .lock()
                .expect("frame_freed poisoned"),
        );
        self.pool.frame_freed.1.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(space: u32, no: u32) -> Arc<Page> {
        Arc::new(Page::new_index(1024, SpaceId(space), no, 1, 0))
    }

    fn pref(space: u32, no: u32) -> PageRef {
        PageRef::new(SpaceId(space), no)
    }

    fn pool(cap: usize) -> Arc<BufferPool> {
        BufferPool::new(cap, Metrics::shared())
    }

    #[test]
    fn hit_miss_and_metrics() {
        let m = Metrics::shared();
        let p = BufferPool::new(4, m.clone());
        assert!(p.get(pref(1, 0)).is_none());
        p.insert(pref(1, 0), page(1, 0));
        assert!(p.get(pref(1, 0)).is_some());
        let s = m.snapshot();
        assert_eq!((s.bp_hits, s.bp_misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = pool(3);
        for i in 0..3 {
            p.insert(pref(1, i), page(1, i));
        }
        // Touch 0 so 1 becomes the LRU victim.
        p.get(pref(1, 0));
        p.insert(pref(1, 3), page(1, 3));
        assert!(p.contains(pref(1, 0)));
        assert!(!p.contains(pref(1, 1)), "page 1 should have been evicted");
        assert!(p.contains(pref(1, 2)));
        assert!(p.contains(pref(1, 3)));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn a_fetched_page_never_replaces_a_resident_one() {
        let p = pool(2);
        assert!(p.insert_if_absent(pref(1, 0), page(1, 0)));
        assert!(p.update(pref(1, 0), |pg| pg.set_lsn(42)));
        assert!(!p.insert_if_absent(pref(1, 0), page(1, 0)));
        assert_eq!(p.get(pref(1, 0)).unwrap().lsn(), 42);
        // `insert` is for the newest image and does replace.
        p.insert(pref(1, 0), page(1, 0));
        assert_eq!(p.get(pref(1, 0)).unwrap().lsn(), 0);
    }

    #[test]
    fn update_is_copy_on_write() {
        let p = pool(2);
        p.insert(pref(1, 0), page(1, 0));
        let before = p.get(pref(1, 0)).unwrap();
        assert!(p.update(pref(1, 0), |pg| pg.set_lsn(42)));
        let after = p.get(pref(1, 0)).unwrap();
        assert_eq!(before.lsn(), 0, "reader's snapshot unaffected");
        assert_eq!(after.lsn(), 42);
        assert!(!p.update(pref(9, 9), |_| {}));
    }

    #[test]
    fn ndp_frames_invisible_and_capacity_counted() {
        let p = pool(4);
        for i in 0..4 {
            p.insert(pref(1, i), page(1, i));
        }
        let g1 = p.alloc_ndp_frame(page(2, 100)).unwrap();
        let g2 = p.alloc_ndp_frame(page(2, 101)).unwrap();
        // NDP pages are not findable.
        assert!(!p.contains(pref(2, 100)));
        assert_eq!(p.ndp_frames_in_use(), 2);
        // Capacity pressure evicted regular pages down to 4-2=2.
        assert_eq!(p.len(), 2);
        drop(g1);
        drop(g2);
        assert_eq!(p.ndp_frames_in_use(), 0);
    }

    #[test]
    fn ndp_allocation_fails_only_when_pool_exhausted() {
        let p = pool(2);
        let _g1 = p.alloc_ndp_frame(page(2, 0)).unwrap();
        let _g2 = p.alloc_ndp_frame(page(2, 1)).unwrap();
        assert!(p.alloc_ndp_frame(page(2, 2)).is_err());
        drop(_g1);
        assert!(p.alloc_ndp_frame(page(2, 3)).is_ok());
    }

    #[test]
    fn timeout_alloc_waits_for_a_release() {
        let p = pool(2);
        let g1 = p.alloc_ndp_frame(page(2, 0)).unwrap();
        let _g2 = p.alloc_ndp_frame(page(2, 1)).unwrap();
        // Full pool + nobody releasing: the timeout path errors.
        assert!(p
            .alloc_ndp_frame_timeout(page(2, 2), std::time::Duration::from_millis(20))
            .is_err());
        // A concurrent release wakes the waiter well before the deadline.
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(g1);
        });
        let got = p.alloc_ndp_frame_timeout(page(2, 3), std::time::Duration::from_secs(5));
        t.join().unwrap();
        assert!(got.is_ok());
        drop(got);
        assert_eq!(p2.ndp_frames_in_use(), 1);
    }

    #[test]
    fn count_pages_per_space_for_q4_experiment() {
        let p = pool(10);
        for i in 0..4 {
            p.insert(pref(7, i), page(7, i));
        }
        p.insert(pref(8, 0), page(8, 0));
        assert_eq!(p.count_pages_in_space(SpaceId(7)), 4);
        assert_eq!(p.count_pages_in_space(SpaceId(8)), 1);
        p.clear();
        assert_eq!(p.count_pages_in_space(SpaceId(7)), 0);
    }

    #[test]
    fn stale_lru_entries_are_skipped() {
        let p = pool(2);
        p.insert(pref(1, 0), page(1, 0));
        // Touch the same page many times: creates stale queue entries.
        for _ in 0..50 {
            p.get(pref(1, 0));
        }
        p.insert(pref(1, 1), page(1, 1));
        // Re-touch 0 so 1 is now the least recently used.
        p.get(pref(1, 0));
        p.insert(pref(1, 2), page(1, 2));
        // The 50 stale stamps for page 0 must be skipped, evicting page 1.
        assert!(p.contains(pref(1, 0)));
        assert!(!p.contains(pref(1, 1)));
        assert_eq!(p.len(), 2);
    }
}
