//! NDP resource control (§IV-D2).
//!
//! "A dedicated thread pool was introduced to control the number of NDP
//! pages processed concurrently. New NDP page read requests are added to a
//! queue, and wait for their turn. NDP processing does not block regular
//! page reads/writes, and is treated as a best-effort activity."
//!
//! The Page Store submits one job per unit of NDP work (a page, or a
//! scalar aggregate's whole request), never blocking: the queue is
//! bounded, and when it is full [`NdpPool::try_submit_for`] refuses and
//! the unit's pages go back raw — the best-effort fallback that makes NDP
//! benefit "not all-or-nothing". A pluggable [`SkipPolicy`] lets tests
//! and benchmarks inject deterministic skip patterns (every Nth unit, all
//! units, none) to verify the compute node completes the work
//! identically.
//!
//! ## Multi-tenant admission
//!
//! Queued jobs live in **per-tenant FIFO queues** drained round-robin by
//! the workers: within a tenant, order is preserved; across tenants, a
//! burst from one tenant cannot push another tenant's single job to the
//! back of a long line. An optional per-tenant **quota** bounds how many
//! jobs one tenant may have queued at once
//! ([`NdpPool::set_tenant_quota`]; 0 = unlimited). A tenant at its quota
//! is refused ([`Admission::QuotaExceeded`]) and the page ships raw — the
//! same degrade-to-compute fallback as queue pressure, scoped to the
//! offender. The global queue bound is unchanged and reported by
//! [`NdpPool::overloaded`], which the store uses for its batch-level
//! shed-to-compute decision.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use taurus_common::{TenantId, DEFAULT_TENANT};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Deterministic skip injection for tests/benchmarks.
#[derive(Clone)]
pub enum SkipPolicy {
    /// Normal operation: skip only on real queue pressure.
    None,
    /// Skip NDP for every unit (always return raw).
    All,
    /// Skip every k-th unit (k >= 1), counting from the store's start.
    EveryNth(u64),
}

impl SkipPolicy {
    /// Should the next unit of NDP work ship raw? `counter` counts the
    /// units the store has asked about.
    pub fn should_skip(&self, counter: &AtomicU64) -> bool {
        match self {
            SkipPolicy::None => false,
            SkipPolicy::All => true,
            SkipPolicy::EveryNth(k) => {
                let n = counter.fetch_add(1, Ordering::Relaxed);
                n.is_multiple_of(*k)
            }
        }
    }
}

/// Outcome of a non-blocking admission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    Admitted,
    /// The global queue is full (store saturated) — the caller serves the
    /// raw page; the whole batch may shed via [`NdpPool::overloaded`].
    QueueFull,
    /// This tenant is at its admission quota; other tenants' pushdown is
    /// unaffected.
    QuotaExceeded,
}

struct PoolState {
    /// Per-tenant FIFO queues; entries are removed when drained so the
    /// map only holds tenants with work queued.
    queues: BTreeMap<TenantId, VecDeque<Job>>,
    /// Total queued jobs across tenants (running jobs not included —
    /// exactly the old bounded-channel occupancy).
    queued: usize,
    /// Last tenant a worker served; the next pop scans strictly after it
    /// (wrapping), which is what makes draining fair round-robin.
    rr_cursor: TenantId,
    /// Outstanding [`NdpPool::hold_workers`] guards: while there are any,
    /// workers take no job (until shutdown).
    holds: usize,
    shutdown: bool,
}

impl PoolState {
    fn pop_next(&mut self) -> Option<Job> {
        let next = self
            .queues
            .range((Excluded(self.rr_cursor), Unbounded))
            .next()
            .map(|(id, _)| *id)
            .or_else(|| self.queues.keys().next().copied())?;
        // lint:allow(panic): `next` was just read from this map's keys
        let q = self.queues.get_mut(&next).expect("queue exists");
        // lint:allow(panic): emptied queues are removed below, so `q` has a job
        let job = q.pop_front().expect("non-empty queue");
        if q.is_empty() {
            self.queues.remove(&next);
        }
        self.rr_cursor = next;
        self.queued -= 1;
        Some(job)
    }
}

/// State + condvars shared with the worker threads. Workers hold ONLY
/// this inner `Arc` — never the pool itself — so dropping the last
/// outside `Arc<NdpPool>` runs the pool's `Drop` and joins them.
struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for queued jobs.
    jobs_cv: Condvar,
}

impl Shared {
    /// Lock the pool state. A poisoned mutex means a worker panicked
    /// while holding the lock; the pool has no recovery path from that.
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // lint:allow(panic): poisoned pool mutex is unrecoverable
        self.state.lock().unwrap()
    }

    fn worker_loop(&self) {
        let mut st = self.lock();
        loop {
            let held = st.holds > 0 && !st.shutdown;
            if let Some(job) = (!held).then(|| st.pop_next()).flatten() {
                drop(st);
                // A panicking job costs that job, not this worker: the
                // pool keeps its strength. (The job runs outside the
                // lock, and whoever waits for it sees its channel close.)
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                st = self.lock();
                continue;
            }
            if st.shutdown {
                return;
            }
            // lint:allow(panic): poisoned pool mutex is unrecoverable
            st = self.jobs_cv.wait(st).unwrap();
        }
    }
}

/// The dedicated NDP worker pool: bounded request queue, per-tenant fair
/// scheduling (see the module docs).
pub struct NdpPool {
    shared: Arc<Shared>,
    cap: usize,
    /// Per-tenant queued-job quota; 0 = unlimited.
    tenant_quota: AtomicUsize,
    workers: Vec<JoinHandle<()>>,
    /// Jobs rejected because the queue was full.
    pub rejected: AtomicU64,
    /// Jobs rejected at a tenant's admission quota.
    pub quota_rejected: AtomicU64,
    /// Jobs accepted.
    pub accepted: AtomicU64,
}

impl NdpPool {
    pub fn new(threads: usize, queue_cap: usize) -> Arc<NdpPool> {
        assert!(threads > 0);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queues: BTreeMap::new(),
                queued: 0,
                rr_cursor: 0,
                holds: 0,
                shutdown: false,
            }),
            jobs_cv: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let sh = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ndp-worker-{i}"))
                    .spawn(move || sh.worker_loop())
                    // lint:allow(panic): at-startup spawn fails only on OS resource exhaustion
                    .expect("spawn ndp worker"),
            );
        }
        Arc::new(NdpPool {
            shared,
            cap: queue_cap.max(1),
            tenant_quota: AtomicUsize::new(0),
            workers,
            rejected: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
        })
    }

    /// The per-tenant queued-job quota (0 = unlimited).
    pub fn tenant_quota(&self) -> usize {
        self.tenant_quota.load(Ordering::Relaxed)
    }

    pub fn set_tenant_quota(&self, quota: usize) {
        self.tenant_quota.store(quota, Ordering::Relaxed);
    }

    /// Test hook: hold the workers. Until the guard drops, they take no
    /// queued job, so submissions queue up and admission (quota, queue
    /// bound) meets a queue that is really there, whatever the timing.
    #[doc(hidden)]
    pub fn hold_workers(&self) -> WorkerHold {
        self.shared.lock().holds += 1;
        WorkerHold {
            shared: self.shared.clone(),
        }
    }

    /// Is the queue saturated? The store-level shed signal: when true, a
    /// whole incoming batch degrades to raw pages up front instead of
    /// racing N per-page submissions against a full queue.
    pub fn overloaded(&self) -> bool {
        self.shared.lock().queued >= self.cap
    }

    /// Submit without waiting, attributed to a tenant. Anything but
    /// [`Admission::Admitted`] means the caller must fall back to serving
    /// the raw page (best-effort semantics; NDP work never blocks).
    pub fn try_submit_for(
        &self,
        tenant: TenantId,
        job: impl FnOnce() + Send + 'static,
    ) -> Admission {
        let mut st = self.shared.lock();
        if st.shutdown || st.queued >= self.cap {
            drop(st);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Admission::QueueFull;
        }
        let quota = self.tenant_quota.load(Ordering::Relaxed);
        if quota > 0 && st.queues.get(&tenant).map_or(0, VecDeque::len) >= quota {
            drop(st);
            self.quota_rejected.fetch_add(1, Ordering::Relaxed);
            return Admission::QuotaExceeded;
        }
        st.queues
            .entry(tenant)
            .or_default()
            .push_back(Box::new(job));
        st.queued += 1;
        drop(st);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.jobs_cv.notify_one();
        Admission::Admitted
    }

    /// Submit without waiting for the anonymous tenant. `false` means the
    /// queue was full.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        self.try_submit_for(DEFAULT_TENANT, job) == Admission::Admitted
    }
}

/// The guard of [`NdpPool::hold_workers`]: dropping it lets the workers
/// go on.
#[doc(hidden)]
pub struct WorkerHold {
    shared: Arc<Shared>,
}

impl Drop for WorkerHold {
    fn drop(&mut self) {
        self.shared.lock().holds -= 1;
        self.shared.jobs_cv.notify_all();
    }
}

impl Drop for NdpPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.jobs_cv.notify_all();
        // Workers drain every queued job before exiting (pop-then-check),
        // preserving the old channel-disconnect semantics.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn pool_runs_jobs() {
        let pool = NdpPool::new(2, 8);
        let done = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = bounded(16);
        for _ in 0..8 {
            let d = done.clone();
            let tx = tx.clone();
            assert!(pool.try_submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert_eq!(pool.accepted.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn full_queue_rejects_best_effort() {
        // One slow worker + tiny queue: overflow must be rejected, not block.
        let pool = NdpPool::new(1, 1);
        let (gate_tx, gate_rx) = bounded::<()>(0);
        // Occupy the worker.
        assert!(pool.try_submit(move || {
            let _ = gate_rx.recv();
        }));
        // Fill the queue (capacity 1) — this one is accepted.
        std::thread::sleep(Duration::from_millis(50));
        assert!(pool.try_submit(|| {}));
        // Queue now full: must reject without blocking.
        let mut saw_reject = false;
        for _ in 0..10 {
            if !pool.try_submit(|| {}) {
                saw_reject = true;
                break;
            }
        }
        assert!(saw_reject, "expected queue-full rejection");
        assert!(pool.rejected.load(Ordering::Relaxed) >= 1);
        assert!(pool.overloaded(), "full queue is the overload signal");
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn a_panicking_job_does_not_cost_the_pool_a_worker() {
        let pool = NdpPool::new(1, 8);
        assert!(pool.try_submit(|| panic!("job failure (expected in this test)")));
        // The only worker must still be there to run this.
        let (tx, rx) = bounded(1);
        assert!(pool.try_submit(move || tx.send(()).unwrap()));
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the worker survived the panicking job");
    }

    #[test]
    fn held_workers_leave_jobs_queued_until_released() {
        let pool = NdpPool::new(2, 8);
        let hold = pool.hold_workers();
        pool.set_tenant_quota(1);
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        assert_eq!(
            pool.try_submit_for(1, move || tx2.send(()).unwrap()),
            Admission::Admitted
        );
        // The first job is still queued, so the quota refuses the second.
        assert_eq!(pool.try_submit_for(1, || {}), Admission::QuotaExceeded);
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        drop(hold);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("released workers run the queued job");
        // A pool dropped while held still drains and joins.
        let held = NdpPool::new(1, 4);
        let _hold = held.hold_workers();
        assert!(held.try_submit(move || tx.send(()).unwrap()));
        drop(held);
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn skip_policy_every_nth() {
        let c = AtomicU64::new(0);
        let p = SkipPolicy::EveryNth(3);
        let skips: Vec<bool> = (0..9).map(|_| p.should_skip(&c)).collect();
        assert_eq!(
            skips,
            vec![true, false, false, true, false, false, true, false, false]
        );
        assert!(SkipPolicy::All.should_skip(&c));
        assert!(!SkipPolicy::None.should_skip(&c));
    }

    #[test]
    fn drop_joins_workers() {
        let pool = NdpPool::new(4, 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let d = done.clone();
            pool.try_submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // must not hang
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn tenant_quota_bounds_one_tenant_without_touching_others() {
        // One worker held busy so queued jobs stay queued.
        let pool = NdpPool::new(1, 16);
        let (gate_tx, gate_rx) = bounded::<()>(0);
        assert!(pool.try_submit(move || {
            let _ = gate_rx.recv();
        }));
        std::thread::sleep(Duration::from_millis(50));
        pool.set_tenant_quota(2);
        // Tenant 1 may queue 2 jobs, the 3rd hits its quota…
        assert_eq!(pool.try_submit_for(1, || {}), Admission::Admitted);
        assert_eq!(pool.try_submit_for(1, || {}), Admission::Admitted);
        assert_eq!(pool.try_submit_for(1, || {}), Admission::QuotaExceeded);
        // …while tenant 2 is unaffected by tenant 1's rejection.
        assert_eq!(pool.try_submit_for(2, || {}), Admission::Admitted);
        assert_eq!(pool.quota_rejected.load(Ordering::Relaxed), 1);
        // Queue-full still wins over quota accounting (global bound).
        let small = NdpPool::new(1, 1);
        let (g2_tx, g2_rx) = bounded::<()>(0);
        assert!(small.try_submit(move || {
            let _ = g2_rx.recv();
        }));
        std::thread::sleep(Duration::from_millis(50));
        small.set_tenant_quota(10);
        assert_eq!(small.try_submit_for(3, || {}), Admission::Admitted);
        assert_eq!(small.try_submit_for(3, || {}), Admission::QueueFull);
        gate_tx.send(()).unwrap();
        g2_tx.send(()).unwrap();
    }

    #[test]
    fn queued_tenants_drain_round_robin() {
        // One worker held at a gate while two tenants queue: tenant A
        // floods 4 jobs first, then tenant B adds 2. Fair draining must
        // interleave B between A's jobs instead of appending B at the end.
        let pool = NdpPool::new(1, 16);
        let (gate_tx, gate_rx) = bounded::<()>(0);
        assert!(pool.try_submit(move || {
            let _ = gate_rx.recv();
        }));
        std::thread::sleep(Duration::from_millis(50));
        let order = Arc::new(Mutex::new(Vec::new()));
        let push = |who: &'static str, order: &Arc<Mutex<Vec<&'static str>>>| {
            let order = order.clone();
            move || order.lock().unwrap().push(who)
        };
        for _ in 0..4 {
            assert_eq!(
                pool.try_submit_for(1, push("A", &order)),
                Admission::Admitted
            );
        }
        for _ in 0..2 {
            assert_eq!(
                pool.try_submit_for(2, push("B", &order)),
                Admission::Admitted
            );
        }
        gate_tx.send(()).unwrap();
        // Wait for the drain.
        for _ in 0..200 {
            if order.lock().unwrap().len() == 6 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let got = order.lock().unwrap().clone();
        assert_eq!(got.len(), 6, "all jobs ran: {got:?}");
        // B's first job must run before A's flood fully drains.
        let first_b = got.iter().position(|w| *w == "B").unwrap();
        assert!(
            first_b < 2,
            "tenant B starved behind tenant A's backlog: {got:?}"
        );
    }
}
