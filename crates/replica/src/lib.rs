//! Read-replica compute nodes (§II).
//!
//! Log Stores are dual-purpose in Taurus: they durably ack the master's
//! redo *and* "serve log records to read replicas". A [`Replica`] is a
//! full compute node attached to an existing cluster's storage services —
//! **no page data is copied**: it reads the same Page Stores the master
//! writes through, at a *replica-consistent LSN*, and learns everything
//! else (catalog, tree shapes, undo images, transaction boundaries) by
//! tailing the shared log.
//!
//! ## The tailer
//!
//! A background thread polls [`LogStore::read_from_lsn`] from its apply
//! cursor, failing over across the three Log Stores, decodes each redo
//! batch and applies records in strict LSN order:
//!
//! * **page redo** — applied to pages cached in the replica's own buffer
//!   pool (stamping the record LSN), so the cache tracks the newest
//!   applied state; uncached pages are skipped (a later pinned read
//!   fetches the right version from a Page Store chain).
//! * **`SysUndo`** — pushed into the replica's own undo log. The master
//!   writes these *ahead* of the tree redo they protect, so any write the
//!   replica has applied already has its undo — that is what makes
//!   replica-side MVCC reconstruction exact.
//! * **`SysCatalog` / `SysShape`** — catalog and tree-shape changes,
//!   installed immediately (their pages are already covered by the pin).
//! * **`SysTrxEnd` / `SysLoaded`** — *transaction-consistent boundaries*:
//!   the visible LSN advances **only here**, together with the boundary
//!   read view (committed writers visible; in-flight writers active ⇒
//!   invisible; aborted writers are fully compensated before their end
//!   marker, so they end like any other transaction).
//!
//! The tailer keeps two cursors on the engine's `ReplicaState`: the
//! **applied** cursor (the read pin — advanced per *log batch*, so one
//! tree operation's multi-record redo is atomic under the pin; a
//! half-applied split or delete-mark+trx-stamp pair is unobservable)
//! and the **visible** LSN (advanced per boundary, together with the
//! view).
//!
//! ## Why queries see a consistent snapshot
//!
//! A replica session pins every page read at the applied cursor `P`
//! (buffer pool pages serve only when their last-applied LSN ≤ `P`;
//! everything else is a versioned Page Store read — see
//! `SpaceStore::cached_for_read`), so the *structure* it walks is
//! consistent at `P`. Record-level visibility uses the boundary read
//! view at `V ≤ P`: writers without a replicated commit ≤ `V` are
//! invisible, and their on-page effects — committed-after-`V` or still
//! in flight — are reconstructed around via the replicated undo, which
//! is always present for anything applied (write-ahead) — exactly the
//! master's ambiguity handling, including inside NDP pages (the
//! descriptor's low watermark is the boundary view's). Together: every
//! result equals what a master snapshot at boundary `V` would return,
//! even while the master keeps writing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use taurus_bufferpool::BufferPool;
use taurus_common::{panic_message, Error, Lsn, Metrics, PageRef, Result, TrxId};
use taurus_ndp::replication::{CatalogPayload, LoadedPayload};
use taurus_ndp::TaurusDb;
use taurus_page::Page;
use taurus_pagestore::{RedoBody, RedoRecord};
use taurus_sal::Sal;

/// A read replica: the replica engine plus its log tailer.
///
/// Create with [`Replica::attach`], query through `Session::new(r.db())`
/// — SQL text and prebuilt plans work unchanged, NDP scans included.
/// Dropping (or [`Replica::detach`]) stops the tailer and marks the
/// engine detached; the session's execution entries then refuse until
/// re-attachment.
pub struct Replica {
    db: Arc<TaurusDb>,
    stop: Arc<AtomicBool>,
    tailer: Mutex<Option<JoinHandle<()>>>,
    last_error: Arc<Mutex<Option<String>>>,
}

impl Replica {
    /// Attach a replica to a master's cluster (shares its Page Stores,
    /// Log Stores and placements through a read-only SAL attachment).
    pub fn attach(master: &Arc<TaurusDb>) -> Arc<Replica> {
        Self::attach_to_sal(master.sal())
    }

    /// Attach directly to storage services (any SAL of the cluster).
    pub fn attach_to_sal(sal: &Arc<Sal>) -> Arc<Replica> {
        let db = TaurusDb::attach_replica(sal);
        let stop = Arc::new(AtomicBool::new(false));
        let last_error = Arc::new(Mutex::new(None));
        let mut tailer = Tailer::new(db.clone());
        let handle = {
            let stop = stop.clone();
            let last_error = last_error.clone();
            std::thread::Builder::new()
                .name("taurus-replica-tailer".into())
                .spawn(move || {
                    // A dead tailer must never leave a replica silently
                    // serving ever-staler data: panics (corrupt page
                    // application) detach just like apply errors do.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        tailer.run(&stop)
                    }))
                    .unwrap_or_else(|panic| {
                        Err(Error::Internal(format!(
                            "tailer panicked: {}",
                            panic_message(&*panic)
                        )))
                    });
                    if let Err(e) = result {
                        *last_error.lock() = Some(e.to_string());
                        if let Some(rs) = tailer.db.replica_state() {
                            rs.detach();
                        }
                    }
                })
                .expect("spawn replica tailer")
        };
        Arc::new(Replica {
            db,
            stop,
            tailer: Mutex::new(Some(handle)),
            last_error,
        })
    }

    /// The replica engine: pass to `Session::new` like any database
    /// handle.
    pub fn db(&self) -> &Arc<TaurusDb> {
        &self.db
    }

    /// Newest transaction-consistent LSN this replica serves.
    pub fn visible_lsn(&self) -> Lsn {
        self.db.visible_lsn()
    }

    /// Master LSN minus visible LSN.
    pub fn lag(&self) -> u64 {
        self.db.replica_lag()
    }

    /// The tailer's terminal error, if it died (corrupt log etc.).
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Block until the tailer's applied cursor reaches `lsn` — at which
    /// point any boundary at or below it has been published too (the
    /// cursor advances only after a record, boundary publication
    /// included, is fully applied). Waiting on the applied cursor rather
    /// than the visible LSN means a log whose tail is not a boundary
    /// record (e.g. bare DDL) still satisfies the wait. Errors on
    /// timeout or a dead tailer.
    pub fn wait_for_lsn(&self, lsn: Lsn, timeout: Duration) -> Result<()> {
        let rs = self
            .db
            .replica_state()
            .expect("Replica wraps a replica engine")
            .clone();
        let t0 = Instant::now();
        loop {
            // Seqlock read: the cursor check only counts when no boundary
            // publication was in flight around it — otherwise the pin may
            // cover a boundary whose view has not been swapped in yet.
            let e1 = rs.publish_epoch();
            if e1.is_multiple_of(2) && rs.read_pin() >= lsn && rs.publish_epoch() == e1 {
                return Ok(());
            }
            if let Some(e) = self.last_error() {
                return Err(Error::InvalidState(format!("replica tailer died: {e}")));
            }
            if t0.elapsed() > timeout {
                return Err(Error::InvalidState(format!(
                    "replica did not reach lsn {lsn} within {timeout:?} (applied {}, visible {})",
                    rs.read_pin(),
                    self.db.visible_lsn()
                )));
            }
            std::thread::yield_now();
        }
    }

    /// Block until the replica has caught up with the master LSN *as of
    /// this call* (the caller quiesced writes at a commit boundary).
    pub fn wait_caught_up(&self, timeout: Duration) -> Result<()> {
        self.wait_for_lsn(self.db.sal().current_lsn(), timeout)
    }

    /// Stop the tailer and mark the engine detached: subsequent queries
    /// fail with the detached error until a new replica is attached.
    pub fn detach(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.tailer.lock().take() {
            let _ = h.join();
        }
        if let Some(rs) = self.db.replica_state() {
            rs.detach();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.detach();
    }
}

/// Upper bound on one uninterruptible tailer sleep (keeps `detach`
/// responsive under long configured poll intervals).
const SLEEP_SLICE: Duration = Duration::from_millis(1);

/// How long [`Tailer::wait_distributed`] spins for a logged record's
/// Page Store distribution before declaring the cluster broken.
const DISTRIBUTION_DEADLINE: Duration = Duration::from_secs(5);

/// Log batches the tailer pulls from a Log Store per poll.
const BATCHES_PER_POLL: usize = 64;

/// The boundary read view carried by a commit watermark / load record:
/// the master's own view ingredients, not an inference — a transaction
/// that begins before a boundary but first writes after it is listed
/// active by the master (its id may be *below* any id the replica has
/// seen write, so no inference from replicated undo could catch it).
fn boundary_view(active: &[TrxId], low_limit: TrxId) -> taurus_mvcc::ReadView {
    let up_limit = active.first().copied().unwrap_or(low_limit);
    taurus_mvcc::ReadView {
        low_limit,
        up_limit,
        active: active.to_vec(),
        creator: 0,
    }
}

/// The log-tailing applier; all state is thread-local to the tailer
/// thread, published through the engine's `ReplicaState`. Boundary read
/// views are not inferred — every boundary record carries the master's
/// own view ingredients (active ids + id cursor), so replica views are
/// exact master views.
struct Tailer {
    db: Arc<TaurusDb>,
    metrics: Arc<Metrics>,
    /// Next LSN to apply (everything below is applied).
    next_lsn: Lsn,
    /// Round-robin cursor over the Log Stores (failover: an empty or
    /// gapped read rotates to the next store).
    ls_cursor: usize,
}

impl Tailer {
    fn new(db: Arc<TaurusDb>) -> Tailer {
        let metrics = db.metrics().clone();
        Tailer {
            db,
            metrics,
            next_lsn: 1,
            ls_cursor: 0,
        }
    }

    fn run(&mut self, stop: &AtomicBool) -> Result<()> {
        let poll = Duration::from_micros(self.db.config().replica.poll_interval_us.max(1));
        while !stop.load(Ordering::SeqCst) {
            let applied = self.poll_once(stop)?;
            let master = self.db.sal().current_lsn();
            self.metrics
                .set(|m| &m.replica_lag_lsn, self.db.replica_lag());
            if applied == 0 {
                // Nothing new on any Log Store. If records we have not
                // applied exist (mid-append race, or we are waiting out a
                // gap), this sleep is a genuine catch-up stall. Sleep in
                // slices so `detach` never waits out a long poll interval.
                let behind = master >= self.next_lsn;
                let t0 = Instant::now();
                while t0.elapsed() < poll && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(poll.saturating_sub(t0.elapsed()).min(SLEEP_SLICE));
                }
                if behind {
                    self.metrics.add(
                        |m| &m.replica_catchup_stall_ns,
                        t0.elapsed().as_nanos() as u64,
                    );
                }
            }
        }
        Ok(())
    }

    /// One tailer pass: pull a contiguous run of batches from a Log Store
    /// (rotating on empty/gapped reads) and apply it. Returns the number
    /// of records applied.
    fn poll_once(&mut self, stop: &AtomicBool) -> Result<usize> {
        let stores = self.db.sal().log_stores().to_vec();
        let mut applied = 0usize;
        for attempt in 0..stores.len() {
            let ls = &stores[(self.ls_cursor + attempt) % stores.len()];
            let batches = ls.read_from_lsn(self.next_lsn, BATCHES_PER_POLL);
            let mut progressed = false;
            for (first_lsn, data) in batches {
                if first_lsn > self.next_lsn {
                    // Gap: an earlier-LSN append is still in flight on
                    // this store; stop here and retry next pass.
                    break;
                }
                self.metrics
                    .add(|m| &m.replica_apply_bytes, data.len() as u64);
                for r in RedoRecord::decode_batch(&data)? {
                    if r.lsn < self.next_lsn {
                        continue; // already applied (batch overlap on resume)
                    }
                    if !r.body.is_system() && !self.wait_distributed(&r, stop)? {
                        // Detaching mid-wait: bail before the record is
                        // applied or the cursor advances.
                        return Ok(applied);
                    }
                    self.apply(&r)?;
                    self.next_lsn = r.lsn + 1;
                    applied += 1;
                }
                // The read pin advances at **batch** granularity, never
                // mid-batch: one log batch is one tree operation (one
                // `write_log`), so a multi-record split is atomic under
                // the pin — no reader can observe a half-applied
                // structure change. (Write-ahead undo still precedes its
                // tree write because it travels in an *earlier* batch.)
                if let Some(rs) = self.db.replica_state() {
                    rs.advance_applied(self.next_lsn - 1);
                }
                progressed = true;
            }
            if progressed {
                self.ls_cursor = (self.ls_cursor + attempt) % stores.len();
                break;
            }
        }
        Ok(applied)
    }

    fn apply(&mut self, r: &RedoRecord) -> Result<()> {
        match &r.body {
            RedoBody::SysCatalog(p) => {
                let payload = CatalogPayload::decode(p)?;
                self.db.install_replicated_table(&payload)?;
            }
            RedoBody::SysLoaded(p) => {
                // Bulk-load completion is a boundary: pin first (shapes
                // about to be published must be readable at whatever pin
                // a reader loads after seeing them), then shapes + stats,
                // then the view.
                let payload = LoadedPayload::decode(p)?;
                let view = boundary_view(&payload.active, payload.low_limit);
                self.publish_boundary(r.lsn, view, |db| db.apply_replicated_load(&payload))?;
            }
            RedoBody::SysUndo { key, writer, prev } => {
                self.db.undo.push(r.space, key, *writer, prev.clone());
            }
            RedoBody::SysTrxEnd {
                trx,
                aborted,
                active,
                low_limit,
            } => {
                if *aborted {
                    // The compensation records preceding this marker
                    // restored every page the writer touched (its id no
                    // longer appears anywhere), so its undo is dead
                    // weight — discard it and treat the writer like any
                    // other ended transaction.
                    let _ = self.db.undo.take_for_rollback(*trx);
                }
                let view = boundary_view(active, *low_limit);
                self.publish_boundary(r.lsn, view, |_| Ok(()))?;
            }
            RedoBody::SysShape {
                root,
                height,
                n_leaves,
            } => {
                // Applied immediately, like the split redo it trails:
                // the read pin is the applied cursor, so the new root's
                // pages are already readable, and waiting for a boundary
                // would leave descents on a root page the split just
                // rewrote as its left half. LSN-inverted shape records
                // from racing master splitters are resolved by the
                // monotone leaf-count guard in `apply_replicated_shape`.
                self.db
                    .apply_replicated_shape(r.space, *root, *height, *n_leaves)?;
            }
            _ => self.apply_page_redo(r),
        }
        Ok(())
    }

    /// The master appends to Log Stores *before* distributing to Page
    /// Stores, so a record can be durable (and tailed) microseconds
    /// before its slice replicas have applied it. The read pin must not
    /// cover such a record — a pinned Page Store read would silently
    /// serve the pre-record version — so wait until every replica of the
    /// record's slice reports `applied_lsn >= r.lsn`. Per-slice apply
    /// order is guaranteed by the master's per-space structure latch, so
    /// `applied_lsn >= r.lsn` implies this record (and everything before
    /// it on the slice) is in. Distribution is synchronous inside the
    /// master's `write_log`, so the wait is bounded by that call.
    /// Returns `Ok(false)` when `stop` was raised mid-wait (detach must
    /// never hang on a record the master failed to distribute), and errs
    /// — detaching the replica — if distribution does not complete
    /// within [`DISTRIBUTION_DEADLINE`] (a broken cluster, e.g. the
    /// master's distribution loop died mid-`write_log`).
    fn wait_distributed(&self, r: &RedoRecord, stop: &AtomicBool) -> Result<bool> {
        let sal = self.db.sal();
        let slice = r.slice(self.db.config().slice_pages);
        let Some(replicas) = sal.replicas_of(slice) else {
            return Ok(true); // placement precedes any logged record
        };
        let stores = sal.page_stores();
        let t0 = Instant::now();
        while !replicas
            .iter()
            .all(|&ps| stores[ps].applied_lsn(slice) >= r.lsn)
        {
            if stop.load(Ordering::SeqCst) {
                return Ok(false);
            }
            if t0.elapsed() > DISTRIBUTION_DEADLINE {
                return Err(Error::Internal(format!(
                    "record {} for slice {slice:?} was logged but never \
                     distributed to its Page Store replicas",
                    r.lsn
                )));
            }
            std::thread::yield_now();
        }
        Ok(true)
    }

    /// A transaction-consistent boundary at `lsn`: make sure the read pin
    /// covers it, install whatever `extra` state the boundary carries
    /// (load shapes/statistics), then publish the boundary read view.
    fn publish_boundary(
        &mut self,
        lsn: Lsn,
        view: taurus_mvcc::ReadView,
        extra: impl FnOnce(&TaurusDb) -> Result<()>,
    ) -> Result<()> {
        let rs = self
            .db
            .replica_state()
            .expect("tailer runs on a replica engine")
            .clone();
        // Epoch odd across the whole publication, so "applied covers the
        // boundary" can never be observed with the pre-boundary view
        // still installed (`Replica::wait_for_lsn` relies on this).
        rs.begin_publish();
        rs.advance_applied(lsn);
        extra(&self.db)?;
        rs.publish(lsn, view);
        self.metrics.set(|m| &m.replica_visible_lsn, lsn);
        Ok(())
    }

    /// Apply one page-redo record to the replica's buffer pool: cached
    /// pages advance to the newest applied state (stamped with the record
    /// LSN — the version-pin check depends on it), uncached pages are left
    /// to the pinned read path. `NewPage` images always install: the
    /// master's bulk-load flood warms the replica cache for free.
    fn apply_page_redo(&self, r: &RedoRecord) {
        let bp: &Arc<BufferPool> = self.db.buffer_pool();
        let pref = PageRef::new(r.space, r.page_no);
        match &r.body {
            RedoBody::NewPage(img) => {
                if let Ok(mut p) = Page::from_bytes(img.clone()) {
                    p.set_lsn(r.lsn);
                    bp.insert(pref, Arc::new(p));
                }
            }
            RedoBody::FreePage => bp.remove(pref),
            body => {
                bp.update(pref, |pg| {
                    match body {
                        RedoBody::InsertRecord { slot_idx, rec } => {
                            pg.insert_at_slot(*slot_idx as usize, rec)
                                .expect("replica bp mirror insert");
                        }
                        RedoBody::SetDeleteMark { rec_at, mark } => {
                            taurus_page::record::set_delete_mark(
                                pg.raw_mut(),
                                *rec_at as usize,
                                *mark,
                            );
                        }
                        RedoBody::WriteBytes { at, bytes } => {
                            let at = *at as usize;
                            pg.raw_mut()[at..at + bytes.len()].copy_from_slice(bytes);
                        }
                        RedoBody::SetNext(n) => pg.set_next(*n),
                        RedoBody::SetPrev(n) => pg.set_prev(*n),
                        _ => unreachable!("NewPage/FreePage/system handled by caller"),
                    }
                    pg.set_lsn(r.lsn);
                });
            }
        }
    }
}
