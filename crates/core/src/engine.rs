//! The Taurus engine facade: catalog, transactions, DML, and the glue
//! between B+ trees, the buffer pool, the undo log, and the SAL.
//!
//! This is the "compute node": everything here runs on query/loader
//! threads whose CPU time lands in `compute_cpu_ns`, while Page Store work
//! happens on the storage side. All page mutations flow through
//! [`SpaceStore::write`], which mirrors each operation into the buffer
//! pool and ships it as redo through the SAL — the master never writes
//! pages, only log records (§II).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use taurus_btree::builder::bulk_build;
use taurus_btree::{BTree, RedoOp, TreeStore};
use taurus_bufferpool::BufferPool;
use taurus_common::schema::{IndexDef, Row, TableSchema};
use taurus_common::{
    ClusterConfig, Error, IndexId, Lsn, Metrics, PageNo, PageRef, QueryCtx, Result, SliceId,
    SpaceId, TrxId, Value,
};
use taurus_mvcc::{ReadView, TrxManager, UndoLog};
use taurus_page::{Page, RecordView};
use taurus_pagestore::{PagePayload, RedoBody, RedoRecord};
use taurus_sal::Sal;

use crate::replication::{CatalogPayload, IndexMeta, LoadedPayload, TreeShape};
use crate::scan::LOOKUP_PREFETCH_PAGES_MAX;

/// Shared read state of a replica compute node, maintained by the log
/// tailer (`taurus-replica`) and consulted by every read path.
///
/// Two cursors with distinct jobs:
///
/// * **`applied_lsn`** — everything at or below it has been applied by
///   the tailer (page deltas *and* write-ahead undo). This is the **read
///   pin**: pages are served at this LSN, so any transaction id a scan
///   can encounter already has its undo replicated.
/// * **`visible_lsn`** — the newest *transaction-consistent boundary*
///   (commit watermark / load completion). The published read `snapshot`
///   corresponds to it: writers without a replicated commit ≤ the
///   boundary are active ⇒ invisible, and their on-page effects are
///   reconstructed around via the replicated undo.
///
/// The invariant every reader relies on: **`snapshot` is never newer
/// than the read pin** — visibility decisions of a published view can
/// always be resolved against pages read at `applied_lsn ≥ visible_lsn`.
/// Pinning at `applied` rather than `visible` also keeps hot pages
/// inside the Page Stores' version-retention window: the pin trails the
/// master by actual replication lag, not by commit cadence.
pub struct ReplicaState {
    applied_lsn: AtomicU64,
    visible_lsn: AtomicU64,
    /// The read view at the `visible_lsn` boundary.
    snapshot: Mutex<ReadView>,
    /// Seqlock-style publication marker: odd while a boundary publication
    /// is in flight (the pin may already cover the boundary but the view
    /// swap has not happened). "Applied ≥ L with a stable even epoch"
    /// therefore implies every boundary ≤ L is fully published — what
    /// `Replica::wait_for_lsn` needs to promise its caller.
    publish_epoch: AtomicU64,
    detached: AtomicBool,
    /// Staleness bound: refuse to serve when `master_lsn - visible_lsn`
    /// exceeds this ([`TaurusDb::check_serveable`]).
    max_lag: Option<u64>,
}

impl ReplicaState {
    fn new(max_lag: Option<u64>) -> ReplicaState {
        ReplicaState {
            applied_lsn: AtomicU64::new(0),
            visible_lsn: AtomicU64::new(0),
            publish_epoch: AtomicU64::new(0),
            // Until the first boundary arrives, nothing is visible except
            // the bootstrap loader (ids < 2).
            snapshot: Mutex::new(ReadView {
                low_limit: 2,
                up_limit: 2,
                active: Vec::new(),
                creator: 0,
            }),
            detached: AtomicBool::new(false),
            max_lag,
        }
    }

    /// The LSN replica reads pin pages at (the tailer's applied cursor).
    pub fn read_pin(&self) -> Lsn {
        self.applied_lsn.load(Ordering::SeqCst)
    }

    /// The newest transaction-consistent boundary this replica serves.
    pub fn visible_lsn(&self) -> Lsn {
        self.visible_lsn.load(Ordering::SeqCst)
    }

    /// The read view at the published boundary.
    pub fn snapshot_view(&self) -> ReadView {
        self.snapshot.lock().clone()
    }

    /// Advance the applied cursor (monotone): called by the tailer after
    /// each *log batch* lands — one batch is one `write_log`, i.e. one
    /// tree operation, so multi-record ops (splits; delete-mark +
    /// trx-stamp pairs) are atomic under the pin — and before a
    /// boundary's tree shapes are installed, so a reader holding a
    /// freshly-published root finds its pages readable at whatever pin
    /// it loads afterwards.
    pub fn advance_applied(&self, lsn: Lsn) {
        self.applied_lsn.fetch_max(lsn, Ordering::SeqCst);
    }

    /// Mark a boundary publication in flight (epoch becomes odd). Call
    /// *before* the pin is advanced to the boundary; [`ReplicaState::publish`]
    /// closes it.
    pub fn begin_publish(&self) {
        self.publish_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Publication marker; even = no boundary publication in flight.
    pub fn publish_epoch(&self) -> u64 {
        self.publish_epoch.load(Ordering::SeqCst)
    }

    /// Publish a boundary: the pin covers it *before* the view swaps, so
    /// no reader can pair a new view with an older pin.
    pub fn publish(&self, lsn: Lsn, view: ReadView) {
        self.advance_applied(lsn);
        self.visible_lsn.fetch_max(lsn, Ordering::SeqCst);
        *self.snapshot.lock() = view;
        self.publish_epoch.fetch_add(1, Ordering::SeqCst);
    }

    pub fn detach(&self) {
        self.detached.store(true, Ordering::SeqCst);
    }

    pub fn is_detached(&self) -> bool {
        self.detached.load(Ordering::SeqCst)
    }

    pub fn max_lag(&self) -> Option<u64> {
        self.max_lag
    }
}

/// The writes of one space as a reader that fetches pages must see them:
/// how many have been mirrored into the pool, and how many of those are
/// still on their way to the Page Stores.
#[derive(Default)]
struct WriteSeq {
    mirrored: u64,
    in_flight: u32,
}

/// Taken before a page fetch begins ([`SpaceStore::begin_fetch`]) and
/// handed back with the fetched pages ([`SpaceStore::install`]).
pub struct FetchToken {
    /// The space's write count when the fetch began; `None` when a write
    /// was in flight then (the Page Stores may not have had it yet).
    mirrored: Option<u64>,
}

/// The descriptor of a batch read that asks for no NDP work: the Page
/// Store's "pure batched read" of whole pages, what a lookup join's leaf
/// prefetch sends (its NDP key read sends a real one, with the probe
/// keys: [`crate::scan::KeyRead`]). One for every space, since it names
/// no columns.
fn plain_read_descriptor() -> Arc<Vec<u8>> {
    static PLAIN: std::sync::OnceLock<Arc<Vec<u8>>> = std::sync::OnceLock::new();
    PLAIN
        .get_or_init(|| {
            let d = taurus_expr::descriptor::NdpDescriptor {
                index_id: 0,
                record_dtypes: Vec::new(),
                key_positions: Vec::new(),
                projection: None,
                predicate_bitcode: None,
                aggregation: None,
                low_watermark: 0,
            };
            Arc::new(d.encode())
        })
        .clone()
}

/// Storage adapter for one space (one B+ tree): implements [`TreeStore`]
/// over the buffer pool + SAL.
pub struct SpaceStore {
    pub space: SpaceId,
    sal: Arc<Sal>,
    bp: Arc<BufferPool>,
    metrics: Arc<Metrics>,
    /// Held for the moment a write bumps the count and mirrors its ops,
    /// and for the moment fetched pages are installed: an install sees
    /// every write mirrored before it and none half-way.
    writes: Mutex<WriteSeq>,
    next_page: AtomicU32,
    latch: RwLock<()>,
    page_size: usize,
    slice_pages: u32,
    /// `Some` on a replica compute node: every read is pinned at the
    /// replica's visible LSN and writes are refused.
    replica: Option<Arc<ReplicaState>>,
}

impl SpaceStore {
    fn new(
        space: SpaceId,
        sal: Arc<Sal>,
        bp: Arc<BufferPool>,
        metrics: Arc<Metrics>,
        cfg: &ClusterConfig,
        replica: Option<Arc<ReplicaState>>,
    ) -> SpaceStore {
        SpaceStore {
            space,
            sal,
            bp,
            metrics,
            writes: Mutex::new(WriteSeq::default()),
            next_page: AtomicU32::new(0),
            latch: RwLock::new(()),
            page_size: cfg.page_size,
            slice_pages: cfg.slice_pages,
            replica,
        }
    }

    /// Buffer-pool lookup honouring the replica version pin: on a
    /// replica, a cached page is the *newest tailer-applied* version
    /// (its `lsn()` is the last redo applied to it), so it equals the
    /// at-pin version **iff** `lsn() <=` the read pin — a page the
    /// tailer just touched but whose LSN the pin has not covered yet must
    /// be re-read from a Page Store version chain instead. On the master
    /// this is a plain cache probe.
    pub fn cached_for_read(&self, page_no: PageNo) -> Option<Arc<Page>> {
        match &self.replica {
            Some(rs) => self.cached_at(page_no, rs.read_pin()),
            None => self.bp.get(self.pref(page_no)),
        }
    }

    /// Buffer-pool lookup pinned at a *specific* LSN (replica only):
    /// usable iff the page has not changed past `at` — then the cached
    /// (newest-applied) state *is* the at-`at` version. NDP batch
    /// extraction pins its whole batch — structure walk, cache probes,
    /// fetches — at one captured LSN through this, so a split landing
    /// mid-batch cannot mix physical cuts across the batch's pages.
    pub fn cached_at(&self, page_no: PageNo, at: Lsn) -> Option<Arc<Page>> {
        let p = self.bp.get(self.pref(page_no))?;
        if self.replica.is_some() && p.lsn() > at {
            return None;
        }
        Some(p)
    }

    /// Call before fetching pages of this space that [`SpaceStore::install`]
    /// will be asked to cache.
    pub fn begin_fetch(&self) -> FetchToken {
        let w = self.writes.lock();
        FetchToken {
            mirrored: (w.in_flight == 0).then_some(w.mirrored),
        }
    }

    /// Cache pages fetched since `token` was taken, where that is safe: a
    /// page goes in only when no copy is resident and no write to this
    /// space was mirrored, or was still in flight, since the fetch began.
    /// Otherwise the fetched image may predate a write: a resident copy
    /// has had the write mirrored onto it and must not be replaced, and a
    /// write that found no copy to mirror onto has reached the Page Stores
    /// but not this image. Either way the caller still has the page for
    /// the read it fetched it for, and the next reader fetches anew.
    pub fn install(&self, token: &FetchToken, pages: impl IntoIterator<Item = Arc<Page>>) {
        let w = self.writes.lock();
        if token.mirrored != Some(w.mirrored) {
            return;
        }
        for page in pages {
            self.bp.insert_if_absent(self.pref(page.page_no()), page);
        }
    }

    /// The most pages one lookup-join prefetch may ask for
    /// ([`LOOKUP_PREFETCH_PAGES_MAX`], and a quarter of the pool at most,
    /// so what it installs cannot push out what it installed a moment
    /// ago). `None` on a replica: only the tailer populates its pool, and
    /// its reads are pinned single reads.
    pub fn prefetch_chunk_pages(&self) -> Option<usize> {
        match self.replica {
            Some(_) => None,
            None => Some(self.lookup_chunk_pages()),
        }
    }

    /// The chunk size of a lookup join's batched key access, in leaves to
    /// a storage request: the prefetch's and the NDP key read's.
    pub fn lookup_chunk_pages(&self) -> usize {
        LOOKUP_PREFETCH_PAGES_MAX.min(self.bp.capacity() / 4).max(1)
    }

    /// Is the page cached? No LRU touch, no hit or miss charged.
    pub fn is_resident(&self, page_no: PageNo) -> bool {
        self.bp.contains(self.pref(page_no))
    }

    /// Batched key access, the storage half: fetch `pages` (none of them
    /// resident, at most [`SpaceStore::prefetch_chunk_pages`] of them)
    /// with one work-free SAL batch read, which is one request per slice
    /// with failover, retry rounds, the context's deadline and its tenant,
    /// and cache them. Each is the buffer-pool miss it would have been to
    /// the reader that now finds it cached. Master only.
    pub fn prefetch(&self, pages: &[PageNo], qctx: &QueryCtx) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let token = self.begin_fetch();
        // The newest version of each page, as the master's single reads
        // ask for (`at_lsn: None`).
        let fetched =
            self.sal
                .batch_read_ctx(self.space, pages, Lsn::MAX, plain_read_descriptor(), qctx)?;
        let n = fetched.len() as u64;
        self.install(
            &token,
            fetched.into_iter().filter_map(|r| match r.payload {
                PagePayload::Raw(p) => Some(p),
                // Not what a work-free read returns; never cacheable.
                PagePayload::Ndp(_) => None,
            }),
        );
        self.metrics.add(|m| &m.bp_misses, n);
        self.metrics.add(|m| &m.lookup_prefetch_pages, n);
        self.metrics.add(|m| &m.lookup_prefetch_reads, 1);
        Ok(())
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.bp
    }

    pub fn sal(&self) -> &Arc<Sal> {
        &self.sal
    }

    fn pref(&self, page_no: PageNo) -> PageRef {
        PageRef::new(self.space, page_no)
    }

    /// Mirror one op into the buffer pool (only if the page is cached),
    /// keeping cached pages byte-identical to what Page Stores will hold.
    fn mirror_to_bp(&self, op: &RedoOp) {
        match op {
            RedoOp::NewPage(p) => {
                self.bp.insert(self.pref(p.page_no()), Arc::new(p.clone()));
            }
            RedoOp::InsertRecord {
                page_no,
                slot_idx,
                rec,
            } => {
                self.bp.update(self.pref(*page_no), |pg| {
                    pg.insert_at_slot(*slot_idx as usize, rec)
                        .expect("bp mirror insert");
                });
            }
            RedoOp::SetDeleteMark {
                page_no,
                rec_at,
                mark,
            } => {
                self.bp.update(self.pref(*page_no), |pg| {
                    taurus_page::record::set_delete_mark(pg.raw_mut(), *rec_at as usize, *mark);
                });
            }
            RedoOp::WriteBytes { page_no, at, bytes } => {
                self.bp.update(self.pref(*page_no), |pg| {
                    pg.raw_mut()[*at as usize..*at as usize + bytes.len()].copy_from_slice(bytes);
                });
            }
            RedoOp::SetPrev { page_no, prev } => {
                self.bp.update(self.pref(*page_no), |pg| pg.set_prev(*prev));
            }
        }
    }

    fn to_redo(&self, op: RedoOp) -> RedoRecord {
        let (page_no, body) = match op {
            RedoOp::NewPage(p) => (p.page_no(), RedoBody::NewPage(p.into_bytes())),
            RedoOp::InsertRecord {
                page_no,
                slot_idx,
                rec,
            } => (page_no, RedoBody::InsertRecord { slot_idx, rec }),
            RedoOp::SetDeleteMark {
                page_no,
                rec_at,
                mark,
            } => (page_no, RedoBody::SetDeleteMark { rec_at, mark }),
            RedoOp::WriteBytes { page_no, at, bytes } => {
                (page_no, RedoBody::WriteBytes { at, bytes })
            }
            RedoOp::SetPrev { page_no, prev } => (page_no, RedoBody::SetPrev(prev)),
        };
        RedoRecord {
            lsn: 0,
            space: self.space,
            page_no,
            body,
        }
    }
}

impl TreeStore for SpaceStore {
    fn read(&self, page_no: PageNo) -> Result<Arc<Page>> {
        let pref = self.pref(page_no);
        if let Some(rs) = &self.replica {
            // Replica: serve the version at the read pin (the tailer's
            // applied cursor). The cache holds the tailer's newest
            // applied state — usable only when the pin already covers the
            // page's last change; otherwise read the pinned version from
            // a Page Store chain. Pinned reads are *not* inserted into
            // the pool: only the tailer populates it, so "cached" always
            // means "newest applied" and the pin check stays sound.
            //
            // A page hotter than the Page Stores' retention window can
            // have its at-pin version trimmed while the replica trails
            // (the pin lags by actual replication lag). The pin only
            // advances, so retry briefly with a refreshed pin — the
            // tailer usually re-caches the page or catches up within the
            // window; a replica that stays too far behind surfaces the
            // trimmed-version error as its staleness signal.
            if let Some(p) = self.cached_for_read(page_no) {
                return Ok(p);
            }
            let t0 = std::time::Instant::now();
            loop {
                match self
                    .sal
                    .read_page_ctx(pref, Some(rs.read_pin()), &QueryCtx::new())
                {
                    Ok(p) => return Ok(p),
                    Err(e @ Error::InvalidState(_)) => {
                        if t0.elapsed() > taurus_common::config::STALE_PIN_RETRY {
                            return Err(e);
                        }
                        std::thread::yield_now();
                        if let Some(p) = self.cached_for_read(page_no) {
                            return Ok(p);
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        if let Some(p) = self.bp.get(pref) {
            return Ok(p);
        }
        let token = self.begin_fetch();
        let p = self.sal.read_page_ctx(pref, None, &QueryCtx::new())?;
        self.install(&token, [p.clone()]);
        Ok(p)
    }

    fn read_pinned(&self, page_no: PageNo, lsn: Lsn) -> Result<Arc<Page>> {
        if self.replica.is_none() {
            return self.read(page_no);
        }
        // Replica: the exact at-`lsn` version, no pin refresh — the
        // caller is assembling a single-cut walk and restarts it whole
        // at a fresh cut on failure (`pin_retryable`).
        if let Some(p) = self.cached_at(page_no, lsn) {
            return Ok(p);
        }
        self.sal
            .read_page_ctx(self.pref(page_no), Some(lsn), &QueryCtx::new())
    }

    fn pin_retryable(&self) -> bool {
        self.replica.is_some()
    }

    fn allocate(&self) -> PageNo {
        let no = self.next_page.fetch_add(1, Ordering::SeqCst);
        if self.replica.is_none() {
            self.sal
                .ensure_slice(SliceId::of(self.space, no, self.slice_pages));
        }
        no
    }

    fn write(&self, ops: Vec<RedoOp>) -> Result<()> {
        if self.replica.is_some() {
            return Err(Error::InvalidState(
                "page write on a read replica (replicas are read-only)".into(),
            ));
        }
        {
            let mut w = self.writes.lock();
            w.mirrored += 1;
            w.in_flight += 1;
            for op in &ops {
                self.mirror_to_bp(op);
            }
        }
        let records: Vec<RedoRecord> = ops.into_iter().map(|op| self.to_redo(op)).collect();
        let logged = self.sal.write_log(records);
        self.writes.lock().in_flight -= 1;
        logged?;
        Ok(())
    }

    fn structure_latch(&self) -> &RwLock<()> {
        &self.latch
    }

    fn current_lsn(&self) -> Lsn {
        // Replica scans pin everything — leaf-batch LSN capture included —
        // at the read pin; the master reports the cluster LSN cursor.
        match &self.replica {
            Some(rs) => rs.read_pin(),
            None => self.sal.current_lsn(),
        }
    }
}

/// Per-column statistics gathered at load time (the optimizer's "table
/// statistics" for width and filter-factor estimation, §V-A/§V-B1).
#[derive(Clone, Debug, Default)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Approximate distinct count (exact for small loads).
    pub ndv: u64,
    /// Observed average byte width.
    pub avg_width: f64,
}

#[derive(Clone, Debug, Default)]
pub struct TableStats {
    pub row_count: u64,
    pub leaf_pages: u64,
    pub avg_row_width: f64,
    pub columns: Vec<ColumnStats>,
}

/// An index attached to a table: the tree plus its storage adapter.
pub struct TableIndex {
    pub tree: BTree,
    pub store: Arc<SpaceStore>,
}

/// A table: primary index, secondary indexes, statistics.
pub struct Table {
    pub schema: Arc<TableSchema>,
    pub primary: TableIndex,
    pub secondaries: Vec<TableIndex>,
    pub stats: RwLock<TableStats>,
}

impl Table {
    /// The index used by a scan: 0 = primary, i+1 = secondaries[i].
    pub fn index(&self, which: usize) -> &TableIndex {
        if which == 0 {
            &self.primary
        } else {
            &self.secondaries[which - 1]
        }
    }

    pub fn find_index(&self, name: &str) -> Option<usize> {
        if self.primary.tree.def.name == name {
            return Some(0);
        }
        self.secondaries
            .iter()
            .position(|s| s.tree.def.name == name)
            .map(|i| i + 1)
    }
}

/// The database engine: a master compute node, or — when constructed via
/// [`TaurusDb::attach_replica`] — a read-only replica compute node whose
/// reads are pinned at the replicated visible LSN.
pub struct TaurusDb {
    cfg: ClusterConfig,
    sal: Arc<Sal>,
    bp: Arc<BufferPool>,
    pub trx: TrxManager,
    pub undo: UndoLog,
    metrics: Arc<Metrics>,
    catalog: RwLock<HashMap<String, Arc<Table>>>,
    /// Serializes DDL: with creates one-at-a-time, the log order of
    /// `SysCatalog` records equals catalog insertion order, so replicas
    /// rebuilding from the log cannot install a same-name loser.
    ddl: Mutex<()>,
    /// Serializes boundary emission (commit / rollback / load
    /// completion): view capture, the record's LSN allocation, and the
    /// local transaction end happen atomically, so a later-LSN boundary
    /// can never carry a *staler* active set than an earlier one (which
    /// would re-hide an already-visible transaction on replicas).
    boundary: Mutex<()>,
    next_space: AtomicU32,
    next_index_id: AtomicU64,
    replica: Option<Arc<ReplicaState>>,
}

impl TaurusDb {
    /// Bring up a database over a fresh simulated cluster.
    pub fn new(cfg: ClusterConfig) -> Arc<TaurusDb> {
        let metrics = Metrics::shared();
        Self::with_metrics(cfg, metrics)
    }

    pub fn with_metrics(cfg: ClusterConfig, metrics: Arc<Metrics>) -> Arc<TaurusDb> {
        let sal = Sal::new(cfg.clone(), metrics.clone());
        let bp = BufferPool::new(cfg.buffer_pool_pages, metrics.clone());
        Arc::new(TaurusDb {
            cfg,
            sal,
            bp,
            trx: TrxManager::new(),
            undo: UndoLog::new(),
            metrics,
            catalog: RwLock::new(HashMap::new()),
            ddl: Mutex::new(()),
            boundary: Mutex::new(()),
            next_space: AtomicU32::new(1),
            next_index_id: AtomicU64::new(1),
            replica: None,
        })
    }

    /// Attach a **read replica** compute node to an existing cluster's
    /// storage services (no page copies): a read-only SAL attachment over
    /// the shared Page/Log Stores, a fresh buffer pool and metrics
    /// registry, an empty catalog, and a [`ReplicaState`] read pin at LSN
    /// 0. The returned engine serves nothing until a log tailer
    /// (`taurus-replica`) replays the master's log into it and publishes
    /// boundaries; queries are refused while detached or lagging beyond
    /// `replica.max_lag_lsn` ([`TaurusDb::check_serveable`]).
    pub fn attach_replica(master_sal: &Arc<Sal>) -> Arc<TaurusDb> {
        let metrics = Metrics::shared();
        let cfg = master_sal.config().clone();
        let sal = master_sal.attach_read_only(metrics.clone());
        let bp = BufferPool::new(cfg.buffer_pool_pages, metrics.clone());
        let state = Arc::new(ReplicaState::new(cfg.replica.max_lag_lsn));
        Arc::new(TaurusDb {
            cfg,
            sal,
            bp,
            trx: TrxManager::new(),
            undo: UndoLog::new(),
            metrics,
            catalog: RwLock::new(HashMap::new()),
            ddl: Mutex::new(()),
            boundary: Mutex::new(()),
            next_space: AtomicU32::new(1),
            next_index_id: AtomicU64::new(1),
            replica: Some(state),
        })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn is_replica(&self) -> bool {
        self.replica.is_some()
    }

    /// The replica read-pin state (`None` on a master).
    pub fn replica_state(&self) -> Option<&Arc<ReplicaState>> {
        self.replica.as_ref()
    }

    /// The newest LSN this node serves reads at: the visible LSN on a
    /// replica, the cluster LSN cursor on the master.
    pub fn visible_lsn(&self) -> Lsn {
        match &self.replica {
            Some(rs) => rs.visible_lsn(),
            None => self.sal.current_lsn(),
        }
    }

    /// Replication lag in LSNs (0 on a master).
    pub fn replica_lag(&self) -> u64 {
        match &self.replica {
            Some(rs) => self.sal.current_lsn().saturating_sub(rs.visible_lsn()),
            None => 0,
        }
    }

    /// The staleness guardrail: a detached replica, or one lagging beyond
    /// `replica.max_lag_lsn`, refuses to serve new queries rather than
    /// hand out snapshots staler than the contract allows. Masters always
    /// pass.
    pub fn check_serveable(&self) -> Result<()> {
        let Some(rs) = &self.replica else {
            return Ok(());
        };
        if rs.is_detached() {
            return Err(Error::InvalidState(
                "replica is detached from the log (tailer stopped); re-attach to serve queries"
                    .into(),
            ));
        }
        if let Some(max) = rs.max_lag() {
            let lag = self.replica_lag();
            if lag > max {
                return Err(Error::InvalidState(format!(
                    "replica lag {lag} LSNs exceeds replica.max_lag_lsn {max}; \
                     refusing to serve until the tailer catches up"
                )));
            }
        }
        Ok(())
    }

    fn ensure_master(&self, what: &str) -> Result<()> {
        if self.replica.is_some() {
            return Err(Error::InvalidState(format!(
                "{what} on a read replica (replicas are read-only)"
            )));
        }
        Ok(())
    }

    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    pub fn sal(&self) -> &Arc<Sal> {
        &self.sal
    }

    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.bp
    }

    /// Create a table with its primary index and the named secondary
    /// indexes (`(name, key columns)`).
    pub fn create_table(
        self: &Arc<Self>,
        schema: Arc<TableSchema>,
        secondary_indexes: &[(&str, Vec<usize>)],
    ) -> Result<Arc<Table>> {
        self.ensure_master("CREATE TABLE")?;
        // DDL is serialized (not by the catalog's write lock — holding
        // that across the log flush would stall every concurrent table
        // lookup) so that the log order of SysCatalog records equals
        // catalog insertion order: replicas install first-payload-wins
        // per name, which must match the master's winner.
        let _ddl = self.ddl.lock();
        if self.catalog.read().contains_key(&schema.name) {
            return Err(Error::InvalidState(format!("table {} exists", schema.name)));
        }
        let mk_index = |name: String, key_cols: Vec<usize>, is_primary: bool| {
            let space = SpaceId(self.next_space.fetch_add(1, Ordering::SeqCst));
            let index_id = IndexId(self.next_index_id.fetch_add(1, Ordering::SeqCst));
            let def = IndexDef {
                name,
                index_id,
                space,
                table: schema.clone(),
                key_cols,
                is_primary,
            };
            let store = Arc::new(SpaceStore::new(
                space,
                self.sal.clone(),
                self.bp.clone(),
                self.metrics.clone(),
                &self.cfg,
                None,
            ));
            TableIndex {
                tree: BTree::new(def),
                store,
            }
        };
        let primary = mk_index(format!("{}_pk", schema.name), schema.pk.clone(), true);
        let secondaries: Vec<TableIndex> = secondary_indexes
            .iter()
            .map(|(n, cols)| mk_index((*n).to_string(), cols.clone(), false))
            .collect();
        // DDL travels through the log — the only cross-node channel — so
        // replicas can rebuild the catalog (a `SysCatalog` record with
        // every decision this function just made).
        let meta = std::iter::once(&primary)
            .chain(&secondaries)
            .map(|ix| IndexMeta {
                name: ix.tree.def.name.clone(),
                index_id: ix.tree.def.index_id.0,
                space: ix.tree.def.space.0,
                key_cols: ix.tree.def.key_cols.clone(),
                is_primary: ix.tree.def.is_primary,
            })
            .collect();
        self.sal.write_log(vec![RedoRecord {
            lsn: 0,
            space: SpaceId(0),
            page_no: 0,
            body: RedoBody::SysCatalog(CatalogPayload::from_parts(&schema, meta).encode()),
        }])?;
        let table = Arc::new(Table {
            schema: schema.clone(),
            primary,
            secondaries,
            stats: RwLock::new(TableStats::default()),
        });
        self.catalog
            .write()
            .insert(schema.name.clone(), table.clone());
        Ok(table)
    }

    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    pub fn tables(&self) -> Vec<Arc<Table>> {
        self.catalog.read().values().cloned().collect()
    }

    /// Bulk load rows (sorted or not — they are sorted here) as the
    /// bootstrap transaction, building all indexes bottom-up and gathering
    /// statistics.
    pub fn bulk_load(&self, table: &Table, mut rows: Vec<Row>) -> Result<u64> {
        self.ensure_master("bulk load")?;
        let n = rows.len() as u64;
        // Gather stats on the way in.
        let mut stats = TableStats {
            row_count: n,
            leaf_pages: 0,
            avg_row_width: 0.0,
            columns: vec![ColumnStats::default(); table.schema.columns.len()],
        };
        let mut distinct: Vec<std::collections::HashSet<String>> =
            vec![std::collections::HashSet::new(); table.schema.columns.len()];
        let mut width_sum = 0u64;
        for row in &rows {
            for (c, v) in row.iter().enumerate() {
                let cs = &mut stats.columns[c];
                if cs
                    .min
                    .as_ref()
                    .map(|m| v.cmp_total(m).is_lt())
                    .unwrap_or(true)
                {
                    cs.min = Some(v.clone());
                }
                if cs
                    .max
                    .as_ref()
                    .map(|m| v.cmp_total(m).is_gt())
                    .unwrap_or(true)
                {
                    cs.max = Some(v.clone());
                }
                let w = match v {
                    Value::Str(s) => s.len(),
                    _ => table.schema.columns[c].dtype.fixed_width().unwrap_or(8),
                };
                cs.avg_width += w as f64;
                width_sum += w as u64;
                if distinct[c].len() < 4096 {
                    distinct[c].insert(v.to_string());
                }
            }
        }
        for (c, d) in distinct.iter().enumerate() {
            stats.columns[c].ndv = d.len() as u64;
            if n > 0 {
                stats.columns[c].avg_width /= n as f64;
            }
        }
        stats.avg_row_width = if n > 0 {
            width_sum as f64 / n as f64
        } else {
            0.0
        };

        // Primary: sort by PK and build.
        let ptree = &table.primary.tree;
        rows.sort_by_key(|r| ptree.key_of_row(r));
        let leaves = bulk_build(
            ptree,
            table.primary.store.as_ref(),
            self.cfg.page_size,
            rows.iter().cloned(),
            taurus_mvcc::BOOTSTRAP_TRX,
        )?;
        stats.leaf_pages = leaves as u64;

        // Secondaries: project stored columns, sort, build.
        for sec in &table.secondaries {
            let stored = sec.tree.def.stored_cols();
            let mut sec_rows: Vec<Row> = rows
                .iter()
                .map(|r| stored.iter().map(|&c| r[c].clone()).collect())
                .collect();
            let stree = &sec.tree;
            sec_rows.sort_by_key(|r| stree.key_of_row(r));
            bulk_build(
                stree,
                sec.store.as_ref(),
                self.cfg.page_size,
                sec_rows.into_iter(),
                taurus_mvcc::BOOTSTRAP_TRX,
            )?;
        }
        // Bulk-load completion travels through the log: tree shapes (root /
        // height / leaf count live outside the page substrate) plus the
        // optimizer statistics, and the record doubles as a
        // transaction-consistent boundary replicas advance their visible
        // LSN to (every leaf image precedes it in the log).
        let shapes = std::iter::once(&table.primary)
            .chain(&table.secondaries)
            .map(|ix| TreeShape {
                space: ix.tree.def.space.0,
                root: ix.tree.root(),
                height: ix.tree.height(),
                n_leaves: ix.tree.n_leaves(),
            })
            .collect();
        {
            // Boundary emission: view + LSN captured atomically (see
            // `TaurusDb::boundary`).
            let _b = self.boundary.lock();
            let view = self.trx.read_view(0);
            let payload = LoadedPayload {
                table: table.schema.name.clone(),
                shapes,
                stats: stats.clone(),
                active: view.active,
                low_limit: view.low_limit,
            };
            self.sal.write_log(vec![RedoRecord {
                lsn: 0,
                space: SpaceId(0),
                page_no: 0,
                body: RedoBody::SysLoaded(payload.encode()?),
            }])?;
        }
        *table.stats.write() = stats;
        Ok(n)
    }

    // --- transactions -------------------------------------------------------

    pub fn begin(&self) -> TrxId {
        self.trx.begin()
    }

    /// Commit: emit the commit-watermark record (`SysTrxEnd`) *before*
    /// ending the transaction locally. The record's LSN is a
    /// transaction-consistent boundary — every write of this transaction
    /// (and its write-ahead undo) precedes it in the log — so replicas may
    /// advance their visible LSN to it.
    pub fn commit(&self, trx: TrxId) {
        if self.replica.is_none() {
            // View capture + LSN allocation + local end are one atomic
            // step (`boundary`): a later-LSN watermark can never carry a
            // staler active set. The append itself is infallible
            // in-memory (write_log only fails on a read-only
            // attachment, which this is not).
            let _b = self.boundary.lock();
            let _ = self.sal.write_log(vec![self.trx_end_record(trx, false)]);
        }
        self.trx.end(trx);
    }

    /// Build the commit-watermark record for `trx`: the boundary marker
    /// plus the master's read-view ingredients at this instant (active
    /// ids excluding `trx`, and the id allocation cursor), so replicas
    /// publish an *exact* master view at the boundary.
    fn trx_end_record(&self, trx: TrxId, aborted: bool) -> RedoRecord {
        let view = self.trx.read_view(trx);
        RedoRecord {
            lsn: 0,
            space: SpaceId(0),
            page_no: 0,
            body: RedoBody::SysTrxEnd {
                trx,
                aborted,
                active: view.active,
                low_limit: view.low_limit,
            },
        }
    }

    /// Roll back: restore previous images from the undo log, then end.
    /// The compensation writes travel through the log like any other
    /// redo; the closing `SysTrxEnd { aborted: true }` tells replicas the
    /// writer is gone for good (it stays invisible forever) and marks the
    /// post-compensation boundary.
    pub fn rollback(&self, trx: TrxId) -> Result<()> {
        self.ensure_master("ROLLBACK")?;
        let entries = self.undo.take_for_rollback(trx);
        for (space, key, entry) in entries {
            let table = self
                .tables()
                .into_iter()
                .find(|t| {
                    t.primary.tree.def.space == space
                        || t.secondaries.iter().any(|s| s.tree.def.space == space)
                })
                .ok_or_else(|| Error::Internal(format!("no table for space {space:?}")))?;
            let idx = if table.primary.tree.def.space == space {
                &table.primary
            } else {
                table
                    .secondaries
                    .iter()
                    .find(|s| s.tree.def.space == space)
                    .expect("matched above")
            };
            let store = idx.store.as_ref();
            match entry.prev_image {
                Some(img) => {
                    // Restore the previous image in place.
                    let loc = idx
                        .tree
                        .get(store, &key)?
                        .ok_or_else(|| Error::Internal("rolled-back record vanished".into()))?;
                    let mut img = img;
                    img[1..5].copy_from_slice(&loc.bytes[1..5]); // keep chain + heap_no
                    store.write(vec![RedoOp::WriteBytes {
                        page_no: loc.page_no,
                        at: loc.rec_at,
                        bytes: img,
                    }])?;
                }
                None => {
                    // The write was an insert: make the row permanently
                    // invisible (delete-marked as the bootstrap writer).
                    // Undo entries are pushed write-ahead, so compensate
                    // only an insert this transaction actually performed:
                    // if the key is absent, or its current image belongs
                    // to another writer (this transaction's insert lost a
                    // race and never landed), there is nothing to undo —
                    // delete-marking someone else's committed row would
                    // be permanent data loss.
                    if let Some(loc) = idx.tree.get(store, &key)? {
                        let v = RecordView::new(&loc.bytes, &idx.tree.leaf_layout);
                        if v.trx_id() == trx {
                            idx.tree.set_delete_mark(
                                store,
                                &key,
                                taurus_mvcc::BOOTSTRAP_TRX,
                                true,
                            )?;
                        }
                    }
                }
            }
        }
        {
            let _b = self.boundary.lock();
            self.sal.write_log(vec![self.trx_end_record(trx, true)])?;
            self.trx.end(trx);
        }
        Ok(())
    }

    /// A consistent read view. On a replica this is **always** the
    /// replicated boundary snapshot — never the local [`TrxManager`],
    /// which knows nothing of the master's transactions (deriving a view
    /// from it would declare every master write visible and serve torn
    /// transactions).
    pub fn read_view(&self, trx: TrxId) -> ReadView {
        match &self.replica {
            Some(rs) => rs.snapshot_view(),
            None => self.trx.read_view(trx),
        }
    }

    // --- DML ------------------------------------------------------------------

    /// Ship one undo entry through the log, **write-ahead**: the entry is
    /// logged *before* the tree write it protects, so any replica that has
    /// applied a write has always already applied the undo needed to
    /// reconstruct around it — no boundary can fall between a write and
    /// its undo. (The local [`UndoLog`] push still happens after the op
    /// succeeds, so failed ops leave no local entry, exactly as before;
    /// a logged entry for a failed op is dead weight replicas never
    /// consult, since the record it would reconstruct never changed.)
    fn log_undo(
        &self,
        space: SpaceId,
        key: &[u8],
        writer: TrxId,
        prev: Option<Vec<u8>>,
    ) -> Result<()> {
        self.sal.write_log(vec![RedoRecord {
            lsn: 0,
            space,
            page_no: 0,
            body: RedoBody::SysUndo {
                key: key.to_vec(),
                writer,
                prev,
            },
        }])?;
        Ok(())
    }

    fn tree_shape(ix: &TableIndex) -> (PageNo, u32, u32) {
        (ix.tree.root(), ix.tree.height(), ix.tree.n_leaves())
    }

    /// Root splits and leaf-count changes live outside the page substrate;
    /// ship them as a `SysShape` record (after the split's redo, before the
    /// owning transaction's commit watermark) so replicas publish the new
    /// shape together with the boundary that makes its pages readable.
    fn log_shape_if_changed(&self, ix: &TableIndex, before: (PageNo, u32, u32)) -> Result<()> {
        let after = Self::tree_shape(ix);
        if after == before {
            return Ok(());
        }
        self.sal.write_log(vec![RedoRecord {
            lsn: 0,
            space: ix.tree.def.space,
            page_no: 0,
            body: RedoBody::SysShape {
                root: after.0,
                height: after.1,
                n_leaves: after.2,
            },
        }])?;
        Ok(())
    }

    /// Current record image of `key` in one index (the write-ahead undo
    /// payload for deletes/updates).
    fn prev_image(&self, ix: &TableIndex, key: &[u8]) -> Result<Vec<u8>> {
        Ok(ix
            .tree
            .get(ix.store.as_ref(), key)?
            .ok_or_else(|| Error::NotFound("row image for undo".into()))?
            .bytes)
    }

    /// A write-ahead insertion undo entry (`prev = None`) that never gets
    /// its insert is poison for replicas: reconstruction walking the
    /// replicated chain newest-first would hit it and make the row's
    /// *committed* versions vanish. So the duplicate check runs *before*
    /// `log_undo` — mirroring the check `BTree::insert` repeats under the
    /// latch. (Prev-image entries are harmless to over-log: they carry
    /// the correct previous version.)
    fn check_no_duplicate(&self, ix: &TableIndex, key: &[u8]) -> Result<()> {
        if ix.tree.get(ix.store.as_ref(), key)?.is_some() {
            return Err(Error::InvalidState(format!(
                "duplicate key in index {}",
                ix.tree.def.name
            )));
        }
        Ok(())
    }

    /// Insert one row under `trx`.
    pub fn insert_row(&self, table: &Table, trx: TrxId, row: &Row) -> Result<()> {
        self.ensure_master("INSERT")?;
        let pkey = table.primary.tree.key_of_row(row);
        // Validate every index *before* the first write-ahead undo record
        // leaves this node (see `check_no_duplicate`).
        self.check_no_duplicate(&table.primary, &pkey)?;
        let sec_rows: Vec<(Row, Vec<u8>)> = table
            .secondaries
            .iter()
            .map(|sec| {
                let stored = sec.tree.def.stored_cols();
                let srow: Row = stored.iter().map(|&c| row[c].clone()).collect();
                let skey = sec.tree.key_of_row(&srow);
                (srow, skey)
            })
            .collect();
        for (sec, (_, skey)) in table.secondaries.iter().zip(&sec_rows) {
            self.check_no_duplicate(sec, skey)?;
        }
        // Undo is write-ahead *locally* too, not just in the log: a
        // concurrent master scan that sees this insert's record must
        // already find its chain entry, or reconstruction around the
        // still-active writer silently serves a stale version. (The
        // failure paths this ordering could orphan are pre-validated
        // above; rollback tolerates a missing row defensively.)
        self.log_undo(table.primary.tree.def.space, &pkey, trx, None)?;
        self.undo
            .push(table.primary.tree.def.space, &pkey, trx, None);
        let shape = Self::tree_shape(&table.primary);
        table
            .primary
            .tree
            .insert(table.primary.store.as_ref(), row, trx)?;
        self.log_shape_if_changed(&table.primary, shape)?;
        for (sec, (srow, skey)) in table.secondaries.iter().zip(&sec_rows) {
            self.log_undo(sec.tree.def.space, skey, trx, None)?;
            self.undo.push(sec.tree.def.space, skey, trx, None);
            let shape = Self::tree_shape(sec);
            sec.tree.insert(sec.store.as_ref(), srow, trx)?;
            self.log_shape_if_changed(sec, shape)?;
        }
        Ok(())
    }

    /// Delete (mark) a row by primary key values under `trx`.
    pub fn delete_row(&self, table: &Table, trx: TrxId, pk_values: &[Value]) -> Result<()> {
        self.ensure_master("DELETE")?;
        let pkey = table.primary.tree.encode_search_key(pk_values);
        // One descent serves both needs: the row values (for secondary
        // maintenance) and the previous image (write-ahead undo).
        let prev = self
            .prev_image(&table.primary, &pkey)
            .map_err(|_| Error::NotFound("row to delete".into()))?;
        let row = RecordView::new(&prev, &table.primary.tree.leaf_layout).values();
        self.log_undo(table.primary.tree.def.space, &pkey, trx, Some(prev.clone()))?;
        self.undo
            .push(table.primary.tree.def.space, &pkey, trx, Some(prev));
        table
            .primary
            .tree
            .set_delete_mark(table.primary.store.as_ref(), &pkey, trx, true)?;
        for sec in &table.secondaries {
            let stored = sec.tree.def.stored_cols();
            let srow: Row = stored.iter().map(|&c| row[c].clone()).collect();
            let skey = sec.tree.key_of_row(&srow);
            let prev = self.prev_image(sec, &skey)?;
            self.log_undo(sec.tree.def.space, &skey, trx, Some(prev.clone()))?;
            self.undo.push(sec.tree.def.space, &skey, trx, Some(prev));
            sec.tree
                .set_delete_mark(sec.store.as_ref(), &skey, trx, true)?;
        }
        Ok(())
    }

    /// Update a row (primary key unchanged, fixed-width columns only).
    pub fn update_row(&self, table: &Table, trx: TrxId, new_row: &Row) -> Result<()> {
        self.ensure_master("UPDATE")?;
        let pkey = table.primary.tree.key_of_row(new_row);
        let prev = self
            .prev_image(&table.primary, &pkey)
            .map_err(|_| Error::NotFound("row to update".into()))?;
        let old_row = RecordView::new(&prev, &table.primary.tree.leaf_layout).values();
        self.log_undo(table.primary.tree.def.space, &pkey, trx, Some(prev.clone()))?;
        self.undo
            .push(table.primary.tree.def.space, &pkey, trx, Some(prev));
        table
            .primary
            .tree
            .update_in_place(table.primary.store.as_ref(), new_row, trx)?;
        for sec in &table.secondaries {
            let stored = sec.tree.def.stored_cols();
            let old_s: Row = stored.iter().map(|&c| old_row[c].clone()).collect();
            let new_s: Row = stored.iter().map(|&c| new_row[c].clone()).collect();
            let old_key = sec.tree.key_of_row(&old_s);
            let new_key = sec.tree.key_of_row(&new_s);
            if old_key == new_key {
                if old_s != new_s {
                    let prev = self.prev_image(sec, &old_key)?;
                    self.log_undo(sec.tree.def.space, &old_key, trx, Some(prev.clone()))?;
                    self.undo
                        .push(sec.tree.def.space, &old_key, trx, Some(prev));
                    sec.tree.update_in_place(sec.store.as_ref(), &new_s, trx)?;
                }
            } else {
                // Key change: delete-mark old entry, insert new one. The
                // insert's duplicate check runs before either write-ahead
                // undo record ships (see `check_no_duplicate`).
                self.check_no_duplicate(sec, &new_key)?;
                let prev = self.prev_image(sec, &old_key)?;
                self.log_undo(sec.tree.def.space, &old_key, trx, Some(prev.clone()))?;
                self.undo
                    .push(sec.tree.def.space, &old_key, trx, Some(prev));
                sec.tree
                    .set_delete_mark(sec.store.as_ref(), &old_key, trx, true)?;
                self.log_undo(sec.tree.def.space, &new_key, trx, None)?;
                self.undo.push(sec.tree.def.space, &new_key, trx, None);
                let shape = Self::tree_shape(sec);
                sec.tree.insert(sec.store.as_ref(), &new_s, trx)?;
                self.log_shape_if_changed(sec, shape)?;
            }
        }
        Ok(())
    }

    /// MVCC point lookup: the version of the row visible to `view`.
    pub fn lookup_row(
        &self,
        table: &Table,
        view: &ReadView,
        pk_values: &[Value],
    ) -> Result<Option<Row>> {
        let pkey = table.primary.tree.encode_search_key(pk_values);
        self.lookup_row_by_key(table, view, &pkey)
    }

    /// [`TaurusDb::lookup_row`] by the encoded primary key.
    pub fn lookup_row_by_key(
        &self,
        table: &Table,
        view: &ReadView,
        pkey: &[u8],
    ) -> Result<Option<Row>> {
        let loc = match table.primary.tree.get(table.primary.store.as_ref(), pkey)? {
            None => return Ok(None),
            Some(l) => l,
        };
        let space = table.primary.tree.def.space;
        let image = match self.undo.reconstruct(space, pkey, &loc.bytes, view) {
            Some(img) => img,
            None => return Ok(None),
        };
        let v = RecordView::new(&image, &table.primary.tree.leaf_layout);
        if v.delete_mark() {
            return Ok(None);
        }
        Ok(Some(v.values()))
    }

    // --- replica catalog reconstruction (log-tailer hooks) -------------------

    /// Rebuild a table from a replicated `SysCatalog` payload: the same
    /// `Table`/`BTree` objects `create_table` builds on the master, over
    /// read-pinned stores. First payload per name wins (a duplicate can
    /// only come from a master-side race whose loser never entered the
    /// master catalog either). Replica engines only.
    pub fn install_replicated_table(&self, payload: &CatalogPayload) -> Result<()> {
        let rs = self
            .replica
            .as_ref()
            .ok_or_else(|| Error::InvalidState("catalog replication into a master".into()))?;
        let schema = TableSchema::new(&payload.name, payload.columns.clone(), payload.pk.clone());
        let mut primary: Option<TableIndex> = None;
        let mut secondaries: Vec<TableIndex> = Vec::new();
        for ix in &payload.indexes {
            let def = IndexDef {
                name: ix.name.clone(),
                index_id: IndexId(ix.index_id),
                space: SpaceId(ix.space),
                table: schema.clone(),
                key_cols: ix.key_cols.clone(),
                is_primary: ix.is_primary,
            };
            let store = Arc::new(SpaceStore::new(
                def.space,
                self.sal.clone(),
                self.bp.clone(),
                self.metrics.clone(),
                &self.cfg,
                Some(rs.clone()),
            ));
            let t = TableIndex {
                tree: BTree::new(def),
                store,
            };
            if ix.is_primary {
                primary = Some(t);
            } else {
                secondaries.push(t);
            }
        }
        let primary = primary
            .ok_or_else(|| Error::Corruption("catalog payload without a primary index".into()))?;
        let table = Arc::new(Table {
            schema: schema.clone(),
            primary,
            secondaries,
            stats: RwLock::new(TableStats::default()),
        });
        // First-wins: if two racing master creates both logged a payload
        // for the same name, only the one whose insert won exists on the
        // master — the earlier-LSN record. Never replace.
        self.catalog
            .write()
            .entry(schema.name.clone())
            .or_insert(table);
        Ok(())
    }

    /// Apply a replicated `SysLoaded` payload: tree shapes + optimizer
    /// statistics (so replica NDP decisions match the master's).
    pub fn apply_replicated_load(&self, payload: &LoadedPayload) -> Result<()> {
        let table = self.table(&payload.table)?;
        for s in &payload.shapes {
            self.apply_replicated_shape(SpaceId(s.space), s.root, s.height, s.n_leaves)?;
        }
        *table.stats.write() = payload.stats.clone();
        Ok(())
    }

    /// Apply a replicated `SysShape` record to the index owning `space`.
    ///
    /// Shape records can arrive LSN-inverted: the master reads the shape
    /// and logs it *after* releasing the tree latch, so two racing
    /// splitters may log (newer shape, lower LSN) then (older shape,
    /// higher LSN). Shapes are strictly ordered by leaf count (every
    /// shape change includes exactly one leaf split; there are no
    /// merges), so a record whose `n_leaves` does not exceed the
    /// installed one is stale — or a duplicate — and is skipped.
    pub fn apply_replicated_shape(
        &self,
        space: SpaceId,
        root: PageNo,
        height: u32,
        n_leaves: u32,
    ) -> Result<()> {
        let set = |tree: &BTree| {
            if n_leaves > tree.n_leaves() || tree.root() == taurus_page::NO_PAGE {
                tree.set_shape(root, height, n_leaves);
            }
        };
        for t in self.tables() {
            if t.primary.tree.def.space == space {
                set(&t.primary.tree);
                return Ok(());
            }
            if let Some(s) = t.secondaries.iter().find(|s| s.tree.def.space == space) {
                set(&s.tree);
                return Ok(());
            }
        }
        Err(Error::NotFound(format!(
            "no replicated index owns space {space:?} (shape record before its catalog record?)"
        )))
    }
}
