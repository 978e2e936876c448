//! B+ trees over the page substrate (§IV-C4).
//!
//! An InnoDB table "is always accessed by scanning an index (primary or
//! secondary)". This crate provides those trees: bottom-up bulk build,
//! point insert with splits, delete-marking, in-place updates, leaf-chain
//! range scans, and — the NDP-relevant part — *level-1 batch extraction*:
//! descend with the structure latch held shared, collect child leaf page
//! numbers bounded by the scan range ("a batch read is aware of scan
//! boundaries … because level-1 pages store 'boundary' values"), capture
//! the LSN, release. Page Stores then serve the page versions matching
//! that LSN while the tree keeps changing.
//!
//! Concurrency model: pages are immutable snapshots (`Arc<Page>`); all
//! structural mutation is funnelled through [`TreeStore::write`] under the
//! store's structure latch held exclusively, while batch extraction holds
//! it shared — the moral equivalent of the paper's "shared page locks …
//! from the root page until a level-1 page".

pub mod builder;

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use taurus_common::schema::{encode_key, encode_key_part, IndexDef};
use taurus_common::{DataType, Error, Lsn, PageNo, Result, TrxId, Value};
use taurus_page::{encode_record, Page, RecType, RecordLayout, RecordMeta, RecordView, NO_PAGE};

/// Redo-shaped mutation operations the tree emits; the engine mirrors them
/// into the buffer pool and ships them as redo records through the SAL.
#[derive(Clone, Debug)]
pub enum RedoOp {
    NewPage(Page),
    InsertRecord {
        page_no: PageNo,
        slot_idx: u16,
        rec: Vec<u8>,
    },
    SetDeleteMark {
        page_no: PageNo,
        rec_at: u16,
        mark: bool,
    },
    WriteBytes {
        page_no: PageNo,
        at: u16,
        bytes: Vec<u8>,
    },
    SetPrev {
        page_no: PageNo,
        prev: PageNo,
    },
}

/// The tree's view of its storage (implemented by the engine: buffer pool
/// + SAL underneath).
pub trait TreeStore: Send + Sync {
    /// Read a page of this tree's space.
    fn read(&self, page_no: PageNo) -> Result<Arc<Page>>;

    /// Read a page *as of* `lsn`. Stores without page versioning (the
    /// master: its own writes are always newest) serve the live page;
    /// read replicas serve the exact at-LSN version, so one batch
    /// extraction's structure walk and page fetches all observe a single
    /// cut — a split landing mid-batch cannot tear record placement
    /// across the pages of the batch.
    fn read_pinned(&self, page_no: PageNo, _lsn: Lsn) -> Result<Arc<Page>> {
        self.read(page_no)
    }

    /// Can a failed pinned walk be retried at a fresh cut? `true` on read
    /// replicas, where a hot page's at-cut version can age out of the
    /// Page Stores' retention window mid-walk — the whole walk restarts
    /// at a newer captured LSN (never mixing cuts). `false` on the
    /// master, whose reads cannot go stale.
    fn pin_retryable(&self) -> bool {
        false
    }
    /// Allocate the next page number in this space.
    fn allocate(&self) -> PageNo;
    /// Apply mutations: buffer pool + redo through the SAL.
    fn write(&self, ops: Vec<RedoOp>) -> Result<()>;
    /// The per-space structure latch (paper: S-latches root→level-1).
    fn structure_latch(&self) -> &RwLock<()>;
    /// Current durable LSN (stamped on batch reads).
    fn current_lsn(&self) -> Lsn;
}

/// Run `f` with a freshly captured LSN, restarting — whole walk, fresh
/// cut — while the store reports the failure class retryable
/// (`InvalidState`: a trimmed at-cut version on a replica), bounded by
/// the shared staleness-retry policy. See [`TreeStore::pin_retryable`].
fn with_pin_retry<T>(store: &dyn TreeStore, mut f: impl FnMut(Lsn) -> Result<T>) -> Result<T> {
    let t0 = std::time::Instant::now();
    loop {
        match f(store.current_lsn()) {
            Ok(v) => return Ok(v),
            Err(e @ Error::InvalidState(_))
                if store.pin_retryable()
                    && t0.elapsed() < taurus_common::config::STALE_PIN_RETRY =>
            {
                let _ = e;
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Key range for scans; bounds are encoded (possibly prefix) keys.
#[derive(Clone, Debug, Default)]
pub struct ScanRange {
    pub lower: Option<(Vec<u8>, bool)>,
    pub upper: Option<(Vec<u8>, bool)>,
}

impl ScanRange {
    pub fn full() -> ScanRange {
        ScanRange::default()
    }

    /// Make this the point range of `key` (a full key, or a prefix and its
    /// key group: both bounds inclusive), reusing the bounds' buffers: a
    /// prepared access re-ranges per probe key without allocating.
    pub fn set_point(&mut self, key: &[u8]) {
        for bound in [&mut self.lower, &mut self.upper] {
            let (bytes, inclusive) = bound.get_or_insert_with(Default::default);
            bytes.clear();
            bytes.extend_from_slice(key);
            *inclusive = true;
        }
    }

    /// Does `key` fall within the range? Prefix bounds use group semantics:
    /// a key *extending* an inclusive bound matches it.
    pub fn contains(&self, key: &[u8]) -> bool {
        if self.before_lower(key) {
            return false;
        }
        if let Some((hi, inc)) = &self.upper {
            let pass = if *inc {
                key <= hi.as_slice() || key.starts_with(hi)
            } else {
                key < hi.as_slice()
            };
            if !pass {
                return false;
            }
        }
        true
    }

    /// Is `key` before every key in the range? An exclusive prefix bound
    /// excludes its whole key group, which may span several leaves.
    pub fn before_lower(&self, key: &[u8]) -> bool {
        match &self.lower {
            None => false,
            Some((lo, true)) => key < lo.as_slice(),
            Some((lo, false)) => key <= lo.as_slice() || key.starts_with(lo),
        }
    }

    /// Is `key` strictly above every key in the range (early scan stop)?
    pub fn past_upper(&self, key: &[u8]) -> bool {
        match &self.upper {
            None => false,
            Some((hi, true)) => key > hi.as_slice() && !key.starts_with(hi),
            Some((hi, false)) => key >= hi.as_slice(),
        }
    }
}

/// Location of a record found by point lookup.
#[derive(Clone, Debug)]
pub struct RecordLoc {
    pub page_no: PageNo,
    pub rec_at: u16,
    pub bytes: Vec<u8>,
}

/// One B+ tree (primary or secondary index).
pub struct BTree {
    pub def: IndexDef,
    root: AtomicU32,
    height: AtomicU32,
    /// Layout of leaf records (the index's stored columns).
    pub leaf_layout: RecordLayout,
    /// Layout of internal node-pointer records: (key bytes, child page no).
    node_layout: RecordLayout,
    /// Positions of the key columns within leaf records.
    pub key_positions: Vec<usize>,
    key_dtypes: Vec<DataType>,
    n_leaves: AtomicU32,
}

pub(crate) fn node_layout() -> RecordLayout {
    RecordLayout::new(vec![DataType::Varchar(2048), DataType::Int])
}

/// Encode a node-pointer record: raw separator key bytes + child page.
pub(crate) fn encode_node_ptr(key: &[u8], child: PageNo, out: &mut Vec<u8>) {
    // Mirrors taurus-page's record encoding for [Varchar(2048), Int]:
    // 13-byte header + 1-byte null bitmap + 2-byte varlen + key + child.
    out.push(RecType::NodePtr as u8);
    out.extend_from_slice(&0u16.to_le_bytes()); // next (page fixes up)
    out.extend_from_slice(&0u16.to_le_bytes()); // heap_no
    out.extend_from_slice(&0u64.to_le_bytes()); // trx_id
    out.push(0); // null bitmap
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(child as i32).to_le_bytes());
}

impl BTree {
    pub fn new(def: IndexDef) -> BTree {
        let stored = def.stored_cols();
        let leaf_layout =
            RecordLayout::new(stored.iter().map(|&c| def.table.columns[c].dtype).collect());
        let key_positions = def.key_positions_in_record();
        let key_dtypes = def.key_dtypes();
        BTree {
            def,
            root: AtomicU32::new(NO_PAGE),
            height: AtomicU32::new(0),
            leaf_layout,
            node_layout: node_layout(),
            key_positions,
            key_dtypes,
            n_leaves: AtomicU32::new(0),
        }
    }

    pub fn root(&self) -> PageNo {
        self.root.load(Ordering::SeqCst)
    }

    pub fn height(&self) -> u32 {
        self.height.load(Ordering::SeqCst)
    }

    pub fn n_leaves(&self) -> u32 {
        self.n_leaves.load(Ordering::SeqCst)
    }

    /// Install the tree's shape directly: the bulk builder sets it after
    /// a bottom-up build, and read replicas set it from replicated
    /// shape/load records (shape lives outside the page substrate, so it
    /// cannot arrive via page redo).
    pub fn set_shape(&self, root: PageNo, height: u32, n_leaves: u32) {
        self.root.store(root, Ordering::SeqCst);
        self.height.store(height, Ordering::SeqCst);
        self.n_leaves.store(n_leaves, Ordering::SeqCst);
    }

    /// Encode the index key of a *stored row* (leaf-record column order).
    pub fn key_of_row(&self, stored_row: &[Value]) -> Vec<u8> {
        let vals: Vec<Value> = self
            .key_positions
            .iter()
            .map(|&p| stored_row[p].clone())
            .collect();
        encode_key(&vals, &self.key_dtypes)
    }

    /// Encode a (possibly prefix) search key from key-column values.
    pub fn encode_search_key(&self, key_values: &[Value]) -> Vec<u8> {
        encode_key(key_values, &self.key_dtypes[..key_values.len()])
    }

    /// [`BTree::encode_search_key`] appended to `out`, from borrowed values
    /// (a lookup join encodes each probe key once, into a buffer it keeps).
    pub fn encode_search_key_into<'v>(
        &self,
        key_values: impl IntoIterator<Item = &'v Value>,
        out: &mut Vec<u8>,
    ) {
        for (v, dtype) in key_values.into_iter().zip(&self.key_dtypes) {
            encode_key_part(v, dtype, out);
        }
    }

    /// Extract the encoded key from a leaf record.
    pub fn key_of_leaf_record(&self, rec: &RecordView<'_>) -> Vec<u8> {
        let mut key = Vec::with_capacity(self.key_positions.len() * 9);
        rec.key_into(&self.key_positions, &mut key);
        key
    }

    fn leaf_key_extractor<'a>(&'a self) -> impl Fn(&'a [u8]) -> Cow<'a, [u8]> {
        move |bytes: &'a [u8]| {
            let view = RecordView::new(bytes, &self.leaf_layout);
            Cow::Owned(self.key_of_leaf_record(&view))
        }
    }

    fn node_key_extractor<'a>(&'a self) -> impl Fn(&'a [u8]) -> Cow<'a, [u8]> {
        move |bytes: &'a [u8]| {
            let view = RecordView::new(bytes, &self.node_layout);
            Cow::Borrowed(view.field_bytes(0))
        }
    }

    /// Child page referenced by a node-pointer record.
    fn node_child(&self, rec: &RecordView<'_>) -> PageNo {
        rec.value(1).as_int().expect("node child") as PageNo
    }

    /// Pick the child to descend into for `key`: the rightmost entry whose
    /// separator is `<= key` (first entry if none).
    fn pick_child(&self, page: &Page, key: &[u8]) -> PageNo {
        let (idx, exact) = page.lower_bound(key, self.node_key_extractor());
        let n = page.n_slots() as usize;
        let pick = if exact { idx } else { idx.saturating_sub(1) }.min(n.saturating_sub(1));
        let off = page
            .slot_offsets()
            .nth(pick)
            .expect("non-empty internal page");
        let rec = RecordView::new(page.record_at(off), &self.node_layout);
        self.node_child(&rec)
    }

    /// Descend from the root to the leaf that may contain `key`, with
    /// every page read pinned at `lsn`. Returns the internal-page path
    /// (for splits) and the leaf. The pin makes the walk a single cut:
    /// on a read replica, a split applied by the tailer *between* the
    /// parent read and the child read would otherwise leave the target
    /// key in a sibling the stale parent pointer never reaches. (On the
    /// master `read_pinned` is a plain read, and writers hold the
    /// structure latch anyway.)
    fn descend(
        &self,
        store: &dyn TreeStore,
        key: &[u8],
        lsn: Lsn,
    ) -> Result<(Vec<Arc<Page>>, Arc<Page>)> {
        let root = self.root();
        if root == NO_PAGE {
            return Err(Error::InvalidState("empty tree".into()));
        }
        let mut path = Vec::new();
        let mut page = store.read_pinned(root, lsn)?;
        while !page.is_leaf() {
            let child = self.pick_child(&page, key);
            path.push(page);
            page = store.read_pinned(child, lsn)?;
        }
        Ok((path, page))
    }

    /// Point lookup by full encoded key.
    pub fn get(&self, store: &dyn TreeStore, key: &[u8]) -> Result<Option<RecordLoc>> {
        if self.root() == NO_PAGE {
            return Ok(None);
        }
        with_pin_retry(store, |lsn| {
            let (_, leaf) = self.descend(store, key, lsn)?;
            let (idx, exact) = leaf.lower_bound(key, self.leaf_key_extractor());
            if !exact {
                return Ok(None);
            }
            let off = leaf.slot_offsets().nth(idx).unwrap();
            let view = RecordView::new(leaf.record_at(off), &self.leaf_layout);
            Ok(Some(RecordLoc {
                page_no: leaf.page_no(),
                rec_at: off,
                bytes: view.raw().to_vec(),
            }))
        })
    }

    /// Insert a stored row. Duplicate full keys are rejected.
    pub fn insert(&self, store: &dyn TreeStore, row: &[Value], trx_id: TrxId) -> Result<()> {
        let _x = store.structure_latch().write();
        let key = self.key_of_row(row);
        let mut rec = Vec::with_capacity(64);
        encode_record(
            &self.leaf_layout,
            row,
            RecordMeta::ordinary(trx_id),
            None,
            &mut rec,
        )?;
        if self.root() == NO_PAGE {
            return Err(Error::InvalidState(
                "insert into un-built tree: bulk_build first (0 rows is fine)".into(),
            ));
        }
        let (path, leaf) = self.descend(store, &key, store.current_lsn())?;
        let (idx, exact) = leaf.lower_bound(&key, self.leaf_key_extractor());
        if exact {
            return Err(Error::InvalidState(format!(
                "duplicate key in index {}",
                self.def.name
            )));
        }
        if leaf.fits(rec.len()) {
            return store.write(vec![RedoOp::InsertRecord {
                page_no: leaf.page_no(),
                slot_idx: idx as u16,
                rec,
            }]);
        }
        self.split_and_insert(store, path, leaf, idx, rec)
    }

    /// Split `leaf` and insert. Both halves are rewritten as full page
    /// images (coarser than InnoDB's redo, but identical in effect).
    fn split_and_insert(
        &self,
        store: &dyn TreeStore,
        path: Vec<Arc<Page>>,
        leaf: Arc<Page>,
        insert_idx: usize,
        rec: Vec<u8>,
    ) -> Result<()> {
        let mut recs: Vec<Vec<u8>> = leaf
            .slot_offsets()
            .map(|off| {
                RecordView::new(leaf.record_at(off), &self.leaf_layout)
                    .raw()
                    .to_vec()
            })
            .collect();
        recs.insert(insert_idx, rec);
        let mid = recs.len() / 2;
        let right_no = store.allocate();
        let page_size = leaf.byte_len();
        let mut left = Page::new_index(page_size, leaf.space(), leaf.page_no(), leaf.index_id(), 0);
        let mut right = Page::new_index(page_size, leaf.space(), right_no, leaf.index_id(), 0);
        for r in &recs[..mid] {
            left.append_record(r)?;
        }
        for r in &recs[mid..] {
            right.append_record(r)?;
        }
        left.set_prev(leaf.prev());
        left.set_next(right_no);
        right.set_prev(leaf.page_no());
        right.set_next(leaf.next());
        let mut ops = Vec::with_capacity(4);
        if leaf.next() != NO_PAGE {
            ops.push(RedoOp::SetPrev {
                page_no: leaf.next(),
                prev: right_no,
            });
        }
        ops.push(RedoOp::NewPage(left));
        ops.push(RedoOp::NewPage(right));
        let sep = {
            let v = RecordView::new(&recs[mid], &self.leaf_layout);
            self.key_of_leaf_record(&v)
        };
        let mut node_rec = Vec::with_capacity(sep.len() + 24);
        encode_node_ptr(&sep, right_no, &mut node_rec);
        self.n_leaves.fetch_add(1, Ordering::SeqCst);
        self.insert_into_parent(store, path, leaf.page_no(), node_rec, sep, ops)
    }

    /// Insert a node-pointer record into the parent, splitting upward as
    /// needed; `ops` accumulates and is written once at the end.
    fn insert_into_parent(
        &self,
        store: &dyn TreeStore,
        mut path: Vec<Arc<Page>>,
        left_child: PageNo,
        node_rec: Vec<u8>,
        sep: Vec<u8>,
        mut ops: Vec<RedoOp>,
    ) -> Result<()> {
        match path.pop() {
            None => {
                // Root split: a new root pointing at both halves.
                let new_root_no = store.allocate();
                let page_size = store.read(self.root())?.byte_len();
                let mut root = Page::new_index(
                    page_size,
                    self.def.space,
                    new_root_no,
                    self.def.index_id.0,
                    self.height() as u16,
                );
                let mut left_ptr = Vec::with_capacity(24);
                encode_node_ptr(&[], left_child, &mut left_ptr); // -infinity
                root.append_record(&left_ptr)?;
                root.append_record(&node_rec)?;
                ops.push(RedoOp::NewPage(root));
                store.write(ops)?;
                self.root.store(new_root_no, Ordering::SeqCst);
                self.height.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            Some(parent) => {
                let (idx, _) = parent.lower_bound(&sep, self.node_key_extractor());
                if parent.fits(node_rec.len()) {
                    ops.push(RedoOp::InsertRecord {
                        page_no: parent.page_no(),
                        slot_idx: idx as u16,
                        rec: node_rec,
                    });
                    return store.write(ops);
                }
                let mut recs: Vec<Vec<u8>> = parent
                    .slot_offsets()
                    .map(|off| {
                        RecordView::new(parent.record_at(off), &self.node_layout)
                            .raw()
                            .to_vec()
                    })
                    .collect();
                recs.insert(idx, node_rec);
                let mid = recs.len() / 2;
                let right_no = store.allocate();
                let page_size = parent.byte_len();
                let mut left = Page::new_index(
                    page_size,
                    parent.space(),
                    parent.page_no(),
                    parent.index_id(),
                    parent.level(),
                );
                let mut right = Page::new_index(
                    page_size,
                    parent.space(),
                    right_no,
                    parent.index_id(),
                    parent.level(),
                );
                for r in &recs[..mid] {
                    left.append_record(r)?;
                }
                for r in &recs[mid..] {
                    right.append_record(r)?;
                }
                left.set_prev(parent.prev());
                left.set_next(right_no);
                right.set_prev(parent.page_no());
                right.set_next(parent.next());
                if parent.next() != NO_PAGE {
                    ops.push(RedoOp::SetPrev {
                        page_no: parent.next(),
                        prev: right_no,
                    });
                }
                let up_sep = RecordView::new(&recs[mid], &self.node_layout)
                    .field_bytes(0)
                    .to_vec();
                ops.push(RedoOp::NewPage(left));
                ops.push(RedoOp::NewPage(right));
                let mut up_rec = Vec::with_capacity(up_sep.len() + 24);
                encode_node_ptr(&up_sep, right_no, &mut up_rec);
                self.insert_into_parent(store, path, parent.page_no(), up_rec, up_sep, ops)
            }
        }
    }

    /// Set/clear the delete mark, stamping `trx_id` as the writer.
    /// Returns the previous record image (for the undo log).
    pub fn set_delete_mark(
        &self,
        store: &dyn TreeStore,
        key: &[u8],
        trx_id: TrxId,
        mark: bool,
    ) -> Result<Vec<u8>> {
        let _x = store.structure_latch().write();
        let loc = self
            .get(store, key)?
            .ok_or_else(|| Error::NotFound(format!("key in {}", self.def.name)))?;
        store.write(vec![
            RedoOp::SetDeleteMark {
                page_no: loc.page_no,
                rec_at: loc.rec_at,
                mark,
            },
            RedoOp::WriteBytes {
                page_no: loc.page_no,
                at: loc.rec_at + 5,
                bytes: trx_id.to_le_bytes().to_vec(),
            },
        ])?;
        Ok(loc.bytes)
    }

    /// Update a row in place. Only same-length images are supported (all
    /// fixed-width columns); size-changing updates would relocate the
    /// record, which this reproduction does not need. Returns the previous
    /// image.
    pub fn update_in_place(
        &self,
        store: &dyn TreeStore,
        row: &[Value],
        trx_id: TrxId,
    ) -> Result<Vec<u8>> {
        let _x = store.structure_latch().write();
        let key = self.key_of_row(row);
        let loc = self
            .get(store, &key)?
            .ok_or_else(|| Error::NotFound(format!("key in {}", self.def.name)))?;
        let mut rec = Vec::with_capacity(loc.bytes.len());
        encode_record(
            &self.leaf_layout,
            row,
            RecordMeta::ordinary(trx_id),
            None,
            &mut rec,
        )?;
        if rec.len() != loc.bytes.len() {
            return Err(Error::InvalidState(
                "variable-length update would move the record; unsupported".into(),
            ));
        }
        // Preserve the in-page chain pointer and heap number.
        rec[1..5].copy_from_slice(&loc.bytes[1..5]);
        store.write(vec![RedoOp::WriteBytes {
            page_no: loc.page_no,
            at: loc.rec_at,
            bytes: rec,
        }])?;
        Ok(loc.bytes)
    }

    /// Find the first leaf whose records may intersect `range`.
    pub fn seek_leaf(&self, store: &dyn TreeStore, range: &ScanRange) -> Result<Option<Arc<Page>>> {
        if self.root() == NO_PAGE {
            return Ok(None);
        }
        // Pinned descent (see `descend`); the chain walk that follows is
        // split-safe without a fixed pin — each page's at-cut `next`
        // leads to its at-cut successor and keys only move rightward.
        with_pin_retry(store, |lsn| match &range.lower {
            Some((key, _)) => {
                let (_, leaf) = self.descend(store, key, lsn)?;
                Ok(Some(leaf))
            }
            None => {
                let mut page = store.read_pinned(self.root(), lsn)?;
                while !page.is_leaf() {
                    let off = page
                        .slot_offsets()
                        .next()
                        .ok_or_else(|| Error::Corruption("empty internal page".into()))?;
                    let rec = RecordView::new(page.record_at(off), &self.node_layout);
                    let child = self.node_child(&rec);
                    page = store.read_pinned(child, lsn)?;
                }
                Ok(Some(page))
            }
        })
    }

    /// The leaves a lookup of `key` (full, or a prefix with its key group)
    /// reads, appended to `out`: a descent that stops at level 1 names the
    /// child the key falls in and the children after it whose separators
    /// still extend `key`. A group running on into the next level-1 page
    /// is cut off there; the return value says whether the run is provably
    /// complete (it ended on a separator past the group, or on the tree's
    /// last leaf).
    ///
    /// Master only, and nothing is latched or pinned here. A caller that
    /// holds nothing gets a prefetch hint: a concurrent split can leave
    /// the answer short or stale, and whoever fetches these pages must
    /// read through the tree afterwards all the same. A caller that holds
    /// the structure latch shared, with [`TreeStore::current_lsn`] taken
    /// under it (what [`BTree::collect_leaf_batch`] does for a scan), gets
    /// the key's leaves as of that cut, and page versions read at that LSN
    /// hold exactly the records the run held then.
    pub fn leaves_of_key(
        &self,
        store: &dyn TreeStore,
        key: &[u8],
        out: &mut Vec<PageNo>,
    ) -> Result<bool> {
        let root = self.root();
        if root == NO_PAGE {
            return Ok(true);
        }
        let mut page = store.read(root)?;
        if page.is_leaf() {
            out.push(root);
            return Ok(true);
        }
        while page.level() > 1 {
            page = store.read(self.pick_child(&page, key))?;
        }
        let (idx, exact) = page.lower_bound(key, self.node_key_extractor());
        let first = if exact { idx } else { idx.saturating_sub(1) };
        for (i, off) in page.slot_offsets().enumerate().skip(first) {
            let rec = RecordView::new(page.record_at(off), &self.node_layout);
            if i > first && !rec.field_bytes(0).starts_with(key) {
                return Ok(true);
            }
            out.push(self.node_child(&rec));
        }
        Ok(page.next() == NO_PAGE)
    }

    /// §IV-C4 batch extraction: under the shared structure latch, walk
    /// level-1 pages collecting up to `max_pages` child leaf page numbers
    /// within `range`, starting at `resume_at` (a separator key returned by
    /// a previous call). The LSN is captured while latched. Returns
    /// `(leaf page numbers, lsn, resume key for the next batch)`.
    pub fn collect_leaf_batch(
        &self,
        store: &dyn TreeStore,
        range: &ScanRange,
        resume_at: Option<&[u8]>,
        max_pages: usize,
    ) -> Result<(Vec<PageNo>, Lsn, Option<Vec<u8>>)> {
        // The retry wrapper re-runs the whole extraction at a fresh cut
        // when a replica's pinned walk ages out of version retention; the
        // LSN itself is captured *under* the latch (writers cannot
        // interleave between capture and walk on the master).
        with_pin_retry(store, |_| {
            self.collect_leaf_batch_once(store, range, resume_at, max_pages)
        })
    }

    fn collect_leaf_batch_once(
        &self,
        store: &dyn TreeStore,
        range: &ScanRange,
        resume_at: Option<&[u8]>,
        max_pages: usize,
    ) -> Result<(Vec<PageNo>, Lsn, Option<Vec<u8>>)> {
        let _s = store.structure_latch().read();
        let lsn = store.current_lsn();
        if self.root() == NO_PAGE {
            return Ok((Vec::new(), lsn, None));
        }
        if self.height() <= 1 {
            // Root is the only leaf: nothing to batch beyond it.
            let pages = if resume_at.is_some() {
                Vec::new()
            } else {
                vec![self.root()]
            };
            return Ok((pages, lsn, None));
        }
        let start_key: Option<&[u8]> = match (resume_at, &range.lower) {
            (Some(k), _) => Some(k),
            (None, Some((k, _))) => Some(k.as_slice()),
            (None, None) => None,
        };
        // Descend to the level-1 page covering the start key. The whole
        // walk is pinned at the captured LSN: the leaf set this batch
        // enumerates must come from the same cut its pages are fetched
        // at (see `TreeStore::read_pinned`).
        let mut page = store.read_pinned(self.root(), lsn)?;
        while page.level() > 1 {
            let child = match start_key {
                Some(k) => self.pick_child(&page, k),
                None => {
                    let off = page.slot_offsets().next().unwrap();
                    self.node_child(&RecordView::new(page.record_at(off), &self.node_layout))
                }
            };
            page = store.read_pinned(child, lsn)?;
        }
        let mut out: Vec<PageNo> = Vec::new();
        let mut resume: Option<Vec<u8>> = None;
        'outer: loop {
            let offs: Vec<u16> = page.slot_offsets().collect();
            for (i, off) in offs.iter().enumerate() {
                let rec = RecordView::new(page.record_at(*off), &self.node_layout);
                let sep = rec.field_bytes(0);
                if out.is_empty() && resume.is_none() {
                    // Skip children that end at or before the start key.
                    if let Some(k) = start_key {
                        if let Some(next_off) = offs.get(i + 1) {
                            let next_sep =
                                RecordView::new(page.record_at(*next_off), &self.node_layout)
                                    .field_bytes(0);
                            if !next_sep.is_empty() && next_sep <= k {
                                continue;
                            }
                        }
                    }
                }
                // Child starts past the range: stop (boundary awareness).
                if !sep.is_empty() && range.past_upper(sep) {
                    break 'outer;
                }
                if out.len() >= max_pages {
                    resume = Some(sep.to_vec());
                    break 'outer;
                }
                out.push(self.node_child(&rec));
            }
            match page.next() {
                NO_PAGE => break,
                next => page = store.read_pinned(next, lsn)?,
            }
        }
        Ok((out, lsn, resume))
    }
}
