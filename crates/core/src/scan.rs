//! Scans: the regular InnoDB path and the NDP path (§III, §IV-C).
//!
//! The NDP scan is where the paper's machinery comes together:
//!
//! 1. descend to level 1 under the shared structure latch, extract up to
//!    `innodb_ndp_max_pages_look_ahead` child leaf page numbers bounded by
//!    the scan range, and capture the LSN (§IV-C4);
//! 2. check the buffer pool: already-cached pages are *copied* into the
//!    NDP area (no I/O, completed by InnoDB — §IV-C4), the rest go into
//!    one batch read that the SAL fans out across Page Stores;
//! 3. consume the returned pages **in logical page order** regardless of
//!    Page Store completion order ("the logical page ordering is enforced
//!    in the frontend storage engine" — §IV-D), releasing each NDP frame
//!    as soon as its page is drained;
//! 4. complete whatever NDP work storage did not do: raw pages (resource
//!    control skips), buffer-pool copies, and ambiguous records (full
//!    read-view visibility + undo reconstruction) — the four cases of
//!    §V-B1.
//!
//! Steps 1–3 run as a **prefetch pipeline**: up to
//! `ndp.prefetch_batches` leaf batches are in flight at once, each with
//! its own streaming SAL fan-out ([`taurus_sal::Sal::batch_read_streaming_ctx`]),
//! so batch N+1's Page Store work overlaps batch N's consumption. The
//! per-scan frame quota is split across the in-flight batches — see
//! [`ndp_scan`] and DESIGN.md's "NDP prefetch pipeline" section.
//!
//! Everything above the scan sees only rows and aggregate partials through
//! [`ScanConsumer`] — "the MySQL query execution layers above the storage
//! engine are unaware of NDP processing".
//!
//! A record is read once. The chain walk and [`RecordView::parse`] check
//! it against the page (a damaged page is [`Error::Corruption`], never a
//! panic or a hang); whatever predicate work storage did not do — the
//! pushed predicate on raw, cached and ambiguous records, and the
//! executor's residual conjuncts on every record — runs on its bytes
//! ([`RecordFilter`]: each conjunct compiled once per scan and run on the
//! record VM); and only a survivor is decoded, by a
//! per-scan [`DecodePlan`], straight into the output batch, or not at all
//! when the consumer folds records ([`ScanConsumer::fold_records`]): a
//! `HashAgg` over the scan takes each survivor's bytes. The record's
//! key is encoded only when a range check or the undo lookup of an
//! invisible record needs it, into a reused buffer; a range is checked
//! where it can fail, up to the first record inside the lower bound and
//! on the scan's last page.
//!
//! Delivery is **batch-at-a-time**: survivors accumulate into one batch
//! (`ClusterConfig::scan_batch_rows`, default 1024) that is handed to the
//! consumer when it is full, before an aggregate partial (so a partial
//! stays right behind its carrier row) and at scan end — not at every
//! page boundary: the batch owns its values, so a page's frame is released
//! as soon as the page drains whether or not the batch went out. A batch
//! that fills slowly (a rare predicate) still goes out once
//! [`HOLD_PAGES_MAX`] pages have passed without a hand-off, so the first
//! row of a `LIMIT 1` does not wait for the end of the table.
//! Deadlines are checked at page boundaries; a consumer's stop is learned
//! at the next hand-off. The batch is a [`RowBatch`], lent by `&mut`
//! through [`ScanConsumer::on_batch_mut`] so a consumer that keeps the
//! rows can take the whole batch instead of copying it.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use taurus_btree::{ScanRange, TreeStore};
use taurus_bufferpool::{BufferPool, NdpFrameGuard};
use taurus_common::{DataType, Error, Metrics, PageNo, QueryCtx, Result, RowBatch, Value};
use taurus_expr::agg::{AggFunc, AggInput, AggSpec, AggState};
use taurus_expr::ast::Expr;
use taurus_expr::descriptor::{
    encode_join_filter, encode_key_set, KeyBloom, NdpAggSpec, NdpDescriptor,
};
use taurus_expr::vm::RecordFilter;
use taurus_mvcc::ReadView;
use taurus_page::{DecodePlan, Page, PageType, RecType, RecordLayout, RecordView};
use taurus_pagestore::PagePayload;
use taurus_sal::BatchReadHandle;

use crate::engine::{Table, TableIndex, TaurusDb};

/// The most pages a scan reads without a hand-off while it holds rows: a
/// consumer waiting for few rows (`WHERE rare LIMIT 1`) gets them, and can
/// stop the scan, at most this many pages after the page that held the
/// first. Far enough apart that hand-offs stay amortized (an unselective
/// scan fills its batch in three pages).
pub const HOLD_PAGES_MAX: u32 = 16;

/// The most leaf pages a lookup join fetches in one storage round trip
/// (and never more than a quarter of the pool:
/// [`crate::SpaceStore::prefetch_chunk_pages`]). A round trip costs two
/// wire transfers whatever it carries, so 32 pages to a request take it
/// from two thirds of a page's fetch time to a few percent; past that
/// there is little left to amortize, and the pages of one request all sit
/// in the pool before the first is probed.
pub const LOOKUP_PREFETCH_PAGES_MAX: usize = 32;

/// Sizing of a hash join's [`JoinFilter`]: about this many bits a build
/// key, in whole 64-bit words, never more than [`JOIN_FILTER_MAX_BYTES`],
/// and [`JOIN_FILTER_PROBES`] bits a key. Ten bits and three probes let
/// about 1.7 % of the records no key matches through; the cap keeps the
/// section, which goes with every batch read of the probe scan, under
/// half a page.
pub const JOIN_FILTER_BITS_PER_KEY: usize = 10;
pub const JOIN_FILTER_MAX_BYTES: usize = 8192;
pub const JOIN_FILTER_PROBES: u32 = 3;

/// Rows in the output batch a [`PointLookup`] keeps for its lifetime. A
/// key group is a handful of rows (a longer one is handed over in several
/// batches), and a full-size batch buffer held by every lookup join of
/// every running statement is resident memory that does nothing.
const POINT_BATCH_ROWS: usize = 64;

/// Aggregation requested from a scan (column refs are *table* columns).
#[derive(Clone, Debug)]
pub struct ScanAggregation {
    pub specs: Vec<AggItem>,
    /// GROUP BY columns, in any order.
    pub group_cols: Vec<usize>,
    /// HAVING conjuncts the Page Stores apply to the groups complete on a
    /// page, over a group's outputs: its `group_cols` values, then the
    /// final value of each of `specs`. Only for a GROUP BY that is a prefix
    /// of the index key; the SQL node still applies the whole HAVING.
    pub having: Option<Expr>,
}

/// One aggregate: a function over an expression (`None` for COUNT(*)),
/// the same from a plan's aggregation down to the Page Store. Asked of a
/// scan, the expression is over table columns, and a bare column goes to
/// the descriptor as a column, anything else as an IR program.
#[derive(Clone, Debug, PartialEq)]
pub struct AggItem {
    pub func: AggFunc,
    pub input: Option<Expr>,
}

/// The optimizer's per-table-access NDP decision (§IV-B): any subset of
/// {projection, predicate, aggregation} may be enabled.
#[derive(Clone, Debug, Default)]
pub struct NdpChoice {
    /// Table columns to keep (key columns are added automatically).
    pub projection: Option<Vec<usize>>,
    /// Pushed predicate over table columns. When aggregation is pushed,
    /// this predicate must subsume the scan's range condition (the
    /// optimizer guarantees it; see DESIGN.md).
    pub predicate: Option<Expr>,
    pub aggregation: Option<ScanAggregation>,
}

impl NdpChoice {
    pub fn is_empty(&self) -> bool {
        self.projection.is_none() && self.predicate.is_none() && self.aggregation.is_none()
    }
}

/// A fully-specified table access.
#[derive(Clone, Debug)]
pub struct ScanSpec {
    /// Which index: 0 = primary, i+1 = secondaries[i].
    pub index: usize,
    pub range: ScanRange,
    /// NDP decision; `None` = classical scan.
    pub ndp: Option<NdpChoice>,
    /// Table columns the scan delivers, in this order. All must be stored
    /// in the chosen index.
    pub output_cols: Vec<usize>,
}

/// A hash join's build keys, for its probe scan to send with every batch
/// read ([`scan_ctx`]): a Bloom filter over the distinct non-NULL
/// integer keys, sized by [`JOIN_FILTER_BITS_PER_KEY`], and the probe
/// table's join column it applies to.
pub struct JoinFilter {
    column: usize,
    keys: usize,
    bloom: KeyBloom,
}

impl JoinFilter {
    /// The filter over `keys` (distinct) for the probe table's `column`.
    pub fn new(column: usize, keys: &[i64]) -> JoinFilter {
        let words = (keys.len() * JOIN_FILTER_BITS_PER_KEY)
            .div_ceil(64)
            .clamp(1, JOIN_FILTER_MAX_BYTES / 8);
        let mut bloom = KeyBloom::new(words, JOIN_FILTER_PROBES);
        for &key in keys {
            bloom.insert(key);
        }
        JoinFilter {
            column,
            keys: keys.len(),
            bloom,
        }
    }

    /// Append the join-filter section for records of `index` to `stream`.
    fn encode(&self, index: &TableIndex, stream: &mut Vec<u8>) -> Result<()> {
        let tree = &index.tree;
        let pos = tree
            .def
            .stored_cols()
            .iter()
            .position(|&c| c == self.column);
        match pos.map(|p| (p, tree.leaf_layout.dtypes[p])) {
            Some((pos, DataType::Int | DataType::BigInt)) => {
                encode_join_filter(pos as u16, &self.bloom, stream);
                Ok(())
            }
            _ => Err(Error::InvalidState(format!(
                "join filter column {} is no integer column of index {}",
                self.column, tree.def.name
            ))),
        }
    }
}

/// Receives scan output. Rows arrive in index-key order; aggregate
/// partials follow their carrier row immediately (the scan flushes its
/// batch before delivering a partial).
///
/// The scan core hands rows over only through
/// [`ScanConsumer::on_batch_mut`], which lends the batch to
/// [`ScanConsumer::on_batch`], whose default unbatches into
/// [`ScanConsumer::on_row`]: simple (test/diagnostic) consumers need not
/// know about batches, consumers that read rows override `on_batch` and
/// amortize per-row dispatch away, and consumers that *keep* the rows
/// override `on_batch_mut` and take the batch instead of copying it. A
/// consumer that folds what it receives (a `HashAgg` over the scan) can
/// instead take each result record as it is, the way a Page Store folds
/// records: it says so once per scan ([`ScanConsumer::fold_records`]), and
/// each record then costs one call of [`ScanConsumer::on_record`] and no
/// decode into a batch.
///
/// Returning `false` is the engine's **cancellation contract**: the
/// executor's pull pipeline maps a closed batch channel (dropped stream,
/// satisfied LIMIT) onto it, so storage-side work — look-ahead
/// extraction, batch reads, NDP frames — stops within one batch of the
/// consumer losing interest. No further callback is made after a
/// `false`.
pub trait ScanConsumer {
    /// A row (values in `output_cols` order). Return `false` to stop.
    fn on_row(&mut self, row: &[Value]) -> Result<bool>;

    /// A batch of rows (each in `output_cols` order). Return `false` to
    /// stop the scan; stopping mid-batch discards the batch's remaining
    /// rows, exactly like returning `false` from `on_row` always has.
    fn on_batch(&mut self, batch: &RowBatch) -> Result<bool> {
        for row in batch.rows() {
            if !self.on_row(row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The scan's filled batch, by mutable reference, so a consumer that
    /// keeps the rows can take them: swap the batch for an empty one of
    /// the same width and capacity and move the full one on (a stream
    /// channel, a collector) without copying a value. Whatever the
    /// consumer leaves behind is cleared and refilled. The default lends
    /// the batch to [`ScanConsumer::on_batch`].
    fn on_batch_mut(&mut self, batch: &mut RowBatch) -> Result<bool> {
        self.on_batch(batch)
    }

    /// Partial aggregate states attached to the just-delivered carrier row.
    fn on_partial(&mut self, states: Vec<AggState>) -> Result<bool>;

    /// Does this consumer fold records instead of taking rows? Asked once,
    /// when the scan starts, with every layout its records can come in
    /// (the leaf layout first, then the NDP layout when the scan can
    /// receive NDP pages). A consumer that answers `true` is handed each
    /// result record through [`ScanConsumer::on_record`], its bytes after
    /// the residual, and no row is decoded for it; rows are counted as
    /// if they had been batched. The default takes rows.
    fn fold_records(&mut self, layouts: &[ScanLayout<'_>]) -> Result<bool> {
        let _ = layouts;
        Ok(false)
    }

    /// One result record of a scan this consumer folds, read with
    /// `layouts[layout]` of [`ScanConsumer::fold_records`]. Return
    /// `false` to stop.
    fn on_record(&mut self, rec: RecordView<'_>, layout: usize) -> Result<bool> {
        let _ = (rec, layout);
        Err(Error::Internal(
            "a scan folded records into a consumer of rows".into(),
        ))
    }
}

/// A layout a scan's records come in, for a consumer that folds them
/// ([`ScanConsumer::fold_records`]): the layout, and each output column's
/// position in it.
#[derive(Clone, Copy)]
pub struct ScanLayout<'a> {
    pub layout: &'a RecordLayout,
    pub output: &'a [usize],
}

/// Scan-side statistics for one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScanStats {
    /// Rows handed to the consumer, counted at batch granularity: a
    /// consumer that stops mid-batch still received the whole batch, so
    /// the count may exceed what it retained by up to one batch.
    pub rows_delivered: u64,
    pub pages_total: u64,
    pub pages_from_cache: u64,
    pub pages_ndp: u64,
    pub pages_raw: u64,
    pub partials_merged: u64,
    pub ambiguous_resolved: u64,
}

/// Build the NDP descriptor for a choice (col refs rebased onto record
/// positions — the Page Store needs no table schema).
pub fn build_descriptor(
    index: &TableIndex,
    choice: &NdpChoice,
    low_watermark: u64,
) -> Result<NdpDescriptor> {
    let tree = &index.tree;
    let stored = tree.def.stored_cols();
    let pos_of = |table_col: usize| -> Result<u16> {
        stored
            .iter()
            .position(|&c| c == table_col)
            .map(|p| p as u16)
            .ok_or_else(|| {
                Error::InvalidState(format!(
                    "column {table_col} not stored in index {}",
                    tree.def.name
                ))
            })
    };
    let key_positions: Vec<u16> = tree.key_positions.iter().map(|&p| p as u16).collect();
    // An expression over table columns as IR bitcode over record
    // positions.
    let bitcode = |e: &Expr| -> Result<Vec<u8>> {
        for c in e.columns() {
            pos_of(c)?;
        }
        // lint:allow(panic): every referenced column was just resolved
        let remapped = e.remap_columns(&|c| pos_of(c).expect("checked above") as usize);
        taurus_expr::compile::lower_for_ndp(&remapped)?.encode_bitcode()
    };
    let projection = match &choice.projection {
        None => None,
        Some(cols) => {
            let mut keep: Vec<u16> = cols.iter().map(|&c| pos_of(c)).collect::<Result<_>>()?;
            keep.extend_from_slice(&key_positions);
            // A carrier goes out projected, and the SQL node folds its own
            // values and reads its group: every column an input reads and
            // every group column stays.
            if let Some(agg) = &choice.aggregation {
                for c in agg
                    .specs
                    .iter()
                    .flat_map(|s| s.input.iter().flat_map(Expr::columns))
                {
                    keep.push(pos_of(c)?);
                }
                for &g in &agg.group_cols {
                    keep.push(pos_of(g)?);
                }
            }
            keep.sort_unstable();
            keep.dedup();
            Some(keep)
        }
    };
    let predicate_bitcode = choice.predicate.as_ref().map(bitcode).transpose()?;
    let aggregation = match &choice.aggregation {
        None => None,
        Some(a) => Some(NdpAggSpec {
            specs: a
                .specs
                .iter()
                .map(|s| {
                    let input = match &s.input {
                        None => AggInput::Star,
                        Some(Expr::Col(c)) => AggInput::Col(pos_of(*c)?),
                        Some(e) => AggInput::Program(bitcode(e)?),
                    };
                    Ok(AggSpec {
                        func: s.func,
                        input,
                    })
                })
                .collect::<Result<_>>()?,
            group_cols: a
                .group_cols
                .iter()
                .map(|&c| pos_of(c))
                .collect::<Result<_>>()?,
            // Over a group's outputs, not table columns: nothing to remap.
            having: a
                .having
                .as_ref()
                .map(|e| taurus_expr::compile::lower_for_ndp(e)?.encode_bitcode())
                .transpose()?,
        }),
    };
    let d = NdpDescriptor {
        index_id: tree.def.index_id.0,
        record_dtypes: tree.leaf_layout.dtypes.clone(),
        key_positions,
        projection,
        predicate_bitcode,
        aggregation,
        low_watermark,
    };
    d.validate()?;
    Ok(d)
}

/// How the records of one layout are read: the output columns'
/// positions in it and the decode plan over them, the key columns'
/// positions, and the residual conjuncts compiled for that layout. `id`
/// is the layout's place in what a folding consumer is told
/// ([`ScanConsumer::fold_records`]): 0 the leaf layout, 1 the NDP one.
struct Shape {
    id: usize,
    out_pos: Vec<usize>,
    plan: DecodePlan,
    key_pos: Vec<usize>,
    residual: RecordFilter,
}

impl Shape {
    fn new(
        id: usize,
        layout: &RecordLayout,
        out_pos: Vec<usize>,
        key_pos: Vec<usize>,
        residual: RecordFilter,
    ) -> Shape {
        Shape {
            id,
            plan: DecodePlan::new(layout, &out_pos),
            out_pos,
            key_pos,
            residual,
        }
    }
}

/// Whether a table access sends Page Stores a descriptor, and so can
/// receive NDP pages.
#[derive(Clone, Copy)]
enum NdpReads {
    /// Never: NDP is off, or the access is a point lookup.
    Off,
    /// When its NDP choice pushes work (an NDP scan).
    Choice,
    /// Always, a bare descriptor when its choice pushes nothing: the key
    /// set of a key read or the join filter of a probe scan is work
    /// enough.
    Always,
}

/// What a table access compiles to, for any range of its index: resolved
/// **once per scan**, or once per [`PointLookup`] for all of its probes.
/// Layouts, decode plans and compiled filters are borrowed from here,
/// never rebuilt per page or per record.
struct Compiled {
    /// Stored-layout records: leaves, and the ambiguous records of an NDP
    /// page.
    full: Shape,
    /// NDP records (the columns the descriptor keeps under the NDP
    /// header), when the access sends a descriptor.
    ndp: Option<(RecordLayout, Shape)>,
    /// The pushed predicate over full-layout records, for what storage
    /// did not filter: raw and cached pages, ambiguous records.
    pushed: RecordFilter,
    /// The descriptor shipped to Page Stores, when the access sends one.
    descriptor: Option<NdpDescriptor>,
}

/// One execution of a compiled access over one range: what [`Compiled`]
/// resolved, and what it runs against.
struct ScanCtx<'a> {
    db: &'a TaurusDb,
    index: &'a TableIndex,
    spec: &'a ScanSpec,
    view: &'a ReadView,
    /// Query context: tenant attribution for storage-side admission and
    /// the deadline that bounds the whole scan.
    qctx: QueryCtx,
    c: &'a Compiled,
}

/// The mutable side of a scan: statistics, the one output batch and the
/// scratch buffers per-record work reuses. Kept apart from [`ScanCtx`] so
/// delivery can mutate it while record views still borrow the context's
/// layouts.
struct ScanState {
    stats: ScanStats,
    batch: RowBatch,
    /// The consumer folds records ([`ScanConsumer::fold_records`]): none
    /// goes into `batch`, and `folded` counts the ones handed over since
    /// the last flush, which are charged as the batch they replace.
    folds: bool,
    folded: usize,
    /// Visible records examined since the last flush (`rows_scanned`).
    examined: u64,
    /// Page boundaries passed since the last hand-off.
    pages_held: u32,
    /// No record inside the range's lower bound has been seen yet. The
    /// records before an inclusive bound all sit on the scan's first page,
    /// but an exclusive prefix bound shuts out a whole key group, which
    /// may run on over several pages: every record's key is checked until
    /// one is inside.
    seek_lower: bool,
    /// The current record's encoded key, when something asked for it.
    key: Vec<u8>,
    /// Each output column's last decoded string, shared by the records
    /// that repeat it ([`DecodePlan::values_after`]).
    last_strings: Vec<Value>,
}

impl ScanState {
    /// Make a prepared access's state ready for its next run (whatever a
    /// failed one left behind goes first). `seek_lower`: the run has a
    /// lower bound to find.
    fn restart(&mut self, seek_lower: bool) {
        self.batch.clear();
        self.folded = 0;
        self.examined = 0;
        self.pages_held = 0;
        self.seek_lower = seek_lower;
    }

    /// Result rows held since the last hand-off: the batch's, or the
    /// records folded in its place.
    fn held_rows(&self) -> usize {
        match self.folds {
            true => self.folded,
            false => self.batch.len(),
        }
    }
}

/// What the record loop does after one record.
enum Step {
    Next,
    /// The consumer asked to stop.
    Stop,
    /// The record lies beyond the range's upper bound, and so does every
    /// record after it.
    PastUpper,
}

impl Compiled {
    /// The layouts a folding consumer is told of, in [`Shape::id`] order.
    fn layouts<'a>(&'a self, leaf: &'a RecordLayout) -> Vec<ScanLayout<'a>> {
        let mut layouts = vec![ScanLayout {
            layout: leaf,
            output: &self.full.out_pos,
        }];
        if let Some((layout, shape)) = &self.ndp {
            layouts.push(ScanLayout {
                layout,
                output: &shape.out_pos,
            });
        }
        layouts
    }

    fn new(
        table: &Table,
        spec: &ScanSpec,
        residual: &[Expr],
        view: &ReadView,
        reads: NdpReads,
    ) -> Result<Compiled> {
        let index = table.index(spec.index);
        let tree = &index.tree;
        let stored = tree.def.stored_cols();
        let pos_of = |c: usize, what: &str| {
            stored.iter().position(|&s| s == c).ok_or_else(|| {
                Error::InvalidState(format!(
                    "{what} column {c} not stored in index {}",
                    tree.def.name
                ))
            })
        };
        let out_pos: Vec<usize> = spec
            .output_cols
            .iter()
            .map(|&c| pos_of(c, "output"))
            .collect::<Result<_>>()?;
        // Expressions over table columns, rebased onto record positions.
        let on_record = |e: &Expr| -> Result<Expr> {
            for c in e.columns() {
                pos_of(c, "predicate")?;
            }
            // lint:allow(panic): every referenced column was just resolved
            Ok(e.remap_columns(&|c| pos_of(c, "predicate").expect("checked above")))
        };
        let residual: Vec<Expr> = residual.iter().map(on_record).collect::<Result<_>>()?;
        let choice = spec.ndp.as_ref().filter(|c| !c.is_empty());
        if !residual.is_empty() && choice.is_some_and(|c| c.aggregation.is_some()) {
            // A residual could drop the carrier row of a storage-side
            // partial (§V-C: aggregation is pushed only with no residual).
            return Err(Error::InvalidState(
                "NDP aggregation with a residual predicate".into(),
            ));
        }
        let watermark = view.low_watermark();
        let descriptor = match (reads, choice) {
            (NdpReads::Off, _) | (NdpReads::Choice, None) => None,
            (_, Some(c)) => Some(build_descriptor(index, c, watermark)?),
            (NdpReads::Always, None) => {
                Some(build_descriptor(index, &NdpChoice::default(), watermark)?)
            }
        };
        let full_layout = &tree.leaf_layout;
        let ndp = match &descriptor {
            None => None,
            Some(d) => {
                let keep = d.kept_positions();
                let in_proj = |p: usize, what: &str| {
                    keep.iter().position(|&k| k == p).ok_or_else(|| {
                        Error::InvalidState(format!(
                            "{what} position {p} dropped by NDP projection"
                        ))
                    })
                };
                let layout = full_layout.project(&keep);
                let out_in_proj: Vec<usize> = out_pos
                    .iter()
                    .map(|&p| in_proj(p, "output"))
                    .collect::<Result<_>>()?;
                let mut residual_in_proj = Vec::with_capacity(residual.len());
                for e in &residual {
                    for p in e.columns() {
                        in_proj(p, "residual")?;
                    }
                    // lint:allow(panic): every referenced position was just resolved
                    residual_in_proj
                        .push(e.remap_columns(&|p| in_proj(p, "residual").expect("checked above")));
                }
                // Projected records always carry the key columns (§V-A).
                let key_pos = tree
                    .key_positions
                    .iter()
                    .map(|&kp| in_proj(kp, "key"))
                    .collect::<Result<_>>()?;
                let residual = RecordFilter::new(&residual_in_proj, &layout)?;
                let shape = Shape::new(1, &layout, out_in_proj, key_pos, residual);
                Some((layout, shape))
            }
        };
        let pushed: Vec<Expr> = match choice.and_then(|c| c.predicate.as_ref()) {
            Some(e) => vec![on_record(e)?],
            None => Vec::new(),
        };
        Ok(Compiled {
            full: Shape::new(
                0,
                full_layout,
                out_pos,
                tree.key_positions.clone(),
                RecordFilter::new(&residual, full_layout)?,
            ),
            ndp,
            pushed: RecordFilter::new(&pushed, full_layout)?,
            descriptor,
        })
    }
}

impl<'a> ScanCtx<'a> {
    /// Scan state whose output batch holds up to `capacity` rows.
    fn fresh_state(&self, capacity: usize) -> ScanState {
        ScanState {
            stats: ScanStats::default(),
            batch: RowBatch::with_capacity(self.spec.output_cols.len(), capacity),
            folds: false,
            folded: 0,
            examined: 0,
            pages_held: 0,
            seek_lower: self.spec.range.lower.is_some(),
            key: Vec::new(),
            last_strings: vec![Value::Null; self.spec.output_cols.len()],
        }
    }

    /// The full leaf layout, borrowed for the scan's whole lifetime (the
    /// index outlives the scan, so this does not tie up `self`).
    fn layout(&self) -> &'a RecordLayout {
        &self.index.tree.leaf_layout
    }

    // --- batched delivery ---------------------------------------------------

    /// Hand the buffered batch to the consumer (no-op when empty).
    fn flush(&self, state: &mut ScanState, consumer: &mut dyn ScanConsumer) -> Result<bool> {
        // All row metrics are charged here, at batch granularity, so they
        // agree by construction on every path, including scans that error
        // out mid-way: `rows_scanned` counts the visible records examined
        // since the last flush, `rows_batched` and `rows_delivered` the
        // ones that also passed the residual and ride this batch. A
        // consumer stopping mid-batch counts the whole final batch (it
        // received it), mirroring how the row-at-a-time path counted the
        // row it stopped on. Records folded in a batch's place are
        // charged as that batch (the consumer has them already).
        let m = self.db.metrics();
        m.add(|m| &m.rows_scanned, std::mem::take(&mut state.examined));
        let rows = state.held_rows() as u64;
        if rows == 0 {
            return Ok(true);
        }
        state.pages_held = 0;
        state.stats.rows_delivered += rows;
        m.add(|m| &m.rows_batched, rows);
        m.add(|m| &m.batches_emitted, 1);
        if state.folds {
            state.folded = 0;
            return Ok(true);
        }
        let keep_going = consumer.on_batch_mut(&mut state.batch)?;
        state.batch.clear();
        Ok(keep_going)
    }

    /// What every page boundary does: check the deadline, and hand over
    /// rows that have been held for [`HOLD_PAGES_MAX`] pages. Returns
    /// false when the consumer asked to stop.
    fn page_boundary(
        &self,
        state: &mut ScanState,
        consumer: &mut dyn ScanConsumer,
        what: &str,
    ) -> Result<bool> {
        self.qctx.check(what).inspect_err(|_| {
            self.db.metrics().add(|m| &m.deadline_exceeded, 1);
        })?;
        state.pages_held += 1;
        if state.pages_held >= HOLD_PAGES_MAX && state.held_rows() > 0 {
            return self.flush(state, consumer);
        }
        Ok(true)
    }

    // --- per-record machinery ----------------------------------------------

    /// Encode `rec`'s key into the state's reused buffer.
    fn key_of(state: &mut ScanState, rec: &RecordView<'_>, shape: &Shape) {
        state.key.clear();
        rec.key_into(&shape.key_pos, &mut state.key);
    }

    /// Deliver one record that is visible, live, in range and past every
    /// storage-side filter: the residual conjuncts run on its bytes, and
    /// only a survivor is decoded, straight into the batch, or handed as
    /// it is to a consumer that folds records.
    fn deliver(
        &self,
        state: &mut ScanState,
        rec: RecordView<'_>,
        shape: &Shape,
        consumer: &mut dyn ScanConsumer,
    ) -> Result<bool> {
        state.examined += 1;
        if !shape.residual.is_empty() && !shape.residual.passes(&rec)? {
            return Ok(true);
        }
        if state.folds {
            if !consumer.on_record(rec, shape.id)? {
                return Ok(false);
            }
            state.folded += 1;
            if state.folded >= state.batch.capacity_rows() {
                return self.flush(state, consumer);
            }
            return Ok(true);
        }
        state
            .batch
            .push_row(shape.plan.values_after(rec, &mut state.last_strings));
        if state.batch.is_full() {
            return self.flush(state, consumer);
        }
        Ok(true)
    }

    /// Full compute-side processing of one full-layout record image
    /// (ambiguous records, raw and cached pages, the classical scan):
    /// range, visibility, undo rebuild, delete-mark, pushed predicate. The
    /// key is encoded only when the range or an undo lookup asks for it.
    fn process_full_record(
        &self,
        state: &mut ScanState,
        bytes: &[u8],
        check_range: bool,
        consumer: &mut dyn ScanConsumer,
    ) -> Result<Step> {
        let layout = self.layout();
        let rec = RecordView::parse(bytes, layout)?;
        let rec_type = rec.rec_type()?;
        if rec_type != RecType::Ordinary {
            return Err(Error::Corruption(format!(
                "unexpected record type {rec_type:?} in a leaf page"
            )));
        }
        if check_range {
            Self::key_of(state, &rec, &self.c.full);
            if self.spec.range.past_upper(&state.key) {
                return Ok(Step::PastUpper);
            }
        }
        let image;
        let rec = if self.view.visible(rec.trx_id()) {
            rec
        } else {
            state.stats.ambiguous_resolved += 1;
            if !check_range {
                Self::key_of(state, &rec, &self.c.full);
            }
            let space = self.index.tree.def.space;
            match self
                .db
                .undo
                .reconstruct(space, &state.key, bytes, self.view)
            {
                None => return Ok(Step::Next),
                Some(img) => {
                    image = img;
                    RecordView::parse(&image, layout)?
                }
            }
        };
        if check_range {
            if !self.spec.range.contains(&state.key) {
                return Ok(Step::Next);
            }
            state.seek_lower = false;
        }
        if rec.delete_mark() || (!self.c.pushed.is_empty() && !self.c.pushed.passes(&rec)?) {
            return Ok(Step::Next);
        }
        Ok(match self.deliver(state, rec, &self.c.full, consumer)? {
            true => Step::Next,
            false => Step::Stop,
        })
    }

    /// Consume one page of an NDP scan in any form. Records can lie
    /// outside the range on the pages before the first record inside its
    /// lower bound and, says `last_page`, on the scan's last page; every
    /// other page checks no key. The batch is *not* flushed at the page
    /// boundary: it owns its values, so the caller may release the page
    /// frame as soon as this returns either way. Returns false when the
    /// consumer asked to stop.
    fn consume_page(
        &self,
        state: &mut ScanState,
        page: &Page,
        was_processed_by_storage: bool,
        last_page: bool,
        consumer: &mut dyn ScanConsumer,
    ) -> Result<bool> {
        state.stats.pages_total += 1;
        if page.page_type() == PageType::NdpEmpty {
            return Ok(true);
        }
        let check_range = state.seek_lower || (last_page && self.spec.range.upper.is_some());
        if !was_processed_by_storage {
            // Raw or cached page: InnoDB completes all requested NDP work.
            self.db.metrics().add(|m| &m.ndp_completed_on_compute, 1);
            for rec in page.iter_chain() {
                match self.process_full_record(state, rec?, check_range, consumer)? {
                    Step::Next => {}
                    Step::Stop => return Ok(false),
                    Step::PastUpper => break,
                }
            }
            return Ok(true);
        }
        // An NDP page: mixed record types (§IV-C2). NDP records are the
        // visible survivors and carriers, in the NDP layout; an ordinary
        // record is one storage could not judge.
        let mut ambiguous = 0;
        let more = self.consume_ndp_records(state, page, check_range, consumer, &mut ambiguous);
        if ambiguous > 0 {
            self.db.metrics().add(|m| &m.ambiguous_records, ambiguous);
        }
        more
    }

    /// The records of an NDP page, counting in `ambiguous` the ordinary
    /// ones it meets.
    fn consume_ndp_records(
        &self,
        state: &mut ScanState,
        page: &Page,
        check_range: bool,
        consumer: &mut dyn ScanConsumer,
        ambiguous: &mut u64,
    ) -> Result<bool> {
        for rec in page.iter_chain() {
            let bytes = rec?;
            let rec_type = RecordView::peek_type(bytes)?;
            let (rec, shape) = match (rec_type, &self.c.ndp) {
                (RecType::Ordinary, _) => {
                    // Ambiguous: InnoDB does visibility/undo/predicate.
                    *ambiguous += 1;
                    match self.process_full_record(state, bytes, check_range, consumer)? {
                        Step::Next => continue,
                        Step::Stop => return Ok(false),
                        Step::PastUpper => break,
                    }
                }
                // Visible survivor: storage already filtered it.
                (RecType::NdpProjection | RecType::NdpAggregate, Some((layout, shape))) => {
                    (RecordView::parse(bytes, layout)?, shape)
                }
                (other, _) => {
                    return Err(Error::Corruption(format!(
                        "unexpected record type {other:?} in NDP page"
                    )))
                }
            };
            if check_range {
                Self::key_of(state, &rec, shape);
                if !self.spec.range.contains(&state.key) {
                    continue;
                }
                state.seek_lower = false;
            }
            if !self.deliver(state, rec, shape, consumer)? {
                return Ok(false);
            }
            if rec_type == RecType::NdpAggregate {
                let payload = rec
                    .agg_payload()
                    .ok_or_else(|| Error::Corruption("agg record without payload".into()))?;
                let states = taurus_expr::agg::decode_states(payload)?;
                state.stats.partials_merged += 1;
                // Partials trail their carrier row immediately: drain the
                // batch before delivering them.
                if !self.flush(state, consumer)? || !consumer.on_partial(states)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// First slot of a regular leaf whose key is inside the range's lower
    /// bound (`n_recs` when none is), by binary search over the slot
    /// directory (every probe bounds-checked).
    fn first_slot_in_range(&self, state: &mut ScanState, page: &Page) -> Result<usize> {
        let (mut lo, mut hi) = (0usize, page.n_recs() as usize);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let Some(rec) = page.iter_chain_from(mid).next() else {
                break;
            };
            Self::key_of(
                state,
                &RecordView::parse(rec?, self.layout())?,
                &self.c.full,
            );
            if self.spec.range.before_lower(&state.key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Is the record in slot `slot` of a regular leaf beyond the range's
    /// upper bound? (No, for a range without one or a slot the page does
    /// not have.)
    fn slot_past_upper(&self, state: &mut ScanState, page: &Page, slot: usize) -> Result<bool> {
        if self.spec.range.upper.is_none() {
            return Ok(false);
        }
        let Some(rec) = page.iter_chain_from(slot).next() else {
            return Ok(false);
        };
        Self::key_of(
            state,
            &RecordView::parse(rec?, self.layout())?,
            &self.c.full,
        );
        Ok(self.spec.range.past_upper(&state.key))
    }
}

/// Execute a scan against `table`, delivering into `consumer`, under the
/// default query context (anonymous tenant, no deadline).
pub fn scan(
    db: &TaurusDb,
    table: &Table,
    spec: &ScanSpec,
    view: &ReadView,
    consumer: &mut dyn ScanConsumer,
) -> Result<ScanStats> {
    scan_ctx(db, table, spec, &[], view, QueryCtx::new(), None, consumer)
}

/// Execute a scan under a query context: batch reads are billed to the
/// context's tenant on the Page-Store side, and the context's deadline is
/// checked at every page boundary — an expired deadline stops the scan
/// (and its prefetch pipeline) with [`Error::DeadlineExceeded`] instead
/// of letting a browned-out store stall it indefinitely.
///
/// `residual` holds predicate conjuncts over *table* columns that nothing
/// below evaluates (everything the NDP choice did not push). The scan
/// compiles them once and runs them on record bytes, so a record they
/// reject is never decoded; their columns need not be in `output_cols`.
///
/// `filter` is a hash join's, on its probe scan: with NDP on it goes
/// behind the descriptor of every batch read (the build side's keys), a
/// scan without an NDP choice of its own included (the filter alone is
/// work for the Page Store), and Page Stores drop the definitely visible
/// records it rules out. What comes back any other way (raw and cached
/// pages, ambiguous records) is delivered unfiltered: the join above
/// decides every row either way.
#[allow(clippy::too_many_arguments)]
pub fn scan_ctx(
    db: &TaurusDb,
    table: &Table,
    spec: &ScanSpec,
    residual: &[Expr],
    view: &ReadView,
    qctx: QueryCtx,
    filter: Option<&JoinFilter>,
    consumer: &mut dyn ScanConsumer,
) -> Result<ScanStats> {
    let reads = match (db.config().ndp.enabled, filter) {
        (false, _) => NdpReads::Off,
        (true, None) => NdpReads::Choice,
        (true, Some(_)) => NdpReads::Always,
    };
    let compiled = Compiled::new(table, spec, residual, view, reads)?;
    let index = table.index(spec.index);
    let ctx = ScanCtx {
        db,
        index,
        spec,
        view,
        qctx,
        c: &compiled,
    };
    let stream = match (&compiled.descriptor, filter) {
        (None, _) => None,
        (Some(descriptor), None) => Some(descriptor.encode()),
        (Some(descriptor), Some(filter)) => {
            let mut stream = descriptor.encode();
            filter.encode(index, &mut stream)?;
            let m = db.metrics();
            m.add(|m| &m.join_filters_sent, 1);
            m.add(|m| &m.join_filter_keys, filter.keys as u64);
            Some(stream)
        }
    };
    let mut state = ctx.fresh_state(db.config().scan_batch_rows.max(1));
    state.folds = consumer.fold_records(&compiled.layouts(&index.tree.leaf_layout))?;
    let scanned = match stream {
        Some(stream) => ndp_scan(&ctx, &mut state, Arc::new(stream), consumer),
        None => regular_scan(&ctx, &mut state, consumer),
    };
    // The scan's end is the last flush point (a consumer that stopped has
    // seen its last batch already; a failed scan delivers nothing more).
    if scanned? {
        ctx.flush(&mut state, consumer)?;
    }
    Ok(state.stats)
}

/// A prepared point access to one index, the probe half of a lookup
/// join's batched key access: what [`scan_ctx`] resolves per scan (layouts,
/// decode plan, compiled residual) and allocates per scan (the output
/// batch, key and filter scratch) is built once here, and each probe only
/// sets the range to its key and runs the classical scan over it.
pub struct PointLookup {
    table: Arc<Table>,
    /// `range` is the current probe's; the rest never changes.
    spec: ScanSpec,
    view: ReadView,
    qctx: QueryCtx,
    compiled: Compiled,
    state: ScanState,
}

impl PointLookup {
    /// Prepare probes of `index` that deliver `output_cols` of the records
    /// passing `residual` (conjuncts over table columns, as for
    /// [`scan_ctx`]). A probe is a classical read through the tree and the
    /// pool; the NDP form of a lookup join's key access is [`KeyRead`].
    pub fn new(
        db: &TaurusDb,
        table: Arc<Table>,
        index: usize,
        output_cols: Vec<usize>,
        residual: &[Expr],
        view: &ReadView,
        qctx: QueryCtx,
    ) -> Result<PointLookup> {
        let spec = ScanSpec {
            index,
            range: ScanRange::full(),
            ndp: None,
            output_cols,
        };
        let compiled = Compiled::new(&table, &spec, residual, view, NdpReads::Off)?;
        let state = ScanCtx {
            db,
            index: table.index(index),
            spec: &spec,
            view,
            qctx,
            c: &compiled,
        }
        .fresh_state(db.config().scan_batch_rows.clamp(1, POINT_BATCH_ROWS));
        Ok(PointLookup {
            table,
            spec,
            view: view.clone(),
            qctx,
            compiled,
            state,
        })
    }

    /// Deliver every record of `key` (an encoded full key, or a prefix and
    /// its key group) to `consumer`, exactly as a [`scan_ctx`] over the
    /// point range of it would, metrics included.
    pub fn probe(
        &mut self,
        db: &TaurusDb,
        key: &[u8],
        consumer: &mut dyn ScanConsumer,
    ) -> Result<()> {
        self.spec.range.set_point(key);
        let ctx = ScanCtx {
            db,
            index: self.table.index(self.spec.index),
            spec: &self.spec,
            view: &self.view,
            qctx: self.qctx,
            c: &self.compiled,
        };
        let state = &mut self.state;
        state.restart(true);
        if regular_scan(&ctx, state, consumer)? {
            ctx.flush(state, consumer)?;
        }
        Ok(())
    }
}

/// Encoded keys back to back in one buffer: the probe keys of an outer
/// batch, in its order. An empty key stands for a key with a NULL in it,
/// which matches nothing (an encoded key part is never empty).
#[derive(Default)]
pub struct KeyList {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl KeyList {
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Append the key of `values` in `tree`'s encoding.
    pub fn push<'v>(
        &mut self,
        tree: &taurus_btree::BTree,
        values: impl Iterator<Item = &'v Value> + Clone,
    ) {
        if !values.clone().any(Value::is_null) {
            tree.encode_search_key_into(values, &mut self.bytes);
        }
        self.ends.push(self.bytes.len());
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = &[u8]> {
        (from..self.len()).map(|i| self.get(i))
    }
}

/// Marks a key of a chunk that [`KeyRead`] did not read for.
const NOT_SERVED: u32 = u32::MAX;

/// What one [`KeyRead::chunk`] brought back: the inner rows of the keys
/// it served, found by a key's position in the chunk.
#[derive(Default)]
struct JoinBuffer {
    /// Values of an inner row the join sees; a scanned row carries the
    /// probe key's columns behind them.
    width: usize,
    /// For each key the chunk covers, in probe order: its slot, or
    /// [`NOT_SERVED`]. Probes of one key share a slot.
    slot_of: Vec<u32>,
    /// The served keys' positions in the key list, by key, each key once:
    /// slot `s` is key `order[s]` of the list.
    order: Vec<u32>,
    /// Each slot's rows: the first one's number and how many.
    groups: Vec<(u32, u32)>,
    /// The rows, `width` values each, in key order.
    rows: Vec<Value>,
}

/// Takes the rows of a key read's pages into the buffer. They arrive in
/// key order, as the slots are, so finding a row's slot is a merge; a row
/// of no listed key (a page that came back raw holds every key of the
/// leaf) falls between two slots and is dropped.
struct BufferFill<'a> {
    buffer: &'a mut JoinBuffer,
    keys: &'a KeyList,
    tree: &'a taurus_btree::BTree,
    /// The next slot a row can belong to.
    slot: usize,
    row_key: &'a mut Vec<u8>,
}

impl ScanConsumer for BufferFill<'_> {
    fn on_row(&mut self, row: &[Value]) -> Result<bool> {
        let b = &mut *self.buffer;
        let (inner, key_values) = row.split_at(b.width);
        self.row_key.clear();
        self.tree.encode_search_key_into(key_values, self.row_key);
        let key_of = |slot: usize| self.keys.get(b.order[slot] as usize);
        while self.slot < b.order.len() && key_of(self.slot) < self.row_key.as_slice() {
            self.slot += 1;
        }
        if self.slot < b.order.len() && key_of(self.slot) == self.row_key.as_slice() {
            let (first, n) = &mut b.groups[self.slot];
            if *n == 0 {
                *first = (b.rows.len() / b.width.max(1)) as u32;
            }
            *n += 1;
            b.rows.extend_from_slice(inner);
        }
        Ok(true)
    }

    fn on_partial(&mut self, _states: Vec<AggState>) -> Result<bool> {
        Err(Error::Internal(
            "key read received aggregate partials".into(),
        ))
    }
}

/// The NDP form of a lookup join's batched key access, prepared once per
/// operator like [`PointLookup`]. Where the prefetch fetches whole leaves
/// into the pool for the probes to find, a key read sends the chunk's
/// sorted probe keys beside an NDP descriptor and gets NDP pages back that
/// hold only the records of those keys, filtered and projected; it takes
/// them through [`ScanCtx::consume_page`] (which completes whatever came
/// back raw or ambiguous) into a chunk-local buffer the probes read from.
/// Nothing of the reply enters the pool (§IV-C3).
///
/// The reply *is* the data, so a chunk is a consistent cut: its keys are
/// resolved to leaves under the shared structure latch with the LSN taken
/// under it, and the leaves are read at that LSN, as an NDP scan reads its
/// leaf batches. A key the cut cannot vouch for (a run that is cut off at
/// the end of its level-1 page, or longer than a chunk) or that needs no
/// storage read (every leaf resident) is left to the classical probe.
/// Master only.
pub struct KeyRead {
    table: Arc<Table>,
    /// Delivers the join's inner columns, then the probe key's columns.
    spec: ScanSpec,
    view: ReadView,
    qctx: QueryCtx,
    compiled: Compiled,
    state: ScanState,
    /// The encoded `DESC` section every request of this operator starts
    /// with; a chunk appends its keys.
    descriptor: Vec<u8>,
    buffer: JoinBuffer,
    /// Scratch: the leaves to read; every covered key's run back to back,
    /// with each key's part of it; the key of a scanned row.
    leaves: Vec<PageNo>,
    runs: Vec<PageNo>,
    run_of: Vec<(u32, u32)>,
    row_key: Vec<u8>,
}

impl KeyRead {
    /// Prepare key reads of `index` for probe keys of `key_cols` columns
    /// that deliver `output_cols` of the records passing `choice`'s pushed
    /// predicate and `residual` (conjuncts over table columns nothing
    /// below evaluates, as for [`scan_ctx`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        db: &TaurusDb,
        table: Arc<Table>,
        index: usize,
        key_cols: usize,
        choice: &NdpChoice,
        output_cols: &[usize],
        residual: &[Expr],
        view: &ReadView,
        qctx: QueryCtx,
    ) -> Result<KeyRead> {
        let key = table.index(index).tree.def.effective_key_cols();
        let probed = key.get(..key_cols).ok_or_else(|| {
            Error::InvalidState(format!(
                "{key_cols} probe key columns for an index key of {}",
                key.len()
            ))
        })?;
        let mut delivered = output_cols.to_vec();
        delivered.extend_from_slice(probed);
        let spec = ScanSpec {
            index,
            range: ScanRange::full(),
            ndp: Some(choice.clone()),
            output_cols: delivered,
        };
        // A choice that pushes nothing still has a descriptor: the key
        // set alone is work for the Page Store.
        let compiled = Compiled::new(&table, &spec, residual, view, NdpReads::Always)?;
        let descriptor = match &compiled.descriptor {
            Some(d) => d.encode(),
            None => return Err(Error::Internal("key read without a descriptor".into())),
        };
        let state = ScanCtx {
            db,
            index: table.index(index),
            spec: &spec,
            view,
            qctx,
            c: &compiled,
        }
        .fresh_state(db.config().scan_batch_rows.clamp(1, POINT_BATCH_ROWS));
        Ok(KeyRead {
            table,
            spec,
            view: view.clone(),
            qctx,
            compiled,
            state,
            descriptor,
            buffer: JoinBuffer {
                width: output_cols.len(),
                ..JoinBuffer::default()
            },
            leaves: Vec::new(),
            runs: Vec::new(),
            run_of: Vec::new(),
            row_key: Vec::new(),
        })
    }

    /// Read for the probe keys `keys[from..]`, as many of them as make one
    /// chunk of leaves ([`SpaceStore::lookup_chunk_pages`]), and buffer
    /// what comes back. Returns how many leading keys that covers (at
    /// least one of any): [`KeyRead::rows_of`] answers for those, by their
    /// position behind `from`, until the next call.
    pub fn chunk(&mut self, db: &TaurusDb, keys: &KeyList, from: usize) -> Result<usize> {
        let index = self.table.index(self.spec.index);
        let store = index.store.as_ref();
        let chunk_pages = store.lookup_chunk_pages();
        let b = &mut self.buffer;
        b.slot_of.clear();
        b.order.clear();
        b.groups.clear();
        b.rows.clear();
        self.leaves.clear();
        self.runs.clear();
        self.run_of.clear();

        // The cut: which leaves hold each key's records, and the LSN that
        // is true at, both under the latch no split can cross.
        let shared = store.structure_latch().read();
        let lsn = store.current_lsn();
        for key in keys.iter_from(from) {
            let run_start = self.runs.len();
            let mut served = false;
            if !key.is_empty() {
                let complete = index.tree.leaves_of_key(store, key, &mut self.runs)?;
                let run = &self.runs[run_start..];
                if complete
                    && run.len() <= chunk_pages
                    && run.iter().any(|&leaf| !store.is_resident(leaf))
                {
                    let new = run.iter().filter(|leaf| !self.leaves.contains(leaf));
                    if self.leaves.len() + new.count() > chunk_pages {
                        // This key needs a leaf the chunk has no room
                        // for: it and the keys behind it belong to the
                        // next chunk (a chunk that has none yet has room
                        // for any run that passed the test above). Until
                        // then a full chunk still takes the keys whose
                        // runs it already reads, so no leaf is read twice.
                        self.runs.truncate(run_start);
                        break;
                    }
                    for leaf in run {
                        if !self.leaves.contains(leaf) {
                            self.leaves.push(*leaf);
                        }
                    }
                    served = true;
                }
            }
            if !served {
                self.runs.truncate(run_start);
            }
            self.run_of
                .push((run_start as u32, (self.runs.len() - run_start) as u32));
            b.slot_of.push(if served { 0 } else { NOT_SERVED });
        }
        drop(shared);
        let covered = b.slot_of.len();
        if self.leaves.is_empty() {
            return Ok(covered);
        }

        // Slots: the served keys by key, each key once.
        let served = (from..from + covered).filter(|i| b.slot_of[i - from] != NOT_SERVED);
        b.order.extend(served.map(|i| i as u32));
        b.order.sort_unstable_by_key(|&i| keys.get(i as usize));
        let mut slots = 0usize;
        for at in 0..b.order.len() {
            let i = b.order[at];
            if slots == 0 || keys.get(b.order[slots - 1] as usize) != keys.get(i as usize) {
                b.order[slots] = i;
                slots += 1;
            }
            b.slot_of[i as usize - from] = slots as u32 - 1;
        }
        b.order.truncate(slots);
        b.groups.resize(slots, (0, 0));

        // The leaves in key order, which is the order their rows must
        // reach the buffer in, and the request.
        self.leaves.clear();
        for &i in &b.order {
            let (start, len) = self.run_of[i as usize - from];
            for &leaf in &self.runs[start as usize..(start + len) as usize] {
                if !self.leaves.contains(&leaf) {
                    self.leaves.push(leaf);
                }
            }
        }
        let listed = b.order.iter().map(|&i| keys.get(i as usize));
        let mut stream = Vec::with_capacity(
            self.descriptor.len() + 8 + listed.clone().map(|k| 2 + k.len()).sum::<usize>(),
        );
        stream.extend_from_slice(&self.descriptor);
        encode_key_set(listed, &mut stream)?;
        let pages = store.sal().batch_read_ctx(
            index.tree.def.space,
            &self.leaves,
            lsn,
            Arc::new(stream),
            &self.qctx,
        )?;
        let m = db.metrics();
        m.add(|m| &m.lookup_ndp_pages, pages.len() as u64);
        m.add(|m| &m.lookup_ndp_reads, 1);

        let ctx = ScanCtx {
            db,
            index,
            spec: &self.spec,
            view: &self.view,
            qctx: self.qctx,
            c: &self.compiled,
        };
        let state = &mut self.state;
        state.restart(false);
        let mut fill = BufferFill {
            buffer: b,
            keys,
            tree: &index.tree,
            slot: 0,
            row_key: &mut self.row_key,
        };
        let bp = store.buffer_pool();
        for result in pages {
            ctx.page_boundary(state, &mut fill, "ndp key read page")?;
            let (page, processed_by_storage) = match result.payload {
                PagePayload::Ndp(p) => (p, true),
                PagePayload::Raw(p) => (p, false),
            };
            // One frame at a time, for as long as the page is read: the
            // buffer owns the values it keeps. (None when other scans hold
            // the whole NDP area; the page is in memory either way.)
            let _frame = bp.try_alloc_ndp_frame(page.clone());
            ctx.consume_page(state, &page, processed_by_storage, false, &mut fill)?;
        }
        ctx.flush(state, &mut fill)?;
        Ok(covered)
    }

    /// The inner rows of the key at position `at` of the last chunk, in
    /// key order; `None` when the chunk did not read for that key and the
    /// classical probe must.
    pub fn rows_of(&self, at: usize) -> Option<impl Iterator<Item = &[Value]>> {
        let b = &self.buffer;
        let slot = b.slot_of[at];
        if slot == NOT_SERVED {
            return None;
        }
        let (first, n) = b.groups[slot as usize];
        let (first, w) = (first as usize, b.width);
        Some((first..first + n as usize).map(move |r| &b.rows[r * w..(r + 1) * w]))
    }
}

/// Batched key access, the prefetch half. Resolve `keys` (encoded probe
/// keys in probe order; an empty one is a NULL key and probes nothing) to
/// the leaves their lookups will read, by descents that stop at level 1,
/// until the distinct leaves not in the pool make one chunk
/// ([`crate::SpaceStore::prefetch_chunk_pages`]) or the keys run out; fetch
/// those with one batch read and cache them. Returns how many leading keys
/// that covers (at least one of any), so the caller probes those and asks
/// again from there. `missing` is scratch.
///
/// Which leaves are resolved depends only on the key order; which are
/// fetched, on what the pool holds. On a replica every key is covered and
/// nothing is fetched: its lookups stay LSN-pinned single reads.
pub fn prefetch_leaves<'k>(
    index: &TableIndex,
    keys: impl IntoIterator<Item = &'k [u8]>,
    qctx: &QueryCtx,
    missing: &mut Vec<PageNo>,
) -> Result<usize> {
    let keys = keys.into_iter();
    let store = index.store.as_ref();
    let Some(chunk) = store.prefetch_chunk_pages() else {
        return Ok(keys.count());
    };
    missing.clear();
    let mut covered = 0;
    // The last leaf looked at: keys in index order ask for it again and
    // again.
    let mut last = taurus_page::NO_PAGE;
    for key in keys {
        if !key.is_empty() {
            let had = missing.len();
            // A hint: a run cut short only leaves pages to single reads.
            index.tree.leaves_of_key(store, key, missing)?;
            let mut kept = had;
            for i in had..missing.len() {
                let leaf = missing[i];
                if leaf != last && !missing[..kept].contains(&leaf) && !store.is_resident(leaf) {
                    missing[kept] = leaf;
                    kept += 1;
                }
                last = leaf;
            }
            if kept > chunk && had > 0 {
                // This key's leaves belong to the next chunk.
                missing.truncate(had);
                break;
            }
            missing.truncate(kept.min(chunk));
        }
        covered += 1;
        if missing.len() >= chunk {
            break;
        }
    }
    store.prefetch(missing, qctx)?;
    Ok(covered)
}

/// The classical InnoDB scan: one page at a time through the buffer pool;
/// no batch reads (§I), all filtering above. (A lookup join's probes run
/// it too, over pages its prefetch has usually cached: [`PointLookup`].)
/// Returns false when the consumer asked to stop.
fn regular_scan(
    ctx: &ScanCtx<'_>,
    state: &mut ScanState,
    consumer: &mut dyn ScanConsumer,
) -> Result<bool> {
    let store = ctx.index.store.clone();
    let tree = &ctx.index.tree;
    let mut page = match tree.seek_leaf(store.as_ref(), &ctx.spec.range)? {
        Some(p) => p,
        None => return Ok(true),
    };
    loop {
        if !ctx.page_boundary(state, consumer, "regular scan page")? {
            return Ok(false);
        }
        state.stats.pages_total += 1;
        // Records before the range: the slot directory finds where the
        // range starts, on the first page for an inclusive bound, some
        // pages on when an exclusive prefix bound shuts out a key group.
        let n_recs = page.n_recs() as usize;
        let start = if state.seek_lower {
            let start = ctx.first_slot_in_range(state, &page)?;
            state.seek_lower = start == n_recs;
            start
        } else {
            0
        };
        // Records above the range exist only on a page whose last key is;
        // the pages in between check no record.
        let check_range = ctx.slot_past_upper(state, &page, n_recs.saturating_sub(1))?;
        for rec in page.iter_chain_from(start) {
            match ctx.process_full_record(state, rec?, check_range, consumer)? {
                Step::Next => {}
                Step::Stop => return Ok(false),
                Step::PastUpper => return Ok(true),
            }
        }
        match page.next() {
            taurus_page::NO_PAGE => return Ok(true),
            next => page = store.read(next)?,
        }
        // Stop early if the next page starts past the range.
        if ctx.slot_past_upper(state, &page, 0)? {
            return Ok(true);
        }
    }
}

// --- the prefetching NDP read pipeline --------------------------------------

/// Which path staged a page (drives [`ScanStats`] at consume time).
enum StagedKind {
    Cache,
    Ndp,
    Raw,
}

/// A page staged for in-order consumption. Staging allocates its NDP
/// frame best-effort, so in the common case every staged page — cached
/// copy or arrived fetch — is charged against the pool's NDP area for
/// exactly as long as it is held; the frame releases the moment the
/// consumer drains the page (guard drop), or when a cancelled scan drops
/// the whole in-flight queue. Under cross-scan contention the NDP area
/// may be exhausted by *other* scans' look-ahead; then `guard` stays
/// `None` and allocation is deferred to consume time, where the scan
/// needs only one frame to make progress — exactly the pre-pipeline
/// footprint, so concurrent scans never fail on look-ahead they could
/// have survived one page at a time.
struct StagedPage {
    page: Arc<Page>,
    guard: Option<NdpFrameGuard>,
    processed_by_storage: bool,
    kind: StagedKind,
}

/// RAII leg of the `ndp_batches_in_flight` gauge: counts one issued leaf
/// batch from dispatch until it is fully consumed *or* dropped by a
/// cancelled scan, so the gauge stays balanced on every exit path.
struct InflightGauge {
    metrics: Arc<Metrics>,
}

impl InflightGauge {
    fn new(metrics: Arc<Metrics>) -> InflightGauge {
        metrics.gauge_inc(
            |m| &m.ndp_batches_in_flight,
            |m| &m.ndp_batches_in_flight_peak,
        );
        InflightGauge { metrics }
    }
}

impl Drop for InflightGauge {
    fn drop(&mut self) {
        self.metrics.sub(|m| &m.ndp_batches_in_flight, 1);
    }
}

/// One issued leaf batch: its logical page order, the pages staged so far
/// (cached copies at issue time, fetched pages as their sub-batches
/// arrive), and the streaming batch read delivering the rest. Dropping an
/// `InflightBatch` mid-flight releases its staged frames and cancels its
/// [`BatchReadHandle`] (joining the SAL dispatch threads).
struct InflightBatch {
    pages: Vec<PageNo>,
    /// No leaf of the range follows this batch: its last page is the
    /// scan's last, the only one that can hold keys above the range.
    last: bool,
    staged: HashMap<PageNo, StagedPage>,
    read: Option<BatchReadHandle>,
    /// `Some` iff the batch dispatched a storage read — fully-cached
    /// batches never count as "in flight", so the overlap observable
    /// (`ndp_batches_in_flight_peak` ≥ 2) cannot be satisfied by
    /// buffer-pool hits alone.
    _gauge: Option<InflightGauge>,
}

/// Cursor over the leaf-batch sequence of one scan range.
struct PrefetchCursor {
    resume: Option<Vec<u8>>,
    exhausted: bool,
}

/// Extract and dispatch the next leaf batch: descend for up to
/// `per_batch` leaf page numbers, copy buffer-pool hits straight into the
/// NDP area, and start the streaming SAL fan-out for the misses. Returns
/// `None` once the range is exhausted. This is the *issue* half of the
/// pipeline — it never blocks on storage.
fn issue_next_batch(
    ctx: &ScanCtx<'_>,
    bp: &Arc<BufferPool>,
    descriptor: &Arc<Vec<u8>>,
    per_batch: usize,
    cursor: &mut PrefetchCursor,
) -> Result<Option<InflightBatch>> {
    if cursor.exhausted {
        return Ok(None);
    }
    let store = &ctx.index.store;
    let (pages, lsn, next_resume) = ctx.index.tree.collect_leaf_batch(
        store.as_ref(),
        &ctx.spec.range,
        cursor.resume.as_deref(),
        per_batch,
    )?;
    let last = next_resume.is_none();
    match next_resume {
        Some(k) => cursor.resume = Some(k),
        None => cursor.exhausted = true,
    }
    if pages.is_empty() {
        cursor.exhausted = true;
        return Ok(None);
    }
    let space = ctx.index.tree.def.space;
    // Buffer-pool overlap: cached pages are copied to the NDP area and
    // completed by InnoDB; only misses go into the batch read. The probe
    // is pinned at the *batch's* captured LSN (not the advancing replica
    // pin): every page of the batch — cached copy or versioned fetch —
    // must come from the same cut the leaf set was enumerated at, or a
    // split landing mid-batch could tear record placement across pages.
    let mut staged: HashMap<PageNo, StagedPage> = HashMap::with_capacity(pages.len());
    let mut missing: Vec<PageNo> = Vec::with_capacity(pages.len());
    for &no in &pages {
        match store.cached_at(no, lsn) {
            Some(p) => {
                staged.insert(
                    no,
                    StagedPage {
                        guard: bp.try_alloc_ndp_frame(p.clone()),
                        page: p,
                        processed_by_storage: false,
                        kind: StagedKind::Cache,
                    },
                );
            }
            None => missing.push(no),
        }
    }
    let read = if missing.is_empty() {
        None
    } else {
        Some(store.sal().batch_read_streaming_ctx(
            space,
            &missing,
            lsn,
            descriptor.clone(),
            &ctx.qctx,
        )?)
    };
    let gauge = read
        .as_ref()
        .map(|_| InflightGauge::new(ctx.db.metrics().clone()));
    Ok(Some(InflightBatch {
        pages,
        last,
        staged,
        read,
        _gauge: gauge,
    }))
}

/// Take the staged page `no` out of `batch`, blocking on the streaming
/// read until its sub-batch arrives if it is still on the wire. Every
/// arriving sub-batch is staged wholesale (frames allocated
/// best-effort), so later pages of the batch are consumed without
/// further waits. Time spent blocked here is the pipeline's stall — 0
/// when prefetch fully hides storage behind compute.
fn take_staged(
    batch: &mut InflightBatch,
    no: PageNo,
    bp: &Arc<BufferPool>,
    metrics: &Arc<Metrics>,
) -> Result<StagedPage> {
    if let Some(s) = batch.staged.remove(&no) {
        return Ok(s);
    }
    let t0 = Instant::now();
    let result = loop {
        let Some(read) = batch.read.as_mut() else {
            break Err(Error::Internal(format!("page {no} missing from batch")));
        };
        match read.recv() {
            Some(Ok(sub)) => {
                for pr in sub {
                    let (page, processed_by_storage, kind) = match pr.payload {
                        PagePayload::Ndp(p) => (p, true, StagedKind::Ndp),
                        PagePayload::Raw(p) => (p, false, StagedKind::Raw),
                    };
                    batch.staged.insert(
                        pr.page_no,
                        StagedPage {
                            guard: bp.try_alloc_ndp_frame(page.clone()),
                            page,
                            processed_by_storage,
                            kind,
                        },
                    );
                }
                if let Some(s) = batch.staged.remove(&no) {
                    break Ok(s);
                }
            }
            Some(Err(e)) => break Err(e),
            None => break Err(Error::Internal(format!("page {no} missing from batch"))),
        }
    };
    metrics.add(|m| &m.prefetch_stall_ns, t0.elapsed().as_nanos() as u64);
    result
}

/// Drop every NDP frame this scan holds for *staged* (not-yet-consumed)
/// pages, keeping the pages themselves. Called before a zero-frame wait
/// so a contended scan never waits while sitting on look-ahead
/// accounting other scans could use; frames are re-acquired lazily at
/// each page's consume step.
fn shed_staged_frames(batch: &mut InflightBatch, inflight: &mut VecDeque<InflightBatch>) {
    for s in batch.staged.values_mut() {
        s.guard = None;
    }
    for b in inflight.iter_mut() {
        for s in b.staged.values_mut() {
            s.guard = None;
        }
    }
}

/// The NDP scan (§IV-C4): a pipelined batch extraction → BP overlap check
/// → SAL fan-out → ordered consumption loop. Up to
/// `ndp.prefetch_batches` leaf batches are in flight at once: batch N+1's
/// storage reads run (and its Page Store NDP work happens) while batch N
/// is consumed in logical page order — the compute/storage overlap of
/// §VI-2 — with the per-scan frame quota (`max_pages_look_ahead`, capped
/// at half the pool) *split* across the in-flight batches so look-ahead
/// can never exhaust the NDP area. Frames release as each page drains.
///
/// Cancellation: when the consumer stops (a sink that answered `false`,
/// satisfied LIMIT), the in-flight queue drops on return — releasing every staged
/// frame and joining every SAL sub-batch dispatch thread before the scan
/// returns to its caller. Returns false when the consumer asked to stop.
fn ndp_scan(
    ctx: &ScanCtx<'_>,
    state: &mut ScanState,
    descriptor: Arc<Vec<u8>>,
    consumer: &mut dyn ScanConsumer,
) -> Result<bool> {
    let bp = ctx.index.store.buffer_pool().clone();
    let cfg = ctx.db.config();
    let look_ahead = cfg.ndp.max_pages_look_ahead.max(1);
    let frame_quota = look_ahead.min((bp.capacity() / 2).max(1));
    // Clamping the depth to the quota keeps `prefetch * per_batch <=
    // frame_quota` exact even with floor division — depth beyond one
    // page per in-flight batch cannot buy overlap anyway.
    let prefetch = cfg.ndp.prefetch_batches.clamp(1, frame_quota);
    let per_batch = (frame_quota / prefetch).max(1);

    let mut cursor = PrefetchCursor {
        resume: None,
        exhausted: false,
    };
    // Set after the scan's first consume-time frame deferral: the NDP
    // area is contended, so later deferrals skip the grace wait instead
    // of paying it once per batch for the rest of the scan.
    let mut contended = false;
    let mut inflight: VecDeque<InflightBatch> = VecDeque::with_capacity(prefetch);
    loop {
        // Keep the pipeline full: batches N+1.. dispatch here, then the
        // front batch is drained below while they complete in storage.
        while !cursor.exhausted && inflight.len() < prefetch {
            match issue_next_batch(ctx, &bp, &descriptor, per_batch, &mut cursor)? {
                Some(b) => inflight.push_back(b),
                None => break,
            }
        }
        let Some(mut batch) = inflight.pop_front() else {
            return Ok(true);
        };
        // Consume strictly in logical page order.
        for i in 0..batch.pages.len() {
            // Page-boundary deadline check: a browned-out or saturated
            // store cannot stall the scan past its budget (dropping the
            // in-flight queue on return cancels the remaining reads).
            if !ctx.page_boundary(state, consumer, "ndp scan page")? {
                return Ok(false);
            }
            let no = batch.pages[i];
            let mut staged = take_staged(&mut batch, no, &bp, ctx.db.metrics())?;
            match staged.kind {
                StagedKind::Cache => state.stats.pages_from_cache += 1,
                StagedKind::Ndp => state.stats.pages_ndp += 1,
                StagedKind::Raw => state.stats.pages_raw += 1,
            }
            // Deferred frame allocation: staging found the NDP area full
            // (concurrent scans' look-ahead). Shed this scan's *own*
            // staged-frame accounting and try to take the one frame this
            // page needs, granting a brief zero-frames-held grace wait
            // (once per batch) for a release. If the area stays full —
            // e.g. parked streams pinning their look-ahead — consume
            // **unaccounted**: the page is already resident, the NDP-area
            // budget is backpressure, and neither correctness nor
            // availability may depend on frames this scan does not need.
            let _frame: Option<NdpFrameGuard> = match staged.guard.take() {
                Some(g) => Some(g),
                None => {
                    shed_staged_frames(&mut batch, &mut inflight);
                    let grace = if contended {
                        std::time::Duration::ZERO
                    } else {
                        std::time::Duration::from_millis(100)
                    };
                    contended = true;
                    bp.alloc_ndp_frame_timeout(staged.page.clone(), grace).ok()
                }
            };
            // Batch extraction is boundary-aware (§IV-C4): no page but
            // the scan's last holds keys above the range.
            let last_page = batch.last && i + 1 == batch.pages.len();
            let keep_going = ctx.consume_page(
                state,
                &staged.page,
                staged.processed_by_storage,
                last_page,
                consumer,
            )?;
            // Frame released as soon as its page drains: the batch owns
            // the values it decoded, flushed or not.
            drop(_frame);
            if !keep_going {
                return Ok(false);
            }
        }
    }
}

/// Split a table access into `parts` disjoint ranges along level-1
/// boundaries — the PQ partitioning of §VI-1. Returns at most `parts`
/// ranges covering `range` exactly.
pub fn partition_ranges(
    table: &Table,
    index: usize,
    range: &ScanRange,
    parts: usize,
) -> Result<Vec<ScanRange>> {
    let idx = table.index(index);
    let leaves = idx.tree.n_leaves().max(1) as usize;
    let per = leaves.div_ceil(parts.max(1)).max(1);
    let mut boundaries: Vec<Vec<u8>> = Vec::new();
    let mut resume: Option<Vec<u8>> = None;
    loop {
        let (pages, _, next) =
            idx.tree
                .collect_leaf_batch(idx.store.as_ref(), range, resume.as_deref(), per)?;
        if pages.is_empty() {
            break;
        }
        match next {
            Some(k) => {
                boundaries.push(k.clone());
                resume = Some(k);
            }
            None => break,
        }
    }
    let mut ranges = Vec::with_capacity(boundaries.len() + 1);
    let mut lower = range.lower.clone();
    for b in boundaries {
        ranges.push(ScanRange {
            lower: lower.clone(),
            upper: Some((b.clone(), false)),
        });
        lower = Some((b, true));
    }
    ranges.push(ScanRange {
        lower,
        upper: range.upper.clone(),
    });
    Ok(ranges)
}
