//! Scan leaves of the operator pipeline.
//!
//! [`BatchScanOp`] adapts the engine's push-based scan ([`scan_ctx`]
//! driving [`ScanConsumer`] callbacks) to the pull contract: `open()`
//! spawns a producer thread on the executor's scoped thread pool, the
//! producer runs the batch-native scan core into a small bounded channel
//! of [`ScanMsg`]s, and `next_batch()` receives from it. The channel
//! *is* the backpressure: the scan runs at most [`STREAM_CHANNEL_BATCHES`]
//! items ahead of the consumer, and closing the operator (dropping the
//! receiver) makes the producer's next send fail — [`ChannelConsumer`]
//! turns that into the `ScanConsumer` early-stop `false`, terminating
//! the scan exactly like a row-level stop always has. It is every plan's
//! scan leaf: a bare scan a `RowStream` runs, a PQ worker's scan,
//! bounded to the worker's range, and the scan under an [`AggScanOp`].
//!
//! The scan core does the scan's own filtering (the node's residual
//! conjuncts run on record bytes) and fills each batch to capacity across
//! pages, so a channel message is a full batch of result rows, moved: the
//! producer swaps it for an empty recycled one, nothing is cloned or
//! rebuilt on the way to the operator above.
//!
//! [`AggScanOp`] is a pipeline breaker: it folds its scan's batches, and
//! the NDP partials that travel with them behind their carrier rows, into
//! grouped states ([`HashAggAcc`], `HashAgg`'s) while the producer decodes the next
//! batch, and re-emits the finalized groups in batches.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use crossbeam::thread::{Scope, ScopedJoinHandle};
use taurus_common::metrics::CpuGuard;
use taurus_common::{QueryCtx, Result, RowBatch, Value};
use taurus_expr::agg::AggState;
use taurus_ndp::{scan_ctx, JoinFilter, ReadView, ScanConsumer, ScanRange, TaurusDb};
use taurus_optimizer::plan::{AggScanNode, ScanNode};

use super::{charge_emit, emit_or_end, BatchEmitter, Operator};
use crate::exec::{
    finalize_agg_groups, panic_error, scan_residual, scan_spec, AggPartials, ExecContext,
    HashAggAcc,
};
use crate::stream::STREAM_CHANNEL_BATCHES;

/// What a scan producer sends: a batch of rows, and the storage partials
/// of the carrier rows in it — `(row, states)`, in row order, each behind
/// the row it belongs to.
pub(crate) struct ScanMsg {
    pub(crate) batch: RowBatch,
    pub(crate) partials: Vec<(usize, Vec<AggState>)>,
}

impl ScanMsg {
    fn empty() -> ScanMsg {
        ScanMsg {
            batch: RowBatch::with_capacity(0, 1),
            partials: Vec::new(),
        }
    }
}

/// ScanConsumer that forwards the scan's batches into a bounded channel,
/// one message per batch. Filtering already happened: the scan core runs
/// the residual conjuncts on record bytes, so every row that arrives here
/// is a result row. A full batch is *moved* into the channel — the scan
/// gets an empty (recycled) batch back in its place — and a failed send
/// means the receiver is gone (closed operator, dropped stream): the
/// consumer returns `false` and the scan terminates early.
///
/// A scan that pushes aggregation hands its batch over at every carrier,
/// ahead of the carrier's partial. Its rows and partials are `gathered`
/// instead, moved behind one another, and go out a full batch at a time
/// (and at the scan's end, [`ChannelConsumer::finish`]): a message per
/// carrier would make every carrier a thread hand-off.
pub(crate) struct ChannelConsumer<'a> {
    tx: &'a SyncSender<Result<ScanMsg>>,
    gathered: Option<ScanMsg>,
}

impl<'a> ChannelConsumer<'a> {
    /// A consumer for a scan whose storage partials, if it pushes
    /// aggregation (`aggregating`), ride with its rows.
    fn new(tx: &'a SyncSender<Result<ScanMsg>>, aggregating: bool) -> ChannelConsumer<'a> {
        ChannelConsumer {
            tx,
            gathered: aggregating.then(ScanMsg::empty),
        }
    }

    /// A closed receiver means the consumer stopped pulling (dropped
    /// stream, early break): the scan ends without error.
    fn send(&self, msg: ScanMsg) -> bool {
        self.tx.send(Ok(msg)).is_ok()
    }

    /// The scan is over: what was gathered goes out.
    fn finish(mut self) {
        if let Some(msg) = self.gathered.take().filter(|m| !m.batch.is_empty()) {
            self.send(msg);
        }
    }
}

impl ScanConsumer for ChannelConsumer<'_> {
    fn on_row(&mut self, row: &[Value]) -> Result<bool> {
        // Row-at-a-time fallback (the scan core always batches): wrap the
        // row in a single-row batch.
        let mut out = RowBatch::with_capacity(row.len(), 1);
        out.push_row(row.iter().cloned());
        self.on_batch_mut(&mut out)
    }

    fn on_batch_mut(&mut self, batch: &mut RowBatch) -> Result<bool> {
        let fresh = |b: &RowBatch| RowBatch::with_capacity(b.width(), b.capacity_rows());
        let Some(msg) = &mut self.gathered else {
            let empty = fresh(batch);
            let full = std::mem::replace(batch, empty);
            return Ok(self.send(ScanMsg {
                batch: full,
                partials: Vec::new(),
            }));
        };
        // What filled up goes out now, not when it filled: the partial of
        // its last row may have followed it.
        let full = (msg.batch.len() >= batch.capacity_rows())
            .then(|| std::mem::replace(msg, ScanMsg::empty()));
        if msg.batch.is_empty() {
            let empty = fresh(batch);
            msg.batch = std::mem::replace(batch, empty);
        } else {
            msg.batch.append(batch);
        }
        Ok(full.is_none_or(|full| self.send(full)))
    }

    fn on_partial(&mut self, states: Vec<AggState>) -> Result<bool> {
        let msg = self.gathered.as_mut().ok_or_else(|| {
            taurus_common::Error::Internal("a row scan received aggregate partials".into())
        })?;
        let carrier =
            msg.batch.len().checked_sub(1).ok_or_else(|| {
                taurus_common::Error::Internal("partial before carrier row".into())
            })?;
        msg.partials.push((carrier, states));
        Ok(true)
    }
}

/// Run one scan producer to completion: the scan core filters (residual
/// conjuncts on record bytes) over the node's range or a PQ worker's
/// `range`, a hash join's `filter` goes with the batch reads of its probe
/// scan, errors and panics surface through the channel (a panic must not
/// masquerade as a clean truncated end-of-stream).
fn run_scan_producer(
    db: &TaurusDb,
    node: &ScanNode,
    view: ReadView,
    qctx: QueryCtx,
    range: Option<ScanRange>,
    filter: Option<&JoinFilter>,
    tx: &SyncSender<Result<ScanMsg>>,
) {
    // The producer is a compute-node thread: its CPU lands in
    // `compute_cpu_ns`, like any query thread.
    let _cpu = CpuGuard::new(&db.metrics().compute_cpu_ns);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<()> {
        let table = db.table(&node.table)?;
        let ctx = ExecContext { db, view, qctx };
        let spec = scan_spec(node, &ctx, range)?;
        let residual = scan_residual(node)?;
        let aggregating = spec.ndp.as_ref().is_some_and(|c| c.aggregation.is_some());
        let mut consumer = ChannelConsumer::new(tx, aggregating);
        scan_ctx(
            ctx.db,
            &table,
            &spec,
            &residual,
            &ctx.view,
            ctx.qctx,
            filter,
            &mut consumer,
        )?;
        consumer.finish();
        Ok(())
    }))
    .unwrap_or_else(|panic| Err(panic_error("scan producer", &*panic)));
    if let Err(e) = result {
        // Receiver may already be gone; nothing else to do then.
        let _ = tx.send(Err(e));
    }
}

/// Pull-side of a batch-native table scan (see the module docs).
pub(crate) struct BatchScanOp<'r, 'scope, 'env> {
    db: &'env TaurusDb,
    node: &'env ScanNode,
    view: ReadView,
    qctx: QueryCtx,
    /// A PQ worker's partition of the node's range.
    range: Option<ScanRange>,
    scope: &'r Scope<'scope, 'env>,
    rx: Option<Receiver<Result<ScanMsg>>>,
    producer: Option<ScopedJoinHandle<'scope, ()>>,
    done: bool,
}

impl<'r, 'scope, 'env> BatchScanOp<'r, 'scope, 'env>
where
    'env: 'scope,
{
    /// A scan of `node`, over `range` instead of the node's own when given.
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env ScanNode,
        range: Option<ScanRange>,
        scope: &'r Scope<'scope, 'env>,
    ) -> BatchScanOp<'r, 'scope, 'env> {
        BatchScanOp {
            db: ctx.db,
            node,
            view: ctx.view.clone(),
            qctx: ctx.qctx,
            range,
            scope,
            rx: None,
            producer: None,
            done: false,
        }
    }

    /// Drop the receiver (unblocking a producer mid-send) and join the
    /// producer so no scan outlives the operator.
    fn shutdown(&mut self) {
        self.done = true;
        self.rx = None;
        if let Some(h) = self.producer.take() {
            let _ = h.join();
        }
    }

    /// Spawn the producer, with a hash join's `filter` when it has one.
    fn start(&mut self, filter: Option<JoinFilter>) {
        if self.rx.is_some() || self.done {
            return;
        }
        let (tx, rx) = sync_channel::<Result<ScanMsg>>(STREAM_CHANNEL_BATCHES);
        let db = self.db;
        let node = self.node;
        let view = self.view.clone();
        let qctx = self.qctx;
        let range = self.range.take();
        self.producer =
            Some(self.scope.spawn(move |_| {
                run_scan_producer(db, node, view, qctx, range, filter.as_ref(), &tx)
            }));
        self.rx = Some(rx);
    }
}

impl BatchScanOp<'_, '_, '_> {
    /// The producer's next message, or `None` once it is done.
    pub(crate) fn next_msg(&mut self) -> Result<Option<ScanMsg>> {
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(Ok(msg)) => Ok(Some(msg)),
            Ok(Err(e)) => {
                self.shutdown();
                Err(e)
            }
            Err(_) => {
                // Producer finished and dropped its sender.
                self.shutdown();
                Ok(None)
            }
        }
    }
}

impl Operator for BatchScanOp<'_, '_, '_> {
    fn name(&self) -> &'static str {
        "BatchScan"
    }

    fn open(&mut self) -> Result<()> {
        self.start(None);
        Ok(())
    }

    fn open_filtered(&mut self, filter: JoinFilter) -> Result<()> {
        self.start(Some(filter));
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        match self.next_msg()? {
            Some(msg) if !msg.partials.is_empty() => {
                self.shutdown();
                Err(taurus_common::Error::Internal(
                    "a row scan received aggregate partials".into(),
                ))
            }
            Some(msg) => {
                charge_emit(self.db, &msg.batch);
                Ok(Some(msg.batch))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) {
        self.shutdown();
    }
}

impl Drop for BatchScanOp<'_, '_, '_> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Open an `AggScan`'s scan and pull it to its end into the node's
/// accumulator `acc`, each partial merged behind its carrier row: the
/// groups, in their output order.
pub(crate) fn drain_agg_scan(
    mut acc: HashAggAcc,
    scan: &mut BatchScanOp<'_, '_, '_>,
) -> Result<AggPartials> {
    scan.open()?;
    while let Some(msg) = scan.next_msg()? {
        let mut partials = msg.partials.iter().peekable();
        for (i, row) in msg.batch.rows().enumerate() {
            acc.update(row)?;
            while let Some((_, states)) = partials.next_if(|(carrier, _)| *carrier == i) {
                acc.merge_partial(states)?;
            }
        }
    }
    scan.close();
    Ok(acc.finish())
}

/// Aggregation fused onto a scan — a pipeline breaker: the scan runs on
/// its own producer, the groups finalize on open, then re-emit
/// batch-at-a-time.
pub(crate) struct AggScanOp<'r, 'scope, 'env> {
    ctx: &'env ExecContext<'env>,
    /// The accumulator, its expressions compiled; taken on open.
    acc: Option<HashAggAcc>,
    scan: BatchScanOp<'r, 'scope, 'env>,
    out: Option<BatchEmitter>,
}

impl<'r, 'scope, 'env> AggScanOp<'r, 'scope, 'env>
where
    'env: 'scope,
{
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env AggScanNode,
        scope: &'r Scope<'scope, 'env>,
    ) -> Result<AggScanOp<'r, 'scope, 'env>> {
        Ok(AggScanOp {
            ctx,
            acc: Some(HashAggAcc::for_agg_scan(node, ctx.db)?),
            scan: BatchScanOp::new(ctx, &node.scan, None, scope),
            out: None,
        })
    }
}

impl Operator for AggScanOp<'_, '_, '_> {
    fn name(&self) -> &'static str {
        "AggScan"
    }

    /// The whole scan runs here, as it always has: whatever opens after
    /// this operator (a join's other side) finds the pool the scan left.
    fn open(&mut self) -> Result<()> {
        let acc = self
            .acc
            .take()
            .ok_or_else(|| taurus_common::Error::Internal("AggScan opened twice".into()))?;
        let partials = drain_agg_scan(acc, &mut self.scan)?;
        let rows = finalize_agg_groups(partials)?;
        self.out = Some(BatchEmitter::new(rows, self.ctx.db));
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self
            .out
            .as_mut()
            .and_then(BatchEmitter::next_batch)
            .and_then(|b| emit_or_end(self.ctx.db, b)))
    }

    fn close(&mut self) {
        self.scan.close();
        self.out = None;
    }
}
