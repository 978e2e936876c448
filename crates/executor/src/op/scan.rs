//! Scan leaves of the operator pipeline.
//!
//! [`BatchScanOp`] adapts the engine's push-based scan ([`scan_ctx`]
//! driving [`ScanConsumer`] callbacks) to the pull contract: `open()`
//! spawns a producer thread on the executor's scoped thread pool, the
//! producer runs the batch-native scan core into a small bounded channel
//! of [`RowBatch`]es, and `next_batch()` receives from it. The channel
//! *is* the backpressure: the scan runs at most [`STREAM_CHANNEL_BATCHES`]
//! batches ahead of the consumer, and closing the operator (dropping the
//! receiver) makes the producer's next send fail — [`ChannelConsumer`]
//! turns that into the `ScanConsumer` early-stop `false`, terminating
//! the scan exactly like a row-level stop always has. It is every plan's
//! scan leaf: a bare scan a `RowStream` runs, and a PQ worker's scan,
//! bounded to the worker's range.
//!
//! The scan core does the scan's own filtering (the node's residual
//! conjuncts run on record bytes) and fills each batch to capacity across
//! pages, so a channel message is a full batch of result rows, moved: the
//! producer swaps it for an empty recycled one, nothing is cloned or
//! rebuilt on the way to the operator above.
//!
//! [`AggScanOp`] is a pipeline breaker: index-ordered streaming
//! aggregation (with NDP partial merging) runs to completion on open and
//! the finalized groups re-emit in batches.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use crossbeam::thread::{Scope, ScopedJoinHandle};
use taurus_common::metrics::CpuGuard;
use taurus_common::{QueryCtx, Result, RowBatch, Value};
use taurus_expr::agg::AggState;
use taurus_ndp::{scan_ctx, JoinFilter, ReadView, ScanConsumer, ScanRange, TaurusDb};
use taurus_optimizer::plan::{AggScanNode, ScanNode};

use super::{charge_emit, emit_or_end, BatchEmitter, Operator};
use crate::exec::{
    exec_agg_scan_partials, finalize_agg_groups, panic_error, scan_residual, scan_spec, ExecContext,
};
use crate::stream::STREAM_CHANNEL_BATCHES;

/// ScanConsumer that forwards the scan's batches into a bounded channel,
/// one message per batch. Filtering already happened: the scan core runs
/// the residual conjuncts on record bytes, so every row that arrives
/// here is a result row. A full batch is *moved* into the channel — the
/// scan gets an empty (recycled) batch back in its place — and a failed
/// send means the receiver is gone (closed operator, dropped stream):
/// the consumer returns `false` and the scan terminates early.
pub(crate) struct ChannelConsumer<'a> {
    pub(crate) tx: &'a SyncSender<Result<RowBatch>>,
}

impl ScanConsumer for ChannelConsumer<'_> {
    fn on_row(&mut self, row: &[Value]) -> Result<bool> {
        // Row-at-a-time fallback (the scan core always batches): wrap the
        // row in a single-row batch.
        let mut out = RowBatch::with_capacity(row.len(), 1);
        out.push_row(row.iter().cloned());
        Ok(self.tx.send(Ok(out)).is_ok())
    }

    fn on_batch_mut(&mut self, batch: &mut RowBatch) -> Result<bool> {
        let empty = RowBatch::with_capacity(batch.width(), batch.capacity_rows());
        let full = std::mem::replace(batch, empty);
        // A closed receiver means the consumer stopped pulling (dropped
        // stream, early break): end the scan without error.
        Ok(self.tx.send(Ok(full)).is_ok())
    }

    fn on_partial(&mut self, _states: Vec<AggState>) -> Result<bool> {
        Err(taurus_common::Error::Internal(
            "row stream received aggregate partials".into(),
        ))
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
    tx: &SyncSender<Result<RowBatch>>,
) {
    // The producer is a compute-node thread: its CPU lands in
    // `compute_cpu_ns`, like any query thread.
    let _cpu = CpuGuard::new(&db.metrics().compute_cpu_ns);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<()> {
        let table = db.table(&node.table)?;
        let ctx = ExecContext { db, view, qctx };
        let spec = scan_spec(node, &ctx, range)?;
        let residual = scan_residual(node)?;
        let mut consumer = ChannelConsumer { tx };
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
    rx: Option<Receiver<Result<RowBatch>>>,
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
        let (tx, rx) = sync_channel::<Result<RowBatch>>(STREAM_CHANNEL_BATCHES);
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
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(Ok(batch)) => {
                charge_emit(self.db, &batch);
                Ok(Some(batch))
            }
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

    fn close(&mut self) {
        self.shutdown();
    }
}

impl Drop for BatchScanOp<'_, '_, '_> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Streaming (index-ordered) aggregation fused onto a scan — a pipeline
/// breaker: groups finalize on open, then re-emit batch-at-a-time.
pub(crate) struct AggScanOp<'env> {
    ctx: &'env ExecContext<'env>,
    node: &'env AggScanNode,
    out: Option<BatchEmitter>,
}

impl<'env> AggScanOp<'env> {
    pub(crate) fn new(ctx: &'env ExecContext<'env>, node: &'env AggScanNode) -> AggScanOp<'env> {
        AggScanOp {
            ctx,
            node,
            out: None,
        }
    }
}

impl Operator for AggScanOp<'_> {
    fn name(&self) -> &'static str {
        "AggScan"
    }

    fn open(&mut self) -> Result<()> {
        let partials = exec_agg_scan_partials(self.node, self.ctx, None)?;
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
        self.out = None;
    }
}
