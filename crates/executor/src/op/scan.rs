//! Scan leaves of the operator pipeline.
//!
//! [`BatchScanOp`] adapts the engine's push-based scan
//! ([`taurus_ndp::scan_ctx`] driving [`ScanConsumer`] callbacks) to the
//! pull contract: `open()` spawns a producer thread on the query's scope,
//! the producer runs the batch-native scan core into a small bounded
//! channel of row batches, and `next_batch()` receives from it. The channel *is* the
//! backpressure: the scan runs at most [`SCAN_CHANNEL_BATCHES`] batches
//! ahead of the consumer, and closing the operator (dropping the
//! receiver) makes the producer's next send fail — [`ChannelConsumer`]
//! turns that into the `ScanConsumer` early-stop `false`, terminating
//! the scan exactly like a row-level stop always has. It is the scan leaf
//! of every plan whose scan feeds an operator that pulls: a bare scan, a
//! join's input, a filter's or a sort's, and a PQ worker's scan that is
//! not aggregated, bounded to the worker's range. A scan directly under a
//! `HashAgg` is never one.
//!
//! The scan core does the scan's own filtering (the node's residual
//! conjuncts run on record bytes) and fills each batch to capacity across
//! pages, so a channel message is a full batch of result rows, moved: the
//! producer swaps it for an empty recycled one, nothing is cloned or
//! rebuilt on the way to the operator above.
//!
//! [`AggScanOp`], a `HashAgg` over a bare scan, needs no adapter. It is a
//! pipeline breaker that consumes its whole scan when it opens, so the
//! scan runs on the thread that opens it, with no producer thread,
//! straight into its accumulator ([`HashAggAcc`] is a [`ScanConsumer`]
//! that folds records: each result record's bytes fold as the Page
//! Store folds them, with no row decoded, and the NDP partials that
//! travel behind their carrier records merge into the carrier's group).
//! Its groups finalize straight into the batches it re-emits.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use crossbeam::thread::{Scope, ScopedJoinHandle};
use taurus_common::metrics::CpuGuard;
use taurus_common::{Error, Result, RowBatch, Value};
use taurus_expr::agg::AggState;
use taurus_ndp::{JoinFilter, ScanConsumer, ScanRange};
use taurus_optimizer::plan::{HashAggNode, ScanNode};

use super::{charge_emit, BatchEmitter, Operator};
use crate::exec::{panic_error, scan_into, ExecContext, HashAggAcc};

/// How many row batches a scan producer may run ahead of the operator
/// above it. The look-ahead bound is batch-granular: this many queued
/// batches plus the one being built, i.e. two batches of materialized
/// look-ahead at most. One queued batch is all the overlap a producer
/// needs (it fills the next while the consumer works on the last), and it
/// is kept at one deliberately: an abandoned scan wastes little work and
/// memory, and a scan never runs further ahead of the operators above it
/// than a small buffer pool keeps its pages (a lookup join back into the
/// table being scanned finds them still cached; at two queued batches a
/// 70-page pool lost them now and then and re-read half the table).
const SCAN_CHANNEL_BATCHES: usize = 1;

/// ScanConsumer that forwards the scan's batches into a bounded channel,
/// one message per batch. Filtering already happened: the scan core runs
/// the residual conjuncts on record bytes, so every row that arrives here
/// is a result row. A full batch is *moved* into the channel — the scan
/// gets an empty (recycled) batch back in its place — and a failed send
/// means the receiver is gone (closed operator): the consumer returns
/// `false` and the scan terminates early.
struct ChannelConsumer<'a> {
    tx: &'a SyncSender<Result<RowBatch>>,
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
        let empty = RowBatch::with_capacity(batch.width(), batch.capacity_rows());
        Ok(self.tx.send(Ok(std::mem::replace(batch, empty))).is_ok())
    }

    fn on_partial(&mut self, _states: Vec<AggState>) -> Result<bool> {
        Err(Error::Internal(
            "a row scan received aggregate partials".into(),
        ))
    }
}

/// Run one scan producer to completion; errors and panics surface
/// through the channel (a panic must not masquerade as a clean truncated
/// end-of-stream).
fn run_scan_producer(
    ctx: &ExecContext<'_>,
    node: &ScanNode,
    range: Option<ScanRange>,
    filter: Option<&JoinFilter>,
    tx: &SyncSender<Result<RowBatch>>,
) {
    // The producer is a compute-node thread: its CPU lands in
    // `compute_cpu_ns`, like any query thread.
    let _cpu = CpuGuard::new(&ctx.db.metrics().compute_cpu_ns);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scan_into(ctx, node, range, filter, &mut ChannelConsumer { tx })
    }))
    .unwrap_or_else(|panic| Err(panic_error("scan producer", &*panic)));
    if let Err(e) = result {
        // Receiver may already be gone; nothing else to do then.
        let _ = tx.send(Err(e));
    }
}

/// Pull-side of a batch-native table scan (see the module docs).
pub(crate) struct BatchScanOp<'r, 'scope, 'env> {
    ctx: &'env ExecContext<'env>,
    node: &'env ScanNode,
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
            ctx,
            node,
            range,
            scope,
            rx: None,
            producer: None,
            done: false,
        }
    }

    /// Spawn the producer, with a hash join's `filter` when it has one.
    fn start(&mut self, filter: Option<JoinFilter>) {
        if self.rx.is_some() || self.done {
            return;
        }
        let (tx, rx) = sync_channel::<Result<RowBatch>>(SCAN_CHANNEL_BATCHES);
        let (ctx, node, range) = (self.ctx, self.node, self.range.take());
        ctx.db.metrics().add(|m| &m.sql_threads_spawned, 1);
        self.producer = Some(
            self.scope
                .spawn(move |_| run_scan_producer(ctx, node, range, filter.as_ref(), &tx)),
        );
        self.rx = Some(rx);
    }
}

impl BatchScanOp<'_, '_, '_> {
    /// Drop the receiver (unblocking a producer mid-send) and join the
    /// producer so no scan outlives the operator.
    fn shutdown(&mut self) {
        self.done = true;
        self.rx = None;
        if let Some(h) = self.producer.take() {
            let _ = h.join();
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
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(Ok(batch)) => {
                charge_emit(self.ctx.db, &batch);
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

/// A `HashAgg` over a bare scan — a pipeline breaker: the scan's records
/// fold into the accumulator on the thread that opens it, then the groups
/// finalize into batches as they re-emit.
pub(crate) struct AggScanOp<'env> {
    ctx: &'env ExecContext<'env>,
    scan: &'env ScanNode,
    /// The accumulator, its expressions compiled; taken on open.
    acc: Option<HashAggAcc>,
    out: Option<BatchEmitter>,
}

impl<'env> AggScanOp<'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env HashAggNode,
        scan: &'env ScanNode,
    ) -> Result<AggScanOp<'env>> {
        Ok(AggScanOp {
            ctx,
            scan,
            acc: Some(HashAggAcc::new(node, ctx.db)?),
            out: None,
        })
    }
}

impl Operator for AggScanOp<'_> {
    fn name(&self) -> &'static str {
        "AggScan"
    }

    /// The whole scan runs here, as it always has: whatever opens after
    /// this operator (a join's other side) finds the pool the scan left.
    fn open(&mut self) -> Result<()> {
        let mut acc = self
            .acc
            .take()
            .ok_or_else(|| Error::Internal("AggScan opened twice".into()))?;
        scan_into(self.ctx, self.scan, None, None, &mut acc)?;
        self.out = Some(BatchEmitter::groups(acc.finish()?, self.ctx.db));
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        BatchEmitter::emit(&mut self.out, self.ctx.db)
    }

    fn close(&mut self) {
        self.out = None;
    }
}
