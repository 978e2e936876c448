//! Streaming query results.
//!
//! [`RowStream`] is the default result type of the [`crate::Session`]
//! facade: a pull-based iterator of rows backed by a producer thread and
//! a small bounded channel of **row batches** — one channel message per
//! batch, rows popped locally from the current batch. *Any* plan streams,
//! and every plan the same way: the producer thread lowers the plan
//! ([`crate::op::lower`]) and drains its root operator into the channel,
//! so a sort-free filter/project/limit over a join or aggregate streams
//! without materializing the full result set, and a bare scan is a
//! one-operator tree. Pipeline breakers (aggregation, sorts, hash-join
//! builds, PQ gather) materialize at their breaker *inside* the pipeline
//! and re-emit in batches.
//!
//! The pipeline advances only as fast as the stream is pulled. Dropping
//! the stream closes the channel; the producer's next send fails, it
//! stops pulling the root operator, and closing the operator tree
//! cancels every in-flight scan (their own channel receivers disappear,
//! surfacing as `ScanConsumer` early termination).

use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use taurus_common::metrics::CpuGuard;
use taurus_common::schema::Row;
use taurus_common::{QueryCtx, Result, RowBatch};
use taurus_ndp::{ReadView, TaurusDb};
use taurus_optimizer::plan::Plan;

use crate::exec::{panic_error, ExecContext};
use crate::op::{drain, lower};

/// How many row batches the producer may run ahead of the consumer. The
/// look-ahead bound is batch-granular: this many queued batches plus the
/// one being built, i.e. two batches of materialized look-ahead at most.
/// One queued batch is all the overlap a producer needs (it fills the
/// next while the consumer works on the last), and it is kept at one
/// deliberately: an abandoned stream wastes little scan work and memory,
/// and a scan never runs further ahead of the operators above it than a
/// small buffer pool keeps its pages (a lookup join back into the table
/// being scanned finds them still cached; at two queued batches a
/// 70-page pool lost them now and then and re-read half the table).
pub(crate) const STREAM_CHANNEL_BATCHES: usize = 1;

/// An iterator of query result rows; see the module docs for how plans
/// stream and where pipeline breakers materialize. Always backed by a
/// live producer thread behind a bounded batch channel.
pub struct RowStream {
    rx: Receiver<Result<RowBatch>>,
    /// The most recently received batch; rows `..next_row` of it have
    /// been popped by `next()`.
    cur: RowBatch,
    next_row: usize,
    producer: Option<JoinHandle<()>>,
}

impl RowStream {
    /// Spawn a producer thread executing `plan` under `view`: it lowers
    /// the plan to the operator pipeline and drains the root into a
    /// bounded channel of row batches.
    pub(crate) fn spawn_plan(
        db: Arc<TaurusDb>,
        plan: Plan,
        view: ReadView,
        qctx: QueryCtx,
    ) -> RowStream {
        // The plan is verified before anything spawns, in every build; a
        // rejected plan surfaces as the stream's first (and only) item,
        // before any operator opens or scan producer starts.
        if let Err(e) = taurus_verify::check_plan(&plan, &db) {
            return RowStream::fail(e);
        }
        let (tx, rx) = sync_channel::<Result<RowBatch>>(STREAM_CHANNEL_BATCHES);
        let producer = std::thread::Builder::new()
            .name("taurus-row-stream".into())
            .spawn(move || {
                // The producer is a compute-node thread: its CPU lands in
                // `compute_cpu_ns`, like any query thread.
                let _cpu = CpuGuard::new(&db.metrics().compute_cpu_ns);
                let ctx = ExecContext {
                    db: &db,
                    view,
                    qctx,
                };
                // A panic must surface as a stream error, not as a clean
                // (truncated!) end-of-stream: catch it and send it over.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    crossbeam::thread::scope(|s| {
                        // A failed send means the receiver is gone (dropped
                        // stream): stop pulling; closing the tree cancels
                        // every in-flight scan.
                        drain(lower(&plan, &ctx, s)?, |batch| {
                            Ok(tx.send(Ok(batch)).is_ok())
                        })
                    })
                }))
                .and_then(|scoped| scoped)
                .unwrap_or_else(|panic| Err(panic_error("row-stream producer", &*panic)));
                if let Err(e) = result {
                    // Receiver may already be gone; nothing else to do then.
                    let _ = tx.send(Err(e));
                }
            })
            // lint:allow(panic): thread spawn fails only on OS resource exhaustion
            .expect("spawn row-stream producer");
        RowStream {
            rx,
            cur: RowBatch::with_capacity(0, 1),
            next_row: 0,
            producer: Some(producer),
        }
    }

    /// A stream that delivers exactly one error: a refusal produced
    /// before any operator or producer existed.
    pub(crate) fn fail(e: taurus_common::Error) -> RowStream {
        let (tx, rx) = sync_channel::<Result<RowBatch>>(1);
        let _ = tx.send(Err(e));
        RowStream {
            rx,
            cur: RowBatch::with_capacity(0, 1),
            next_row: 0,
            producer: None,
        }
    }

    /// Drain the stream into a vector (convenience terminal).
    pub fn collect_rows(self) -> Result<Vec<Row>> {
        self.collect()
    }

    /// Pull the next whole batch. This is the wire path of the network
    /// server: result frames encode straight from these batches, no
    /// per-row rematerialization between the scan pipeline and the
    /// socket. Rows already popped by `next()` are not repeated — a
    /// partially-consumed current batch is drained into a fresh batch
    /// first. `None` means the producer finished cleanly.
    pub fn next_batch(&mut self) -> Option<Result<RowBatch>> {
        if self.next_row < self.cur.len() {
            let mut rest = std::mem::replace(&mut self.cur, RowBatch::with_capacity(0, 1));
            rest.discard_front(std::mem::take(&mut self.next_row));
            return Some(Ok(rest));
        }
        self.rx.recv().ok()
    }
}

impl Iterator for RowStream {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Result<Row>> {
        loop {
            if self.next_row < self.cur.len() {
                self.next_row += 1;
                return Some(Ok(self.cur.take_row(self.next_row - 1)));
            }
            match self.rx.recv() {
                Ok(Ok(batch)) => {
                    self.cur = batch;
                    self.next_row = 0;
                }
                Ok(Err(e)) => return Some(Err(e)),
                Err(_) => return None, // producer finished
            }
        }
    }
}

impl Drop for RowStream {
    fn drop(&mut self) {
        // Unblock the producer (its next send fails), then join it so no
        // pipeline outlives the stream handle. Batches already buffered
        // locally in `cur` are simply dropped.
        drop(std::mem::replace(&mut self.rx, sync_channel(1).1));
        if let Some(h) = self.producer.take() {
            let _ = h.join();
        }
    }
}
