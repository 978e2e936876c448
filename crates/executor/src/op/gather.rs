//! Gather: the leader side of parallel query (§VI). The Exchange child
//! is range-partitioned across worker threads by
//! [`crate::parallel::exec_exchange`], each pulling the operators over
//! its range; Gather is the barrier that merges per-worker rows or
//! partial aggregate groups and re-emits the merged result in batches.
//! PQ is inherently a pipeline breaker — the leader merge cannot begin
//! until every worker finishes.

use taurus_common::{Result, RowBatch};
use taurus_optimizer::plan::ExchangeNode;

use super::{emit_or_end, BatchEmitter, Operator};
use crate::exec::ExecContext;
use crate::parallel::{exec_exchange, WorkerPrep};

pub(crate) struct GatherOp<'env> {
    ctx: &'env ExecContext<'env>,
    node: &'env ExchangeNode,
    /// The child's expressions, compiled once for every worker.
    prep: WorkerPrep<'env>,
    out: Option<BatchEmitter>,
}

impl<'env> GatherOp<'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env ExchangeNode,
    ) -> taurus_common::Result<GatherOp<'env>> {
        Ok(GatherOp {
            ctx,
            node,
            prep: WorkerPrep::new(&node.child, ctx.db)?,
            out: None,
        })
    }
}

impl Operator for GatherOp<'_> {
    fn name(&self) -> &'static str {
        "Gather"
    }

    fn open(&mut self) -> Result<()> {
        let rows = exec_exchange(self.node, self.ctx, &self.prep)?;
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
