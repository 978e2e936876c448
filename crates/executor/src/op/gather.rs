//! Gather: the leader side of parallel query (§VI). The Exchange child
//! is range-partitioned across worker threads by
//! [`crate::parallel::exec_exchange`], each pulling the operators over
//! its range; Gather is the barrier that merges per-worker rows or
//! partial aggregate groups and re-emits the merged result in batches.
//! PQ is inherently a pipeline breaker — the leader merge cannot begin
//! until every worker finishes.

use crossbeam::thread::Scope;
use taurus_common::{Result, RowBatch};
use taurus_optimizer::plan::ExchangeNode;

use super::{BatchEmitter, Operator};
use crate::exec::ExecContext;
use crate::parallel::{exec_exchange, WorkerPrep};

pub(crate) struct GatherOp<'r, 'scope, 'env> {
    ctx: &'env ExecContext<'env>,
    /// The query's scope, the workers' home.
    scope: &'r Scope<'scope, 'env>,
    node: &'env ExchangeNode,
    /// The child's expressions, compiled once for every worker.
    prep: WorkerPrep<'env>,
    out: Option<BatchEmitter>,
}

impl<'r, 'scope, 'env> GatherOp<'r, 'scope, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env ExchangeNode,
        scope: &'r Scope<'scope, 'env>,
    ) -> taurus_common::Result<GatherOp<'r, 'scope, 'env>> {
        Ok(GatherOp {
            ctx,
            scope,
            node,
            prep: WorkerPrep::new(&node.child, ctx.db)?,
            out: None,
        })
    }
}

impl Operator for GatherOp<'_, '_, '_> {
    fn name(&self) -> &'static str {
        "Gather"
    }

    fn open(&mut self) -> Result<()> {
        self.out = Some(exec_exchange(self.node, self.ctx, &self.prep, self.scope)?);
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        BatchEmitter::emit(&mut self.out, self.ctx.db)
    }

    fn close(&mut self) {
        self.out = None;
    }
}
