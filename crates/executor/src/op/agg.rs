//! Generic hash aggregation over any input — a pipeline breaker that
//! *consumes* streamed batches (the input is never materialized as a
//! `Vec<Row>`; only the grouped partial states are held), then finalizes
//! and re-emits in batches. Group output order is the encoded-group-key
//! order, exactly as the Volcano path always produced.

use taurus_common::{Result, RowBatch};
use taurus_optimizer::plan::HashAggNode;

use super::{emit_or_end, BatchEmitter, BoxOp, Operator};
use crate::exec::{finalize_agg_groups, ExecContext, HashAggAcc};

pub(crate) struct HashAggOp<'r, 'env> {
    ctx: &'env ExecContext<'env>,
    /// The accumulator, its expressions compiled; taken by the first pull.
    acc: Option<HashAggAcc>,
    child: Option<BoxOp<'r>>,
    out: Option<BatchEmitter>,
}

impl<'r, 'env> HashAggOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env HashAggNode,
        child: BoxOp<'r>,
    ) -> Result<HashAggOp<'r, 'env>> {
        Ok(HashAggOp {
            ctx,
            acc: Some(HashAggAcc::new(node)?),
            child: Some(child),
            out: None,
        })
    }
}

impl Operator for HashAggOp<'_, '_> {
    fn name(&self) -> &'static str {
        "HashAgg"
    }

    fn open(&mut self) -> Result<()> {
        match &mut self.child {
            Some(c) => c.open(),
            None => Ok(()),
        }
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if let Some(mut acc) = self.acc.take() {
            if let Some(child) = &mut self.child {
                while let Some(b) = child.next_batch()? {
                    for row in b.rows() {
                        acc.update(row)?;
                    }
                }
            }
            if let Some(mut c) = self.child.take() {
                c.close();
            }
            let rows = finalize_agg_groups(acc.finish())?;
            self.out = Some(BatchEmitter::new(rows, self.ctx.db));
        }
        Ok(self
            .out
            .as_mut()
            .and_then(BatchEmitter::next_batch)
            .and_then(|b| emit_or_end(self.ctx.db, b)))
    }

    fn close(&mut self) {
        if let Some(mut c) = self.child.take() {
            c.close();
        }
        self.out = None;
    }
}
