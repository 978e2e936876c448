//! Hash aggregation over a pulled input — a pipeline breaker that
//! *consumes* streamed batches (the input is never materialized as a
//! `Vec<Row>`; only the groups are held, in flat arenas), then finalizes
//! them straight into output batches. Group output order is the
//! encoded-group-key order. A `HashAgg` over a bare scan is not one: it
//! folds its scan's records ([`super::scan::AggScanOp`]).

use taurus_common::{Result, RowBatch};
use taurus_optimizer::plan::HashAggNode;

use super::{check_deadline, BatchEmitter, BoxOp, Operator};
use crate::exec::{ExecContext, HashAggAcc};

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
            acc: Some(HashAggAcc::new(node, ctx.db)?),
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
                    check_deadline(self.ctx, "aggregation")?;
                    for row in b.rows() {
                        acc.update(row)?;
                    }
                }
            }
            if let Some(mut c) = self.child.take() {
                c.close();
            }
            self.out = Some(BatchEmitter::groups(acc.finish()?, self.ctx.db));
        }
        BatchEmitter::emit(&mut self.out, self.ctx.db)
    }

    fn close(&mut self) {
        if let Some(mut c) = self.child.take() {
            c.close();
        }
        self.out = None;
    }
}
