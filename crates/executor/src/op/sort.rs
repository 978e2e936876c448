//! Sort / TopN: the canonical pipeline breaker. The input drains fully
//! on the first pull (stable sort, same comparator the Volcano executor
//! always used), the optional TopN limit truncates, and the sorted run
//! re-emits in batches.

use taurus_common::schema::Row;
use taurus_common::{Result, RowBatch};
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::SortNode;

use super::{emit_or_end, BatchEmitter, BoxOp, Operator};
use crate::exec::ExecContext;

pub(crate) struct SortOp<'r, 'env> {
    db: &'env TaurusDb,
    node: &'env SortNode,
    child: Option<BoxOp<'r>>,
    out: Option<BatchEmitter>,
}

impl<'r, 'env> SortOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env SortNode,
        child: BoxOp<'r>,
    ) -> SortOp<'r, 'env> {
        SortOp {
            db: ctx.db,
            node,
            child: Some(child),
            out: None,
        }
    }
}

impl Operator for SortOp<'_, '_> {
    fn name(&self) -> &'static str {
        if self.node.limit.is_some() {
            "TopN"
        } else {
            "Sort"
        }
    }

    fn open(&mut self) -> Result<()> {
        match &mut self.child {
            Some(c) => c.open(),
            None => Ok(()),
        }
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.out.is_none() {
            let mut rows: Vec<Row> = Vec::new();
            if let Some(child) = &mut self.child {
                while let Some(mut b) = child.next_batch()? {
                    rows.reserve(b.len());
                    rows.extend(b.drain_rows());
                }
            }
            if let Some(mut c) = self.child.take() {
                c.close();
            }
            rows.sort_by(|a, b| {
                for (pos, desc) in &self.node.keys {
                    let ord = a[*pos].cmp_total(&b[*pos]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            if let Some(n) = self.node.limit {
                rows.truncate(n);
            }
            self.out = Some(BatchEmitter::new(rows, self.db));
        }
        Ok(self
            .out
            .as_mut()
            .and_then(BatchEmitter::next_batch)
            .and_then(|b| emit_or_end(self.db, b)))
    }

    fn close(&mut self) {
        if let Some(mut c) = self.child.take() {
            c.close();
        }
        self.out = None;
    }
}
