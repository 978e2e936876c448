//! The batch-native pull operator pipeline.
//!
//! Every [`Plan`] variant lowers to a physical [`Operator`] with the
//! Volcano-with-batches contract:
//!
//! * `open()` acquires resources (spawns the scan producer, builds the
//!   hash table, materializes the sort input) — it is called exactly once,
//!   before the first `next_batch()`.
//! * `next_batch()` pulls the next [`RowBatch`] of output, or `None` at
//!   end of stream. Batches are never empty.
//! * `close()` releases resources *early* — in particular it cancels any
//!   producing scan (dropping the scan channel receiver makes the
//!   producer's next send fail, which [`taurus_ndp::ScanConsumer`]
//!   surfaces as an early-termination `false`). Dropping an operator
//!   closes it too; `close()` exists so pipeline breakers and `LIMIT`
//!   can cancel their subtree the moment it is no longer needed.
//!
//! Pull backpressure replaces materialized `Vec<Row>` hand-offs: a
//! `Limit` that stops pulling stops the scan (§IV-C batch reads stop
//! being issued), and `RowStream` can stream *any* sort-free prefix of a
//! plan — the pipeline breakers (sort, aggregation, hash-join build,
//! PQ gather) materialize at their breaker and re-emit in batches.
//!
//! Operators borrow the plan and [`ExecContext`] for `'env` and spawn
//! producer threads on a [`crossbeam::thread::Scope`] so that the whole
//! tree works with plain references — no `Arc` plumbing through the
//! executor. Every entry point runs a plan the same way, [`drain`]:
//! [`crate::exec::execute`] collects the batches, [`crate::RowStream`]
//! forwards them through the stream channel, and each PQ worker
//! ([`crate::parallel`]) pulls the operators over its range of the scan.

mod agg;
mod gather;
mod join;
mod pipe;
mod scan;
mod sort;

pub(crate) use join::LookupJoinOp;
pub(crate) use scan::{drain_agg_scan, BatchScanOp};

use crossbeam::thread::Scope;
use taurus_common::schema::Row;
use taurus_common::{Result, RowBatch};
use taurus_ndp::{JoinFilter, TaurusDb};
use taurus_optimizer::plan::Plan;

use crate::exec::{ExecContext, JoinPrograms};

/// A physical operator: batch-at-a-time pull execution.
///
/// [`RowBatch`] is the only interchange format between operators: scans
/// hand over the batches the scan core filled on record bytes, streaming
/// operators filter, project and truncate them in place, and pipeline
/// breakers (sort, aggregation, join build, gather) consume their rows.
pub trait Operator {
    /// Stable operator name. `EXPLAIN`'s physical rendering lives in the
    /// optimizer crate and re-states this mapping; the
    /// `operator_names_match_physical_explain` test pins the two
    /// together so they cannot silently diverge.
    fn name(&self) -> &'static str;

    /// Acquire resources; called once before the first `next_batch`.
    fn open(&mut self) -> Result<()>;

    /// [`Operator::open`] as the probe side of a hash join with a join
    /// filter over its build keys. A scan sends the filter with its batch
    /// reads; any other operator has no use for it (the join above
    /// decides every row either way) and just opens.
    fn open_filtered(&mut self, filter: JoinFilter) -> Result<()> {
        drop(filter);
        self.open()
    }

    /// Pull the next non-empty batch, or `None` at end of stream.
    fn next_batch(&mut self) -> Result<Option<RowBatch>>;

    /// Release resources and cancel producing scans. Idempotent.
    fn close(&mut self);
}

/// A lowered operator: boxed against the scope-ref lifetime `'r` (the
/// operator may hold scoped producer join handles and `'env` plan/context
/// borrows; both outlive `'r`).
pub type BoxOp<'r> = Box<dyn Operator + 'r>;

/// Lower a logical plan to its physical operator tree. Scan leaves spawn
/// their producers on `scope` when opened.
pub fn lower<'r, 'scope, 'env>(
    plan: &'env Plan,
    ctx: &'env ExecContext<'env>,
    scope: &'r Scope<'scope, 'env>,
) -> Result<BoxOp<'r>>
where
    'env: 'scope,
    'scope: 'r,
{
    Ok(match plan {
        Plan::Scan(node) => Box::new(BatchScanOp::new(ctx, node, None, scope)),
        Plan::AggScan(node) => Box::new(scan::AggScanOp::new(ctx, node, scope)?),
        Plan::LookupJoin(node) => Box::new(LookupJoinOp::new(
            ctx,
            node,
            JoinPrograms::new(node)?,
            lower(&node.outer, ctx, scope)?,
        )),
        Plan::HashJoin(node) => Box::new(join::HashJoinOp::new(
            ctx,
            node,
            lower(&node.left, ctx, scope)?,
            lower(&node.right, ctx, scope)?,
        )),
        Plan::HashAgg(node) => Box::new(agg::HashAggOp::new(
            ctx,
            node,
            lower(&node.input, ctx, scope)?,
        )?),
        Plan::Project(p) => Box::new(pipe::ProjectOp::new(
            ctx,
            &p.exprs,
            lower(&p.input, ctx, scope)?,
        )?),
        Plan::Filter(f) => Box::new(pipe::FilterOp::new(ctx, f, lower(&f.input, ctx, scope)?)?),
        Plan::Sort(s) => Box::new(sort::SortOp::new(ctx, s, lower(&s.input, ctx, scope)?)),
        Plan::Limit { input, n } => {
            Box::new(pipe::LimitOp::new(ctx, *n, lower(input, ctx, scope)?))
        }
        Plan::Exchange(e) => Box::new(gather::GatherOp::new(ctx, e)?),
    })
}

/// Run an operator tree: open it, hand every batch to `sink` until the
/// tree is drained or `sink` answers `false`, close it. Dropping the tree
/// on an error closes it as well.
pub(crate) fn drain(
    mut root: BoxOp<'_>,
    mut sink: impl FnMut(RowBatch) -> Result<bool>,
) -> Result<()> {
    root.open()?;
    while let Some(batch) = root.next_batch()? {
        if !sink(batch)? {
            break;
        }
    }
    root.close();
    Ok(())
}

/// [`drain`] into rows.
pub(crate) fn collect(root: BoxOp<'_>) -> Result<Vec<Row>> {
    let mut out: Vec<Row> = Vec::new();
    drain(root, |mut batch| {
        out.reserve(batch.len());
        out.extend(batch.drain_rows());
        Ok(true)
    })?;
    Ok(out)
}

/// The streamed input of an operator whose output batch can fill before
/// its input batch is used up (the probe side of a join, whose output rows
/// are wider than its input's and as many as the match fan-out makes
/// them): it pulls the child one batch at a time and remembers how far
/// into that batch it has read, so a full output batch is emitted
/// mid-input and the next pull resumes there.
pub(crate) struct InputCursor<'r> {
    child: Option<BoxOp<'r>>,
    batch: Option<RowBatch>,
    next: usize,
}

impl<'r> InputCursor<'r> {
    pub(crate) fn new(child: BoxOp<'r>) -> InputCursor<'r> {
        InputCursor {
            child: Some(child),
            batch: None,
            next: 0,
        }
    }

    pub(crate) fn open(&mut self) -> Result<()> {
        match &mut self.child {
            Some(c) => c.open(),
            None => Ok(()),
        }
    }

    /// [`InputCursor::open`] through [`Operator::open_filtered`].
    pub(crate) fn open_filtered(&mut self, filter: JoinFilter) -> Result<()> {
        match &mut self.child {
            Some(c) => c.open_filtered(filter),
            None => Ok(()),
        }
    }

    /// The next unread input row. At the end of an input batch (which is
    /// dropped) the child is pulled again only if `pull`, so a caller
    /// with output in hand can emit it at the input's batch boundaries:
    /// an operator above then works on rows whose pages a scan below
    /// touched moments ago, not a whole table ago. `None` also once the
    /// child is exhausted (which closes it).
    pub(crate) fn next_row(&mut self, pull: bool) -> Result<Option<&[taurus_common::Value]>> {
        Ok(self.next_in_batch(pull)?.map(|(b, i)| b.row(i)))
    }

    /// [`InputCursor::next_row`] as the input batch and the row's position
    /// in it: position 0 says the batch was pulled just now, and the rows
    /// from the position on are the batch's unread ones (a lookup join
    /// looks ahead over them).
    pub(crate) fn next_in_batch(&mut self, pull: bool) -> Result<Option<(&RowBatch, usize)>> {
        while self.batch.as_ref().is_none_or(|b| self.next >= b.len()) {
            self.batch = None;
            if !pull {
                return Ok(None);
            }
            let Some(child) = &mut self.child else {
                return Ok(None);
            };
            match child.next_batch()? {
                Some(b) => (self.batch, self.next) = (Some(b), 0),
                None => {
                    self.close();
                    return Ok(None);
                }
            }
        }
        self.next += 1;
        Ok(self.batch.as_ref().map(|b| (b, self.next - 1)))
    }

    pub(crate) fn close(&mut self) {
        if let Some(mut c) = self.child.take() {
            c.close();
        }
        self.batch = None;
    }
}

/// Charge the pipeline-traffic counters at an operator's emit site.
pub(crate) fn charge_emit(db: &TaurusDb, batch: &RowBatch) {
    db.metrics().add(|m| &m.operator_rows, batch.len() as u64);
    db.metrics().add(|m| &m.operator_batches, 1);
}

/// Hand an operator's filled output batch up (charging the emit), or
/// report end of stream when nothing was put in it.
pub(crate) fn emit_or_end(db: &TaurusDb, out: RowBatch) -> Option<RowBatch> {
    if out.is_empty() {
        return None;
    }
    charge_emit(db, &out);
    Some(out)
}

/// Re-emit a breaker's materialized rows in batches of the configured
/// scan batch size (sort / aggregation / gather output side).
pub(crate) struct BatchEmitter {
    rows: std::vec::IntoIter<Row>,
    batch_rows: usize,
}

impl BatchEmitter {
    pub(crate) fn new(rows: Vec<Row>, db: &TaurusDb) -> BatchEmitter {
        BatchEmitter {
            rows: rows.into_iter(),
            batch_rows: db.config().scan_batch_rows.max(1),
        }
    }

    pub(crate) fn next_batch(&mut self) -> Option<RowBatch> {
        let first = self.rows.next()?;
        let mut b = RowBatch::with_capacity(first.len(), self.batch_rows);
        b.push_row(first);
        while !b.is_full() {
            match self.rows.next() {
                Some(r) => b.push_row(r),
                None => break,
            }
        }
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use taurus_common::schema::{Column, TableSchema};
    use taurus_common::{ClusterConfig, DataType};
    use taurus_expr::ast::Expr;
    use taurus_ndp::TaurusDb;
    use taurus_optimizer::plan::{
        AggFuncEx, AggItem, AggScanNode, HashAggNode, HashJoinNode, JoinType, LookupJoinNode,
        ScanNode,
    };

    use super::*;

    fn tiny_db() -> Arc<TaurusDb> {
        let db = TaurusDb::new(ClusterConfig::small_for_tests());
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::BigInt),
                Column::new("v", DataType::Int),
            ],
            vec![0],
        );
        db.create_table(schema, &[]).unwrap();
        db
    }

    fn scan() -> Plan {
        Plan::Scan(ScanNode::new("t", vec![0, 1]))
    }

    fn count_star() -> AggItem {
        AggItem {
            func: AggFuncEx::CountStar,
            input: None,
        }
    }

    /// An expression that does not compile (an IN list past the IR's u16
    /// constant pool) fails the plan when it is lowered, before any
    /// operator opens and any scan starts.
    #[test]
    fn an_expression_that_does_not_compile_fails_at_lower() {
        let db = tiny_db();
        let ctx = ExecContext::new(&db);
        let list = (0..70_000).map(taurus_common::Value::Int).collect();
        let plan = scan().filter(Expr::in_list(Expr::col(1), list));
        let err = crossbeam::thread::scope(|s| lower(&plan, &ctx, s).err()).unwrap();
        assert!(
            matches!(err, Some(taurus_common::Error::InvalidState(_))),
            "{err:?}"
        );
    }

    /// `explain_physical` (optimizer crate) re-states the name mapping
    /// `lower` implements here; pin the two against each other so a new
    /// or renamed operator cannot silently diverge between them.
    #[test]
    fn operator_names_match_physical_explain() {
        let db = tiny_db();
        let ctx = ExecContext::new(&db);
        let plans: Vec<Plan> = vec![
            scan(),
            scan().filter(Expr::ge(Expr::col(1), Expr::int(0))),
            scan().project(vec![Expr::col(0)]),
            scan().limit(3),
            scan().sort(vec![(0, false)]),
            scan().top_n(vec![(0, false)], 2),
            scan().exchange(2),
            Plan::HashJoin(HashJoinNode {
                left: Box::new(scan()),
                right: Box::new(scan()),
                left_keys: vec![0],
                right_keys: vec![0],
                join: JoinType::Inner,
                filter: None,
            }),
            Plan::HashAgg(HashAggNode {
                input: Box::new(scan()),
                group: vec![],
                aggs: vec![count_star()],
            }),
            Plan::AggScan(AggScanNode {
                scan: ScanNode::new("t", vec![0]),
                group_cols: vec![],
                aggs: vec![count_star()],
            }),
            Plan::LookupJoin(LookupJoinNode {
                outer: Box::new(scan()),
                table: "t".into(),
                index: 0,
                outer_key_cols: vec![0],
                on: None,
                inner_output: vec![1],
                join: JoinType::Inner,
                inner_predicate: vec![],
                inner_ndp: None,
            }),
        ];
        for plan in &plans {
            // `lower` without `open` spawns nothing; only the name is read.
            let root_name =
                crossbeam::thread::scope(|s| lower(plan, &ctx, s).unwrap().name().to_string())
                    .unwrap();
            let phys = taurus_optimizer::explain_physical(plan, &db);
            // Line 0 is the "Physical pipeline (batch = ...)" header; the
            // root operator is line 1.
            let root_line = phys.lines().nth(1).unwrap().trim_start();
            let rendered = root_line.trim_start_matches("-> ");
            assert!(
                rendered.starts_with(&root_name),
                "lower() says {root_name:?}, explain_physical renders {rendered:?}"
            );
        }
    }
}
