//! Streaming (non-breaking) operators: Filter, Project, Limit.
//!
//! All three pull one child batch at a time and emit without buffering,
//! so they add no materialization anywhere in the pipeline. `Filter`
//! compacts survivors to the front of the batch they arrived in and
//! `Limit` truncates it. `Limit` is the early-stop operator: the moment
//! its budget is spent it *closes* its child subtree, which cancels the
//! producing scans (pull backpressure all the way into `ScanConsumer`
//! early termination) instead of truncating a fully materialized input.
//! `Filter`'s predicate and `Project`'s expressions are compiled when the
//! operator is lowered and run on the record VM.

use std::borrow::Cow;

use taurus_common::{Result, RowBatch};
use taurus_expr::ast::Expr;
use taurus_expr::vm::CompiledPredicate;
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::{FilterNode, Plan, ProjectNode};

use super::{charge_emit, BoxOp, Operator};
use crate::exec::{row_types, ExecContext, RowExpr};

/// Residual row filter over any input.
pub(crate) struct FilterOp<'r, 'env> {
    db: &'env TaurusDb,
    predicate: CompiledPredicate,
    child: BoxOp<'r>,
}

impl<'r, 'env> FilterOp<'r, 'env> {
    /// The filter `node` of `plan`, over `child`. Its predicate is typed
    /// by the rows `plan` passes on, which are its input's (inferred
    /// with the Filter on top: a pushed HAVING is valid only under the
    /// Filter it is the storage form of).
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        plan: &'env Plan,
        node: &'env FilterNode,
        child: BoxOp<'r>,
    ) -> Result<FilterOp<'r, 'env>> {
        Ok(FilterOp {
            db: ctx.db,
            predicate: CompiledPredicate::for_rows(&node.predicate, &row_types(plan, ctx.db)?)?,
            child,
        })
    }
}

impl Operator for FilterOp<'_, '_> {
    fn name(&self) -> &'static str {
        "Filter"
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        loop {
            let Some(mut rb) = self.child.next_batch()? else {
                return Ok(None);
            };
            // Filtered in place: survivors move to the front of the batch
            // they arrived in.
            rb.retain_rows(|row| self.predicate.row_passes(row))?;
            if !rb.is_empty() {
                charge_emit(self.db, &rb);
                return Ok(Some(rb));
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Per-row expression projection.
pub(crate) struct ProjectOp<'r, 'env> {
    db: &'env TaurusDb,
    exprs: Vec<RowExpr>,
    child: BoxOp<'r>,
}

impl<'r, 'env> ProjectOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env ProjectNode,
        child: BoxOp<'r>,
    ) -> Result<ProjectOp<'r, 'env>> {
        // Only a program needs its input's types.
        let input = match node.exprs.iter().all(|e| matches!(e, Expr::Col(_))) {
            true => Vec::new(),
            false => row_types(&node.input, ctx.db)?,
        };
        Ok(ProjectOp {
            db: ctx.db,
            exprs: node
                .exprs
                .iter()
                .map(|e| RowExpr::new(e, &input))
                .collect::<Result<_>>()?,
            child,
        })
    }
}

impl Operator for ProjectOp<'_, '_> {
    fn name(&self) -> &'static str {
        "Project"
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let Some(rb) = self.child.next_batch()? else {
            return Ok(None);
        };
        let mut out = RowBatch::with_capacity(self.exprs.len(), rb.len());
        for row in rb.rows() {
            out.try_push_row(self.exprs.iter().map(|e| e.value(row).map(Cow::into_owned)))?;
        }
        charge_emit(self.db, &out);
        Ok(Some(out))
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// LIMIT with early-stop: stops pulling after `n` rows and cancels the
/// producing subtree immediately.
pub(crate) struct LimitOp<'r, 'env> {
    db: &'env TaurusDb,
    remaining: usize,
    child: Option<BoxOp<'r>>,
}

impl<'r, 'env> LimitOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        n: usize,
        child: BoxOp<'r>,
    ) -> LimitOp<'r, 'env> {
        LimitOp {
            db: ctx.db,
            remaining: n,
            child: Some(child),
        }
    }

    /// Close and drop the child subtree: scan producers observe their
    /// channel receiver disappearing and terminate.
    fn release_child(&mut self) {
        if let Some(mut c) = self.child.take() {
            c.close();
        }
    }
}

impl Operator for LimitOp<'_, '_> {
    fn name(&self) -> &'static str {
        "Limit"
    }

    fn open(&mut self) -> Result<()> {
        if self.remaining == 0 {
            // LIMIT 0: never start the scans at all.
            self.release_child();
            return Ok(());
        }
        match &mut self.child {
            Some(c) => c.open(),
            None => Ok(()),
        }
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.remaining == 0 {
            self.release_child();
            return Ok(None);
        }
        let Some(child) = &mut self.child else {
            return Ok(None);
        };
        let Some(mut b) = child.next_batch()? else {
            self.release_child();
            return Ok(None);
        };
        if b.len() >= self.remaining {
            b.truncate_rows(self.remaining);
            self.remaining = 0;
            // Budget spent mid-stream: cancel the producing subtree now,
            // not when the operator tree is eventually dropped.
            self.release_child();
        } else {
            self.remaining -= b.len();
        }
        charge_emit(self.db, &b);
        Ok(Some(b))
    }

    fn close(&mut self) {
        self.release_child();
    }
}
