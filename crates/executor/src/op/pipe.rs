//! Streaming (non-breaking) operators: Filter, Project, Limit.
//!
//! All three pull one child batch at a time and emit without buffering,
//! so they add no materialization anywhere in the pipeline. On columnar
//! input they are also *compaction-free*: `Filter` evaluates its
//! predicate column-at-a-time ([`VectorProgram`]) and narrows the batch
//! by intersecting selection vectors, `Project` reorders column
//! references without touching the data, and `Limit` truncates the
//! selection — dense rows are only gathered at a pipeline breaker or the
//! stream boundary. `Limit` is the early-stop operator: the moment its
//! budget is spent it *closes* its child subtree, which cancels the
//! producing scans (pull backpressure all the way into `ScanConsumer`
//! early termination) instead of truncating a fully materialized input.

use taurus_common::colbatch::{Batch, ColumnBatch};
use taurus_common::{Result, RowBatch};
use taurus_expr::ast::Expr;
use taurus_expr::eval::{eval, eval_pred};
use taurus_expr::vector::VectorProgram;
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::FilterNode;

use super::{charge_emit, BoxOp, Operator};
use crate::exec::ExecContext;

/// Residual row filter over any input.
pub(crate) struct FilterOp<'r, 'env> {
    db: &'env TaurusDb,
    predicate: &'env Expr,
    /// Column-at-a-time form of the predicate, when it vectorizes.
    vector: Option<VectorProgram>,
    /// Poisoned after the first vector-eval error: the scalar path is
    /// authoritative (it short-circuits past lanes eager evaluation
    /// cannot), so one failed batch disables the vector path for the
    /// rest of the query.
    vector_disabled: bool,
    child: BoxOp<'r>,
}

impl<'r, 'env> FilterOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env FilterNode,
        child: BoxOp<'r>,
    ) -> FilterOp<'r, 'env> {
        let mut vector = VectorProgram::from_expr(&node.predicate).ok();
        // When the filter's input columns are storage-backed (scan values
        // passed through unmodified) and the range analysis proves every
        // decimal rescale overflow-free, the vector kernels may skip
        // their per-lane checked-overflow deferral.
        if let Some(vp) = vector.as_mut() {
            if taurus_verify::columns_storage_backed(&node.input) {
                if let Some(schema) = taurus_verify::infer_plan(&node.input, ctx.db).schema {
                    let dtypes: Vec<_> = schema.iter().map(|c| c.dtype).collect();
                    if taurus_verify::analyze_predicate(&node.predicate, &dtypes).proven {
                        vp.mark_proven_safe();
                    }
                }
            }
        }
        FilterOp {
            db: ctx.db,
            predicate: &node.predicate,
            vector,
            vector_disabled: false,
            child,
        }
    }

    /// Vectorized filter: evaluate over all physical rows, then shrink
    /// the selection (never grow, never compact). `Ok(None)` = nothing
    /// survived, `Err(cb)` = vector eval failed, caller re-runs the
    /// batch through the scalar path.
    fn filter_columnar(
        &mut self,
        mut cb: ColumnBatch,
    ) -> std::result::Result<Option<ColumnBatch>, ColumnBatch> {
        // lint:allow(panic): next_batch only calls in when vector.is_some()
        let vp = self.vector.as_ref().expect("checked by caller");
        let verdicts = match vp.eval_batch(&cb) {
            Ok(v) => v,
            Err(_) => {
                self.vector_disabled = true;
                return Err(cb);
            }
        };
        let physical = cb.len();
        let sel: Vec<u32> = match cb.selection() {
            Some(old) => old
                .iter()
                .copied()
                .filter(|&i| verdicts.is_true(i as usize))
                .collect(),
            None => verdicts.true_indices(),
        };
        let m = self.db.metrics();
        m.add(|x| &x.vector_eval_rows, physical as u64);
        if let Some(pct) = (sel.len() * 100).checked_div(physical) {
            m.set(|x| &x.selection_density_pct, pct as u64);
        }
        if sel.is_empty() {
            return Ok(None);
        }
        cb.set_selection(sel);
        Ok(Some(cb))
    }
}

impl Operator for FilterOp<'_, '_> {
    fn name(&self) -> &'static str {
        "Filter"
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(b) = self.child.next_batch()? else {
                return Ok(None);
            };
            let mut rb = match b {
                Batch::Col(cb) if self.vector.is_some() && !self.vector_disabled => {
                    match self.filter_columnar(cb) {
                        Ok(None) => continue,
                        Ok(Some(out)) => {
                            let out = Batch::Col(out);
                            charge_emit(self.db, &out);
                            return Ok(Some(out));
                        }
                        Err(cb) => cb.to_row_batch(),
                    }
                }
                other => other.into_row_batch(),
            };
            // Row-major input is filtered in place: survivors move to the
            // front of the batch they arrived in.
            rb.retain_rows(|row| Ok(eval_pred(self.predicate, row)? == Some(true)))?;
            if !rb.is_empty() {
                let out = Batch::Row(rb);
                charge_emit(self.db, &out);
                return Ok(Some(out));
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
    exprs: &'env [Expr],
    /// `Some(keep)` iff every projection is a bare column reference —
    /// the case a columnar batch handles by reordering column vectors.
    cols_only: Option<Vec<usize>>,
    child: BoxOp<'r>,
}

impl<'r, 'env> ProjectOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        exprs: &'env [Expr],
        child: BoxOp<'r>,
    ) -> ProjectOp<'r, 'env> {
        let cols_only = exprs
            .iter()
            .map(|e| match e {
                Expr::Col(i) => Some(*i),
                _ => None,
            })
            .collect();
        ProjectOp {
            db: ctx.db,
            exprs,
            cols_only,
            child,
        }
    }
}

impl Operator for ProjectOp<'_, '_> {
    fn name(&self) -> &'static str {
        "Project"
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(b) = self.child.next_batch()? else {
            return Ok(None);
        };
        if let Batch::Col(cb) = &b {
            if let Some(keep) = &self.cols_only {
                if keep.iter().all(|&i| i < cb.width()) {
                    // Pure column selection: move column vectors, keep the
                    // selection — no per-row work at all.
                    let out = Batch::Col(cb.project_cols(keep));
                    charge_emit(self.db, &out);
                    return Ok(Some(out));
                }
            }
        }
        let rb = b.into_row_batch();
        let mut out = RowBatch::with_capacity(self.exprs.len(), rb.len());
        for row in rb.rows() {
            out.try_push_row(self.exprs.iter().map(|e| eval(e, row)))?;
        }
        let out = Batch::Row(out);
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

    fn next_batch(&mut self) -> Result<Option<Batch>> {
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
        // The budget counts *visible* rows, so a columnar batch is
        // truncated through its selection vector — still no compaction.
        if b.selected_len() >= self.remaining {
            b.truncate_selected(self.remaining);
            self.remaining = 0;
            // Budget spent mid-stream: cancel the producing subtree now,
            // not when the operator tree is eventually dropped.
            self.release_child();
        } else {
            self.remaining -= b.selected_len();
        }
        charge_emit(self.db, &b);
        Ok(Some(b))
    }

    fn close(&mut self) {
        self.release_child();
    }
}
