//! Parallel query (§VI): "a table or range scan can be range-partitioned
//! into many sub-scans that are processed in parallel by a pool of worker
//! threads", each sub-scan independently NDP-capable — giving, together
//! with SAL fan-out and Page Store worker pools, the paper's three levels
//! of parallelism.
//!
//! Worker threads are *compute-node* threads: their CPU accrues to
//! `compute_cpu_ns`, exactly like the paper's SQL-node accounting. Partial
//! aggregation follows §III: "AVG is computed by keeping SUM and COUNT
//! values per thread, and a separate 'leader' thread then aggregates the
//! partial values."
//!
//! A worker runs its share on its own thread. A `Scan` or `LookupJoin`
//! child pulls operators ([`crate::op::drain`]) over a `BatchScanOp`
//! bounded to its range and drains into rows; a `HashAgg` over a scan
//! folds its range of the scan's records straight into its accumulator,
//! NDP partials included, as the serial `AggScan` operator folds the
//! whole scan, and hands back the accumulator. The leader then merges
//! whole per-worker results and emits the groups in index order when the
//! GROUP BY follows the index and in encoded-key order otherwise, as the
//! serial plan emits them. In the operator pipeline this whole protocol sits behind the
//! `Gather` operator — the leader merge is PQ's inherent pipeline breaker,
//! and the merged result re-emits in batches.

use crossbeam::thread::Scope;
use taurus_common::metrics::CpuGuard;
use taurus_common::schema::Row;
use taurus_common::{Error, Result};
use taurus_ndp::{partition_ranges, ScanRange, TaurusDb};
use taurus_optimizer::plan::{ExchangeNode, LookupJoinNode, Plan, ScanNode};

use crate::exec::{encode_range, scan_into, ExecContext, HashAggAcc, JoinPrograms};
use crate::op::{collect, BatchEmitter, BatchScanOp, LookupJoinOp};

/// What one worker hands the leader.
enum WorkerOut {
    Rows(Vec<Row>),
    /// Its accumulator, its range of the scan folded in.
    Groups(Box<HashAggAcc>),
}

/// What a worker runs above its scan, its expressions compiled when the
/// Exchange is lowered (before any worker's scan starts): each worker
/// gets a copy.
#[derive(Clone)]
pub(crate) enum WorkerPrep<'env> {
    /// A bare `Scan`.
    Rows,
    /// The accumulator of a `HashAgg` over the scan: the worker's range
    /// of the scan folds straight into it.
    Agg(Box<HashAggAcc>),
    /// A `LookupJoin` and its expressions.
    Join(&'env LookupJoinNode, JoinPrograms),
}

impl<'env> WorkerPrep<'env> {
    pub(crate) fn new(child: &'env Plan, db: &TaurusDb) -> Result<WorkerPrep<'env>> {
        Ok(match child {
            Plan::HashAgg(h) => WorkerPrep::Agg(Box::new(HashAggAcc::new(h, db)?)),
            Plan::LookupJoin(j) => WorkerPrep::Join(j, JoinPrograms::new(j, db)?),
            _ => WorkerPrep::Rows,
        })
    }
}

/// Partition the scan underneath `node`'s child, run one worker per
/// range on the query's scope, each with a copy of `prep`, and merge what
/// they hand back into the batches the Exchange emits.
pub(crate) fn exec_exchange<'env>(
    node: &'env ExchangeNode,
    ctx: &'env ExecContext<'env>,
    prep: &WorkerPrep<'env>,
    s: &Scope<'_, 'env>,
) -> Result<BatchEmitter> {
    let degree = node.degree.max(1);
    let scan_node = partitioned_scan(&node.child)?;
    let table = ctx.db.table(&scan_node.table)?;
    let base_range = encode_range(scan_node, ctx)?;
    let parts = partition_ranges(&table, scan_node.index, &base_range, degree)?;

    let handles: Vec<_> = parts
        .into_iter()
        .map(|range| {
            let prep = prep.clone();
            ctx.db.metrics().add(|m| &m.sql_threads_spawned, 1);
            s.spawn(move |s| -> Result<WorkerOut> {
                // PQ workers are compute threads (SQL-node CPU).
                let _cpu = CpuGuard::new(&ctx.db.metrics().compute_cpu_ns);
                run_worker(prep, scan_node, range, ctx, s)
            })
        })
        .collect();
    // A worker's panic goes on unwinding on this thread, up to the query's
    // one panic boundary in `exec::run`, whose scope joins every other
    // worker on the way.
    let results: Vec<Result<WorkerOut>> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
        .collect();

    // Leader merge: collect every worker's output first (surfacing the
    // first error), then concatenate rows with one exact reservation, or
    // merge the accumulators in partition order into the first one.
    let mut outs = Vec::with_capacity(results.len());
    for r in results {
        outs.push(r?);
    }
    let total_rows: usize = outs
        .iter()
        .map(|o| match o {
            WorkerOut::Rows(rs) => rs.len(),
            WorkerOut::Groups(_) => 0,
        })
        .sum();
    let mut rows: Vec<Row> = Vec::with_capacity(total_rows);
    let mut leader: Option<Box<HashAggAcc>> = None;
    for o in outs {
        match o {
            WorkerOut::Rows(mut rs) => rows.append(&mut rs),
            // A scalar aggregate's workers each have its one group, with
            // the same (empty) key: the merge folds them.
            WorkerOut::Groups(acc) => match &mut leader {
                None => leader = Some(acc),
                Some(leader) => leader.merge(*acc)?,
            },
        }
    }
    Ok(match leader {
        // Groups come out as the serial plan emits them: in index order
        // when the GROUP BY follows the index, in encoded-key order
        // otherwise.
        Some(acc) => BatchEmitter::groups(acc.finish()?, ctx.db),
        None => BatchEmitter::new(rows, ctx.db),
    })
}

/// The scan an Exchange child partitions: the child itself, the `Scan`
/// input of a `HashAgg` or the `Scan` outer of a `LookupJoin`.
fn partitioned_scan(child: &Plan) -> Result<&ScanNode> {
    match child {
        Plan::Scan(s) => Ok(s),
        Plan::HashAgg(h) => match &*h.input {
            Plan::Scan(s) => Ok(s),
            _ => Err(Error::InvalidState(
                "Exchange(HashAgg) requires a Scan input".into(),
            )),
        },
        Plan::LookupJoin(j) => match &*j.outer {
            Plan::Scan(s) => Ok(s),
            _ => Err(Error::InvalidState(
                "Exchange(LookupJoin) requires a Scan outer".into(),
            )),
        },
        other => Err(Error::InvalidState(format!(
            "Exchange cannot partition {other:?}"
        ))),
    }
}

/// One worker's share of the Exchange's child: `scan` (its partitioned
/// scan) bounded to `range`, run through what `prep` runs above it. A
/// scan that is pulled gets its producer on the query's scope `s`.
fn run_worker<'env>(
    prep: WorkerPrep<'env>,
    scan: &'env ScanNode,
    range: ScanRange,
    ctx: &'env ExecContext<'env>,
    s: &Scope<'_, 'env>,
) -> Result<WorkerOut> {
    Ok(match prep {
        WorkerPrep::Agg(mut acc) => {
            scan_into(ctx, scan, Some(range), None, acc.as_mut())?;
            WorkerOut::Groups(acc)
        }
        WorkerPrep::Join(j, programs) => {
            let input = Box::new(BatchScanOp::new(ctx, scan, Some(range), s));
            WorkerOut::Rows(collect(
                ctx,
                Box::new(LookupJoinOp::new(ctx, j, programs, input)),
            )?)
        }
        WorkerPrep::Rows => WorkerOut::Rows(collect(
            ctx,
            Box::new(BatchScanOp::new(ctx, scan, Some(range), s)),
        )?),
    })
}
