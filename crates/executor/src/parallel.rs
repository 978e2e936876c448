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
//! A worker runs its share the way every plan runs: it pulls operators
//! ([`crate::op::drain`]) over a `BatchScanOp` bounded to its range. A
//! `Scan` or `LookupJoin` child drains into rows, a `HashAgg` folds the
//! pulled batches into grouped partials, and an `AggScan` (aggregation
//! fused onto the scan, with NDP partials) hands back its partials. The
//! leader then merges whole per-worker results. In the operator pipeline
//! this whole protocol sits behind the `Gather` operator — the leader
//! merge is PQ's inherent pipeline breaker, and the merged result
//! re-emits in batches.

use taurus_common::metrics::CpuGuard;
use taurus_common::schema::Row;
use taurus_common::{Error, Result};
use taurus_ndp::{partition_ranges, ScanRange};
use taurus_optimizer::plan::{ExchangeNode, Plan, ScanNode};

use crate::exec::{
    encode_range, finalize_agg_groups, merge_partial_groups, panic_error, AggPartials, ExecContext,
    HashAggAcc,
};
use crate::op::{collect, drain, drain_agg_scan, BatchScanOp, BoxOp, LookupJoinOp};

/// What one worker hands the leader.
enum WorkerOut {
    Rows(Vec<Row>),
    Partials(AggPartials),
}

/// Partition the scan underneath `node`'s child and run one worker per
/// range.
pub(crate) fn exec_exchange(node: &ExchangeNode, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    let degree = node.degree.max(1);
    let scan_node = partitioned_scan(&node.child)?;
    let table = ctx.db.table(&scan_node.table)?;
    let base_range = encode_range(scan_node, ctx)?;
    let parts = partition_ranges(&table, scan_node.index, &base_range, degree)?;

    let results: Vec<Result<WorkerOut>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|range| {
                let child = &*node.child;
                let db = ctx.db;
                let view = ctx.view.clone();
                let qctx = ctx.qctx;
                s.spawn(move |_| -> Result<WorkerOut> {
                    // PQ workers are compute threads (SQL-node CPU).
                    let _cpu = CpuGuard::new(&db.metrics().compute_cpu_ns);
                    run_worker(child, scan_node, range, &ExecContext { db, view, qctx })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| Err(panic_error("pq worker", &*panic)))
            })
            .collect()
    })
    .map_err(|panic| panic_error("pq scope", &*panic))?;

    // Leader merge: collect every worker's output first (surfacing the
    // first error), then concatenate rows with one exact reservation.
    let mut outs = Vec::with_capacity(results.len());
    for r in results {
        outs.push(r?);
    }
    let total_rows: usize = outs
        .iter()
        .map(|o| match o {
            WorkerOut::Rows(rs) => rs.len(),
            WorkerOut::Partials(_) => 0,
        })
        .sum();
    let mut rows: Vec<Row> = Vec::with_capacity(total_rows);
    let mut partials: Vec<AggPartials> = Vec::new();
    let mut saw_partials = false;
    for o in outs {
        match o {
            WorkerOut::Rows(mut rs) => rows.append(&mut rs),
            WorkerOut::Partials(p) => {
                saw_partials = true;
                partials.push(p);
            }
        }
    }
    if saw_partials {
        // A scalar aggregate may produce one group per worker with the
        // same (empty) key — merge_partial_groups folds them.
        let mut merged = merge_partial_groups(partials)?;
        let key_order = match &*node.child {
            Plan::HashAgg(_) => true,
            Plan::AggScan(a) => !a.index_ordered(ctx.db),
            _ => false,
        };
        if key_order {
            // A HashAgg, and an AggScan whose GROUP BY does not follow its
            // index, emit their groups in encoded-key order.
            merged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        finalize_agg_groups(merged)
    } else {
        Ok(rows)
    }
}

/// The scan an Exchange child partitions: the child itself, the scan an
/// `AggScan` is fused onto, or the `Scan` input of a `HashAgg` or the
/// `Scan` outer of a `LookupJoin`.
fn partitioned_scan(child: &Plan) -> Result<&ScanNode> {
    match child {
        Plan::Scan(s) => Ok(s),
        Plan::AggScan(a) => Ok(&a.scan),
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

/// One worker's share of `child`: `scan` (its partitioned scan) bounded
/// to `range`, pulled through the operators above it.
fn run_worker(
    child: &Plan,
    scan: &ScanNode,
    range: ScanRange,
    ctx: &ExecContext<'_>,
) -> Result<WorkerOut> {
    crossbeam::thread::scope(|s| {
        let mut scan_op = BatchScanOp::new(ctx, scan, Some(range), s);
        if let Plan::AggScan(a) = child {
            return Ok(WorkerOut::Partials(drain_agg_scan(
                a,
                ctx.db,
                &mut scan_op,
            )?));
        }
        let input: BoxOp<'_> = Box::new(scan_op);
        Ok(match child {
            Plan::HashAgg(h) => {
                let mut acc = HashAggAcc::new(h);
                drain(input, |batch| {
                    for row in batch.rows() {
                        acc.update(row)?;
                    }
                    Ok(true)
                })?;
                WorkerOut::Partials(acc.finish())
            }
            Plan::LookupJoin(j) => {
                WorkerOut::Rows(collect(Box::new(LookupJoinOp::new(ctx, j, input)))?)
            }
            // `partitioned_scan` admitted the child: a bare `Scan`.
            _ => WorkerOut::Rows(collect(input)?),
        })
    })
    .map_err(|panic| panic_error("pq worker scope", &*panic))?
}
