//! Stream-vs-collect parity through the batch-native operator pipeline.
//!
//! Every TPC-H (and micro-benchmark) query's main-stage plan must produce
//! identical rows whether collected via `execute()` (a thin collect over
//! the pipeline) or handed batch by batch to a sink (`Session::run_plan`,
//! the same pipeline). A degenerate-batch matrix re-runs the composite
//! shapes — join, aggregate, sort, LIMIT landing mid-batch, empty inputs,
//! a sink that stops early — at `scan_batch_rows ∈
//! {1, 7, 1024}` so row-at-a-time, tiny-odd, and default batch sizes all
//! exercise the same edges.

use std::sync::Arc;

use taurus_common::schema::Row;
use taurus_common::{ClusterConfig, Result, Value};
use taurus_executor::Session;
use taurus_expr::ast::Expr;
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::{HashAggNode, HashJoinNode, JoinType, Plan, ScanNode};
use taurus_tpch::queries1::{q1_plan, q3_plan};
use taurus_tpch::queries2::q12_plan;
use taurus_tpch::{load, micro_queries, tpch_queries};

const SF: f64 = 0.002;

fn db_custom(batch: Option<usize>, ndp: bool) -> Arc<TaurusDb> {
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = 256; // far smaller than the data
    cfg.slice_pages = 32;
    cfg.ndp.min_io_pages = 8;
    cfg.ndp.max_pages_look_ahead = 64;
    cfg.ndp.enabled = ndp;
    if let Some(b) = batch {
        cfg.scan_batch_rows = b;
    }
    let db = TaurusDb::new(cfg);
    load(&db, SF, 7).unwrap();
    db
}

fn db_with_batch(batch: Option<usize>) -> Arc<TaurusDb> {
    db_custom(batch, true)
}

/// `plan`'s rows through `Session::run_plan`, at most `n` of them: the
/// sink stops the query once it has them.
fn sink_rows(session: &Session, plan: &Plan, n: usize) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    session.run_plan(plan, |mut batch| {
        rows.extend(batch.drain_rows().take(n - rows.len()));
        Ok(rows.len() < n)
    })?;
    Ok(rows)
}

fn fmt_rows(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    // Doubles can round differently across plans; compare
                    // with bounded precision.
                    Value::Double(d) => format!("{d:.4}"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

/// All 22 TPC-H queries (and the micro-benchmark queries), NDP on and
/// off: a sink taking every batch of the pipeline sees what collecting it
/// gives, row for row.
#[test]
fn stream_equals_collect_for_all_queries() {
    for ndp in [true, false] {
        let db = db_custom(None, ndp);
        let session = Session::new(&db);
        for q in tpch_queries().iter().chain(micro_queries().iter()) {
            let plan = (q.plan)(&db, None).unwrap_or_else(|e| panic!("{} plan: {e}", q.name));
            let collected = session
                .execute_plan(&plan)
                .unwrap_or_else(|e| panic!("{} collect (ndp={ndp}): {e}", q.name));
            let streamed = sink_rows(&session, &plan, usize::MAX)
                .unwrap_or_else(|e| panic!("{} stream (ndp={ndp}): {e}", q.name));
            assert_eq!(
                fmt_rows(&streamed),
                fmt_rows(&collected),
                "{} (ndp={ndp}): stream/collect mismatch",
                q.name
            );
        }
    }
}

/// The PQ (Exchange/Gather) stage streams too: plan-level parity for the
/// PQ-capable queries with a parallel degree.
#[test]
fn stream_equals_collect_under_pq() {
    let db = db_with_batch(None);
    let session = Session::new(&db);
    for q in tpch_queries().iter().filter(|q| q.pq_capable) {
        let plan = (q.plan)(&db, Some(4)).unwrap();
        let collected = session.execute_plan(&plan).unwrap();
        let streamed = sink_rows(&session, &plan, usize::MAX).unwrap();
        assert_eq!(
            fmt_rows(&streamed),
            fmt_rows(&collected),
            "{}: PQ stream/collect mismatch",
            q.name
        );
    }
}

/// A lineitem scan whose predicate can never match (empty input for the
/// composite shapes).
fn empty_lineitem() -> Plan {
    Plan::Scan(
        ScanNode::new("lineitem", vec![0, 5, 6])
            .with_predicate(vec![Expr::lt(Expr::col(0), Expr::int(-1))]),
    )
}

#[test]
fn degenerate_batch_matrix() {
    for batch in [1usize, 7, 1024] {
        let db = db_with_batch(Some(batch));
        assert_eq!(db.config().scan_batch_rows, batch);
        let session = Session::new(&db);
        // Composite shapes: join+agg+TopN (Q3), agg+sort (Q1),
        // join+agg+sort (Q12).
        let plans = [
            ("q3", q3_plan(&db, None).unwrap()),
            ("q1", q1_plan(&db, None).unwrap()),
            ("q12", q12_plan(&db, None).unwrap()),
        ];
        for (name, plan) in &plans {
            // Stream == collect at this batch size.
            let collected = session.execute_plan(plan).unwrap();
            let streamed = sink_rows(&session, plan, usize::MAX).unwrap();
            assert_eq!(
                fmt_rows(&streamed),
                fmt_rows(&collected),
                "{name} @ batch={batch}"
            );
            // LIMIT landing mid-batch stops after exactly n rows and
            // matches the unlimited prefix.
            for n in [1usize, 3, 10] {
                let limited = session.execute_plan(&plan.clone().limit(n)).unwrap();
                let want = n.min(collected.len());
                assert_eq!(limited.len(), want, "{name} limit {n} @ batch={batch}");
                assert_eq!(
                    fmt_rows(&limited),
                    fmt_rows(&collected[..want]),
                    "{name} limit {n} must be a prefix @ batch={batch}"
                );
                let streamed_lim = sink_rows(&session, &plan.clone().limit(n), usize::MAX).unwrap();
                assert_eq!(fmt_rows(&streamed_lim), fmt_rows(&limited));
                // A sink that stops after n rows sees the same prefix.
                let stopped = sink_rows(&session, plan, n).unwrap();
                assert_eq!(fmt_rows(&stopped), fmt_rows(&limited));
            }
            // A sink that stops after one row: every scan under the plan
            // must stop and join — the test hanging here is the
            // regression.
            assert_eq!(sink_rows(&session, plan, 1).unwrap().len(), 1);
            // The session stays fully usable afterwards.
            let again = session.execute_plan(plan).unwrap();
            assert_eq!(fmt_rows(&again), fmt_rows(&collected));
        }
        // Empty inputs through join / aggregate / sort shapes.
        let empty_join = Plan::HashJoin(HashJoinNode {
            left: Box::new(empty_lineitem()),
            right: Box::new(empty_lineitem()),
            left_keys: vec![0],
            right_keys: vec![0],
            join: JoinType::Inner,
            filter: None,
        });
        assert!(session.execute_plan(&empty_join).unwrap().is_empty());
        let no_batch = |_| panic!("an empty result hands its sink nothing");
        session.run_plan(&empty_join, no_batch).unwrap();
        let empty_sorted = empty_join.clone().sort(vec![(0, false)]);
        session.run_plan(&empty_sorted, no_batch).unwrap();
        // Scalar aggregate over an empty input: exactly one group
        // (COUNT = 0), streamed and collected alike.
        let scalar_agg = Plan::HashAgg(HashAggNode {
            input: Box::new(empty_lineitem()),
            group: vec![],
            aggs: vec![taurus_optimizer::plan::AggItem {
                func: taurus_optimizer::plan::AggFunc::CountStar,
                input: None,
            }],
        });
        let collected = session.execute_plan(&scalar_agg).unwrap();
        assert_eq!(collected, vec![vec![Value::Int(0)]]);
        let streamed = sink_rows(&session, &scalar_agg, usize::MAX).unwrap();
        assert_eq!(streamed, collected, "scalar agg over empty @ batch={batch}");
    }
}
