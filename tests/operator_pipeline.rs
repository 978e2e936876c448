//! The batch-native pull pipeline, observed from the outside: operator
//! traffic counters, LIMIT cancelling producing scans, dropped streams
//! stopping mid-plan producers, and the physical EXPLAIN tree.

use taurus::executor::{execute, ExecContext};
use taurus::optimizer::ndp_post::ndp_post_process;
use taurus::optimizer::plan::{HashJoinNode, JoinType, Plan, ScanNode};
use taurus::prelude::*;

fn tpch_db() -> std::sync::Arc<TaurusDb> {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.buffer_pool_pages = 64;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.005, 11).unwrap();
    db.buffer_pool().clear();
    db
}

fn lineitem_rows(db: &TaurusDb) -> u64 {
    db.table("lineitem").unwrap().stats.read().row_count
}

/// A join plan whose probe side streams lineitem: orders builds the hash
/// table, lineitem probes.
fn join_plan(db: &TaurusDb) -> Plan {
    let lineitem = Plan::Scan(ScanNode::new("lineitem", vec![0, 3, 4]));
    let orders = Plan::Scan(ScanNode::new("orders", vec![0, 1]));
    let mut plan = Plan::HashJoin(HashJoinNode {
        left: Box::new(lineitem),
        right: Box::new(orders),
        left_keys: vec![0],
        right_keys: vec![0],
        join: JoinType::Inner,
        filter: None,
    });
    ndp_post_process(&mut plan, db).unwrap();
    plan
}

/// On a scan-only plan the operator emit counters pin against the scan
/// core's batch counters: the BatchScan operator re-emits exactly the
/// batches the scan flushed (no residual, no projection), so
/// `operator_rows == rows_batched` and `operator_batches ==
/// batches_emitted`. A stream runs the same tree as `execute`: a bare
/// scan, and a prefix `Project` over a scan (the builder's way of hiding
/// predicate-only columns), stream the rows `execute` collects and charge
/// the same counters, the `Project` once more per row it emits.
#[test]
fn operator_counters_pin_against_scan_batches() {
    let db = tpch_db();
    let mut plan = Plan::Scan(ScanNode::new("lineitem", vec![0, 1, 2]));
    ndp_post_process(&mut plan, &db).unwrap();
    let before = db.metrics().snapshot();
    let rows = execute(&plan, &ExecContext::new(&db)).unwrap();
    let d = db.metrics().snapshot().since(&before);
    assert_eq!(rows.len() as u64, lineitem_rows(&db));
    assert_eq!(
        d.operator_rows, d.rows_batched,
        "scan-only: every batched row is emitted once"
    );
    assert_eq!(d.operator_batches, d.batches_emitted);
    // Batches fill across pages: lineitem's thousands of rows on hundreds
    // of leaves arrive in exactly ceil(rows / batch) batches.
    let batch_rows = db.config().scan_batch_rows as u64;
    assert_eq!(d.operator_batches, lineitem_rows(&db).div_ceil(batch_rows));

    use taurus::expr::ast::Expr;
    let session = Session::new(&db);
    // [l_orderkey, l_linenumber] where l_quantity < 10: the predicate's
    // column is delivered last and hidden.
    let scan = ScanNode::new("lineitem", vec![0, 3, 4])
        .with_predicate(vec![Expr::lt(Expr::col(4), Expr::int(10))]);
    let mut prefix = Plan::Scan(scan).project(vec![Expr::col(0), Expr::col(1)]);
    ndp_post_process(&mut prefix, &db).unwrap();
    for (what, plan, emitters) in [("bare scan", plan, 1), ("prefix project", prefix, 2)] {
        let collected = execute(&plan, &ExecContext::new(&db)).unwrap();
        let before = db.metrics().snapshot();
        let streamed: Vec<Row> = session.stream_plan(plan).map(|r| r.unwrap()).collect();
        let d = db.metrics().snapshot().since(&before);
        assert_eq!(streamed, collected, "{what}");
        assert!(!streamed.is_empty(), "{what}");
        assert_eq!(d.rows_batched, streamed.len() as u64, "{what}");
        assert_eq!(
            d.operator_rows,
            emitters * d.rows_batched,
            "{what}: each operator emits every row once"
        );
        assert_eq!(d.operator_batches, emitters * d.batches_emitted, "{what}");
    }
}

/// Through a two-operator pipeline (Limit over BatchScan) each row is
/// charged at most once per operator that emits it.
#[test]
fn operator_counters_count_per_emit_site() {
    let db = tpch_db();
    let mut plan = Plan::Scan(ScanNode::new("lineitem", vec![0, 1])).limit(10);
    ndp_post_process(&mut plan, &db).unwrap();
    let before = db.metrics().snapshot();
    let rows = execute(&plan, &ExecContext::new(&db)).unwrap();
    let d = db.metrics().snapshot().since(&before);
    assert_eq!(rows.len(), 10);
    // Scan emits >= 10 rows (up to the channel look-ahead), Limit emits
    // exactly 10; the sum is strictly less than two full scans.
    assert!(
        d.operator_rows >= 20,
        "scan + limit both charge: {}",
        d.operator_rows
    );
    assert!(
        d.operator_rows < 2 * lineitem_rows(&db),
        "LIMIT must not let both operators emit the full table"
    );
}

/// `Plan::Limit` over a non-scan input stops pulling after `n` rows and
/// cancels the producing scans: the probe-side scan of a join terminates
/// far short of the full table.
#[test]
fn limit_over_join_cancels_probe_scan() {
    let db = tpch_db();
    let total = lineitem_rows(&db);
    let plan = join_plan(&db).limit(5);
    let before = db.metrics().snapshot();
    let rows = execute(&plan, &ExecContext::new(&db)).unwrap();
    let d = db.metrics().snapshot().since(&before);
    assert_eq!(rows.len(), 5);
    // The orders build side scans fully; the lineitem probe side must
    // stop after a handful of batches (bounded channel look-ahead), not
    // scan all of lineitem.
    let orders = db.table("orders").unwrap().stats.read().row_count;
    assert!(
        d.rows_scanned < orders + total / 2,
        "probe scan should stop early: scanned {} of {} lineitem rows",
        d.rows_scanned - orders.min(d.rows_scanned),
        total
    );
}

/// Acceptance: `RowStream` streams a sort-free filter/limit plan over a
/// join without materializing the full result set — dropping the stream
/// early stops the producer (and its scans), observed through the scan
/// counters freezing short of the full table.
#[test]
fn dropped_stream_over_join_stops_producer() {
    let db = tpch_db();
    let total = lineitem_rows(&db);
    let session = Session::new(&db);
    let plan = join_plan(&db).filter(taurus::expr::ast::Expr::ge(
        taurus::expr::ast::Expr::col(1),
        taurus::expr::ast::Expr::int(0),
    ));
    let before = db.metrics().snapshot();
    let mut stream = session.stream_plan(plan);
    for _ in 0..3 {
        stream.next().unwrap().unwrap();
    }
    drop(stream); // joins the producer; hanging here is the regression
    let d = db.metrics().snapshot().since(&before);
    let orders = db.table("orders").unwrap().stats.read().row_count;
    assert!(
        d.rows_scanned < orders + total / 2,
        "dropped stream must stop the probe scan: {} rows scanned",
        d.rows_scanned
    );
    // Producer is joined: the counters are final. A fresh query still
    // works on the same session.
    let d2 = db.metrics().snapshot().since(&before);
    assert_eq!(d.rows_scanned, d2.rows_scanned);
    assert!(!session.sql("select * from region").unwrap().is_empty());
}

/// A LEFT OUTER hash join whose build side produces no rows must still
/// NULL-pad every left row to the full static right width (the legacy
/// executor emitted unpadded rows here, blowing up downstream operators
/// that index past the left columns).
#[test]
fn left_outer_join_with_empty_build_side_null_pads() {
    use taurus::expr::ast::Expr;
    let db = tpch_db();
    let lineitem = Plan::Scan(ScanNode::new("lineitem", vec![0, 4]));
    let no_orders = Plan::Scan(
        ScanNode::new("orders", vec![0, 1])
            .with_predicate(vec![Expr::lt(Expr::col(0), Expr::int(-1))]),
    );
    let mut plan = Plan::HashJoin(HashJoinNode {
        left: Box::new(lineitem),
        right: Box::new(no_orders),
        left_keys: vec![0],
        right_keys: vec![0],
        join: JoinType::LeftOuter,
        filter: None,
    });
    ndp_post_process(&mut plan, &db).unwrap();
    assert_eq!(taurus::verify::plan_width(&plan), 4);
    let rows = execute(&plan.clone().limit(20), &ExecContext::new(&db)).unwrap();
    assert_eq!(rows.len(), 20);
    for r in &rows {
        assert_eq!(r.len(), 4, "left width 2 + right width 2, NULL-padded");
        assert!(r[2].is_null() && r[3].is_null());
    }
    // A downstream operator indexing into the right columns works:
    // COUNT(o_custkey) over the join is 0, not an error.
    let counted = execute(
        &taurus::optimizer::plan::Plan::HashAgg(taurus::optimizer::plan::HashAggNode {
            input: Box::new(plan),
            group: vec![],
            aggs: vec![taurus::optimizer::plan::AggItem {
                func: taurus::optimizer::plan::AggFuncEx::Count,
                input: Some(Expr::col(3)),
            }],
        }),
        &ExecContext::new(&db),
    )
    .unwrap();
    assert_eq!(counted, vec![vec![Value::Int(0)]]);
}

/// Parallel query runs the same operators as the serial plan, over a
/// range of the scan per worker: every shape an `Exchange` partitions
/// (`Scan`, `AggScan`, `HashAgg(Scan)`, `LookupJoin(Scan)`), at degrees
/// 1, 3 and 8, NDP off and on, is byte-equal to its serial plan, through
/// `execute` and through a stream.
#[test]
fn pq_matrix_equals_serial() {
    use taurus::expr::ast::Expr;
    use taurus::optimizer::plan::{AggFuncEx, AggItem, AggScanNode, HashAggNode, LookupJoinNode};
    let db = tpch_db();
    let agg = |func, input| AggItem { func, input };
    // lineitem [l_orderkey, l_linenumber, l_quantity] where l_quantity < 25.
    let lineitem = || {
        Plan::Scan(
            ScanNode::new("lineitem", vec![0, 3, 4])
                .with_predicate(vec![Expr::lt(Expr::col(4), Expr::int(25))]),
        )
    };
    let shapes: Vec<(&str, Plan)> = vec![
        ("Scan", lineitem()),
        (
            "AggScan",
            Plan::AggScan(AggScanNode {
                scan: ScanNode::new("lineitem", vec![0, 4]),
                group_cols: vec![0],
                aggs: vec![
                    agg(AggFuncEx::Sum, Some(Expr::col(4))),
                    agg(AggFuncEx::Avg, Some(Expr::col(4))),
                    agg(AggFuncEx::CountStar, None),
                ],
            }),
        ),
        (
            "HashAgg(Scan)",
            Plan::HashAgg(HashAggNode {
                input: Box::new(lineitem()),
                group: vec![Expr::col(1)],
                aggs: vec![
                    agg(AggFuncEx::Sum, Some(Expr::col(2))),
                    agg(AggFuncEx::Avg, Some(Expr::col(2))),
                    agg(AggFuncEx::Count, Some(Expr::col(0))),
                ],
            }),
        ),
        (
            "LookupJoin(Scan)",
            Plan::LookupJoin(LookupJoinNode {
                outer: Box::new(Plan::Scan(ScanNode::new("orders", vec![0, 1]))),
                table: "lineitem".into(),
                index: 0,
                outer_key_cols: vec![0],
                on: None,
                inner_output: vec![3, 4],
                join: JoinType::Inner,
                inner_predicate: vec![Expr::lt(Expr::col(4), Expr::int(10))],
                inner_ndp: None,
            }),
        ),
    ];
    for ndp in [false, true] {
        let session = Session::new(&db).with_ndp(ndp);
        for (shape, plan) in &shapes {
            let mut serial = plan.clone();
            if ndp {
                ndp_post_process(&mut serial, &db).unwrap();
            }
            let want = session.execute_plan(&serial).unwrap();
            assert!(!want.is_empty(), "{shape} ndp={ndp}");
            for degree in [1usize, 3, 8] {
                let parallel = serial.clone().exchange(degree);
                let at = format!("{shape} ndp={ndp} degree={degree}");
                assert_eq!(session.execute_plan(&parallel).unwrap(), want, "{at}");
                let streamed: Vec<Row> =
                    session.stream_plan(parallel).map(|r| r.unwrap()).collect();
                assert_eq!(streamed, want, "{at} streamed");
            }
        }
    }
    assert_eq!(db.buffer_pool().ndp_frames_in_use(), 0);
    assert_eq!(db.metrics().snapshot().ndp_batches_in_flight, 0);
}

/// EXPLAIN renders the lowered physical pipeline alongside the logical
/// tree: operator names, batch size, and per-scan NDP decisions.
#[test]
fn explain_renders_physical_pipeline() {
    let db = tpch_db();
    let session = Session::new(&db);
    let text: String = session
        .sql(
            "explain select l_orderkey, l_quantity from lineitem where l_quantity < 10 \
             order by l_orderkey limit 7",
        )
        .unwrap()
        .iter()
        .map(|line| format!("{}\n", line[0]))
        .collect();
    assert!(text.contains("Physical pipeline"), "{text}");
    assert!(
        text.contains(&format!("batch = {} rows", db.config().scan_batch_rows)),
        "{text}"
    );
    assert!(text.contains("TopN(7)"), "{text}");
    assert!(text.contains("BatchScan on lineitem"), "{text}");

    // The physical tree names every operator of a composite plan.
    let phys = taurus::optimizer::explain_physical(&join_plan(&db).limit(3), &db);
    for needle in [
        "Limit(3)",
        "HashJoin",
        "BatchScan on lineitem",
        "BatchScan on orders",
    ] {
        assert!(phys.contains(needle), "{needle} missing from:\n{phys}");
    }
}

/// A plan-level `Filter` is the one Filter path left (the scan core runs
/// scan conjuncts on record bytes): a runtime error in its predicate comes
/// out of collect and stream alike, and the guarded form of the same
/// predicate returns exactly the rows it selects, at batch 1 and 1024.
#[test]
fn filter_over_join_surfaces_runtime_errors_and_short_circuits() {
    use taurus::expr::ast::Expr;
    // Over the join's [l_orderkey, l_linenumber, l_quantity, o_orderkey,
    // o_custkey]: `c` is zero on every line number 1.
    let c = || Expr::sub(Expr::col(1), Expr::int(1));
    let ratio_over_10 = || Expr::gt(Expr::div(Expr::col(2), c()), Expr::int(10));
    for batch in [1usize, 1024] {
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.buffer_pool_pages = 64;
        cfg.scan_batch_rows = batch;
        let db = TaurusDb::new(cfg);
        taurus::tpch::load(&db, 0.005, 11).unwrap();
        let session = Session::new(&db);

        let unguarded = join_plan(&db).filter(ratio_over_10());
        let err = session.execute_plan(&unguarded).unwrap_err();
        assert!(
            matches!(err, Error::Arithmetic(_)),
            "batch {batch}: {err:?}"
        );
        let mut stream = session.stream_plan(unguarded);
        let last = stream.by_ref().find(|r| r.is_err());
        assert!(
            matches!(last, Some(Err(Error::Arithmetic(_)))),
            "batch {batch}: the stream must end in the error, got {last:?}"
        );
        assert!(stream.next().is_none(), "batch {batch}");

        let all = session.execute_plan(&join_plan(&db)).unwrap();
        let want: Vec<Row> = all
            .into_iter()
            .filter(|r| {
                let line = r[1].as_int().unwrap();
                line == 1 || r[2].as_f64().unwrap() > 10.0 * (line - 1) as f64
            })
            .collect();
        assert!(!want.is_empty(), "batch {batch}");
        let guarded =
            join_plan(&db).filter(Expr::or(vec![Expr::eq(c(), Expr::int(0)), ratio_over_10()]));
        assert_eq!(
            session.execute_plan(&guarded).unwrap(),
            want,
            "batch {batch}"
        );
        let streamed: Vec<Row> = session.stream_plan(guarded).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, want, "batch {batch}");
    }
}
