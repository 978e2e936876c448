//! Session queries through SQL text: name errors, scans through a named
//! index, SQL-vs-hand-built-plan parity, and the streaming terminals
//! (LIMIT mid-batch, dropped, empty and fully drained streams).

use taurus::executor::{execute, ExecContext};
use taurus::expr::ast::Expr;
use taurus::optimizer::ndp_post::ndp_post_process;
use taurus::optimizer::plan::{AggFuncEx, AggItem, AggScanNode, Plan, ScanNode};
use taurus::prelude::*;

fn tpch_db() -> std::sync::Arc<TaurusDb> {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.buffer_pool_pages = 64;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.005, 11).unwrap();
    db.buffer_pool().clear();
    db
}

/// Bind a SELECT and stream it.
fn stream(session: &Session, text: &str) -> RowStream {
    let Statement::Select(select) = parse(text).unwrap() else {
        panic!("not a SELECT: {text}");
    };
    session.stream_plan(bind(session, &select).unwrap())
}

/// The positioned diagnostic a statement fails with.
fn parse_error(session: &Session, text: &str) -> String {
    match session.sql(text) {
        Err(Error::Parse(m)) => m,
        other => panic!("{text}: expected a positioned parse error, got {other:?}"),
    }
}

// --- error paths -------------------------------------------------------------

#[test]
fn unknown_table_is_name_resolution_error() {
    let db = tpch_db();
    let m = parse_error(&Session::new(&db), "select * from lineitems");
    assert!(m.contains("unknown table `lineitems`"), "{m}");
    assert!(m.contains("line 1, col 15"), "{m}");
}

#[test]
fn unknown_column_name_is_name_resolution_error() {
    let db = tpch_db();
    let session = Session::new(&db);
    // In a filter, in a select list, and in an aggregate input.
    for (text, col) in [
        (
            "select * from lineitem where l_shipdat < date '1998-01-01'",
            "l_shipdat",
        ),
        ("select l_orderkey, l_oops from lineitem", "l_oops"),
        ("select sum(l_oops) from lineitem", "l_oops"),
    ] {
        let m = parse_error(&session, text);
        assert!(m.contains(&format!("unknown column `{col}`")), "{m}");
    }
}

#[test]
fn unknown_index_is_name_resolution_error() {
    let db = tpch_db();
    let m = parse_error(
        &Session::new(&db),
        "select * from lineitem force index (i_no_such_index)",
    );
    assert!(
        m.contains("unknown index `i_no_such_index` on table `lineitem`"),
        "{m}"
    );
}

#[test]
fn order_by_out_of_range_position_is_rejected() {
    let db = tpch_db();
    let m = parse_error(
        &Session::new(&db),
        "select l_orderkey from lineitem order by 3",
    );
    assert!(m.contains("must appear in the SELECT list"), "{m}");
}

#[test]
fn secondary_index_coverage_checked_at_build_time() {
    let db = tpch_db();
    let session = Session::new(&db);
    // i_l_partkey stores only (l_partkey, l_orderkey, l_linenumber);
    // l_comment is not covered — the binder must say so by name.
    let m = parse_error(
        &session,
        "select l_partkey, l_comment from lineitem force index (i_l_partkey)",
    );
    assert!(m.contains("l_comment"), "{m}");
    assert!(m.contains("i_l_partkey"), "{m}");
    assert!(m.contains("line 1, col 56"), "{m}");
    // A covered query through the same index works...
    let rows = session
        .sql(
            "select l_partkey, l_orderkey from lineitem force index (i_l_partkey) \
             where l_partkey <= 2",
        )
        .unwrap();
    assert!(!rows.is_empty());
    // ...and its rows arrive in the secondary index's key order.
    let keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
}

#[test]
fn session_refresh_keeps_transaction_identity() {
    let db = tpch_db();
    let trx = db.begin();
    let t = db.table("region").unwrap();
    let mut session = Session::for_trx(&db, trx);
    db.insert_row(
        &t,
        trx,
        &vec![
            Value::Int(99),
            Value::str("ATLANTIS"),
            Value::str("uncommitted region"),
        ],
    )
    .unwrap();
    // Own uncommitted write is visible before and after refresh().
    session.refresh();
    assert!(session
        .lookup("region", &[Value::Int(99)])
        .unwrap()
        .is_some());
    // A plain session still cannot see it.
    assert!(Session::new(&db)
        .lookup("region", &[Value::Int(99)])
        .unwrap()
        .is_none());
    db.rollback(trx).unwrap();
}

// --- parity with hand-built plans -------------------------------------------

/// Hand-built plan, optimized and executed through the raw
/// `execute(plan, ctx)` layer.
fn run_hand_built(db: &TaurusDb, mut plan: Plan) -> Vec<Row> {
    ndp_post_process(&mut plan, db).unwrap();
    execute(&plan, &ExecContext::new(db)).unwrap()
}

#[test]
fn sql_group_agg_equals_agg_scan_plan() {
    let db = tpch_db();
    // GROUP BY a key prefix aggregates during the scan.
    let hand_built = run_hand_built(
        &db,
        Plan::AggScan(AggScanNode {
            scan: ScanNode::new("lineitem", vec![0, 4]),
            group_cols: vec![0],
            aggs: vec![
                AggItem {
                    func: AggFuncEx::Sum,
                    input: Some(Expr::col(4)),
                },
                AggItem {
                    func: AggFuncEx::CountStar,
                    input: None,
                },
            ],
        }),
    );
    db.buffer_pool().clear();
    let rows = Session::new(&db)
        .sql("select l_orderkey, sum(l_quantity), count(*) from lineitem group by l_orderkey")
        .unwrap();
    assert!(!rows.is_empty());
    assert_eq!(rows, hand_built);
}

// --- batched streaming ---------------------------------------------------

/// LIMIT landing mid-batch (scan_batch_rows = 7 in small_for_tests) must
/// truncate exactly, matching a prefix of the unlimited result.
#[test]
fn limit_lands_mid_batch() {
    let db = tpch_db();
    let session = Session::new(&db);
    const Q: &str = "select l_orderkey, l_linenumber, l_quantity from lineitem";
    let all = session.sql(Q).unwrap();
    for n in [1usize, 7, 10, 20] {
        let lim = session.sql(&format!("{Q} limit {n}")).unwrap();
        assert_eq!(lim.len(), n);
        assert_eq!(lim, all[..n], "limit {n} must be a prefix");
        // The streaming path agrees with the materializing path.
        let streamed: Vec<Row> = stream(&session, Q).take(n).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, all[..n]);
    }
}

/// Dropping a stream mid-batch must unblock the producer thread and join
/// it (the test hanging = regression); the session stays usable.
#[test]
fn stream_dropped_mid_batch_unblocks_producer() {
    let db = tpch_db();
    let session = Session::new(&db);
    let mut stream = stream(&session, "select * from lineitem");
    for _ in 0..3 {
        stream.next().unwrap().unwrap();
    }
    drop(stream); // joins the producer; must not hang
    let rows = session.sql("select * from region").unwrap();
    assert!(!rows.is_empty(), "session survives a dropped stream");
}

/// A stream whose filter rejects everything ends cleanly: no rows, no
/// error, producer joined.
#[test]
fn empty_stream_terminates() {
    let db = tpch_db();
    let session = Session::new(&db);
    let mut stream = stream(&session, "select * from lineitem where l_orderkey < 0");
    assert!(stream.next().is_none());
}

/// Full-stream drain equals collect (one batch boundary cannot drop or
/// duplicate rows).
#[test]
fn stream_drain_equals_collect() {
    let db = tpch_db();
    let session = Session::new(&db);
    const Q: &str = "select o_orderkey, o_totalprice from orders where o_orderkey <= 500";
    let collected = session.sql(Q).unwrap();
    let streamed: Vec<Row> = stream(&session, Q).map(|r| r.unwrap()).collect();
    assert_eq!(streamed, collected);
    assert!(!collected.is_empty());
}

#[test]
fn order_by_and_limit_shape_results() {
    let db = tpch_db();
    let rows = Session::new(&db)
        .sql("select o_orderkey, o_totalprice from orders order by o_totalprice desc limit 5")
        .unwrap();
    assert_eq!(rows.len(), 5);
    for w in rows.windows(2) {
        assert!(w[0][1].cmp_total(&w[1][1]).is_ge(), "descending order");
    }
}
