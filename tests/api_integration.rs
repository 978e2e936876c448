//! Cross-crate integration through the public `taurus` API: DDL, DML,
//! transactions, `Session` + SQL text, EXPLAIN, and streaming execution.

use taurus::prelude::*;

fn worker_db() -> (std::sync::Arc<TaurusDb>, std::sync::Arc<Table>) {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.min_io_pages = 1;
    let db = TaurusDb::new(cfg);
    // "The query only projects one column out of many" (§III) — the wide
    // columns are what makes NDP column projection worthwhile.
    let schema = TableSchema::new(
        "worker",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("age", DataType::Int),
            Column::new("joindate", DataType::Date),
            Column::new(
                "salary",
                DataType::Decimal {
                    precision: 15,
                    scale: 2,
                },
            ),
            Column::new("name", DataType::Varchar(40)),
            Column::new("resume", DataType::Varchar(120)),
        ],
        vec![0],
    );
    let t = db.create_table(schema, &[]).unwrap();
    let rows: Vec<Row> = (0..2000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(20 + i % 50),
                Value::Date(Date32::from_ymd(2008, 1, 1).add_days((i % 2000) as i32)),
                Value::Decimal(Dec::new((40_000 + i * 13) as i128, 2)),
                Value::str(format!("worker number {i}")),
                Value::str(format!(
                    "joined the company and wrote code, id {i}, more text here"
                )),
            ]
        })
        .collect();
    db.bulk_load(&t, rows).unwrap();
    db.buffer_pool().clear();
    (db, t)
}

/// The §III Listing-1 query.
const LISTING1: &str = "select avg(salary) from worker \
     where age < 40 and joindate >= date '2010-01-01' and joindate < date '2011-01-01'";

/// `EXPLAIN` output as text, one plan line per row.
fn explain(session: &Session, text: &str) -> String {
    let lines = session.sql(&format!("explain {text}")).unwrap();
    lines.iter().map(|l| format!("{}\n", l[0])).collect()
}

#[test]
fn explain_prints_listing2_annotations() {
    let (db, _t) = worker_db();
    let text = explain(&Session::new(&db), LISTING1);
    assert!(text.contains("Using pushed NDP condition"), "{text}");
    assert!(text.contains("Using pushed NDP columns"), "{text}");
    assert!(text.contains("Using pushed NDP aggregate"), "{text}");
    assert!(text.contains("joindate"), "column names resolved: {text}");
    assert!(text.contains("Physical pipeline"), "{text}");
    assert!(text.contains("AggScan on worker"), "{text}");
    // One report line per table access.
    let reports: Vec<&str> = text.lines().filter(|l| l.contains("est_io")).collect();
    assert_eq!(reports.len(), 1, "{text}");
    assert!(reports[0].contains("[worker]"), "{text}");
    assert!(reports[0].contains("aggregate=true"), "{text}");
}

#[test]
fn listing1_avg_matches_with_and_without_ndp() {
    let (db, _t) = worker_db();
    let session = Session::new(&db).with_ndp(false);
    let plain = QueryRun::measure(&db, || session.sql(LISTING1)).unwrap();
    db.buffer_pool().clear();
    let session = Session::new(&db);
    let ndp = QueryRun::measure(&db, || session.sql(LISTING1)).unwrap();
    assert_eq!(plain.rows, ndp.rows);
    assert!(matches!(ndp.rows[0][0], Value::Decimal(_)));
    // With NDP on, the Page Stores did the aggregating.
    assert!(ndp.delta.ps_records_aggregated > 0, "{:?}", ndp.delta);
}

#[test]
fn transactions_commit_rollback_through_api() {
    let (db, t) = worker_db();
    // A session opened now must never see rows committed later (its read
    // view is fixed at creation — the paper's InnoDB MVCC behaviour).
    let session_before = Session::new(&db);
    // Committed insert becomes visible; rolled-back one never does.
    let t1 = db.begin();
    db.insert_row(
        &t,
        t1,
        &vec![
            Value::Int(99_991),
            Value::Int(30),
            Value::Date(Date32::parse("2012-05-01").unwrap()),
            Value::Decimal(Dec::new(1, 2)),
            Value::str("committed worker"),
            Value::str("n/a"),
        ],
    )
    .unwrap();
    db.commit(t1);
    let t2 = db.begin();
    db.insert_row(
        &t,
        t2,
        &vec![
            Value::Int(99_992),
            Value::Int(31),
            Value::Date(Date32::parse("2012-05-01").unwrap()),
            Value::Decimal(Dec::new(2, 2)),
            Value::str("rolled-back worker"),
            Value::str("n/a"),
        ],
    )
    .unwrap();
    db.rollback(t2).unwrap();

    let session_after = Session::new(&db);
    assert!(session_after
        .lookup("worker", &[Value::Int(99_991)])
        .unwrap()
        .is_some());
    assert!(session_after
        .lookup("worker", &[Value::Int(99_992)])
        .unwrap()
        .is_none());
    // The old snapshot sees neither.
    assert!(session_before
        .lookup("worker", &[Value::Int(99_991)])
        .unwrap()
        .is_none());

    // The same visibility through a filtered query.
    let rows = session_after
        .sql("select id, name from worker where id >= 99000")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(99_991));
}

#[test]
fn ndp_gate_respects_min_io_pages() {
    // With a huge min-IO threshold, the post-processing pass must refuse
    // NDP (the paper's Q11/Q17/Q19/Q20 behaviour).
    let (db, _t) = worker_db();
    let mut cfg = db.config().clone();
    cfg.ndp.min_io_pages = 1_000_000;
    let db2 = TaurusDb::new(cfg);
    let schema = db.table("worker").unwrap().schema.clone();
    let t2 = db2.create_table(schema, &[]).unwrap();
    db2.bulk_load(
        &t2,
        vec![vec![
            Value::Int(1),
            Value::Int(30),
            Value::Date(Date32::parse("2010-06-01").unwrap()),
            Value::Decimal(Dec::new(100, 2)),
            Value::str("only worker"),
            Value::str("n/a"),
        ]],
    )
    .unwrap();
    let session = Session::new(&db2);
    let text = explain(&session, LISTING1);
    assert!(
        text.contains("(NDP gated: below min-IO threshold)"),
        "{text}"
    );
    assert!(!text.contains("Using pushed NDP"), "{text}");
    // The gated query still runs (classical path) and returns a result.
    let rows = session.sql(LISTING1).unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn row_stream_over_lineitem_does_not_materialize() {
    // A streaming scan over TPC-H lineitem: taking a handful of rows must
    // not scan (let alone materialize) the whole table.
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.buffer_pool_pages = 32;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.01, 42).unwrap();
    let total = db.table("lineitem").unwrap().stats.read().row_count;
    assert!(total > 1000, "need a non-trivial table, got {total} rows");
    db.buffer_pool().clear();

    let session = Session::new(&db);
    const Q: &str = "select l_orderkey, l_linenumber, l_quantity from lineitem";
    let Statement::Select(select) = parse(Q).unwrap() else {
        panic!("a SELECT");
    };
    let stream = || session.stream_plan(bind(&session, &select).unwrap());
    let before = db.metrics().snapshot();
    let mut streamed: Vec<Row> = Vec::new();
    for row in stream().take(10) {
        streamed.push(row.unwrap());
    }
    let delta = db.metrics().snapshot().since(&before);
    assert_eq!(streamed.len(), 10);
    assert!(streamed.iter().all(|r| r.len() == 3));
    // Rows arrive in primary-key order.
    let keys: Vec<i64> = streamed.iter().map(|r| r[0].as_int().unwrap()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
    // The early-stopped scan touched only the stream's look-ahead window,
    // not the table.
    assert!(
        delta.rows_scanned < total / 2,
        "streaming scanned {} of {total} rows — materialized?",
        delta.rows_scanned
    );

    // The same stream, fully drained, equals the materializing terminal.
    let all_streamed: Vec<Row> = stream().collect_rows().unwrap();
    let all_collected = session.sql(Q).unwrap();
    assert_eq!(all_streamed.len(), total as usize);
    assert_eq!(all_streamed, all_collected);
}
