//! The batch-native pull pipeline, observed from the outside: operator
//! traffic counters, LIMIT cancelling producing scans, a sink that stops
//! early stopping mid-plan producers, and the physical EXPLAIN tree.

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

/// Run `plan` through `Session::run_plan`, keeping at most `n` rows: the
/// sink stops the query once it has them.
fn run_rows(session: &Session, plan: &Plan, n: usize) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    session.run_plan(plan, |mut batch| {
        rows.extend(batch.drain_rows().take(n - rows.len()));
        Ok(rows.len() < n)
    })?;
    Ok(rows)
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
/// batches_emitted`. A sink sees what `execute` collects: a bare scan,
/// and a prefix `Project` over a scan (the builder's way of hiding
/// predicate-only columns), hand a sink the rows `execute` collects and
/// charge the same counters, the `Project` once more per row it emits.
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
        let streamed = run_rows(&session, &plan, usize::MAX).unwrap();
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

/// Acceptance: a sink takes a sort-free filter/limit plan over a join
/// batch by batch without materializing the full result set — a sink that
/// stops early stops the pipeline (and its scans), observed through the
/// scan counters freezing short of the full table.
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
    // Returns once the producers are joined; hanging here is the
    // regression.
    assert_eq!(run_rows(&session, &plan, 3).unwrap().len(), 3);
    let d = db.metrics().snapshot().since(&before);
    let orders = db.table("orders").unwrap().stats.read().row_count;
    assert!(
        d.rows_scanned < orders + total / 2,
        "a stopped query must stop the probe scan: {} rows scanned",
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
                func: taurus::optimizer::plan::AggFunc::Count,
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
/// (`Scan`, `HashAgg(Scan)` grouped in index order and in encoded-key
/// order, `LookupJoin(Scan)`), at degrees
/// 1, 3 and 8, NDP off and on, is byte-equal to its serial plan, through
/// `execute` and through a stream. The aggregating shapes carry an AVG as
/// the binder writes it, a SUM and a COUNT that a `Project` above the
/// `Exchange` divides, so it is computed from the merged states.
#[test]
fn pq_matrix_equals_serial() {
    use taurus::expr::ast::Expr;
    use taurus::optimizer::plan::{AggFunc, AggItem, HashAggNode, LookupJoinNode};
    let db = tpch_db();
    let agg = |func, input| AggItem { func, input };
    // lineitem [l_orderkey, l_linenumber, l_quantity] where l_quantity < 25.
    let lineitem = || {
        Plan::Scan(
            ScanNode::new("lineitem", vec![0, 3, 4])
                .with_predicate(vec![Expr::lt(Expr::col(4), Expr::int(25))]),
        )
    };
    // [group, SUM(x), SUM(x) / COUNT(x), the last aggregate].
    let avg = Some(vec![
        Expr::col(0),
        Expr::col(1),
        Expr::div(Expr::col(1), Expr::col(2)),
        Expr::col(3),
    ]);
    let shapes: Vec<(&str, Plan, Option<Vec<Expr>>)> = vec![
        ("Scan", lineitem(), None),
        (
            "HashAgg(Scan) in index order",
            Plan::HashAgg(HashAggNode {
                input: Box::new(Plan::Scan(ScanNode::new("lineitem", vec![0, 4]))),
                group: vec![Expr::col(0)],
                aggs: vec![
                    agg(AggFunc::Sum, Some(Expr::col(1))),
                    agg(AggFunc::Count, Some(Expr::col(1))),
                    agg(AggFunc::CountStar, None),
                ],
            }),
            avg.clone(),
        ),
        (
            "HashAgg(Scan) in key order",
            Plan::HashAgg(HashAggNode {
                input: Box::new(lineitem()),
                group: vec![Expr::col(1)],
                aggs: vec![
                    agg(AggFunc::Sum, Some(Expr::col(2))),
                    agg(AggFunc::Count, Some(Expr::col(2))),
                    agg(AggFunc::Count, Some(Expr::col(0))),
                ],
            }),
            avg,
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
            None,
        ),
    ];
    for ndp in [false, true] {
        let session = Session::new(&db).with_ndp(ndp);
        for (shape, plan, project) in &shapes {
            let above = |p: Plan| match project {
                Some(exprs) => p.project(exprs.clone()),
                None => p,
            };
            let mut serial = plan.clone();
            if ndp {
                ndp_post_process(&mut serial, &db).unwrap();
            }
            let want = session.execute_plan(&above(serial.clone())).unwrap();
            assert!(!want.is_empty(), "{shape} ndp={ndp}");
            for degree in [1usize, 3, 8] {
                let parallel = above(serial.clone().exchange(degree));
                let at = format!("{shape} ndp={ndp} degree={degree}");
                assert_eq!(session.execute_plan(&parallel).unwrap(), want, "{at}");
                let streamed = run_rows(&session, &parallel, usize::MAX).unwrap();
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

    // Q1's grouped aggregation goes to the Page Stores with NDP on.
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.buffer_pool_pages = 64;
    cfg.ndp.min_io_pages = 8;
    let ndp_db = TaurusDb::new(cfg);
    taurus::tpch::load(&ndp_db, 0.005, 11).unwrap();
    ndp_db.buffer_pool().clear();
    let q1 = taurus::sql::tpch_sql::sql_for("Q1").unwrap();
    let text: String = Session::new(&ndp_db)
        .with_ndp(true)
        .sql(&format!("explain {q1}"))
        .unwrap()
        .iter()
        .map(|line| format!("{}\n", line[0]))
        .collect();
    assert!(
        text.contains(
            "AggScan on lineitem via lineitem_pk [ndp: predicate+projection+aggregation]"
        ),
        "{text}"
    );
    assert!(
        text.contains("Using pushed NDP aggregate (per-page hash)"),
        "{text}"
    );
    assert!(!text.contains("HashAgg"), "{text}");

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
        let last = run_rows(&session, &unguarded, usize::MAX);
        assert!(
            matches!(last, Err(Error::Arithmetic(_))),
            "batch {batch}: the run must end in the error, got {last:?}"
        );

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
        let streamed = run_rows(&session, &guarded, usize::MAX).unwrap();
        assert_eq!(streamed, want, "batch {batch}");
    }
}

/// A breaker runs long between two of its scans' page boundaries: this
/// self-join of `lineitem` on a three-valued column makes each probe row
/// a third of the table's worth of join rows, all folded by one COUNT.
/// Sort, aggregation, the hash join's build and probe and Gather check
/// the deadline once per batch, so the statement fails with
/// `DeadlineExceeded` within twice its budget, over a warm pool.
#[test]
fn a_breaker_stops_at_the_deadline() {
    const BUDGET_MS: u64 = 200;
    let db = TaurusDb::new(ClusterConfig::default());
    taurus::tpch::load(&db, 0.002, 7).unwrap();
    let mut session = Session::new(&db).with_ndp(false);
    let count = "select count(*) from lineitem";
    session.sql(count).unwrap();
    let warm = QueryRun::measure(&db, || session.sql(count)).unwrap();
    assert_eq!(warm.delta.bp_misses, 0, "{:?}", warm.delta);
    session.set_query_budget_ms(BUDGET_MS);
    let start = std::time::Instant::now();
    let r = session
        .sql("select count(*) from lineitem a join lineitem b on a.l_returnflag = b.l_returnflag");
    let took = start.elapsed();
    assert!(matches!(r, Err(Error::DeadlineExceeded(_))), "{r:?}");
    assert!(
        took < std::time::Duration::from_millis(2 * BUDGET_MS),
        "failed after {took:?}"
    );
}

/// Join output batches stay within their capacity whatever the match
/// fan-out: a hash join stops mid-chain when its batch fills, and a lookup
/// join keeps the inner rows of an outer row that do not fit for its next
/// batch. Keys with 0, 1, 2 and 5,000 inner rows (which key has which is
/// random), a key with none at all and NULL keys on the outer side,
/// through HashJoin and LookupJoin, every join type, at batches of 1, 7
/// and 1024 rows: every batch is within `scan_batch_rows` and
/// `BATCH_MAX_VALUES / width`, and the rows are a nested loop's, in outer
/// order, then inner key order.
#[test]
fn join_batches_stay_within_capacity_at_any_fan_out() {
    use proptest::rng::{Rng, SeedableRng, TestRng};
    use taurus::common::batch::BATCH_MAX_VALUES;
    use taurus::optimizer::plan::LookupJoinNode;
    let big = |name: &str| Column::new(name, DataType::BigInt);
    for seed in 0..3u64 {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut fan_outs = [0usize, 1, 2, 5000];
        for i in (1..fan_outs.len()).rev() {
            fan_outs.swap(i, rng.gen_range(0..i + 1));
        }
        // [k, n, v], in index order.
        let inner: Vec<Row> = (0..fan_outs.len() as i64)
            .flat_map(|k| (0..fan_outs[k as usize] as i64).map(move |n| (k, n)))
            .map(|(k, n)| vec![Value::Int(k), Value::Int(n), Value::Int(k * 10_000 + n)])
            .collect();
        // [id, k]: keys 0-3, 4 (no inner row) and NULL.
        let outer: Vec<Row> = (0..16i64)
            .map(|id| match rng.gen_range(0..6i64) {
                5 => vec![Value::Int(id), Value::Null],
                k => vec![Value::Int(id), Value::Int(k)],
            })
            .collect();
        for batch_rows in [1usize, 7, 1024] {
            let mut cfg = ClusterConfig::small_for_tests();
            cfg.scan_batch_rows = batch_rows;
            let db = TaurusDb::new(cfg);
            let t = db
                .create_table(
                    TableSchema::new("inner_t", vec![big("k"), big("n"), big("v")], vec![0, 1]),
                    &[],
                )
                .unwrap();
            db.bulk_load(&t, inner.clone()).unwrap();
            let t = db
                .create_table(
                    TableSchema::new(
                        "outer_t",
                        vec![big("id"), Column::nullable("k", DataType::BigInt)],
                        vec![0],
                    ),
                    &[],
                )
                .unwrap();
            db.bulk_load(&t, outer.clone()).unwrap();
            let session = Session::new(&db);
            for join in [
                JoinType::Inner,
                JoinType::LeftOuter,
                JoinType::Semi,
                JoinType::Anti,
            ] {
                let outer_scan = Box::new(Plan::Scan(ScanNode::new("outer_t", vec![0, 1])));
                let hash = Plan::HashJoin(HashJoinNode {
                    left: outer_scan.clone(),
                    right: Box::new(Plan::Scan(ScanNode::new("inner_t", vec![0, 1, 2]))),
                    left_keys: vec![1],
                    right_keys: vec![0],
                    join,
                    filter: None,
                });
                let lookup = Plan::LookupJoin(LookupJoinNode {
                    outer: outer_scan,
                    table: "inner_t".into(),
                    index: 0,
                    outer_key_cols: vec![1],
                    on: None,
                    inner_output: vec![1, 2],
                    join,
                    inner_predicate: vec![],
                    inner_ndp: None,
                });
                // The hash join outputs the inner key too.
                for (op, mut plan, inner_cols) in
                    [("HashJoin", hash, 0..3), ("LookupJoin", lookup, 1..3)]
                {
                    let mut want: Vec<Row> = Vec::new();
                    for o in &outer {
                        let ms: Vec<&Row> = inner.iter().filter(|r| r[0] == o[1]).collect();
                        match join {
                            JoinType::Inner | JoinType::LeftOuter => {
                                for m in &ms {
                                    want.push([&o[..], &m[inner_cols.clone()]].concat());
                                }
                                if ms.is_empty() && join == JoinType::LeftOuter {
                                    let nulls = vec![Value::Null; inner_cols.len()];
                                    want.push([&o[..], &nulls[..]].concat());
                                }
                            }
                            JoinType::Semi if !ms.is_empty() => want.push(o.clone()),
                            JoinType::Anti if ms.is_empty() => want.push(o.clone()),
                            JoinType::Semi | JoinType::Anti => {}
                        }
                    }
                    ndp_post_process(&mut plan, &db).unwrap();
                    let width = taurus::verify::plan_width(&plan);
                    let capacity = batch_rows.min(BATCH_MAX_VALUES / width);
                    let mut got: Vec<Row> = Vec::new();
                    session
                        .run_plan(&plan, |mut batch| {
                            assert!(
                                batch.len() <= capacity,
                                "{} rows past a capacity of {capacity}",
                                batch.len()
                            );
                            got.extend(batch.drain_rows());
                            Ok(true)
                        })
                        .unwrap();
                    assert_eq!(
                        got, want,
                        "{op}, seed {seed}, fan-outs {fan_outs:?}, batch {batch_rows}, {join:?}"
                    );
                }
            }
        }
    }
}
