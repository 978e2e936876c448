//! The prefetching NDP read pipeline, end to end: parity with the
//! serial path across prefetch depths and batch sizes, the in-flight
//! overlap observable, cancellation from a dropped `RowStream` all the
//! way down to the SAL dispatch threads (the queries here are a bare scan
//! under a projection, streamed through the operator pipeline like any
//! plan), an expired budget under parallel query, and replica failover
//! under a killed Page Store.

use std::sync::Arc;
use std::time::Duration;

use taurus::expr::ast::Expr;
use taurus::optimizer::ndp_post::ndp_post_process;
use taurus::optimizer::plan::{Plan, ScanNode};
use taurus::pagestore::FaultPolicy;
use taurus::prelude::*;

/// A lineitem-ish table wide enough that NDP projection/predicate pay
/// off, spread over enough pages for several leaf batches per scan.
fn build_db(mut cfg: ClusterConfig) -> Arc<TaurusDb> {
    cfg.ndp.min_io_pages = 1;
    cfg.page_size = 2048;
    cfg.slice_pages = 8;
    cfg.buffer_pool_pages = 64;
    cfg.ndp.max_pages_look_ahead = 8;
    let db = TaurusDb::new(cfg);
    let schema = TableSchema::new(
        "items",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("qty", DataType::Int),
            Column::new(
                "price",
                DataType::Decimal {
                    precision: 15,
                    scale: 2,
                },
            ),
            Column::new("d", DataType::Date),
            Column::new("note", DataType::Varchar(60)),
        ],
        vec![0],
    );
    let t = db.create_table(schema, &[]).unwrap();
    let rows: Vec<Row> = (0..4000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 50),
                Value::Decimal(Dec::new(((i % 900) * 100 + 17) as i128, 2)),
                Value::Date(Date32::from_ymd(1994, 1, 1).add_days((i % 730) as i32)),
                Value::str(format!("padding so rows span many pages, row {i}")),
            ]
        })
        .collect();
    db.bulk_load(&t, rows).unwrap();
    db.buffer_pool().clear();
    db
}

const FILTERED: &str = "select id, price from items where qty < 30";

fn stream(session: &Session, text: &str) -> RowStream {
    let Statement::Select(select) = parse(text).unwrap() else {
        panic!("not a SELECT: {text}");
    };
    session.stream_plan(bind(session, &select).unwrap())
}

/// stream == collect at every (prefetch_batches, scan_batch_rows) corner,
/// including the degenerate row-at-a-time and serial (prefetch=1)
/// configurations.
#[test]
fn prefetch_matrix_stream_equals_collect() {
    let mut reference: Option<Vec<Row>> = None;
    for prefetch in [1usize, 2, 8] {
        for batch_rows in [1usize, 1024] {
            let mut cfg = ClusterConfig::small_for_tests();
            cfg.ndp.prefetch_batches = prefetch;
            cfg.scan_batch_rows = batch_rows;
            let db = build_db(cfg);
            let session = Session::new(&db);
            let collected = session.sql(FILTERED).unwrap();
            db.buffer_pool().clear();
            let streamed: Vec<Row> = stream(&session, FILTERED).collect_rows().unwrap();
            assert_eq!(
                streamed, collected,
                "stream/collect diverged at prefetch={prefetch} batch={batch_rows}"
            );
            match &reference {
                None => reference = Some(collected),
                Some(r) => assert_eq!(
                    &collected, r,
                    "results changed at prefetch={prefetch} batch={batch_rows}"
                ),
            }
            assert_eq!(
                db.metrics().snapshot().ndp_batches_in_flight,
                0,
                "in-flight gauge must balance after every scan"
            );
        }
    }
    assert!(reference.unwrap().len() > 1000, "non-trivial workload");
}

/// The pipeline observable: with prefetch ≥ 2 and several leaf batches,
/// batch N+1's read must be dispatched while batch N is consumed.
#[test]
fn prefetch_overlaps_fetch_with_consumption() {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.prefetch_batches = 2;
    let db = build_db(cfg);
    let session = Session::new(&db);
    let rows = session.sql(FILTERED).unwrap();
    assert!(rows.len() > 1000);
    let s = db.metrics().snapshot();
    assert!(
        s.ndp_batches_in_flight_peak >= 2,
        "expected ≥ 2 batches in flight, peak was {}",
        s.ndp_batches_in_flight_peak
    );
    assert_eq!(s.ndp_batches_in_flight, 0, "gauge balanced at rest");

    // Serial configuration: the pipeline never runs ahead.
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.prefetch_batches = 1;
    let db = build_db(cfg);
    let session = Session::new(&db);
    session.sql(FILTERED).unwrap();
    assert_eq!(db.metrics().snapshot().ndp_batches_in_flight_peak, 1);
}

/// Dropping the stream mid-scan must cancel the prefetcher: NDP frames
/// all released, the in-flight gauge back to zero, and no storage thread
/// left running (joined via the RowStream → operator → scan → SAL chain).
#[test]
fn dropped_stream_cancels_prefetch_pipeline() {
    for prefetch in [1usize, 2, 8] {
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.ndp.prefetch_batches = prefetch;
        let db = build_db(cfg);
        let session = Session::new(&db);
        let mut stream = stream(&session, FILTERED);
        // Pull a handful of rows, then abandon the stream mid-batch.
        for _ in 0..5 {
            stream.next().unwrap().unwrap();
        }
        drop(stream); // joins the producer: scan fully unwound here
        let s = db.metrics().snapshot();
        assert_eq!(
            db.buffer_pool().ndp_frames_in_use(),
            0,
            "cancelled scan leaked NDP frames at prefetch={prefetch}"
        );
        assert_eq!(
            s.ndp_batches_in_flight, 0,
            "cancelled scan left batches in flight at prefetch={prefetch}"
        );
        let total = db.table("items").unwrap().stats.read().row_count;
        assert!(
            s.rows_scanned < total / 2,
            "dropped stream kept scanning: {} of {total} rows",
            s.rows_scanned
        );
    }
}

/// LIMIT satisfied mid-batch over an NDP aggregate scan: the aggregate
/// pipeline breaker runs its scan to completion, the stream stops after
/// one group — and the prefetcher unwinds cleanly either way.
#[test]
fn mid_batch_limit_over_ndp_aggregate_scan() {
    for batch_rows in [1usize, 1024] {
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.ndp.prefetch_batches = 2;
        cfg.scan_batch_rows = batch_rows;
        let db = build_db(cfg);
        let session = Session::new(&db);
        const AGG: &str = "select sum(price), count(*) from items where qty < 30";
        let collected = session.sql(AGG).unwrap();
        db.buffer_pool().clear();
        let mut stream = stream(&session, &format!("{AGG} limit 1"));
        let first = stream.next().unwrap().unwrap();
        drop(stream);
        assert_eq!(vec![first], collected, "batch={batch_rows}");
        assert_eq!(db.buffer_pool().ndp_frames_in_use(), 0);
        assert_eq!(db.metrics().snapshot().ndp_batches_in_flight, 0);
    }
}

/// Many concurrent NDP scans on a pool far too small for the sum of
/// their look-ahead quotas: staging degrades to deferred (consume-time)
/// frame allocation instead of erroring, so every scan completes with
/// identical results — the pre-pipeline guarantee that a scan needs only
/// one frame at a time to make progress.
#[test]
fn concurrent_scans_share_a_tiny_pool() {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.prefetch_batches = 2;
    // build_db pins buffer_pool_pages=64 / look_ahead=8: 12 concurrent
    // scans × an 8-frame quota ≫ 64 frames, far past the sum the pool
    // can stage at once.
    let db = build_db(cfg);
    let session = Session::new(&db);
    let expect = session.sql(FILTERED).unwrap();
    db.buffer_pool().clear();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let db = &db;
                let expect = &expect;
                s.spawn(move || {
                    let session = Session::new(db);
                    let rows = session.sql(FILTERED).unwrap();
                    assert_eq!(&rows, expect);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert_eq!(db.buffer_pool().ndp_frames_in_use(), 0);
    assert_eq!(db.metrics().snapshot().ndp_batches_in_flight, 0);
}

/// Streams that stop being polled park their scans mid-backpressure
/// with staged look-ahead frames still held. An active scan must not
/// fail (or hang) because parked streams pin the NDP area — it degrades
/// to unaccounted consumption and completes with correct results.
#[test]
fn parked_streams_do_not_starve_active_scans() {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.prefetch_batches = 2;
    let db = build_db(cfg);
    let session = Session::new(&db);
    let expect = session.sql(FILTERED).unwrap();
    db.buffer_pool().clear();
    // Park 8 streams after one row each: each holds its channel
    // backpressure plus whatever look-ahead frames it staged.
    let mut parked = Vec::new();
    for _ in 0..8 {
        let mut s = stream(&session, FILTERED);
        s.next().unwrap().unwrap();
        parked.push(s);
    }
    // The active scan completes correctly regardless of what the parked
    // scans pinned.
    let rows = session.sql(FILTERED).unwrap();
    assert_eq!(rows, expect);
    drop(parked);
    assert_eq!(db.buffer_pool().ndp_frames_in_use(), 0);
    assert_eq!(db.metrics().snapshot().ndp_batches_in_flight, 0);
}

/// `FILTERED` as a hand-built plan whose scan runs under PQ degree 3,
/// through NDP batch reads (decided over a cold pool).
fn pq_filtered(db: &TaurusDb) -> Plan {
    let scan = ScanNode::new("items", vec![0, 2, 1])
        .with_predicate(vec![Expr::lt(Expr::col(1), Expr::int(30))]);
    let mut plan = Plan::Scan(scan)
        .exchange(3)
        .project(vec![Expr::col(0), Expr::col(1)]);
    db.buffer_pool().clear();
    ndp_post_process(&mut plan, db).unwrap();
    plan.for_each_scan(&mut |s, _| assert!(s.ndp.is_some(), "the scan is pushed"));
    plan
}

/// A parallel query whose budget runs out while browned-out stores hold
/// its workers' batch reads fails with the typed error, collected or
/// streamed, and nothing of it outlives the call: no NDP frame held, no
/// batch in flight, and no worker or scan thread still scanning (the
/// scan counters are final when the call returns).
#[test]
fn expired_budget_under_pq_is_deadline_exceeded_and_leaves_nothing_running() {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.prefetch_batches = 2;
    let db = build_db(cfg);
    let expect = Session::new(&db).sql(FILTERED).unwrap();
    for ps in db.sal().page_stores() {
        ps.set_fault(FaultPolicy::Latency(Duration::from_millis(300)));
    }
    let mut session = Session::new(&db);
    session.set_query_budget_ms(100);
    let parallel = pq_filtered(&db);
    for streamed in [false, true] {
        db.buffer_pool().clear();
        let err = if streamed {
            session
                .stream_plan(parallel.clone())
                .collect_rows()
                .unwrap_err()
        } else {
            session.execute_plan(&parallel).unwrap_err()
        };
        assert!(
            matches!(err, Error::DeadlineExceeded(_)),
            "streamed={streamed}: {err:?}"
        );
        let at_return = db.metrics().snapshot();
        assert_eq!(
            db.buffer_pool().ndp_frames_in_use(),
            0,
            "streamed={streamed}"
        );
        assert_eq!(at_return.ndp_batches_in_flight, 0, "streamed={streamed}");
        // Past the stores' latency: a read still in flight would have
        // landed, a scan still running would have scanned.
        std::thread::sleep(Duration::from_millis(400));
        let d = db.metrics().snapshot().since(&at_return);
        assert_eq!(
            (d.rows_scanned, d.net_read_requests),
            (0, 0),
            "streamed={streamed}: {d:?}"
        );
    }
    for ps in db.sal().page_stores() {
        ps.set_fault(FaultPolicy::None);
    }
    db.buffer_pool().clear();
    let rows = Session::new(&db).execute_plan(&parallel).unwrap();
    assert_eq!(rows, expect, "the cluster serves the same rows again");
}

/// Kill one Page Store replica: every sub-batch placed on it must fail
/// over to surviving replicas, the scan must return exactly the same
/// rows, and the retries must be visible on the wire accounting.
#[test]
fn ndp_scan_survives_killed_replica() {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.n_page_stores = 3;
    cfg.replication = 2;
    cfg.ndp.prefetch_batches = 2;
    let db = build_db(cfg);
    let session = Session::new(&db);
    let clean = session.sql(FILTERED).unwrap();

    // Kill replica 0 (every slice has a second copy elsewhere).
    db.sal().page_stores()[0].set_fault(FaultPolicy::Poison);
    db.buffer_pool().clear();
    let before = db.metrics().snapshot();
    let failed_over = session.sql(FILTERED).unwrap();
    let d = db.metrics().snapshot().since(&before);
    assert_eq!(failed_over, clean, "failover changed scan results");
    assert!(
        d.read_retries > 0,
        "a dead replica must show up as retries (got {})",
        d.read_retries
    );

    // All replicas of some slice down → the scan must error, not hang.
    db.sal().page_stores()[1].set_fault(FaultPolicy::Poison);
    db.sal().page_stores()[2].set_fault(FaultPolicy::Poison);
    db.buffer_pool().clear();
    let err = session.sql(FILTERED);
    assert!(err.is_err(), "no surviving replica must surface an error");
    assert_eq!(db.buffer_pool().ndp_frames_in_use(), 0);
    assert_eq!(db.metrics().snapshot().ndp_batches_in_flight, 0);

    for ps in db.sal().page_stores() {
        ps.set_fault(FaultPolicy::None);
    }
    db.buffer_pool().clear();
    assert_eq!(
        session.sql(FILTERED).unwrap(),
        clean,
        "revived cluster serves again"
    );
}
