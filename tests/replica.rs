//! Read-replica integration tests: log tailing, catalog replication,
//! snapshot consistency under concurrent DML, staleness guardrails, and
//! the full TPC-H suite served from a replica.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use taurus::prelude::*;

const WAIT: Duration = Duration::from_secs(20);

fn account_schema() -> Arc<TableSchema> {
    TableSchema::new(
        "acct",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("bal", DataType::BigInt),
        ],
        vec![0],
    )
}

/// Master with an `acct(id, bal)` table holding `n` rows of balance 100
/// each. `with_secondary` adds an index on `bal` — only for workloads
/// that do not revisit balance values (the engine keeps delete-marked
/// secondary entries, so a re-inserted `(bal, id)` key collides; churn
/// workloads here use secondary-free tables).
fn acct_db(cfg: ClusterConfig, n: i64, with_secondary: bool) -> (Arc<TaurusDb>, Arc<Table>) {
    let db = TaurusDb::new(cfg);
    let secondaries: &[(&str, Vec<usize>)] = if with_secondary {
        &[("i_bal", vec![1])]
    } else {
        &[]
    };
    let table = db.create_table(account_schema(), secondaries).unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(100)])
        .collect();
    db.bulk_load(&table, rows).unwrap();
    (db, table)
}

const ALL: &str = "select * from acct";
const SUM_BAL: &str = "select sum(bal) from acct";

fn sum_bal(db: &Arc<TaurusDb>) -> i64 {
    Session::new(db).sql(SUM_BAL).unwrap()[0][0]
        .as_int()
        .unwrap()
}

/// `select * from acct`, streamed.
fn stream_all(session: &Session) -> RowStream {
    let Statement::Select(select) = parse(ALL).unwrap() else {
        panic!("a SELECT");
    };
    session.stream_plan(bind(session, &select).unwrap())
}

/// The error a refused stream yields as its one item.
fn stream_err(session: &Session) -> Error {
    let mut stream = stream_all(session);
    let err = stream.next().expect("a refusal").unwrap_err();
    assert!(
        stream.next().is_none(),
        "a refusal is the stream's one item"
    );
    err
}

#[test]
fn replica_serves_loaded_table_and_catches_up() {
    let (db, table) = acct_db(ClusterConfig::small_for_tests(), 64, true);
    let replica = Replica::attach(&db);
    replica.wait_caught_up(WAIT).unwrap();

    // Full parity: collect and stream, master vs replica.
    let master_rows = Session::new(&db).sql(ALL).unwrap();
    let rdb = replica.db();
    assert!(rdb.is_replica());
    let replica_rows = Session::new(rdb).sql(ALL).unwrap();
    assert_eq!(master_rows, replica_rows);
    let streamed = stream_all(&Session::new(rdb)).collect_rows().unwrap();
    assert_eq!(master_rows, streamed);

    // Replica sees committed DML only after its boundary replicates, and a
    // session must refresh to observe it (snapshot semantics).
    let mut rsession = Session::new(rdb);
    let trx = db.begin();
    db.insert_row(&table, trx, &vec![Value::Int(1000), Value::Int(7)])
        .unwrap();
    db.commit(trx);
    replica.wait_caught_up(WAIT).unwrap();
    assert_eq!(
        rsession.sql(ALL).unwrap().len(),
        64,
        "old session keeps its snapshot"
    );
    rsession.refresh();
    assert_eq!(
        rsession.sql(ALL).unwrap().len(),
        65,
        "refreshed session sees the replicated commit"
    );

    // Observability: the replica's own metrics carry the gauges.
    let snap = rdb.metrics().snapshot();
    assert!(snap.replica_visible_lsn > 0);
    assert!(snap.replica_apply_bytes > 0);
    assert_eq!(rdb.replica_lag(), 0);
}

#[test]
fn tables_created_after_attach_replicate_too() {
    let db = TaurusDb::new(ClusterConfig::small_for_tests());
    let replica = Replica::attach(&db);
    // DDL + load happen entirely after the attach: the tailer must build
    // the catalog from the log alone.
    let table = db
        .create_table(account_schema(), &[("i_bal", vec![1])])
        .unwrap();
    let rows: Vec<Row> = (0..40)
        .map(|i| vec![Value::Int(i), Value::Int(100)])
        .collect();
    db.bulk_load(&table, rows).unwrap();
    replica.wait_caught_up(WAIT).unwrap();
    assert_eq!(sum_bal(replica.db()), 4000);
    // Secondary-index scans replicate as well (key cols, spaces, shape).
    let via_sec = Session::new(replica.db())
        .sql("select bal from acct force index (i_bal)")
        .unwrap();
    assert_eq!(via_sec.len(), 40);
}

#[test]
fn uncommitted_and_rolled_back_writes_stay_invisible() {
    let (db, table) = acct_db(ClusterConfig::small_for_tests(), 16, true);
    let replica = Replica::attach(&db);
    replica.wait_caught_up(WAIT).unwrap();
    assert_eq!(sum_bal(replica.db()), 1600);

    // An open transaction's update must never leak: even after the tailer
    // applies its page writes, no boundary covers them.
    let trx = db.begin();
    db.update_row(&table, trx, &vec![Value::Int(0), Value::Int(1_000_000)])
        .unwrap();
    // Give the tailer a moment to apply the un-committed writes.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        sum_bal(replica.db()),
        1600,
        "mid-transaction state must be invisible on the replica"
    );

    // Roll it back: still 1600 after the abort boundary replicates.
    db.rollback(trx).unwrap();
    replica.wait_caught_up(WAIT).unwrap();
    assert_eq!(sum_bal(replica.db()), 1600);
    assert_eq!(
        Session::new(replica.db())
            .lookup("acct", &[Value::Int(0)])
            .unwrap()
            .unwrap()[1],
        Value::Int(100)
    );
}

/// A failed duplicate-key insert on the master must not poison the
/// replicated undo: its write-ahead `prev = None` entry would otherwise
/// sit newest on the row's chain and make the committed row vanish
/// during replica reconstruction while a later writer is in flight.
#[test]
fn failed_duplicate_insert_does_not_corrupt_replica_snapshots() {
    let (db, table) = acct_db(ClusterConfig::small_for_tests(), 8, true);
    let replica = Replica::attach(&db);
    replica.wait_caught_up(WAIT).unwrap();

    // The duplicate insert fails on every index *before* any undo ships.
    let t_dup = db.begin();
    assert!(db
        .insert_row(&table, t_dup, &vec![Value::Int(3), Value::Int(999)])
        .is_err());
    db.commit(t_dup);

    // A writer now updates the same row and stays in flight: the replica
    // must reconstruct the committed version (100), not lose the row.
    let t_open = db.begin();
    db.update_row(&table, t_open, &vec![Value::Int(3), Value::Int(555)])
        .unwrap();
    // Boundary from an unrelated commit so the replica publishes a view
    // with t_open active.
    let t_other = db.begin();
    db.insert_row(&table, t_other, &vec![Value::Int(70), Value::Int(0)])
        .unwrap();
    db.commit(t_other);
    replica.wait_caught_up(WAIT).unwrap();
    assert_eq!(
        Session::new(replica.db())
            .lookup("acct", &[Value::Int(3)])
            .unwrap()
            .expect("committed row must not vanish")[1],
        Value::Int(100),
        "replica must reconstruct the committed version around the open writer"
    );
    assert_eq!(sum_bal(replica.db()), 800);
    db.rollback(t_open).unwrap();
}

#[test]
fn replica_is_read_only_and_rejects_trx_sessions() {
    let (db, _) = acct_db(ClusterConfig::small_for_tests(), 8, true);
    let replica = Replica::attach(&db);
    replica.wait_caught_up(WAIT).unwrap();
    let rdb = replica.db();
    let rtable = rdb.table("acct").unwrap();
    let trx = rdb.begin();
    assert!(matches!(
        rdb.insert_row(&rtable, trx, &vec![Value::Int(99), Value::Int(1)]),
        Err(Error::InvalidState(_))
    ));
    assert!(matches!(
        rdb.update_row(&rtable, trx, &vec![Value::Int(0), Value::Int(1)]),
        Err(Error::InvalidState(_))
    ));
    assert!(matches!(
        rdb.delete_row(&rtable, trx, &[Value::Int(0)]),
        Err(Error::InvalidState(_))
    ));
    assert!(matches!(
        rdb.create_table(
            TableSchema::new("t2", vec![Column::new("a", DataType::Int)], vec![0]),
            &[]
        ),
        Err(Error::InvalidState(_))
    ));
    // A transaction-bound session makes no sense on a read-only node.
    let s = Session::for_trx(rdb, trx);
    assert!(matches!(s.sql(ALL), Err(Error::Unsupported(_))));
    assert!(matches!(s.sql(SUM_BAL), Err(Error::Unsupported(_))));
    // SAL-level enforcement too: the attachment refuses log writes.
    assert!(rdb.sal().is_read_only());
}

#[test]
fn detached_replica_refuses_queries() {
    let (db, _) = acct_db(ClusterConfig::small_for_tests(), 8, true);
    let replica = Replica::attach(&db);
    replica.wait_caught_up(WAIT).unwrap();
    assert_eq!(sum_bal(replica.db()), 800);
    replica.detach();
    // Every execution entry refuses: SQL, a streamed plan, a lookup.
    let session = Session::new(replica.db());
    for err in [
        session.sql(ALL).unwrap_err(),
        session.sql(SUM_BAL).unwrap_err(),
        stream_err(&session),
        session.lookup("acct", &[Value::Int(0)]).unwrap_err(),
    ] {
        match err {
            Error::InvalidState(m) => assert!(m.contains("detached"), "unexpected message: {m}"),
            other => panic!("expected InvalidState, got {other:?}"),
        }
    }
}

#[test]
fn lag_beyond_max_lag_refuses_queries_until_caught_up() {
    let mut cfg = ClusterConfig::small_for_tests();
    // A tailer that polls very rarely, and a tight staleness contract.
    cfg.replica.poll_interval_us = 2_000_000;
    cfg.replica.max_lag_lsn = Some(4);
    let (db, table) = acct_db(cfg, 8, true);
    let replica = Replica::attach(&db);
    replica.wait_caught_up(WAIT).unwrap();
    assert_eq!(sum_bal(replica.db()), 800, "within the lag bound: serves");

    // Let the tailer settle into its (2 s) idle sleep so none of the
    // upcoming writes can race into an in-progress poll, then pile up
    // master writes: the replica must refuse rather than serve a
    // snapshot staler than the contract.
    std::thread::sleep(Duration::from_millis(50));
    for i in 0..6 {
        let trx = db.begin();
        db.insert_row(&table, trx, &vec![Value::Int(500 + i), Value::Int(1)])
            .unwrap();
        db.commit(trx);
    }
    assert!(replica.lag() > 4);
    let session = Session::new(replica.db());
    for err in [
        session.sql(ALL).unwrap_err(),
        session.sql(SUM_BAL).unwrap_err(),
        stream_err(&session),
    ] {
        match err {
            Error::InvalidState(m) => assert!(m.contains("lag"), "unexpected message: {m}"),
            other => panic!("expected InvalidState, got {other:?}"),
        }
    }
    let snap = replica.db().metrics().snapshot();
    assert!(snap.replica_lag_lsn > 0 || replica.lag() > 0);
    // Once the tailer catches back up, service resumes.
    replica.wait_caught_up(WAIT).unwrap();
    assert_eq!(Session::new(replica.db()).sql(ALL).unwrap().len(), 14);
}

/// The acceptance gate: a replica attached to a live cluster serves all
/// 22 TPC-H queries (and the micro suite), NDP on and off, with results
/// equal to a master snapshot — while concurrent DML keeps committing on
/// the master (on a side table; the replica's snapshot of the TPC-H
/// tables must be unaffected, and its side-table snapshots must be
/// transaction-consistent).
#[test]
fn tpch_queries_on_replica_match_master_snapshot() {
    use taurus::tpch::{micro_queries, tpch_queries};

    fn fmt_rows(rows: &[Row]) -> Vec<String> {
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Double(d) => format!("{d:.4}"),
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect()
    }

    for ndp in [false, true] {
        let mut cfg = ClusterConfig::default();
        cfg.buffer_pool_pages = 256;
        cfg.slice_pages = 32;
        cfg.ndp.enabled = ndp;
        cfg.ndp.min_io_pages = 8;
        cfg.ndp.max_pages_look_ahead = 64;
        // Retention must cover write-rate x replication lag on hot pages
        // (see DESIGN.md); the default 8 is too tight for a full-speed
        // single-page churn loop.
        cfg.pagestore_versions_retained = 64;
        let db = TaurusDb::new(cfg);
        taurus::tpch::load(&db, 0.002, 7).unwrap();
        // No secondary on `bal`: the transfer churn revisits balance
        // values (see `acct_db`).
        let acct = db.create_table(account_schema(), &[]).unwrap();
        db.bulk_load(
            &acct,
            (0..16)
                .map(|i| vec![Value::Int(i), Value::Int(100)])
                .collect(),
        )
        .unwrap();
        let replica = Replica::attach(&db);
        replica.wait_caught_up(WAIT).unwrap();

        // Master snapshot of every query, quiesced.
        let queries: Vec<_> = tpch_queries().into_iter().chain(micro_queries()).collect();
        let master: Vec<(&str, Vec<String>)> = queries
            .iter()
            .map(|q| {
                let rows = (q.run)(&db, None)
                    .unwrap_or_else(|e| panic!("{} (master, ndp={ndp}): {e}", q.name));
                (q.name, fmt_rows(&rows))
            })
            .collect();

        // Churn the side table while the replica serves the suite.
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut k = 0i64;
                while !stop.load(Ordering::SeqCst) {
                    let trx = db.begin();
                    let (i, j) = (k % 16, (k + 7) % 16);
                    if i != j {
                        let get = |id: i64| {
                            db.lookup_row(&acct, &db.read_view(trx), &[Value::Int(id)])
                                .unwrap()
                                .unwrap()[1]
                                .as_int()
                                .unwrap()
                        };
                        let (bi, bj) = (get(i), get(j));
                        db.update_row(&acct, trx, &vec![Value::Int(i), Value::Int(bi - 1)])
                            .unwrap();
                        db.update_row(&acct, trx, &vec![Value::Int(j), Value::Int(bj + 1)])
                            .unwrap();
                    }
                    db.commit(trx);
                    k += 1;
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
            })
        };

        let rdb = replica.db();
        for (name, expect) in &master {
            let q = queries.iter().find(|q| q.name == *name).unwrap();
            let rows =
                (q.run)(rdb, None).unwrap_or_else(|e| panic!("{name} (replica, ndp={ndp}): {e}"));
            assert_eq!(
                &fmt_rows(&rows),
                expect,
                "{name}: replica result differs from master snapshot (ndp={ndp})"
            );
            // Interleave a consistency probe on the churned table.
            let sum = sum_bal(rdb);
            assert_eq!(sum, 1600, "torn side-table snapshot during {name}");
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        assert!(
            rdb.metrics().snapshot().replica_visible_lsn > 0,
            "replica lag/visible gauges must be observable"
        );
    }
}

/// The log-tailing concurrency gate: a writer thread runs sum-preserving
/// transactions (transfers, paired inserts, paired deletes) while the
/// replica tails; every replica query must observe a transaction-
/// consistent snapshot — the balance invariant holds and stream==collect
/// — at every prefetch/batch-size combination.
#[test]
fn concurrent_writer_never_tears_replica_snapshots() {
    for (batch_rows, prefetch) in [(1usize, 1usize), (1, 2), (1024, 1), (1024, 2)] {
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.scan_batch_rows = batch_rows;
        cfg.ndp.prefetch_batches = prefetch;
        // Hot-page version retention must cover the replica's lag under
        // the full-speed churn below.
        cfg.pagestore_versions_retained = 64;
        let (db, table) = acct_db(cfg, 32, false);
        let total: i64 = 32 * 100;
        let replica = Replica::attach(&db);
        replica.wait_caught_up(WAIT).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut next_id = 10_000i64;
                let mut spare: Vec<(i64, i64)> = Vec::new();
                let mut k = 0i64;
                while !stop.load(Ordering::SeqCst) {
                    let trx = db.begin();
                    match k % 4 {
                        // Transfer between two seed rows.
                        0 | 1 => {
                            let (i, j) = ((k * 7 % 32).abs(), (k * 13 % 32).abs());
                            if i != j {
                                let d = 1 + k % 17;
                                let get = |id: i64| {
                                    db.lookup_row(&table, &db.read_view(trx), &[Value::Int(id)])
                                        .unwrap()
                                        .unwrap()[1]
                                        .as_int()
                                        .unwrap()
                                };
                                let (bi, bj) = (get(i), get(j));
                                db.update_row(
                                    &table,
                                    trx,
                                    &vec![Value::Int(i), Value::Int(bi - d)],
                                )
                                .unwrap();
                                db.update_row(
                                    &table,
                                    trx,
                                    &vec![Value::Int(j), Value::Int(bj + d)],
                                )
                                .unwrap();
                            }
                        }
                        // Insert a ±d pair (sum-preserving).
                        2 => {
                            let d = 5 + k % 11;
                            let (a, b) = (next_id, next_id + 1);
                            next_id += 2;
                            db.insert_row(&table, trx, &vec![Value::Int(a), Value::Int(d)])
                                .unwrap();
                            db.insert_row(&table, trx, &vec![Value::Int(b), Value::Int(-d)])
                                .unwrap();
                            spare.push((a, b));
                        }
                        // Delete a previously inserted pair (sums to 0).
                        _ => {
                            if let Some((a, b)) = spare.pop() {
                                db.delete_row(&table, trx, &[Value::Int(a)]).unwrap();
                                db.delete_row(&table, trx, &[Value::Int(b)]).unwrap();
                            }
                        }
                    }
                    db.commit(trx);
                    k += 1;
                    // Steady, heavy — but not retention-saturating — load.
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
            })
        };

        let rdb = replica.db().clone();
        for round in 0..30 {
            let session = Session::new(&rdb);
            // The pushed-down aggregate and the row stream must agree with
            // each other and with the invariant.
            let collected = session.sql(ALL).unwrap();
            let streamed = stream_all(&session).collect_rows().unwrap();
            assert_eq!(
                collected, streamed,
                "stream/collect diverged (batch={batch_rows}, prefetch={prefetch}, round={round})"
            );
            let sum: i64 = collected.iter().map(|r| r[1].as_int().unwrap()).sum();
            assert_eq!(
                sum,
                total,
                "torn snapshot on the replica (batch={batch_rows}, prefetch={prefetch}, \
                 round={round}, rows={})",
                collected.len()
            );
            let agg = session.sql(SUM_BAL).unwrap();
            assert_eq!(agg[0][0].as_int().unwrap(), total, "aggregate path tore");
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        // Quiesced: replica converges to the master's final state.
        replica.wait_caught_up(WAIT).unwrap();
        let master_rows = Session::new(&db).sql(ALL).unwrap();
        let replica_rows = Session::new(&rdb).sql(ALL).unwrap();
        assert_eq!(master_rows, replica_rows);
    }
}
