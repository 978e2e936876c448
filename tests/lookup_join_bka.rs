//! Batched key access for lookup joins: the probe keys of an outer batch
//! are resolved to leaf pages ahead of the probes and the leaves the pool
//! lacks are fetched a chunk to a storage request; the probe is an index
//! access prepared once per operator.
//!
//! What must hold: the rows are the per-row path's byte for byte, from a
//! cold pool of any size, in any batch size, with NDP off or on; the pages
//! and rows read are the same while the read requests are fewer; a key
//! group running over two leaves and a NULL probe key behave; and storage
//! faults come out of the join as failover or as a typed error.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use taurus::btree::TreeStore;
use taurus::common::schema::{Column, Row, TableSchema};
use taurus::common::{
    BatchLayout, ClusterConfig, DataType, Error, MetricsSnapshot, QueryCtx, SliceId, Value,
};
use taurus::expr::ast::Expr;
use taurus::ndp::{prefetch_leaves, ScanRange, TaurusDb};
use taurus::optimizer::plan::{JoinType, LookupJoinNode, Plan, ScanNode};
use taurus::page::{RecordView, NO_PAGE};
use taurus::prelude::Session;
use taurus::sql::SessionSqlExt;

// --- the TPC-H statements that join by lookup --------------------------------

const SF: f64 = 0.002;
const LOOKUP_JOIN_STATEMENTS: [&str; 8] = ["Q4", "Q5", "Q11", "Q14", "Q17", "Q19", "Q21", "Q22"];

fn tpch_db(pool_pages: usize, batch_rows: usize) -> Arc<TaurusDb> {
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = pool_pages;
    cfg.scan_batch_rows = batch_rows;
    cfg.ndp.enabled = true;
    cfg.ndp.min_io_pages = 8;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, SF, 42).unwrap();
    db
}

fn statement(name: &str) -> &'static str {
    taurus::sql::tpch_sql::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| text)
        .unwrap()
}

/// The same statements on a warm pool that holds everything: the second
/// run of each fetches nothing, so no prefetch can have shaped its rows.
fn warm_reference() -> &'static BTreeMap<(&'static str, bool), Vec<Row>> {
    static REFERENCE: OnceLock<BTreeMap<(&'static str, bool), Vec<Row>>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let db = tpch_db(8192, 1024);
        let mut out = BTreeMap::new();
        for name in LOOKUP_JOIN_STATEMENTS {
            let explained = Session::new(&db)
                .sql(&format!("explain {}", statement(name)))
                .unwrap();
            assert!(
                explained
                    .iter()
                    .any(|r| r[0].to_string().contains("LookupJoin")),
                "{name} no longer joins by lookup: {explained:?}"
            );
            for ndp in [false, true] {
                let session = Session::new(&db).with_ndp(ndp);
                session.sql(statement(name)).unwrap();
                let before = db.metrics().snapshot();
                let rows = session.sql(statement(name)).unwrap();
                let d = db.metrics().snapshot().since(&before);
                assert_eq!(
                    (d.pages_shipped_raw, d.lookup_prefetch_pages),
                    (0, 0),
                    "{name}: the warm run read from storage"
                );
                out.insert((name, ndp), rows);
            }
        }
        out
    })
}

fn cold_pool_matches_warm(batch_rows: usize) {
    let want = warm_reference();
    for pool_pages in [16, 64, 175] {
        let db = tpch_db(pool_pages, batch_rows);
        for name in LOOKUP_JOIN_STATEMENTS {
            for ndp in [false, true] {
                db.buffer_pool().clear();
                let got = Session::new(&db)
                    .with_ndp(ndp)
                    .sql(statement(name))
                    .unwrap();
                assert_eq!(
                    got,
                    want[&(name, ndp)],
                    "{name} ndp={ndp} batch={batch_rows} pool={pool_pages}"
                );
            }
        }
        assert!(
            db.metrics().snapshot().lookup_prefetch_reads > 0,
            "batch={batch_rows} pool={pool_pages}: nothing was prefetched"
        );
    }
}

#[test]
fn cold_pool_rows_equal_warm_rows_batch_1() {
    cold_pool_matches_warm(1);
}

#[test]
fn cold_pool_rows_equal_warm_rows_batch_7() {
    cold_pool_matches_warm(7);
}

#[test]
fn cold_pool_rows_equal_warm_rows_batch_1024() {
    cold_pool_matches_warm(1024);
}

/// Q4 (`orders` semi-joined to `lineitem`'s primary key) from a cold pool
/// that holds both tables, NDP off, so every page is read exactly once.
///
/// The per-row path (parent commit f0e3577, same set-up and statement) read
/// `pages_shipped_raw` = 119 in `net_read_requests` = 119, one request a
/// page, with `rows_scanned` = 3570 and `bp_misses` = 119. Batched key
/// access reads the same 119 pages, scans the same rows and counts the same
/// misses; the 92 `lineitem` leaves among them arrive in 4 batch reads (92
/// pages in chunks of at most 32, all in one slice, so one request each),
/// which leaves 27 single reads (`orders`, the two roots) + 4 = 31 requests.
#[test]
fn q4_reads_the_same_pages_in_fewer_requests() {
    let db = tpch_db(175, 1024);
    db.buffer_pool().clear();
    let before = db.metrics().snapshot();
    let rows = Session::new(&db)
        .with_ndp(false)
        .sql(statement("Q4"))
        .unwrap();
    let d = db.metrics().snapshot().since(&before);
    assert_eq!(rows, warm_reference()[&("Q4", false)]);
    assert_eq!(d.pages_shipped_raw, 119, "{d:?}");
    assert_eq!(d.rows_scanned, 3570, "{d:?}");
    assert_eq!(d.bp_misses, 119, "{d:?}");
    assert_eq!(
        (d.lookup_prefetch_reads, d.lookup_prefetch_pages),
        (4, 92),
        "{d:?}"
    );
    assert_eq!(d.net_read_requests, 27 + 4, "{d:?}");
    assert!(d.net_read_requests < d.pages_shipped_raw);
}

// --- a hand-made join: key groups over two leaves, NULL keys, a secondary ----

const KEYS: i64 = 400;
const GROUP: i64 = 25;
const PROBES: i64 = 300;

/// `item(k, n, v, w)`, primary key `(k, n)`, 25 rows to a `k`: with 4 KB
/// pages a group in three or four runs over a leaf boundary. Secondary
/// `i_v(v)` stores `v` and the key, not `w`. `probe(id, k)` asks for keys
/// in no order; every tenth is NULL and some match nothing.
fn join_db(pool_pages: usize, batch_rows: usize) -> Arc<TaurusDb> {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.buffer_pool_pages = pool_pages;
    cfg.scan_batch_rows = batch_rows;
    join_db_with(cfg)
}

fn join_db_with(cfg: ClusterConfig) -> Arc<TaurusDb> {
    let db = TaurusDb::new(cfg);
    let big = |name: &str| Column::new(name, DataType::BigInt);
    let item = db
        .create_table(
            TableSchema::new(
                "item",
                vec![big("k"), big("n"), big("v"), big("w")],
                vec![0, 1],
            ),
            &[("i_v", vec![2])],
        )
        .unwrap();
    db.bulk_load(&item, item_rows()).unwrap();
    let probe = db
        .create_table(
            TableSchema::new(
                "probe",
                vec![big("id"), Column::nullable("k", DataType::BigInt)],
                vec![0],
            ),
            &[],
        )
        .unwrap();
    db.bulk_load(&probe, probe_rows()).unwrap();
    db
}

fn item_rows() -> Vec<Row> {
    (0..KEYS)
        .flat_map(|k| (0..GROUP).map(move |n| (k, n)))
        .map(|(k, n)| {
            let v = (k * 7 + n * 13) % 500;
            vec![
                Value::Int(k),
                Value::Int(n),
                Value::Int(v),
                Value::Int(k * 1000 + n),
            ]
        })
        .collect()
}

fn probe_rows() -> Vec<Row> {
    (0..PROBES)
        .map(|id| {
            let k = match id % 10 {
                9 => Value::Null,
                _ => Value::Int((id * 131) % (KEYS + 50)),
            };
            vec![Value::Int(id), k]
        })
        .collect()
}

/// `probe` joined to `item` through `index` on the probe's `k`, keeping
/// the inner `n` and `w` of the rows with `n <> 3` (the inner predicate)
/// and, of those, the ones with `n < 20` (the `on` residual, over probe ++
/// inner columns).
fn join_plan(index: usize, join: JoinType) -> Plan {
    Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(ScanNode::new("probe", vec![0, 1]))),
        table: "item".into(),
        index,
        outer_key_cols: vec![1],
        on: Some(Expr::lt(Expr::col(2), Expr::int(20))),
        inner_output: vec![1, 3],
        join,
        inner_predicate: vec![Expr::ne(Expr::col(1), Expr::int(3))],
    })
}

/// What `join_plan` means, worked out from the generators. `key_col` is
/// the `item` column the probe's `k` is compared with.
fn expected(key_col: usize, join: JoinType) -> Vec<Row> {
    let items = item_rows();
    let mut out = Vec::new();
    for p in probe_rows() {
        let mut matches: Vec<Row> = items
            .iter()
            .filter(|i| !p[1].is_null() && i[key_col] == p[1])
            .filter(|i| i[1] != Value::Int(3) && i[1].as_int().unwrap() < 20)
            .map(|i| vec![p[0].clone(), p[1].clone(), i[1].clone(), i[3].clone()])
            .collect();
        // A secondary index hands its entries over in (v, k, n) order.
        matches.sort_by_key(|r| (r[3].as_int().unwrap(), r[2].as_int().unwrap()));
        match join {
            JoinType::Inner => out.extend(matches),
            JoinType::LeftOuter if matches.is_empty() => {
                out.push(vec![p[0].clone(), p[1].clone(), Value::Null, Value::Null]);
            }
            JoinType::LeftOuter => out.extend(matches),
            JoinType::Semi if !matches.is_empty() => out.push(p),
            JoinType::Anti if matches.is_empty() => out.push(p),
            JoinType::Semi | JoinType::Anti => {}
        }
    }
    out
}

#[test]
fn spanning_groups_null_keys_and_a_non_covering_secondary() {
    for (pool_pages, batch_rows) in [(16, 1), (16, 7), (64, 1024), (4096, 1024)] {
        let db = join_db(pool_pages, batch_rows);
        let session = Session::new(&db).with_ndp(false);
        for (index, key_col) in [(0, 0), (1, 2)] {
            for join in [
                JoinType::Inner,
                JoinType::LeftOuter,
                JoinType::Semi,
                JoinType::Anti,
            ] {
                db.buffer_pool().clear();
                let before = db.metrics().snapshot();
                let got = session.execute_plan(&join_plan(index, join)).unwrap();
                let d = db.metrics().snapshot().since(&before);
                assert_eq!(
                    got,
                    expected(key_col, join),
                    "index {index} {join:?} pool={pool_pages} batch={batch_rows}"
                );
                assert!(d.lookup_prefetch_pages > 0, "{d:?}");
                assert!(d.lookup_prefetch_pages >= d.lookup_prefetch_reads, "{d:?}");
            }
        }
    }
}

/// The PQ worker path shares the probe: same rows (in some order) from a
/// partitioned outer.
#[test]
fn parallel_workers_probe_the_same_way() {
    let db = join_db(64, 7);
    db.buffer_pool().clear();
    let plan = join_plan(0, JoinType::Inner).exchange(3);
    let mut got = Session::new(&db)
        .with_ndp(false)
        .execute_plan(&plan)
        .unwrap();
    got.sort_by_key(|r| (r[0].as_int().unwrap(), r[2].as_int().unwrap()));
    assert_eq!(got, expected(0, JoinType::Inner));
    assert!(db.metrics().snapshot().lookup_prefetch_reads > 0);
}

/// A `k` whose 25 records start on one leaf of `item` and end on the next.
fn key_over_two_leaves(db: &TaurusDb) -> i64 {
    let table = db.table("item").unwrap();
    let index = &table.primary;
    let k_of = |rec: &[u8]| RecordView::new(rec, &index.tree.leaf_layout).value(0);
    let mut page = index
        .tree
        .seek_leaf(index.store.as_ref(), &ScanRange::full())
        .unwrap()
        .unwrap();
    while page.next() != NO_PAGE {
        let next = index.store.read(page.next()).unwrap();
        let last = k_of(page.iter_chain().last().unwrap().unwrap());
        let first = k_of(next.iter_chain().next().unwrap().unwrap());
        let next_last = k_of(next.iter_chain().last().unwrap().unwrap());
        if last == first && next_last != first {
            return last.as_int().unwrap();
        }
        page = next;
    }
    panic!("no key group spans two leaves");
}

#[test]
fn a_group_over_two_leaves_is_one_batch_read_of_two_pages() {
    let db = join_db(64, 1024);
    let k = key_over_two_leaves(&db);
    let one = db
        .create_table(
            TableSchema::new(
                "one",
                vec![
                    Column::new("id", DataType::BigInt),
                    Column::new("k", DataType::BigInt),
                ],
                vec![0],
            ),
            &[],
        )
        .unwrap();
    db.bulk_load(&one, vec![vec![Value::Int(0), Value::Int(k)]])
        .unwrap();
    let plan = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(ScanNode::new("one", vec![0, 1]))),
        table: "item".into(),
        index: 0,
        outer_key_cols: vec![1],
        on: None,
        inner_output: vec![1],
        join: JoinType::Inner,
        inner_predicate: vec![],
    });
    db.buffer_pool().clear();
    let before = db.metrics().snapshot();
    let rows = Session::new(&db)
        .with_ndp(false)
        .execute_plan(&plan)
        .unwrap();
    let d = db.metrics().snapshot().since(&before);
    let want: Vec<Row> = (0..GROUP)
        .map(|n| vec![Value::Int(0), Value::Int(k), Value::Int(n)])
        .collect();
    assert_eq!(rows, want);
    // `one`'s only page, `item`'s root and the level-1 page under it
    // singly, the group's two leaves together; the probe then finds both
    // cached and reads no third.
    assert_eq!(
        (d.lookup_prefetch_reads, d.lookup_prefetch_pages),
        (1, 2),
        "{d:?}"
    );
    assert_eq!(d.pages_shipped_raw, 5, "{d:?}");
    assert_eq!(d.bp_misses, 5, "{d:?}");
}

// --- storage faults -----------------------------------------------------------

/// Run `f` on a thread of its own and give up after ten seconds.
fn within_ten_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(f()));
    let out = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the join hung, or panicked, under a storage fault");
    worker.join().unwrap().unwrap();
    out
}

/// Read `probe` into the pool, so that what a faulted join asks storage
/// for is `item`'s pages, and the first to ask is its prefetch.
fn warm_outer(db: &Arc<TaurusDb>) {
    db.buffer_pool().clear();
    let rows = Session::new(db)
        .with_ndp(false)
        .execute_plan(&Plan::Scan(ScanNode::new("probe", vec![0])))
        .unwrap();
    assert_eq!(rows.len() as i64, PROBES);
}

fn delta(db: &TaurusDb, before: &MetricsSnapshot) -> MetricsSnapshot {
    db.metrics().snapshot().since(before)
}

#[test]
fn preferred_replica_down_mid_join_fails_over_to_the_same_rows() {
    let db = join_db(16, 7);
    db.buffer_pool().clear();
    let mut stream = Session::new(&db)
        .with_ndp(false)
        .stream_plan(join_plan(0, JoinType::Inner));
    let mut got: Vec<Row> = stream.next_batch().unwrap().unwrap().to_rows();
    // The join is under way (and parked on the stream's backpressure):
    // take down the store single reads of `item`'s first slice go to first.
    let item = db.table("item").unwrap();
    let cfg = db.config();
    let first_slice = SliceId::of(item.primary.tree.def.space, 0, cfg.slice_pages);
    let preferred = db.sal().replicas_of(first_slice).unwrap()[0];
    db.sal().page_stores()[preferred].set_poisoned(true);
    let before = db.metrics().snapshot();
    while let Some(batch) = stream.next_batch() {
        got.extend(batch.unwrap().to_rows());
    }
    let d = delta(&db, &before);
    db.sal().page_stores()[preferred].set_poisoned(false);
    assert_eq!(got, expected(0, JoinType::Inner));
    assert!(d.lookup_prefetch_reads > 0, "{d:?}");
    assert!(d.read_retries > 0, "nothing had to fail over: {d:?}");
}

#[test]
fn every_replica_down_is_a_typed_error_out_of_the_join() {
    let db = join_db(64, 7);
    warm_outer(&db);
    for ps in db.sal().page_stores() {
        ps.set_poisoned(true);
    }
    let before = db.metrics().snapshot();
    let run = {
        let db = db.clone();
        move || {
            Session::new(&db)
                .with_ndp(false)
                .execute_plan(&join_plan(0, JoinType::Inner))
        }
    };
    let err = within_ten_seconds(run).unwrap_err();
    assert!(
        matches!(&err, Error::InvalidState(m) if m.contains("poisoned")),
        "{err:?}"
    );
    // `item`'s root singly, then the first prefetch: both swept every
    // replica twice (`read_retry_rounds`) before giving up.
    let d = delta(&db, &before);
    assert_eq!(d.lookup_prefetch_reads, 0, "{d:?}");
    assert!(d.read_backoff_waits >= 1, "{d:?}");
    for ps in db.sal().page_stores() {
        ps.set_poisoned(false);
    }
    // And the cluster is usable again.
    let rows = Session::new(&db)
        .with_ndp(false)
        .execute_plan(&join_plan(0, JoinType::Inner))
        .unwrap();
    assert_eq!(rows, expected(0, JoinType::Inner));
}

#[test]
fn a_deadline_that_expires_inside_a_prefetch_is_deadline_exceeded() {
    let db = join_db(64, 7);
    // At the seam: the prefetch's batch read checks the context's deadline
    // before it dispatches.
    db.buffer_pool().clear();
    let item = db.table("item").unwrap();
    let key = item.primary.tree.encode_search_key(&[Value::Int(7)]);
    let expired = QueryCtx::new().with_deadline(Instant::now() - Duration::from_millis(1));
    let before = db.metrics().snapshot();
    let r = prefetch_leaves(&item.primary, [key.as_slice()], &expired, &mut Vec::new());
    assert!(matches!(r, Err(Error::DeadlineExceeded(_))), "{r:?}");
    assert!(delta(&db, &before).deadline_exceeded >= 1);

    // Through a join: browned-out stores hold the first prefetch past the
    // query's budget, and the join ends with the typed error, promptly.
    warm_outer(&db);
    for ps in db.sal().page_stores() {
        ps.set_fault(taurus::pagestore::FaultPolicy::Latency(
            Duration::from_millis(300),
        ));
    }
    let run = {
        let db = db.clone();
        move || {
            let mut session = Session::new(&db).with_ndp(false);
            session.set_query_budget_ms(100);
            session.execute_plan(&join_plan(0, JoinType::Inner))
        }
    };
    let err = within_ten_seconds(run).unwrap_err();
    assert!(matches!(err, Error::DeadlineExceeded(_)), "{err:?}");
    for ps in db.sal().page_stores() {
        ps.set_fault(taurus::pagestore::FaultPolicy::None);
    }
}

/// The layouts agree (the columnar CI leg runs everything above under
/// `TAURUS_BATCH_LAYOUT=columnar`; this pins it on every leg).
#[test]
fn columnar_scans_feed_the_same_probe() {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.batch_layout = BatchLayout::Columnar;
    cfg.buffer_pool_pages = 16;
    let db = join_db_with(cfg);
    db.buffer_pool().clear();
    let session = Session::new(&db).with_ndp(false);
    for (index, key_col) in [(0, 0), (1, 2)] {
        let got = session
            .execute_plan(&join_plan(index, JoinType::LeftOuter))
            .unwrap();
        assert_eq!(got, expected(key_col, JoinType::LeftOuter));
    }
}
