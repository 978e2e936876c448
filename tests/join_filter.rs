//! Join filters: a hash join whose probe side is an NDP scan drains its
//! build side first and sends the build keys, as a Bloom filter, with
//! every batch read of the probe scan; the Page Stores drop the
//! definitely visible records no build key can match.
//!
//! What must hold: the rows are the unfiltered join's byte for byte, for
//! every join type (only inner and semi joins get a filter), on `Int`
//! and `BigInt` key columns with NULLs, in any batch size and from any
//! pool; a build without keys starts no probe scan, a probe that reads
//! all its input before its first row and has none starts no build scan,
//! and a build holding every key sends no filter; a `LIMIT` above leaves nothing running;
//! storage that declines the work gives the same rows; a writer changing
//! the join column under the scan changes nothing a read view can see;
//! and the 22 TPC-H statements equal their NDP-off results.
//!
//! Every test takes one lock: `limit_over_a_filtered_join_leaves_nothing_running`
//! counts the process's scan and storage threads.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use taurus::common::schema::{Column, Row, TableSchema};
use taurus::common::{ClusterConfig, DataType, MetricsSnapshot, Value};
use taurus::expr::ast::Expr;
use taurus::ndp::TaurusDb;
use taurus::optimizer::ndp_post_process;
use taurus::optimizer::plan::{HashJoinNode, JoinType, Plan, ScanNode};
use taurus::pagestore::{FaultPolicy, SkipPolicy};
use taurus::prelude::Session;
use taurus::sql::SessionSqlExt;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn delta(db: &TaurusDb, before: &MetricsSnapshot) -> MetricsSnapshot {
    db.metrics().snapshot().since(before)
}

// --- a hand-made join ------------------------------------------------------------

const PROBES: i64 = 3000;
/// `probe.k` takes values below this; `build.k` runs past them.
const PROBE_KEYS: i64 = 600;
const BUILDS: i64 = 700;

/// `probe(id, k, v, pad)`, `k` an `Int` with a NULL in every 13th row,
/// about sixty 4 KB leaves; `build(b, k, tag)`, `k` = `b`, `tag` = `b %
/// 10`.
fn join_db(pool_pages: usize, batch_rows: usize) -> Arc<TaurusDb> {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.buffer_pool_pages = pool_pages;
    cfg.scan_batch_rows = batch_rows;
    let db = TaurusDb::new(cfg);
    let probe = db
        .create_table(
            TableSchema::new(
                "probe",
                vec![
                    Column::new("id", DataType::BigInt),
                    Column::nullable("k", DataType::Int),
                    Column::new("v", DataType::BigInt),
                    Column::new("pad", DataType::Varchar(40)),
                ],
                vec![0],
            ),
            &[],
        )
        .unwrap();
    db.bulk_load(&probe, probe_rows()).unwrap();
    let build = db
        .create_table(
            TableSchema::new(
                "build",
                vec![
                    Column::new("b", DataType::BigInt),
                    Column::new("k", DataType::BigInt),
                    Column::new("tag", DataType::Int),
                ],
                vec![0],
            ),
            &[],
        )
        .unwrap();
    db.bulk_load(&build, build_rows()).unwrap();
    db
}

fn probe_rows() -> Vec<Row> {
    (0..PROBES)
        .map(|id| {
            let k = match id % 13 {
                12 => Value::Null,
                _ => Value::Int((id * 37) % PROBE_KEYS),
            };
            vec![
                Value::Int(id),
                k,
                Value::Int(id * 3),
                Value::str("p".repeat(30)),
            ]
        })
        .collect()
}

fn build_rows() -> Vec<Row> {
    (0..BUILDS)
        .map(|b| vec![Value::Int(b), Value::Int(b), Value::Int(b % 10)])
        .collect()
}

/// `probe` (id, k, v) joined on its column `probe_col` (0 = `id`, a
/// `BigInt`; 1 = `k`, an `Int`) to `build` (b, k, tag) on `build.k`,
/// with the build rows whose `tag` passes `build_pred`. No NDP
/// decisions.
fn join_plan(probe_col: usize, build_pred: Expr, join: JoinType) -> Plan {
    Plan::HashJoin(HashJoinNode {
        left: Box::new(Plan::Scan(ScanNode::new("probe", vec![0, 1, 2]))),
        right: Box::new(Plan::Scan(
            ScanNode::new("build", vec![0, 1, 2]).with_predicate(vec![build_pred]),
        )),
        left_keys: vec![probe_col],
        right_keys: vec![1],
        join,
        filter: None,
    })
}

fn tag_below(n: i64) -> Expr {
    Expr::lt(Expr::col(2), Expr::int(n))
}

/// What `join_plan` means, worked out from the generators.
fn expected(probe_col: usize, tags_below: i64, join: JoinType) -> Vec<Row> {
    let builds: Vec<Row> = build_rows()
        .into_iter()
        .filter(|b| b[2].as_int().unwrap() < tags_below)
        .collect();
    let mut out = Vec::new();
    for p in probe_rows() {
        let p = p[..3].to_vec();
        let matches: Vec<&Row> = builds
            .iter()
            .filter(|b| !p[probe_col].is_null() && b[1] == p[probe_col])
            .collect();
        match join {
            JoinType::Inner | JoinType::LeftOuter if !matches.is_empty() => {
                out.extend(matches.iter().map(|b| [&p[..], &b[..]].concat()))
            }
            JoinType::LeftOuter => {
                out.push([&p[..], &[Value::Null, Value::Null, Value::Null]].concat())
            }
            JoinType::Semi if !matches.is_empty() => out.push(p),
            JoinType::Anti if matches.is_empty() => out.push(p),
            _ => {}
        }
    }
    out
}

/// `plan` with the NDP decisions a cold pool gets.
fn with_decisions(db: &TaurusDb, mut plan: Plan) -> Plan {
    db.buffer_pool().clear();
    ndp_post_process(&mut plan, db).unwrap();
    plan
}

fn decided(plan: &Plan) -> bool {
    matches!(plan, Plan::HashJoin(j) if j.filter.is_some())
}

/// The same plan with its join-filter decision taken away.
fn without_filter(plan: &Plan) -> Plan {
    let mut plan = plan.clone();
    if let Plan::HashJoin(j) = &mut plan {
        j.filter = None;
    }
    plan
}

const JOIN_TYPES: [JoinType; 4] = [
    JoinType::Inner,
    JoinType::Semi,
    JoinType::LeftOuter,
    JoinType::Anti,
];

#[test]
fn hand_made_joins_equal_the_generators_with_and_without_a_filter() {
    let _serial = serial();
    for (pool_pages, batch_rows) in [(16, 1), (16, 7), (64, 1024)] {
        let db = join_db(pool_pages, batch_rows);
        for probe_col in [1, 0] {
            for join in JOIN_TYPES {
                let what = format!("col {probe_col} {join:?} pool={pool_pages} batch={batch_rows}");
                let plan = with_decisions(&db, join_plan(probe_col, tag_below(1), join));
                let matching_only = matches!(join, JoinType::Inner | JoinType::Semi);
                assert_eq!(decided(&plan), matching_only, "{what}");
                let want = expected(probe_col, 1, join);
                db.buffer_pool().clear();
                let before = db.metrics().snapshot();
                assert_eq!(
                    Session::new(&db).execute_plan(&plan).unwrap(),
                    want,
                    "{what}"
                );
                let d = delta(&db, &before);
                if matching_only {
                    // 70 build keys against 601 (`k`, NULL counted) or
                    // 3000 (`id`) distinct probe values: the filter goes.
                    assert_eq!((d.join_filters_sent, d.join_filter_keys), (1, 70), "{what}");
                    assert!(d.ps_records_join_filtered > 0, "{what}: {d:?}");
                } else {
                    assert_eq!(d.join_filters_sent, 0, "{what}");
                }
                // The unfiltered twin and NDP off agree.
                let twin = Session::new(&db).execute_plan(&without_filter(&plan));
                assert_eq!(twin.unwrap(), want, "{what}: twin");
                let off = Session::new(&db).with_ndp(false);
                let plain = off.execute_plan(&join_plan(probe_col, tag_below(1), join));
                assert_eq!(plain.unwrap(), want, "{what}: NDP off");
            }
        }
    }
}

/// A build side that keeps no row has no key: no probe row can match, so
/// the probe scan never starts, and the twin that does start it reads
/// every probe leaf for nothing.
#[test]
fn an_empty_build_starts_no_probe_scan() {
    let _serial = serial();
    let db = join_db(16, 7);
    let build_leaves = db.table("build").unwrap().primary.tree.n_leaves() as u64;
    let probe_leaves = db.table("probe").unwrap().primary.tree.n_leaves() as u64;
    for join in [JoinType::Inner, JoinType::Semi] {
        let plan = with_decisions(&db, join_plan(1, tag_below(0), join));
        assert!(decided(&plan));
        let mut pages = Vec::new();
        for plan in [plan.clone(), without_filter(&plan)] {
            db.buffer_pool().clear();
            let before = db.metrics().snapshot();
            assert!(Session::new(&db).execute_plan(&plan).unwrap().is_empty());
            let d = delta(&db, &before);
            assert_eq!(d.join_filters_sent, 0, "{d:?}");
            pages.push(d.pages_shipped_raw + d.pages_shipped_ndp + d.pages_shipped_empty);
        }
        // The build's leaves and upper levels only; the twin adds the
        // probe's leaves.
        assert!(pages[0] <= build_leaves + 2, "{join:?}: {pages:?}");
        assert!(pages[1] >= pages[0] + probe_leaves, "{join:?}: {pages:?}");
    }
}

/// A probe side that reads all its input before its first row (here a
/// sort) is read before the build opens: with no row, no join type can
/// emit one, and the build's leaves are never read. With rows, the join
/// is what it always was.
#[test]
fn an_empty_probe_that_drains_first_starts_no_build_scan() {
    let _serial = serial();
    let db = join_db(16, 7);
    let build_leaves = db.table("build").unwrap().primary.tree.n_leaves() as u64;
    let probe_leaves = db.table("probe").unwrap().primary.tree.n_leaves() as u64;
    let sorted_join = |ids_below: i64, join: JoinType| {
        let probe = ScanNode::new("probe", vec![0, 1, 2])
            .with_predicate(vec![Expr::lt(Expr::col(0), Expr::int(ids_below))]);
        Plan::HashJoin(HashJoinNode {
            left: Box::new(Plan::Scan(probe).sort(vec![(0, false)])),
            right: Box::new(Plan::Scan(
                ScanNode::new("build", vec![0, 1, 2]).with_predicate(vec![tag_below(10)]),
            )),
            left_keys: vec![1],
            right_keys: vec![1],
            join,
            filter: None,
        })
    };
    let session = Session::new(&db).with_ndp(false);
    for join in JOIN_TYPES {
        let mut pages = Vec::new();
        for ids_below in [0, PROBES] {
            db.buffer_pool().clear();
            let before = db.metrics().snapshot();
            let rows = session.execute_plan(&sorted_join(ids_below, join)).unwrap();
            let want = match ids_below {
                0 => Vec::new(),
                _ => expected(1, 10, join),
            };
            assert_eq!(rows, want, "{join:?}, ids below {ids_below}");
            let d = delta(&db, &before);
            pages.push(d.pages_shipped_raw + d.pages_shipped_ndp + d.pages_shipped_empty);
        }
        // The probe's leaves and upper levels only; with rows, the
        // build's leaves too.
        assert!(pages[0] <= probe_leaves + 2, "{join:?}: {pages:?}");
        assert!(
            pages[1] >= probe_leaves + build_leaves,
            "{join:?}: {pages:?}"
        );
    }
}

/// A build that keeps every one of its 700 keys holds more than the probe
/// column has distinct values (601): the filter would drop nothing, and
/// the runtime gate does not send it. The decision is there all the same
/// (the build has a predicate).
#[test]
fn a_build_holding_every_key_sends_no_filter() {
    let _serial = serial();
    let db = join_db(16, 7);
    for join in [JoinType::Inner, JoinType::Semi] {
        let plan = with_decisions(&db, join_plan(1, tag_below(10), join));
        assert!(decided(&plan));
        let before = db.metrics().snapshot();
        let got = Session::new(&db).execute_plan(&plan).unwrap();
        let d = delta(&db, &before);
        assert_eq!(got, expected(1, 10, join), "{join:?}");
        assert_eq!(d.join_filters_sent, 0, "{d:?}");
        assert_eq!(d.ps_records_join_filtered, 0, "{d:?}");
    }
}

/// Threads a query's scans and storage reads run on, alive in this
/// process now.
fn scan_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .map(|name| name.trim().to_string())
                .filter(|name| name.starts_with("sal-subbatch"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn limit_over_a_filtered_join_leaves_nothing_running() {
    let _serial = serial();
    for batch_rows in [1, 7, 1024] {
        let db = join_db(16, batch_rows);
        let plan = with_decisions(&db, join_plan(1, tag_below(1), JoinType::Inner));
        assert!(decided(&plan));
        db.buffer_pool().clear();
        let before = db.metrics().snapshot();
        let mut batches = 0;
        Session::new(&db)
            .run_plan(&plan.limit(3), |first| {
                assert!(first.len() <= 3);
                batches += 1;
                Ok(false)
            })
            .unwrap();
        assert_eq!(batches, 1, "batch={batch_rows}");
        let d = delta(&db, &before);
        assert_eq!(d.join_filters_sent, 1, "batch={batch_rows}");
        assert_eq!(
            db.buffer_pool().ndp_frames_in_use(),
            0,
            "batch={batch_rows}"
        );
        let now = db.metrics().snapshot();
        assert_eq!(now.ndp_batches_in_flight, 0, "batch={batch_rows}");
        assert_eq!(now.ps_requests_in_flight, 0, "batch={batch_rows}");
        assert_eq!(scan_threads(), Vec::<String>::new(), "batch={batch_rows}");
    }
}

/// Whatever share of the work storage declines, or a store that is down,
/// the filtered join gives the same rows: a page that comes back raw
/// holds every record, and the probe sorts them out. In the quota case
/// the stores' NDP workers are held until a job has been refused, so the
/// first job of a batch is still queued when the next one asks, on every
/// run.
#[test]
fn degraded_service_gives_the_same_rows() {
    let _serial = serial();
    type Degrade = fn(&taurus::pagestore::PageStore, usize, bool);
    let degradations: [(&str, Degrade); 5] = [
        ("every 3rd page skipped", |ps, _, on| {
            ps.set_skip_policy(if on {
                SkipPolicy::EveryNth(3)
            } else {
                SkipPolicy::None
            })
        }),
        ("every page skipped", |ps, _, on| {
            ps.set_skip_policy(if on {
                SkipPolicy::All
            } else {
                SkipPolicy::None
            })
        }),
        ("forced shed", |ps, _, on| ps.set_force_shed(on)),
        ("tenant quota of one job", |ps, _, on| {
            ps.set_ndp_tenant_quota(on as usize)
        }),
        ("store 0 poisoned", |ps, i, on| {
            if i == 0 {
                ps.set_fault(if on {
                    FaultPolicy::Poison
                } else {
                    FaultPolicy::None
                })
            }
        }),
    ];
    let db = join_db(16, 7);
    for (what, degrade) in degradations {
        for (i, ps) in db.sal().page_stores().iter().enumerate() {
            degrade(ps, i, true);
        }
        for join in [JoinType::Inner, JoinType::Semi] {
            let plan = with_decisions(&db, join_plan(1, tag_below(1), join));
            db.buffer_pool().clear();
            let before = db.metrics().snapshot();
            let run = || Session::new(&db).with_tenant(7).execute_plan(&plan);
            let got = match what.contains("quota") {
                false => run(),
                true => std::thread::scope(|s| {
                    let stores = db.sal().page_stores();
                    let held: Vec<_> = stores.iter().map(|ps| ps.hold_ndp_workers()).collect();
                    let query = s.spawn(run);
                    let start = Instant::now();
                    while delta(&db, &before).ps_ndp_quota_rejected == 0
                        && !query.is_finished()
                        && start.elapsed() < Duration::from_secs(20)
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    drop(held);
                    query.join().unwrap()
                }),
            }
            .unwrap();
            let d = delta(&db, &before);
            assert_eq!(got, expected(1, 1, join), "{what} {join:?}");
            assert_eq!(d.join_filters_sent, 1, "{what}: {d:?}");
            if what.contains("poisoned") {
                assert!(d.read_retries > 0, "{what}: nothing failed over: {d:?}");
            } else {
                assert!(
                    d.ps_ndp_skipped + d.ps_ndp_shed > 0,
                    "{what}: nothing was degraded: {d:?}"
                );
                assert!(d.ndp_completed_on_compute > 0, "{what}: {d:?}");
            }
        }
        for (i, ps) in db.sal().page_stores().iter().enumerate() {
            degrade(ps, i, false);
        }
    }
}

// --- a writer racing the probe scan ------------------------------------------------

const RACE_ROWS: i64 = 2000;
const RACE_KEYS: i64 = 400;
const RACE_ROUNDS: usize = 6;

fn race_row(id: i64, fk: i64, v: i64) -> Row {
    vec![
        Value::Int(id),
        Value::Int(fk),
        Value::Int(v),
        Value::str("x".repeat(100)),
    ]
}

/// A writer rewrites the join column of `li` in place while the filtered
/// join loops; each round runs under one read view, and so does its
/// serial twin, the same join unfiltered: their rows are equal.
///
/// This is the test of where the filter sits in the Page Store's record
/// loop. A record a transaction newer than the view's watermark updated
/// is ambiguous: its bytes hold the new key, the view sees the old one.
/// The filter judges only records past the watermark check; ambiguous
/// ones go back whole and the SQL node rebuilds the version the view
/// sees. Tested before the watermark, the new key decides, and a row
/// whose visible key is a build key is lost when its new one is not.
#[test]
fn a_writer_rewriting_the_join_column_changes_nothing() {
    let _serial = serial();
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.buffer_pool_pages = 16;
    cfg.scan_batch_rows = 1024;
    cfg.pagestore_versions_retained = 256;
    let db = TaurusDb::new(cfg);
    let li = db
        .create_table(
            TableSchema::new(
                "li",
                vec![
                    Column::new("id", DataType::BigInt),
                    Column::new("fk", DataType::Int),
                    Column::new("v", DataType::BigInt),
                    Column::new("pad", DataType::Varchar(120)),
                ],
                vec![0],
            ),
            &[],
        )
        .unwrap();
    db.bulk_load(
        &li,
        (0..RACE_ROWS)
            .map(|id| race_row(id, id % RACE_KEYS, 0))
            .collect(),
    )
    .unwrap();
    let ks = db
        .create_table(
            TableSchema::new(
                "ks",
                vec![
                    Column::new("k", DataType::BigInt),
                    Column::new("tag", DataType::Int),
                ],
                vec![0],
            ),
            &[],
        )
        .unwrap();
    db.bulk_load(
        &ks,
        (0..RACE_KEYS)
            .map(|k| vec![Value::Int(k), Value::Int(k % 10)])
            .collect(),
    )
    .unwrap();
    let filtered = with_decisions(
        &db,
        Plan::HashJoin(HashJoinNode {
            left: Box::new(Plan::Scan(ScanNode::new("li", vec![0, 1, 2]))),
            right: Box::new(Plan::Scan(
                ScanNode::new("ks", vec![0, 1])
                    .with_predicate(vec![Expr::eq(Expr::col(1), Expr::int(0))]),
            )),
            left_keys: vec![1],
            right_keys: vec![0],
            join: JoinType::Inner,
            filter: None,
        }),
    );
    assert!(decided(&filtered));
    let twin = without_filter(&filtered);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let (db, li, stop) = (db.clone(), li.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut below = move |n: i64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as i64
            };
            let mut commits = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let trx = db.begin();
                for _ in 0..8 {
                    let row = race_row(below(RACE_ROWS), below(RACE_KEYS), below(1000));
                    db.update_row(&li, trx, &row).unwrap();
                }
                db.commit(trx);
                commits += 1;
            }
            commits
        })
    };

    let before = db.metrics().snapshot();
    let mut rows_seen = 0;
    for round in 0..RACE_ROUNDS {
        let session = Session::new(&db);
        // Let the writer commit past this view before the scan starts.
        std::thread::sleep(Duration::from_millis(20));
        let got = session.execute_plan(&filtered).unwrap();
        let want = session.execute_plan(&twin).unwrap();
        assert_eq!(got.len(), want.len(), "round {round}");
        assert_eq!(got, want, "round {round}");
        rows_seen += got.len();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let commits = writer.join().unwrap();
    let d = delta(&db, &before);
    // The race was on: the writer committed throughout, and every
    // filtered round sent its filter and had records dropped by it.
    assert!(commits > 50, "{commits} commits");
    assert!(rows_seen > 0);
    assert_eq!(d.join_filters_sent, RACE_ROUNDS as u64, "{d:?}");
    assert!(d.ps_records_join_filtered > 0, "{d:?}");
}

// --- the TPC-H statements ------------------------------------------------------------

const SF: f64 = 0.002;

/// The statements whose probe scans of `lineitem`, `orders` or
/// `partsupp` get a join filter decision, and one whose build holds every
/// key of its table (no decision). A filtered dimension joins next to the
/// table it keys on: Q7's nation pair filters each `nation` scan, so
/// `lineitem` and `orders` probe filtered builds, and Q2's `nation ⋈
/// region('EUROPE')` moves onto `supplier`, so both `partsupp` scans
/// probe one. Each sends a filter: at this scale Q8's `part` build keeps
/// no row, so its `lineitem` scan never starts, but its `orders` scan
/// probes `customer ⋈ (nation ⋈ region('AMERICA'))`.
const DECIDED: [&str; 7] = ["Q2", "Q3", "Q7", "Q8", "Q9", "Q10", "Q21"];
const UNDECIDED: [&str; 1] = ["Q12"];

fn statements_equal_ndp_off(batch_rows: usize) {
    let _serial = serial();
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = 70;
    cfg.scan_batch_rows = batch_rows;
    cfg.ndp.enabled = true;
    cfg.ndp.min_io_pages = 8;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, SF, 42).unwrap();
    for (name, text) in taurus::sql::tpch_sql::all() {
        db.buffer_pool().clear();
        let explained = Session::new(&db).sql(&format!("explain {text}")).unwrap();
        let decided = explained
            .iter()
            .any(|r| r[0].to_string().contains("[join filter -> "));
        let mut rows = Vec::new();
        let mut sent = 0;
        for ndp in [false, true] {
            db.buffer_pool().clear();
            let before = db.metrics().snapshot();
            rows.push(Session::new(&db).with_ndp(ndp).sql(text).unwrap());
            let d = delta(&db, &before);
            // With no writer, every record the Page Stores judge is
            // visible: none comes back ambiguous.
            assert_eq!(d.ambiguous_records, 0, "{name}");
            if ndp {
                sent = d.join_filters_sent;
                assert_eq!(sent > 0, d.ps_records_join_filtered > 0, "{name}: {d:?}");
            } else {
                assert_eq!(d.join_filters_sent, 0, "{name}");
            }
        }
        assert_eq!(rows[0], rows[1], "{name} batch={batch_rows}");
        assert_eq!(decided, DECIDED.contains(&name), "{name}: {explained:?}");
        assert!(!(decided && UNDECIDED.contains(&name)));
        assert_eq!(sent > 0, decided, "{name}");
    }
}

#[test]
fn tpch_statements_with_join_filters_equal_ndp_off_batch_1() {
    statements_equal_ndp_off(1);
}

#[test]
fn tpch_statements_with_join_filters_equal_ndp_off_batch_7() {
    statements_equal_ndp_off(7);
}

#[test]
fn tpch_statements_with_join_filters_equal_ndp_off_batch_1024() {
    statements_equal_ndp_off(1024);
}
