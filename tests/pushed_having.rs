//! A HAVING pushed to the Page Stores, end to end.
//!
//! Q18's derived table groups `lineitem` by `l_orderkey` in index order,
//! and its HAVING goes with the aggregation: a Page Store drops the
//! groups complete on a page that fail it. What must hold: the rows are
//! the NDP-off rows byte for byte, in process and over the wire, for a
//! HAVING that keeps nothing (Q18's own) and one that keeps groups; the
//! drop count is exact, the same on every run; and a writer rewriting the
//! aggregated column in place under the scan changes nothing a read view
//! can see, because a group an ambiguous record carries is never judged
//! at the Page Store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use taurus::prelude::*;

/// Q18 with its HAVING's threshold.
fn q18(threshold: i64) -> String {
    let q18 = taurus::sql::tpch_sql::all()
        .into_iter()
        .find(|(name, _)| *name == "Q18")
        .unwrap()
        .1;
    let having = "having sum(l_quantity) > 300";
    assert!(q18.contains(having));
    q18.replace(having, &format!("having sum(l_quantity) > {threshold}"))
}

/// The rows of `text` in process, NDP off and on, and over the wire with
/// NDP on, each from a cold pool: all equal. Returns them, and the
/// groups the Page Stores dropped for the in-process NDP-on run.
fn equal_on_off_and_over_the_wire(db: &Arc<TaurusDb>, addr: &str, text: &str) -> (Vec<Row>, u64) {
    db.buffer_pool().clear();
    let off = Session::new(db).with_ndp(false).sql(text).unwrap();
    db.buffer_pool().clear();
    let before = db.metrics().snapshot();
    let on = Session::new(db).with_ndp(true).sql(text).unwrap();
    let dropped = db
        .metrics()
        .snapshot()
        .since(&before)
        .ps_groups_dropped_by_having;
    db.buffer_pool().clear();
    let wire = Client::connect(addr)
        .unwrap()
        .query_sql(text, true)
        .unwrap();
    assert_eq!(on, off, "NDP on differs from NDP off");
    assert_eq!(wire.rows, off, "NDP on over the wire differs from NDP off");
    (off, dropped)
}

#[test]
fn q18_keeps_its_rows_with_the_having_in_the_page_stores() {
    let mut cfg = ClusterConfig::default();
    cfg.server.listen_addr = "127.0.0.1:0".into();
    cfg.buffer_pool_pages = 175;
    cfg.ndp.min_io_pages = 16;
    // Every page processed, so the drop count is the same on every run
    // (the skip policy counts pages from the store's start).
    cfg.fault.skip_every_nth = 0;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.005, 42).unwrap();
    let handle = Server::start(&db, Vec::new(), tpch_registry()).unwrap();
    let addr = handle.local_addr().to_string();

    let explain = Session::new(&db)
        .sql(&format!("explain {}", q18(300)))
        .unwrap()
        .iter()
        .map(|l| format!("{}\n", l[0]))
        .collect::<String>();
    assert!(explain.contains("Using pushed NDP having"), "{explain}");
    assert!(explain.contains("[lineitem] "), "{explain}");
    assert!(explain.contains(", having=true"), "{explain}");
    assert!(explain.contains("[orders] "), "{explain}");
    assert!(explain.contains(", having=false"), "{explain}");

    // Q18's own HAVING keeps no group at this scale; a lower one keeps 33.
    let (rows, dropped) = equal_on_off_and_over_the_wire(&db, &addr, &q18(300));
    assert!(rows.is_empty());
    assert!(dropped > 5_000, "{dropped} groups dropped");
    let (rows, dropped_250) = equal_on_off_and_over_the_wire(&db, &addr, &q18(250));
    assert_eq!(rows.len(), 33);
    assert!(
        dropped_250 > 5_000 && dropped_250 < dropped,
        "{dropped_250}"
    );
    // The count is exact: the same groups drop on every run.
    let (_, again) = equal_on_off_and_over_the_wire(&db, &addr, &q18(300));
    assert_eq!(again, dropped);
}

// --- a writer racing the aggregating scan --------------------------------------

const ORDERS: i64 = 600;
const LINES: i64 = 4;
const ROUNDS: usize = 6;
const TEXT: &str = "select ok, sum(qty) as s from li group by ok having sum(qty) > 40 order by ok";

fn li_row(ok: i64, line: i64, qty: i64) -> Row {
    vec![
        Value::Int(ok),
        Value::Int(line),
        Value::Int(qty),
        Value::str("x".repeat(100)),
    ]
}

/// A writer rewrites `qty` in place, a few lines a transaction, while the
/// grouped scan with the pushed HAVING loops; each round runs under one
/// read view with NDP on and then off: their rows are equal.
///
/// This is the test of the ambiguous-record rule. A line a transaction
/// newer than the view's watermark rewrote is ambiguous: its bytes hold
/// the new quantity, the view sees the old one, and the Page Store sends
/// it back whole. Its group's partial then lacks that line, so judging
/// the group there could drop one whose visible sum passes.
#[test]
fn a_writer_rewriting_the_summed_column_changes_nothing() {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.buffer_pool_pages = 16;
    cfg.pagestore_versions_retained = 256;
    let db = TaurusDb::new(cfg);
    let li = db
        .create_table(
            TableSchema::new(
                "li",
                vec![
                    Column::new("ok", DataType::BigInt),
                    Column::new("line", DataType::Int),
                    Column::new("qty", DataType::BigInt),
                    Column::new("pad", DataType::Varchar(120)),
                ],
                vec![0, 1],
            ),
            &[],
        )
        .unwrap();
    let rows = (0..ORDERS)
        .flat_map(|ok| (0..LINES).map(move |line| li_row(ok, line, (ok * 7 + line * 3) % 21)))
        .collect();
    db.bulk_load(&li, rows).unwrap();
    let explain = Session::new(&db).sql(&format!("explain {TEXT}")).unwrap();
    assert!(
        explain
            .iter()
            .any(|l| l[0].to_string().contains("Using pushed NDP having")),
        "{explain:?}"
    );

    let stop = Arc::new(AtomicBool::new(false));
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
            while !stop.load(Ordering::Relaxed) {
                let trx = db.begin();
                for _ in 0..4 {
                    let row = li_row(below(ORDERS), below(LINES), below(30));
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
    for round in 0..ROUNDS {
        let mut session = Session::new(&db);
        // Let the writer commit past this view before the scan starts.
        std::thread::sleep(Duration::from_millis(20));
        session.set_ndp(true);
        let got = session.sql(TEXT).unwrap();
        session.set_ndp(false);
        let want = session.sql(TEXT).unwrap();
        assert_eq!(got, want, "round {round}");
        rows_seen += got.len();
    }
    stop.store(true, Ordering::Relaxed);
    let commits = writer.join().unwrap();
    let d = db.metrics().snapshot().since(&before);
    // The race was on: the writer committed throughout, and the Page
    // Stores still dropped groups.
    assert!(commits > 50, "{commits} commits");
    assert!(rows_seen > 0);
    assert!(d.ps_groups_dropped_by_having > 0, "{d:?}");
}
