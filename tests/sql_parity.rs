//! SQL frontend acceptance (PR 10): every TPC-H query expressed as SQL
//! text produces results **byte-equal** to the hand-built registry plan
//! it shadows, with NDP off and on, and malformed SQL fails closed with a positioned
//! `Error::Parse` before any operator opens. The §VII-A micro-benchmark's
//! COUNT(*) scans are held to their registry plans the same way.

use std::sync::{Arc, OnceLock};

use taurus::common::config::ClusterConfig;
use taurus::common::schema::Row;
use taurus::common::{Error, Value};
use taurus::ndp::TaurusDb;
use taurus::prelude::Session;
use taurus::sql::SessionSqlExt;
use taurus::tpch;

const SF: f64 = 0.01;

fn row_db() -> &'static Arc<TaurusDb> {
    static DB: OnceLock<Arc<TaurusDb>> = OnceLock::new();
    DB.get_or_init(|| {
        let mut cfg = ClusterConfig::default();
        cfg.ndp.enabled = true;
        cfg.ndp.min_io_pages = 8;
        let db = TaurusDb::new(cfg);
        tpch::load(&db, SF, 7).unwrap();
        db
    })
}

/// Render rows exactly (Display is total for Value).
fn fmt_rows(rows: &[Row]) -> String {
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
        .collect::<Vec<_>>()
        .join("\n")
}

/// The registry's main-stage plan result for one query, under one NDP
/// setting (plans are built pre-optimization inside `qN_plan`, which
/// runs `ndp_post_process` itself; with NDP disabled in the catalog the
/// decisions all come back "don't push", so the same entry point serves
/// both settings).
fn registry_rows(db: &Arc<TaurusDb>, name: &str) -> Vec<Row> {
    let q = tpch::tpch_queries()
        .into_iter()
        .chain(tpch::micro_queries())
        .find(|q| q.name == name)
        .unwrap();
    let plan = (q.plan)(db, None).unwrap();
    taurus::executor::execute(&plan, &taurus::executor::ExecContext::new(db)).unwrap()
}

/// The micro-benchmark's Q0 and Q001 as SQL text: both aggregate during
/// a lineitem scan, as their registry plans do.
const MICRO: [(&str, &str); 2] = [
    ("Q0", "select count(*) from lineitem"),
    (
        "Q001",
        "select count(*) from lineitem where l_shipdate < date '1998-07-01'",
    ),
];

fn check_all(db: &'static Arc<TaurusDb>, ndp: bool) {
    for (name, text) in taurus::sql::tpch_sql::all().into_iter().chain(MICRO) {
        let mut session = Session::new(db);
        session.set_ndp(ndp);
        let got = session
            .sql(text)
            .unwrap_or_else(|e| panic!("{name} failed to run via SQL: {e}"));
        let want = registry_rows(db, name);
        assert_eq!(
            fmt_rows(&got),
            fmt_rows(&want),
            "{name}: SQL result differs from the registry plan (ndp={ndp})"
        );
    }
}

#[test]
fn tpch_sql_matches_registry_row_layout() {
    check_all(row_db(), false);
    check_all(row_db(), true);
}

#[test]
fn explain_produces_plan_text() {
    let session = Session::new(row_db());
    let rows = session
        .sql("explain select count(*) from lineitem")
        .unwrap();
    assert!(!rows.is_empty());
    let text = rows
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Scan") || text.contains("Agg"), "{text}");
}

#[test]
fn malformed_sql_fails_closed_in_process() {
    let session = Session::new(row_db());
    for text in [
        "",
        "selec * from lineitem",
        "select from lineitem",
        "select * frm lineitem",
        "select * from lineitem where",
        "select count(* from lineitem",
        "select * from no_such_table",
        "select no_such_col from lineitem",
        "select l_orderkey from lineitem order by nope",
        "select 'str' + 1 from lineitem",
    ] {
        match session.sql(text) {
            Err(Error::Parse(msg)) => {
                assert!(
                    msg.starts_with("line "),
                    "diagnostic not positioned for {text:?}: {msg}"
                );
            }
            Err(other) => panic!("{text:?}: expected Error::Parse, got {other:?}"),
            Ok(_) => panic!("{text:?}: malformed SQL executed successfully"),
        }
    }
}
