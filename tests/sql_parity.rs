//! SQL frontend acceptance (PR 10): every TPC-H query expressed as SQL
//! text produces results **byte-equal** to the hand-built registry plan
//! it shadows, with NDP off and on, and malformed SQL fails closed with a positioned
//! `Error::Parse` before any operator opens. The §VII-A micro-benchmark's
//! COUNT(*) scans are held to their registry plans the same way.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use taurus::common::config::ClusterConfig;
use taurus::common::schema::{Column, Row, TableSchema};
use taurus::common::{DataType, Dec, Error, Value};
use taurus::ndp::TaurusDb;
use taurus::optimizer::plan::Plan;
use taurus::pagestore::SkipPolicy;
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

/// A correlated NOT EXISTS whose residual reads both scopes (the probed
/// line's price against the outer order's total) returns the same rows
/// with NDP off and on, and EXISTS and NOT EXISTS split the orders.
#[test]
fn exists_residual_over_both_scopes_matches_with_and_without_ndp() {
    let sql = |not: &str| {
        format!(
            "select o_orderkey from orders where {not} exists (select * from lineitem \
             where l_orderkey = o_orderkey and l_extendedprice * 4 > o_totalprice) \
             order by o_orderkey"
        )
    };
    let run = |sql: &str, ndp: bool| {
        let mut session = Session::new(row_db());
        session.set_ndp(ndp);
        session.sql(sql).unwrap()
    };
    let mut split = 0;
    for not in ["not", ""] {
        let off = run(&sql(not), false);
        assert!(!off.is_empty(), "{not} exists");
        assert_eq!(
            fmt_rows(&off),
            fmt_rows(&run(&sql(not), true)),
            "{not} exists"
        );
        split += off.len();
    }
    let orders = run("select count(*) from orders", false);
    assert_eq!(fmt_rows(&orders), split.to_string());
}

/// Two shapes whose `orders` predicate columns are in no scan output,
/// each with the number of its conjuncts that stay residual with NDP on:
/// Q13's LEFT JOIN, which tests `o_comment` in its ON, and a scan with a
/// pushed conjunct and a residual one, neither column selected.
const NARROWED: [(&str, usize); 2] = [
    (
        "select c_custkey, count(o_orderkey) from customer \
         left join orders on c_custkey = o_custkey \
           and o_comment not like '%special%requests%' \
         group by c_custkey order by c_custkey",
        0,
    ),
    (
        "select o_orderkey, o_custkey from orders \
         where o_totalprice > 50000 \
           and case when o_comment like '%special%' then 1 else 0 end = 0 \
         order by o_orderkey",
        1,
    ),
];

/// Rows with NDP off and on under one read view, after checking that
/// with NDP on the `orders` scan pushes a conjunct, keeps `residual`
/// ones, and has no column its predicate reads in its output.
fn off_and_on(session: &mut Session, (text, residual): (&str, usize)) -> (Vec<Row>, Vec<Row>) {
    let taurus::sql::Statement::Select(select) = taurus::sql::parse(text).unwrap() else {
        panic!("{text}")
    };
    session.set_ndp(true);
    let plan = taurus::sql::bind(session, &select).unwrap();
    let mut orders = 0;
    plan.for_each_scan(&mut |s, _| {
        if s.table == "orders" {
            orders += 1;
            let d = s.ndp.as_ref().expect("the orders scan is NDP");
            assert!(!d.pushed.is_empty(), "{s:?}");
            assert_eq!(s.residual_conjuncts().len(), residual, "{s:?}");
            for p in &s.predicate {
                for c in p.columns() {
                    assert!(!s.output.contains(&c), "{s:?}");
                }
            }
        }
    });
    assert_eq!(orders, 1, "{plan:?}");
    let on = session.execute_plan(&plan).unwrap();
    session.set_ndp(false);
    let off = session.sql(text).unwrap();
    (off, on)
}

/// The narrowed scans meet every way a Page Store serves a page: NDP
/// off (raw pages), NDP on, every third page skipped (shipped raw), and
/// a writer rewriting `o_comment` in place under the scan (its records
/// come back ambiguous, and the SQL node runs the residual on the
/// version the view sees). The rows are equal in every case.
#[test]
fn narrowed_scans_match_under_every_serving_outcome() {
    let mut cfg = ClusterConfig::default();
    cfg.ndp.enabled = true;
    cfg.ndp.min_io_pages = 1;
    cfg.buffer_pool_pages = 16;
    cfg.pagestore_versions_retained = 256;
    let db = TaurusDb::new(cfg);
    tpch::load(&db, 0.002, 7).unwrap();
    let stores = db.sal().page_stores();
    let mut session = Session::new(&db);
    for shape @ (text, _) in NARROWED {
        let (off, on) = off_and_on(&mut session, shape);
        assert!(!off.is_empty(), "{text}");
        assert_eq!(fmt_rows(&off), fmt_rows(&on), "NDP on: {text}");
        for ps in stores.iter() {
            ps.set_skip_policy(SkipPolicy::EveryNth(3));
        }
        let before = db.metrics().snapshot();
        let (_, skipped) = off_and_on(&mut session, shape);
        assert!(db.metrics().snapshot().ps_ndp_skipped > before.ps_ndp_skipped);
        for ps in stores.iter() {
            ps.set_skip_policy(SkipPolicy::None);
        }
        assert_eq!(
            fmt_rows(&off),
            fmt_rows(&skipped),
            "every 3rd skipped: {text}"
        );
    }

    let orders = db.table("orders").unwrap();
    let comment = orders.schema.col_index("o_comment").unwrap();
    let keys: Vec<Value> = session
        .sql("select o_orderkey from orders")
        .unwrap()
        .into_iter()
        .map(|r| r[0].clone())
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (db, orders, stop) = (db.clone(), orders.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let trx = db.begin();
                for _ in 0..8 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key = (state % keys.len() as u64) as usize;
                    let view = db.read_view(trx);
                    let mut row = db
                        .lookup_row(&orders, &view, &keys[key..=key])
                        .unwrap()
                        .unwrap();
                    // Same length, so the record is rewritten in place;
                    // a comment flips in and out of both predicates.
                    let old = row[comment].as_str().unwrap().to_string();
                    let new = match old.contains("special") {
                        true => "x".repeat(old.len()),
                        false => format!("{:x<1$}", "special requests", old.len()),
                    };
                    row[comment] = Value::str(&new[..old.len()]);
                    db.update_row(&orders, trx, &row).unwrap();
                }
                db.commit(trx);
                commits += 1;
            }
            commits
        })
    };
    let before = db.metrics().snapshot();
    for round in 0..4 {
        let mut session = Session::new(&db);
        // Let the writer commit past this view before the scans start.
        std::thread::sleep(Duration::from_millis(20));
        for shape @ (text, _) in NARROWED {
            let (off, on) = off_and_on(&mut session, shape);
            assert_eq!(fmt_rows(&off), fmt_rows(&on), "round {round}: {text}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    let commits = writer.join().unwrap();
    // The race was on: the writer committed throughout, and the Page
    // Stores served NDP pages under it, some records on them ambiguous.
    assert!(commits > 10, "{commits} commits");
    let d = db.metrics().snapshot().since(&before);
    assert!(d.pages_shipped_ndp > 0, "{d:?}");
    assert!(d.ambiguous_records > 0, "{d:?}");
}

// --- implied single-atom predicates ------------------------------------------

const T1_ROWS: i64 = 1500;
const T2_ROWS: i64 = 3000;
const T3_ROWS: i64 = 1000;

/// `t1(id, g, a)`, `a` NULL in every 7th row; `t2(id, t1id, b)`, `b`
/// NULL in every 5th; `t3(id, t2id, c)`, at most one a `t2` row, `c` NULL
/// in every 3rd. Each has a pad, so the tables span pages.
fn t1_row(id: i64) -> (i64, Option<i64>) {
    (id / 2, (id % 7 != 0).then_some(id % 11))
}
fn t2_row(id: i64) -> (i64, Option<i64>) {
    ((id * 7) % T1_ROWS, (id % 5 != 0).then_some(id % 4))
}
fn t3_row(id: i64) -> (i64, Option<i64>) {
    ((id * 3) % T2_ROWS, (id % 3 != 0).then_some(id % 6))
}

fn nullable_db(batch_rows: usize) -> Arc<TaurusDb> {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.enabled = true;
    cfg.scan_batch_rows = batch_rows;
    let db = TaurusDb::new(cfg);
    let tables: [(&str, [&str; 2], i64, fn(i64) -> (i64, Option<i64>)); 3] = [
        ("t1", ["g", "a"], T1_ROWS, t1_row),
        ("t2", ["t1id", "b"], T2_ROWS, t2_row),
        ("t3", ["t2id", "c"], T3_ROWS, t3_row),
    ];
    for (name, [fk, nullable], rows, row) in tables {
        let schema = TableSchema::new(
            name,
            vec![
                Column::new("id", DataType::BigInt),
                Column::new(fk, DataType::BigInt),
                Column::nullable(nullable, DataType::Int),
                Column::new("pad", DataType::Varchar(30)),
            ],
            vec![0],
        );
        let t = db.create_table(schema, &[]).unwrap();
        let rows = (0..rows).map(|id| {
            let (fk, v) = row(id);
            vec![
                Value::Int(id),
                Value::Int(fk),
                v.map_or(Value::Null, Value::Int),
                Value::str("p".repeat(24)),
            ]
        });
        db.bulk_load(&t, rows.collect()).unwrap();
    }
    db
}

/// An OR over `t1`, `t2` and the LEFT-joined `t3`, with `IS NULL` in its
/// disjuncts. Every disjunct reads each atom; pushed below the LEFT JOIN,
/// `t3`'s implied predicate would turn a `t3` row it drops into a NULL
/// row that the second and third disjuncts keep.
const IMPLIED_OR: &str = "(t1.a is null and t2.b = 2 and t3.c = 4) \
     or (t1.a = 2 and t2.b is null and t3.c is null) \
     or (t1.a > 8 and t3.id is null and t2.b = 3)";

fn implied_sql(cond: &str) -> String {
    format!(
        "select t1.id, t2.id, t3.id from t1 join t2 on t1.id = t2.t1id \
         left join t3 on t2.id = t3.t2id where {cond} order by t1.id, t2.id"
    )
}

/// What `implied_sql(IMPLIED_OR)` means, worked out from the generators
/// in three-valued logic: a comparison with NULL is never TRUE.
fn implied_expected() -> Vec<Row> {
    let t3_of: std::collections::HashMap<i64, (i64, Option<i64>)> = (0..T3_ROWS)
        .map(|id| {
            let (t2id, c) = t3_row(id);
            (t2id, (id, c))
        })
        .collect();
    let mut out = Vec::new();
    for t2 in 0..T2_ROWS {
        let (t1, b) = t2_row(t2);
        let (_, a) = t1_row(t1);
        let (t3, c) = match t3_of.get(&t2) {
            Some(&(id, c)) => (Some(id), c),
            None => (None, None),
        };
        let keep = (a.is_none() && b == Some(2) && c == Some(4))
            || (a == Some(2) && b.is_none() && c.is_none())
            || (a.is_some_and(|a| a > 8) && t3.is_none() && b == Some(3));
        if keep {
            out.push((t1, t2, t3));
        }
    }
    out.sort();
    out.into_iter()
        .map(|(t1, t2, t3)| {
            vec![
                Value::Int(t1),
                Value::Int(t2),
                t3.map_or(Value::Null, Value::Int),
            ]
        })
        .collect()
}

/// A residual OR implies a predicate on each inner-joined atom every
/// disjunct reads (`t1`, `t2`), none on the LEFT JOIN's null-producing
/// side (`t3`), and the rows stay those of the OR alone: NDP off = on,
/// in every batch size, = the same condition written as a CASE (no
/// implied predicate) = the generators.
#[test]
fn implied_predicates_keep_null_semantics() {
    let want = fmt_rows(&implied_expected());
    assert!(want.lines().count() > 100, "{want}");
    for batch_rows in [1, 7, 1024] {
        let db = nullable_db(batch_rows);
        let mut session = Session::new(&db);
        let or_sql = implied_sql(IMPLIED_OR);
        let case_sql = implied_sql(&format!("case when {IMPLIED_OR} then 1 else 0 end = 1"));
        let scan_preds = |sql: &str| {
            let taurus::sql::Statement::Select(s) = taurus::sql::parse(sql).unwrap() else {
                panic!("{sql}")
            };
            let plan = taurus::sql::bind(&session, &s).unwrap();
            let mut preds = Vec::new();
            plan.for_each_scan(&mut |s, _| preds.push((s.table.clone(), s.predicate.len())));
            preds
        };
        let implied = [
            ("t1".to_string(), 1),
            ("t2".to_string(), 1),
            ("t3".to_string(), 0),
        ];
        assert_eq!(scan_preds(&or_sql), implied);
        assert!(scan_preds(&case_sql).iter().all(|(_, n)| *n == 0));
        for ndp in [false, true] {
            session.set_ndp(ndp);
            for sql in [&or_sql, &case_sql] {
                let got = fmt_rows(&session.sql(sql).unwrap());
                assert_eq!(got, want, "batch {batch_rows}, ndp {ndp}: {sql}");
            }
        }
    }
}

/// A GROUP BY key past the hash key encoding's `u16` string length is a
/// typed error, with NDP off and on, instead of a wrapped length that
/// collides with another group.
#[test]
fn a_group_key_past_its_encoding_is_a_typed_error() {
    let long = "a".repeat(70_000);
    for ndp in [false, true] {
        let mut session = Session::new(row_db());
        session.set_ndp(ndp);
        let sql = format!("select '{long}' as k, count(*) from nation group by k");
        match session.sql(&sql) {
            Err(Error::InvalidState(m)) => assert!(m.contains("u16"), "{m}"),
            other => panic!("ndp {ndp}: {:?}", other.map(|rows| rows.len())),
        }
        let short = session
            .sql("select 'a' as k, count(*) from nation group by k")
            .unwrap();
        assert_eq!(fmt_rows(&short), "a|25");
    }
}

/// `m(g, id, i, d, f, pad)` keyed on (g, id): ten rows a group, `i` an
/// INT, `d` a DECIMAL(12, 2) and `f` a DOUBLE, each NULL in some rows and
/// all three NULL in every row of group 5.
const M_ROWS: i64 = 2000;

fn m_row(id: i64) -> (i64, Option<i64>, Option<i128>, Option<f64>) {
    let g = id / 10;
    let all_null = g == 5;
    let i = (!all_null && id % 3 != 0).then_some(g % 30 + id % 10);
    let d = (!all_null && id % 4 != 0).then_some(((id * 37) % 1000 + g * 100) as i128);
    let f = (!all_null && id % 5 != 0).then_some((id % 13) as f64 * 0.25);
    (g, i, d, f)
}

fn avg_db(batch_rows: usize) -> Arc<TaurusDb> {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.enabled = true;
    cfg.scan_batch_rows = batch_rows;
    let db = TaurusDb::new(cfg);
    let schema = TableSchema::new(
        "m",
        vec![
            Column::new("g", DataType::BigInt),
            Column::new("id", DataType::BigInt),
            Column::nullable("i", DataType::Int),
            Column::nullable(
                "d",
                DataType::Decimal {
                    precision: 12,
                    scale: 2,
                },
            ),
            Column::nullable("f", DataType::Double),
            Column::new("pad", DataType::Varchar(30)),
        ],
        vec![0, 1],
    );
    let t = db.create_table(schema, &[]).unwrap();
    let rows = (0..M_ROWS).map(|id| {
        let (g, i, d, f) = m_row(id);
        vec![
            Value::Int(g),
            Value::Int(id),
            i.map_or(Value::Null, Value::Int),
            d.map_or(Value::Null, |raw| Value::Decimal(Dec::new(raw, 2))),
            f.map_or(Value::Null, Value::Double),
            Value::str("p".repeat(24)),
        ]
    });
    db.bulk_load(&t, rows.collect()).unwrap();
    db
}

/// The sums and counts of `i`, `d` and `f` over the generator rows of
/// each group (`None`: every row), as the averages they divide to: an
/// INT's and a DECIMAL's a decimal four digits finer, a DOUBLE's a
/// double, and NULL for a group with no value.
fn avg_oracle(group: Option<i64>) -> Vec<Value> {
    let (mut si, mut ni, mut sd, mut nd, mut sf, mut nf) = (0i64, 0i64, 0i128, 0i64, 0f64, 0i64);
    for id in 0..M_ROWS {
        let (g, i, d, f) = m_row(id);
        if group.is_some_and(|want| want != g) {
            continue;
        }
        if let Some(i) = i {
            (si, ni) = (si + i, ni + 1);
        }
        if let Some(d) = d {
            (sd, nd) = (sd + d, nd + 1);
        }
        if let Some(f) = f {
            (sf, nf) = (sf + f, nf + 1);
        }
    }
    let dec = |sum: Dec, n: i64| match n {
        0 => Value::Null,
        n => Value::Decimal(sum.div(Dec::from_int(n)).unwrap()),
    };
    vec![
        dec(Dec::from_int(si), ni),
        dec(Dec::new(sd, 2), nd),
        match nf {
            0 => Value::Null,
            n => Value::Double(sf / n as f64),
        },
    ]
}

/// AVG is its SUM over its COUNT from the binder down: a scalar AVG, a
/// grouped one whose all-NULL group gives NULL, an index-ordered GROUP BY
/// whose `having avg(i) > 20` goes to the Page Stores, and an ORDER BY
/// over an AVG, over INT, DECIMAL and DOUBLE columns with NULLs. NDP off
/// = on, in every batch size, = the sums and counts of the generator
/// rows.
#[test]
fn avg_is_sum_over_count_with_and_without_ndp() {
    const SCALAR: &str = "select avg(i), avg(d), avg(f) from m";
    const GROUPED: &str = "select g, avg(i), avg(d), avg(f) from m group by g order by g";
    const HAVING: &str =
        "select g, avg(i), avg(d), avg(f) from m group by g having avg(i) > 20 order by g";
    const ORDERED: &str =
        "select g, avg(i), avg(d), avg(f) from m group by g order by avg(f) desc, g limit 12";
    let groups: Vec<Row> = (0..M_ROWS / 10)
        .map(|g| {
            let mut row = vec![Value::Int(g)];
            row.extend(avg_oracle(Some(g)));
            row
        })
        .collect();
    let grouped = |keep: &dyn Fn(&[Value]) -> bool| {
        let rows: Vec<Row> = groups.iter().filter(|r| keep(r)).cloned().collect();
        fmt_rows(&rows)
    };
    let mut by_avg_f = groups.clone();
    by_avg_f.sort_by(|a, b| b[3].cmp_total(&a[3]).then(a[0].cmp_total(&b[0])));
    by_avg_f.truncate(12);
    let over_20 = |r: &[Value]| r[1].cmp_sql(&Value::Int(20)) == Some(std::cmp::Ordering::Greater);
    let want = [
        (SCALAR, fmt_rows(&[avg_oracle(None)])),
        (GROUPED, grouped(&|_| true)),
        (HAVING, grouped(&over_20)),
        (ORDERED, fmt_rows(&by_avg_f)),
    ];
    assert!(want[1].1.contains("5|NULL|NULL|NULL"), "{}", want[1].1);
    let kept = want[2].1.lines().count();
    assert!(kept > 10 && kept < 150, "{}", want[2].1);
    for batch_rows in [1, 7, 1024] {
        let db = avg_db(batch_rows);
        let mut session = Session::new(&db);
        let explain = |session: &Session, sql: &str| {
            let lines = session.sql(&format!("explain {sql}")).unwrap();
            lines
                .iter()
                .map(|l| format!("{}\n", l[0]))
                .collect::<String>()
        };
        db.buffer_pool().clear();
        let having = explain(&session, HAVING);
        assert!(
            having.contains("Using pushed NDP aggregate (index order)"),
            "{having}"
        );
        assert!(having.contains("Using pushed NDP having"), "{having}");
        for ndp in [false, true] {
            session.set_ndp(ndp);
            for (sql, want) in &want {
                db.buffer_pool().clear();
                let got = fmt_rows(&session.sql(sql).unwrap());
                assert_eq!(&got, want, "batch {batch_rows}, ndp {ndp}: {sql}");
            }
        }
    }
}

/// `COUNT(x)` of a NOT NULL column is `COUNT(*)`, except where a LEFT
/// JOIN pads the column with NULLs: `t2.t1id` counts every joined row,
/// `t3.t2id` only the `t2` rows that found a `t3` row. NDP off = on, in
/// every batch size, = the generators.
#[test]
fn count_of_a_not_null_column_is_count_star_off_a_left_join_s_null_side() {
    const SQL: &str = "select t2.b, count(t2.t1id), count(t3.t2id), count(*) from t2 \
         left join t3 on t2.id = t3.t2id group by t2.b order by t2.b";
    let matched: std::collections::HashSet<i64> = (0..T3_ROWS).map(|id| t3_row(id).0).collect();
    // Per `b` (NULL first): every t2 row once (a t2 row has at most one
    // t3 row), and those with a t3 row.
    let mut groups: std::collections::BTreeMap<Option<i64>, (i64, i64)> = Default::default();
    for t2 in 0..T2_ROWS {
        let g = groups.entry(t2_row(t2).1).or_default();
        g.0 += 1;
        g.1 += matched.contains(&t2) as i64;
    }
    let want: Vec<Row> = groups
        .into_iter()
        .map(|(b, (all, joined))| {
            let b = b.map_or(Value::Null, Value::Int);
            vec![b, Value::Int(all), Value::Int(joined), Value::Int(all)]
        })
        .collect();
    let want = fmt_rows(&want);
    assert!(want.lines().all(|l| {
        let cols: Vec<&str> = l.split('|').collect();
        cols[2] != cols[3]
    }));
    for batch_rows in [1, 7, 1024] {
        let db = nullable_db(batch_rows);
        let mut session = Session::new(&db);
        let taurus::sql::Statement::Select(s) = taurus::sql::parse(SQL).unwrap() else {
            panic!("{SQL}")
        };
        let plan = taurus::sql::bind(&session, &s).unwrap();
        let mut agg = &plan;
        let funcs = loop {
            agg = match agg {
                taurus::optimizer::plan::Plan::HashAgg(a) => {
                    break a.aggs.iter().map(|a| a.func).collect::<Vec<_>>()
                }
                taurus::optimizer::plan::Plan::Project(p) => &p.input,
                taurus::optimizer::plan::Plan::Sort(s) => &s.input,
                other => panic!("{other:?}"),
            };
        };
        use taurus::optimizer::plan::AggFunc;
        assert_eq!(funcs, [AggFunc::CountStar, AggFunc::Count], "{plan:?}");
        for ndp in [false, true] {
            session.set_ndp(ndp);
            db.buffer_pool().clear();
            let got = fmt_rows(&session.sql(SQL).unwrap());
            assert_eq!(got, want, "batch {batch_rows}, ndp {ndp}");
        }
    }
}

/// The one-table aggregations a `HashAgg` folds during its scan that
/// pulled a row scan before it did: a GROUP BY over an expression,
/// `COUNT(DISTINCT x)` with and without GROUP BY (its deduplicating
/// `HashAgg` folds the scan, grouped by the key itself when `x` is the
/// key's second column), and a GROUP BY of the index key, whose groups
/// come out in index order with no ORDER BY (an encoded key orders ids
/// 256-259 before 250-255). NDP off = on, in every batch size, = the
/// generator rows.
#[test]
fn single_table_aggregations_fold_their_scan() {
    const BY_EXPR: &str = "select g + 1, count(*), sum(d) from m group by g + 1 order by g + 1";
    const DISTINCT: &str = "select count(distinct i) from m";
    const DISTINCT_BY: &str = "select g, count(distinct i) from m group by g order by g";
    const DISTINCT_KEY: &str = "select g, count(distinct id) from m group by g order by g";
    const DISTINCT_PREFIX: &str = "select count(distinct g) from m";
    const BY_KEY: &str = "select g, id, count(*), sum(i) from m group by g, id";
    let rows: Vec<_> = (0..M_ROWS).map(|id| (id, m_row(id))).collect();
    let groups = M_ROWS / 10;
    let of_group = |g: i64| rows.iter().filter(move |(_, r)| r.0 == g);
    let distinct = |it: &mut dyn Iterator<Item = Option<i64>>| {
        let set: std::collections::BTreeSet<i64> = it.flatten().collect();
        Value::Int(set.len() as i64)
    };
    let by_expr: Vec<Row> = (0..groups)
        .map(|g| {
            let ds: Vec<i128> = of_group(g).filter_map(|(_, r)| r.2).collect();
            let sum = match ds.is_empty() {
                true => Value::Null,
                false => Value::Decimal(Dec::new(ds.iter().sum(), 2)),
            };
            vec![Value::Int(g + 1), Value::Int(10), sum]
        })
        .collect();
    let distinct_by: Vec<Row> = (0..groups)
        .map(|g| vec![Value::Int(g), distinct(&mut of_group(g).map(|(_, r)| r.1))])
        .collect();
    let distinct_key: Vec<Row> = (0..groups)
        .map(|g| vec![Value::Int(g), Value::Int(10)])
        .collect();
    let by_key: Vec<Row> = rows
        .iter()
        .map(|&(id, (g, i, _, _))| {
            let i = i.map_or(Value::Null, Value::Int);
            vec![Value::Int(g), Value::Int(id), Value::Int(1), i]
        })
        .collect();
    let want = [
        (BY_EXPR, fmt_rows(&by_expr)),
        (
            DISTINCT,
            fmt_rows(&[vec![distinct(&mut rows.iter().map(|(_, r)| r.1))]]),
        ),
        (DISTINCT_BY, fmt_rows(&distinct_by)),
        (DISTINCT_KEY, fmt_rows(&distinct_key)),
        (DISTINCT_PREFIX, fmt_rows(&[vec![Value::Int(groups)]])),
        (BY_KEY, fmt_rows(&by_key)),
    ];
    for batch_rows in [1, 7, 1024] {
        let db = avg_db(batch_rows);
        let mut session = Session::new(&db);
        for (sql, _) in &want {
            let taurus::sql::Statement::Select(s) = taurus::sql::parse(sql).unwrap() else {
                panic!("{sql}")
            };
            let mut folded = 0;
            let plan = taurus::sql::bind(&session, &s).unwrap();
            plan.for_each_scan(&mut |_, agg| folded += agg as usize);
            assert_eq!(folded, 1, "{sql}: {plan:?}");
        }
        // The deduplication by the key's first column goes to the Page
        // Stores, with no aggregate to fold.
        session.set_ndp(true);
        db.buffer_pool().clear();
        let explain = session.sql(&format!("explain {DISTINCT_PREFIX}")).unwrap();
        let explain: Vec<String> = explain.iter().map(|l| l[0].to_string()).collect();
        assert!(
            explain
                .iter()
                .any(|l| l.trim() == "Using pushed NDP aggregate (index order)"),
            "{explain:#?}"
        );
        for ndp in [false, true] {
            session.set_ndp(ndp);
            for (sql, want) in &want {
                db.buffer_pool().clear();
                let got = fmt_rows(&session.sql(sql).unwrap());
                assert_eq!(&got, want, "batch {batch_rows}, ndp {ndp}: {sql}");
            }
        }
    }
}

/// Is `v` a value of type `t`? A decimal must be at `t`'s scale.
fn has_type(v: &Value, t: DataType) -> bool {
    match (v, t) {
        (Value::Int(_), DataType::Int | DataType::BigInt) => true,
        (Value::Decimal(d), DataType::Decimal { scale, .. }) => d.scale == scale,
        (Value::Date(_), DataType::Date) => true,
        (Value::Str(_), DataType::Char(_) | DataType::Varchar(_)) => true,
        (Value::Double(_), DataType::Double) => true,
        _ => false,
    }
}

/// Every non-NULL value the 22 texts return, NDP off and on, has the
/// type the verifier infers for its column of the bound plan, decimal
/// scale included: what the operators' programs are typed by. At SF
/// 0.005 Q8 has a year with no Brazilian volume, whose SUM over a
/// decimal CASE folds only the integer 0 and must still finalize at
/// the CASE's scale.
#[test]
fn tpch_values_have_their_inferred_column_types() {
    let mut cfg = ClusterConfig::default();
    cfg.ndp.enabled = true;
    cfg.ndp.min_io_pages = 8;
    let db = TaurusDb::new(cfg);
    tpch::load(&db, 0.005, 7).unwrap();
    for ndp in [false, true] {
        let session = Session::new(&db).with_ndp(ndp);
        for (name, text) in taurus::sql::tpch_sql::all() {
            let Ok(taurus::sql::Statement::Select(select)) = taurus::sql::parse(text) else {
                panic!("{name} is a SELECT");
            };
            let plan = taurus::sql::bind(&session, &select).unwrap();
            let schema = taurus::verify::infer_plan(&plan, &db).schema.unwrap();
            for row in session.execute_plan(&plan).unwrap() {
                for (v, col) in row.iter().zip(&schema) {
                    assert!(
                        v.is_null() || has_type(v, col.dtype),
                        "{name} (ndp {ndp}): {v:?} in a {:?} column",
                        col.dtype
                    );
                }
            }
        }
    }
}

// --- folded scans key groups on field images -----------------------------------

/// `k(g, id, c, v, f, d, t, b, pad)` keyed on (g, id), ten rows a `g`.
/// Each value column is NULL in some rows: `c` a CHAR(4) holding values
/// with and without trailing blanks (its padding makes "a" and "a  " one
/// value) and `''`; `v` a VARCHAR(8) with trailing spaces ("x", "x ",
/// "x  ": three images of one value under SQL equality's PAD SPACE) and
/// `''`; `f` a DOUBLE with `0.0` and `-0.0` (two images of one value);
/// `d` a DECIMAL(10, 2), `t` a DATE and `b` a BIGINT.
const K_ROWS: i64 = 4000;

fn k_row(id: i64) -> Row {
    let g = id / 10;
    let c = [
        None,
        Some("a"),
        Some("a  "),
        Some(""),
        Some("ab"),
        Some("b "),
        Some("ab  "),
    ];
    let v = [
        None,
        Some("x"),
        Some("x "),
        Some(""),
        Some("x  "),
        Some("y"),
    ];
    let f = [None, Some(0.0), Some(-0.0), Some(1.5), Some(-2.25)];
    let str_or_null = |s: Option<&str>| s.map_or(Value::Null, Value::str);
    let d = match (id / 5) % 4 {
        0 => Value::Null,
        k => Value::Decimal(Dec::new(k as i128 * 125 - 200, 2)),
    };
    let t = match (id / 4) % 5 {
        0 => Value::Null,
        k => Value::Date(taurus::common::Date32(9000 + k as i32 * 31)),
    };
    let b = match id % 11 % 4 {
        0 => Value::Null,
        k => Value::Int(k * 1_000_000_007 - 2_000_000_000),
    };
    vec![
        Value::Int(g),
        Value::Int(id),
        str_or_null(c[(id % 7) as usize]),
        str_or_null(v[((id / 3) % 6) as usize]),
        f[((id / 2) % 5) as usize].map_or(Value::Null, Value::Double),
        d,
        t,
        b,
        Value::str("p".repeat(30)),
    ]
}

fn k_db(cfg: ClusterConfig) -> Arc<TaurusDb> {
    let db = TaurusDb::new(cfg);
    let schema = TableSchema::new(
        "k",
        vec![
            Column::new("g", DataType::BigInt),
            Column::new("id", DataType::BigInt),
            Column::nullable("c", DataType::Char(4)),
            Column::nullable("v", DataType::Varchar(8)),
            Column::nullable("f", DataType::Double),
            Column::nullable(
                "d",
                DataType::Decimal {
                    precision: 10,
                    scale: 2,
                },
            ),
            Column::nullable("t", DataType::Date),
            Column::nullable("b", DataType::BigInt),
            Column::new("pad", DataType::Varchar(40)),
        ],
        vec![0, 1],
    );
    let t = db.create_table(schema, &[]).unwrap();
    db.bulk_load(&t, (0..K_ROWS).map(k_row).collect()).unwrap();
    db
}

/// The aggregates every grouping query computes, and what each folds.
const K_AGGS: &str = "count(*), count(f), sum(d), sum(b), min(c), max(v), min(t), max(d)";

/// The value columns, by their position in a `k` row.
const K_COLS: [(&str, usize); 6] = [("c", 2), ("v", 3), ("f", 4), ("d", 5), ("t", 6), ("b", 7)];

/// A generator row's value of column `col` as the engine reads it back:
/// a CHAR without its padding.
fn k_value(row: &[Value], col: usize) -> Value {
    match (&row[col], col) {
        (Value::Str(s), 2) => Value::str(s.trim_end_matches(' ')),
        (v, _) => v.clone(),
    }
}

/// A grouping query of `k` and what it returns.
struct KQuery {
    sql: String,
    /// Each group's key values as its first generator row (in scan
    /// order) has them, then its aggregates.
    want: Vec<Row>,
    /// Each group's images of each key value among its rows
    /// (`Debug`-printed).
    images: Vec<Vec<BTreeSet<String>>>,
    /// How many leading columns are the group's key values.
    keys: usize,
    /// Does a group show its first record's key values with NDP off?
    /// Not under a COUNT(DISTINCT), whose deduplicating level hands its
    /// (group, value) pairs up in key order.
    first_record: bool,
}

/// The groups of `key` over the generator rows, in the engine's output
/// order: by the `put_key16` encoding of the key values (SQL equality:
/// equal encodings are one group), or by the key itself when
/// `index_order`. Each is its first row's key values then `aggs` over
/// its rows, beside the images each key value has among its rows.
fn k_oracle(
    key: &dyn Fn(&[Value]) -> Vec<Value>,
    aggs: &dyn Fn(&[&Row]) -> Vec<Value>,
    index_order: bool,
) -> (Vec<Row>, Vec<Vec<BTreeSet<String>>>) {
    let rows: Vec<Row> = (0..K_ROWS).map(k_row).collect();
    let mut groups: std::collections::BTreeMap<Vec<u8>, (Vec<Value>, Vec<&Row>)> =
        Default::default();
    for row in &rows {
        let values = key(row);
        let mut enc = Vec::new();
        for v in &values {
            taurus::common::codec::put_key16(&mut enc, v).unwrap();
        }
        groups
            .entry(enc)
            .or_insert((values, Vec::new()))
            .1
            .push(row);
    }
    let mut out: Vec<(Row, Vec<BTreeSet<String>>)> = groups
        .into_values()
        .map(|(mut values, members)| {
            let images = (0..values.len())
                .map(|i| members.iter().map(|r| format!("{:?}", key(r)[i])).collect())
                .collect();
            values.extend(aggs(&members));
            (values, images)
        })
        .collect();
    if index_order {
        out.sort_by(|a, b| a.0[0].cmp_total(&b.0[0]));
    }
    out.into_iter().unzip()
}

/// [`K_AGGS`] over a group's generator rows.
fn k_aggs(rows: &[&Row]) -> Vec<Value> {
    let vals = |col: usize| {
        rows.iter()
            .map(move |r| k_value(r, col))
            .filter(|v| !v.is_null())
    };
    let extreme = |col: usize, want: std::cmp::Ordering| {
        vals(col).fold(Value::Null, |best, v| match best.cmp_sql(&v) {
            None => v,
            Some(o) if o == want.reverse() => v,
            Some(_) => best,
        })
    };
    let sum_d: Option<i128> = vals(5)
        .map(|v| v.as_dec().unwrap().raw)
        .reduce(|a, b| a + b);
    let sum_b: Option<i64> = vals(7).map(|v| v.as_int().unwrap()).reduce(|a, b| a + b);
    vec![
        Value::Int(rows.len() as i64),
        Value::Int(vals(4).count() as i64),
        sum_d.map_or(Value::Null, |raw| Value::Decimal(Dec::new(raw, 2))),
        sum_b.map_or(Value::Null, Value::Int),
        extreme(2, std::cmp::Ordering::Less),
        extreme(3, std::cmp::Ordering::Greater),
        extreme(6, std::cmp::Ordering::Less),
        extreme(5, std::cmp::Ordering::Greater),
    ]
}

/// [`fmt_rows`] with each row's first `keys` values, a group's, in the
/// form SQL equality takes them: a string without its trailing spaces, a
/// zero double unsigned.
fn fmt_keyed(rows: &[Row], keys: usize) -> String {
    let rows: Vec<Row> = rows
        .iter()
        .map(|r| {
            let key = r[..keys].iter().map(|v| match v {
                Value::Str(s) => Value::str(s.trim_end_matches(' ')),
                Value::Double(x) if *x == 0.0 => Value::Double(0.0),
                v => v.clone(),
            });
            key.chain(r[keys..].iter().cloned()).collect()
        })
        .collect();
    fmt_rows(&rows)
}

/// Every grouping query of the test.
fn k_queries() -> Vec<KQuery> {
    let mut queries = Vec::new();
    let mut push = |sql: String, (want, images), keys, first_record| {
        queries.push(KQuery {
            sql,
            want,
            images,
            keys,
            first_record,
        })
    };
    let mut keyed = |names: Vec<&str>, cols: Vec<usize>| {
        let (list, n) = (names.join(", "), names.len());
        let sql = format!("select {list}, {K_AGGS} from k group by {list}");
        let key = move |r: &[Value]| cols.iter().map(|&c| k_value(r, c)).collect();
        push(sql, k_oracle(&key, &k_aggs, false), n, true);
    };
    for (i, &(a, ca)) in K_COLS.iter().enumerate() {
        keyed(vec![a], vec![ca]);
        for &(b, cb) in &K_COLS[i + 1..] {
            keyed(vec![a, b], vec![ca, cb]);
        }
    }
    let g_plus_1 = |r: &[Value]| vec![Value::Int(r[0].as_int().unwrap() + 1)];
    push(
        format!("select g + 1, {K_AGGS} from k group by g + 1"),
        k_oracle(&g_plus_1, &k_aggs, false),
        1,
        true,
    );
    // A GROUP BY that follows the index: groups in index order.
    push(
        format!("select g, {K_AGGS} from k group by g"),
        k_oracle(&|r| vec![r[0].clone()], &k_aggs, true),
        1,
        true,
    );
    // COUNT(DISTINCT x): a deduplicating aggregation folds the scan,
    // keyed on `x`'s images beside the group's.
    let distinct = |col: usize| {
        move |rows: &[&Row]| {
            let set: std::collections::BTreeSet<Vec<u8>> = rows
                .iter()
                .map(|r| k_value(r, col))
                .filter(|v| !v.is_null())
                .map(|v| {
                    let mut enc = Vec::new();
                    taurus::common::codec::put_key16(&mut enc, &v).unwrap();
                    enc
                })
                .collect();
            vec![Value::Int(set.len() as i64)]
        }
    };
    for (key, (name, col)) in [(2usize, ("v", 3usize)), (7, ("f", 4)), (4, ("c", 2))] {
        let key_name = K_COLS.iter().find(|(_, c)| *c == key).unwrap().0;
        push(
            format!("select {key_name}, count(distinct {name}) from k group by {key_name}"),
            k_oracle(&|r| vec![k_value(r, key)], &distinct(col), false),
            1,
            false,
        );
    }
    push(
        "select count(distinct v) from k".into(),
        k_oracle(&|_| Vec::new(), &distinct(3), false),
        0,
        false,
    );
    queries
}

/// `plan` with its scan-folding `HashAgg` under an `Exchange(degree)`.
fn exchange_under(plan: Plan, degree: usize) -> Plan {
    use Plan as P;
    match plan {
        P::HashAgg(h) if matches!(*h.input, P::Scan(_)) => P::HashAgg(h).exchange(degree),
        P::HashAgg(mut h) => {
            h.input = Box::new(exchange_under(*h.input, degree));
            P::HashAgg(h)
        }
        P::Project(mut p) => {
            p.input = Box::new(exchange_under(*p.input, degree));
            P::Project(p)
        }
        P::Filter(mut f) => {
            f.input = Box::new(exchange_under(*f.input, degree));
            P::Filter(f)
        }
        P::Sort(mut s) => {
            s.input = Box::new(exchange_under(*s.input, degree));
            P::Sort(s)
        }
        other => panic!("no scan-folding aggregation in {other:?}"),
    }
}

/// Each query's rows under `session`, serial and under an `Exchange(4)`,
/// against the expected rows. Every query folds a scan. With NDP off a
/// group shows its first record's key values, so the rows are the
/// oracle's exactly. With NDP on a page's group reaches the SQL node as
/// its carrier, the last visible record of the group on the page
/// (§V-C), and a COUNT(DISTINCT) group shows its first (group, value)
/// pair's: there the rows are the oracle's with key values compared as
/// SQL equality takes them ([`fmt_keyed`]), and each key value shown is
/// an image the group's rows have.
fn check_k_queries(session: &Session, queries: &[KQuery], ndp: bool, at: &str) {
    for q in queries {
        let sql = &q.sql;
        let taurus::sql::Statement::Select(select) = taurus::sql::parse(sql).unwrap() else {
            panic!("{sql}")
        };
        let plan = taurus::sql::bind(session, &select).unwrap();
        let mut folded = 0;
        plan.for_each_scan(&mut |_, agg| folded += agg as usize);
        assert_eq!(folded, 1, "{sql}: {plan:?}");
        let parallel = exchange_under(plan.clone(), 4);
        for (plan, how) in [(plan, "serial"), (parallel, "Exchange(4)")] {
            let got = session.execute_plan(&plan).unwrap();
            let at = format!("{at}, {how}: {sql}");
            if q.first_record && !ndp {
                assert_eq!(fmt_rows(&got), fmt_rows(&q.want), "{at}");
                continue;
            }
            assert_eq!(fmt_keyed(&got, q.keys), fmt_keyed(&q.want, q.keys), "{at}");
            for (row, images) in got.iter().zip(&q.images) {
                for (v, seen) in row.iter().zip(images) {
                    let v = format!("{v:?}");
                    assert!(seen.contains(&v), "{at}: {v} is none of {seen:?}");
                }
            }
        }
    }
}

/// A hash join matches keys as SQL equality does, as a lookup join's
/// PAD SPACE index key does: a VARCHAR `'x'` matches `'x '` and `'x  '`,
/// and a DOUBLE `0.0` matches `-0.0`. Over the first 60 rows of `k`,
/// joined to themselves on `v` and on `f`, NDP off and on, against the
/// pairs an oracle finds.
#[test]
fn hash_join_keys_match_as_sql_equality_does() {
    let db = k_db(ClusterConfig::small_for_tests());
    let rows: Vec<Row> = (0..60).map(k_row).collect();
    for (col, name) in [(3, "v"), (4, "f")] {
        let sql = format!(
            "select a.id, b.id from k as a join k as b on a.{name} = b.{name} \
             where a.id < 60 and b.id < 60 order by a.id, b.id"
        );
        let mut want = Vec::new();
        for a in &rows {
            for b in &rows {
                if a[col].cmp_sql(&b[col]) == Some(std::cmp::Ordering::Equal) {
                    want.push(vec![a[1].clone(), b[1].clone()]);
                }
            }
        }
        // Pairs whose images differ: `'x'` and `'x '`, `0.0` and `-0.0`.
        let image = |id: &Value| format!("{:?}", rows[id.as_int().unwrap() as usize][col]);
        let differ = want.iter().filter(|p| image(&p[0]) != image(&p[1])).count();
        assert!(differ > 20, "{name}: {differ} pairs of unequal images");
        for ndp in [false, true] {
            let session = Session::new(&db).with_ndp(ndp);
            let taurus::sql::Statement::Select(select) = taurus::sql::parse(&sql).unwrap() else {
                panic!("{sql}")
            };
            let plan = taurus::sql::bind(&session, &select).unwrap();
            assert!(format!("{plan:?}").contains("HashJoin"), "{plan:?}");
            let got = session.execute_plan(&plan).unwrap();
            assert_eq!(fmt_rows(&got), fmt_rows(&want), "ndp {ndp}: {sql}");
        }
    }
}

/// A `HashAgg` that folds its scan keys a bare group column on its field
/// image and any other group expression on its value, on leaf records,
/// NDP records and records rebuilt from undo alike. Grouped by each of a
/// CHAR, a VARCHAR, a DOUBLE, a DECIMAL, a DATE and a BIGINT column alone
/// and in pairs, by `g + 1` and by the index's leading column, with
/// COUNT, COUNT(DISTINCT), SUM, MIN and MAX: NDP off = on, at batch sizes
/// 1, 7 and 1024, serial = `Exchange(4)`, = an oracle over the generator
/// rows that groups by SQL equality (`'x'` is `'x '`, `0.0` is `-0.0`: the
/// `put_key16` encoding of the values), orders groups by that encoding
/// and shows a group's first row's key values ([`check_k_queries`] says
/// where a group shows another of its images). A writer round then
/// rewrites `b` and `pad` of
/// random rows under a read view taken before it started: the records it
/// touched come back ambiguous and are rebuilt from undo, and the rows
/// are still the generator's.
#[test]
fn folded_scans_key_groups_on_field_images() {
    let queries = k_queries();
    assert_eq!(queries.len(), 6 + 15 + 2 + 4);
    let rows_of = |tail: &str| {
        let q = queries.iter().find(|q| q.sql.ends_with(tail)).unwrap();
        fmt_rows(&q.want)
    };
    // 'x', 'x ' and 'x  ' are one group, as SQL equality (PAD SPACE) has
    // them.
    let by_v = rows_of("group by v");
    assert_eq!(by_v.lines().count(), 4, "NULL, '', x and y: {by_v}");
    // 0.0 and -0.0 are one group.
    let by_f = rows_of("group by f");
    assert!(
        by_f.contains("\n0.0000|") && !by_f.contains("\n-0.0000|"),
        "{by_f}"
    );
    let by_c = rows_of("group by c");
    assert_eq!(by_c.lines().count(), 5, "NULL, '', a, ab and b: {by_c}");
    for batch_rows in [1, 7, 1024] {
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.ndp.enabled = true;
        cfg.scan_batch_rows = batch_rows;
        let db = k_db(cfg);
        let mut session = Session::new(&db);
        for ndp in [false, true] {
            session.set_ndp(ndp);
            db.buffer_pool().clear();
            check_k_queries(
                &session,
                &queries,
                ndp,
                &format!("batch {batch_rows}, ndp {ndp}"),
            );
        }
        // With NDP on, the index-ordered and the hashed aggregation go to
        // the Page Stores.
        let explain = |sql: &str| -> String {
            let lines = session.sql(&format!("explain {sql}")).unwrap();
            lines.iter().map(|l| format!("{}\n", l[0])).collect()
        };
        db.buffer_pool().clear();
        let by_g = explain(&format!("select g, {K_AGGS} from k group by g"));
        assert!(
            by_g.contains("Using pushed NDP aggregate (index order)"),
            "{by_g}"
        );
    }

    // The writer round: a small pool, so the scans read through the Page
    // Stores, and versions kept for the reads pinned at a batch's LSN.
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.enabled = true;
    cfg.buffer_pool_pages = 16;
    cfg.pagestore_versions_retained = 256;
    let db = k_db(cfg);
    let mut session = Session::new(&db);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (db, stop) = (db.clone(), stop.clone());
        std::thread::spawn(move || {
            let k = db.table("k").unwrap();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let trx = db.begin();
                for _ in 0..8 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let mut row = k_row((state % K_ROWS as u64) as i64);
                    // Same lengths, so the records are rewritten in place.
                    row[7] = Value::Int((state >> 20) as i64 % 1000);
                    row[8] = Value::str("q".repeat(30));
                    db.update_row(&k, trx, &row).unwrap();
                }
                db.commit(trx);
                commits += 1;
            }
            commits
        })
    };
    // Let the writer commit past the session's view before the scans.
    std::thread::sleep(Duration::from_millis(50));
    let before = db.metrics().snapshot();
    for ndp in [true, false] {
        session.set_ndp(ndp);
        check_k_queries(&session, &queries, ndp, &format!("writer round, ndp {ndp}"));
    }
    stop.store(true, Ordering::Relaxed);
    let commits = writer.join().unwrap();
    assert!(commits > 10, "{commits} commits");
    let d = db.metrics().snapshot().since(&before);
    assert!(d.pages_shipped_ndp > 0, "{d:?}");
    assert!(d.ambiguous_records > 0, "{d:?}");
}
