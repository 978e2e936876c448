//! Quickstart: the paper's §III worked example, through the public
//! `Session` API and SQL text.
//!
//! Creates the `Worker` table, loads rows, and runs the Listing-1 query
//! (`SELECT AVG(salary) FROM Worker WHERE age < 40 AND joindate >= '2010-01-01'
//! AND joindate < '2010-01-01' + INTERVAL 1 YEAR`) twice: once with the
//! session's NDP switch off (classical scan) and once with it on, printing
//! the Listing-2-style EXPLAIN and the network/CPU effect. The query text
//! is identical both times — whether filtering and aggregation happen in
//! the Page Stores is the optimizer's decision, not the caller's.
//!
//! Run: `cargo run --release --example quickstart`

use taurus::prelude::*;

fn main() -> Result<()> {
    // A small simulated cluster: 4 Page Stores, 3 Log Stores.
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = 128;
    cfg.ndp.min_io_pages = 4;
    let db = TaurusDb::new(cfg);

    // CREATE TABLE Worker (id BIGINT PRIMARY KEY, age INT,
    //                      joindate DATE, salary DECIMAL(15,2), name VARCHAR(32))
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
            Column::new("name", DataType::Varchar(32)),
        ],
        vec![0],
    );
    let table = db.create_table(schema, &[])?;

    // Load 50,000 workers through the write path (log records to Log
    // Stores, redo applied by Page Stores).
    let rows: Vec<Row> = (0..50_000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(20 + (i * 7) % 45),
                Value::Date(Date32::from_ymd(2005, 1, 1).add_days(((i * 13) % 3650) as i32)),
                Value::Decimal(Dec::new((3000 + (i * 31) % 7000) as i128 * 100, 2)),
                Value::str(format!("worker-{i}")),
            ]
        })
        .collect();
    db.bulk_load(&table, rows)?;
    db.buffer_pool().clear(); // cold start

    // The Listing-1 query, as SQL text against column *names*.
    const LISTING1: &str = "select avg(salary) from worker \
         where age < 40 and joindate >= date '2010-01-01' and joindate < date '2011-01-01'";
    let listing1 = |session: &Session| QueryRun::measure(&db, || session.sql(LISTING1));

    // NDP off: the session-level optimizer switch forces the classical
    // scan path (results never change, only where the work happens).
    {
        let session = Session::new(&db).with_ndp(false);
        let run = listing1(&session)?;
        println!("-- NDP off --");
        println!("AVG(salary) = {}", run.rows[0][0]);
        println!(
            "bytes from storage: {} KB, SQL-node CPU: {:.1} ms, wall: {:.1} ms",
            run.delta.net_bytes_from_storage / 1024,
            run.delta.compute_cpu_ns as f64 / 1e6,
            run.wall.as_secs_f64() * 1e3
        );
    }

    // NDP on (the default): the same query text; the binder routes the
    // plan through the §IV-B post-processing pass automatically.
    db.buffer_pool().clear();
    let session = Session::new(&db);
    println!("\n-- EXPLAIN (with NDP annotations, cf. the paper's Listing 2) --");
    for line in session.sql(&format!("explain {LISTING1}"))? {
        println!("{}", line[0]);
    }

    let run = listing1(&session)?;
    println!("\n-- NDP on --");
    println!("AVG(salary) = {}", run.rows[0][0]);
    println!(
        "bytes from storage: {} KB, SQL-node CPU: {:.1} ms, wall: {:.1} ms",
        run.delta.net_bytes_from_storage / 1024,
        run.delta.compute_cpu_ns as f64 / 1e6,
        run.wall.as_secs_f64() * 1e3
    );
    println!(
        "pages: {} NDP-processed, {} empty-after-filter markers, {} raw",
        run.delta.pages_shipped_ndp, run.delta.pages_shipped_empty, run.delta.pages_shipped_raw
    );

    // Streaming: pull a handful of rows; the scan stops when the stream
    // is dropped — no 50,000-row materialization.
    println!("\n-- first 3 workers under 25, streamed --");
    let Statement::Select(young) = parse("select id, age, name from worker where age < 25")? else {
        unreachable!("a SELECT");
    };
    for row in session.stream_plan(bind(&session, &young)?).take(3) {
        println!("{:?}", row?);
    }
    Ok(())
}
