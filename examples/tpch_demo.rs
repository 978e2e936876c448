//! TPC-H demo: loads a small scale factor, runs every query with NDP off
//! and on, and prints the paper's three effects per query — network
//! bytes, SQL-node CPU, and run time (Fig. 5-8) — plus, for the queries
//! with a parallel plan, the NDP-on run time at PQ degree 8 (Fig. 9).
//!
//! The headline Q6 runs as SQL text through the public `Session` API
//! (with its EXPLAIN); the full 22-query sweep and the §VII-A micro set
//! (Q0, Q001, Q002) then run through the TPC-H plan-builder registry,
//! which plays the role of MySQL's join-order search and lowers onto the
//! same executor.
//!
//! Run: `cargo run --release --example tpch_demo`

use taurus::prelude::*;

/// PQ degree of the last column (the paper's Fig. 9 uses 16; scaled to
/// laptop cores).
const PQ: usize = 8;

fn main() -> Result<()> {
    let sf = 0.01;
    println!("Loading TPC-H SF {sf} twice (NDP off / NDP on)...");
    let mk = |ndp: bool| -> Result<std::sync::Arc<TaurusDb>> {
        let mut cfg = ClusterConfig::default();
        cfg.buffer_pool_pages = 512;
        cfg.ndp.enabled = ndp;
        cfg.ndp.min_io_pages = 32;
        let db = TaurusDb::new(cfg);
        taurus::tpch::load(&db, sf, 42)?;
        Ok(db)
    };
    let off = mk(false)?;
    let on = mk(true)?;

    // Q6 through the public API, with its NDP-annotated EXPLAIN.
    let session = Session::new(&on);
    let q6 = taurus::sql::tpch_sql::sql_for("Q6").expect("Q6 has SQL text");
    println!("\n-- Q6 via Session::sql --");
    for line in session.sql(&format!("explain {q6}"))? {
        println!("{}", line[0]);
    }
    let run = QueryRun::measure(&on, || session.sql(q6))?;
    println!(
        "revenue = {}   ({} KB from storage, {:.1} ms SQL CPU)",
        run.rows[0][0],
        run.delta.net_bytes_from_storage / 1024,
        run.delta.compute_cpu_ns as f64 / 1e6
    );

    println!(
        "\n{:<5} {:>12} {:>12} {:>8} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8} | {:>7}",
        "query",
        "net off KB",
        "net on KB",
        "red%",
        "cpu off",
        "cpu on",
        "red%",
        "wall off",
        "wall on",
        "red%",
        "PQ ms"
    );
    let micro = taurus::tpch::micro_queries()
        .into_iter()
        .filter(|q| matches!(q.name, "Q0" | "Q001" | "Q002"));
    for q in taurus::tpch::tpch_queries().into_iter().chain(micro) {
        let run = |db: &TaurusDb, pq: Option<usize>| -> Result<(u64, f64, f64)> {
            let run = QueryRun::measure(db, || (q.run)(db, pq))?;
            Ok((
                run.delta.net_bytes_from_storage,
                run.delta.compute_cpu_ns as f64 / 1e6,
                run.wall.as_secs_f64() * 1e3,
            ))
        };
        let (net_a, cpu_a, wall_a) = run(&off, None)?;
        let (net_b, cpu_b, wall_b) = run(&on, None)?;
        let pq_ms = if q.pq_capable {
            format!("{:.1}", run(&on, Some(PQ))?.2)
        } else {
            "-".into()
        };
        let red = |a: f64, b: f64| if a > 0.0 { (1.0 - b / a) * 100.0 } else { 0.0 };
        println!(
            "{:<5} {:>12} {:>12} {:>7.1}% | {:>9.1} {:>9.1} {:>7.1}% | {:>9.1} {:>9.1} {:>7.1}% | {:>7}",
            q.name,
            net_a / 1024,
            net_b / 1024,
            red(net_a as f64, net_b as f64),
            cpu_a,
            cpu_b,
            red(cpu_a, cpu_b),
            wall_a,
            wall_b,
            red(wall_a, wall_b),
            pq_ms,
        );
    }
    println!("\n(paper, 100 GB: Q6 ~99% network / 91% CPU; Q15 98%/91%; Q14 95%/89%)");
    Ok(())
}
