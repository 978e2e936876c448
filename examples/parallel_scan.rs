//! Three-level parallelism (§VI): PQ workers on the SQL node, SAL fan-out
//! across Page Stores, and NDP worker pools inside each Page Store — all
//! active at once on the §VII-A micro-benchmark's COUNT(*) scans (Q0: the
//! whole table, Q001: a shipdate filter, Q002: a secondary-index range).
//! Each runs as the registry's plan at PQ degree 1 and 8, with its NDP
//! decisions kept or cleared.
//!
//! Run: `cargo run --release --example parallel_scan`

use taurus::prelude::*;

fn main() -> Result<()> {
    let mut cfg = ClusterConfig::default();
    cfg.n_page_stores = 4;
    cfg.pagestore_ndp_threads = 4; // level 3: parallelism within a Page Store
    cfg.buffer_pool_pages = 256;
    cfg.ndp.min_io_pages = 16;
    // A modest shared wire makes the I/O effect visible.
    cfg.network.bandwidth_bytes_per_sec = Some(400_000_000);
    let db = TaurusDb::new(cfg);
    println!("Loading TPC-H SF 0.02...");
    taurus::tpch::load(&db, 0.02, 1)?;

    println!(
        "{:<6} {:<28} {:>10} {:>12} {:>14}",
        "query", "configuration", "count", "wall (ms)", "bytes (KB)"
    );
    let session = Session::new(&db);
    let micro = taurus::tpch::micro_queries()
        .into_iter()
        .filter(|q| matches!(q.name, "Q0" | "Q001" | "Q002"));
    for q in micro {
        for (label, ndp, pq) in [
            ("serial, NDP off", false, None),
            ("PQ=8, NDP off", false, Some(8)),
            ("serial, NDP on", true, None),
            ("PQ=8, NDP on (3 levels)", true, Some(8)),
        ] {
            // Cold pool first: the NDP pass gates on expected physical I/O.
            db.buffer_pool().clear();
            let mut plan = (q.plan)(&db, pq)?;
            if !ndp {
                plan.for_each_scan_mut(&mut |scan, _| scan.ndp = None);
            }
            let run = QueryRun::measure(&db, || session.execute_plan(&plan))?;
            println!(
                "{:<6} {:<28} {:>10} {:>12.1} {:>14}",
                q.name,
                label,
                run.rows[0][0],
                run.wall.as_secs_f64() * 1e3,
                run.delta.net_bytes_from_storage / 1024
            );
        }
    }
    println!("\nLevels engaged in the last run:");
    println!("  1. SQL node:   8 PQ worker threads over range partitions");
    println!("  2. SAL:        sub-batches dispatched to 4 Page Stores concurrently");
    println!("  3. Page Store: 4 NDP pool threads processing pages of each batch");
    Ok(())
}
