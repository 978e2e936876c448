//! Best-effort NDP under multi-tenant pressure (§IV-D2).
//!
//! Page Stores are shared services: when their NDP pools are saturated (or
//! resource control decides to shed load), they return *raw* pages and the
//! compute node completes the work — results never change, only where the
//! CPU burns. This example injects increasing skip rates and shows the
//! work migrating from the storage side to the SQL node. The query itself
//! is ordinary SQL through a `Session` — the caller neither knows nor
//! cares which side did the filtering.
//!
//! Run: `cargo run --release --example multi_tenant`

use taurus::pagestore::SkipPolicy;
use taurus::prelude::*;

fn main() -> Result<()> {
    let mut cfg = ClusterConfig::default();
    cfg.pagestore_ndp_threads = 2;
    cfg.pagestore_ndp_queue = 8;
    cfg.buffer_pool_pages = 256;
    cfg.ndp.min_io_pages = 16;
    let db = TaurusDb::new(cfg);
    println!("Loading TPC-H SF 0.02...");
    taurus::tpch::load(&db, 0.02, 3)?;

    let session = Session::new(&db);
    let count_cheap_items = || {
        QueryRun::measure(&db, || {
            session.sql("select count(*) from lineitem where l_quantity < 25.00")
        })
    };

    println!(
        "\n{:<12} {:>10} {:>12} {:>12} {:>14} {:>16}",
        "tenant load", "count", "NDP pages", "raw pages", "SQL CPU (ms)", "storage CPU (ms)"
    );
    for (label, policy) in [
        ("idle", SkipPolicy::None),
        ("busy", SkipPolicy::EveryNth(3)),
        ("very busy", SkipPolicy::EveryNth(2)),
        ("saturated", SkipPolicy::All),
    ] {
        for ps in db.sal().page_stores() {
            ps.set_skip_policy(policy.clone());
        }
        db.buffer_pool().clear();
        let run = count_cheap_items()?;
        println!(
            "{:<12} {:>10} {:>12} {:>12} {:>14.1} {:>16.1}",
            label,
            run.rows[0][0],
            run.delta.pages_shipped_ndp + run.delta.pages_shipped_empty,
            run.delta.pages_shipped_raw,
            run.delta.compute_cpu_ns as f64 / 1e6,
            run.delta.ps_cpu_ns as f64 / 1e6,
        );
    }
    println!("\nThe count never changes; only where the work happens does.");
    for ps in db.sal().page_stores() {
        ps.set_skip_policy(SkipPolicy::None);
    }
    Ok(())
}
