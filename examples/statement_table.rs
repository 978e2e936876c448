//! Where a pass over the 22 TPC-H statements spends its time and its
//! storage wire, one row per statement, NDP off and on: wall and SQL-node
//! CPU, Page-Store CPU, read requests, pages shipped raw / NDP-processed /
//! empty, and kB from and to storage.
//!
//! The cluster has the shape `benchmark/` gives its TPC-H workloads (4 Page
//! Stores, replication 3, a 175-page pool over ~14 MB of data, a shared
//! 250 MB/s wire), in-process: no server, no socket. A pass runs the
//! statements in order on one session, so each finds the pool the ones
//! before it left; every number is the median over the measured passes.
//!
//! Run: `cargo run --release --example statement_table` (about a minute),
//! or with `--quick` for SF 0.002 and a 70-page pool (a few seconds).

use taurus::prelude::*;

struct Sizing {
    sf: f64,
    pool_pages: usize,
    min_io_pages: u64,
    passes: usize,
}

/// One statement's cost in one pass.
#[derive(Clone, Copy, Default)]
struct Cost {
    wall_ms: f64,
    cpu_ms: f64,
    ps_cpu_ms: f64,
    requests: f64,
    raw: f64,
    ndp: f64,
    empty: f64,
    kb_from: f64,
    kb_to: f64,
}

const COLUMNS: [(&str, fn(&Cost) -> f64); 9] = [
    ("wall ms", |c| c.wall_ms),
    ("cpu ms", |c| c.cpu_ms),
    ("ps cpu ms", |c| c.ps_cpu_ms),
    ("requests", |c| c.requests),
    ("raw", |c| c.raw),
    ("ndp", |c| c.ndp),
    ("empty", |c| c.empty),
    ("kB from", |c| c.kb_from),
    ("kB to", |c| c.kb_to),
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn run(session: &Session, text: &str) -> Result<Cost> {
    let run = QueryRun::measure(session.db(), || session.sql(text))?;
    let d = run.delta;
    Ok(Cost {
        wall_ms: run.wall.as_secs_f64() * 1e3,
        cpu_ms: d.compute_cpu_ns as f64 / 1e6,
        ps_cpu_ms: d.ps_cpu_ns as f64 / 1e6,
        requests: d.net_read_requests as f64,
        raw: d.pages_shipped_raw as f64,
        ndp: d.pages_shipped_ndp as f64,
        empty: d.pages_shipped_empty as f64,
        kb_from: d.net_bytes_from_storage as f64 / 1e3,
        kb_to: d.net_bytes_to_storage as f64 / 1e3,
    })
}

fn main() -> Result<()> {
    let sizing = if std::env::args().any(|a| a == "--quick") {
        Sizing {
            sf: 0.002,
            pool_pages: 70,
            min_io_pages: 8,
            passes: 3,
        }
    } else {
        Sizing {
            sf: 0.005,
            pool_pages: 175,
            min_io_pages: 16,
            passes: 5,
        }
    };
    let mut cfg = ClusterConfig::default();
    cfg.n_page_stores = 4;
    cfg.replication = 3;
    cfg.pagestore_ndp_threads = 4;
    cfg.slice_pages = 128;
    cfg.buffer_pool_pages = sizing.pool_pages;
    cfg.ndp.enabled = true;
    cfg.ndp.min_io_pages = sizing.min_io_pages;
    cfg.ndp.max_pages_look_ahead = 1024;
    cfg.network.bandwidth_bytes_per_sec = Some(250_000_000);
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, sizing.sf, 42)?;
    let statements = taurus::sql::tpch_sql::all();

    for ndp in [false, true] {
        let session = Session::new(&db).with_ndp(ndp);
        db.buffer_pool().clear();
        // One pass unmeasured: the pool settles into what a pass leaves.
        let mut passes: Vec<Vec<Cost>> = Vec::new();
        for pass in 0..=sizing.passes {
            let costs = statements
                .iter()
                .map(|(_, text)| run(&session, text))
                .collect::<Result<Vec<Cost>>>()?;
            if pass > 0 {
                passes.push(costs);
            }
        }
        println!(
            "\nSF {}, pool {} pages, NDP {}, median of {} passes",
            sizing.sf,
            sizing.pool_pages,
            if ndp { "on" } else { "off" },
            sizing.passes
        );
        print!("{:<6}", "stmt");
        for (name, _) in COLUMNS {
            print!(" {name:>9}");
        }
        println!();
        let mut total = [0.0; COLUMNS.len()];
        for (i, (name, _)) in statements.iter().enumerate() {
            print!("{name:<6}");
            for (c, (_, get)) in COLUMNS.iter().enumerate() {
                let v = median(passes.iter().map(|p| get(&p[i])).collect());
                total[c] += v;
                print!(" {v:>9.1}");
            }
            println!();
        }
        print!("{:<6}", "pass");
        for v in total {
            print!(" {v:>9.1}");
        }
        println!();
    }
    Ok(())
}
