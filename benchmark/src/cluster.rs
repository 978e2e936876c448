//! Set-up: cluster, TPC-H load, served socket and goldens.

use std::sync::Arc;
use std::time::Instant;

use taurus_common::{ClusterConfig, Dec, Error, Result, Row, Value};
use taurus_executor::Session;
use taurus_ndp::TaurusDb;
use taurus_server::{tpch_registry, Server, ServerHandle};

use crate::golden::{digest, digest_rows, Digest};
use crate::workload::{self, Statement, Workload};

/// Seed of the data set. Not the workload seed: the data never changes.
pub const DATA_SEED: u64 = 42;

/// How big a run is. The ratios are the paper's, scaled: the buffer pool
/// holds about a fifth of the data (20 GB for 100 GB), and the NDP gate
/// (10,000 pages there) lets every table of `orders`' size and up qualify.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub sf: f64,
    pub pool_pages: usize,
    pub min_io_pages: u64,
}

impl Sizing {
    /// What `BENCHMARK.json` measures: about 14 MB of data, so that five
    /// set-ups, a warm-up pass and the measured window fit the time a run
    /// is given on two cores.
    pub const FULL: Sizing = Sizing {
        sf: 0.005,
        pool_pages: 175,
        min_io_pages: 16,
    };
    /// The smoke tests' size: a pass takes a fraction of a second.
    pub const QUICK: Sizing = Sizing {
        sf: 0.002,
        pool_pages: 70,
        min_io_pages: 8,
    };
}

/// The one cluster configuration every workload starts from: 4 Page
/// Stores, replication 3, a shared 250 MB/s storage wire, master only, the
/// default batch layout. It mirrors `taurus_bench::bench_config` (the
/// `fig*`/`ablation_*` targets' configuration) with the pool and the NDP
/// gate scaled to `sizing`; NDP stays enabled in the catalog and each
/// request says whether it wants it.
pub fn bench_config(sizing: Sizing) -> ClusterConfig {
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
    cfg.server.listen_addr = "127.0.0.1:0".into();
    cfg
}

/// `bench_config` with the workload's stated deviation, if it has one.
pub fn workload_config(w: Workload, sizing: Sizing) -> ClusterConfig {
    let mut cfg = bench_config(sizing);
    if w == Workload::WarmCpuSql {
        // Everything fits the cache and the wire costs nothing, so wall
        // time is SQL-node CPU.
        cfg.buffer_pool_pages = 8192;
        cfg.network.bandwidth_bytes_per_sec = None;
    }
    cfg
}

/// What the goldens are checked against, per workload.
pub enum Expected {
    /// One digest per statement, in statement order.
    Sql {
        statements: Vec<Statement>,
        goldens: Vec<Digest>,
    },
    /// Point lookups compare against the generator's rows; the periodic
    /// scan against `scan`.
    Lookup { scan: Digest },
}

/// A loaded, served cluster.
pub struct Cluster {
    pub db: Arc<TaurusDb>,
    pub addr: String,
    pub orders: Vec<Row>,
    pub lineitem: Vec<Row>,
    pub expected: Expected,
    pub load_rows: u64,
    pub load_s: f64,
    // Last: the accept loop stops before the fields above go away.
    _server: ServerHandle,
}

/// Build, load, serve and compute goldens; returns the cluster and how
/// long all of that took.
pub fn setup(w: Workload, sizing: Sizing) -> Result<(Cluster, f64)> {
    let t0 = Instant::now();
    let db = TaurusDb::new(workload_config(w, sizing));
    let t_load = Instant::now();
    let data = taurus_tpch::load(&db, sizing.sf, DATA_SEED)?.rows;
    let load_s = t_load.elapsed().as_secs_f64();
    let load_rows = [
        &data.region,
        &data.nation,
        &data.supplier,
        &data.customer,
        &data.part,
        &data.partsupp,
        &data.orders,
        &data.lineitem,
    ]
    .iter()
    .map(|t| t.len() as u64)
    .sum();
    let server = Server::start(&db, Vec::new(), tpch_registry())?;
    let addr = server.local_addr().to_string();

    let expected = match w {
        Workload::TpchSqlNdpOff | Workload::TpchSqlNdpOn => {
            sql_expected(&db, &data.lineitem, workload::tpch_statements())?
        }
        Workload::WarmCpuSql => sql_expected(&db, &data.lineitem, workload::warm_statements())?,
        Workload::LookupUnderWrites => Expected::Lookup {
            scan: generator_golden(&workload::SELECTIVE_FILTER, &data.lineitem),
        },
    };
    // Goldens ran queries: every measured phase starts from a cold pool
    // and does its own warm-up.
    db.buffer_pool().clear();
    let cluster = Cluster {
        db,
        addr,
        orders: data.orders,
        lineitem: data.lineitem,
        expected,
        load_rows,
        load_s,
        _server: server,
    };
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

fn sql_expected(
    db: &Arc<TaurusDb>,
    lineitem: &[Row],
    statements: Vec<Statement>,
) -> Result<Expected> {
    let registry = taurus_tpch::tpch_queries();
    let session = Session::new(db);
    let goldens = statements
        .iter()
        .map(|s| match s.registry {
            None => Ok(generator_golden(s, lineitem)),
            Some(q) => {
                let q = registry
                    .iter()
                    .find(|r| r.name == q)
                    .ok_or_else(|| Error::NotFound(format!("no registry plan {q}")))?;
                // The hand-built main-stage plan: what the SQL text of the
                // same name must equal (tests/sql_parity.rs).
                let plan = (q.plan)(db, None)?;
                Ok(digest_rows(&session.execute_plan(&plan)?))
            }
        })
        .collect::<Result<Vec<Digest>>>()?;
    Ok(Expected::Sql {
        statements,
        goldens,
    })
}

// lineitem column positions (crates/tpch/src/schema.rs).
const L_ORDERKEY: usize = 0;
const L_PARTKEY: usize = 1;
const L_QUANTITY: usize = 4;
const L_EXTENDEDPRICE: usize = 5;
const L_SHIPDATE: usize = 10;

/// The two plain `lineitem` statements, answered from the generator's
/// rows without touching the database.
fn generator_golden(stmt: &Statement, lineitem: &[Row]) -> Digest {
    match stmt.name {
        "full_scan" => digest(lineitem.iter().map(|r| {
            [
                L_ORDERKEY,
                L_PARTKEY,
                L_QUANTITY,
                L_EXTENDEDPRICE,
                L_SHIPDATE,
            ]
            .map(|c| &r[c])
        })),
        "selective_filter" => {
            let five = Dec::new(5, 0);
            digest(
                lineitem
                    .iter()
                    .filter(|r| match &r[L_QUANTITY] {
                        Value::Decimal(q) => q.cmp_dec(five).is_lt(),
                        _ => false,
                    })
                    .map(|r| [&r[L_ORDERKEY], &r[L_EXTENDEDPRICE]]),
            )
        }
        other => panic!("no generator golden for statement `{other}`"),
    }
}
