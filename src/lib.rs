//! # taurus — Near Data Processing in Taurus Database, reproduced in Rust
//!
//! An executable reproduction of *Near Data Processing in Taurus Database*
//! (ICDE 2022): a compute/storage-disaggregated MySQL/InnoDB-style engine
//! whose Page Stores evaluate pushed-down selection, projection and
//! aggregation — plus the full TPC-H evaluation harness that regenerates
//! the paper's figures.
//!
//! ## The query API
//!
//! The public surface is a session-scoped query facade. Callers name
//! tables and columns; NDP pushdown, read-view selection, and
//! partial-aggregate merging are internal decisions — the API-level
//! mirror of the paper's claim that "the MySQL query execution layers
//! above the storage engine are unaware of NDP processing":
//!
//! ```no_run
//! use taurus::prelude::*;
//!
//! # fn demo(db: &std::sync::Arc<TaurusDb>) -> Result<()> {
//! let session = Session::new(db);
//!
//! // Scalar aggregate: AVG pushes down as SUM+COUNT when worthwhile.
//! let rows = session
//!     .query("worker")?
//!     .filter(col("age").lt(40))
//!     .agg(Agg::avg("salary"))
//!     .collect_rows()?;
//!
//! // Streaming scan: rows are pulled from storage on demand; dropping
//! // the stream early stops the scan. No full materialization.
//! for row in session
//!     .query("worker")?
//!     .select(["id", "name"])
//!     .filter(col("age").ge(60))
//!     .stream()?
//!     .take(10)
//! {
//!     println!("{:?}", row?);
//! }
//!
//! // EXPLAIN shows the Listing-2-style NDP annotations and the
//! // optimizer's per-table decision reports.
//! println!("{}", session.query("worker")?.filter(col("age").lt(40)).explain()?);
//! # Ok(()) }
//! ```
//!
//! ## SQL text
//!
//! The same sessions also take SQL directly: [`sql`] is a hand-written
//! lexer + recursive-descent parser and a catalog-aware binder that
//! lowers onto the very same plan layer, so NDP pushdown and the static
//! plan gate apply to SQL text unchanged. All
//! 22 TPC-H queries are expressible ([`sql::tpch_sql`]) and
//! byte-reproduce the hand-built registry plans; malformed text fails
//! closed with a positioned `Error::Parse`:
//!
//! ```no_run
//! use taurus::prelude::*;
//!
//! # fn demo(db: &std::sync::Arc<TaurusDb>) -> Result<()> {
//! let session = Session::new(db);
//! let rows = session.sql(
//!     "select n_name, count(*) from customer \
//!      join nation on c_nationkey = n_nationkey \
//!      group by n_name order by n_name",
//! )?;
//! // `explain select ...` returns the physical plan, one line per row.
//! # let _ = rows; Ok(()) }
//! ```
//!
//! ## Read replicas
//!
//! Read traffic scales out without copying data: a [`prelude::Replica`]
//! attaches to a live cluster's Log Stores and Page Stores (§II: Log
//! Stores "serve log records to read replicas"), tails the redo log in
//! the background, and serves the same `Session` API at a
//! transaction-consistent LSN — lag-bounded via `replica.max_lag_lsn`:
//!
//! ```no_run
//! # use taurus::prelude::*;
//! # fn demo(db: &std::sync::Arc<TaurusDb>) -> Result<()> {
//! let replica = Replica::attach(db);
//! replica.wait_caught_up(std::time::Duration::from_secs(5))?;
//! let rows = Session::new(replica.db())
//!     .query("worker")?
//!     .agg(Agg::count_star())
//!     .collect_rows()?;
//! # let _ = rows; Ok(()) }
//! ```
//!
//! ## Serving over the network
//!
//! [`server`] turns the stack into a network-facing compute node: a TCP
//! front end speaking the [`protocol`] wire format, with lag-aware
//! read routing across the master and any attached replicas and
//! read-your-writes stickiness per connection (see `DESIGN.md`,
//! "Serving layer"):
//!
//! ```no_run
//! # use taurus::prelude::*;
//! # fn demo(db: &std::sync::Arc<TaurusDb>) -> Result<()> {
//! let replica = Replica::attach(db);
//! let handle = Server::start(db, vec![replica], tpch_registry())?;
//! let mut client = Client::connect(&handle.local_addr().to_string())?;
//! let reply = client.query_named("Q6", None)?;
//! println!("{} rows from node {}", reply.rows.len(), reply.node);
//! # Ok(()) }
//! ```
//!
//! ## Static verification
//!
//! Every plan is checkable *before* it runs: [`verify::verify_plan`]
//! infers the full output schema (types, widths, nullability) against
//! the live catalog, abstractly interprets every predicate program the
//! plan would compile (its scalar register IR), and returns
//! structured [`verify::Diagnostic`]s with plan-path locations instead
//! of letting a malformed tree surface as an internal error mid-scan.
//! Every build runs [`verify::check_plan`] as a gate in front of the
//! execution entry points, once per statement (a plan that arrives over
//! the wire is verified like any other); CI runs the `taurus-verify`
//! binary over every registry plan and NDP descriptor program (see
//! `DESIGN.md`, "Static verification").
//!
//! Start with [`prelude`] and `examples/quickstart.rs`; `DESIGN.md` maps
//! the crate layout onto the paper's architecture (see its "Read
//! replicas" section for the replication design). Hand-built plan trees
//! (`taurus::optimizer::plan`) and `execute(plan, ctx)` remain available
//! as the internal lowering target — the TPC-H plan builders and parity
//! tests use them — but applications should not need them.

pub use taurus_btree as btree;
pub use taurus_bufferpool as bufferpool;
pub use taurus_common as common;
pub use taurus_executor as executor;
pub use taurus_expr as expr;
pub use taurus_logstore as logstore;
pub use taurus_mvcc as mvcc;
pub use taurus_ndp as ndp;
pub use taurus_optimizer as optimizer;
pub use taurus_page as page;
pub use taurus_pagestore as pagestore;
pub use taurus_protocol as protocol;
pub use taurus_replica as replica;
pub use taurus_sal as sal;
pub use taurus_server as server;
pub use taurus_sql as sql;
pub use taurus_tpch as tpch;
pub use taurus_verify as verify;

/// The commonly-used surface of the whole system: the session/query
/// facade, schema DDL types, and values.
pub mod prelude {
    pub use taurus_common::schema::{Column, Row, TableSchema};
    pub use taurus_common::{
        ClusterConfig, DataType, Date32, Dec, Error, Metrics, MetricsSnapshot, NdpConfig, Result,
        RowBatch, Value,
    };
    pub use taurus_executor::dsl::{col, date, dec, lit, nth, QExpr};
    pub use taurus_executor::{Agg, Explained, QueryBuilder, QueryRun, RowStream, Session};
    pub use taurus_ndp::{Table, TaurusDb};
    pub use taurus_replica::Replica;
    pub use taurus_server::{tpch_registry, Client, QueryReply, Server, ServerHandle};
    pub use taurus_sql::{SessionSqlExt, SqlOutput};
    pub use taurus_verify::{check_plan, verify_plan, Diagnostic};
}
