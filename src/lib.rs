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
//! The public surface is a [`prelude::Session`] plus SQL text. Callers
//! name tables and columns; NDP pushdown, read-view selection, and
//! partial-aggregate merging are internal decisions — the API-level
//! mirror of the paper's claim that "the MySQL query execution layers
//! above the storage engine are unaware of NDP processing". [`sql`] is a
//! hand-written lexer + recursive-descent parser and a catalog-aware
//! binder that lowers onto the plan layer, so NDP pushdown and the static
//! plan gate apply to SQL text unchanged. All 22 TPC-H queries are
//! expressible ([`sql::tpch_sql`]) and byte-reproduce the hand-built
//! registry plans; malformed text fails closed with a positioned
//! `Error::Parse`:
//!
//! ```no_run
//! use taurus::prelude::*;
//!
//! # fn demo(db: &std::sync::Arc<TaurusDb>) -> Result<()> {
//! let session = Session::new(db);
//!
//! // Scalar aggregate over one table: it aggregates during the scan, and
//! // AVG pushes down to the Page Stores as SUM+COUNT when worthwhile.
//! let rows = session.sql("select avg(salary) from worker where age < 40")?;
//!
//! // Joins, grouping, ORDER BY: the same entry point.
//! let by_nation = session.sql(
//!     "select n_name, count(*) from customer \
//!      join nation on c_nationkey = n_nationkey \
//!      group by n_name order by n_name",
//! )?;
//!
//! // EXPLAIN: the Listing-2-style NDP annotations, the physical pipeline
//! // and the optimizer's per-table decision reports, one line per row.
//! for line in session.sql("explain select avg(salary) from worker where age < 40")? {
//!     println!("{}", line[0]);
//! }
//!
//! // Streaming: bind, then pull rows from storage on demand; dropping
//! // the stream early stops the scan. No full materialization.
//! let Statement::Select(select) = parse("select id, name from worker where age >= 60")? else {
//!     unreachable!("a SELECT")
//! };
//! for row in session.stream_plan(bind(&session, &select)?).take(10) {
//!     println!("{:?}", row?);
//! }
//! # let _ = (rows, by_nation); Ok(()) }
//! ```
//!
//! Hand-built plan trees (`taurus::optimizer::plan`) run through the same
//! session ([`prelude::Session::execute_plan`] /
//! [`prelude::Session::stream_plan`]): the TPC-H plan builders, parallel
//! query (`Plan::exchange`) and the parity tests use them.
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
//! let rows = Session::new(replica.db()).sql("select count(*) from worker")?;
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
//! replicas" section for the replication design).

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

/// The commonly-used surface of the whole system: sessions and SQL, schema
/// DDL types, and values.
pub mod prelude {
    pub use taurus_common::schema::{Column, Row, TableSchema};
    pub use taurus_common::{
        ClusterConfig, DataType, Date32, Dec, Error, Metrics, MetricsSnapshot, NdpConfig, Result,
        RowBatch, Value,
    };
    pub use taurus_executor::{QueryRun, RowStream, Session};
    pub use taurus_ndp::{Table, TaurusDb};
    pub use taurus_replica::Replica;
    pub use taurus_server::{tpch_registry, Client, QueryReply, Server, ServerHandle};
    pub use taurus_sql::{bind, parse, SessionSqlExt, SqlOutput, Statement};
    pub use taurus_verify::{check_plan, verify_plan, Diagnostic};
}
