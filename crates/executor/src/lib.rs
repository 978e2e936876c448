//! The batch-native pull executor, parallel query (§III, §VI), and the
//! public query facade.
//!
//! * [`session`] — the **public API**: [`Session`] owns the MVCC read
//!   view; [`QueryBuilder`] resolves names, builds the plan, and always
//!   routes it through the optimizer's NDP post-processing pass;
//!   [`RowStream`] streams *any* plan's results batch-at-a-time.
//! * [`dsl`] — named-column expression trees the builder resolves.
//! * [`op`] — the physical operator pipeline: every [`Plan`] variant
//!   lowers to an [`op::Operator`] with the
//!   `open()/next_batch()/close()` pull contract; batches flow between
//!   operators, pipeline breakers materialize only at their breaker, and
//!   `LIMIT`/dropped streams cancel producing scans through channel
//!   backpressure. It is the one way a plan runs: `execute`, a
//!   [`RowStream`]'s producer and each PQ worker all open, drain and
//!   close a lowered tree.
//! * [`exec`] — shared execution machinery (NDP-aware scan specs,
//!   stream/hash aggregation with partial-merge support, lookup probing)
//!   plus `execute(plan, ctx)`, the materializing collect over the
//!   pipeline (the TPC-H builders and parity tests use it).
//! * [`parallel`] — PQ: range partitioning, workers pulling operators
//!   over their range of the scan, leader merge (surfaced as the
//!   pipeline's `Gather`).
//!
//! [`Plan`]: taurus_optimizer::plan::Plan

pub mod dsl;
pub mod exec;
pub mod op;
pub mod parallel;
pub mod session;
pub mod stream;

pub use exec::{execute, ExecContext};
pub use op::{lower, BoxOp, Operator};
pub use session::{Agg, Explained, QueryBuilder, Session};
pub use stream::RowStream;

use taurus_common::schema::Row;
use taurus_common::MetricsSnapshot;

/// A query's results plus the measurements the paper's figures are made of.
#[derive(Clone, Debug)]
pub struct QueryRun {
    pub rows: Vec<Row>,
    pub wall: std::time::Duration,
    /// Metrics delta over the run (network bytes, SQL-node CPU, pages...).
    pub delta: MetricsSnapshot,
}
