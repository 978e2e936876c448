//! The batch-native pull executor, parallel query (§III, §VI), and the
//! public query facade.
//!
//! * [`session`] — the **public API**: [`Session`] owns the MVCC read
//!   view and runs plans — bound from SQL text by `taurus_sql`, or built
//!   by hand — behind one serveability gate; [`RowStream`] streams *any*
//!   plan's results batch-at-a-time; [`QueryRun::measure`] times a query
//!   the way the paper's figures do.
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
//!   pipeline (the TPC-H plan builders and parity tests use it).
//! * [`parallel`] — PQ: range partitioning, workers pulling operators
//!   over their range of the scan, leader merge (surfaced as the
//!   pipeline's `Gather`).
//!
//! [`Plan`]: taurus_optimizer::plan::Plan

pub mod exec;
pub mod op;
pub mod parallel;
pub mod session;
pub mod stream;

pub use exec::{execute, ExecContext};
pub use op::{lower, BoxOp, Operator};
pub use session::Session;
pub use stream::RowStream;

use std::time::{Duration, Instant};

use taurus_common::metrics::CpuGuard;
use taurus_common::schema::Row;
use taurus_common::{MetricsSnapshot, Result};
use taurus_ndp::TaurusDb;

/// A query's results plus the measurements the paper's figures are made of.
#[derive(Clone, Debug)]
pub struct QueryRun {
    pub rows: Vec<Row>,
    pub wall: Duration,
    /// Metrics delta over the run (network bytes, SQL-node CPU, pages...).
    pub delta: MetricsSnapshot,
}

impl QueryRun {
    /// Run `query` once against `db`, measuring its wall time and the
    /// metrics it moved; the calling thread's CPU counts as SQL-node CPU
    /// (`compute_cpu_ns`), as the executor's own threads do.
    pub fn measure(db: &TaurusDb, query: impl FnOnce() -> Result<Vec<Row>>) -> Result<QueryRun> {
        let before = db.metrics().snapshot();
        let t0 = Instant::now();
        let rows = {
            let _cpu = CpuGuard::new(&db.metrics().compute_cpu_ns);
            query()?
        };
        let wall = t0.elapsed();
        let delta = db.metrics().snapshot().since(&before);
        Ok(QueryRun { rows, wall, delta })
    }
}
