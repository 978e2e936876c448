//! The batch-native pull executor, parallel query (§III, §VI), and the
//! public query facade.
//!
//! * [`session`] — the **public API**: [`Session`] owns the MVCC read
//!   view and runs plans — bound from SQL text by `taurus_sql`, or built
//!   by hand — behind one serveability gate, collected
//!   (`execute_plan`) or batch by batch into a sink (`run_plan`);
//!   [`QueryRun::measure`] times a query the way the paper's figures do.
//! * [`op`] — the physical operator pipeline: every [`Plan`] variant
//!   lowers to an [`op::Operator`] with the
//!   `open()/next_batch()/close()` pull contract; batches flow between
//!   operators, pipeline breakers materialize only at their breaker, and
//!   `LIMIT` or a sink that answers `false` cancels producing scans
//!   through channel backpressure.
//! * [`exec`] — [`run`], the one way into execution: it verifies a plan,
//!   lowers it, and drains the root on the calling thread into a sink
//!   (`execute` collects through it, and so do the sessions and the
//!   server). Plus the shared machinery: NDP-aware scan specs,
//!   stream/hash aggregation with partial-merge support, lookup probing.
//! * [`parallel`] — PQ: range partitioning, workers pulling operators
//!   over their range of the scan (or folding it into an accumulator),
//!   leader merge (surfaced as the pipeline's `Gather`).
//!
//! [`Plan`]: taurus_optimizer::plan::Plan

pub mod exec;
pub mod op;
pub mod parallel;
pub mod session;

pub use exec::{execute, run, ExecContext};
pub use op::{lower, BoxOp, Operator};
pub use session::Session;

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
