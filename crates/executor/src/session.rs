//! The public query facade: [`Session`].
//!
//! A session is a database handle plus the MVCC read view all of its
//! queries share. Queries reach it as SQL text (`taurus_sql`: parse, bind
//! against this session's catalog, execute here) or as prebuilt
//! [`Plan`]s ([`Session::execute_plan`] / [`Session::stream_plan`]):
//!
//! ```no_run
//! # use taurus_executor::Session;
//! # use taurus_optimizer::plan::{Plan, ScanNode};
//! # fn demo(db: &std::sync::Arc<taurus_ndp::TaurusDb>) -> taurus_common::Result<()> {
//! let session = Session::new(db);
//! // Columns 0 and 3 of every `worker` row, in primary-key order.
//! let scan = Plan::Scan(ScanNode::new("worker", vec![0, 3]));
//! for row in session.stream_plan(scan).take(10) {
//!     println!("{:?}", row?);
//! }
//! # Ok(()) }
//! ```
//!
//! The paper's encapsulation claim — "the MySQL query execution layers
//! above the storage engine are unaware of NDP processing" — holds at this
//! boundary too: callers name tables and columns and get rows back.
//! Whether predicates, projections, or aggregates execute inside Page
//! Stores is decided by the optimizer's §IV-B NDP post-processing pass,
//! which the binder runs when the session's `ndp` switch is on (the
//! equivalent of MySQL's `optimizer_switch`, used by the A/B examples and
//! benchmarks).
//!
//! Every execution entry point ([`Session::execute_plan`],
//! [`Session::stream_plan`], [`Session::lookup`]) passes one serveability
//! gate before any scan starts: on a read replica, a detached node, one
//! lagging beyond `replica.max_lag_lsn`, or a transaction-bound session is
//! refused rather than served a stale or meaningless snapshot.

use std::sync::Arc;

use taurus_common::schema::Row;
use taurus_common::{Error, QueryCtx, Result, TenantId, TrxId};
use taurus_ndp::{ReadView, TaurusDb};
use taurus_optimizer::plan::Plan;

use crate::exec::{execute, ExecContext};
use crate::stream::RowStream;

/// A session: a database handle plus the MVCC read view all of its
/// queries share. Create one per logical "connection"/snapshot.
pub struct Session {
    db: Arc<TaurusDb>,
    view: ReadView,
    trx: TrxId,
    ndp: bool,
    /// Tenant this session's queries are attributed to: Page-Store
    /// admission control bills NDP work (and quota rejections) to it.
    tenant: TenantId,
    /// Optional per-query wall-clock budget: each query stamps its own
    /// deadline from this when execution starts.
    budget_ms: Option<u64>,
}

impl Session {
    /// Open a session reading the current committed state.
    pub fn new(db: &Arc<TaurusDb>) -> Session {
        Session::for_trx(db, 0)
    }

    /// Open a session with the snapshot a given transaction would see.
    pub fn for_trx(db: &Arc<TaurusDb>, trx: TrxId) -> Session {
        Session {
            db: db.clone(),
            view: db.read_view(trx),
            trx,
            ndp: true,
            tenant: taurus_common::DEFAULT_TENANT,
            budget_ms: None,
        }
    }

    /// Attribute this session's queries to a tenant: Page-Store admission
    /// control bills NDP work (and quota rejections) to it, and the
    /// server's per-tenant metrics break out under its id.
    pub fn with_tenant(mut self, tenant: TenantId) -> Session {
        self.tenant = tenant;
        self
    }

    /// Set a wall-clock budget applied to each query individually: the
    /// deadline is stamped when execution starts, and scans/reads past it
    /// fail with `Error::DeadlineExceeded` instead of stalling on a
    /// degraded Page Store. `0` clears the budget.
    pub fn set_query_budget_ms(&mut self, ms: u64) {
        self.budget_ms = if ms == 0 { None } else { Some(ms) };
    }

    /// Stamp the governance context for a query starting *now*: the
    /// session's tenant plus a fresh deadline from the budget (if any).
    pub fn query_ctx(&self) -> QueryCtx {
        QueryCtx::for_tenant(self.tenant).with_budget_ms(self.budget_ms.unwrap_or(0))
    }

    /// Session-level NDP switch (the facade's `optimizer_switch`): with
    /// `false`, plans skip the NDP post-processing pass and every scan
    /// takes the classical path. Results never change — only where the
    /// filtering/aggregation work happens.
    pub fn with_ndp(mut self, enabled: bool) -> Session {
        self.ndp = enabled;
        self
    }

    pub fn set_ndp(&mut self, enabled: bool) {
        self.ndp = enabled;
    }

    /// Whether NDP post-processing applies to plans bound in this session.
    pub fn ndp(&self) -> bool {
        self.ndp
    }

    /// Re-snapshot (same transaction identity): subsequent queries see
    /// commits made since the session was opened, and a `for_trx` session
    /// keeps seeing its own transaction's writes.
    ///
    /// On a **replica**, the new view is the replicated boundary snapshot
    /// (commits the log tailer has published), never one derived from the
    /// replica's local `TrxManager` — a local view would declare every
    /// master transaction visible and serve torn half-transactions.
    /// `TaurusDb::read_view` enforces this for every caller.
    pub fn refresh(&mut self) {
        self.view = self.db.read_view(self.trx);
    }

    pub fn db(&self) -> &Arc<TaurusDb> {
        &self.db
    }

    pub fn view(&self) -> &ReadView {
        &self.view
    }

    /// Run a [`Plan`] (bound from SQL, or built by hand) under this
    /// session's read view, collecting every batch of its operator
    /// pipeline.
    pub fn execute_plan(&self, plan: &Plan) -> Result<Vec<Row>> {
        self.check_serveable()?;
        let ctx = ExecContext {
            db: &self.db,
            view: self.view.clone(),
            qctx: self.query_ctx(),
        };
        execute(plan, &ctx)
    }

    /// Stream a [`Plan`] under this session's read view. Any plan
    /// streams; pipeline breakers materialize at their breaker inside the
    /// pipeline, and dropping the stream cancels the producing scans. A
    /// refusal (the serveability gate, the plan verifier) is the stream's
    /// one item, before any operator opens.
    pub fn stream_plan(&self, plan: Plan) -> RowStream {
        if let Err(e) = self.check_serveable() {
            return RowStream::fail(e);
        }
        RowStream::spawn_plan(self.db.clone(), plan, self.view.clone(), self.query_ctx())
    }

    /// MVCC point lookup under this session's read view.
    pub fn lookup(&self, table: &str, pk: &[taurus_common::Value]) -> Result<Option<Row>> {
        self.check_serveable()?;
        let t = self.db.table(table)?;
        self.db.lookup_row(&t, &self.view, pk)
    }

    /// The serveability gate of every execution entry point: the node
    /// must be serveable (attached, within the lag contract) and, on a
    /// replica, the session must be a snapshot session (a
    /// transaction-bound session on a read-only node could never see its
    /// transaction's writes).
    fn check_serveable(&self) -> Result<()> {
        self.db.check_serveable()?;
        if self.db.is_replica() && self.trx != 0 {
            return Err(Error::Unsupported(
                "transaction-bound session on a read replica: replicas are read-only; \
                 use a snapshot session (Session::new)"
                    .into(),
            ));
        }
        Ok(())
    }
}
