//! The public query facade: [`Session`] and [`QueryBuilder`].
//!
//! The paper's encapsulation claim — "the MySQL query execution layers
//! above the storage engine are unaware of NDP processing" — holds at this
//! API boundary too: callers name tables and columns, compose filters and
//! aggregates, and get rows back. Whether predicates, projections, or
//! aggregates execute inside Page Stores is decided internally: every
//! built plan runs through the optimizer's §IV-B NDP post-processing pass
//! before execution (unless the session's `ndp` switch is off — the
//! equivalent of MySQL's `optimizer_switch`, used by the A/B examples and
//! benchmarks).
//!
//! ```no_run
//! # use taurus_executor::{dsl::col, Agg, Session};
//! # fn demo(db: &std::sync::Arc<taurus_ndp::TaurusDb>) -> taurus_common::Result<()> {
//! let session = Session::new(db);
//! let avg = session
//!     .query("worker")?
//!     .filter(col("age").lt(40))
//!     .agg(Agg::avg("salary"))
//!     .collect_rows()?;
//! # let _ = avg; Ok(())
//! # }
//! ```
//!
//! A [`Session`] owns the MVCC read view: every query it builds sees the
//! same snapshot, replacing ad-hoc `ExecContext` construction. The legacy
//! `execute(plan, ctx)` path still exists underneath — the builder lowers
//! onto it, and parity tests compare the two directly.

use std::sync::Arc;

use taurus_common::metrics::CpuGuard;
use taurus_common::schema::Row;
use taurus_common::{Error, QueryCtx, Result, TenantId, TrxId};
use taurus_expr::ast::Expr;
use taurus_ndp::{ReadView, Table, TaurusDb};
use taurus_optimizer::ndp_post::{ndp_post_process, NdpReport};
use taurus_optimizer::plan::{AggFuncEx, AggItem, AggScanNode, Plan, ScanNode};

use crate::dsl::{ColRef, QExpr};
use crate::exec::{execute, ExecContext};
use crate::stream::RowStream;
use crate::QueryRun;

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

    pub fn set_tenant(&mut self, tenant: TenantId) {
        self.tenant = tenant;
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

    /// Whether NDP post-processing applies to plans built in this session.
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

    /// Start a query against `table`. Fails immediately if the table does
    /// not exist — or, on a replica, if the node may not serve: a
    /// detached replica (tailer stopped), one lagging beyond
    /// `replica.max_lag_lsn`, or a transaction-bound session (replicas
    /// are read-only; only snapshot sessions make sense there).
    pub fn query(&self, table: &str) -> Result<QueryBuilder<'_>> {
        self.check_replica_session()?;
        let table = self.db.table(table).map_err(|_| {
            Error::NameResolution(format!(
                "table `{table}` not found (known tables: {})",
                known_tables(&self.db)
            ))
        })?;
        Ok(QueryBuilder {
            session: self,
            table,
            index: 0,
            filters: Vec::new(),
            select: None,
            group: Vec::new(),
            aggs: Vec::new(),
            order: Vec::new(),
            limit: None,
            degree: None,
            err: None,
        })
    }

    /// Escape hatch: run a prebuilt [`Plan`] under this session's read
    /// view (parity tests and the TPC-H plan builders use this). The
    /// plan executes through the operator pipeline; this terminal merely
    /// collects every batch.
    pub fn execute_plan(&self, plan: &Plan) -> Result<Vec<Row>> {
        let ctx = ExecContext {
            db: &self.db,
            view: self.view.clone(),
            qctx: self.query_ctx(),
        };
        execute(plan, &ctx)
    }

    /// Escape hatch: stream a prebuilt [`Plan`] under this session's read
    /// view. Any plan streams; pipeline breakers materialize at their
    /// breaker inside the pipeline, and dropping the stream cancels the
    /// producing scans.
    pub fn stream_plan(&self, plan: Plan) -> RowStream {
        RowStream::spawn_plan(self.db.clone(), plan, self.view.clone(), self.query_ctx())
    }

    /// MVCC point lookup under this session's read view.
    pub fn lookup(&self, table: &str, pk: &[taurus_common::Value]) -> Result<Option<Row>> {
        self.check_replica_session()?;
        let t = self.db.table(table)?;
        self.db.lookup_row(&t, &self.view, pk)
    }

    /// Replica guardrails shared by every serving entry point: the node
    /// must be serveable (attached, within the lag contract) and the
    /// session must be a snapshot session (a transaction-bound session on
    /// a read-only node could never see its transaction's writes).
    fn check_replica_session(&self) -> Result<()> {
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

fn known_tables(db: &TaurusDb) -> String {
    let mut names: Vec<String> = db.tables().iter().map(|t| t.schema.name.clone()).collect();
    names.sort();
    names.join(", ")
}

/// What an aggregate runs over: a bare `&str` names a *column*
/// (`Agg::sum("l_quantity")`), and any [`QExpr`] gives a full expression
/// (`Agg::sum(col("l_extendedprice").mul(col("l_discount")))`).
#[derive(Clone, Debug)]
pub struct AggInput(QExpr);

impl From<&str> for AggInput {
    fn from(column: &str) -> AggInput {
        AggInput(QExpr::Col(column.to_string()))
    }
}

impl From<usize> for AggInput {
    fn from(position: usize) -> AggInput {
        AggInput(QExpr::Nth(position))
    }
}

impl From<QExpr> for AggInput {
    fn from(e: QExpr) -> AggInput {
        AggInput(e)
    }
}

/// An aggregate item for [`QueryBuilder::agg`].
#[derive(Clone, Debug)]
pub struct Agg {
    func: AggFuncEx,
    input: Option<QExpr>,
}

impl Agg {
    pub fn count_star() -> Agg {
        Agg {
            func: AggFuncEx::CountStar,
            input: None,
        }
    }

    pub fn count(input: impl Into<AggInput>) -> Agg {
        Agg {
            func: AggFuncEx::Count,
            input: Some(input.into().0),
        }
    }

    pub fn sum(input: impl Into<AggInput>) -> Agg {
        Agg {
            func: AggFuncEx::Sum,
            input: Some(input.into().0),
        }
    }

    pub fn min(input: impl Into<AggInput>) -> Agg {
        Agg {
            func: AggFuncEx::Min,
            input: Some(input.into().0),
        }
    }

    pub fn max(input: impl Into<AggInput>) -> Agg {
        Agg {
            func: AggFuncEx::Max,
            input: Some(input.into().0),
        }
    }

    pub fn avg(input: impl Into<AggInput>) -> Agg {
        Agg {
            func: AggFuncEx::Avg,
            input: Some(input.into().0),
        }
    }
}

/// EXPLAIN output plus the optimizer's per-table NDP decision reports.
#[derive(Clone, Debug)]
pub struct Explained {
    /// Listing-2-shaped plan rendering (NDP annotations included).
    pub text: String,
    /// One report per table access, pre-order.
    pub reports: Vec<NdpReport>,
}

impl std::fmt::Display for Explained {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.text)?;
        for r in &self.reports {
            writeln!(
                f,
                "   [{}] est_io={:.0} pages, filter_factor={:.3}, projection={}, aggregate={}{}",
                r.table,
                r.est_io_pages,
                r.filter_factor,
                r.projection,
                r.aggregation,
                if r.gated_by_io {
                    " (NDP gated: below min-IO threshold)"
                } else {
                    ""
                },
            )?;
        }
        Ok(())
    }
}

/// Fluent single-table query builder; see the module docs.
///
/// Resolution errors (unknown column, out-of-range position) are deferred:
/// the first one is stored and surfaced by whichever terminal runs, so
/// chains stay fluent.
pub struct QueryBuilder<'s> {
    session: &'s Session,
    table: Arc<Table>,
    index: usize,
    /// Resolved predicate conjuncts over table columns.
    filters: Vec<Expr>,
    /// Explicitly selected table columns (`None` = all, or group/agg).
    select: Option<Vec<usize>>,
    group: Vec<usize>,
    aggs: Vec<AggItem>,
    /// (result-row position, descending).
    order: Vec<(usize, bool)>,
    limit: Option<usize>,
    degree: Option<usize>,
    err: Option<Error>,
}

impl QueryBuilder<'_> {
    fn fail(mut self, e: Error) -> Self {
        if self.err.is_none() {
            self.err = Some(e);
        }
        self
    }

    /// Scan via a named secondary index instead of the primary.
    pub fn via_index(mut self, name: &str) -> Self {
        match self.table.find_index(name) {
            Some(i) => {
                self.index = i;
                self
            }
            None => {
                let e = Error::NameResolution(format!(
                    "index `{name}` not found on table `{}`",
                    self.table.schema.name
                ));
                self.fail(e)
            }
        }
    }

    /// Add a predicate (AND-combined with previous filters). Top-level
    /// AND conjuncts are split so the optimizer can push them down
    /// individually.
    pub fn filter(mut self, predicate: impl Into<QExpr>) -> Self {
        match predicate.into().resolve(&self.table.schema) {
            Ok(Expr::And(conjuncts)) => {
                self.filters.extend(conjuncts);
                self
            }
            Ok(e) => {
                self.filters.push(e);
                self
            }
            Err(e) => self.fail(e),
        }
    }

    /// Choose the output columns (by name or position). Without `select`,
    /// a plain query returns all columns and an aggregate query returns
    /// `group columns ++ aggregates`.
    pub fn select<C: Into<ColRef>>(mut self, cols: impl IntoIterator<Item = C>) -> Self {
        let mut resolved = Vec::new();
        for c in cols {
            match c.into().resolve(&self.table.schema) {
                Ok(i) => resolved.push(i),
                Err(e) => return self.fail(e),
            }
        }
        self.select = Some(resolved);
        self
    }

    /// GROUP BY the given columns. Aggregation streams during the scan,
    /// which requires the group columns to be a prefix of the chosen
    /// index key (rows then arrive already grouped) — anything else is
    /// reported as [`Error::Unsupported`] by the terminal.
    pub fn group_by<C: Into<ColRef>>(mut self, cols: impl IntoIterator<Item = C>) -> Self {
        let mut resolved = Vec::new();
        for c in cols {
            match c.into().resolve(&self.table.schema) {
                Ok(i) => resolved.push(i),
                Err(e) => return self.fail(e),
            }
        }
        self.group = resolved;
        self
    }

    /// Add an aggregate to the output.
    pub fn agg(mut self, agg: Agg) -> Self {
        let input = match agg.input {
            None => None,
            Some(q) => match q.resolve(&self.table.schema) {
                Ok(e) => Some(e),
                Err(e) => return self.fail(e),
            },
        };
        self.aggs.push(AggItem {
            func: agg.func,
            input,
        });
        self
    }

    /// ORDER BY a result-row position (0-based into the query's output).
    pub fn order_by(mut self, result_position: usize, descending: bool) -> Self {
        self.order.push((result_position, descending));
        self
    }

    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Run the scan stage with parallel-query workers (§VI).
    pub fn parallel(mut self, degree: usize) -> Self {
        self.degree = Some(degree);
        self
    }

    // --- plan construction --------------------------------------------------

    /// A secondary index stores only `key ++ pk` columns; anything else the
    /// query references must be reported here, by name, rather than as an
    /// opaque execution-time failure.
    fn check_index_coverage(&self, output: &[usize]) -> Result<()> {
        let def = &self.table.index(self.index).tree.def;
        if def.is_primary {
            return Ok(());
        }
        let stored = def.stored_cols();
        if let Some(&missing) = output.iter().find(|c| !stored.contains(c)) {
            let schema = &self.table.schema;
            return Err(Error::Unsupported(format!(
                "column `{}` is not stored in secondary index `{}` (stored: {}); \
                 scan via the primary index instead",
                schema.columns[missing].name,
                def.name,
                stored
                    .iter()
                    .map(|&c| schema.columns[c].name.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
            )));
        }
        Ok(())
    }

    /// Build the un-optimized plan; terminals call [`QueryBuilder::plan`]
    /// which also runs the NDP pass.
    fn build(&self) -> Result<Plan> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        let schema = &self.table.schema;
        let mut predicate_cols: Vec<usize> = Vec::new();
        for f in &self.filters {
            predicate_cols.extend(f.columns());
        }

        let (plan, width) = if self.aggs.is_empty() && self.group.is_empty() {
            // Plain scan. Deliver the selected columns plus whatever the
            // residual predicates need; hide the extras with a projection.
            let user_cols: Vec<usize> = match &self.select {
                Some(cols) => cols.clone(),
                None => (0..schema.columns.len()).collect(),
            };
            let mut output = user_cols.clone();
            for &c in &predicate_cols {
                if !output.contains(&c) {
                    output.push(c);
                }
            }
            let extras = output.len() > user_cols.len();
            self.check_index_coverage(&output)?;
            let scan = ScanNode::new(&schema.name, output)
                .with_index(self.index)
                .with_predicate(self.filters.clone());
            // PQ wraps the scan itself, beneath any projection.
            let mut plan = Plan::Scan(scan);
            if let Some(d) = self.degree {
                plan = plan.exchange(d);
            }
            if extras {
                plan = plan.project((0..user_cols.len()).map(Expr::Col).collect());
            }
            (plan, user_cols.len())
        } else {
            // Aggregation fused onto the scan (the only NDP-eligible
            // shape, §V-C). Streaming group-by needs index order.
            if self.select.is_some() {
                return Err(Error::Unsupported(
                    "select() cannot be combined with group_by()/agg(): an \
                     aggregate query returns `group columns ++ aggregates`"
                        .into(),
                ));
            }
            let key = self.table.index(self.index).tree.def.effective_key_cols();
            let group_is_prefix = self.group.len() <= key.len()
                && self.group.iter().zip(key.iter()).all(|(a, b)| a == b);
            if !group_is_prefix {
                let names = |cols: &[usize]| {
                    cols.iter()
                        .map(|&c| schema.columns[c].name.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                return Err(Error::Unsupported(format!(
                    "GROUP BY ({}) is not a prefix of index `{}` key ({}); \
                     streaming aggregation requires key-prefix grouping",
                    names(&self.group),
                    self.table.index(self.index).tree.def.name,
                    names(&key),
                )));
            }
            let mut output: Vec<usize> = self.group.clone();
            for item in &self.aggs {
                if let Some(e) = &item.input {
                    for c in e.columns() {
                        if !output.contains(&c) {
                            output.push(c);
                        }
                    }
                }
            }
            for &c in &predicate_cols {
                if !output.contains(&c) {
                    output.push(c);
                }
            }
            self.check_index_coverage(&output)?;
            let scan = ScanNode::new(&schema.name, output)
                .with_index(self.index)
                .with_predicate(self.filters.clone());
            let mut plan = Plan::AggScan(AggScanNode {
                scan,
                group_cols: self.group.clone(),
                aggs: self.aggs.clone(),
            });
            if let Some(d) = self.degree {
                plan = plan.exchange(d);
            }
            (plan, self.group.len() + self.aggs.len())
        };

        finish_ordering(plan, width, &self.order, self.limit)
    }

    /// The optimized plan this builder lowers to: built, then run through
    /// the §IV-B NDP post-processing pass (when the session has NDP on).
    /// Builder bugs (and NDP post-processing bugs) are rejected with
    /// structured diagnostics by the verification gate every executing
    /// terminal passes; `explain`, which executes nothing, verifies here.
    pub fn plan(&self) -> Result<(Plan, Vec<NdpReport>)> {
        let mut plan = self.build()?;
        let reports = if self.session.ndp {
            ndp_post_process(&mut plan, &self.session.db)?
        } else {
            Vec::new()
        };
        Ok((plan, reports))
    }

    // --- terminals ----------------------------------------------------------

    /// EXPLAIN: the optimized plan rendering plus per-table NDP reports.
    pub fn explain(&self) -> Result<Explained> {
        let (plan, reports) = self.plan()?;
        taurus_verify::check_plan(&plan, &self.session.db)?;
        Ok(Explained {
            text: taurus_optimizer::explain(&plan, &self.session.db),
            reports,
        })
    }

    /// Execute and stream rows. Every plan streams batch-at-a-time from
    /// its lowered operator tree, a plain scan's from its one scan
    /// operator (pipeline breakers — aggregates, sorts, PQ gather —
    /// materialize only at their breaker). A full result set is never materialized at the API
    /// boundary, and dropping the stream cancels the producing scans.
    pub fn stream(self) -> Result<RowStream> {
        let (plan, _) = self.plan()?;
        Ok(RowStream::spawn_plan(
            self.session.db.clone(),
            plan,
            self.session.view.clone(),
            self.session.query_ctx(),
        ))
    }

    /// Execute and materialize all rows.
    pub fn collect_rows(self) -> Result<Vec<Row>> {
        let (plan, _) = self.plan()?;
        self.session.execute_plan(&plan)
    }

    /// Execute, returning rows plus the measurements the paper's figures
    /// are made of (wall time, SQL-node CPU, network bytes).
    pub fn run(self) -> Result<QueryRun> {
        let (plan, _) = self.plan()?;
        let db = &self.session.db;
        let before = db.metrics().snapshot();
        let t0 = std::time::Instant::now();
        let rows = {
            let _cpu = CpuGuard::new(&db.metrics().compute_cpu_ns);
            self.session.execute_plan(&plan)?
        };
        let wall = t0.elapsed();
        let delta = db.metrics().snapshot().since(&before);
        Ok(QueryRun { rows, wall, delta })
    }
}

/// Apply ORDER BY / LIMIT with result-position validation.
fn finish_ordering(
    plan: Plan,
    width: usize,
    order: &[(usize, bool)],
    limit: Option<usize>,
) -> Result<Plan> {
    for &(pos, _) in order {
        if pos >= width {
            return Err(Error::NameResolution(format!(
                "ORDER BY position {pos} out of range for a {width}-column result"
            )));
        }
    }
    Ok(match (order.is_empty(), limit) {
        (false, Some(n)) => plan.top_n(order.to_vec(), n),
        (false, None) => plan.sort(order.to_vec()),
        (true, Some(n)) => plan.limit(n),
        (true, None) => plan,
    })
}
