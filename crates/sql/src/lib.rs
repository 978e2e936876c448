//! SQL text frontend for the Taurus NDP reproduction.
//!
//! A hand-written [`lexer`], a recursive-descent [`parser`] producing a
//! typed AST ([`ast`]), and a catalog [`bind`]er that lowers the AST onto
//! the existing plan layer. Because binding produces ordinary
//! [`taurus_optimizer::plan::Plan`]s, everything downstream applies to
//! SQL text unchanged: NDP predicate pushdown, the static plan
//! verifier's pre-execution gate, and the wire protocol's streaming
//! replies.
//!
//! The supported subset is the shape of the paper's workload: SELECT with
//! INNER/LEFT joins (`FORCE INDEX` choosing the index a table is scanned
//! through, or requesting a lookup join on a join's right side), WHERE with
//! `[NOT] EXISTS` / `[NOT] IN (SELECT ...)` / scalar subqueries, GROUP BY
//! with the standard aggregates (plus a single `COUNT(DISTINCT ...)`),
//! HAVING, ORDER BY, LIMIT, and derived tables. All 22 TPC-H queries are
//! expressible ([`tpch_sql`]) and produce results byte-equal to the
//! hand-built registry plans.
//!
//! Every failure — lexing, parsing, or binding — is a positioned
//! [`taurus_common::Error::Parse`] (`line L, col C: ...`), which the wire
//! protocol already carries as error code 1.

pub mod ast;
pub mod bind;
pub mod lexer;
pub mod parser;
pub mod tpch_sql;

pub use ast::{SelectStmt, Statement};
pub use bind::bind;
pub use parser::parse;

use taurus_common::schema::Row;
use taurus_common::{Result, Value};
use taurus_executor::Session;

/// What one SQL statement produced.
pub enum SqlOutput {
    Rows(Vec<Row>),
    /// `EXPLAIN`: the plan rendering, one line per entry.
    Explain(Vec<String>),
}

/// Parse, bind, and execute one statement against a session.
///
/// `EXPLAIN SELECT ...` binds the query exactly like execution would
/// (including NDP post-processing when the session has NDP enabled) and
/// returns the plan text instead of rows.
pub fn run(session: &Session, text: &str) -> Result<SqlOutput> {
    match parse(text)? {
        Statement::Select(s) => {
            let plan = bind(session, &s)?;
            Ok(SqlOutput::Rows(session.execute_plan(&plan)?))
        }
        Statement::Explain(s) => Ok(SqlOutput::Explain(
            explain(session, &s)?.lines().map(str::to_string).collect(),
        )),
    }
}

/// `EXPLAIN`: bind the query exactly like execution would, verify the
/// plan (execution's gate never sees it) and render it: the logical tree
/// with the paper's Listing-2 annotations (`Using pushed NDP condition /
/// columns / aggregate`), the physical pipeline, and one line per table
/// access saying why the NDP pass decided what it did.
pub fn explain(session: &Session, stmt: &SelectStmt) -> Result<String> {
    let (plan, reports) = bind::bind_reported(session, stmt)?;
    taurus_verify::check_plan(&plan, session.db())?;
    let mut text = taurus_optimizer::explain(&plan, session.db());
    for r in &reports {
        // An aggregating access says how many groups a leaf is estimated
        // to form against the most that pushes.
        let groups = match r.group_limit > 0.0 {
            true => format!(
                " (groups/leaf {:.1}, limit {:.1})",
                r.groups_per_leaf, r.group_limit
            ),
            false => String::new(),
        };
        text.push_str(&format!(
            "   [{}] est_io={:.0} pages, filter_factor={:.3}, projection={}, aggregate={}{groups}, having={}{}\n",
            r.table,
            r.est_io_pages,
            r.filter_factor,
            r.projection,
            r.aggregation,
            r.having,
            if r.gated_by_io {
                " (NDP gated: below min-IO threshold)"
            } else {
                ""
            },
        ));
    }
    Ok(text)
}

/// `session.sql("select ...")` — the in-process SQL facade.
///
/// EXPLAIN output comes back as one single-column string row per plan
/// line, so callers handle both shapes uniformly.
pub trait SessionSqlExt {
    fn sql(&self, text: &str) -> Result<Vec<Row>>;
}

impl SessionSqlExt for Session {
    fn sql(&self, text: &str) -> Result<Vec<Row>> {
        match run(self, text)? {
            SqlOutput::Rows(rows) => Ok(rows),
            SqlOutput::Explain(lines) => {
                Ok(lines.into_iter().map(|l| vec![Value::str(l)]).collect())
            }
        }
    }
}
