//! The typed SQL AST and its pretty-printer.
//!
//! The printer emits a canonical, fully-parenthesized rendering that
//! re-parses to the same tree — `parse → print → parse → print` is a
//! fixed point (the proptest leg in `tests/` holds it to that). Every
//! node carries the source [`Pos`] of its first token so the binder can
//! report positioned diagnostics.

use std::fmt;

use taurus_common::Value;
use taurus_expr::ast::{ArithOp, CmpOp};

use crate::lexer::Pos;

/// An identifier (table, column, index, alias), lowercased.
#[derive(Clone, Debug, PartialEq)]
pub struct Ident {
    pub name: String,
    pub pos: Pos,
}

/// A parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    /// `EXPLAIN <select>`: render the bound physical plan as text.
    Explain(SelectStmt),
}

/// One SELECT query (also used for derived tables and subqueries).
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_: Option<SqlExpr>,
    pub group_by: Vec<SqlExpr>,
    pub having: Option<SqlExpr>,
    /// (expression, descending).
    pub order_by: Vec<(SqlExpr, bool)>,
    pub limit: Option<u64>,
}

/// One SELECT-list entry.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*` — every column of the FROM row, in order.
    Wildcard(Pos),
    Expr {
        expr: SqlExpr,
        alias: Option<Ident>,
    },
}

/// Join flavours the grammar accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

/// A FROM-clause factor: base table, derived table, or join tree.
#[derive(Clone, Debug, PartialEq)]
pub enum TableRef {
    Table {
        name: Ident,
        alias: Option<Ident>,
        /// `FORCE INDEX (name)` — requests a lookup join into this table
        /// via the named index (`primary` selects the primary index).
        force_index: Option<Ident>,
    },
    Derived {
        select: Box<SelectStmt>,
        alias: Ident,
    },
    Join {
        left: Box<TableRef>,
        kind: JoinKind,
        right: Box<TableRef>,
        on: SqlExpr,
    },
}

/// Aggregate function names (`COUNT(*)` is `Count` with no argument).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggName {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggName {
    pub fn as_str(self) -> &'static str {
        match self {
            AggName::Count => "count",
            AggName::Sum => "sum",
            AggName::Min => "min",
            AggName::Max => "max",
            AggName::Avg => "avg",
        }
    }
}

/// A scalar expression with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct SqlExpr {
    pub kind: ExprKind,
    pub pos: Pos,
}

#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    Column {
        qualifier: Option<Ident>,
        name: Ident,
    },
    Lit(Value),
    Cmp(CmpOp, Box<SqlExpr>, Box<SqlExpr>),
    And(Box<SqlExpr>, Box<SqlExpr>),
    Or(Box<SqlExpr>, Box<SqlExpr>),
    Not(Box<SqlExpr>),
    Arith(ArithOp, Box<SqlExpr>, Box<SqlExpr>),
    Neg(Box<SqlExpr>),
    Like {
        expr: Box<SqlExpr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<SqlExpr>,
        list: Vec<SqlExpr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)` — lowered to a semi/anti hash join.
    InSelect {
        expr: Box<SqlExpr>,
        select: Box<SelectStmt>,
        negated: bool,
    },
    Between {
        expr: Box<SqlExpr>,
        lo: Box<SqlExpr>,
        hi: Box<SqlExpr>,
    },
    IsNull {
        expr: Box<SqlExpr>,
        negated: bool,
    },
    Case {
        branches: Vec<(SqlExpr, SqlExpr)>,
        else_: Box<SqlExpr>,
    },
    /// Aggregate call; `arg: None` only for `COUNT(*)`.
    Agg {
        func: AggName,
        distinct: bool,
        arg: Option<Box<SqlExpr>>,
    },
    /// `EXTRACT(YEAR FROM e)`.
    ExtractYear(Box<SqlExpr>),
    /// `SUBSTRING(e FROM a FOR n)` — 1-based.
    Substr {
        expr: Box<SqlExpr>,
        from: u64,
        len: u64,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        select: Box<SelectStmt>,
        negated: bool,
    },
    /// Scalar subquery: `(SELECT ...)` in expression position.
    Scalar(Box<SelectStmt>),
}

impl SqlExpr {
    pub fn new(kind: ExprKind, pos: Pos) -> SqlExpr {
        SqlExpr { kind, pos }
    }

    /// Visit each direct sub-expression in written order, stopping at the
    /// first error (the one-level form of `taurus_expr::ast::Expr::walk`).
    /// Subqueries are not entered: `IN (SELECT ...)`'s one child is its
    /// left side, and `EXISTS` and scalar subqueries have none.
    pub(crate) fn try_for_each_child<E>(
        &self,
        mut f: impl FnMut(&SqlExpr) -> Result<(), E>,
    ) -> Result<(), E> {
        match &self.kind {
            ExprKind::Column { .. }
            | ExprKind::Lit(_)
            | ExprKind::Agg { arg: None, .. }
            | ExprKind::Exists { .. }
            | ExprKind::Scalar(_) => Ok(()),
            ExprKind::Cmp(_, a, b)
            | ExprKind::And(a, b)
            | ExprKind::Or(a, b)
            | ExprKind::Arith(_, a, b) => {
                f(a)?;
                f(b)
            }
            ExprKind::Not(a)
            | ExprKind::Neg(a)
            | ExprKind::ExtractYear(a)
            | ExprKind::Agg { arg: Some(a), .. }
            | ExprKind::Like { expr: a, .. }
            | ExprKind::IsNull { expr: a, .. }
            | ExprKind::Substr { expr: a, .. }
            | ExprKind::InSelect { expr: a, .. } => f(a),
            ExprKind::InList { expr, list, .. } => {
                f(expr)?;
                list.iter().try_for_each(f)
            }
            ExprKind::Between { expr, lo, hi } => {
                f(expr)?;
                f(lo)?;
                f(hi)
            }
            ExprKind::Case { branches, else_ } => {
                for (c, v) in branches {
                    f(c)?;
                    f(v)?;
                }
                f(else_)
            }
        }
    }
}

fn lit_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("date '{d}'"),
        other => other.to_string(),
    }
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ExprKind::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{}.{}", q.name, name.name),
                None => write!(f, "{}", name.name),
            },
            ExprKind::Lit(v) => write!(f, "{}", lit_to_string(v)),
            ExprKind::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            ExprKind::And(a, b) => write!(f, "({a} and {b})"),
            ExprKind::Or(a, b) => write!(f, "({a} or {b})"),
            ExprKind::Not(a) => write!(f, "(not {a})"),
            ExprKind::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            ExprKind::Neg(a) => write!(f, "(- {a})"),
            ExprKind::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}like '{}')",
                if *negated { "not " } else { "" },
                pattern.replace('\'', "''")
            ),
            ExprKind::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}in (", if *negated { "not " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            ExprKind::InSelect {
                expr,
                select,
                negated,
            } => write!(
                f,
                "({expr} {}in ({select}))",
                if *negated { "not " } else { "" }
            ),
            ExprKind::Between { expr, lo, hi } => {
                write!(f, "({expr} between {lo} and {hi})")
            }
            ExprKind::IsNull { expr, negated } => {
                write!(f, "({expr} is {}null)", if *negated { "not " } else { "" })
            }
            ExprKind::Case { branches, else_ } => {
                write!(f, "case")?;
                for (c, v) in branches {
                    write!(f, " when {c} then {v}")?;
                }
                write!(f, " else {else_} end")
            }
            ExprKind::Agg {
                func,
                distinct,
                arg,
            } => match arg {
                None => write!(f, "count(*)"),
                Some(a) => write!(
                    f,
                    "{}({}{a})",
                    func.as_str(),
                    if *distinct { "distinct " } else { "" }
                ),
            },
            ExprKind::ExtractYear(a) => write!(f, "extract(year from {a})"),
            ExprKind::Substr { expr, from, len } => {
                write!(f, "substring({expr} from {from} for {len})")
            }
            ExprKind::Exists { select, negated } => {
                write!(f, "{}exists ({select})", if *negated { "not " } else { "" })
            }
            ExprKind::Scalar(s) => write!(f, "({s})"),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table {
                name,
                alias,
                force_index,
            } => {
                write!(f, "{}", name.name)?;
                if let Some(ix) = force_index {
                    write!(f, " force index ({})", ix.name)?;
                }
                if let Some(a) = alias {
                    write!(f, " as {}", a.name)?;
                }
                Ok(())
            }
            TableRef::Derived { select, alias } => {
                write!(f, "({select}) as {}", alias.name)
            }
            TableRef::Join {
                left,
                kind,
                right,
                on,
            } => {
                let kw = match kind {
                    JoinKind::Inner => "join",
                    JoinKind::Left => "left join",
                };
                write!(f, "{left} {kw} ")?;
                // A join tree on the right needs parens to re-parse with
                // the same associativity.
                match **right {
                    TableRef::Join { .. } => write!(f, "({right})")?,
                    _ => write!(f, "{right}")?,
                }
                write!(f, " on {on}")
            }
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Wildcard(_) => write!(f, "*")?,
                SelectItem::Expr { expr, alias } => {
                    write!(f, "{expr}")?;
                    if let Some(a) = alias {
                        write!(f, " as {}", a.name)?;
                    }
                }
            }
        }
        write!(f, " from ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        if let Some(w) = &self.where_ {
            write!(f, " where {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " group by ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " having {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " order by ")?;
            for (i, (e, desc)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
                if *desc {
                    write!(f, " desc")?;
                }
            }
        }
        if let Some(n) = self.limit {
            write!(f, " limit {n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Explain(s) => write!(f, "explain {s}"),
        }
    }
}
