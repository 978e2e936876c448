//! The catalog binder: typed SQL AST → executable [`Plan`].
//!
//! Binding resolves names against the live catalog and lowers the
//! statement onto the existing plan layer, so everything downstream —
//! NDP post-processing, `taurus-verify`'s plan gate — applies to SQL
//! text for free. The lowering contract:
//!
//! - each base table in FROM becomes one [`ScanNode`] whose `output` is
//!   exactly the set of referenced columns (ascending; `[0]` when none,
//!   or a secondary index's leading key column), and whose `predicate`
//!   holds the single-table WHERE/ON conjuncts in written order, lowered
//!   over *table* columns; `FORCE INDEX (i)` on a scanned table scans
//!   through `i`, which must store every column the query reads;
//! - `JOIN ... ON` lowers left-deep in written order: plain joins become
//!   [`HashJoinNode`]s keyed by the ON equalities, `FORCE INDEX (...)`
//!   on the right side requests a [`LookupJoinNode`] through that index,
//!   correlating the equality conjuncts that cover the index key prefix;
//! - `[NOT] EXISTS` / `[NOT] IN (SELECT ...)` WHERE conjuncts become
//!   Semi/Anti joins appended after the FROM tree, in written order;
//! - grouping lowers to a node with layout `groups ++ aggs`: an
//!   [`AggScanNode`] when the block is one bare scan of a base table (no
//!   join, subquery join or residual filter), the aggregates are not
//!   DISTINCT, and the GROUP BY items are bare columns that, in order,
//!   are a prefix of the scanned index's key (an empty GROUP BY is one) —
//!   rows then arrive grouped, and NDP may push the aggregation to the
//!   Page Stores (§V-C); a [`HashAggNode`] otherwise. HAVING filters that
//!   layout, and the SELECT list projects it (identity projections are
//!   elided);
//! - ORDER BY resolves against SELECT output positions; with LIMIT it
//!   becomes a top-N sort.
//!
//! Every diagnostic is a positioned [`Error::Parse`] (`line L, col C:`),
//! the same taxonomy the parser uses, so one wire error code covers the
//! whole frontend.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use taurus_common::schema::TableSchema;
use taurus_common::{DataType, Error, Result, Value};
use taurus_executor::Session;
use taurus_expr::ast::{CmpOp, Expr};
use taurus_ndp::engine::Table;
use taurus_ndp::TaurusDb;
use taurus_optimizer::ndp_post::{ndp_post_process, NdpReport};
use taurus_optimizer::plan::{
    AggFuncEx, AggItem, AggScanNode, HashAggNode, HashJoinNode, JoinType, LookupJoinNode, Plan,
    ScanNode,
};
use taurus_verify::{infer_plan, plan_width};

use crate::ast::{AggName, ExprKind, Ident, JoinKind, SelectItem, SelectStmt, SqlExpr, TableRef};
use crate::lexer::{parse_err, Pos};

/// Subquery nesting the binder will follow (derived tables, IN/EXISTS,
/// scalar subqueries) before refusing.
const MAX_SUBQUERY_DEPTH: usize = 8;

/// Bind a SELECT against the session's catalog and lower it to a plan.
///
/// NDP post-processing runs when the session has NDP enabled. The plan
/// is verified (`taurus_verify::check_plan`) where it is executed, once,
/// in every build; [`crate::explain`], which executes nothing, verifies
/// itself.
pub fn bind(session: &Session, stmt: &SelectStmt) -> Result<Plan> {
    Ok(bind_reported(session, stmt)?.0)
}

/// [`bind`], plus the NDP pass's report for each table access
/// (pre-order; none with NDP off).
pub(crate) fn bind_reported(
    session: &Session,
    stmt: &SelectStmt,
) -> Result<(Plan, Vec<NdpReport>)> {
    let mut b = Binder { session, depth: 0 };
    let (mut plan, _) = b.bind_select(stmt)?;
    let reports = if session.ndp() {
        ndp_post_process(&mut plan, session.db())?
    } else {
        Vec::new()
    };
    Ok((plan, reports))
}

// ---------------------------------------------------------------------------
// Type families for positioned mismatch diagnostics. The verifier types the
// final plan exactly; the binder only needs coarse families to reject
// nonsense comparisons with a source position attached.

#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    Num,
    Date,
    Str,
}

fn family(dt: &DataType) -> Family {
    match dt {
        DataType::Int | DataType::BigInt | DataType::Decimal { .. } | DataType::Double => {
            Family::Num
        }
        DataType::Date => Family::Date,
        DataType::Char(_) | DataType::Varchar(_) => Family::Str,
    }
}

fn family_name(f: Family) -> &'static str {
    match f {
        Family::Num => "numeric",
        Family::Date => "date",
        Family::Str => "string",
    }
}

fn value_family(v: &Value) -> Option<Family> {
    match v {
        Value::Int(_) | Value::Decimal(_) | Value::Double(_) => Some(Family::Num),
        Value::Date(_) => Some(Family::Date),
        Value::Str(_) => Some(Family::Str),
        Value::Null => None,
    }
}

// ---------------------------------------------------------------------------
// FROM-clause atoms and the analysis tree.

enum AtomKind {
    Base {
        table: Arc<Table>,
        force: Option<Ident>,
    },
    Derived {
        names: Vec<String>,
        dtypes: Vec<DataType>,
        width: usize,
    },
}

struct Atom {
    alias: String,
    pos: Pos,
    kind: AtomKind,
    /// Referenced table/derived columns → reference count. Keys (sorted)
    /// become the scan output / lookup `inner_output`.
    usage: BTreeMap<usize, usize>,
    /// On the right side of a LEFT JOIN: WHERE conjuncts must not be
    /// pushed below the join.
    right_of_left: bool,
}

enum ColHit {
    None,
    One(usize),
    Many,
}

impl Atom {
    fn width(&self) -> usize {
        match &self.kind {
            AtomKind::Base { table, .. } => table.schema.columns.len(),
            AtomKind::Derived { width, .. } => *width,
        }
    }

    fn find_col(&self, name: &str) -> ColHit {
        match &self.kind {
            AtomKind::Base { table, .. } => {
                match table.schema.columns.iter().position(|c| c.name == name) {
                    Some(i) => ColHit::One(i),
                    None => ColHit::None,
                }
            }
            AtomKind::Derived { names, .. } => {
                let mut hits = names.iter().enumerate().filter(|(_, n)| *n == name);
                match (hits.next(), hits.next()) {
                    (None, _) => ColHit::None,
                    (Some((i, _)), None) => ColHit::One(i),
                    _ => ColHit::Many,
                }
            }
        }
    }

    fn col_name(&self, c: usize) -> String {
        match &self.kind {
            AtomKind::Base { table, .. } => table.schema.columns[c].name.clone(),
            AtomKind::Derived { names, .. } => names[c].clone(),
        }
    }

    fn col_dtype(&self, c: usize) -> DataType {
        match &self.kind {
            AtomKind::Base { table, .. } => table.schema.columns[c].dtype,
            AtomKind::Derived { dtypes, .. } => dtypes[c],
        }
    }
}

/// Per-SELECT binding state built by the analysis pass.
struct FromCx<'s> {
    atoms: Vec<Atom>,
    /// Derived-table plans, taken exactly once at lowering.
    derived_plans: Vec<Option<Plan>>,
    /// Per-atom single-table conjuncts (ON-derived first, then WHERE),
    /// lowered over table columns for base atoms.
    scan_preds: Vec<Vec<&'s SqlExpr>>,
    /// Like `scan_preds` but for derived atoms: becomes a Filter directly
    /// above the derived plan, before any join.
    atom_filters: Vec<Vec<&'s SqlExpr>>,
}

impl<'s> FromCx<'s> {
    fn push_atom(&mut self, atom: Atom) -> Result<usize> {
        if let Some(other) = self.atoms.iter().find(|a| a.alias == atom.alias) {
            let _ = other;
            return Err(parse_err(
                atom.pos,
                format!("duplicate table alias `{}`", atom.alias),
            ));
        }
        self.atoms.push(atom);
        self.derived_plans.push(None);
        self.scan_preds.push(Vec::new());
        self.atom_filters.push(Vec::new());
        Ok(self.atoms.len() - 1)
    }
}

/// The lowering tree: mirrors the written join shape, with each ON
/// already classified.
enum FromNode<'s> {
    Atom(usize),
    Hash {
        left: Box<FromNode<'s>>,
        right: Box<FromNode<'s>>,
        join: JoinType,
        /// (left (atom, col), right (atom, col)) per ON equality, in
        /// written order.
        keys: Vec<((usize, usize), (usize, usize))>,
        residual: Vec<&'s SqlExpr>,
    },
    Lookup {
        left: Box<FromNode<'s>>,
        atom: usize,
        index: usize,
        join: JoinType,
        /// Outer (atom, col) per consumed index key column, in key order.
        key: Vec<(usize, usize)>,
        residual: Vec<&'s SqlExpr>,
    },
}

/// A WHERE-level subquery conjunct, lowered to a Semi/Anti join after the
/// FROM tree.
enum SubJoin<'s> {
    Exists {
        negated: bool,
        table: Arc<Table>,
        index: usize,
        /// Outer (atom, col) per consumed index key column, in key order.
        key: Vec<(usize, usize)>,
        inner_alias: String,
        inner_preds: Vec<&'s SqlExpr>,
        residual: Vec<&'s SqlExpr>,
        /// Inner columns referenced by residual conjuncts, ascending.
        inner_out: Vec<usize>,
    },
    InSelect {
        pos: Pos,
        negated: bool,
        left: (usize, usize),
        select: &'s SelectStmt,
    },
}

// ---------------------------------------------------------------------------
// Lowering frames: which positional space an expression lowers into.

enum Frame<'a> {
    /// Scan / lookup-inner predicate: positions are table columns of one
    /// base atom.
    Table { atoms: &'a [Atom], atom: usize },
    /// EXISTS inner predicate: table columns of the subquery's table.
    ExistsTable {
        schema: &'a TableSchema,
        alias: &'a str,
    },
    /// Row layout after FROM lowering: positions index `layout`.
    Layout {
        atoms: &'a [Atom],
        layout: &'a [(usize, usize)],
    },
    /// EXISTS residual: outer layout ++ the subquery's `inner_out`
    /// columns.
    ExistsCombined {
        atoms: &'a [Atom],
        layout: &'a [(usize, usize)],
        schema: &'a TableSchema,
        alias: &'a str,
        inner_out: &'a [usize],
    },
}

impl Frame<'_> {
    fn dtypes(&self) -> Vec<DataType> {
        match self {
            Frame::Table { atoms, atom } => (0..atoms[*atom].width())
                .map(|c| atoms[*atom].col_dtype(c))
                .collect(),
            Frame::ExistsTable { schema, .. } => schema.dtypes(),
            Frame::Layout { atoms, layout } => {
                layout.iter().map(|&(a, c)| atoms[a].col_dtype(c)).collect()
            }
            Frame::ExistsCombined {
                atoms,
                layout,
                schema,
                inner_out,
                ..
            } => layout
                .iter()
                .map(|&(a, c)| atoms[a].col_dtype(c))
                .chain(inner_out.iter().map(|&c| schema.columns[c].dtype))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------

struct Binder<'a> {
    session: &'a Session,
    depth: usize,
}

/// Flatten an AND spine into conjuncts, written order preserved.
fn flatten_and<'s>(e: &'s SqlExpr, out: &mut Vec<&'s SqlExpr>) {
    if let ExprKind::And(a, b) = &e.kind {
        flatten_and(a, out);
        flatten_and(b, out);
    } else {
        out.push(e);
    }
}

fn flatten_or<'s>(e: &'s SqlExpr, out: &mut Vec<&'s SqlExpr>) {
    if let ExprKind::Or(a, b) = &e.kind {
        flatten_or(a, out);
        flatten_or(b, out);
    } else {
        out.push(e);
    }
}

fn conjuncts(e: Option<&SqlExpr>) -> Vec<&SqlExpr> {
    let mut out = Vec::new();
    if let Some(e) = e {
        flatten_and(e, &mut out);
    }
    out
}

/// Does the expression contain an aggregate call (not descending into
/// subqueries)?
fn contains_agg(e: &SqlExpr) -> bool {
    match &e.kind {
        ExprKind::Agg { .. } => true,
        ExprKind::Column { .. } | ExprKind::Lit(_) => false,
        ExprKind::Cmp(_, a, b) | ExprKind::And(a, b) | ExprKind::Or(a, b) => {
            contains_agg(a) || contains_agg(b)
        }
        ExprKind::Arith(_, a, b) => contains_agg(a) || contains_agg(b),
        ExprKind::Not(a) | ExprKind::Neg(a) | ExprKind::ExtractYear(a) => contains_agg(a),
        ExprKind::Like { expr, .. }
        | ExprKind::IsNull { expr, .. }
        | ExprKind::Substr { expr, .. } => contains_agg(expr),
        ExprKind::InList { expr, list, .. } => contains_agg(expr) || list.iter().any(contains_agg),
        ExprKind::Between { expr, lo, hi } => {
            contains_agg(expr) || contains_agg(lo) || contains_agg(hi)
        }
        ExprKind::Case { branches, else_ } => {
            branches
                .iter()
                .any(|(c, v)| contains_agg(c) || contains_agg(v))
                || contains_agg(else_)
        }
        ExprKind::InSelect { expr, .. } => contains_agg(expr),
        ExprKind::Exists { .. } | ExprKind::Scalar(_) => false,
    }
}

fn stmt_pos(s: &SelectStmt) -> Pos {
    match s.items.first() {
        Some(SelectItem::Wildcard(p)) => *p,
        Some(SelectItem::Expr { expr, .. }) => expr.pos,
        None => Pos::start(),
    }
}

fn tableref_pos(t: &TableRef) -> Pos {
    match t {
        TableRef::Table { name, .. } => name.pos,
        TableRef::Derived { alias, .. } => alias.pos,
        TableRef::Join { left, .. } => tableref_pos(left),
    }
}

fn plan_dtypes(plan: &Plan, db: &TaurusDb) -> Vec<DataType> {
    match infer_plan(plan, db).schema {
        Some(cols) => cols.iter().map(|c| c.dtype).collect(),
        None => vec![DataType::Int; plan_width(plan)],
    }
}

impl<'a> Binder<'a> {
    fn db(&self) -> &Arc<TaurusDb> {
        self.session.db()
    }

    fn bind_select(&mut self, s: &SelectStmt) -> Result<(Plan, Vec<String>)> {
        self.depth += 1;
        if self.depth > MAX_SUBQUERY_DEPTH {
            self.depth -= 1;
            return Err(parse_err(stmt_pos(s), "subqueries nested too deeply"));
        }
        let r = self.bind_select_inner(s);
        self.depth -= 1;
        r
    }

    // -- analysis -----------------------------------------------------------

    fn bind_select_inner(&mut self, s: &SelectStmt) -> Result<(Plan, Vec<String>)> {
        if s.from.is_empty() {
            return Err(parse_err(stmt_pos(s), "a FROM clause is required"));
        }
        if s.from.len() > 1 {
            return Err(parse_err(
                tableref_pos(&s.from[1]),
                "comma-separated FROM is not supported; use explicit JOIN ... ON",
            ));
        }

        let mut cx = FromCx {
            atoms: Vec::new(),
            derived_plans: Vec::new(),
            scan_preds: Vec::new(),
            atom_filters: Vec::new(),
        };
        let fnode = self.analyze_from(&s.from[0], &mut cx, false)?;

        // WHERE: route each conjunct to a scan predicate, a residual
        // filter, or a Semi/Anti subquery join.
        let mut residual_where: Vec<&SqlExpr> = Vec::new();
        let mut sub_joins: Vec<SubJoin<'_>> = Vec::new();
        for conj in conjuncts(s.where_.as_ref()) {
            match &conj.kind {
                ExprKind::Exists { select, negated } => {
                    sub_joins.push(self.analyze_exists(conj.pos, select, *negated, &mut cx)?);
                }
                ExprKind::InSelect {
                    expr,
                    select,
                    negated,
                } => {
                    let (qual, name) = match &expr.kind {
                        ExprKind::Column { qualifier, name } => (qualifier.as_ref(), name),
                        _ => {
                            return Err(parse_err(
                                expr.pos,
                                "the left side of IN (SELECT ...) must be a column",
                            ))
                        }
                    };
                    let hit = resolve_col(&cx.atoms, 0, cx.atoms.len(), qual, name)?;
                    *cx.atoms[hit.0].usage.entry(hit.1).or_insert(0) += 1;
                    sub_joins.push(SubJoin::InSelect {
                        pos: conj.pos,
                        negated: *negated,
                        left: hit,
                        select,
                    });
                }
                _ => {
                    let mut set = BTreeSet::new();
                    self.walk_refs(conj, &mut cx, 0, usize::MAX, false, &mut set)?;
                    match (set.len(), set.iter().next()) {
                        (1, Some(&i)) if !cx.atoms[i].right_of_left => match cx.atoms[i].kind {
                            AtomKind::Base { .. } => cx.scan_preds[i].push(conj),
                            AtomKind::Derived { .. } => cx.atom_filters[i].push(conj),
                        },
                        _ => residual_where.push(conj),
                    }
                }
            }
        }

        // SELECT list: aliases, usage.
        let mut aliases: Vec<(String, usize)> = Vec::new();
        for (i, item) in s.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard(_) => {
                    for a in cx.atoms.iter_mut() {
                        for c in 0..a.width() {
                            *a.usage.entry(c).or_insert(0) += 1;
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if let Some(al) = alias {
                        aliases.push((al.name.clone(), i));
                    }
                    let mut set = BTreeSet::new();
                    self.walk_refs(expr, &mut cx, 0, usize::MAX, true, &mut set)?;
                }
            }
        }

        // GROUP BY: a bare name that is not a column but matches a SELECT
        // alias means that item's expression.
        let mut group_eff: Vec<&SqlExpr> = Vec::new();
        for g in &s.group_by {
            let eff = self.effective_expr(g, s, &aliases, &cx)?;
            if contains_agg(eff) {
                return Err(parse_err(g.pos, "aggregates are not allowed in GROUP BY"));
            }
            let mut set = BTreeSet::new();
            self.walk_refs(eff, &mut cx, 0, usize::MAX, false, &mut set)?;
            group_eff.push(eff);
        }

        if let Some(h) = &s.having {
            let mut set = BTreeSet::new();
            self.walk_refs(h, &mut cx, 0, usize::MAX, true, &mut set)?;
        }

        // ORDER BY: an alias reference needs no usage of its own.
        for (oe, _) in &s.order_by {
            if self.alias_ref(oe, &aliases).is_some() {
                continue;
            }
            let mut set = BTreeSet::new();
            self.walk_refs(oe, &mut cx, 0, usize::MAX, true, &mut set)?;
        }

        // -- lowering -------------------------------------------------------

        let FromCx {
            atoms,
            mut derived_plans,
            scan_preds,
            atom_filters,
        } = cx;

        let (mut plan, layout) = self.lower_from(
            &fnode,
            &atoms,
            &mut derived_plans,
            &scan_preds,
            &atom_filters,
        )?;

        if !residual_where.is_empty() {
            let fr = Frame::Layout {
                atoms: &atoms,
                layout: &layout,
            };
            let lowered = residual_where
                .iter()
                .map(|e| self.lower_expr(e, &fr))
                .collect::<Result<Vec<_>>>()?;
            plan = merge_residual(plan, lowered);
        }

        for sj in &sub_joins {
            plan = self.lower_sub_join(plan, sj, &atoms, &layout)?;
        }

        self.lower_output(plan, s, &atoms, &layout, &aliases, &group_eff)
    }

    /// Resolve a GROUP BY/HAVING-style expression through SELECT aliases:
    /// a bare, unqualified name that is no atom's column but matches
    /// exactly one alias stands for that item's expression.
    fn effective_expr<'s>(
        &self,
        e: &'s SqlExpr,
        s: &'s SelectStmt,
        aliases: &[(String, usize)],
        cx: &FromCx<'s>,
    ) -> Result<&'s SqlExpr> {
        let name = match &e.kind {
            ExprKind::Column {
                qualifier: None,
                name,
            } => name,
            _ => return Ok(e),
        };
        let in_atoms = cx
            .atoms
            .iter()
            .any(|a| !matches!(a.find_col(&name.name), ColHit::None));
        if in_atoms {
            return Ok(e);
        }
        let mut hits = aliases.iter().filter(|(n, _)| *n == name.name);
        match (hits.next(), hits.next()) {
            (Some(&(_, i)), None) => match &s.items[i] {
                SelectItem::Expr { expr, .. } => Ok(expr),
                SelectItem::Wildcard(_) => Ok(e),
            },
            (Some(_), Some(_)) => Err(parse_err(
                name.pos,
                format!("ambiguous alias `{}`", name.name),
            )),
            (None, _) => Ok(e), // let the usage walk report "unknown column"
        }
    }

    fn alias_ref(&self, e: &SqlExpr, aliases: &[(String, usize)]) -> Option<usize> {
        if let ExprKind::Column {
            qualifier: None,
            name,
        } = &e.kind
        {
            let mut hits = aliases.iter().filter(|(n, _)| *n == name.name);
            if let (Some(&(_, i)), None) = (hits.next(), hits.next()) {
                return Some(i);
            }
        }
        None
    }

    /// Record column usage for every reference in `e`, collecting the set
    /// of atoms touched. Rejects misplaced subqueries/aggregates.
    fn walk_refs(
        &mut self,
        e: &SqlExpr,
        cx: &mut FromCx<'_>,
        lo: usize,
        hi: usize,
        allow_agg: bool,
        set: &mut BTreeSet<usize>,
    ) -> Result<()> {
        let hi = hi.min(cx.atoms.len());
        match &e.kind {
            ExprKind::Column { qualifier, name } => {
                let (a, c) = resolve_col(&cx.atoms, lo, hi, qualifier.as_ref(), name)?;
                *cx.atoms[a].usage.entry(c).or_insert(0) += 1;
                set.insert(a);
                Ok(())
            }
            ExprKind::Lit(_) => Ok(()),
            ExprKind::Cmp(_, a, b) | ExprKind::And(a, b) | ExprKind::Or(a, b) => {
                self.walk_refs(a, cx, lo, hi, allow_agg, set)?;
                self.walk_refs(b, cx, lo, hi, allow_agg, set)
            }
            ExprKind::Arith(_, a, b) => {
                self.walk_refs(a, cx, lo, hi, allow_agg, set)?;
                self.walk_refs(b, cx, lo, hi, allow_agg, set)
            }
            ExprKind::Not(a) | ExprKind::Neg(a) | ExprKind::ExtractYear(a) => {
                self.walk_refs(a, cx, lo, hi, allow_agg, set)
            }
            ExprKind::Like { expr, .. }
            | ExprKind::IsNull { expr, .. }
            | ExprKind::Substr { expr, .. } => self.walk_refs(expr, cx, lo, hi, allow_agg, set),
            ExprKind::InList { expr, list, .. } => {
                self.walk_refs(expr, cx, lo, hi, allow_agg, set)?;
                for v in list {
                    self.walk_refs(v, cx, lo, hi, allow_agg, set)?;
                }
                Ok(())
            }
            ExprKind::Between { expr, lo: l, hi: h } => {
                self.walk_refs(expr, cx, lo, hi, allow_agg, set)?;
                self.walk_refs(l, cx, lo, hi, allow_agg, set)?;
                self.walk_refs(h, cx, lo, hi, allow_agg, set)
            }
            ExprKind::Case { branches, else_ } => {
                for (c, v) in branches {
                    self.walk_refs(c, cx, lo, hi, allow_agg, set)?;
                    self.walk_refs(v, cx, lo, hi, allow_agg, set)?;
                }
                self.walk_refs(else_, cx, lo, hi, allow_agg, set)
            }
            ExprKind::Agg { arg, .. } => {
                if !allow_agg {
                    return Err(parse_err(
                        e.pos,
                        "aggregates are not allowed in this clause",
                    ));
                }
                match arg {
                    // Aggregate inputs are plain expressions again.
                    Some(a) => self.walk_refs(a, cx, lo, hi, false, set),
                    None => Ok(()),
                }
            }
            ExprKind::Scalar(_) => Ok(()), // bound (and executed) at lowering
            ExprKind::Exists { .. } | ExprKind::InSelect { .. } => Err(parse_err(
                e.pos,
                "subqueries are only supported as top-level WHERE conjuncts",
            )),
        }
    }

    // -- FROM analysis ------------------------------------------------------

    fn analyze_from<'s>(
        &mut self,
        t: &'s TableRef,
        cx: &mut FromCx<'s>,
        right_of_left: bool,
    ) -> Result<FromNode<'s>> {
        match t {
            TableRef::Table {
                name,
                alias,
                force_index,
            } => {
                let table = self
                    .db()
                    .table(&name.name)
                    .map_err(|_| parse_err(name.pos, format!("unknown table `{}`", name.name)))?;
                let alias_s = alias.as_ref().unwrap_or(name).name.clone();
                let i = cx.push_atom(Atom {
                    alias: alias_s,
                    pos: name.pos,
                    kind: AtomKind::Base {
                        table,
                        force: force_index.clone(),
                    },
                    usage: BTreeMap::new(),
                    right_of_left,
                })?;
                Ok(FromNode::Atom(i))
            }
            TableRef::Derived { select, alias } => {
                let (plan, names) = self.bind_select(select)?;
                let width = plan_width(&plan);
                let dtypes = plan_dtypes(&plan, self.db());
                let i = cx.push_atom(Atom {
                    alias: alias.name.clone(),
                    pos: alias.pos,
                    kind: AtomKind::Derived {
                        names,
                        dtypes,
                        width,
                    },
                    usage: BTreeMap::new(),
                    right_of_left,
                })?;
                cx.derived_plans[i] = Some(plan);
                Ok(FromNode::Atom(i))
            }
            TableRef::Join {
                left,
                kind,
                right,
                on,
            } => {
                let l0 = cx.atoms.len();
                let lnode = self.analyze_from(left, cx, right_of_left)?;
                let l1 = cx.atoms.len();
                let join = match kind {
                    JoinKind::Inner => JoinType::Inner,
                    JoinKind::Left => JoinType::LeftOuter,
                };
                let right_rol = right_of_left || *kind == JoinKind::Left;
                // FORCE INDEX on a plain right-side table requests a
                // lookup join through that index.
                if let TableRef::Table {
                    force_index: Some(fi),
                    ..
                } = &**right
                {
                    let fi = fi.clone();
                    let rnode = self.analyze_from(right, cx, right_rol)?;
                    let ai = match rnode {
                        FromNode::Atom(i) => i,
                        _ => unreachable!("table ref lowers to an atom"),
                    };
                    let (index, key, residual) =
                        self.analyze_lookup_on(on, cx, l0, l1, ai, &fi, join)?;
                    Ok(FromNode::Lookup {
                        left: Box::new(lnode),
                        atom: ai,
                        index,
                        join,
                        key,
                        residual,
                    })
                } else {
                    let rnode = self.analyze_from(right, cx, right_rol)?;
                    let r1 = cx.atoms.len();
                    let (keys, residual) = self.analyze_hash_on(on, cx, l0, l1, r1, join)?;
                    Ok(FromNode::Hash {
                        left: Box::new(lnode),
                        right: Box::new(rnode),
                        join,
                        keys,
                        residual,
                    })
                }
            }
        }
    }

    /// Is `e` a plain column resolving inside `[lo, hi)`? No usage is
    /// recorded here; classification decides that.
    fn plain_col(
        &self,
        e: &SqlExpr,
        atoms: &[Atom],
        lo: usize,
        hi: usize,
    ) -> Option<(usize, usize)> {
        if let ExprKind::Column { qualifier, name } = &e.kind {
            return resolve_col(atoms, lo, hi, qualifier.as_ref(), name).ok();
        }
        None
    }

    #[allow(clippy::type_complexity)]
    fn analyze_hash_on<'s>(
        &mut self,
        on: &'s SqlExpr,
        cx: &mut FromCx<'s>,
        l0: usize,
        l1: usize,
        r1: usize,
        join: JoinType,
    ) -> Result<(Vec<((usize, usize), (usize, usize))>, Vec<&'s SqlExpr>)> {
        let mut keys = Vec::new();
        let mut residual = Vec::new();
        let mut parts = Vec::new();
        flatten_and(on, &mut parts);
        for conj in parts {
            if let ExprKind::Cmp(CmpOp::Eq, a, b) = &conj.kind {
                let ra = self.plain_col(a, &cx.atoms, l0, r1);
                let rb = self.plain_col(b, &cx.atoms, l0, r1);
                if let (Some(ka), Some(kb)) = (ra, rb) {
                    let (lk, rk) = if ka.0 < l1 && kb.0 >= l1 {
                        (ka, kb)
                    } else if kb.0 < l1 && ka.0 >= l1 {
                        (kb, ka)
                    } else {
                        // Same-side equality: fall through to the general
                        // routing below.
                        self.route_on_conjunct(conj, cx, l0, l1, r1, join, &mut residual)?;
                        continue;
                    };
                    *cx.atoms[lk.0].usage.entry(lk.1).or_insert(0) += 1;
                    *cx.atoms[rk.0].usage.entry(rk.1).or_insert(0) += 1;
                    keys.push((lk, rk));
                    continue;
                }
            }
            self.route_on_conjunct(conj, cx, l0, l1, r1, join, &mut residual)?;
        }
        if keys.is_empty() {
            return Err(parse_err(
                on.pos,
                "JOIN ... ON needs at least one equality between the two sides",
            ));
        }
        Ok((keys, residual))
    }

    /// Route a non-equi ON conjunct: single-side conjuncts push to the
    /// scan (ON semantics allow that even under LEFT JOIN for the right
    /// side); anything else is residual, which only inner joins support.
    #[allow(clippy::too_many_arguments)]
    fn route_on_conjunct<'s>(
        &mut self,
        conj: &'s SqlExpr,
        cx: &mut FromCx<'s>,
        l0: usize,
        l1: usize,
        r1: usize,
        join: JoinType,
        residual: &mut Vec<&'s SqlExpr>,
    ) -> Result<()> {
        let mut set = BTreeSet::new();
        self.walk_refs(conj, cx, l0, r1, false, &mut set)?;
        let all_right = set.iter().all(|&i| i >= l1);
        let all_left = set.iter().all(|&i| i < l1);
        if set.len() == 1 && (all_right || (all_left && join == JoinType::Inner)) {
            let i = *set.iter().next().expect("nonempty");
            match cx.atoms[i].kind {
                AtomKind::Base { .. } => cx.scan_preds[i].push(conj),
                AtomKind::Derived { .. } => cx.atom_filters[i].push(conj),
            }
            return Ok(());
        }
        if join != JoinType::Inner {
            return Err(parse_err(
                conj.pos,
                "this ON condition is not supported for LEFT JOIN",
            ));
        }
        residual.push(conj);
        Ok(())
    }

    /// Classify the ON clause of a lookup join: equalities covering the
    /// forced index's key prefix correlate the lookup; the rest stays as
    /// scan predicates (single-side) or the residual `on`.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn analyze_lookup_on<'s>(
        &mut self,
        on: &'s SqlExpr,
        cx: &mut FromCx<'s>,
        l0: usize,
        l1: usize,
        ai: usize,
        force: &Ident,
        join: JoinType,
    ) -> Result<(usize, Vec<(usize, usize)>, Vec<&'s SqlExpr>)> {
        let table = match &cx.atoms[ai].kind {
            AtomKind::Base { table, .. } => table.clone(),
            AtomKind::Derived { .. } => unreachable!("lookup inner is a base table"),
        };
        let index = resolve_index(&table, force)?;
        let key_cols = table.index(index).tree.def.key_cols.clone();

        let mut parts = Vec::new();
        flatten_and(on, &mut parts);

        // Pass 1: equality candidates (inner col → first outer ref).
        let mut cand: BTreeMap<usize, (usize, (usize, usize))> = BTreeMap::new();
        for (ci, conj) in parts.iter().enumerate() {
            if let ExprKind::Cmp(CmpOp::Eq, a, b) = &conj.kind {
                let ra = self.plain_col(a, &cx.atoms, l0, ai + 1);
                let rb = self.plain_col(b, &cx.atoms, l0, ai + 1);
                if let (Some(ka), Some(kb)) = (ra, rb) {
                    let (inner, outer) = if ka.0 == ai && kb.0 < l1 {
                        (ka.1, kb)
                    } else if kb.0 == ai && ka.0 < l1 {
                        (kb.1, ka)
                    } else {
                        continue;
                    };
                    cand.entry(inner).or_insert((ci, outer));
                }
            }
        }

        // Consume the key prefix.
        let mut key = Vec::new();
        let mut consumed = BTreeSet::new();
        for &kc in &key_cols {
            match cand.get(&kc) {
                Some(&(ci, outer)) => {
                    consumed.insert(ci);
                    key.push(outer);
                }
                None => break,
            }
        }
        if key.is_empty() {
            return Err(parse_err(
                force.pos,
                format!(
                    "FORCE INDEX (`{}`) needs a join equality on the index's leading key column",
                    force.name
                ),
            ));
        }
        for &(_, outer) in cand.values().filter(|(ci, _)| consumed.contains(ci)) {
            *cx.atoms[outer.0].usage.entry(outer.1).or_insert(0) += 1;
        }

        // Pass 2: everything not consumed, in written order.
        let mut residual = Vec::new();
        for (ci, conj) in parts.iter().enumerate() {
            if consumed.contains(&ci) {
                continue;
            }
            self.route_on_conjunct(conj, cx, l0, l1, ai + 1, join, &mut residual)?;
        }
        Ok((index, key, residual))
    }

    // -- EXISTS analysis ----------------------------------------------------

    fn analyze_exists<'s>(
        &mut self,
        pos: Pos,
        sub: &'s SelectStmt,
        negated: bool,
        cx: &mut FromCx<'s>,
    ) -> Result<SubJoin<'s>> {
        if sub.from.len() != 1 {
            return Err(parse_err(
                pos,
                "an EXISTS subquery must scan a single base table",
            ));
        }
        let (name, alias, force) = match &sub.from[0] {
            TableRef::Table {
                name,
                alias,
                force_index,
            } => (name, alias, force_index),
            _ => {
                return Err(parse_err(
                    pos,
                    "an EXISTS subquery must scan a single base table",
                ))
            }
        };
        if !sub.group_by.is_empty()
            || sub.having.is_some()
            || !sub.order_by.is_empty()
            || sub.limit.is_some()
        {
            return Err(parse_err(
                pos,
                "an EXISTS subquery cannot use GROUP BY, HAVING, ORDER BY, or LIMIT",
            ));
        }
        let table = self
            .db()
            .table(&name.name)
            .map_err(|_| parse_err(name.pos, format!("unknown table `{}`", name.name)))?;
        let inner_alias = alias.as_ref().unwrap_or(name).name.clone();

        let parts = conjuncts(sub.where_.as_ref());

        // Pass 1: correlation candidates inner-col → outer (atom, col).
        let mut cand: BTreeMap<usize, (usize, (usize, usize))> = BTreeMap::new();
        for (ci, conj) in parts.iter().enumerate() {
            if let ExprKind::Cmp(CmpOp::Eq, a, b) = &conj.kind {
                let sa = self.exists_side(a, &table.schema, &inner_alias, &cx.atoms)?;
                let sb = self.exists_side(b, &table.schema, &inner_alias, &cx.atoms)?;
                match (sa, sb) {
                    (Some(ExistsSide::Inner(ic)), Some(ExistsSide::Outer(oc)))
                    | (Some(ExistsSide::Outer(oc)), Some(ExistsSide::Inner(ic))) => {
                        cand.entry(ic).or_insert((ci, oc));
                    }
                    _ => {}
                }
            }
        }

        // Index: forced, or the one whose key prefix the correlations
        // cover best (ties to the lowest ordinal).
        let index = match force {
            Some(fi) => resolve_index(&table, fi)?,
            None => {
                let mut best = (0usize, 0usize);
                for i in 0..=table.secondaries.len() {
                    let kc = &table.index(i).tree.def.key_cols;
                    let cov = kc.iter().take_while(|c| cand.contains_key(c)).count();
                    if cov > best.1 {
                        best = (i, cov);
                    }
                }
                if best.1 == 0 {
                    return Err(parse_err(
                        pos,
                        "an EXISTS subquery needs an equality between an indexed inner column \
                         and the outer query",
                    ));
                }
                best.0
            }
        };

        let key_cols = table.index(index).tree.def.key_cols.clone();
        let mut key = Vec::new();
        let mut consumed = BTreeSet::new();
        for &kc in &key_cols {
            match cand.get(&kc) {
                Some(&(ci, outer)) => {
                    consumed.insert(ci);
                    key.push(outer);
                }
                None => break,
            }
        }
        if key.is_empty() {
            return Err(parse_err(
                pos,
                "an EXISTS subquery needs an equality between an indexed inner column and the \
                 outer query",
            ));
        }
        for &(_, outer) in cand.values().filter(|(ci, _)| consumed.contains(ci)) {
            *cx.atoms[outer.0].usage.entry(outer.1).or_insert(0) += 1;
        }

        // Pass 2: inner-only conjuncts → inner predicate; mixed → residual
        // (recording outer usage and the inner columns the residual needs).
        let mut inner_preds = Vec::new();
        let mut residual = Vec::new();
        let mut inner_cols = BTreeSet::new();
        for (ci, conj) in parts.iter().enumerate() {
            if consumed.contains(&ci) {
                continue;
            }
            let mut inner_here = BTreeSet::new();
            let mut outer_here = false;
            self.exists_refs(
                conj,
                &table.schema,
                &inner_alias,
                cx,
                &mut inner_here,
                &mut outer_here,
            )?;
            if outer_here {
                inner_cols.extend(inner_here.iter().copied());
                residual.push(*conj);
            } else {
                inner_preds.push(*conj);
            }
        }

        Ok(SubJoin::Exists {
            negated,
            table,
            index,
            key,
            inner_alias,
            inner_preds,
            residual,
            inner_out: inner_cols.into_iter().collect(),
        })
    }

    /// Which side of the EXISTS scope does a plain column land on?
    fn exists_side(
        &self,
        e: &SqlExpr,
        schema: &TableSchema,
        inner_alias: &str,
        atoms: &[Atom],
    ) -> Result<Option<ExistsSide>> {
        let (qualifier, name) = match &e.kind {
            ExprKind::Column { qualifier, name } => (qualifier.as_ref(), name),
            _ => return Ok(None),
        };
        match qualifier {
            Some(q) if q.name == inner_alias => {
                let c = schema.col_index(&name.name).map_err(|_| {
                    parse_err(
                        name.pos,
                        format!("unknown column `{}` in `{inner_alias}`", name.name),
                    )
                })?;
                Ok(Some(ExistsSide::Inner(c)))
            }
            Some(_) => Ok(resolve_col(atoms, 0, atoms.len(), qualifier, name)
                .ok()
                .map(ExistsSide::Outer)),
            None => {
                if let Ok(c) = schema.col_index(&name.name) {
                    return Ok(Some(ExistsSide::Inner(c)));
                }
                Ok(resolve_col(atoms, 0, atoms.len(), None, name)
                    .ok()
                    .map(ExistsSide::Outer))
            }
        }
    }

    /// Walk an EXISTS-scope conjunct: inner refs collect into
    /// `inner_here`, outer refs record usage and set `outer_here`.
    fn exists_refs(
        &mut self,
        e: &SqlExpr,
        schema: &TableSchema,
        inner_alias: &str,
        cx: &mut FromCx<'_>,
        inner_here: &mut BTreeSet<usize>,
        outer_here: &mut bool,
    ) -> Result<()> {
        match &e.kind {
            ExprKind::Column { .. } => {
                match self.exists_side(e, schema, inner_alias, &cx.atoms)? {
                    Some(ExistsSide::Inner(c)) => {
                        inner_here.insert(c);
                        Ok(())
                    }
                    Some(ExistsSide::Outer((a, c))) => {
                        *cx.atoms[a].usage.entry(c).or_insert(0) += 1;
                        *outer_here = true;
                        Ok(())
                    }
                    None => {
                        // Re-resolve for the error message.
                        if let ExprKind::Column { qualifier, name } = &e.kind {
                            resolve_col(&cx.atoms, 0, cx.atoms.len(), qualifier.as_ref(), name)?;
                        }
                        Ok(())
                    }
                }
            }
            ExprKind::Agg { .. }
            | ExprKind::Exists { .. }
            | ExprKind::InSelect { .. }
            | ExprKind::Scalar(_) => Err(parse_err(
                e.pos,
                "this expression is not supported inside an EXISTS subquery",
            )),
            ExprKind::Lit(_) => Ok(()),
            ExprKind::Cmp(_, a, b) | ExprKind::And(a, b) | ExprKind::Or(a, b) => {
                self.exists_refs(a, schema, inner_alias, cx, inner_here, outer_here)?;
                self.exists_refs(b, schema, inner_alias, cx, inner_here, outer_here)
            }
            ExprKind::Arith(_, a, b) => {
                self.exists_refs(a, schema, inner_alias, cx, inner_here, outer_here)?;
                self.exists_refs(b, schema, inner_alias, cx, inner_here, outer_here)
            }
            ExprKind::Not(a) | ExprKind::Neg(a) | ExprKind::ExtractYear(a) => {
                self.exists_refs(a, schema, inner_alias, cx, inner_here, outer_here)
            }
            ExprKind::Like { expr, .. }
            | ExprKind::IsNull { expr, .. }
            | ExprKind::Substr { expr, .. } => {
                self.exists_refs(expr, schema, inner_alias, cx, inner_here, outer_here)
            }
            ExprKind::InList { expr, list, .. } => {
                self.exists_refs(expr, schema, inner_alias, cx, inner_here, outer_here)?;
                for v in list {
                    self.exists_refs(v, schema, inner_alias, cx, inner_here, outer_here)?;
                }
                Ok(())
            }
            ExprKind::Between { expr, lo, hi } => {
                self.exists_refs(expr, schema, inner_alias, cx, inner_here, outer_here)?;
                self.exists_refs(lo, schema, inner_alias, cx, inner_here, outer_here)?;
                self.exists_refs(hi, schema, inner_alias, cx, inner_here, outer_here)
            }
            ExprKind::Case { branches, else_ } => {
                for (c, v) in branches {
                    self.exists_refs(c, schema, inner_alias, cx, inner_here, outer_here)?;
                    self.exists_refs(v, schema, inner_alias, cx, inner_here, outer_here)?;
                }
                self.exists_refs(else_, schema, inner_alias, cx, inner_here, outer_here)
            }
        }
    }
}

enum ExistsSide {
    Inner(usize),
    Outer((usize, usize)),
}

/// Resolve `FORCE INDEX (name)` / EXISTS index names: `primary` (any
/// case) means the primary index, otherwise the named index must exist.
fn resolve_index(table: &Table, ident: &Ident) -> Result<usize> {
    if ident.name == "primary" {
        return Ok(0);
    }
    table.find_index(&ident.name).ok_or_else(|| {
        parse_err(
            ident.pos,
            format!(
                "unknown index `{}` on table `{}`",
                ident.name, table.schema.name
            ),
        )
    })
}

/// A scan through a secondary index reads only what that index stores
/// (`key ++ pk`): a query column outside it is reported by name, at the
/// `FORCE INDEX`, rather than as an execution-time failure.
fn check_index_coverage(table: &Table, index: usize, cols: &[usize], force: &Ident) -> Result<()> {
    let def = &table.index(index).tree.def;
    let stored = def.stored_cols();
    let Some(&missing) = cols.iter().find(|c| !stored.contains(c)) else {
        return Ok(());
    };
    let name = |c: usize| table.schema.columns[c].name.as_str();
    Err(parse_err(
        force.pos,
        format!(
            "column `{}` is not stored in secondary index `{}` (stored: {}); \
             scan via the primary index instead",
            name(missing),
            def.name,
            stored
                .iter()
                .map(|&c| name(c))
                .collect::<Vec<_>>()
                .join(", "),
        ),
    ))
}

/// Resolve a column reference over the atoms in `[lo, hi)`.
fn resolve_col(
    atoms: &[Atom],
    lo: usize,
    hi: usize,
    qualifier: Option<&Ident>,
    name: &Ident,
) -> Result<(usize, usize)> {
    let hi = hi.min(atoms.len());
    if let Some(q) = qualifier {
        let a = atoms[lo..hi]
            .iter()
            .position(|a| a.alias == q.name)
            .map(|i| i + lo)
            .ok_or_else(|| parse_err(q.pos, format!("unknown table or alias `{}`", q.name)))?;
        return match atoms[a].find_col(&name.name) {
            ColHit::One(c) => Ok((a, c)),
            ColHit::None => Err(parse_err(
                name.pos,
                format!("unknown column `{}` in `{}`", name.name, q.name),
            )),
            ColHit::Many => Err(parse_err(
                name.pos,
                format!("ambiguous column `{}` in `{}`", name.name, q.name),
            )),
        };
    }
    let mut found: Option<(usize, usize)> = None;
    for (i, a) in atoms[lo..hi].iter().enumerate() {
        match a.find_col(&name.name) {
            ColHit::None => {}
            ColHit::Many => {
                return Err(parse_err(
                    name.pos,
                    format!("ambiguous column `{}` in `{}`", name.name, a.alias),
                ))
            }
            ColHit::One(c) => {
                if let Some((prev, _)) = found {
                    return Err(parse_err(
                        name.pos,
                        format!(
                            "ambiguous column `{}` (in `{}` and `{}`)",
                            name.name, atoms[prev].alias, a.alias
                        ),
                    ));
                }
                found = Some((i + lo, c));
            }
        }
    }
    found.ok_or_else(|| parse_err(name.pos, format!("unknown column `{}`", name.name)))
}

/// An inner-join residual merges into a top-level lookup join's `on`;
/// anything else filters above the join.
fn merge_residual(mut plan: Plan, lowered: Vec<Expr>) -> Plan {
    if let Plan::LookupJoin(lj) = &mut plan {
        if lj.join == JoinType::Inner {
            let mut parts = Vec::new();
            if let Some(on) = lj.on.take() {
                parts.push(on);
            }
            parts.extend(lowered);
            lj.on = Some(Expr::and(parts));
            return plan;
        }
    }
    plan.filter(Expr::and(lowered))
}

// ---------------------------------------------------------------------------
// Lowering.

impl<'a> Binder<'a> {
    fn lower_from(
        &mut self,
        node: &FromNode<'_>,
        atoms: &[Atom],
        derived: &mut [Option<Plan>],
        scan_preds: &[Vec<&SqlExpr>],
        atom_filters: &[Vec<&SqlExpr>],
    ) -> Result<(Plan, Vec<(usize, usize)>)> {
        match node {
            FromNode::Atom(i) => {
                let a = &atoms[*i];
                match &a.kind {
                    AtomKind::Base { table, force } => {
                        let index = match force {
                            Some(fi) => resolve_index(table, fi)?,
                            None => 0,
                        };
                        let def = &table.index(index).tree.def;
                        let output: Vec<usize> = if a.usage.is_empty() {
                            vec![if def.is_primary { 0 } else { def.key_cols[0] }]
                        } else {
                            a.usage.keys().copied().collect()
                        };
                        if let Some(fi) = force {
                            check_index_coverage(table, index, &output, fi)?;
                        }
                        let fr = Frame::Table { atoms, atom: *i };
                        let preds = scan_preds[*i]
                            .iter()
                            .map(|e| self.lower_expr(e, &fr))
                            .collect::<Result<Vec<_>>>()?;
                        let mut scan =
                            ScanNode::new(&table.schema.name, output.clone()).with_index(index);
                        if !preds.is_empty() {
                            scan = scan.with_predicate(preds);
                        }
                        let layout = output.into_iter().map(|c| (*i, c)).collect();
                        Ok((Plan::Scan(scan), layout))
                    }
                    AtomKind::Derived { width, .. } => {
                        let mut plan = derived[*i]
                            .take()
                            .expect("derived plan is lowered exactly once");
                        let layout: Vec<(usize, usize)> = (0..*width).map(|c| (*i, c)).collect();
                        if !atom_filters[*i].is_empty() {
                            let fr = Frame::Layout {
                                atoms,
                                layout: &layout,
                            };
                            let preds = atom_filters[*i]
                                .iter()
                                .map(|e| self.lower_expr(e, &fr))
                                .collect::<Result<Vec<_>>>()?;
                            plan = plan.filter(Expr::and(preds));
                        }
                        Ok((plan, layout))
                    }
                }
            }
            FromNode::Hash {
                left,
                right,
                join,
                keys,
                residual,
            } => {
                let (lp, ll) = self.lower_from(left, atoms, derived, scan_preds, atom_filters)?;
                let (rp, rl) = self.lower_from(right, atoms, derived, scan_preds, atom_filters)?;
                let left_keys = keys
                    .iter()
                    .map(|(lk, _)| pos_in(&ll, *lk))
                    .collect::<Result<Vec<_>>>()?;
                let right_keys = keys
                    .iter()
                    .map(|(_, rk)| pos_in(&rl, *rk))
                    .collect::<Result<Vec<_>>>()?;
                let mut layout = ll;
                layout.extend(rl);
                let mut plan = Plan::HashJoin(HashJoinNode {
                    left: Box::new(lp),
                    right: Box::new(rp),
                    left_keys,
                    right_keys,
                    join: *join,
                    filter: None,
                });
                if !residual.is_empty() {
                    let fr = Frame::Layout {
                        atoms,
                        layout: &layout,
                    };
                    let preds = residual
                        .iter()
                        .map(|e| self.lower_expr(e, &fr))
                        .collect::<Result<Vec<_>>>()?;
                    plan = plan.filter(Expr::and(preds));
                }
                Ok((plan, layout))
            }
            FromNode::Lookup {
                left,
                atom,
                index,
                join,
                key,
                residual,
            } => {
                let (lp, ll) = self.lower_from(left, atoms, derived, scan_preds, atom_filters)?;
                let a = &atoms[*atom];
                let table = match &a.kind {
                    AtomKind::Base { table, .. } => table.clone(),
                    AtomKind::Derived { .. } => unreachable!("lookup inner is a base table"),
                };
                let outer_key_cols = key
                    .iter()
                    .map(|k| pos_in(&ll, *k))
                    .collect::<Result<Vec<_>>>()?;
                let inner_output: Vec<usize> = a.usage.keys().copied().collect();
                let fr = Frame::Table { atoms, atom: *atom };
                let inner_predicate = scan_preds[*atom]
                    .iter()
                    .map(|e| self.lower_expr(e, &fr))
                    .collect::<Result<Vec<_>>>()?;
                let mut layout = ll;
                layout.extend(inner_output.iter().map(|&c| (*atom, c)));
                let on = if residual.is_empty() {
                    None
                } else {
                    let fr = Frame::Layout {
                        atoms,
                        layout: &layout,
                    };
                    let preds = residual
                        .iter()
                        .map(|e| self.lower_expr(e, &fr))
                        .collect::<Result<Vec<_>>>()?;
                    Some(Expr::and(preds))
                };
                let plan = Plan::LookupJoin(LookupJoinNode {
                    outer: Box::new(lp),
                    table: table.schema.name.clone(),
                    index: *index,
                    outer_key_cols,
                    on,
                    inner_output,
                    join: *join,
                    inner_predicate,
                    inner_ndp: None,
                });
                Ok((plan, layout))
            }
        }
    }

    fn lower_sub_join(
        &mut self,
        plan: Plan,
        sj: &SubJoin<'_>,
        atoms: &[Atom],
        layout: &[(usize, usize)],
    ) -> Result<Plan> {
        match sj {
            SubJoin::Exists {
                negated,
                table,
                index,
                key,
                inner_alias,
                inner_preds,
                residual,
                inner_out,
            } => {
                let outer_key_cols = key
                    .iter()
                    .map(|k| pos_in(layout, *k))
                    .collect::<Result<Vec<_>>>()?;
                let tfr = Frame::ExistsTable {
                    schema: &table.schema,
                    alias: inner_alias,
                };
                let inner_predicate = inner_preds
                    .iter()
                    .map(|e| self.lower_expr(e, &tfr))
                    .collect::<Result<Vec<_>>>()?;
                let on = if residual.is_empty() {
                    None
                } else {
                    let cfr = Frame::ExistsCombined {
                        atoms,
                        layout,
                        schema: &table.schema,
                        alias: inner_alias,
                        inner_out,
                    };
                    let preds = residual
                        .iter()
                        .map(|e| self.lower_expr(e, &cfr))
                        .collect::<Result<Vec<_>>>()?;
                    Some(Expr::and(preds))
                };
                Ok(Plan::LookupJoin(LookupJoinNode {
                    outer: Box::new(plan),
                    table: table.schema.name.clone(),
                    index: *index,
                    outer_key_cols,
                    on,
                    inner_output: inner_out.clone(),
                    join: if *negated {
                        JoinType::Anti
                    } else {
                        JoinType::Semi
                    },
                    inner_predicate,
                    inner_ndp: None,
                }))
            }
            SubJoin::InSelect {
                pos,
                negated,
                left,
                select,
            } => {
                let (rplan, _) = self.bind_select(select)?;
                if plan_width(&rplan) != 1 {
                    return Err(parse_err(
                        *pos,
                        "an IN (SELECT ...) subquery must return exactly one column",
                    ));
                }
                // A trailing single-column projection folds into the join
                // key; the registry plans join against the pre-projection
                // input directly.
                let (rplan, rk) = match rplan {
                    Plan::Project(p) => {
                        if let [Expr::Col(k)] = p.exprs[..] {
                            (*p.input, k)
                        } else {
                            (Plan::Project(p), 0)
                        }
                    }
                    other => (other, 0),
                };
                let lfam = family(&atoms[left.0].col_dtype(left.1));
                let rdts = plan_dtypes(&rplan, self.db());
                if family(&rdts[rk]) != lfam {
                    return Err(parse_err(
                        *pos,
                        format!(
                            "type mismatch: cannot compare a {} column to a {} subquery",
                            family_name(lfam),
                            family_name(family(&rdts[rk]))
                        ),
                    ));
                }
                Ok(Plan::HashJoin(HashJoinNode {
                    left: Box::new(plan),
                    right: Box::new(rplan),
                    left_keys: vec![pos_in(layout, *left)?],
                    right_keys: vec![rk],
                    join: if *negated {
                        JoinType::Anti
                    } else {
                        JoinType::Semi
                    },
                    filter: None,
                }))
            }
        }
    }
}

fn pos_in(layout: &[(usize, usize)], key: (usize, usize)) -> Result<usize> {
    layout
        .iter()
        .position(|&k| k == key)
        .ok_or_else(|| Error::Internal("binder: referenced column missing from layout".into()))
}

// ---------------------------------------------------------------------------
// Scalar expression lowering.

impl<'a> Binder<'a> {
    fn resolve_in_frame(&self, fr: &Frame<'_>, e: &SqlExpr) -> Result<usize> {
        let (qualifier, name) = match &e.kind {
            ExprKind::Column { qualifier, name } => (qualifier.as_ref(), name),
            _ => unreachable!("resolve_in_frame on a column"),
        };
        match fr {
            Frame::Table { atoms, atom } => {
                let a = &atoms[*atom];
                if let Some(q) = qualifier {
                    if q.name != a.alias {
                        return Err(parse_err(
                            q.pos,
                            format!("unknown table or alias `{}`", q.name),
                        ));
                    }
                }
                match a.find_col(&name.name) {
                    ColHit::One(c) => Ok(c),
                    _ => Err(parse_err(
                        name.pos,
                        format!("unknown column `{}` in `{}`", name.name, a.alias),
                    )),
                }
            }
            Frame::ExistsTable { schema, alias } => {
                if let Some(q) = qualifier {
                    if q.name != *alias {
                        return Err(parse_err(
                            q.pos,
                            format!("unknown table or alias `{}`", q.name),
                        ));
                    }
                }
                schema.col_index(&name.name).map_err(|_| {
                    parse_err(
                        name.pos,
                        format!("unknown column `{}` in `{alias}`", name.name),
                    )
                })
            }
            Frame::Layout { atoms, layout } => {
                let key = resolve_col(atoms, 0, atoms.len(), qualifier, name)?;
                pos_in(layout, key)
            }
            Frame::ExistsCombined {
                atoms,
                layout,
                schema,
                alias,
                inner_out,
            } => {
                // Inner scope shadows the outer one, as in the analysis.
                let inner = match qualifier {
                    Some(q) if q.name == *alias => {
                        Some(schema.col_index(&name.name).map_err(|_| {
                            parse_err(
                                name.pos,
                                format!("unknown column `{}` in `{alias}`", name.name),
                            )
                        })?)
                    }
                    Some(_) => None,
                    None => schema.col_index(&name.name).ok(),
                };
                if let Some(c) = inner {
                    let i = inner_out.iter().position(|&x| x == c).ok_or_else(|| {
                        Error::Internal("binder: EXISTS residual column not collected".into())
                    })?;
                    return Ok(layout.len() + i);
                }
                let key = resolve_col(atoms, 0, atoms.len(), qualifier, name)?;
                pos_in(layout, key)
            }
        }
    }

    fn dtype_of(&self, e: &Expr, fr: &Frame<'_>) -> Option<DataType> {
        e.dtype(&fr.dtypes()).ok()
    }

    fn check_families(
        &self,
        what: &str,
        a: &Expr,
        b: &Expr,
        fr: &Frame<'_>,
        pos: Pos,
    ) -> Result<()> {
        if let (Some(da), Some(db)) = (self.dtype_of(a, fr), self.dtype_of(b, fr)) {
            if family(&da) != family(&db) {
                return Err(parse_err(
                    pos,
                    format!(
                        "type mismatch: cannot {what} a {} expression and a {} expression",
                        family_name(family(&da)),
                        family_name(family(&db))
                    ),
                ));
            }
        }
        Ok(())
    }

    fn lower_expr(&mut self, e: &SqlExpr, fr: &Frame<'_>) -> Result<Expr> {
        match &e.kind {
            ExprKind::Column { .. } => Ok(Expr::Col(self.resolve_in_frame(fr, e)?)),
            ExprKind::Lit(v) => Ok(Expr::Lit(v.clone())),
            ExprKind::Cmp(op, a, b) => {
                let la = self.lower_expr(a, fr)?;
                let lb = self.lower_expr(b, fr)?;
                self.check_families("compare", &la, &lb, fr, e.pos)?;
                Ok(Expr::Cmp(*op, Box::new(la), Box::new(lb)))
            }
            ExprKind::And(_, _) => {
                let mut parts = Vec::new();
                flatten_and(e, &mut parts);
                Ok(Expr::and(
                    parts
                        .iter()
                        .map(|p| self.lower_expr(p, fr))
                        .collect::<Result<Vec<_>>>()?,
                ))
            }
            ExprKind::Or(_, _) => {
                let mut parts = Vec::new();
                flatten_or(e, &mut parts);
                Ok(Expr::or(
                    parts
                        .iter()
                        .map(|p| self.lower_expr(p, fr))
                        .collect::<Result<Vec<_>>>()?,
                ))
            }
            ExprKind::Not(a) => Ok(Expr::not(self.lower_expr(a, fr)?)),
            ExprKind::Arith(op, a, b) => {
                let la = self.lower_expr(a, fr)?;
                let lb = self.lower_expr(b, fr)?;
                for side in [&la, &lb] {
                    if let Some(dt) = self.dtype_of(side, fr) {
                        if family(&dt) != Family::Num {
                            return Err(parse_err(
                                e.pos,
                                format!(
                                    "type mismatch: arithmetic needs numeric operands, got a {} \
                                     expression",
                                    family_name(family(&dt))
                                ),
                            ));
                        }
                    }
                }
                Ok(Expr::Arith(*op, Box::new(la), Box::new(lb)))
            }
            ExprKind::Neg(a) => Ok(Expr::Neg(Box::new(self.lower_expr(a, fr)?))),
            ExprKind::Like {
                expr,
                pattern,
                negated,
            } => {
                let le = self.lower_expr(expr, fr)?;
                if let Some(dt) = self.dtype_of(&le, fr) {
                    if family(&dt) != Family::Str {
                        return Err(parse_err(
                            e.pos,
                            "type mismatch: LIKE needs a string expression",
                        ));
                    }
                }
                Ok(Expr::Like {
                    expr: Box::new(le),
                    pattern: pattern.clone(),
                    negated: *negated,
                })
            }
            ExprKind::InList {
                expr,
                list,
                negated,
            } => {
                let le = self.lower_expr(expr, fr)?;
                let efam = self.dtype_of(&le, fr).map(|d| family(&d));
                let mut vals = Vec::with_capacity(list.len());
                for item in list {
                    let v = match self.lower_expr(item, fr)? {
                        Expr::Lit(v) => v,
                        _ => return Err(parse_err(item.pos, "IN list elements must be literals")),
                    };
                    if let (Some(ef), Some(vf)) = (efam, value_family(&v)) {
                        if ef != vf {
                            return Err(parse_err(
                                item.pos,
                                format!(
                                    "type mismatch: cannot compare a {} expression to a {} \
                                     literal",
                                    family_name(ef),
                                    family_name(vf)
                                ),
                            ));
                        }
                    }
                    vals.push(v);
                }
                Ok(Expr::InList {
                    expr: Box::new(le),
                    list: vals,
                    negated: *negated,
                })
            }
            ExprKind::Between { expr, lo, hi } => {
                let le = self.lower_expr(expr, fr)?;
                let ll = self.lower_expr(lo, fr)?;
                let lh = self.lower_expr(hi, fr)?;
                self.check_families("compare", &le, &ll, fr, e.pos)?;
                self.check_families("compare", &le, &lh, fr, e.pos)?;
                Ok(Expr::Between {
                    expr: Box::new(le),
                    lo: Box::new(ll),
                    hi: Box::new(lh),
                })
            }
            ExprKind::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.lower_expr(expr, fr)?),
                negated: *negated,
            }),
            ExprKind::Case { branches, else_ } => {
                let bs = branches
                    .iter()
                    .map(|(c, v)| Ok((self.lower_expr(c, fr)?, self.lower_expr(v, fr)?)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Expr::Case {
                    branches: bs,
                    else_: Box::new(self.lower_expr(else_, fr)?),
                })
            }
            ExprKind::ExtractYear(a) => {
                let la = self.lower_expr(a, fr)?;
                if let Some(dt) = self.dtype_of(&la, fr) {
                    if family(&dt) != Family::Date {
                        return Err(parse_err(
                            e.pos,
                            "type mismatch: EXTRACT(YEAR FROM ...) needs a date expression",
                        ));
                    }
                }
                Ok(Expr::ExtractYear(Box::new(la)))
            }
            ExprKind::Substr { expr, from, len } => {
                if *from == 0 {
                    return Err(parse_err(e.pos, "SUBSTRING positions are 1-based"));
                }
                let le = self.lower_expr(expr, fr)?;
                if let Some(dt) = self.dtype_of(&le, fr) {
                    if family(&dt) != Family::Str {
                        return Err(parse_err(
                            e.pos,
                            "type mismatch: SUBSTRING needs a string expression",
                        ));
                    }
                }
                Ok(Expr::Substr {
                    expr: Box::new(le),
                    from: *from as usize,
                    len: *len as usize,
                })
            }
            ExprKind::Scalar(sel) => Ok(Expr::Lit(self.eval_scalar(sel, e.pos)?)),
            ExprKind::Agg { .. } => Err(parse_err(
                e.pos,
                "aggregates are not allowed in this clause",
            )),
            ExprKind::Exists { .. } | ExprKind::InSelect { .. } => Err(parse_err(
                e.pos,
                "subqueries are only supported as top-level WHERE conjuncts",
            )),
        }
    }

    /// Bind and execute an uncorrelated scalar subquery at bind time,
    /// baking its single value into the plan as a literal.
    fn eval_scalar(&mut self, sel: &SelectStmt, pos: Pos) -> Result<Value> {
        let (mut plan, _) = self.bind_select(sel)?;
        if plan_width(&plan) != 1 {
            return Err(parse_err(
                pos,
                "a scalar subquery must return exactly one column",
            ));
        }
        if self.session.ndp() {
            ndp_post_process(&mut plan, self.db())?;
        }
        let rows = self.session.execute_plan(&plan)?;
        if rows.len() != 1 {
            return Err(parse_err(
                pos,
                format!("a scalar subquery must return one row, got {}", rows.len()),
            ));
        }
        Ok(rows[0][0].clone())
    }
}

// ---------------------------------------------------------------------------
// Output: aggregation, SELECT projection, ORDER BY, LIMIT.

/// Collected aggregate calls for one SELECT.
struct AggSet {
    items: Vec<AggItem>,
    /// `COUNT(DISTINCT e)` argument, if present (sole aggregate).
    distinct: Option<Expr>,
}

impl AggSet {
    fn push(&mut self, item: AggItem) {
        if !self
            .items
            .iter()
            .any(|a| a.func == item.func && a.input == item.input)
        {
            self.items.push(item);
        }
    }
}

fn mk_agg_item(func: AggName, input: Option<Expr>) -> AggItem {
    let f = match (func, &input) {
        (AggName::Count, None) => AggFuncEx::CountStar,
        (AggName::Count, Some(_)) => AggFuncEx::Count,
        (AggName::Sum, _) => AggFuncEx::Sum,
        (AggName::Min, _) => AggFuncEx::Min,
        (AggName::Max, _) => AggFuncEx::Max,
        (AggName::Avg, _) => AggFuncEx::Avg,
    };
    AggItem { func: f, input }
}

impl<'a> Binder<'a> {
    /// Collect every aggregate call in `e` into `set` (inputs lowered
    /// over the pre-aggregation layout).
    fn collect_aggs(&mut self, e: &SqlExpr, fr: &Frame<'_>, set: &mut AggSet) -> Result<()> {
        if let ExprKind::Agg {
            func,
            distinct,
            arg,
        } = &e.kind
        {
            let input = match arg {
                Some(a) => Some(self.lower_expr(a, fr)?),
                None => None,
            };
            if *distinct {
                if *func != AggName::Count {
                    return Err(parse_err(e.pos, "DISTINCT is only supported with COUNT"));
                }
                let arg = input
                    .ok_or_else(|| parse_err(e.pos, "COUNT(DISTINCT ...) needs an argument"))?;
                match &set.distinct {
                    None => set.distinct = Some(arg),
                    Some(prev) if *prev == arg => {}
                    Some(_) => {
                        return Err(parse_err(
                            e.pos,
                            "only one COUNT(DISTINCT ...) aggregate is supported",
                        ))
                    }
                }
            } else {
                set.push(mk_agg_item(*func, input));
            }
            return Ok(());
        }
        match &e.kind {
            ExprKind::Column { .. } | ExprKind::Lit(_) | ExprKind::Scalar(_) => Ok(()),
            ExprKind::Cmp(_, a, b) | ExprKind::And(a, b) | ExprKind::Or(a, b) => {
                self.collect_aggs(a, fr, set)?;
                self.collect_aggs(b, fr, set)
            }
            ExprKind::Arith(_, a, b) => {
                self.collect_aggs(a, fr, set)?;
                self.collect_aggs(b, fr, set)
            }
            ExprKind::Not(a) | ExprKind::Neg(a) | ExprKind::ExtractYear(a) => {
                self.collect_aggs(a, fr, set)
            }
            ExprKind::Like { expr, .. }
            | ExprKind::IsNull { expr, .. }
            | ExprKind::Substr { expr, .. } => self.collect_aggs(expr, fr, set),
            ExprKind::InList { expr, .. } => self.collect_aggs(expr, fr, set),
            ExprKind::Between { expr, lo, hi } => {
                self.collect_aggs(expr, fr, set)?;
                self.collect_aggs(lo, fr, set)?;
                self.collect_aggs(hi, fr, set)
            }
            ExprKind::Case { branches, else_ } => {
                for (c, v) in branches {
                    self.collect_aggs(c, fr, set)?;
                    self.collect_aggs(v, fr, set)?;
                }
                self.collect_aggs(else_, fr, set)
            }
            ExprKind::Agg { .. } => unreachable!("handled above"),
            ExprKind::Exists { .. } | ExprKind::InSelect { .. } => Err(parse_err(
                e.pos,
                "subqueries are only supported as top-level WHERE conjuncts",
            )),
        }
    }

    /// Lower an expression in aggregation context: aggregate calls and
    /// whole group expressions become positions into `groups ++ aggs`;
    /// an ungrouped bare column is the classic aggregate-misuse error.
    fn lower_agg_expr(
        &mut self,
        e: &SqlExpr,
        fr: &Frame<'_>,
        groups: &[Expr],
        set: &AggSet,
    ) -> Result<Expr> {
        if let ExprKind::Agg {
            func,
            distinct,
            arg,
        } = &e.kind
        {
            let input = match arg {
                Some(a) => Some(self.lower_expr(a, fr)?),
                None => None,
            };
            if *distinct {
                return Ok(Expr::Col(groups.len()));
            }
            let item = mk_agg_item(*func, input);
            let i = set
                .items
                .iter()
                .position(|a| a.func == item.func && a.input == item.input)
                .ok_or_else(|| Error::Internal("binder: aggregate not collected".into()))?;
            return Ok(Expr::Col(groups.len() + i));
        }
        if !contains_agg(e) {
            let low = self.lower_expr(e, fr)?;
            if let Some(gi) = groups.iter().position(|g| *g == low) {
                return Ok(Expr::Col(gi));
            }
            if let Expr::Lit(_) = low {
                return Ok(low);
            }
            if let ExprKind::Column { name, .. } = &e.kind {
                return Err(parse_err(
                    name.pos,
                    format!(
                        "column `{}` must appear in the GROUP BY clause or be used in an \
                         aggregate",
                        name.name
                    ),
                ));
            }
            // A compound expression over grouped columns: rebuild from its
            // pieces so each leaf resolves through the group list.
        }
        match &e.kind {
            ExprKind::Cmp(op, a, b) => Ok(Expr::Cmp(
                *op,
                Box::new(self.lower_agg_expr(a, fr, groups, set)?),
                Box::new(self.lower_agg_expr(b, fr, groups, set)?),
            )),
            ExprKind::And(_, _) => {
                let mut parts = Vec::new();
                flatten_and(e, &mut parts);
                Ok(Expr::and(
                    parts
                        .iter()
                        .map(|p| self.lower_agg_expr(p, fr, groups, set))
                        .collect::<Result<Vec<_>>>()?,
                ))
            }
            ExprKind::Or(_, _) => {
                let mut parts = Vec::new();
                flatten_or(e, &mut parts);
                Ok(Expr::or(
                    parts
                        .iter()
                        .map(|p| self.lower_agg_expr(p, fr, groups, set))
                        .collect::<Result<Vec<_>>>()?,
                ))
            }
            ExprKind::Not(a) => Ok(Expr::not(self.lower_agg_expr(a, fr, groups, set)?)),
            ExprKind::Arith(op, a, b) => Ok(Expr::Arith(
                *op,
                Box::new(self.lower_agg_expr(a, fr, groups, set)?),
                Box::new(self.lower_agg_expr(b, fr, groups, set)?),
            )),
            ExprKind::Neg(a) => Ok(Expr::Neg(Box::new(
                self.lower_agg_expr(a, fr, groups, set)?,
            ))),
            ExprKind::Case { branches, else_ } => {
                let bs = branches
                    .iter()
                    .map(|(c, v)| {
                        Ok((
                            self.lower_agg_expr(c, fr, groups, set)?,
                            self.lower_agg_expr(v, fr, groups, set)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Expr::Case {
                    branches: bs,
                    else_: Box::new(self.lower_agg_expr(else_, fr, groups, set)?),
                })
            }
            _ => Err(parse_err(
                e.pos,
                "this expression must appear in the GROUP BY clause or be used in an aggregate",
            )),
        }
    }

    /// Index-order aggregation: a block that is one bare scan of a base
    /// table, grouped by bare columns that are a prefix of the scanned
    /// index's key (an empty GROUP BY is one), aggregates during the scan
    /// as an [`AggScanNode`] — rows arrive grouped, and the NDP pass may
    /// push the aggregation to the Page Stores (§V-C). Anything else is a
    /// [`HashAggNode`]. Both lay their output out as `groups ++ aggs`.
    fn aggregate(
        plan: Plan,
        atoms: &[Atom],
        layout: &[(usize, usize)],
        groups: &[Expr],
        aggs: &[AggItem],
    ) -> Plan {
        if let (
            Plan::Scan(scan),
            [Atom {
                kind: AtomKind::Base { table, .. },
                ..
            }],
        ) = (&plan, atoms)
        {
            // The layout of a lone base table's scan is its table columns.
            let table_col = |p: usize| layout[p].1;
            let group_cols: Option<Vec<usize>> = groups
                .iter()
                .map(|g| match g {
                    Expr::Col(p) => Some(table_col(*p)),
                    _ => None,
                })
                .collect();
            let key = table.index(scan.index).tree.def.effective_key_cols();
            if let Some(group_cols) = group_cols.filter(|g| key.starts_with(g)) {
                return Plan::AggScan(AggScanNode {
                    scan: scan.clone(),
                    group_cols,
                    aggs: aggs
                        .iter()
                        .map(|a| AggItem {
                            func: a.func,
                            input: a.input.as_ref().map(|e| e.remap_columns(&table_col)),
                        })
                        .collect(),
                });
            }
        }
        Plan::HashAgg(HashAggNode {
            input: Box::new(plan),
            group: groups.to_vec(),
            aggs: aggs.to_vec(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_output(
        &mut self,
        mut plan: Plan,
        s: &SelectStmt,
        atoms: &[Atom],
        layout: &[(usize, usize)],
        aliases: &[(String, usize)],
        group_eff: &[&SqlExpr],
    ) -> Result<(Plan, Vec<String>)> {
        let fr = Frame::Layout { atoms, layout };
        let items_agg = s.items.iter().any(|it| match it {
            SelectItem::Wildcard(_) => false,
            SelectItem::Expr { expr, .. } => contains_agg(expr),
        });
        let having_agg = s.having.as_ref().is_some_and(contains_agg);
        let order_agg = s.order_by.iter().any(|(e, _)| contains_agg(e));
        let agg_mode = !s.group_by.is_empty() || items_agg || having_agg || order_agg;
        if s.having.is_some() && !agg_mode {
            return Err(parse_err(
                stmt_pos(s),
                "HAVING requires GROUP BY or aggregates",
            ));
        }

        let mut exprs: Vec<Expr> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let width;
        let mut agg_cx: Option<(Vec<Expr>, AggSet)> = None;

        if agg_mode {
            let groups = group_eff
                .iter()
                .map(|g| self.lower_expr(g, &fr))
                .collect::<Result<Vec<_>>>()?;

            let mut set = AggSet {
                items: Vec::new(),
                distinct: None,
            };
            for item in &s.items {
                match item {
                    SelectItem::Wildcard(p) => {
                        return Err(parse_err(
                            *p,
                            "SELECT * cannot be combined with aggregation",
                        ))
                    }
                    SelectItem::Expr { expr, .. } => self.collect_aggs(expr, &fr, &mut set)?,
                }
            }
            if let Some(h) = &s.having {
                self.collect_aggs(h, &fr, &mut set)?;
            }
            for (oe, _) in &s.order_by {
                if self.alias_ref(oe, aliases).is_none() {
                    self.collect_aggs(oe, &fr, &mut set)?;
                }
            }
            if set.distinct.is_some() && !set.items.is_empty() {
                return Err(parse_err(
                    stmt_pos(s),
                    "COUNT(DISTINCT ...) cannot be mixed with other aggregates",
                ));
            }

            if let Some(darg) = &set.distinct {
                // Two-level plan: dedup on groups ++ arg, then count per
                // group.
                let mut dedup = groups.clone();
                dedup.push(darg.clone());
                plan = Plan::HashAgg(HashAggNode {
                    input: Box::new(plan),
                    group: dedup,
                    aggs: Vec::new(),
                });
                plan = Plan::HashAgg(HashAggNode {
                    input: Box::new(plan),
                    group: (0..groups.len()).map(Expr::Col).collect(),
                    aggs: vec![AggItem {
                        func: AggFuncEx::CountStar,
                        input: None,
                    }],
                });
                width = groups.len() + 1;
            } else {
                plan = Self::aggregate(plan, atoms, layout, &groups, &set.items);
                width = groups.len() + set.items.len();
            }

            if let Some(h) = &s.having {
                let pred = self.lower_agg_expr(h, &fr, &groups, &set)?;
                plan = plan.filter(pred);
            }

            for item in &s.items {
                if let SelectItem::Expr { expr, alias } = item {
                    exprs.push(self.lower_agg_expr(expr, &fr, &groups, &set)?);
                    names.push(item_name(expr, alias));
                }
            }
            agg_cx = Some((groups, set));
        } else {
            width = layout.len();
            for item in &s.items {
                match item {
                    SelectItem::Wildcard(_) => {
                        for (i, &(a, c)) in layout.iter().enumerate() {
                            exprs.push(Expr::Col(i));
                            names.push(atoms[a].col_name(c));
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        exprs.push(self.lower_expr(expr, &fr)?);
                        names.push(item_name(expr, alias));
                    }
                }
            }
        }

        // ORDER BY resolves against SELECT output positions before the
        // identity-elision decision.
        let mut keys: Vec<(usize, bool)> = Vec::new();
        for (oe, desc) in &s.order_by {
            let pos = if let Some(i) = self.alias_ref(oe, aliases) {
                i
            } else {
                let low = match &agg_cx {
                    Some((groups, set)) => self.lower_agg_expr(oe, &fr, groups, set)?,
                    None => self.lower_expr(oe, &fr)?,
                };
                exprs.iter().position(|x| *x == low).ok_or_else(|| {
                    parse_err(
                        oe.pos,
                        "an ORDER BY expression must appear in the SELECT list",
                    )
                })?
            };
            keys.push((pos, *desc));
        }

        let identity =
            exprs.len() == width && exprs.iter().enumerate().all(|(i, e)| *e == Expr::Col(i));
        if !identity {
            plan = plan.project(exprs);
        }

        plan = match (keys.is_empty(), s.limit) {
            (false, Some(n)) => plan.top_n(keys, n as usize),
            (false, None) => plan.sort(keys),
            (true, Some(n)) => plan.limit(n as usize),
            (true, None) => plan,
        };
        Ok((plan, names))
    }
}

fn item_name(expr: &SqlExpr, alias: &Option<Ident>) -> String {
    if let Some(a) = alias {
        return a.name.clone();
    }
    if let ExprKind::Column { name, .. } = &expr.kind {
        return name.name.clone();
    }
    format!("{expr}")
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use taurus_common::ClusterConfig;

    use super::*;
    use crate::ast::Statement;

    fn db() -> &'static Arc<TaurusDb> {
        static DB: OnceLock<Arc<TaurusDb>> = OnceLock::new();
        DB.get_or_init(|| {
            let db = TaurusDb::new(ClusterConfig::default());
            taurus_tpch::load(&db, 0.001, 7).expect("load tiny tpch");
            db
        })
    }

    fn try_bind(sql: &str) -> Result<Plan> {
        let stmt = crate::parser::parse(sql)?;
        let sel = match stmt {
            Statement::Select(s) | Statement::Explain(s) => s,
        };
        let session = Session::new(db());
        bind(&session, &sel)
    }

    fn bind_err(sql: &str) -> String {
        match try_bind(sql) {
            Err(Error::Parse(m)) => m,
            other => panic!("expected a positioned parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_table_is_positioned() {
        let m = bind_err("select x from nosuch");
        assert!(m.contains("unknown table `nosuch`"), "{m}");
        assert!(m.contains("line 1, col 15"), "{m}");
    }

    #[test]
    fn unknown_column_is_positioned() {
        let m = bind_err("select c_nosuch from customer");
        assert!(m.contains("unknown column `c_nosuch`"), "{m}");
        assert!(m.contains("line 1, col 8"), "{m}");
    }

    #[test]
    fn ambiguous_column_across_joined_tables() {
        let m = bind_err(
            "select c_custkey from customer as a join customer as b \
             on a.c_custkey = b.c_custkey",
        );
        assert!(m.contains("ambiguous column `c_custkey`"), "{m}");
        assert!(m.contains("line 1, col 8"), "{m}");
    }

    #[test]
    fn ungrouped_column_in_select_is_rejected() {
        let m = bind_err("select c_name, count(*) from customer group by c_nationkey");
        assert!(m.contains("must appear in the GROUP BY"), "{m}");
        assert!(m.contains("line 1, col 8"), "{m}");
    }

    #[test]
    fn type_mismatched_comparison_is_rejected() {
        let m = bind_err("select c_custkey from customer where c_phone = 5");
        assert!(m.contains("type mismatch"), "{m}");
        assert!(m.contains("line 1, col 46"), "{m}");
    }

    #[test]
    fn sane_queries_bind_and_pass_the_plan_gate() {
        // Through the gate execution puts every plan through, so these
        // exercise the whole lowering contract.
        for sql in [
            "select count(*) from customer",
            "select c_name from customer where c_custkey < 10 order by c_name limit 5",
            "select n_name, count(*) from customer join nation \
             on c_nationkey = n_nationkey group by n_name order by n_name",
            "select o_orderpriority, count(*) as n from orders where exists (\
             select * from lineitem where l_orderkey = o_orderkey and \
             l_commitdate < l_receiptdate) group by o_orderpriority order by o_orderpriority",
        ] {
            let plan = try_bind(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            taurus_verify::check_plan(&plan, db()).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        }
    }

    /// How many of the plan's scans aggregate (`AggScan`s).
    fn agg_scans(plan: &Plan) -> usize {
        let mut n = 0;
        plan.for_each_scan(&mut |_, agg| n += usize::from(agg));
        n
    }

    /// The `AggScan` under the plan's output operators (and a join's
    /// probe side), with no `HashAgg` above it.
    fn agg_scan(plan: &Plan) -> &AggScanNode {
        match plan {
            Plan::AggScan(a) => a,
            Plan::HashJoin(j) => agg_scan(&j.left),
            Plan::Project(x) => agg_scan(&x.input),
            Plan::Filter(x) => agg_scan(&x.input),
            Plan::Sort(x) => agg_scan(&x.input),
            Plan::Limit { input, .. } => agg_scan(input),
            other => panic!("no AggScan in {other:?}"),
        }
    }

    fn tpch(name: &str) -> &'static str {
        crate::tpch_sql::sql_for(name).unwrap()
    }

    #[test]
    fn index_ordered_aggregation_lowers_to_agg_scan() {
        let lineitem = db().table("lineitem").unwrap();
        for sql in [
            "select count(*) from lineitem",
            tpch("Q6"),
            tpch("Q18"),
            "select count(*) from lineitem force index (i_l_suppkey) where l_suppkey <= 5",
        ] {
            let plan = try_bind(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            assert_eq!(agg_scans(&plan), 1, "{sql}: {plan:?}");
            agg_scan(&plan);
            taurus_verify::check_plan(&plan, db()).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        }
        // Q6's aggregate input is remapped onto table columns
        // (l_extendedprice = 5, l_discount = 6).
        let q6 = try_bind(tpch("Q6")).unwrap();
        let a = agg_scan(&q6);
        assert!(a.group_cols.is_empty());
        assert_eq!(
            a.aggs[0].input,
            Some(Expr::mul(Expr::col(5), Expr::col(6))),
            "{a:?}"
        );
        // Q18's derived table groups by l_orderkey, the primary key's
        // leading column, and sums l_quantity.
        let q18 = try_bind(tpch("Q18")).unwrap();
        let a = agg_scan(&q18);
        assert_eq!(a.group_cols, [0]);
        assert_eq!(a.aggs[0].input, Some(Expr::col(4)));
        // FORCE INDEX chooses the index the aggregation scans.
        let counted = try_bind(
            "select count(*) from lineitem force index (i_l_suppkey) where l_suppkey <= 5",
        )
        .unwrap();
        assert_eq!(
            Some(agg_scan(&counted).scan.index),
            lineitem.find_index("i_l_suppkey")
        );
    }

    #[test]
    fn other_aggregation_blocks_stay_hash_aggregates() {
        for sql in [
            // GROUP BY (l_returnflag, l_linestatus): not a key prefix.
            tpch("Q1"),
            // The key's columns, but not in key order.
            "select l_linenumber, l_orderkey, count(*) from lineitem \
             group by l_linenumber, l_orderkey",
            // A key-prefix group over an expression.
            "select l_orderkey + 1, count(*) from lineitem group by l_orderkey + 1",
            "select count(distinct l_suppkey) from lineitem",
            // A key-prefix group above a join.
            "select c_custkey, count(*) from customer join orders \
             on c_custkey = o_custkey group by c_custkey",
        ] {
            let plan = try_bind(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            assert_eq!(agg_scans(&plan), 0, "{sql}: {plan:?}");
        }
    }

    #[test]
    fn agg_scans_take_the_ndp_aggregation_decision() {
        let mut cfg = ClusterConfig::default();
        cfg.ndp.enabled = true;
        cfg.ndp.min_io_pages = 1;
        let db = TaurusDb::new(cfg);
        taurus_tpch::load(&db, 0.001, 7).unwrap();
        db.buffer_pool().clear();
        let session = Session::new(&db);
        let choice = |name: &str| {
            let Statement::Select(s) = crate::parser::parse(tpch(name)).unwrap() else {
                panic!("{name} is a SELECT");
            };
            let plan = bind(&session, &s).unwrap();
            let d = agg_scan(&plan).scan.ndp.clone();
            d.unwrap_or_else(|| panic!("{name}: the scan is pushed"))
                .choice
        };
        // Q18's bare-column, predicate-free aggregation goes to storage...
        let q18 = choice("Q18");
        assert!(q18.aggregation.is_some(), "{q18:?}");
        // ...Q6's expression input keeps it on the SQL node, with its
        // predicate and projection pushed.
        let q6 = choice("Q6");
        assert!(q6.aggregation.is_none(), "{q6:?}");
        assert!(q6.predicate.is_some() && q6.projection.is_some(), "{q6:?}");
    }

    #[test]
    fn force_index_scans_through_the_named_index() {
        let sql = "select l_suppkey, l_orderkey from lineitem force index (i_l_suppkey) \
                   where l_suppkey <= 3";
        let plan = try_bind(sql).unwrap();
        let mut index = None;
        plan.for_each_scan(&mut |s, _| index = Some(s.index));
        assert_eq!(
            index,
            db().table("lineitem").unwrap().find_index("i_l_suppkey")
        );
        // Rows come back in the secondary index's key order.
        let rows = Session::new(db()).execute_plan(&plan).unwrap();
        assert!(!rows.is_empty());
        assert!(rows.windows(2).all(|w| w[0][0].cmp_total(&w[1][0]).is_le()));

        let m = bind_err("select l_comment from lineitem force index (i_l_suppkey)");
        assert!(m.contains("column `l_comment`"), "{m}");
        assert!(m.contains("secondary index `i_l_suppkey`"), "{m}");
        assert!(m.contains("line 1, col 45"), "{m}");
    }

    #[test]
    fn left_join_where_conjunct_stays_above_the_join() {
        let plan = try_bind(
            "select c_custkey, o_orderkey from customer left join orders \
             on c_custkey = o_custkey where o_orderkey is not null",
        )
        .unwrap();
        // The WHERE on the left-join output must not be pushed into a
        // scan under the join: expect a Filter above the HashJoin (the
        // projection wraps it).
        fn has_filter_above_join(p: &Plan) -> bool {
            match p {
                Plan::Filter(f) => matches!(*f.input, Plan::HashJoin(_)),
                Plan::Project(p) => has_filter_above_join(&p.input),
                Plan::Sort(s) => has_filter_above_join(&s.input),
                _ => false,
            }
        }
        assert!(has_filter_above_join(&plan), "{plan:?}");
    }
}
