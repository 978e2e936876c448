//! The catalog binder: typed SQL AST → executable [`Plan`].
//!
//! Binding resolves names against the live catalog and lowers the
//! statement onto the existing plan layer, so everything downstream —
//! NDP post-processing, `taurus-verify`'s plan gate — applies to SQL
//! text for free. The lowering contract:
//!
//! - each base table in FROM becomes one [`ScanNode`] whose `output` is
//!   the columns the plan above it reads (ascending; `[0]` when none, or
//!   a secondary index's leading key column), and whose `predicate` holds
//!   the single-table WHERE/ON conjuncts in written order, lowered over
//!   *table* columns, then the predicates implied by residual WHERE ORs
//!   (below). A column only the predicate reads is not in the output: the
//!   scan runs the conjuncts on record bytes. `FORCE INDEX (i)` on a
//!   scanned table scans through `i`, which must store every column the
//!   scan reads, its predicate's included;
//! - a residual WHERE conjunct that is an OR implies, for each atom that
//!   every disjunct reads through a conjunct of its own, the OR of those
//!   conjuncts ([`implied_by_or`]): Q7's nation pair filters both
//!   `nation` scans. The OR itself stays residual, so rows cannot change;
//!   a LEFT JOIN's null-producing side gets nothing;
//! - `JOIN ... ON` lowers in written order, left-deep, except that an
//!   inner join over a filtered right input whose keys read one atom of
//!   its left input moves down next to that atom when an inner join
//!   builds on it ([`reassociate`]: `(A ⋈ X) ⋈ r` becomes `A ⋈ (X ⋈
//!   r)`, so `X`'s scan can take a join filter). Plain joins become
//!   [`HashJoinNode`]s keyed by the ON equalities, `FORCE INDEX (...)`
//!   on the right side requests a [`LookupJoinNode`] through that index,
//!   correlating the equality conjuncts that cover the index key prefix.
//!   A lookup's `inner_output` is what the plan above it reads: a column
//!   read only by its pushed `inner_predicate` is not in it. `SELECT *`
//!   lists FROM's columns in written order whatever the join order;
//! - `[NOT] EXISTS (SELECT ... FROM t WHERE ...)` binds through the same
//!   lookup analysis: `t` is an atom in a scope nested in the outer
//!   query's (unqualified names resolve to `t` first, its alias may repeat
//!   an outer one, no outer clause sees it), its WHERE is classified as a
//!   lookup join's ON, and the index is the forced one or the one whose
//!   key prefix the correlations cover best. It becomes a Semi/Anti
//!   [`LookupJoinNode`], and `[NOT] IN (SELECT ...)` a Semi/Anti
//!   [`HashJoinNode`], appended after the FROM tree and the residual
//!   WHERE, in written order;
//! - grouping lowers to one [`HashAggNode`] with layout `groups ++ aggs`
//!   (`COUNT(DISTINCT x)` to two: one deduplicating on `groups ++ [x]`,
//!   one counting per group). Over a lone base table's scan it folds the
//!   scan (the plan decides that, not the binder): its groups come out in
//!   index order when they are bare columns that deliver a prefix of the
//!   scanned index's key, in encoded-key order otherwise, and the NDP pass
//!   may push the aggregation to the Page Stores (§V-C). `AVG(x)` is
//!   `SUM(x)` and `COUNT(x)` there, and `COUNT(x)` of a base-table column
//!   that cannot be NULL is `COUNT(*)`; equal aggregates are one. HAVING
//!   filters that layout, and the SELECT list projects it (identity
//!   projections are elided);
//! - ORDER BY resolves against SELECT output positions; with LIMIT it
//!   becomes a top-N sort.
//!
//! Every diagnostic is a positioned [`Error::Parse`] (`line L, col C:`),
//! the same taxonomy the parser uses, so one wire error code covers the
//! whole frontend.

// Name scopes are lists of atom ranges; a one-scope list is meant.
#![allow(clippy::single_range_in_vec_init)]

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

use taurus_common::{DataType, Error, Result, Value};
use taurus_executor::Session;
use taurus_expr::ast::{CmpOp, Expr};
use taurus_ndp::engine::Table;
use taurus_ndp::TaurusDb;
use taurus_optimizer::ndp_post::{ndp_post_process, NdpReport};
use taurus_optimizer::plan::{
    AggFunc, AggItem, HashAggNode, HashJoinNode, JoinType, LookupJoinNode, Plan, ScanNode,
};
use taurus_verify::{family, infer_plan, plan_width, value_family, Family};

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
    /// The columns the plan above this atom reads; the atom's own pushed
    /// conjuncts do not count. A lookup's `inner_output`, and with its
    /// predicate's columns a scan's `output`.
    usage: BTreeSet<usize>,
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
    /// Per-atom single-atom conjuncts (ON-derived first, then WHERE): a
    /// base atom's scan or lookup predicate, lowered over table columns,
    /// or a Filter directly above a derived atom's plan, before any join.
    preds: Vec<Vec<&'s SqlExpr>>,
}

impl<'s> FromCx<'s> {
    /// Add an atom whose alias must be unique among the atoms from
    /// `scope_start` on (its scope).
    fn push_atom(&mut self, atom: Atom, scope_start: usize) -> Result<usize> {
        if self.atoms[scope_start..]
            .iter()
            .any(|a| a.alias == atom.alias)
        {
            return Err(parse_err(
                atom.pos,
                format!("duplicate table alias `{}`", atom.alias),
            ));
        }
        self.atoms.push(atom);
        self.derived_plans.push(None);
        self.preds.push(Vec::new());
        Ok(self.atoms.len() - 1)
    }

    /// The (atom, column) pairs `e` reads, resolved through `scopes`.
    fn refs(
        &self,
        e: &SqlExpr,
        scopes: &[Range<usize>],
        allow_agg: bool,
    ) -> Result<BTreeSet<(usize, usize)>> {
        let mut refs = BTreeSet::new();
        col_refs(e, &self.atoms, scopes, allow_agg, &mut refs)?;
        Ok(refs)
    }

    fn use_cols(&mut self, refs: impl IntoIterator<Item = (usize, usize)>) {
        for (a, c) in refs {
            self.atoms[a].usage.insert(c);
        }
    }

    /// Record that the plan above the atoms reads every column `e` reads.
    fn read(&mut self, e: &SqlExpr, scopes: &[Range<usize>], allow_agg: bool) -> Result<()> {
        let refs = self.refs(e, scopes, allow_agg)?;
        self.use_cols(refs);
        Ok(())
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
        /// The one atom of `left` that `keys` and `residual` read, if
        /// they read only one.
        left_atom: Option<usize>,
    },
    Lookup {
        left: Box<FromNode<'s>>,
        lookup: Lookup<'s>,
    },
}

/// A classified lookup join into one base atom: `JOIN t FORCE INDEX (i)
/// ON ...` in FROM, or a correlated `[NOT] EXISTS` as a Semi/Anti join.
struct Lookup<'s> {
    atom: usize,
    index: usize,
    join: JoinType,
    /// Outer (atom, col) per consumed index key column, in key order.
    key: Vec<(usize, usize)>,
    residual: Vec<&'s SqlExpr>,
    /// Where the residual's names resolve, innermost first.
    scopes: Vec<Range<usize>>,
}

/// A WHERE-level subquery conjunct, lowered to a Semi/Anti join after the
/// FROM tree.
enum SubJoin<'s> {
    Lookup(Lookup<'s>),
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
    /// A row layout: positions index `layout`, names resolve through
    /// `scopes`.
    Layout {
        atoms: &'a [Atom],
        scopes: &'a [Range<usize>],
        layout: &'a [(usize, usize)],
    },
}

impl Frame<'_> {
    fn dtypes(&self) -> Vec<DataType> {
        match self {
            Frame::Table { atoms, atom } => (0..atoms[*atom].width())
                .map(|c| atoms[*atom].col_dtype(c))
                .collect(),
            Frame::Layout { atoms, layout, .. } => {
                layout.iter().map(|&(a, c)| atoms[a].col_dtype(c)).collect()
            }
        }
    }

    /// The position a column reference lowers to.
    fn resolve(&self, qualifier: Option<&Ident>, name: &Ident) -> Result<usize> {
        match self {
            Frame::Table { atoms, atom } => {
                Ok(resolve_col(atoms, &[*atom..*atom + 1], qualifier, name)?.1)
            }
            Frame::Layout {
                atoms,
                scopes,
                layout,
            } => pos_in(layout, resolve_col(atoms, scopes, qualifier, name)?),
        }
    }

    /// Is `e` a column of this row layout that is never NULL: a NOT NULL
    /// column of a base table that is not on a LEFT JOIN's null-producing
    /// side?
    fn never_null(&self, e: &Expr) -> bool {
        let (Frame::Layout { atoms, layout, .. }, Expr::Col(p)) = (self, e) else {
            return false;
        };
        let Some(&(a, c)) = layout.get(*p) else {
            return false;
        };
        let atom = &atoms[a];
        match &atom.kind {
            AtomKind::Base { table, .. } => {
                !atom.right_of_left && table.schema.columns.get(c).is_some_and(|c| !c.nullable)
            }
            AtomKind::Derived { .. } => false,
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

/// Does the expression contain a node `hit` accepts (not descending into
/// subqueries)?
fn contains(e: &SqlExpr, hit: fn(&ExprKind) -> bool) -> bool {
    hit(&e.kind)
        || e.try_for_each_child(|c| if contains(c, hit) { Err(()) } else { Ok(()) })
            .is_err()
}

/// Does the expression contain an aggregate call?
fn contains_agg(e: &SqlExpr) -> bool {
    contains(e, |k| matches!(k, ExprKind::Agg { .. }))
}

/// Resolve every column `e` reads into `refs`. Rejects subqueries, and
/// aggregates unless `allow_agg` (an aggregate's input is a plain
/// expression again).
fn col_refs(
    e: &SqlExpr,
    atoms: &[Atom],
    scopes: &[Range<usize>],
    allow_agg: bool,
    refs: &mut BTreeSet<(usize, usize)>,
) -> Result<()> {
    match &e.kind {
        ExprKind::Column { qualifier, name } => {
            refs.insert(resolve_col(atoms, scopes, qualifier.as_ref(), name)?);
            return Ok(());
        }
        ExprKind::Agg { .. } if !allow_agg => {
            return Err(parse_err(
                e.pos,
                "aggregates are not allowed in this clause",
            ))
        }
        ExprKind::Exists { .. } | ExprKind::InSelect { .. } => {
            return Err(parse_err(
                e.pos,
                "subqueries are only supported as top-level WHERE conjuncts",
            ))
        }
        _ => {}
    }
    let allow_agg = allow_agg && !matches!(e.kind, ExprKind::Agg { .. });
    e.try_for_each_child(|c| col_refs(c, atoms, scopes, allow_agg, refs))
}

/// An EXISTS subquery's SELECT list and WHERE hold plain expressions: an
/// aggregate would make it one row whatever its WHERE says, and nested
/// subqueries are not supported.
fn plain_in_exists(e: &SqlExpr) -> Result<()> {
    if matches!(
        e.kind,
        ExprKind::Agg { .. }
            | ExprKind::Exists { .. }
            | ExprKind::InSelect { .. }
            | ExprKind::Scalar(_)
    ) {
        return Err(parse_err(
            e.pos,
            "this expression is not supported inside an EXISTS subquery",
        ));
    }
    e.try_for_each_child(plain_in_exists)
}

/// The one atom every reference in `refs` reads, if there is one.
fn single_atom(refs: &BTreeSet<(usize, usize)>) -> Option<usize> {
    let (first, last) = (refs.first()?.0, refs.last()?.0);
    (first == last).then_some(first)
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
            preds: Vec::new(),
        };
        let fnode = self.analyze_from(&s.from[0], &mut cx, false)?;
        // The outer query's scope: the FROM atoms. EXISTS tables join
        // later, each in a scope of its own no outer clause sees.
        let from = [0..cx.atoms.len()];

        // WHERE: route each conjunct to a scan predicate, a residual
        // filter, or a Semi/Anti subquery join.
        let mut residual_where: Vec<&SqlExpr> = Vec::new();
        let mut implied: Vec<(usize, SqlExpr)> = Vec::new();
        let mut sub_joins: Vec<SubJoin<'_>> = Vec::new();
        for conj in conjuncts(s.where_.as_ref()) {
            match &conj.kind {
                ExprKind::Exists { select, negated } => {
                    let lookup =
                        self.exists_join(conj.pos, select, *negated, &mut cx, from[0].clone())?;
                    sub_joins.push(SubJoin::Lookup(lookup));
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
                    let hit = resolve_col(&cx.atoms, &from, qual, name)?;
                    cx.use_cols([hit]);
                    sub_joins.push(SubJoin::InSelect {
                        pos: conj.pos,
                        negated: *negated,
                        left: hit,
                        select,
                    });
                }
                _ => {
                    let refs = cx.refs(conj, &from, false)?;
                    match single_atom(&refs) {
                        Some(i) if !cx.atoms[i].right_of_left => cx.preds[i].push(conj),
                        _ => {
                            if let ExprKind::Or(..) = conj.kind {
                                implied.extend(implied_by_or(conj, &cx, &from)?);
                            }
                            cx.use_cols(refs);
                            residual_where.push(conj);
                        }
                    }
                }
            }
        }

        // SELECT list: aliases, usage.
        let mut aliases: Vec<(String, usize)> = Vec::new();
        for (i, item) in s.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard(_) => {
                    for a in &mut cx.atoms[from[0].clone()] {
                        a.usage.extend(0..a.width());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if let Some(al) = alias {
                        aliases.push((al.name.clone(), i));
                    }
                    cx.read(expr, &from, true)?;
                }
            }
        }

        // GROUP BY: a bare name that is not a column but matches a SELECT
        // alias means that item's expression.
        let mut group_eff: Vec<&SqlExpr> = Vec::new();
        for g in &s.group_by {
            let eff = self.effective_expr(g, s, &aliases, &cx.atoms[from[0].clone()])?;
            if contains_agg(eff) {
                return Err(parse_err(g.pos, "aggregates are not allowed in GROUP BY"));
            }
            cx.read(eff, &from, false)?;
            group_eff.push(eff);
        }

        if let Some(h) = &s.having {
            cx.read(h, &from, true)?;
        }

        // ORDER BY: an alias reference needs no usage of its own.
        for (oe, _) in &s.order_by {
            if self.alias_ref(oe, &aliases).is_none() {
                cx.read(oe, &from, true)?;
            }
        }

        // -- lowering -------------------------------------------------------

        let FromCx {
            atoms,
            mut derived_plans,
            preds,
        } = cx;
        let mut preds: Vec<Vec<&SqlExpr>> = preds;
        for (a, e) in &implied {
            preds[*a].push(e);
        }
        let fnode = reassociate(fnode, &|n| holds_predicate(n, &preds, &derived_plans));

        let (mut plan, layout) =
            self.lower_from(&fnode, &atoms, &mut derived_plans, &preds, &from)?;

        if !residual_where.is_empty() {
            let fr = Frame::Layout {
                atoms: &atoms,
                scopes: &from,
                layout: &layout,
            };
            let lowered = residual_where
                .iter()
                .map(|e| self.lower_expr(e, &fr))
                .collect::<Result<Vec<_>>>()?;
            plan = merge_residual(plan, lowered);
        }

        for sj in &sub_joins {
            plan = self.lower_sub_join(plan, sj, &atoms, &preds, &layout)?;
        }

        self.lower_output(plan, s, &atoms, &layout, &from, &aliases, &group_eff)
    }

    /// Resolve a GROUP BY/HAVING-style expression through SELECT aliases:
    /// a bare, unqualified name that is no atom's column but matches
    /// exactly one alias stands for that item's expression.
    fn effective_expr<'s>(
        &self,
        e: &'s SqlExpr,
        s: &'s SelectStmt,
        aliases: &[(String, usize)],
        atoms: &[Atom],
    ) -> Result<&'s SqlExpr> {
        let name = match &e.kind {
            ExprKind::Column {
                qualifier: None,
                name,
            } => name,
            _ => return Ok(e),
        };
        let in_atoms = atoms
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

    // -- FROM analysis ------------------------------------------------------

    /// A base-table atom for `name [AS alias] [FORCE INDEX (i)]`.
    fn base_atom(
        &self,
        name: &Ident,
        alias: &Option<Ident>,
        force_index: &Option<Ident>,
        right_of_left: bool,
    ) -> Result<Atom> {
        let table = self
            .db()
            .table(&name.name)
            .map_err(|_| parse_err(name.pos, format!("unknown table `{}`", name.name)))?;
        Ok(Atom {
            alias: alias.as_ref().unwrap_or(name).name.clone(),
            pos: name.pos,
            kind: AtomKind::Base {
                table,
                force: force_index.clone(),
            },
            usage: BTreeSet::new(),
            right_of_left,
        })
    }

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
                let atom = self.base_atom(name, alias, force_index, right_of_left)?;
                Ok(FromNode::Atom(cx.push_atom(atom, 0)?))
            }
            TableRef::Derived { select, alias } => {
                let (plan, names) = self.bind_select(select)?;
                let width = plan_width(&plan);
                let dtypes = plan_dtypes(&plan, self.db());
                let i = cx.push_atom(
                    Atom {
                        alias: alias.name.clone(),
                        pos: alias.pos,
                        kind: AtomKind::Derived {
                            names,
                            dtypes,
                            width,
                        },
                        usage: BTreeSet::new(),
                        right_of_left,
                    },
                    0,
                )?;
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
                let rnode = self.analyze_from(right, cx, right_rol)?;
                let scope = [l0..cx.atoms.len()];
                // FORCE INDEX on a plain right-side table requests a
                // lookup join through that index.
                if let (
                    TableRef::Table {
                        force_index: Some(fi),
                        ..
                    },
                    FromNode::Atom(ai),
                ) = (&**right, &rnode)
                {
                    let no_key = parse_err(
                        fi.pos,
                        format!(
                            "FORCE INDEX (`{}`) needs a join equality on the index's leading key \
                             column",
                            fi.name
                        ),
                    );
                    let lookup = analyze_lookup(
                        conjuncts(Some(on)),
                        cx,
                        *ai,
                        scope.to_vec(),
                        Some(fi),
                        join,
                        no_key,
                    )?;
                    return Ok(FromNode::Lookup {
                        left: Box::new(lnode),
                        lookup,
                    });
                }
                let mut keys = Vec::new();
                let mut residual = Vec::new();
                for conj in conjuncts(Some(on)) {
                    if let ExprKind::Cmp(CmpOp::Eq, a, b) = &conj.kind {
                        let ka = plain_col(a, &cx.atoms, &scope);
                        let kb = plain_col(b, &cx.atoms, &scope);
                        // An equality between the two sides is a key; a
                        // same-side one is routed like any conjunct.
                        let key = match (ka, kb) {
                            (Some(ka), Some(kb)) if ka.0 < l1 && kb.0 >= l1 => Some((ka, kb)),
                            (Some(ka), Some(kb)) if kb.0 < l1 && ka.0 >= l1 => Some((kb, ka)),
                            _ => None,
                        };
                        if let Some((lk, rk)) = key {
                            cx.use_cols([lk, rk]);
                            keys.push((lk, rk));
                            continue;
                        }
                    }
                    route_join_conjunct(conj, cx, &scope, l1, join, &mut residual)?;
                }
                if keys.is_empty() {
                    return Err(parse_err(
                        on.pos,
                        "JOIN ... ON needs at least one equality between the two sides",
                    ));
                }
                let mut left_reads: BTreeSet<(usize, usize)> =
                    keys.iter().map(|&(lk, _)| lk).collect();
                for conj in &residual {
                    let refs = cx.refs(conj, &scope, false)?;
                    left_reads.extend(refs.into_iter().filter(|&(a, _)| a < l1));
                }
                Ok(FromNode::Hash {
                    left: Box::new(lnode),
                    right: Box::new(rnode),
                    join,
                    keys,
                    residual,
                    left_atom: single_atom(&left_reads),
                })
            }
        }
    }

    /// `[NOT] EXISTS (SELECT ... FROM t WHERE ...)` is a Semi/Anti lookup
    /// join into `t`, classified by [`analyze_lookup`]. `t` is an
    /// atom in a scope of its own, nested in the outer query's (`outer`):
    /// its names shadow the outer ones, its alias may repeat an outer
    /// alias, and no outer clause sees it.
    fn exists_join<'s>(
        &mut self,
        pos: Pos,
        sub: &'s SelectStmt,
        negated: bool,
        cx: &mut FromCx<'s>,
        outer: Range<usize>,
    ) -> Result<Lookup<'s>> {
        let [TableRef::Table {
            name,
            alias,
            force_index,
        }] = &sub.from[..]
        else {
            return Err(parse_err(
                pos,
                "an EXISTS subquery must scan a single base table",
            ));
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
        let atom = self.base_atom(name, alias, force_index, false)?;
        let ai = cx.push_atom(atom, cx.atoms.len())?;
        let scopes = vec![ai..ai + 1, outer];
        // The SELECT list only has to make sense: no plan reads it.
        for item in &sub.items {
            if let SelectItem::Expr { expr, .. } = item {
                plain_in_exists(expr)?;
                cx.refs(expr, &scopes, false)?;
            }
        }
        let conds = conjuncts(sub.where_.as_ref());
        for c in &conds {
            plain_in_exists(c)?;
        }
        let no_key = parse_err(
            pos,
            "an EXISTS subquery needs an equality between an indexed inner column and the outer \
             query",
        );
        let join = if negated {
            JoinType::Anti
        } else {
            JoinType::Semi
        };
        analyze_lookup(conds, cx, ai, scopes, force_index.as_ref(), join, no_key)
    }
}

/// Classify the conditions of a lookup join into `atom` (a FROM
/// join's ON, or an EXISTS subquery's WHERE), resolving names through
/// `scopes`. Equalities between the inner table and the outer side
/// that cover a prefix of the index's key correlate the lookup; the
/// index is the forced one or, with none forced, the one whose key
/// prefix they cover best (`no_key` when they cover none). The other
/// conjuncts route as [`route_join_conjunct`] says.
fn analyze_lookup<'s>(
    conds: Vec<&'s SqlExpr>,
    cx: &mut FromCx<'s>,
    atom: usize,
    scopes: Vec<Range<usize>>,
    force: Option<&Ident>,
    join: JoinType,
    no_key: Error,
) -> Result<Lookup<'s>> {
    let table = match &cx.atoms[atom].kind {
        AtomKind::Base { table, .. } => table.clone(),
        AtomKind::Derived { .. } => unreachable!("lookup inner is a base table"),
    };

    // Pass 1: equality candidates (inner col → first outer ref).
    let mut cand: BTreeMap<usize, (usize, (usize, usize))> = BTreeMap::new();
    for (ci, conj) in conds.iter().enumerate() {
        if let ExprKind::Cmp(CmpOp::Eq, a, b) = &conj.kind {
            let ka = plain_col(a, &cx.atoms, &scopes);
            let kb = plain_col(b, &cx.atoms, &scopes);
            let (inner, outer) = match (ka, kb) {
                (Some(ka), Some(kb)) if ka.0 == atom && kb.0 != atom => (ka.1, kb),
                (Some(ka), Some(kb)) if kb.0 == atom && ka.0 != atom => (kb.1, ka),
                _ => continue,
            };
            cand.entry(inner).or_insert((ci, outer));
        }
    }
    let covered = |i: usize| -> Vec<&(usize, (usize, usize))> {
        let key_cols = &table.index(i).tree.def.key_cols;
        key_cols.iter().map_while(|kc| cand.get(kc)).collect()
    };
    let index = match force {
        Some(fi) => resolve_index(&table, fi)?,
        // Reversed, so a tie goes to the lowest ordinal.
        None => (0..=table.secondaries.len())
            .rev()
            .max_by_key(|&i| covered(i).len())
            .unwrap_or(0),
    };

    // Consume the key prefix.
    let consumed = covered(index);
    if consumed.is_empty() {
        return Err(no_key);
    }
    let key: Vec<(usize, usize)> = consumed.iter().map(|&&(_, outer)| outer).collect();
    let consumed: BTreeSet<usize> = consumed.iter().map(|&&(ci, _)| ci).collect();
    cx.use_cols(key.iter().copied());

    // Pass 2: everything not consumed, in written order.
    let mut residual = Vec::new();
    for (ci, conj) in conds.into_iter().enumerate() {
        if !consumed.contains(&ci) {
            route_join_conjunct(conj, cx, &scopes, atom, join, &mut residual)?;
        }
    }
    Ok(Lookup {
        atom,
        index,
        join,
        key,
        residual,
        scopes,
    })
}

/// Is `e` a plain column resolving in `scopes`? No usage is recorded here;
/// classification decides that.
fn plain_col(e: &SqlExpr, atoms: &[Atom], scopes: &[Range<usize>]) -> Option<(usize, usize)> {
    match &e.kind {
        ExprKind::Column { qualifier, name } => {
            resolve_col(atoms, scopes, qualifier.as_ref(), name).ok()
        }
        _ => None,
    }
}

/// Route a join conjunct that is not a join key. One that reads one atom
/// pushes to that atom's scan if the atom is on the inner side (from
/// `inner_lo` on; ON semantics allow that even under LEFT JOIN), or under
/// an inner join; anything else is the join's residual, which LEFT JOIN
/// does not support. So a Semi/Anti join keeps an outer-only condition in
/// its `on`.
fn route_join_conjunct<'s>(
    conj: &'s SqlExpr,
    cx: &mut FromCx<'s>,
    scopes: &[Range<usize>],
    inner_lo: usize,
    join: JoinType,
    residual: &mut Vec<&'s SqlExpr>,
) -> Result<()> {
    let refs = cx.refs(conj, scopes, false)?;
    if let Some(i) = single_atom(&refs) {
        if i >= inner_lo || join == JoinType::Inner {
            cx.preds[i].push(conj);
            return Ok(());
        }
    }
    if join == JoinType::LeftOuter {
        return Err(parse_err(
            conj.pos,
            "this ON condition is not supported for LEFT JOIN",
        ));
    }
    cx.use_cols(refs);
    residual.push(conj);
    Ok(())
}

/// The single-atom predicates a residual WHERE conjunct `or` implies:
/// for each atom that every disjunct reads through at least one conjunct
/// of its own, the OR over the disjuncts of those conjuncts. A disjunct
/// is TRUE only when each of its conjuncts is, so a row `or` keeps passes
/// every implied predicate, NULLs included, and they can filter the
/// atoms' scans while `or` stays residual. An atom on a LEFT JOIN's
/// null-producing side implies nothing, as WHERE routing pushes nothing
/// there, and a conjunct with a scalar subquery counts for no atom, so
/// the subquery still runs once.
fn implied_by_or(
    or: &SqlExpr,
    cx: &FromCx<'_>,
    from: &[Range<usize>],
) -> Result<Vec<(usize, SqlExpr)>> {
    let mut disjuncts = Vec::new();
    flatten_or(or, &mut disjuncts);
    // Per disjunct, each atom's conjuncts that read only it.
    let mut parts: Vec<BTreeMap<usize, Vec<&SqlExpr>>> = Vec::new();
    for d in disjuncts {
        let mut by_atom: BTreeMap<usize, Vec<&SqlExpr>> = BTreeMap::new();
        for c in conjuncts(Some(d)) {
            if contains(c, |k| matches!(k, ExprKind::Scalar(_))) {
                continue;
            }
            if let Some(a) = single_atom(&cx.refs(c, from, false)?) {
                by_atom.entry(a).or_default().push(c);
            }
        }
        parts.push(by_atom);
    }
    let fold = |op: fn(Box<SqlExpr>, Box<SqlExpr>) -> ExprKind, es: Vec<SqlExpr>| {
        es.into_iter()
            .reduce(|a, b| SqlExpr {
                kind: op(Box::new(a), Box::new(b)),
                pos: or.pos,
            })
            .expect("every disjunct has a conjunct on the atom")
    };
    Ok(parts[0]
        .keys()
        .filter(|&&a| !cx.atoms[a].right_of_left && parts.iter().all(|p| p.contains_key(&a)))
        .map(|&a| {
            let per_disjunct = parts
                .iter()
                .map(|p| fold(ExprKind::And, p[&a].iter().map(|&c| c.clone()).collect()))
                .collect();
            (a, fold(ExprKind::Or, per_disjunct))
        })
        .collect())
}

/// Does the FROM node lower to a plan that holds a predicate? The same
/// test as [`Plan::holds_predicate`], which `decide_join_filter` applies
/// to a hash join's build side, so a join the binder moves onto a filtered
/// build is one the NDP pass can give a join filter.
fn holds_predicate(node: &FromNode<'_>, preds: &[Vec<&SqlExpr>], derived: &[Option<Plan>]) -> bool {
    let holds = |n: &FromNode<'_>| holds_predicate(n, preds, derived);
    match node {
        FromNode::Atom(i) => {
            !preds[*i].is_empty() || derived[*i].as_ref().is_some_and(Plan::holds_predicate)
        }
        FromNode::Hash {
            left,
            right,
            residual,
            ..
        } => !residual.is_empty() || holds(left) || holds(right),
        FromNode::Lookup { left, lookup } => !preds[lookup.atom].is_empty() || holds(left),
    }
}

/// Re-associate inner hash joins, top down. An inner join whose right
/// (build) input holds a predicate, and whose keys and residual read one
/// atom `X` of its left input, moves down to sit on `X` when `X` is the
/// right input of an inner hash join reached through inner joins only
/// (below a LEFT JOIN, `r` would drop rows the join must keep or
/// NULL-extend): `(A ⋈ X) ⋈ r` becomes `A ⋈ (X ⋈ r)`. `X`'s scan is then
/// the probe beside a filtered build, where the NDP pass can send it a
/// join filter.
/// After a move the node is tried again, so a dimension that a move made
/// filtered can move in turn; then its inputs are. Columns resolve through
/// `(atom, col)` layouts, so lowering needs nothing else.
fn reassociate<'s>(
    mut node: FromNode<'s>,
    filtered: &dyn Fn(&FromNode<'_>) -> bool,
) -> FromNode<'s> {
    let node = loop {
        match move_down(node, filtered) {
            Ok(moved) => node = moved,
            Err(stays) => break stays,
        }
    };
    match node {
        FromNode::Hash {
            left,
            right,
            join,
            keys,
            residual,
            left_atom,
        } => FromNode::Hash {
            left: Box::new(reassociate(*left, filtered)),
            right: Box::new(reassociate(*right, filtered)),
            join,
            keys,
            residual,
            left_atom,
        },
        FromNode::Lookup { left, lookup } => FromNode::Lookup {
            left: Box::new(reassociate(*left, filtered)),
            lookup,
        },
        atom @ FromNode::Atom(_) => atom,
    }
}

/// One move of [`reassociate`] at `node`: `Ok` with the tree after it,
/// `Err` with `node` unchanged when the rule does not fire.
fn move_down<'s>(
    node: FromNode<'s>,
    filtered: &dyn Fn(&FromNode<'_>) -> bool,
) -> std::result::Result<FromNode<'s>, FromNode<'s>> {
    match node {
        FromNode::Hash {
            mut left,
            right,
            join: JoinType::Inner,
            keys,
            residual,
            left_atom: Some(x),
        } if filtered(&right) => {
            let mut moving = Some(FromNode::Hash {
                left: Box::new(FromNode::Atom(x)),
                right,
                join: JoinType::Inner,
                keys,
                residual,
                left_atom: Some(x),
            });
            attach(&mut left, x, &mut moving);
            match moving {
                None => Ok(*left),
                // No inner join builds on `x`: the join stays.
                Some(FromNode::Hash {
                    right,
                    keys,
                    residual,
                    ..
                }) => Err(FromNode::Hash {
                    left,
                    right,
                    join: JoinType::Inner,
                    keys,
                    residual,
                    left_atom: Some(x),
                }),
                Some(_) => unreachable!("the moving join is a hash join"),
            }
        }
        other => Err(other),
    }
}

/// Put `join` (taking it) in place of atom `x` where `x` is the right
/// input of an inner hash join under `node`, walking inner joins only.
fn attach<'s>(node: &mut FromNode<'s>, x: usize, join: &mut Option<FromNode<'s>>) {
    match node {
        FromNode::Hash {
            left,
            right,
            join: JoinType::Inner,
            ..
        } => {
            if matches!(**right, FromNode::Atom(a) if a == x) {
                **right = join.take().expect("an atom appears once");
                return;
            }
            attach(left, x, join);
            if join.is_some() {
                attach(right, x, join);
            }
        }
        FromNode::Lookup { left, lookup } if lookup.join == JoinType::Inner => {
            attach(left, x, join)
        }
        _ => {}
    }
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
/// (`key ++ pk`): a column the scan reads outside it is reported by name,
/// at the `FORCE INDEX`, rather than as an execution-time failure.
fn check_index_coverage(
    table: &Table,
    index: usize,
    cols: &BTreeSet<usize>,
    force: &Ident,
) -> Result<()> {
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

/// Resolve a column reference through `scopes`, innermost first: it
/// binds in the first scope that has its qualifier or, unqualified, a
/// column of its name, so an EXISTS table's names shadow the outer
/// query's. Within a scope a name must be unambiguous.
fn resolve_col(
    atoms: &[Atom],
    scopes: &[Range<usize>],
    qualifier: Option<&Ident>,
    name: &Ident,
) -> Result<(usize, usize)> {
    for scope in scopes {
        if let Some(q) = qualifier {
            let Some(a) = scope.clone().find(|&a| atoms[a].alias == q.name) else {
                continue;
            };
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
        for a in scope.clone() {
            match atoms[a].find_col(&name.name) {
                ColHit::None => {}
                ColHit::Many => {
                    return Err(parse_err(
                        name.pos,
                        format!("ambiguous column `{}` in `{}`", name.name, atoms[a].alias),
                    ))
                }
                ColHit::One(c) => {
                    if let Some((prev, _)) = found {
                        return Err(parse_err(
                            name.pos,
                            format!(
                                "ambiguous column `{}` (in `{}` and `{}`)",
                                name.name, atoms[prev].alias, atoms[a].alias
                            ),
                        ));
                    }
                    found = Some((a, c));
                }
            }
        }
        if let Some(hit) = found {
            return Ok(hit);
        }
    }
    Err(match qualifier {
        Some(q) => parse_err(q.pos, format!("unknown table or alias `{}`", q.name)),
        None => parse_err(name.pos, format!("unknown column `{}`", name.name)),
    })
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
        preds: &[Vec<&SqlExpr>],
        from: &[Range<usize>],
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
                        let fr = Frame::Table { atoms, atom: *i };
                        let preds = preds[*i]
                            .iter()
                            .map(|e| self.lower_expr(e, &fr))
                            .collect::<Result<Vec<_>>>()?;
                        let def = &table.index(index).tree.def;
                        let output: Vec<usize> = if a.usage.is_empty() {
                            vec![if def.is_primary { 0 } else { def.key_cols[0] }]
                        } else {
                            a.usage.iter().copied().collect()
                        };
                        if let Some(fi) = force {
                            // Its predicate reads the index's records too.
                            let read = output.iter().copied();
                            let read = read.chain(preds.iter().flat_map(Expr::columns));
                            check_index_coverage(table, index, &read.collect(), fi)?;
                        }
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
                        if !preds[*i].is_empty() {
                            let fr = Frame::Layout {
                                atoms,
                                scopes: from,
                                layout: &layout,
                            };
                            let preds = preds[*i]
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
                ..
            } => {
                let (lp, ll) = self.lower_from(left, atoms, derived, preds, from)?;
                let (rp, rl) = self.lower_from(right, atoms, derived, preds, from)?;
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
                        scopes: from,
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
            FromNode::Lookup { left, lookup } => {
                let (lp, ll) = self.lower_from(left, atoms, derived, preds, from)?;
                self.lower_lookup(lp, ll, lookup, atoms, preds)
            }
        }
    }

    /// Lower a lookup join from `outer` (laid out as `layout`). Its `on`
    /// reads `layout ++ inner_output`, which is also what an inner or
    /// left join outputs; a Semi/Anti join outputs `layout`.
    fn lower_lookup(
        &mut self,
        outer: Plan,
        mut layout: Vec<(usize, usize)>,
        lookup: &Lookup<'_>,
        atoms: &[Atom],
        preds: &[Vec<&SqlExpr>],
    ) -> Result<(Plan, Vec<(usize, usize)>)> {
        let a = &atoms[lookup.atom];
        let table = match &a.kind {
            AtomKind::Base { table, .. } => table,
            AtomKind::Derived { .. } => unreachable!("lookup inner is a base table"),
        };
        let outer_key_cols = lookup
            .key
            .iter()
            .map(|k| pos_in(&layout, *k))
            .collect::<Result<Vec<_>>>()?;
        let inner_output: Vec<usize> = a.usage.iter().copied().collect();
        let fr = Frame::Table {
            atoms,
            atom: lookup.atom,
        };
        let inner_predicate = preds[lookup.atom]
            .iter()
            .map(|e| self.lower_expr(e, &fr))
            .collect::<Result<Vec<_>>>()?;
        let outer_width = layout.len();
        layout.extend(inner_output.iter().map(|&c| (lookup.atom, c)));
        let on = if lookup.residual.is_empty() {
            None
        } else {
            let fr = Frame::Layout {
                atoms,
                scopes: &lookup.scopes,
                layout: &layout,
            };
            let preds = lookup
                .residual
                .iter()
                .map(|e| self.lower_expr(e, &fr))
                .collect::<Result<Vec<_>>>()?;
            Some(Expr::and(preds))
        };
        if matches!(lookup.join, JoinType::Semi | JoinType::Anti) {
            layout.truncate(outer_width);
        }
        let plan = Plan::LookupJoin(LookupJoinNode {
            outer: Box::new(outer),
            table: table.schema.name.clone(),
            index: lookup.index,
            outer_key_cols,
            on,
            inner_output,
            join: lookup.join,
            inner_predicate,
            inner_ndp: None,
        });
        Ok((plan, layout))
    }

    fn lower_sub_join(
        &mut self,
        plan: Plan,
        sj: &SubJoin<'_>,
        atoms: &[Atom],
        preds: &[Vec<&SqlExpr>],
        layout: &[(usize, usize)],
    ) -> Result<Plan> {
        let (pos, negated, left, select) = match sj {
            SubJoin::Lookup(lookup) => {
                return Ok(self
                    .lower_lookup(plan, layout.to_vec(), lookup, atoms, preds)?
                    .0)
            }
            SubJoin::InSelect {
                pos,
                negated,
                left,
                select,
            } => (*pos, *negated, *left, select),
        };
        let (rplan, _) = self.bind_select(select)?;
        if plan_width(&rplan) != 1 {
            return Err(parse_err(
                pos,
                "an IN (SELECT ...) subquery must return exactly one column",
            ));
        }
        // A trailing single-column projection folds into the join key; the
        // registry plans join against the pre-projection input directly.
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
        let lfam = family(atoms[left.0].col_dtype(left.1));
        let rdts = plan_dtypes(&rplan, self.db());
        if family(rdts[rk]) != lfam {
            return Err(parse_err(
                pos,
                format!(
                    "type mismatch: cannot compare a {} column to a {} subquery",
                    lfam.name(),
                    family(rdts[rk]).name()
                ),
            ));
        }
        Ok(Plan::HashJoin(HashJoinNode {
            left: Box::new(plan),
            right: Box::new(rplan),
            left_keys: vec![pos_in(layout, left)?],
            right_keys: vec![rk],
            join: if negated {
                JoinType::Anti
            } else {
                JoinType::Semi
            },
            filter: None,
        }))
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
            if family(da) != family(db) {
                return Err(parse_err(
                    pos,
                    format!(
                        "type mismatch: cannot {what} a {} expression and a {} expression",
                        family(da).name(),
                        family(db).name()
                    ),
                ));
            }
        }
        Ok(())
    }

    fn lower_expr(&mut self, e: &SqlExpr, fr: &Frame<'_>) -> Result<Expr> {
        match &e.kind {
            ExprKind::Column { qualifier, name } => {
                Ok(Expr::Col(fr.resolve(qualifier.as_ref(), name)?))
            }
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
                        if family(dt) != Family::Num {
                            return Err(parse_err(
                                e.pos,
                                format!(
                                    "type mismatch: arithmetic needs numeric operands, got a {} \
                                     expression",
                                    family(dt).name()
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
                    if family(dt) != Family::Str {
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
                let efam = self.dtype_of(&le, fr).map(family);
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
                                    ef.name(),
                                    vf.name()
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
                let else_ = self.lower_expr(else_, fr)?;
                Expr::typed_case(bs, else_, &fr.dtypes()).map_err(|err| parse_err(e.pos, err))
            }
            ExprKind::ExtractYear(a) => {
                let la = self.lower_expr(a, fr)?;
                if let Some(dt) = self.dtype_of(&la, fr) {
                    if family(dt) != Family::Date {
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
                    if family(dt) != Family::Str {
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
        if !self.items.contains(&item) {
            self.items.push(item);
        }
    }
}

/// The aggregates a call of `func` folds (`star` for COUNT(*)): its own,
/// or for AVG a SUM and a COUNT of its input, which its value divides.
/// "The calculation of AVG is pushed down as well" (§III) as those two,
/// so AVG is decided here once, and nothing below the binder knows it.
fn agg_funcs(func: AggName, star: bool) -> &'static [AggFunc] {
    match (func, star) {
        (AggName::Count, true) => &[AggFunc::CountStar],
        (AggName::Count, false) => &[AggFunc::Count],
        (AggName::Sum, _) => &[AggFunc::Sum],
        (AggName::Min, _) => &[AggFunc::Min],
        (AggName::Max, _) => &[AggFunc::Max],
        (AggName::Avg, _) => &[AggFunc::Sum, AggFunc::Count],
    }
}

/// The aggregate items a call of `func` over `input` folds in frame `fr`
/// ([`agg_funcs`]). A COUNT of a column that is never NULL there counts
/// every row: it is `COUNT(*)`, and shares its state.
fn agg_items(func: AggName, input: &Option<Expr>, fr: &Frame<'_>) -> Vec<AggItem> {
    agg_funcs(func, input.is_none())
        .iter()
        .map(|&func| match input {
            Some(e) if func == AggFunc::Count && fr.never_null(e) => AggItem {
                func: AggFunc::CountStar,
                input: None,
            },
            _ => AggItem {
                func,
                input: input.clone(),
            },
        })
        .collect()
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
                for item in agg_items(*func, &input, fr) {
                    set.push(item);
                }
            }
            return Ok(());
        }
        if let ExprKind::Exists { .. } | ExprKind::InSelect { .. } = e.kind {
            return Err(parse_err(
                e.pos,
                "subqueries are only supported as top-level WHERE conjuncts",
            ));
        }
        e.try_for_each_child(|c| self.collect_aggs(c, fr, set))
    }

    /// Lower an expression in aggregation context: aggregate calls and
    /// whole group expressions become positions into `groups ++ aggs` (an
    /// AVG its SUM's divided by its COUNT's); an ungrouped bare column is
    /// the classic aggregate-misuse error.
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
            let cols = agg_items(*func, &input, fr).into_iter().map(|item| {
                set.items
                    .iter()
                    .position(|a| *a == item)
                    .map(|i| Expr::Col(groups.len() + i))
            });
            return cols
                .collect::<Option<Vec<_>>>()
                .and_then(|cols| cols.into_iter().reduce(Expr::div))
                .ok_or_else(|| Error::Internal("binder: aggregate not collected".into()));
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
                let else_ = self.lower_agg_expr(else_, fr, groups, set)?;
                // Over the aggregation's output: its groups, then its
                // aggregates.
                let input = fr.dtypes();
                let mut types = groups
                    .iter()
                    .map(|g| g.dtype(&input))
                    .collect::<Result<Vec<_>>>()?;
                if set.distinct.is_some() {
                    types.push(DataType::BigInt);
                }
                for item in &set.items {
                    let t = item.input.as_ref().map(|i| i.dtype(&input)).transpose()?;
                    types.push(item.func.output_type(t).ok_or_else(|| {
                        parse_err(e.pos, format!("{} of {t:?} has no type", item.func.name()))
                    })?);
                }
                Expr::typed_case(bs, else_, &types).map_err(|err| parse_err(e.pos, err))
            }
            _ => Err(parse_err(
                e.pos,
                "this expression must appear in the GROUP BY clause or be used in an aggregate",
            )),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_output(
        &mut self,
        mut plan: Plan,
        s: &SelectStmt,
        atoms: &[Atom],
        layout: &[(usize, usize)],
        from: &[Range<usize>],
        aliases: &[(String, usize)],
        group_eff: &[&SqlExpr],
    ) -> Result<(Plan, Vec<String>)> {
        let fr = Frame::Layout {
            atoms,
            scopes: from,
            layout,
        };
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
                // Two-level plan: dedup on groups ++ arg, then count the
                // arg per group (a NULL arg is a group, not a value).
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
                        func: AggFunc::Count,
                        input: Some(Expr::Col(groups.len())),
                    }],
                });
                width = groups.len() + 1;
            } else {
                plan = Plan::HashAgg(HashAggNode {
                    input: Box::new(plan),
                    group: groups.clone(),
                    aggs: set.items.clone(),
                });
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
                    // FROM's columns in written order, whatever order
                    // re-associated joins lay them out in.
                    SelectItem::Wildcard(_) => {
                        for a in from[0].clone() {
                            for c in 0..atoms[a].width() {
                                exprs.push(Expr::Col(pos_in(layout, (a, c))?));
                                names.push(atoms[a].col_name(c));
                            }
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

    /// How many of the plan's scans a `HashAgg` folds.
    fn agg_scans(plan: &Plan) -> usize {
        let mut n = 0;
        plan.for_each_scan(&mut |_, agg| n += usize::from(agg));
        n
    }

    /// The `HashAgg` folding a scan under the plan's output operators (and
    /// a join's probe side).
    fn agg_scan(plan: &Plan) -> &HashAggNode {
        match plan {
            Plan::HashAgg(a) if a.scan().is_some() => a,
            Plan::HashJoin(j) => agg_scan(&j.left),
            Plan::Project(x) => agg_scan(&x.input),
            Plan::Filter(x) => agg_scan(&x.input),
            Plan::Sort(x) => agg_scan(&x.input),
            Plan::Limit { input, .. } => agg_scan(input),
            other => panic!("no scan-folding HashAgg in {other:?}"),
        }
    }

    /// The scan `plan`'s scan-folding `HashAgg` folds.
    fn folded(plan: &Plan) -> &ScanNode {
        agg_scan(plan).scan().unwrap()
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
            assert!(agg_scan(&plan).index_ordered(db()), "{sql}");
            taurus_verify::check_plan(&plan, db()).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        }
        // Q6's aggregate input, over table columns, is l_extendedprice (5)
        // times l_discount (6).
        let q6 = try_bind(tpch("Q6")).unwrap();
        let a = agg_scan(&q6);
        assert_eq!(a.group_cols(), Some(vec![]));
        let aggs = a.table_aggs().unwrap();
        assert_eq!(
            aggs[0].input,
            Some(Expr::mul(Expr::col(5), Expr::col(6))),
            "{a:?}"
        );
        // Q18's derived table groups by l_orderkey, the primary key's
        // leading column, and sums l_quantity.
        let q18 = try_bind(tpch("Q18")).unwrap();
        let a = agg_scan(&q18);
        assert_eq!(a.group_cols(), Some(vec![0]));
        assert_eq!(a.table_aggs().unwrap()[0].input, Some(Expr::col(4)));
        // FORCE INDEX chooses the index the aggregation scans.
        let counted = try_bind(
            "select count(*) from lineitem force index (i_l_suppkey) where l_suppkey <= 5",
        )
        .unwrap();
        assert_eq!(
            Some(folded(&counted).index),
            lineitem.find_index("i_l_suppkey")
        );
    }

    /// A GROUP BY of bare columns that does not follow the index folds its
    /// scan too; its groups come out in encoded-key order, as a `HashAgg`
    /// over a pulled input gives them.
    #[test]
    fn hashed_aggregation_lowers_to_agg_scan() {
        let session = Session::new(db());
        for sql in [
            // GROUP BY (l_returnflag, l_linestatus): not a key prefix.
            tpch("Q1"),
            // The key's columns, but not in key order.
            "select l_linenumber, l_orderkey, count(*) from lineitem \
             group by l_linenumber, l_orderkey",
        ] {
            let plan = try_bind(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            assert_eq!(agg_scans(&plan), 1, "{sql}: {plan:?}");
            assert!(!agg_scan(&plan).index_ordered(db()), "{sql}");
            taurus_verify::check_plan(&plan, db()).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            // The rows, and their order, are those of the same aggregation
            // pulling its scan through an identity projection.
            let Plan::HashAgg(a) = strip_outputs(&plan) else {
                panic!("{sql}: {plan:?}")
            };
            let width = folded(&plan).output.len();
            let pulled = Plan::HashAgg(HashAggNode {
                input: Box::new(
                    a.input
                        .as_ref()
                        .clone()
                        .project((0..width).map(Expr::col).collect()),
                ),
                ..a.clone()
            });
            let want = session.execute_plan(&pulled).unwrap();
            let got = session.execute_plan(&Plan::HashAgg(a.clone())).unwrap();
            assert!(got.len() > 1, "{sql}");
            assert_eq!(got, want, "{sql}");
        }
        // Q1's second product is an input of its own.
        let q1 = try_bind(tpch("Q1")).unwrap();
        let a = agg_scan(&q1);
        assert_eq!(a.group_cols(), Some(vec![8, 9]));
        assert!(a
            .aggs
            .iter()
            .any(|i| matches!(&i.input, Some(Expr::Arith(..)))));
    }

    /// The plan under its output operators.
    fn strip_outputs(plan: &Plan) -> &Plan {
        match plan {
            Plan::Project(x) => strip_outputs(&x.input),
            Plan::Filter(x) => strip_outputs(&x.input),
            Plan::Sort(x) => strip_outputs(&x.input),
            Plan::Limit { input, .. } => strip_outputs(input),
            other => other,
        }
    }

    /// A block grouped by an expression, or aggregating above a join,
    /// gives storage nothing to group by: no `HashAgg` of it groups a scan
    /// by bare columns. `COUNT(DISTINCT x)` deduplicates in a `HashAgg`
    /// that does, grouped by `x`.
    #[test]
    fn other_aggregation_blocks_stay_hash_aggregates() {
        fn bare_groups(plan: &Plan) -> usize {
            let mut n = 0;
            let mut stack = vec![plan];
            while let Some(p) = stack.pop() {
                match p {
                    Plan::HashAgg(a) => {
                        n += usize::from(a.group_cols().is_some());
                        stack.push(&a.input);
                    }
                    Plan::HashJoin(j) => stack.extend([&*j.left, &*j.right]),
                    Plan::LookupJoin(j) => stack.push(&j.outer),
                    Plan::Project(x) => stack.push(&x.input),
                    Plan::Filter(x) => stack.push(&x.input),
                    Plan::Sort(x) => stack.push(&x.input),
                    Plan::Limit { input, .. } => stack.push(input),
                    Plan::Exchange(e) => stack.push(&e.child),
                    Plan::Scan(_) => {}
                }
            }
            n
        }
        for sql in [
            // A key-prefix group over an expression.
            "select l_orderkey + 1, count(*) from lineitem group by l_orderkey + 1",
            // Q22's group is a `substring`.
            tpch("Q22"),
            // A key-prefix group above a join.
            "select c_custkey, count(*) from customer join orders \
             on c_custkey = o_custkey group by c_custkey",
        ] {
            let plan = try_bind(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            assert_eq!(bare_groups(&plan), 0, "{sql}: {plan:?}");
        }
        let plan = try_bind("select count(distinct l_suppkey) from lineitem").unwrap();
        let Plan::HashAgg(count) = &plan else {
            panic!("{plan:?}")
        };
        let Plan::HashAgg(dedup) = &*count.input else {
            panic!("{plan:?}")
        };
        assert_eq!(dedup.group_cols(), Some(vec![2]), "{plan:?}");
        assert!(dedup.aggs.is_empty() && count.scan().is_none(), "{plan:?}");
    }

    #[test]
    fn agg_scans_take_the_ndp_aggregation_decision() {
        let mut cfg = ClusterConfig::default();
        cfg.ndp.enabled = true;
        cfg.ndp.min_io_pages = 1;
        let db = TaurusDb::new(cfg);
        // The benchmark's scale: 50 suppliers.
        taurus_tpch::load(&db, 0.005, 7).unwrap();
        db.buffer_pool().clear();
        let session = Session::new(&db);
        let choice = |name: &str| {
            let Statement::Select(s) = crate::parser::parse(tpch(name)).unwrap() else {
                panic!("{name} is a SELECT");
            };
            let plan = bind(&session, &s).unwrap();
            let d = folded(&plan).ndp.clone();
            d.unwrap_or_else(|| panic!("{name}: the scan is pushed"))
                .choice
        };
        // Q18's bare-column, predicate-free aggregation goes to storage,
        // and so do Q6's and Q1's expression inputs, with their
        // predicates and projections.
        let q18 = choice("Q18");
        assert!(q18.aggregation.is_some(), "{q18:?}");
        for name in ["Q6", "Q1"] {
            let c = choice(name);
            let agg = c
                .aggregation
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: {c:?}"));
            assert!(
                agg.specs
                    .iter()
                    .any(|s| matches!(&s.input, Some(Expr::Arith(..)))),
                "{name}: {c:?}"
            );
            assert!(
                c.predicate.is_some() && c.projection.is_some(),
                "{name}: {c:?}"
            );
        }
        // Q15 groups by l_suppkey: every leaf meets about as many
        // suppliers as it has rows, so the estimate keeps it home.
        let Statement::Select(q15) = crate::parser::parse(tpch("Q15")).unwrap() else {
            panic!("Q15 is a SELECT");
        };
        let (plan, reports) = bind_reported(&session, &q15).unwrap();
        assert!(folded(&plan)
            .ndp
            .as_ref()
            .is_some_and(|d| d.choice.aggregation.is_none()));
        let r = reports.iter().find(|r| r.group_limit > 0.0).unwrap();
        assert!(!r.aggregation && r.groups_per_leaf > r.group_limit, "{r:?}");
    }

    /// An AVG is a SUM over a COUNT of its input from the binder down:
    /// the SUM a query also asks for is shared, the Project divides, and
    /// storage is asked for the plan's aggregates one for one. A COUNT of
    /// a NOT NULL column is `COUNT(*)`, so Q1's three AVGs over NOT NULL
    /// columns share its `COUNT(*)`: its eight aggregates are six, not
    /// eleven. A column on a LEFT JOIN's null-producing side, or a derived
    /// table's, keeps its COUNT.
    #[test]
    fn avg_is_its_sum_over_its_count() {
        let mut cfg = ClusterConfig::default();
        cfg.ndp.enabled = true;
        cfg.ndp.min_io_pages = 1;
        let db = TaurusDb::new(cfg);
        taurus_tpch::load(&db, 0.002, 7).unwrap();
        db.buffer_pool().clear();
        let session = Session::new(&db);
        let bound = |sql: &str| {
            let Statement::Select(s) = crate::parser::parse(sql).unwrap() else {
                panic!("{sql} is a SELECT");
            };
            bind(&session, &s).unwrap()
        };
        let plan = bound("select sum(l_quantity), avg(l_quantity), count(*) from lineitem");
        let Plan::Project(p) = &plan else {
            panic!("{plan:?}")
        };
        assert_eq!(
            p.exprs,
            vec![
                Expr::col(0),
                Expr::div(Expr::col(0), Expr::col(1)),
                Expr::col(1)
            ]
        );
        let aggs = agg_scan(&plan).table_aggs().unwrap();
        assert_eq!(
            aggs,
            vec![
                AggItem {
                    func: AggFunc::Sum,
                    input: Some(Expr::col(4)),
                },
                AggItem {
                    func: AggFunc::CountStar,
                    input: None,
                },
            ]
        );
        let counts = |plan: &Plan| {
            let Plan::HashAgg(a) = strip_outputs(plan) else {
                panic!("{plan:?}")
            };
            a.aggs.iter().map(|a| a.func).collect::<Vec<_>>()
        };
        // o_orderkey is NOT NULL, but a LEFT JOIN pads it with NULLs.
        let padded = bound(
            "select count(o_orderkey), count(*) from customer \
             left join orders on c_custkey = o_custkey",
        );
        assert_eq!(counts(&padded), [AggFunc::Count, AggFunc::CountStar]);
        // A derived table's column is not a base table's.
        let derived =
            bound("select count(k), count(*) from (select l_orderkey as k from lineitem) as d");
        assert_eq!(counts(&derived), [AggFunc::Count, AggFunc::CountStar]);
        let pushed = |plan: &Plan| {
            let d = folded(plan).ndp.clone();
            d.and_then(|d| d.choice.aggregation)
                .unwrap_or_else(|| panic!("{plan:?}"))
                .specs
        };
        assert_eq!(pushed(&plan), aggs);
        assert_eq!(pushed(&bound(tpch("Q1"))).len(), 6);
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
        // A column only the scan's own predicate reads is not in its
        // output, but the scan reads it from the index's records all the
        // same: it is reported by name and position too.
        let m = bind_err(
            "select l_suppkey from lineitem force index (i_l_suppkey) \
             where l_quantity < 2 and l_suppkey <= 5",
        );
        assert!(m.contains("column `l_quantity`"), "{m}");
        assert!(m.contains("secondary index `i_l_suppkey`"), "{m}");
        assert!(m.contains("line 1, col 45"), "{m}");
    }

    /// A scan outputs what the plan above it reads, as a lookup does: a
    /// column its own predicate alone reads stays out.
    #[test]
    fn scans_output_only_what_the_plan_above_reads() {
        for (q, table, gone, kept) in [
            ("Q13", "orders", "o_comment", "o_custkey"),
            ("Q1", "lineitem", "l_shipdate", "l_tax"),
        ] {
            let plan = try_bind(tpch(q)).unwrap();
            let t = db().table(table).unwrap();
            let col = |name: &str| t.schema.col_index(name).unwrap();
            let mut outputs = Vec::new();
            plan.for_each_scan(&mut |s, _| {
                if s.table == table {
                    outputs.push(s.output.clone());
                }
            });
            let [output] = &outputs[..] else {
                panic!("{q}: {plan:?}")
            };
            assert!(!output.contains(&col(gone)), "{q}: {output:?}");
            assert!(output.contains(&col(kept)), "{q}: {output:?}");
        }
    }

    /// The plan's lookup joins, outermost first.
    fn lookups(plan: &Plan) -> Vec<&LookupJoinNode> {
        let mut out = Vec::new();
        let mut stack = vec![plan];
        while let Some(p) = stack.pop() {
            match p {
                Plan::LookupJoin(j) => {
                    out.push(j);
                    stack.push(&j.outer);
                }
                Plan::HashJoin(j) => stack.extend([&*j.right, &*j.left]),
                Plan::HashAgg(a) => stack.push(&a.input),
                Plan::Project(x) => stack.push(&x.input),
                Plan::Filter(x) => stack.push(&x.input),
                Plan::Sort(x) => stack.push(&x.input),
                Plan::Limit { input, .. } => stack.push(input),
                Plan::Exchange(e) => stack.push(&e.child),
                Plan::Scan(_) => {}
            }
        }
        out
    }

    /// EXISTS and `JOIN ... FORCE INDEX` bind through one lookup path, so
    /// both follow the scans' output rule: a lookup outputs what the plan
    /// above it reads, not what only its own pushed conjuncts read.
    #[test]
    fn lookups_output_only_what_the_plan_above_reads() {
        let lineitem = db().table("lineitem").unwrap();
        let col = |name: &str| lineitem.schema.col_index(name).unwrap();
        for (q, want) in [("Q4", vec![vec![]]), ("Q22", vec![vec![]])] {
            let plan = try_bind(tpch(q)).unwrap();
            let got: Vec<_> = lookups(&plan)
                .iter()
                .map(|j| j.inner_output.clone())
                .collect();
            assert_eq!(got, want, "{q}: {plan:?}");
        }
        // Q21: NOT EXISTS l3 above EXISTS l2; each reads l_suppkey in its
        // residual, and l3's date comparison is pushed.
        let q21 = try_bind(tpch("Q21")).unwrap();
        let q21 = lookups(&q21);
        let joins: Vec<_> = q21
            .iter()
            .map(|j| (j.join, j.inner_output.clone()))
            .collect();
        let suppkey = vec![col("l_suppkey")];
        assert_eq!(
            joins,
            [(JoinType::Anti, suppkey.clone()), (JoinType::Semi, suppkey)]
        );
        assert_eq!(q21[0].inner_predicate.len(), 1);
        // Q19's FROM lookup: l_shipinstruct and l_shipmode are read by its
        // inner predicate only.
        let q19 = try_bind(tpch("Q19")).unwrap();
        let [j] = lookups(&q19)[..] else {
            panic!("{q19:?}")
        };
        // Its two conjuncts, and the `l_quantity` ranges its residual OR
        // implies.
        assert_eq!(j.inner_predicate.len(), 3, "{j:?}");
        for name in ["l_shipinstruct", "l_shipmode"] {
            assert!(!j.inner_output.contains(&col(name)), "{name}: {j:?}");
        }
        for name in ["l_quantity", "l_extendedprice", "l_discount"] {
            assert!(j.inner_output.contains(&col(name)), "{name}: {j:?}");
        }
    }

    #[test]
    fn exists_names_resolve_to_the_subquery_first() {
        // `l_quantity` is a column of both scopes: it is the subquery's, so
        // it is pushed into the probe instead of comparing outer rows.
        let plan = try_bind(
            "select count(*) from lineitem where exists (select * from lineitem as l2 \
             where l2.l_orderkey = lineitem.l_orderkey and l_quantity > 49)",
        )
        .unwrap();
        let [j] = lookups(&plan)[..] else {
            panic!("{plan:?}")
        };
        assert_eq!((j.inner_predicate.len(), &j.on), (1, &None), "{j:?}");
        taurus_verify::check_plan(&plan, db()).unwrap();

        // The subquery's table may be one the outer FROM reads, unaliased:
        // it binds as if it had an alias of its own.
        let bare = try_bind(
            "select count(*) from orders join lineitem on o_orderkey = l_orderkey \
             where exists (select * from orders where o_orderkey = l_orderkey \
             and o_orderstatus = 'F')",
        )
        .unwrap();
        let aliased = try_bind(
            "select count(*) from orders join lineitem on o_orderkey = l_orderkey \
             where exists (select * from orders as o2 where o2.o_orderkey = l_orderkey \
             and o2.o_orderstatus = 'F')",
        )
        .unwrap();
        assert_eq!(format!("{bare:?}"), format!("{aliased:?}"));
        taurus_verify::check_plan(&bare, db()).unwrap();
    }

    #[test]
    fn exists_probes_the_forced_index() {
        let lineitem = db().table("lineitem").unwrap();
        // Both correlations cover one key column, of the primary index
        // and of `i_l_suppkey`: unforced, the tie goes to the primary.
        let sql = |force: &str| {
            format!(
                "select count(*) from orders join lineitem as l1 on o_orderkey = l1.l_orderkey \
                 where exists (select * from lineitem {force} where lineitem.l_orderkey = \
                 o_orderkey and l_suppkey = l1.l_suppkey)"
            )
        };
        let index = |sql: &str| {
            let plan = try_bind(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            taurus_verify::check_plan(&plan, db()).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
            let ls = lookups(&plan);
            assert_eq!(ls.len(), 1, "{plan:?}");
            Some(ls[0].index)
        };
        assert_eq!(index(&sql("")), Some(0));
        assert_eq!(
            index(&sql("force index (i_l_suppkey)")),
            lineitem.find_index("i_l_suppkey")
        );
    }

    #[test]
    fn exists_diagnostics_are_positioned() {
        for (sql, msg, col) in [
            (
                "select count(*) from orders where exists (select * from \
                 (select l_orderkey from lineitem) as t where t.l_orderkey = o_orderkey)",
                "an EXISTS subquery must scan a single base table",
                35,
            ),
            (
                "select count(*) from orders where not exists (select l_orderkey from \
                 lineitem where l_orderkey = o_orderkey group by l_orderkey)",
                "an EXISTS subquery cannot use GROUP BY, HAVING, ORDER BY, or LIMIT",
                35,
            ),
            (
                "select count(*) from orders where exists (select * from lineitem \
                 where l_comment = o_comment)",
                "an EXISTS subquery needs an equality between an indexed inner column \
                 and the outer query",
                35,
            ),
            (
                "select count(*) from orders where exists (select * from lineitem \
                 where l_orderkey = o_orderkey and max(l_quantity) > 1)",
                "this expression is not supported inside an EXISTS subquery",
                100,
            ),
        ] {
            let m = bind_err(sql);
            assert!(m.contains(msg), "{sql}: {m}");
            assert!(m.contains(&format!("line 1, col {col}:")), "{sql}: {m}");
        }
    }

    /// An EXISTS subquery's SELECT list is resolved in its scopes, though
    /// no plan reads it.
    #[test]
    fn exists_select_list_is_checked() {
        for (sql, msg, col) in [
            // An ungrouped aggregate makes the subquery one row whatever its
            // WHERE says, so a semi join would drop orders it must keep.
            (
                "select count(*) from orders where exists (select count(*) from lineitem \
                 where l_orderkey = o_orderkey and l_quantity > 49)",
                "this expression is not supported inside an EXISTS subquery",
                50,
            ),
            (
                "select count(*) from orders where exists (select no_such_col from lineitem \
                 where l_orderkey = o_orderkey)",
                "unknown column `no_such_col`",
                50,
            ),
        ] {
            let m = bind_err(sql);
            assert!(m.contains(msg), "{sql}: {m}");
            assert!(m.contains(&format!("line 1, col {col}:")), "{sql}: {m}");
        }
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

    /// The plan's join tree: a scan is its table, a hash join `(probe ⋈
    /// build)`, a lookup join `(outer ⋈L inner)`; the operators above and
    /// between them are skipped.
    fn shape(plan: &Plan) -> String {
        match plan {
            Plan::Scan(s) => s.table.clone(),
            Plan::HashJoin(j) => format!("({} ⋈ {})", shape(&j.left), shape(&j.right)),
            Plan::LookupJoin(j) => format!("({} ⋈L {})", shape(&j.outer), j.table),
            Plan::HashAgg(a) => shape(&a.input),
            Plan::Project(x) => shape(&x.input),
            Plan::Filter(x) => shape(&x.input),
            Plan::Sort(x) => shape(&x.input),
            Plan::Limit { input, .. } => shape(input),
            Plan::Exchange(e) => shape(&e.child),
        }
    }

    /// A catalog with NDP on and no I/O gate, so every eligible hash join
    /// takes a join filter decision.
    fn ndp_db() -> &'static Arc<TaurusDb> {
        static DB: OnceLock<Arc<TaurusDb>> = OnceLock::new();
        DB.get_or_init(|| {
            let mut cfg = ClusterConfig::default();
            cfg.ndp.enabled = true;
            cfg.ndp.min_io_pages = 1;
            let db = TaurusDb::new(cfg);
            taurus_tpch::load(&db, 0.001, 7).expect("load tiny tpch");
            db
        })
    }

    /// The join tree `sql` binds to, and its EXPLAIN's join filter tags
    /// in plan order, with NDP on.
    fn ndp_shape(sql: &str) -> (String, Vec<String>) {
        let Statement::Select(s) = crate::parser::parse(sql).unwrap() else {
            panic!("{sql} is a SELECT");
        };
        let session = Session::new(ndp_db());
        let plan = bind(&session, &s).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        taurus_verify::check_plan(&plan, ndp_db()).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        let text = crate::explain(&session, &s).unwrap();
        let logical = text.split("Physical pipeline").next().unwrap();
        let filters = logical
            .match_indices("[join filter -> ")
            .map(|(i, _)| {
                let tag = &logical[i..];
                tag[..=tag.find(']').unwrap()].to_string()
            })
            .collect();
        (shape(&plan), filters)
    }

    /// Q7 and Q8: a filtered dimension joins next to the table it keys
    /// on, so `lineitem` (Q7) and `orders` (Q7, Q8) probe filtered builds
    /// and get join filters.
    #[test]
    fn a_filtered_dimension_joins_next_to_the_table_it_keys_on() {
        let (q7, f7) = ndp_shape(tpch("Q7"));
        assert_eq!(
            q7,
            "((lineitem ⋈ (supplier ⋈ nation)) ⋈ (orders ⋈ (customer ⋈ nation)))"
        );
        // With no I/O gate the dimension scans under them get one too.
        assert_eq!(
            f7,
            [
                "[join filter -> lineitem.l_suppkey]",
                "[join filter -> supplier.s_nationkey]",
                "[join filter -> orders.o_custkey]",
                "[join filter -> customer.c_nationkey]"
            ]
        );
        let (q8, f8) = ndp_shape(tpch("Q8"));
        assert_eq!(
            q8,
            "((((lineitem ⋈ part) ⋈ (orders ⋈ (customer ⋈ (nation ⋈ region)))) ⋈ supplier) \
             ⋈ nation)"
        );
        assert_eq!(
            f8,
            [
                "[join filter -> lineitem.l_partkey]",
                "[join filter -> orders.o_custkey]",
                "[join filter -> customer.c_nationkey]",
                "[join filter -> nation.n_regionkey]"
            ]
        );
    }

    /// Q7's OR over both nations implies a predicate on each nation
    /// scan; the OR itself stays above the joins.
    #[test]
    fn an_or_over_two_atoms_filters_each_of_their_scans() {
        let plan = try_bind(tpch("Q7")).unwrap();
        let nation = db().table("nation").unwrap();
        let n_name = nation.schema.col_index("n_name").unwrap();
        let pair = |a: &str, b: &str| {
            Expr::or(vec![
                Expr::eq(Expr::col(n_name), Expr::lit(Value::str(a))),
                Expr::eq(Expr::col(n_name), Expr::lit(Value::str(b))),
            ])
        };
        let mut preds = Vec::new();
        plan.for_each_scan(&mut |s, _| {
            if s.table == "nation" {
                preds.push(s.predicate.clone());
            }
        });
        assert_eq!(
            preds,
            [
                vec![pair("FRANCE", "GERMANY")],
                vec![pair("GERMANY", "FRANCE")]
            ]
        );
        fn or_filters(p: &Plan) -> usize {
            match p {
                Plan::Filter(f) => {
                    usize::from(matches!(f.predicate, Expr::Or(_))) + or_filters(&f.input)
                }
                Plan::HashJoin(j) => or_filters(&j.left) + or_filters(&j.right),
                Plan::HashAgg(a) => or_filters(&a.input),
                Plan::Project(x) => or_filters(&x.input),
                Plan::Sort(x) => or_filters(&x.input),
                _ => 0,
            }
        }
        assert_eq!(or_filters(&plan), 1, "{plan:?}");
    }

    /// A move changes the join order, not what `SELECT *` lists: the
    /// FROM's columns in written order.
    #[test]
    fn select_star_keeps_written_column_order_after_a_move() {
        let from = "from customer join nation on c_nationkey = n_nationkey \
                    join orders on c_custkey = o_custkey \
                    join region on n_regionkey = r_regionkey \
                    where r_name = 'ASIA' and c_custkey < 40";
        let star = try_bind(&format!("select * {from}")).unwrap();
        assert_eq!(
            shape(&star),
            "((customer ⋈ (nation ⋈ region)) ⋈ orders)",
            "{star:?}"
        );
        let names: Vec<String> = ["customer", "nation", "orders", "region"]
            .iter()
            .flat_map(|t| db().table(t).unwrap().schema.columns.clone())
            .map(|c| c.name)
            .collect();
        let listed = try_bind(&format!("select {} {from}", names.join(", "))).unwrap();
        let session = Session::new(db());
        let rows = session.execute_plan(&star).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(rows, session.execute_plan(&listed).unwrap());
    }

    /// Where the re-association must not fire, the written left-deep
    /// order stays.
    #[test]
    fn joins_stay_in_written_order_where_a_move_is_not_allowed() {
        for (sql, want) in [
            // The dimension keys on two atoms (`lineitem`, `customer`):
            // Q5's `supplier` join stays, though `nation ⋈ region` moved
            // onto `supplier` below it.
            (
                tpch("Q5"),
                "(((orders ⋈L lineitem) ⋈ customer) ⋈ (supplier ⋈ (nation ⋈ region)))",
            ),
            // An unfiltered dimension: Q10's `nation`.
            (tpch("Q10"), "(((lineitem ⋈ orders) ⋈ customer) ⋈ nation)"),
            // The table the filtered dimension keys on is a LEFT JOIN's
            // null-producing side: `orders ⟕ (customer ⋈ nation)` would
            // keep the orders of other nations' customers.
            (
                "select o_orderkey, n_name from orders \
                 left join customer on o_custkey = c_custkey \
                 join nation on c_nationkey = n_nationkey \
                 where n_name = 'FRANCE'",
                "((orders ⋈ customer) ⋈ nation)",
            ),
            // A residual ON conjunct reads a third atom (`nation`) besides
            // the one the key reads (`customer`).
            (
                "select o_orderkey from nation \
                 join customer on n_nationkey = c_nationkey \
                 join orders on c_custkey = o_custkey and o_totalprice > n_nationkey \
                 where o_orderstatus = 'F'",
                "((nation ⋈ customer) ⋈ orders)",
            ),
        ] {
            assert_eq!(ndp_shape(sql).0, want, "{sql}");
        }
        // The same residual over the moved join's own atoms moves with it.
        assert_eq!(
            ndp_shape(
                "select o_orderkey from nation \
                 join customer on n_nationkey = c_nationkey \
                 join orders on c_custkey = o_custkey and o_totalprice > c_acctbal \
                 where o_orderstatus = 'F'"
            )
            .0,
            "(nation ⋈ (customer ⋈ orders))"
        );
    }
}
