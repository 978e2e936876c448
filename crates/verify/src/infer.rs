//! Plan schema inference: type, width, and nullability for every
//! [`Plan`] shape, checked against the live catalog.
//!
//! The inference is deliberately *permissive*: error-severity
//! diagnostics are raised only for structural violations that the
//! executor could not turn into a well-typed result — column positions
//! out of range, predicate columns the scanned index does not store,
//! group/aggregate references the scan does not deliver (the paths that
//! previously surfaced mid-execution as `Error::Internal`), key prefixes
//! longer than the index key, and mismatched join-key arity — and for an
//! output that does not type (`TypeMismatch`: a projection, a group
//! expression or an aggregate whose type `Expr::dtype` or
//! `AggFunc::output_type` refuses, which the VM would not compile either).
//! A predicate that compares across families is a warning: the VM refuses
//! to compile it, with an `Error::Verify` of its own.

use std::collections::BTreeSet;
use std::sync::Arc;

use taurus_common::{DataType, Value};
use taurus_expr::ast::Expr;
use taurus_ndp::{ScanAggregation, Table, TaurusDb};
use taurus_optimizer::ndp_post::{conjuncts, storage_can_compute, storage_can_judge};
use taurus_optimizer::plan::{
    AggFunc, AggItem, HashAggNode, HashJoinNode, JoinFilterDecision, JoinType, LookupJoinNode,
    NdpDecision, Plan, ScanNode,
};

use crate::diag::{DiagKind, Diagnostic};

/// Inferred type of one output column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColType {
    pub dtype: DataType,
    pub nullable: bool,
}

/// The result of inferring a plan: the output schema (when the plan is
/// well-formed enough to have one) plus all diagnostics found.
#[derive(Clone, Debug)]
pub struct Inference {
    pub schema: Option<Vec<ColType>>,
    pub diags: Vec<Diagnostic>,
}

/// The width (values per row) of a plan's output, derived structurally —
/// no catalog needed. This is the single source of width truth; the
/// executor's operators use it where the dynamic width is unknowable
/// (e.g. NULL-padding a LEFT OUTER join whose build side produced no
/// rows).
pub fn plan_width(plan: &Plan) -> usize {
    match plan {
        Plan::Scan(s) => s.output.len(),
        Plan::LookupJoin(j) => match j.join {
            JoinType::Inner | JoinType::LeftOuter => plan_width(&j.outer) + j.inner_output.len(),
            JoinType::Semi | JoinType::Anti => plan_width(&j.outer),
        },
        Plan::HashJoin(j) => match j.join {
            JoinType::Inner | JoinType::LeftOuter => plan_width(&j.left) + plan_width(&j.right),
            JoinType::Semi | JoinType::Anti => plan_width(&j.left),
        },
        Plan::HashAgg(a) => a.group.len() + a.aggs.len(),
        Plan::Project(p) => p.exprs.len(),
        Plan::Filter(f) => plan_width(&f.input),
        Plan::Sort(s) => plan_width(&s.input),
        Plan::Limit { input, .. } => plan_width(input),
        Plan::Exchange(e) => plan_width(&e.child),
    }
}

/// Infer the output schema of `plan` against `db`'s catalog, collecting
/// diagnostics along the way.
pub fn infer_plan(plan: &Plan, db: &TaurusDb) -> Inference {
    let mut diags = Vec::new();
    let schema = infer(plan, db, "", &mut diags);
    Inference { schema, diags }
}

/// Map table-column expressions onto delivered-output positions — the
/// shared definition used by both the verifier and the executor's scan
/// remapping. A column the output does not deliver yields a structured
/// diagnostic instead of an internal error.
pub fn remap_onto(
    e: &Expr,
    output: &[usize],
    kind: DiagKind,
    path: &str,
) -> std::result::Result<Expr, Diagnostic> {
    for c in e.columns() {
        if !output.contains(&c) {
            return Err(Diagnostic::error(
                kind,
                path,
                format!("column {c} not in scan output {output:?}"),
            ));
        }
    }
    Ok(e.remap_columns(&|c| {
        output
            .iter()
            .position(|&o| o == c)
            .expect("all columns checked against output above")
    }))
}

// --- recursive inference ----------------------------------------------------

fn infer(
    plan: &Plan,
    db: &TaurusDb,
    prefix: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<Vec<ColType>> {
    match plan {
        Plan::Scan(s) => {
            let path = format!("{prefix}Scan({})", s.table);
            let schema = infer_scan(s, db, &path, diags);
            // Its rows would be carriers followed by partials, which only
            // the `HashAgg` folding the scan merges.
            if s.ndp
                .as_ref()
                .is_some_and(|d| d.choice.aggregation.is_some())
            {
                diags.push(Diagnostic::error(
                    DiagKind::AggPushdownMisplaced,
                    &path,
                    "pushed aggregation on a scan no HashAgg folds".into(),
                ));
                return None;
            }
            schema
        }
        Plan::LookupJoin(j) => {
            let path = format!("{prefix}LookupJoin({})", j.table);
            let outer = infer(&j.outer, db, &format!("{path}.outer/"), diags);
            let table = lookup_table(db, &j.table, j.index, &path, diags)?;
            let ncols = table.schema.columns.len();
            let mut ok = true;
            if let Some(o) = &outer {
                for &k in &j.outer_key_cols {
                    if k >= o.len() {
                        diags.push(Diagnostic::error(
                            DiagKind::KeyOutOfRange,
                            &path,
                            format!(
                                "outer key position {k} out of range for outer width {}",
                                o.len()
                            ),
                        ));
                        ok = false;
                    }
                }
            }
            let keylen = table.index(j.index).tree.def.effective_key_cols().len();
            if j.outer_key_cols.len() > keylen {
                diags.push(Diagnostic::error(
                    DiagKind::KeyPrefixTooLong,
                    &path,
                    format!(
                        "{} outer key columns exceed the index's {keylen}-column effective key",
                        j.outer_key_cols.len()
                    ),
                ));
                ok = false;
            }
            for &c in &j.inner_output {
                if c >= ncols {
                    diags.push(Diagnostic::error(
                        DiagKind::ColumnOutOfRange,
                        &path,
                        format!("inner output column {c} out of range for {ncols}-column table"),
                    ));
                    ok = false;
                }
            }
            let inner_dtypes = table.schema.dtypes();
            for p in &j.inner_predicate {
                for c in p.columns() {
                    if c >= ncols {
                        diags.push(Diagnostic::error(
                            DiagKind::ColumnOutOfRange,
                            &path,
                            format!(
                                "inner predicate column {c} out of range for {ncols}-column table"
                            ),
                        ));
                        ok = false;
                    }
                }
                warn_predicate_types(p, &inner_dtypes, &path, diags);
            }
            if let Some(d) = &j.inner_ndp {
                ok &= check_inner_ndp(j, d, &table, &path, diags);
            }
            if let (Some(on), Some(o)) = (&j.on, &outer) {
                let w = o.len() + j.inner_output.len();
                for c in on.columns() {
                    if c >= w {
                        diags.push(Diagnostic::error(
                            DiagKind::ColumnOutOfRange,
                            &path,
                            format!("ON column {c} out of range for joined width {w}"),
                        ));
                        ok = false;
                    }
                }
            }
            let outer = outer?;
            if !ok {
                return None;
            }
            let mut out = outer;
            if matches!(j.join, JoinType::Inner | JoinType::LeftOuter) {
                let pad_nullable = j.join == JoinType::LeftOuter;
                for &c in &j.inner_output {
                    let col = &table.schema.columns[c];
                    out.push(ColType {
                        dtype: col.dtype,
                        nullable: col.nullable || pad_nullable,
                    });
                }
            }
            Some(out)
        }
        Plan::HashJoin(j) => {
            let path = format!("{prefix}HashJoin");
            let left = infer(&j.left, db, &format!("{path}.left/"), diags);
            let right = infer(&j.right, db, &format!("{path}.right/"), diags);
            let mut ok = true;
            if j.left_keys.len() != j.right_keys.len() {
                diags.push(Diagnostic::error(
                    DiagKind::ArityMismatch,
                    &path,
                    format!(
                        "{} left keys vs {} right keys",
                        j.left_keys.len(),
                        j.right_keys.len()
                    ),
                ));
                ok = false;
            }
            for (keys, side, schema) in [
                (&j.left_keys, "left", &left),
                (&j.right_keys, "right", &right),
            ] {
                if let Some(s) = schema {
                    for &k in keys.iter() {
                        if k >= s.len() {
                            diags.push(Diagnostic::error(
                                DiagKind::KeyOutOfRange,
                                &path,
                                format!(
                                    "{side} key position {k} out of range for width {}",
                                    s.len()
                                ),
                            ));
                            ok = false;
                        }
                    }
                }
            }
            if let Some(d) = &j.filter {
                ok &= check_join_filter(j, d, db, &path, diags);
            }
            if let (Some(l), Some(r)) = (&left, &right) {
                for (&lk, &rk) in j.left_keys.iter().zip(&j.right_keys) {
                    if let (Some(a), Some(b)) = (l.get(lk), r.get(rk)) {
                        if family(a.dtype) != family(b.dtype) {
                            diags.push(Diagnostic::warning(
                                DiagKind::TypeMismatch,
                                &path,
                                format!("join key types differ: {:?} vs {:?}", a.dtype, b.dtype),
                            ));
                        }
                    }
                }
            }
            let (left, right) = (left?, right?);
            if !ok {
                return None;
            }
            let mut out = left;
            if matches!(j.join, JoinType::Inner | JoinType::LeftOuter) {
                let pad_nullable = j.join == JoinType::LeftOuter;
                out.extend(right.into_iter().map(|c| ColType {
                    dtype: c.dtype,
                    nullable: c.nullable || pad_nullable,
                }));
            }
            Some(out)
        }
        Plan::HashAgg(a) => infer_hash_agg(a, None, db, prefix, diags),
        Plan::Project(p) => {
            let path = format!("{prefix}Project");
            let input = infer(&p.input, db, &format!("{path}/"), diags)?;
            let mut out = Vec::with_capacity(p.exprs.len());
            for (i, e) in p.exprs.iter().enumerate() {
                let what = format!("expr {i}");
                let kind = DiagKind::ColumnOutOfRange;
                if check_expr_cols(e, input.len(), kind, &path, &what, diags) {
                    out.extend(expr_coltype(e, &input, &path, diags));
                }
            }
            (out.len() == p.exprs.len()).then_some(out)
        }
        Plan::Filter(f) => {
            let path = format!("{prefix}Filter");
            let input = match &*f.input {
                Plan::HashAgg(a) => {
                    infer_hash_agg(a, Some(&f.predicate), db, &format!("{path}/"), diags)
                }
                input => infer(input, db, &format!("{path}/"), diags),
            }?;
            let (w, kind) = (input.len(), DiagKind::ColumnOutOfRange);
            let ok = check_expr_cols(&f.predicate, w, kind, &path, "predicate", diags);
            let dtypes: Vec<DataType> = input.iter().map(|c| c.dtype).collect();
            warn_predicate_types(&f.predicate, &dtypes, &path, diags);
            ok.then_some(input)
        }
        Plan::Sort(s) => {
            let path = format!("{prefix}Sort");
            let input = infer(&s.input, db, &format!("{path}/"), diags)?;
            let mut ok = true;
            for &(k, _) in &s.keys {
                if k >= input.len() {
                    diags.push(Diagnostic::error(
                        DiagKind::KeyOutOfRange,
                        &path,
                        format!(
                            "sort key position {k} out of range for width {}",
                            input.len()
                        ),
                    ));
                    ok = false;
                }
            }
            ok.then_some(input)
        }
        Plan::Limit { input, .. } => infer(input, db, &format!("{prefix}Limit/"), diags),
        Plan::Exchange(e) => infer(&e.child, db, &format!("{prefix}Exchange/"), diags),
    }
}

fn lookup_table(
    db: &TaurusDb,
    name: &str,
    index: usize,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<Arc<Table>> {
    let table = match db.table(name) {
        Ok(t) => t,
        Err(_) => {
            diags.push(Diagnostic::error(
                DiagKind::UnknownTable,
                path,
                format!("no table named {name:?} in the catalog"),
            ));
            return None;
        }
    };
    if index > table.secondaries.len() {
        diags.push(Diagnostic::error(
            DiagKind::UnknownIndex,
            path,
            format!(
                "index ordinal {index} out of range (table has {} secondaries)",
                table.secondaries.len()
            ),
        ));
        return None;
    }
    Some(table)
}

fn infer_scan(
    s: &ScanNode,
    db: &TaurusDb,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<Vec<ColType>> {
    let table = lookup_table(db, &s.table, s.index, path, diags)?;
    let ncols = table.schema.columns.len();
    let mut ok = true;
    for &c in &s.output {
        if c >= ncols {
            diags.push(Diagnostic::error(
                DiagKind::ColumnOutOfRange,
                path,
                format!("output column {c} out of range for {ncols}-column table"),
            ));
            ok = false;
        }
    }
    let dtypes = table.schema.dtypes();
    for (i, p) in s.predicate.iter().enumerate() {
        for c in p.columns() {
            if c >= ncols {
                diags.push(Diagnostic::error(
                    DiagKind::ColumnOutOfRange,
                    path,
                    format!(
                        "predicate conjunct {i} column {c} out of range for {ncols}-column table"
                    ),
                ));
                ok = false;
            }
        }
        warn_predicate_types(p, &dtypes, path, diags);
    }
    if let Some(d) = &s.ndp {
        for &i in &d.pushed {
            if i >= s.predicate.len() {
                diags.push(Diagnostic::error(
                    DiagKind::PushedOutOfRange,
                    path,
                    format!(
                        "NDP decision pushes conjunct {i}, but the predicate has {}",
                        s.predicate.len()
                    ),
                ));
                ok = false;
            }
        }
    }
    // The scan runs its residual conjuncts on the index's record bytes, and
    // the Page Store its pushed ones: every column they read must be one
    // the index stores. The primary index stores every column, a
    // secondary one key ++ pk.
    let def = &table.index(s.index).tree.def;
    if !def.is_primary {
        let stored = def.stored_cols();
        for p in &s.predicate {
            let mut cols = p.columns().into_iter();
            if let Some(c) = cols.find(|c| *c < ncols && !stored.contains(c)) {
                diags.push(Diagnostic::error(
                    DiagKind::PredicateNotStored,
                    path,
                    format!("predicate column {c} not stored in index {}", def.name),
                ));
                ok = false;
            }
        }
    }
    // A projection keeps what the scan delivers and evaluates.
    if let Some(keep) = s.ndp.as_ref().and_then(|d| d.choice.projection.as_ref()) {
        let residual = s.residual_conjuncts().into_iter().flat_map(Expr::columns);
        let needed = s
            .output
            .iter()
            .copied()
            .chain(residual)
            .chain(def.effective_key_cols());
        ok &= check_projection_keeps(keep, needed, "scan", path, diags);
    }
    let keylen = def.effective_key_cols().len();
    for (bound, which) in [(&s.range.lower, "lower"), (&s.range.upper, "upper")] {
        if let Some((vals, _)) = bound {
            if vals.len() > keylen {
                diags.push(Diagnostic::error(
                    DiagKind::KeyPrefixTooLong,
                    path,
                    format!(
                        "{which} bound has {} values, index key has {keylen} columns",
                        vals.len()
                    ),
                ));
                ok = false;
            }
        }
    }
    if !ok {
        return None;
    }
    Some(
        s.output
            .iter()
            .map(|&c| {
                let col = &table.schema.columns[c];
                ColType {
                    dtype: col.dtype,
                    nullable: col.nullable,
                }
            })
            .collect(),
    )
}

/// A `HashAgg`'s output schema; `filter` is the predicate of the `Filter`
/// right above it, if one is. One that folds a bare scan reads the scan's
/// output positions, and is held to the aggregation its scan pushes.
fn infer_hash_agg(
    a: &HashAggNode,
    filter: Option<&Expr>,
    db: &TaurusDb,
    prefix: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<Vec<ColType>> {
    let scan = a.scan();
    let (path, input, group_kind, input_kind) = match scan {
        Some(s) => {
            let path = format!("{prefix}AggScan({})", s.table);
            let input = infer_scan(s, db, &path, diags);
            let kinds = (DiagKind::GroupColNotInOutput, DiagKind::AggInputNotInOutput);
            (path, input, kinds.0, kinds.1)
        }
        None => {
            let path = format!("{prefix}HashAgg");
            let input = infer(&a.input, db, &format!("{path}/"), diags);
            (
                path,
                input,
                DiagKind::ColumnOutOfRange,
                DiagKind::ColumnOutOfRange,
            )
        }
    };
    let input = input?;
    let dtypes: Vec<DataType> = input.iter().map(|c| c.dtype).collect();
    let (mut ok, mut out) = (true, Vec::with_capacity(a.group.len() + a.aggs.len()));
    for (i, g) in a.group.iter().enumerate() {
        let what = format!("group expr {i}");
        ok &= check_expr_cols(g, input.len(), group_kind, &path, &what, diags);
        out.extend(ok.then(|| expr_coltype(g, &input, &path, diags)).flatten());
    }
    for (i, item) in a.aggs.iter().enumerate() {
        if let Some(e) = &item.input {
            let what = format!("aggregate {i} input");
            ok &= check_expr_cols(e, input.len(), input_kind, &path, &what, diags);
        }
        out.extend(
            ok.then(|| agg_coltype(item, &dtypes, &path, diags))
                .flatten(),
        );
    }
    let scan_agg = scan.and_then(|s| Some((s, s.ndp.as_ref()?.choice.aggregation.as_ref()?)));
    if let (Some((scan, pushed)), true) = (scan_agg, ok) {
        let table = db.table(&scan.table).ok()?;
        ok &= check_pushed_aggregation(a, pushed, &table.schema.dtypes(), &path, diags);
        if let Some(having) = &pushed.having {
            let index_ordered = !a.group.is_empty() && a.index_ordered(db);
            ok &= check_pushed_having(a, pushed, having, filter, index_ordered, &path, diags);
        }
    }
    (ok && out.len() == a.group.len() + a.aggs.len()).then_some(out)
}

/// A scan-folding `HashAgg`'s pushed aggregation against its aggregates:
/// storage must be able to compute them ([`storage_can_compute`]), and
/// the pushed specs must be those aggregates over the scanned table's
/// columns, one for one, grouped by the table columns its groups are —
/// what the SQL node merges the partials into.
fn check_pushed_aggregation(
    a: &HashAggNode,
    pushed: &ScanAggregation,
    dtypes: &[DataType],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    // Every column is delivered: the caller checked.
    let aggs = a.table_aggs().unwrap_or_default();
    let problem = if let (None, Some(g)) = (a.group_cols(), a.group.first()) {
        Some(format!("storage cannot group by the expression {g}"))
    } else if !storage_can_compute(&aggs, dtypes) {
        Some("an aggregate input storage cannot compute".to_string())
    } else if aggs.len() != pushed.specs.len() {
        Some(format!(
            "{} storage aggregates for the SQL node's {}",
            pushed.specs.len(),
            aggs.len()
        ))
    } else {
        let group_cols = a.group_cols().unwrap_or_default();
        aggs.iter()
            .zip(&pushed.specs)
            .enumerate()
            .find(|(_, (w, p))| w != p)
            .map(|(i, (w, p))| {
                format!(
                    "storage aggregate {i} is {} over {:?}, the SQL node merges {} over {:?}",
                    p.func.name(),
                    p.input,
                    w.func.name(),
                    w.input
                )
            })
            .or_else(|| {
                (pushed.group_cols != group_cols).then(|| {
                    format!(
                        "storage groups by {:?}, the SQL node by {:?}",
                        pushed.group_cols, group_cols
                    )
                })
            })
    };
    match problem {
        Some(problem) => {
            diags.push(Diagnostic::error(
                DiagKind::AggPushdownMismatch,
                path,
                format!("pushed aggregation: {problem}"),
            ));
            false
        }
        None => true,
    }
}

/// A scan-folding `HashAgg`'s pushed HAVING: only on a GROUP BY that
/// follows the index (`index_ordered`, groups arrive one after another),
/// reading only a group's outputs (its group columns, then the storage
/// aggregates), and each conjunct one of `filter`, the `Filter` right
/// above the aggregation that keeps judging every group the Page Stores
/// let through, that a Page Store can judge ([`storage_can_judge`]).
fn check_pushed_having(
    a: &HashAggNode,
    pushed: &ScanAggregation,
    having: &Expr,
    filter: Option<&Expr>,
    index_ordered: bool,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let outputs = pushed.group_cols.len() + pushed.specs.len();
    let implied = |c: &Expr| {
        filter.is_some_and(|f| conjuncts(f).contains(c))
            && storage_can_judge(c, &a.aggs, a.group.len())
    };
    let problem = if !index_ordered {
        Some("on a GROUP BY that does not follow the index".to_string())
    } else if let Some(c) = having.columns().into_iter().find(|&c| c >= outputs) {
        Some(format!("reads output {c} of a group's {outputs}"))
    } else {
        let foreign = conjuncts(having).iter().find(|c| !implied(c));
        foreign.map(|c| format!("{c} is no conjunct of the Filter above the scan"))
    };
    match problem {
        Some(problem) => {
            diags.push(Diagnostic::error(
                DiagKind::HavingPushdownIneligible,
                path,
                format!("pushed HAVING {problem}"),
            ));
            false
        }
        None => true,
    }
}

/// A lookup join's NDP key-read decision against its node: the access
/// must be covering, `pushed` must name inner conjuncts, and a projection
/// must keep what the key read delivers and evaluates. (The pushed
/// conjuncts' programs are checked with every other predicate of the
/// plan.)
fn check_inner_ndp(
    j: &LookupJoinNode,
    d: &NdpDecision,
    table: &Table,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let mut ok = true;
    let def = &table.index(j.index).tree.def;
    let stored = def.stored_cols();
    if let Some(c) = j.inner_columns().iter().find(|c| !stored.contains(c)) {
        diags.push(Diagnostic::error(
            DiagKind::NdpOnNonCovering,
            path,
            format!(
                "NDP key read on index {} that does not store inner column {c}",
                def.name
            ),
        ));
        ok = false;
    }
    for &i in &d.pushed {
        if i >= j.inner_predicate.len() {
            diags.push(Diagnostic::error(
                DiagKind::PushedOutOfRange,
                path,
                format!(
                    "NDP decision pushes inner conjunct {i}, but the inner predicate has {}",
                    j.inner_predicate.len()
                ),
            ));
            ok = false;
        }
    }
    if let Some(keep) = &d.choice.projection {
        let residual = j.inner_residual().into_iter().flat_map(|e| e.columns());
        let needed = j
            .inner_output
            .iter()
            .copied()
            .chain(residual)
            .chain(def.effective_key_cols());
        ok &= check_projection_keeps(keep, needed, "key read", path, diags);
    }
    ok
}

/// An NDP projection `keep` against the columns its access (`what`)
/// delivers and evaluates: its output, its residual conjuncts' columns
/// and its index key.
fn check_projection_keeps(
    keep: &[usize],
    needed: impl Iterator<Item = usize>,
    what: &str,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let dropped: BTreeSet<usize> = needed.filter(|c| !keep.contains(c)).collect();
    for c in &dropped {
        diags.push(Diagnostic::error(
            DiagKind::NdpProjectionDropsColumn,
            path,
            format!("NDP projection {keep:?} drops column {c} the {what} needs"),
        ));
    }
    dropped.is_empty()
}

/// A hash join's join-filter decision against its node: the rules
/// `ndp_post` marks eligibility by, all of which can be seen in the plan
/// (only the I/O gate, which depends on the pool, cannot). A filter on an
/// outer or anti join would drop the probe rows those joins exist to
/// keep.
fn check_join_filter(
    j: &HashJoinNode,
    d: &JoinFilterDecision,
    db: &TaurusDb,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let probe_column = match (&*j.left, &j.left_keys[..]) {
        (Plan::Scan(s), [k]) => s.output.get(*k).map(|&c| (s, c)),
        _ => None,
    };
    let problem = if !matches!(j.join, JoinType::Inner | JoinType::Semi) {
        Some(format!(
            "a {:?} join keeps probe rows no build key matches",
            j.join
        ))
    } else if let Some((scan, column)) = probe_column {
        let dtype = db
            .table(&scan.table)
            .ok()
            .and_then(|t| t.schema.columns.get(column).map(|c| c.dtype));
        if column != d.column {
            Some(format!(
                "the decision names column {} but the probe key is column {column}",
                d.column
            ))
        } else if !matches!(dtype, Some(DataType::Int | DataType::BigInt)) {
            Some(format!(
                "the probe key column {column} is {dtype:?}, not an integer"
            ))
        } else if !j.right.holds_predicate() {
            Some("the build side has no predicate, so it holds every key".into())
        } else {
            None
        }
    } else {
        Some("the probe side is not a scan joined on one key".into())
    };
    match problem {
        Some(problem) => {
            diags.push(Diagnostic::error(
                DiagKind::JoinFilterIneligible,
                path,
                format!("join filter: {problem}"),
            ));
            false
        }
        None => true,
    }
}

// --- typing helpers ----------------------------------------------------------

/// Does `e` read only positions below `width`? Each one past it is a
/// `kind` error.
fn check_expr_cols(
    e: &Expr,
    width: usize,
    kind: DiagKind,
    path: &str,
    what: &str,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let mut ok = true;
    for c in e.columns() {
        if c >= width {
            diags.push(Diagnostic::error(
                kind,
                path,
                format!("{what} references column {c}, input width is {width}"),
            ));
            ok = false;
        }
    }
    ok
}

/// The type of `e` over `input`; one that does not type is a
/// `TypeMismatch` error (the VM would not compile it).
fn expr_coltype(
    e: &Expr,
    input: &[ColType],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<ColType> {
    let dtypes: Vec<DataType> = input.iter().map(|c| c.dtype).collect();
    let dtype = type_or_diag(e.dtype(&dtypes), path, diags)?;
    let nullable = match e {
        Expr::Col(i) => input.get(*i).is_none_or(|c| c.nullable),
        Expr::Lit(v) => v.is_null(),
        _ => true,
    };
    Some(ColType { dtype, nullable })
}

/// The type of an aggregate's result over `input`: an input that does not
/// type, or a function its input's type does not take (a SUM of dates),
/// is a `TypeMismatch` error.
fn agg_coltype(
    item: &AggItem,
    input: &[DataType],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<ColType> {
    let in_dt = match &item.input {
        Some(e) => Some(type_or_diag(e.dtype(input), path, diags)?),
        None => None,
    };
    let dtype = item.func.output_type(in_dt).or_else(|| {
        let message = format!("{} over {in_dt:?} has no type", item.func.name());
        diags.push(Diagnostic::error(DiagKind::TypeMismatch, path, message));
        None
    })?;
    Some(ColType {
        dtype,
        nullable: !matches!(item.func, AggFunc::CountStar | AggFunc::Count),
    })
}

fn type_or_diag(
    dtype: taurus_common::Result<DataType>,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<DataType> {
    dtype
        .map_err(|e| {
            diags.push(Diagnostic::error(
                DiagKind::TypeMismatch,
                path,
                e.to_string(),
            ))
        })
        .ok()
}

/// Comparability families: within a family the runtime can compare;
/// across families it raises `Error::Type`. The SQL binder rejects a
/// comparison across families with a positioned diagnostic that names
/// them ([`Family::name`]).
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub enum Family {
    Num,
    Date,
    Str,
}

impl Family {
    /// The family as a diagnostic names it.
    pub fn name(self) -> &'static str {
        match self {
            Family::Num => "numeric",
            Family::Date => "date",
            Family::Str => "string",
        }
    }
}

/// The comparability family of a column type.
pub fn family(d: DataType) -> Family {
    match d {
        DataType::Int | DataType::BigInt | DataType::Decimal { .. } | DataType::Double => {
            Family::Num
        }
        DataType::Date => Family::Date,
        DataType::Char(_) | DataType::Varchar(_) => Family::Str,
    }
}

/// The comparability family of a literal (`None` for NULL, which
/// compares with anything).
pub fn value_family(v: &Value) -> Option<Family> {
    match v {
        Value::Null => None,
        Value::Int(_) | Value::Decimal(_) | Value::Double(_) => Some(Family::Num),
        Value::Date(_) => Some(Family::Date),
        Value::Str(_) => Some(Family::Str),
    }
}

/// Advisory type check over a predicate: flags comparisons whose sides
/// belong to different comparability families.
fn warn_predicate_types(p: &Expr, input: &[DataType], path: &str, diags: &mut Vec<Diagnostic>) {
    p.walk(&mut |e| {
        let pair = |a: &Expr, b: &Expr| -> Option<(Family, Family)> {
            Some((family(a.dtype(input).ok()?), family(b.dtype(input).ok()?)))
        };
        match e {
            Expr::Cmp(_, a, b) => {
                if let Some((fa, fb)) = pair(a, b) {
                    if fa != fb {
                        diags.push(Diagnostic::warning(
                            DiagKind::TypeMismatch,
                            path,
                            format!("comparison mixes {fa:?} and {fb:?}: {e}"),
                        ));
                    }
                }
            }
            Expr::Between { expr, lo, hi } => {
                for side in [lo, hi] {
                    if let Some((fa, fb)) = pair(expr, side) {
                        if fa != fb {
                            diags.push(Diagnostic::warning(
                                DiagKind::TypeMismatch,
                                path,
                                format!("BETWEEN mixes {fa:?} and {fb:?}: {e}"),
                            ));
                        }
                    }
                }
            }
            Expr::InList { expr, list, .. } => {
                if let Ok(dt) = expr.dtype(input) {
                    let fe = family(dt);
                    if list.iter().filter_map(value_family).any(|fv| fv != fe) {
                        diags.push(Diagnostic::warning(
                            DiagKind::TypeMismatch,
                            path,
                            format!("IN list mixes families: {e}"),
                        ));
                    }
                }
            }
            _ => {}
        }
    });
}
