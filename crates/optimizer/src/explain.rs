//! EXPLAIN output, shaped like the paper's Listing 2: table accesses that
//! received NDP annotations print `Using pushed NDP condition (...)`,
//! `Using pushed NDP columns`, and `Using pushed NDP aggregate (...)`,
//! which names how the Page Stores group: in `index order`, or in a
//! `per-page hash` table. An aggregation that carries HAVING conjuncts
//! adds `Using pushed NDP having`.
//!
//! Alongside the logical tree, EXPLAIN renders the **physical operator
//! pipeline** the executor lowers the plan to ([`explain_physical`]):
//! one line per pull operator with the configured batch size and, for
//! scan leaves, the NDP decision. The mapping is the executor's `lower`
//! pass verbatim — Scan→BatchScan, a `HashAgg` over a bare scan→AggScan
//! (its scan folded during the scan; any other `HashAgg` pulls its input),
//! Sort(+limit)→TopN, Exchange→Gather, … The logical tree renders such a
//! `HashAgg` as its scan's line, its NDP lines and `Aggregate during
//! scan`.

use taurus_expr::ast::Expr;
use taurus_ndp::TaurusDb;

use crate::plan::{HashAggNode, HashJoinNode, NdpDecision, Plan, ScanNode};

/// Render a plan: the logical tree with NDP annotations, followed by the
/// lowered physical operator pipeline.
pub fn explain(plan: &Plan, db: &TaurusDb) -> String {
    let mut out = String::new();
    render(plan, db, 0, &mut out);
    out.push_str(&explain_physical(plan, db));
    out
}

/// Render only the physical operator pipeline the plan lowers to.
pub fn explain_physical(plan: &Plan, db: &TaurusDb) -> String {
    let mut out = format!(
        "Physical pipeline (batch = {} rows):\n",
        db.config().scan_batch_rows.max(1)
    );
    render_physical(plan, db, 0, &mut out);
    out
}

fn render_physical(plan: &Plan, db: &TaurusDb, depth: usize, out: &mut String) {
    pad(depth, out);
    match plan {
        Plan::Scan(s) => {
            out.push_str(&format!(
                "BatchScan on {} via {}{}\n",
                s.table,
                index_name(s, db),
                ndp_tag(s)
            ));
        }
        Plan::LookupJoin(j) => {
            out.push_str(&format!(
                "LookupJoin ({:?}, inner {}, streamed outer){}\n",
                j.join,
                j.table,
                match &j.inner_ndp {
                    None => " [leaf prefetch]".to_string(),
                    // A key read's keys always go.
                    Some(d) => {
                        let parts = [vec!["keys"], pushed_parts(d)].concat();
                        format!(" [ndp key read: {}]", parts.join("+"))
                    }
                }
            ));
            render_physical(&j.outer, db, depth + 1, out);
        }
        Plan::HashJoin(j) => {
            out.push_str(&format!(
                "HashJoin ({:?}, build right, streamed probe){}\n",
                j.join,
                join_filter_tag(j, db)
            ));
            render_physical(&j.left, db, depth + 1, out);
            render_physical(&j.right, db, depth + 1, out);
        }
        Plan::HashAgg(a) => match a.scan() {
            Some(s) => out.push_str(&format!(
                "AggScan on {} via {}{}\n",
                s.table,
                index_name(s, db),
                ndp_tag(s)
            )),
            None => {
                out.push_str("HashAgg (breaker)\n");
                render_physical(&a.input, db, depth + 1, out);
            }
        },
        Plan::Project(p) => {
            out.push_str("Project\n");
            render_physical(&p.input, db, depth + 1, out);
        }
        Plan::Filter(f) => {
            out.push_str("Filter\n");
            render_physical(&f.input, db, depth + 1, out);
        }
        Plan::Sort(s) => {
            match s.limit {
                Some(n) => out.push_str(&format!("TopN({n}) (breaker)\n")),
                None => out.push_str("Sort (breaker)\n"),
            }
            render_physical(&s.input, db, depth + 1, out);
        }
        Plan::Limit { input, n } => {
            out.push_str(&format!("Limit({n}) (early-stop)\n"));
            render_physical(input, db, depth + 1, out);
        }
        Plan::Exchange(e) => {
            out.push_str(&format!("Gather (degree {}, breaker)\n", e.degree));
            render_physical(&e.child, db, depth + 1, out);
        }
    }
}

/// The chosen index's name (falls back to its ordinal when the table is
/// unknown to this catalog).
fn index_name(s: &ScanNode, db: &TaurusDb) -> String {
    db.table(&s.table)
        .ok()
        .map(|t| t.index(s.index).tree.def.name.clone())
        .unwrap_or_else(|| format!("#{}", s.index))
}

/// What an NDP decision sends to storage.
fn pushed_parts(d: &NdpDecision) -> Vec<&'static str> {
    let mut parts = Vec::new();
    if d.choice.predicate.is_some() {
        parts.push("predicate");
    }
    if d.choice.projection.is_some() {
        parts.push("projection");
    }
    if d.choice.aggregation.is_some() {
        parts.push("aggregation");
    }
    parts
}

/// A hash join's join-filter decision: ` [join filter -> table.column]`
/// on its line, nothing without one.
fn join_filter_tag(j: &HashJoinNode, db: &TaurusDb) -> String {
    let (Some(d), Plan::Scan(probe)) = (&j.filter, &*j.left) else {
        return String::new();
    };
    let column = db
        .table(&probe.table)
        .ok()
        .and_then(|t| t.schema.columns.get(d.column).map(|c| c.name.clone()))
        .unwrap_or_else(|| format!("col{}", d.column));
    format!(" [join filter -> {}.{column}]", probe.table)
}

/// The NDP decision annotation on a physical scan leaf.
fn ndp_tag(s: &ScanNode) -> String {
    match s.ndp.as_ref().map(pushed_parts) {
        Some(parts) if !parts.is_empty() => format!(" [ndp: {}]", parts.join("+")),
        _ => " [classical]".to_string(),
    }
}

fn pad(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("    ");
    }
    out.push_str("-> ");
}

fn line(depth: usize, out: &mut String, s: &str) {
    for _ in 0..depth {
        out.push_str("    ");
    }
    out.push_str("   ");
    out.push_str(s);
    out.push('\n');
}

/// Rewrite `colN` references into real column names for readability.
fn pretty_expr(e: &Expr, db: &TaurusDb, table: &str) -> String {
    let mut s = e.to_string();
    if let Ok(t) = db.table(table) {
        // Replace longest indexes first so col12 is not clobbered by col1.
        let mut order: Vec<usize> = (0..t.schema.columns.len()).collect();
        order.sort_by_key(|i| std::cmp::Reverse(*i));
        for i in order {
            s = s.replace(&format!("col{i}"), &t.schema.columns[i].name);
        }
    }
    s
}

/// A scan, and the `HashAgg` that folds it if one does.
fn render_scan(
    s: &ScanNode,
    db: &TaurusDb,
    depth: usize,
    out: &mut String,
    agg: Option<&HashAggNode>,
) {
    pad(depth, out);
    let index_name = db
        .table(&s.table)
        .ok()
        .map(|t| t.index(s.index).tree.def.name.clone())
        .unwrap_or_else(|| format!("#{}", s.index));
    let kind = if s.range.lower.is_none() && s.range.upper.is_none() {
        "Index scan"
    } else {
        "Index range scan"
    };
    out.push_str(&format!("{kind} on {} using {index_name}\n", s.table));
    match &s.ndp {
        Some(d) => {
            if let Some(p) = &d.choice.predicate {
                line(
                    depth,
                    out,
                    &format!(
                        "Using pushed NDP condition {}",
                        pretty_expr(p, db, &s.table)
                    ),
                );
            }
            if d.choice.projection.is_some() {
                line(depth, out, "Using pushed NDP columns");
            }
            if let (Some(pushed), Some(a)) = (&d.choice.aggregation, agg) {
                let grouping = match a.index_ordered(db) {
                    true => "index order",
                    false => "per-page hash",
                };
                line(
                    depth,
                    out,
                    &format!("Using pushed NDP aggregate ({grouping})"),
                );
                if pushed.having.is_some() {
                    line(depth, out, "Using pushed NDP having");
                }
            }
            let residual = s.residual_conjuncts();
            if !residual.is_empty() {
                let txt = residual
                    .iter()
                    .map(|e| pretty_expr(e, db, &s.table))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                line(depth, out, &format!("Residual condition: {txt}"));
            }
        }
        None => {
            if !s.predicate.is_empty() {
                let txt = s
                    .predicate
                    .iter()
                    .map(|e| pretty_expr(e, db, &s.table))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                line(depth, out, &format!("Condition: {txt}"));
            }
        }
    }
    if agg.is_some() {
        line(depth, out, "Aggregate during scan");
    }
}

fn render(plan: &Plan, db: &TaurusDb, depth: usize, out: &mut String) {
    match plan {
        Plan::Scan(s) => render_scan(s, db, depth, out, None),
        Plan::LookupJoin(j) => {
            pad(depth, out);
            out.push_str(&format!(
                "Nested-loop {:?} join: lookup {} per outer row\n",
                j.join, j.table
            ));
            if let Some(d) = &j.inner_ndp {
                line(
                    depth,
                    out,
                    "Using NDP key reads (probe keys sent with the batched leaf read)",
                );
                if let Some(p) = &d.choice.predicate {
                    let p = pretty_expr(p, db, &j.table);
                    line(depth, out, &format!("Using pushed NDP condition {p}"));
                }
                if d.choice.projection.is_some() {
                    line(depth, out, "Using pushed NDP columns");
                }
            }
            render(&j.outer, db, depth + 1, out);
        }
        Plan::HashJoin(j) => {
            pad(depth, out);
            out.push_str(&format!(
                "Hash {:?} join{}\n",
                j.join,
                join_filter_tag(j, db)
            ));
            render(&j.left, db, depth + 1, out);
            render(&j.right, db, depth + 1, out);
        }
        Plan::HashAgg(a) => match a.scan() {
            Some(s) => render_scan(s, db, depth, out, Some(a)),
            None => {
                pad(depth, out);
                out.push_str(&format!(
                    "Aggregate ({} groups cols, {} aggs)\n",
                    a.group.len(),
                    a.aggs.len()
                ));
                render(&a.input, db, depth + 1, out);
            }
        },
        Plan::Project(p) => {
            pad(depth, out);
            out.push_str("Project\n");
            render(&p.input, db, depth + 1, out);
        }
        Plan::Filter(f) => {
            pad(depth, out);
            out.push_str("Filter\n");
            render(&f.input, db, depth + 1, out);
        }
        Plan::Sort(s) => {
            pad(depth, out);
            match s.limit {
                Some(n) => out.push_str(&format!("Sort (top {n})\n")),
                None => out.push_str("Sort\n"),
            }
            render(&s.input, db, depth + 1, out);
        }
        Plan::Limit { input, n } => {
            pad(depth, out);
            out.push_str(&format!("Limit {n}\n"));
            render(input, db, depth + 1, out);
        }
        Plan::Exchange(e) => {
            pad(depth, out);
            out.push_str(&format!("Gather (parallel query, degree {})\n", e.degree));
            render(&e.child, db, depth + 1, out);
        }
    }
}
