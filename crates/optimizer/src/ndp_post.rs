//! The NDP post-processing step (§IV-B).
//!
//! Taurus deliberately does *not* fold NDP into plan enumeration: "finalize
//! a query plan without considering NDP, and then consider enabling NDP for
//! each of the table accesses in the plan." This pass is that step. For
//! each access it decides, independently (§III: "the three decisions are
//! taken independently"):
//!
//! * **predicate pushdown** — only allow-listed operators/types (§V-B1),
//!   only if the estimated filter factor is good enough;
//! * **column projection** — only if the width reduction clears the
//!   threshold (§V-A);
//! * **aggregation** — only for a [`crate::plan::HashAggNode`] over a bare
//!   scan (the last and only table of its block) grouped by bare columns,
//!   with no residual predicates, inputs the
//!   Page Stores can compute ([`storage_can_compute`]), and few enough
//!   groups a leaf by the catalog's estimate
//!   ([`GROUPS_PER_LEAF_THRESHOLD`]): a GROUP BY that follows the index is
//!   folded group after group, any other in a per-page table of at most
//!   [`GROUP_TABLE_GROUPS`] groups (§V-C);
//! * **HAVING**, carried one step past §V-C: when such a `HashAgg`'s GROUP
//!   BY follows the index and a `Filter` sits right above it, the Filter's
//!   conjuncts that the Page Stores can judge from a group's outputs
//!   ([`storage_can_judge`]) go with the aggregation ([`decide_having`]).
//!   Groups arrive one after another, so a group that neither starts nor
//!   ends its page, and no ambiguous record carries, is complete there,
//!   and the plugin drops it when those conjuncts are not `True` for it.
//!   The Filter stays: boundary groups and raw pages reach it as before.
//!   One program run per finished group is all it costs, so there is no
//!   estimate to pass;
//!
//! all gated by the *estimated physical I/O* rule: "NDP is enabled on a
//! scan only if the scan is estimated to cause at least 10,000 pages of
//! I/O", where pages already resident in the buffer pool do not count
//! (§VII-C footnote 4 — the reason Q11/Q17/Q19/Q20 see no NDP).
//!
//! The inner side of a lookup join is a table access too, and gets the
//! same rules ([`decide_lookup`]; the paper gives NDP to scans only). Its
//! reads are point reads batched a chunk of leaves to a request; with a
//! decision, each request carries the descriptor and the chunk's probe
//! keys, and storage returns the matching, filtered, projected records
//! instead of whole leaves. Only a covering access qualifies: the
//! primary-key fetches behind a non-covering secondary probe want whole
//! rows.
//!
//! A fourth decision belongs to a hash join whose probe side is such a
//! scan: a **join filter** ([`decide_join_filter`]). The join drains its
//! build side first, and its probe scan's batch reads carry a Bloom filter
//! over the build keys, so the Page Stores stop shipping records no build
//! key matches, as a scan's own pushed predicate keeps its rejects home.
//! It is marked by what can be seen of the plan, not by estimates: an
//! inner or semi join on one integer key, a probe that is a scan over the
//! I/O gate, and a build side that filters something (an unfiltered build
//! lists every key of its table). Whether the filter goes out is decided
//! at run time from the number of build keys.

use taurus_common::NdpConfig;
use taurus_common::{DataType, Result, Value};
use taurus_expr::agg::AggFunc;
use taurus_expr::ast::{CmpOp, Expr};
use taurus_ndp::{
    NdpChoice, ScanAggregation, TableIndex, TableStats, TaurusDb, GROUP_TABLE_GROUPS,
};

use crate::plan::{
    AggItem, HashAggNode, HashJoinNode, JoinFilterDecision, JoinType, LookupJoinNode, NdpDecision,
    Plan, RangeSpec, ScanNode,
};

/// Why a table access did or did not get each NDP feature (EXPLAIN food).
#[derive(Clone, Debug, Default)]
pub struct NdpReport {
    pub table: String,
    pub est_io_pages: f64,
    pub cached_pages: u64,
    pub gated_by_io: bool,
    pub pushed_predicates: usize,
    pub filter_factor: f64,
    pub projection: bool,
    pub width_ratio: f64,
    pub aggregation: bool,
    /// For an aggregating access: the estimated groups a leaf's records
    /// form, and the most that pushes.
    pub groups_per_leaf: f64,
    pub group_limit: f64,
    /// The aggregation carries HAVING conjuncts for complete groups.
    pub having: bool,
}

/// Run the pass over a finalized plan. Returns one report per table access
/// (pre-order).
pub fn ndp_post_process(plan: &mut Plan, db: &TaurusDb) -> Result<Vec<NdpReport>> {
    let mut reports = Vec::new();
    process(plan, db, &mut reports)?;
    Ok(reports)
}

fn process(plan: &mut Plan, db: &TaurusDb, out: &mut Vec<NdpReport>) -> Result<()> {
    match plan {
        Plan::Scan(s) => {
            let r = decide_scan(s, None, db)?;
            out.push(r);
        }
        Plan::LookupJoin(j) => {
            process(&mut j.outer, db, out)?;
            out.push(decide_lookup(j, db)?);
        }
        Plan::HashJoin(j) => {
            let probe_report = out.len();
            process(&mut j.left, db, out)?;
            process(&mut j.right, db, out)?;
            // A scan's report is the first of its subtree's.
            let gated = out.get(probe_report).is_none_or(|r| r.gated_by_io);
            decide_join_filter(j, gated, db)?;
        }
        Plan::HashAgg(a) => match (a.group_cols(), a.table_aggs(), &mut *a.input) {
            // Storage groups and aggregates the scanned table's columns.
            (Some(group_cols), Some(aggs), Plan::Scan(scan)) => {
                out.push(decide_scan(scan, Some((&group_cols, &aggs)), db)?);
            }
            (_, _, input) => process(input, db, out)?,
        },
        Plan::Project(p) => process(&mut p.input, db, out)?,
        Plan::Filter(p) => {
            let scan_report = out.len();
            process(&mut p.input, db, out)?;
            if let (Plan::HashAgg(a), Some(r)) = (&mut *p.input, out.get_mut(scan_report)) {
                r.having = decide_having(&p.predicate, a, db)?;
            }
        }
        Plan::Sort(s) => process(&mut s.input, db, out)?,
        Plan::Limit { input, .. } => process(input, db, out)?,
        Plan::Exchange(e) => process(&mut e.child, db, out)?,
    }
    Ok(())
}

fn decide_scan(
    node: &mut ScanNode,
    agg: Option<(&Vec<usize>, &Vec<AggItem>)>,
    db: &TaurusDb,
) -> Result<NdpReport> {
    let cfg = db.config().ndp.clone();
    let table = db.table(&node.table)?;
    let idx = table.index(node.index);
    let stats = table.stats.read().clone();
    let mut report = NdpReport {
        table: node.table.clone(),
        ..Default::default()
    };
    node.ndp = None;
    if !cfg.enabled {
        return Ok(report);
    }

    let range_frac = estimate_range_fraction(&node.range, node, &table, &stats);
    if gated_by_io(idx, range_frac, &cfg, &mut report) {
        return Ok(report);
    }

    let mut choice = NdpChoice::default();
    let pushed = push_predicates(
        &node.predicate,
        &table,
        &stats,
        &cfg,
        &mut choice,
        &mut report,
    );
    // Needed: declared outputs, the residual conjuncts' columns and the key.
    let mut needed: Vec<usize> = node.output.clone();
    needed.extend(residual_columns(&node.predicate, &pushed));
    needed.extend(idx.tree.def.effective_key_cols());
    push_projection(needed, idx, &stats, &mut choice, &mut report);

    // --- aggregation (§V-C) ---------------------------------------------------
    if let Some((group_cols, aggs)) = agg {
        let residual_empty = pushed.len() == node.predicate.len();
        let range_covered =
            matches!((&node.range.lower, &node.range.upper), (None, None)) || !pushed.is_empty();
        let computable = storage_can_compute(aggs, &table.schema.dtypes());
        let index_ordered = idx.tree.def.effective_key_cols().starts_with(group_cols);
        estimate_groups(group_cols, index_ordered, idx, &stats, &mut report);
        let few_groups = report.groups_per_leaf <= report.group_limit;
        if residual_empty && range_covered && computable && few_groups {
            choice.aggregation = Some(ScanAggregation {
                specs: aggs.clone(),
                group_cols: group_cols.clone(),
                having: None,
            });
            report.aggregation = true;
        }
    }

    if !choice.is_empty() {
        node.ndp = Some(NdpDecision { choice, pushed });
    }
    Ok(report)
}

/// Can the Page Stores compute every one of a block's aggregates? Each
/// is pushed as it is (the binder has already written an AVG as a SUM
/// over a COUNT, §III), so only the inputs are judged: `false` for one
/// off the §V-B1 allow-list, or a program past the descriptor's register
/// budget.
pub fn storage_can_compute(aggs: &[AggItem], dtypes: &[DataType]) -> bool {
    aggs.iter().all(|a| {
        a.input.as_ref().is_none_or(|e| {
            e.is_ndp_supported(dtypes) && taurus_expr::compile::lower_for_ndp(e).is_ok()
        })
    })
}

/// The HAVING decision of a `HashAgg` whose rows `filter` judges: when
/// its aggregation went to storage grouped in index order, the conjuncts
/// of `filter` that [`storage_can_judge`] and that are on the §V-B1
/// allow-list go with it, as one program within the descriptor's
/// register budget. Returns whether any did.
fn decide_having(filter: &Expr, a: &mut HashAggNode, db: &TaurusDb) -> Result<bool> {
    let index_ordered = !a.group.is_empty() && a.index_ordered(db);
    let (n_group, aggs) = (a.group.len(), a.aggs.clone());
    let Plan::Scan(scan) = &mut *a.input else {
        return Ok(false);
    };
    let Some(agg) = scan
        .ndp
        .as_mut()
        .and_then(|d| d.choice.aggregation.as_mut())
    else {
        return Ok(false);
    };
    agg.having = None;
    if !index_ordered {
        return Ok(false);
    }
    let table = db.table(&scan.table)?;
    let outputs = grouped_dtypes(&agg.group_cols, &agg.specs, &table.schema.dtypes());
    let mut pushed: Vec<Expr> = Vec::new();
    for c in conjuncts(filter) {
        if !storage_can_judge(c, &aggs, n_group) || !c.is_ndp_supported(&outputs) {
            continue;
        }
        pushed.push(c.clone());
        if taurus_expr::compile::lower_for_ndp(&Expr::and(pushed.clone())).is_err() {
            pushed.pop();
        }
    }
    if pushed.is_empty() {
        return Ok(false);
    }
    agg.having = Some(Expr::and(pushed));
    Ok(true)
}

/// The conjuncts of a predicate: the parts of an AND, or the predicate.
pub fn conjuncts(e: &Expr) -> &[Expr] {
    match e {
        Expr::And(xs) => xs,
        e => std::slice::from_ref(e),
    }
}

/// Can a Page Store judge a HAVING conjunct over a scan-folded
/// `HashAgg`'s output row (its `n_group` group columns, then one value per
/// aggregate of `aggs`)? A group's outputs there are the same columns in the same
/// order, so the conjunct goes as it is. Not when it reads a SUM over an
/// expression: a Page Store types such a sum by its first value, the SQL
/// node by the expression's type, and their finals may differ in scale.
pub fn storage_can_judge(conjunct: &Expr, aggs: &[AggItem], n_group: usize) -> bool {
    conjunct
        .columns()
        .into_iter()
        .all(|c| match c.checked_sub(n_group) {
            None => true,
            Some(j) => aggs
                .get(j)
                .is_some_and(|a| a.func != AggFunc::Sum || matches!(a.input, Some(Expr::Col(_)))),
        })
}

/// The types of a group's outputs at a Page Store: its group columns',
/// then each storage aggregate's final value's.
fn grouped_dtypes(group_cols: &[usize], specs: &[AggItem], dtypes: &[DataType]) -> Vec<DataType> {
    let col = |c: usize| dtypes.get(c).copied().unwrap_or(DataType::BigInt);
    let spec = |s: &AggItem| {
        let input = s.input.as_ref().and_then(|e| e.dtype(dtypes).ok());
        s.func.output_type(input).unwrap_or(DataType::BigInt)
    };
    group_cols
        .iter()
        .map(|&c| col(c))
        .chain(specs.iter().map(spec))
        .collect()
}

/// Push aggregation when a leaf's records fall into at most this fraction
/// of as many groups: below it a page's partials replace most of its rows.
const GROUPS_PER_LEAF_THRESHOLD: f64 = 0.5;

/// The catalog's estimate of how many groups one leaf's records form, and
/// the most [`GROUPS_PER_LEAF_THRESHOLD`] allows, into the report. Input
/// grouped in index order spreads the table's groups over its leaves, and
/// the Page Store folds them one after another; any other GROUP BY can
/// meet every group on every leaf, and at most one a record, and is
/// folded in a per-page table of [`GROUP_TABLE_GROUPS`] groups, so more
/// than that never push.
fn estimate_groups(
    group_cols: &[usize],
    index_ordered: bool,
    idx: &TableIndex,
    stats: &TableStats,
    report: &mut NdpReport,
) {
    let rows = stats.row_count.max(1) as f64;
    let rows_per_leaf = rows / idx.tree.n_leaves().max(1) as f64;
    let ndv: f64 = group_cols
        .iter()
        .map(|&c| stats.columns.get(c).map_or(rows, |s| s.ndv.max(1) as f64))
        .product();
    let limit = rows_per_leaf * GROUPS_PER_LEAF_THRESHOLD;
    (report.groups_per_leaf, report.group_limit) = match index_ordered {
        true => (rows_per_leaf * ndv.min(rows) / rows, limit),
        false => (ndv.min(rows_per_leaf), limit.min(GROUP_TABLE_GROUPS as f64)),
    };
}

/// The I/O gate (§IV-B): the leaves of `range_frac` of the index that the
/// pool does not hold. Fills the report; true when that is under
/// `ndp.min_io_pages`.
fn gated_by_io(idx: &TableIndex, range_frac: f64, cfg: &NdpConfig, report: &mut NdpReport) -> bool {
    let leaves = idx.tree.n_leaves() as f64;
    let cached = idx
        .store
        .buffer_pool()
        .count_pages_in_space(idx.tree.def.space)
        .min(idx.tree.n_leaves() as usize) as f64;
    // Cached pages reduce expected physical I/O uniformly over the range.
    let est_io = (leaves * range_frac - cached * range_frac).max(0.0);
    report.est_io_pages = est_io;
    report.cached_pages = cached as u64;
    report.gated_by_io = est_io < cfg.min_io_pages as f64;
    report.gated_by_io
}

/// Predicate pushdown (§V-B1): the allow-listed conjuncts of `predicate`
/// go to storage together, as one program within the descriptor's
/// register budget, when their estimated filter factor is good enough.
/// Returns their indices; a conjunct the budget leaves out stays a
/// residual.
fn push_predicates(
    predicate: &[Expr],
    table: &taurus_ndp::Table,
    stats: &TableStats,
    cfg: &NdpConfig,
    choice: &mut NdpChoice,
    report: &mut NdpReport,
) -> Vec<usize> {
    let dtypes: Vec<DataType> = table.schema.dtypes();
    let mut eligible: Vec<usize> = Vec::new();
    for (i, e) in predicate.iter().enumerate() {
        if !e.is_ndp_supported(&dtypes) {
            continue;
        }
        eligible.push(i);
        let pushed = Expr::and(eligible.iter().map(|&i| predicate[i].clone()).collect());
        if taurus_expr::compile::lower_for_ndp(&pushed).is_err() {
            eligible.pop();
        }
    }
    if eligible.is_empty() {
        return eligible;
    }
    let ff: f64 = eligible
        .iter()
        .map(|&i| estimate_filter_factor(&predicate[i], table, stats))
        .product::<f64>()
        .clamp(0.0005, 1.0);
    report.filter_factor = ff;
    if ff > cfg.predicate_max_filter_factor {
        return Vec::new();
    }
    choice.predicate = Some(Expr::and(
        eligible.iter().map(|&i| predicate[i].clone()).collect(),
    ));
    report.pushed_predicates = eligible.len();
    eligible
}

/// The columns of the conjuncts that were not pushed: the SQL node still
/// evaluates those, so a projection must keep their columns.
fn residual_columns<'a>(
    predicate: &'a [Expr],
    pushed: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    predicate
        .iter()
        .enumerate()
        .filter(|(i, _)| !pushed.contains(i))
        .flat_map(|(_, e)| e.columns())
}

/// Push a column projection when the projected width is at most this
/// fraction of the full row width (§V-A "width reduction is high
/// enough").
const PROJECTION_WIDTH_THRESHOLD: f64 = 0.8;

/// Column projection (§V-A): keep `needed` (table columns, in any order,
/// repeats allowed) when that is narrow enough against the full row, and
/// narrower than what the index stores.
fn push_projection(
    mut needed: Vec<usize>,
    idx: &TableIndex,
    stats: &TableStats,
    choice: &mut NdpChoice,
    report: &mut NdpReport,
) {
    needed.sort_unstable();
    needed.dedup();
    let width = |c: Option<&taurus_ndp::ColumnStats>, unknown: f64| {
        c.map(|s| s.avg_width.max(1.0)).unwrap_or(unknown)
    };
    let full_width: f64 = stats
        .columns
        .iter()
        .map(|c| width(Some(c), 1.0))
        .sum::<f64>()
        .max(1.0);
    let kept_width: f64 = needed
        .iter()
        .map(|&c| width(stats.columns.get(c), 8.0))
        .sum();
    report.width_ratio = kept_width / full_width;
    // Only meaningful when this index stores more than what we need.
    let stored = idx.tree.def.stored_cols();
    let narrowing_possible = needed.len() < stored.len();
    if narrowing_possible && report.width_ratio <= PROJECTION_WIDTH_THRESHOLD {
        needed.retain(|c| stored.contains(c));
        choice.projection = Some(needed);
        report.projection = true;
    }
}

/// The NDP decision for the inner side of a lookup join, by the rules a
/// scan gets: the I/O gate over the whole index (the join's keys are not
/// known here; an upper bound, since the executor only ever requests the
/// leaves its probe keys fall on), the §V-B1 allow-list and filter factor
/// for `inner_predicate`, the §V-A width rule for `inner_output`, the
/// residual conjuncts' columns and the key. A decision that pushes
/// nothing is still one: the probe keys alone keep every other record of
/// a leaf off the wire. No aggregation: the join wants the rows.
fn decide_lookup(node: &mut LookupJoinNode, db: &TaurusDb) -> Result<NdpReport> {
    let cfg = &db.config().ndp;
    let table = db.table(&node.table)?;
    let idx = table.index(node.index);
    let stats = table.stats.read().clone();
    let mut report = NdpReport {
        table: node.table.clone(),
        ..Default::default()
    };
    node.inner_ndp = None;
    // A replica's reads are LSN-pinned single reads, and the primary-key
    // fetches behind a non-covering probe want whole rows.
    let covering = node.covered_by(&idx.tree.def);
    if !cfg.enabled || db.is_replica() || !covering || gated_by_io(idx, 1.0, cfg, &mut report) {
        return Ok(report);
    }
    let mut choice = NdpChoice::default();
    let pushed = push_predicates(
        &node.inner_predicate,
        &table,
        &stats,
        cfg,
        &mut choice,
        &mut report,
    );
    let mut needed = node.inner_output.clone();
    needed.extend(residual_columns(&node.inner_predicate, &pushed));
    needed.extend(idx.tree.def.effective_key_cols());
    push_projection(needed, idx, &stats, &mut choice, &mut report);
    node.inner_ndp = Some(NdpDecision { choice, pushed });
    Ok(report)
}

/// The join-filter decision of a hash join whose probe scan `gated` says
/// whether the I/O gate kept NDP from: the probe's batch reads carry the
/// build keys when the join keeps only probe rows that match (inner or
/// semi) on one key, the probe is a scan of an integer key column that
/// NDP reads, and the build side filters. A probe scan that pushes
/// nothing else still qualifies: the filter alone is work, as keys alone
/// are for a key read.
fn decide_join_filter(node: &mut HashJoinNode, gated: bool, db: &TaurusDb) -> Result<()> {
    node.filter = None;
    let (Plan::Scan(probe), [key]) = (&*node.left, &node.left_keys[..]) else {
        return Ok(());
    };
    let matching_only = matches!(node.join, JoinType::Inner | JoinType::Semi);
    if !db.config().ndp.enabled || gated || !matching_only || !node.right.holds_predicate() {
        return Ok(());
    }
    let Some(&column) = probe.output.get(*key) else {
        return Ok(());
    };
    let table = db.table(&probe.table)?;
    if !matches!(
        table.schema.columns.get(column).map(|c| c.dtype),
        Some(DataType::Int | DataType::BigInt)
    ) {
        return Ok(());
    }
    let ndv = table.stats.read().columns.get(column).map_or(0, |c| c.ndv);
    node.filter = Some(JoinFilterDecision { column, ndv });
    Ok(())
}

/// Fraction of the index the range covers (1.0 = full scan).
fn estimate_range_fraction(
    range: &RangeSpec,
    node: &ScanNode,
    table: &taurus_ndp::Table,
    stats: &TableStats,
) -> f64 {
    if range.lower.is_none() && range.upper.is_none() {
        return 1.0;
    }
    // Point access?
    if let (Some((lo, _)), Some((hi, _))) = (&range.lower, &range.upper) {
        if lo == hi {
            let key_cols = &table.index(node.index).tree.def.key_cols;
            if lo.len() == key_cols.len() {
                return (1.0 / stats.row_count.max(1) as f64).min(1.0);
            }
        }
    }
    // First-column interpolation.
    let idx = table.index(node.index);
    let first_key_col = idx.tree.def.key_cols[0];
    let cs = match stats.columns.get(first_key_col) {
        Some(c) => c,
        None => return 0.3,
    };
    let (Some(min), Some(max)) = (&cs.min, &cs.max) else {
        return 0.3;
    };
    let (Some(min), Some(max)) = (value_as_f64(min), value_as_f64(max)) else {
        return 0.3;
    };
    if max <= min {
        return 1.0;
    }
    let lo = range
        .lower
        .as_ref()
        .and_then(|(v, _)| v.first())
        .and_then(value_as_f64)
        .unwrap_or(min);
    let hi = range
        .upper
        .as_ref()
        .and_then(|(v, _)| v.first())
        .and_then(value_as_f64)
        .unwrap_or(max);
    ((hi - lo) / (max - min)).clamp(0.001, 1.0)
}

fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(x) => Some(*x as f64),
        Value::Decimal(d) => Some(d.to_f64()),
        Value::Date(d) => Some(d.0 as f64),
        Value::Double(x) => Some(*x),
        _ => None,
    }
}

/// Estimate the fraction of rows satisfying `e` ("the optimizer then
/// calculates the filter factors of the predicates", §V-B1).
#[allow(clippy::only_used_in_recursion)] // `table` is part of the public signature
pub fn estimate_filter_factor(e: &Expr, table: &taurus_ndp::Table, stats: &TableStats) -> f64 {
    match e {
        Expr::And(xs) => xs
            .iter()
            .map(|x| estimate_filter_factor(x, table, stats))
            .product::<f64>()
            .clamp(0.0, 1.0),
        Expr::Or(xs) => xs
            .iter()
            .map(|x| estimate_filter_factor(x, table, stats))
            .sum::<f64>()
            .clamp(0.0, 1.0),
        Expr::Not(x) => 1.0 - estimate_filter_factor(x, table, stats),
        Expr::Cmp(op, a, b) => {
            let (col, lit, op) = match (&**a, &**b) {
                (Expr::Col(c), Expr::Lit(v)) => (*c, v.clone(), *op),
                (Expr::Lit(v), Expr::Col(c)) => (*c, v.clone(), op.flip()),
                _ => return 0.33,
            };
            let cs = match stats.columns.get(col) {
                Some(c) => c,
                None => return 0.33,
            };
            match op {
                CmpOp::Eq => 1.0 / cs.ndv.max(1) as f64,
                CmpOp::Ne => 1.0 - 1.0 / cs.ndv.max(1) as f64,
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    let (Some(min), Some(max)) = (&cs.min, &cs.max) else {
                        return 0.33;
                    };
                    let (Some(min), Some(max), Some(v)) =
                        (value_as_f64(min), value_as_f64(max), value_as_f64(&lit))
                    else {
                        return 0.33;
                    };
                    if max <= min {
                        return 0.5;
                    }
                    let frac = ((v - min) / (max - min)).clamp(0.0, 1.0);
                    match op {
                        CmpOp::Lt | CmpOp::Le => frac.max(0.001),
                        _ => (1.0 - frac).max(0.001),
                    }
                }
            }
        }
        Expr::Between { expr, lo, hi } => {
            let a =
                estimate_filter_factor(&Expr::ge((**expr).clone(), (**lo).clone()), table, stats);
            let b =
                estimate_filter_factor(&Expr::le((**expr).clone(), (**hi).clone()), table, stats);
            (a + b - 1.0).clamp(0.001, 1.0)
        }
        Expr::InList { list, negated, .. } => {
            let base = (list.len() as f64 * 0.05).clamp(0.01, 0.9);
            if *negated {
                1.0 - base
            } else {
                base
            }
        }
        Expr::Like {
            pattern, negated, ..
        } => {
            let base = if pattern.starts_with('%') { 0.09 } else { 0.05 };
            if *negated {
                1.0 - base
            } else {
                base
            }
        }
        Expr::IsNull { negated, .. } => {
            if *negated {
                0.95
            } else {
                0.05
            }
        }
        _ => 0.33,
    }
}
