//! The executor's scan/aggregate/join machinery and the `execute()`
//! entry point.
//!
//! `execute()` is a thin collect over the lowered operator tree
//! ([`crate::op`]): rows flow batch-at-a-time between operators, only
//! genuine pipeline breakers (sort, aggregation, hash-join build, PQ
//! gather) materialize, and `LIMIT` cancels its producing scans instead
//! of truncating a materialized input. This module keeps the machinery
//! the operators are built from: NDP-aware scan specs, streaming/hash
//! aggregation with partial-merge support (the partials PQ workers hand
//! their leader), and index lookup probing. The executor is the "SQL
//! layer" of the paper: it evaluates residual predicates and merges NDP
//! aggregate partials — without knowing whether the work below happened
//! in a Page Store or on the compute node. Every expression an operator
//! evaluates is compiled once, when the tree is lowered, and runs on the
//! record VM ([`RowExpr`], [`JoinPrograms`]), the engine scans and Page
//! Stores run.

use std::borrow::Cow;

use taurus_common::schema::Row;
use taurus_common::{panic_message, Dec, Error, KeyMap, QueryCtx, Result, RowBatch, Value};
use taurus_expr::agg::{AggFunc, AggState};
use taurus_expr::ast::Expr;
use taurus_expr::ir::encode_value;
use taurus_expr::vm::CompiledPredicate;
use taurus_ndp::ReadView;
use taurus_ndp::{
    BTree, KeyList, KeyRead, PointLookup, ScanConsumer, ScanRange, ScanSpec, TaurusDb,
};
use taurus_optimizer::plan::{
    AggFuncEx, AggItem, AggScanNode, HashAggNode, JoinType, LookupJoinNode, Plan, ScanNode,
};

/// Execution context for one query.
pub struct ExecContext<'a> {
    pub db: &'a TaurusDb,
    pub view: ReadView,
    /// Governance context (tenant identity + deadline) billed and checked
    /// by every scan this query issues. Defaults to the anonymous tenant
    /// with no deadline.
    pub qctx: QueryCtx,
}

impl<'a> ExecContext<'a> {
    pub fn new(db: &'a TaurusDb) -> ExecContext<'a> {
        ExecContext {
            db,
            view: db.read_view(0),
            qctx: QueryCtx::new(),
        }
    }
}

/// Execute a plan to completion: lower it to the batch-native pull
/// pipeline ([`crate::op`]) and collect every emitted batch. Scan
/// producers run on scoped threads and are joined (or cancelled, on
/// error/limit) before this returns.
pub fn execute(plan: &Plan, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    // The plan is verified before any operator lowers, in every build:
    // malformed plans (a wire client's, a hand-built tree's) are rejected
    // here with structured diagnostics (`Error::Verify`) instead of
    // surfacing mid-scan. This and `RowStream::spawn_plan` are the two
    // ways into execution, so a statement is verified once.
    taurus_verify::check_plan(plan, ctx.db)?;
    crossbeam::thread::scope(|s| crate::op::collect(crate::op::lower(plan, ctx, s)?))
        .map_err(|p| panic_error("executor", &*p))?
}

/// A panic caught on one of a query's threads, as the query's error: it
/// must surface as a failure, never as a clean (truncated) result.
pub(crate) fn panic_error(what: &str, payload: &(dyn std::any::Any + Send)) -> Error {
    Error::Internal(format!("{what} panicked: {}", panic_message(payload)))
}

// --- scans -------------------------------------------------------------------

/// Resolve a [`RangeSpec`] (literal key values) into encoded bounds.
pub(crate) fn encode_range(node: &ScanNode, ctx: &ExecContext<'_>) -> Result<ScanRange> {
    let table = ctx.db.table(&node.table)?;
    let tree = &table.index(node.index).tree;
    let enc = |b: &Option<(Vec<Value>, bool)>| {
        b.as_ref()
            .map(|(vals, inc)| (tree.encode_search_key(vals), *inc))
    };
    Ok(ScanRange {
        lower: enc(&node.range.lower),
        upper: enc(&node.range.upper),
    })
}

/// Build the core [`ScanSpec`] for a scan node; a PQ worker bounds it to
/// its partition's `range_override`.
pub(crate) fn scan_spec(
    node: &ScanNode,
    ctx: &ExecContext<'_>,
    range_override: Option<ScanRange>,
) -> Result<ScanSpec> {
    let range = match range_override {
        Some(r) => r,
        None => encode_range(node, ctx)?,
    };
    Ok(ScanSpec {
        index: node.index,
        range,
        ndp: node.ndp.as_ref().map(|d| d.choice.clone()),
        output_cols: node.output.clone(),
    })
}

/// The conjuncts of a scan node the scan must still evaluate (everything
/// the NDP choice did not push), over table columns: the scan core runs
/// them on record bytes, before a row exists. Each must read only columns
/// the node delivers — a plan-level contract the verifier states; a
/// violation is reported here exactly as the pre-execution gate would.
pub(crate) fn scan_residual(node: &ScanNode) -> Result<Vec<Expr>> {
    node.residual_conjuncts()
        .into_iter()
        .map(|e| remap_to_output(e, &node.output).map(|_| e.clone()))
        .collect()
}

/// Map table-column expressions onto scan-output positions, delegating
/// to the verifier's shared definition ([`taurus_verify::remap_onto`]).
/// A column the scan does not deliver is a malformed plan — reported as
/// [`Error::Verify`] with the same structured diagnostic the
/// pre-execution gate produces, never a panic (plans can reach the
/// executor from hand-built trees, not just the vetted builder).
pub(crate) fn remap_to_output(e: &Expr, output: &[usize]) -> Result<Expr> {
    taurus_verify::remap_onto(
        e,
        output,
        taurus_verify::DiagKind::ResidualNotInOutput,
        "scan",
    )
    .map_err(|d| Error::Verify(d.to_string()))
}

// --- aggregation -------------------------------------------------------------

/// Executor-side aggregate state (supports AVG via SUM+COUNT).
#[derive(Clone, Debug)]
pub(crate) enum AggStateEx {
    Simple(AggState),
    Avg { sum: AggState, count: i64 },
}

impl AggStateEx {
    pub(crate) fn new(item: &AggItem, dtypes: &[taurus_common::DataType]) -> AggStateEx {
        let input_dtype = item.input.as_ref().and_then(|e| e.dtype(dtypes).ok());
        match item.func {
            AggFuncEx::Avg => AggStateEx::Avg {
                sum: AggState::new(AggFunc::Sum, input_dtype),
                count: 0,
            },
            f => {
                // lint:allow(panic): AVG was decomposed to SUM+COUNT above
                let func = f.storage_func().expect("non-AVG");
                AggStateEx::Simple(AggState::new(func, input_dtype))
            }
        }
    }

    pub(crate) fn update(&mut self, v: &Value) {
        match self {
            AggStateEx::Simple(s) => s.update(v),
            AggStateEx::Avg { sum, count } => {
                if !v.is_null() {
                    sum.update(v);
                    *count += 1;
                }
            }
        }
    }

    /// Merge storage partials. An AVG state consumes *two* storage states
    /// (SUM + COUNT — the §III decomposition); others consume one.
    /// Returns how many were consumed.
    pub(crate) fn merge_partial(&mut self, others: &[AggState]) -> Result<usize> {
        match self {
            AggStateEx::Simple(s) => {
                s.merge(
                    others
                        .first()
                        .ok_or_else(|| Error::Internal("missing storage partial".into()))?,
                )?;
                Ok(1)
            }
            AggStateEx::Avg { sum, count } => {
                let (s, c) = match others {
                    [s, c, ..] => (s, c),
                    _ => return Err(Error::Internal("AVG needs SUM+COUNT partials".into())),
                };
                sum.merge(s)?;
                match c {
                    AggState::Count(n) => *count += n,
                    other => {
                        return Err(Error::Internal(format!("AVG count partial is {other:?}")))
                    }
                }
                Ok(2)
            }
        }
    }

    pub(crate) fn merge_ex(&mut self, other: &AggStateEx) -> Result<()> {
        match (self, other) {
            (AggStateEx::Simple(a), AggStateEx::Simple(b)) => a.merge(b),
            (AggStateEx::Avg { sum: s1, count: c1 }, AggStateEx::Avg { sum: s2, count: c2 }) => {
                s1.merge(s2)?;
                *c1 += c2;
                Ok(())
            }
            _ => Err(Error::Internal("mismatched executor agg states".into())),
        }
    }

    pub(crate) fn finalize(&self) -> Value {
        match self {
            AggStateEx::Simple(s) => s.finalize(),
            AggStateEx::Avg { sum, count } => {
                if *count == 0 {
                    return Value::Null;
                }
                match sum.finalize() {
                    Value::Null => Value::Null,
                    Value::Int(v) => Value::Decimal(
                        Dec::from_int(v)
                            .div(Dec::from_int(*count))
                            // lint:allow(panic): a finalized group saw >= 1 row, count != 0
                            .expect("count>0"),
                    ),
                    Value::Decimal(d) => {
                        // lint:allow(panic): a finalized group saw >= 1 row, count != 0
                        Value::Decimal(d.div(Dec::from_int(*count)).expect("count>0"))
                    }
                    Value::Double(d) => Value::Double(d / *count as f64),
                    other => other,
                }
            }
        }
    }
}

/// An operator's expression over its input row, compiled once when the
/// tree is lowered: a bare column is read in place (there is nothing to
/// evaluate), anything else is a program the record VM runs over the row.
#[derive(Clone)]
pub(crate) enum RowExpr {
    Col(usize),
    Program(CompiledPredicate),
}

impl RowExpr {
    pub(crate) fn new(e: &Expr) -> Result<RowExpr> {
        Ok(match e {
            Expr::Col(i) => RowExpr::Col(*i),
            e => RowExpr::Program(CompiledPredicate::for_rows(e)?),
        })
    }

    pub(crate) fn value<'v>(&self, row: &'v [Value]) -> Result<Cow<'v, Value>> {
        Ok(match self {
            RowExpr::Col(i) => Cow::Borrowed(
                row.get(*i)
                    .ok_or_else(|| Error::Internal(format!("column {i} out of row range")))?,
            ),
            RowExpr::Program(p) => Cow::Owned(p.eval_row(row)?),
        })
    }
}

/// Fold one row into one aggregate: COUNT(*) counts the row, anything
/// else folds its input's value.
fn fold_input(state: &mut AggStateEx, input: Option<&RowExpr>, row: &[Value]) -> Result<()> {
    match input {
        None => state.update(&Value::Int(1)),
        Some(e) => state.update(e.value(row)?.as_ref()),
    }
    Ok(())
}

/// Partially-aggregated groups keyed by encoded group values; mergeable
/// across PQ workers.
pub(crate) type AggPartials = Vec<(Vec<u8>, Row, Vec<AggStateEx>)>;

/// Merge partial group lists (leader side of PQ), groups in the order
/// they are first seen: given the workers' lists in partition order, an
/// index-ordered `AggScan`'s groups come out in index order, as the serial
/// scan emits them. (The caller sorts what must come out in encoded-key
/// order.)
pub(crate) fn merge_partial_groups(parts: Vec<AggPartials>) -> Result<AggPartials> {
    let mut map: KeyMap<(Row, Vec<AggStateEx>)> = KeyMap::default();
    let mut order: Vec<Vec<u8>> = Vec::new();
    for part in parts {
        for (key, gvals, states) in part {
            match map.get_mut(&key) {
                None => {
                    order.push(key.clone());
                    map.insert(key, (gvals, states));
                }
                Some((_, mine)) => {
                    for (m, s) in mine.iter_mut().zip(&states) {
                        m.merge_ex(s)?;
                    }
                }
            }
        }
    }
    Ok(order
        .into_iter()
        .map(|k| {
            // lint:allow(panic): iterating keys collected from this very map
            let (g, s) = map.remove(&k).expect("present");
            (k, g, s)
        })
        .collect())
}

pub(crate) fn finalize_agg_groups(partials: AggPartials) -> Result<Vec<Row>> {
    Ok(partials
        .into_iter()
        .map(|(_, mut gvals, states)| {
            gvals.extend(states.iter().map(|s| s.finalize()));
            gvals
        })
        .collect())
}

/// The group expression of an `AggScan`'s group column `c`: its position
/// in the delivered row.
fn agg_scan_group(node: &AggScanNode, c: usize) -> Result<Expr> {
    node.scan
        .output
        .iter()
        .position(|&o| o == c)
        .map(Expr::Col)
        .ok_or_else(|| {
            Error::Verify(
                taurus_verify::Diagnostic::error(
                    taurus_verify::DiagKind::GroupColNotInOutput,
                    "AggScan",
                    format!("group column {c} not in scan output {:?}", node.scan.output),
                )
                .to_string(),
            )
        })
}

/// Streaming accumulator for grouped aggregation: the rows of pulled
/// batches (a `HashAgg`'s input, an `AggScan`'s scan, or a PQ worker's
/// range of either) update grouped states one at a time; only the grouped
/// partials are ever held. Groups are keyed by their encoded values, and
/// the group of the last row is looked at first. An `AggScan`'s storage
/// partials merge into the group of the row delivered just before them
/// (their carrier). Groups come out in encoded-key order, except an
/// `AggScan`'s whose GROUP BY follows its index: those arrive, and stay, in
/// index order. It is cloned fresh for each PQ worker.
#[derive(Clone)]
pub(crate) struct HashAggAcc {
    /// The group expressions and the aggregates' inputs, over the input
    /// row.
    group: Vec<RowExpr>,
    inputs: Vec<Option<RowExpr>>,
    /// The states a new group starts from. They are typed by the input
    /// row's types where those are known (an `AggScan`'s); a `HashAgg`'s
    /// input types are unknowable in general, and its states infer their
    /// shape from the first value.
    fresh: Vec<AggStateEx>,
    /// Groups in the order first seen, and where each key's is (unless
    /// `index_ordered`).
    groups: AggPartials,
    slots: KeyMap<usize>,
    /// The group of the last row.
    last: Option<usize>,
    /// The current row's encoded group values, reused from row to row: a
    /// row of an existing group allocates and clones nothing.
    key: Vec<u8>,
    /// The rows arrive grouped, in index order (an `AggScan` whose GROUP
    /// BY follows its index): groups skip the map, and keep their
    /// first-seen order instead of being sorted by key.
    index_ordered: bool,
}

impl HashAggAcc {
    /// An accumulator over input rows of types `dtypes` (where known):
    /// its expressions compiled, nothing accumulated.
    fn build(
        group: &[Expr],
        aggs: &[AggItem],
        dtypes: &[taurus_common::DataType],
        index_ordered: bool,
    ) -> Result<HashAggAcc> {
        Ok(HashAggAcc {
            group: group.iter().map(RowExpr::new).collect::<Result<_>>()?,
            inputs: aggs
                .iter()
                .map(|a| a.input.as_ref().map(RowExpr::new).transpose())
                .collect::<Result<_>>()?,
            fresh: aggs.iter().map(|i| AggStateEx::new(i, dtypes)).collect(),
            groups: Vec::new(),
            slots: KeyMap::default(),
            last: None,
            key: Vec::new(),
            index_ordered,
        })
    }

    pub(crate) fn new(node: &HashAggNode) -> Result<HashAggAcc> {
        HashAggAcc::build(&node.group, &node.aggs, &[], false)
    }

    /// The accumulator of an `AggScan`, over the rows its scan delivers.
    pub(crate) fn for_agg_scan(node: &AggScanNode, db: &TaurusDb) -> Result<HashAggAcc> {
        let table = db.table(&node.scan.table)?;
        let dtypes = table.schema.dtypes();
        let group = node
            .group_cols
            .iter()
            .map(|&c| agg_scan_group(node, c))
            .collect::<Result<Vec<_>>>()?;
        let aggs = node
            .aggs
            .iter()
            .map(|a| {
                Ok(AggItem {
                    func: a.func,
                    input: match &a.input {
                        Some(e) => Some(remap_to_output(e, &node.scan.output)?),
                        None => None,
                    },
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let output_dtypes = node
            .scan
            .output
            .iter()
            .map(|&c| {
                dtypes.get(c).copied().ok_or_else(|| {
                    Error::Verify(format!(
                        "scan output column {c} not in {}",
                        table.schema.name
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        HashAggAcc::build(&group, &aggs, &output_dtypes, node.index_ordered(db))
    }

    pub(crate) fn update(&mut self, row: &[Value]) -> Result<()> {
        self.key.clear();
        for e in &self.group {
            encode_value(e.value(row)?.as_ref(), &mut self.key);
        }
        let same = self.last.filter(|&g| self.groups[g].0 == self.key);
        // Rows in index order arrive grouped: a key other than the last
        // row's is a new group, and the map is never needed.
        let known = || match self.index_ordered {
            true => None,
            false => self.slots.get(self.key.as_slice()).copied(),
        };
        let g = match same.or_else(known) {
            Some(g) => g,
            None => {
                // A new group: only now are its values taken (an
                // expression's evaluated again, once per group).
                let gvals: Row = self
                    .group
                    .iter()
                    .map(|e| e.value(row).map(Cow::into_owned))
                    .collect::<Result<_>>()?;
                let states = self.fresh.clone();
                let g = self.groups.len();
                if !self.index_ordered {
                    self.slots.insert(self.key.clone(), g);
                }
                self.groups.push((self.key.clone(), gvals, states));
                g
            }
        };
        self.last = Some(g);
        for (st, input) in self.groups[g].2.iter_mut().zip(&self.inputs) {
            fold_input(st, input.as_ref(), row)?;
        }
        Ok(())
    }

    /// Merge a storage partial into the group of the row delivered just
    /// before it.
    pub(crate) fn merge_partial(&mut self, states: &[AggState]) -> Result<()> {
        let g = self
            .last
            .ok_or_else(|| Error::Internal("partial before carrier row".into()))?;
        let mut at = 0usize;
        for m in self.groups[g].2.iter_mut() {
            at += m.merge_partial(&states[at..])?;
        }
        if at != states.len() {
            return Err(Error::Internal(format!(
                "storage sent {} partial states, consumed {at}",
                states.len()
            )));
        }
        Ok(())
    }

    /// The grouped partials, in their output order (deterministic
    /// regardless of hash-map iteration order).
    pub(crate) fn finish(mut self) -> AggPartials {
        if self.groups.is_empty() && self.group.is_empty() {
            // Scalar aggregate over an empty input: one all-initial group.
            let states = self.fresh.clone();
            self.groups.push((Vec::new(), Vec::new(), states));
        }
        if !self.index_ordered {
            self.groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        self.groups
    }
}

// --- joins -------------------------------------------------------------------

/// A lookup join's expressions, compiled once when the tree is lowered:
/// the `on` residual over the joined row (outer ++ inner), and the inner
/// predicates a non-covering probe runs over the row it fetched. (A
/// covering probe's inner predicates run in its scan.)
#[derive(Clone)]
pub(crate) struct JoinPrograms {
    on: Option<CompiledPredicate>,
    inner: Vec<CompiledPredicate>,
}

impl JoinPrograms {
    pub(crate) fn new(node: &LookupJoinNode) -> Result<JoinPrograms> {
        let fetch = node.inner_columns();
        Ok(JoinPrograms {
            on: node
                .on
                .as_ref()
                .map(CompiledPredicate::for_rows)
                .transpose()?,
            inner: node
                .inner_predicate
                .iter()
                .map(|e| CompiledPredicate::for_rows(&remap_to_output(e, &fetch)?))
                .collect::<Result<_>>()?,
        })
    }
}

/// One outer row meeting its inner rows: the `on` residual and the join
/// type's output, into `emit`. Also the [`ScanConsumer`] of a covering
/// probe, so inner rows go from the scan's batch to the output without a
/// stop in between.
struct JoinRow<'x> {
    node: &'x LookupJoinNode,
    on: Option<&'x CompiledPredicate>,
    orow: &'x [Value],
    /// Scratch for the joined row (outer ++ inner).
    combined: &'x mut Vec<Value>,
    matched: bool,
    emit: &'x mut dyn FnMut(&[Value]),
}

impl JoinRow<'_> {
    fn inner(&mut self, irow: &[Value]) -> Result<()> {
        if self.matched && matches!(self.node.join, JoinType::Semi | JoinType::Anti) {
            return Ok(());
        }
        self.combined.clear();
        self.combined.extend_from_slice(self.orow);
        self.combined.extend_from_slice(irow);
        if let Some(on) = self.on {
            if !on.row_passes(self.combined)? {
                return Ok(());
            }
        }
        self.matched = true;
        if matches!(self.node.join, JoinType::Inner | JoinType::LeftOuter) {
            (self.emit)(self.combined);
        }
        Ok(())
    }

    /// Every inner row has been seen: what the join type owes a row by
    /// whether it matched.
    fn finish(self) {
        match self.node.join {
            JoinType::Semi if self.matched => (self.emit)(self.orow),
            JoinType::Anti if !self.matched => (self.emit)(self.orow),
            JoinType::LeftOuter if !self.matched => {
                self.combined.clear();
                self.combined.extend_from_slice(self.orow);
                let nulls = self.node.inner_output.len();
                self.combined
                    .extend(std::iter::repeat_n(Value::Null, nulls));
                (self.emit)(self.combined);
            }
            _ => {}
        }
    }
}

impl ScanConsumer for JoinRow<'_> {
    fn on_row(&mut self, row: &[Value]) -> Result<bool> {
        self.inner(row)?;
        Ok(true)
    }

    fn on_batch(&mut self, batch: &RowBatch) -> Result<bool> {
        for row in batch.rows() {
            self.inner(row)?;
        }
        Ok(true)
    }

    fn on_partial(&mut self, _states: Vec<AggState>) -> Result<bool> {
        Err(Error::Internal(
            "lookup probe received aggregate partials".into(),
        ))
    }
}

/// Collects what a non-covering secondary probe finds: the primary keys,
/// encoded for the primary index.
struct PkCollector<'x> {
    primary: &'x BTree,
    pks: &'x mut KeyList,
}

impl ScanConsumer for PkCollector<'_> {
    fn on_row(&mut self, row: &[Value]) -> Result<bool> {
        self.pks.push(self.primary, row.iter());
        Ok(true)
    }

    fn on_partial(&mut self, _states: Vec<AggState>) -> Result<bool> {
        Err(Error::Internal(
            "lookup probe received aggregate partials".into(),
        ))
    }
}

/// The inner side of a lookup join (the `LookupJoin` operator's, serial
/// or under a PQ worker): **batched key access**. The outer rows arrive
/// a batch at a time ([`LookupProbe::begin`]); their probe keys are
/// encoded once; before a row is probed, the keys from it onwards are
/// resolved to the leaf pages their lookups will read and the ones the
/// pool lacks are fetched with
/// one batch read per chunk ([`taurus_ndp::prefetch_leaves`]), so a probe
/// finds its pages cached where it used to pay a storage round trip for
/// each. The probe itself is an index access prepared once
/// ([`PointLookup`]) and re-ranged per key. The primary-key fetches behind
/// a non-covering secondary probe are prefetched the same way. It is how
/// the join executes, with NDP on or off; a replica resolves and fetches
/// nothing and keeps its pinned single reads.
///
/// What the batched read *asks for* is the optimizer's NDP decision
/// (`LookupJoinNode::inner_ndp`). With one, a chunk's leaves are read
/// with the decision's descriptor and the chunk's probe keys
/// ([`KeyRead`]): the matching, filtered, projected records come back
/// instead of whole leaves, go into a chunk-local buffer and never into
/// the pool, and a probe answers from the buffer, in key order as the
/// index would. The keys that read leaves alone (all their leaves
/// resident, or a run the cut cannot vouch for) probe through the pool as
/// without a decision.
pub(crate) struct LookupProbe<'a> {
    node: &'a LookupJoinNode,
    table: std::sync::Arc<taurus_ndp::Table>,
    /// Columns a row fetched through the primary index is narrowed to:
    /// requested outputs + predicate columns (the `on` references inner
    /// columns via inner_output only).
    fetch: Vec<usize>,
    /// The `on` residual, and the inner-side predicates over `fetch`
    /// positions.
    programs: JoinPrograms,
    /// `inner_output` positions within `fetch`.
    out_pos: Vec<usize>,
    /// When the chosen (secondary) index does not store every needed
    /// column, the lookup finds primary keys and fetches the full row from
    /// the primary index — InnoDB's non-covering-secondary path.
    covering: bool,
    /// The inner index access. A covering index delivers `inner_output`
    /// with the inner predicate run by the scan, a non-covering one the
    /// primary key.
    inner: PointLookup,
    /// The NDP form of the batched read, when the optimizer decided on it
    /// (covering accesses only).
    key_read: Option<KeyRead>,
    /// The probe keys of the outer rows given to `begin`, in their order.
    keys: KeyList,
    /// `keys[chunk_start..prefetched]` are the current chunk: their leaves
    /// have been looked after, by prefetch or by key read.
    chunk_start: usize,
    prefetched: usize,
    /// Non-covering: the primary keys the current probe found.
    pks: KeyList,
    /// Scratch: leaves to fetch, the joined row, the fetched row narrowed
    /// to `fetch`, the inner row.
    missing: Vec<taurus_common::PageNo>,
    combined: Vec<Value>,
    projected: Vec<Value>,
    irow: Vec<Value>,
}

impl<'a> LookupProbe<'a> {
    pub(crate) fn new(
        node: &'a LookupJoinNode,
        programs: JoinPrograms,
        ctx: &ExecContext<'_>,
    ) -> Result<LookupProbe<'a>> {
        let table = ctx.db.table(&node.table)?;
        let fetch = node.inner_columns();
        let out_pos: Vec<usize> = node
            .inner_output
            .iter()
            // lint:allow(panic): fetch was built as a superset of inner_output above
            .map(|c| fetch.iter().position(|f| f == c).expect("subset"))
            .collect();
        let covering = node.covered_by(&table.index(node.index).tree.def);
        let (output_cols, residual): (Vec<usize>, &[Expr]) = if covering {
            (node.inner_output.clone(), &node.inner_predicate)
        } else {
            (table.schema.pk.clone(), &[])
        };
        let inner = PointLookup::new(
            ctx.db,
            table.clone(),
            node.index,
            output_cols,
            residual,
            &ctx.view,
            ctx.qctx,
        )?;
        // The decision is the optimizer's; the node's own NDP switch and
        // a replica's pinned reads overrule it as they do a scan's.
        let key_read = match &node.inner_ndp {
            Some(d) if covering && ctx.db.config().ndp.enabled && !ctx.db.is_replica() => {
                let residual: Vec<Expr> = node.inner_residual().into_iter().cloned().collect();
                Some(KeyRead::new(
                    ctx.db,
                    table.clone(),
                    node.index,
                    node.outer_key_cols.len(),
                    &d.choice,
                    &node.inner_output,
                    &residual,
                    &ctx.view,
                    ctx.qctx,
                )?)
            }
            _ => None,
        };
        Ok(LookupProbe {
            node,
            table,
            fetch,
            programs,
            out_pos,
            covering,
            inner,
            key_read,
            keys: KeyList::default(),
            chunk_start: 0,
            prefetched: 0,
            pks: KeyList::default(),
            missing: Vec::new(),
            combined: Vec::new(),
            projected: Vec::new(),
            irow: Vec::new(),
        })
    }

    /// Take on the next run of outer rows (an outer batch, or what is
    /// unread of it): encode each one's probe key, once. [`Self::probe`]
    /// then names a row by its position in `orows`.
    pub(crate) fn begin<'r>(&mut self, orows: impl Iterator<Item = &'r [Value]>) {
        let tree = &self.table.index(self.node.index).tree;
        self.keys.clear();
        self.chunk_start = 0;
        self.prefetched = 0;
        for orow in orows {
            self.keys
                .push(tree, self.node.outer_key_cols.iter().map(|&p| &orow[p]));
        }
    }

    /// Probe the inner index for outer row `i` of the run given to
    /// [`Self::begin`], emitting every joined output row (join-type
    /// semantics included).
    pub(crate) fn probe(
        &mut self,
        ctx: &ExecContext<'_>,
        i: usize,
        orow: &[Value],
        emit: &mut dyn FnMut(&[Value]),
    ) -> Result<()> {
        let inner_index = self.table.index(self.node.index);
        if i >= self.prefetched {
            self.chunk_start = i;
            self.prefetched = i + match &mut self.key_read {
                Some(key_read) => key_read.chunk(ctx.db, &self.keys, i)?,
                None => taurus_ndp::prefetch_leaves(
                    inner_index,
                    self.keys.iter_from(i),
                    &ctx.qctx,
                    &mut self.missing,
                )?,
            };
        }
        let mut join = JoinRow {
            node: self.node,
            on: self.programs.on.as_ref(),
            orow,
            combined: &mut self.combined,
            matched: false,
            emit,
        };
        let key = self.keys.get(i);
        if key.is_empty() {
            // A NULL key matches nothing.
            join.finish();
            return Ok(());
        }
        if self.covering {
            let read = self.key_read.as_ref();
            match read.and_then(|r| r.rows_of(i - self.chunk_start)) {
                Some(rows) => {
                    for row in rows {
                        join.inner(row)?;
                    }
                }
                None => self.inner.probe(ctx.db, key, &mut join)?,
            }
            join.finish();
            return Ok(());
        }
        // Secondary hit -> primary row fetch, then filter.
        let primary = &self.table.primary;
        self.pks.clear();
        let mut found = PkCollector {
            primary: &primary.tree,
            pks: &mut self.pks,
        };
        self.inner.probe(ctx.db, key, &mut found)?;
        let mut fetched = 0;
        'rows: for at in 0..self.pks.len() {
            if at >= fetched {
                fetched = at
                    + taurus_ndp::prefetch_leaves(
                        primary,
                        self.pks.iter_from(at),
                        &ctx.qctx,
                        &mut self.missing,
                    )?;
            }
            let Some(full) = ctx
                .db
                .lookup_row_by_key(&self.table, &ctx.view, self.pks.get(at))?
            else {
                continue;
            };
            self.projected.clear();
            self.projected
                .extend(self.fetch.iter().map(|&f| full[f].clone()));
            for p in &self.programs.inner {
                if !p.row_passes(&self.projected)? {
                    continue 'rows;
                }
            }
            self.irow.clear();
            self.irow
                .extend(self.out_pos.iter().map(|&p| self.projected[p].clone()));
            join.inner(&self.irow)?;
        }
        join.finish();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taurus_common::schema::{Column, TableSchema};
    use taurus_common::{ClusterConfig, DataType};

    fn tiny_db() -> (Arc<TaurusDb>, Arc<taurus_ndp::Table>) {
        let db = TaurusDb::new(ClusterConfig::small_for_tests());
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::BigInt),
                Column::new("b", DataType::BigInt),
                Column::new("c", DataType::BigInt),
            ],
            vec![0],
        );
        let t = db.create_table(schema, &[]).unwrap();
        db.bulk_load(
            &t,
            (0..20i64)
                .map(|i| vec![Value::Int(i), Value::Int(i * 2), Value::Int(i * 3)])
                .collect(),
        )
        .unwrap();
        (db, t)
    }

    /// A plan whose residual predicate references a column the scan does
    /// not deliver must surface as a structured `Error::Verify`, not a
    /// panic (executor threads turning malformed plans into aborts would
    /// take the whole process down). The pre-execution gate rejects it
    /// before any operator opens; the per-site remap produces the same
    /// error for callers that come in below the gate.
    #[test]
    fn malformed_residual_column_is_an_error_not_a_panic() {
        let (db, _t) = tiny_db();
        let ctx = ExecContext::new(&db);
        let mut node = ScanNode::new("t", vec![0, 1]);
        node.predicate = vec![Expr::gt(Expr::col(2), Expr::int(5))]; // col 2 not in output
        let err = execute(&Plan::Scan(node), &ctx).unwrap_err();
        assert!(
            matches!(err, Error::Verify(ref m) if m.contains("not in scan output")),
            "{err:?}"
        );
    }

    /// Group keys read in place and cloned once per group: the groups,
    /// their order and their values are what evaluating every key of
    /// every row gives, for CHAR, NULL and Decimal keys and for an
    /// expression key (which is still evaluated).
    #[test]
    fn hash_agg_groups_equal_the_evaluated_keys() {
        use taurus_common::Dec;
        let node = HashAggNode {
            input: Box::new(Plan::Scan(ScanNode::new("t", vec![0]))),
            group: vec![
                Expr::col(0),
                Expr::col(1),
                Expr::col(2),
                Expr::add(Expr::col(3), Expr::int(1)),
            ],
            aggs: vec![AggItem {
                func: AggFuncEx::CountStar,
                input: None,
            }],
        };
        let rows: Vec<Row> = (0..60i64)
            .map(|i| {
                vec![
                    Value::str(["A", "N", "R"][(i % 3) as usize]),
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 2)
                    },
                    Value::Decimal(Dec::new((i % 5) as i128 * 25, 2)),
                    Value::Int(i % 2),
                ]
            })
            .collect();
        let mut acc = HashAggAcc::new(&node).unwrap();
        for r in &rows {
            acc.update(r).unwrap();
        }
        let got = finalize_agg_groups(acc.finish()).unwrap();

        let mut want: std::collections::BTreeMap<Vec<u8>, Row> = Default::default();
        for r in &rows {
            let gvals: Row = node
                .group
                .iter()
                .map(|e| taurus_expr::eval::eval(e, r).unwrap())
                .collect();
            let mut key = Vec::new();
            for v in &gvals {
                encode_value(v, &mut key);
            }
            let group = want.entry(key).or_insert_with(|| {
                let mut g = gvals.clone();
                g.push(Value::Int(0));
                g
            });
            let n = group.last().unwrap().as_int().unwrap();
            *group.last_mut().unwrap() = Value::Int(n + 1);
        }
        let want: Vec<Row> = want.into_values().collect();
        assert_eq!(got, want);
        assert!(got.len() > 20, "{} groups", got.len());
    }

    /// Same contract for an AggScan whose GROUP BY column the scan does
    /// not deliver.
    #[test]
    fn malformed_group_column_is_an_error_not_a_panic() {
        let (db, _t) = tiny_db();
        let ctx = ExecContext::new(&db);
        let node = AggScanNode {
            scan: ScanNode::new("t", vec![0, 1]),
            group_cols: vec![2], // not in scan output
            aggs: Vec::new(),
        };
        let err = HashAggAcc::for_agg_scan(&node, &db).err().unwrap();
        assert!(
            matches!(err, Error::Verify(ref m) if m.contains("group column")),
            "{err:?}"
        );
        // And through the full pipeline entry point.
        let err = execute(&Plan::AggScan(node), &ctx).unwrap_err();
        assert!(matches!(err, Error::Verify(_)), "{err:?}");
    }
}
