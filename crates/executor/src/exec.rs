//! The executor's scan/aggregate/join machinery and [`run`], the one way
//! into execution.
//!
//! `run()` verifies a plan, lowers it to the operator tree
//! ([`crate::op`]) and drains the root on the calling thread into a sink:
//! rows flow batch-at-a-time between operators, only genuine pipeline
//! breakers (sort, aggregation, hash-join build, PQ gather) materialize,
//! and `LIMIT` (or a sink answering `false`) cancels the producing scans
//! instead of truncating a materialized input. `execute()` collects
//! through it. This module keeps the machinery the operators are built
//! from: NDP-aware scan specs, hash aggregation over rows or over the
//! records of the scan it folds, with merge support (storage partials,
//! and the groups PQ workers hand their leader), and index lookup
//! probing. The executor is the "SQL layer" of the paper: it
//! evaluates residual predicates and merges NDP aggregate partials —
//! without knowing whether the work below happened in a Page Store or on
//! the compute node. Every expression an operator evaluates is compiled
//! once, when the tree is lowered, and runs on the record VM
//! ([`RowExpr`], [`JoinPrograms`]), the engine scans and Page Stores run.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};

use taurus_common::codec::put_key16;
use taurus_common::keymap::KeyHasher;
use taurus_common::schema::Row;
use taurus_common::{panic_message, DataType, Error, QueryCtx, Result, RowBatch, Value};
use taurus_expr::agg::AggState;
use taurus_expr::ast::Expr;
use taurus_expr::ir::IrProgram;
use taurus_expr::vm::CompiledPredicate;
use taurus_ndp::ReadView;
use taurus_ndp::{
    scan_ctx, BTree, JoinFilter, KeyList, KeyRead, PointLookup, RecordView, ScanConsumer,
    ScanLayout, ScanRange, ScanSpec, TaurusDb,
};
use taurus_optimizer::plan::{HashAggNode, JoinType, LookupJoinNode, Plan, ScanNode};
use taurus_verify::DiagKind;

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

/// Run a plan on the calling thread: verify it, lower it to the
/// batch-native pull pipeline ([`crate::op`]) and hand every batch its
/// root emits to `sink`, until the plan is drained or `sink` answers
/// `false` (which closes the tree and cancels every producing scan). It is
/// the one way into execution: [`execute`], `Session::{execute_plan,
/// run_plan}` and the server all come through here. Scan producers and PQ
/// workers run on scoped threads and are joined before this returns,
/// whatever happened; a panic anywhere in the pipeline or in `sink` is
/// the query's `Error::Internal`, never an unwind out of here or a clean
/// (truncated) result. The caller's thread is charged to nothing here: a
/// caller that counts SQL-node CPU holds its own `CpuGuard`.
pub fn run(
    plan: &Plan,
    ctx: &ExecContext<'_>,
    sink: impl FnMut(RowBatch) -> Result<bool>,
) -> Result<()> {
    // The plan is verified before any operator lowers, in every build:
    // malformed plans (a wire client's, a hand-built tree's) are rejected
    // here with structured diagnostics (`Error::Verify`) instead of
    // surfacing mid-scan.
    taurus_verify::check_plan(plan, ctx.db)?;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crossbeam::thread::scope(|s| crate::op::drain(crate::op::lower(plan, ctx, s)?, sink))
    }))
    .and_then(|scoped| scoped)
    .unwrap_or_else(|panic| Err(panic_error("query", &*panic)))
}

/// [`run`] a plan to completion, collecting its rows.
pub fn execute(plan: &Plan, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    let mut rows: Vec<Row> = Vec::new();
    run(plan, ctx, crate::op::append_to(&mut rows))?;
    Ok(rows)
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

/// Run `node`'s scan on the calling thread, over a PQ worker's `range`
/// when given, into `consumer`: the scan core filters (the residual
/// conjuncts on record bytes), and a hash join's `filter` goes with the
/// batch reads of its probe scan.
pub(crate) fn scan_into(
    ctx: &ExecContext<'_>,
    node: &ScanNode,
    range: Option<ScanRange>,
    filter: Option<&JoinFilter>,
    consumer: &mut dyn ScanConsumer,
) -> Result<()> {
    let table = ctx.db.table(&node.table)?;
    let spec = scan_spec(node, ctx, range)?;
    // Residuals run on record bytes: their columns need not be output.
    let residual: Vec<Expr> = node.residual_conjuncts().into_iter().cloned().collect();
    scan_ctx(
        ctx.db, &table, &spec, &residual, &ctx.view, ctx.qctx, filter, consumer,
    )?;
    Ok(())
}

/// Map table-column expressions onto delivered positions, delegating to
/// the verifier's shared definition ([`taurus_verify::remap_onto`]). A
/// column `output` does not hold is a malformed plan — reported as
/// [`Error::Verify`] with the structured diagnostic `kind` the
/// pre-execution gate produces, never a panic (plans can reach the
/// executor from hand-built trees, not just the vetted builder).
pub(crate) fn remap_to_output(e: &Expr, output: &[usize], kind: DiagKind) -> Result<Expr> {
    taurus_verify::remap_onto(e, output, kind, "scan").map_err(|d| Error::Verify(d.to_string()))
}

// --- aggregation -------------------------------------------------------------

/// The types of the rows `plan` delivers, as the verifier infers them:
/// what the programs an operator runs over them are typed by. A plan it
/// cannot type is an [`Error::Verify`].
pub(crate) fn row_types(plan: &Plan, db: &TaurusDb) -> Result<Vec<DataType>> {
    let inference = taurus_verify::infer_plan(plan, db);
    match inference.schema {
        Some(schema) => Ok(schema.iter().map(|c| c.dtype).collect()),
        None => Err(Error::Verify(taurus_verify::render(&inference.diags))),
    }
}

/// An operator's expression over its input row, compiled once when the
/// tree is lowered: a bare column is read in place (there is nothing to
/// evaluate), anything else is a program the record VM runs over the row,
/// typed by the row's column types `input`.
#[derive(Clone)]
pub(crate) enum RowExpr {
    Col(usize),
    Program(CompiledPredicate),
}

impl RowExpr {
    pub(crate) fn new(e: &Expr, input: &[DataType]) -> Result<RowExpr> {
        Ok(match e {
            Expr::Col(i) => RowExpr::Col(*i),
            e => RowExpr::Program(CompiledPredicate::for_rows(e, input)?),
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

/// Fold one row into one aggregate: COUNT(*) counts the row, a column
/// folds its value, a program its result (building no `Value`).
fn fold_input(state: &mut AggState, input: Option<&RowExpr>, row: &[Value]) -> Result<()> {
    match input {
        None => state.update(&Value::Int(1)),
        Some(RowExpr::Col(i)) => state.update(
            row.get(*i)
                .ok_or_else(|| Error::Internal(format!("column {i} out of row range")))?,
        ),
        Some(RowExpr::Program(p)) => p.fold_row(row, state)?,
    }
    Ok(())
}

/// The order a `HashAgg`'s groups come out in.
#[derive(Clone, Copy, PartialEq)]
enum GroupOrder {
    /// The order they opened in: the GROUP BY follows the scanned index
    /// ([`HashAggNode::index_ordered`]), so they arrive one after another.
    Opened,
    /// By key, which is the `put_key16` encoding of the group's values.
    Key,
    /// By the `put_key16` encoding of the group's values, kept beside
    /// a key that is not it (a folded scan's, of field images).
    Values,
}

/// Marks the end of a chain of groups whose keys share a hash.
const NO_GROUP: u32 = u32::MAX;

/// The hash groups are indexed by.
fn key_hash(key: &[u8]) -> u64 {
    BuildHasherDefault::<KeyHasher>::default().hash_one(key)
}

/// A `HashAgg`'s groups in flat arenas: each group's key, its group
/// values and its aggregate states sit back to back in one buffer of
/// each, so opening a group allocates nothing of its own (a buffer grows
/// now and then). Groups are numbered in the order they opened; unless
/// they arrive in index order, an index finds a group by its key's hash.
#[derive(Clone)]
pub(crate) struct Groups {
    order: GroupOrder,
    /// Group values a group, and aggregate states a group.
    width: usize,
    n_aggs: usize,
    /// Group `g`'s key ends at `key_ends[g]`, where the one before it
    /// ends (`keys[key_ends[g - 1]..key_ends[g]]`, from 0 for the first).
    keys: Vec<u8>,
    key_ends: Vec<usize>,
    values: Vec<Value>,
    states: Vec<AggState>,
    /// With [`GroupOrder::Values`], each group's `put_key16` encoding
    /// of its values, laid out as the keys are.
    sort_keys: Vec<u8>,
    sort_ends: Vec<usize>,
    /// The first group of each key hash, and each group's next one of the
    /// same hash ([`NO_GROUP`] ends a chain); unused with
    /// [`GroupOrder::Opened`].
    index: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    next: Vec<u32>,
}

fn slice_of<'b>(bytes: &'b [u8], ends: &[usize], g: usize) -> &'b [u8] {
    let start = if g == 0 { 0 } else { ends[g - 1] };
    &bytes[start..ends[g]]
}

impl Groups {
    fn new(order: GroupOrder, width: usize, n_aggs: usize) -> Groups {
        Groups {
            order,
            width,
            n_aggs,
            keys: Vec::new(),
            key_ends: Vec::new(),
            values: Vec::new(),
            states: Vec::new(),
            sort_keys: Vec::new(),
            sort_ends: Vec::new(),
            index: HashMap::default(),
            next: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.key_ends.len()
    }

    fn key(&self, g: usize) -> &[u8] {
        slice_of(&self.keys, &self.key_ends, g)
    }

    fn values(&self, g: usize) -> &[Value] {
        &self.values[g * self.width..(g + 1) * self.width]
    }

    fn states(&self, g: usize) -> &[AggState] {
        &self.states[g * self.n_aggs..(g + 1) * self.n_aggs]
    }

    fn states_mut(&mut self, g: usize) -> &mut [AggState] {
        &mut self.states[g * self.n_aggs..(g + 1) * self.n_aggs]
    }

    /// The group keyed `key`, looked for in `last` first: `Ok(g)`, or
    /// `Err` with the hash to index a new group under (`None` in index
    /// order, where a key other than the last group's opens a group).
    fn find(&self, last: Option<usize>, key: &[u8]) -> std::result::Result<usize, Option<u64>> {
        // A group-less aggregation has one group: no key to compare.
        if let Some(g) = last.filter(|&g| self.width == 0 || self.key(g) == key) {
            return Ok(g);
        }
        if self.order == GroupOrder::Opened {
            return Err(None);
        }
        let hash = key_hash(key);
        let mut g = self.index.get(&hash).copied().unwrap_or(NO_GROUP);
        while g != NO_GROUP {
            if self.key(g as usize) == key {
                return Ok(g as usize);
            }
            g = self.next[g as usize];
        }
        Err(Some(hash))
    }

    /// Open a group keyed `key` with the values `values` drains and the
    /// states `states`, indexed under `hash` when given. Returns its
    /// number.
    fn open(
        &mut self,
        key: &[u8],
        hash: Option<u64>,
        values: &mut Vec<Value>,
        states: &[AggState],
    ) -> Result<usize> {
        let g = self.len();
        if self.order == GroupOrder::Values {
            for v in values.iter() {
                put_key16(&mut self.sort_keys, v)?;
            }
            self.sort_ends.push(self.sort_keys.len());
        }
        self.keys.extend_from_slice(key);
        self.key_ends.push(self.keys.len());
        self.values.append(values);
        self.states.extend_from_slice(states);
        let mut next = NO_GROUP;
        if let Some(hash) = hash {
            match self.index.entry(hash) {
                Entry::Occupied(mut first) => next = first.insert(g as u32),
                Entry::Vacant(first) => _ = first.insert(g as u32),
            }
        }
        self.next.push(next);
        Ok(g)
    }

    /// Merge `other`'s groups in, in its order: a group of a key already
    /// here merges its states into that group's, any other opens after
    /// the groups here. In index order a group can only continue the last
    /// one (PQ workers' ranges follow each other).
    fn merge(&mut self, other: Groups) -> Result<()> {
        let mut values = Vec::with_capacity(self.width);
        for g in 0..other.len() {
            let key = other.key(g);
            let last = match self.order {
                GroupOrder::Opened => self.len().checked_sub(1),
                GroupOrder::Key | GroupOrder::Values => None,
            };
            match self.find(last, key) {
                Ok(mine) => {
                    for (m, s) in self.states_mut(mine).iter_mut().zip(other.states(g)) {
                        m.merge(s)?;
                    }
                }
                Err(hash) => {
                    values.extend_from_slice(other.values(g));
                    self.open(key, hash, &mut values, other.states(g))?;
                }
            }
        }
        Ok(())
    }
}

/// A `HashAgg`'s finished groups, finalized into output batches in their
/// output order.
pub(crate) struct FinishedGroups {
    groups: Groups,
    /// The output order, unless it is the order the groups opened in.
    sorted: Option<Vec<u32>>,
    at: usize,
    /// A group's final aggregate values, reused.
    finals: Vec<Value>,
}

impl FinishedGroups {
    /// The next batch of up to `batch_rows` groups, each its group values
    /// then its aggregates' final values; `None` after the last.
    pub(crate) fn next_batch(&mut self, batch_rows: usize) -> Result<Option<RowBatch>> {
        let g = &self.groups;
        if self.at >= g.len() {
            return Ok(None);
        }
        let mut batch = RowBatch::with_capacity(g.width + g.n_aggs, batch_rows);
        while !batch.is_full() && self.at < g.len() {
            let at = match &self.sorted {
                Some(sorted) => sorted[self.at] as usize,
                None => self.at,
            };
            self.finals.clear();
            for state in g.states(at) {
                self.finals.push(state.finalize()?);
            }
            batch.push_row(g.values(at).iter().cloned().chain(self.finals.drain(..)));
            self.at += 1;
        }
        Ok(Some(batch))
    }
}

/// One group expression of a folded scan, before and after it is
/// compiled for a layout: a bare column (an output position, then its
/// position in the layout), keyed on its field image
/// ([`RecordView::group_key`]), or any other expression, keyed on the
/// `put_key16` encoding of its value (SQL equality's, as the image's).
#[derive(Clone)]
enum GroupPart<P> {
    Col(usize),
    Expr(P),
}

/// A folded scan's expressions compiled for one layout its records come
/// in ([`ScanLayout`]): the group parts, and each aggregate's input (a
/// bare column's a one-load program; `None` for COUNT(*)).
#[derive(Clone)]
struct RecordFold {
    group: Vec<GroupPart<CompiledPredicate>>,
    inputs: Vec<Option<CompiledPredicate>>,
}

/// What an accumulator folds: the rows of a pulled input, or the records
/// of the bare scan its `HashAgg` folds.
#[derive(Clone)]
enum AggSource {
    /// The group expressions and the aggregates' inputs over the row.
    Rows {
        group: Vec<RowExpr>,
        inputs: Vec<Option<RowExpr>>,
    },
    /// The group expressions and the aggregates' inputs over the scan's
    /// output columns, lowered when the tree is, and compiled for each
    /// layout the scan's records come in when the scan starts.
    Records {
        group: Vec<GroupPart<IrProgram>>,
        inputs: Vec<Option<IrProgram>>,
        layouts: Vec<RecordFold>,
    },
}

/// Streaming accumulator for grouped aggregation. A `HashAgg` over a
/// pulled input folds its rows ([`HashAggAcc::update`]); one over a bare
/// scan (or a PQ worker's range of it) folds the scan's records, the way
/// a Page Store folds them: its bare group columns key a group on their
/// field images, its other group expressions on their values, its
/// aggregate inputs run as programs over the record's bytes, and no row
/// is decoded (see its [`ScanConsumer`] impl). Either way keys are equal
/// where SQL equality holds (`'x'` is `'x '`, `0.0` is `-0.0`), a group's
/// values are taken when it opens, and it lives in flat arenas
/// ([`Groups`]); the group of the last row or record is looked at first.
/// A folded scan's storage partials merge into the group of the record
/// delivered just before them (their carrier). Groups come out in the
/// order of the `put_key16` encoding of their values, except when the
/// GROUP BY follows the scanned index ([`HashAggNode::index_ordered`]):
/// those arrive, and stay, in index order. It is cloned fresh for each PQ
/// worker.
#[derive(Clone)]
pub(crate) struct HashAggAcc {
    source: AggSource,
    /// The states a new group starts from, typed by the input's types.
    fresh: Vec<AggState>,
    groups: Groups,
    /// The group of the last row or record.
    last: Option<usize>,
    /// The current row's or record's group key, and a new group's values,
    /// reused: a row of an existing group allocates and clones nothing.
    key: Vec<u8>,
    values: Vec<Value>,
}

impl HashAggAcc {
    /// The accumulator of `node`, over the rows its input delivers or the
    /// records of the scan it folds: its expressions compiled (a folded
    /// scan's lowered) and its states typed by the input's column types
    /// (a folded scan's are its table's), nothing accumulated.
    pub(crate) fn new(node: &HashAggNode, db: &TaurusDb) -> Result<HashAggAcc> {
        let input: Vec<DataType> = match node.scan() {
            Some(scan) => {
                let dtypes = db.table(&scan.table)?.schema.dtypes();
                scan.output
                    .iter()
                    .map(|&c| {
                        dtypes.get(c).copied().ok_or_else(|| {
                            Error::Verify(format!("scan output column {c} past its table"))
                        })
                    })
                    .collect::<Result<_>>()?
            }
            None => row_types(&node.input, db)?,
        };
        let source = match node.scan() {
            Some(_) => AggSource::Records {
                group: node
                    .group
                    .iter()
                    .map(|e| match e {
                        Expr::Col(i) => Ok(GroupPart::Col(*i)),
                        e => taurus_expr::compile::lower(e).map(GroupPart::Expr),
                    })
                    .collect::<Result<_>>()?,
                inputs: node
                    .aggs
                    .iter()
                    .map(|a| {
                        a.input
                            .as_ref()
                            .map(taurus_expr::compile::lower)
                            .transpose()
                    })
                    .collect::<Result<_>>()?,
                layouts: Vec::new(),
            },
            None => {
                let compile = |e: &Expr| RowExpr::new(e, &input);
                AggSource::Rows {
                    group: node.group.iter().map(compile).collect::<Result<_>>()?,
                    inputs: node
                        .aggs
                        .iter()
                        .map(|a| a.input.as_ref().map(compile).transpose())
                        .collect::<Result<_>>()?,
                }
            }
        };
        let order = match (node.index_ordered(db), &source) {
            (true, _) => GroupOrder::Opened,
            (false, AggSource::Rows { .. }) => GroupOrder::Key,
            (false, AggSource::Records { .. }) => GroupOrder::Values,
        };
        Ok(HashAggAcc {
            source,
            fresh: node
                .aggs
                .iter()
                .map(|a| {
                    let dtype = a.input.as_ref().map(|e| e.dtype(&input)).transpose()?;
                    Ok(AggState::new(a.func, dtype))
                })
                .collect::<Result<_>>()?,
            groups: Groups::new(order, node.group.len(), node.aggs.len()),
            last: None,
            key: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Fold one row of a pulled input.
    pub(crate) fn update(&mut self, row: &[Value]) -> Result<()> {
        let AggSource::Rows { group, inputs } = &self.source else {
            return Err(Error::Internal(
                "a folded scan's aggregation got a row".into(),
            ));
        };
        self.key.clear();
        for e in group {
            put_key16(&mut self.key, e.value(row)?.as_ref())?;
        }
        let g = match self.groups.find(self.last, &self.key) {
            Ok(g) => g,
            Err(hash) => {
                // A new group: only now are its values taken (an
                // expression's evaluated again, once per group).
                for e in group {
                    self.values.push(e.value(row)?.into_owned());
                }
                self.groups
                    .open(&self.key, hash, &mut self.values, &self.fresh)?
            }
        };
        self.last = Some(g);
        for (st, input) in self.groups.states_mut(g).iter_mut().zip(inputs) {
            fold_input(st, input.as_ref(), row)?;
        }
        Ok(())
    }

    /// Fold one record of the scan, read with layout `layout` of those
    /// the scan announced.
    fn fold_record(&mut self, rec: RecordView<'_>, layout: usize) -> Result<()> {
        let AggSource::Records { layouts, .. } = &self.source else {
            return Err(Error::Internal("a pulled aggregation got a record".into()));
        };
        let fold = layouts
            .get(layout)
            .ok_or_else(|| Error::Internal(format!("record of unannounced layout {layout}")))?;
        self.key.clear();
        for part in &fold.group {
            match part {
                GroupPart::Col(pos) => rec.group_key([*pos], &mut self.key),
                GroupPart::Expr(p) => put_key16(&mut self.key, &p.eval_value(&rec)?)?,
            }
        }
        let g = match self.groups.find(self.last, &self.key) {
            Ok(g) => g,
            Err(hash) => {
                // A new group: its values are decoded now, and only now.
                for part in &fold.group {
                    self.values.push(match part {
                        GroupPart::Col(pos) => rec.value(*pos),
                        GroupPart::Expr(p) => p.eval_value(&rec)?,
                    });
                }
                self.groups
                    .open(&self.key, hash, &mut self.values, &self.fresh)?
            }
        };
        self.last = Some(g);
        for (st, input) in self.groups.states_mut(g).iter_mut().zip(&fold.inputs) {
            match input {
                None => st.update(&Value::Int(1)),
                Some(p) => p.fold_record(&rec, st)?,
            }
        }
        Ok(())
    }

    /// Merge a storage partial into the group of the record delivered
    /// just before it: one state per aggregate, in the plan's order.
    pub(crate) fn merge_partial(&mut self, states: &[AggState]) -> Result<()> {
        let g = self
            .last
            .ok_or_else(|| Error::Internal("partial before carrier row".into()))?;
        let mine = self.groups.states_mut(g);
        if states.len() != mine.len() {
            return Err(Error::Internal(format!(
                "storage sent {} partial states for {} aggregates",
                states.len(),
                mine.len()
            )));
        }
        for (m, s) in mine.iter_mut().zip(states) {
            m.merge(s)?;
        }
        Ok(())
    }

    /// Merge a PQ worker's accumulator, of a later range of the scan,
    /// into this one (the leader's).
    pub(crate) fn merge(&mut self, other: HashAggAcc) -> Result<()> {
        self.groups.merge(other.groups)
    }

    /// The groups, in their output order (deterministic regardless of
    /// hash-map iteration order).
    pub(crate) fn finish(mut self) -> Result<FinishedGroups> {
        if self.groups.len() == 0 && self.groups.width == 0 {
            // Scalar aggregate over an empty input: one all-initial group.
            self.groups.open(&[], None, &mut Vec::new(), &self.fresh)?;
        }
        let g = &self.groups;
        let by = match g.order {
            GroupOrder::Opened => None,
            GroupOrder::Key => Some((&g.keys, &g.key_ends)),
            GroupOrder::Values => Some((&g.sort_keys, &g.sort_ends)),
        };
        let sorted = by.map(|(bytes, ends)| {
            let mut sorted: Vec<u32> = (0..g.len() as u32).collect();
            sorted.sort_unstable_by(|&a, &b| {
                let key = |g: u32| slice_of(bytes, ends, g as usize);
                key(a).cmp(key(b)).then(a.cmp(&b))
            });
            sorted
        });
        Ok(FinishedGroups {
            groups: self.groups,
            sorted,
            at: 0,
            finals: Vec::new(),
        })
    }
}

/// An accumulator is the consumer of the bare scan its `HashAgg` folds
/// (or a PQ worker's range of it): the scan hands it every result
/// record's bytes on the thread that runs the scan, and it compiles its
/// expressions for each layout they come in when the scan starts. The
/// scan hands a carrier record over ahead of the carrier's storage
/// partial, so a partial merges into the group of the last record folded.
impl ScanConsumer for HashAggAcc {
    fn on_row(&mut self, _row: &[Value]) -> Result<bool> {
        Err(Error::Internal("a folded scan delivered a row".into()))
    }

    fn on_partial(&mut self, states: Vec<AggState>) -> Result<bool> {
        self.merge_partial(&states)?;
        Ok(true)
    }

    fn fold_records(&mut self, scan_layouts: &[ScanLayout<'_>]) -> Result<bool> {
        let AggSource::Records {
            group,
            inputs,
            layouts,
        } = &mut self.source
        else {
            return Err(Error::Internal("a pulled aggregation folds no scan".into()));
        };
        *layouts = scan_layouts
            .iter()
            .map(|l| {
                let col_map: Vec<u16> = l.output.iter().map(|&p| p as u16).collect();
                let compile = |ir: &IrProgram| CompiledPredicate::compile(ir, l.layout, &col_map);
                Ok(RecordFold {
                    group: group
                        .iter()
                        .map(|part| match part {
                            GroupPart::Col(i) => {
                                l.output.get(*i).map(|&p| GroupPart::Col(p)).ok_or_else(|| {
                                    Error::Internal(format!(
                                        "group column {i} past the scan output"
                                    ))
                                })
                            }
                            GroupPart::Expr(ir) => compile(ir).map(GroupPart::Expr),
                        })
                        .collect::<Result<_>>()?,
                    inputs: inputs
                        .iter()
                        .map(|ir| ir.as_ref().map(compile).transpose())
                        .collect::<Result<_>>()?,
                })
            })
            .collect::<Result<_>>()?;
        Ok(true)
    }

    fn on_record(&mut self, rec: RecordView<'_>, layout: usize) -> Result<bool> {
        self.fold_record(rec, layout)?;
        Ok(true)
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
    /// The programs of `node`, typed by its outer rows' types and its
    /// table's columns.
    pub(crate) fn new(node: &LookupJoinNode, db: &TaurusDb) -> Result<JoinPrograms> {
        let fetch = node.inner_columns();
        let table = db.table(&node.table)?.schema.dtypes();
        let of_table = |cols: &[usize]| -> Result<Vec<DataType>> {
            cols.iter()
                .map(|&c| {
                    table.get(c).copied().ok_or_else(|| {
                        Error::Verify(format!("inner column {c} past table {}", node.table))
                    })
                })
                .collect()
        };
        let on = match &node.on {
            Some(on) => {
                let mut joined = row_types(&node.outer, db)?;
                joined.extend(of_table(&node.inner_output)?);
                Some(CompiledPredicate::for_rows(on, &joined)?)
            }
            None => None,
        };
        let fetched = of_table(&fetch)?;
        Ok(JoinPrograms {
            on,
            inner: node
                .inner_predicate
                .iter()
                .map(|e| {
                    let e = remap_to_output(e, &fetch, DiagKind::ColumnOutOfRange)?;
                    CompiledPredicate::for_rows(&e, &fetched)
                })
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
    use taurus_optimizer::plan::AggItem;

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

    /// A scan whose residual conjunct reads a column its secondary index
    /// does not store must surface as a typed error, not a panic
    /// (executor threads turning malformed plans into aborts would take
    /// the whole process down). The pre-execution gate rejects it before
    /// any operator opens; the scan core refuses it for callers that come
    /// in below the gate.
    #[test]
    fn malformed_residual_column_is_an_error_not_a_panic() {
        let db = TaurusDb::new(ClusterConfig::small_for_tests());
        let schema = TableSchema::new(
            "u",
            (0..3)
                .map(|i| Column::new(&format!("c{i}"), DataType::BigInt))
                .collect(),
            vec![0],
        );
        let t = db.create_table(schema, &[("i_c1", vec![1])]).unwrap();
        db.bulk_load(&t, (0..20i64).map(|i| vec![Value::Int(i); 3]).collect())
            .unwrap();
        let ctx = ExecContext::new(&db);
        // i_c1 stores (c1, c0); c2 is read only by the residual.
        let node = ScanNode::new("u", vec![1])
            .with_index(1)
            .with_predicate(vec![Expr::gt(Expr::col(2), Expr::int(5))]);
        let err = execute(&Plan::Scan(node.clone()), &ctx).unwrap_err();
        assert!(
            matches!(err, Error::Verify(ref m) if m.contains("PredicateNotStored")),
            "{err:?}"
        );
        struct Discard;
        impl ScanConsumer for Discard {
            fn on_row(&mut self, _: &[Value]) -> Result<bool> {
                Ok(true)
            }
            fn on_partial(&mut self, _: Vec<AggState>) -> Result<bool> {
                Ok(true)
            }
        }
        let err = scan_into(&ctx, &node, None, None, &mut Discard).unwrap_err();
        assert!(
            matches!(err, Error::InvalidState(ref m) if m.contains("not stored in index")),
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
        let (db, _t) = tiny_db();
        // A pulled input, whose rows the test hands over itself.
        let input = Plan::Scan(ScanNode::new("t", vec![0])).project(vec![Expr::col(0); 4]);
        let node = HashAggNode {
            input: Box::new(input),
            group: vec![
                Expr::col(0),
                Expr::col(1),
                Expr::col(2),
                Expr::add(Expr::col(3), Expr::int(1)),
            ],
            aggs: vec![AggItem {
                func: taurus_optimizer::plan::AggFunc::CountStar,
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
        let mut acc = HashAggAcc::new(&node, &db).unwrap();
        for r in &rows {
            acc.update(r).unwrap();
        }
        let mut finished = acc.finish().unwrap();
        let mut got: Vec<Row> = Vec::new();
        while let Some(batch) = finished.next_batch(7).unwrap() {
            got.extend(batch.rows().map(<[Value]>::to_vec));
        }

        let mut want: std::collections::BTreeMap<Vec<u8>, Row> = Default::default();
        for r in &rows {
            let gvals: Row = node
                .group
                .iter()
                .map(|e| taurus_expr::eval::eval(e, r).unwrap())
                .collect();
            let mut key = Vec::new();
            for v in &gvals {
                taurus_common::codec::put_key16(&mut key, v).unwrap();
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

    /// `run` is the query's one panic boundary: a panic in an operator on
    /// the calling thread, or in the sink, comes back as
    /// `Error::Internal`, and by then the scan producers are joined and
    /// every NDP frame and batch read of the cancelled scan is returned.
    #[test]
    fn a_panic_in_the_pipeline_or_the_sink_is_an_internal_error() {
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.page_size = 2048;
        cfg.ndp.prefetch_batches = 2;
        let db = TaurusDb::new(cfg);
        let schema = TableSchema::new(
            "wide",
            vec![
                Column::new("id", DataType::BigInt),
                Column::new("pad", DataType::Varchar(60)),
            ],
            vec![0],
        );
        let t = db.create_table(schema, &[]).unwrap();
        let rows = (0..4000i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("row {i} padded to span pages")),
                ]
            })
            .collect();
        db.bulk_load(&t, rows).unwrap();
        let mut plan = Plan::Scan(
            ScanNode::new("wide", vec![0, 1])
                .with_predicate(vec![Expr::ge(Expr::col(0), Expr::int(0))]),
        );
        taurus_optimizer::ndp_post::ndp_post_process(&mut plan, &db).unwrap();
        plan.for_each_scan(&mut |s, _| assert!(s.ndp.is_some(), "the scan is pushed"));
        for in_sink in [false, true] {
            db.buffer_pool().clear();
            let ctx = ExecContext::new(&db);
            let mut batches = 0;
            crate::op::PANIC_AT_EMIT.with(|p| p.set(!in_sink));
            let err = run(&plan, &ctx, |_| {
                batches += 1;
                if in_sink && batches == 2 {
                    panic!("injected sink panic");
                }
                Ok(true)
            })
            .unwrap_err();
            assert!(
                matches!(&err, Error::Internal(m) if m.contains("injected")),
                "in_sink={in_sink}: {err:?}"
            );
            assert_eq!(db.buffer_pool().ndp_frames_in_use(), 0, "in_sink={in_sink}");
            let at_return = db.metrics().snapshot();
            assert_eq!(at_return.ndp_batches_in_flight, 0, "in_sink={in_sink}");
            // Nothing is left scanning: the counters are final.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let d = db.metrics().snapshot().since(&at_return);
            assert_eq!((d.rows_scanned, d.net_read_requests), (0, 0), "{d:?}");
        }
        // The database serves the plan again, in full.
        let rows = execute(&plan, &ExecContext::new(&db)).unwrap();
        assert_eq!(rows.len(), 4000);
    }

    /// Same contract for a `HashAgg` whose GROUP BY position the scan it
    /// folds does not deliver.
    #[test]
    fn malformed_group_column_is_an_error_not_a_panic() {
        let (db, _t) = tiny_db();
        let ctx = ExecContext::new(&db);
        let plan = Plan::HashAgg(HashAggNode {
            input: Box::new(Plan::Scan(ScanNode::new("t", vec![0, 1]))),
            group: vec![Expr::Col(2)], // past the scan output
            aggs: Vec::new(),
        });
        let err = execute(&plan, &ctx).unwrap_err();
        assert!(
            matches!(err, Error::Verify(ref m) if m.contains("GroupColNotInOutput")),
            "{err:?}"
        );
    }
}
