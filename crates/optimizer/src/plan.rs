//! Query plans.
//!
//! A plan is what the SQL binder (`taurus_sql::bind`) lowers a statement
//! to, or what a hand-built tree (the TPC-H registry, the tests) spells
//! out; join orders are fixed at that point, as the paper describes MySQL
//! choosing them. The §IV-B *NDP post-processing step* then annotates its
//! table accesses with their [`NdpChoice`] without touching plan shape.
//! Aggregation is one node, [`HashAggNode`], wherever it sits: over a bare
//! [`ScanNode`] it is folded during the scan, and only there may its
//! aggregation go to the Page Stores (§V-C).

use taurus_common::{IndexDef, Value};
use taurus_expr::ast::Expr;
use taurus_ndp::{NdpChoice, TaurusDb};

// A plan's aggregates are the ones its scans ask the Page Stores for: AVG
// is a SUM over a COUNT by the time a plan exists (the SQL binder writes
// it so), so every aggregation, in the SQL node or in storage, folds and
// merges the same states.
pub use taurus_expr::agg::AggFunc;
pub use taurus_ndp::AggItem;

/// Key-range endpoints for an index access, as literal key values (a
/// prefix of the index key).
#[derive(Clone, Debug, Default)]
pub struct RangeSpec {
    pub lower: Option<(Vec<Value>, bool)>,
    pub upper: Option<(Vec<Value>, bool)>,
}

impl RangeSpec {
    pub fn full() -> RangeSpec {
        RangeSpec::default()
    }

    pub fn point(key: Vec<Value>) -> RangeSpec {
        RangeSpec {
            lower: Some((key.clone(), true)),
            upper: Some((key, true)),
        }
    }
}

/// One table access. `predicate` holds the *classically pushed-down*
/// conjuncts (§V-B1: "MySQL's query optimizer always pushes down
/// predicates into a table access when possible") — including any
/// conjuncts that the range already encodes. The NDP pass selects a subset
/// of them for storage-side evaluation; the executor evaluates the rest as
/// residuals.
#[derive(Clone, Debug)]
pub struct ScanNode {
    pub table: String,
    /// 0 = primary, i+1 = secondaries[i].
    pub index: usize,
    pub range: RangeSpec,
    /// Conjuncts of the access-level predicate (table columns).
    pub predicate: Vec<Expr>,
    /// Table columns delivered by the scan, in order: what the plan above
    /// reads. A column only `predicate` reads need not be here (residual
    /// conjuncts run on record bytes), but the index must store it.
    pub output: Vec<usize>,
    /// Filled in by NDP post-processing; `None` until then (or when NDP is
    /// not worthwhile). `pushed` lists which `predicate` conjuncts went to
    /// storage.
    pub ndp: Option<NdpDecision>,
}

/// Outcome of the §IV-B post-processing for one table access.
#[derive(Clone, Debug, Default)]
pub struct NdpDecision {
    pub choice: NdpChoice,
    /// Indices into `ScanNode::predicate` that were pushed.
    pub pushed: Vec<usize>,
}

impl ScanNode {
    pub fn new(table: &str, output: Vec<usize>) -> ScanNode {
        ScanNode {
            table: table.to_string(),
            index: 0,
            range: RangeSpec::full(),
            predicate: Vec::new(),
            output,
            ndp: None,
        }
    }

    pub fn with_predicate(mut self, conjuncts: Vec<Expr>) -> ScanNode {
        self.predicate = conjuncts;
        self
    }

    pub fn with_index(mut self, index: usize) -> ScanNode {
        self.index = index;
        self
    }

    pub fn with_range(mut self, range: RangeSpec) -> ScanNode {
        self.range = range;
        self
    }

    /// Conjuncts the executor must still evaluate.
    pub fn residual_conjuncts(&self) -> Vec<&Expr> {
        match &self.ndp {
            None => self.predicate.iter().collect(),
            Some(d) => self
                .predicate
                .iter()
                .enumerate()
                .filter(|(i, _)| !d.pushed.contains(i))
                .map(|(_, e)| e)
                .collect(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinType {
    Inner,
    /// Left rows with no match pass through (right side NULL-padded).
    LeftOuter,
    /// Emit left row iff a match exists.
    Semi,
    /// Emit left row iff no match exists.
    Anti,
}

/// Nested-loop join driven by inner-index lookups (MySQL's NL join; the
/// plan shape of Q4/Q19 in §VII).
#[derive(Clone, Debug)]
pub struct LookupJoinNode {
    pub outer: Box<Plan>,
    pub table: String,
    pub index: usize,
    /// Positions in the outer row forming the inner index key prefix.
    pub outer_key_cols: Vec<usize>,
    /// Extra predicate over (outer row ++ inner row) columns: outer
    /// positions first, then inner `output` positions.
    pub on: Option<Expr>,
    /// Inner table columns appended to matching output rows.
    pub inner_output: Vec<usize>,
    pub join: JoinType,
    /// Inner-side access predicate (inner table columns).
    pub inner_predicate: Vec<Expr>,
    /// Filled in by NDP post-processing when the inner access is worth an
    /// NDP key read: its batched leaf reads then carry this decision's
    /// descriptor and the probe keys, and the matching, projected records
    /// come back instead of whole leaves. `pushed` lists which
    /// `inner_predicate` conjuncts went to storage. `None` = the leaves
    /// are prefetched whole. Only a covering access can have one.
    pub inner_ndp: Option<NdpDecision>,
}

impl LookupJoinNode {
    /// The inner table columns the probe reads: `inner_output` and the
    /// inner predicate's, ascending. The access is covering when the
    /// chosen index stores them all.
    pub fn inner_columns(&self) -> Vec<usize> {
        let mut cols = self.inner_output.clone();
        for p in &self.inner_predicate {
            cols.extend(p.columns());
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Does `index` store every column the probe reads? Otherwise the
    /// probe finds primary keys and fetches whole rows behind them.
    pub fn covered_by(&self, index: &IndexDef) -> bool {
        let stored = index.stored_cols();
        self.inner_columns().iter().all(|c| stored.contains(c))
    }

    /// Inner conjuncts the SQL node must still evaluate on a key read's
    /// records.
    pub fn inner_residual(&self) -> Vec<&Expr> {
        let pushed = self.inner_ndp.as_ref().map(|d| d.pushed.as_slice());
        self.inner_predicate
            .iter()
            .enumerate()
            .filter(|(i, _)| !pushed.is_some_and(|p| p.contains(i)))
            .map(|(_, e)| e)
            .collect()
    }
}

/// Hash join; build side is the right child.
#[derive(Clone, Debug)]
pub struct HashJoinNode {
    pub left: Box<Plan>,
    pub right: Box<Plan>,
    pub left_keys: Vec<usize>,
    pub right_keys: Vec<usize>,
    pub join: JoinType,
    /// Filled in by NDP post-processing when the probe (left) side is an
    /// NDP scan a join filter can thin out: the join then drains its
    /// build side first and opens the probe scan with a filter over the
    /// build keys on every batch read. `None` = both sides open at once,
    /// and storage ships what the probe scan's own predicate lets through.
    pub filter: Option<JoinFilterDecision>,
}

/// A hash join's join-filter decision (see `ndp_post`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinFilterDecision {
    /// The probe scan's table column the join key is.
    pub column: usize,
    /// Its distinct-value count in the table statistics: `k` build keys
    /// go out as a filter only when `k < ndv ×
    /// ndp.predicate_max_filter_factor`.
    pub ndv: u64,
}

/// Hash aggregation; its output row is `group ++ aggs`. Over a bare
/// `Scan` ([`HashAggNode::scan`]) it is folded during the scan, the only
/// shape eligible for NDP aggregation (§V-C: the table must be the last
/// access of its block with no residual predicates). Its groups come out
/// in index order when they are bare columns that deliver a prefix of the
/// scanned index's key ([`HashAggNode::index_ordered`]; no group is one),
/// in encoded-key order otherwise.
#[derive(Clone, Debug)]
pub struct HashAggNode {
    pub input: Box<Plan>,
    /// Group expressions over the input row (empty = scalar).
    pub group: Vec<Expr>,
    /// Aggregates; inputs are expressions over the input row.
    pub aggs: Vec<AggItem>,
}

impl HashAggNode {
    /// The scan this aggregation folds, when its input is a bare `Scan`.
    pub fn scan(&self) -> Option<&ScanNode> {
        match &*self.input {
            Plan::Scan(s) => Some(s),
            _ => None,
        }
    }

    /// The scanned table's columns the groups are, when the input is a bare
    /// `Scan` and every group expression is a column it delivers.
    pub fn group_cols(&self) -> Option<Vec<usize>> {
        let scan = self.scan()?;
        self.group
            .iter()
            .map(|g| match g {
                Expr::Col(p) => scan.output.get(*p).copied(),
                _ => None,
            })
            .collect()
    }

    /// The aggregates over the scanned table's columns (what a Page Store
    /// computes), when the input is a bare `Scan` that delivers every
    /// column they read.
    pub fn table_aggs(&self) -> Option<Vec<AggItem>> {
        let out = &self.scan()?.output;
        let to_table = |e: &Expr| {
            let delivered = e.columns().iter().all(|&p| p < out.len());
            delivered.then(|| e.remap_columns(&|p| out[p]))
        };
        self.aggs
            .iter()
            .map(|a| {
                let input = match &a.input {
                    Some(e) => Some(to_table(e)?),
                    None => None,
                };
                Some(AggItem {
                    func: a.func,
                    input,
                })
            })
            .collect()
    }

    /// Does the GROUP BY follow the scanned index, so that rows arrive
    /// grouped and groups come out in index order?
    pub fn index_ordered(&self, db: &TaurusDb) -> bool {
        let (Some(scan), Some(cols)) = (self.scan(), self.group_cols()) else {
            return false;
        };
        db.table(&scan.table).is_ok_and(|t| {
            t.index(scan.index)
                .tree
                .def
                .effective_key_cols()
                .starts_with(&cols)
        })
    }
}

#[derive(Clone, Debug)]
pub struct ProjectNode {
    pub input: Box<Plan>,
    pub exprs: Vec<Expr>,
}

#[derive(Clone, Debug)]
pub struct FilterNode {
    pub input: Box<Plan>,
    pub predicate: Expr,
}

#[derive(Clone, Debug)]
pub struct SortNode {
    pub input: Box<Plan>,
    /// (position, descending).
    pub keys: Vec<(usize, bool)>,
    pub limit: Option<usize>,
}

/// Parallel query (§VI): run `child` over `degree` partitions of its
/// (outer-most) scan, merging at the leader. Supported children: `Scan`,
/// `HashAgg(Scan)`, `LookupJoin` with a `Scan` outer.
#[derive(Clone, Debug)]
pub struct ExchangeNode {
    pub child: Box<Plan>,
    pub degree: usize,
}

/// A query plan.
#[derive(Clone, Debug)]
pub enum Plan {
    Scan(ScanNode),
    LookupJoin(LookupJoinNode),
    HashJoin(HashJoinNode),
    HashAgg(HashAggNode),
    Project(ProjectNode),
    Filter(FilterNode),
    Sort(SortNode),
    Limit { input: Box<Plan>, n: usize },
    Exchange(ExchangeNode),
}

impl Plan {
    pub fn project(self, exprs: Vec<Expr>) -> Plan {
        Plan::Project(ProjectNode {
            input: Box::new(self),
            exprs,
        })
    }

    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter(FilterNode {
            input: Box::new(self),
            predicate,
        })
    }

    pub fn sort(self, keys: Vec<(usize, bool)>) -> Plan {
        Plan::Sort(SortNode {
            input: Box::new(self),
            keys,
            limit: None,
        })
    }

    pub fn top_n(self, keys: Vec<(usize, bool)>, n: usize) -> Plan {
        Plan::Sort(SortNode {
            input: Box::new(self),
            keys,
            limit: Some(n),
        })
    }

    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            n,
        }
    }

    pub fn exchange(self, degree: usize) -> Plan {
        Plan::Exchange(ExchangeNode {
            child: Box::new(self),
            degree,
        })
    }

    /// Does the plan drop rows of its tables by a predicate: a scan's (or
    /// a lookup join's inner access's) or a `Filter`'s? One that does not
    /// delivers every key its tables hold (a join filter over those drops
    /// nothing).
    pub fn holds_predicate(&self) -> bool {
        match self {
            Plan::Scan(s) => !s.predicate.is_empty(),
            Plan::Filter(_) => true,
            Plan::LookupJoin(j) => !j.inner_predicate.is_empty() || j.outer.holds_predicate(),
            Plan::HashJoin(j) => j.left.holds_predicate() || j.right.holds_predicate(),
            Plan::HashAgg(a) => a.input.holds_predicate(),
            Plan::Project(p) => p.input.holds_predicate(),
            Plan::Sort(s) => s.input.holds_predicate(),
            Plan::Limit { input, .. } => input.holds_predicate(),
            Plan::Exchange(e) => e.child.holds_predicate(),
        }
    }

    // The static output width of a plan lives in the verifier
    // (`taurus_verify::plan_width`), derived from the same structural
    // walk as the full schema inference — one definition, not two.

    /// Visit every scan node mutably (the NDP pass and tests use this),
    /// with whether the `HashAgg` directly above folds it.
    pub fn for_each_scan_mut(&mut self, f: &mut impl FnMut(&mut ScanNode, bool)) {
        match self {
            Plan::Scan(s) => f(s, false),
            Plan::HashAgg(a) => match &mut *a.input {
                Plan::Scan(s) => f(s, true),
                input => input.for_each_scan_mut(f),
            },
            Plan::LookupJoin(j) => j.outer.for_each_scan_mut(f),
            Plan::HashJoin(j) => {
                j.left.for_each_scan_mut(f);
                j.right.for_each_scan_mut(f);
            }
            Plan::Project(p) => p.input.for_each_scan_mut(f),
            Plan::Filter(p) => p.input.for_each_scan_mut(f),
            Plan::Sort(s) => s.input.for_each_scan_mut(f),
            Plan::Limit { input, .. } => input.for_each_scan_mut(f),
            Plan::Exchange(e) => e.child.for_each_scan_mut(f),
        }
    }

    /// Visit every scan node immutably, with whether the `HashAgg`
    /// directly above folds it.
    pub fn for_each_scan(&self, f: &mut impl FnMut(&ScanNode, bool)) {
        match self {
            Plan::Scan(s) => f(s, false),
            Plan::HashAgg(a) => match &*a.input {
                Plan::Scan(s) => f(s, true),
                input => input.for_each_scan(f),
            },
            Plan::LookupJoin(j) => j.outer.for_each_scan(f),
            Plan::HashJoin(j) => {
                j.left.for_each_scan(f);
                j.right.for_each_scan(f);
            }
            Plan::Project(p) => p.input.for_each_scan(f),
            Plan::Filter(p) => p.input.for_each_scan(f),
            Plan::Sort(s) => s.input.for_each_scan(f),
            Plan::Limit { input, .. } => input.for_each_scan(f),
            Plan::Exchange(e) => e.child.for_each_scan(f),
        }
    }
}
