//! Join operators.
//!
//! [`HashJoinOp`] is a half-breaker: the build (right) side drains fully
//! into the hash table on the first pull, the probe (left) side then
//! streams — a `LIMIT` above stops the probe scan early, and only the
//! build side is ever materialized. Both sides open with the join, unless
//! the optimizer gave it a join filter (`HashJoinNode::filter`): then the
//! probe scan opens only once the build is drained, with a Bloom filter
//! over the build keys for its batch reads ([`taurus_ndp::JoinFilter`]),
//! so the Page Stores keep home the records no build key matches — or
//! does not open at all when the build has no key. Whatever storage lets
//! through (false positives, ambiguous records, raw pages) the probe
//! decides as always. The other way round, a probe side that hands up its
//! first row only once it has read all its input (an aggregation or a
//! sort, under row-wise filters: Q18's derived table) is read before the
//! build opens; when it has no row, no row can come out whatever the join
//! type, and the build side, with the storage reads behind it, never
//! starts.
//!
//! The build allocates per input batch, never per row: its rows move into
//! one flat [`RowBatch`], and a [`BuildIndex`] chains each key's rows in
//! build order, so the output is in probe order, then build order.
//!
//! [`LookupJoinOp`] streams its outer side and looks each outer row up in
//! the inner index through the [`LookupProbe`] machinery, so it never
//! materializes anything beyond the current output batch; a PQ worker
//! runs it over its range of the outer scan. The lookups are batched key
//! access: each outer batch's probe keys are resolved to leaf pages ahead
//! of the probes and the missing leaves fetched a chunk to a storage
//! request, not one request per page; with an NDP decision on the inner
//! side the request carries a descriptor and the probe keys, and the
//! matching records come back instead of the leaves. See [`LookupProbe`].
//!
//! Both emit at their input's batch boundaries, or earlier when the
//! output batch is full ([`InputCursor`] keeps the place, the hash join
//! the next match of its chain, the lookup join the rows that did not
//! fit): what they hand up is bounded by the batch capacity however wide
//! the joined rows and however large the match fan-out.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use taurus_common::codec::put_key16;
use taurus_common::keymap::KeyHasher;
use taurus_common::{Error, KeyMap, Result, RowBatch, Value};
use taurus_ndp::JoinFilter;
use taurus_optimizer::plan::{HashJoinNode, JoinFilterDecision, JoinType, LookupJoinNode, Plan};

use super::{check_deadline, emit_or_end, BoxOp, InputCursor, Operator};
use crate::exec::{ExecContext, JoinPrograms, LookupProbe};

/// Encode `row`'s join key (the values at `cols`) into `key`, reusing its
/// allocation. `false` when a key value is NULL: such a row matches
/// nothing and is never entered into the table. A string past the key
/// encoding's `u16` length is a typed error.
fn join_key(row: &[Value], cols: &[usize], key: &mut Vec<u8>) -> Result<bool> {
    key.clear();
    for &p in cols {
        if row[p].is_null() {
            return Ok(false);
        }
        put_key16(key, &row[p])?;
    }
    Ok(true)
}

/// A key's build rows: the first and the last of its chain (ends: `END`).
type Chain = (u32, u32);
const END: u32 = u32::MAX;

/// The build rows by join key. Two keys are equal exactly when their
/// [`join_key`] encodings are, which is where SQL equality holds (`'x'`
/// matches `'x '`, as a lookup join's index key does): NULL matches
/// nothing, and an `Int` equals no value of another type (the encoding's
/// tag differs).
enum BuildIndex {
    /// One key column of `Int`s and NULLs, by the integer (no encoding).
    Int(HashMap<i64, Chain, BuildHasherDefault<KeyHasher>>),
    /// Any other key, by its encoding.
    Encoded(KeyMap<Chain>),
}

impl BuildIndex {
    /// Index `rows` by their key at `cols`, chaining each key's rows in
    /// build order through `next` (one entry a row).
    fn build(rows: &RowBatch, cols: &[usize], next: &mut [u32]) -> Result<BuildIndex> {
        let link = |next: &mut [u32], chain: &mut Chain, i: u32| {
            next[chain.1 as usize] = i;
            chain.1 = i;
        };
        if let [c] = *cols {
            if rows
                .rows()
                .all(|r| matches!(r[c], Value::Int(_) | Value::Null))
            {
                let mut ints = HashMap::with_capacity_and_hasher(rows.len(), Default::default());
                for (r, i) in rows.rows().zip(0u32..) {
                    if let Value::Int(k) = r[c] {
                        ints.entry(k)
                            .and_modify(|chain| link(next, chain, i))
                            .or_insert((i, i));
                    }
                }
                return Ok(BuildIndex::Int(ints));
            }
        }
        let mut map = KeyMap::with_capacity_and_hasher(rows.len(), Default::default());
        let mut key = Vec::new();
        for (r, i) in rows.rows().zip(0u32..) {
            if !join_key(r, cols, &mut key)? {
                continue;
            }
            // Only a key seen for the first time is copied into the index.
            match map.get_mut(key.as_slice()) {
                Some(chain) => link(next, chain, i),
                None => _ = map.insert(key.clone(), (i, i)),
            }
        }
        Ok(BuildIndex::Encoded(map))
    }

    /// The first build row whose key equals the key of probe row `row`
    /// at `cols`, or [`END`].
    fn first(&self, row: &[Value], cols: &[usize], key: &mut Vec<u8>) -> Result<u32> {
        let chain = match self {
            BuildIndex::Int(ints) => match row[cols[0]] {
                Value::Int(k) => ints.get(&k),
                _ => None,
            },
            BuildIndex::Encoded(map) => match join_key(row, cols, key)? {
                true => map.get(key.as_slice()),
                false => None,
            },
        };
        Ok(chain.map_or(END, |c| c.0))
    }
}

/// Push probe row `l` joined with the build rows from `i` on along `next`
/// until `out` is full: where the chain stopped ([`END`]: at its end).
fn push_matches(out: &mut RowBatch, l: &[Value], rows: &RowBatch, next: &[u32], mut i: u32) -> u32 {
    while i != END && !out.is_full() {
        out.push_row(l.iter().chain(rows.row(i as usize)).cloned());
        i = next[i as usize];
    }
    i
}

pub(crate) struct HashJoinOp<'r, 'env> {
    ctx: &'env ExecContext<'env>,
    node: &'env HashJoinNode,
    left: InputCursor<'r>,
    right: Option<BoxOp<'r>>,
    /// The build rows, `right_width` values each, in build order; the
    /// index over them, and each row's successor in its key's chain.
    rows: RowBatch,
    index: BuildIndex,
    next: Vec<u32>,
    /// The current probe row's next match to emit ([`END`]: none): a full
    /// output batch stops the chain, and the next pull resumes it.
    pending: u32,
    left_width: usize,
    right_width: usize,
    built: bool,
    /// The current row's encoded join key (reused across rows).
    key: Vec<u8>,
    /// The node's join-filter decision: the probe side opens once the
    /// build is drained.
    filter: Option<&'env JoinFilterDecision>,
    /// The probe side drains its input before its first row: it is read
    /// first, and the build opens only if it has a row.
    probe_first: bool,
}

/// Does `plan` hand up its first row only once its whole input is read: a
/// breaker at its root, under row-wise filters and projections?
fn drains_first(plan: &Plan) -> bool {
    match plan {
        Plan::Filter(f) => drains_first(&f.input),
        Plan::Project(p) => drains_first(&p.input),
        Plan::HashAgg(_) | Plan::Sort(_) => true,
        _ => false,
    }
}

impl<'r, 'env> HashJoinOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env HashJoinNode,
        left: BoxOp<'r>,
        right: BoxOp<'r>,
    ) -> HashJoinOp<'r, 'env> {
        // The static plan widths, not a first row's: an empty build side
        // must still NULL-pad LEFT OUTER output to the full right width
        // (the legacy executor got this wrong and emitted unpadded rows,
        // which blew up downstream operators indexing past them).
        let right_width = taurus_verify::plan_width(&node.right);
        HashJoinOp {
            // `check_plan` has rejected a decision on an outer or anti
            // join, or on more than one key, before any operator exists.
            filter: node.filter.as_ref(),
            probe_first: node.filter.is_none() && drains_first(&node.left),
            ctx,
            node,
            left: InputCursor::new(left),
            right: Some(right),
            rows: RowBatch::with_capacity(right_width, 1),
            index: BuildIndex::Encoded(KeyMap::default()),
            next: Vec::new(),
            pending: END,
            left_width: taurus_verify::plan_width(&node.left),
            right_width,
            built: false,
            key: Vec::new(),
        }
    }

    /// Drain the build side into the arena and index it (first pull
    /// only). A probe side read first that has no row leaves it unopened.
    fn build_side(&mut self) -> Result<()> {
        if self.built {
            return Ok(());
        }
        if self.probe_first {
            if !self.left.has_row()? {
                self.right = None;
                self.built = true;
                return Ok(());
            }
            if let Some(right) = &mut self.right {
                right.open()?;
            }
        }
        if let Some(right) = &mut self.right {
            while let Some(mut b) = right.next_batch()? {
                check_deadline(self.ctx, "hash join build")?;
                self.rows.append(&mut b);
            }
        }
        if let Some(mut r) = self.right.take() {
            r.close();
        }
        let n = u32::try_from(self.rows.len())
            .map_err(|_| Error::InvalidState("a hash join build past 2^32 rows".into()))?;
        self.next = vec![END; n as usize];
        self.index = BuildIndex::build(&self.rows, &self.node.right_keys, &mut self.next)?;
        self.built = true;
        match self.filter {
            Some(d) => self.open_probe(d),
            None => Ok(()),
        }
    }

    /// Open the probe side of a join with a join-filter decision, the
    /// build drained. With `k` distinct integer build keys (only those can
    /// equal an integer probe key): none, and no probe row can match, so
    /// the probe never starts; fewer than the probe column's distinct
    /// values times `ndp.predicate_max_filter_factor` (the paper's
    /// filter-factor test, `k / ndv` the fraction estimated to survive),
    /// and the probe scan sends a filter over them; otherwise it opens
    /// unfiltered.
    fn open_probe(&mut self, d: &JoinFilterDecision) -> Result<()> {
        let Some(&rk) = self.node.right_keys.first() else {
            return self.left.open();
        };
        // The index's keys, or the integers among a column's other values.
        let mut keys: Vec<i64> = match &self.index {
            BuildIndex::Int(ints) => ints.keys().copied().collect(),
            BuildIndex::Encoded(_) => self
                .rows
                .rows()
                .filter_map(|r| match r[rk] {
                    Value::Int(k) => Some(k),
                    _ => None,
                })
                .collect(),
        };
        keys.sort_unstable();
        keys.dedup();
        if keys.is_empty() {
            self.left.close();
            return Ok(());
        }
        let max_filter_factor = self.ctx.db.config().ndp.predicate_max_filter_factor;
        if (keys.len() as f64) < d.ndv as f64 * max_filter_factor {
            self.left.open_filtered(JoinFilter::new(d.column, &keys))
        } else {
            self.left.open()
        }
    }
}

impl Operator for HashJoinOp<'_, '_> {
    fn name(&self) -> &'static str {
        "HashJoin"
    }

    fn open(&mut self) -> Result<()> {
        // With a join filter the probe waits for the build (`open_probe`);
        // a probe read first has the build wait for it (`build_side`);
        // otherwise both open now, beside the other joins' builds.
        if self.filter.is_none() {
            self.left.open()?;
        }
        if let (false, Some(r)) = (self.probe_first, &mut self.right) {
            r.open()?;
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        self.build_side()?;
        check_deadline(self.ctx, "hash join probe")?;
        let out_width = match self.node.join {
            JoinType::Inner | JoinType::LeftOuter => self.left_width + self.right_width,
            JoinType::Semi | JoinType::Anti => self.left_width,
        };
        let batch_rows = self.ctx.db.config().scan_batch_rows;
        let mut out = RowBatch::with_capacity(out_width, batch_rows);
        if self.pending != END {
            let l = self
                .left
                .current()
                .ok_or_else(|| Error::Internal("hash join lost its probe row".into()))?;
            self.pending = push_matches(&mut out, l, &self.rows, &self.next, self.pending);
        }
        while self.pending == END && !out.is_full() {
            let Some(l) = self.left.next_row(out.is_empty())? else {
                break;
            };
            let first = self.index.first(l, &self.node.left_keys, &mut self.key)?;
            match self.node.join {
                JoinType::Inner | JoinType::LeftOuter if first != END => {
                    self.pending = push_matches(&mut out, l, &self.rows, &self.next, first);
                }
                JoinType::LeftOuter => out.push_row(
                    l.iter()
                        .cloned()
                        .chain(std::iter::repeat_n(Value::Null, self.right_width)),
                ),
                JoinType::Semi if first != END => out.push_row(l.iter().cloned()),
                JoinType::Anti if first == END => out.push_row(l.iter().cloned()),
                JoinType::Inner | JoinType::Semi | JoinType::Anti => {}
            }
        }
        Ok(emit_or_end(self.ctx.db, out))
    }

    fn close(&mut self) {
        self.left.close();
        if let Some(mut r) = self.right.take() {
            r.close();
        }
        self.rows = RowBatch::with_capacity(self.right_width, 1);
        self.index = BuildIndex::Encoded(KeyMap::default());
        self.next = Vec::new();
    }
}

/// Nested-loop join driven by inner-index point lookups, streaming the
/// outer side.
pub(crate) struct LookupJoinOp<'r, 'env> {
    ctx: &'env ExecContext<'env>,
    node: &'env LookupJoinNode,
    outer: InputCursor<'r>,
    /// The join's compiled expressions, handed to the probe on open.
    programs: Option<JoinPrograms>,
    probe: Option<LookupProbe<'env>>,
    /// Output rows (of the join's width) of the last outer row probed that
    /// did not fit in the batch it filled: the next batch starts with
    /// them, from `held_at`.
    held: RowBatch,
    held_at: usize,
}

impl<'r, 'env> LookupJoinOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env LookupJoinNode,
        programs: JoinPrograms,
        outer: BoxOp<'r>,
    ) -> LookupJoinOp<'r, 'env> {
        let outer_width = taurus_verify::plan_width(&node.outer);
        let out_width = match node.join {
            JoinType::Inner | JoinType::LeftOuter => outer_width + node.inner_output.len(),
            JoinType::Semi | JoinType::Anti => outer_width,
        };
        LookupJoinOp {
            ctx,
            node,
            outer: InputCursor::new(outer),
            programs: Some(programs),
            probe: None,
            held: RowBatch::with_capacity(out_width, 1),
            held_at: 0,
        }
    }
}

impl Operator for LookupJoinOp<'_, '_> {
    fn name(&self) -> &'static str {
        "LookupJoin"
    }

    fn open(&mut self) -> Result<()> {
        let programs = self
            .programs
            .take()
            .ok_or_else(|| taurus_common::Error::Internal("LookupJoin opened twice".into()))?;
        self.probe = Some(LookupProbe::new(self.node, programs, self.ctx)?);
        self.outer.open()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let probe = self
            .probe
            .as_mut()
            .ok_or_else(|| taurus_common::Error::Internal("LookupJoin not opened".into()))?;
        let batch_rows = self.ctx.db.config().scan_batch_rows;
        let mut out = RowBatch::with_capacity(self.held.width(), batch_rows);
        while self.held_at < self.held.len() && !out.is_full() {
            out.push_row(self.held.row(self.held_at).iter().cloned());
            self.held_at += 1;
        }
        if self.held_at == self.held.len() {
            self.held.clear();
            self.held_at = 0;
        }
        let held = &mut self.held;
        while held.is_empty() && !out.is_full() {
            let Some((batch, i)) = self.outer.next_in_batch(out.is_empty())? else {
                break;
            };
            if i == 0 {
                probe.begin(batch.rows());
            }
            probe.probe(self.ctx, i, batch.row(i), &mut |row| match out.is_full() {
                true => held.push_row(row.iter().cloned()),
                false => out.push_row(row.iter().cloned()),
            })?;
        }
        Ok(emit_or_end(self.ctx.db, out))
    }

    fn close(&mut self) {
        self.outer.close();
        self.probe = None;
        self.held.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::{Arc, OnceLock};

    use proptest::prelude::*;
    use taurus_common::schema::Row;
    use taurus_common::{ClusterConfig, Dec, Error};
    use taurus_ndp::TaurusDb;
    use taurus_optimizer::plan::ScanNode;

    /// An operator that hands up the batches it was given.
    struct Batches(VecDeque<RowBatch>);

    impl Operator for Batches {
        fn name(&self) -> &'static str {
            "Batches"
        }

        fn open(&mut self) -> Result<()> {
            Ok(())
        }

        fn next_batch(&mut self) -> Result<Option<RowBatch>> {
            Ok(self.0.pop_front())
        }

        fn close(&mut self) {}
    }

    fn batches(rows: &[Row], size: usize) -> Box<Batches> {
        Box::new(Batches(
            rows.chunks(size)
                .map(|c| {
                    let mut b = RowBatch::with_capacity(3, size);
                    c.iter().for_each(|r| b.push_row(r.iter().cloned()));
                    b
                })
                .collect(),
        ))
    }

    /// A cluster per output batch size (1, 7, 1024), made once.
    fn dbs() -> &'static [Arc<TaurusDb>] {
        static DBS: OnceLock<Vec<Arc<TaurusDb>>> = OnceLock::new();
        DBS.get_or_init(|| {
            [1, 7, 1024]
                .map(|rows| {
                    let mut cfg = ClusterConfig::small_for_tests();
                    cfg.scan_batch_rows = rows;
                    TaurusDb::new(cfg)
                })
                .into()
        })
    }

    /// A key cell: 0-3 an integer, 4 NULL, 5 the decimal 1.00, which
    /// equals no integer.
    fn cell(code: i64) -> Value {
        match code {
            0..=3 => Value::Int(code),
            4 => Value::Null,
            _ => Value::Decimal(Dec::new(100, 2)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The hash join is a nested loop whose key equality is
        /// `join_key`'s: rows of two key columns (`[k1, k2, seq]` on both
        /// sides), joined on `k1` alone with an all-integer build column
        /// (the `i64` index, probed with decimals too), on `k1` alone with
        /// a build column mixing integers and a decimal, or on both
        /// columns (the encoded index). Duplicate keys, NULL keys, empty
        /// sides and a build spread over input batches; every join type,
        /// at output batches of 1, 7 and 1024 rows. The rows come out in
        /// probe order, then build order, and no batch exceeds its
        /// capacity.
        #[test]
        fn hash_join_is_a_nested_loop_over_encoded_keys(
            mode in 0u8..3,
            build in proptest::collection::vec((0i64..6, 0i64..6), 0..40),
            probe in proptest::collection::vec((0i64..6, 0i64..6), 0..40),
            build_chunk in 1usize..9,
            probe_chunk in 1usize..9,
        ) {
            let row = |seq: usize, &(a, b): &(i64, i64)| vec![cell(a), cell(b), Value::Int(seq as i64)];
            // Mode 0's build keys are integers or NULL.
            let right: Vec<Row> = build
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| row(i, &(if mode == 0 { a % 5 } else { a }, b)))
                .collect();
            let left: Vec<Row> = probe.iter().enumerate().map(|(i, k)| row(i, k)).collect();
            let keys = if mode == 2 { vec![0, 1] } else { vec![0] };
            let enc = |r: &Row| {
                let mut key = Vec::new();
                join_key(r, &keys, &mut key).unwrap().then_some(key)
            };
            for join in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
                let mut want: Vec<Row> = Vec::new();
                for l in &left {
                    let k = enc(l);
                    let ms: Vec<&Row> = right.iter().filter(|r| k.is_some() && enc(r) == k).collect();
                    match join {
                        JoinType::Inner | JoinType::LeftOuter => {
                            want.extend(ms.iter().map(|m| [l.as_slice(), m.as_slice()].concat()));
                            if ms.is_empty() && join == JoinType::LeftOuter {
                                want.push([l.as_slice(), &[Value::Null, Value::Null, Value::Null][..]].concat());
                            }
                        }
                        JoinType::Semi if !ms.is_empty() => want.push(l.clone()),
                        JoinType::Anti if ms.is_empty() => want.push(l.clone()),
                        JoinType::Semi | JoinType::Anti => {}
                    }
                }
                let scan = || Box::new(Plan::Scan(ScanNode::new("t", vec![0, 1, 2])));
                let node = HashJoinNode {
                    left: scan(),
                    right: scan(),
                    left_keys: keys.clone(),
                    right_keys: keys.clone(),
                    join,
                    filter: None,
                };
                for db in dbs() {
                    let ctx = ExecContext::new(db);
                    let mut op = HashJoinOp::new(
                        &ctx,
                        &node,
                        batches(&left, probe_chunk),
                        batches(&right, build_chunk),
                    );
                    op.open().unwrap();
                    let mut got: Vec<Row> = Vec::new();
                    let batch_rows = db.config().scan_batch_rows;
                    while let Some(b) = op.next_batch().unwrap() {
                        prop_assert!(!b.is_empty() && b.len() <= batch_rows, "{} rows", b.len());
                        got.extend(b.to_rows());
                    }
                    op.close();
                    prop_assert_eq!(&got, &want, "{:?} at batch {}", join, batch_rows);
                }
            }
        }
    }

    /// A key string past the key encoding's `u16` length is a typed
    /// error, not a wrapped length that collides with another key; a
    /// NULL key matches nothing.
    #[test]
    fn join_keys_fail_closed_past_their_width() {
        let mut key = Vec::new();
        let long = [Value::str("k".repeat(70_000))];
        let err = join_key(&long, &[0], &mut key).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "{err}");
        assert!(!join_key(&[Value::Null], &[0], &mut key).unwrap());
        assert!(join_key(&[Value::str("abc")], &[0], &mut key).unwrap());
        assert_eq!(key, [4, 3, 0, b'a', b'b', b'c']);
    }
}
