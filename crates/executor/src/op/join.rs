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
//! decides as always.
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
//! output batch is full ([`InputCursor`] keeps the place): what they hand
//! up is bounded by the batch capacity however wide the joined rows and
//! however large the match fan-out.

use taurus_common::schema::Row;
use taurus_common::{KeyMap, Result, RowBatch, Value};
use taurus_expr::ir::encode_value;
use taurus_ndp::JoinFilter;
use taurus_optimizer::plan::{HashJoinNode, JoinFilterDecision, JoinType, LookupJoinNode};

use super::{emit_or_end, BoxOp, InputCursor, Operator};
use crate::exec::{ExecContext, JoinPrograms, LookupProbe};

/// Encode `row`'s join key (the values at `cols`) into `key`, reusing its
/// allocation. `false` when a key value is NULL: such a row matches
/// nothing and is never entered into the table.
fn join_key(row: &[Value], cols: &[usize], key: &mut Vec<u8>) -> bool {
    key.clear();
    for &p in cols {
        if row[p].is_null() {
            return false;
        }
        encode_value(&row[p], key);
    }
    true
}

pub(crate) struct HashJoinOp<'r, 'env> {
    ctx: &'env ExecContext<'env>,
    node: &'env HashJoinNode,
    left: InputCursor<'r>,
    right: Option<BoxOp<'r>>,
    build: KeyMap<Vec<usize>>,
    right_rows: Vec<Row>,
    left_width: usize,
    right_width: usize,
    built: bool,
    /// The current row's encoded join key (reused across rows).
    key: Vec<u8>,
    /// The node's join-filter decision: the probe side opens once the
    /// build is drained.
    filter: Option<&'env JoinFilterDecision>,
}

impl<'r, 'env> HashJoinOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env HashJoinNode,
        left: BoxOp<'r>,
        right: BoxOp<'r>,
    ) -> HashJoinOp<'r, 'env> {
        HashJoinOp {
            // `check_plan` has rejected a decision on an outer or anti
            // join, or on more than one key, before any operator exists.
            filter: node.filter.as_ref(),
            ctx,
            node,
            left: InputCursor::new(left),
            right: Some(right),
            build: KeyMap::default(),
            right_rows: Vec::new(),
            // The static plan widths, not a first row's: an empty build
            // side must still NULL-pad LEFT OUTER output to the full right
            // width (the legacy executor got this wrong and emitted
            // unpadded rows, which blew up downstream operators indexing
            // past them).
            left_width: taurus_verify::plan_width(&node.left),
            right_width: taurus_verify::plan_width(&node.right),
            built: false,
            key: Vec::new(),
        }
    }

    /// Drain the build side into the hash table (first pull only).
    fn build_side(&mut self) -> Result<()> {
        if self.built {
            return Ok(());
        }
        if let Some(right) = &mut self.right {
            while let Some(mut b) = right.next_batch()? {
                self.right_rows.reserve(b.len());
                self.right_rows.extend(b.drain_rows());
            }
        }
        if let Some(mut r) = self.right.take() {
            r.close();
        }
        for (i, r) in self.right_rows.iter().enumerate() {
            if !join_key(r, &self.node.right_keys, &mut self.key) {
                continue;
            }
            // Only a key seen for the first time is copied into the table.
            match self.build.get_mut(self.key.as_slice()) {
                Some(rows) => rows.push(i),
                None => {
                    self.build.insert(self.key.clone(), vec![i]);
                }
            }
        }
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
        let mut keys: Vec<i64> = self
            .right_rows
            .iter()
            .filter_map(|r| match r.get(rk) {
                Some(Value::Int(k)) => Some(*k),
                _ => None,
            })
            .collect();
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
        // the build opens now either way, beside the other joins' builds.
        if self.filter.is_none() {
            self.left.open()?;
        }
        if let Some(r) = &mut self.right {
            r.open()?;
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        self.build_side()?;
        let out_width = match self.node.join {
            JoinType::Inner | JoinType::LeftOuter => self.left_width + self.right_width,
            JoinType::Semi | JoinType::Anti => self.left_width,
        };
        let batch_rows = self.ctx.db.config().scan_batch_rows;
        let mut out = RowBatch::with_capacity(out_width, batch_rows);
        while !out.is_full() {
            let Some(l) = self.left.next_row(out.is_empty())? else {
                break;
            };
            let matches = if join_key(l, &self.node.left_keys, &mut self.key) {
                self.build.get(self.key.as_slice())
            } else {
                None
            };
            let matched = matches.is_some_and(|m| !m.is_empty());
            match self.node.join {
                JoinType::Inner | JoinType::LeftOuter if matched => {
                    for &i in matches.into_iter().flatten() {
                        out.push_row(l.iter().cloned().chain(self.right_rows[i].iter().cloned()));
                    }
                }
                JoinType::LeftOuter => out.push_row(
                    l.iter()
                        .cloned()
                        .chain(std::iter::repeat_n(Value::Null, self.right_width)),
                ),
                JoinType::Semi if matched => out.push_row(l.iter().cloned()),
                JoinType::Anti if !matched => out.push_row(l.iter().cloned()),
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
        self.build.clear();
        self.right_rows.clear();
    }
}

/// Nested-loop join driven by inner-index point lookups, streaming the
/// outer side.
pub(crate) struct LookupJoinOp<'r, 'env> {
    ctx: &'env ExecContext<'env>,
    node: &'env LookupJoinNode,
    outer: InputCursor<'r>,
    outer_width: usize,
    /// The join's compiled expressions, handed to the probe on open.
    programs: Option<JoinPrograms>,
    probe: Option<LookupProbe<'env>>,
}

impl<'r, 'env> LookupJoinOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env LookupJoinNode,
        programs: JoinPrograms,
        outer: BoxOp<'r>,
    ) -> LookupJoinOp<'r, 'env> {
        LookupJoinOp {
            ctx,
            node,
            outer: InputCursor::new(outer),
            outer_width: taurus_verify::plan_width(&node.outer),
            programs: Some(programs),
            probe: None,
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
        let out_width = match self.node.join {
            JoinType::Inner | JoinType::LeftOuter => {
                self.outer_width + self.node.inner_output.len()
            }
            JoinType::Semi | JoinType::Anti => self.outer_width,
        };
        let batch_rows = self.ctx.db.config().scan_batch_rows;
        let mut out = RowBatch::with_capacity(out_width, batch_rows);
        while !out.is_full() {
            let Some((batch, i)) = self.outer.next_in_batch(out.is_empty())? else {
                break;
            };
            if i == 0 {
                probe.begin(batch.rows());
            }
            probe.probe(self.ctx, i, batch.row(i), &mut |row| {
                out.push_row(row.iter().cloned())
            })?;
        }
        Ok(emit_or_end(self.ctx.db, out))
    }

    fn close(&mut self) {
        self.outer.close();
        self.probe = None;
    }
}
