//! Sort / TopN: the canonical pipeline breaker. The input drains fully
//! on the first pull, and the sorted run re-emits in batches. Sort holds
//! every input row and stable-sorts them (the same comparator the Volcano
//! executor always used); TopN holds at most `2 × limit` rows and the
//! batch being drained ([`TopN`]), so `order by ... limit n` over a big
//! input costs O(n) rows of memory, with the same rows in the same order.

use std::cmp::Ordering;

use taurus_common::schema::Row;
use taurus_common::{Result, RowBatch};
use taurus_optimizer::plan::SortNode;

use super::{check_deadline, BatchEmitter, BoxOp, Operator};
use crate::exec::ExecContext;

/// The sort order of `keys`: (position, descending) pairs, earlier keys
/// first.
fn cmp_rows(keys: &[(usize, bool)], a: &Row, b: &Row) -> Ordering {
    for (pos, desc) in keys {
        let ord = a[*pos].cmp_total(&b[*pos]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// The rows a TopN keeps while its input drains: whenever `2 × limit` of
/// them are held, a stable sort by `keys` and a truncate to `limit`. Rows
/// are held in arrival order, so equal keys stay in it. A row a
/// compaction drops has `limit` rows ahead of it by (keys, arrival), and
/// those stay ahead of it to the end: the rows [`TopN::finish`] returns
/// are a full stable sort's first `limit`.
pub(crate) struct TopN<'k> {
    keys: &'k [(usize, bool)],
    limit: usize,
    rows: Vec<Row>,
    /// The most rows held at once.
    peak: usize,
}

impl<'k> TopN<'k> {
    pub(crate) fn new(keys: &'k [(usize, bool)], limit: usize) -> TopN<'k> {
        TopN {
            keys,
            limit,
            rows: Vec::new(),
            peak: 0,
        }
    }

    /// Take in the rows of one input batch.
    pub(crate) fn push(&mut self, rows: impl Iterator<Item = Row>) {
        self.rows.extend(rows);
        self.peak = self.peak.max(self.rows.len());
        if self.rows.len() >= 2 * self.limit {
            self.compact();
        }
    }

    fn compact(&mut self) {
        if self.limit > 0 {
            let keys = self.keys;
            self.rows.sort_by(|a, b| cmp_rows(keys, a, b));
        }
        self.rows.truncate(self.limit);
    }

    /// The first `limit` rows in sort order.
    pub(crate) fn finish(mut self) -> Vec<Row> {
        self.compact();
        self.rows
    }
}

pub(crate) struct SortOp<'r, 'env> {
    ctx: &'env ExecContext<'env>,
    node: &'env SortNode,
    child: Option<BoxOp<'r>>,
    out: Option<BatchEmitter>,
}

impl<'r, 'env> SortOp<'r, 'env> {
    pub(crate) fn new(
        ctx: &'env ExecContext<'env>,
        node: &'env SortNode,
        child: BoxOp<'r>,
    ) -> SortOp<'r, 'env> {
        SortOp {
            ctx,
            node,
            child: Some(child),
            out: None,
        }
    }

    /// Drain the input: all of it, sorted, or a TopN's first `limit`.
    fn drain(&mut self) -> Result<Vec<Row>> {
        let keys = &self.node.keys;
        let Some(child) = &mut self.child else {
            return Ok(Vec::new());
        };
        match self.node.limit {
            Some(limit) => {
                let mut top = TopN::new(keys, limit);
                while let Some(mut b) = child.next_batch()? {
                    check_deadline(self.ctx, "TopN")?;
                    top.push(b.drain_rows());
                }
                Ok(top.finish())
            }
            None => {
                let mut rows: Vec<Row> = Vec::new();
                while let Some(mut b) = child.next_batch()? {
                    check_deadline(self.ctx, "sort")?;
                    rows.reserve(b.len());
                    rows.extend(b.drain_rows());
                }
                rows.sort_by(|a, b| cmp_rows(keys, a, b));
                Ok(rows)
            }
        }
    }
}

impl Operator for SortOp<'_, '_> {
    fn name(&self) -> &'static str {
        if self.node.limit.is_some() {
            "TopN"
        } else {
            "Sort"
        }
    }

    fn open(&mut self) -> Result<()> {
        match &mut self.child {
            Some(c) => c.open(),
            None => Ok(()),
        }
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.out.is_none() {
            let rows = self.drain()?;
            if let Some(mut c) = self.child.take() {
                c.close();
            }
            self.out = Some(BatchEmitter::new(rows, self.ctx.db));
        }
        BatchEmitter::emit(&mut self.out, self.ctx.db)
    }

    fn close(&mut self) {
        if let Some(mut c) = self.child.take() {
            c.close();
        }
        self.out = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use taurus_common::Value;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// TopN is full stable sort + truncate, ties included, and holds at
        /// most `2 × limit` rows and one batch: rows of two keys with few
        /// values (a NULL among them) and a sequence number, in batches of
        /// random sizes, under limits 0, 1, n - 1, n and n + 1.
        #[test]
        fn top_n_is_sort_and_truncate_in_bounded_memory(
            cells in proptest::collection::vec((0i64..4, 0i64..3), 0..300),
            batch in 1usize..40,
            desc in any::<bool>(),
        ) {
            let n = cells.len();
            let rows: Vec<Row> = cells
                .iter()
                .enumerate()
                .map(|(seq, &(a, b))| {
                    let a = if a == 3 { Value::Null } else { Value::Int(a) };
                    vec![a, Value::Int(b), Value::Int(seq as i64)]
                })
                .collect();
            let keys = [(0, desc), (1, !desc)];
            let mut sorted = rows.clone();
            sorted.sort_by(|a, b| cmp_rows(&keys, a, b));
            for limit in [0, 1, n.saturating_sub(1), n, n + 1] {
                let mut top = TopN::new(&keys, limit);
                for chunk in rows.chunks(batch) {
                    top.push(chunk.iter().cloned());
                    prop_assert!(top.peak < (2 * limit).max(1) + batch, "{} held", top.peak);
                }
                let want: Vec<Row> = sorted.iter().take(limit).cloned().collect();
                prop_assert_eq!(top.finish(), want, "limit {}", limit);
            }
        }
    }
}
