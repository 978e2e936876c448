//! Row batches: the unit of the vectorized result pipeline.
//!
//! The paper keeps per-record work tiny inside Page Stores (the §V-B VM
//! evaluates predicates over raw record bytes, no row materialization)
//! and amortizes round trips with batch reads (§IV-C). [`RowBatch`] is
//! the frontend's counterpart: scans accumulate surviving rows into one
//! reusable batch instead of allocating a fresh `Vec<Value>` per record,
//! and every downstream hand-off (consumer callback, stream channel
//! message) happens once per *batch*, not once per row.
//!
//! Layout: a row group — one flat `Vec<Value>` holding `len * width`
//! values in row-major order. The batch owns its values (scans release
//! page frames as soon as a page drains, so borrowing record bytes is
//! not an option).
//!
//! Buffers are reused, not reallocated: a batch is handed from stage to
//! stage by move (a scan swaps its full batch for an empty one), filtered
//! in place ([`RowBatch::retain_rows`]), and when the last stage drops it
//! its buffer goes back (`impl Drop`) to where the next
//! [`RowBatch::with_capacity`] finds it. In steady state a query
//! allocates no batch storage at all, and what its batches hold in flight
//! is bounded ([`BATCH_MAX_VALUES`]), which keeps resident memory flat.

use std::sync::Mutex;

use crate::error::Result;
use crate::schema::Row;
use crate::value::Value;

/// Default rows per scan batch ([`crate::config::ClusterConfig::scan_batch_rows`]).
/// ~1024 rows amortizes per-batch overhead to noise while keeping a
/// batch of typical rows comfortably cache-resident.
pub const DEFAULT_SCAN_BATCH_ROWS: usize = 1024;

/// The most values one batch holds: a batch is full at its row capacity
/// or at this many values, whichever comes first (a thousand rows of four
/// columns; wider rows fill a batch with fewer). The hand-off a batch
/// amortizes costs the same for a narrow row as for a wide one, but the
/// memory a scan keeps in flight does not, and this bounds it.
pub const BATCH_MAX_VALUES: usize = 4096;

/// Buffers of dropped batches waiting for their next batch. Process-wide,
/// so the buffers one query leaves behind serve the next query's scans
/// whichever threads run them (freed to the allocator instead, each
/// thread's arena keeps its own: `peak_rss_mb` on `tpch_sql_ndp_on` is
/// 230 MB without this list and about 220 with it); bounded in number.
/// Every buffer holds exactly `BATCH_MAX_VALUES`, so any of them serves
/// any large batch and a query mix of different widths never regrows one;
/// a batch of less than half that allocates what it needs and stays out
/// of the list.
static FREE_BUFFERS: Mutex<Vec<Vec<Value>>> = Mutex::new(Vec::new());
const FREE_BUFFERS_MAX: usize = 32;

fn free_buffers() -> std::sync::MutexGuard<'static, Vec<Vec<Value>>> {
    // Every update leaves the list valid, so a poisoned lock is usable.
    FREE_BUFFERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// An owned, fixed-width batch of rows in row-major order. Construct
/// via [`RowBatch::with_capacity`] (no `Default`: a default batch would
/// have capacity 0 and report itself full while empty).
#[derive(Clone, Debug, PartialEq)]
pub struct RowBatch {
    /// Values per row. A zero-width batch is legal (e.g. a bare
    /// `COUNT(*)` scan delivers empty rows); `len` is tracked explicitly
    /// so row count never depends on `width`.
    width: usize,
    len: usize,
    capacity_rows: usize,
    values: Vec<Value>,
}

impl RowBatch {
    /// An empty batch that flushes after `capacity_rows` rows of `width`
    /// values each, or fewer when that many rows would exceed
    /// [`BATCH_MAX_VALUES`].
    pub fn with_capacity(width: usize, capacity_rows: usize) -> RowBatch {
        let capacity_rows = capacity_rows.clamp(1, (BATCH_MAX_VALUES / width.max(1)).max(1));
        let want = width * capacity_rows;
        let values = if want >= BATCH_MAX_VALUES / 2 {
            let recycled = free_buffers().pop();
            recycled.unwrap_or_else(|| Vec::with_capacity(BATCH_MAX_VALUES))
        } else {
            Vec::with_capacity(want)
        };
        RowBatch {
            width,
            len: 0,
            capacity_rows,
            values,
        }
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Rows currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Has the batch reached its flush threshold?
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity_rows
    }

    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Append one row. The iterator must yield exactly `width` values —
    /// enforced with a hard assert, because a wrong-width row would
    /// silently shift every later row's slice boundaries (the check is
    /// one integer compare per row, noise next to the extend itself).
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        let before = self.values.len();
        self.values.extend(row);
        assert_eq!(
            self.values.len() - before,
            self.width,
            "row width mismatch in RowBatch::push_row"
        );
        self.len += 1;
    }

    /// Append one row whose values may fail to compute (a wire decode, an
    /// expression): on the first error nothing of the row stays and the
    /// error is returned. Same width contract as [`RowBatch::push_row`].
    pub fn try_push_row(&mut self, row: impl IntoIterator<Item = Result<Value>>) -> Result<()> {
        let before = self.values.len();
        for v in row {
            match v {
                Ok(v) => self.values.push(v),
                Err(e) => {
                    self.values.truncate(before);
                    return Err(e);
                }
            }
        }
        assert_eq!(
            self.values.len() - before,
            self.width,
            "row width mismatch in RowBatch::try_push_row"
        );
        self.len += 1;
        Ok(())
    }

    /// Borrow row `i`.
    pub fn row(&self, i: usize) -> &[Value] {
        let start = i * self.width;
        &self.values[start..start + self.width]
    }

    /// Iterate the buffered rows as slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        // `chunks_exact(0)` panics; a zero-width batch yields `len`
        // empty rows instead.
        RowsIter {
            batch: self,
            next: 0,
        }
    }

    /// Keep only the first `n` rows (no-op when `n >= len`). The batch
    /// keeps its allocation; LIMIT uses this to cut the final batch at
    /// the row boundary.
    pub fn truncate_rows(&mut self, n: usize) {
        if n < self.len {
            self.values.truncate(n * self.width);
            self.len = n;
        }
    }

    /// Keep only the rows `keep` accepts, in their order, compacting in
    /// place (no second batch). If `keep` fails the error is returned and
    /// the batch holds its rows in some order.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(&[Value]) -> Result<bool>) -> Result<()> {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&self.values[i * w..(i + 1) * w])? {
                if kept != i {
                    for j in 0..w {
                        self.values.swap(kept * w + j, i * w + j);
                    }
                }
                kept += 1;
            }
        }
        self.values.truncate(kept * w);
        self.len = kept;
        Ok(())
    }

    /// Move every row of `other` (of the same width) behind this batch's
    /// rows, leaving `other` empty with its allocation. Nothing is cloned.
    pub fn append(&mut self, other: &mut RowBatch) {
        assert_eq!(
            self.width, other.width,
            "row width mismatch in RowBatch::append"
        );
        self.values.append(&mut other.values);
        self.len += std::mem::take(&mut other.len);
    }

    /// Drop all rows, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.values.clear();
        self.len = 0;
    }

    /// Move row `i` out as an owned [`Row`], leaving NULLs in its place
    /// (a stream pops rows off its current batch one at a time).
    pub fn take_row(&mut self, i: usize) -> Row {
        let start = i * self.width;
        self.values[start..start + self.width]
            .iter_mut()
            .map(|v| std::mem::replace(v, Value::Null))
            .collect()
    }

    /// Drop the first `n` rows, keeping the rest in order.
    pub fn discard_front(&mut self, n: usize) {
        let n = n.min(self.len);
        self.values.drain(..n * self.width);
        self.len -= n;
    }

    /// Move every row out as an owned [`Row`], leaving the batch empty
    /// with its allocation (a collector or a pipeline breaker empties a
    /// batch without cloning a value, and can still recycle the buffer).
    pub fn drain_rows(&mut self) -> impl Iterator<Item = Row> + '_ {
        let width = self.width;
        let rows = std::mem::take(&mut self.len);
        let mut values = self.values.drain(..);
        (0..rows).map(move |_| values.by_ref().take(width).collect())
    }

    /// Materialize as a `Vec<Row>` (test/diagnostic convenience).
    pub fn to_rows(&self) -> Vec<Row> {
        self.rows().map(|r| r.to_vec()).collect()
    }
}

/// A dropped batch's buffer serves a later [`RowBatch::with_capacity`].
impl Drop for RowBatch {
    fn drop(&mut self) {
        if self.values.capacity() != BATCH_MAX_VALUES {
            return;
        }
        self.values.clear();
        let mut free = free_buffers();
        if free.len() < FREE_BUFFERS_MAX {
            free.push(std::mem::take(&mut self.values));
        }
    }
}

struct RowsIter<'a> {
    batch: &'a RowBatch,
    next: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.next >= self.batch.len {
            return None;
        }
        let r = self.batch.row(self.next);
        self.next += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.batch.len - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_iterate_clear_reuses_allocation() {
        let mut b = RowBatch::with_capacity(2, 3);
        assert!(b.is_empty() && !b.is_full());
        for i in 0..3i64 {
            b.push_row([Value::Int(i), Value::Int(i * 10)]);
        }
        assert!(b.is_full());
        assert_eq!(b.len(), 3);
        assert_eq!(b.row(1), &[Value::Int(1), Value::Int(10)]);
        let rows: Vec<_> = b.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[Value::Int(2), Value::Int(20)]);
        let cap = b.values.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.values.capacity(), cap, "clear keeps the allocation");
    }

    #[test]
    fn drain_rows_yields_owned_rows_in_order_and_empties_the_batch() {
        let mut b = RowBatch::with_capacity(2, 8);
        b.push_row([Value::Int(1), Value::str("a")]);
        b.push_row([Value::Int(2), Value::str("b")]);
        let rows: Vec<Row> = b.drain_rows().collect();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("b")]
            ]
        );
        assert!(b.is_empty());
        b.push_row([Value::Int(3), Value::Null]);
        assert_eq!(b.to_rows(), vec![vec![Value::Int(3), Value::Null]]);
    }

    #[test]
    fn take_row_and_discard_front_pop_rows_off_the_front() {
        let mut b = RowBatch::with_capacity(2, 4);
        for i in 0..3i64 {
            b.push_row([Value::Int(i), Value::str("x")]);
        }
        assert_eq!(b.take_row(0), vec![Value::Int(0), Value::str("x")]);
        assert_eq!(b.row(0), &[Value::Null, Value::Null]);
        b.discard_front(1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), &[Value::Int(1), Value::str("x")]);
        b.discard_front(9);
        assert!(b.is_empty());
    }

    #[test]
    fn retain_rows_compacts_in_place_and_reports_errors() {
        let mut b = RowBatch::with_capacity(2, 8);
        for i in 0..6i64 {
            b.push_row([Value::Int(i), Value::Int(-i)]);
        }
        b.retain_rows(|r| Ok(r[0].as_int()? % 2 == 1)).unwrap();
        assert_eq!(
            b.to_rows(),
            vec![
                vec![Value::Int(1), Value::Int(-1)],
                vec![Value::Int(3), Value::Int(-3)],
                vec![Value::Int(5), Value::Int(-5)],
            ]
        );
        let err = b.retain_rows(|r| r[0].as_str().map(|_| true)).unwrap_err();
        assert!(matches!(err, crate::error::Error::Type(_)), "{err:?}");
        assert_eq!(b.len(), 3, "a failed pass keeps every row");
        b.retain_rows(|_| Ok(false)).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn try_push_row_leaves_nothing_behind_on_error() {
        let mut b = RowBatch::with_capacity(2, 4);
        b.try_push_row([Ok(Value::Int(1)), Ok(Value::Int(2))])
            .unwrap();
        let bad = crate::error::Error::Internal("boom".into());
        assert!(b.try_push_row([Ok(Value::Int(3)), Err(bad)]).is_err());
        assert_eq!(b.to_rows(), vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn dropped_buffers_come_back() {
        // Other tests share the process-wide free list, so only what this
        // test can rely on: a dropped batch's buffer is the right size
        // for the next batch, which starts empty.
        let mut b = RowBatch::with_capacity(4, 1024);
        assert_eq!(b.values.capacity(), BATCH_MAX_VALUES);
        b.push_row([Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]);
        drop(b);
        let again = RowBatch::with_capacity(8, 1024);
        assert!(again.is_empty());
        assert_eq!(again.values.capacity(), BATCH_MAX_VALUES);
        // Small batches allocate what they need and stay out of the list.
        assert_eq!(RowBatch::with_capacity(40, 7).values.capacity(), 280);
    }

    #[test]
    fn wide_rows_fill_a_batch_sooner() {
        assert_eq!(RowBatch::with_capacity(4, 1024).capacity_rows(), 1024);
        assert_eq!(RowBatch::with_capacity(16, 1024).capacity_rows(), 256);
        assert_eq!(RowBatch::with_capacity(16, 7).capacity_rows(), 7);
        // Zero-width and absurdly wide rows still make progress.
        assert_eq!(RowBatch::with_capacity(0, 1024).capacity_rows(), 1024);
        assert_eq!(
            RowBatch::with_capacity(BATCH_MAX_VALUES * 2, 9).capacity_rows(),
            1
        );
    }

    #[test]
    fn zero_width_rows_still_count() {
        let mut b = RowBatch::with_capacity(0, 4);
        for _ in 0..4 {
            b.push_row([]);
        }
        assert!(b.is_full());
        assert_eq!(b.len(), 4);
        assert_eq!(b.rows().count(), 4);
        let mut it = b.drain_rows();
        assert_eq!(it.next(), Some(Vec::new()));
        assert_eq!(it.count(), 3);
    }

    #[test]
    fn truncate_rows_cuts_at_row_boundary() {
        let mut b = RowBatch::with_capacity(2, 4);
        for i in 0..4i64 {
            b.push_row([Value::Int(i), Value::Int(-i)]);
        }
        b.truncate_rows(9); // no-op past the end
        assert_eq!(b.len(), 4);
        b.truncate_rows(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[Value::Int(1), Value::Int(-1)]);
        b.truncate_rows(0);
        assert!(b.is_empty());
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut b = RowBatch::with_capacity(1, 0);
        assert!(!b.is_full());
        b.push_row([Value::Null]);
        assert!(b.is_full(), "capacity 0 clamps to 1");
    }
}
