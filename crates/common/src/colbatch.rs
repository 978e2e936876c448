//! Column-major batches for the vectorized filter kernel.
//!
//! A [`ColumnBatch`] holds one typed vector per column — specialized
//! `i64`/`Dec`/`Date`/`f64` arrays plus a [`Value`] fallback — each with a
//! validity bitmap. It is the input of `taurus_expr::vector::VectorProgram`,
//! which `benchmark/` times against the row-at-a-time `eval_pred` as
//! `expr.vector_filter_ns_per_row`. Operators never exchange it: the
//! executor's only batch type is the row-major [`crate::RowBatch`].

use crate::value::{DataType, Date32, Dec, Value};

/// A fixed-length validity (or truth) bitmap: bit `i` set ⇔ row `i` valid.
/// Bits past `len` are always zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Zero any bits past `len` (kept as an invariant so word-level ops
    /// need no per-bit masking).
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, bit: bool) {
        let (word, off) = (self.len / 64, self.len % 64);
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << off;
        }
        self.len += 1;
    }

    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bitmap index {i} out of {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.len = n;
        self.words.truncate(n.div_ceil(64));
        self.mask_tail();
    }

    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// One typed column vector with a validity bitmap. Rows that don't fit
/// the specialized representation (type drift, mixed decimal scales)
/// promote the whole column to `Generic` — correctness never depends on
/// the specialization.
#[derive(Clone, Debug)]
pub enum ColumnVec {
    Int64 {
        vals: Vec<i64>,
        valid: Bitmap,
    },
    Dec {
        raw: Vec<i128>,
        scale: u8,
        valid: Bitmap,
    },
    Date {
        vals: Vec<i32>,
        valid: Bitmap,
    },
    F64 {
        vals: Vec<f64>,
        valid: Bitmap,
    },
    Generic {
        vals: Vec<Value>,
        valid: Bitmap,
    },
}

impl ColumnVec {
    /// The specialized vector for a declared column type.
    pub fn for_dtype(dtype: &DataType, capacity: usize) -> ColumnVec {
        match dtype {
            DataType::Int | DataType::BigInt => ColumnVec::Int64 {
                vals: Vec::with_capacity(capacity),
                valid: Bitmap::new(),
            },
            DataType::Decimal { scale, .. } => ColumnVec::Dec {
                raw: Vec::with_capacity(capacity),
                scale: *scale,
                valid: Bitmap::new(),
            },
            DataType::Date => ColumnVec::Date {
                vals: Vec::with_capacity(capacity),
                valid: Bitmap::new(),
            },
            DataType::Double => ColumnVec::F64 {
                vals: Vec::with_capacity(capacity),
                valid: Bitmap::new(),
            },
            DataType::Char(_) | DataType::Varchar(_) => ColumnVec::generic(capacity),
        }
    }

    pub fn generic(capacity: usize) -> ColumnVec {
        ColumnVec::Generic {
            vals: Vec::with_capacity(capacity),
            valid: Bitmap::new(),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int64 { vals, .. } => vals.len(),
            ColumnVec::Dec { raw, .. } => raw.len(),
            ColumnVec::Date { vals, .. } => vals.len(),
            ColumnVec::F64 { vals, .. } => vals.len(),
            ColumnVec::Generic { vals, .. } => vals.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn valid(&self) -> &Bitmap {
        match self {
            ColumnVec::Int64 { valid, .. }
            | ColumnVec::Dec { valid, .. }
            | ColumnVec::Date { valid, .. }
            | ColumnVec::F64 { valid, .. }
            | ColumnVec::Generic { valid, .. } => valid,
        }
    }

    /// Append one value. A value the specialization cannot hold promotes
    /// the column to `Generic` first (all prior rows rebuilt), then
    /// appends — push never fails.
    pub fn push(&mut self, v: Value) {
        match self {
            ColumnVec::Int64 { vals, valid } => match v {
                Value::Int(x) => {
                    vals.push(x);
                    valid.push(true);
                }
                Value::Null => {
                    vals.push(0);
                    valid.push(false);
                }
                other => {
                    self.promote();
                    self.push(other);
                }
            },
            ColumnVec::Dec { raw, scale, valid } => match v {
                Value::Decimal(d) if d.scale == *scale => {
                    raw.push(d.raw);
                    valid.push(true);
                }
                Value::Null => {
                    raw.push(0);
                    valid.push(false);
                }
                other => {
                    self.promote();
                    self.push(other);
                }
            },
            ColumnVec::Date { vals, valid } => match v {
                Value::Date(d) => {
                    vals.push(d.0);
                    valid.push(true);
                }
                Value::Null => {
                    vals.push(0);
                    valid.push(false);
                }
                other => {
                    self.promote();
                    self.push(other);
                }
            },
            ColumnVec::F64 { vals, valid } => match v {
                Value::Double(x) => {
                    vals.push(x);
                    valid.push(true);
                }
                Value::Null => {
                    vals.push(0.0);
                    valid.push(false);
                }
                other => {
                    self.promote();
                    self.push(other);
                }
            },
            ColumnVec::Generic { vals, valid } => {
                valid.push(!v.is_null());
                vals.push(v);
            }
        }
    }

    /// Rebuild this column as `Generic` (type drift within a batch).
    fn promote(&mut self) {
        let n = self.len();
        let mut g = ColumnVec::generic(n.max(1));
        for i in 0..n {
            g.push(self.get(i));
        }
        *self = g;
    }

    /// The value at physical row `i` (clones out of the vector).
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int64 { vals, valid } => {
                if valid.get(i) {
                    Value::Int(vals[i])
                } else {
                    Value::Null
                }
            }
            ColumnVec::Dec { raw, scale, valid } => {
                if valid.get(i) {
                    Value::Decimal(Dec::new(raw[i], *scale))
                } else {
                    Value::Null
                }
            }
            ColumnVec::Date { vals, valid } => {
                if valid.get(i) {
                    Value::Date(Date32(vals[i]))
                } else {
                    Value::Null
                }
            }
            ColumnVec::F64 { vals, valid } => {
                if valid.get(i) {
                    Value::Double(vals[i])
                } else {
                    Value::Null
                }
            }
            ColumnVec::Generic { vals, .. } => vals[i].clone(),
        }
    }
}

/// A column-major batch: one typed [`ColumnVec`] per column, all of the
/// same length.
#[derive(Clone, Debug)]
pub struct ColumnBatch {
    len: usize,
    cols: Vec<ColumnVec>,
}

impl ColumnBatch {
    /// A batch with one specialized column per declared type.
    pub fn with_capacity(dtypes: &[DataType], capacity_rows: usize) -> ColumnBatch {
        ColumnBatch {
            len: 0,
            cols: dtypes
                .iter()
                .map(|dt| ColumnVec::for_dtype(dt, capacity_rows))
                .collect(),
        }
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn col(&self, i: usize) -> &ColumnVec {
        &self.cols[i]
    }

    /// Append one row across all columns.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        let mut n = 0usize;
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
            n += 1;
        }
        assert_eq!(n, self.cols.len(), "row width != batch width");
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtypes() -> Vec<DataType> {
        vec![
            DataType::BigInt,
            DataType::Decimal {
                precision: 15,
                scale: 2,
            },
            DataType::Date,
            DataType::Varchar(16),
            DataType::Double,
        ]
    }

    fn sample_row(i: i64) -> Vec<Value> {
        vec![
            Value::Int(i),
            Value::Decimal(Dec::new(i as i128 * 100, 2)),
            Value::Date(Date32(i as i32)),
            Value::str(format!("row-{i}")),
            Value::Double(i as f64 / 2.0),
        ]
    }

    #[test]
    fn bitmap_push_get_truncate() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
        b.truncate(65);
        assert_eq!(b.len(), 65);
        assert_eq!(b.count_ones(), (0..65).filter(|i| i % 3 == 0).count());
        // Tail bits past len are masked off so word ops need no clamping.
        assert_eq!(b.words().last().unwrap() >> 1, 0);
    }

    #[test]
    fn typed_columns_roundtrip_values() {
        let mut cb = ColumnBatch::with_capacity(&dtypes(), 8);
        for i in 0..5 {
            cb.push_row(sample_row(i));
        }
        cb.push_row(vec![Value::Null; 5]);
        assert_eq!(cb.len(), 6);
        for i in 0..5 {
            let want = sample_row(i as i64);
            for (c, w) in want.iter().enumerate() {
                assert_eq!(cb.col(c).get(i), *w, "({c},{i})");
            }
        }
        for c in 0..5 {
            assert_eq!(cb.col(c).get(5), Value::Null);
            assert!(!cb.col(c).valid().get(5));
        }
    }

    #[test]
    fn type_drift_promotes_to_generic() {
        let mut col = ColumnVec::for_dtype(&DataType::BigInt, 4);
        col.push(Value::Int(1));
        col.push(Value::Null);
        col.push(Value::str("oops")); // drift: promotes, loses nothing
        assert!(matches!(col, ColumnVec::Generic { .. }));
        assert_eq!(col.get(0), Value::Int(1));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.get(2), Value::str("oops"));
        assert!(!col.valid().get(1));
    }

    #[test]
    fn mixed_decimal_scales_promote() {
        let mut col = ColumnVec::for_dtype(
            &DataType::Decimal {
                precision: 15,
                scale: 2,
            },
            4,
        );
        col.push(Value::Decimal(Dec::new(100, 2)));
        col.push(Value::Decimal(Dec::new(5, 4))); // different scale
        assert!(matches!(col, ColumnVec::Generic { .. }));
        assert_eq!(col.get(0), Value::Decimal(Dec::new(100, 2)));
        assert_eq!(col.get(1), Value::Decimal(Dec::new(5, 4)));
    }

    #[test]
    #[should_panic(expected = "row width != batch width")]
    fn push_row_wrong_width_asserts() {
        let mut cb = ColumnBatch::with_capacity(&[DataType::BigInt; 3], 4);
        cb.push_row(vec![Value::Int(1)]);
    }
}
