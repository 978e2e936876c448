//! Table schemas, index definitions, and memcomparable key encoding.
//!
//! B+ tree node-pointer records and scan range bounds carry *encoded keys*:
//! byte strings whose lexicographic order equals the SQL order of the key
//! tuples. That lets the tree, the batch-read boundary checks (§IV-C4
//! "batch reads are aware of scan boundaries"), and the undo map all compare
//! keys with plain `memcmp`.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::ids::{IndexId, SpaceId};
use crate::value::{DataType, Value};

/// A materialized row.
pub type Row = Vec<Value>;

#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: &str, dtype: DataType) -> Self {
        Column {
            name: name.to_string(),
            dtype,
            nullable: false,
        }
    }

    pub fn nullable(name: &str, dtype: DataType) -> Self {
        Column {
            name: name.to_string(),
            dtype,
            nullable: true,
        }
    }
}

/// Logical table definition: columns plus the primary-key column positions.
#[derive(Clone, Debug)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
    /// Positions (into `columns`) of the primary key, in key order.
    pub pk: Vec<usize>,
}

impl TableSchema {
    pub fn new(name: &str, columns: Vec<Column>, pk: Vec<usize>) -> Arc<Self> {
        assert!(!pk.is_empty(), "table {name} needs a primary key");
        for &c in &pk {
            assert!(c < columns.len(), "pk column {c} out of range");
        }
        Arc::new(TableSchema {
            name: name.to_string(),
            columns,
            pk,
        })
    }

    pub fn col_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::NotFound(format!("column {name} in {}", self.name)))
    }

    pub fn dtypes(&self) -> Vec<DataType> {
        self.columns.iter().map(|c| c.dtype).collect()
    }

    /// Estimated full-row width in bytes — the denominator of the
    /// optimizer's NDP-projection benefit calculation (§V-A).
    pub fn estimated_row_width(&self) -> usize {
        self.columns.iter().map(|c| c.dtype.estimated_width()).sum()
    }
}

/// One B+ tree. For the primary index the leaf records store the full row
/// and `key_cols == schema.pk`. For a secondary index the leaf records store
/// `key_cols ++ pk_cols` only (InnoDB-style non-covering secondaries).
#[derive(Clone, Debug)]
pub struct IndexDef {
    pub name: String,
    pub index_id: IndexId,
    pub space: SpaceId,
    pub table: Arc<TableSchema>,
    /// Positions into the *table* schema of the index key, in key order.
    pub key_cols: Vec<usize>,
    pub is_primary: bool,
}

impl IndexDef {
    /// The *effective* index key: for secondaries, the declared key columns
    /// extended with the primary key (InnoDB-style), which makes every
    /// index entry unique and makes B+ tree separators precise row
    /// boundaries (PQ partition splits rely on this).
    pub fn effective_key_cols(&self) -> Vec<usize> {
        if self.is_primary {
            return self.key_cols.clone();
        }
        let mut cols = self.key_cols.clone();
        for &p in &self.table.pk {
            if !cols.contains(&p) {
                cols.push(p);
            }
        }
        cols
    }

    /// Positions (into the table schema) of the columns stored in this
    /// index's leaf records, in leaf-record column order.
    pub fn stored_cols(&self) -> Vec<usize> {
        if self.is_primary {
            (0..self.table.columns.len()).collect()
        } else {
            self.effective_key_cols()
        }
    }

    /// Positions *within the leaf record* of the effective key columns.
    pub fn key_positions_in_record(&self) -> Vec<usize> {
        let stored = self.stored_cols();
        self.effective_key_cols()
            .iter()
            .map(|k| stored.iter().position(|s| s == k).unwrap())
            .collect()
    }

    pub fn key_dtypes(&self) -> Vec<DataType> {
        self.effective_key_cols()
            .iter()
            .map(|&c| self.table.columns[c].dtype)
            .collect()
    }
}

// --- memcomparable key encoding -------------------------------------------

const NULL_TAG: u8 = 0x00;
const NOTNULL_TAG: u8 = 0x01;

/// Append the memcomparable encoding of one key part.
pub fn encode_key_part(v: &Value, dtype: &DataType, out: &mut Vec<u8>) {
    if v.is_null() {
        out.push(NULL_TAG);
        return;
    }
    out.push(NOTNULL_TAG);
    match (dtype, v) {
        (DataType::Int | DataType::BigInt, Value::Int(x)) => {
            out.extend_from_slice(&((*x as u64) ^ (1 << 63)).to_be_bytes());
        }
        (DataType::Decimal { scale, .. }, _) => {
            let d = v.as_dec().expect("typed key").rescale(*scale);
            let raw = d.raw as i64;
            out.extend_from_slice(&((raw as u64) ^ (1 << 63)).to_be_bytes());
        }
        (DataType::Date, Value::Date(d)) => {
            out.extend_from_slice(&((d.0 as u32) ^ (1 << 31)).to_be_bytes());
        }
        (DataType::Char(_) | DataType::Varchar(_), Value::Str(s)) => encode_key_str(s, out),
        (DataType::Double, Value::Double(x)) => {
            out.extend_from_slice(&flip_double(x.to_bits()).to_be_bytes());
        }
        (dt, v) => panic!("key encoding mismatch: {v:?} as {dt:?}"),
    }
}

/// Append the memcomparable encoding of one key part straight from its
/// record column image (`None` = NULL): the same bytes as
/// [`encode_key_part`] over [`Value::decode_column`] of the image, without
/// building the `Value`. Scans and in-page searches encode record keys
/// into a reused buffer through this.
pub fn encode_key_part_image(dtype: &DataType, image: Option<&[u8]>, out: &mut Vec<u8>) {
    let Some(b) = image else {
        out.push(NULL_TAG);
        return;
    };
    out.push(NOTNULL_TAG);
    // Fixed-width images are exactly `fixed_width()` bytes; callers slice
    // them out of a bounds-checked record.
    let le32 = || u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let le64 = || u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
    match dtype {
        DataType::Int => {
            let x = le32() as i32 as i64 as u64;
            out.extend_from_slice(&(x ^ (1 << 63)).to_be_bytes());
        }
        DataType::BigInt | DataType::Decimal { .. } => {
            out.extend_from_slice(&(le64() ^ (1 << 63)).to_be_bytes());
        }
        DataType::Date => out.extend_from_slice(&(le32() ^ (1 << 31)).to_be_bytes()),
        DataType::Char(_) | DataType::Varchar(_) => {
            encode_key_str(std::str::from_utf8(b).unwrap_or("\u{fffd}"), out);
        }
        DataType::Double => out.extend_from_slice(&flip_double(le64()).to_be_bytes()),
    }
}

/// PAD SPACE semantics: trailing spaces are not significant.
fn encode_key_str(s: &str, out: &mut Vec<u8>) {
    for &b in s.trim_end_matches(' ').as_bytes() {
        if b == 0x00 {
            out.extend_from_slice(&[0x00, 0xFF]);
        } else {
            out.push(b);
        }
    }
    out.extend_from_slice(&[0x00, 0x00]);
}

fn flip_double(bits: u64) -> u64 {
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Encode a full (or prefix) key tuple.
pub fn encode_key(values: &[Value], dtypes: &[DataType]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    for (v, dt) in values.iter().zip(dtypes) {
        encode_key_part(v, dt, &mut out);
    }
    out
}

/// Comparator for encoded keys: plain byte order, which by construction
/// equals tuple order (NULLs first).
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyComparator;

impl KeyComparator {
    pub fn cmp(a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Date32, Dec};

    fn k1(v: Value, dt: DataType) -> Vec<u8> {
        encode_key(&[v], &[dt])
    }

    #[test]
    fn int_keys_order_across_sign() {
        let vals = [-5i64, -1, 0, 1, 100, i64::MAX];
        let keys: Vec<_> = vals
            .iter()
            .map(|&v| k1(Value::Int(v), DataType::BigInt))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    /// A key part encoded from a column image is the key part encoded
    /// from the decoded value, for every type, NULL included.
    #[test]
    fn key_part_from_column_image_equals_key_part_from_value() {
        let dec = DataType::Decimal {
            precision: 15,
            scale: 2,
        };
        let cases: Vec<(DataType, Value)> = vec![
            (DataType::Int, Value::Int(-42)),
            (DataType::Int, Value::Int(i32::MAX as i64)),
            (DataType::BigInt, Value::Int(i64::MIN)),
            (DataType::BigInt, Value::Int(1 << 40)),
            (dec, Value::Decimal(Dec::parse("-3.50").unwrap())),
            (dec, Value::Decimal(Dec::parse("90449.25").unwrap())),
            (
                DataType::Date,
                Value::Date(Date32::parse("1994-01-01").unwrap()),
            ),
            (DataType::Date, Value::Date(Date32(-5))),
            (DataType::Char(10), Value::str("BUILDING")),
            (DataType::Char(3), Value::str("")),
            (DataType::Varchar(20), Value::str("pad kept  ")),
            (DataType::Varchar(20), Value::str("nul\0inside")),
            (DataType::Double, Value::Double(-2.5)),
            (DataType::Double, Value::Double(0.0)),
        ];
        for (dt, v) in cases {
            let mut image = Vec::new();
            v.encode_column(&dt, &mut image).unwrap();
            let decoded = Value::decode_column(&dt, &image);
            let (mut from_value, mut from_image) = (Vec::new(), Vec::new());
            encode_key_part(&decoded, &dt, &mut from_value);
            encode_key_part_image(&dt, Some(&image), &mut from_image);
            assert_eq!(from_image, from_value, "{dt:?} {v:?}");
            let (mut null_value, mut null_image) = (Vec::new(), Vec::new());
            encode_key_part(&Value::Null, &dt, &mut null_value);
            encode_key_part_image(&dt, None, &mut null_image);
            assert_eq!(null_image, null_value, "{dt:?} NULL");
        }
    }

    #[test]
    fn decimal_and_date_keys_order() {
        let d1 = k1(
            Value::Decimal(Dec::parse("-3.50").unwrap()),
            DataType::Decimal {
                precision: 15,
                scale: 2,
            },
        );
        let d2 = k1(
            Value::Decimal(Dec::parse("3.49").unwrap()),
            DataType::Decimal {
                precision: 15,
                scale: 2,
            },
        );
        assert!(d1 < d2);
        let a = k1(
            Value::Date(Date32::parse("1994-01-01").unwrap()),
            DataType::Date,
        );
        let b = k1(
            Value::Date(Date32::parse("1994-01-02").unwrap()),
            DataType::Date,
        );
        assert!(a < b);
    }

    #[test]
    fn string_keys_prefix_order_and_escape() {
        let a = k1(Value::str("AIR"), DataType::Char(10));
        let b = k1(Value::str("AIR REG"), DataType::Char(10));
        let c = k1(Value::str("AIS"), DataType::Char(10));
        assert!(a < b && b < c);
        // Trailing spaces insignificant (CHAR padding).
        assert_eq!(k1(Value::str("AIR   "), DataType::Char(10)), a);
        // Embedded NUL must not break ordering against the terminator.
        let z1 = k1(Value::str("a\u{0}b"), DataType::Varchar(10));
        let z2 = k1(Value::str("a"), DataType::Varchar(10));
        assert!(z2 < z1);
    }

    #[test]
    fn null_orders_first() {
        let n = k1(Value::Null, DataType::Int);
        let z = k1(Value::Int(i64::from(i32::MIN)), DataType::Int);
        assert!(n < z);
    }

    #[test]
    fn composite_key_orders_lexicographically() {
        let dts = [DataType::Int, DataType::Date];
        let a = encode_key(
            &[
                Value::Int(1),
                Value::Date(Date32::parse("1998-01-01").unwrap()),
            ],
            &dts,
        );
        let b = encode_key(
            &[
                Value::Int(1),
                Value::Date(Date32::parse("1998-01-02").unwrap()),
            ],
            &dts,
        );
        let c = encode_key(
            &[
                Value::Int(2),
                Value::Date(Date32::parse("1990-01-01").unwrap()),
            ],
            &dts,
        );
        assert!(a < b && b < c);
        // A prefix encodes as a strict prefix -> ranges work.
        let p = encode_key(&[Value::Int(1)], &dts[..1]);
        assert!(a.starts_with(&p));
    }

    #[test]
    fn double_keys_order_including_negatives() {
        let vals = [-10.5, -0.0, 0.0, 0.25, 7e9];
        let keys: Vec<_> = vals
            .iter()
            .map(|&v| k1(Value::Double(v), DataType::Double))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn secondary_index_stored_cols_append_pk() {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
                Column::new("c", DataType::Int),
            ],
            vec![0, 1],
        );
        let idx = IndexDef {
            name: "i_c".into(),
            index_id: IndexId(9),
            space: SpaceId(2),
            table: schema,
            key_cols: vec![2],
            is_primary: false,
        };
        assert_eq!(idx.stored_cols(), vec![2, 0, 1]);
        // The effective key extends the declared key with the PK, making
        // secondary entries unique.
        assert_eq!(idx.effective_key_cols(), vec![2, 0, 1]);
        assert_eq!(idx.key_positions_in_record(), vec![0, 1, 2]);
    }
}
