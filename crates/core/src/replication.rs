//! Catalog replication payload codecs.
//!
//! The log is the only cross-node channel (§II: masters write log records,
//! never pages), so everything a read replica needs beyond page deltas has
//! to travel *through* it. Two system-record payloads are defined here:
//!
//! * [`CatalogPayload`] (`RedoBody::SysCatalog`) — emitted by
//!   `create_table`: the table schema plus every index definition (name,
//!   id, space, key columns), enough for a replica to rebuild `Table` /
//!   `BTree` objects over its own read-pinned stores.
//! * [`LoadedPayload`] (`RedoBody::SysLoaded`) — emitted when `bulk_load`
//!   completes: per-index tree shapes (root / height / leaf count — state
//!   the master mutates outside the page substrate) and the optimizer
//!   statistics, so a replica makes the *same* NDP decisions the master
//!   would.
//!
//! Encodings are little-endian and length-prefixed through the shared
//! codec (`taurus_common::codec`), like the redo format one layer down;
//! `Value`s take the IR's layout (`u16` string lengths).

use taurus_common::codec::{
    put_dtype, put_f64, put_flag, put_str, put_u32, put_u64, put_value16, Cursor,
};
use taurus_common::schema::{Column, TableSchema};
use taurus_common::{PageNo, Result, Value};

use crate::engine::{ColumnStats, TableStats};

/// One index of a replicated table.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexMeta {
    pub name: String,
    pub index_id: u64,
    pub space: u32,
    /// Positions into the table schema of the declared key, in key order.
    pub key_cols: Vec<usize>,
    pub is_primary: bool,
}

/// `SysCatalog` payload: everything `create_table` decided.
#[derive(Clone, Debug)]
pub struct CatalogPayload {
    pub name: String,
    pub columns: Vec<Column>,
    pub pk: Vec<usize>,
    pub indexes: Vec<IndexMeta>,
}

/// Shape of one B+ tree at bulk-load completion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeShape {
    pub space: u32,
    pub root: PageNo,
    pub height: u32,
    pub n_leaves: u32,
}

/// `SysLoaded` payload: tree shapes + optimizer statistics, plus the
/// master's read-view ingredients (a load completion is a
/// transaction-consistent boundary, and replicas publish an exact master
/// view at every boundary).
#[derive(Clone, Debug)]
pub struct LoadedPayload {
    pub table: String,
    pub shapes: Vec<TreeShape>,
    pub stats: TableStats,
    /// Transaction ids active on the master at load completion (sorted).
    pub active: Vec<u64>,
    /// The master's next transaction id at load completion.
    pub low_limit: u64,
}

fn put_usizes(out: &mut Vec<u8>, v: &[usize]) {
    put_u32(out, v.len() as u32);
    v.iter().for_each(|&x| put_u32(out, x as u32));
}

fn get_usizes(cur: &mut Cursor<'_>) -> Result<Vec<usize>> {
    let n = cur.count(4)?;
    cur.list(n, |cur| Ok(cur.u32()? as usize))
}

/// An optional statistic: a presence flag, then the value in the IR's
/// layout.
fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) -> Result<()> {
    put_flag(out, v.is_some());
    v.as_ref().map_or(Ok(()), |v| put_value16(out, v))
}

fn get_opt_value(cur: &mut Cursor<'_>) -> Result<Option<Value>> {
    Ok(match cur.flag()? {
        false => None,
        true => Some(cur.value16()?),
    })
}

// --- payload codecs ----------------------------------------------------------

/// The least bytes a column, an index, a tree shape and a column's
/// statistics take: what a count of them is checked against.
const MIN_COLUMN_BYTES: usize = 4 + 1 + 1;
const MIN_INDEX_BYTES: usize = 4 + 8 + 4 + 4 + 1;
const SHAPE_BYTES: usize = 16;
const MIN_STATS_BYTES: usize = 1 + 1 + 8 + 8;

impl CatalogPayload {
    pub fn from_parts(schema: &TableSchema, indexes: Vec<IndexMeta>) -> CatalogPayload {
        CatalogPayload {
            name: schema.name.clone(),
            columns: schema.columns.clone(),
            pk: schema.pk.clone(),
            indexes,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        put_str(&mut out, &self.name);
        put_u32(&mut out, self.columns.len() as u32);
        for c in &self.columns {
            put_str(&mut out, &c.name);
            put_dtype(&mut out, c.dtype);
            put_flag(&mut out, c.nullable);
        }
        put_usizes(&mut out, &self.pk);
        put_u32(&mut out, self.indexes.len() as u32);
        for ix in &self.indexes {
            put_str(&mut out, &ix.name);
            put_u64(&mut out, ix.index_id);
            put_u32(&mut out, ix.space);
            put_usizes(&mut out, &ix.key_cols);
            put_flag(&mut out, ix.is_primary);
        }
        out
    }

    pub fn decode(buf: &[u8]) -> Result<CatalogPayload> {
        let cur = &mut Cursor::new(buf);
        let name = cur.str()?;
        let n_cols = cur.count(MIN_COLUMN_BYTES)?;
        let columns = cur.list(n_cols, |cur| {
            Ok(Column {
                name: cur.str()?,
                dtype: cur.dtype()?,
                nullable: cur.flag()?,
            })
        })?;
        let pk = get_usizes(cur)?;
        let n_ix = cur.count(MIN_INDEX_BYTES)?;
        let indexes = cur.list(n_ix, |cur| {
            Ok(IndexMeta {
                name: cur.str()?,
                index_id: cur.u64()?,
                space: cur.u32()?,
                key_cols: get_usizes(cur)?,
                is_primary: cur.flag()?,
            })
        })?;
        cur.done()?;
        Ok(CatalogPayload {
            name,
            columns,
            pk,
            indexes,
        })
    }
}

impl LoadedPayload {
    /// Fails only on a statistic whose string does not fit the IR
    /// value layout's `u16` length.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(128);
        put_str(&mut out, &self.table);
        put_u32(&mut out, self.shapes.len() as u32);
        for s in &self.shapes {
            put_u32(&mut out, s.space);
            put_u32(&mut out, s.root);
            put_u32(&mut out, s.height);
            put_u32(&mut out, s.n_leaves);
        }
        put_u64(&mut out, self.stats.row_count);
        put_u64(&mut out, self.stats.leaf_pages);
        put_f64(&mut out, self.stats.avg_row_width);
        put_u32(&mut out, self.stats.columns.len() as u32);
        for c in &self.stats.columns {
            put_opt_value(&mut out, &c.min)?;
            put_opt_value(&mut out, &c.max)?;
            put_u64(&mut out, c.ndv);
            put_f64(&mut out, c.avg_width);
        }
        put_u32(&mut out, self.active.len() as u32);
        self.active.iter().for_each(|&a| put_u64(&mut out, a));
        put_u64(&mut out, self.low_limit);
        Ok(out)
    }

    pub fn decode(buf: &[u8]) -> Result<LoadedPayload> {
        let cur = &mut Cursor::new(buf);
        let table = cur.str()?;
        let n_shapes = cur.count(SHAPE_BYTES)?;
        let shapes = cur.list(n_shapes, |cur| {
            Ok(TreeShape {
                space: cur.u32()?,
                root: cur.u32()?,
                height: cur.u32()?,
                n_leaves: cur.u32()?,
            })
        })?;
        let row_count = cur.u64()?;
        let leaf_pages = cur.u64()?;
        let avg_row_width = cur.f64()?;
        let n_cols = cur.count(MIN_STATS_BYTES)?;
        let columns = cur.list(n_cols, |cur| {
            Ok(ColumnStats {
                min: get_opt_value(cur)?,
                max: get_opt_value(cur)?,
                ndv: cur.u64()?,
                avg_width: cur.f64()?,
            })
        })?;
        let n_active = cur.count(8)?;
        let active = cur.list(n_active, Cursor::u64)?;
        let low_limit = cur.u64()?;
        cur.done()?;
        Ok(LoadedPayload {
            table,
            shapes,
            stats: TableStats {
                row_count,
                leaf_pages,
                avg_row_width,
                columns,
            },
            active,
            low_limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{DataType, Dec, Error};

    #[test]
    fn catalog_payload_roundtrip() {
        let schema = TableSchema::new(
            "orders",
            vec![
                Column::new("o_id", DataType::BigInt),
                Column::nullable("o_comment", DataType::Varchar(80)),
                Column::new(
                    "o_total",
                    DataType::Decimal {
                        precision: 15,
                        scale: 2,
                    },
                ),
            ],
            vec![0],
        );
        let p = CatalogPayload::from_parts(
            &schema,
            vec![
                IndexMeta {
                    name: "orders_pk".into(),
                    index_id: 3,
                    space: 7,
                    key_cols: vec![0],
                    is_primary: true,
                },
                IndexMeta {
                    name: "i_total".into(),
                    index_id: 4,
                    space: 8,
                    key_cols: vec![2],
                    is_primary: false,
                },
            ],
        );
        let d = CatalogPayload::decode(&p.encode()).unwrap();
        assert_eq!(d.name, "orders");
        assert_eq!(d.columns, schema.columns);
        assert_eq!(d.pk, vec![0]);
        assert_eq!(d.indexes, p.indexes);
    }

    #[test]
    fn loaded_payload_roundtrip() {
        let p = LoadedPayload {
            table: "t".into(),
            active: vec![4, 9],
            low_limit: 10,
            shapes: vec![TreeShape {
                space: 1,
                root: 9,
                height: 2,
                n_leaves: 8,
            }],
            stats: TableStats {
                row_count: 100,
                leaf_pages: 8,
                avg_row_width: 33.5,
                columns: vec![
                    ColumnStats {
                        min: Some(Value::Int(1)),
                        max: Some(Value::Int(100)),
                        ndv: 100,
                        avg_width: 8.0,
                    },
                    ColumnStats {
                        min: Some(Value::Decimal(Dec::new(150, 2))),
                        max: None,
                        ndv: 7,
                        avg_width: 8.0,
                    },
                ],
            },
        };
        let d = LoadedPayload::decode(&p.encode().unwrap()).unwrap();
        assert_eq!(d.table, "t");
        assert_eq!(d.shapes, p.shapes);
        assert_eq!(d.stats.row_count, 100);
        assert_eq!(d.stats.avg_row_width, 33.5);
        assert_eq!(d.stats.columns[0].min, Some(Value::Int(1)));
        assert_eq!(d.stats.columns[1].min, p.stats.columns[1].min);
        assert_eq!(d.stats.columns[1].max, None);
    }

    fn corrupt<T>(r: Result<T>) -> bool {
        matches!(r, Err(Error::Corruption(_)))
    }

    /// Eight bytes used to ask for a multi-gigabyte allocation: every
    /// count is checked against the bytes behind it first.
    #[test]
    fn hostile_counts_are_corruption_not_an_abort() {
        let max = [0xff; 4];
        let empty = [0u8; 4];
        // Columns, then indexes (no name, no columns, no pk).
        assert!(corrupt(CatalogPayload::decode(&[empty, max].concat())));
        assert!(corrupt(CatalogPayload::decode(
            &[empty, empty, empty, max].concat()
        )));
        // Tree shapes, then column statistics.
        assert!(corrupt(LoadedPayload::decode(&[empty, max].concat())));
        let stats = [&empty[..], &empty, &[0; 24], &max].concat();
        assert!(corrupt(LoadedPayload::decode(&stats)));
    }

    /// Flag bytes are 0 or 1, and a payload is all of its bytes.
    #[test]
    fn flags_are_strict_and_trailing_bytes_refused() {
        let schema = TableSchema::new("t", vec![Column::new("a", DataType::Int)], vec![0]);
        let ix = IndexMeta {
            name: String::new(),
            index_id: 1,
            space: 2,
            key_cols: vec![],
            is_primary: true,
        };
        let cat = CatalogPayload::from_parts(&schema, vec![ix]).encode();
        // name (5) + count (4) + column name (5) + dtype (1): nullable.
        let nullable = 15;
        let primary = cat.len() - 1;
        for at in [nullable, primary] {
            let mut bad = cat.clone();
            bad[at] = 2;
            assert!(corrupt(CatalogPayload::decode(&bad)), "flag at {at}");
        }
        let loaded = LoadedPayload {
            table: String::new(),
            shapes: vec![],
            stats: TableStats {
                row_count: 0,
                leaf_pages: 0,
                avg_row_width: 0.0,
                columns: vec![ColumnStats {
                    min: None,
                    max: Some(Value::Int(1)),
                    ndv: 1,
                    avg_width: 8.0,
                }],
            },
            active: vec![],
            low_limit: 1,
        }
        .encode()
        .unwrap();
        // table (4) + shapes (4) + row count, leaves, width (24) + count (4).
        let min_flag = 36;
        for flag in [min_flag, min_flag + 1] {
            let mut bad = loaded.clone();
            bad[flag] = 2;
            assert!(corrupt(LoadedPayload::decode(&bad)), "flag at {flag}");
        }
        assert!(corrupt(CatalogPayload::decode(&[&cat[..], &[0]].concat())));
        assert!(corrupt(LoadedPayload::decode(
            &[&loaded[..], &[0]].concat()
        )));
    }

    #[test]
    fn truncated_payload_is_corruption() {
        let schema = TableSchema::new("t", vec![Column::new("a", DataType::Int)], vec![0]);
        let enc = CatalogPayload::from_parts(&schema, vec![]).encode();
        assert!(matches!(
            CatalogPayload::decode(&enc[..enc.len() - 1]),
            Err(Error::Corruption(_))
        ));
    }
}
