//! Log fuzz: redo batches and the replication payloads they carry, as a
//! replica's tailer reads them off a Log Store.
//!
//! Arbitrary bytes, and valid batches and payloads truncated, bit-flipped,
//! overwritten or extended, go to `RedoRecord::decode_batch`,
//! `CatalogPayload::decode` and `LoadedPayload::decode`. Whatever the
//! bytes, they return rather than panic or abort; a refusal is
//! `Error::Corruption`; and whatever decodes re-encodes to the bytes it
//! was decoded from.

use proptest::prelude::*;
use taurus::common::schema::{Column, TableSchema};
use taurus::common::{DataType, Date32, Dec, Error, SpaceId, Value};
use taurus::ndp::replication::{CatalogPayload, IndexMeta, LoadedPayload, TreeShape};
use taurus::ndp::{ColumnStats, TableStats};
use taurus::pagestore::{RedoBody, RedoRecord};

fn catalog() -> Vec<u8> {
    let schema = TableSchema::new(
        "orders",
        vec![
            Column::new("o_id", DataType::BigInt),
            Column::nullable(
                "o_total",
                DataType::Decimal {
                    precision: 15,
                    scale: 2,
                },
            ),
            Column::new("o_note", DataType::Varchar(44)),
        ],
        vec![0],
    );
    let index = |name: &str, key_cols: Vec<usize>, is_primary| IndexMeta {
        name: name.into(),
        index_id: 3,
        space: 7,
        key_cols,
        is_primary,
    };
    CatalogPayload::from_parts(
        &schema,
        vec![
            index("orders_pk", vec![0], true),
            index("i_total", vec![1, 0], false),
        ],
    )
    .encode()
}

fn loaded() -> Vec<u8> {
    let stats = |min: Option<Value>, max: Option<Value>| ColumnStats {
        min,
        max,
        ndv: 9,
        avg_width: 8.5,
    };
    LoadedPayload {
        table: "orders".into(),
        shapes: vec![TreeShape {
            space: 7,
            root: 9,
            height: 2,
            n_leaves: 8,
        }],
        stats: TableStats {
            row_count: 100,
            leaf_pages: 8,
            avg_row_width: 33.5,
            columns: vec![
                stats(Some(Value::Int(-1)), Some(Value::Int(99))),
                stats(Some(Value::Decimal(Dec::new(150, 2))), None),
                stats(Some(Value::str("a")), Some(Value::Date(Date32(3)))),
                stats(None, Some(Value::Double(0.5))),
            ],
        },
        active: vec![4, 9],
        low_limit: 10,
    }
    .encode()
    .unwrap()
}

fn redo_batch() -> Vec<u8> {
    let bodies = vec![
        RedoBody::NewPage(vec![7; 24]),
        RedoBody::InsertRecord {
            slot_idx: 1,
            rec: vec![1, 2, 3],
        },
        RedoBody::SetDeleteMark {
            rec_at: 40,
            mark: true,
        },
        RedoBody::WriteBytes {
            at: 8,
            bytes: vec![9, 9],
        },
        RedoBody::SetNext(3),
        RedoBody::SetPrev(1),
        RedoBody::FreePage,
        RedoBody::SysCatalog(catalog()),
        RedoBody::SysLoaded(loaded()),
        RedoBody::SysUndo {
            key: vec![1, 0],
            writer: 5,
            prev: Some(vec![4, 4]),
        },
        RedoBody::SysUndo {
            key: vec![2],
            writer: 6,
            prev: None,
        },
        RedoBody::SysTrxEnd {
            trx: 5,
            aborted: false,
            active: vec![6],
            low_limit: 7,
        },
        RedoBody::SysShape {
            root: 3,
            height: 2,
            n_leaves: 4,
        },
    ];
    let records: Vec<RedoRecord> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| RedoRecord {
            lsn: 10 + i as u64,
            space: SpaceId(1),
            page_no: 2,
            body,
        })
        .collect();
    RedoRecord::encode_batch(&records)
}

fn seeds() -> [Vec<u8>; 3] {
    [redo_batch(), catalog(), loaded()]
}

/// Every decoder on `bytes`: a refusal is `Corruption`, and an accepted
/// input is exactly its bytes.
fn check(bytes: &[u8]) {
    let refused = |e: Error| assert!(matches!(e, Error::Corruption(_)), "{e:?}");
    match RedoRecord::decode_batch(bytes) {
        Ok(records) => assert_eq!(RedoRecord::encode_batch(&records), bytes),
        Err(e) => refused(e),
    }
    match CatalogPayload::decode(bytes) {
        Ok(p) => assert_eq!(p.encode(), bytes),
        Err(e) => refused(e),
    }
    match LoadedPayload::decode(bytes) {
        Ok(p) => assert_eq!(p.encode().unwrap(), bytes),
        Err(e) => refused(e),
    }
}

#[test]
fn every_seed_decodes() {
    let [batch, catalog, loaded] = seeds();
    assert_eq!(RedoRecord::decode_batch(&batch).unwrap().len(), 13);
    CatalogPayload::decode(&catalog).unwrap();
    LoadedPayload::decode(&loaded).unwrap();
    for seed in seeds() {
        check(&seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        count in any::<u32>(),
    ) {
        check(&bytes);
        // The same bytes behind a leading count of any size.
        check(&[&count.to_le_bytes()[..], &bytes].concat());
    }

    #[test]
    fn mutated_batches_and_payloads_fail_closed(
        pick in any::<usize>(),
        edits in proptest::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..4),
    ) {
        let seeds = seeds();
        let mut bytes = seeds[pick % seeds.len()].clone();
        for (kind, at, byte) in edits {
            let at = at % bytes.len().max(1);
            match kind {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
                2 if at < bytes.len() => bytes[at] = byte,
                _ => bytes.insert(at.min(bytes.len()), byte),
            }
        }
        check(&bytes);
    }
}
