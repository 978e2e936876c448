//! Hostile key sets at the Page Store.
//!
//! A batch read's descriptor stream is a type-less byte string off the
//! wire, and behind its `DESC` section it may carry the key set of a
//! lookup join's batched key access. Whatever is there, arbitrary bytes or
//! a valid set damaged in one of the ways a set can be (out of order,
//! a key twice, a key a prefix of another, cut short, a count the bytes do
//! not back, a million or four billion keys claimed, bytes behind the last
//! key), `serve_ndp_batch` answers with a typed `Error::Corruption` or
//! with the correct reply: exactly the records whose key extends a listed
//! key. Never a panic, never an allocation sized by a count nothing
//! checked (the four-billion claim would be 32 GB).

use std::sync::Arc;

use proptest::prelude::*;
use taurus_common::schema::encode_key;
use taurus_common::{DataType, Error, Metrics, SliceId, SpaceId, Value};
use taurus_expr::descriptor::{encode_key_set, NdpDescriptor};
use taurus_page::{encode_record, Page, RecordLayout, RecordMeta, RecordView};
use taurus_pagestore::{
    NdpBatchRequest, PagePayload, PageStore, PageStoreConfig, RedoBody, RedoRecord,
};

const WATERMARK: u64 = 100;
const PAGES: u32 = 3;
const GROUPS_PER_PAGE: i64 = 6;
const ROWS_PER_GROUP: i64 = 4;

fn dtypes() -> Vec<DataType> {
    vec![DataType::BigInt, DataType::Int, DataType::BigInt]
}

/// `(g, n, val)` records keyed by `(g, n)`: groups of four, every fifth
/// record newer than the watermark.
fn store() -> (Arc<PageStore>, SliceId, Vec<(i64, i64)>) {
    let ps = PageStore::new(
        0,
        PageStoreConfig {
            slice_pages: 64,
            ..Default::default()
        },
        Metrics::shared(),
    );
    let sid = SliceId::of(SpaceId(1), 0, 64);
    ps.create_slice(sid);
    let layout = RecordLayout::new(dtypes());
    let mut keys = Vec::new();
    for no in 0..PAGES {
        let mut page = Page::new_index(4096, SpaceId(1), no, 7, 0);
        for g in 0..GROUPS_PER_PAGE {
            let g = (no as i64 * GROUPS_PER_PAGE + g) * 3;
            for n in 0..ROWS_PER_GROUP {
                let trx = if keys.len() % 5 == 4 {
                    WATERMARK + 1
                } else {
                    1
                };
                let mut rec = Vec::new();
                encode_record(
                    &layout,
                    &[Value::Int(g), Value::Int(n), Value::Int(g * 10 + n)],
                    RecordMeta::ordinary(trx),
                    None,
                    &mut rec,
                )
                .unwrap();
                page.append_record(&rec).unwrap();
                keys.push((g, n));
            }
        }
        ps.apply_redo(&[RedoRecord {
            lsn: no as u64 + 1,
            space: SpaceId(1),
            page_no: no,
            body: RedoBody::NewPage(page.into_bytes()),
        }])
        .unwrap();
    }
    (ps, sid, keys)
}

fn desc_section(projection: bool) -> Vec<u8> {
    NdpDescriptor {
        index_id: 7,
        record_dtypes: dtypes(),
        key_positions: vec![0, 1],
        projection: projection.then(|| vec![0, 1]),
        predicate_bitcode: None,
        aggregation: None,
        low_watermark: WATERMARK,
    }
    .encode()
}

fn record_key(g: i64, n: i64) -> Vec<u8> {
    encode_key(
        &[Value::Int(g), Value::Int(n)],
        &[DataType::BigInt, DataType::Int],
    )
}

fn group_key(g: i64) -> Vec<u8> {
    encode_key(&[Value::Int(g)], &[DataType::BigInt])
}

/// The `(g, n)` of every record that came back, in reply order.
fn served(ps: &PageStore, sid: SliceId, stream: Vec<u8>) -> taurus_common::Result<Vec<(i64, i64)>> {
    let req = NdpBatchRequest {
        slice: sid,
        pages: (0..PAGES).collect(),
        read_lsn: 10,
        descriptor: Arc::new(stream),
        tenant: taurus_common::DEFAULT_TENANT,
    };
    let full = RecordLayout::new(dtypes());
    let mut out = Vec::new();
    for result in ps.serve_ndp_batch(&req)? {
        let PagePayload::Ndp(page) = result.payload else {
            panic!("nothing degrades here: a key set is work, and the pool is idle");
        };
        for rec in page.iter_chain() {
            // Projected or not, the key columns lead the record.
            let rec = RecordView::new(rec.unwrap(), &full);
            out.push((
                rec.value(0).as_int().unwrap(),
                rec.value(1).as_int().unwrap(),
            ));
        }
    }
    Ok(out)
}

/// A listed key: a group's prefix or a record's full key, present or not.
fn listed_key() -> impl Strategy<Value = Vec<u8>> {
    let groups = PAGES as i64 * GROUPS_PER_PAGE * 3;
    prop_oneof![
        (-2..groups + 2).prop_map(group_key),
        (-2..groups + 2, 0..ROWS_PER_GROUP + 1).prop_map(|(g, n)| record_key(g, n)),
        // Longer than any record's key: valid, matches nothing.
        (0..groups, proptest::collection::vec(any::<u8>(), 1..40)).prop_map(|(g, tail)| {
            let mut key = record_key(g, 1);
            key.extend(tail);
            key
        }),
    ]
}

/// Sorted, without repeats, no key a prefix of another: what a join sends.
fn well_formed(mut keys: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    keys.sort();
    keys.dedup();
    let mut out: Vec<Vec<u8>> = Vec::new();
    for key in keys {
        if !out.last().is_some_and(|prev| key.starts_with(prev)) {
            out.push(key);
        }
    }
    out
}

fn section(keys: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_key_set(keys.iter().map(Vec::as_slice), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_well_formed_key_set_gets_exactly_its_records(
        keys in proptest::collection::vec(listed_key(), 0..24),
        projection in any::<bool>(),
    ) {
        let (ps, sid, records) = store();
        let keys = well_formed(keys);
        let mut stream = desc_section(projection);
        stream.extend(section(&keys));
        let want: Vec<(i64, i64)> = records
            .into_iter()
            .filter(|&(g, n)| keys.iter().any(|k| record_key(g, n).starts_with(k)))
            .collect();
        prop_assert_eq!(served(&ps, sid, stream).unwrap(), want);
    }

    #[test]
    fn a_damaged_key_set_is_corruption_or_still_correct(
        keys in proptest::collection::vec(listed_key(), 2..16),
        damage in 0usize..8,
        at in any::<u32>(),
    ) {
        let (ps, sid, records) = store();
        let keys = well_formed(keys);
        let at = at as usize;
        let mut listed = keys.clone();
        let mut trailer = section(&keys);
        // Is the damaged trailer still a well-formed set (of `listed`)?
        let mut valid = false;
        match damage {
            0 if keys.len() >= 2 => listed.swap(0, keys.len() - 1),
            1 => listed.insert(at % keys.len(), keys[at % keys.len()].clone()),
            2 => {
                // A key that another extends.
                let k = &keys[at % keys.len()];
                listed.insert(at % keys.len(), k[..k.len() - 1].to_vec());
                valid = well_formed(listed.clone()) == listed;
            }
            3 => trailer.truncate(1 + at % (trailer.len() - 1)),
            4 => trailer[4..8].copy_from_slice(&(keys.len() as u32 + 1 + at as u32 % 9).to_le_bytes()),
            5 => trailer[4..8].copy_from_slice(&[1_000_000u32, u32::MAX][at % 2].to_le_bytes()),
            6 => trailer.extend_from_slice(&[0xAB; 3][..1 + at % 3]),
            _ => {
                // No damage: an empty set is a set.
                listed.clear();
                valid = true;
            }
        }
        if damage <= 2 || damage > 6 {
            trailer = section(&listed);
        }
        let mut stream = desc_section(true);
        stream.extend(trailer);
        match served(&ps, sid, stream) {
            Err(Error::Corruption(_)) => prop_assert!(!valid, "refused a well-formed set"),
            Err(other) => panic!("not the typed error: {other:?}"),
            Ok(got) => {
                prop_assert!(valid, "accepted damage {damage}");
                let want: Vec<(i64, i64)> = records
                    .into_iter()
                    .filter(|&(g, n)| listed.iter().any(|k| record_key(g, n).starts_with(k)))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn arbitrary_bytes_behind_the_descriptor_never_panic(
        trailer in proptest::collection::vec(any::<u8>(), 0..96),
        magic in any::<bool>(),
    ) {
        let (ps, sid, records) = store();
        // A projection, so that without a key set there is still work and
        // the reply is NDP pages.
        let mut stream = desc_section(true);
        if magic {
            // Past the magic, so that the count and the keys are reached.
            stream.extend_from_slice(b"KEYS");
        }
        stream.extend(&trailer);
        let no_section = !magic && trailer.is_empty();
        match served(&ps, sid, stream) {
            Err(Error::Corruption(_)) => prop_assert!(!no_section),
            Err(other) => panic!("not the typed error: {other:?}"),
            // No section: every record. Random bytes that are a key set
            // name a record of this table by a miracle at best.
            Ok(got) if no_section => prop_assert_eq!(got, records),
            Ok(got) => prop_assert!(got.len() < records.len()),
        }
    }
}
