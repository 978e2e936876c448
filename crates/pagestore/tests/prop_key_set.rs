//! Hostile key sets and join filters at the Page Store.
//!
//! A batch read's descriptor stream is a type-less byte string off the
//! wire, and behind its `DESC` section it may carry the key set of a
//! lookup join's batched key access and the join filter of a hash join's
//! probe scan. Whatever is there, arbitrary bytes or a valid set damaged
//! in one of the ways a set can be (out of order, a key twice, a key a
//! prefix of another, cut short, a count the bytes do not back, a million
//! or four billion keys claimed, bytes behind the last key),
//! `serve_ndp_batch` answers with a typed `Error::Corruption` or with the
//! correct reply: exactly the records whose key extends a listed key. A
//! join filter likewise: cut short, more words claimed than sent (four
//! billion of them), no words, no probes or more than eight, a key column
//! past the record or not an integer, sent twice, ahead of a key set,
//! behind an unknown magic or followed by stray bytes is corruption; a
//! well-formed one keeps exactly the ambiguous records and the visible
//! ones its Bloom filter may contain. Never a panic, never an allocation
//! sized by a count nothing checked (the four-billion claim would be
//! 32 GB).

use std::sync::Arc;

use proptest::prelude::*;
use taurus_common::schema::encode_key;
use taurus_common::{DataType, Date32, Error, Metrics, SliceId, SpaceId, Value};
use taurus_expr::descriptor::{encode_join_filter, encode_key_set, KeyBloom, NdpDescriptor};
use taurus_page::{encode_record, Page, RecordLayout, RecordMeta, RecordView};
use taurus_pagestore::{
    CachedDescriptor, NdpBatchRequest, PagePayload, PageStore, PageStoreConfig, RedoBody,
    RedoRecord,
};

const WATERMARK: u64 = 100;
const PAGES: u32 = 3;
const GROUPS_PER_PAGE: i64 = 6;
const ROWS_PER_GROUP: i64 = 4;

fn dtypes() -> Vec<DataType> {
    vec![
        DataType::BigInt,
        DataType::Int,
        DataType::BigInt,
        DataType::Date,
    ]
}

/// `(g, n, val, day)` records keyed by `(g, n)`: groups of four, every
/// fifth record newer than the watermark, `val` = `g * 10 + n`.
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
                    &[
                        Value::Int(g),
                        Value::Int(n),
                        Value::Int(g * 10 + n),
                        Value::Date(Date32(9000 + n as i32)),
                    ],
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
    let reply = ps.serve_ndp_batch(&req)?;
    // Served, so the descriptor is sound: it says the reply's layouts.
    let desc_len = NdpDescriptor::section_len(&req.descriptor)?;
    let cd = CachedDescriptor::prepare(&req.descriptor[..desc_len])?;
    let mut out = Vec::new();
    for result in reply {
        let PagePayload::Ndp(page) = result.payload else {
            panic!("nothing degrades here: a key set is work, and the pool is idle");
        };
        for rec in page.iter_chain() {
            // Ambiguous records come back stored, the others as NDP
            // records; projected or not, the key columns lead.
            let bytes = rec.unwrap();
            let layout = match RecordView::peek_type(bytes)?.is_ndp() {
                true => &cd.ndp_layout,
                false => &cd.layout,
            };
            let rec = RecordView::parse(bytes, layout).unwrap();
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
    encode_key_set(keys.iter().map(Vec::as_slice), &mut out).unwrap();
    out
}

/// A Bloom filter over `keys`, sized as a probe scan sizes one.
fn bloom_of(keys: &[i64]) -> KeyBloom {
    let mut bloom = KeyBloom::new(keys.len() * 10 / 64 + 1, 3);
    for &k in keys {
        bloom.insert(k);
    }
    bloom
}

fn filter_section(pos: u16, keys: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_join_filter(pos, &bloom_of(keys), &mut out);
    out
}

/// The integer columns of a record, by position.
fn int_columns(g: i64, n: i64) -> [i64; 3] {
    [g, n, g * 10 + n]
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

    #[test]
    fn a_well_formed_join_filter_keeps_the_ambiguous_and_what_it_may_contain(
        keys in proptest::collection::vec(-5i64..600, 0..40),
        pos in 0u16..3,
        projection in any::<bool>(),
        behind_a_key_set in any::<bool>(),
    ) {
        let (ps, sid, records) = store();
        let bloom = bloom_of(&keys);
        let mut stream = desc_section(projection);
        // Every group's prefix: a key set that lets every record through.
        let every: Vec<Vec<u8>> = well_formed(records.iter().map(|&(g, _)| group_key(g)).collect());
        if behind_a_key_set {
            stream.extend(section(&every));
        }
        encode_join_filter(pos, &bloom, &mut stream);
        let want: Vec<(i64, i64)> = records
            .iter()
            .enumerate()
            .filter(|&(i, &(g, n))| i % 5 == 4 || bloom.may_contain(int_columns(g, n)[pos as usize]))
            .map(|(_, &r)| r)
            .collect();
        // No false negatives: every record whose value went in is there.
        for (i, &(g, n)) in records.iter().enumerate() {
            if keys.contains(&int_columns(g, n)[pos as usize]) {
                prop_assert!(want.contains(&(g, n)), "record {i}");
            }
        }
        prop_assert_eq!(served(&ps, sid, stream).unwrap(), want);
    }

    #[test]
    fn a_damaged_join_filter_is_corruption(
        keys in proptest::collection::vec(0i64..600, 1..40),
        damage in 0usize..13,
        at in any::<u32>(),
    ) {
        let (ps, sid, _) = store();
        let good = filter_section(0, &keys);
        let words = (good.len() - 11) / 8;
        let with = |from: usize, bytes: &[u8]| {
            let mut s = good.clone();
            s[from..from + bytes.len()].copy_from_slice(bytes);
            s
        };
        let key_set = section(&[group_key(3)]);
        let at = at as usize;
        let damaged: Vec<u8> = match damage {
            0 => good[..1 + at % (good.len() - 1)].to_vec(),
            1 => with(7, &((words + 1 + at % 9) as u32).to_le_bytes()),
            2 => with(7, &u32::MAX.to_le_bytes()),
            3 => with(7, &0u32.to_le_bytes()),
            4 => with(6, &[0]),
            5 => with(6, &[9 + (at % 247) as u8]),
            6 => with(4, &((4 + at % 1000) as u16).to_le_bytes()),
            7 => with(4, &3u16.to_le_bytes()),
            8 => [&good[..], &good[..]].concat(),
            9 => [&good[..], &key_set[..]].concat(),
            10 => with(at % 4, b"j"),
            11 => [&good[..], &[0xAB; 7][..1 + at % 7]].concat(),
            _ => [&key_set[..], &key_set[..], &good[..]].concat(),
        };
        let mut stream = desc_section(true);
        stream.extend(damaged);
        match served(&ps, sid, stream) {
            Err(Error::Corruption(_)) => {}
            other => panic!("damage {damage}: not the typed error: {other:?}"),
        }
    }

    #[test]
    fn arbitrary_bytes_behind_a_join_filter_magic_never_panic(
        trailer in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let (ps, sid, records) = store();
        let mut stream = desc_section(true);
        stream.extend_from_slice(b"JFLT");
        stream.extend(&trailer);
        match served(&ps, sid, stream) {
            Err(Error::Corruption(_)) => {}
            Err(other) => panic!("not the typed error: {other:?}"),
            // A filter can only take records away.
            Ok(got) => prop_assert!(got.iter().all(|r| records.contains(r))),
        }
    }
}
