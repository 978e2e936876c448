//! The scan's decode plan is `RecordView::value`, column for column.
//!
//! Random layouts (fixed-width columns and varchars in any order, so the
//! planned columns sit before, between and after varchars), random values
//! with NULLs and padded CHARs, planned columns in any order and with
//! repeats, over the full layout and over a projected one. The checked
//! constructor accepts every encoded record, with or without the rest of
//! a page behind it, and key encoding from column images equals key
//! encoding from decoded values.
//!
//! The Page Store's projection plan is `encode_record` over the kept
//! columns' decoded values under the NDP layout, byte for byte: random
//! layouts, keeps (every column included) and NULL patterns, with and
//! without an aggregate payload, and whatever bytes a NULL column's image
//! holds in the source.
//!
//! Hostile NDP pages fail closed: an NDP page as a Page Store builds it
//! (projected survivors, ambiguous stored records, a carrier), cut at
//! every byte, with any one byte flipped, or with a stored-type record
//! too short for the stored header at the end of its heap, and resealed
//! so that the parse and not the checksum is under test, gives values or
//! `Corruption` through `iter_chain` and `RecordView::parse` under either
//! layout, never a panic.

use proptest::prelude::*;
use taurus_common::schema::encode_key;
use taurus_common::{DataType, Date32, Dec, Error, SpaceId, Value};
use taurus_page::{
    encode_record, DecodePlan, NdpPageBuilder, Page, ProjectionPlan, RecType, RecordLayout,
    RecordMeta, RecordView, HEADER_LEN,
};

/// One column: its type and a value of that type (or NULL).
fn column() -> impl Strategy<Value = (DataType, Value)> {
    let dec = DataType::Decimal {
        precision: 15,
        scale: 2,
    };
    prop_oneof![
        any::<i32>().prop_map(|v| (DataType::Int, Value::Int(v as i64))),
        any::<i64>().prop_map(|v| (DataType::BigInt, Value::Int(v))),
        (-1_000_000i64..1_000_000).prop_map(move |v| (dec, Value::Decimal(Dec::new(v as i128, 2)))),
        (-20_000i32..20_000).prop_map(|v| (DataType::Date, Value::Date(Date32(v)))),
        // CHAR(n) shorter than n is space padded on write and stripped on
        // read; leading and inner spaces survive.
        (1u16..7, "[a-c ]{0,6}").prop_map(|(n, s)| {
            let s: String = s.chars().take(n as usize).collect();
            (DataType::Char(n), Value::str(s.trim_end_matches(' ')))
        }),
        (0u16..13, "[a-z ]{0,12}").prop_map(|(n, s)| {
            let s: String = s.chars().take(n as usize).collect();
            (DataType::Varchar(n), Value::str(s))
        }),
        (-1000i32..1000).prop_map(|v| (DataType::Double, Value::Double(v as f64 / 8.0))),
        // NULLs of a fixed-width and of a variable-width type.
        Just((DataType::Int, Value::Null)),
        Just((DataType::Varchar(9), Value::Null)),
    ]
}

fn encode(layout: &RecordLayout, values: &[Value], trailing: usize) -> Vec<u8> {
    let meta = RecordMeta {
        rec_type: if layout.is_ndp() {
            RecType::NdpProjection
        } else {
            RecType::Ordinary
        },
        ..RecordMeta::ordinary(7)
    };
    let mut buf = Vec::new();
    encode_record(layout, values, meta, None, &mut buf).unwrap();
    // A record is read out of a page: whatever follows must not matter.
    buf.extend(std::iter::repeat_n(0xA5, trailing));
    buf
}

fn check(layout: &RecordLayout, values: &[Value], picks: &[usize], trailing: usize) {
    let buf = encode(layout, values, trailing);
    let rec = RecordView::parse(&buf, layout).unwrap();
    assert_eq!(rec.values(), values, "round trip");
    let cols: Vec<usize> = picks.iter().map(|p| p % layout.n_cols()).collect();
    let plan = DecodePlan::new(layout, &cols);
    assert_eq!(plan.n_cols(), cols.len());
    let planned: Vec<Value> = plan.values(rec).collect();
    let by_view: Vec<Value> = cols.iter().map(|&c| rec.value(c)).collect();
    assert_eq!(planned, by_view, "layout {:?} cols {cols:?}", layout.dtypes);
    // Keys straight from the column images.
    let mut key = Vec::new();
    rec.key_into(&cols, &mut key);
    let dtypes: Vec<DataType> = cols.iter().map(|&c| layout.dtypes[c]).collect();
    assert_eq!(key, encode_key(&by_view, &dtypes), "cols {cols:?}");
}

/// `plan` over `rec` against re-encoding the kept values.
fn check_projection(
    full: &RecordLayout,
    values: &[Value],
    keep: &[usize],
    payload: Option<&[u8]>,
    trailing: usize,
) {
    let meta = RecordMeta {
        heap_no: 41,
        ..RecordMeta::ordinary(7)
    };
    let mut buf = Vec::new();
    encode_record(full, values, meta, None, &mut buf).unwrap();
    buf.extend(std::iter::repeat_n(0xA5, trailing));
    // A chained record whose NULL fixed-width columns hold stale bytes.
    buf[1..3].copy_from_slice(&0x1234u16.to_le_bytes());
    let probe = RecordView::parse(&buf, full).unwrap();
    let stale: Vec<(usize, usize)> = (0..full.n_cols())
        .filter(|&c| probe.is_null(c))
        .map(|c| {
            let image = probe.field_bytes(c);
            (image.as_ptr() as usize - buf.as_ptr() as usize, image.len())
        })
        .collect();
    for (at, len) in stale {
        buf[at..at + len].fill(0xEE);
    }
    let rec = RecordView::parse(&buf, full).unwrap();
    assert_eq!(rec.values(), values, "stale NULL images do not show");

    let kept: Vec<Value> = keep.iter().map(|&k| values[k].clone()).collect();
    let want_meta = RecordMeta {
        rec_type: match payload {
            Some(_) => RecType::NdpAggregate,
            None => RecType::NdpProjection,
        },
        ..meta
    };
    let mut want = Vec::new();
    encode_record(&full.project(keep), &kept, want_meta, payload, &mut want).unwrap();
    // Appended behind whatever the page already holds.
    let mut got = vec![0x5A; 3];
    ProjectionPlan::new(full, keep)
        .write(rec, payload, &mut got)
        .unwrap();
    // The page sets `next` when it places the record.
    got[3 + 1..3 + 3].fill(0);
    assert_eq!(
        &got[3..],
        &want[..],
        "layout {:?} keep {keep:?}",
        full.dtypes
    );
}

/// An NDP page of records of `full` as a Page Store writes it: record
/// `r` holds `values` with the columns of `null_masks[r]` NULL; the ones
/// `ambiguous` marks pass through as stored, the others are projected to
/// `keep`, and the last of those carries `payload`.
fn ndp_page(
    full: &RecordLayout,
    values: &[Value],
    null_masks: &[u16],
    ambiguous: u16,
    keep: &[usize],
    payload: &[u8],
) -> Page {
    let mut src = Page::new_index(4096, SpaceId(3), 9, 7, 0);
    for mask in null_masks {
        let row: Vec<Value> = values
            .iter()
            .enumerate()
            .map(|(c, v)| match mask >> (c % 16) & 1 {
                1 => Value::Null,
                _ => v.clone(),
            })
            .collect();
        let mut rec = Vec::new();
        encode_record(full, &row, RecordMeta::ordinary(7), None, &mut rec).unwrap();
        src.append_record(&rec).unwrap();
    }
    let plan = ProjectionPlan::new(full, keep);
    let carrier = (0..null_masks.len()).rfind(|r| ambiguous >> r & 1 == 0);
    let mut b = NdpPageBuilder::new(&src);
    for (r, rec) in src.iter_chain().enumerate() {
        let rec = RecordView::parse(rec.unwrap(), full).unwrap();
        if ambiguous >> r & 1 == 1 {
            b.push_record(rec.raw());
        } else {
            let payload = (Some(r) == carrier).then_some(payload);
            b.push_projected(&plan, rec, payload).unwrap();
        }
    }
    b.finish(11)
}

/// Walk `page`'s chain and read every record under both layouts, touching
/// every accessor of a record that parses. Returns how many records parsed
/// under the layout their type names.
fn read_hostile(page: &Page, full: &RecordLayout, ndp: &RecordLayout) -> usize {
    let mut parsed = 0;
    for rec in page.iter_chain() {
        let bytes = match rec {
            Ok(bytes) => bytes,
            Err(Error::Corruption(_)) => continue,
            Err(e) => panic!("chain walk: {e:?}"),
        };
        let named = RecordView::peek_type(bytes).ok().map(RecType::is_ndp);
        for layout in [full, ndp] {
            let rec = match RecordView::parse(bytes, layout) {
                Ok(rec) => rec,
                Err(Error::Corruption(_)) => continue,
                Err(e) => panic!("parse: {e:?}"),
            };
            assert_eq!(
                named,
                Some(layout.is_ndp()),
                "parsed under the other layout"
            );
            parsed += 1;
            let all: Vec<usize> = (0..layout.n_cols()).collect();
            let values = rec.values();
            assert_eq!(
                DecodePlan::new(layout, &all).values(rec).count(),
                values.len()
            );
            for c in 0..layout.n_cols() {
                if let Some(at) = layout.fixed_offset(c) {
                    assert_eq!(rec.field_bytes(c).as_ptr(), rec.backing()[at..].as_ptr());
                }
            }
            let mut key = Vec::new();
            rec.key_into(&all, &mut key);
            assert!(rec.raw().len() == rec.total_len() && rec.total_len() <= bytes.len());
            let _ = (rec.agg_payload(), rec.delete_mark(), rec.next_offset());
            if !layout.is_ndp() {
                let _ = (rec.trx_id(), rec.heap_no());
            }
        }
    }
    parsed
}

/// `bytes` as a page again, its checksum made right.
fn resealed(bytes: Vec<u8>) -> Option<Page> {
    let mut page = Page::from_bytes(bytes).ok()?;
    page.seal();
    Some(page)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn projection_plan_equals_encode_of_projected_values(
        columns in proptest::collection::vec(column(), 1..12),
        keep in proptest::collection::vec(0usize..64, 1..10),
        payload in proptest::collection::vec(any::<u8>(), 0..20),
        trailing in 0usize..40,
    ) {
        let (dtypes, values): (Vec<DataType>, Vec<Value>) = columns.into_iter().unzip();
        let full = RecordLayout::new(dtypes);
        let mut keep: Vec<usize> = keep.iter().map(|k| k % full.n_cols()).collect();
        keep.sort_unstable();
        keep.dedup();
        let all: Vec<usize> = (0..full.n_cols()).collect();
        for keep in [&keep, &all] {
            check_projection(&full, &values, keep, None, trailing);
            check_projection(&full, &values, keep, Some(&payload), trailing);
        }
        // The same without a NULL anywhere (whole runs are copied then).
        let (dtypes, values): (Vec<DataType>, Vec<Value>) = full
            .dtypes
            .iter()
            .zip(&values)
            .filter(|(_, v)| !v.is_null())
            .map(|(dt, v)| (*dt, v.clone()))
            .unzip();
        if !dtypes.is_empty() {
            let full = RecordLayout::new(dtypes);
            let mut keep: Vec<usize> = keep.iter().map(|k| k % full.n_cols()).collect();
            keep.sort_unstable();
            keep.dedup();
            let all: Vec<usize> = (0..full.n_cols()).collect();
            for keep in [&keep, &all] {
                check_projection(&full, &values, keep, None, trailing);
                check_projection(&full, &values, keep, Some(&payload), trailing);
            }
        }
    }

    #[test]
    fn decode_plan_equals_record_view(
        columns in proptest::collection::vec(column(), 1..10),
        picks in proptest::collection::vec(0usize..64, 0..12),
        keep in proptest::collection::vec(0usize..64, 1..8),
        trailing in 0usize..40,
    ) {
        let (dtypes, values): (Vec<DataType>, Vec<Value>) = columns.into_iter().unzip();
        let full = RecordLayout::new(dtypes);
        check(&full, &values, &picks, trailing);

        // The projected layout a Page Store would ship: a subset of the
        // columns in record order.
        let mut keep: Vec<usize> = keep.iter().map(|k| k % full.n_cols()).collect();
        keep.sort_unstable();
        keep.dedup();
        let projected = full.project(&keep);
        let kept: Vec<Value> = keep.iter().map(|&k| values[k].clone()).collect();
        check(&projected, &kept, &picks, trailing);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn hostile_ndp_pages_fail_closed(
        columns in proptest::collection::vec(column(), 1..10),
        null_masks in proptest::collection::vec(any::<u16>(), 1..6),
        keep in proptest::collection::vec(0usize..64, 1..8),
        payload in proptest::collection::vec(any::<u8>(), 0..12),
        odds in (any::<u16>(), 1u8..255, 3usize..13, any::<u8>()),
    ) {
        let (ambiguous, flip, short, tail) = odds;
        let (dtypes, values): (Vec<DataType>, Vec<Value>) = columns.into_iter().unzip();
        let full = RecordLayout::new(dtypes);
        let mut keep: Vec<usize> = keep.iter().map(|k| k % full.n_cols()).collect();
        keep.sort_unstable();
        keep.dedup();
        let ndp = full.project(&keep);
        let page = ndp_page(&full, &values, &null_masks, ambiguous, &keep, &payload);
        // Well formed: every record parses under the layout its type names.
        prop_assert_eq!(read_hostile(&page, &full, &ndp), null_masks.len());
        let bytes = page.bytes().to_vec();
        for cut in 0..bytes.len() {
            if let Some(page) = resealed(bytes[..cut].to_vec()) {
                read_hostile(&page, &full, &ndp);
            }
        }
        for at in 4..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= flip;
            if let Some(page) = resealed(bad) {
                read_hostile(&page, &full, &ndp);
            }
        }
        // A stored-type record shorter than the stored header at the heap
        // end: the chain walk lets it through, and neither layout parses it.
        let mut b = NdpPageBuilder::new(&page);
        for rec in page.iter_chain() {
            let rec = rec.unwrap();
            let layout = if RecordView::peek_type(rec).unwrap().is_ndp() { &ndp } else { &full };
            b.push_record(RecordView::parse(rec, layout).unwrap().raw());
        }
        let mut short_rec = vec![tail; short];
        short_rec[0] = RecType::Ordinary as u8;
        b.push_record(&short_rec);
        let page = b.finish(11);
        let last = page.iter_chain().last().unwrap().unwrap();
        prop_assert_eq!(last.len(), short);
        prop_assert!(matches!(RecordView::parse(last, &full), Err(Error::Corruption(_))));
        prop_assert!(matches!(RecordView::parse(last, &ndp), Err(Error::Corruption(_))));
        prop_assert_eq!(read_hostile(&page, &full, &ndp), null_masks.len());
        prop_assert!(page.bytes().len() > HEADER_LEN);
    }
}
