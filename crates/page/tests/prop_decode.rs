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
//! columns' decoded values, byte for byte: random layouts, keeps and NULL
//! patterns, with and without an aggregate payload, and whatever bytes a
//! NULL column's image holds in the source.

use proptest::prelude::*;
use taurus_common::schema::encode_key;
use taurus_common::{DataType, Date32, Dec, Value};
use taurus_page::{
    encode_record, DecodePlan, ProjectionPlan, RecType, RecordLayout, RecordMeta, RecordView,
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
    let mut buf = Vec::new();
    encode_record(layout, values, RecordMeta::ordinary(7), None, &mut buf).unwrap();
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
    keep: Option<&[usize]>,
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

    let all: Vec<usize> = (0..full.n_cols()).collect();
    let kept_cols = keep.unwrap_or(&all);
    let kept: Vec<Value> = kept_cols.iter().map(|&k| values[k].clone()).collect();
    let want_meta = RecordMeta {
        rec_type: match (payload, keep) {
            (Some(_), _) => RecType::NdpAggregate,
            (None, Some(_)) => RecType::NdpProjection,
            (None, None) => RecType::Ordinary,
        },
        ..meta
    };
    let mut want = Vec::new();
    encode_record(
        &full.project(kept_cols),
        &kept,
        want_meta,
        payload,
        &mut want,
    )
    .unwrap();
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
        for keep in [Some(&keep[..]), None] {
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
            for keep in [Some(&keep[..]), None] {
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
