//! The scan's decode plan is `RecordView::value`, column for column.
//!
//! Random layouts (fixed-width columns and varchars in any order, so the
//! planned columns sit before, between and after varchars), random values
//! with NULLs and padded CHARs, planned columns in any order and with
//! repeats, over the full layout and over a projected one. The checked
//! constructor accepts every encoded record, with or without the rest of
//! a page behind it, and key encoding from column images equals key
//! encoding from decoded values.

use proptest::prelude::*;
use taurus_common::schema::encode_key;
use taurus_common::{DataType, Date32, Dec, Value};
use taurus_page::{encode_record, DecodePlan, RecordLayout, RecordMeta, RecordView};

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

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
