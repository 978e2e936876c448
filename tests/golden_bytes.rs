//! Golden bytes, one test per binary format that crosses a tier: wire
//! frames, redo batches, replication payloads, the NDP descriptor stream
//! (`DESC` + `KEYS` + `JFLT`), IR bitcode, aggregate partial states and
//! the NDP page a Page Store returns.
//!
//! Each sample is encoded and compared against hex pinned from the
//! encoders as they stood before the formats moved onto one shared
//! codec (the NDP page: as it stood when its records took the 3-byte NDP
//! header); then the pinned hex is decoded and must give the sample (or
//! re-encode to the same bytes, for types without `PartialEq`). A change
//! to any of these bytes changes what is on a wire, in the log or in a
//! descriptor-cache key, so it must be deliberate.

use std::sync::Arc;

use taurus::common::schema::{Column, TableSchema};
use taurus::common::{DataType, Date32, Dec, RowBatch, SpaceId, Value};
use taurus::expr::agg::{decode_states, encode_states, AggFunc, AggInput, AggSpec, AggState};
use taurus::expr::descriptor::{
    encode_join_filter, encode_key_set, KeyBloom, NdpAggSpec, NdpDescriptor, Sections,
};
use taurus::expr::ir::{IrInstr, IrProgram};
use taurus::expr::{ArithOp, CmpOp};
use taurus::ndp::replication::{CatalogPayload, IndexMeta, LoadedPayload, TreeShape};
use taurus::ndp::{ColumnStats, TableStats};
use taurus::page::{
    encode_record, NdpPageBuilder, Page, PageType, ProjectionPlan, RecType, RecordLayout,
    RecordMeta, RecordView,
};
use taurus::pagestore::{RedoBody, RedoRecord};
use taurus::protocol::{decode_message, Message, QueryRequest};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// The bytes an encoder appends to an empty buffer, whatever it returns.
fn appended<R>(encode: impl FnOnce(&mut Vec<u8>) -> R) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = encode(&mut out);
    out
}

/// An encoder's output, whether it can fail or not.
trait Encoded {
    fn bytes(self) -> Vec<u8>;
}

impl Encoded for Vec<u8> {
    fn bytes(self) -> Vec<u8> {
        self
    }
}

impl Encoded for taurus::common::Result<Vec<u8>> {
    fn bytes(self) -> Vec<u8> {
        self.unwrap()
    }
}

fn assert_hex(what: &str, bytes: &[u8], want: &str) {
    assert_eq!(hex(bytes), want, "{what}: bytes moved");
}

fn all_values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(-7),
        Value::Decimal(Dec::new(-12345, 2)),
        Value::Date(Date32(9000)),
        Value::str("né"),
        Value::Double(2.5),
    ]
}

#[test]
fn wire_frames_are_pinned() {
    let frame = |m: &Message| appended(|b| m.write(b));
    let query = Message::Query(QueryRequest::Lookup {
        table: "orders".into(),
        pk: all_values(),
    });
    let sql = Message::Query(QueryRequest::Sql {
        text: "select 1".into(),
        ndp: true,
    });
    let mut batch = RowBatch::with_capacity(3, 2);
    let v = all_values();
    batch.push_row([v[0].clone(), v[1].clone(), v[2].clone()]);
    batch.push_row([v[3].clone(), v[4].clone(), v[5].clone()]);
    let rows = Message::RowBatch(batch.clone());
    for (what, m, want) in [
        ("lookup query frame", &query, QUERY_FRAME),
        ("sql query frame", &sql, SQL_FRAME),
        ("row batch frame", &rows, ROW_BATCH_FRAME),
    ] {
        let bytes = frame(m);
        assert_hex(what, &bytes, want);
        let back = decode_message(bytes[5], &bytes[6..]).unwrap();
        match (&back, m) {
            (Message::RowBatch(got), Message::RowBatch(want)) => {
                assert_eq!(got.to_rows(), want.to_rows())
            }
            _ => assert_eq!(&back, m, "{what}"),
        }
    }
}

fn every_redo_body() -> Vec<RedoRecord> {
    let bodies = vec![
        RedoBody::NewPage(vec![1, 2, 3, 4]),
        RedoBody::InsertRecord {
            slot_idx: 3,
            rec: vec![9, 8, 7],
        },
        RedoBody::SetDeleteMark {
            rec_at: 300,
            mark: true,
        },
        RedoBody::WriteBytes {
            at: 17,
            bytes: vec![0xaa, 0xbb],
        },
        RedoBody::SetNext(6),
        RedoBody::SetPrev(4),
        RedoBody::FreePage,
        RedoBody::SysCatalog(vec![5, 5]),
        RedoBody::SysLoaded(vec![6]),
        RedoBody::SysUndo {
            key: vec![1, 0, 7],
            writer: 42,
            prev: Some(vec![3, 3]),
        },
        RedoBody::SysTrxEnd {
            trx: 42,
            aborted: true,
            active: vec![40, 44],
            low_limit: 45,
        },
        RedoBody::SysShape {
            root: 7,
            height: 2,
            n_leaves: 5,
        },
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| RedoRecord {
            lsn: 100 + i as u64,
            space: SpaceId(2),
            page_no: 9,
            body,
        })
        .collect()
}

#[test]
fn redo_batch_with_every_body_is_pinned() {
    let records = every_redo_body();
    assert_eq!(records.len(), 12);
    let bytes = RedoRecord::encode_batch(&records);
    assert_hex("redo batch", &bytes, REDO_BATCH);
    assert_eq!(
        RedoRecord::decode_batch(&unhex(REDO_BATCH)).unwrap(),
        records
    );
}

fn catalog() -> CatalogPayload {
    let schema = TableSchema::new(
        "orders",
        vec![
            Column::new("o_id", DataType::BigInt),
            Column::new("o_n", DataType::Int),
            Column::nullable(
                "o_total",
                DataType::Decimal {
                    precision: 15,
                    scale: 2,
                },
            ),
            Column::new("o_day", DataType::Date),
            Column::new("o_flag", DataType::Char(1)),
            Column::nullable("o_note", DataType::Varchar(300)),
            Column::new("o_x", DataType::Double),
        ],
        vec![0],
    );
    CatalogPayload::from_parts(
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
                name: "i_day".into(),
                index_id: 4,
                space: 8,
                key_cols: vec![3, 0],
                is_primary: false,
            },
        ],
    )
}

fn loaded() -> LoadedPayload {
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
                ColumnStats {
                    min: Some(Value::Int(1)),
                    max: Some(Value::str("zz")),
                    ndv: 100,
                    avg_width: 8.0,
                },
                ColumnStats {
                    min: Some(Value::Decimal(Dec::new(150, 2))),
                    max: None,
                    ndv: 7,
                    avg_width: 8.25,
                },
            ],
        },
        active: vec![4, 9],
        low_limit: 10,
    }
}

#[test]
fn replication_payloads_are_pinned() {
    let cat = catalog().encode().bytes();
    assert_hex("catalog payload", &cat, CATALOG_PAYLOAD);
    let back = CatalogPayload::decode(&unhex(CATALOG_PAYLOAD)).unwrap();
    assert_eq!(hex(&back.encode().bytes()), CATALOG_PAYLOAD);
    assert_eq!(back.columns, catalog().columns);
    assert_eq!(back.indexes, catalog().indexes);

    let load = loaded().encode().bytes();
    assert_hex("loaded payload", &load, LOADED_PAYLOAD);
    let back = LoadedPayload::decode(&unhex(LOADED_PAYLOAD)).unwrap();
    assert_eq!(hex(&back.encode().bytes()), LOADED_PAYLOAD);
    assert_eq!(back.shapes, loaded().shapes);
    assert_eq!(back.stats.columns[0].max, Some(Value::str("zz")));
}

/// A program that uses every one of the 18 opcodes and validates.
fn every_opcode() -> IrProgram {
    use IrInstr::*;
    IrProgram {
        instrs: vec![
            LoadCol { dst: 0, col: 1 },
            LoadConst { dst: 1, idx: 0 },
            Mov { dst: 2, src: 0 },
            Cmp {
                op: CmpOp::Le,
                dst: 3,
                a: 0,
                b: 1,
            },
            And { dst: 4, a: 3, b: 3 },
            Or { dst: 4, a: 4, b: 3 },
            Not { dst: 4, a: 4 },
            Arith {
                op: ArithOp::Mul,
                dst: 5,
                a: 0,
                b: 1,
            },
            Neg { dst: 5, a: 5 },
            IsNull {
                dst: 6,
                a: 5,
                negated: true,
            },
            Like {
                dst: 6,
                a: 2,
                pattern: 1,
                negated: false,
            },
            InList {
                dst: 6,
                a: 0,
                first: 2,
                count: 2,
                negated: true,
            },
            ExtractYear { dst: 7, a: 2 },
            Substr {
                dst: 7,
                a: 2,
                from: 1,
                len: 3,
            },
            BrFalse {
                cond: 6,
                target: 17,
            },
            BrTrue {
                cond: 4,
                target: 17,
            },
            Jmp { target: 17 },
            Ret { src: 6 },
        ],
        consts: vec![
            Value::Int(5),
            Value::str("%ab_"),
            Value::Decimal(Dec::new(150, 2)),
            Value::Date(Date32(-3)),
            Value::Double(-0.5),
            Value::Null,
        ],
        n_regs: 8,
    }
}

#[test]
fn bitcode_with_every_opcode_is_pinned() {
    let p = every_opcode();
    p.validate().unwrap();
    let bytes = p.encode_bitcode().unwrap();
    assert_hex("bitcode", &bytes, BITCODE);
    assert_eq!(IrProgram::decode_bitcode(&unhex(BITCODE)).unwrap(), p);
}

fn descriptor() -> NdpDescriptor {
    let bc = every_opcode().encode_bitcode().unwrap();
    NdpDescriptor {
        index_id: 42,
        record_dtypes: vec![
            DataType::BigInt,
            DataType::Int,
            DataType::Date,
            DataType::Decimal {
                precision: 15,
                scale: 2,
            },
            DataType::Char(10),
            DataType::Varchar(44),
            DataType::Double,
        ],
        key_positions: vec![0, 1],
        projection: Some(vec![0, 1, 2, 3]),
        predicate_bitcode: Some(bc.clone()),
        aggregation: Some(NdpAggSpec {
            specs: vec![
                AggSpec::count_star(),
                AggSpec::sum(3),
                AggSpec {
                    func: AggFunc::Max,
                    input: AggInput::Program(bc),
                },
            ],
            group_cols: vec![2, 0],
            having: None,
        }),
        low_watermark: 17,
    }
}

#[test]
fn descriptor_stream_is_pinned() {
    let d = descriptor();
    let mut stream = d.encode();
    let desc_len = stream.len();
    let keys: [&[u8]; 2] = [b"a1", b"b"];
    stream.extend(appended(|b| encode_key_set(keys.iter().copied(), b)));
    let mut bloom = KeyBloom::new(2, 3);
    bloom.insert(4);
    bloom.insert(-9);
    encode_join_filter(1, &bloom, &mut stream);
    assert_hex("DESC+KEYS+JFLT stream", &stream, DESCRIPTOR_STREAM);

    let stream = Arc::new(unhex(DESCRIPTOR_STREAM));
    assert_eq!(NdpDescriptor::section_len(&stream).unwrap(), desc_len);
    assert_eq!(NdpDescriptor::decode(&stream[..desc_len]).unwrap(), d);
    let sections = Sections::parse(&stream, desc_len, &d.record_dtypes).unwrap();
    let set = sections.keys.unwrap();
    assert_eq!(
        (set.len(), set.get(0), set.get(1)),
        (2, &b"a1"[..], &b"b"[..])
    );
    let filter = sections.join_filter.unwrap();
    assert_eq!((filter.pos, filter.width), (1, 4));
    assert_eq!(filter.bloom, bloom);
}

#[test]
fn aggregate_states_of_every_kind_are_pinned() {
    let states = vec![
        AggState::Count(42),
        AggState::SumDec {
            raw: -123456,
            scale: 2,
            seen: true,
        },
        AggState::SumDec {
            raw: 0,
            scale: 0,
            seen: false,
        },
        AggState::SumF64 {
            sum: 2.5,
            seen: true,
        },
        AggState::Min(Some(Value::str("ACME"))),
        AggState::Min(None),
        AggState::Max(Some(Value::Date(Date32(77)))),
        AggState::Max(None),
    ];
    let bytes = appended(|b| encode_states(&states, b));
    assert_hex("aggregate states", &bytes, AGG_STATES);
    assert_eq!(decode_states(&unhex(AGG_STATES)).unwrap(), states);
}

/// Stored records `(id BIGINT, n INT, note VARCHAR(10), day DATE)`, and
/// an NDP page of them that keeps `(id, n, note)`: a survivor with a NULL
/// and a varchar, an ambiguous record as it is stored, a group's carrier
/// with its partial; then the empty marker of the same source page.
fn ndp_pages() -> (RecordLayout, Vec<AggState>, Page, Page) {
    let stored = RecordLayout::new(vec![
        DataType::BigInt,
        DataType::Int,
        DataType::Varchar(10),
        DataType::Date,
    ]);
    let rows = [
        (1, Value::Null, "ab", 3),
        (2, Value::Int(5), "c", 120),
        (3, Value::Int(7), "xyz", 4),
    ];
    let mut src = Page::new_index(4096, SpaceId(6), 21, 7, 0);
    src.set_prev(20);
    src.set_next(22);
    for (id, n, note, trx) in rows {
        let mut rec = Vec::new();
        let values = [
            Value::Int(id),
            n,
            Value::str(note),
            Value::Date(Date32(9000)),
        ];
        encode_record(&stored, &values, RecordMeta::ordinary(trx), None, &mut rec).unwrap();
        src.append_record(&rec).unwrap();
    }
    let states = vec![AggState::Count(2), AggState::Max(Some(Value::Int(9)))];
    let payload = appended(|b| encode_states(&states, b));
    let plan = ProjectionPlan::new(&stored, &[0, 1, 2]);
    let mut b = NdpPageBuilder::new(&src);
    for (i, rec) in src.iter_chain().enumerate() {
        let rec = RecordView::parse(rec.unwrap(), &stored).unwrap();
        match i {
            0 => b.push_projected(&plan, rec, None).unwrap(),
            1 => b.push_record(rec.raw()),
            _ => b.push_projected(&plan, rec, Some(&payload)).unwrap(),
        }
    }
    let page = b.finish(555);
    let empty = NdpPageBuilder::new(&src).finish(556);
    (stored, states, page, empty)
}

#[test]
fn ndp_page_with_every_record_shape_is_pinned() {
    let (stored, states, page, empty) = ndp_pages();
    assert_hex("NDP page", page.bytes(), NDP_PAGE);
    assert_hex("NDP empty marker", empty.bytes(), NDP_EMPTY);

    let page = Page::from_bytes(unhex(NDP_PAGE)).unwrap();
    page.verify_checksum().unwrap();
    assert_eq!(page.page_type(), PageType::Ndp);
    assert_eq!((page.page_no(), page.prev(), page.next()), (21, 20, 22));
    let ndp = stored.project(&[0, 1, 2]);
    let mut got = Vec::new();
    for rec in page.iter_chain() {
        let bytes = rec.unwrap();
        let t = RecordView::peek_type(bytes).unwrap();
        let rec = RecordView::parse(bytes, if t.is_ndp() { &ndp } else { &stored }).unwrap();
        let trx = (!t.is_ndp()).then(|| (rec.heap_no(), rec.trx_id()));
        let partial = rec.agg_payload().map(|p| decode_states(p).unwrap());
        got.push((t, rec.total_len(), rec.values(), trx, partial));
    }
    let note = |s: &str| Value::str(s);
    assert_eq!(
        got,
        vec![
            (
                RecType::NdpProjection,
                3 + 1 + 2 + 8 + 4 + 2,
                vec![Value::Int(1), Value::Null, note("ab")],
                None,
                None
            ),
            (
                RecType::Ordinary,
                13 + 1 + 2 + 8 + 4 + 1 + 4,
                vec![
                    Value::Int(2),
                    Value::Int(5),
                    note("c"),
                    Value::Date(Date32(9000))
                ],
                Some((1, 120)),
                None
            ),
            (
                RecType::NdpAggregate,
                3 + 1 + 2 + 8 + 4 + 3 + 2 + appended(|b| encode_states(&states, b)).len(),
                vec![Value::Int(3), Value::Int(7), note("xyz")],
                None,
                Some(states)
            ),
        ]
    );

    let empty = Page::from_bytes(unhex(NDP_EMPTY)).unwrap();
    empty.verify_checksum().unwrap();
    assert_eq!((empty.page_type(), empty.n_recs()), (PageType::NdpEmpty, 0));
    assert_eq!(empty.iter_chain().count(), 0);
}

const QUERY_FRAME: &str = "43000000010303060000006f7264657273060000000001f9ffffffffffffff02c7cfffffffffffffffffffffffffffff02032823000004030000006ec3a9050000000000000440";
const SQL_FRAME: &str = "100000000103040800000073656c656374203101";
const ROW_BATCH_FRAME: &str = "3c000000010403000000020000000001f9ffffffffffffff02c7cfffffffffffffffffffffffffffff02032823000004030000006ec3a9050000000000000440";
const REDO_BATCH: &str = "0c00000064000000000000000200000009000000000400000001020304650000000000000002000000090000000103000300000009080766000000000000000200000009000000022c01016700000000000000020000000900000003110002000000aabb6800000000000000020000000900000004060000006900000000000000020000000900000005040000006a000000000000000200000009000000066b000000000000000200000009000000070200000005056c0000000000000002000000090000000801000000066d000000000000000200000009000000092a0000000000000003000000010007010200000003036e0000000000000002000000090000000a2a00000000000000012d000000000000000200000028000000000000002c000000000000006f0000000000000002000000090000000b070000000200000005000000";
const CATALOG_PAYLOAD: &str = "060000006f726465727307000000040000006f5f69640100030000006f5f6e0000070000006f5f746f74616c020f0201050000006f5f6461790300060000006f5f666c616704010000060000006f5f6e6f7465052c0101030000006f5f780600010000000000000002000000090000006f72646572735f706b03000000000000000700000001000000000000000105000000695f64617904000000000000000800000002000000030000000000000000";
const LOADED_PAYLOAD: &str = "060000006f72646572730100000007000000090000000200000008000000640000000000000008000000000000000000000000c040400200000001010100000000000000010402007a7a6400000000000000000000000000204001029600000000000000000000000000000002000700000000000000000000000080204002000000040000000000000009000000000000000a00000000000000";
const BITCODE: &str = "4e445031080006000105000000000000000404002561625f02960000000000000000000000000000000203fdffffff05000000000000e0bf001200000000010001010000000202000000030303000000010004040003000300050400040003000604000400070205000000010008050005000901060005000a000600020001000b0106000000020002000c070002000d07000200010003000e060011000f04001100101100110600";
const DESCRIPTOR_STREAM: &str = "444553432a0000000000000011000000000000000700010003020f02040a00052c0006020000000100010400000001000200030001a8004e445031080006000105000000000000000404002561625f02960000000000000000000000000000000203fdffffff05000000000000e0bf001200000000010001010000000202000000030303000000010004040003000300050400040003000604000400070205000000010008050005000901060005000a000600020001000b0106000000020002000c070002000d07000200010003000e060011000f040011001011001106000103000000020103000402a8004e445031080006000105000000000000000404002561625f02960000000000000000000000000000000203fdffffff05000000000000e0bf001200000000010001010000000202000000030303000000010004040003000300050400040003000604000400070205000000010008050005000901060005000a000600020001000b0106000000020002000c070002000d07000200010003000e060011000f040011001011001106000200020000004b45595302000000020061310100624a464c540100030200000000000002000180000000000010080800";
const AGG_STATES: &str = "08002a0000000000000001c01dfeffffffffffffffffffffffffff020101000000000000000000000000000000000000020000000000000440010304040041434d45030004034d0000000400";
const NDP_PAGE: &str = "d1b78bdc15000000060000002b0200000000000001000000070000000000000014000000160000000300900030000000044400020200010000000000000000000000616200650001007800000000000000000100020000000000000005000000632823000005000000030003000000000000000700000078797a14000200020000000000000004010900000000000000";
const NDP_EMPTY: &str = "aa02822b15000000060000002c0200000000000002000000070000000000000014000000160000000000300000000000";
