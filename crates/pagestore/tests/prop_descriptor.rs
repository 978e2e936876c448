//! Hostile `DESC` sections at the Page Store.
//!
//! A batch read's descriptor is a type-less byte string off the wire, and
//! since aggregate inputs can be IR programs its `DESC` section carries
//! variable-length items of its own. Whatever arrives, arbitrary bytes or
//! a valid descriptor damaged anywhere (the TPC-H aggregating shapes, and
//! input programs that ask for too many registers, branch backwards, read
//! a column the record does not have or are cut short), the three entry
//! points a request goes through answer with a typed error or a
//! descriptor that stands: `NdpDescriptor::section_len` finds the end of
//! exactly what `decode` reads, every descriptor `decode` accepts encodes
//! back to the same bytes, and `CachedDescriptor::prepare` compiles it or
//! refuses it with `Corruption` / `InvalidState`. Never a panic.

use proptest::prelude::*;
use taurus_common::{DataType, Error, Value};
use taurus_expr::agg::{AggFunc, AggInput, AggSpec};
use taurus_expr::ast::Expr;
use taurus_expr::compile::lower;
use taurus_expr::descriptor::{NdpAggSpec, NdpDescriptor};
use taurus_expr::ir::{IrInstr, IrProgram};
use taurus_pagestore::CachedDescriptor;

/// `lineitem`'s record layout (the primary index stores every column, in
/// table order).
fn lineitem() -> Vec<DataType> {
    let dec = DataType::Decimal {
        precision: 15,
        scale: 2,
    };
    vec![
        DataType::BigInt,
        DataType::BigInt,
        DataType::BigInt,
        DataType::Int,
        dec,
        dec,
        dec,
        dec,
        DataType::Char(1),
        DataType::Char(1),
        DataType::Date,
        DataType::Date,
        DataType::Date,
        DataType::Char(25),
        DataType::Char(10),
        DataType::Varchar(44),
    ]
}

fn program(e: &Expr) -> AggInput {
    AggInput::Program(lower(e).unwrap().encode_bitcode().unwrap())
}

fn agg(func: AggFunc, input: AggInput) -> AggSpec {
    AggSpec { func, input }
}

fn descriptor(
    projection: Option<Vec<u16>>,
    predicate: Option<Expr>,
    specs: Vec<AggSpec>,
    group_cols: Vec<u16>,
) -> NdpDescriptor {
    NdpDescriptor {
        index_id: 9,
        record_dtypes: lineitem(),
        key_positions: vec![0, 3],
        projection,
        predicate_bitcode: predicate.map(|p| lower(&p).unwrap().encode_bitcode().unwrap()),
        aggregation: Some(NdpAggSpec { specs, group_cols }),
        low_watermark: 77,
    }
}

/// The aggregating descriptors of the TPC-H statements and of Listing 1,
/// as the SQL node builds them over `lineitem`.
fn tpch() -> Vec<NdpDescriptor> {
    let price = || Expr::col(5);
    let disc_price = || Expr::mul(price(), Expr::sub(Expr::int(1), Expr::col(6)));
    let charge = Expr::mul(disc_price(), Expr::add(Expr::int(1), Expr::col(7)));
    let shipped = |from: &str, to: &str| {
        Expr::and(vec![
            Expr::ge(Expr::col(10), Expr::date(from)),
            Expr::lt(Expr::col(10), Expr::date(to)),
        ])
    };
    let col = AggInput::Col;
    vec![
        // Q1: AVGs split, two products, grouped off the key.
        descriptor(
            Some(vec![0, 3, 4, 5, 6, 7, 8, 9]),
            Some(Expr::le(Expr::col(10), Expr::date("1998-09-02"))),
            vec![
                agg(AggFunc::Sum, col(4)),
                agg(AggFunc::Sum, col(5)),
                agg(AggFunc::Sum, program(&disc_price())),
                agg(AggFunc::Sum, program(&charge)),
                agg(AggFunc::Sum, col(4)),
                agg(AggFunc::Count, col(4)),
                agg(AggFunc::Sum, col(5)),
                agg(AggFunc::Count, col(5)),
                agg(AggFunc::Sum, col(6)),
                agg(AggFunc::Count, col(6)),
                agg(AggFunc::CountStar, AggInput::Star),
            ],
            vec![8, 9],
        ),
        // Q6: one product, scalar.
        descriptor(
            Some(vec![0, 3, 4, 5, 6, 10]),
            Some(Expr::and(vec![
                shipped("1994-01-01", "1995-01-01"),
                Expr::between(Expr::col(6), Expr::dec("0.05"), Expr::dec("0.07")),
                Expr::lt(Expr::col(4), Expr::int(24)),
            ])),
            vec![agg(
                AggFunc::Sum,
                program(&Expr::mul(Expr::col(5), Expr::col(6))),
            )],
            vec![],
        ),
        // Q15's revenue, grouped by supplier.
        descriptor(
            Some(vec![0, 2, 3, 5, 6, 10]),
            Some(shipped("1996-01-01", "1996-04-01")),
            vec![agg(AggFunc::Sum, program(&disc_price()))],
            vec![2],
        ),
        // Q18's derived table: in index order, no predicate.
        descriptor(
            Some(vec![0, 3, 4]),
            None,
            vec![agg(AggFunc::Sum, col(4))],
            vec![0],
        ),
        // Listing 1 and COUNT(*): scalar, AVG split.
        descriptor(
            None,
            Some(Expr::lt(Expr::col(4), Expr::int(40))),
            vec![agg(AggFunc::Sum, col(5)), agg(AggFunc::Count, col(5))],
            vec![],
        ),
        descriptor(
            None,
            None,
            vec![agg(AggFunc::CountStar, AggInput::Star)],
            vec![],
        ),
    ]
}

/// Input programs no SQL node sends, each behind a sound descriptor:
/// what `prepare` must refuse, and how.
fn hostile() -> Vec<(&'static str, NdpDescriptor, fn(&Error) -> bool)> {
    let raw = |instrs: Vec<IrInstr>, n_regs: u16| {
        IrProgram {
            instrs,
            consts: vec![Value::Int(1)],
            n_regs,
        }
        .encode_bitcode()
        .unwrap()
    };
    let with = |bitcode: Vec<u8>| {
        descriptor(
            None,
            None,
            vec![agg(AggFunc::Sum, AggInput::Program(bitcode))],
            vec![],
        )
    };
    let load = |dst, col| IrInstr::LoadCol { dst, col };
    let mut truncated = lower(&Expr::mul(Expr::col(5), Expr::col(6)))
        .unwrap()
        .encode_bitcode()
        .unwrap();
    truncated.truncate(truncated.len() - 3);
    vec![
        (
            "65 registers",
            with(raw(vec![load(64, 5), IrInstr::Ret { src: 64 }], 65)),
            |e| matches!(e, Error::InvalidState(_)),
        ),
        (
            "a backward branch",
            with(raw(
                vec![
                    load(0, 5),
                    IrInstr::Jmp { target: 0 },
                    IrInstr::Ret { src: 0 },
                ],
                1,
            )),
            |e| matches!(e, Error::Corruption(_)),
        ),
        (
            "a column past the record",
            with(raw(vec![load(0, 16), IrInstr::Ret { src: 0 }], 1)),
            |e| matches!(e, Error::Corruption(_)),
        ),
        ("truncated bitcode", with(truncated), |e| {
            matches!(e, Error::Corruption(_))
        }),
    ]
}

fn seeds() -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = tpch().iter().map(NdpDescriptor::encode).collect();
    seeds.extend(hostile().iter().map(|(_, d, _)| d.encode()));
    seeds
}

/// Every entry point on `buf`: no panic (the test would fail), typed
/// errors only, and an accepted descriptor is exactly its bytes.
fn check(buf: &[u8]) {
    let typed = |e: &Error| matches!(e, Error::Corruption(_) | Error::InvalidState(_));
    let len = NdpDescriptor::section_len(buf);
    if let Err(e) = &len {
        prop_assert!(typed(e), "section_len: {e:?}");
    }
    match NdpDescriptor::decode(buf) {
        Err(e) => prop_assert!(typed(&e), "decode: {e:?}"),
        Ok(d) => {
            let again = d.encode();
            prop_assert_eq!(len.as_ref().ok(), Some(&again.len()));
            prop_assert_eq!(&again[..], &buf[..again.len()]);
        }
    }
    if let Err(e) = CachedDescriptor::prepare(buf) {
        prop_assert!(typed(&e), "prepare: {e:?}");
    }
}

#[test]
fn every_seed_stands_or_is_refused_as_it_should_be() {
    for d in tpch() {
        let bytes = d.encode();
        assert_eq!(NdpDescriptor::section_len(&bytes).unwrap(), bytes.len());
        assert_eq!(NdpDescriptor::decode(&bytes).unwrap(), d);
        let cd = CachedDescriptor::prepare(&bytes).unwrap();
        assert_eq!(cd.agg_inputs.len(), d.aggregation.unwrap().specs.len());
    }
    for (what, d, refusal) in hostile() {
        let bytes = d.encode();
        // The frame is whole: only the program is wrong.
        assert_eq!(
            NdpDescriptor::section_len(&bytes).unwrap(),
            bytes.len(),
            "{what}"
        );
        match CachedDescriptor::prepare(&bytes) {
            Err(e) => assert!(refusal(&e), "{what}: {e:?}"),
            Ok(_) => panic!("{what}: prepared"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..160),
        magic in any::<bool>(),
    ) {
        let mut buf = Vec::new();
        if magic {
            // Past the magic and the fixed fields, so the counts are read.
            buf.extend_from_slice(b"DESC");
            buf.extend_from_slice(&[0; 16]);
        }
        buf.extend(body);
        check(&buf);
    }

    #[test]
    fn damaged_descriptors_are_refused_or_stand(
        seed in 0usize..64,
        damage in 0usize..5,
        at in any::<u32>(),
        byte in any::<u8>(),
        extra in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let seeds = seeds();
        let mut buf = seeds[seed % seeds.len()].clone();
        let at = at as usize % buf.len();
        match damage {
            0 => buf[at] = byte,
            1 => buf[at] ^= 1 << (byte % 8),
            2 => buf.truncate(at),
            3 => {
                buf.splice(at..at, extra);
            }
            // A count or length field grown or shrunk.
            _ => {
                let end = (at + 2).min(buf.len());
                let mut field = [0u8; 2];
                field[..end - at].copy_from_slice(&buf[at..end]);
                let v = u16::from_le_bytes(field).wrapping_add(byte as u16 % 5).wrapping_sub(2);
                buf[at..end].copy_from_slice(&v.to_le_bytes()[..end - at]);
            }
        }
        check(&buf);
    }
}
