//! Wire-frame decode fuzz: arbitrary bytes under every opcode byte, and
//! valid frames of every message kind and query tag (the retired tag 2
//! included) truncated, bit-flipped or extended.
//!
//! Whatever the bytes, `decode_message` and `Message::read` return
//! rather than panic. A payload that fails is `Error::Corruption`, or
//! `Error::Unsupported` for the retired tag; a frame that fails is bad
//! data or a short stream. Whatever decodes re-encodes to the bytes it
//! was decoded from.

use std::io::{self, ErrorKind};

use proptest::prelude::*;
use taurus_common::batch::BATCH_MAX_VALUES;
use taurus_common::{Date32, Dec, Error, Result, RowBatch, Value};
use taurus_protocol::{decode_message, write_frame, DmlRequest, Message, Opcode, QueryRequest};

fn frame(m: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    m.write(&mut buf).unwrap();
    buf
}

/// One valid frame of every message kind and query tag, then the head
/// of a tag-2 query as a client of the retired builder chain sent it.
fn samples() -> Vec<Vec<u8>> {
    let mut batch = RowBatch::with_capacity(3, 2);
    batch.push_row([Value::Int(-7), Value::str("née"), Value::Null]);
    batch.push_row([
        Value::Decimal(Dec::new(-505, 2)),
        Value::Date(Date32(9000)),
        Value::Double(0.5),
    ]);
    let mut zero_width = RowBatch::with_capacity(0, 3);
    (0..3).for_each(|_| zero_width.push_row([]));
    let acct = || "acct".to_string();
    let query = Message::Query;
    let mut out: Vec<Vec<u8>> = [
        Message::Hello {
            client: "fuzz".into(),
            tenant: 3,
        },
        Message::Welcome {
            server: "taurus".into(),
            nodes: 2,
        },
        query(QueryRequest::Named {
            name: "Q6".into(),
            pq: None,
        }),
        query(QueryRequest::Named {
            name: "Q1".into(),
            pq: Some(4),
        }),
        query(QueryRequest::Lookup {
            table: acct(),
            pk: vec![Value::Int(42), Value::str("x")],
        }),
        query(QueryRequest::Sql {
            text: "select count(*) from lineitem".into(),
            ndp: true,
        }),
        Message::RowBatch(batch),
        Message::RowBatch(zero_width),
        Message::EndOfStream {
            rows: 2,
            batches: 1,
            node: 1,
        },
        Message::Error {
            code: 8,
            message: "no".into(),
        },
        Message::Stats,
        Message::StatsText("a 1\n".into()),
        Message::Dml(DmlRequest::Insert {
            table: acct(),
            row: vec![Value::Int(1), Value::Int(10)],
        }),
        Message::Dml(DmlRequest::Update {
            table: acct(),
            row: vec![Value::Int(1), Value::Null],
        }),
        Message::Dml(DmlRequest::Delete {
            table: acct(),
            pk: vec![Value::Int(1)],
        }),
        Message::DmlOk { commit_lsn: 99 },
    ]
    .iter()
    .map(frame)
    .collect();
    // The retired tag, then the table name a builder request led with.
    let mut retired = Vec::new();
    write_frame(&mut retired, Opcode::Query, b"\x02\x04\0\0\0acct").unwrap();
    out.push(retired);
    out
}

/// Decode `payload` under opcode byte `op`, and return what came out.
fn check_payload(op: u8, payload: &[u8]) -> Result<Message> {
    let decoded = decode_message(op, payload);
    match &decoded {
        Ok(m) => {
            if let Message::RowBatch(b) = m {
                assert!(b.len() <= BATCH_MAX_VALUES, "{} rows", b.len());
            }
            assert_eq!(m.opcode() as u8, op);
            assert_eq!(m.encode_payload(), payload, "{m:?}");
        }
        Err(Error::Corruption(_)) => {}
        Err(Error::Unsupported(m)) if op == Opcode::Query as u8 && payload.first() == Some(&2) => {
            assert!(m.contains("tag 4"), "{m}");
        }
        Err(other) => panic!("opcode {op}: {other:?}"),
    }
    decoded
}

/// Read frames off `bytes` until the stream ends or one fails.
fn check_stream(bytes: &[u8]) {
    let mut r = io::Cursor::new(bytes);
    loop {
        let at = r.position() as usize;
        match Message::read(&mut r) {
            Ok(m) => assert_eq!(frame(&m), &bytes[at..r.position() as usize], "{m:?}"),
            Err(e) => {
                let kinds = [ErrorKind::InvalidData, ErrorKind::UnexpectedEof];
                assert!(kinds.contains(&e.kind()), "{e}");
                return;
            }
        }
    }
}

#[test]
fn every_sample_decodes_but_the_retired_tag() {
    let samples = samples();
    let (retired, live) = samples.split_last().unwrap();
    for f in live {
        check_payload(f[5], &f[6..]).unwrap();
    }
    let err = check_payload(retired[5], &retired[6..]).unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{err}");
    check_stream(&samples.concat());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_under_every_opcode(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        for op in 0..=u8::MAX {
            let _ = check_payload(op, &bytes);
        }
        check_stream(&bytes);
    }

    #[test]
    fn mutated_frames_fail_closed(
        pick in any::<usize>(),
        edits in proptest::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 1..4),
    ) {
        let samples = samples();
        let mut bytes = samples[pick % samples.len()].clone();
        for (kind, at, byte) in edits {
            let at = at % bytes.len().max(1);
            match kind {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
                _ => bytes.push(byte),
            }
        }
        check_stream(&bytes);
        if bytes.len() >= 6 {
            let _ = check_payload(bytes[5], &bytes[6..]);
        }
    }
}
