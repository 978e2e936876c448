//! Frame I/O and typed messages.
//!
//! Frame I/O ([`read_frame`]/[`write_frame`]) speaks `std::io` — an I/O
//! error there means the *connection* failed (peer gone, timeout).
//! Payload decoding ([`decode_message`]) speaks `taurus_common::Result`
//! — an error there means the bytes were bad, which a server answers
//! with an [`Message::Error`] frame rather than a hangup. Keeping the
//! two layers' error channels apart is what lets a session distinguish
//! "client disconnected" from "client sent garbage".

use std::io::{self, Read, Write};

use taurus_common::batch::BATCH_MAX_VALUES;
use taurus_common::codec::{
    put_flag, put_str, put_u16, put_u32, put_u64, put_u8, put_value, Cursor,
};
use taurus_common::schema::Row;
use taurus_common::{Error, Result, RowBatch, Value};

/// Bumped only on incompatible layout changes; a mismatch is refused at
/// frame level, before any payload is interpreted.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on one frame's payload (64 MiB): a hostile length prefix
/// must not drive the receiver's allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Node id `0` is always the master; replica `i` serves as node `i + 1`.
/// Carried in [`Message::EndOfStream`] so clients (and the routing
/// tests) can observe where a read actually ran.
pub const MASTER_NODE: u32 = 0;

/// Frame opcodes. Stable wire contract — append-only, never renumber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Client → server, first frame: `client_name: str, tenant: u32`.
    /// The tenant id scopes the session's NDP admission quota and
    /// per-tenant metrics (`0` = the anonymous default tenant).
    Hello = 1,
    /// Server → client handshake reply: `server_name: str, nodes: u32`.
    Welcome = 2,
    /// Client → server: a [`QueryRequest`].
    Query = 3,
    /// Server → client: one result batch (`width: u32, rows: u32`,
    /// row-major values).
    RowBatch = 4,
    /// Server → client: end of a result stream
    /// (`rows: u64, batches: u64, node: u32`).
    EndOfStream = 5,
    /// Either direction: `code: u16, message: str` (see [`crate::errcode`]).
    Error = 6,
    /// Client → server: request the metrics scrape (empty payload).
    Stats = 7,
    /// Server → client: the scrape text (`text: str`).
    StatsText = 8,
    /// Client → server: a [`DmlRequest`].
    Dml = 9,
    /// Server → client: DML committed (`commit_lsn: u64`).
    DmlOk = 10,
}

impl Opcode {
    pub fn from_u8(b: u8) -> Result<Opcode> {
        Ok(match b {
            1 => Opcode::Hello,
            2 => Opcode::Welcome,
            3 => Opcode::Query,
            4 => Opcode::RowBatch,
            5 => Opcode::EndOfStream,
            6 => Opcode::Error,
            7 => Opcode::Stats,
            8 => Opcode::StatsText,
            9 => Opcode::Dml,
            10 => Opcode::DmlOk,
            _ => return Err(Error::Corruption(format!("wire: unknown opcode {b}"))),
        })
    }
}

/// Write one frame: length prefix, version, opcode, payload. A payload
/// past [`MAX_FRAME`] is refused before a byte is written, so no length
/// prefix inside it or in front of it can wrap.
pub fn write_frame(w: &mut impl Write, op: Opcode, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("wire: {} byte payload exceeds the frame cap", payload.len()),
        ));
    }
    let mut hdr = Vec::with_capacity(6);
    put_u32(&mut hdr, payload.len() as u32 + 2);
    put_u8(&mut hdr, PROTOCOL_VERSION);
    put_u8(&mut hdr, op as u8);
    w.write_all(&hdr)?;
    w.write_all(payload)
}

/// Read one frame, returning `(opcode_byte, payload)`. Length and
/// version are validated here; an unknown opcode byte is left for
/// [`decode_message`] so the server can answer it with an error frame
/// instead of dropping the connection.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = Cursor::new(&hdr)
        .u32()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        as usize;
    if !(2..=MAX_FRAME + 2).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire: frame length {len} out of bounds"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    if body[0] != PROTOCOL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "wire: protocol version {} (expected {PROTOCOL_VERSION})",
                body[0]
            ),
        ));
    }
    let op = body[1];
    body.drain(..2);
    Ok((op, body))
}

/// A read request.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryRequest {
    /// Execute a plan registered under `name` on the serving node (the
    /// TPC-H suite is pre-registered by `taurus-server`), optionally
    /// with a parallel-query degree.
    Named { name: String, pq: Option<u32> },
    /// MVCC point lookup by primary key.
    Lookup { table: String, pk: Vec<Value> },
    /// SQL text, parsed and bound on the serving node (`taurus-sql`).
    /// `ndp` is the session's NDP switch for this statement. Parse and
    /// bind failures come back as wire error code 1 (Parse) with the
    /// positioned diagnostic.
    Sql { text: String, ndp: bool },
}

/// A write request. Always routed to the master; one request = one
/// transaction (begin/apply/commit), answered by `DmlOk { commit_lsn }`
/// which advances the connection's read-your-LSN stickiness bound.
#[derive(Clone, Debug, PartialEq)]
pub enum DmlRequest {
    Insert { table: String, row: Row },
    Update { table: String, row: Row },
    Delete { table: String, pk: Vec<Value> },
}

/// A decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    Hello { client: String, tenant: u32 },
    Welcome { server: String, nodes: u32 },
    Query(QueryRequest),
    RowBatch(RowBatch),
    EndOfStream { rows: u64, batches: u64, node: u32 },
    Error { code: u16, message: String },
    Stats,
    StatsText(String),
    Dml(DmlRequest),
    DmlOk { commit_lsn: u64 },
}

/// Encode a [`RowBatch`] payload straight from the executor's batch —
/// the serving path calls this on each batch a query's pipeline emits,
/// so rows go scan pipeline → batch → socket with no intermediate
/// per-row representation.
pub fn encode_row_batch(b: &RowBatch) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + b.len() * (b.width() * 9 + 1));
    put_u32(&mut buf, b.width() as u32);
    put_u32(&mut buf, b.len() as u32);
    for row in b.rows() {
        for v in row {
            put_value(&mut buf, v);
        }
    }
    buf
}

fn decode_row_batch(cur: &mut Cursor<'_>) -> Result<RowBatch> {
    let width = cur.u32()? as usize;
    let rows = cur.u32()? as usize;
    // Every value costs at least one byte (a Null is its tag), and no
    // batch holds more rows than `RowBatch::with_capacity` gives one of
    // zero-width rows: a claim past either would cost a loop per row.
    let impossible = if width == 0 {
        rows > BATCH_MAX_VALUES
    } else {
        width.saturating_mul(rows) > cur.remaining()
    };
    if impossible {
        return Err(Error::Corruption(format!(
            "wire: row batch claims {rows} x {width} values in {} bytes",
            cur.remaining()
        )));
    }
    // Values decode straight into the batch's storage.
    let mut b = RowBatch::with_capacity(width, rows.max(1));
    for _ in 0..rows {
        b.try_push_row((0..width).map(|_| cur.value()))?;
    }
    Ok(b)
}

impl Message {
    pub fn opcode(&self) -> Opcode {
        match self {
            Message::Hello { .. } => Opcode::Hello,
            Message::Welcome { .. } => Opcode::Welcome,
            Message::Query(_) => Opcode::Query,
            Message::RowBatch(_) => Opcode::RowBatch,
            Message::EndOfStream { .. } => Opcode::EndOfStream,
            Message::Error { .. } => Opcode::Error,
            Message::Stats => Opcode::Stats,
            Message::StatsText(_) => Opcode::StatsText,
            Message::Dml(_) => Opcode::Dml,
            Message::DmlOk { .. } => Opcode::DmlOk,
        }
    }

    /// Encode this message's payload (everything after the opcode).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Message::Hello { client, tenant } => {
                put_str(&mut buf, client);
                put_u32(&mut buf, *tenant);
            }
            Message::Welcome { server, nodes } => {
                put_str(&mut buf, server);
                put_u32(&mut buf, *nodes);
            }
            Message::Query(q) => put_query(&mut buf, q),
            Message::RowBatch(b) => buf = encode_row_batch(b),
            Message::EndOfStream {
                rows,
                batches,
                node,
            } => {
                put_u64(&mut buf, *rows);
                put_u64(&mut buf, *batches);
                put_u32(&mut buf, *node);
            }
            Message::Error { code, message } => {
                put_u16(&mut buf, *code);
                put_str(&mut buf, message);
            }
            Message::Stats => {}
            Message::StatsText(text) => put_str(&mut buf, text),
            Message::Dml(d) => put_dml(&mut buf, d),
            Message::DmlOk { commit_lsn } => put_u64(&mut buf, *commit_lsn),
        }
        buf
    }

    /// Encode and write this message as one frame.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        write_frame(w, self.opcode(), &self.encode_payload())
    }

    /// Read one frame and decode it (see the module docs for which
    /// errors mean "connection dead" vs "bad bytes").
    pub fn read(r: &mut impl Read) -> io::Result<Message> {
        let (op, payload) = read_frame(r)?;
        decode_message(op, &payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

fn put_query(buf: &mut Vec<u8>, q: &QueryRequest) {
    match q {
        QueryRequest::Named { name, pq } => {
            put_u8(buf, 1);
            put_str(buf, name);
            put_flag(buf, pq.is_some());
            if let Some(d) = pq {
                put_u32(buf, *d);
            }
        }
        QueryRequest::Lookup { table, pk } => {
            put_u8(buf, 3);
            put_str(buf, table);
            put_u32(buf, pk.len() as u32);
            pk.iter().for_each(|v| put_value(buf, v));
        }
        QueryRequest::Sql { text, ndp } => {
            put_u8(buf, 4);
            put_str(buf, text);
            put_flag(buf, *ndp);
        }
    }
}

/// A counted list of values; each takes its tag byte at the least.
fn get_values(cur: &mut Cursor<'_>) -> Result<Vec<Value>> {
    let n = cur.count(1)?;
    cur.list(n, Cursor::value)
}

/// Decode a [`QueryRequest`] payload. The leading tag byte is an
/// append-only published table (`crates/xtask/manifests/query_tags.txt`).
fn get_query(cur: &mut Cursor<'_>) -> Result<QueryRequest> {
    Ok(match cur.u8()? {
        1 => QueryRequest::Named {
            name: cur.str()?,
            pq: match cur.flag()? {
                false => None,
                true => Some(cur.u32()?),
            },
        },
        // Tag 2 carried a serialized `QueryBuilder` chain. It is retired,
        // never reused, and refused with a typed error naming SQL.
        2 => {
            return Err(Error::Unsupported(
                "wire: query tag 2 (builder chain) is retired; send SQL text (tag 4)".into(),
            ))
        }
        3 => QueryRequest::Lookup {
            table: cur.str()?,
            pk: get_values(cur)?,
        },
        4 => QueryRequest::Sql {
            text: cur.str()?,
            ndp: cur.flag()?,
        },
        t => {
            return Err(Error::Corruption(format!(
                "wire: unknown query request tag {t}"
            )))
        }
    })
}

fn put_dml(buf: &mut Vec<u8>, d: &DmlRequest) {
    let (tag, table, values) = match d {
        DmlRequest::Insert { table, row } => (1u8, table, row),
        DmlRequest::Update { table, row } => (2u8, table, row),
        DmlRequest::Delete { table, pk } => (3u8, table, pk),
    };
    put_u8(buf, tag);
    put_str(buf, table);
    put_u32(buf, values.len() as u32);
    values.iter().for_each(|v| put_value(buf, v));
}

fn get_dml(cur: &mut Cursor<'_>) -> Result<DmlRequest> {
    let tag = cur.u8()?;
    let table = cur.str()?;
    let values = get_values(cur)?;
    Ok(match tag {
        1 => DmlRequest::Insert { table, row: values },
        2 => DmlRequest::Update { table, row: values },
        3 => DmlRequest::Delete { table, pk: values },
        t => return Err(Error::Corruption(format!("wire: unknown DML tag {t}"))),
    })
}

/// Decode one frame's payload into a typed [`Message`]. The whole
/// payload must be consumed — trailing bytes are rejected.
pub fn decode_message(op: u8, payload: &[u8]) -> Result<Message> {
    let mut cur = Cursor::new(payload);
    let msg = match Opcode::from_u8(op)? {
        Opcode::Hello => Message::Hello {
            client: cur.str()?,
            tenant: cur.u32()?,
        },
        Opcode::Welcome => Message::Welcome {
            server: cur.str()?,
            nodes: cur.u32()?,
        },
        Opcode::Query => Message::Query(get_query(&mut cur)?),
        Opcode::RowBatch => Message::RowBatch(decode_row_batch(&mut cur)?),
        Opcode::EndOfStream => Message::EndOfStream {
            rows: cur.u64()?,
            batches: cur.u64()?,
            node: cur.u32()?,
        },
        Opcode::Error => Message::Error {
            code: cur.u16()?,
            message: cur.str()?,
        },
        Opcode::Stats => Message::Stats,
        Opcode::StatsText => Message::StatsText(cur.str()?),
        Opcode::Dml => Message::Dml(get_dml(&mut cur)?),
        Opcode::DmlOk => Message::DmlOk {
            commit_lsn: cur.u64()?,
        },
    };
    cur.done()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::value::Dec;

    fn roundtrip(m: &Message) -> Message {
        let mut buf = Vec::new();
        m.write(&mut buf).unwrap();
        let mut r = io::Cursor::new(buf);
        let out = Message::read(&mut r).unwrap();
        assert_eq!(r.position() as usize, r.get_ref().len(), "consumed fully");
        out
    }

    fn sample_batch() -> RowBatch {
        let mut b = RowBatch::with_capacity(3, 4);
        b.push_row([Value::Int(1), Value::str("a"), Value::Null]);
        b.push_row([
            Value::Int(-2),
            Value::str("bb"),
            Value::Decimal(Dec::new(-505, 2)),
        ]);
        b
    }

    #[test]
    fn control_messages_roundtrip() {
        for m in [
            Message::Hello {
                client: "t".into(),
                tenant: 12,
            },
            Message::Welcome {
                server: "taurus-server/0.1.0".into(),
                nodes: 3,
            },
            Message::EndOfStream {
                rows: u64::MAX,
                batches: 7,
                node: 2,
            },
            Message::Error {
                code: 6,
                message: "busy".into(),
            },
            Message::Stats,
            Message::StatsText("a 1\nb 2\n".into()),
            Message::DmlOk { commit_lsn: 99 },
        ] {
            assert_eq!(roundtrip(&m), m, "{m:?}");
        }
    }

    /// Batch frames carry width + rows, not the sender's buffer
    /// capacity — compare contents, the wire-visible part.
    fn assert_same_rows(m: Message, want: &RowBatch) {
        match m {
            Message::RowBatch(got) => {
                assert_eq!(got.width(), want.width());
                assert_eq!(got.to_rows(), want.to_rows());
            }
            other => panic!("expected RowBatch, got {other:?}"),
        }
    }

    #[test]
    fn row_batch_roundtrips_without_rematerialization() {
        let b = sample_batch();
        let payload = encode_row_batch(&b);
        assert_same_rows(
            decode_message(Opcode::RowBatch as u8, &payload).unwrap(),
            &b,
        );
        // Zero-width COUNT(*)-style rows survive too.
        let mut zw = RowBatch::with_capacity(0, 2);
        zw.push_row([]);
        zw.push_row([]);
        assert_same_rows(roundtrip(&Message::RowBatch(zw.clone())), &zw);
    }

    /// A row count the payload cannot hold is refused before any row
    /// decodes: 8 bytes claiming `u32::MAX` zero-width rows, and one byte
    /// short of a Null per value.
    #[test]
    fn impossible_row_counts_refused() {
        let claim = |width: u32, rows: u32, values: usize| {
            let mut payload = [width.to_le_bytes(), rows.to_le_bytes()].concat();
            payload.resize(8 + values, 0);
            decode_message(Opcode::RowBatch as u8, &payload)
        };
        let max = BATCH_MAX_VALUES as u32;
        for (width, rows, values) in [(0, u32::MAX, 0), (0, max + 1, 0), (3, 2, 5)] {
            let err = claim(width, rows, values).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{err}");
        }
        assert!(claim(0, max, 0).is_ok() && claim(3, 2, 6).is_ok());
    }

    #[test]
    fn query_requests_roundtrip() {
        for q in [
            QueryRequest::Named {
                name: "Q6".into(),
                pq: Some(4),
            },
            QueryRequest::Lookup {
                table: "orders".into(),
                pk: vec![Value::Int(42)],
            },
            QueryRequest::Sql {
                text: "select count(*) from lineitem where l_quantity < 24".into(),
                ndp: true,
            },
            QueryRequest::Sql {
                text: String::new(),
                ndp: false,
            },
        ] {
            let m = Message::Query(q);
            assert_eq!(roundtrip(&m), m);
        }
    }

    #[test]
    fn dml_roundtrips() {
        for d in [
            DmlRequest::Insert {
                table: "acct".into(),
                row: vec![Value::Int(1), Value::Int(100)],
            },
            DmlRequest::Update {
                table: "acct".into(),
                row: vec![Value::Int(1), Value::Int(99)],
            },
            DmlRequest::Delete {
                table: "acct".into(),
                pk: vec![Value::Int(1)],
            },
        ] {
            let m = Message::Dml(d);
            assert_eq!(roundtrip(&m), m);
        }
    }

    #[test]
    fn version_mismatch_and_oversize_refused() {
        let mut buf = Vec::new();
        Message::Stats.write(&mut buf).unwrap();
        buf[4] = PROTOCOL_VERSION + 1; // version byte
        let err = Message::read(&mut io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        let mut oversize = Vec::new();
        oversize.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = Message::read(&mut io::Cursor::new(oversize)).unwrap_err();
        assert!(err.to_string().contains("length"), "{err}");
    }

    #[test]
    fn truncated_frames_are_clean_errors() {
        let mut buf = Vec::new();
        Message::Query(QueryRequest::Named {
            name: "Q1".into(),
            pq: None,
        })
        .write(&mut buf)
        .unwrap();
        for cut in 0..buf.len() {
            assert!(
                Message::read(&mut io::Cursor::new(buf[..cut].to_vec())).is_err(),
                "cut {cut} should not decode"
            );
        }
    }
}
