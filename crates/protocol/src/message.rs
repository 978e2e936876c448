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

use taurus_common::schema::Row;
use taurus_common::{Error, Result, RowBatch, Value};

use crate::wire::{put_str, put_u16, put_u32, put_u64, put_u8, put_value, Cursor};

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

/// Write one frame: length prefix, version, opcode, payload.
pub fn write_frame(w: &mut impl Write, op: Opcode, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let len = (payload.len() + 2) as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[PROTOCOL_VERSION, op as u8])?;
    w.write_all(payload)
}

/// Read one frame, returning `(opcode_byte, payload)`. Length and
/// version are validated here; an unknown opcode byte is left for
/// [`decode_message`] so the server can answer it with an error frame
/// instead of dropping the connection.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
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

/// Aggregate functions on the wire, mirroring the builder's `Agg`
/// constructors. Stable numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WireAggFunc {
    CountStar = 0,
    Count = 1,
    Sum = 2,
    Min = 3,
    Max = 4,
    Avg = 5,
}

impl WireAggFunc {
    fn from_u8(b: u8) -> Result<WireAggFunc> {
        Ok(match b {
            0 => WireAggFunc::CountStar,
            1 => WireAggFunc::Count,
            2 => WireAggFunc::Sum,
            3 => WireAggFunc::Min,
            4 => WireAggFunc::Max,
            5 => WireAggFunc::Avg,
            _ => {
                return Err(Error::Corruption(format!(
                    "wire: unknown aggregate function {b}"
                )))
            }
        })
    }
}

/// A serialized query-builder expression: the 1:1 wire mirror of the
/// executor facade's `QExpr` (column names resolve server-side, against
/// the target table's schema).
#[derive(Clone, Debug, PartialEq)]
pub enum WireExpr {
    Col(String),
    Nth(u32),
    Lit(Value),
    /// Comparison: op ∈ {0 Eq, 1 Ne, 2 Lt, 3 Le, 4 Gt, 5 Ge}.
    Cmp(u8, Box<WireExpr>, Box<WireExpr>),
    And(Vec<WireExpr>),
    Or(Vec<WireExpr>),
    Not(Box<WireExpr>),
    /// Arithmetic: op ∈ {0 Add, 1 Sub, 2 Mul, 3 Div}.
    Arith(u8, Box<WireExpr>, Box<WireExpr>),
    Neg(Box<WireExpr>),
    Like {
        expr: Box<WireExpr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<WireExpr>,
        list: Vec<Value>,
        negated: bool,
    },
    Between {
        expr: Box<WireExpr>,
        lo: Box<WireExpr>,
        hi: Box<WireExpr>,
    },
    IsNull {
        expr: Box<WireExpr>,
        negated: bool,
    },
    ExtractYear(Box<WireExpr>),
}

/// Decode-side guard against stack exhaustion from hostile deep nesting.
const MAX_EXPR_DEPTH: u32 = 64;

fn put_expr(buf: &mut Vec<u8>, e: &WireExpr) {
    match e {
        WireExpr::Col(name) => {
            put_u8(buf, 1);
            put_str(buf, name);
        }
        WireExpr::Nth(i) => {
            put_u8(buf, 2);
            put_u32(buf, *i);
        }
        WireExpr::Lit(v) => {
            put_u8(buf, 3);
            put_value(buf, v);
        }
        WireExpr::Cmp(op, a, b) => {
            put_u8(buf, 4);
            put_u8(buf, *op);
            put_expr(buf, a);
            put_expr(buf, b);
        }
        WireExpr::And(xs) => {
            put_u8(buf, 5);
            put_u32(buf, xs.len() as u32);
            xs.iter().for_each(|x| put_expr(buf, x));
        }
        WireExpr::Or(xs) => {
            put_u8(buf, 6);
            put_u32(buf, xs.len() as u32);
            xs.iter().for_each(|x| put_expr(buf, x));
        }
        WireExpr::Not(a) => {
            put_u8(buf, 7);
            put_expr(buf, a);
        }
        WireExpr::Arith(op, a, b) => {
            put_u8(buf, 8);
            put_u8(buf, *op);
            put_expr(buf, a);
            put_expr(buf, b);
        }
        WireExpr::Neg(a) => {
            put_u8(buf, 9);
            put_expr(buf, a);
        }
        WireExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            put_u8(buf, 10);
            put_expr(buf, expr);
            put_str(buf, pattern);
            put_u8(buf, *negated as u8);
        }
        WireExpr::InList {
            expr,
            list,
            negated,
        } => {
            put_u8(buf, 11);
            put_expr(buf, expr);
            put_u32(buf, list.len() as u32);
            list.iter().for_each(|v| put_value(buf, v));
            put_u8(buf, *negated as u8);
        }
        WireExpr::Between { expr, lo, hi } => {
            put_u8(buf, 12);
            put_expr(buf, expr);
            put_expr(buf, lo);
            put_expr(buf, hi);
        }
        WireExpr::IsNull { expr, negated } => {
            put_u8(buf, 13);
            put_expr(buf, expr);
            put_u8(buf, *negated as u8);
        }
        WireExpr::ExtractYear(a) => {
            put_u8(buf, 14);
            put_expr(buf, a);
        }
    }
}

fn get_expr(cur: &mut Cursor<'_>, depth: u32) -> Result<WireExpr> {
    if depth > MAX_EXPR_DEPTH {
        return Err(Error::Corruption(format!(
            "wire: expression nesting exceeds {MAX_EXPR_DEPTH}"
        )));
    }
    let sub =
        |cur: &mut Cursor<'_>| -> Result<Box<WireExpr>> { Ok(Box::new(get_expr(cur, depth + 1)?)) };
    Ok(match cur.u8()? {
        1 => WireExpr::Col(cur.str()?),
        2 => WireExpr::Nth(cur.u32()?),
        3 => WireExpr::Lit(cur.value()?),
        4 => {
            let op = cur.u8()?;
            WireExpr::Cmp(op, sub(cur)?, sub(cur)?)
        }
        5 => {
            let n = cur.u32()?;
            WireExpr::And(get_expr_vec(cur, n, depth)?)
        }
        6 => {
            let n = cur.u32()?;
            WireExpr::Or(get_expr_vec(cur, n, depth)?)
        }
        7 => WireExpr::Not(sub(cur)?),
        8 => {
            let op = cur.u8()?;
            WireExpr::Arith(op, sub(cur)?, sub(cur)?)
        }
        9 => WireExpr::Neg(sub(cur)?),
        10 => WireExpr::Like {
            expr: sub(cur)?,
            pattern: cur.str()?,
            negated: cur.u8()? != 0,
        },
        11 => {
            let expr = sub(cur)?;
            let n = cur.u32()?;
            let mut list = Vec::new();
            for _ in 0..n {
                list.push(cur.value()?);
            }
            WireExpr::InList {
                expr,
                list,
                negated: cur.u8()? != 0,
            }
        }
        12 => WireExpr::Between {
            expr: sub(cur)?,
            lo: sub(cur)?,
            hi: sub(cur)?,
        },
        13 => WireExpr::IsNull {
            expr: sub(cur)?,
            negated: cur.u8()? != 0,
        },
        14 => WireExpr::ExtractYear(sub(cur)?),
        t => return Err(Error::Corruption(format!("wire: unknown expr tag {t}"))),
    })
}

fn get_expr_vec(cur: &mut Cursor<'_>, n: u32, depth: u32) -> Result<Vec<WireExpr>> {
    let mut xs = Vec::new();
    for _ in 0..n {
        xs.push(get_expr(cur, depth + 1)?);
    }
    Ok(xs)
}

/// A column reference by name or schema position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColSel {
    Name(String),
    Pos(u32),
}

fn put_colsel(buf: &mut Vec<u8>, c: &ColSel) {
    match c {
        ColSel::Name(n) => {
            put_u8(buf, 0);
            put_str(buf, n);
        }
        ColSel::Pos(p) => {
            put_u8(buf, 1);
            put_u32(buf, *p);
        }
    }
}

fn get_colsel(cur: &mut Cursor<'_>) -> Result<ColSel> {
    Ok(match cur.u8()? {
        0 => ColSel::Name(cur.str()?),
        1 => ColSel::Pos(cur.u32()?),
        t => {
            return Err(Error::Corruption(format!(
                "wire: unknown column selector tag {t}"
            )))
        }
    })
}

/// A serialized query-builder chain: the wire mirror of
/// `Session::query(table)` plus the fluent calls. Resolution (names,
/// index coverage, group-prefix checks) happens server-side, exactly as
/// it would in-process.
#[derive(Clone, Debug, PartialEq)]
pub struct BuilderSpec {
    pub table: String,
    pub via_index: Option<String>,
    /// AND-combined predicate conjuncts.
    pub filters: Vec<WireExpr>,
    /// Output columns (empty = builder default: all columns, or
    /// `group ++ aggs` for aggregates).
    pub select: Vec<ColSel>,
    pub group: Vec<ColSel>,
    pub aggs: Vec<(WireAggFunc, Option<WireExpr>)>,
    /// `(result position, descending)`.
    pub order: Vec<(u32, bool)>,
    pub limit: Option<u64>,
    /// Parallel-query degree.
    pub parallel: Option<u32>,
    /// Session NDP switch for this query.
    pub ndp: bool,
}

impl BuilderSpec {
    /// A plain full-table request; callers then fill in the fluent
    /// fields they need.
    pub fn table(name: &str) -> BuilderSpec {
        BuilderSpec {
            table: name.to_string(),
            via_index: None,
            filters: Vec::new(),
            select: Vec::new(),
            group: Vec::new(),
            aggs: Vec::new(),
            order: Vec::new(),
            limit: None,
            parallel: None,
            ndp: true,
        }
    }
}

/// A read request.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryRequest {
    /// Execute a plan registered under `name` on the serving node (the
    /// TPC-H suite is pre-registered by `taurus-server`), optionally
    /// with a parallel-query degree.
    Named { name: String, pq: Option<u32> },
    /// Execute a serialized builder chain.
    Builder(BuilderSpec),
    /// MVCC point lookup by primary key.
    Lookup { table: String, pk: Vec<Value> },
    /// SQL text, parsed and bound on the serving node (`taurus-sql`).
    /// `ndp` mirrors `BuilderSpec::ndp`: whether the binder may apply
    /// NDP pushdown decisions. Parse/bind failures come back as wire
    /// error code 1 (Parse) with the positioned diagnostic.
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
/// the serving path calls this on each `RowStream::next_batch` result,
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
    // Cheap sanity bound: even all-Null rows cost one byte per value.
    if width.saturating_mul(rows) > cur.remaining().saturating_mul(2).max(1) {
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
            match pq {
                None => put_u8(buf, 0),
                Some(d) => {
                    put_u8(buf, 1);
                    put_u32(buf, *d);
                }
            }
        }
        QueryRequest::Builder(s) => {
            put_u8(buf, 2);
            put_str(buf, &s.table);
            match &s.via_index {
                None => put_u8(buf, 0),
                Some(ix) => {
                    put_u8(buf, 1);
                    put_str(buf, ix);
                }
            }
            put_u32(buf, s.filters.len() as u32);
            s.filters.iter().for_each(|f| put_expr(buf, f));
            put_u32(buf, s.select.len() as u32);
            s.select.iter().for_each(|c| put_colsel(buf, c));
            put_u32(buf, s.group.len() as u32);
            s.group.iter().for_each(|c| put_colsel(buf, c));
            put_u32(buf, s.aggs.len() as u32);
            for (f, input) in &s.aggs {
                put_u8(buf, *f as u8);
                match input {
                    None => put_u8(buf, 0),
                    Some(e) => {
                        put_u8(buf, 1);
                        put_expr(buf, e);
                    }
                }
            }
            put_u32(buf, s.order.len() as u32);
            for (pos, desc) in &s.order {
                put_u32(buf, *pos);
                put_u8(buf, *desc as u8);
            }
            match s.limit {
                None => put_u8(buf, 0),
                Some(n) => {
                    put_u8(buf, 1);
                    put_u64(buf, n);
                }
            }
            match s.parallel {
                None => put_u8(buf, 0),
                Some(d) => {
                    put_u8(buf, 1);
                    put_u32(buf, d);
                }
            }
            put_u8(buf, s.ndp as u8);
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
            put_u8(buf, *ndp as u8);
        }
    }
}

fn get_values(cur: &mut Cursor<'_>) -> Result<Vec<Value>> {
    let n = cur.u32()?;
    let mut vs = Vec::new();
    for _ in 0..n {
        vs.push(cur.value()?);
    }
    Ok(vs)
}

/// Decode the tag-2 builder-chain payload (`QueryRequest::Builder`).
fn get_builder(cur: &mut Cursor<'_>) -> Result<BuilderSpec> {
    let table = cur.str()?;
    let via_index = match cur.u8()? {
        0 => None,
        _ => Some(cur.str()?),
    };
    let filters = {
        let n = cur.u32()?;
        get_expr_vec(cur, n, 0)?
    };
    let mut select = Vec::new();
    for _ in 0..cur.u32()? {
        select.push(get_colsel(cur)?);
    }
    let mut group = Vec::new();
    for _ in 0..cur.u32()? {
        group.push(get_colsel(cur)?);
    }
    let mut aggs = Vec::new();
    for _ in 0..cur.u32()? {
        let f = WireAggFunc::from_u8(cur.u8()?)?;
        let input = match cur.u8()? {
            0 => None,
            _ => Some(get_expr(cur, 0)?),
        };
        aggs.push((f, input));
    }
    let mut order = Vec::new();
    for _ in 0..cur.u32()? {
        let pos = cur.u32()?;
        order.push((pos, cur.u8()? != 0));
    }
    let limit = match cur.u8()? {
        0 => None,
        _ => Some(cur.u64()?),
    };
    let parallel = match cur.u8()? {
        0 => None,
        _ => Some(cur.u32()?),
    };
    let ndp = cur.u8()? != 0;
    Ok(BuilderSpec {
        table,
        via_index,
        filters,
        select,
        group,
        aggs,
        order,
        limit,
        parallel,
        ndp,
    })
}

/// Decode a [`QueryRequest`] payload. The leading tag byte is an
/// append-only published table (`crates/xtask/manifests/query_tags.txt`).
fn get_query(cur: &mut Cursor<'_>) -> Result<QueryRequest> {
    Ok(match cur.u8()? {
        1 => QueryRequest::Named {
            name: cur.str()?,
            pq: match cur.u8()? {
                0 => None,
                _ => Some(cur.u32()?),
            },
        },
        2 => QueryRequest::Builder(get_builder(cur)?),
        3 => QueryRequest::Lookup {
            table: cur.str()?,
            pk: get_values(cur)?,
        },
        4 => QueryRequest::Sql {
            text: cur.str()?,
            ndp: cur.u8()? != 0,
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

    #[test]
    fn query_requests_roundtrip() {
        let named = QueryRequest::Named {
            name: "Q6".into(),
            pq: Some(4),
        };
        let mut spec = BuilderSpec::table("lineitem");
        spec.via_index = Some("l_shipdate_idx".into());
        spec.filters = vec![
            WireExpr::Cmp(
                2,
                Box::new(WireExpr::Col("l_quantity".into())),
                Box::new(WireExpr::Lit(Value::Decimal(Dec::new(2400, 2)))),
            ),
            WireExpr::And(vec![
                WireExpr::IsNull {
                    expr: Box::new(WireExpr::Nth(3)),
                    negated: true,
                },
                WireExpr::Like {
                    expr: Box::new(WireExpr::Col("l_comment".into())),
                    pattern: "%care%".into(),
                    negated: false,
                },
                WireExpr::Between {
                    expr: Box::new(WireExpr::ExtractYear(Box::new(WireExpr::Col(
                        "l_shipdate".into(),
                    )))),
                    lo: Box::new(WireExpr::Lit(Value::Int(1994))),
                    hi: Box::new(WireExpr::Lit(Value::Int(1995))),
                },
                WireExpr::InList {
                    expr: Box::new(WireExpr::Col("l_returnflag".into())),
                    list: vec![Value::str("A"), Value::str("R")],
                    negated: true,
                },
                WireExpr::Not(Box::new(WireExpr::Or(vec![WireExpr::Neg(Box::new(
                    WireExpr::Arith(
                        2,
                        Box::new(WireExpr::Col("l_tax".into())),
                        Box::new(WireExpr::Lit(Value::Double(2.0))),
                    ),
                ))]))),
            ]),
        ];
        spec.select = vec![ColSel::Name("l_orderkey".into()), ColSel::Pos(5)];
        spec.order = vec![(1, true), (0, false)];
        spec.limit = Some(10);
        spec.parallel = Some(2);
        spec.ndp = false;
        let agg = {
            let mut s = BuilderSpec::table("orders");
            s.group = vec![ColSel::Name("o_orderpriority".into())];
            s.aggs = vec![
                (WireAggFunc::CountStar, None),
                (WireAggFunc::Sum, Some(WireExpr::Col("o_totalprice".into()))),
            ];
            s
        };
        for q in [
            named,
            QueryRequest::Builder(spec),
            QueryRequest::Builder(agg),
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
    fn deep_expr_nesting_refused() {
        let mut e = WireExpr::Lit(Value::Int(1));
        for _ in 0..200 {
            e = WireExpr::Not(Box::new(e));
        }
        let mut spec = BuilderSpec::table("t");
        spec.filters = vec![e];
        let payload = Message::Query(QueryRequest::Builder(spec)).encode_payload();
        let err = decode_message(Opcode::Query as u8, &payload).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
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
