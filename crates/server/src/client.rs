//! A blocking wire client for `taurus-server`.
//!
//! One [`Client`] is one session: connect, handshake, then issue
//! queries, DML and stats scrapes over the same connection. Errors the
//! server sends as frames come back as the structured
//! [`taurus_common::Error`] they were on the server, so client code can
//! match on variants exactly like in-process code. Dropping the client
//! mid-stream closes the socket, which is the cancellation signal the
//! server acts on.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use taurus_common::{Error, Result, Row, TenantId, Value, DEFAULT_TENANT};
use taurus_protocol::{decode_error, DmlRequest, Message, QueryRequest};

pub struct Client {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    /// Node count the server reported in its Welcome frame.
    nodes: u32,
}

/// One query's full decoded response.
#[derive(Debug)]
pub struct QueryReply {
    pub rows: Vec<Row>,
    /// RowBatch frames received — the server's streaming granularity.
    pub batches: u64,
    /// Wire id of the node that served the read (0 = master).
    pub node: u32,
}

impl Client {
    /// Connect and handshake as the anonymous tenant.
    pub fn connect(addr: &str) -> Result<Client> {
        Client::connect_as(addr, DEFAULT_TENANT)
    }

    /// Connect and handshake as a named tenant: the server bills this
    /// session's NDP work (and quota rejections) to `tenant` and breaks
    /// it out in STATS under `tenant{id}.` lines.
    pub fn connect_as(addr: &str, tenant: TenantId) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone().map_err(io_err)?;
        let mut c = Client {
            r: BufReader::new(read_half),
            w: BufWriter::new(stream),
            nodes: 0,
        };
        c.send(&Message::Hello {
            client: format!("taurus-client/{}", env!("CARGO_PKG_VERSION")),
            tenant,
        })?;
        match c.recv()? {
            Message::Welcome { nodes, .. } => c.nodes = nodes,
            Message::Error { code, message } => return Err(decode_error(code, message)),
            other => return Err(unexpected(&other)),
        }
        Ok(c)
    }

    /// Connect with retries until `timeout` — for racing a server that
    /// is still loading data (the smoke binary's normal case).
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    }

    /// Node count (master + replicas) from the handshake.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Run a query registered server-side by name (e.g. `"Q6"`).
    pub fn query_named(&mut self, name: &str, pq: Option<usize>) -> Result<QueryReply> {
        self.query(QueryRequest::Named {
            name: name.to_string(),
            pq: pq.map(|d| d as u32),
        })
    }

    /// Run a SQL text statement server-side. The server parses, binds
    /// against its live catalog, and streams the result exactly like a
    /// registered plan; `EXPLAIN` comes back as one single-column string
    /// row per plan line. Malformed SQL returns the server's positioned
    /// [`Error::Parse`] (wire error code 1).
    pub fn query_sql(&mut self, text: &str, ndp: bool) -> Result<QueryReply> {
        self.query(QueryRequest::Sql {
            text: text.to_string(),
            ndp,
        })
    }

    /// MVCC point lookup; returns the row (if any) and the serving node.
    pub fn lookup(&mut self, table: &str, pk: Vec<Value>) -> Result<(Option<Row>, u32)> {
        let mut reply = self.query(QueryRequest::Lookup {
            table: table.to_string(),
            pk,
        })?;
        Ok((reply.rows.pop(), reply.node))
    }

    /// Send any read request and collect the whole response.
    pub fn query(&mut self, req: QueryRequest) -> Result<QueryReply> {
        self.send(&Message::Query(req))?;
        let mut rows: Vec<Row> = Vec::new();
        let mut batches = 0u64;
        loop {
            match self.recv()? {
                Message::RowBatch(mut b) => {
                    batches += 1;
                    rows.extend(b.drain_rows());
                }
                Message::EndOfStream {
                    rows: n,
                    batches: nb,
                    node,
                } => {
                    if n as usize != rows.len() || nb != batches {
                        return Err(Error::Corruption(format!(
                            "wire: end-of-stream claims {n} rows / {nb} batches, \
                             received {} / {batches}",
                            rows.len()
                        )));
                    }
                    return Ok(QueryReply {
                        rows,
                        batches,
                        node,
                    });
                }
                Message::Error { code, message } => return Err(decode_error(code, message)),
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Execute one write as its own transaction; returns the commit LSN
    /// (which also advances this session's read-your-LSN bound
    /// server-side).
    pub fn execute(&mut self, d: DmlRequest) -> Result<u64> {
        self.send(&Message::Dml(d))?;
        match self.recv()? {
            Message::DmlOk { commit_lsn } => Ok(commit_lsn),
            Message::Error { code, message } => Err(decode_error(code, message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Scrape the server's metrics as stable `name value` lines.
    pub fn stats(&mut self) -> Result<String> {
        self.send(&Message::Stats)?;
        match self.recv()? {
            Message::StatsText(text) => Ok(text),
            Message::Error { code, message } => Err(decode_error(code, message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Send one frame (any message — for tests that probe server
    /// behaviour below the typed helpers).
    pub fn send(&mut self, m: &Message) -> Result<()> {
        m.write(&mut self.w).map_err(io_err)?;
        self.w.flush().map_err(io_err)
    }

    /// Receive one frame.
    pub fn recv(&mut self) -> Result<Message> {
        Message::read(&mut self.r).map_err(io_err)
    }
}

fn io_err(e: std::io::Error) -> Error {
    Error::InvalidState(format!("connection: {e}"))
}

fn unexpected(m: &Message) -> Error {
    Error::Corruption(format!(
        "wire: unexpected frame opcode {} in response",
        m.opcode() as u8
    ))
}
