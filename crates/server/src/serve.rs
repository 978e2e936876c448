//! Per-connection session loop and the query/DML serving paths.
//!
//! Error discipline, in order of severity:
//! - **I/O errors** (disconnect, read timeout, unreadable framing) end
//!   the session. Result frames are written from inside the running
//!   query, so a failed write stops it there: the sink answers `false`,
//!   which cancels the producing scan and returns its NDP frames — a
//!   slow or vanished client cannot pin buffer-pool memory.
//! - **Decode errors** (unknown opcode, corrupt payload) and **engine
//!   errors** answer with an Error frame and keep the session alive.
//! - **Replica refusals** after routing (detached, or lag crossed the
//!   bound between `route_read` and execution), and any other replica
//!   error before the first result frame, retry once on the master,
//!   invisibly to the client except for `node` in the end-of-stream
//!   frame. Once a frame is out, an error ends the response with an
//!   Error frame instead.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use taurus_common::batch::RowBatch;
use taurus_common::metrics::CpuGuard;
use taurus_common::{Error, Lsn, Result, TenantId, Value};
use taurus_executor::Session;
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::Plan;
use taurus_protocol::{
    decode_message, encode_error, encode_row_batch, read_frame, write_frame, DmlRequest, Message,
    Opcode, QueryRequest, MASTER_NODE,
};

use crate::router::Router;
use crate::ServerState;

pub(crate) fn serve_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    if state.cfg.session_read_timeout_ms > 0 {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(
            state.cfg.session_read_timeout_ms,
        )));
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut r = BufReader::new(read_half);
    let mut w = BufWriter::new(stream);

    // Handshake: anything but a well-formed Hello is a hang-up — this
    // peer does not speak the protocol, so no frame would reach it. The
    // Hello's tenant id scopes every query of the session for admission
    // control and per-tenant accounting.
    let tenant: TenantId = match Message::read(&mut r) {
        Ok(Message::Hello { tenant, .. }) => {
            let welcome = Message::Welcome {
                server: format!("taurus-server/{}", env!("CARGO_PKG_VERSION")),
                nodes: state.router.nodes() as u32,
            };
            if write_flush(&mut w, &welcome).is_err() {
                return;
            }
            tenant
        }
        _ => return,
    };

    // Read-your-LSN stickiness bound: monotone over the connection's
    // committed writes, 0 until the first write.
    let mut last_commit_lsn: Lsn = 0;

    loop {
        let (op, payload) = match read_frame(&mut r) {
            Ok(f) => f,
            Err(_) => return, // disconnect, idle timeout, or broken framing
        };
        let msg = match decode_message(op, &payload) {
            Ok(m) => m,
            Err(e) => {
                if send_error(state, &mut w, &e).is_err() {
                    return;
                }
                continue;
            }
        };
        let io = match msg {
            Message::Query(req) => {
                state.metrics().add(|m| &m.server_queries, 1);
                state
                    .metrics()
                    .tenants
                    .tenant(tenant)
                    .queries
                    .fetch_add(1, Ordering::Relaxed);
                match state.gate.acquire_bounded(state.cfg.gate_queue_depth) {
                    Ok(_permit) => {
                        let (db, node) = state.router.route_read(last_commit_lsn);
                        serve_query_on(state, &mut w, &req, db, node, tenant)
                    }
                    Err(e) => {
                        state.metrics().add(|m| &m.server_overload_refused, 1);
                        send_error(state, &mut w, &e)
                    }
                }
            }
            Message::Dml(d) => serve_dml(state, &mut w, d, &mut last_commit_lsn),
            Message::Stats => write_flush(&mut w, &Message::StatsText(stats_text(state))),
            other => send_error(
                state,
                &mut w,
                &Error::InvalidState(format!(
                    "unexpected frame opcode {} from client",
                    other.opcode() as u8
                )),
            ),
        };
        if io.is_err() {
            return;
        }
    }
}

/// Serve one read on a routed node, falling back to the master when the
/// replica fails before the first frame. Split out (and generic over the
/// sink) so failover is unit-testable without sockets.
pub(crate) fn serve_query_on<W: Write>(
    state: &ServerState,
    w: &mut W,
    req: &QueryRequest,
    db: Arc<TaurusDb>,
    mut node: u32,
    tenant: TenantId,
) -> std::io::Result<()> {
    // One execution deadline for the whole response, stamped before plan
    // build: `session_read_timeout_ms` bounds query execution too, so a
    // browned-out Page Store cannot stall a session past the same budget
    // that already bounds socket reads. The session's per-query budget
    // makes scans fail fast; the sink double-checks after each batch and
    // stops the query on expiry.
    let deadline = (state.cfg.session_read_timeout_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(state.cfg.session_read_timeout_ms));
    if matches!(req, QueryRequest::Sql { .. }) {
        state.metrics().add(|m| &m.sql_queries, 1);
    }
    let mut out = Response {
        state,
        w,
        deadline,
        rows: 0,
        batches: 0,
        io: None,
    };
    let mut result = answer(state, &db, req, tenant, &mut |b| out.send(b));
    if result.is_err() && out.batches == 0 && out.io.is_none() && node != MASTER_NODE {
        state.metrics().add(|m| &m.server_failovers, 1);
        node = MASTER_NODE;
        let master = state.router.master_db();
        result = answer(state, &master, req, tenant, &mut |b| out.send(b));
    }
    // The node that answered: it sent a frame, or finished without one.
    if out.batches > 0 || result.is_ok() {
        Router::count_route(state.metrics(), node);
    }
    if let Some(e) = out.io {
        return Err(e);
    }
    match result {
        Ok(()) => {
            let (rows, batches) = (out.rows, out.batches);
            write_flush(
                out.w,
                &Message::EndOfStream {
                    rows,
                    batches,
                    node,
                },
            )
        }
        // Mid-stream: the Error frame is the response terminator (no
        // EndOfStream).
        Err(e) if out.batches > 0 => send_error(state, out.w, &e),
        // SQL diagnostics are counted where the request finally fails
        // (after any failover), so one refused statement is one
        // `sql_parse_errors`.
        Err(e) => {
            if matches!(req, QueryRequest::Sql { .. }) && matches!(e, Error::Parse(_)) {
                state.metrics().add(|m| &m.sql_parse_errors, 1);
            }
            send_error(state, out.w, &e)
        }
    }
}

/// A response being written: RowBatch frames as the query emits them.
struct Response<'a, W: Write> {
    state: &'a ServerState,
    w: &'a mut W,
    deadline: Option<Instant>,
    rows: u64,
    batches: u64,
    /// The write that failed: the query stopped there, and the session
    /// ends with it.
    io: Option<std::io::Error>,
}

impl<W: Write> Response<'_, W> {
    /// The query's sink: write `b` as one frame, then check the deadline.
    fn send(&mut self, b: RowBatch) -> Result<bool> {
        if let Err(e) = write_batch(self.state, self.w, &b) {
            self.io = Some(e);
            return Ok(false);
        }
        self.rows += b.len() as u64;
        self.batches += 1;
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            // Budget burned (e.g. by a slow client sink): the retryable
            // deadline error ends the response and stops the query.
            self.state.metrics().add(|m| &m.deadline_exceeded, 1);
            return Err(Error::DeadlineExceeded(format!(
                "query execution exceeded session_read_timeout_ms ({} ms)",
                self.state.cfg.session_read_timeout_ms
            )));
        }
        Ok(true)
    }
}

/// Answer `req` on `db`, handing each result batch to `sink`. A point
/// lookup's row and EXPLAIN text are one batch; a query runs on this
/// thread, its batches written as it emits them.
fn answer(
    state: &ServerState,
    db: &Arc<TaurusDb>,
    req: &QueryRequest,
    tenant: TenantId,
    sink: &mut dyn FnMut(RowBatch) -> Result<bool>,
) -> Result<()> {
    // Every serving session runs under the connection's tenant and the
    // server's execution budget: scans bill the tenant on the Page-Store
    // side and stop with DeadlineExceeded instead of stalling.
    let governed = |db: &Arc<TaurusDb>| {
        let mut s = Session::new(db).with_tenant(tenant);
        s.set_query_budget_ms(state.cfg.session_read_timeout_ms);
        s
    };
    match req {
        QueryRequest::Named { name, pq } => {
            let plan_fn = state.registry.get(name).ok_or_else(|| {
                Error::NotFound(format!(
                    "no plan registered under `{name}` (known: {})",
                    state.registry.names().join(", ")
                ))
            })?;
            let plan = plan_fn(db, pq.map(|d| d as usize))?;
            run_charged(&governed(db), &plan, sink)
        }
        QueryRequest::Lookup { table, pk } => {
            if let Some(row) = governed(db).lookup(table, pk)? {
                let mut b = RowBatch::with_capacity(row.len(), 1);
                b.push_row(row);
                sink(b)?;
            }
            Ok(())
        }
        QueryRequest::Sql { text, ndp } => {
            let mut session = governed(db);
            session.set_ndp(*ndp);
            match taurus_sql::parse(text)? {
                taurus_sql::Statement::Select(s) => {
                    let plan = taurus_sql::bind(&session, &s)?;
                    run_charged(&session, &plan, sink)
                }
                taurus_sql::Statement::Explain(s) => {
                    let text = taurus_sql::explain(&session, &s)?;
                    let lines: Vec<&str> = text.lines().collect();
                    let mut b = RowBatch::with_capacity(1, lines.len());
                    for line in lines {
                        b.push_row(vec![Value::str(line)]);
                    }
                    if !b.is_empty() {
                        sink(b)?;
                    }
                    Ok(())
                }
            }
        }
    }
}

/// Run `plan` on this thread into `sink`, its CPU charged as SQL-node CPU
/// (`compute_cpu_ns`) — the operators', and the encoding and writing of
/// the frames the sink sends.
fn run_charged(
    session: &Session,
    plan: &Plan,
    sink: &mut dyn FnMut(RowBatch) -> Result<bool>,
) -> Result<()> {
    let _cpu = CpuGuard::new(&session.db().metrics().compute_cpu_ns);
    session.run_plan(plan, sink)
}

fn write_batch<W: Write>(state: &ServerState, w: &mut W, b: &RowBatch) -> std::io::Result<()> {
    let payload = encode_row_batch(b);
    write_frame(w, Opcode::RowBatch, &payload)?;
    w.flush()?;
    let m = state.metrics();
    m.add(|x| &x.server_rows_sent, b.len() as u64);
    m.add(|x| &x.server_batches_sent, 1);
    // +6: u32 length prefix + version + opcode.
    m.add(|x| &x.server_bytes_sent, payload.len() as u64 + 6);
    Ok(())
}

fn serve_dml<W: Write>(
    state: &ServerState,
    w: &mut W,
    d: DmlRequest,
    last_commit_lsn: &mut Lsn,
) -> std::io::Result<()> {
    let _permit = state.gate.acquire();
    let master = state.router.master_db();
    let trx = master.begin();
    let applied = apply_dml(&master, trx, &d);
    match applied {
        Ok(()) => {
            master.commit(trx);
            // Conservative upper bound on the commit's LSN — sticking
            // reads to it guarantees read-your-writes.
            let lsn = master.sal().current_lsn();
            *last_commit_lsn = (*last_commit_lsn).max(lsn);
            state.metrics().add(|m| &m.server_dml, 1);
            write_flush(w, &Message::DmlOk { commit_lsn: lsn })
        }
        Err(e) => {
            let _ = master.rollback(trx);
            send_error(state, w, &e)
        }
    }
}

fn apply_dml(db: &Arc<TaurusDb>, trx: taurus_common::TrxId, d: &DmlRequest) -> Result<()> {
    match d {
        DmlRequest::Insert { table, row } => {
            let t = db.table(table)?;
            db.insert_row(&t, trx, row)
        }
        DmlRequest::Update { table, row } => {
            let t = db.table(table)?;
            db.update_row(&t, trx, row)
        }
        DmlRequest::Delete { table, pk } => {
            let t = db.table(table)?;
            db.delete_row(&t, trx, pk)
        }
    }
}

/// STATS payload: the master's counters verbatim, then each replica's
/// engine counters under a `replica{i}.` prefix.
fn stats_text(state: &ServerState) -> String {
    use std::fmt::Write as _;
    let mut out = state.router.master_db().metrics().render_text();
    for (i, r) in state.router.replicas().iter().enumerate() {
        for line in r.db().metrics().render_text().lines() {
            let _ = writeln!(out, "replica{i}.{line}");
        }
    }
    out
}

fn send_error<W: Write>(state: &ServerState, w: &mut W, e: &Error) -> std::io::Result<()> {
    state.metrics().add(|m| &m.server_errors_sent, 1);
    let (code, message) = encode_error(e);
    write_flush(w, &Message::Error { code, message })
}

fn write_flush<W: Write>(w: &mut W, m: &Message) -> std::io::Result<()> {
    m.write(w)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanRegistry;
    use taurus_common::{ClusterConfig, Column, DataType, Row, TableSchema, Value, DEFAULT_TENANT};
    use taurus_replica::Replica;

    fn seeded_master() -> Arc<TaurusDb> {
        let db = TaurusDb::new(ClusterConfig::small_for_tests());
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::BigInt),
                Column::new("v", DataType::BigInt),
            ],
            vec![0],
        );
        let t = db.create_table(schema, &[]).unwrap();
        let rows: Vec<Row> = (0..10i64)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect();
        db.bulk_load(&t, rows).unwrap();
        db
    }

    /// Decode every frame a serving call wrote into a byte sink.
    fn decode_frames(bytes: &[u8]) -> Vec<Message> {
        let mut r = std::io::Cursor::new(bytes);
        let mut out = Vec::new();
        while (r.position() as usize) < bytes.len() {
            out.push(Message::read(&mut r).unwrap());
        }
        out
    }

    #[test]
    fn replica_refusal_fails_over_to_master_transparently() {
        let master = seeded_master();
        let replica = Replica::attach(&master);
        replica.wait_caught_up(Duration::from_secs(10)).unwrap();
        let replica_db = replica.db().clone();
        let state = ServerState::new(master.clone(), vec![replica.clone()], PlanRegistry::new());

        // Detach *after* routing would have picked the replica: the
        // serve path must notice the refusal and re-run on the master.
        replica.detach();
        let mut out = Vec::new();
        let req = QueryRequest::Sql {
            text: "select * from t".into(),
            ndp: false,
        };
        serve_query_on(
            &state,
            &mut out,
            &req,
            replica_db,
            1,
            taurus_common::DEFAULT_TENANT,
        )
        .unwrap();

        let frames = decode_frames(&out);
        let Some(Message::EndOfStream { rows, node, .. }) = frames.last() else {
            panic!("expected EndOfStream, got {:?}", frames.last());
        };
        assert_eq!(*rows, 10, "failover must still return every row");
        assert_eq!(*node, MASTER_NODE, "response must report the master");
        let snap = master.metrics().snapshot();
        assert_eq!(snap.server_failovers, 1);
        assert_eq!(snap.server_routed_master, 1);
        assert_eq!(snap.server_routed_replica, 0);
    }

    /// A writer whose first write takes `delay`: a client slow to take
    /// the first frame.
    struct SlowFirstWrite {
        out: Vec<u8>,
        delay: Option<Duration>,
    }

    impl Write for SlowFirstWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if let Some(d) = self.delay.take() {
                std::thread::sleep(d);
            }
            self.out.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An error after the first RowBatch frame ends the response with an
    /// Error frame: no EndOfStream, no failover to the master (the
    /// client already has rows from the replica), and no row sent twice.
    /// Two errors: one the query hits mid-scan (a division by zero at
    /// `id = 500`, after 71 batches of 7 rows), and the execution budget
    /// running out while the client takes the first frame.
    #[test]
    fn error_after_the_first_frame_ends_the_response_without_failover() {
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.server.session_read_timeout_ms = 200;
        let master = TaurusDb::new(cfg);
        let t = master
            .create_table(
                TableSchema::new("t", vec![Column::new("id", DataType::BigInt)], vec![0]),
                &[],
            )
            .unwrap();
        let rows: Vec<Row> = (0..1000i64).map(|i| vec![Value::Int(i)]).collect();
        master.bulk_load(&t, rows).unwrap();
        let replica = Replica::attach(&master);
        replica.wait_caught_up(Duration::from_secs(10)).unwrap();
        let state = ServerState::new(master.clone(), vec![replica.clone()], PlanRegistry::new());
        let sql = |text: &str| QueryRequest::Sql {
            text: text.into(),
            ndp: false,
        };
        let cases = [
            (sql("select id, 1000 / (id - 500) from t"), None, 0),
            (sql("select id from t"), Some(Duration::from_millis(300)), 1),
        ];
        for (req, delay, deadlines) in cases {
            let before = master.metrics().snapshot();
            let mut w = SlowFirstWrite {
                out: Vec::new(),
                delay,
            };
            let replica_db = replica.db().clone();
            serve_query_on(&state, &mut w, &req, replica_db, 1, DEFAULT_TENANT).unwrap();
            let frames = decode_frames(&w.out);
            let (last, batches) = frames.split_last().unwrap();
            assert!(matches!(last, Message::Error { .. }), "{last:?}");
            assert!(
                !batches.is_empty(),
                "{req:?}: an error after the first frame"
            );
            let mut ids = Vec::new();
            for f in batches {
                let Message::RowBatch(b) = f else {
                    panic!("{req:?}: a RowBatch before the Error frame, got {f:?}");
                };
                ids.extend(b.rows().map(|r| r[0].as_int().unwrap()));
            }
            let prefix: Vec<i64> = (0..ids.len() as i64).collect();
            assert_eq!(ids, prefix, "{req:?}: each row once, in order");
            let d = master.metrics().snapshot().since(&before);
            assert_eq!(d.server_failovers, 0, "{req:?}");
            assert_eq!(d.server_routed_replica, 1, "{req:?}");
            assert_eq!(d.server_routed_master, 0, "{req:?}");
            assert_eq!(d.server_errors_sent, 1, "{req:?}");
            assert_eq!(d.deadline_exceeded, deadlines, "{req:?}");
        }
    }

    #[test]
    fn master_side_error_reaches_client_as_error_frame() {
        let master = seeded_master();
        let state = ServerState::new(master, Vec::new(), PlanRegistry::new());
        let mut out = Vec::new();
        let req = QueryRequest::Sql {
            text: "select * from no_such_table".into(),
            ndp: false,
        };
        let (db, node) = state.router.route_read(0);
        serve_query_on(
            &state,
            &mut out,
            &req,
            db,
            node,
            taurus_common::DEFAULT_TENANT,
        )
        .unwrap();
        let frames = decode_frames(&out);
        assert_eq!(frames.len(), 1);
        let Message::Error { code, message } = &frames[0] else {
            panic!("expected Error frame, got {:?}", frames[0]);
        };
        // SQL bind failures are Parse per the errcode table; the
        // message is client-safe.
        assert_eq!(*code, 1, "{message}");
        assert!(message.contains("no_such_table"));
        assert_eq!(state.metrics().snapshot().server_errors_sent, 1);
    }
}
