//! Per-connection session loop and the query/DML serving paths.
//!
//! Error discipline, in order of severity:
//! - **I/O errors** (disconnect, read timeout, unreadable framing) end
//!   the session. Any in-flight [`RowStream`] is dropped on the way
//!   out, which cancels the producing scan and returns its NDP frames —
//!   a slow or vanished client cannot pin buffer-pool memory.
//! - **Decode errors** (unknown opcode, corrupt payload) and **engine
//!   errors** answer with an Error frame and keep the session alive.
//! - **Replica refusals** after routing (detached, or lag crossed the
//!   bound between `route_read` and execution) retry once on the
//!   master, invisibly to the client except for `node` in the
//!   end-of-stream frame.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use taurus_common::batch::RowBatch;
use taurus_common::{Error, Lsn, Result, TenantId, Value};
use taurus_executor::{RowStream, Session};
use taurus_ndp::TaurusDb;
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

/// Serve one read on a routed node, falling back to the master when a
/// replica refuses. Split out (and generic over the sink) so failover
/// is unit-testable without sockets.
pub(crate) fn serve_query_on<W: Write>(
    state: &ServerState,
    w: &mut W,
    req: &QueryRequest,
    db: Arc<TaurusDb>,
    node: u32,
    tenant: TenantId,
) -> std::io::Result<()> {
    // One execution deadline for the whole response, stamped before plan
    // build: `session_read_timeout_ms` bounds query execution too, so a
    // browned-out Page Store cannot stall a session past the same budget
    // that already bounds socket reads. The session's per-query budget
    // makes scans fail fast; the send loop double-checks between batches
    // and cancels the producer (RowStream drop) on expiry.
    let deadline = (state.cfg.session_read_timeout_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(state.cfg.session_read_timeout_ms));
    if matches!(req, QueryRequest::Sql { .. }) {
        state.metrics().add(|m| &m.sql_queries, 1);
    }
    // SQL diagnostics are counted where the request finally fails (after
    // any failover), so one refused statement is one `sql_parse_errors`.
    let refuse = |state: &ServerState, w: &mut W, e: &Error| {
        if matches!(req, QueryRequest::Sql { .. }) && matches!(e, Error::Parse(_)) {
            state.metrics().add(|m| &m.sql_parse_errors, 1);
        }
        send_error(state, w, e)
    };
    match prepare(state, &db, req, tenant) {
        Ok(ready) => send_ready(state, w, ready, node, deadline),
        Err(_) if node != MASTER_NODE => {
            state.metrics().add(|m| &m.server_failovers, 1);
            match prepare(state, &state.router.master_db(), req, tenant) {
                Ok(ready) => send_ready(state, w, ready, MASTER_NODE, deadline),
                Err(e) => refuse(state, w, &e),
            }
        }
        Err(e) => refuse(state, w, &e),
    }
}

/// A prepared response. The first batch is pulled *before* any frame
/// is written, so replica-side failures (plan build or first scan
/// batch) can still fail over to the master cleanly. A point lookup's
/// row and EXPLAIN text are one batch with no stream behind it.
struct Ready {
    first: Option<RowBatch>,
    rest: Option<RowStream>,
}

fn prepare(
    state: &ServerState,
    db: &Arc<TaurusDb>,
    req: &QueryRequest,
    tenant: TenantId,
) -> Result<Ready> {
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
            // stream_plan has no serveability gate of its own; refuse
            // stale replicas here the way Session::query would.
            db.check_serveable()?;
            let plan_fn = state.registry.get(name).ok_or_else(|| {
                Error::NotFound(format!(
                    "no plan registered under `{name}` (known: {})",
                    state.registry.names().join(", ")
                ))
            })?;
            let plan = plan_fn(db, pq.map(|d| d as usize))?;
            let session = governed(db);
            first_batch(session.stream_plan(plan))
        }
        QueryRequest::Lookup { table, pk } => {
            let first = governed(db).lookup(table, pk)?.map(|row| {
                let mut b = RowBatch::with_capacity(row.len(), 1);
                b.push_row(row);
                b
            });
            Ok(Ready { first, rest: None })
        }
        QueryRequest::Sql { text, ndp } => {
            // Same gate as Named: binding resolves names against this
            // node's catalog and execution scans it, so a stale replica
            // refuses before any work (then fails over to the master).
            db.check_serveable()?;
            let mut session = governed(db);
            session.set_ndp(*ndp);
            match taurus_sql::parse(text)? {
                taurus_sql::Statement::Select(s) => {
                    let plan = taurus_sql::bind(&session, &s)?;
                    first_batch(session.stream_plan(plan))
                }
                taurus_sql::Statement::Explain(s) => {
                    let text = taurus_sql::explain(&session, &s)?;
                    let lines: Vec<&str> = text.lines().collect();
                    let mut b = RowBatch::with_capacity(1, lines.len());
                    for line in lines {
                        b.push_row(vec![Value::str(line)]);
                    }
                    let first = (!b.is_empty()).then_some(b);
                    Ok(Ready { first, rest: None })
                }
            }
        }
    }
}

fn first_batch(mut stream: RowStream) -> Result<Ready> {
    let first = stream.next_batch().transpose()?;
    Ok(Ready {
        first,
        rest: Some(stream),
    })
}

/// Stream a prepared response out: RowBatch frames, then EndOfStream —
/// or an Error frame as the terminator if the scan fails mid-way or the
/// execution deadline expires between batches (returning early drops
/// the [`RowStream`], which cancels the producing scan).
fn send_ready<W: Write>(
    state: &ServerState,
    w: &mut W,
    ready: Ready,
    node: u32,
    deadline: Option<Instant>,
) -> std::io::Result<()> {
    Router::count_route(state.metrics(), node);
    let mut rows = 0u64;
    let mut batches = 0u64;
    let (mut next, mut rest) = (ready.first, ready.rest);
    while let Some(b) = next {
        rows += b.len() as u64;
        batches += 1;
        write_batch(state, w, &b)?;
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Budget burned (e.g. by a slow client sink): answer with the
            // retryable deadline error and drop `rest` on return,
            // cancelling the producing scan.
            state.metrics().add(|m| &m.deadline_exceeded, 1);
            return send_error(
                state,
                w,
                &Error::DeadlineExceeded(format!(
                    "query execution exceeded session_read_timeout_ms ({} ms)",
                    state.cfg.session_read_timeout_ms
                )),
            );
        }
        next = match rest.as_mut().and_then(RowStream::next_batch) {
            Some(Ok(b)) => Some(b),
            // Mid-stream engine error: the Error frame is the response
            // terminator (no EndOfStream).
            Some(Err(e)) => return send_error(state, w, &e),
            None => None,
        };
    }
    write_flush(
        w,
        &Message::EndOfStream {
            rows,
            batches,
            node,
        },
    )
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
    use taurus_common::{ClusterConfig, Column, DataType, Row, TableSchema, Value};
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
