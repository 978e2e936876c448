//! Serving-layer integration tests: end-to-end TPC-H parity over a real
//! socket, lag-aware replica routing under concurrent DML,
//! read-your-LSN stickiness, disconnect-driven scan cancellation, the
//! session cap, and the retired builder-chain query tag.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taurus::prelude::*;
use taurus::protocol::{write_frame, DmlRequest, Message, Opcode, QueryRequest, MASTER_NODE};

const WAIT: Duration = Duration::from_secs(20);

/// A server whose listener uses an ephemeral port, plus its address.
fn start_server(db: &Arc<TaurusDb>, replicas: Vec<Arc<Replica>>) -> (ServerHandle, String) {
    let handle = Server::start(db, replicas, tpch_registry()).unwrap();
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

fn ephemeral(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.server.listen_addr = "127.0.0.1:0".into();
    cfg
}

fn acct_schema() -> Arc<TableSchema> {
    TableSchema::new(
        "acct",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("bal", DataType::BigInt),
        ],
        vec![0],
    )
}

const SUM_BAL: &str = "select sum(bal) from acct";

/// End-to-end parity: a TPC-H subset served over the socket decodes to
/// exactly the rows the same plan produces in-process, for named
/// queries, SQL text against the same in-process builder chain, and a
/// point lookup. Also pins the STATS scrape format.
#[test]
fn tpch_over_socket_matches_in_process() {
    let mut cfg = ephemeral(ClusterConfig::default());
    cfg.buffer_pool_pages = 256;
    cfg.slice_pages = 32;
    cfg.ndp.min_io_pages = 8;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.005, 7).unwrap();
    let (_handle, addr) = start_server(&db, Vec::new());
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.nodes(), 1);

    let session = Session::new(&db);
    let registry = tpch_registry();
    for name in ["Q1", "Q3", "Q6", "Q12", "Q14", "Q18", "Q001", "Q002"] {
        let plan = (registry.get(name).unwrap())(&db, None).unwrap();
        let want = session.execute_plan(&plan).unwrap();
        let got = client.query_named(name, None).unwrap();
        assert_eq!(got.rows, want, "{name}: wire rows differ from in-process");
        assert_eq!(got.node, MASTER_NODE);
    }

    // SQL text over the wire vs the same text in-process.
    const ADHOC: &str =
        "select o_orderkey, o_custkey from orders where o_custkey < 50 order by o_orderkey";
    let want = session.sql(ADHOC).unwrap();
    assert!(!want.is_empty());
    let got = client.query_sql(ADHOC, true).unwrap();
    assert_eq!(got.rows, want);

    // Point lookup parity: fetch a known pk over the wire.
    let pk = want[0][0].clone();
    let in_process = session
        .lookup("orders", std::slice::from_ref(&pk))
        .unwrap()
        .unwrap();
    let (wire_row, node) = client.lookup("orders", vec![pk]).unwrap();
    assert_eq!(wire_row.unwrap(), in_process);
    assert_eq!(node, MASTER_NODE);
    let (missing, _) = client.lookup("orders", vec![Value::Int(-1)]).unwrap();
    assert!(missing.is_none());

    // STATS: stable `name value` lines, counting this session's work.
    let stats = client.stats().unwrap();
    let served: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("server_queries "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(served >= 10);
    for line in stats.lines() {
        let (name, value) = line.split_once(' ').unwrap();
        assert!(!name.is_empty() && value.parse::<u64>().is_ok(), "{line}");
    }

    // Unknown names come back as structured NotFound, session intact.
    match client.query_named("Q99", None) {
        Err(Error::NotFound(m)) => assert!(m.contains("Q99"), "{m}"),
        other => panic!("expected NotFound, got {other:?}"),
    }
    assert!(client.query_named("Q6", None).is_ok());
}

/// SQL text over the wire: parity with the in-process facade, EXPLAIN
/// as single-column string rows, fail-closed positioned parse errors
/// (wire error code 1), and the `sql_queries` / `sql_parse_errors`
/// counters.
#[test]
fn sql_over_socket_matches_in_process_and_fails_closed() {
    let mut cfg = ephemeral(ClusterConfig::default());
    cfg.buffer_pool_pages = 256;
    cfg.slice_pages = 32;
    cfg.ndp.min_io_pages = 8;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.005, 7).unwrap();
    let (_handle, addr) = start_server(&db, Vec::new());
    let mut client = Client::connect(&addr).unwrap();

    // A TPC-H subset, both NDP modes, against the in-process facade.
    for ndp in [false, true] {
        for name in ["Q1", "Q3", "Q6", "Q14"] {
            let text = taurus::sql::tpch_sql::sql_for(name).unwrap();
            let mut session = Session::new(&db);
            session.set_ndp(ndp);
            let want = session.sql(text).unwrap();
            let got = client.query_sql(text, ndp).unwrap();
            assert_eq!(got.rows, want, "{name} (ndp={ndp}): wire rows differ");
            assert_eq!(got.node, MASTER_NODE);
        }
    }

    // Ad-hoc SQL with no registry entry works the same way.
    let adhoc = "select o_orderpriority, count(*) as n from orders \
                 where o_custkey < 100 group by o_orderpriority \
                 order by o_orderpriority";
    let want = Session::new(&db).sql(adhoc).unwrap();
    assert!(!want.is_empty());
    let got = client.query_sql(adhoc, false).unwrap();
    assert_eq!(got.rows, want);

    // EXPLAIN: one single-column string row per plan line.
    let got = client
        .query_sql(
            "explain select count(*) from lineitem where l_quantity < 10",
            true,
        )
        .unwrap();
    assert!(!got.rows.is_empty());
    assert!(got
        .rows
        .iter()
        .all(|r| r.len() == 1 && matches!(r[0], Value::Str(_))));

    // Malformed SQL fails closed with the positioned diagnostic and the
    // session stays usable.
    for bad in [
        "selec 1",
        "select * from nope",
        "select l_orderkey from lineitem where",
    ] {
        match client.query_sql(bad, false) {
            Err(Error::Parse(m)) => assert!(m.starts_with("line "), "{bad:?}: {m}"),
            other => panic!("expected Parse for {bad:?}, got {other:?}"),
        }
    }
    let ok = client
        .query_sql("select n_name from nation order by n_name limit 1", false)
        .unwrap();
    assert_eq!(ok.rows.len(), 1);

    let snap = db.metrics().snapshot();
    assert!(snap.sql_queries >= 14, "sql_queries = {}", snap.sql_queries);
    assert_eq!(snap.sql_parse_errors, 3);
}

/// Replica routing under write load: every wire read must observe a
/// transaction-consistent snapshot (the transfer invariant holds no
/// matter which node serves), and once the writer stops, the rotation
/// spreads reads across master and both replicas.
/// A served table of 3000 notes (`g` cycles through 500 values) whose
/// scans push down at any size.
fn note_server() -> (Arc<TaurusDb>, ServerHandle, String) {
    let mut cfg = ephemeral(ClusterConfig::small_for_tests());
    cfg.ndp.min_io_pages = 1;
    let db = TaurusDb::new(cfg);
    let schema = TableSchema::new(
        "note",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("g", DataType::Int),
            Column::new("txt", DataType::Varchar(100)),
        ],
        vec![0],
    );
    let t = db.create_table(schema, &[]).unwrap();
    let rows = (0..3000i64)
        .map(|i| {
            let txt = format!("note {i} with some padding text");
            vec![Value::Int(i), Value::Int(i % 500), Value::str(txt)]
        })
        .collect();
    db.bulk_load(&t, rows).unwrap();
    let (handle, addr) = start_server(&db, Vec::new());
    (db, handle, addr)
}

/// `text` over the wire with NDP on returns the rows the in-process
/// session returns with NDP off (both from a cold pool); its EXPLAIN.
fn wire_ndp_on_matches_off(db: &Arc<TaurusDb>, addr: &str, text: &str) -> (Vec<Row>, String) {
    db.buffer_pool().clear();
    let want = Session::new(db).with_ndp(false).sql(text).unwrap();
    db.buffer_pool().clear();
    let got = Client::connect(addr)
        .unwrap()
        .query_sql(text, true)
        .unwrap();
    assert_eq!(got.rows, want, "NDP on over the wire differs from NDP off");
    let explain = Session::new(db).sql(&format!("explain {text}")).unwrap();
    let explain = explain.iter().map(|l| format!("{}\n", l[0])).collect();
    (want, explain)
}

/// A string constant longer than the bitcode's u16 length stays with the
/// SQL node, and the pushed rest of the predicate still goes: pushed, its
/// length would wrap in the descriptor and the Page Store would read its
/// bytes as instructions.
#[test]
fn a_long_string_literal_gives_the_same_rows_with_ndp_on_and_off() {
    let (db, _handle, addr) = note_server();
    let long = "a".repeat(70_000);
    let text = format!("select id, g from note where g < 5 and txt <> '{long}' order by id");
    let (rows, explain) = wire_ndp_on_matches_off(&db, &addr, &text);
    assert_eq!(rows.len(), 30);
    assert!(
        explain.contains("Using pushed NDP condition (g < 5)"),
        "{explain:.400}"
    );
    assert!(
        explain.contains("Residual condition: (txt <> 'aaaa"),
        "{explain:.400}"
    );
}

/// An expression past the descriptor's register budget (a 40-way OR of
/// ranges, about 280 registers) is not pushed, and runs on the SQL
/// node's record VM: the same rows with NDP on and off.
#[test]
fn an_expression_past_the_register_budget_runs_as_a_residual() {
    let (db, _handle, addr) = note_server();
    let or = (0..40)
        .map(|i| format!("g between {} and {}", i * 10, i * 10 + 1))
        .collect::<Vec<_>>()
        .join(" or ");
    let text = format!("select id, g from note where txt like 'note%' and ({or}) order by id");
    let (rows, explain) = wire_ndp_on_matches_off(&db, &addr, &text);
    assert_eq!(rows.len(), 480);
    assert!(
        explain.contains("Using pushed NDP condition (txt LIKE 'note%')"),
        "{explain}"
    );
    assert!(
        explain.contains("Residual condition: ((g BETWEEN 0 AND 1) OR"),
        "{explain}"
    );
    let pushed = explain
        .lines()
        .find(|l| l.contains("Using pushed NDP condition"))
        .unwrap_or_default();
    assert!(!pushed.contains("BETWEEN"), "{explain}");
}

#[test]
fn replica_routing_holds_invariants_under_concurrent_writer() {
    let mut cfg = ephemeral(ClusterConfig::small_for_tests());
    cfg.pagestore_versions_retained = 64;
    let db = TaurusDb::new(cfg);
    let table = db.create_table(acct_schema(), &[]).unwrap();
    let rows: Vec<Row> = (0..32)
        .map(|i| vec![Value::Int(i), Value::Int(100)])
        .collect();
    db.bulk_load(&table, rows).unwrap();
    let total = 3200i64;

    let replicas = vec![Replica::attach(&db), Replica::attach(&db)];
    for r in &replicas {
        r.wait_caught_up(WAIT).unwrap();
    }
    let (_handle, addr) = start_server(&db, replicas.clone());
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.nodes(), 3);

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut k = 0i64;
            while !stop.load(Ordering::SeqCst) {
                let trx = db.begin();
                let (i, j) = (k * 7 % 32, (k * 13 + 5) % 32);
                if i != j {
                    let get = |id: i64| {
                        db.lookup_row(&table, &db.read_view(trx), &[Value::Int(id)])
                            .unwrap()
                            .unwrap()[1]
                            .as_int()
                            .unwrap()
                    };
                    let (bi, bj) = (get(i), get(j));
                    db.update_row(&table, trx, &vec![Value::Int(i), Value::Int(bi - 1)])
                        .unwrap();
                    db.update_row(&table, trx, &vec![Value::Int(j), Value::Int(bj + 1)])
                        .unwrap();
                }
                db.commit(trx);
                k += 1;
                std::thread::sleep(Duration::from_micros(50));
            }
        })
    };

    for round in 0..25 {
        let reply = client.query_sql(SUM_BAL, true).unwrap();
        let sum = reply.rows[0][0].as_int().unwrap();
        assert_eq!(
            sum, total,
            "torn snapshot over the wire (round {round}, node {})",
            reply.node
        );
    }
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();

    // Quiesced and caught up: the round-robin must reach every node.
    for r in &replicas {
        r.wait_caught_up(WAIT).unwrap();
    }
    let mut nodes = std::collections::HashSet::new();
    for _ in 0..12 {
        let reply = client.query_sql(SUM_BAL, true).unwrap();
        assert_eq!(reply.rows[0][0].as_int().unwrap(), total);
        nodes.insert(reply.node);
    }
    assert_eq!(nodes, std::collections::HashSet::from([0, 1, 2]));

    // The scrape shows replica engine counters under their prefix.
    let stats = client.stats().unwrap();
    assert!(stats.lines().any(|l| l.starts_with("replica0.")));
    assert!(stats.lines().any(|l| l.starts_with("replica1.")));
    let snap = db.metrics().snapshot();
    assert!(snap.server_routed_replica > 0);
    assert!(snap.server_routed_master > 0);
}

/// Read-your-LSN stickiness: after a wire write, the same connection's
/// reads must route around a replica that has not yet applied the
/// commit — and return to it once it catches up.
#[test]
fn reads_after_write_stick_to_caught_up_nodes() {
    let mut cfg = ephemeral(ClusterConfig::small_for_tests());
    // A tailer that polls rarely: writes stay invisible on the replica
    // for ~2 s, which is the window stickiness must cover.
    cfg.replica.poll_interval_us = 2_000_000;
    cfg.replica.max_lag_lsn = None;
    let db = TaurusDb::new(cfg);
    let table = db.create_table(acct_schema(), &[]).unwrap();
    let rows: Vec<Row> = (0..8)
        .map(|i| vec![Value::Int(i), Value::Int(100)])
        .collect();
    db.bulk_load(&table, rows).unwrap();
    let replica = Replica::attach(&db);
    replica.wait_caught_up(WAIT).unwrap();

    let (_handle, addr) = start_server(&db, vec![replica.clone()]);
    let mut client = Client::connect(&addr).unwrap();

    // Let the tailer settle into its idle sleep, then write over the
    // wire: the commit LSN comes back and becomes the session's bound.
    std::thread::sleep(Duration::from_millis(100));
    let lsn = client
        .execute(DmlRequest::Insert {
            table: "acct".into(),
            row: vec![Value::Int(1000), Value::Int(7)],
        })
        .unwrap();
    assert!(lsn > 0);
    assert!(replica.visible_lsn() < lsn, "replica must still lag here");

    // Until the replica applies the commit, every read on this
    // connection must see the row — which forces node 0.
    for i in 0..6 {
        let (row, node) = client.lookup("acct", vec![Value::Int(1000)]).unwrap();
        assert_eq!(
            row.expect("read-your-writes violated"),
            vec![Value::Int(1000), Value::Int(7)],
            "read {i}"
        );
        assert_eq!(node, MASTER_NODE, "read {i} routed to a stale replica");
    }
    assert_eq!(db.metrics().snapshot().server_routed_replica, 0);

    // Once caught up, the same connection's rotation includes the
    // replica again — and it serves the write.
    replica.wait_caught_up(WAIT).unwrap();
    let mut nodes = std::collections::HashSet::new();
    for _ in 0..6 {
        let (row, node) = client.lookup("acct", vec![Value::Int(1000)]).unwrap();
        assert_eq!(row.unwrap()[1], Value::Int(7));
        nodes.insert(node);
    }
    assert_eq!(nodes, std::collections::HashSet::from([0, 1]));
}

/// Dropping the client mid-stream must cancel the producing scan: NDP
/// in-flight batches and buffer-pool NDP frames drain to zero and the
/// session gauge returns to zero.
#[test]
fn client_drop_mid_stream_cancels_the_scan() {
    let mut cfg = ephemeral(ClusterConfig::small_for_tests());
    cfg.ndp.min_io_pages = 1;
    cfg.ndp.prefetch_batches = 2;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.005, 7).unwrap();
    let (handle, addr) = start_server(&db, Vec::new());

    let mut client = Client::connect(&addr).unwrap();
    // A selective-but-passing filter keeps the scan on the NDP path
    // while producing the full table as result frames.
    client
        .send(&Message::Query(QueryRequest::Sql {
            text: "select * from lineitem where l_orderkey > 0".into(),
            ndp: true,
        }))
        .unwrap();
    // Read exactly one result frame, then vanish.
    match client.recv().unwrap() {
        Message::RowBatch(b) => assert!(!b.is_empty()),
        other => panic!("expected a RowBatch first, got {other:?}"),
    }
    drop(client);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = db.metrics().snapshot();
        if snap.ndp_batches_in_flight == 0
            && db.buffer_pool().ndp_frames_in_use() == 0
            && snap.server_sessions == 0
            && handle.live_sessions() == 0
        {
            assert!(
                snap.ndp_batches_in_flight_peak > 0,
                "precondition: the scan must actually have used NDP prefetch"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scan not cancelled: in_flight={} ndp_frames={} sessions={}",
            snap.ndp_batches_in_flight,
            db.buffer_pool().ndp_frames_in_use(),
            snap.server_sessions
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `server.max_sessions`: connection N+1 is refused with the *retryable*
/// Overloaded error naming the limit, and the slot frees once a session
/// ends.
#[test]
fn sessions_beyond_the_cap_are_refused_until_one_frees() {
    let mut cfg = ephemeral(ClusterConfig::small_for_tests());
    cfg.server.max_sessions = 2;
    let db = TaurusDb::new(cfg);
    let table = db.create_table(acct_schema(), &[]).unwrap();
    db.bulk_load(&table, vec![vec![Value::Int(1), Value::Int(10)]])
        .unwrap();
    let (_handle, addr) = start_server(&db, Vec::new());

    let c1 = Client::connect(&addr).unwrap();
    let mut c2 = Client::connect(&addr).unwrap();
    match Client::connect(&addr) {
        Err(Error::Overloaded(m)) => assert!(m.contains("max_sessions"), "{m}"),
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("third connection must be refused"),
    }
    assert!(db.metrics().snapshot().server_sessions_refused >= 1);
    // Surviving sessions are unaffected.
    let (row, _) = c2.lookup("acct", vec![Value::Int(1)]).unwrap();
    assert_eq!(row.unwrap()[1], Value::Int(10));

    // Freeing one slot re-admits new connections (poll: the server
    // notices the disconnect asynchronously).
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c3 = loop {
        match Client::connect(&addr) {
            Ok(c) => break c,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("slot never freed: {e}"),
        }
    };
    let (row, _) = c3.lookup("acct", vec![Value::Int(1)]).unwrap();
    assert_eq!(row.unwrap()[1], Value::Int(10));
}

/// A replica detached mid-session silently leaves the rotation: later
/// queries on the same connection all succeed on the master.
#[test]
fn detached_replica_leaves_rotation_mid_session() {
    let mut cfg = ephemeral(ClusterConfig::small_for_tests());
    cfg.pagestore_versions_retained = 64;
    let db = TaurusDb::new(cfg);
    let table = db.create_table(acct_schema(), &[]).unwrap();
    let rows: Vec<Row> = (0..16)
        .map(|i| vec![Value::Int(i), Value::Int(100)])
        .collect();
    db.bulk_load(&table, rows).unwrap();
    let replica = Replica::attach(&db);
    replica.wait_caught_up(WAIT).unwrap();
    let (_handle, addr) = start_server(&db, vec![replica.clone()]);
    let mut client = Client::connect(&addr).unwrap();

    // Both nodes serve before the detach.
    let mut nodes = std::collections::HashSet::new();
    for _ in 0..6 {
        let reply = client.query_sql(SUM_BAL, true).unwrap();
        assert_eq!(reply.rows[0][0].as_int().unwrap(), 1600);
        nodes.insert(reply.node);
    }
    assert_eq!(nodes, std::collections::HashSet::from([0, 1]));

    replica.detach();
    for round in 0..8 {
        let reply = client.query_sql(SUM_BAL, true).unwrap();
        assert_eq!(reply.rows[0][0].as_int().unwrap(), 1600, "round {round}");
        assert_eq!(
            reply.node, MASTER_NODE,
            "round {round} hit a detached replica"
        );
    }
}

/// Query tag 2 (the retired builder chain) is refused with wire error
/// code 8 (Unsupported) naming SQL as its replacement, and the same
/// connection goes on to answer SQL text.
#[test]
fn retired_builder_tag_is_refused_and_the_session_keeps_serving() {
    let db = TaurusDb::new(ephemeral(ClusterConfig::small_for_tests()));
    let table = db.create_table(acct_schema(), &[]).unwrap();
    db.bulk_load(&table, vec![vec![Value::Int(1), Value::Int(10)]])
        .unwrap();
    let (_handle, addr) = start_server(&db, Vec::new());

    let mut w = TcpStream::connect(&addr).unwrap();
    let mut r = BufReader::new(w.try_clone().unwrap());
    let hello = Message::Hello {
        client: "retired-tag".into(),
        tenant: 0,
    };
    hello.write(&mut w).unwrap();
    assert!(matches!(
        Message::read(&mut r).unwrap(),
        Message::Welcome { .. }
    ));

    // The head of a former builder request for `acct`: tag 2, then the
    // table name.
    let mut payload = vec![2u8];
    payload.extend_from_slice(&4u32.to_le_bytes());
    payload.extend_from_slice(b"acct");
    write_frame(&mut w, Opcode::Query, &payload).unwrap();
    match Message::read(&mut r).unwrap() {
        Message::Error { code, message } => {
            assert_eq!(code, 8, "{message}");
            assert!(message.contains("tag 4"), "{message}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }

    let sql = Message::Query(QueryRequest::Sql {
        text: SUM_BAL.into(),
        ndp: false,
    });
    sql.write(&mut w).unwrap();
    match Message::read(&mut r).unwrap() {
        Message::RowBatch(b) => assert_eq!(b.to_rows(), vec![vec![Value::Int(10)]]),
        other => panic!("expected a RowBatch, got {other:?}"),
    }
    assert!(matches!(
        Message::read(&mut r).unwrap(),
        Message::EndOfStream { rows: 1, .. }
    ));
}
