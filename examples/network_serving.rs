//! Serving the engine over TCP: server, wire client, replica routing.
//!
//! Starts a `Server` fronting a master plus one log-tailing read
//! replica, then drives it with the wire `Client`: named TPC-H plans,
//! an ad-hoc SQL statement, a point lookup, a write — and shows
//! read-your-writes stickiness (after the INSERT, reads pin to the
//! master until the replica's visible LSN catches up to the client's
//! commit LSN) plus the STATS scrape an operator would poll.
//!
//! Run: `cargo run --release --example network_serving`

use std::time::Duration;

use taurus::prelude::*;
use taurus::protocol::DmlRequest;

fn main() -> Result<()> {
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = 256;
    cfg.ndp.min_io_pages = 8;
    // Ephemeral port: the OS picks, `handle.local_addr()` reports.
    cfg.server.listen_addr = "127.0.0.1:0".into();
    let db = TaurusDb::new(cfg);
    println!("Loading TPC-H SF 0.01...");
    taurus::tpch::load(&db, 0.01, 42)?;

    // A small side table for the write demo.
    let note = db.create_table(
        TableSchema::new(
            "note",
            vec![
                Column::new("id", DataType::BigInt),
                Column::new("body", DataType::Varchar(64)),
            ],
            vec![0],
        ),
        &[],
    )?;
    db.bulk_load(&note, vec![vec![Value::Int(0), Value::str("seed")]])?;

    // One read replica, serving at its own consistent LSN.
    let replica = Replica::attach(&db);
    replica.wait_caught_up(Duration::from_secs(10))?;

    let handle = Server::start(&db, vec![replica.clone()], tpch_registry())?;
    let addr = handle.local_addr().to_string();
    println!("serving on {addr}\n");

    let mut client = Client::connect(&addr)?;
    println!("handshake: {} nodes (master + replicas)", client.nodes());

    // Named plans from the registry; repeats rotate across nodes.
    for _ in 0..2 {
        let reply = client.query_named("Q6", None)?;
        println!(
            "Q6  -> {} row(s) from node {}",
            reply.rows.len(),
            reply.node
        );
    }

    // Ad-hoc SQL text, parsed and bound on the serving node: COUNT(*)
    // of cheap line items.
    let reply = client.query_sql(
        "select count(*) from lineitem where l_quantity < 5.00",
        true,
    )?;
    println!(
        "SQL COUNT(l_quantity < 5.00) = {} (node {})",
        reply.rows[0][0], reply.node
    );

    // A write, then read-your-writes: until the replica's visible LSN
    // reaches the commit LSN, this client's reads route to the master.
    let commit_lsn = client.execute(DmlRequest::Insert {
        table: "note".into(),
        row: vec![Value::Int(1), Value::str("written over the wire")],
    })?;
    println!("\nINSERT committed at LSN {commit_lsn}");
    let (row, node) = client.lookup("note", vec![Value::Int(1)])?;
    println!(
        "read-your-writes: {:?} served by node {node} (replica visible LSN {})",
        row.expect("just inserted"),
        replica.visible_lsn()
    );

    // The operator's view: a STATS scrape of stable `name value` lines.
    let stats = client.stats()?;
    println!("\nselected server counters:");
    for line in stats.lines().filter(|l| {
        [
            "server_queries ",
            "server_dml ",
            "server_routed_master ",
            "server_routed_replica ",
        ]
        .iter()
        .any(|p| l.starts_with(p))
    }) {
        println!("  {line}");
    }
    Ok(())
}
