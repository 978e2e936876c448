//! The layer-by-layer half of a traced run.
//!
//! First an in-process replay of the same generated requests, one layer
//! at a time, each call wrapped in a span; then stand-alone probes of the
//! layers a request does not cross one call at a time (scan, SAL batch
//! read, Page-Store NDP service, expression kernels), run on the
//! workload's own tables and descriptors. Everything here calls public
//! functions of the product crates; nothing in them is changed.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use taurus_common::batch::RowBatch;
use taurus_common::{
    ColumnBatch, DataType, Date32, Dec, Error, Result, Row, SliceId, Value, DEFAULT_TENANT,
};
use taurus_executor::Session;
use taurus_expr::ast::Expr;
use taurus_expr::eval::eval_pred;
use taurus_expr::vector::VectorProgram;
use taurus_ndp::scan::{build_descriptor, scan, ScanConsumer, ScanSpec};
use taurus_ndp::{AggState, NdpChoice, ScanRange};
use taurus_pagestore::NdpBatchRequest;
use taurus_protocol::{
    decode_message, encode_row_batch, DmlRequest, Message, Opcode, QueryRequest,
};
use taurus_sql::Statement as SqlStatement;

use crate::cluster::{Cluster, Expected};
use crate::golden::{digest_rows, lookup_matches};
use crate::metrics::median;
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    clerk_value, LookupPlan, SqlPlan, Workload, CLERK_PREFIX, O_CLERK, SELECTIVE_FILTER,
};

/// Rows per RowBatch frame, as the served path sends them.
const WIRE_BATCH_ROWS: usize = taurus_common::batch::DEFAULT_SCAN_BATCH_ROWS;

#[derive(Default)]
pub struct Replay {
    pub tracer: Tracer,
    pub ops: u64,
    pub failed: u64,
    /// Result rows that went through RowBatch encode and decode.
    pub rows_coded: u64,
    /// Scan nodes of the bound plans, and how many carry an NDP decision.
    pub scans: u64,
    pub scans_pushed: u64,
    /// `executor.run` milliseconds per statement index, one per pass.
    pub stmt_run_ms: Vec<Vec<f64>>,
}

/// Request bytes through the protocol codec, as the server would see
/// them: the client's encode and the server's decode.
fn codec_request(tr: &mut Tracer, root: SpanId, msg: &Message) -> Result<Message> {
    tr.child("protocol.decode_request", root, || {
        let payload = msg.encode_payload();
        decode_message(msg.opcode() as u8, &payload)
    })
}

/// Result rows out through the RowBatch codec and back in.
fn codec_rows(tr: &mut Tracer, root: SpanId, rows: &[Row]) -> Result<Vec<Row>> {
    // On the served path the executor hands over RowBatches; collecting
    // rows and re-batching them is this replay's own work, so it gets its
    // own span instead of hiding in a product layer's.
    let batches: Vec<RowBatch> = tr.child("replay.batch_rows", root, || {
        rows.chunks(WIRE_BATCH_ROWS)
            .map(|chunk| {
                let mut b = RowBatch::with_capacity(chunk[0].len(), chunk.len());
                for r in chunk {
                    b.push_row(r.iter().cloned());
                }
                b
            })
            .collect()
    });
    let payloads: Vec<Vec<u8>> = tr.child("protocol.encode_rowbatch", root, || {
        batches.iter().map(encode_row_batch).collect()
    });
    tr.child("protocol.decode_rowbatch", root, || {
        let mut out = Vec::with_capacity(rows.len());
        for p in &payloads {
            match decode_message(Opcode::RowBatch as u8, p)? {
                Message::RowBatch(b) => out.extend(b.to_rows()),
                _ => {
                    return Err(Error::Corruption(
                        "row batch decoded as another frame".into(),
                    ))
                }
            }
        }
        Ok(out)
    })
}

/// One SQL request, layer by layer: codec, lex, parse, bind, verify,
/// execute, result codec. Returns the rows a client would have decoded.
fn replay_sql_op(
    cluster: &Cluster,
    rp: &mut Replay,
    text: &str,
    ndp: bool,
) -> Result<(Vec<Row>, f64)> {
    let msg = Message::Query(QueryRequest::Sql {
        text: text.to_string(),
        ndp,
    });
    let tr = &mut rp.tracer;
    let root = tr.open("replay.op", None, rp.ops as u32);
    let Message::Query(QueryRequest::Sql { text, ndp }) = codec_request(tr, root, &msg)? else {
        return Err(Error::Corruption("request decoded as another frame".into()));
    };
    tr.child("sql.lex", root, || taurus_sql::lexer::lex(&text))?;
    // `parse` lexes again internally; `sql.lex` above is that cost alone.
    let SqlStatement::Select(select) = tr.child("sql.parse", root, || taurus_sql::parse(&text))?
    else {
        return Err(Error::Unsupported("EXPLAIN in a workload".into()));
    };
    let mut session = Session::new(&cluster.db);
    session.set_ndp(ndp);
    // Binding executes scalar subqueries eagerly, so `sql.bind` includes
    // their run time (Q22-style statements).
    let plan = tr.child("sql.bind", root, || taurus_sql::bind(&session, &select))?;
    plan.for_each_scan(&mut |s, _| {
        rp.scans += 1;
        rp.scans_pushed += s.ndp.is_some() as u64;
    });
    tr.child("verify.check_plan", root, || {
        taurus_verify::check_plan(&plan, &cluster.db)
    })?;
    let run = tr.open("executor.run", Some(root), rp.ops as u32);
    let rows = session.execute_plan(&plan)?;
    tr.close(run);
    let run_ms = tr.get(run).dur_ns() as f64 / 1e6;
    let decoded = codec_rows(tr, root, &rows)?;
    tr.close(root);
    rp.rows_coded += decoded.len() as u64;
    rp.ops += 1;
    Ok((decoded, run_ms))
}

/// Replay a SQL workload's passes in-process for at least `min_secs`.
pub fn replay_sql(cluster: &Cluster, plan: &SqlPlan, ndp: bool, min_secs: f64) -> Result<Replay> {
    let Expected::Sql {
        statements,
        goldens,
    } = &cluster.expected
    else {
        return Err(Error::InvalidState("SQL replay on a lookup cluster".into()));
    };
    let mut rp = Replay {
        stmt_run_ms: vec![Vec::new(); statements.len()],
        ..Replay::default()
    };
    let t0 = Instant::now();
    loop {
        for &stmt in &plan.order {
            let (rows, run_ms) = replay_sql_op(cluster, &mut rp, statements[stmt].text, ndp)?;
            rp.failed += (digest_rows(&rows) != goldens[stmt]) as u64;
            rp.stmt_run_ms[stmt].push(run_ms);
        }
        if t0.elapsed().as_secs_f64() >= min_secs {
            return Ok(rp);
        }
    }
}

/// Replay the lookup workload in-process: connection A's lookups for
/// most of `secs`, then connection B's schedule until the time is up.
pub fn replay_lookup(cluster: &Cluster, plan: &LookupPlan, secs: f64) -> Result<Replay> {
    let Expected::Lookup { scan: scan_golden } = &cluster.expected else {
        return Err(Error::InvalidState("lookup replay on a SQL cluster".into()));
    };
    let db = &cluster.db;
    let orders = db.table("orders")?;
    let lineitem = db.table("lineitem")?;
    let mut rp = Replay::default();
    let t0 = Instant::now();

    for &k in plan.keys.iter().cycle() {
        if t0.elapsed().as_secs_f64() >= secs * 0.6 {
            break;
        }
        let expected = &cluster.orders[k as usize];
        let msg = Message::Query(QueryRequest::Lookup {
            table: "orders".to_string(),
            pk: vec![expected[0].clone()],
        });
        let tr = &mut rp.tracer;
        let root = tr.open("replay.op", None, rp.ops as u32);
        let Message::Query(QueryRequest::Lookup { table, pk }) = codec_request(tr, root, &msg)?
        else {
            return Err(Error::Corruption("request decoded as another frame".into()));
        };
        let rows: Vec<Row> = tr.child("core.lookup", root, || {
            Session::new(db)
                .lookup(&table, &pk)
                .map(|found| found.into_iter().collect())
        })?;
        let decoded = codec_rows(tr, root, &rows)?;
        tr.close(root);
        rp.failed += !lookup_matches(decoded.first(), expected, O_CLERK, CLERK_PREFIX) as u64;
        rp.rows_coded += decoded.len() as u64;
        rp.ops += 1;
    }

    for tick in &plan.ticks {
        if t0.elapsed().as_secs_f64() >= secs {
            break;
        }
        let Some(rewrite) = tick.rewrite(&cluster.orders, &cluster.lineitem) else {
            let (rows, _) = replay_sql_op(cluster, &mut rp, SELECTIVE_FILTER.text, true)?;
            rp.failed += (digest_rows(&rows) != *scan_golden) as u64;
            continue;
        };
        let table = if rewrite.table == "orders" {
            &orders
        } else {
            &lineitem
        };
        let msg = Message::Dml(DmlRequest::Update {
            table: rewrite.table.to_string(),
            row: rewrite.row,
        });
        let tr = &mut rp.tracer;
        let root = tr.open("replay.op", None, rp.ops as u32);
        let Message::Dml(DmlRequest::Update { row: new_row, .. }) = codec_request(tr, root, &msg)?
        else {
            return Err(Error::Corruption("request decoded as another frame".into()));
        };
        let done = tr.child("core.update_commit", root, || {
            let trx = db.begin();
            db.update_row(table, trx, &new_row).map(|()| db.commit(trx))
        });
        tr.close(root);
        rp.failed += done.is_err() as u64;
        rp.ops += 1;
    }
    Ok(rp)
}

/// Numbers from calling single layers directly.
#[derive(Default, Debug)]
pub struct Probes {
    pub filter_ns_per_row: f64,
    pub vector_filter_ns_per_row: f64,
    pub scan_ns_per_row: f64,
    pub scan_rows: u64,
    pub batch_read_us_per_page: f64,
    pub batch_read_pages: u64,
    pub serve_ndp_us_per_page: f64,
    pub serve_ndp_pages: u64,
    pub lookup_row_us: f64,
    pub update_commit_us: f64,
}

pub const KERNEL_ROWS: usize = 65_536;
const PROBE_REPS: usize = 5;
pub const LOOKUP_PROBES: usize = 2_000;
pub const UPDATE_PROBES: usize = 200;

/// Median seconds of `PROBE_REPS` calls.
fn median_secs(mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    let mut secs = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        f()?;
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// The Q6 predicate over a 65,536-row batch: row at a time through
/// `eval_pred` (what the default row layout runs) and column at a time
/// through `VectorProgram::eval_batch`.
fn probe_filter_kernels(p: &mut Probes) -> Result<()> {
    let mut rng = crate::workload::Rng::new(0x51f1);
    let rows: Vec<Row> = (0..KERNEL_ROWS)
        .map(|_| {
            vec![
                Value::Decimal(Dec::new(rng.below(5_000) as i128, 2)),
                Value::Decimal(Dec::new(rng.below(11) as i128, 2)),
                Value::Date(Date32(8_400 + rng.below(1_200) as i32)),
            ]
        })
        .collect();
    let pred = Expr::and(vec![
        Expr::ge(Expr::col(2), Expr::date("1994-01-01")),
        Expr::lt(Expr::col(2), Expr::date("1995-01-01")),
        Expr::between(Expr::col(1), Expr::dec("0.05"), Expr::dec("0.07")),
        Expr::lt(Expr::col(0), Expr::dec("24.00")),
    ]);
    let dec = DataType::Decimal {
        precision: 15,
        scale: 2,
    };
    let mut cb = ColumnBatch::with_capacity(&[dec, dec, DataType::Date], KERNEL_ROWS);
    for r in &rows {
        cb.push_row(r.iter().cloned());
    }
    let vp = VectorProgram::from_expr(&pred)?;
    let mut survivors = (0usize, 0usize);
    let scalar = median_secs(|| {
        survivors.0 = 0;
        for r in &rows {
            survivors.0 += (eval_pred(&pred, r)? == Some(true)) as usize;
        }
        black_box(survivors.0);
        Ok(())
    })?;
    let vector = median_secs(|| {
        survivors.1 = black_box(vp.eval_batch(&cb)?.count_true());
        Ok(())
    })?;
    if survivors.0 != survivors.1 {
        return Err(Error::Internal(format!(
            "filter kernels disagree: {} rows row-at-a-time, {} vectorized",
            survivors.0, survivors.1
        )));
    }
    p.filter_ns_per_row = scalar * 1e9 / KERNEL_ROWS as f64;
    p.vector_filter_ns_per_row = vector * 1e9 / KERNEL_ROWS as f64;
    Ok(())
}

struct CountingConsumer(u64);

impl ScanConsumer for CountingConsumer {
    fn on_row(&mut self, _row: &[Value]) -> Result<bool> {
        self.0 += 1;
        Ok(true)
    }

    fn on_batch(&mut self, batch: &RowBatch) -> Result<bool> {
        self.0 += batch.len() as u64;
        Ok(true)
    }

    fn on_partial(&mut self, _states: Vec<AggState>) -> Result<bool> {
        Ok(true)
    }
}

/// Q6's `lineitem` access as the binder plans it with NDP on: the NDP
/// choice and the columns the scan delivers.
///
/// Ask while the buffer pool is cold: the optimizer only pushes a scan
/// down when it expects enough physical I/O, so on a warm pool there is
/// no decision to take the descriptor from.
pub fn q6_access(cluster: &Cluster) -> Result<(NdpChoice, Vec<usize>)> {
    let text = taurus_sql::tpch_sql::sql_for("Q6").expect("registry has Q6");
    let SqlStatement::Select(select) = taurus_sql::parse(text)? else {
        return Err(Error::Internal("Q6 is a SELECT".into()));
    };
    let session = Session::new(&cluster.db).with_ndp(true);
    let plan = taurus_sql::bind(&session, &select)?;
    let mut found = None;
    plan.for_each_scan(&mut |s, _| {
        if let (None, Some(d)) = (&found, &s.ndp) {
            found = Some((d.choice.clone(), s.output.clone()));
        }
    });
    found.ok_or_else(|| Error::Internal("Q6's lineitem scan carries no NDP decision".into()))
}

pub fn run_probes(
    cluster: &Cluster,
    w: Workload,
    (choice, output_cols): (NdpChoice, Vec<usize>),
) -> Result<Probes> {
    let mut p = Probes::default();
    probe_filter_kernels(&mut p)?;

    let db = &cluster.db;
    let lineitem = db.table("lineitem")?;
    let view = db.read_view(0);

    // core::scan over lineitem the way this workload scans it: with Q6's
    // NDP choice where statements ask for NDP, classically otherwise.
    let spec = ScanSpec {
        index: 0,
        range: ScanRange::full(),
        ndp: w.ndp().then(|| choice.clone()),
        output_cols,
    };
    let table_rows = cluster.lineitem.len() as u64;
    let secs = median_secs(|| {
        let mut consumer = CountingConsumer(0);
        scan(db, &lineitem, &spec, &view, &mut consumer)?;
        black_box(consumer.0);
        Ok(())
    })?;
    p.scan_rows = table_rows;
    p.scan_ns_per_row = secs * 1e9 / table_rows as f64;

    // Every lineitem leaf, in look-ahead-sized batches, with Q6's
    // descriptor: once through the SAL fan-out, and the first slice's
    // pages once more straight at a Page Store that holds them.
    let index = &lineitem.primary;
    let space = index.tree.def.space;
    let descriptor = Arc::new(build_descriptor(index, &choice, view.low_watermark())?.encode());
    let look_ahead = db.config().ndp.max_pages_look_ahead.max(1);
    let mut batches = Vec::new();
    let mut resume: Option<Vec<u8>> = None;
    loop {
        let (pages, lsn, next) = index.tree.collect_leaf_batch(
            index.store.as_ref(),
            &ScanRange::full(),
            resume.as_deref(),
            look_ahead,
        )?;
        if !pages.is_empty() {
            batches.push((pages, lsn));
        }
        match next {
            Some(k) => resume = Some(k),
            None => break,
        }
    }
    let Some((first_pages, first_lsn)) = batches.first().cloned() else {
        return Err(Error::Internal("lineitem has no leaf batch".into()));
    };
    p.batch_read_pages = batches.iter().map(|(pages, _)| pages.len() as u64).sum();
    let secs = median_secs(|| {
        for (pages, lsn) in &batches {
            let mut handle =
                db.sal()
                    .batch_read_streaming(space, pages, *lsn, descriptor.clone())?;
            while let Some(sub) = handle.recv() {
                black_box(sub?.len());
            }
        }
        Ok(())
    })?;
    p.batch_read_us_per_page = secs * 1e6 / p.batch_read_pages as f64;

    let slice = SliceId::of(space, first_pages[0], db.config().slice_pages);
    let request = NdpBatchRequest {
        slice,
        pages: first_pages
            .iter()
            .copied()
            .filter(|&no| SliceId::of(space, no, db.config().slice_pages) == slice)
            .collect(),
        read_lsn: first_lsn,
        descriptor,
        tenant: DEFAULT_TENANT,
    };
    let store = db
        .sal()
        .replicas_of(slice)
        .and_then(|r| r.first().copied())
        .map(|i| db.sal().page_stores()[i].clone())
        .ok_or_else(|| Error::Internal("lineitem's first slice has no replica".into()))?;
    p.serve_ndp_pages = request.pages.len() as u64;
    let secs = median_secs(|| {
        black_box(store.serve_ndp_batch(&request)?.len());
        Ok(())
    })?;
    p.serve_ndp_us_per_page = secs * 1e6 / p.serve_ndp_pages as f64;

    // Point reads and single-row commits straight at the engine.
    let orders = db.table("orders")?;
    let mut rng = crate::workload::Rng::new(0x100c);
    let keys: Vec<usize> = (0..LOOKUP_PROBES)
        .map(|_| rng.below(cluster.orders.len()))
        .collect();
    let t0 = Instant::now();
    for &k in &keys {
        let pk = [cluster.orders[k][0].clone()];
        if db.lookup_row(&orders, &view, &pk)?.is_none() {
            return Err(Error::Internal(format!("order {:?} not found", pk[0])));
        }
    }
    p.lookup_row_us = t0.elapsed().as_secs_f64() * 1e6 / LOOKUP_PROBES as f64;
    let t0 = Instant::now();
    for (i, &k) in keys.iter().take(UPDATE_PROBES).enumerate() {
        let mut row = cluster.orders[k].clone();
        row[O_CLERK] = clerk_value(i as u32);
        let trx = db.begin();
        db.update_row(&orders, trx, &row)?;
        db.commit(trx);
    }
    p.update_commit_us = t0.elapsed().as_secs_f64() * 1e6 / UPDATE_PROBES as f64;
    Ok(p)
}
