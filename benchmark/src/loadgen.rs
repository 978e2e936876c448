//! The load generator: at most two threads, each with one connection to
//! the served socket.
//!
//! Requests and goldens exist before a window opens; nothing is encoded
//! ahead of time that the server would not see encoded by a client. A
//! window is cut into slices (one pass of a SQL workload, one second of
//! the lookup workload) so that rates can be reported as medians.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use taurus_common::metrics::thread_cpu_ns;
use taurus_common::{Error, MetricsSnapshot, Result, Row};
use taurus_protocol::{decode_error, DmlRequest, Message, QueryRequest};
use taurus_server::Client;

use crate::cluster::{Cluster, Expected};
use crate::golden::{digest_rows, lookup_matches, Digest};
use crate::sys::process_cpu_ns;
use crate::trace::Tracer;
use crate::workload::{
    LookupPlan, Rewrite, SqlPlan, Tick, CLERK_PREFIX, O_CLERK, SELECTIVE_FILTER, TICK_MS,
};

/// A write that completes later than this after it was due counts as
/// late (`server.dml_late_pct`).
pub const LATE_AFTER: Duration = Duration::from_millis(250);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    Sql,
    Lookup,
    Dml,
    Scan,
    ReadBack,
}

#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    pub class: OpClass,
    /// Statement index for `Sql`, 0 otherwise.
    pub stmt: u16,
    /// Request sent (or due, on the open-loop connection) to reply
    /// complete.
    pub lat_ns: u64,
    /// Request sent to first reply frame; only traced windows know it.
    pub first_ns: u64,
    pub ok: bool,
}

/// One slice of a window: what was done and what it cost.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub secs: f64,
    pub ops: u64,
    pub ok: u64,
    pub proc_cpu_ns: u64,
    pub loadgen_cpu_ns: u64,
    pub counters: MetricsSnapshot,
}

#[derive(Default)]
pub struct Window {
    pub secs: f64,
    pub ops: Vec<OpRecord>,
    pub slices: Vec<Slice>,
    /// Counter movement over the whole window.
    pub counters: MetricsSnapshot,
    pub proc_cpu_ns: u64,
    pub loadgen_cpu_ns: u64,
    /// Open-loop connection: how long after its due time each request
    /// was sent.
    pub lateness_ns: Vec<u64>,
    pub late_writes: u64,
    pub loadgen_threads: usize,
    /// Traced windows: counter movement per operation, by op id.
    pub op_counters: Vec<MetricsSnapshot>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Whether this is a SQL workload's window: its slices are passes of
    /// the same statements. Otherwise it is the lookup workload's, cut
    /// into seconds.
    pub fn is_sql(&self) -> bool {
        self.ops.first().is_some_and(|o| o.class == OpClass::Sql)
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    pub fn latencies_ms(&self, pick: impl Fn(&OpRecord) -> bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| pick(o))
            .map(|o| o.lat_ns as f64 / 1e6)
            .collect()
    }
}

#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    proc_cpu_ns: u64,
    loadgen_cpu_ns: u64,
    counters: MetricsSnapshot,
}

impl Mark {
    fn now(cluster: &Cluster, loadgen_cpu_ns: u64) -> Mark {
        Mark {
            at: Instant::now(),
            proc_cpu_ns: process_cpu_ns(),
            loadgen_cpu_ns,
            counters: cluster.db.metrics().snapshot(),
        }
    }

    fn slice_since(&self, earlier: &Mark, ops: u64, ok: u64) -> Slice {
        Slice {
            secs: (self.at - earlier.at).as_secs_f64(),
            ops,
            ok,
            proc_cpu_ns: self.proc_cpu_ns - earlier.proc_cpu_ns,
            loadgen_cpu_ns: self.loadgen_cpu_ns - earlier.loadgen_cpu_ns,
            counters: self.counters.since(&earlier.counters),
        }
    }
}

fn close_window(w: &mut Window, first: &Mark, last: &Mark) {
    let whole = last.slice_since(first, 0, 0);
    w.secs = whole.secs;
    w.counters = whole.counters;
    w.proc_cpu_ns = whole.proc_cpu_ns;
    w.loadgen_cpu_ns = whole.loadgen_cpu_ns;
}

/// One read request and its whole reply, like `Client::query`, with the
/// client-side spans of a traced run: send, wait for the first frame,
/// drain the rest.
fn traced_query(
    client: &mut Client,
    req: QueryRequest,
    tracer: &mut Tracer,
    op: u32,
) -> (Result<Vec<Row>>, u64, u64) {
    let root = tracer.open("wire.op", None, op);
    let mut first_ns = 0;
    let result = (|| {
        let send = tracer.open("client.send", Some(root), op);
        client.send(&Message::Query(req))?;
        tracer.close(send);
        let first = tracer.open("server.first_frame", Some(root), op);
        let mut next = client.recv()?;
        tracer.close(first);
        first_ns = tracer.get(first).end_ns - tracer.get(root).start_ns;
        let drain = tracer.open("client.drain", Some(root), op);
        let mut rows: Vec<Row> = Vec::new();
        let mut batches = 0u64;
        let out = loop {
            match next {
                Message::RowBatch(b) => {
                    batches += 1;
                    rows.extend(b.to_rows());
                }
                Message::EndOfStream {
                    rows: n,
                    batches: nb,
                    ..
                } => {
                    break if n as usize == rows.len() && nb == batches {
                        Ok(rows)
                    } else {
                        Err(Error::Corruption(format!(
                            "end-of-stream claims {n} rows / {nb} batches, received {} / {batches}",
                            rows.len()
                        )))
                    };
                }
                Message::Error { code, message } => break Err(decode_error(code, message)),
                other => {
                    break Err(Error::Corruption(format!(
                        "unexpected frame opcode {} in response",
                        other.opcode() as u8
                    )))
                }
            }
            next = client.recv()?;
        };
        tracer.close(drain);
        out
    })();
    tracer.close(root);
    (result, tracer.get(root).dur_ns(), first_ns)
}

/// A closed loop on one connection: the statements of `plan` in order,
/// pass after pass, until `min_secs` have gone by (always at least one
/// pass). Runs on the calling thread, which is the load generator.
pub fn run_sql_window(
    cluster: &Cluster,
    plan: &SqlPlan,
    ndp: bool,
    min_secs: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Window> {
    let Expected::Sql {
        statements,
        goldens,
    } = &cluster.expected
    else {
        return Err(Error::InvalidState("SQL window on a lookup cluster".into()));
    };
    let mut client = Client::connect(&cluster.addr)?;
    let mut w = Window {
        loadgen_threads: 1,
        ..Window::default()
    };
    let first = Mark::now(cluster, thread_cpu_ns());
    let mut pass_start = first;
    loop {
        let mut ok_in_pass = 0;
        for &stmt in &plan.order {
            let text = statements[stmt].text;
            let (reply, lat_ns, first_ns) = match tracer.as_deref_mut() {
                Some(tr) => {
                    let before = cluster.db.metrics().snapshot();
                    let req = QueryRequest::Sql {
                        text: text.to_string(),
                        ndp,
                    };
                    let out = traced_query(&mut client, req, tr, w.ops.len() as u32);
                    w.op_counters
                        .push(cluster.db.metrics().snapshot().since(&before));
                    out
                }
                None => {
                    let t0 = Instant::now();
                    let reply = client.query_sql(text, ndp).map(|r| r.rows);
                    (reply, t0.elapsed().as_nanos() as u64, 0)
                }
            };
            let ok = reply.is_ok_and(|rows| digest_rows(&rows) == goldens[stmt]);
            ok_in_pass += ok as u64;
            w.ops.push(OpRecord {
                class: OpClass::Sql,
                stmt: stmt as u16,
                lat_ns,
                first_ns,
                ok,
            });
        }
        let pass_end = Mark::now(cluster, thread_cpu_ns());
        w.slices
            .push(pass_end.slice_since(&pass_start, plan.order.len() as u64, ok_in_pass));
        if (pass_end.at - first.at).as_secs_f64() >= min_secs {
            close_window(&mut w, &first, &pass_end);
            return Ok(w);
        }
        pass_start = pass_end;
    }
}

/// Look up every order once, so the measured window starts with the
/// table's pages cached.
pub fn warm_lookups(cluster: &Cluster) -> Result<()> {
    let mut client = Client::connect(&cluster.addr)?;
    for row in &cluster.orders {
        client.lookup("orders", vec![row[0].clone()])?;
    }
    Ok(())
}

/// What connection B shares with connection A's slice marks.
#[derive(Default)]
struct WriterProgress {
    ops: AtomicU64,
    ok: AtomicU64,
    cpu_ns: AtomicU64,
}

/// The write connection's pre-built request for one tick.
enum WriteOp {
    Update { req: DmlRequest, rewrite: Rewrite },
    Scan,
}

fn build_write_ops(cluster: &Cluster, ticks: &[Tick]) -> Vec<WriteOp> {
    ticks
        .iter()
        .map(|t| match t.rewrite(&cluster.orders, &cluster.lineitem) {
            None => WriteOp::Scan,
            Some(rewrite) => WriteOp::Update {
                req: DmlRequest::Update {
                    table: rewrite.table.to_string(),
                    row: rewrite.row.clone(),
                },
                rewrite,
            },
        })
        .collect()
}

struct WriterResult {
    ops: Vec<OpRecord>,
    lateness_ns: Vec<u64>,
    late_writes: u64,
    tracer: Option<Tracer>,
}

/// Connection B: an open loop. One request is due every `TICK_MS`; each
/// is timed from when it was due, so a stall is charged to every request
/// it delayed.
fn writer_loop(
    cluster: &Cluster,
    ops: &[WriteOp],
    scan_golden: Digest,
    start: Instant,
    progress: &WriterProgress,
    mut tracer: Option<Tracer>,
) -> Result<WriterResult> {
    let mut client = Client::connect(&cluster.addr)?;
    let cpu0 = thread_cpu_ns();
    let mut out = WriterResult {
        ops: Vec::with_capacity(ops.len() + ops.len() / 50),
        lateness_ns: Vec::with_capacity(ops.len()),
        late_writes: 0,
        tracer: None,
    };
    let record = |out: &mut WriterResult, rec: OpRecord| {
        progress.ops.fetch_add(1, Ordering::Relaxed);
        progress.ok.fetch_add(rec.ok as u64, Ordering::Relaxed);
        progress
            .cpu_ns
            .store(thread_cpu_ns() - cpu0, Ordering::Relaxed);
        out.ops.push(rec);
    };
    for (i, op) in ops.iter().enumerate() {
        let due = start + Duration::from_millis(i as u64 * TICK_MS);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.lateness_ns
            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        // Offset of wire op ids, so they do not collide with connection A's.
        let op_id = u32::MAX / 2 + i as u32;
        match op {
            WriteOp::Scan => {
                let req = QueryRequest::Sql {
                    text: SELECTIVE_FILTER.text.to_string(),
                    ndp: true,
                };
                let reply = match tracer.as_mut() {
                    Some(tr) => traced_query(&mut client, req, tr, op_id).0,
                    None => client.query(req).map(|r| r.rows),
                };
                let lat_ns = due.elapsed().as_nanos() as u64;
                let ok = reply.is_ok_and(|rows| digest_rows(&rows) == scan_golden);
                record(
                    &mut out,
                    OpRecord {
                        class: OpClass::Scan,
                        stmt: 0,
                        lat_ns,
                        first_ns: 0,
                        ok,
                    },
                );
            }
            WriteOp::Update { req, rewrite } => {
                let span = tracer.as_mut().map(|tr| tr.open("wire.dml", None, op_id));
                let done = client.execute(req.clone());
                if let (Some(tr), Some(s)) = (tracer.as_mut(), span) {
                    tr.close(s);
                }
                let lat = due.elapsed();
                out.late_writes += (lat > LATE_AFTER) as u64;
                record(
                    &mut out,
                    OpRecord {
                        class: OpClass::Dml,
                        stmt: 0,
                        lat_ns: lat.as_nanos() as u64,
                        first_ns: 0,
                        ok: done.is_ok(),
                    },
                );
                if rewrite.read_back {
                    let t0 = Instant::now();
                    let got = client.lookup(rewrite.table, rewrite.pk.clone());
                    let written = &rewrite.row[rewrite.col];
                    let ok =
                        got.is_ok_and(|(row, _)| row.is_some_and(|r| r[rewrite.col] == *written));
                    record(
                        &mut out,
                        OpRecord {
                            class: OpClass::ReadBack,
                            stmt: 0,
                            lat_ns: t0.elapsed().as_nanos() as u64,
                            first_ns: 0,
                            ok,
                        },
                    );
                }
            }
        }
    }
    out.tracer = tracer;
    Ok(out)
}

struct ReaderResult {
    ops: Vec<OpRecord>,
    slices: Vec<Slice>,
    first: Mark,
    last: Mark,
    tracer: Option<Tracer>,
}

/// Connection A: a closed loop of point lookups for `secs` seconds. It
/// also cuts the window into one-second slices, reading connection B's
/// progress at each cut.
fn reader_loop(
    cluster: &Cluster,
    keys: &[u32],
    start: Instant,
    secs: f64,
    progress: &WriterProgress,
    stop: &AtomicBool,
    mut tracer: Option<Tracer>,
) -> Result<ReaderResult> {
    let mut client = Client::connect(&cluster.addr)?;
    let cpu0 = thread_cpu_ns();
    let loadgen_cpu = || thread_cpu_ns() - cpu0 + progress.cpu_ns.load(Ordering::Relaxed);
    let end = start + Duration::from_secs_f64(secs);
    let first = Mark::now(cluster, loadgen_cpu());
    let mut ops: Vec<OpRecord> = Vec::with_capacity((secs * 40_000.0) as usize);
    let mut slices = Vec::new();
    let mut slice_start = first;
    let (mut a_ops, mut a_ok) = (0u64, 0u64);
    let (mut b_ops_seen, mut b_ok_seen) = (0u64, 0u64);
    let mut cut = |slice_start: &mut Mark, a_ops: &mut u64, a_ok: &mut u64| {
        let mark = Mark::now(cluster, loadgen_cpu());
        let (b_ops, b_ok) = (
            progress.ops.load(Ordering::Relaxed),
            progress.ok.load(Ordering::Relaxed),
        );
        slices.push(mark.slice_since(
            slice_start,
            *a_ops + b_ops - b_ops_seen,
            *a_ok + b_ok - b_ok_seen,
        ));
        (b_ops_seen, b_ok_seen, *a_ops, *a_ok) = (b_ops, b_ok, 0, 0);
        *slice_start = mark;
    };
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        if now >= end || stop.load(Ordering::Relaxed) {
            break;
        }
        if (now - slice_start.at).as_secs_f64() >= 1.0 {
            cut(&mut slice_start, &mut a_ops, &mut a_ok);
        }
        let expected = &cluster.orders[keys[next % keys.len()] as usize];
        next += 1;
        let pk = vec![expected[0].clone()];
        let (got, lat_ns, first_ns) = match tracer.as_mut() {
            Some(tr) => {
                let req = QueryRequest::Lookup {
                    table: "orders".to_string(),
                    pk,
                };
                let (rows, lat, first) = traced_query(&mut client, req, tr, ops.len() as u32);
                (rows.map(|mut r| r.pop()), lat, first)
            }
            None => {
                let t0 = Instant::now();
                let got = client.lookup("orders", pk).map(|(row, _)| row);
                (got, t0.elapsed().as_nanos() as u64, 0)
            }
        };
        let ok = got.is_ok_and(|row| lookup_matches(row.as_ref(), expected, O_CLERK, CLERK_PREFIX));
        a_ops += 1;
        a_ok += ok as u64;
        ops.push(OpRecord {
            class: OpClass::Lookup,
            stmt: 0,
            lat_ns,
            first_ns,
            ok,
        });
    }
    // The last cut falls on the window's end, give or take one lookup.
    if (Instant::now() - slice_start.at).as_secs_f64() >= 0.5 {
        cut(&mut slice_start, &mut a_ops, &mut a_ok);
    }
    Ok(ReaderResult {
        ops,
        slices,
        first,
        last: slice_start,
        tracer,
    })
}

/// The lookup workload's window: connection A looks rows up in a closed
/// loop while connection B writes and scans on a schedule. Two threads;
/// the caller only waits.
pub fn run_lookup_window(
    cluster: &Cluster,
    plan: &LookupPlan,
    secs: u64,
    traced: bool,
) -> Result<(Window, Option<Tracer>)> {
    let Expected::Lookup { scan } = &cluster.expected else {
        return Err(Error::InvalidState("lookup window on a SQL cluster".into()));
    };
    let n_ticks = (secs * 1000 / TICK_MS) as usize;
    let write_ops = build_write_ops(cluster, &plan.ticks[..n_ticks.min(plan.ticks.len())]);
    let progress = WriterProgress::default();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let epoch = Instant::now();
    let tracers = || traced.then(|| Tracer::since(epoch));
    let (reader, writer) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            barrier.wait();
            let start = Instant::now();
            reader_loop(
                cluster,
                &plan.keys,
                start,
                secs as f64,
                &progress,
                &stop,
                tracers(),
            )
        });
        let b = s.spawn(|| {
            barrier.wait();
            let start = Instant::now();
            let out = writer_loop(cluster, &write_ops, *scan, start, &progress, tracers());
            // A failed write connection ends the window early instead of
            // letting A report a read-only workload.
            if out.is_err() {
                stop.store(true, Ordering::Relaxed);
            }
            out
        });
        (
            a.join().expect("lookup connection panicked"),
            b.join().expect("write connection panicked"),
        )
    });
    let (reader, writer) = (reader?, writer?);
    let mut w = Window {
        loadgen_threads: 2,
        ops: reader.ops,
        slices: reader.slices,
        lateness_ns: writer.lateness_ns,
        late_writes: writer.late_writes,
        ..Window::default()
    };
    w.ops.extend(writer.ops);
    close_window(&mut w, &reader.first, &reader.last);
    let tracer = reader.tracer.map(|mut a| {
        if let Some(b) = writer.tracer {
            a.absorb(b);
        }
        a
    });
    Ok((w, tracer))
}
