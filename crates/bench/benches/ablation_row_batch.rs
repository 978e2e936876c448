//! Ablation — scan-result batch size (`ClusterConfig::scan_batch_rows`):
//! throughput of the frontend scan→consumer→stream hot path vs how many
//! rows ride in each [`taurus_common::RowBatch`].
//!
//! Batch size 1 approximates the row-at-a-time pipeline this PR
//! replaced: one consumer hand-off and one stream-channel message per
//! row. It is not a bit-exact replica — the old pipeline ran its per-row
//! sends over a 256-row channel, while every point here uses the same
//! 2-batch channel, which handicaps the batch=1 baseline (≈2 rows of
//! look-ahead); read the headline speedup as an upper bound on the win
//! attributable to batching alone. Larger batches amortize the per-row
//! overhead all the way up: a batch fills across page boundaries (frames
//! are released as pages drain either way, the batch owns its values),
//! so the configured size is the size a scan delivers, up to
//! `BATCH_MAX_VALUES / width` rows.
//!
//! Two workloads over TPC-H `lineitem`, both drained through the
//! `Session`/`RowStream` facade with NDP off and a warm buffer pool, so
//! the row pipeline itself — not storage I/O or pushdown — is what is
//! measured:
//!
//! * **full_scan**: every row survives and crosses the stream.
//! * **selective_scan**: a Q6-style predicate evaluated as a residual by
//!   the scan, on record bytes; few rows cross, the per-record work
//!   dominates.
//!
//! Run with `cargo bench --bench ablation_row_batch`. The JSON block
//! it prints is what `BENCH_row_batch.json` at the repo root records.
//!
//! A second table isolates the expression kernel: one Q6-shaped
//! predicate over an in-memory 64k-row batch, `eval_pred` per row (what
//! the operators run) vs one `VectorProgram::eval_batch` (column at a
//! time, what `benchmark/` reports as `expr.vector_filter_ns_per_row`).

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, Criterion};
use taurus_bench::{header, setup};
use taurus_common::schema::Row;
use taurus_common::{ClusterConfig, ColumnBatch, DataType, Date32, Dec, Value};
use taurus_executor::Session;
use taurus_expr::ast::Expr;
use taurus_expr::eval::eval_pred;
use taurus_expr::vector::VectorProgram;
use taurus_ndp::TaurusDb;

const SF: f64 = 0.01;
const BATCH_SIZES: [usize; 5] = [1, 64, 256, 1024, 4096];
const SAMPLES: usize = 7;

fn pipeline_config(batch_rows: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.scan_batch_rows = batch_rows;
    // Working set fully cached and no simulated wire: isolate the
    // frontend row pipeline from storage I/O effects.
    cfg.buffer_pool_pages = 16 * 1024;
    cfg
}

/// Drain a full-table scan through the stream; returns rows pulled.
fn drain_full(db: &Arc<TaurusDb>) -> usize {
    let session = Session::new(db).with_ndp(false);
    let stream = session
        .query("lineitem")
        .unwrap()
        .select(["l_orderkey", "l_quantity", "l_extendedprice", "l_shipdate"])
        .stream()
        .unwrap();
    let mut n = 0usize;
    for row in stream {
        black_box(row.unwrap());
        n += 1;
    }
    n
}

/// Drain a selective scan (residual predicate in the consumer; ~4 % of
/// rows survive, so per-scanned-record work dominates).
fn drain_selective(db: &Arc<TaurusDb>) -> usize {
    use taurus_common::Dec;
    use taurus_executor::dsl::col;
    let session = Session::new(db).with_ndp(false);
    let stream = session
        .query("lineitem")
        .unwrap()
        .select(["l_orderkey", "l_extendedprice"])
        .filter(col("l_quantity").lt(Dec::new(300, 2)))
        .stream()
        .unwrap();
    let mut n = 0usize;
    for row in stream {
        black_box(row.unwrap());
        n += 1;
    }
    n
}

/// Median wall time over `SAMPLES` runs; returns (rows, median ms).
fn measure(db: &Arc<TaurusDb>, f: impl Fn(&Arc<TaurusDb>) -> usize) -> (usize, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(SAMPLES);
    let mut rows = 0usize;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        rows = f(db);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (rows, times[times.len() / 2])
}

/// Median wall time (ms) of a free-standing closure over `SAMPLES` runs.
fn median_ms(mut f: impl FnMut() -> usize) -> (usize, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(SAMPLES);
    let mut n = 0usize;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        n = black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (n, times[times.len() / 2])
}

const KERNEL_ROWS: usize = 64 * 1024;

/// Deterministic Q6-shaped rows: (quantity Dec(2), discount Dec(2),
/// shipdate Date). Selectivity lands around 4 %, like the real Q6.
fn kernel_rows() -> Vec<Row> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..KERNEL_ROWS)
        .map(|_| {
            vec![
                Value::Decimal(Dec::new((next() % 5_000) as i128, 2)),
                Value::Decimal(Dec::new((next() % 11) as i128, 2)),
                Value::Date(Date32(8_400 + (next() % 1_200) as i32)),
            ]
        })
        .collect()
}

fn kernel_predicate() -> Expr {
    Expr::and(vec![
        Expr::ge(Expr::col(2), Expr::date("1994-01-01")),
        Expr::lt(Expr::col(2), Expr::date("1995-01-01")),
        Expr::between(Expr::col(1), Expr::dec("0.05"), Expr::dec("0.07")),
        Expr::lt(Expr::col(0), Expr::dec("24.00")),
    ])
}

/// (survivors, scalar median ms, vector median ms).
fn bench_filter_kernel() -> (usize, f64, f64) {
    let rows = kernel_rows();
    let pred = kernel_predicate();
    let dtypes = [
        DataType::Decimal {
            precision: 15,
            scale: 2,
        },
        DataType::Decimal {
            precision: 15,
            scale: 2,
        },
        DataType::Date,
    ];
    let mut cb = ColumnBatch::with_capacity(&dtypes, KERNEL_ROWS);
    for r in &rows {
        cb.push_row(r.iter().cloned());
    }
    let vp = VectorProgram::from_expr(&pred).expect("Q6 shape vectorizes");
    let (scalar_n, scalar_ms) = median_ms(|| {
        rows.iter()
            .filter(|r| eval_pred(&pred, r).unwrap() == Some(true))
            .count()
    });
    let (vector_n, vector_ms) = median_ms(|| vp.eval_batch(&cb).unwrap().count_true());
    assert_eq!(scalar_n, vector_n, "kernel parity");
    (vector_n, scalar_ms, vector_ms)
}

fn main() {
    header("Ablation: scan-result batch size (ClusterConfig::scan_batch_rows)");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>14} {:>14}",
        "batch", "rows", "full ms", "full rows/s", "sel ms", "sel rows/s"
    );
    let mut c = Criterion::default();
    let mut json_rows: Vec<String> = Vec::new();
    let mut baseline: Option<(f64, f64)> = None;
    let mut at_1024: Option<(f64, f64)> = None;
    for &bs in &BATCH_SIZES {
        let db = setup(SF, pipeline_config(bs));
        // Warm: tree internals + buffer pool.
        let table_rows = drain_full(&db);
        let (full_rows, full_ms) = measure(&db, drain_full);
        let (sel_rows, sel_ms) = measure(&db, drain_selective);
        // Throughput is rows *scanned* per second: both workloads walk the
        // whole table; the selective one just delivers few of its rows.
        let full_rate = full_rows as f64 / (full_ms / 1e3);
        let sel_rate = table_rows as f64 / (sel_ms / 1e3);
        println!(
            "{bs:>10} {full_rows:>12} {full_ms:>14.1} {full_rate:>14.0} {sel_ms:>14.1} {sel_rate:>14.0}"
        );
        c.bench_function(&format!("full_scan/batch={bs}"), |b| {
            b.iter(|| drain_full(&db))
        });
        if bs == 1 {
            baseline = Some((full_ms, sel_ms));
        }
        if bs == 1024 {
            at_1024 = Some((full_ms, sel_ms));
        }
        json_rows.push(format!(
            "    {{\"batch_rows\": {bs}, \"full_scan\": {{\"rows_out\": {full_rows}, \"median_ms\": {full_ms:.2}, \"scanned_rows_per_sec\": {full_rate:.0}}}, \
             \"selective_scan\": {{\"rows_out\": {sel_rows}, \"median_ms\": {sel_ms:.2}, \"scanned_rows_per_sec\": {sel_rate:.0}}}}}"
        ));
    }
    let (b_full, b_sel) = baseline.expect("batch size 1 measured");
    let (k_full, k_sel) = at_1024.expect("batch size 1024 measured");
    println!();
    println!(
        "speedup @1024 vs @1: full_scan {:.2}x, selective_scan {:.2}x",
        b_full / k_full,
        b_sel / k_sel
    );
    println!();
    println!("--- BENCH_row_batch.json ---");
    println!("{{");
    println!("  \"bench\": \"ablation_row_batch\",");
    println!("  \"workload\": \"TPC-H lineitem SF {SF}, Session/RowStream drain, NDP off, warm buffer pool\",");
    println!("  \"samples_per_point\": {SAMPLES},");
    println!("  \"results\": [");
    println!("{}", json_rows.join(",\n"));
    println!("  ],");
    println!("  \"speedup_full_scan_1024_vs_1\": {:.2},", b_full / k_full);
    println!(
        "  \"speedup_selective_scan_1024_vs_1\": {:.2}",
        b_sel / k_sel
    );
    println!("}}");

    // ------- filter kernel: row at a time vs column at a time -------
    header("Ablation: filter kernel (eval_pred per row vs VectorProgram per batch)");
    let (survivors, scalar_ms, vector_ms) = bench_filter_kernel();
    println!(
        "filter kernel ({KERNEL_ROWS} rows, {survivors} survive): scalar {scalar_ms:.2} ms, \
         vector {vector_ms:.2} ms ({:.2}x)",
        scalar_ms / vector_ms
    );
}
