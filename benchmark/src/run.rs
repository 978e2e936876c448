//! One run of one workload: set-up, warm-up, the measured window, and the
//! metrics it reports.
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all.
//! `--trace 1` is a second, separate run that produces the per-layer
//! numbers: the same wire traffic with client-side spans and per-op
//! counter snapshots (its throughput against an untraced window in the
//! same process is `trace.overhead_pct`), then the in-process replay and
//! the probes of [`crate::layers`].

use std::path::PathBuf;

use taurus_common::{Error, MetricsSnapshot, Result};

use crate::cluster::{self, Cluster, Expected, Sizing};
use crate::json::Json;
use crate::layers::{self, Probes, Replay};
use crate::loadgen::{self, OpClass, Window};
use crate::metrics::{median, percentile, ratio, Metric, MetricSet, END_TO_END, PER_LAYER};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::{self, Plan, Workload};

/// Set-ups per untraced run; `setup_s` is their median and the first one
/// is the cluster that gets measured.
const SETUPS: usize = 5;
/// Spans written to a trace file at most.
const MAX_TRACE_SPANS: usize = 20_000;
/// `loadgen.cpu_pct` above this on `lookup_under_writes` fails the run:
/// the numbers would describe the generator, not the database. A point
/// lookup over loopback costs the product's own `Client` about as much as
/// it costs the server (one small frame each way on both sides), so the
/// generator's honest share is a little over 40 %; more means it grew.
pub const MAX_LOADGEN_CPU_PCT: f64 = 60.0;

#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub sizing: Sizing,
}

#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(m.value)),
                                    ("unit", m.unit.into()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit and sample count, for people.
    pub fn render_table(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{title}\n");
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<46} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "  attempted {}  failed {}  correct {}",
            self.attempted, self.failed, self.correct
        );
        out
    }
}

pub fn run(args: RunArgs) -> Result<RunResult> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn plan_for(args: &RunArgs, cluster: &Cluster, window_s: u64) -> Plan {
    workload::generate(
        args.workload,
        args.seed,
        window_s,
        cluster.orders.len(),
        cluster.lineitem.len(),
    )
}

/// One untimed pass (or one lookup of every order), so caches are full
/// and lazy set-up is done before the window opens.
fn warm_up(args: &RunArgs, cluster: &Cluster, plan: &Plan) -> Result<()> {
    match plan {
        Plan::Sql(p) => {
            loadgen::run_sql_window(cluster, p, args.workload.ndp(), 0.0, None).map(|_| ())
        }
        Plan::Lookup(_) => loadgen::warm_lookups(cluster),
    }
}

fn window(
    args: &RunArgs,
    cluster: &Cluster,
    plan: &Plan,
    secs: u64,
    traced: bool,
) -> Result<(Window, Option<Tracer>)> {
    match plan {
        Plan::Sql(p) => {
            let mut tracer = traced.then(Tracer::default);
            let w = loadgen::run_sql_window(
                cluster,
                p,
                args.workload.ndp(),
                secs as f64,
                tracer.as_mut(),
            )?;
            Ok((w, tracer))
        }
        Plan::Lookup(p) => loadgen::run_lookup_window(cluster, p, secs, traced),
    }
}

#[derive(Clone, Copy)]
enum Best {
    Highest,
    Lowest,
}

/// One number for a per-slice value of a window.
///
/// The two cores are shared: co-tenants and thread placement slow
/// stretches of a window down by a quarter, never speed one up, and
/// medians over slices moved by 15 to 25 % between identical runs. A SQL
/// workload's slices are passes, repetitions of the very same work, so
/// its best pass (like `timeit`'s minimum) is what the code costs, and it
/// repeats within a few percent. What that cannot show, a change that
/// adds stalls, shows in the traced run's tail metrics.
///
/// The lookup workload's slices are seconds of different keys, not
/// repetitions, and now and then a second runs 2.5x faster than any other
/// (client and session thread sharing a core, so no cross-core wake-ups):
/// the median second is reported there.
fn slice_stat(w: &Window, best: Best, f: impl Fn(&loadgen::Slice) -> f64) -> f64 {
    let values: Vec<f64> = w.slices.iter().map(f).collect();
    if !w.is_sql() {
        return median(&values);
    }
    match best {
        Best::Highest => values.into_iter().fold(0.0, f64::max),
        Best::Lowest => values.into_iter().fold(f64::INFINITY, f64::min),
    }
}

/// Correct operations per second.
fn throughput(w: &Window) -> f64 {
    slice_stat(w, Best::Highest, |s| ratio(s.ok as f64, s.secs))
}

/// The latencies `latency_p50_ms`/`latency_p90_ms` are taken over.
///
/// A SQL workload repeats the same few statements pass after pass, so
/// each statement is represented by its fastest execution (the same
/// reasoning as [`slice_stat`]); the percentiles are then over the
/// statement mix. The lookup workload's operations are pooled as they
/// are: every key is different and there are tens of thousands of them.
fn typical_latencies_ms(w: &Window) -> Vec<f64> {
    if !w.is_sql() {
        return w.latencies_ms(|_| true);
    }
    let n_stmts = w.ops.iter().map(|o| o.stmt as usize + 1).max().unwrap_or(0);
    (0..n_stmts)
        .map(|stmt| {
            w.latencies_ms(|o| o.stmt as usize == stmt)
                .into_iter()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn loadgen_cpu_pct(w: &Window) -> f64 {
    100.0 * ratio(w.loadgen_cpu_ns as f64, w.proc_cpu_ns as f64)
}

/// The generator must not be what is measured.
fn check_loadgen(args: &RunArgs, w: &Window) -> Result<()> {
    if w.loadgen_threads > 2 {
        return Err(Error::InvalidState(format!(
            "load generator used {} threads; at most two are allowed",
            w.loadgen_threads
        )));
    }
    let pct = loadgen_cpu_pct(w);
    if args.workload == Workload::LookupUnderWrites && pct > MAX_LOADGEN_CPU_PCT {
        return Err(Error::InvalidState(format!(
            "load generator took {pct:.1} % of process CPU (limit {MAX_LOADGEN_CPU_PCT} %)"
        )));
    }
    Ok(())
}

fn run_untraced(args: RunArgs) -> Result<RunResult> {
    let (cluster, first_setup_s) = cluster::setup(args.workload, args.sizing)?;
    let plan = plan_for(&args, &cluster, args.seconds);
    warm_up(&args, &cluster, &plan)?;
    let (w, _) = window(&args, &cluster, &plan, args.seconds, false)?;
    let peak_rss_kb = sys::peak_rss_kb();
    check_loadgen(&args, &w)?;

    // The other set-ups come after the window, one at a time: peak
    // memory above is one cluster's, as a user's would be, and the window
    // ran on a heap no earlier cluster had fragmented.
    drop(cluster);
    let mut setups = vec![first_setup_s];
    while setups.len() < SETUPS {
        setups.push(cluster::setup(args.workload, args.sizing)?.1);
    }

    let mut m = MetricSet::default();
    let n_slices = w.slices.len() as u64;
    m.set("setup_s", median(&setups), SETUPS as u64);
    m.set("throughput_ops_s", throughput(&w), n_slices);
    let lat = typical_latencies_ms(&w);
    m.set("latency_p50_ms", median(&lat), w.attempted());
    m.set("latency_p90_ms", percentile(&lat, 90.0), w.attempted());
    // Bytes that crossed a network for one operation: storage to SQL node
    // (the paper's Fig. 5/7 axis; `sal.kb_from_storage_per_op` has it
    // alone) plus SQL node to client, which keeps the metric above zero
    // when everything is cached.
    m.set(
        "net_kb_per_op",
        slice_stat(&w, Best::Lowest, |s| {
            let bytes = s.counters.net_bytes_from_storage + s.counters.server_bytes_sent;
            ratio(bytes as f64 / 1e3, s.ops as f64)
        }),
        n_slices,
    );
    // Everything the process burned that was neither the load generator
    // nor a Page-Store NDP worker: parse, bind, serve thread, executor,
    // encode.
    m.set(
        "sql_cpu_ms_per_op",
        slice_stat(&w, Best::Lowest, |s| {
            let ns = s
                .proc_cpu_ns
                .saturating_sub(s.loadgen_cpu_ns)
                .saturating_sub(s.counters.ps_cpu_ns);
            ratio(ns as f64 / 1e6, s.ops as f64)
        }),
        n_slices,
    );
    m.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0, 1);

    let failed = w.failed();
    Ok(RunResult {
        correct: failed == 0,
        attempted: w.attempted(),
        failed,
        metrics: m.in_order(END_TO_END),
    })
}

fn run_traced(args: RunArgs) -> Result<RunResult> {
    let (cluster, _) = cluster::setup(args.workload, args.sizing)?;
    let q6_access = layers::q6_access(&cluster)?;
    // The traced run splits its time: the traced window, an untraced
    // reference window, then the in-process replay; the probes come last.
    let part_s = (args.seconds / 4).max(1);
    let plan = plan_for(&args, &cluster, part_s);
    warm_up(&args, &cluster, &plan)?;
    // Traced first: its first pass then always has the same history
    // (set-up and one warm-up pass), which is what makes counts exact.
    let (traced, tracer) = window(&args, &cluster, &plan, part_s, true)?;
    let (reference, _) = window(&args, &cluster, &plan, part_s, false)?;
    check_loadgen(&args, &reference)?;
    let after_wire = cluster.db.metrics().snapshot();
    let lineitem_space = cluster.db.table("lineitem")?.primary.tree.def.space;
    let lineitem_resident = cluster
        .db
        .buffer_pool()
        .count_pages_in_space(lineitem_space);

    let replay = match &plan {
        Plan::Sql(p) => layers::replay_sql(&cluster, p, args.workload.ndp(), part_s as f64)?,
        Plan::Lookup(p) => layers::replay_lookup(&cluster, p, part_s as f64)?,
    };
    let probes = layers::run_probes(&cluster, args.workload, q6_access)?;

    let mut m = MetricSet::default();
    wire_metrics(&mut m, &reference, &traced, &after_wire);
    m.set(
        "bufferpool.lineitem_pages_resident",
        lineitem_resident as f64,
        1,
    );
    m.set(
        "tpch.load_rows_per_s",
        ratio(cluster.load_rows as f64, cluster.load_s),
        cluster.load_rows,
    );
    replay_metrics(&mut m, &cluster, &replay);
    probe_metrics(&mut m, &probes);

    let attempted = reference.attempted() + traced.attempted() + replay.ops;
    let failed = reference.failed() + traced.failed() + replay.failed;
    m.set(
        "failed_ops_pct",
        100.0 * ratio(failed as f64, attempted as f64),
        attempted,
    );
    write_trace(&args, &traced, tracer.unwrap_or_default(), &replay.tracer)?;
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.in_order(PER_LAYER),
    })
}

/// Per-layer numbers the wire windows give: counter movement per
/// operation, and client-observed times.
///
/// A SQL workload's counts are taken over the traced window's first pass.
/// How many passes fit a window varies with the box, and the buffer pool
/// a pass finds depends on how many came before; the first traced pass
/// always follows set-up and exactly one warm-up pass, so its counts
/// repeat exactly from run to run. The lookup workload has no passes; its
/// counts are over the whole window.
fn wire_metrics(m: &mut MetricSet, reference: &Window, w: &Window, absolute: &MetricsSnapshot) {
    let (c, ops) = match w.slices.first() {
        Some(first_pass) if w.is_sql() => (&first_pass.counters, first_pass.ops),
        _ => (&w.counters, w.attempted()),
    };
    let per_op = |v: u64| ratio(v as f64, ops as f64);
    let mut count = |name: &str, v: f64| m.set(name, v, ops);

    count("server.kb_sent_per_op", per_op(c.server_bytes_sent) / 1e3);
    count("server.rows_sent_per_op", per_op(c.server_rows_sent));
    count("server.errors_sent", c.server_errors_sent as f64);
    count(
        "executor.compute_cpu_ms_per_op",
        per_op(c.compute_cpu_ns) / 1e6,
    );
    count("executor.operator_rows_per_op", per_op(c.operator_rows));
    count(
        "executor.rows_per_operator_batch",
        ratio(c.operator_rows as f64, c.operator_batches as f64),
    );
    count(
        "executor.rows_scanned_per_result_row",
        ratio(c.rows_scanned as f64, c.server_rows_sent as f64),
    );
    count("expr.vector_eval_rows_per_op", per_op(c.vector_eval_rows));
    count(
        "core.prefetch_stall_ms_per_op",
        per_op(c.prefetch_stall_ns) / 1e6,
    );
    // High-water marks are absolute: a delta of two peaks means nothing.
    count(
        "core.batches_in_flight_peak",
        absolute.ndp_batches_in_flight_peak as f64,
    );
    count(
        "core.ndp_completed_on_compute_pages_per_op",
        per_op(c.ndp_completed_on_compute),
    );
    count(
        "bufferpool.hit_pct",
        100.0 * ratio(c.bp_hits as f64, (c.bp_hits + c.bp_misses) as f64),
    );
    count("bufferpool.misses_per_op", per_op(c.bp_misses));
    count("bufferpool.evictions_per_op", per_op(c.bp_evictions));
    count(
        "sal.kb_from_storage_per_op",
        per_op(c.net_bytes_from_storage) / 1e3,
    );
    count(
        "sal.kb_to_storage_per_op",
        per_op(c.net_bytes_to_storage) / 1e3,
    );
    count("sal.read_requests_per_op", per_op(c.net_read_requests));
    count("sal.read_retries", c.read_retries as f64);
    count("sal.pages_raw_per_op", per_op(c.pages_shipped_raw));
    count("sal.pages_ndp_per_op", per_op(c.pages_shipped_ndp));
    count("sal.pages_empty_per_op", per_op(c.pages_shipped_empty));
    count("pagestore.cpu_ms_per_op", per_op(c.ps_cpu_ns) / 1e6);
    count(
        "pagestore.pages_processed_per_op",
        per_op(c.ps_pages_processed),
    );
    // Attempts that did no useful NDP work: skipped by resource control,
    // shed by a saturated store, or refused at a tenant quota.
    count(
        "pagestore.ndp_degraded_pages_per_op",
        per_op(c.ps_ndp_skipped + c.ps_ndp_shed + c.ps_ndp_quota_rejected),
    );
    count(
        "pagestore.records_filtered_per_op",
        per_op(c.ps_records_filtered),
    );
    count(
        "pagestore.records_aggregated_per_op",
        per_op(c.ps_records_aggregated),
    );
    count(
        "pagestore.desc_cache_hit_pct",
        100.0
            * ratio(
                c.ps_desc_cache_hits as f64,
                (c.ps_desc_cache_hits + c.ps_desc_cache_misses) as f64,
            ),
    );
    count(
        "pagestore.desc_decode_us_per_op",
        per_op(c.ps_desc_decode_ns) / 1e3,
    );
    count(
        "pagestore.requests_in_flight_peak",
        if c.ps_pages_processed > 0 {
            absolute.ps_requests_in_flight_peak as f64
        } else {
            0.0
        },
    );
    count(
        "logstore.kb_appended_per_write",
        ratio(c.log_bytes_appended as f64 / 1e3, c.server_dml as f64),
    );
    count(
        "logstore.flush_us_per_commit",
        ratio(c.log_flush_ns as f64 / 1e3, c.log_flushes as f64),
    );

    let first_ms: Vec<f64> = w
        .ops
        .iter()
        .filter(|o| o.first_ns > 0)
        .map(|o| o.first_ns as f64 / 1e6)
        .collect();
    m.set(
        "server.first_batch_ms_p50",
        median(&first_ms),
        first_ms.len() as u64,
    );
    let class_ms = |class: OpClass| w.latencies_ms(|o| o.class == class);
    let lookups = class_ms(OpClass::Lookup);
    m.set(
        "server.lookup_p99_us",
        percentile(&lookups, 99.0) * 1e3,
        lookups.len() as u64,
    );
    let writes = class_ms(OpClass::Dml);
    m.set(
        "server.dml_p50_us",
        median(&writes) * 1e3,
        writes.len() as u64,
    );
    m.set(
        "server.dml_late_pct",
        100.0 * ratio(w.late_writes as f64, writes.len() as f64),
        writes.len() as u64,
    );
    let scans = class_ms(OpClass::Scan);
    m.set(
        "core.scan_under_writes_ms_p50",
        median(&scans),
        scans.len() as u64,
    );
    // Per statement that asked for NDP: the periodic scans where there
    // are any, every operation of a SQL workload otherwise.
    let ndp_statements = if scans.is_empty() {
        ops
    } else {
        scans.len() as u64
    };
    m.set(
        "core.ambiguous_records_per_scan",
        ratio(c.ambiguous_records as f64, ndp_statements as f64),
        ndp_statements,
    );

    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - ratio(throughput(w), throughput(reference))),
        (reference.slices.len() + w.slices.len()) as u64,
    );
    m.set(
        "loadgen.cpu_pct",
        loadgen_cpu_pct(reference),
        reference.attempted(),
    );
    let lateness_ms: Vec<f64> = reference
        .lateness_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    m.set(
        "loadgen.lateness_p99_ms",
        percentile(&lateness_ms, 99.0),
        lateness_ms.len() as u64,
    );
}

fn replay_metrics(m: &mut MetricSet, cluster: &Cluster, rp: &Replay) {
    let tr = &rp.tracer;
    let mean_us = |name: &str| {
        let d = tr.durations(name);
        (
            ratio(d.iter().sum::<f64>(), d.len() as f64) / 1e3,
            d.len() as u64,
        )
    };
    let codec = tr.durations("protocol.decode_request");
    m.set(
        "protocol.request_codec_us",
        median(&codec) / 1e3,
        codec.len() as u64,
    );
    for (metric, span) in [
        (
            "protocol.rowbatch_encode_ns_per_row",
            "protocol.encode_rowbatch",
        ),
        (
            "protocol.rowbatch_decode_ns_per_row",
            "protocol.decode_rowbatch",
        ),
    ] {
        let total: f64 = tr.durations(span).iter().sum();
        m.set(metric, ratio(total, rp.rows_coded as f64), rp.rows_coded);
    }
    for (metric, span) in [
        ("sql.lex_us_per_stmt", "sql.lex"),
        ("sql.parse_us_per_stmt", "sql.parse"),
        ("sql.bind_us_per_stmt", "sql.bind"),
        ("verify.check_plan_us_per_stmt", "verify.check_plan"),
    ] {
        let (us, n) = mean_us(span);
        if n > 0 {
            m.set(metric, us, n);
        }
    }
    let (run_us, n) = mean_us("executor.run");
    m.set("executor.run_ms_per_op", run_us / 1e3, n);
    m.set(
        "optimizer.ndp_scans_pushed_pct",
        100.0 * ratio(rp.scans_pushed as f64, rp.scans as f64),
        rp.scans,
    );
    m.set(
        "trace.replay_child_coverage_pct",
        tr.child_coverage_pct("replay.op"),
        rp.ops,
    );
    if let Expected::Sql { statements, .. } = &cluster.expected {
        for (stmt, runs) in statements.iter().zip(&rp.stmt_run_ms) {
            let name = format!("executor.stmt_ms.{}", stmt.name);
            if crate::metrics::find(&name).is_some() {
                m.set(&name, median(runs), runs.len() as u64);
            }
        }
    }
}

fn probe_metrics(m: &mut MetricSet, p: &Probes) {
    let kernel_rows = layers::KERNEL_ROWS as u64;
    m.set("expr.filter_ns_per_row", p.filter_ns_per_row, kernel_rows);
    m.set(
        "expr.vector_filter_ns_per_row",
        p.vector_filter_ns_per_row,
        kernel_rows,
    );
    m.set("core.scan_ns_per_row", p.scan_ns_per_row, p.scan_rows);
    m.set(
        "sal.batch_read_us_per_page",
        p.batch_read_us_per_page,
        p.batch_read_pages,
    );
    m.set(
        "pagestore.serve_ndp_us_per_page",
        p.serve_ndp_us_per_page,
        p.serve_ndp_pages,
    );
    m.set(
        "core.lookup_row_us",
        p.lookup_row_us,
        layers::LOOKUP_PROBES as u64,
    );
    m.set(
        "core.update_commit_us",
        p.update_commit_us,
        layers::UPDATE_PROBES as u64,
    );
}

/// Where traces go: `target/benchmark/` under the working directory.
pub fn trace_path(w: Workload) -> PathBuf {
    PathBuf::from("target/benchmark").join(format!("trace-{}.json", w.name()))
}

fn write_trace(args: &RunArgs, traced: &Window, wire: Tracer, replay: &Tracer) -> Result<()> {
    let op_counters = traced
        .op_counters
        .iter()
        .enumerate()
        .map(|(op, c)| {
            Json::obj(vec![
                ("op", Json::Num(op as f64)),
                (
                    "net_bytes_from_storage",
                    Json::Num(c.net_bytes_from_storage as f64),
                ),
                ("pages_shipped_raw", Json::Num(c.pages_shipped_raw as f64)),
                ("pages_shipped_ndp", Json::Num(c.pages_shipped_ndp as f64)),
                ("rows_scanned", Json::Num(c.rows_scanned as f64)),
                ("compute_cpu_ns", Json::Num(c.compute_cpu_ns as f64)),
                ("ps_cpu_ns", Json::Num(c.ps_cpu_ns as f64)),
                ("bp_misses", Json::Num(c.bp_misses as f64)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("workload", args.workload.name().into()),
        ("seed", Json::Num(args.seed as f64)),
        ("wire", wire.to_json(MAX_TRACE_SPANS)),
        ("wire_op_counters", Json::Arr(op_counters)),
        ("replay", replay.to_json(MAX_TRACE_SPANS)),
    ]);
    let path = trace_path(args.workload);
    let io = |e: std::io::Error| Error::InvalidState(format!("{}: {e}", path.display()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(&path, doc.render()).map_err(io)
}
