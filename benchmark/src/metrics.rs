//! The metric registry and the statistics every report uses.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; `tests/contract.rs` holds the two in step. Regression
//! bounds live only in `BENCHMARK.json`.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the served database sees. Reported by the untraced run
/// (`--trace 0`); none of them is ever zero on any workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("throughput_ops_s", "1/s"),
    lower("latency_p50_ms", "ms"),
    lower("latency_p90_ms", "ms"),
    lower("net_kb_per_op", "kB"),
    lower("sql_cpu_ms_per_op", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer numbers, reported by the traced run (`--trace 1`). The
/// prefix is the crate the number belongs to.
pub const PER_LAYER: &[MetricDef] = &[
    lower("failed_ops_pct", "%"),
    lower("protocol.request_codec_us", "us"),
    lower("protocol.rowbatch_encode_ns_per_row", "ns"),
    lower("protocol.rowbatch_decode_ns_per_row", "ns"),
    lower("server.first_batch_ms_p50", "ms"),
    lower("server.kb_sent_per_op", "kB"),
    lower("server.rows_sent_per_op", "count"),
    lower("server.errors_sent", "count"),
    lower("server.lookup_p99_us", "us"),
    lower("server.dml_p50_us", "us"),
    lower("server.dml_late_pct", "%"),
    lower("sql.lex_us_per_stmt", "us"),
    lower("sql.parse_us_per_stmt", "us"),
    lower("sql.bind_us_per_stmt", "us"),
    lower("verify.check_plan_us_per_stmt", "us"),
    higher("optimizer.ndp_scans_pushed_pct", "%"),
    lower("executor.run_ms_per_op", "ms"),
    lower("executor.compute_cpu_ms_per_op", "ms"),
    lower("executor.operator_rows_per_op", "count"),
    higher("executor.rows_per_operator_batch", "count"),
    lower("executor.rows_scanned_per_result_row", "count"),
    lower("executor.stmt_ms.full_scan", "ms"),
    lower("executor.stmt_ms.selective_filter", "ms"),
    lower("executor.stmt_ms.q1_agg", "ms"),
    lower("executor.stmt_ms.q6", "ms"),
    lower("executor.stmt_ms.q3_join", "ms"),
    lower("executor.stmt_ms.q18_sort", "ms"),
    lower("expr.filter_ns_per_row", "ns"),
    lower("expr.vector_filter_ns_per_row", "ns"),
    lower("expr.vector_eval_rows_per_op", "count"),
    lower("core.scan_ns_per_row", "ns"),
    lower("core.prefetch_stall_ms_per_op", "ms"),
    higher("core.batches_in_flight_peak", "count"),
    lower("core.ndp_completed_on_compute_pages_per_op", "count"),
    lower("core.ambiguous_records_per_scan", "count"),
    lower("core.scan_under_writes_ms_p50", "ms"),
    lower("core.lookup_row_us", "us"),
    lower("core.update_commit_us", "us"),
    higher("bufferpool.hit_pct", "%"),
    lower("bufferpool.misses_per_op", "count"),
    lower("bufferpool.evictions_per_op", "count"),
    lower("bufferpool.lineitem_pages_resident", "count"),
    lower("sal.kb_from_storage_per_op", "kB"),
    lower("sal.kb_to_storage_per_op", "kB"),
    lower("sal.read_requests_per_op", "count"),
    lower("sal.read_retries", "count"),
    lower("sal.pages_raw_per_op", "count"),
    lower("sal.pages_ndp_per_op", "count"),
    lower("sal.pages_empty_per_op", "count"),
    lower("sal.batch_read_us_per_page", "us"),
    lower("pagestore.cpu_ms_per_op", "ms"),
    lower("pagestore.serve_ndp_us_per_page", "us"),
    lower("pagestore.pages_processed_per_op", "count"),
    lower("pagestore.ndp_degraded_pages_per_op", "count"),
    higher("pagestore.records_filtered_per_op", "count"),
    higher("pagestore.records_aggregated_per_op", "count"),
    higher("pagestore.desc_cache_hit_pct", "%"),
    lower("pagestore.desc_decode_us_per_op", "us"),
    higher("pagestore.requests_in_flight_peak", "count"),
    lower("logstore.kb_appended_per_write", "kB"),
    lower("logstore.flush_us_per_commit", "us"),
    higher("tpch.load_rows_per_s", "1/s"),
    lower("trace.overhead_pct", "%"),
    higher("trace.replay_child_coverage_pct", "%"),
    lower("loadgen.cpu_pct", "%"),
    lower("loadgen.lateness_p99_ms", "ms"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured value. `samples` is how many observations the value
/// summarises; it is printed beside the value, not part of the JSON line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// Values of one run, keyed by registry name. Setting a name the
/// registry does not know is a bug in the benchmark, so it panics.
#[derive(Default, Debug)]
pub struct MetricSet {
    values: Vec<Metric>,
}

impl MetricSet {
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|m| m.name == def.name) {
            Some(m) => {
                m.value = value;
                m.samples = samples;
            }
            None => self.values.push(Metric {
                name: def.name,
                unit: def.unit,
                value,
                samples,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.values.iter().find(|m| m.name == name)
    }

    /// Every metric of `defs` in registry order; a metric the run had no
    /// occasion to measure reads 0 with 0 samples.
    pub fn in_order(&self, defs: &[MetricDef]) -> Vec<Metric> {
        defs.iter()
            .map(|d| {
                self.get(d.name).cloned().unwrap_or(Metric {
                    name: d.name,
                    unit: d.unit,
                    value: 0.0,
                    samples: 0,
                })
            })
            .collect()
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values; 0 for none.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of unsorted values; 0 for none.
pub fn percentile(v: &[f64], pct: f64) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the spread rule the contract
/// applies. Needs two values; fewer give the value itself.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(find("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
    }
}
