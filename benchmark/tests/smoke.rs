//! The whole benchmark at `--quick` size (SF 0.002, one-second windows):
//! every metric named in `BENCHMARK.json` is printed, finite and has its
//! unit; replies are correct; exact counters repeat.

use std::process::Command;

use taurus_benchmark::json::Json;
use taurus_benchmark::suite::parse_result_line;
use taurus_benchmark::workload::Workload;

/// One quick run in a child process, with the traces it writes kept under
/// cargo's scratch directory for integration tests.
fn quick_run(w: Workload, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_taurus-benchmark"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .output()
        .expect("start taurus-benchmark");
    assert!(
        out.status.success(),
        "{} --trace {}: {}",
        w.name(),
        trace as u8,
        String::from_utf8_lossy(&out.stderr)
    );
    parse_result_line(&String::from_utf8_lossy(&out.stdout)).expect("result line")
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("`{metric}` missing"))
}

fn contract_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Exactly the listed metrics, each finite and with its unit; the run
/// was correct.
fn assert_reports(result: &Json, section: &str, w: Workload) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.as_obj().map(<[_]>::len), Some(4));
    let listed = contract_metrics(section);
    let printed = result.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(printed.len(), listed.len(), "{}", w.name());
    for (name, unit) in listed {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(&name))
            .unwrap_or_else(|| {
                panic!("{}: `{name}` not printed", w.name());
            });
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let v = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        if section == "end_to_end" {
            assert!(v > 0.0, "{}: end-to-end metric {name} is {v}", w.name());
        }
    }
}

#[test]
fn every_workload_reports_every_metric_and_is_correct() {
    for w in Workload::ALL {
        assert_reports(&quick_run(w, 11, false), "end_to_end", w);
        let traced = quick_run(w, 11, true);
        assert_reports(&traced, "per_layer", w);
        let trace_file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(taurus_benchmark::run::trace_path(w));
        let trace = Json::parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
        for part in ["wire", "replay"] {
            let spans = trace.get(part).and_then(|p| p.get("spans_total"));
            assert!(spans.and_then(Json::as_f64).unwrap() > 0.0, "{part}");
        }
        assert!(value(&traced, "trace.replay_child_coverage_pct") >= 85.0);
    }
}

/// The ruler's own sanity: which layers a workload exercises and which it
/// bypasses shows in the counts.
#[test]
fn layers_a_workload_bypasses_count_nothing() {
    let off = quick_run(Workload::TpchSqlNdpOff, 5, true);
    let on = quick_run(Workload::TpchSqlNdpOn, 5, true);
    let warm = quick_run(Workload::WarmCpuSql, 5, true);
    let writes = quick_run(Workload::LookupUnderWrites, 5, true);

    let storage = |r: &Json| value(r, "sal.kb_from_storage_per_op");
    assert!(
        storage(&on) < 0.6 * storage(&off),
        "NDP must ship fewer bytes"
    );
    for name in [
        "pagestore.cpu_ms_per_op",
        "pagestore.pages_processed_per_op",
        "pagestore.records_filtered_per_op",
        "sal.pages_ndp_per_op",
        "optimizer.ndp_scans_pushed_pct",
    ] {
        assert_eq!(value(&off, name), 0.0, "{name} on tpch_sql_ndp_off");
        assert!(value(&on, name) > 0.0, "{name} on tpch_sql_ndp_on");
    }
    for name in [
        "sal.kb_from_storage_per_op",
        "sal.kb_to_storage_per_op",
        "sal.read_requests_per_op",
        "sal.pages_raw_per_op",
        "pagestore.pages_processed_per_op",
        "pagestore.cpu_ms_per_op",
    ] {
        assert_eq!(value(&warm, name), 0.0, "{name} on warm_cpu_sql");
    }
    assert_eq!(value(&warm, "bufferpool.hit_pct"), 100.0);
    for name in [
        "logstore.kb_appended_per_write",
        "logstore.flush_us_per_commit",
    ] {
        assert!(value(&writes, name) > 0.0, "{name} on lookup_under_writes");
        for r in [&off, &on, &warm] {
            assert_eq!(value(r, name), 0.0, "{name} on a read-only workload");
        }
    }
    assert!(value(&writes, "server.dml_p50_us") > 0.0);
    assert!(value(&warm, "executor.stmt_ms.q1_agg") > 0.0);
}

/// Counts made by the program repeat from run to run: rows exactly, and
/// pages to within one page in a thousand (which of two racing threads
/// misses the pool first can fetch one page of a pass's ~2,200 twice).
#[test]
fn exact_counters_repeat_across_runs() {
    for w in [Workload::TpchSqlNdpOff, Workload::WarmCpuSql] {
        let (a, b) = (quick_run(w, 3, true), quick_run(w, 3, true));
        for name in [
            "executor.rows_scanned_per_result_row",
            "server.rows_sent_per_op",
            "executor.operator_rows_per_op",
        ] {
            assert_eq!(value(&a, name), value(&b, name), "{}: {name}", w.name());
        }
        let (pa, pb) = (
            value(&a, "sal.pages_raw_per_op"),
            value(&b, "sal.pages_raw_per_op"),
        );
        assert!((pa - pb).abs() <= 1e-3 * pa, "{}: {pa} vs {pb}", w.name());
    }
}
