//! `BENCHMARK.json` and the benchmark's own registry say the same thing.

use taurus_benchmark::json::Json;
use taurus_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use taurus_benchmark::workload::Workload;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {v:?}"))
}

fn assert_same_metrics(listed: &[Json], registry: &[MetricDef], keys: usize) {
    assert_eq!(listed.len(), registry.len());
    for (l, r) in listed.iter().zip(registry) {
        assert_eq!(text(l, "name"), r.name);
        assert_eq!(text(l, "unit"), r.unit, "{}", r.name);
        assert_eq!(text(l, "better"), r.better.as_str(), "{}", r.name);
        assert_eq!(l.as_obj().map(<[_]>::len), Some(keys), "{}", r.name);
    }
}

#[test]
fn metrics_match_the_registry() {
    let c = contract();
    let e2e = c.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_same_metrics(e2e, END_TO_END, 4);
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = e2e.iter().find(|m| text(m, "name") == "setup_s").unwrap();
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    assert_same_metrics(
        c.get("per_layer").and_then(Json::as_arr).unwrap(),
        PER_LAYER,
        3,
    );
}

#[test]
fn workloads_command_and_paths_are_the_ones_built_here() {
    let c = contract();
    assert_eq!(c.as_obj().map(<[_]>::len), Some(6));
    let names: Vec<&str> = c
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            let why = text(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'));
            text(w, "name")
        })
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    let paths: Vec<&str> = c
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = c
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    let seconds = c.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
