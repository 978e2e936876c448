//! Many runs: every workload from one command, repeats with medians and
//! quartiles, result files, and `compare` with the bounds of
//! `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{self, median, quartiles, Better, END_TO_END, PER_LAYER};
use crate::workload::Workload;

pub const SCHEMA: &str = "taurus-benchmark/1";

/// The last line of a child's standard output, parsed.
pub fn parse_result_line(stdout: &str) -> Result<Json, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    Json::parse(line)
}

/// Run one workload once in a child process (a fresh cluster and a fresh
/// peak-memory reading) and return its result line.
fn run_child(
    exe: &Path,
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = parse_result_line(&stdout);
    if !out.status.success() && result.is_err() {
        return Err(format!(
            "{} --trace {} exited with {}: {}",
            w.name(),
            trace as u8,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    result
}

fn metric_values(runs: &[Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Median, quartiles and every value of one metric over the repeats.
fn summarize(runs: &[Json], defs: &[metrics::MetricDef]) -> Json {
    Json::Obj(
        defs.iter()
            .map(|d| {
                let values = metric_values(runs, d.name);
                let (q1, q3) = quartiles(&values);
                (
                    d.name.to_string(),
                    Json::obj(vec![
                        ("unit", d.unit.into()),
                        ("median", Json::Num(median(&values))),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

fn sum_field(runs: &[Json], key: &str) -> f64 {
    runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum()
}

pub struct SuiteArgs {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub repeat: usize,
    pub quick: bool,
}

/// Run the workloads, each `repeat` times untraced and traced (repeat `i`
/// uses seed `seed + i`), print every metric, and return the result
/// document plus whether every run was correct.
pub fn run_suite(exe: &Path, args: &SuiteArgs) -> Result<(Json, bool), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for &w in &args.workloads {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for i in 0..args.repeat {
            let seed = args.seed + i as u64;
            untraced.push(run_child(exe, w, seed, args.seconds, false, args.quick)?);
            traced.push(run_child(exe, w, seed, args.seconds, true, args.quick)?);
        }
        let correct = untraced
            .iter()
            .chain(&traced)
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        let doc = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(sum_field(&untraced, "attempted"))),
            ("failed", Json::Num(sum_field(&untraced, "failed"))),
            ("end_to_end", summarize(&untraced, END_TO_END)),
            ("per_layer", summarize(&traced, PER_LAYER)),
        ]);
        print!("{}", render_workload(w.name(), &doc, args.repeat));
        workloads.push((w.name().to_string(), doc));
    }
    let doc = Json::obj(vec![
        ("schema", SCHEMA.into()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::Obj(workloads)),
    ]);
    Ok((doc, all_correct))
}

fn render_workload(name: &str, doc: &Json, repeat: usize) -> String {
    use std::fmt::Write as _;
    let mut out = format!("== {name} (median of {repeat} run(s); q1..q3)\n");
    for section in ["end_to_end", "per_layer"] {
        for (metric, v) in doc.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
            let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {:<46} {:>16.4} {:<6} {:.4}..{:.4}",
                metric,
                num("median"),
                v.get("unit").and_then(Json::as_str).unwrap_or(""),
                num("q1"),
                num("q3"),
            );
        }
    }
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "  attempted {}  failed {}  failed_ops_pct {:.4}",
        num("attempted"),
        num("failed"),
        100.0 * metrics::ratio(num("failed"), num("attempted"))
    );
    out
}

/// One end-to-end metric's bound from `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

pub fn read_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                better: match field("better")?.as_str() {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    other => return Err(format!("better is {other:?}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    /// The recorded run-to-run spread is wider than the bound: the pair
    /// can be called neither unchanged nor regressed.
    Unresolved,
    Regression,
}

pub struct CompareRow {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Interquartile range over median, the wider of the two sides.
    pub spread: f64,
    pub verdict: Verdict,
}

impl CompareRow {
    pub fn ratio(&self) -> f64 {
        metrics::ratio(self.new, self.base)
    }
}

fn stat(doc: &Json, workload: &str, metric: &str, key: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get(key)?
        .as_f64()
}

/// Apply the per-metric bounds to two result documents (`a` is the base).
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Vec<CompareRow>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("base file has no workloads")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for bound in bounds {
            let get = |doc: &Json, key: &str| {
                stat(doc, workload, &bound.name, key).ok_or(format!(
                    "{workload}/{} lacks `{key}` in one file",
                    bound.name
                ))
            };
            let (base, new) = (get(a, "median")?, get(b, "median")?);
            let spread_of = |doc: &Json| -> Result<f64, String> {
                Ok(metrics::ratio(
                    get(doc, "q3")? - get(doc, "q1")?,
                    get(doc, "median")?.abs(),
                ))
            };
            let spread = spread_of(a)?.max(spread_of(b)?);
            let worse_by = match bound.better {
                Better::Lower => metrics::ratio(new - base, base.abs()),
                Better::Higher => metrics::ratio(base - new, base.abs()),
            };
            let verdict = if spread > bound.bound {
                Verdict::Unresolved
            } else if worse_by > bound.bound {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            rows.push(CompareRow {
                workload: workload.clone(),
                metric: bound.name.clone(),
                base,
                new,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn render_compare(rows: &[CompareRow]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<22} {:<20} {:>14} {:>14} {:>8} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "spread"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:<20} {:>14.4} {:>14.4} {:>8.3} {:>7.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio(),
            100.0 * r.spread,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(median: f64, q1: f64, q3: f64) -> Json {
        let metric = Json::obj(vec![
            ("unit", "ms".into()),
            ("median", Json::Num(median)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
        ]);
        let tput = Json::obj(vec![
            ("unit", "1/s".into()),
            ("median", Json::Num(100.0)),
            ("q1", Json::Num(99.0)),
            ("q3", Json::Num(101.0)),
        ]);
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "w",
                Json::obj(vec![(
                    "end_to_end",
                    Json::obj(vec![("latency_p50_ms", metric), ("throughput_ops_s", tput)]),
                )]),
            )]),
        )])
    }

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    #[test]
    fn compare_applies_bounds_and_flags_wide_spreads() {
        let bounds = read_bounds(BOUNDS).unwrap();
        let base = doc(10.0, 9.9, 10.1);
        let verdicts = |new: &Json| -> Vec<Verdict> {
            compare(&base, new, &bounds)
                .unwrap()
                .iter()
                .map(|r| r.verdict)
                .collect()
        };
        assert_eq!(verdicts(&doc(10.5, 10.4, 10.6)), [Verdict::Ok, Verdict::Ok]);
        assert_eq!(
            verdicts(&doc(11.5, 11.4, 11.6)),
            [Verdict::Regression, Verdict::Ok]
        );
        // Better by any amount is never a regression.
        assert_eq!(verdicts(&doc(5.0, 4.9, 5.1)), [Verdict::Ok, Verdict::Ok]);
        // A spread wider than the bound cannot resolve the pair.
        assert_eq!(
            verdicts(&doc(11.5, 10.0, 12.0)),
            [Verdict::Unresolved, Verdict::Ok]
        );
        let rows = compare(&base, &doc(11.5, 11.4, 11.6), &bounds).unwrap();
        assert!((rows[0].ratio() - 1.15).abs() < 1e-9);
        assert!(render_compare(&rows).contains("REGRESSION"));
    }

    #[test]
    fn result_line_is_the_last_non_empty_line() {
        let out = "noise\n{\"correct\": true, \"attempted\": 3}\n\n";
        let j = parse_result_line(out).unwrap();
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(3.0));
        assert!(parse_result_line("\n").is_err());
    }
}
