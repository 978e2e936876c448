//! `taurus-benchmark`: see README.md beside this crate's manifest.
//!
//! ```text
//! taurus-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! taurus-benchmark run [--all | --workload W] [--seed N] [--seconds S]
//!                      [--repeat N] [--quick] [--out FILE]
//! taurus-benchmark compare BASE.json NEW.json [--bounds BENCHMARK.json]
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the result as one JSON object. `run` starts
//! that form once per workload and mode in child processes.

use std::process::ExitCode;

use taurus_benchmark::cluster::Sizing;
use taurus_benchmark::json::Json;
use taurus_benchmark::run::{self, RunArgs};
use taurus_benchmark::suite::{self, SuiteArgs, Verdict};
use taurus_benchmark::workload::Workload;

const USAGE: &str = "usage:
  taurus-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
  taurus-benchmark run [--all | --workload W] [--seed N] [--seconds S] [--repeat N] [--quick] [--out FILE]
  taurus-benchmark compare BASE.json NEW.json [--bounds BENCHMARK.json]
workloads: tpch_sql_ndp_off tpch_sql_ndp_on warm_cpu_sql lookup_under_writes";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
}

const SWITCHES: [&str; 2] = ["--all", "--quick"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if SWITCHES.contains(&arg.as_str()) {
                a.switches.push(arg);
            } else if arg.starts_with("--") {
                let value = raw.next().ok_or(format!("{arg} needs a value"))?;
                a.flags.push((arg, value));
            } else {
                a.words.push(arg);
            }
        }
        Ok(a)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} {v}: not a whole number")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.flag("--workload")
            .map(|name| Workload::from_name(name).ok_or(format!("unknown workload `{name}`")))
            .transpose()
    }
}

fn single_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?.ok_or("--workload is required")?;
    let seconds = args.number("--seconds", 10)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be 1..=60"));
    }
    let trace = match args.flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    let result = run::run(RunArgs {
        workload,
        seed: args.number("--seed", 42)?,
        seconds,
        trace,
        sizing: if args.has("--quick") {
            Sizing::QUICK
        } else {
            Sizing::FULL
        },
    })
    .map_err(|e| format!("{}: {e}", workload.name()))?;
    let title = format!(
        "{} ({}, {} cores)",
        workload.name(),
        if trace { "traced run" } else { "untraced run" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprint!("{}", result.render_table(&title));
    println!("{}", result.to_json().render());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn suite_run(args: &Args) -> Result<ExitCode, String> {
    let workloads = match (args.has("--all"), args.workload()?) {
        (false, Some(w)) => vec![w],
        (true, None) => Workload::ALL.to_vec(),
        _ => return Err("run needs exactly one of --all and --workload".into()),
    };
    let suite_args = SuiteArgs {
        workloads,
        seed: args.number("--seed", 42)?,
        seconds: args.number("--seconds", 10)?,
        repeat: args.number("--repeat", 1)?.max(1) as usize,
        quick: args.has("--quick"),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let (doc, correct) = suite::run_suite(&exe, &suite_args)?;
    if let Some(path) = args.flag("--out") {
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, base, new] = args.words.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = suite::read_bounds(&read(args.flag("--bounds").unwrap_or("BENCHMARK.json"))?)?;
    let rows = suite::compare(
        &Json::parse(&read(base)?)?,
        &Json::parse(&read(new)?)?,
        &bounds,
    )?;
    print!("{}", suite::render_compare(&rows));
    let regressions = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{regressions} regression(s), {unresolved} unresolved, {} pair(s)",
        rows.len()
    );
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            None if !args.flags.is_empty() => single_run(&args),
            Some("run") => suite_run(&args),
            Some("compare") => compare(&args),
            _ => Err(USAGE.to_string()),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("taurus-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
