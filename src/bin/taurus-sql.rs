//! `taurus-sql` — an interactive SQL shell over an in-process instance.
//!
//! Loads the deterministic TPC-H dataset, then reads `;`-terminated
//! statements from stdin and prints one row per line with `|`-separated
//! values (doubles fixed to 4 decimals, so output is byte-stable across
//! runs and batch layouts). `EXPLAIN SELECT ...` prints the plan, one
//! line per row: the logical tree with the paper's Listing-2 NDP
//! annotations, the physical pipeline, and the NDP pass's report for
//! each table access. Errors print the positioned diagnostic on
//! stderr and the shell keeps going — exactly the fail-closed contract
//! the server applies to wire SQL.
//!
//! ```text
//! taurus-sql [--sf F] [--seed N] [--no-ndp] [-e "stmt; stmt; ..."]
//! ```
//!
//! With `-e`, statements run non-interactively and the process exits
//! non-zero if any of them failed — the shape CI's byte-compare uses.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use taurus_common::config::ClusterConfig;
use taurus_common::Value;
use taurus_executor::Session;
use taurus_ndp::TaurusDb;
use taurus_sql::{run, SqlOutput};

fn fmt_value(v: &Value) -> String {
    match v {
        Value::Double(d) => format!("{d:.4}"),
        other => other.to_string(),
    }
}

/// Run one statement, printing rows (or plan lines) to stdout.
fn run_stmt(session: &Session, text: &str) -> Result<(), taurus_common::Error> {
    let mut out = std::io::stdout().lock();
    match run(session, text)? {
        SqlOutput::Rows(rows) => {
            for row in &rows {
                let line = row.iter().map(fmt_value).collect::<Vec<_>>().join("|");
                let _ = writeln!(out, "{line}");
            }
            let _ = writeln!(out, "-- {} row(s)", rows.len());
        }
        SqlOutput::Explain(lines) => {
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
        }
    }
    let _ = out.flush();
    Ok(())
}

fn main() -> ExitCode {
    let mut sf = 0.01f64;
    let mut seed = 42u64;
    let mut ndp = true;
    let mut script: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--sf" => sf = val("--sf").parse().expect("--sf"),
            "--seed" => seed = val("--seed").parse().expect("--seed"),
            "--no-ndp" => ndp = false,
            "-e" => script = Some(val("-e")),
            other => {
                eprintln!("usage: taurus-sql [--sf F] [--seed N] [--no-ndp] [-e \"stmt; ...\"]");
                eprintln!("unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    eprintln!("taurus-sql: loading TPC-H SF {sf} (seed {seed}, ndp {ndp}) ...");
    let mut cfg = ClusterConfig::default();
    cfg.ndp.enabled = ndp;
    let db = TaurusDb::new(cfg);
    if let Err(e) = taurus::tpch::load(&db, sf, seed) {
        eprintln!("taurus-sql: TPC-H load failed: {e}");
        return ExitCode::from(2);
    }
    let mut session = Session::new(&db);
    session.set_ndp(ndp);

    if let Some(script) = script {
        let mut failures = 0usize;
        for stmt in script.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            if let Err(e) = run_stmt(&session, stmt) {
                failures += 1;
                eprintln!("error: {e}");
            }
        }
        return if failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    // Interactive loop: statements end at `;`, blank lines are ignored,
    // any failure prints its diagnostic and the shell continues.
    eprintln!("taurus-sql: ready (statements end with `;`, ctrl-d quits)");
    let stdin = std::io::stdin();
    let mut buf = String::new();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        buf.push_str(&line);
        buf.push('\n');
        while let Some(at) = buf.find(';') {
            let stmt: String = buf.drain(..=at).collect();
            let stmt = stmt.trim_end_matches(';').trim();
            if !stmt.is_empty() {
                if let Err(e) = run_stmt(&session, stmt) {
                    eprintln!("error: {e}");
                }
            }
        }
    }
    ExitCode::SUCCESS
}
