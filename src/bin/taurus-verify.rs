//! `taurus-verify` — the workspace's static-verification driver.
//!
//! Loads a small TPC-H catalog and runs every check in `taurus-verify`
//! (the crate) over every plan the repo can produce:
//!
//! * all TPC-H and micro registry plans, plus the PQ (fan-out) variant
//!   of every PQ-capable query, and the plans that ship: the 22 TPC-H
//!   SQL texts bound by `taurus_sql::bind`, with NDP off and on —
//!   schema/width/nullability inference and scalar IR program checks
//!   (`verify_plan`);
//! * every NDP descriptor those plans push: the descriptor must build,
//!   its wire-encoded predicate, aggregate input and HAVING programs
//!   must decode and pass `check_ir`, and the descriptor must compile
//!   against the index's record layout as a Page Store compiles it (a
//!   program that does not type does not compile) — the same bytes a Page
//!   Store would execute.
//!
//! CI runs `taurus-verify --all`; any error-severity diagnostic makes
//! the process exit non-zero. The executor's own gate (`check_plan` in
//! front of `exec::run`, in every build) sees
//! the plans that are run; this sees all the repo can produce.

use std::process::ExitCode;

use taurus::prelude::Session;
use taurus::sql::Statement;
use taurus_common::Result;
use taurus_expr::agg::AggInput;
use taurus_expr::ir::IrProgram;
use taurus_ndp::{build_descriptor, TaurusDb};
use taurus_optimizer::plan::{LookupJoinNode, NdpDecision, Plan};
use taurus_pagestore::cache::CachedDescriptor;
use taurus_verify::{verify_plan, Diagnostic, Severity};

/// Per-query tally of what the static analyses concluded.
#[derive(Default)]
struct Tally {
    errors: usize,
    warnings: usize,
    descriptors: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(args.is_empty() || (args.len() == 1 && args[0] == "--all")) {
        eprintln!("usage: taurus-verify [--all]");
        return ExitCode::from(2);
    }

    let db = TaurusDb::new(taurus_common::config::ClusterConfig::default());
    if let Err(e) = taurus::tpch::load(&db, 0.01, 42) {
        eprintln!("taurus-verify: TPC-H load failed: {e}");
        return ExitCode::from(2);
    }

    let mut queries = taurus::tpch::tpch_queries();
    queries.extend(taurus::tpch::micro_queries());
    // The main-stage plan, with NDP decisions applied; PQ-capable queries
    // are verified again in their fanned-out (Exchange) form.
    let mut plans: Vec<(String, Result<Plan>)> = Vec::new();
    for q in &queries {
        plans.push((q.name.to_string(), (q.plan)(&db, None)));
        if q.pq_capable {
            plans.push((format!("{}[pq]", q.name), (q.plan)(&db, Some(4))));
        }
    }
    // The plans that ship: each TPC-H text as a session binds it.
    for ndp in [false, true] {
        let session = Session::new(&db).with_ndp(ndp);
        for (name, text) in taurus::sql::tpch_sql::all() {
            let plan = taurus::sql::parse(text).and_then(|stmt| match stmt {
                Statement::Select(select) | Statement::Explain(select) => {
                    taurus::sql::bind(&session, &select)
                }
            });
            let ndp = if ndp { "on" } else { "off" };
            plans.push((format!("{name}[sql, ndp {ndp}]"), plan));
        }
    }

    let mut total = Tally::default();
    let mut failed = 0usize;
    for (label, plan) in &plans {
        let plan = match plan {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{label}: plan construction failed: {e}");
                failed += 1;
                continue;
            }
        };
        let mut t = Tally::default();
        let mut diags = verify_plan(plan, &db);
        check_descriptors(plan, &db, &mut diags, &mut t);
        for d in &diags {
            match d.severity {
                Severity::Error => t.errors += 1,
                Severity::Warning => t.warnings += 1,
            }
        }
        if t.errors > 0 {
            failed += 1;
            eprintln!("{label}: FAILED");
            for d in diags.iter().filter(|d| d.severity == Severity::Error) {
                eprintln!("  {d}");
            }
        } else {
            println!(
                "{label}: ok ({} descriptor(s){})",
                t.descriptors,
                if t.warnings > 0 {
                    format!(", {} warning(s)", t.warnings)
                } else {
                    String::new()
                }
            );
        }
        total.errors += t.errors;
        total.warnings += t.warnings;
        total.descriptors += t.descriptors;
    }

    println!(
        "taurus-verify: {} plan(s), {} NDP descriptor(s), {} error(s), {} warning(s)",
        plans.len(),
        total.descriptors,
        total.errors,
        total.warnings,
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Walk every table access in the plan that carries an NDP decision (a
/// scan, or the inner side of a lookup join that reads by NDP key reads)
/// and verify the NDP descriptor it would ship: build it against the live
/// catalog, decode and check its predicate, aggregate input and pushed
/// HAVING programs, and compile it as a Page Store's descriptor cache
/// does — exactly the bytes a Page Store's plugin would cache.
fn check_descriptors(plan: &Plan, db: &TaurusDb, diags: &mut Vec<Diagnostic>, t: &mut Tally) {
    for_each_decision(plan, &mut |table_name, index, decision, path| {
        let table = match db.table(table_name) {
            Ok(tb) => tb,
            Err(e) => {
                diags.push(Diagnostic::error(
                    taurus_verify::DiagKind::UnknownTable,
                    path,
                    format!("table {table_name}: {e}"),
                ));
                return;
            }
        };
        let desc = match build_descriptor(table.index(index), &decision.choice, 0) {
            Ok(d) => d,
            Err(e) => {
                diags.push(Diagnostic::error(
                    taurus_verify::DiagKind::IrShape,
                    path,
                    format!("NDP descriptor build failed: {e}"),
                ));
                return;
            }
        };
        t.descriptors += 1;
        let inputs = desc.aggregation.iter().flat_map(|a| &a.specs);
        let programs = inputs.filter_map(|s| match &s.input {
            AggInput::Program(bitcode) => Some(("aggregate input", bitcode)),
            _ => None,
        });
        let predicate = desc.predicate_bitcode.iter().map(|b| ("predicate", b));
        let having = desc.aggregation.iter().flat_map(|a| &a.having);
        let having = having.map(|b| ("pushed HAVING", b));
        for (what, bitcode) in predicate.chain(programs).chain(having) {
            match IrProgram::decode_bitcode(bitcode) {
                Ok(ir) => diags.extend(taurus_verify::check_ir(&ir, path)),
                Err(e) => diags.push(Diagnostic::error(
                    taurus_verify::DiagKind::IrShape,
                    path,
                    format!("descriptor {what} bitcode does not decode: {e}"),
                )),
            }
        }
        // Compiled against the index's record layout as a Page Store's
        // descriptor cache compiles it: each program must compile, which
        // is to say type.
        if let Err(e) = CachedDescriptor::prepare(&desc.encode()) {
            diags.push(Diagnostic::error(
                taurus_verify::DiagKind::IrShape,
                path,
                format!("NDP descriptor does not compile: {e}"),
            ));
        }
    });
}

fn for_each_decision(plan: &Plan, f: &mut impl FnMut(&str, usize, &NdpDecision, &str)) {
    plan.for_each_scan(&mut |node, agg| {
        if let Some(decision) = &node.ndp {
            let path = if agg { "AggScan" } else { "Scan" };
            f(&node.table, node.index, decision, path);
        }
    });
    for_each_lookup(plan, &mut |join| {
        if let Some(decision) = &join.inner_ndp {
            f(&join.table, join.index, decision, "LookupJoin");
        }
    });
}

fn for_each_lookup(plan: &Plan, f: &mut impl FnMut(&LookupJoinNode)) {
    match plan {
        Plan::Scan(_) => {}
        Plan::LookupJoin(j) => {
            f(j);
            for_each_lookup(&j.outer, f);
        }
        Plan::HashJoin(j) => {
            for_each_lookup(&j.left, f);
            for_each_lookup(&j.right, f);
        }
        Plan::HashAgg(a) => for_each_lookup(&a.input, f),
        Plan::Project(p) => for_each_lookup(&p.input, f),
        Plan::Filter(fl) => for_each_lookup(&fl.input, f),
        Plan::Sort(s) => for_each_lookup(&s.input, f),
        Plan::Limit { input, .. } => for_each_lookup(input, f),
        Plan::Exchange(e) => for_each_lookup(&e.child, f),
    }
}
