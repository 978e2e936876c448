//! Property tests for the static verifier's gate contract (PR 9):
//!
//! * a plan the verifier **accepts** executes without `Error::Internal`
//!   — collected and streamed, with NDP off and with NDP decisions
//!   applied (typed runtime errors like `Error::Type` are allowed;
//!   internal invariant breaks are not) — and when both succeed their
//!   results are identical;
//! * a plan the verifier **rejects** fails *before any operator opens*:
//!   the collect path returns `Error::Verify`, and so does the sink path
//!   (`Session::run_plan`), whose sink is never handed a batch.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use taurus::common::config::ClusterConfig;
use taurus::common::{Error, Value};
use taurus::expr::ast::Expr;
use taurus::ndp::TaurusDb;
use taurus::optimizer::ndp_post::ndp_post_process;
use taurus::optimizer::plan::{Plan, ScanNode, SortNode};
use taurus::prelude::Session;

fn row_db() -> &'static Arc<TaurusDb> {
    static DB: OnceLock<Arc<TaurusDb>> = OnceLock::new();
    DB.get_or_init(|| {
        let db = TaurusDb::new(ClusterConfig::default());
        taurus::tpch::load(&db, 0.01, 42).unwrap();
        db
    })
}

/// A random (often malformed) comparison conjunct: column indices range
/// past lineitem's 16 columns, so some plans reference columns that do
/// not exist or that the scan does not deliver.
fn conjunct() -> impl Strategy<Value = Expr> {
    (0usize..20, -5i64..40).prop_map(|(c, v)| Expr::le(Expr::col(c), Expr::lit(Value::Int(v))))
}

/// A random plan over lineitem: scan with random output/predicate,
/// optionally wrapped in Sort and/or Limit (with sometimes-out-of-range
/// sort keys).
fn plan() -> impl Strategy<Value = Plan> {
    (
        proptest::collection::vec(0usize..18, 1..5),
        proptest::collection::vec(conjunct(), 0..3),
        0usize..8,
        0usize..3,
    )
        .prop_map(|(output, preds, sort_key, shape)| {
            let scan = Plan::Scan(ScanNode::new("lineitem", output).with_predicate(preds));
            match shape {
                0 => scan,
                1 => Plan::Sort(SortNode {
                    input: Box::new(scan),
                    keys: vec![(sort_key, false)],
                    limit: None,
                }),
                _ => Plan::Limit {
                    input: Box::new(scan),
                    n: 10,
                },
            }
        })
}

/// Check one execution's outcome: `None` = typed runtime rejection
/// (allowed), `Some(rows)` = success. Panics the test on
/// `Error::Internal`.
/// `plan`'s rows, through `Session::run_plan` and a sink.
fn run_sink(session: &Session, plan: &Plan) -> Result<Vec<Vec<Value>>, Error> {
    let mut rows = Vec::new();
    session.run_plan(plan, |mut batch| {
        rows.extend(batch.drain_rows());
        Ok(true)
    })?;
    Ok(rows)
}

fn run_checked(result: Result<Vec<Vec<Value>>, Error>, what: &str) -> Option<Vec<Vec<Value>>> {
    match result {
        Ok(rows) => Some(rows),
        Err(Error::Internal(msg)) => {
            panic!("verifier-accepted plan hit Error::Internal ({what}): {msg}")
        }
        Err(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn accepted_executes_rejected_fails_closed(plan in plan()) {
        // NDP off, and (where the post-process finds anything to push)
        // NDP on: the gate contract must hold for both.
        let mut variants = vec![plan.clone()];
        {
            let mut p = plan.clone();
            if ndp_post_process(&mut p, row_db()).is_ok() {
                variants.push(p);
            }
        }
        for p in &variants {
            if taurus::verify::check_plan(p, row_db()).is_ok() {
                let session = Session::new(row_db());
                let a = run_checked(session.execute_plan(p), "collect");
                let b = run_checked(run_sink(&session, p), "sink");
                if let (Some(a), Some(b)) = (a, b) {
                    prop_assert_eq!(a, b);
                }
            } else {
                // Collect path: rejected before lowering.
                match Session::new(row_db()).execute_plan(p) {
                    Err(Error::Verify(_)) => {}
                    other => panic!("expected Err(Verify), got {other:?}"),
                }
                // Sink path: the rejection is the error, returned before
                // the sink is handed anything.
                let session = Session::new(row_db());
                match session.run_plan(p, |_| panic!("a rejected plan hands its sink nothing")) {
                    Err(Error::Verify(_)) => {}
                    other => panic!("expected Err(Verify), got {other:?}"),
                }
            }
        }
    }
}
