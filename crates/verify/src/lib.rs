//! Static pre-execution verification (`taurus-verify`).
//!
//! Two analyses over plans and predicate programs, run *before* any
//! operator opens:
//!
//! * [`infer`] — type / width / nullability inference over every
//!   [`Plan`] shape against the live catalog. Structural violations
//!   (predicate columns the scanned index does not store, positions out
//!   of range, NDP decisions a node cannot use, key prefixes longer than
//!   the index key) are rejected with structured [`Diagnostic`]s
//!   carrying plan-path locations — the same defects that previously
//!   surfaced mid-scan as `Error::Internal`.
//! * [`absint`] — an abstract interpreter over the scalar register IR:
//!   write-before-read register discipline, Kleene boolean shape for
//!   `AND`/`OR`/`NOT`, and forward-only branches.
//!
//! The executor wires [`check_plan`] as a gate in front of plan lowering,
//! in every build and once per statement (in `exec::run`, its one way
//! into execution; `EXPLAIN`, which executes nothing, calls it itself);
//! the `taurus-verify` binary runs the same
//! checks over every registry plan, the TPC-H SQL texts as the binder
//! lowers them, and every NDP descriptor program in CI.

pub mod absint;
pub mod diag;
pub mod infer;

use taurus_common::{Error, Result};
use taurus_optimizer::plan::Plan;

pub use absint::{check_ir, check_predicate_programs};
pub use diag::{has_errors, render, DiagKind, Diagnostic, Severity};
pub use infer::{
    family, infer_plan, plan_width, remap_onto, value_family, ColType, Family, Inference,
};

use taurus_expr::ast::Expr;
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::ScanNode;

/// Run every static check over a plan: schema inference plus abstract
/// interpretation of each predicate that will be compiled (scan
/// residuals and `Filter` predicates). Returns all diagnostics,
/// warnings included.
pub fn verify_plan(plan: &Plan, db: &TaurusDb) -> Vec<Diagnostic> {
    let mut inf = infer_plan(plan, db);
    collect_predicates(plan, &mut |e, where_| {
        inf.diags
            .extend(absint::check_predicate_programs(e, where_));
    });
    inf.diags
}

/// The pre-execution gate: reject a plan whose verification produced
/// error-severity diagnostics, rendering them into [`Error::Verify`].
pub fn check_plan(plan: &Plan, db: &TaurusDb) -> Result<()> {
    let diags = verify_plan(plan, db);
    let errors: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(Error::Verify(render(&errors)))
    }
}

/// Visit every predicate expression a plan will compile, with a coarse
/// location label.
fn collect_predicates(plan: &Plan, f: &mut impl FnMut(&Expr, &str)) {
    let scan = |s: &ScanNode, f: &mut dyn FnMut(&Expr, &str)| {
        for p in &s.predicate {
            f(p, "scan predicate");
        }
    };
    match plan {
        Plan::Scan(s) => {
            scan(s, f);
            let pushed = s.ndp.as_ref().and_then(|d| d.choice.aggregation.as_ref());
            if let Some(having) = pushed.and_then(|p| p.having.as_ref()) {
                f(having, "pushed HAVING");
            }
        }
        Plan::LookupJoin(j) => {
            collect_predicates(&j.outer, f);
            for p in &j.inner_predicate {
                f(p, "lookup inner predicate");
            }
            if let Some(on) = &j.on {
                f(on, "lookup ON");
            }
        }
        Plan::HashJoin(j) => {
            collect_predicates(&j.left, f);
            collect_predicates(&j.right, f);
        }
        Plan::HashAgg(a) => collect_predicates(&a.input, f),
        Plan::Project(p) => collect_predicates(&p.input, f),
        Plan::Filter(fl) => {
            f(&fl.predicate, "filter predicate");
            collect_predicates(&fl.input, f);
        }
        Plan::Sort(s) => collect_predicates(&s.input, f),
        Plan::Limit { input, .. } => collect_predicates(input, f),
        Plan::Exchange(e) => collect_predicates(&e.child, f),
    }
}
