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
//! * [`check_ir`] — the shape of a scalar register IR program: the VM's
//!   own validation, forward-only branches, and every register written
//!   before it is read. Whether it types is the VM's to say: a program
//!   whose registers do not type does not compile
//!   ([`taurus_expr::vm::CompiledPredicate`]).
//!
//! The executor wires [`check_plan`] as a gate in front of plan lowering,
//! in every build and once per statement (in `exec::run`, its one way
//! into execution; `EXPLAIN`, which executes nothing, calls it itself);
//! the `taurus-verify` binary runs the same
//! checks over every registry plan, the TPC-H SQL texts as the binder
//! lowers them, and every NDP descriptor program in CI.

pub mod diag;
pub mod infer;

use taurus_common::{Error, Result};
use taurus_optimizer::plan::Plan;

pub use diag::{has_errors, render, DiagKind, Diagnostic, Severity};
pub use infer::{
    family, infer_plan, plan_width, remap_onto, value_family, ColType, Family, Inference,
};

use taurus_expr::ast::Expr;
use taurus_expr::ir::{IrInstr, IrProgram};
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::ScanNode;

/// Run every static check over a plan: schema inference plus the
/// program check of each predicate that will be compiled (scan
/// residuals and `Filter` predicates). Returns all diagnostics,
/// warnings included.
pub fn verify_plan(plan: &Plan, db: &TaurusDb) -> Vec<Diagnostic> {
    let mut inf = infer_plan(plan, db);
    collect_predicates(plan, &mut |e, where_| {
        inf.diags.extend(check_predicate_programs(e, where_));
    });
    inf.diags
}

/// Check a scalar IR program's shape: the VM's structural validation
/// (register/const/target bounds, trailing `Ret`), then forward-only
/// branches and every register read written by an earlier instruction.
pub fn check_ir(ir: &IrProgram, path: &str) -> Vec<Diagnostic> {
    if let Err(e) = ir.validate() {
        let message = format!("structural validation failed: {e}");
        return vec![Diagnostic::error(DiagKind::IrShape, path, message)];
    }
    let mut diags = Vec::new();
    let error = |pc: usize, what: String| {
        Diagnostic::error(DiagKind::IrShape, path, format!("instr {pc}: {what}"))
    };
    let mut written = vec![false; ir.n_regs as usize];
    for (pc, ins) in ir.instrs.iter().enumerate() {
        let (dst, reads) = ins.regs();
        for r in reads.into_iter().flatten() {
            if !written[r as usize] {
                diags.push(error(pc, format!("reads r{r} before any write")));
            }
        }
        if let Some(dst) = dst {
            written[dst as usize] = true;
        }
        if let IrInstr::BrFalse { target, .. }
        | IrInstr::BrTrue { target, .. }
        | IrInstr::Jmp { target } = *ins
        {
            if target as usize <= pc {
                diags.push(error(pc, format!("backward branch to {target}")));
            }
        }
    }
    diags
}

/// Full program check for one predicate expression: lower it to scalar
/// IR and check that.
pub fn check_predicate_programs(e: &Expr, path: &str) -> Vec<Diagnostic> {
    match taurus_expr::compile::lower(e) {
        Ok(ir) => check_ir(&ir, path),
        // Past the IR's u16 bounds (a 65,536-item IN list): the
        // executor fails the statement when it compiles; nothing to
        // verify here.
        Err(_) => Vec::new(),
    }
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

#[cfg(test)]
mod tests {
    use taurus_expr::ir::{IrInstr, IrProgram};
    use taurus_expr::Expr;

    use taurus_common::Error;
    use taurus_expr::vm::CompiledPredicate;

    use super::check_ir;

    /// An OR of ANDs: each AND's result register is the merged boolean on
    /// its fall-through path and the constant 0 on its short-circuit exit,
    /// and the OR that merges them is no misuse.
    #[test]
    fn an_or_of_ands_is_boolean_on_every_path() {
        let pair = |a: &str, b: &str| {
            Expr::and(vec![
                Expr::eq(Expr::col(0), Expr::str(a)),
                Expr::eq(Expr::col(1), Expr::str(b)),
            ])
        };
        let e = Expr::or(vec![pair("a", "b"), pair("c", "d")]);
        let ir = taurus_expr::compile::lower(&e).unwrap();
        assert!(
            ir.instrs.iter().any(|i| matches!(i, IrInstr::Or { .. })),
            "{ir:?}"
        );
        assert_eq!(check_ir(&ir, "t"), vec![]);
    }

    /// A column is not a truth value: the program is well shaped, and an
    /// OR over the column does not compile.
    #[test]
    fn an_or_over_a_column_does_not_compile() {
        let ir = IrProgram {
            instrs: vec![
                IrInstr::LoadCol { dst: 0, col: 0 },
                IrInstr::Cmp {
                    op: taurus_expr::ast::CmpOp::Eq,
                    dst: 1,
                    a: 0,
                    b: 0,
                },
                IrInstr::Or { dst: 2, a: 0, b: 1 },
                IrInstr::Ret { src: 2 },
            ],
            consts: vec![],
            n_regs: 3,
        };
        assert_eq!(check_ir(&ir, "t"), vec![]);
        let dtype = taurus_common::DataType::Varchar(8);
        let err = CompiledPredicate::for_row_program(&ir, &[dtype]).err();
        assert!(matches!(err, Some(Error::Verify(_))), "{err:?}");
    }
}
