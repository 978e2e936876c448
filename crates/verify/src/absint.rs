//! Abstract interpretation over the scalar register IR.
//!
//! The scalar VM runs every compiled predicate, on the SQL node and in
//! the Page Stores; this module checks its programs' *shape* statically:
//!
//! * **Register typing** — every register is written before it is read,
//!   and the boolean combinators (`And`/`Or`/`Not`, the Kleene
//!   three-valued merges) only consume boolean-producing registers.
//! * **Control shape** — branches only jump forward, and the program
//!   ends by returning a boolean-shaped register.
//!
//! Like the plan inference, the interpreter is permissive: registers of
//! unknown type (`Top`) satisfy every demand, so only *definite*
//! violations are reported.

use taurus_expr::ir::{IrInstr, IrProgram};
use taurus_expr::Expr;

use crate::diag::{DiagKind, Diagnostic};

/// Abstract lane/register type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AbsTy {
    /// Not yet written.
    Unset,
    /// Three-valued boolean (comparison / combinator result).
    Bool,
    /// Any scalar value (column, constant, arithmetic result).
    Scalar,
}

impl AbsTy {
    /// Can this register feed a boolean combinator? `Scalar` is allowed —
    /// the VM coerces integers — but `Unset` is a definite bug.
    fn usable(self) -> bool {
        self != AbsTy::Unset
    }
}

/// Check a scalar IR program. Runs the VM's own structural validation
/// first (register/const/target bounds, trailing `Ret`), then the
/// abstract interpretation.
pub fn check_ir(ir: &IrProgram, path: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Err(e) = ir.validate() {
        diags.push(Diagnostic::error(
            DiagKind::IrShape,
            path,
            format!("structural validation failed: {e}"),
        ));
        return diags;
    }
    let mut regs = vec![AbsTy::Unset; ir.n_regs as usize];
    let read = |regs: &[AbsTy], r: u16, what: &str, pc: usize, diags: &mut Vec<Diagnostic>| {
        if !regs[r as usize].usable() {
            diags.push(Diagnostic::error(
                DiagKind::IrShape,
                path,
                format!("instr {pc}: {what} reads r{r} before any write"),
            ));
        }
    };
    for (pc, ins) in ir.instrs.iter().enumerate() {
        match *ins {
            IrInstr::LoadCol { dst, .. } | IrInstr::LoadConst { dst, .. } => {
                regs[dst as usize] = AbsTy::Scalar;
            }
            IrInstr::Mov { dst, src } => {
                read(&regs, src, "Mov", pc, &mut diags);
                regs[dst as usize] = regs[src as usize];
            }
            IrInstr::Cmp { dst, a, b, .. } => {
                read(&regs, a, "Cmp", pc, &mut diags);
                read(&regs, b, "Cmp", pc, &mut diags);
                regs[dst as usize] = AbsTy::Bool;
            }
            IrInstr::And { dst, a, b } | IrInstr::Or { dst, a, b } => {
                for r in [a, b] {
                    read(&regs, r, "And/Or", pc, &mut diags);
                    if regs[r as usize] == AbsTy::Scalar {
                        diags.push(Diagnostic::warning(
                            DiagKind::IrShape,
                            path,
                            format!("instr {pc}: Kleene merge consumes non-boolean r{r}"),
                        ));
                    }
                }
                regs[dst as usize] = AbsTy::Bool;
            }
            IrInstr::Not { dst, a } => {
                read(&regs, a, "Not", pc, &mut diags);
                if regs[a as usize] == AbsTy::Scalar {
                    diags.push(Diagnostic::warning(
                        DiagKind::IrShape,
                        path,
                        format!("instr {pc}: Not consumes non-boolean r{a}"),
                    ));
                }
                regs[dst as usize] = AbsTy::Bool;
            }
            IrInstr::Arith { dst, a, b, .. } => {
                read(&regs, a, "Arith", pc, &mut diags);
                read(&regs, b, "Arith", pc, &mut diags);
                regs[dst as usize] = AbsTy::Scalar;
            }
            IrInstr::Neg { dst, a }
            | IrInstr::ExtractYear { dst, a }
            | IrInstr::Substr { dst, a, .. } => {
                read(&regs, a, "unary op", pc, &mut diags);
                regs[dst as usize] = AbsTy::Scalar;
            }
            IrInstr::IsNull { dst, a, .. }
            | IrInstr::Like { dst, a, .. }
            | IrInstr::InList { dst, a, .. } => {
                read(&regs, a, "predicate op", pc, &mut diags);
                regs[dst as usize] = AbsTy::Bool;
            }
            IrInstr::BrFalse { cond, target } | IrInstr::BrTrue { cond, target } => {
                read(&regs, cond, "branch", pc, &mut diags);
                if (target as usize) <= pc {
                    diags.push(Diagnostic::error(
                        DiagKind::IrShape,
                        path,
                        format!("instr {pc}: backward branch to {target}"),
                    ));
                }
            }
            IrInstr::Jmp { target } => {
                if (target as usize) <= pc {
                    diags.push(Diagnostic::error(
                        DiagKind::IrShape,
                        path,
                        format!("instr {pc}: backward jump to {target}"),
                    ));
                }
            }
            IrInstr::Ret { src } => {
                read(&regs, src, "Ret", pc, &mut diags);
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
