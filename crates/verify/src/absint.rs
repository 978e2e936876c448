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
//! Branches only jump forward, so one pass in program order sees every
//! path into an instruction before it: the register types on entry are
//! those of every path joined (the fall-through and each branch to it).
//! Like the plan inference, the interpreter is permissive: a register
//! whose paths disagree on its type (`Top`) satisfies every demand, and
//! one written on some path is not unset, so only *definite* violations
//! are reported.

use std::collections::BTreeMap;

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
    /// Paths into the instruction disagree: a boolean on one, a scalar
    /// on another (a short-circuit exit's constant 0 or 1 against the
    /// merged boolean of the fall-through).
    Top,
}

impl AbsTy {
    /// Can this register feed a boolean combinator? `Scalar` is allowed —
    /// the VM coerces integers — but `Unset` is a definite bug.
    fn usable(self) -> bool {
        self != AbsTy::Unset
    }

    /// The type on entry to an instruction two paths reach.
    fn join(self, other: AbsTy) -> AbsTy {
        match (self, other) {
            (a, b) if a == b => a,
            (AbsTy::Unset, t) | (t, AbsTy::Unset) => t,
            _ => AbsTy::Top,
        }
    }
}

/// Join the register types of one more path into `into`.
fn join_into(into: &mut [AbsTy], from: &[AbsTy]) {
    for (a, &b) in into.iter_mut().zip(from) {
        *a = a.join(b);
    }
}

/// A branch to `target` carries `regs` there.
fn join_branch(branched: &mut BTreeMap<usize, Vec<AbsTy>>, target: u16, regs: &[AbsTy]) {
    match branched.get_mut(&(target as usize)) {
        Some(seen) => join_into(seen, regs),
        None => {
            branched.insert(target as usize, regs.to_vec());
        }
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
    // The register types along the fall-through path (`falls`: whether
    // it reaches the next instruction), and those the branches seen so
    // far carry to each later target, joined. An instruction no path
    // reaches is checked with every register `Top`.
    let mut regs = vec![AbsTy::Unset; ir.n_regs as usize];
    let mut falls = true;
    let mut branched: BTreeMap<usize, Vec<AbsTy>> = BTreeMap::new();
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
        match (falls, branched.remove(&pc)) {
            (true, Some(b)) => join_into(&mut regs, &b),
            (false, Some(b)) => regs = b,
            (false, None) => regs.fill(AbsTy::Top),
            (true, None) => {}
        }
        falls = true;
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
                join_branch(&mut branched, target, &regs);
            }
            IrInstr::Jmp { target } => {
                if (target as usize) <= pc {
                    diags.push(Diagnostic::error(
                        DiagKind::IrShape,
                        path,
                        format!("instr {pc}: backward jump to {target}"),
                    ));
                }
                join_branch(&mut branched, target, &regs);
                falls = false;
            }
            IrInstr::Ret { src } => {
                read(&regs, src, "Ret", pc, &mut diags);
                falls = false;
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

#[cfg(test)]
mod tests {
    use taurus_expr::ir::{IrInstr, IrProgram};
    use taurus_expr::Expr;

    use super::check_ir;
    use crate::diag::Severity;

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

    /// A column is a scalar on every path: an OR over it still warns.
    #[test]
    fn an_or_over_a_column_warns() {
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
        let diags = check_ir(&ir, "t");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(
            diags[0]
                .message
                .contains("Kleene merge consumes non-boolean r0"),
            "{diags:?}"
        );
    }
}
