//! Lowering expression trees to IR — the compute-node half of the paper's
//! LLVM workflow (§V-B2, steps 1–2): the optimizer's chosen predicates are
//! "traversed bottom-up, and the IR code is emitted along the way", with
//! AND/OR short-circuiting compiled to conditional branches exactly like
//! Listing 4's `br i1 %cmp` pattern. Every expression lowers: the same
//! programs run on the Page Stores (what the NDP pass ships, within
//! [`MAX_REGS`]) and on the SQL node (everything else).

use taurus_common::{Error, Result, Value};

use crate::ast::{CmpOp, Expr};
use crate::ir::{IrInstr, IrProgram, Reg};

/// Maximum registers a program shipped in an NDP descriptor may use: the
/// cap bounds the Page Store's per-record evaluation state. The NDP pass
/// pushes only programs within it ([`lower_for_ndp`]) and a Page Store
/// refuses any other ([`check_regs`]); a program the SQL node runs itself
/// may be of any size.
pub const MAX_REGS: usize = 64;

struct Lowering {
    instrs: Vec<IrInstr>,
    consts: Vec<Value>,
    next_reg: u16,
}

impl Lowering {
    fn alloc(&mut self) -> Result<Reg> {
        let r = self.next_reg;
        self.next_reg = r.checked_add(1).ok_or_else(|| too_big("registers"))?;
        Ok(r)
    }

    fn konst(&mut self, v: Value) -> Result<u16> {
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return Ok(i as u16);
        }
        self.consts.push(v);
        u16::try_from(self.consts.len() - 1).map_err(|_| too_big("constants"))
    }

    fn emit(&mut self, i: IrInstr) -> Result<u16> {
        self.instrs.push(i);
        // Branch targets are u16 and may point one past the last
        // instruction.
        u16::try_from(self.instrs.len())
            .map(|n| n - 1)
            .map_err(|_| too_big("instructions"))
    }

    fn here(&self) -> u16 {
        self.instrs.len() as u16
    }

    fn patch_target(&mut self, at: u16, target: u16) {
        match &mut self.instrs[at as usize] {
            IrInstr::BrFalse { target: t, .. }
            | IrInstr::BrTrue { target: t, .. }
            | IrInstr::Jmp { target: t } => *t = target,
            other => panic!("patching non-branch {other:?}"),
        }
    }

    fn lower(&mut self, e: &Expr) -> Result<Reg> {
        Ok(match e {
            Expr::Col(i) => {
                let dst = self.alloc()?;
                let col = u16::try_from(*i)
                    .map_err(|_| Error::Internal("column index overflow".into()))?;
                self.emit(IrInstr::LoadCol { dst, col })?;
                dst
            }
            Expr::Lit(v) => {
                let idx = self.konst(v.clone())?;
                let dst = self.alloc()?;
                self.emit(IrInstr::LoadConst { dst, idx })?;
                dst
            }
            Expr::Cmp(op, a, b) => {
                let ra = self.lower(a)?;
                let rb = self.lower(b)?;
                let dst = self.alloc()?;
                self.emit(IrInstr::Cmp {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                })?;
                dst
            }
            Expr::And(xs) => self.lower_junction(xs, true)?,
            Expr::Or(xs) => self.lower_junction(xs, false)?,
            Expr::Not(a) => {
                let ra = self.lower(a)?;
                let dst = self.alloc()?;
                self.emit(IrInstr::Not { dst, a: ra })?;
                dst
            }
            Expr::Arith(op, a, b) => {
                let ra = self.lower(a)?;
                let rb = self.lower(b)?;
                let dst = self.alloc()?;
                self.emit(IrInstr::Arith {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                })?;
                dst
            }
            Expr::Neg(a) => {
                let ra = self.lower(a)?;
                let dst = self.alloc()?;
                self.emit(IrInstr::Neg { dst, a: ra })?;
                dst
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let ra = self.lower(expr)?;
                let p = self.konst(Value::str(pattern))?;
                let dst = self.alloc()?;
                self.emit(IrInstr::Like {
                    dst,
                    a: ra,
                    pattern: p,
                    negated: *negated,
                })?;
                dst
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                if list.is_empty() {
                    return Err(Error::InvalidState("empty IN list".into()));
                }
                let ra = self.lower(expr)?;
                // IN consts must be contiguous: append unconditionally.
                let first = u16::try_from(self.consts.len()).map_err(|_| too_big("constants"))?;
                self.consts.extend(list.iter().cloned());
                if self.consts.len() > u16::MAX as usize {
                    return Err(too_big("constants"));
                }
                let dst = self.alloc()?;
                self.emit(IrInstr::InList {
                    dst,
                    a: ra,
                    first,
                    count: list.len() as u16,
                    negated: *negated,
                })?;
                dst
            }
            Expr::Between { expr, lo, hi } => {
                // v >= lo AND v <= hi with v evaluated exactly once.
                let rv = self.lower(expr)?;
                let rlo = self.lower(lo)?;
                let rhi = self.lower(hi)?;
                let c1 = self.alloc()?;
                self.emit(IrInstr::Cmp {
                    op: CmpOp::Ge,
                    dst: c1,
                    a: rv,
                    b: rlo,
                })?;
                let c2 = self.alloc()?;
                self.emit(IrInstr::Cmp {
                    op: CmpOp::Le,
                    dst: c2,
                    a: rv,
                    b: rhi,
                })?;
                let dst = self.alloc()?;
                self.emit(IrInstr::And { dst, a: c1, b: c2 })?;
                dst
            }
            Expr::IsNull { expr, negated } => {
                let ra = self.lower(expr)?;
                let dst = self.alloc()?;
                self.emit(IrInstr::IsNull {
                    dst,
                    a: ra,
                    negated: *negated,
                })?;
                dst
            }
            Expr::ExtractYear(a) => {
                let ra = self.lower(a)?;
                let dst = self.alloc()?;
                self.emit(IrInstr::ExtractYear { dst, a: ra })?;
                dst
            }
            Expr::Substr { expr, from, len } => {
                let ra = self.lower(expr)?;
                let dst = self.alloc()?;
                let bound = |n: usize| u16::try_from(n).map_err(|_| too_big("SUBSTRING bounds"));
                self.emit(IrInstr::Substr {
                    dst,
                    a: ra,
                    from: bound(*from)?,
                    len: bound(*len)?,
                })?;
                dst
            }
            Expr::Case { branches, else_ } => self.lower_case(branches, else_)?,
        })
    }

    /// CASE WHEN: each condition in turn, a `BrTrue` to its value's block;
    /// the ELSE value falls through (as do NULL and FALSE conditions) and
    /// jumps to the end, as each value block does.
    fn lower_case(&mut self, branches: &[(Expr, Expr)], else_: &Expr) -> Result<Reg> {
        let dst = self.alloc()?;
        let mut to_value = Vec::with_capacity(branches.len());
        for (cond, _) in branches {
            let c = self.lower(cond)?;
            to_value.push(self.emit(IrInstr::BrTrue { cond: c, target: 0 })?);
        }
        let e = self.lower(else_)?;
        self.emit(IrInstr::Mov { dst, src: e })?;
        let mut to_end = vec![self.emit(IrInstr::Jmp { target: 0 })?];
        for ((_, value), br) in branches.iter().zip(to_value) {
            let block = self.here();
            self.patch_target(br, block);
            let v = self.lower(value)?;
            self.emit(IrInstr::Mov { dst, src: v })?;
            to_end.push(self.emit(IrInstr::Jmp { target: 0 })?);
        }
        let end = self.here();
        for j in to_end {
            self.patch_target(j, end);
        }
        Ok(dst)
    }

    /// Short-circuiting AND (`all=true`) / OR (`all=false`) over the parts.
    ///
    /// Emits, per part, a conditional branch to the short-circuit exit —
    /// the analogue of Listing 4's `b_and_cont`/`b_or_cont` blocks — then a
    /// three-valued merge for the fall-through path (NULLs cannot take the
    /// shortcut).
    fn lower_junction(&mut self, xs: &[Expr], all: bool) -> Result<Reg> {
        if xs.len() < 2 {
            // `Expr::and`/`Expr::or` fold a single part into itself.
            return Err(Error::InvalidState(format!(
                "junction of {} parts",
                xs.len()
            )));
        }
        let dst = self.alloc()?;
        let mut shortcut_brs = Vec::with_capacity(xs.len());
        let mut part_regs = Vec::with_capacity(xs.len());
        for x in xs {
            let r = self.lower(x)?;
            let br = if all {
                self.emit(IrInstr::BrFalse { cond: r, target: 0 })?
            } else {
                self.emit(IrInstr::BrTrue { cond: r, target: 0 })?
            };
            shortcut_brs.push(br);
            part_regs.push(r);
        }
        // Fall-through: merge NULL-aware.
        let mut acc = part_regs[0];
        for &r in &part_regs[1..] {
            let m = self.alloc()?;
            if all {
                self.emit(IrInstr::And {
                    dst: m,
                    a: acc,
                    b: r,
                })?;
            } else {
                self.emit(IrInstr::Or {
                    dst: m,
                    a: acc,
                    b: r,
                })?;
            }
            acc = m;
        }
        self.emit(IrInstr::Mov { dst, src: acc })?;
        let jmp_end = self.emit(IrInstr::Jmp { target: 0 })?;
        // Short-circuit exit: definite FALSE (AND) / TRUE (OR).
        let sc = self.here();
        let idx = self.konst(Value::Int(if all { 0 } else { 1 }))?;
        self.emit(IrInstr::LoadConst { dst, idx })?;
        let end = self.here();
        for br in shortcut_brs {
            self.patch_target(br, sc);
        }
        self.patch_target(jmp_end, end);
        Ok(dst)
    }
}

fn too_big(what: &str) -> Error {
    Error::InvalidState(format!("expression needs more than 65535 {what}"))
}

/// Lower a predicate (or scalar expression) into a validated [`IrProgram`].
pub fn lower(expr: &Expr) -> Result<IrProgram> {
    let mut l = Lowering {
        instrs: Vec::new(),
        consts: Vec::new(),
        next_reg: 0,
    };
    let result = l.lower(expr)?;
    l.emit(IrInstr::Ret { src: result })?;
    let prog = IrProgram {
        instrs: l.instrs,
        consts: l.consts,
        n_regs: l.next_reg,
    };
    prog.validate()?;
    Ok(prog)
}

/// Lower conjuncts into one program that is TRUE exactly when every one
/// of them is TRUE, running them in order and stopping at the first that
/// is not: a later conjunct never runs (nor fails) on a row an earlier
/// one rejected, a NULL one included, unlike under AND. One conjunct is
/// its own program.
pub fn lower_all_true(conjuncts: &[Expr]) -> Result<IrProgram> {
    let Some((last, first)) = conjuncts.split_last() else {
        return lower(&Expr::lit(Value::Int(1)));
    };
    let mut l = Lowering {
        instrs: Vec::new(),
        consts: Vec::new(),
        next_reg: 0,
    };
    let mut to_stop = Vec::with_capacity(first.len());
    for c in first {
        let r = l.lower(c)?;
        // TRUE goes on to the next conjunct; FALSE and NULL stop.
        let next = l.here() + 2;
        l.emit(IrInstr::BrTrue {
            cond: r,
            target: next,
        })?;
        to_stop.push(l.emit(IrInstr::Jmp { target: 0 })?);
    }
    let r = l.lower(last)?;
    l.emit(IrInstr::Ret { src: r })?;
    if !to_stop.is_empty() {
        let stop = l.here();
        for j in to_stop {
            l.patch_target(j, stop);
        }
        let idx = l.konst(Value::Int(0))?;
        l.emit(IrInstr::LoadConst { dst: r, idx })?;
        l.emit(IrInstr::Ret { src: r })?;
    }
    let prog = IrProgram {
        instrs: l.instrs,
        consts: l.consts,
        n_regs: l.next_reg,
    };
    prog.validate()?;
    Ok(prog)
}

/// [`lower`] for a program that ships in an NDP descriptor: it must also
/// fit the Page Store's register budget.
pub fn lower_for_ndp(expr: &Expr) -> Result<IrProgram> {
    let ir = lower(expr)?;
    check_regs(&ir)?;
    Ok(ir)
}

/// Does a descriptor's program fit [`MAX_REGS`]? A Page Store checks each
/// program it receives.
pub fn check_regs(ir: &IrProgram) -> Result<()> {
    if ir.n_regs as usize > MAX_REGS {
        return Err(Error::InvalidState(format!(
            "program uses {} registers, max {MAX_REGS}; not NDP-eligible",
            ir.n_regs
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_4_shape_has_shortcut_branches() {
        // (a > 1 AND b > 2) OR c >= 3 — the paper's running example.
        let e = Expr::or(vec![
            Expr::and(vec![
                Expr::gt(Expr::col(0), Expr::int(1)),
                Expr::gt(Expr::col(1), Expr::int(2)),
            ]),
            Expr::ge(Expr::col(2), Expr::int(3)),
        ]);
        let p = lower(&e).unwrap();
        let brs = p
            .instrs
            .iter()
            .filter(|i| matches!(i, IrInstr::BrFalse { .. } | IrInstr::BrTrue { .. }))
            .count();
        assert!(
            brs >= 3,
            "expected short-circuit branches, got {:?}",
            p.instrs
        );
        assert!(matches!(p.instrs.last(), Some(IrInstr::Ret { .. })));
        p.validate().unwrap();
    }

    #[test]
    fn consts_are_deduplicated() {
        let e = Expr::and(vec![
            Expr::gt(Expr::col(0), Expr::int(10)),
            Expr::lt(Expr::col(1), Expr::int(10)),
        ]);
        let p = lower(&e).unwrap();
        let tens = p.consts.iter().filter(|c| **c == Value::Int(10)).count();
        assert_eq!(tens, 1);
    }

    #[test]
    fn between_evaluates_operand_once() {
        let e = Expr::between(Expr::col(0), Expr::dec("0.05"), Expr::dec("0.07"));
        let p = lower(&e).unwrap();
        let loads = p
            .instrs
            .iter()
            .filter(|i| matches!(i, IrInstr::LoadCol { col: 0, .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn case_lowers_to_forward_branches() {
        let e = Expr::Case {
            branches: vec![
                (Expr::eq(Expr::col(0), Expr::int(1)), Expr::int(10)),
                (Expr::eq(Expr::col(0), Expr::int(2)), Expr::int(20)),
            ],
            else_: Box::new(Expr::int(0)),
        };
        let p = lower(&e).unwrap();
        let br_true = p
            .instrs
            .iter()
            .filter(|i| matches!(i, IrInstr::BrTrue { .. }))
            .count();
        assert_eq!(br_true, 2, "{:?}", p.instrs);
        for (i, ins) in p.instrs.iter().enumerate() {
            if let IrInstr::BrTrue { target, .. } | IrInstr::Jmp { target } = ins {
                assert!(*target as usize > i, "backward branch at {i}: {ins:?}");
            }
        }
    }

    #[test]
    fn register_budget_enforced() {
        // A 100-way conjunction compiles for the SQL node, but is no
        // descriptor program.
        let parts: Vec<Expr> = (0..100)
            .map(|i| Expr::gt(Expr::col(0), Expr::int(i)))
            .collect();
        let e = Expr::and(parts);
        assert!(lower(&e).unwrap().n_regs as usize > MAX_REGS);
        assert!(lower_for_ndp(&e).is_err());
        assert!(lower_for_ndp(&Expr::gt(Expr::col(0), Expr::int(1))).is_ok());
    }

    #[test]
    fn branches_are_forward_only() {
        let e = Expr::or(vec![
            Expr::and(vec![
                Expr::gt(Expr::col(0), Expr::int(1)),
                Expr::like(Expr::col(3), "PROMO%"),
            ]),
            Expr::in_list(Expr::col(2), vec![Value::str("MAIL"), Value::str("SHIP")]),
        ]);
        let p = lower(&e).unwrap();
        for (i, ins) in p.instrs.iter().enumerate() {
            if let IrInstr::BrFalse { target, .. }
            | IrInstr::BrTrue { target, .. }
            | IrInstr::Jmp { target } = ins
            {
                assert!(*target as usize > i, "backward branch at {i}: {ins:?}");
            }
        }
    }
}
