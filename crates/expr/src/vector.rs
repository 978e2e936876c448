//! Column-at-a-time predicate evaluation — the vectorized twin of the
//! scalar VM in [`crate::vm`].
//!
//! A [`VectorProgram`] is extracted from the same validated IR the scalar
//! paths run ([`crate::ir`]): the short-circuit branch structure that
//! `lower` emits for AND/OR is *statically* removed (see
//! [`canonical shortcut`](#shortcut-elision)) leaving a straight-line op
//! sequence that evaluates every sub-expression over all rows at once.
//! Boolean results live in [`BoolVec`] bitmap pairs and combine with
//! word-level Kleene AND/OR/NOT — 64 rows of three-valued logic per
//! instruction instead of a `TriBool` dispatch per cell. Non-boolean
//! registers hold one [`Slot`] per row and reuse the scalar VM's cell
//! helpers (`slot_cmp`/`slot_arith`/...), so every lane computes exactly
//! what `CompiledPredicate::eval_record` would — parity by construction.
//!
//! The program runs on a [`ColumnBatch`] ([`VectorProgram::eval_batch`]).
//! No query path runs it: the SQL node runs every scan-level conjunct on
//! record bytes and every operator's expressions row at a time on the
//! scalar VM, and the Page Stores run pushed predicates through the same
//! VM on record bytes (`taurus-pagestore::plugin`), because building
//! columns out of a page's records cost more than the kernel saved on
//! every TPC-H descriptor. It stays as a measured kernel: `benchmark/`
//! times it against the tree-walker's `eval_pred` (the tests' oracle) as
//! `expr.vector_filter_ns_per_row`.
//!
//! # Shortcut elision
//!
//! `lower_junction` emits exactly one shape of conditional branch: a jump
//! to a `Mov; Jmp end; LoadConst dst, 0|1` shortcut exit. Because the
//! fall-through path merges with Kleene AND/OR — for which
//! `And(False, x) == False` and `Or(True, x) == True` — the merged
//! fall-through value *equals* the shortcut constant on every row that
//! would have branched, so dropping the branch preserves semantics. The
//! extractor verifies this exact shape and rejects anything else
//! (hand-built IR, future compiler changes): rejection is not an error,
//! it just means callers fall back to the scalar path.
//!
//! # Errors
//!
//! Vector evaluation computes eagerly where the scalar VM short-circuits,
//! so it can hit a runtime error (division by zero, integer overflow) on
//! a row the scalar path never evaluates. Any lane error fails the whole
//! batch; the scalar result is the authoritative one.

use taurus_common::colbatch::{Bitmap, ColumnBatch, ColumnVec};
use taurus_common::{Dec, Error, Result};

use crate::ast::{ArithOp, CmpOp, Expr};
use crate::compile::MAX_REGS;
use crate::ir::{IrInstr, IrProgram};
use crate::util;
use crate::vm::{bool_slot, cmp_holds, slot_arith, slot_bool, slot_cmp, ConstSlot, Slot};

/// A three-valued boolean column: `truth` holds the definite-TRUE rows,
/// `valid` the non-NULL rows. Invariant: `truth ⊆ valid` (and bits past
/// `len` are zero in both), so FALSE = `valid & !truth` and NULL =
/// `!valid` — one word op each.
#[derive(Clone, Debug)]
pub struct BoolVec {
    truth: Vec<u64>,
    valid: Vec<u64>,
    len: usize,
}

impl BoolVec {
    /// All lanes NULL.
    pub fn with_len(len: usize) -> BoolVec {
        BoolVec {
            truth: vec![0; len.div_ceil(64)],
            valid: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Every lane the same three-valued constant.
    pub fn splat(len: usize, v: Option<bool>) -> BoolVec {
        let mut b = BoolVec::with_len(len);
        if v.is_some() {
            for w in &mut b.valid {
                *w = !0;
            }
        }
        if v == Some(true) {
            for w in &mut b.truth {
                *w = !0;
            }
        }
        b.mask_tail();
        b
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            let m = (1u64 << tail) - 1;
            if let Some(w) = self.truth.last_mut() {
                *w &= m;
            }
            if let Some(w) = self.valid.last_mut() {
                *w &= m;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set lane `i` (starting from NULL; lanes are set at most once).
    #[inline]
    pub fn set_lane(&mut self, i: usize, v: Option<bool>) {
        debug_assert!(i < self.len);
        let (w, off) = (i / 64, i % 64);
        match v {
            None => {}
            Some(t) => {
                self.valid[w] |= 1 << off;
                if t {
                    self.truth[w] |= 1 << off;
                }
            }
        }
    }

    #[inline]
    pub fn get_lane(&self, i: usize) -> Option<bool> {
        debug_assert!(i < self.len);
        let (w, off) = (i / 64, i % 64);
        if (self.valid[w] >> off) & 1 == 0 {
            None
        } else {
            Some((self.truth[w] >> off) & 1 == 1)
        }
    }

    #[inline]
    pub fn is_true(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.truth[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Word-level Kleene AND: FALSE dominates NULL.
    pub fn and(&self, o: &BoolVec) -> BoolVec {
        debug_assert_eq!(self.len, o.len);
        let mut out = BoolVec::with_len(self.len);
        for i in 0..out.truth.len() {
            let t = self.truth[i] & o.truth[i];
            let f = (self.valid[i] & !self.truth[i]) | (o.valid[i] & !o.truth[i]);
            out.truth[i] = t;
            out.valid[i] = t | f;
        }
        out
    }

    /// Word-level Kleene OR: TRUE dominates NULL.
    pub fn or(&self, o: &BoolVec) -> BoolVec {
        debug_assert_eq!(self.len, o.len);
        let mut out = BoolVec::with_len(self.len);
        for i in 0..out.truth.len() {
            let t = self.truth[i] | o.truth[i];
            let f = (self.valid[i] & !self.truth[i]) & (o.valid[i] & !o.truth[i]);
            out.truth[i] = t;
            out.valid[i] = t | f;
        }
        out
    }

    /// Kleene NOT: NULL stays NULL.
    pub fn not(&self) -> BoolVec {
        let mut out = self.clone();
        for i in 0..out.truth.len() {
            out.truth[i] = out.valid[i] & !out.truth[i];
        }
        out
    }

    pub fn count_true(&self) -> usize {
        self.truth.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Straight-line vector op: [`IrInstr`] minus branches and `Ret`.
#[derive(Clone, Copy, Debug)]
enum VOp {
    /// Load batch column `col`.
    Load {
        dst: u16,
        col: u16,
    },
    LoadConst {
        dst: u16,
        idx: u16,
    },
    Mov {
        dst: u16,
        src: u16,
    },
    Cmp {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    And {
        dst: u16,
        a: u16,
        b: u16,
    },
    Or {
        dst: u16,
        a: u16,
        b: u16,
    },
    Not {
        dst: u16,
        a: u16,
    },
    Arith {
        op: ArithOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    Neg {
        dst: u16,
        a: u16,
    },
    IsNull {
        dst: u16,
        a: u16,
        negated: bool,
    },
    Like {
        dst: u16,
        a: u16,
        pattern: u16,
        negated: bool,
    },
    InList {
        dst: u16,
        a: u16,
        first: u16,
        count: u16,
        negated: bool,
    },
    ExtractYear {
        dst: u16,
        a: u16,
    },
    Substr {
        dst: u16,
        a: u16,
        from: u16,
        len: u16,
    },
}

/// One register during vector evaluation.
#[derive(Clone, Debug)]
enum VReg<'a> {
    Unset,
    /// The same scalar on every row (constants).
    Splat(Slot<'a>),
    /// A borrowed batch column, still in typed form — comparisons against
    /// it run over the raw vectors (the fast kernels); anything else
    /// materializes slots lazily via [`lanes`].
    Col(&'a ColumnVec),
    /// One slot per row.
    Cells(Vec<Slot<'a>>),
    /// Three-valued boolean bitmaps.
    Bool(BoolVec),
}

/// A per-row view of a register for the cell-at-a-time kernels.
enum Lanes<'v, 'a> {
    Splat(Slot<'a>),
    Cells(&'v [Slot<'a>]),
    Owned(Vec<Slot<'a>>),
}

impl<'a> Lanes<'_, 'a> {
    #[inline]
    fn at(&self, i: usize) -> Slot<'a> {
        match self {
            Lanes::Splat(s) => *s,
            Lanes::Cells(c) => c[i],
            Lanes::Owned(v) => v[i],
        }
    }

    fn is_splat(&self) -> bool {
        matches!(self, Lanes::Splat(_))
    }
}

fn lanes<'v, 'a>(r: &'v VReg<'a>, len: usize) -> Result<Lanes<'v, 'a>> {
    match r {
        VReg::Splat(s) => Ok(Lanes::Splat(*s)),
        VReg::Col(cv) => Ok(Lanes::Owned(column_slots(cv, len))),
        VReg::Cells(c) => Ok(Lanes::Cells(c)),
        VReg::Bool(b) => Ok(Lanes::Owned(
            (0..len)
                .map(|i| match b.get_lane(i) {
                    None => Slot::Null,
                    Some(t) => bool_slot(t),
                })
                .collect(),
        )),
        VReg::Unset => Err(Error::Internal("vector register read before write".into())),
    }
}

/// Convert any register into boolean bitmaps (`Ret`, And/Or/Not inputs).
fn to_bool(r: &VReg<'_>, len: usize) -> Result<BoolVec> {
    match r {
        VReg::Bool(b) => Ok(b.clone()),
        VReg::Splat(s) => Ok(BoolVec::splat(len, slot_bool(s)?)),
        VReg::Col(cv) => {
            let cells = column_slots(cv, len);
            let mut out = BoolVec::with_len(len);
            for (i, s) in cells.iter().enumerate() {
                out.set_lane(i, slot_bool(s)?);
            }
            Ok(out)
        }
        VReg::Cells(c) => {
            let mut out = BoolVec::with_len(len);
            for (i, s) in c.iter().enumerate() {
                out.set_lane(i, slot_bool(s)?);
            }
            Ok(out)
        }
        VReg::Unset => Err(Error::Internal("vector register read before write".into())),
    }
}

/// A predicate program in straight-line vector form.
pub struct VectorProgram {
    ops: Box<[VOp]>,
    consts: Box<[ConstSlot]>,
    n_regs: usize,
    ret: u16,
}

impl VectorProgram {
    /// Compile an executor predicate: `Expr::Col(i)` loads batch column
    /// `i`. `Err` means "not vectorizable" — fall back to the scalar path.
    pub fn from_expr(e: &Expr) -> Result<VectorProgram> {
        Self::from_ir(&crate::compile::lower(e)?)
    }

    /// Extract the straight-line op sequence of `ir` (`LoadCol { col }`
    /// loads batch column `col`), following unconditional jumps and
    /// eliding canonical shortcut branches (module docs).
    pub fn from_ir(ir: &IrProgram) -> Result<VectorProgram> {
        ir.validate()?;
        if ir.n_regs as usize > MAX_REGS {
            return Err(Error::InvalidState(format!(
                "program uses {} registers, max {MAX_REGS}",
                ir.n_regs
            )));
        }
        let mut ops = Vec::with_capacity(ir.instrs.len());
        let mut pc = 0usize;
        let ret;
        loop {
            let Some(&ins) = ir.instrs.get(pc) else {
                return Err(Error::InvalidState("program ran off the end".into()));
            };
            match ins {
                IrInstr::Jmp { target } => {
                    if target as usize <= pc {
                        return Err(Error::InvalidState(
                            "backward jump; not vectorizable".into(),
                        ));
                    }
                    // The shortcut exit this jump skips must never run on
                    // the fall-through path: follow it statically.
                    pc = target as usize;
                }
                IrInstr::BrFalse { target, .. } => {
                    canonical_shortcut(ir, target, false)?;
                    pc += 1;
                }
                IrInstr::BrTrue { target, .. } => {
                    canonical_shortcut(ir, target, true)?;
                    pc += 1;
                }
                IrInstr::Ret { src } => {
                    ret = src;
                    break;
                }
                other => {
                    ops.push(lower_one(other)?);
                    pc += 1;
                }
            }
        }
        Ok(VectorProgram {
            ops: ops.into_boxed_slice(),
            consts: ir.consts.iter().map(ConstSlot::from_value).collect(),
            n_regs: ir.n_regs as usize,
            ret,
        })
    }

    /// Evaluate over every row of a [`ColumnBatch`].
    pub fn eval_batch<'a>(&'a self, batch: &'a ColumnBatch) -> Result<BoolVec> {
        let len = batch.len();
        let mut regs: Vec<VReg<'a>> = vec![VReg::Unset; self.n_regs];
        for op in self.ops.iter() {
            match *op {
                VOp::Load { dst, col } => {
                    if col as usize >= batch.width() {
                        return Err(Error::Internal(format!(
                            "vector load of column {col} from width-{} batch",
                            batch.width()
                        )));
                    }
                    // Keep the typed column: comparisons against it run the
                    // raw-vector kernels instead of per-lane slot dispatch.
                    regs[dst as usize] = VReg::Col(batch.col(col as usize));
                }
                VOp::LoadConst { dst, idx } => {
                    regs[dst as usize] = VReg::Splat(self.consts[idx as usize].as_slot());
                }
                VOp::Mov { dst, src } => regs[dst as usize] = regs[src as usize].clone(),
                VOp::Cmp { op, dst, a, b } => {
                    let r = cmp_vec(op, &regs[a as usize], &regs[b as usize], len)?;
                    regs[dst as usize] = VReg::Bool(r);
                }
                VOp::And { dst, a, b } => {
                    let x = to_bool(&regs[a as usize], len)?;
                    let y = to_bool(&regs[b as usize], len)?;
                    regs[dst as usize] = VReg::Bool(x.and(&y));
                }
                VOp::Or { dst, a, b } => {
                    let x = to_bool(&regs[a as usize], len)?;
                    let y = to_bool(&regs[b as usize], len)?;
                    regs[dst as usize] = VReg::Bool(x.or(&y));
                }
                VOp::Not { dst, a } => {
                    let x = to_bool(&regs[a as usize], len)?;
                    regs[dst as usize] = VReg::Bool(x.not());
                }
                VOp::Arith { op, dst, a, b } => {
                    let r = arith_vec(op, &regs[a as usize], &regs[b as usize], len)?;
                    regs[dst as usize] = r;
                }
                VOp::Neg { dst, a } => {
                    let r = unary_cells(&regs[a as usize], len, |s| match s {
                        Slot::Null => Ok(Slot::Null),
                        Slot::Int(v) => Ok(Slot::Int(util::neg_int(v)?)),
                        Slot::Dec(raw, scale) => Ok(Slot::dec(Dec::new(raw, scale).neg())),
                        Slot::F64(v) => Ok(Slot::F64(-v)),
                        other => Err(Error::Type(format!("cannot negate {other:?}"))),
                    })?;
                    regs[dst as usize] = r;
                }
                VOp::IsNull { dst, a, negated } => {
                    let r = match &regs[a as usize] {
                        VReg::Bool(b) => {
                            // A boolean register is NULL exactly where it
                            // is not valid.
                            let mut out = BoolVec::with_len(len);
                            for i in 0..len {
                                let isn = b.get_lane(i).is_none();
                                out.set_lane(i, Some(isn != negated));
                            }
                            out
                        }
                        VReg::Splat(s) => {
                            BoolVec::splat(len, Some(matches!(s, Slot::Null) != negated))
                        }
                        VReg::Col(cv) => {
                            // NULL ⟺ validity bit clear: word-level.
                            let mut out = BoolVec::splat(len, Some(false));
                            let vw = cv.valid().words();
                            for (i, t) in out.truth.iter_mut().enumerate() {
                                let nulls = !vw.get(i).copied().unwrap_or(0);
                                *t = if negated { !nulls } else { nulls };
                            }
                            for (t, &va) in out.truth.iter_mut().zip(&out.valid) {
                                *t &= va;
                            }
                            out
                        }
                        VReg::Cells(c) => {
                            let mut out = BoolVec::with_len(len);
                            for (i, s) in c.iter().enumerate() {
                                let isn = matches!(s, Slot::Null);
                                out.set_lane(i, Some(isn != negated));
                            }
                            out
                        }
                        VReg::Unset => {
                            return Err(Error::Internal("vector register read before write".into()))
                        }
                    };
                    regs[dst as usize] = VReg::Bool(r);
                }
                VOp::Like {
                    dst,
                    a,
                    pattern,
                    negated,
                } => {
                    let pat = match &self.consts[pattern as usize] {
                        ConstSlot::Bytes(b) => &b[..],
                        other => {
                            return Err(Error::Internal(format!("LIKE pattern const is {other:?}")))
                        }
                    };
                    let av = lanes(&regs[a as usize], len)?;
                    let mut out = BoolVec::with_len(len);
                    for i in 0..len {
                        match av.at(i) {
                            Slot::Null => {}
                            Slot::Bytes(text) => {
                                out.set_lane(i, Some(util::like_match(text, pat) != negated))
                            }
                            other => return Err(Error::Type(format!("LIKE on {other:?}"))),
                        }
                    }
                    regs[dst as usize] = VReg::Bool(out);
                }
                VOp::InList {
                    dst,
                    a,
                    first,
                    count,
                    negated,
                } => {
                    let list: Vec<Slot<'_>> = (first..first + count)
                        .map(|i| self.consts[i as usize].as_slot())
                        .collect();
                    let av = lanes(&regs[a as usize], len)?;
                    let mut out = BoolVec::with_len(len);
                    for i in 0..len {
                        let v = av.at(i);
                        if matches!(v, Slot::Null) {
                            continue;
                        }
                        let found = list
                            .iter()
                            .any(|c| slot_cmp(&v, c) == Some(std::cmp::Ordering::Equal));
                        let saw_null = list.iter().any(|c| matches!(c, Slot::Null));
                        out.set_lane(i, (found || !saw_null).then_some(found != negated));
                    }
                    regs[dst as usize] = VReg::Bool(out);
                }
                VOp::ExtractYear { dst, a } => {
                    let r = unary_cells(&regs[a as usize], len, |s| match s {
                        Slot::Null => Ok(Slot::Null),
                        Slot::Date(d) => Ok(Slot::Int(util::extract_year(d))),
                        other => Err(Error::Type(format!("EXTRACT(YEAR) on {other:?}"))),
                    })?;
                    regs[dst as usize] = r;
                }
                VOp::Substr {
                    dst,
                    a,
                    from,
                    len: n,
                } => {
                    let r = unary_cells(&regs[a as usize], len, |s| match s {
                        Slot::Null => Ok(Slot::Null),
                        Slot::Bytes(b) => {
                            Ok(Slot::Bytes(util::substr(b, from as usize, n as usize)))
                        }
                        other => Err(Error::Type(format!("SUBSTR on {other:?}"))),
                    })?;
                    regs[dst as usize] = r;
                }
            }
        }
        to_bool(&regs[self.ret as usize], len)
    }
}

/// Verify the canonical shortcut-exit shape at branch target `t` (module
/// docs): `Mov{dst}; Jmp t+1; LoadConst{dst, Int(0|1)}`. Anything else —
/// hand-built IR, a different compiler — is rejected (scalar fallback).
fn canonical_shortcut(ir: &IrProgram, target: u16, is_true: bool) -> Result<()> {
    let t = target as usize;
    let want = if is_true { 1 } else { 0 };
    let reject = || Error::InvalidState("non-canonical shortcut branch; not vectorizable".into());
    if t < 2 || t >= ir.instrs.len() {
        return Err(reject());
    }
    let IrInstr::LoadConst { dst, idx } = ir.instrs[t] else {
        return Err(reject());
    };
    if ir.consts.get(idx as usize) != Some(&taurus_common::Value::Int(want)) {
        return Err(reject());
    }
    let IrInstr::Jmp { target: j } = ir.instrs[t - 1] else {
        return Err(reject());
    };
    if j as usize != t + 1 {
        return Err(reject());
    }
    let IrInstr::Mov { dst: md, .. } = ir.instrs[t - 2] else {
        return Err(reject());
    };
    if md != dst {
        return Err(reject());
    }
    Ok(())
}

fn lower_one(ins: IrInstr) -> Result<VOp> {
    Ok(match ins {
        IrInstr::LoadCol { dst, col } => VOp::Load { dst, col },
        IrInstr::LoadConst { dst, idx } => VOp::LoadConst { dst, idx },
        IrInstr::Mov { dst, src } => VOp::Mov { dst, src },
        IrInstr::Cmp { op, dst, a, b } => VOp::Cmp { op, dst, a, b },
        IrInstr::And { dst, a, b } => VOp::And { dst, a, b },
        IrInstr::Or { dst, a, b } => VOp::Or { dst, a, b },
        IrInstr::Not { dst, a } => VOp::Not { dst, a },
        IrInstr::Arith { op, dst, a, b } => VOp::Arith { op, dst, a, b },
        IrInstr::Neg { dst, a } => VOp::Neg { dst, a },
        IrInstr::IsNull { dst, a, negated } => VOp::IsNull { dst, a, negated },
        IrInstr::Like {
            dst,
            a,
            pattern,
            negated,
        } => VOp::Like {
            dst,
            a,
            pattern,
            negated,
        },
        IrInstr::InList {
            dst,
            a,
            first,
            count,
            negated,
        } => VOp::InList {
            dst,
            a,
            first,
            count,
            negated,
        },
        IrInstr::ExtractYear { dst, a } => VOp::ExtractYear { dst, a },
        IrInstr::Substr { dst, a, from, len } => VOp::Substr { dst, a, from, len },
        IrInstr::BrFalse { .. }
        | IrInstr::BrTrue { .. }
        | IrInstr::Jmp { .. }
        | IrInstr::Ret { .. } => {
            return Err(Error::Internal(
                "branch reached straight-line lowering".into(),
            ))
        }
    })
}

/// Per-type column → slot extraction: one tight loop per [`ColumnVec`]
/// variant (this is the "column-at-a-time" load the row path lacks).
fn column_slots<'a>(cv: &'a ColumnVec, len: usize) -> Vec<Slot<'a>> {
    debug_assert_eq!(cv.len(), len);
    match cv {
        ColumnVec::Int64 { vals, valid } => vals
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if valid.get(i) {
                    Slot::Int(v)
                } else {
                    Slot::Null
                }
            })
            .collect(),
        ColumnVec::Dec { raw, scale, valid } => raw
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if valid.get(i) {
                    Slot::Dec(r, *scale)
                } else {
                    Slot::Null
                }
            })
            .collect(),
        ColumnVec::Date { vals, valid } => vals
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if valid.get(i) {
                    Slot::Date(v)
                } else {
                    Slot::Null
                }
            })
            .collect(),
        ColumnVec::F64 { vals, valid } => vals
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if valid.get(i) {
                    Slot::F64(v)
                } else {
                    Slot::Null
                }
            })
            .collect(),
        ColumnVec::Generic { vals, .. } => vals
            .iter()
            .map(|v| match v {
                taurus_common::Value::Null => Slot::Null,
                taurus_common::Value::Int(x) => Slot::Int(*x),
                taurus_common::Value::Decimal(d) => Slot::dec(*d),
                taurus_common::Value::Date(d) => Slot::Date(d.0),
                taurus_common::Value::Str(s) => Slot::Bytes(s.as_bytes()),
                taurus_common::Value::Double(x) => Slot::F64(*x),
            })
            .collect(),
    }
}

fn cmp_vec(op: CmpOp, ra: &VReg<'_>, rb: &VReg<'_>, len: usize) -> Result<BoolVec> {
    // Typed fast paths first: raw-vector loops, no per-lane slot dispatch.
    // `None` means "shape not specialized" (or a checked rescale deferred
    // the batch) — never a semantic difference — and the generic path
    // below reproduces scalar-VM behavior exactly (including its type
    // errors; `slot_cmp`'s `Dec::cmp_dec` is overflow-sound).
    match (ra, rb) {
        (VReg::Col(cv), VReg::Splat(s)) => {
            if let Some(bv) = cmp_col_const(op, cv, s, len) {
                return Ok(bv);
            }
        }
        (VReg::Splat(s), VReg::Col(cv)) => {
            if let Some(bv) = cmp_col_const(op.flip(), cv, s, len) {
                return Ok(bv);
            }
        }
        (VReg::Col(ca), VReg::Col(cb)) => {
            if let Some(bv) = cmp_col_col(op, ca, cb) {
                return Ok(bv);
            }
        }
        _ => {}
    }
    let a = lanes(ra, len)?;
    let b = lanes(rb, len)?;
    if a.is_splat() && b.is_splat() {
        let v = slot_cmp(&a.at(0), &b.at(0)).map(|ord| cmp_holds(op, ord));
        return Ok(BoolVec::splat(len, v));
    }
    let mut out = BoolVec::with_len(len);
    for i in 0..len {
        if let Some(ord) = slot_cmp(&a.at(i), &b.at(i)) {
            out.set_lane(i, Some(cmp_holds(op, ord)));
        }
    }
    Ok(out)
}

/// Truth bits from one tight loop over a typed vector; validity copied
/// wordwise from the column bitmap (then `truth &= valid`, preserving the
/// `truth ⊆ valid` invariant — NULL lanes compare to NULL exactly as
/// `slot_cmp` does).
fn cmp_tight<T: Copy>(vals: &[T], valid: &Bitmap, f: impl Fn(T) -> bool) -> BoolVec {
    let mut out = BoolVec::with_len(vals.len());
    out.valid.copy_from_slice(valid.words());
    for (i, &v) in vals.iter().enumerate() {
        out.truth[i / 64] |= (f(v) as u64) << (i % 64);
    }
    for (t, &w) in out.truth.iter_mut().zip(&out.valid) {
        *t &= w;
    }
    out
}

/// Power of ten used by `Dec::align` — the same rescale the scalar
/// comparison performs, hoisted out of the loop.
fn pow10(scale: u8) -> i128 {
    10i128.pow(scale as u32)
}

/// Largest upscale exponent for which `i64 as i128 * 10^k` cannot exceed
/// `i128`: `i64::MAX · 10^19 < i128::MAX`.
const MAX_I64_UPSCALE: u8 = 19;

/// Checked variant of [`cmp_tight`]: any lane whose rescale would
/// overflow aborts the specialization (`None`), deferring the whole batch
/// to the generic slot path, whose `Dec::cmp_dec` is overflow-sound.
fn cmp_tight_checked<T: Copy>(
    vals: &[T],
    valid: &Bitmap,
    f: impl Fn(T) -> Option<bool>,
) -> Option<BoolVec> {
    let mut out = BoolVec::with_len(vals.len());
    out.valid.copy_from_slice(valid.words());
    for (i, &v) in vals.iter().enumerate() {
        out.truth[i / 64] |= (f(v)? as u64) << (i % 64);
    }
    for (t, &w) in out.truth.iter_mut().zip(&out.valid) {
        *t &= w;
    }
    Some(out)
}

/// Column vs constant, specialized per typed [`ColumnVec`] variant.
/// Decimal/int mixes pre-align the constant (or fold the per-lane align
/// multiply into the loop) exactly as `Dec::align` would per lane; a
/// per-lane rescale that could overflow runs checked and defers on
/// overflow.
fn cmp_col_const(op: CmpOp, cv: &ColumnVec, c: &Slot<'_>, len: usize) -> Option<BoolVec> {
    if matches!(c, Slot::Null) {
        // NULL compares to NULL on every lane.
        return Some(BoolVec::with_len(len));
    }
    match (cv, c) {
        (ColumnVec::Int64 { vals, valid }, Slot::Int(c)) => {
            let c = *c;
            Some(cmp_tight(vals, valid, |v| cmp_holds(op, v.cmp(&c))))
        }
        (ColumnVec::Int64 { vals, valid }, &Slot::Dec(raw, scale)) => {
            // The lane side is i64 by type, so `v · 10^scale` is statically
            // safe for any scale ≤ 19 — no flag or per-lane check needed.
            if scale > MAX_I64_UPSCALE {
                return None;
            }
            let (p, cr) = (pow10(scale), raw);
            Some(cmp_tight(vals, valid, |v| {
                cmp_holds(op, (v as i128 * p).cmp(&cr))
            }))
        }
        (ColumnVec::Dec { raw, scale, valid }, &Slot::Dec(c, c_scale)) => {
            if c_scale <= *scale {
                let cr = c.checked_mul(pow10(scale - c_scale))?;
                Some(cmp_tight(raw, valid, |v| cmp_holds(op, v.cmp(&cr))))
            } else {
                let (p, cr) = (pow10(c_scale - scale), c);
                cmp_tight_checked(raw, valid, |v| {
                    Some(cmp_holds(op, v.checked_mul(p)?.cmp(&cr)))
                })
            }
        }
        (ColumnVec::Dec { raw, scale, valid }, Slot::Int(c)) => {
            let cr = (*c as i128).checked_mul(pow10(*scale))?;
            Some(cmp_tight(raw, valid, |v| cmp_holds(op, v.cmp(&cr))))
        }
        (ColumnVec::Date { vals, valid }, Slot::Date(c)) => {
            let c = *c;
            Some(cmp_tight(vals, valid, |v| cmp_holds(op, v.cmp(&c))))
        }
        _ => None,
    }
}

/// Column vs column for matching typed variants; validity is the
/// word-level AND of both bitmaps. Decimal pairs of unequal scale
/// rescale per lane, checked, and defer on overflow.
fn cmp_col_col(op: CmpOp, ca: &ColumnVec, cb: &ColumnVec) -> Option<BoolVec> {
    fn zip<T: Copy, U: Copy>(
        op: CmpOp,
        a: &[T],
        b: &[U],
        va: &Bitmap,
        vb: &Bitmap,
        ord: impl Fn(T, U) -> std::cmp::Ordering,
    ) -> BoolVec {
        let mut out = BoolVec::with_len(a.len());
        for (o, (&x, &y)) in out.valid.iter_mut().zip(va.words().iter().zip(vb.words())) {
            *o = x & y;
        }
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            out.truth[i / 64] |= (cmp_holds(op, ord(x, y)) as u64) << (i % 64);
        }
        for (t, &w) in out.truth.iter_mut().zip(&out.valid) {
            *t &= w;
        }
        out
    }
    match (ca, cb) {
        (ColumnVec::Int64 { vals: a, valid: va }, ColumnVec::Int64 { vals: b, valid: vb }) => {
            Some(zip(op, a, b, va, vb, |x, y| x.cmp(&y)))
        }
        (ColumnVec::Date { vals: a, valid: va }, ColumnVec::Date { vals: b, valid: vb }) => {
            Some(zip(op, a, b, va, vb, |x, y| x.cmp(&y)))
        }
        (
            ColumnVec::Dec {
                raw: a,
                scale: sa,
                valid: va,
            },
            ColumnVec::Dec {
                raw: b,
                scale: sb,
                valid: vb,
            },
        ) => {
            let (pa, pb) = (pow10(sa.max(sb) - sa), pow10(sa.max(sb) - sb));
            if pa == 1 && pb == 1 {
                return Some(zip(op, a, b, va, vb, |x, y| (x * pa).cmp(&(y * pb))));
            }
            let mut out = BoolVec::with_len(a.len());
            for (o, (&x, &y)) in out.valid.iter_mut().zip(va.words().iter().zip(vb.words())) {
                *o = x & y;
            }
            for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
                let (xs, ys) = (x.checked_mul(pa)?, y.checked_mul(pb)?);
                out.truth[i / 64] |= (cmp_holds(op, xs.cmp(&ys)) as u64) << (i % 64);
            }
            for (t, &w) in out.truth.iter_mut().zip(&out.valid) {
                *t &= w;
            }
            Some(out)
        }
        _ => None,
    }
}

fn arith_vec<'a>(op: ArithOp, ra: &VReg<'a>, rb: &VReg<'a>, len: usize) -> Result<VReg<'a>> {
    let a = lanes(ra, len)?;
    let b = lanes(rb, len)?;
    if a.is_splat() && b.is_splat() {
        return Ok(VReg::Splat(slot_arith(op, &a.at(0), &b.at(0))?));
    }
    let cells: Vec<Slot<'a>> = (0..len)
        .map(|i| slot_arith(op, &a.at(i), &b.at(i)))
        .collect::<Result<_>>()?;
    Ok(VReg::Cells(cells))
}

fn unary_cells<'a>(
    r: &VReg<'a>,
    len: usize,
    f: impl Fn(Slot<'a>) -> Result<Slot<'a>>,
) -> Result<VReg<'a>> {
    let a = lanes(r, len)?;
    if a.is_splat() {
        return Ok(VReg::Splat(f(a.at(0))?));
    }
    let cells: Vec<Slot<'a>> = (0..len).map(|i| f(a.at(i))).collect::<Result<_>>()?;
    Ok(VReg::Cells(cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_pred;
    use taurus_common::{DataType, Date32, Value};

    fn dtypes() -> Vec<DataType> {
        vec![
            DataType::Int,
            DataType::Decimal {
                precision: 15,
                scale: 2,
            },
            DataType::Date,
            DataType::Char(10),
            DataType::Varchar(25),
        ]
    }

    /// The scalar VM test corpus — byte-for-byte the shapes the vector
    /// path must agree on.
    fn predicates() -> Vec<Expr> {
        vec![
            Expr::and(vec![
                Expr::ge(Expr::col(2), Expr::date("1994-01-01")),
                Expr::lt(Expr::col(2), Expr::date("1995-01-01")),
                Expr::between(Expr::col(1), Expr::dec("0.05"), Expr::dec("0.07")),
                Expr::lt(Expr::col(0), Expr::int(25)),
            ]),
            Expr::or(vec![
                Expr::and(vec![
                    Expr::gt(Expr::col(0), Expr::int(1)),
                    Expr::gt(Expr::col(1), Expr::dec("0.02")),
                ]),
                Expr::ge(Expr::col(2), Expr::date("1995-01-01")),
            ]),
            Expr::like(Expr::col(4), "PROMO%"),
            Expr::not_like(Expr::col(4), "%BRASS"),
            Expr::in_list(Expr::col(3), vec![Value::str("MAIL"), Value::str("SHIP")]),
            Expr::eq(Expr::ExtractYear(Box::new(Expr::col(2))), Expr::int(1994)),
            Expr::IsNull {
                expr: Box::new(Expr::col(0)),
                negated: false,
            },
            Expr::gt(Expr::mul(Expr::col(1), Expr::int(100)), Expr::int(5)),
            Expr::eq(
                Expr::Substr {
                    expr: Box::new(Expr::col(4)),
                    from: 1,
                    len: 5,
                },
                Expr::str("PROMO"),
            ),
            Expr::not(Expr::lt(Expr::col(0), Expr::int(25))),
        ]
    }

    fn random_rows(n: usize, seed: u64) -> Vec<Vec<Value>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let modes = ["MAIL", "SHIP", "AIR", "RAIL", "TRUCK"];
        let types = ["PROMO X", "SMALL Y", "STANDARD Z", "PROMO BRASS"];
        (0..n)
            .map(|_| {
                vec![
                    if rng.gen_bool(0.1) {
                        Value::Null
                    } else {
                        Value::Int(rng.gen_range(0..60))
                    },
                    Value::Decimal(Dec {
                        raw: rng.gen_range(0..11),
                        scale: 2,
                    }),
                    Value::Date(Date32(rng.gen_range(8766..10592))),
                    Value::str(modes[rng.gen_range(0..modes.len())]),
                    Value::str(types[rng.gen_range(0..types.len())]),
                ]
            })
            .collect()
    }

    fn batch_of(rows: &[Vec<Value>]) -> ColumnBatch {
        let mut cb = ColumnBatch::with_capacity(&dtypes(), rows.len().max(1));
        for r in rows {
            cb.push_row(r.iter().cloned());
        }
        cb
    }

    /// eval_batch == the interpreter on every row of every predicate.
    #[test]
    fn batch_eval_agrees_with_interpreter() {
        let rows = random_rows(257, 0xC0FFEE);
        let cb = batch_of(&rows);
        for (pi, p) in predicates().iter().enumerate() {
            let vp = VectorProgram::from_expr(p).unwrap();
            let bv = vp.eval_batch(&cb).unwrap();
            for (ri, row) in rows.iter().enumerate() {
                let expect = eval_pred(p, row).unwrap();
                assert_eq!(bv.get_lane(ri), expect, "predicate #{pi} row #{ri}: {p}");
                assert_eq!(bv.is_true(ri), expect == Some(true));
            }
        }
    }

    /// Hand-built IR that doesn't match `lower`'s canonical shortcut shape
    /// must be rejected (callers then use the scalar path) — including the
    /// backward-jump program the scalar compiler also rejects.
    #[test]
    fn non_canonical_programs_are_rejected() {
        let backward = IrProgram {
            instrs: vec![
                IrInstr::LoadConst { dst: 0, idx: 0 },
                IrInstr::Jmp { target: 0 },
                IrInstr::Ret { src: 0 },
            ],
            consts: vec![Value::Int(1)],
            n_regs: 1,
        };
        assert!(VectorProgram::from_ir(&backward).is_err());
        // A branch straight to Ret: valid IR, but not the canonical
        // Mov/Jmp/LoadConst exit — rejected, not miscompiled.
        let to_ret = IrProgram {
            instrs: vec![
                IrInstr::LoadConst { dst: 0, idx: 0 },
                IrInstr::BrFalse { cond: 0, target: 2 },
                IrInstr::Ret { src: 0 },
            ],
            consts: vec![Value::Int(0)],
            n_regs: 1,
        };
        assert!(VectorProgram::from_ir(&to_ret).is_err());
    }

    /// Every compiler-emitted predicate in the corpus *is* vectorizable —
    /// the canonical-shape check accepts what `lower` produces.
    #[test]
    fn compiler_output_is_always_vectorizable() {
        for p in predicates() {
            assert!(VectorProgram::from_expr(&p).is_ok(), "{p}");
        }
    }

    /// Eager evaluation errors (lanes the scalar path would short-circuit
    /// past) fail the whole batch — the fallback contract.
    #[test]
    fn lane_error_fails_whole_batch() {
        // 10 / col0 > 1 with a zero present: scalar errors on that row
        // too, but here even one poisoned lane must fail all 3.
        let p = Expr::gt(Expr::div(Expr::int(10), Expr::col(0)), Expr::int(1));
        let rows = vec![
            vec![
                Value::Int(5),
                Value::Decimal(Dec::new(0, 2)),
                Value::Date(Date32(0)),
                Value::str("A"),
                Value::str("B"),
            ],
            vec![
                Value::Int(0),
                Value::Decimal(Dec::new(0, 2)),
                Value::Date(Date32(0)),
                Value::str("A"),
                Value::str("B"),
            ],
        ];
        let vp = VectorProgram::from_expr(&p).unwrap();
        assert!(vp.eval_batch(&batch_of(&rows)).is_err());
    }

    #[test]
    fn kleene_word_ops_match_truth_tables() {
        let vals = [Some(true), Some(false), None];
        let n = 9;
        let mut a = BoolVec::with_len(n);
        let mut b = BoolVec::with_len(n);
        for i in 0..n {
            a.set_lane(i, vals[i / 3]);
            b.set_lane(i, vals[i % 3]);
        }
        let and = a.and(&b);
        let or = a.or(&b);
        let not = a.not();
        for i in 0..n {
            let (x, y) = (vals[i / 3], vals[i % 3]);
            let want_and = match (x, y) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            };
            let want_or = match (x, y) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            };
            assert_eq!(and.get_lane(i), want_and, "AND lane {i}");
            assert_eq!(or.get_lane(i), want_or, "OR lane {i}");
            assert_eq!(not.get_lane(i), x.map(|v| !v), "NOT lane {i}");
        }
    }

    /// A decimal comparison whose per-lane rescale overflows `i128` must
    /// defer to the generic path and still agree with the interpreter.
    #[test]
    fn overflow_lanes_defer_to_the_generic_path() {
        // col1 has scale 2; compare against a scale-30 constant so every
        // lane upscales by 10^28 — raws near i64::MAX then overflow i128.
        let huge = Expr::gt(Expr::col(1), Expr::Lit(Value::Decimal(Dec::new(1, 30))));
        let dt = dtypes();
        let mut cb = ColumnBatch::with_capacity(&dt, 2);
        cb.push_row(vec![
            Value::Int(1),
            Value::Decimal(Dec::new(i64::MAX as i128, 2)),
            Value::Date(Date32(0)),
            Value::str("A"),
            Value::str("B"),
        ]);
        cb.push_row(vec![
            Value::Int(1),
            Value::Decimal(Dec::new(-7, 2)),
            Value::Date(Date32(0)),
            Value::str("A"),
            Value::str("B"),
        ]);
        let vp = VectorProgram::from_expr(&huge).unwrap();
        let bv = vp.eval_batch(&cb).unwrap();
        // i64::MAX / 100 > 10^-30  → true; -0.07 > tiny positive → false.
        assert_eq!(bv.get_lane(0), Some(true));
        assert_eq!(bv.get_lane(1), Some(false));
    }
}
