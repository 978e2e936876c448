//! The record VM — this reproduction's LLVM JIT (§V-B2, steps 3–4), and
//! the one engine that evaluates expressions while a query runs.
//!
//! A Page Store receives IR bitcode inside an NDP descriptor, validates it,
//! and *compiles* it against the concrete record layout of the index being
//! scanned: column references become resolved record positions, constants
//! are pre-decoded, and branch targets are checked. The resulting
//! [`CompiledPredicate`] runs directly over raw record bytes — no row
//! materialization — calling the pre-compiled utility library for
//! LIKE/SUBSTR/EXTRACT, which is the performance-relevant property of the
//! paper's native-code generation. Compilation cost is deliberately
//! non-trivial, which is what makes the descriptor cache (§IV-D1) matter;
//! see `taurus_pagestore::cache::DescriptorCache`.
//!
//! The SQL node runs the same programs: a scan's residual conjuncts over
//! record bytes ([`RecordFilter`]), and every operator's expressions over
//! decoded rows ([`CompiledPredicate::for_rows`]). The tree-walker in
//! `crate::eval` is the semantic reference the tests hold the VM to.

use taurus_common::{DataType, Dec, Error, Result, Value};
use taurus_page::{RecordLayout, RecordView};

use crate::ast::{ArithOp, CmpOp, Expr};
use crate::compile::MAX_REGS;
use crate::ir::{IrInstr, IrProgram};
use crate::util;

/// Predicate outcome over one record: the Page Store may discard only
/// definite `False` rows of visible records (§V-B1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TriBool {
    True,
    False,
    /// NULL-valued predicate result.
    Unknown,
}

/// A register value during evaluation. String registers borrow directly
/// from the record bytes or the program's constant pool — the "no row
/// materialization" property.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Slot<'a> {
    Null,
    Int(i64),
    Dec(Dec),
    Date(i32),
    Bytes(&'a [u8]),
    F64(f64),
}

/// A constant pre-decoded at JIT time.
#[derive(Clone, Debug)]
pub(crate) enum ConstSlot {
    Null,
    Int(i64),
    Dec(Dec),
    Date(i32),
    Bytes(Box<[u8]>),
    F64(f64),
}

impl ConstSlot {
    pub(crate) fn from_value(v: &taurus_common::Value) -> ConstSlot {
        use taurus_common::Value::*;
        match v {
            Null => ConstSlot::Null,
            Int(x) => ConstSlot::Int(*x),
            Decimal(d) => ConstSlot::Dec(*d),
            Date(d) => ConstSlot::Date(d.0),
            Str(s) => ConstSlot::Bytes(s.as_bytes().into()),
            Double(x) => ConstSlot::F64(*x),
        }
    }

    #[inline]
    pub(crate) fn as_slot(&self) -> Slot<'_> {
        match self {
            ConstSlot::Null => Slot::Null,
            ConstSlot::Int(x) => Slot::Int(*x),
            ConstSlot::Dec(d) => Slot::Dec(*d),
            ConstSlot::Date(d) => Slot::Date(*d),
            ConstSlot::Bytes(b) => Slot::Bytes(b),
            ConstSlot::F64(x) => Slot::F64(*x),
        }
    }
}

/// Post-"JIT" instruction: like [`IrInstr`] but with column references
/// resolved to concrete record positions and types.
#[derive(Clone, Copy, Debug)]
enum Op {
    LoadField {
        dst: u16,
        pos: u16,
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
    BrFalse {
        cond: u16,
        target: u16,
    },
    BrTrue {
        cond: u16,
        target: u16,
    },
    Jmp {
        target: u16,
    },
    Ret {
        src: u16,
    },
}

/// A program compiled against where its column loads read: the fields of
/// one record layout (scans, Page Stores) or the values of a decoded row
/// (the SQL node's operators). Either way it is the same IR run by the
/// same loop, [`CompiledPredicate::run`].
#[derive(Clone)]
pub struct CompiledPredicate {
    ops: Box<[Op]>,
    consts: Box<[ConstSlot]>,
    /// Register count; kept for introspection.
    pub n_regs: usize,
}

/// Where a program's column loads read from. Two impls, one per field
/// source; [`CompiledPredicate::run`] is generic over them, so each
/// source gets its own copy of the loop.
pub(crate) trait Fields<'a> {
    fn load(&self, pos: u16) -> Result<Slot<'a>>;
}

/// A record's fields in place: its bytes and their offsets
/// ([`RecordView::fill_offsets`]).
struct RecordFields<'v, 'a> {
    rec: &'v RecordView<'a>,
    offsets: &'v [u32],
}

impl<'a> Fields<'a> for RecordFields<'_, 'a> {
    #[inline]
    fn load(&self, pos: u16) -> Result<Slot<'a>> {
        let pos = pos as usize;
        Ok(if self.rec.is_null(pos) {
            Slot::Null
        } else {
            let s = self.offsets[pos] as usize;
            let e = self.offsets[pos + 1] as usize;
            load_field(&self.rec.backing()[s..e], self.rec.layout().dtypes[pos])
        })
    }
}

/// A decoded row: column `i` is the row's value `i`.
impl<'a> Fields<'a> for &'a [Value] {
    #[inline]
    fn load(&self, pos: u16) -> Result<Slot<'a>> {
        let v = self
            .get(pos as usize)
            .ok_or_else(|| Error::Internal(format!("column {pos} out of row range")))?;
        Ok(match v {
            Value::Null => Slot::Null,
            Value::Int(x) => Slot::Int(*x),
            Value::Decimal(d) => Slot::Dec(*d),
            Value::Date(d) => Slot::Date(d.0),
            Value::Str(s) => Slot::Bytes(s.as_bytes()),
            Value::Double(x) => Slot::F64(*x),
        })
    }
}

impl CompiledPredicate {
    /// "JIT-compile" validated IR for records shaped by `layout`.
    ///
    /// `col_map[i]` gives, for table column `i`, its position within the
    /// record (`u16::MAX` = not stored, which is a descriptor bug).
    pub fn compile(
        ir: &IrProgram,
        layout: &RecordLayout,
        col_map: &[u16],
    ) -> Result<CompiledPredicate> {
        Self::build(ir, |col| {
            let pos = *col_map
                .get(col as usize)
                .ok_or_else(|| Error::InvalidState(format!("descriptor col {col} unmapped")))?;
            if pos == u16::MAX || pos as usize >= layout.n_cols() {
                return Err(Error::InvalidState(format!(
                    "descriptor col {col} not present in record layout"
                )));
            }
            Ok(pos)
        })
    }

    /// Lower `e` and compile it for decoded rows: the program an operator
    /// runs ([`CompiledPredicate::eval_row`], [`CompiledPredicate::row_passes`]).
    /// Any expression compiles; the register budget ([`MAX_REGS`]) binds
    /// only programs shipped to a Page Store.
    pub fn for_rows(e: &Expr) -> Result<CompiledPredicate> {
        Self::build(&crate::compile::lower(e)?, Ok)
    }

    /// Compile a descriptor's program for decoded rows of `width` values
    /// (a pushed HAVING, over a group's outputs). A load past the row is
    /// [`Error::Corruption`].
    pub fn for_row_program(ir: &IrProgram, width: usize) -> Result<CompiledPredicate> {
        Self::build(ir, |col| match (col as usize) < width {
            true => Ok(col),
            false => Err(Error::Corruption(format!(
                "program reads value {col} of a {width}-value row"
            ))),
        })
    }

    /// Validate `ir` and resolve its column loads through `pos_of`.
    fn build(ir: &IrProgram, pos_of: impl Fn(u16) -> Result<u16>) -> Result<CompiledPredicate> {
        ir.validate()?;
        let mut ops = Vec::with_capacity(ir.instrs.len());
        for (i, ins) in ir.instrs.iter().enumerate() {
            let op = match *ins {
                IrInstr::LoadCol { dst, col } => Op::LoadField {
                    dst,
                    pos: pos_of(col)?,
                },
                IrInstr::LoadConst { dst, idx } => Op::LoadConst { dst, idx },
                IrInstr::Mov { dst, src } => Op::Mov { dst, src },
                IrInstr::Cmp { op, dst, a, b } => Op::Cmp { op, dst, a, b },
                IrInstr::And { dst, a, b } => Op::And { dst, a, b },
                IrInstr::Or { dst, a, b } => Op::Or { dst, a, b },
                IrInstr::Not { dst, a } => Op::Not { dst, a },
                IrInstr::Arith { op, dst, a, b } => Op::Arith { op, dst, a, b },
                IrInstr::Neg { dst, a } => Op::Neg { dst, a },
                IrInstr::IsNull { dst, a, negated } => Op::IsNull { dst, a, negated },
                IrInstr::Like {
                    dst,
                    a,
                    pattern,
                    negated,
                } => Op::Like {
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
                } => Op::InList {
                    dst,
                    a,
                    first,
                    count,
                    negated,
                },
                IrInstr::ExtractYear { dst, a } => Op::ExtractYear { dst, a },
                IrInstr::Substr { dst, a, from, len } => Op::Substr { dst, a, from, len },
                IrInstr::BrFalse { cond, target } => {
                    forward_only(i, target)?;
                    Op::BrFalse { cond, target }
                }
                IrInstr::BrTrue { cond, target } => {
                    forward_only(i, target)?;
                    Op::BrTrue { cond, target }
                }
                IrInstr::Jmp { target } => {
                    forward_only(i, target)?;
                    Op::Jmp { target }
                }
                IrInstr::Ret { src } => Op::Ret { src },
            };
            ops.push(op);
        }
        Ok(CompiledPredicate {
            ops: ops.into_boxed_slice(),
            consts: ir.consts.iter().map(ConstSlot::from_value).collect(),
            n_regs: ir.n_regs as usize,
        })
    }

    /// Evaluate over raw record bytes. `offsets` is a reusable scratch
    /// buffer (filled with the record's field offsets once per record).
    pub fn eval_record(&self, rec: &RecordView<'_>, offsets: &mut Vec<u32>) -> Result<TriBool> {
        rec.fill_offsets(offsets);
        self.eval_at(rec, offsets)
    }

    /// [`CompiledPredicate::eval_record`] with `rec`'s field offsets
    /// already in `offsets` (several predicates over one record share one
    /// `fill_offsets`).
    fn eval_at(&self, rec: &RecordView<'_>, offsets: &[u32]) -> Result<TriBool> {
        Ok(
            match slot_bool(&self.run(&RecordFields { rec, offsets })?)? {
                None => TriBool::Unknown,
                Some(true) => TriBool::True,
                Some(false) => TriBool::False,
            },
        )
    }

    /// The program's result over raw record bytes as a value: an
    /// aggregate input a Page Store folds. `offsets` must hold `rec`'s
    /// field offsets ([`RecordView::fill_offsets`]; the programs of one
    /// record share them). Fields are read in place, and only the result
    /// becomes a [`Value`], the one `crate::eval::eval` gives over the
    /// decoded record (an error where it errs).
    pub fn eval_value(&self, rec: &RecordView<'_>, offsets: &[u32]) -> Result<Value> {
        Ok(slot_value(self.run(&RecordFields { rec, offsets })?))
    }

    /// The program's result over a decoded row (a program from
    /// [`CompiledPredicate::for_rows`]): what `crate::eval::eval` gives,
    /// or an error of the same kind.
    pub fn eval_row(&self, row: &[Value]) -> Result<Value> {
        Ok(slot_value(self.run(&row)?))
    }

    /// Is the program TRUE over a decoded row? NULL and FALSE are not.
    pub fn row_passes(&self, row: &[Value]) -> Result<bool> {
        Ok(slot_bool(&self.run(&row)?)? == Some(true))
    }

    /// Run the program over `src` to its `Ret`: the returned register.
    /// The register file is on the stack when the program fits
    /// [`MAX_REGS`], and no larger than a small program needs. The cell
    /// helpers the loop calls (`slot_*`, `load_field`, ...) are
    /// `#[inline]`: without it each copy of this generic loop may call
    /// them out of line, about a fifth slower per record.
    fn run<'r, F: Fields<'r>>(&'r self, src: &F) -> Result<Slot<'r>> {
        match self.n_regs {
            0..=16 => self.exec(&mut [Slot::Null; 16], src),
            17..=MAX_REGS => self.exec(&mut [Slot::Null; MAX_REGS], src),
            n => self.exec(&mut vec![Slot::Null; n], src),
        }
    }

    #[inline]
    fn exec<'r, F: Fields<'r>>(&'r self, regs: &mut [Slot<'r>], src: &F) -> Result<Slot<'r>> {
        let mut pc = 0usize;
        loop {
            let op = self.ops[pc];
            pc += 1;
            match op {
                Op::LoadField { dst, pos } => regs[dst as usize] = src.load(pos)?,
                Op::LoadConst { dst, idx } => {
                    regs[dst as usize] = self.consts[idx as usize].as_slot();
                }
                Op::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
                Op::Cmp { op, dst, a, b } => {
                    regs[dst as usize] = match slot_cmp(&regs[a as usize], &regs[b as usize]) {
                        None => Slot::Null,
                        Some(ord) => bool_slot(cmp_holds(op, ord)),
                    };
                }
                Op::And { dst, a, b } => {
                    regs[dst as usize] =
                        tri_and(slot_bool(&regs[a as usize])?, slot_bool(&regs[b as usize])?);
                }
                Op::Or { dst, a, b } => {
                    regs[dst as usize] =
                        tri_or(slot_bool(&regs[a as usize])?, slot_bool(&regs[b as usize])?);
                }
                Op::Not { dst, a } => {
                    regs[dst as usize] = match slot_bool(&regs[a as usize])? {
                        None => Slot::Null,
                        Some(v) => bool_slot(!v),
                    };
                }
                Op::Arith { op, dst, a, b } => {
                    regs[dst as usize] = slot_arith(op, &regs[a as usize], &regs[b as usize])?;
                }
                Op::Neg { dst, a } => {
                    regs[dst as usize] = match regs[a as usize] {
                        Slot::Null => Slot::Null,
                        Slot::Int(v) => Slot::Int(util::neg_int(v)?),
                        Slot::Dec(d) => Slot::Dec(d.neg()),
                        Slot::F64(v) => Slot::F64(-v),
                        other => return Err(Error::Type(format!("cannot negate {other:?}"))),
                    };
                }
                Op::IsNull { dst, a, negated } => {
                    let isn = matches!(regs[a as usize], Slot::Null);
                    regs[dst as usize] = bool_slot(isn != negated);
                }
                Op::Like {
                    dst,
                    a,
                    pattern,
                    negated,
                } => {
                    regs[dst as usize] = match regs[a as usize] {
                        Slot::Null => Slot::Null,
                        Slot::Bytes(text) => {
                            let pat = match &self.consts[pattern as usize] {
                                ConstSlot::Bytes(b) => &b[..],
                                other => {
                                    return Err(Error::Internal(format!(
                                        "LIKE pattern const is {other:?}"
                                    )))
                                }
                            };
                            bool_slot(util::like_match(text, pat) != negated)
                        }
                        other => return Err(Error::Type(format!("LIKE on {other:?}"))),
                    };
                }
                Op::InList {
                    dst,
                    a,
                    first,
                    count,
                    negated,
                } => {
                    let v = regs[a as usize];
                    regs[dst as usize] = if matches!(v, Slot::Null) {
                        Slot::Null
                    } else {
                        // SQL's IN: no match against a list holding a
                        // NULL is NULL.
                        let (mut found, mut saw_null) = (false, false);
                        for c in &self.consts[first as usize..(first + count) as usize] {
                            if matches!(c, ConstSlot::Null) {
                                saw_null = true;
                            } else if slot_cmp(&v, &c.as_slot()) == Some(std::cmp::Ordering::Equal)
                            {
                                found = true;
                                break;
                            }
                        }
                        match (found, saw_null) {
                            (false, true) => Slot::Null,
                            _ => bool_slot(found != negated),
                        }
                    };
                }
                Op::ExtractYear { dst, a } => {
                    regs[dst as usize] = match regs[a as usize] {
                        Slot::Null => Slot::Null,
                        Slot::Date(d) => Slot::Int(util::extract_year(d)),
                        other => return Err(Error::Type(format!("EXTRACT(YEAR) on {other:?}"))),
                    };
                }
                Op::Substr { dst, a, from, len } => {
                    regs[dst as usize] = match regs[a as usize] {
                        Slot::Null => Slot::Null,
                        Slot::Bytes(b) => Slot::Bytes(util::substr(b, from as usize, len as usize)),
                        other => return Err(Error::Type(format!("SUBSTR on {other:?}"))),
                    };
                }
                Op::BrFalse { cond, target } => {
                    if slot_bool(&regs[cond as usize])? == Some(false) {
                        pc = target as usize;
                    }
                }
                Op::BrTrue { cond, target } => {
                    if slot_bool(&regs[cond as usize])? == Some(true) {
                        pc = target as usize;
                    }
                }
                Op::Jmp { target } => pc = target as usize,
                Op::Ret { src } => return Ok(regs[src as usize]),
            }
        }
    }
}

fn forward_only(at: usize, target: u16) -> Result<()> {
    if (target as usize) <= at {
        return Err(Error::Corruption(format!(
            "backward branch at {at} -> {target}: rejected (non-terminating)"
        )));
    }
    Ok(())
}

/// A result register as the [`Value`] the interpreter gives.
#[inline]
fn slot_value(s: Slot<'_>) -> Value {
    match s {
        Slot::Null => Value::Null,
        Slot::Int(v) => Value::Int(v),
        Slot::Dec(d) => Value::Decimal(d),
        Slot::Date(d) => Value::Date(taurus_common::Date32(d)),
        Slot::Bytes(b) => Value::str(std::str::from_utf8(b).unwrap_or("\u{fffd}")),
        Slot::F64(v) => Value::Double(v),
    }
}

#[inline]
pub(crate) fn load_field<'a>(bytes: &'a [u8], dtype: DataType) -> Slot<'a> {
    match dtype {
        DataType::Int => Slot::Int(i32::from_le_bytes(bytes[..4].try_into().unwrap()) as i64),
        DataType::BigInt => Slot::Int(i64::from_le_bytes(bytes[..8].try_into().unwrap())),
        DataType::Decimal { scale, .. } => Slot::Dec(Dec {
            raw: i64::from_le_bytes(bytes[..8].try_into().unwrap()) as i128,
            scale,
        }),
        DataType::Date => Slot::Date(i32::from_le_bytes(bytes[..4].try_into().unwrap())),
        // CHAR pad-space: strip trailing blanks at load, matching the
        // compute node's decode path.
        DataType::Char(_) => Slot::Bytes(util::trim_pad(bytes)),
        DataType::Varchar(_) => Slot::Bytes(bytes),
        DataType::Double => Slot::F64(f64::from_le_bytes(bytes[..8].try_into().unwrap())),
    }
}

#[inline]
pub(crate) fn bool_slot<'a>(b: bool) -> Slot<'a> {
    Slot::Int(b as i64)
}

#[inline]
pub(crate) fn slot_bool(s: &Slot<'_>) -> Result<Option<bool>> {
    match s {
        Slot::Null => Ok(None),
        Slot::Int(v) => Ok(Some(*v != 0)),
        other => Err(Error::Type(format!(
            "non-boolean predicate register {other:?}"
        ))),
    }
}

#[inline]
fn tri_and<'a>(a: Option<bool>, b: Option<bool>) -> Slot<'a> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => bool_slot(false),
        (Some(true), Some(true)) => bool_slot(true),
        _ => Slot::Null,
    }
}

#[inline]
fn tri_or<'a>(a: Option<bool>, b: Option<bool>) -> Slot<'a> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => bool_slot(true),
        (Some(false), Some(false)) => bool_slot(false),
        _ => Slot::Null,
    }
}

#[inline]
pub(crate) fn cmp_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// SQL comparison, as `Value::cmp_sql`: `None` for a NULL side or
/// incomparable types.
#[inline]
pub(crate) fn slot_cmp(a: &Slot<'_>, b: &Slot<'_>) -> Option<std::cmp::Ordering> {
    use Slot::*;
    match (a, b) {
        (Null, _) | (_, Null) => None,
        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Dec(x), Dec(y)) => Some(util::decimal_cmp(*x, *y)),
        (Int(x), Dec(y)) => Some(util::decimal_cmp(taurus_common::Dec::from_int(*x), *y)),
        (Dec(x), Int(y)) => Some(util::decimal_cmp(*x, taurus_common::Dec::from_int(*y))),
        (Date(x), Date(y)) => Some(x.cmp(y)),
        (Bytes(x), Bytes(y)) => Some(util::trim_pad(x).cmp(util::trim_pad(y))),
        (F64(x), F64(y)) => x.partial_cmp(y),
        (F64(x), Int(y)) => x.partial_cmp(&(*y as f64)),
        (Int(x), F64(y)) => (*x as f64).partial_cmp(y),
        (F64(x), Dec(y)) => x.partial_cmp(&y.to_f64()),
        (Dec(x), F64(y)) => x.to_f64().partial_cmp(y),
        _ => None,
    }
}

#[inline]
pub(crate) fn slot_arith<'a>(op: ArithOp, a: &Slot<'a>, b: &Slot<'a>) -> Result<Slot<'a>> {
    use Slot::*;
    if matches!(a, Null) || matches!(b, Null) {
        return Ok(Null);
    }
    Ok(match (a, b) {
        (F64(_), _) | (_, F64(_)) => {
            let x = slot_f64(a)?;
            let y = slot_f64(b)?;
            F64(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => {
                    if y == 0.0 {
                        return Err(Error::Arithmetic("division by zero".into()));
                    }
                    x / y
                }
            })
        }
        (Date(d), Int(n)) => match op {
            ArithOp::Add => Date(util::add_days(*d, *n)?),
            ArithOp::Sub => Date(util::add_days(*d, n.wrapping_neg())?),
            _ => return Err(Error::Type("date arithmetic supports +/- days".into())),
        },
        (Int(x), Int(y)) if matches!(op, ArithOp::Add | ArithOp::Sub | ArithOp::Mul) => {
            let r = match op {
                ArithOp::Add => x.checked_add(*y),
                ArithOp::Sub => x.checked_sub(*y),
                ArithOp::Mul => x.checked_mul(*y),
                ArithOp::Div => unreachable!(),
            };
            Int(r.ok_or_else(|| Error::Arithmetic("integer overflow".into()))?)
        }
        _ => {
            let x = slot_dec(a)?;
            let y = slot_dec(b)?;
            Dec(match op {
                ArithOp::Add => x.checked_add(y)?,
                ArithOp::Sub => x.checked_sub(y)?,
                ArithOp::Mul => x.checked_mul(y)?,
                ArithOp::Div => x.checked_div(y)?,
            })
        }
    })
}

#[inline]
fn slot_f64(s: &Slot<'_>) -> Result<f64> {
    match s {
        Slot::F64(x) => Ok(*x),
        Slot::Int(x) => Ok(*x as f64),
        Slot::Dec(d) => Ok(d.to_f64()),
        other => Err(Error::Type(format!("expected numeric, got {other:?}"))),
    }
}

#[inline]
fn slot_dec(s: &Slot<'_>) -> Result<Dec> {
    match s {
        Slot::Dec(d) => Ok(*d),
        Slot::Int(x) => Ok(Dec::from_int(*x)),
        other => Err(Error::Type(format!("expected numeric, got {other:?}"))),
    }
}

/// Predicate conjuncts a scan evaluates over raw record bytes before it
/// builds a single `Value`: each conjunct is lowered and compiled against
/// the record layout once, the way a Page Store prepares a pushed
/// predicate. Conjuncts run in order and a record is dropped at the first
/// one that is not TRUE, so a later conjunct never sees a record an
/// earlier one rejected.
pub struct RecordFilter {
    conjuncts: Vec<CompiledPredicate>,
}

impl RecordFilter {
    /// Compile `conjuncts` (column references are record positions of
    /// `layout`).
    pub fn new(conjuncts: &[Expr], layout: &RecordLayout) -> Result<RecordFilter> {
        // Nothing to compile against for a scan without a predicate (a
        // lookup join's probe builds one of these per outer row).
        let identity: Vec<u16> = match conjuncts.is_empty() {
            true => Vec::new(),
            false => (0..layout.n_cols() as u16).collect(),
        };
        Ok(RecordFilter {
            conjuncts: conjuncts
                .iter()
                .map(|e| CompiledPredicate::compile(&crate::compile::lower(e)?, layout, &identity))
                .collect::<Result<_>>()?,
        })
    }

    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// Is every conjunct TRUE on `rec`? A VM error is the scan's error.
    /// `offsets` is the scan's reusable buffer for the record's field
    /// offsets.
    pub fn passes(&self, rec: &RecordView<'_>, offsets: &mut Vec<u32>) -> Result<bool> {
        rec.fill_offsets(offsets);
        for c in &self.conjuncts {
            if c.eval_at(rec, offsets)? != TriBool::True {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::lower;
    use crate::eval::{eval, eval_pred};
    use taurus_common::{Date32, Value};
    use taurus_page::{encode_record, RecordMeta};

    fn layout() -> RecordLayout {
        RecordLayout::new(vec![
            DataType::Int, // 0 quantity
            DataType::Decimal {
                precision: 15,
                scale: 2,
            }, // 1 discount
            DataType::Date, // 2 shipdate
            DataType::Char(10), // 3 shipmode
            DataType::Varchar(25), // 4 type
        ])
    }

    fn record(vals: &[Value]) -> Vec<u8> {
        let mut b = Vec::new();
        encode_record(&layout(), vals, RecordMeta::ordinary(1), None, &mut b).unwrap();
        b
    }

    fn identity_map(n: usize) -> Vec<u16> {
        (0..n as u16).collect()
    }

    fn run(e: &Expr, vals: &[Value]) -> TriBool {
        let ir = lower(e).unwrap();
        let l = layout();
        let p = CompiledPredicate::compile(&ir, &l, &identity_map(5)).unwrap();
        let bytes = record(vals);
        let view = RecordView::new(&bytes, &l);
        let mut offsets = Vec::new();
        p.eval_record(&view, &mut offsets).unwrap()
    }

    fn sample_rows() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Int(24),
                Value::Decimal(Dec::parse("0.06").unwrap()),
                Value::Date(Date32::parse("1994-03-15").unwrap()),
                Value::str("MAIL"),
                Value::str("PROMO BURNISHED COPPER"),
            ],
            vec![
                Value::Int(25),
                Value::Decimal(Dec::parse("0.01").unwrap()),
                Value::Date(Date32::parse("1995-03-15").unwrap()),
                Value::str("AIR"),
                Value::str("SMALL PLATED BRASS"),
            ],
            vec![
                Value::Null,
                Value::Decimal(Dec::parse("0.07").unwrap()),
                Value::Date(Date32::parse("1994-01-01").unwrap()),
                Value::str("SHIP"),
                Value::str("STANDARD ANODIZED TIN"),
            ],
        ]
    }

    fn predicates() -> Vec<Expr> {
        vec![
            // TPC-H Q6 shape.
            Expr::and(vec![
                Expr::ge(Expr::col(2), Expr::date("1994-01-01")),
                Expr::lt(Expr::col(2), Expr::date("1995-01-01")),
                Expr::between(Expr::col(1), Expr::dec("0.05"), Expr::dec("0.07")),
                Expr::lt(Expr::col(0), Expr::int(25)),
            ]),
            // Listing 4 shape.
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
        ]
    }

    /// The §V-B2 correctness requirement: storage-side (VM) evaluation must
    /// equal compute-side (interpreter) evaluation on every row.
    #[test]
    fn vm_agrees_with_interpreter() {
        for (pi, p) in predicates().iter().enumerate() {
            for (ri, row) in sample_rows().iter().enumerate() {
                let expect = match eval_pred(p, row).unwrap() {
                    Some(true) => TriBool::True,
                    Some(false) => TriBool::False,
                    None => TriBool::Unknown,
                };
                let got = run(p, row);
                assert_eq!(got, expect, "predicate #{pi} row #{ri}: {p}");
            }
        }
    }

    #[test]
    fn shortcut_false_wins_over_null() {
        // col0 IS NULL in row 2 -> (col0 < 25) is Unknown, but AND with a
        // definite false must still be False.
        let p = Expr::and(vec![
            Expr::lt(Expr::col(0), Expr::int(25)),
            Expr::eq(Expr::col(3), Expr::str("NOPE")),
        ]);
        assert_eq!(run(&p, &sample_rows()[2]), TriBool::False);
    }

    #[test]
    fn projection_expression_arithmetic_matches() {
        // Not just predicates: arithmetic results agree too (via a cmp).
        let e = Expr::gt(
            Expr::mul(Expr::col(1), Expr::sub(Expr::int(1), Expr::col(1))),
            Expr::dec("0.05"),
        );
        for row in sample_rows() {
            let expect = eval(&e, &row).unwrap();
            let got = run(&e, &row);
            let expect_tri = match expect {
                Value::Null => TriBool::Unknown,
                Value::Int(0) => TriBool::False,
                Value::Int(_) => TriBool::True,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(got, expect_tri);
        }
    }

    #[test]
    fn compile_rejects_unmapped_columns() {
        let ir = lower(&Expr::gt(Expr::col(3), Expr::int(0))).unwrap();
        let l = layout();
        // col 3 not stored in this (projected) record.
        let mut map = identity_map(5);
        map[3] = u16::MAX;
        assert!(CompiledPredicate::compile(&ir, &l, &map).is_err());
    }

    #[test]
    fn compile_rejects_backward_branches() {
        let ir = IrProgram {
            instrs: vec![
                IrInstr::LoadConst { dst: 0, idx: 0 },
                IrInstr::Jmp { target: 0 },
                IrInstr::Ret { src: 0 },
            ],
            consts: vec![Value::Int(1)],
            n_regs: 1,
        };
        let l = layout();
        assert!(CompiledPredicate::compile(&ir, &l, &identity_map(5)).is_err());
    }

    /// Randomized differential test: VM == interpreter on random rows for a
    /// set of structurally varied predicates.
    #[test]
    fn differential_random_rows() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xDB_CAFE);
        let modes = ["MAIL", "SHIP", "AIR", "RAIL", "TRUCK"];
        let types = ["PROMO X", "SMALL Y", "STANDARD Z", "PROMO BRASS"];
        for _ in 0..500 {
            let row = vec![
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
            ];
            for p in predicates() {
                let expect = match eval_pred(&p, &row) {
                    Ok(Some(true)) => TriBool::True,
                    Ok(Some(false)) => TriBool::False,
                    Ok(None) => TriBool::Unknown,
                    Err(_) => continue,
                };
                assert_eq!(run(&p, &row), expect, "{p} on {row:?}");
            }
        }
    }
}
