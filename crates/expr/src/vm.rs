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
//!
//! # Typed registers
//!
//! Compilation fixes every register's class: integer, decimal at one
//! scale, date, double, boolean or borrowed bytes (a boolean is the
//! integer 0 or 1; NULL belongs to every class). A register's class is
//! the join of all its writes, to a fixed point over the program, so the
//! typing is sound on every path of any validated IR, a descriptor's
//! included. The classes come from the column types and the constants:
//!
//! * a record program ([`CompiledPredicate::compile`]: scan residuals,
//!   the pushed predicate, a Page Store's predicate and aggregate inputs)
//!   takes them from its [`RecordLayout`], whose fields are of their
//!   types, and reads a fixed-width field ahead of every varchar at a
//!   constant offset;
//! * a row program ([`CompiledPredicate::for_rows`],
//!   [`CompiledPredicate::for_row_program`]) takes them from the types the
//!   operator's input rows are inferred to have (`taurus_verify`), and
//!   its loads check each value. Two values can still be off their
//!   column's type: a CASE's whose branches differ in type, and a SUM's
//!   past `i64` (a decimal where the column says integer). A row holding
//!   one runs the same IR untyped instead, so inference that errs costs
//!   time, never a result.
//!
//! An op whose operands' classes are fixed becomes a typed op: it reads
//! the one variant its class allows, or NULL, with no tag dispatch,
//! scale alignment or conversion at run time. Conversions are made when
//! the program compiles: an integer constant a decimal op reads becomes a
//! decimal aligned to the other operand's scale, and a constant a
//! comparison or decimal op reads where its load always runs first is
//! taken into the op. Decimal ops give `Dec::checked_*`'s raw value and
//! scale, and overflow or divide by zero exactly where it does, with its
//! error. An aggregate input folds its result register into its
//! [`AggState`] ([`CompiledPredicate::fold_record`],
//! [`CompiledPredicate::fold_row`]) without building a [`Value`].
//!
//! What stays generic: a column of unknown type, a register written with
//! two classes (a CASE whose branches are a decimal and an integer),
//! operands whose classes cannot meet (a string against a number, which
//! the generic op rejects or finds incomparable), and IN lists or LIKE
//! patterns of mixed constants. Those run today's generic ops, in the
//! same loop as the typed ones ([`CompiledPredicate::generic_ops`] counts
//! them; every TPC-H expression has none).

use taurus_common::{DataType, Dec, Error, Result, Value, DEC_MAX_SCALE};
use taurus_page::{RecordLayout, RecordView};

use crate::agg::AggState;
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
/// materialization" property. A decimal is its raw value and scale as two
/// fields, so the tag fits in front of them (32 bytes, not 48).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Slot<'a> {
    Null,
    Int(i64),
    Dec(i128, u8),
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

impl Slot<'_> {
    #[inline(always)]
    pub(crate) fn dec<'a>(d: Dec) -> Slot<'a> {
        Slot::Dec(d.raw, d.scale)
    }
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

    #[inline(always)]
    pub(crate) fn as_slot(&self) -> Slot<'_> {
        match self {
            ConstSlot::Null => Slot::Null,
            ConstSlot::Int(x) => Slot::Int(*x),
            ConstSlot::Dec(d) => Slot::dec(*d),
            ConstSlot::Date(d) => Slot::Date(*d),
            ConstSlot::Bytes(b) => Slot::Bytes(b),
            ConstSlot::F64(x) => Slot::F64(*x),
        }
    }
}

/// The class of a register, fixed when its program is compiled: the join
/// of every value any instruction writes to it. Every register starts
/// NULL, and NULL belongs to every class, so a register read before any
/// write is still of its class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ty {
    /// Holds nothing but NULL.
    Null,
    /// A truth value as the VM writes one: `Int` 0 or 1.
    Bool,
    Int,
    /// A decimal at this scale.
    Dec(u8),
    Date,
    F64,
    Bytes,
    /// Not fixed (an untyped column, or values of two classes): only
    /// generic ops read it.
    Any,
}

impl Ty {
    fn of_value(v: &Value) -> Ty {
        match v {
            Value::Null => Ty::Null,
            Value::Int(_) => Ty::Int,
            Value::Decimal(d) => Ty::Dec(d.scale),
            Value::Date(_) => Ty::Date,
            Value::Str(_) => Ty::Bytes,
            Value::Double(_) => Ty::F64,
        }
    }

    fn join(self, o: Ty) -> Ty {
        match (self, o) {
            (a, b) if a == b => a,
            (Ty::Null, t) | (t, Ty::Null) => t,
            (Ty::Bool, Ty::Int) | (Ty::Int, Ty::Bool) => Ty::Int,
            _ => Ty::Any,
        }
    }

    /// An `Int` (a truth value is one) or NULL: what a branch and a
    /// three-valued merge read without a type error.
    fn boolish(self) -> bool {
        matches!(self, Ty::Null | Ty::Bool | Ty::Int)
    }

    fn int(self) -> bool {
        matches!(self, Ty::Bool | Ty::Int)
    }

    /// The scale of the operand in decimal arithmetic (an integer is a
    /// decimal at scale 0).
    fn dec_scale(self) -> Option<u8> {
        match self {
            Ty::Bool | Ty::Int => Some(0),
            Ty::Dec(s) => Some(s),
            _ => None,
        }
    }

    fn numeric(self) -> bool {
        self.dec_scale().is_some() || self == Ty::F64
    }
}

/// How a typed load reads a field: the column's type as a record stores
/// it, which fixes the class of the register it loads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Field {
    I32,
    I64,
    Dec(u8),
    Date,
    /// CHAR: pad spaces are stripped at load, as the SQL node's decode
    /// path strips them.
    Char,
    Varchar,
    F64,
}

impl Field {
    /// The width of a field of this type, if fixed.
    fn width(self) -> Option<usize> {
        match self {
            Field::I32 | Field::Date => Some(4),
            Field::I64 | Field::Dec(_) | Field::F64 => Some(8),
            Field::Char | Field::Varchar => None,
        }
    }

    fn of(dtype: DataType) -> Field {
        match dtype {
            DataType::Int => Field::I32,
            DataType::BigInt => Field::I64,
            DataType::Decimal { scale, .. } => Field::Dec(scale),
            DataType::Date => Field::Date,
            DataType::Char(_) => Field::Char,
            DataType::Varchar(_) => Field::Varchar,
            DataType::Double => Field::F64,
        }
    }

    fn ty(self) -> Ty {
        match self {
            Field::I32 | Field::I64 => Ty::Int,
            Field::Dec(s) => Ty::Dec(s),
            Field::Date => Ty::Date,
            Field::Char | Field::Varchar => Ty::Bytes,
            Field::F64 => Ty::F64,
        }
    }
}

/// Where a column load reads: the field's position, its type when
/// known, and, for a fixed-width field a record of the layout always
/// holds at the same offset, that offset.
struct Site {
    pos: u16,
    field: Option<Field>,
    at: Option<u16>,
}

/// Post-"JIT" instruction: like [`IrInstr`] but with column references
/// resolved to concrete record positions, and, where the compiler fixed
/// their operands' classes, typed.
///
/// A generic op matches its operands' variants at run time, aligns
/// decimal scales and converts mixed numeric operands, as `crate::eval`
/// does. A typed op (the second group) reads the one variant its
/// operands' class allows, or NULL; its conversions were made when it
/// was compiled (constants) or by a conversion op ahead of it.
#[derive(Clone, Copy, Debug)]
enum Op {
    // Generic, or taking any class.
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
    // Typed.
    Load {
        dst: u16,
        pos: u16,
        field: Field,
    },
    /// A record's fixed-width field at a constant offset.
    LoadAt {
        dst: u16,
        pos: u16,
        at: u16,
        field: Field,
    },
    CmpInt {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    CmpDec {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    CmpDate {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    CmpF64 {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    CmpBytes {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    AndBool {
        dst: u16,
        a: u16,
        b: u16,
    },
    OrBool {
        dst: u16,
        a: u16,
        b: u16,
    },
    NotBool {
        dst: u16,
        a: u16,
    },
    BrFalseBool {
        cond: u16,
        target: u16,
    },
    BrTrueBool {
        cond: u16,
        target: u16,
    },
    ArithInt {
        op: ArithOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    ArithDec {
        op: ArithOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    ArithF64 {
        op: ArithOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    AddDays {
        dst: u16,
        a: u16,
        b: u16,
        sub: bool,
    },
    NegInt {
        dst: u16,
        a: u16,
    },
    NegDec {
        dst: u16,
        a: u16,
    },
    NegF64 {
        dst: u16,
        a: u16,
    },
    IntToDec {
        dst: u16,
        a: u16,
    },
    IntToF64 {
        dst: u16,
        a: u16,
    },
    DecToF64 {
        dst: u16,
        a: u16,
    },
    LikeBytes {
        dst: u16,
        a: u16,
        pattern: u16,
        negated: bool,
    },
    InListBytes {
        dst: u16,
        a: u16,
        first: u16,
        count: u16,
        negated: bool,
    },
    InListInt {
        dst: u16,
        a: u16,
        first: u16,
        count: u16,
        negated: bool,
    },
    YearOfDate {
        dst: u16,
        a: u16,
    },
    SubstrBytes {
        dst: u16,
        a: u16,
        from: u16,
        len: u16,
    },
    // Typed, with a constant operand in the op.
    CmpIntK {
        op: CmpOp,
        dst: u16,
        a: u16,
        k: i64,
    },
    CmpDateK {
        op: CmpOp,
        dst: u16,
        a: u16,
        k: i32,
    },
    /// Against the decimal `k` at `scale`.
    CmpDecK {
        op: CmpOp,
        dst: u16,
        a: u16,
        k: i64,
        scale: u8,
    },
    /// Against the string constant `idx`.
    CmpBytesK {
        op: CmpOp,
        dst: u16,
        a: u16,
        idx: u16,
    },
    /// `a op k`, or `k op a` when `left`.
    ArithDecK {
        op: ArithOp,
        dst: u16,
        a: u16,
        k: i64,
        scale: u8,
        left: bool,
    },
}

impl Op {
    /// Does the op match its operands' variants at run time?
    fn is_generic(&self) -> bool {
        matches!(
            self,
            Op::LoadField { .. }
                | Op::Cmp { .. }
                | Op::And { .. }
                | Op::Or { .. }
                | Op::Not { .. }
                | Op::Arith { .. }
                | Op::Neg { .. }
                | Op::Like { .. }
                | Op::InList { .. }
                | Op::ExtractYear { .. }
                | Op::Substr { .. }
                | Op::BrFalse { .. }
                | Op::BrTrue { .. }
        )
    }

    /// The branch target, if the op branches.
    fn target_mut(&mut self) -> Option<&mut u16> {
        match self {
            Op::BrFalse { target, .. }
            | Op::BrTrue { target, .. }
            | Op::BrFalseBool { target, .. }
            | Op::BrTrueBool { target, .. }
            | Op::Jmp { target } => Some(target),
            _ => None,
        }
    }

    /// The two operands of a typed op that may take converted ones.
    fn operands_mut(&mut self) -> Option<(&mut u16, &mut u16)> {
        match self {
            Op::CmpDec { a, b, .. }
            | Op::CmpF64 { a, b, .. }
            | Op::ArithDec { a, b, .. }
            | Op::ArithF64 { a, b, .. } => Some((a, b)),
            _ => None,
        }
    }
}

/// A program compiled against where its column loads read: the fields of
/// one record layout (scans, Page Stores) or the values of a decoded row
/// (the SQL node's operators). Either way it is the same IR run by the
/// same loop, [`CompiledPredicate::run`].
#[derive(Clone)]
pub struct CompiledPredicate {
    ops: Box<[Op]>,
    /// A row program with typed loads: the same IR with every op
    /// generic, which a row runs whose value at a typed load is not of
    /// its column's compiled type. (A record's fields are of their
    /// layout's types, and a program without typed loads has no such
    /// row.)
    untyped: Option<Box<[Op]>>,
    consts: Box<[ConstSlot]>,
    /// Register count, conversion registers included; kept for
    /// introspection.
    pub n_regs: usize,
}

/// Where a program's column loads read from. Two impls, one per field
/// source; [`CompiledPredicate::run`] is generic over them, so each
/// source gets its own copy of the loop.
pub(crate) trait Fields<'a> {
    /// The value at `pos`, of whatever class it is.
    fn load(&self, pos: u16) -> Result<Slot<'a>>;
    /// The value at `pos` read as `field`; `None` if there is none of
    /// that class (the untyped program then reads it, or fails to).
    fn load_as(&self, pos: u16, field: Field) -> Option<Slot<'a>>;
    /// [`Fields::load_as`] for a fixed-width field a record holds at
    /// offset `at`.
    fn load_at(&self, pos: u16, at: u16, field: Field) -> Option<Slot<'a>>;
}

/// A record's fields, read in place.
impl<'a> Fields<'a> for RecordView<'a> {
    #[inline]
    fn load(&self, pos: u16) -> Result<Slot<'a>> {
        let dtype = self.layout().dtypes.get(pos as usize);
        let dtype = dtype.ok_or_else(|| Error::Internal(format!("field {pos} out of range")))?;
        Ok(record_field(self, pos, Field::of(*dtype)))
    }

    #[inline(always)]
    fn load_as(&self, pos: u16, field: Field) -> Option<Slot<'a>> {
        Some(record_field(self, pos, field))
    }

    #[inline(always)]
    fn load_at(&self, pos: u16, at: u16, field: Field) -> Option<Slot<'a>> {
        debug_assert_eq!(self.layout().fixed_offset(pos as usize), Some(at as usize));
        Some(match self.is_null(pos as usize) {
            true => Slot::Null,
            false => field_slot(&self.backing()[at as usize..], field),
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
        Ok(value_slot(v))
    }

    #[inline(always)]
    fn load_as(&self, pos: u16, field: Field) -> Option<Slot<'a>> {
        match (self.get(pos as usize)?, field) {
            (Value::Null, _) => Some(Slot::Null),
            (Value::Int(x), Field::I32 | Field::I64) => Some(Slot::Int(*x)),
            (Value::Decimal(d), Field::Dec(s)) if d.scale == s => Some(Slot::dec(*d)),
            (Value::Date(d), Field::Date) => Some(Slot::Date(d.0)),
            (Value::Str(s), Field::Char | Field::Varchar) => Some(Slot::Bytes(s.as_bytes())),
            (Value::Double(x), Field::F64) => Some(Slot::F64(*x)),
            _ => None,
        }
    }

    #[inline(always)]
    fn load_at(&self, pos: u16, _at: u16, field: Field) -> Option<Slot<'a>> {
        self.load_as(pos, field)
    }
}

impl CompiledPredicate {
    /// "JIT-compile" validated IR for records shaped by `layout`: every
    /// register is typed by the layout's column types and the program's
    /// constants.
    ///
    /// `col_map[i]` gives, for table column `i`, its position within the
    /// record (`u16::MAX` = not stored, which is a descriptor bug).
    pub fn compile(
        ir: &IrProgram,
        layout: &RecordLayout,
        col_map: &[u16],
    ) -> Result<CompiledPredicate> {
        Self::build(ir, false, |col| {
            let pos = *col_map
                .get(col as usize)
                .ok_or_else(|| Error::InvalidState(format!("descriptor col {col} unmapped")))?;
            if pos == u16::MAX || pos as usize >= layout.n_cols() {
                return Err(Error::InvalidState(format!(
                    "descriptor col {col} not present in record layout"
                )));
            }
            let field = Field::of(layout.dtypes[pos as usize]);
            let at = match field.width() {
                Some(_) => layout
                    .fixed_offset(pos as usize)
                    .and_then(|at| u16::try_from(at).ok()),
                None => None,
            };
            Ok(Site {
                pos,
                field: Some(field),
                at,
            })
        })
    }

    /// Lower `e` and compile it for decoded rows whose column `i` is of
    /// type `input[i]` (`None`, or past the end: not known, and read by a
    /// generic load): the program an operator runs
    /// ([`CompiledPredicate::eval_row`], [`CompiledPredicate::row_passes`],
    /// [`CompiledPredicate::fold_row`]). Any expression compiles; the
    /// register budget ([`MAX_REGS`]) binds only programs shipped to a
    /// Page Store.
    pub fn for_rows(e: &Expr, input: &[Option<DataType>]) -> Result<CompiledPredicate> {
        Self::build(&crate::compile::lower(e)?, true, |col| {
            let field = input.get(col as usize).copied().flatten().map(Field::of);
            Ok(Site {
                pos: col,
                field,
                at: None,
            })
        })
    }

    /// Compile a descriptor's program for decoded rows of
    /// `input.len()` values typed as for [`CompiledPredicate::for_rows`]
    /// (a pushed HAVING, over a group's outputs). A load past the row is
    /// [`Error::Corruption`].
    pub fn for_row_program(
        ir: &IrProgram,
        input: &[Option<DataType>],
    ) -> Result<CompiledPredicate> {
        Self::build(ir, true, |col| match input.get(col as usize) {
            Some(dtype) => Ok(Site {
                pos: col,
                field: dtype.map(Field::of),
                at: None,
            }),
            None => Err(Error::Corruption(format!(
                "program reads value {col} of a {}-value row",
                input.len()
            ))),
        })
    }

    /// Validate `ir`, resolve its column loads through `site_of`, type
    /// its registers and emit typed ops where their operands' classes are
    /// fixed. `guarded`: the program reads decoded rows, whose values its
    /// typed loads check.
    fn build(
        ir: &IrProgram,
        guarded: bool,
        site_of: impl Fn(u16) -> Result<Site>,
    ) -> Result<CompiledPredicate> {
        ir.validate()?;
        let mut untyped = Vec::with_capacity(ir.instrs.len());
        let mut sites = Vec::with_capacity(ir.instrs.len());
        for (i, ins) in ir.instrs.iter().enumerate() {
            let mut site = None;
            untyped.push(match *ins {
                IrInstr::LoadCol { dst, col } => {
                    let load = site_of(col)?;
                    let pos = load.pos;
                    site = Some(load);
                    Op::LoadField { dst, pos }
                }
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
            });
            sites.push(site);
        }
        let mut consts: Vec<ConstSlot> = ir.consts.iter().map(ConstSlot::from_value).collect();
        let (ops, n_regs) = match typed_ops(ir, &sites, &untyped, &mut consts) {
            Some(typed) => typed,
            None => (untyped.clone(), ir.n_regs as usize),
        };
        let typed_loads = ops
            .iter()
            .any(|op| matches!(op, Op::Load { .. } | Op::LoadAt { .. }));
        Ok(CompiledPredicate {
            ops: ops.into_boxed_slice(),
            untyped: (guarded && typed_loads).then(|| untyped.into_boxed_slice()),
            consts: consts.into_boxed_slice(),
            n_regs,
        })
    }

    /// How many of the program's ops match their operands' variants at
    /// run time: zero when every register's class was fixed.
    pub fn generic_ops(&self) -> usize {
        self.ops.iter().filter(|op| op.is_generic()).count()
    }

    /// Evaluate as a predicate over a record's bytes.
    pub fn eval_record(&self, rec: &RecordView<'_>) -> Result<TriBool> {
        Ok(match slot_bool(&self.run(rec)?)? {
            None => TriBool::Unknown,
            Some(true) => TriBool::True,
            Some(false) => TriBool::False,
        })
    }

    /// The program's result over a record's bytes as a value: the one
    /// `crate::eval::eval` gives over the decoded record (an error where
    /// it errs). Fields are read in place.
    pub fn eval_value(&self, rec: &RecordView<'_>) -> Result<Value> {
        Ok(slot_value(self.run(rec)?))
    }

    /// Fold the program's result over a record's bytes into `state`, as
    /// `state.update(&self.eval_value(rec)?)` would, without building a
    /// [`Value`] for a count or a sum: an aggregate input a Page Store
    /// folds.
    pub fn fold_record(&self, rec: &RecordView<'_>, state: &mut AggState) -> Result<()> {
        state.update_slot(&self.run(rec)?);
        Ok(())
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

    /// [`CompiledPredicate::fold_record`] over a decoded row: an
    /// aggregate input the SQL node folds.
    pub fn fold_row(&self, row: &[Value], state: &mut AggState) -> Result<()> {
        state.update_slot(&self.run(&row)?);
        Ok(())
    }

    /// Run the program over `src` to its `Ret`: the returned register.
    /// The register file is on the stack when the program fits
    /// [`MAX_REGS`], and no larger than a small program needs. The loop
    /// and the cell helpers it calls that return a `Slot`
    /// (`record_field`, `field_slot`, `off_class`, ...) are
    /// `#[inline(always)]`: a `Slot` returned out of line goes through
    /// memory, about 15 ns a field load.
    fn run<'r, F: Fields<'r>>(&'r self, src: &F) -> Result<Slot<'r>> {
        // A program that is one typed load (a Page Store's bare-column
        // aggregate input) reads its field without the loop.
        let direct = match self.ops[..] {
            [Op::LoadAt {
                dst,
                pos,
                at,
                field,
            }, Op::Ret { src: r }]
                if dst == r =>
            {
                Some(src.load_at(pos, at, field))
            }
            [Op::Load { dst, pos, field }, Op::Ret { src: r }] if dst == r => {
                Some(src.load_as(pos, field))
            }
            _ => None,
        };
        match direct {
            Some(Some(v)) => return Ok(v),
            Some(None) => return self.run_untyped(src),
            None => {}
        }
        let mut missed = false;
        let result = match self.n_regs {
            0..=4 => self.exec(&self.ops, &mut [Slot::Null; 4], src, &mut missed),
            5..=16 => self.exec(&self.ops, &mut [Slot::Null; 16], src, &mut missed),
            17..=MAX_REGS => self.exec(&self.ops, &mut [Slot::Null; MAX_REGS], src, &mut missed),
            n => self.exec(&self.ops, &mut vec![Slot::Null; n], src, &mut missed),
        };
        match missed {
            false => result,
            true => self.run_untyped(src),
        }
    }

    /// A row whose value at a typed load is not of its column's type
    /// runs the untyped ops instead, from the start (programs have no
    /// side effects).
    #[cold]
    #[inline(never)]
    fn run_untyped<'r, F: Fields<'r>>(&'r self, src: &F) -> Result<Slot<'r>> {
        let ops = self
            .untyped
            .as_deref()
            .ok_or_else(|| Error::Internal("a typed load missed in a record program".into()))?;
        self.exec(ops, &mut vec![Slot::Null; self.n_regs], src, &mut false)
    }

    /// The loop. A typed load that finds no value of its class sets
    /// `missed` and stops it.
    #[inline(always)]
    fn exec<'r, F: Fields<'r>>(
        &'r self,
        ops: &[Op],
        regs: &mut [Slot<'r>],
        src: &F,
        missed: &mut bool,
    ) -> Result<Slot<'r>> {
        // A typed op's operands are of its class or NULL.
        macro_rules! typed {
            ($dst:expr, $a:expr, $pa:pat => $e:expr) => {
                regs[$dst as usize] = match &regs[$a as usize] {
                    &$pa => $e,
                    x => off_class(x, x),
                }
            };
            ($dst:expr, $a:expr, $b:expr, $pa:pat, $pb:pat => $e:expr) => {
                regs[$dst as usize] = match (&regs[$a as usize], &regs[$b as usize]) {
                    (&$pa, &$pb) => $e,
                    (x, y) => off_class(x, y),
                }
            };
        }
        let mut pc = 0usize;
        loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::LoadField { dst, pos } => regs[dst as usize] = src.load(pos)?,
                Op::Load { dst, pos, field } => match src.load_as(pos, field) {
                    Some(v) => regs[dst as usize] = v,
                    None => {
                        *missed = true;
                        return Ok(Slot::Null);
                    }
                },
                Op::LoadAt {
                    dst,
                    pos,
                    at,
                    field,
                } => match src.load_at(pos, at, field) {
                    Some(v) => regs[dst as usize] = v,
                    None => {
                        *missed = true;
                        return Ok(Slot::Null);
                    }
                },
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
                Op::CmpInt { op, dst, a, b } => {
                    typed!(dst, a, b, Slot::Int(x), Slot::Int(y) => bool_slot(cmp_holds(op, x.cmp(&y))))
                }
                Op::CmpDec { op, dst, a, b } => {
                    typed!(dst, a, b, Slot::Dec(x, xs), Slot::Dec(y, ys) => {
                        bool_slot(cmp_holds(op, dec_cmp(Dec::new(x, xs), Dec::new(y, ys))))
                    })
                }
                Op::CmpDate { op, dst, a, b } => {
                    typed!(dst, a, b, Slot::Date(x), Slot::Date(y) => bool_slot(cmp_holds(op, x.cmp(&y))))
                }
                Op::CmpF64 { op, dst, a, b } => {
                    typed!(dst, a, b, Slot::F64(x), Slot::F64(y) => match x.partial_cmp(&y) {
                        None => Slot::Null,
                        Some(ord) => bool_slot(cmp_holds(op, ord)),
                    })
                }
                Op::CmpBytes { op, dst, a, b } => {
                    typed!(dst, a, b, Slot::Bytes(x), Slot::Bytes(y) => {
                        bool_slot(cmp_holds(op, util::trim_pad(x).cmp(util::trim_pad(y))))
                    })
                }
                Op::And { dst, a, b } => {
                    regs[dst as usize] =
                        tri_and(slot_bool(&regs[a as usize])?, slot_bool(&regs[b as usize])?);
                }
                Op::AndBool { dst, a, b } => {
                    regs[dst as usize] =
                        tri_and(truth(&regs[a as usize]), truth(&regs[b as usize]));
                }
                Op::Or { dst, a, b } => {
                    regs[dst as usize] =
                        tri_or(slot_bool(&regs[a as usize])?, slot_bool(&regs[b as usize])?);
                }
                Op::OrBool { dst, a, b } => {
                    regs[dst as usize] = tri_or(truth(&regs[a as usize]), truth(&regs[b as usize]));
                }
                Op::Not { dst, a } => {
                    regs[dst as usize] = match slot_bool(&regs[a as usize])? {
                        None => Slot::Null,
                        Some(v) => bool_slot(!v),
                    };
                }
                Op::NotBool { dst, a } => {
                    regs[dst as usize] = match truth(&regs[a as usize]) {
                        None => Slot::Null,
                        Some(v) => bool_slot(!v),
                    };
                }
                Op::Arith { op, dst, a, b } => {
                    regs[dst as usize] = slot_arith(op, &regs[a as usize], &regs[b as usize])?;
                }
                Op::ArithInt { op, dst, a, b } => {
                    typed!(dst, a, b, Slot::Int(x), Slot::Int(y) => Slot::Int(int_arith(op, x, y)?))
                }
                Op::ArithDec { op, dst, a, b } => {
                    typed!(dst, a, b, Slot::Dec(x, xs), Slot::Dec(y, ys) => {
                        Slot::dec(dec_arith(op, Dec::new(x, xs), Dec::new(y, ys))?)
                    })
                }
                Op::ArithF64 { op, dst, a, b } => {
                    typed!(dst, a, b, Slot::F64(x), Slot::F64(y) => Slot::F64(f64_arith(op, x, y)?))
                }
                Op::AddDays { dst, a, b, sub } => {
                    typed!(dst, a, b, Slot::Date(d), Slot::Int(n) => {
                        Slot::Date(util::add_days(d, if sub { n.wrapping_neg() } else { n })?)
                    })
                }
                Op::Neg { dst, a } => {
                    regs[dst as usize] = match regs[a as usize] {
                        Slot::Null => Slot::Null,
                        Slot::Int(v) => Slot::Int(util::neg_int(v)?),
                        Slot::Dec(raw, scale) => Slot::dec(Dec::new(raw, scale).neg()),
                        Slot::F64(v) => Slot::F64(-v),
                        other => return Err(Error::Type(format!("cannot negate {other:?}"))),
                    };
                }
                Op::NegInt { dst, a } => {
                    typed!(dst, a, Slot::Int(v) => Slot::Int(util::neg_int(v)?))
                }
                Op::NegDec { dst, a } => {
                    typed!(dst, a, Slot::Dec(raw, scale) => Slot::dec(Dec::new(raw, scale).neg()))
                }
                Op::NegF64 { dst, a } => typed!(dst, a, Slot::F64(v) => Slot::F64(-v)),
                Op::IntToDec { dst, a } => {
                    typed!(dst, a, Slot::Int(v) => Slot::dec(Dec::from_int(v)))
                }
                Op::IntToF64 { dst, a } => typed!(dst, a, Slot::Int(v) => Slot::F64(v as f64)),
                Op::DecToF64 { dst, a } => {
                    typed!(dst, a, Slot::Dec(raw, scale) => Slot::F64(Dec::new(raw, scale).to_f64()))
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
                Op::LikeBytes {
                    dst,
                    a,
                    pattern,
                    negated,
                } => {
                    let pat = self.consts[pattern as usize].as_slot();
                    typed!(dst, a, Slot::Bytes(text) => match pat {
                        Slot::Bytes(pat) => bool_slot(util::like_match(text, pat) != negated),
                        other => off_class(&other, &other),
                    })
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
                        let list = &self.consts[first as usize..(first + count) as usize];
                        in_list(list, negated, |c| {
                            slot_cmp(&v, &c.as_slot()) == Some(std::cmp::Ordering::Equal)
                        })
                    };
                }
                Op::InListBytes {
                    dst,
                    a,
                    first,
                    count,
                    negated,
                } => {
                    let list = &self.consts[first as usize..(first + count) as usize];
                    typed!(dst, a, Slot::Bytes(x) => {
                        let x = util::trim_pad(x);
                        in_list(list, negated, |c| {
                            matches!(c, ConstSlot::Bytes(y) if util::trim_pad(y) == x)
                        })
                    })
                }
                Op::InListInt {
                    dst,
                    a,
                    first,
                    count,
                    negated,
                } => {
                    let list = &self.consts[first as usize..(first + count) as usize];
                    typed!(dst, a, Slot::Int(x) => {
                        in_list(list, negated, |c| matches!(c, ConstSlot::Int(y) if *y == x))
                    })
                }
                Op::ExtractYear { dst, a } => {
                    regs[dst as usize] = match regs[a as usize] {
                        Slot::Null => Slot::Null,
                        Slot::Date(d) => Slot::Int(util::extract_year(d)),
                        other => return Err(Error::Type(format!("EXTRACT(YEAR) on {other:?}"))),
                    };
                }
                Op::YearOfDate { dst, a } => {
                    typed!(dst, a, Slot::Date(d) => Slot::Int(util::extract_year(d)))
                }
                Op::Substr { dst, a, from, len } => {
                    regs[dst as usize] = match regs[a as usize] {
                        Slot::Null => Slot::Null,
                        Slot::Bytes(b) => Slot::Bytes(util::substr(b, from as usize, len as usize)),
                        other => return Err(Error::Type(format!("SUBSTR on {other:?}"))),
                    };
                }
                Op::SubstrBytes { dst, a, from, len } => {
                    typed!(dst, a, Slot::Bytes(b) => Slot::Bytes(util::substr(b, from as usize, len as usize)))
                }
                Op::CmpIntK { op, dst, a, k } => {
                    typed!(dst, a, Slot::Int(x) => bool_slot(cmp_holds(op, x.cmp(&k))))
                }
                Op::CmpDateK { op, dst, a, k } => {
                    typed!(dst, a, Slot::Date(x) => bool_slot(cmp_holds(op, x.cmp(&k))))
                }
                Op::CmpDecK {
                    op,
                    dst,
                    a,
                    k,
                    scale,
                } => {
                    typed!(dst, a, Slot::Dec(x, xs) => {
                        bool_slot(cmp_holds(op, dec_cmp(Dec::new(x, xs), Dec::new(k as i128, scale))))
                    })
                }
                Op::CmpBytesK { op, dst, a, idx } => {
                    let k = self.consts[idx as usize].as_slot();
                    typed!(dst, a, Slot::Bytes(x) => match k {
                        Slot::Bytes(k) => bool_slot(cmp_holds(op, util::trim_pad(x).cmp(util::trim_pad(k)))),
                        other => off_class(&other, &other),
                    })
                }
                Op::ArithDecK {
                    op,
                    dst,
                    a,
                    k,
                    scale,
                    left,
                } => {
                    let k = Dec::new(k as i128, scale);
                    typed!(dst, a, Slot::Dec(x, xs) => Slot::dec(match left {
                        true => dec_arith(op, k, Dec::new(x, xs))?,
                        false => dec_arith(op, Dec::new(x, xs), k)?,
                    }))
                }
                Op::BrFalse { cond, target } => {
                    if slot_bool(&regs[cond as usize])? == Some(false) {
                        pc = target as usize;
                    }
                }
                Op::BrFalseBool { cond, target } => {
                    if truth(&regs[cond as usize]) == Some(false) {
                        pc = target as usize;
                    }
                }
                Op::BrTrue { cond, target } => {
                    if slot_bool(&regs[cond as usize])? == Some(true) {
                        pc = target as usize;
                    }
                }
                Op::BrTrueBool { cond, target } => {
                    if truth(&regs[cond as usize]) == Some(true) {
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

/// What a typed op gives when an operand is not of its class: the
/// compiler lets only NULL be.
#[inline(always)]
fn off_class<'a>(a: &Slot<'_>, b: &Slot<'_>) -> Slot<'a> {
    debug_assert!(
        matches!(a, Slot::Null) || matches!(b, Slot::Null),
        "typed op met {a:?}, {b:?}"
    );
    Slot::Null
}

/// A boolean register's truth value (it holds an `Int` or NULL).
#[inline(always)]
fn truth(s: &Slot<'_>) -> Option<bool> {
    match s {
        Slot::Int(v) => Some(*v != 0),
        other => {
            debug_assert!(
                matches!(other, Slot::Null),
                "boolean register holds {other:?}"
            );
            None
        }
    }
}

/// SQL's IN over the constants `list` for a non-NULL operand that
/// `equals` compares: no match against a list holding a NULL is NULL.
#[inline(always)]
fn in_list<'a>(list: &[ConstSlot], negated: bool, equals: impl Fn(&ConstSlot) -> bool) -> Slot<'a> {
    let (mut found, mut saw_null) = (false, false);
    for c in list {
        if matches!(c, ConstSlot::Null) {
            saw_null = true;
        } else if equals(c) {
            found = true;
            break;
        }
    }
    match (found, saw_null) {
        (false, true) => Slot::Null,
        _ => bool_slot(found != negated),
    }
}

#[inline(always)]
fn int_arith(op: ArithOp, x: i64, y: i64) -> Result<i64> {
    match op {
        ArithOp::Add => x.checked_add(y),
        ArithOp::Sub => x.checked_sub(y),
        ArithOp::Mul => x.checked_mul(y),
        ArithOp::Div => return Err(Error::Internal("integer division is decimal".into())),
    }
    .ok_or_else(|| Error::Arithmetic("integer overflow".into()))
}

/// `x op y` as `Dec::checked_*` computes it. Operands at one scale
/// (where compilation aligns constants) add and subtract their raw
/// values, and raws that fit `i64` multiply, without a rescale or a call;
/// anything else, and every overflow, takes `Dec`'s own path, which also
/// gives the error.
#[inline(always)]
fn dec_arith(op: ArithOp, x: Dec, y: Dec) -> Result<Dec> {
    let same = x.scale == y.scale && x.scale <= DEC_MAX_SCALE;
    let raw = match op {
        ArithOp::Add if same => x.raw.checked_add(y.raw),
        ArithOp::Sub if same => x.raw.checked_sub(y.raw),
        ArithOp::Mul if x.scale as usize + y.scale as usize <= DEC_MAX_SCALE as usize => {
            match (i64::try_from(x.raw), i64::try_from(y.raw)) {
                (Ok(a), Ok(b)) => Some(a as i128 * b as i128),
                _ => None,
            }
        }
        _ => None,
    };
    match raw {
        Some(raw) => Ok(Dec {
            raw,
            scale: match op {
                ArithOp::Mul => x.scale + y.scale,
                _ => x.scale,
            },
        }),
        None => dec_arith_checked(op, x, y),
    }
}

#[cold]
#[inline(never)]
fn dec_arith_checked(op: ArithOp, x: Dec, y: Dec) -> Result<Dec> {
    match op {
        ArithOp::Add => x.checked_add(y),
        ArithOp::Sub => x.checked_sub(y),
        ArithOp::Mul => x.checked_mul(y),
        ArithOp::Div => x.checked_div(y),
    }
}

/// `Dec::cmp_dec`, with operands at one scale compared in place.
#[inline(always)]
fn dec_cmp(x: Dec, y: Dec) -> std::cmp::Ordering {
    match x.scale == y.scale {
        true => x.raw.cmp(&y.raw),
        false => x.cmp_dec(y),
    }
}

#[inline(always)]
fn f64_arith(op: ArithOp, x: f64, y: f64) -> Result<f64> {
    Ok(match op {
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

// --- typing -----------------------------------------------------------------

/// The class of the register an instruction writes, given its operands'
/// classes: what the generic op gives when it does not fail (`Any` where
/// it fails on every value).
fn written(ins: &IrInstr, site: Option<&Site>, ty: &[Ty], consts: &[Value]) -> Option<(u16, Ty)> {
    let of = |r: u16| ty[r as usize];
    Some(match *ins {
        IrInstr::LoadCol { dst, .. } => {
            (dst, site.and_then(|s| s.field).map_or(Ty::Any, Field::ty))
        }
        IrInstr::LoadConst { dst, idx } => (dst, Ty::of_value(&consts[idx as usize])),
        IrInstr::Mov { dst, src } => (dst, of(src)),
        IrInstr::Cmp { dst, .. }
        | IrInstr::And { dst, .. }
        | IrInstr::Or { dst, .. }
        | IrInstr::Not { dst, .. }
        | IrInstr::IsNull { dst, .. }
        | IrInstr::Like { dst, .. }
        | IrInstr::InList { dst, .. } => (dst, Ty::Bool),
        IrInstr::Arith { op, dst, a, b } => (dst, arith_ty(op, of(a), of(b))),
        IrInstr::Neg { dst, a } => match of(a) {
            Ty::Null => (dst, Ty::Null),
            Ty::Bool | Ty::Int => (dst, Ty::Int),
            t @ (Ty::Dec(_) | Ty::F64) => (dst, t),
            _ => (dst, Ty::Any),
        },
        IrInstr::ExtractYear { dst, a } => match of(a) {
            Ty::Null => (dst, Ty::Null),
            Ty::Date => (dst, Ty::Int),
            _ => (dst, Ty::Any),
        },
        IrInstr::Substr { dst, a, .. } => match of(a) {
            t @ (Ty::Null | Ty::Bytes) => (dst, t),
            _ => (dst, Ty::Any),
        },
        IrInstr::BrFalse { .. } | IrInstr::BrTrue { .. } | IrInstr::Jmp { .. } => return None,
        IrInstr::Ret { .. } => return None,
    })
}

/// Every register's class: the join of its writes, to a fixed point
/// (classes only rise, through at most four levels). A column load is of
/// its site's field's class, `Any` without one.
fn classes(ir: &IrProgram, sites: &[Option<Site>]) -> Vec<Ty> {
    let mut ty = vec![Ty::Null; ir.n_regs as usize];
    loop {
        let mut changed = false;
        for (i, ins) in ir.instrs.iter().enumerate() {
            let site = sites.get(i).and_then(Option::as_ref);
            if let Some((dst, t)) = written(ins, site, &ty, &ir.consts) {
                let joined = ty[dst as usize].join(t);
                changed |= joined != ty[dst as usize];
                ty[dst as usize] = joined;
            }
        }
        if !changed {
            return ty;
        }
    }
}

/// Which registers of validated `ir` its typing makes a truth value (a
/// boolean, an integer or NULL alone: what a branch and a three-valued
/// merge read without a type error), with its columns untyped.
pub fn truth_registers(ir: &IrProgram) -> Vec<bool> {
    classes(ir, &[]).into_iter().map(Ty::boolish).collect()
}

/// The class of `a op b`, as `slot_arith` computes it.
fn arith_ty(op: ArithOp, a: Ty, b: Ty) -> Ty {
    match (a, b) {
        (Ty::Null, _) | (_, Ty::Null) => Ty::Null,
        (Ty::Any, _) | (_, Ty::Any) => Ty::Any,
        (Ty::F64, x) | (x, Ty::F64) => match x.numeric() {
            true => Ty::F64,
            false => Ty::Any,
        },
        (Ty::Date, Ty::Bool | Ty::Int) if matches!(op, ArithOp::Add | ArithOp::Sub) => Ty::Date,
        (Ty::Bool | Ty::Int, Ty::Bool | Ty::Int) if op != ArithOp::Div => Ty::Int,
        _ => match (a.dec_scale(), b.dec_scale()) {
            (Some(sa), Some(sb)) => dec_result_scale(op, sa, sb).map_or(Ty::Any, Ty::Dec),
            _ => Ty::Any,
        },
    }
}

/// The scale `Dec::checked_*` gives `x op y` for `x` at scale `sa` and
/// `y` at `sb`; `None` where it fails whatever the values.
pub(crate) fn dec_result_scale(op: ArithOp, sa: u8, sb: u8) -> Option<u8> {
    let (max, limit) = (sa.max(sb) as usize, DEC_MAX_SCALE as usize);
    match op {
        ArithOp::Add | ArithOp::Sub => (max <= limit).then_some(max as u8),
        ArithOp::Mul => (sa as usize + sb as usize <= limit).then(|| sa + sb),
        ArithOp::Div => (max + 4 <= limit).then(|| sa + 4),
    }
}

/// How a typed op takes one of its operands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Want {
    /// As it is.
    As,
    /// As a decimal: an integer is one at scale 0, as generic decimal
    /// arithmetic takes it. A constant below the scale given is stored
    /// aligned to it, where that does not overflow (the alignment
    /// `Dec::checked_add` and `Dec::cmp_dec` would make first).
    Dec(Option<u8>),
    /// As a double.
    F64,
}

impl Want {
    /// `v`, a constant, as this want takes it (`None`: as it is).
    fn convert(self, v: &Value) -> Option<Value> {
        match (self, v) {
            (Want::As, _) => None,
            (Want::Dec(align), Value::Int(_) | Value::Decimal(_)) => {
                let d = v.as_dec().ok()?;
                Some(Value::Decimal(match align {
                    Some(s) if d.scale < s => d.checked_add(Dec::new(0, s)).unwrap_or(d),
                    _ => d,
                }))
            }
            (Want::F64, Value::Int(_) | Value::Decimal(_) | Value::Double(_)) => {
                Some(Value::Double(v.as_f64().ok()?))
            }
            _ => None,
        }
    }
}

/// The typed op for `ins` and how it takes its two operands, where its
/// operands' classes allow one (`None`: the generic op runs).
fn typed_op(
    ins: &IrInstr,
    site: Option<&Site>,
    untyped: Op,
    ty: &[Ty],
    consts: &[Value],
) -> Option<(Op, [Want; 2])> {
    let of = |r: u16| ty[r as usize];
    let as_is = |op: Op| Some((op, [Want::As, Want::As]));
    match *ins {
        IrInstr::LoadCol { dst, .. } => {
            let (site, field) = (site?, site?.field?);
            match site.at {
                Some(at) => as_is(Op::LoadAt {
                    dst,
                    pos: site.pos,
                    at,
                    field,
                }),
                None => as_is(Op::Load {
                    dst,
                    pos: site.pos,
                    field,
                }),
            }
        }
        IrInstr::Cmp { op, dst, a, b } => {
            let (ta, tb) = (of(a), of(b));
            // NULL compares as any class.
            let (ca, cb) = match (ta, tb) {
                (Ty::Null, t) | (t, Ty::Null) => (t, t),
                pair => pair,
            };
            match (ca, cb) {
                (x, y) if x.int() && y.int() => as_is(Op::CmpInt { op, dst, a, b }),
                (Ty::Date, Ty::Date) => as_is(Op::CmpDate { op, dst, a, b }),
                (Ty::Bytes, Ty::Bytes) => as_is(Op::CmpBytes { op, dst, a, b }),
                (Ty::F64, x) | (x, Ty::F64) if x.numeric() => {
                    let want = |t: Ty| if t == Ty::F64 { Want::As } else { Want::F64 };
                    Some((Op::CmpF64 { op, dst, a, b }, [want(ta), want(tb)]))
                }
                (x, y) => {
                    let (sa, sb) = (x.dec_scale()?, y.dec_scale()?);
                    let align = |t: Ty, s: u8, other: u8| match t {
                        Ty::Null => Want::As,
                        _ if t.int() || s < other => Want::Dec(Some(other)),
                        _ => Want::As,
                    };
                    let wants = [align(ta, sa, sb), align(tb, sb, sa)];
                    Some((Op::CmpDec { op, dst, a, b }, wants))
                }
            }
        }
        IrInstr::And { dst, a, b } if of(a).boolish() && of(b).boolish() => {
            as_is(Op::AndBool { dst, a, b })
        }
        IrInstr::Or { dst, a, b } if of(a).boolish() && of(b).boolish() => {
            as_is(Op::OrBool { dst, a, b })
        }
        IrInstr::Not { dst, a } if of(a).boolish() => as_is(Op::NotBool { dst, a }),
        IrInstr::BrFalse { cond, .. } if of(cond).boolish() => match untyped {
            Op::BrFalse { target, .. } => as_is(Op::BrFalseBool { cond, target }),
            _ => None,
        },
        IrInstr::BrTrue { cond, .. } if of(cond).boolish() => match untyped {
            Op::BrTrue { target, .. } => as_is(Op::BrTrueBool { cond, target }),
            _ => None,
        },
        IrInstr::Arith { op, dst, a, b } => {
            let (ta, tb) = (of(a), of(b));
            match arith_ty(op, ta, tb) {
                Ty::F64 => {
                    let want = |t: Ty| if t == Ty::F64 { Want::As } else { Want::F64 };
                    Some((Op::ArithF64 { op, dst, a, b }, [want(ta), want(tb)]))
                }
                Ty::Date => as_is(Op::AddDays {
                    dst,
                    a,
                    b,
                    sub: op == ArithOp::Sub,
                }),
                Ty::Int => as_is(Op::ArithInt { op, dst, a, b }),
                Ty::Dec(scale) => {
                    let want = |t: Ty| match (op, t) {
                        (ArithOp::Add | ArithOp::Sub, Ty::Dec(s)) if s < scale => {
                            Want::Dec(Some(scale))
                        }
                        (ArithOp::Add | ArithOp::Sub, _) if t.int() => Want::Dec(Some(scale)),
                        _ if t.int() => Want::Dec(None),
                        _ => Want::As,
                    };
                    Some((Op::ArithDec { op, dst, a, b }, [want(ta), want(tb)]))
                }
                _ => None,
            }
        }
        IrInstr::Neg { dst, a } => match of(a) {
            Ty::Bool | Ty::Int => as_is(Op::NegInt { dst, a }),
            Ty::Dec(_) => as_is(Op::NegDec { dst, a }),
            Ty::F64 => as_is(Op::NegF64 { dst, a }),
            _ => None,
        },
        IrInstr::Like {
            dst,
            a,
            pattern,
            negated,
        } if of(a) == Ty::Bytes && matches!(consts[pattern as usize], Value::Str(_)) => {
            as_is(Op::LikeBytes {
                dst,
                a,
                pattern,
                negated,
            })
        }
        IrInstr::InList {
            dst,
            a,
            first,
            count,
            negated,
        } => {
            let list = &consts[first as usize..(first + count) as usize];
            let all = |f: fn(&Value) -> bool| list.iter().all(|c| c.is_null() || f(c));
            match of(a) {
                Ty::Bytes if all(|c| matches!(c, Value::Str(_))) => as_is(Op::InListBytes {
                    dst,
                    a,
                    first,
                    count,
                    negated,
                }),
                t if t.int() && all(|c| matches!(c, Value::Int(_))) => as_is(Op::InListInt {
                    dst,
                    a,
                    first,
                    count,
                    negated,
                }),
                _ => None,
            }
        }
        IrInstr::ExtractYear { dst, a } if of(a) == Ty::Date => as_is(Op::YearOfDate { dst, a }),
        IrInstr::Substr { dst, a, from, len } if of(a) == Ty::Bytes => {
            as_is(Op::SubstrBytes { dst, a, from, len })
        }
        _ => None,
    }
}

/// The typed program for `ir` and its register count: every register's
/// class is inferred, each instruction whose operands' classes allow it
/// becomes its typed op, and the operands those ops take converted are
/// converted when the program is compiled (a constant every reader
/// takes the same way) or by a conversion op into a register of its own.
/// `consts` gains the converted constants. `None` if the program would
/// need more registers than an instruction can name.
fn typed_ops(
    ir: &IrProgram,
    sites: &[Option<Site>],
    untyped: &[Op],
    consts: &mut Vec<ConstSlot>,
) -> Option<(Vec<Op>, usize)> {
    let n = ir.n_regs as usize;
    let ty = classes(ir, sites);
    let plans: Vec<Option<(Op, [Want; 2])>> = ir
        .instrs
        .iter()
        .zip(sites)
        .zip(untyped)
        .map(|((ins, site), op)| typed_op(ins, site.as_ref(), *op, &ty, &ir.consts))
        .collect();

    // A register written once, by a constant load, whose every reader
    // takes it converted the same way holds the converted constant.
    let mut writes = vec![0usize; n];
    let mut constant = vec![None; n];
    for ins in &ir.instrs {
        if let Some((dst, _)) = written(ins, None, &ty, &ir.consts) {
            writes[dst as usize] += 1;
            if let IrInstr::LoadConst { idx, .. } = ins {
                constant[dst as usize] = Some(*idx);
            }
        }
    }
    let mut taken: Vec<Option<Option<Value>>> = vec![None; n];
    for (ins, plan) in ir.instrs.iter().zip(&plans) {
        for (k, r) in ins.regs().1.into_iter().enumerate() {
            let Some(r) = r.map(usize::from) else {
                continue;
            };
            let want = plan.as_ref().map_or(Want::As, |(_, w)| w[k]);
            let as_taken = match constant[r] {
                Some(idx) if writes[r] == 1 => want.convert(&ir.consts[idx as usize]),
                _ => None,
            };
            taken[r] = match &taken[r] {
                Some(prev) if *prev != as_taken => Some(None),
                _ => Some(as_taken),
            };
        }
    }
    let mut converted = vec![None; n];
    for r in 0..n {
        if let (Some(Some(v)), Some(_)) = (&taken[r], constant[r]) {
            converted[r] = u16::try_from(consts.len()).ok();
            if converted[r].is_some() {
                consts.push(ConstSlot::from_value(v));
            }
        }
    }

    // The constant each register written once, by a constant load, holds
    // in the typed program, its pool index, and where its load is.
    let mut held: Vec<Option<(usize, u16, Value)>> = vec![None; n];
    for (i, ins) in ir.instrs.iter().enumerate() {
        if let IrInstr::LoadConst { dst, idx } = *ins {
            let r = dst as usize;
            held[r] = match (&taken[r], converted[r]) {
                (_, _) if writes[r] != 1 => None,
                (Some(Some(v)), Some(at)) => Some((i, at, v.clone())),
                _ => Some((i, idx, ir.consts[idx as usize].clone())),
            };
        }
    }
    let mut unread = vec![0usize; n];
    for ins in &ir.instrs {
        for r in ins.regs().1.into_iter().flatten() {
            unread[r as usize] += 1;
        }
    }
    // Does the load at `d` run before every run of instruction `u`? With
    // forward branches only, unless a branch from before `d` lands past
    // it, up to `u`.
    let branches: Vec<(usize, usize)> = untyped
        .iter()
        .enumerate()
        .filter_map(|(i, op)| Some((i, *op.clone().target_mut()? as usize)))
        .collect();
    let dominates =
        |d: usize, u: usize| d < u && branches.iter().all(|&(i, t)| !(i < d && t > d && t <= u));

    // Each instruction's ops: its typed op (its operands converted at run
    // time where they were not converted here, a constant one taken into
    // the op where its load runs first), or its untyped op.
    let mut next_reg = n;
    let mut chunks: Vec<Vec<Op>> = Vec::with_capacity(untyped.len());
    for (i, ins) in ir.instrs.iter().enumerate() {
        let mut chunk = Vec::new();
        let op = match (&plans[i], *ins) {
            (_, IrInstr::LoadConst { dst, .. }) if converted[dst as usize].is_some() => {
                Op::LoadConst {
                    dst,
                    idx: converted[dst as usize]?,
                }
            }
            (None, _) => untyped[i],
            (Some((mut op, wants)), _) => {
                if let Some((a, b)) = op.operands_mut() {
                    for (operand, want) in [a, b].into_iter().zip(wants) {
                        let r = *operand as usize;
                        let conversion: Option<fn(u16, u16) -> Op> = match (want, ty[r]) {
                            _ if converted[r].is_some() => None,
                            (Want::Dec(_), t) if t.int() => Some(|dst, a| Op::IntToDec { dst, a }),
                            (Want::F64, t) if t.int() => Some(|dst, a| Op::IntToF64 { dst, a }),
                            (Want::F64, Ty::Dec(_)) => Some(|dst, a| Op::DecToF64 { dst, a }),
                            _ => None,
                        };
                        if let Some(conversion) = conversion {
                            let tmp = u16::try_from(next_reg).ok()?;
                            next_reg += 1;
                            chunk.push(conversion(tmp, *operand));
                            *operand = tmp;
                        }
                    }
                }
                let konst = |r: u16| match held.get(r as usize) {
                    Some(Some((d, idx, v))) if dominates(*d, i) => Some((*idx, v)),
                    _ => None,
                };
                match with_constant(op, konst) {
                    Some((with_k, r)) => {
                        unread[r as usize] -= 1;
                        with_k
                    }
                    None => op,
                }
            }
        };
        chunk.push(op);
        chunks.push(chunk);
    }
    // A constant load every reader of which took the constant is dropped.
    for (ins, chunk) in ir.instrs.iter().zip(&mut chunks) {
        if let IrInstr::LoadConst { dst, .. } = ins {
            if held[*dst as usize].is_some() && unread[*dst as usize] == 0 {
                chunk.clear();
            }
        }
    }
    // A branch lands on the first op of its instruction.
    let mut starts = Vec::with_capacity(chunks.len() + 1);
    let mut ops = Vec::with_capacity(untyped.len());
    for chunk in chunks {
        starts.push(ops.len());
        ops.extend(chunk);
    }
    starts.push(ops.len());
    for op in &mut ops {
        if let Some(target) = op.target_mut() {
            *target = u16::try_from(starts[*target as usize]).ok()?;
        }
    }
    Some((ops, next_reg))
}

/// `op`, a typed comparison or decimal arithmetic, with the constant one
/// of its operands holds taken into it (`konst`: the pool index and
/// value a register holds wherever the op reads it, if constant); and
/// that operand's register.
fn with_constant<'v>(op: Op, konst: impl Fn(u16) -> Option<(u16, &'v Value)>) -> Option<(Op, u16)> {
    let (a, b) = match op {
        Op::CmpInt { a, b, .. }
        | Op::CmpDate { a, b, .. }
        | Op::CmpDec { a, b, .. }
        | Op::CmpBytes { a, b, .. }
        | Op::ArithDec { a, b, .. } => (a, b),
        _ => return None,
    };
    // The constant on the right, or on the left with the comparison
    // mirrored.
    let (reg, (idx, k), left) = match (konst(b), konst(a)) {
        (Some(k), _) => (a, k, false),
        (None, Some(k)) => (b, k, true),
        _ => return None,
    };
    let cmp = |op: CmpOp| match left {
        true => op.flip(),
        false => op,
    };
    let raw = |d: &Dec| i64::try_from(d.raw).ok();
    let with_k = match (op, k) {
        (Op::CmpInt { op, dst, .. }, Value::Int(k)) => Op::CmpIntK {
            op: cmp(op),
            dst,
            a: reg,
            k: *k,
        },
        (Op::CmpDate { op, dst, .. }, Value::Date(k)) => Op::CmpDateK {
            op: cmp(op),
            dst,
            a: reg,
            k: k.0,
        },
        (Op::CmpDec { op, dst, .. }, Value::Decimal(d)) => Op::CmpDecK {
            op: cmp(op),
            dst,
            a: reg,
            k: raw(d)?,
            scale: d.scale,
        },
        (Op::CmpBytes { op, dst, .. }, Value::Str(_)) => Op::CmpBytesK {
            op: cmp(op),
            dst,
            a: reg,
            idx,
        },
        (Op::ArithDec { op, dst, .. }, Value::Decimal(d)) => Op::ArithDecK {
            op,
            dst,
            a: reg,
            k: raw(d)?,
            scale: d.scale,
            left,
        },
        _ => return None,
    };
    Some((with_k, if left { a } else { b }))
}

/// A result register as the [`Value`] the interpreter gives.
#[inline]
pub(crate) fn slot_value(s: Slot<'_>) -> Value {
    match s {
        Slot::Null => Value::Null,
        Slot::Int(v) => Value::Int(v),
        Slot::Dec(raw, scale) => Value::Decimal(Dec::new(raw, scale)),
        Slot::Date(d) => Value::Date(taurus_common::Date32(d)),
        Slot::Bytes(b) => Value::str(std::str::from_utf8(b).unwrap_or("\u{fffd}")),
        Slot::F64(v) => Value::Double(v),
    }
}

/// A value as the register that holds it (a string borrowed).
#[inline(always)]
pub(crate) fn value_slot(v: &Value) -> Slot<'_> {
    match v {
        Value::Null => Slot::Null,
        Value::Int(x) => Slot::Int(*x),
        Value::Decimal(d) => Slot::dec(*d),
        Value::Date(d) => Slot::Date(d.0),
        Value::Str(s) => Slot::Bytes(s.as_bytes()),
        Value::Double(x) => Slot::F64(*x),
    }
}

/// A record's field `pos`, read as `field`.
#[inline(always)]
fn record_field<'a>(rec: &RecordView<'a>, pos: u16, field: Field) -> Slot<'a> {
    let pos = pos as usize;
    if rec.is_null(pos) {
        return Slot::Null;
    }
    field_slot(rec.field_bytes(pos), field)
}

/// A non-NULL field's image (or bytes starting with it, for a
/// fixed-width field), read as `field`.
#[inline(always)]
fn field_slot(bytes: &[u8], field: Field) -> Slot<'_> {
    match field {
        Field::I32 => Slot::Int(i32::from_le_bytes(bytes[..4].try_into().unwrap()) as i64),
        Field::I64 => Slot::Int(i64::from_le_bytes(bytes[..8].try_into().unwrap())),
        Field::Dec(scale) => Slot::Dec(
            i64::from_le_bytes(bytes[..8].try_into().unwrap()) as i128,
            scale,
        ),
        Field::Date => Slot::Date(i32::from_le_bytes(bytes[..4].try_into().unwrap())),
        // CHAR pad-space: strip trailing blanks at load, matching the
        // compute node's decode path.
        Field::Char => Slot::Bytes(util::trim_pad(bytes)),
        Field::Varchar => Slot::Bytes(bytes),
        Field::F64 => Slot::F64(f64::from_le_bytes(bytes[..8].try_into().unwrap())),
    }
}

#[inline(always)]
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

#[inline(always)]
fn tri_and<'a>(a: Option<bool>, b: Option<bool>) -> Slot<'a> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => bool_slot(false),
        (Some(true), Some(true)) => bool_slot(true),
        _ => Slot::Null,
    }
}

#[inline(always)]
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
        (Dec(x, xs), Dec(y, ys)) => Some(util::decimal_cmp(
            taurus_common::Dec::new(*x, *xs),
            taurus_common::Dec::new(*y, *ys),
        )),
        (Int(x), Dec(y, ys)) => Some(util::decimal_cmp(
            taurus_common::Dec::from_int(*x),
            taurus_common::Dec::new(*y, *ys),
        )),
        (Dec(x, xs), Int(y)) => Some(util::decimal_cmp(
            taurus_common::Dec::new(*x, *xs),
            taurus_common::Dec::from_int(*y),
        )),
        (Date(x), Date(y)) => Some(x.cmp(y)),
        (Bytes(x), Bytes(y)) => Some(util::trim_pad(x).cmp(util::trim_pad(y))),
        (F64(x), F64(y)) => x.partial_cmp(y),
        (F64(x), Int(y)) => x.partial_cmp(&(*y as f64)),
        (Int(x), F64(y)) => (*x as f64).partial_cmp(y),
        (F64(x), Dec(y, ys)) => x.partial_cmp(&taurus_common::Dec::new(*y, *ys).to_f64()),
        (Dec(x, xs), F64(y)) => taurus_common::Dec::new(*x, *xs).to_f64().partial_cmp(y),
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
            Slot::dec(match op {
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
        Slot::Dec(raw, scale) => Ok(Dec::new(*raw, *scale).to_f64()),
        other => Err(Error::Type(format!("expected numeric, got {other:?}"))),
    }
}

#[inline]
fn slot_dec(s: &Slot<'_>) -> Result<Dec> {
    match s {
        Slot::Dec(raw, scale) => Ok(Dec::new(*raw, *scale)),
        Slot::Int(x) => Ok(Dec::from_int(*x)),
        other => Err(Error::Type(format!("expected numeric, got {other:?}"))),
    }
}

/// Predicate conjuncts a scan evaluates over raw record bytes before it
/// builds a single `Value`: the conjuncts are lowered into one program
/// ([`crate::compile::lower_all_true`]) compiled against the record
/// layout once, the way a Page Store prepares a pushed predicate. It runs
/// them in order and drops a record at the first that is not TRUE, so a
/// later conjunct never sees a record an earlier one rejected.
pub struct RecordFilter {
    /// `None` without conjuncts.
    program: Option<CompiledPredicate>,
}

impl RecordFilter {
    /// Compile `conjuncts` (column references are record positions of
    /// `layout`).
    pub fn new(conjuncts: &[Expr], layout: &RecordLayout) -> Result<RecordFilter> {
        // Nothing to compile for a scan without a predicate (a lookup
        // join's probe builds one of these per outer row).
        if conjuncts.is_empty() {
            return Ok(RecordFilter { program: None });
        }
        let identity: Vec<u16> = (0..layout.n_cols() as u16).collect();
        let ir = crate::compile::lower_all_true(conjuncts)?;
        Ok(RecordFilter {
            program: Some(CompiledPredicate::compile(&ir, layout, &identity)?),
        })
    }

    pub fn is_empty(&self) -> bool {
        self.program.is_none()
    }

    /// Is every conjunct TRUE on `rec`? A VM error is the scan's error.
    pub fn passes(&self, rec: &RecordView<'_>) -> Result<bool> {
        match &self.program {
            Some(p) => Ok(p.eval_record(rec)? == TriBool::True),
            None => Ok(true),
        }
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
        p.eval_record(&view).unwrap()
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
