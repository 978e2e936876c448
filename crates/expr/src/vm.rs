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
//!   operator's input rows are inferred to have (`taurus_verify`); a row
//!   value off its column's type is an [`Error::Type`], never a NULL.
//!
//! Every op is typed: it reads the one variant its class allows, or NULL,
//! with no tag dispatch, scale alignment or conversion at run time.
//! Conversions are made when the program compiles (an integer constant a
//! decimal op reads becomes a decimal aligned to the other operand's
//! scale, and a constant whose load always runs first is taken into the
//! op), or by a conversion op ahead of the op. Decimal ops give
//! `Dec::checked_*`'s raw value, scale and error. An aggregate input folds
//! its result register into its [`AggState`] without building a
//! [`Value`].
//!
//! What does not type does not compile ([`Error::Verify`]): a register
//! written with two classes (a CASE whose values differ in type), operands
//! no op takes (a string against a number, a date minus a date, LIKE over
//! a number, an IN list whose constants do not compare with its operand),
//! and a branch or a three-valued merge over what is not a truth value.
//! `Expr::dtype` types by the same classes and rules ([`arith_ty`],
//! [`cmp_class`], [`in_list_class`], ...), so what the verifier types
//! compiles.

use std::cmp::Ordering;

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
/// of every value any instruction writes to it (every register starts
/// NULL, which belongs to every class). `Expr::dtype` types by it too.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Ty {
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
}

impl Ty {
    pub(crate) fn of_value(v: &Value) -> Ty {
        match v {
            Value::Null => Ty::Null,
            Value::Int(_) => Ty::Int,
            Value::Decimal(d) => Ty::Dec(d.scale),
            Value::Date(_) => Ty::Date,
            Value::Str(_) => Ty::Bytes,
            Value::Double(_) => Ty::F64,
        }
    }

    pub(crate) fn of_dtype(dtype: DataType) -> Ty {
        Field::of(dtype).ty()
    }

    /// The column type of values of this class (`None` for NULL alone).
    pub(crate) fn dtype(self) -> Option<DataType> {
        Some(match self {
            Ty::Null => return None,
            Ty::Bool => DataType::Int,
            Ty::Int => DataType::BigInt,
            Ty::Dec(scale) => DataType::Decimal {
                precision: 30,
                scale,
            },
            Ty::Date => DataType::Date,
            Ty::F64 => DataType::Double,
            Ty::Bytes => DataType::Varchar(u16::MAX),
        })
    }

    /// The class of a register written with both (`None`: there is none).
    pub(crate) fn join(self, o: Ty) -> Option<Ty> {
        match (self, o) {
            (a, b) if a == b => Some(a),
            (Ty::Null, t) | (t, Ty::Null) => Some(t),
            (Ty::Bool, Ty::Int) | (Ty::Int, Ty::Bool) => Some(Ty::Int),
            _ => None,
        }
    }

    /// What a branch and a three-valued merge read: an `Int` or NULL.
    pub(crate) fn boolish(self) -> bool {
        matches!(self, Ty::Null | Ty::Bool | Ty::Int)
    }

    pub(crate) fn int(self) -> bool {
        matches!(self, Ty::Bool | Ty::Int)
    }

    /// The scale of the operand in decimal arithmetic (an integer is a
    /// decimal at scale 0).
    pub(crate) fn dec_scale(self) -> Option<u8> {
        match self {
            Ty::Bool | Ty::Int => Some(0),
            Ty::Dec(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn numeric(self) -> bool {
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

/// Where a column load reads: the field's position, its type, and the
/// offset a record of the layout always holds a fixed-width field at.
struct Site {
    pos: u16,
    field: Field,
    at: Option<u16>,
}

/// Post-"JIT" instruction: like [`IrInstr`] but with column references
/// resolved to concrete record positions, and typed: each reads the one
/// variant its operands' class allows, or NULL. Its conversions were made
/// when it was compiled (constants) or by a conversion op ahead of it.
#[derive(Clone, Copy, Debug)]
enum Op {
    LoadConst {
        dst: u16,
        idx: u16,
    },
    Mov {
        dst: u16,
        src: u16,
    },
    IsNull {
        dst: u16,
        a: u16,
        negated: bool,
    },
    Jmp {
        target: u16,
    },
    Ret {
        src: u16,
    },
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
    /// SQL's IN over constants that compare in the operand's class
    /// ([`list_eq`]).
    InListEq {
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
    // With a constant operand in the op.
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
    /// The branch target, if the op branches.
    fn target_mut(&mut self) -> Option<&mut u16> {
        match self {
            Op::BrFalseBool { target, .. } | Op::BrTrueBool { target, .. } | Op::Jmp { target } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// The operands of a typed op that may take converted ones.
    fn operands_mut(&mut self) -> [Option<&mut u16>; 2] {
        match self {
            Op::CmpDec { a, b, .. }
            | Op::CmpF64 { a, b, .. }
            | Op::ArithDec { a, b, .. }
            | Op::ArithF64 { a, b, .. } => [Some(a), Some(b)],
            Op::InListEq { a, .. } => [Some(a), None],
            _ => [None, None],
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
    consts: Box<[ConstSlot]>,
    /// The class of the program's result.
    result: Ty,
    /// Register count, conversion registers included.
    pub n_regs: usize,
}

/// Where a program's column loads read from. Two impls, one per field
/// source; [`CompiledPredicate::run`] is generic over them, so each
/// source gets its own copy of the loop.
pub(crate) trait Fields<'a> {
    /// The value at `pos` read as `field`; `None` if it is not of that
    /// class.
    fn load_as(&self, pos: u16, field: Field) -> Option<Slot<'a>>;
    /// [`Fields::load_as`] for a fixed-width field a record holds at
    /// offset `at`.
    fn load_at(&self, pos: u16, at: u16, field: Field) -> Option<Slot<'a>>;
}

/// A record's fields, read in place.
impl<'a> Fields<'a> for RecordView<'a> {
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
        Self::build(ir, |col| {
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
            Ok(Site { pos, field, at })
        })
    }

    /// Lower `e` and compile it for decoded rows whose column `i` is of
    /// type `input[i]`: the program an operator runs
    /// ([`CompiledPredicate::eval_row`], [`CompiledPredicate::row_passes`],
    /// [`CompiledPredicate::fold_row`]). A column past `input` is an
    /// [`Error::Verify`]. The register budget ([`MAX_REGS`]) binds only
    /// programs shipped to a Page Store.
    pub fn for_rows(e: &Expr, input: &[DataType]) -> Result<CompiledPredicate> {
        Self::for_row_values(&crate::compile::lower(e)?, input, Error::Verify)
    }

    /// Compile a descriptor's program for decoded rows of `input.len()`
    /// values typed as for [`CompiledPredicate::for_rows`] (a pushed
    /// HAVING, over a group's outputs). A load past the row is
    /// [`Error::Corruption`].
    pub fn for_row_program(ir: &IrProgram, input: &[DataType]) -> Result<CompiledPredicate> {
        Self::for_row_values(ir, input, Error::Corruption)
    }

    fn for_row_values(
        ir: &IrProgram,
        input: &[DataType],
        past: fn(String) -> Error,
    ) -> Result<CompiledPredicate> {
        Self::build(ir, |col| match input.get(col as usize) {
            Some(&dtype) => Ok(Site {
                pos: col,
                field: Field::of(dtype),
                at: None,
            }),
            None => Err(past(format!(
                "program reads value {col} of a {}-value row",
                input.len()
            ))),
        })
    }

    /// Validate `ir`, resolve its column loads through `site_of`, type
    /// its registers and emit its typed ops.
    fn build(ir: &IrProgram, site_of: impl Fn(u16) -> Result<Site>) -> Result<CompiledPredicate> {
        ir.validate()?;
        let mut sites = Vec::with_capacity(ir.instrs.len());
        for (i, ins) in ir.instrs.iter().enumerate() {
            sites.push(match *ins {
                IrInstr::LoadCol { col, .. } => Some(site_of(col)?),
                IrInstr::BrFalse { target, .. }
                | IrInstr::BrTrue { target, .. }
                | IrInstr::Jmp { target } => {
                    forward_only(i, target)?;
                    None
                }
                _ => None,
            });
        }
        let ty = classes(ir, &sites)?;
        let result = ir
            .instrs
            .iter()
            .filter_map(|ins| match *ins {
                IrInstr::Ret { src } => Some(ty[src as usize]),
                _ => None,
            })
            .try_fold(Ty::Null, Ty::join)
            .ok_or_else(|| Error::Verify("the program returns two classes".into()))?;
        let mut consts: Vec<ConstSlot> = ir.consts.iter().map(ConstSlot::from_value).collect();
        let (ops, n_regs) = typed_ops(ir, &sites, &ty, &mut consts)?;
        Ok(CompiledPredicate {
            ops: ops.into_boxed_slice(),
            consts: consts.into_boxed_slice(),
            result,
            n_regs,
        })
    }

    /// The type of the program's results (`None`: NULL only).
    pub fn result_type(&self) -> Option<DataType> {
        self.result.dtype()
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
        match self.ops[..] {
            [Op::LoadAt {
                dst,
                pos,
                at,
                field,
            }, Op::Ret { src: r }]
                if dst == r =>
            {
                return src
                    .load_at(pos, at, field)
                    .ok_or_else(|| off_type(pos, field));
            }
            [Op::Load { dst, pos, field }, Op::Ret { src: r }] if dst == r => {
                return src.load_as(pos, field).ok_or_else(|| off_type(pos, field));
            }
            _ => {}
        }
        match self.n_regs {
            0..=4 => self.exec(&mut [Slot::Null; 4], src),
            5..=16 => self.exec(&mut [Slot::Null; 16], src),
            17..=MAX_REGS => self.exec(&mut [Slot::Null; MAX_REGS], src),
            n => self.exec(&mut vec![Slot::Null; n], src),
        }
    }

    /// The loop. A load that finds no value of its class is a typed
    /// error.
    #[inline(always)]
    fn exec<'r, F: Fields<'r>>(&'r self, regs: &mut [Slot<'r>], src: &F) -> Result<Slot<'r>> {
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
        let list = |first: u16, count: u16| &self.consts[first as usize..(first + count) as usize];
        let mut pc = 0usize;
        loop {
            let op = self.ops[pc];
            pc += 1;
            match op {
                Op::Load { dst, pos, field } => match src.load_as(pos, field) {
                    Some(v) => regs[dst as usize] = v,
                    None => return Err(off_type(pos, field)),
                },
                Op::LoadAt {
                    dst,
                    pos,
                    at,
                    field,
                } => match src.load_at(pos, at, field) {
                    Some(v) => regs[dst as usize] = v,
                    None => return Err(off_type(pos, field)),
                },
                Op::LoadConst { dst, idx } => {
                    regs[dst as usize] = self.consts[idx as usize].as_slot();
                }
                Op::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
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
                Op::AndBool { dst, a, b } => {
                    regs[dst as usize] =
                        tri_and(truth(&regs[a as usize]), truth(&regs[b as usize]));
                }
                Op::OrBool { dst, a, b } => {
                    regs[dst as usize] = tri_or(truth(&regs[a as usize]), truth(&regs[b as usize]));
                }
                Op::NotBool { dst, a } => {
                    regs[dst as usize] = match truth(&regs[a as usize]) {
                        None => Slot::Null,
                        Some(v) => bool_slot(!v),
                    };
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
                Op::InListEq {
                    dst,
                    a,
                    first,
                    count,
                    negated,
                } => {
                    regs[dst as usize] = match regs[a as usize] {
                        Slot::Null => Slot::Null,
                        Slot::Bytes(x) => {
                            let x = Slot::Bytes(util::trim_pad(x));
                            in_list(list(first, count), negated, |c| list_eq(x, c))
                        }
                        x => in_list(list(first, count), negated, |c| list_eq(x, c)),
                    };
                }
                Op::YearOfDate { dst, a } => {
                    typed!(dst, a, Slot::Date(d) => Slot::Int(util::extract_year(d)))
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
                Op::BrFalseBool { cond, target } => {
                    if truth(&regs[cond as usize]) == Some(false) {
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

/// A row value a typed load finds off its column's type.
#[cold]
#[inline(never)]
fn off_type(pos: u16, field: Field) -> Error {
    Error::Type(format!(
        "value {pos} of the row is not of its column's type {field:?}"
    ))
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

/// Does `x`, an IN list's operand (a string without its pad spaces),
/// equal the constant `c`, which compares in its class ([`in_list_class`]):
/// a decimal an integer or a decimal as decimals, a double any number as
/// doubles, anything else one of its own class.
#[inline(always)]
fn list_eq(x: Slot<'_>, c: &ConstSlot) -> bool {
    let dec = |raw, scale, y| dec_cmp(Dec::new(raw, scale), y) == Ordering::Equal;
    match (x, c) {
        (Slot::Int(x), ConstSlot::Int(y)) => x == *y,
        (Slot::Bytes(x), ConstSlot::Bytes(y)) => x == util::trim_pad(y),
        (Slot::Date(x), ConstSlot::Date(y)) => x == *y,
        (Slot::Dec(raw, scale), ConstSlot::Dec(y)) => dec(raw, scale, *y),
        (Slot::Dec(raw, scale), ConstSlot::Int(y)) => dec(raw, scale, Dec::from_int(*y)),
        (Slot::F64(x), ConstSlot::F64(y)) => x == *y,
        (Slot::F64(x), ConstSlot::Int(y)) => x == *y as f64,
        (Slot::F64(x), ConstSlot::Dec(y)) => x == y.to_f64(),
        _ => false,
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
fn dec_cmp(x: Dec, y: Dec) -> Ordering {
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

/// The class of `a op b` (`None`: no op takes them): NULL with anything
/// is NULL, a double with any number a double, a date plus or minus an
/// integer a date, integers other than divided an integer, and integers
/// and decimals a decimal at [`dec_result_scale`] — or, past the finest
/// scale, NULL alone: the op fails on any two values.
pub(crate) fn arith_ty(op: ArithOp, a: Ty, b: Ty) -> Option<Ty> {
    match (a, b) {
        (Ty::Null, _) | (_, Ty::Null) => Some(Ty::Null),
        (Ty::F64, x) | (x, Ty::F64) => x.numeric().then_some(Ty::F64),
        (Ty::Date, x) if x.int() && matches!(op, ArithOp::Add | ArithOp::Sub) => Some(Ty::Date),
        (x, y) if x.int() && y.int() && op != ArithOp::Div => Some(Ty::Int),
        _ => Some(dec_result_scale(op, a.dec_scale()?, b.dec_scale()?).map_or(Ty::Null, Ty::Dec)),
    }
}

/// The class of `-a` (`None`: not a number).
pub(crate) fn neg_ty(a: Ty) -> Option<Ty> {
    match a {
        Ty::Null | Ty::Dec(_) | Ty::F64 => Some(a),
        Ty::Bool | Ty::Int => Some(Ty::Int),
        Ty::Date | Ty::Bytes => None,
    }
}

/// The class LIKE and SUBSTRING read (and SUBSTRING writes).
pub(crate) fn text_ty(a: Ty) -> Option<Ty> {
    matches!(a, Ty::Null | Ty::Bytes).then_some(a)
}

/// The class of EXTRACT(YEAR FROM `a`).
pub(crate) fn year_ty(a: Ty) -> Option<Ty> {
    match a {
        Ty::Null => Some(Ty::Null),
        Ty::Date => Some(Ty::Int),
        _ => None,
    }
}

/// The class `a` and `b` compare in (`None`: they do not compare): NULL
/// takes the other's, integers compare as integers, a double with any
/// number as doubles, and integers and decimals as decimals (at the finer
/// scale).
pub(crate) fn cmp_class(a: Ty, b: Ty) -> Option<Ty> {
    let (a, b) = match (a, b) {
        (Ty::Null, t) | (t, Ty::Null) => (t, t),
        pair => pair,
    };
    match (a, b) {
        (Ty::Null, _) => Some(Ty::Null),
        (x, y) if x.int() && y.int() => Some(Ty::Int),
        (Ty::Date, Ty::Date) | (Ty::Bytes, Ty::Bytes) => Some(a),
        (Ty::F64, x) | (x, Ty::F64) => x.numeric().then_some(Ty::F64),
        (x, y) => Some(Ty::Dec(x.dec_scale()?.max(y.dec_scale()?))),
    }
}

/// The class an IN list compares in: its operand's and every constant's,
/// as [`cmp_class`] compares two.
pub(crate) fn in_list_class(a: Ty, list: &[Value]) -> Option<Ty> {
    list.iter()
        .try_fold(a, |class, c| cmp_class(class, Ty::of_value(c)))
}

/// Every register's class: the join of its writes, to a fixed point
/// (classes only rise). An instruction no typed op takes, or a register
/// written with two classes, is an [`Error::Verify`].
fn classes(ir: &IrProgram, sites: &[Option<Site>]) -> Result<Vec<Ty>> {
    let mut ty = vec![Ty::Null; ir.n_regs as usize];
    loop {
        let mut changed = false;
        for (ins, site) in ir.instrs.iter().zip(sites) {
            let (_, _, t) = typed_op(ins, site.as_ref(), &ty, &ir.consts).ok_or_else(|| {
                let reads: Vec<Ty> = ins
                    .regs()
                    .1
                    .into_iter()
                    .flatten()
                    .map(|r| ty[r as usize])
                    .collect();
                Error::Verify(format!(
                    "{ins:?} does not type: no typed op reads {reads:?}"
                ))
            })?;
            if let Some(dst) = ins.regs().0 {
                let was = ty[dst as usize];
                let joined = was.join(t).ok_or_else(|| {
                    Error::Verify(format!("r{dst} is written as {was:?} and as {t:?}"))
                })?;
                changed |= joined != was;
                ty[dst as usize] = joined;
            }
        }
        if !changed {
            return Ok(ty);
        }
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
    /// As a decimal: an integer is one at scale 0, as decimal arithmetic
    /// takes it. A constant below the scale given is stored aligned to
    /// it, where that does not overflow (the alignment `Dec::checked_add`
    /// and `Dec::cmp_dec` would make first).
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

/// The typed op for `ins` over operands of the classes `ty` gives, how it
/// takes its two operands, and the class of what it writes (`None`: no
/// typed op takes them, or a branch or a three-valued merge reads what
/// is not a truth value).
fn typed_op(
    ins: &IrInstr,
    site: Option<&Site>,
    ty: &[Ty],
    consts: &[Value],
) -> Option<(Op, [Want; 2], Ty)> {
    let of = |r: u16| ty[r as usize];
    let as_is = |op: Op, t: Ty| Some((op, [Want::As, Want::As], t));
    let double = |t: Ty| if t == Ty::F64 { Want::As } else { Want::F64 };
    let truth = |regs: &[u16]| regs.iter().all(|&r| of(r).boolish());
    match *ins {
        IrInstr::LoadCol { dst, .. } => {
            let Site { pos, field, at } = *site?;
            let op = match at {
                Some(at) => Op::LoadAt {
                    dst,
                    pos,
                    at,
                    field,
                },
                None => Op::Load { dst, pos, field },
            };
            as_is(op, field.ty())
        }
        IrInstr::LoadConst { dst, idx } => as_is(
            Op::LoadConst { dst, idx },
            Ty::of_value(&consts[idx as usize]),
        ),
        IrInstr::Mov { dst, src } => as_is(Op::Mov { dst, src }, of(src)),
        IrInstr::Cmp { op, dst, a, b } => {
            let (ta, tb) = (of(a), of(b));
            match cmp_class(ta, tb)? {
                Ty::Null | Ty::Bool | Ty::Int => as_is(Op::CmpInt { op, dst, a, b }, Ty::Bool),
                Ty::Date => as_is(Op::CmpDate { op, dst, a, b }, Ty::Bool),
                Ty::Bytes => as_is(Op::CmpBytes { op, dst, a, b }, Ty::Bool),
                Ty::F64 => Some((
                    Op::CmpF64 { op, dst, a, b },
                    [double(ta), double(tb)],
                    Ty::Bool,
                )),
                Ty::Dec(_) => {
                    // NULL compares at the other operand's scale.
                    let scale = |t: Ty, o: Ty| t.dec_scale().or(o.dec_scale()).unwrap_or(0);
                    let (sa, sb) = (scale(ta, tb), scale(tb, ta));
                    let align = |t: Ty, s: u8, other: u8| match t {
                        Ty::Null => Want::As,
                        _ if t.int() || s < other => Want::Dec(Some(other)),
                        _ => Want::As,
                    };
                    let wants = [align(ta, sa, sb), align(tb, sb, sa)];
                    Some((Op::CmpDec { op, dst, a, b }, wants, Ty::Bool))
                }
            }
        }
        IrInstr::And { dst, a, b } if truth(&[a, b]) => as_is(Op::AndBool { dst, a, b }, Ty::Bool),
        IrInstr::Or { dst, a, b } if truth(&[a, b]) => as_is(Op::OrBool { dst, a, b }, Ty::Bool),
        IrInstr::Not { dst, a } if truth(&[a]) => as_is(Op::NotBool { dst, a }, Ty::Bool),
        IrInstr::BrFalse { cond, target } if truth(&[cond]) => {
            as_is(Op::BrFalseBool { cond, target }, Ty::Null)
        }
        IrInstr::BrTrue { cond, target } if truth(&[cond]) => {
            as_is(Op::BrTrueBool { cond, target }, Ty::Null)
        }
        IrInstr::Jmp { target } => as_is(Op::Jmp { target }, Ty::Null),
        IrInstr::Ret { src } => as_is(Op::Ret { src }, Ty::Null),
        IrInstr::Arith { op, dst, a, b } => {
            let (ta, tb) = (of(a), of(b));
            let class = arith_ty(op, ta, tb)?;
            match class {
                Ty::F64 => Some((
                    Op::ArithF64 { op, dst, a, b },
                    [double(ta), double(tb)],
                    class,
                )),
                Ty::Date => as_is(
                    Op::AddDays {
                        dst,
                        a,
                        b,
                        sub: op == ArithOp::Sub,
                    },
                    class,
                ),
                // Numbers past the finest scale are NULL alone: the
                // decimal op fails on any two.
                Ty::Dec(_) | Ty::Null if ta.dec_scale().is_some() && tb.dec_scale().is_some() => {
                    let scale = match class {
                        Ty::Dec(scale) => scale,
                        _ => u8::MAX,
                    };
                    let want = |t: Ty| match (op, t) {
                        (ArithOp::Add | ArithOp::Sub, Ty::Dec(s)) if s < scale => {
                            Want::Dec(Some(scale))
                        }
                        (ArithOp::Add | ArithOp::Sub, _) if t.int() => Want::Dec(Some(scale)),
                        _ if t.int() => Want::Dec(None),
                        _ => Want::As,
                    };
                    Some((Op::ArithDec { op, dst, a, b }, [want(ta), want(tb)], class))
                }
                // NULL whatever its operands: any op gives it.
                _ => as_is(Op::ArithInt { op, dst, a, b }, class),
            }
        }
        IrInstr::Neg { dst, a } => match neg_ty(of(a))? {
            t @ Ty::Dec(_) => as_is(Op::NegDec { dst, a }, t),
            Ty::F64 => as_is(Op::NegF64 { dst, a }, Ty::F64),
            t => as_is(Op::NegInt { dst, a }, t),
        },
        IrInstr::IsNull { dst, a, negated } => as_is(Op::IsNull { dst, a, negated }, Ty::Bool),
        IrInstr::Like {
            dst,
            a,
            pattern,
            negated,
        } if matches!(consts[pattern as usize], Value::Str(_)) => {
            text_ty(of(a))?;
            let op = Op::LikeBytes {
                dst,
                a,
                pattern,
                negated,
            };
            as_is(op, Ty::Bool)
        }
        IrInstr::InList {
            dst,
            a,
            first,
            count,
            negated,
        } => {
            let list = &consts[first as usize..(first + count) as usize];
            let ta = of(a);
            let class = in_list_class(ta, list)?;
            let want = match class {
                Ty::F64 => double(ta),
                Ty::Dec(_) => Want::Dec(None),
                _ => Want::As,
            };
            let op = Op::InListEq {
                dst,
                a,
                first,
                count,
                negated,
            };
            Some((op, [want, Want::As], Ty::Bool))
        }
        IrInstr::ExtractYear { dst, a } => as_is(Op::YearOfDate { dst, a }, year_ty(of(a))?),
        IrInstr::Substr { dst, a, from, len } => {
            as_is(Op::SubstrBytes { dst, a, from, len }, text_ty(of(a))?)
        }
        _ => None,
    }
}

/// The typed program for `ir`, whose registers are of the classes `ty`
/// gives, and its register count: each instruction's typed op, its
/// operands converted when the program compiles (a constant every reader
/// takes the same way, into `consts`) or by a conversion op into a
/// register of its own.
fn typed_ops(
    ir: &IrProgram,
    sites: &[Option<Site>],
    ty: &[Ty],
    consts: &mut Vec<ConstSlot>,
) -> Result<(Vec<Op>, usize)> {
    let n = ir.n_regs as usize;
    let too_big =
        || Error::InvalidState("the typed program needs more than 65535 registers".into());
    let plans: Vec<(Op, [Want; 2])> = ir
        .instrs
        .iter()
        .zip(sites)
        .map(|(ins, site)| {
            let (op, wants, _) = typed_op(ins, site.as_ref(), ty, &ir.consts)
                .ok_or_else(|| Error::Verify(format!("{ins:?} has no typed op")))?;
            Ok((op, wants))
        })
        .collect::<Result<_>>()?;

    // A register written once, by a constant load, whose every reader
    // takes it converted the same way holds the converted constant.
    let mut writes = vec![0usize; n];
    let mut constant = vec![None; n];
    for ins in &ir.instrs {
        if let Some(dst) = ins.regs().0 {
            writes[dst as usize] += 1;
            if let IrInstr::LoadConst { idx, .. } = ins {
                constant[dst as usize] = Some(*idx);
            }
        }
    }
    let mut taken: Vec<Option<Option<Value>>> = vec![None; n];
    for (ins, (_, wants)) in ir.instrs.iter().zip(&plans) {
        for (k, r) in ins.regs().1.into_iter().enumerate() {
            let Some(r) = r.map(usize::from) else {
                continue;
            };
            let as_taken = match constant[r] {
                Some(idx) if writes[r] == 1 => wants[k].convert(&ir.consts[idx as usize]),
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
    let branches: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, (op, _))| Some((i, *op.clone().target_mut()? as usize)))
        .collect();
    let dominates =
        |d: usize, u: usize| d < u && branches.iter().all(|&(i, t)| !(i < d && t > d && t <= u));

    // Each instruction's ops: its typed op, its operands converted at run
    // time where they were not converted here, a constant one taken into
    // the op where its load runs first.
    let mut next_reg = n;
    let mut chunks: Vec<Vec<Op>> = Vec::with_capacity(plans.len());
    for (i, (ins, &(mut op, wants))) in ir.instrs.iter().zip(&plans).enumerate() {
        let mut chunk = Vec::new();
        if let IrInstr::LoadConst { dst, .. } = *ins {
            if let Some(idx) = converted[dst as usize] {
                op = Op::LoadConst { dst, idx };
            }
        }
        for (operand, want) in op.operands_mut().into_iter().zip(wants) {
            let Some(operand) = operand else {
                continue;
            };
            let r = *operand as usize;
            let conversion: Option<fn(u16, u16) -> Op> = match (want, ty[r]) {
                _ if converted[r].is_some() => None,
                (Want::Dec(_), t) if t.int() => Some(|dst, a| Op::IntToDec { dst, a }),
                (Want::F64, t) if t.int() => Some(|dst, a| Op::IntToF64 { dst, a }),
                (Want::F64, Ty::Dec(_)) => Some(|dst, a| Op::DecToF64 { dst, a }),
                _ => None,
            };
            if let Some(conversion) = conversion {
                let tmp = u16::try_from(next_reg).map_err(|_| too_big())?;
                next_reg += 1;
                chunk.push(conversion(tmp, *operand));
                *operand = tmp;
            }
        }
        let konst = |r: u16| match held.get(r as usize) {
            Some(Some((d, idx, v))) if dominates(*d, i) => Some((*idx, v)),
            _ => None,
        };
        if let Some((with_k, r)) = with_constant(op, konst) {
            unread[r as usize] -= 1;
            op = with_k;
        }
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
    let mut ops = Vec::with_capacity(plans.len());
    for chunk in chunks {
        starts.push(ops.len());
        ops.extend(chunk);
    }
    starts.push(ops.len());
    for op in &mut ops {
        if let Some(target) = op.target_mut() {
            *target = u16::try_from(starts[*target as usize]).map_err(|_| too_big())?;
        }
    }
    Ok((ops, next_reg))
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
pub(crate) fn slot_cmp(a: &Slot<'_>, b: &Slot<'_>) -> Option<Ordering> {
    use taurus_common::Dec as D;
    use Slot::*;
    match (a, b) {
        (Null, _) | (_, Null) => None,
        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Dec(x, xs), Dec(y, ys)) => Some(dec_cmp(D::new(*x, *xs), D::new(*y, *ys))),
        (Int(x), Dec(y, ys)) => Some(dec_cmp(D::from_int(*x), D::new(*y, *ys))),
        (Dec(x, xs), Int(y)) => Some(dec_cmp(D::new(*x, *xs), D::from_int(*y))),
        (Date(x), Date(y)) => Some(x.cmp(y)),
        (Bytes(x), Bytes(y)) => Some(util::trim_pad(x).cmp(util::trim_pad(y))),
        (F64(x), F64(y)) => x.partial_cmp(y),
        (F64(x), Int(y)) => x.partial_cmp(&(*y as f64)),
        (Int(x), F64(y)) => (*x as f64).partial_cmp(y),
        (F64(x), Dec(y, ys)) => x.partial_cmp(&D::new(*y, *ys).to_f64()),
        (Dec(x, xs), F64(y)) => D::new(*x, *xs).to_f64().partial_cmp(y),
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
