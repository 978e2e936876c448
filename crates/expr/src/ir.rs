//! The linear register IR — this reproduction's "LLVM bitcode" (§V-B2).
//!
//! Predicates are lowered (on the compute node) into a branch-capable,
//! register-based program mirroring the paper's Listing 4: comparisons
//! write boolean registers, `BrFalse`/`BrTrue` implement AND/OR
//! short-circuiting, and complex operations call into the pre-compiled
//! utility library ([`crate::util`]). The program serializes to a compact
//! byte string that travels inside the NDP descriptor and is decoded and
//! "JIT-compiled" ([`crate::vm`]) on the Page Store.

use taurus_common::codec::{len16, put_flag, put_u16, put_u8, put_value16, Cursor};
use taurus_common::{Error, Result, Value};

use crate::ast::{ArithOp, CmpOp};

pub type Reg = u16;

/// One IR instruction. `col` operands are *table column indexes*; the Page
/// Store resolves them to physical record positions at JIT time using the
/// descriptor's column map.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum IrInstr {
    LoadCol {
        dst: Reg,
        col: u16,
    },
    LoadConst {
        dst: Reg,
        idx: u16,
    },
    Mov {
        dst: Reg,
        src: Reg,
    },
    Cmp {
        op: CmpOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Three-valued AND/OR merge of two already-evaluated booleans.
    And {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Or {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Not {
        dst: Reg,
        a: Reg,
    },
    Arith {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Neg {
        dst: Reg,
        a: Reg,
    },
    IsNull {
        dst: Reg,
        a: Reg,
        negated: bool,
    },
    /// LIKE via the utility library; `pattern` is a const-pool index.
    Like {
        dst: Reg,
        a: Reg,
        pattern: u16,
        negated: bool,
    },
    /// IN over consts `[first, first+count)`.
    InList {
        dst: Reg,
        a: Reg,
        first: u16,
        count: u16,
        negated: bool,
    },
    ExtractYear {
        dst: Reg,
        a: Reg,
    },
    Substr {
        dst: Reg,
        a: Reg,
        from: u16,
        len: u16,
    },
    /// Jump if `cond` is definitely FALSE (NULL falls through — the 3VL
    /// refinement of Listing 4's `br i1` shortcut).
    BrFalse {
        cond: Reg,
        target: u16,
    },
    /// Jump if `cond` is definitely TRUE.
    BrTrue {
        cond: Reg,
        target: u16,
    },
    Jmp {
        target: u16,
    },
    Ret {
        src: Reg,
    },
}

/// A complete predicate program plus its constant pool.
#[derive(Clone, Debug, PartialEq)]
pub struct IrProgram {
    pub instrs: Vec<IrInstr>,
    pub consts: Vec<Value>,
    pub n_regs: u16,
}

impl IrInstr {
    /// The register the instruction writes, if any, and the registers it
    /// reads, in operand order.
    pub fn regs(&self) -> (Option<Reg>, [Option<Reg>; 2]) {
        match *self {
            IrInstr::LoadCol { dst, .. } | IrInstr::LoadConst { dst, .. } => (Some(dst), [None; 2]),
            IrInstr::Cmp { dst, a, b, .. }
            | IrInstr::And { dst, a, b }
            | IrInstr::Or { dst, a, b }
            | IrInstr::Arith { dst, a, b, .. } => (Some(dst), [Some(a), Some(b)]),
            IrInstr::Mov { dst, src: a }
            | IrInstr::Not { dst, a }
            | IrInstr::Neg { dst, a }
            | IrInstr::IsNull { dst, a, .. }
            | IrInstr::Like { dst, a, .. }
            | IrInstr::InList { dst, a, .. }
            | IrInstr::ExtractYear { dst, a }
            | IrInstr::Substr { dst, a, .. } => (Some(dst), [Some(a), None]),
            IrInstr::BrFalse { cond: a, .. }
            | IrInstr::BrTrue { cond: a, .. }
            | IrInstr::Ret { src: a } => (None, [Some(a), None]),
            IrInstr::Jmp { .. } => (None, [None; 2]),
        }
    }
}

impl IrProgram {
    /// Table columns the program loads (sorted, deduplicated).
    pub fn columns_used(&self) -> Vec<u16> {
        let mut cols: Vec<u16> = self
            .instrs
            .iter()
            .filter_map(|i| match i {
                IrInstr::LoadCol { col, .. } => Some(*col),
                _ => None,
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

// --- bitcode (de)serialization ---------------------------------------------

const MAGIC: &[u8; 4] = b"NDP1";

impl IrProgram {
    /// Serialize to the descriptor's bitcode byte string. Counts and
    /// string lengths are u16 on the wire: a program past either fails
    /// here rather than wrapping into bytes that decode as something else.
    pub fn encode_bitcode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(64 + self.instrs.len() * 8);
        out.extend_from_slice(MAGIC);
        put_u16(&mut out, self.n_regs);
        put_u16(&mut out, len16(self.consts.len(), "bitcode constants")?);
        for c in &self.consts {
            put_value16(&mut out, c)?;
        }
        put_u16(&mut out, len16(self.instrs.len(), "bitcode instructions")?);
        for ins in &self.instrs {
            encode_instr(ins, &mut out);
        }
        Ok(out)
    }

    /// Decode bitcode received inside an NDP descriptor: all of `buf`.
    pub fn decode_bitcode(buf: &[u8]) -> Result<IrProgram> {
        let mut cur = Cursor::new(buf);
        cur.magic(MAGIC, "bitcode")?;
        let n_regs = cur.u16()?;
        let n_consts = cur.u16()?;
        let consts = cur.list(n_consts as usize, Cursor::value16)?;
        let n_instrs = cur.u16()?;
        let instrs = cur.list(n_instrs as usize, decode_instr)?;
        cur.done()?;
        let prog = IrProgram {
            instrs,
            consts,
            n_regs,
        };
        prog.validate()?;
        Ok(prog)
    }

    /// Structural validation: register / const / branch-target bounds.
    /// Run on the Page Store before JIT — descriptors cross a trust
    /// boundary in the real system.
    pub fn validate(&self) -> Result<()> {
        let nr = self.n_regs;
        let nc = self.consts.len() as u16;
        let ni = self.instrs.len() as u16;
        let reg = |r: Reg| -> Result<()> {
            if r >= nr {
                return Err(Error::Corruption(format!("register r{r} out of range")));
            }
            Ok(())
        };
        let cst = |i: u16| -> Result<()> {
            if i >= nc {
                return Err(Error::Corruption(format!("const {i} out of range")));
            }
            Ok(())
        };
        let tgt = |t: u16| -> Result<()> {
            if t > ni {
                return Err(Error::Corruption(format!("branch target {t} out of range")));
            }
            Ok(())
        };
        for ins in &self.instrs {
            let (dst, reads) = ins.regs();
            dst.into_iter()
                .chain(reads.into_iter().flatten())
                .try_for_each(reg)?;
            match *ins {
                IrInstr::LoadConst { idx, .. } | IrInstr::Like { pattern: idx, .. } => cst(idx)?,
                IrInstr::InList { first, count, .. }
                    if count == 0 || first as u32 + count as u32 > nc as u32 =>
                {
                    return Err(Error::Corruption("IN list out of const range".into()));
                }
                IrInstr::BrFalse { target, .. }
                | IrInstr::BrTrue { target, .. }
                | IrInstr::Jmp { target } => tgt(target)?,
                _ => {}
            }
        }
        match self.instrs.last() {
            Some(IrInstr::Ret { .. }) => Ok(()),
            _ => Err(Error::Corruption("program must end with Ret".into())),
        }
    }
}

fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from(code: u8) -> Result<CmpOp> {
    Ok(match code {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => return Err(Error::Corruption(format!("bad cmp code {other}"))),
    })
}

fn arith_code(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
    }
}

fn arith_from(code: u8) -> Result<ArithOp> {
    Ok(match code {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        other => return Err(Error::Corruption(format!("bad arith code {other}"))),
    })
}

fn encode_instr(ins: &IrInstr, out: &mut Vec<u8>) {
    match *ins {
        IrInstr::LoadCol { dst, col } => {
            out.push(0);
            put_u16(out, dst);
            put_u16(out, col);
        }
        IrInstr::LoadConst { dst, idx } => {
            out.push(1);
            put_u16(out, dst);
            put_u16(out, idx);
        }
        IrInstr::Mov { dst, src } => {
            out.push(2);
            put_u16(out, dst);
            put_u16(out, src);
        }
        IrInstr::Cmp { op, dst, a, b } => {
            out.push(3);
            put_u8(out, cmp_code(op));
            put_u16(out, dst);
            put_u16(out, a);
            put_u16(out, b);
        }
        IrInstr::And { dst, a, b } => {
            out.push(4);
            put_u16(out, dst);
            put_u16(out, a);
            put_u16(out, b);
        }
        IrInstr::Or { dst, a, b } => {
            out.push(5);
            put_u16(out, dst);
            put_u16(out, a);
            put_u16(out, b);
        }
        IrInstr::Not { dst, a } => {
            out.push(6);
            put_u16(out, dst);
            put_u16(out, a);
        }
        IrInstr::Arith { op, dst, a, b } => {
            out.push(7);
            put_u8(out, arith_code(op));
            put_u16(out, dst);
            put_u16(out, a);
            put_u16(out, b);
        }
        IrInstr::Neg { dst, a } => {
            out.push(8);
            put_u16(out, dst);
            put_u16(out, a);
        }
        IrInstr::IsNull { dst, a, negated } => {
            out.push(9);
            put_flag(out, negated);
            put_u16(out, dst);
            put_u16(out, a);
        }
        IrInstr::Like {
            dst,
            a,
            pattern,
            negated,
        } => {
            out.push(10);
            put_flag(out, negated);
            put_u16(out, dst);
            put_u16(out, a);
            put_u16(out, pattern);
        }
        IrInstr::InList {
            dst,
            a,
            first,
            count,
            negated,
        } => {
            out.push(11);
            put_flag(out, negated);
            put_u16(out, dst);
            put_u16(out, a);
            put_u16(out, first);
            put_u16(out, count);
        }
        IrInstr::ExtractYear { dst, a } => {
            out.push(12);
            put_u16(out, dst);
            put_u16(out, a);
        }
        IrInstr::Substr { dst, a, from, len } => {
            out.push(13);
            put_u16(out, dst);
            put_u16(out, a);
            put_u16(out, from);
            put_u16(out, len);
        }
        IrInstr::BrFalse { cond, target } => {
            out.push(14);
            put_u16(out, cond);
            put_u16(out, target);
        }
        IrInstr::BrTrue { cond, target } => {
            out.push(15);
            put_u16(out, cond);
            put_u16(out, target);
        }
        IrInstr::Jmp { target } => {
            out.push(16);
            put_u16(out, target);
        }
        IrInstr::Ret { src } => {
            out.push(17);
            put_u16(out, src);
        }
    }
}

fn decode_instr(cur: &mut Cursor<'_>) -> Result<IrInstr> {
    Ok(match cur.u8()? {
        0 => IrInstr::LoadCol {
            dst: cur.u16()?,
            col: cur.u16()?,
        },
        1 => IrInstr::LoadConst {
            dst: cur.u16()?,
            idx: cur.u16()?,
        },
        2 => IrInstr::Mov {
            dst: cur.u16()?,
            src: cur.u16()?,
        },
        3 => IrInstr::Cmp {
            op: cmp_from(cur.u8()?)?,
            dst: cur.u16()?,
            a: cur.u16()?,
            b: cur.u16()?,
        },
        4 => IrInstr::And {
            dst: cur.u16()?,
            a: cur.u16()?,
            b: cur.u16()?,
        },
        5 => IrInstr::Or {
            dst: cur.u16()?,
            a: cur.u16()?,
            b: cur.u16()?,
        },
        6 => IrInstr::Not {
            dst: cur.u16()?,
            a: cur.u16()?,
        },
        7 => IrInstr::Arith {
            op: arith_from(cur.u8()?)?,
            dst: cur.u16()?,
            a: cur.u16()?,
            b: cur.u16()?,
        },
        8 => IrInstr::Neg {
            dst: cur.u16()?,
            a: cur.u16()?,
        },
        9 => IrInstr::IsNull {
            negated: cur.flag()?,
            dst: cur.u16()?,
            a: cur.u16()?,
        },
        10 => IrInstr::Like {
            negated: cur.flag()?,
            dst: cur.u16()?,
            a: cur.u16()?,
            pattern: cur.u16()?,
        },
        11 => IrInstr::InList {
            negated: cur.flag()?,
            dst: cur.u16()?,
            a: cur.u16()?,
            first: cur.u16()?,
            count: cur.u16()?,
        },
        12 => IrInstr::ExtractYear {
            dst: cur.u16()?,
            a: cur.u16()?,
        },
        13 => IrInstr::Substr {
            dst: cur.u16()?,
            a: cur.u16()?,
            from: cur.u16()?,
            len: cur.u16()?,
        },
        14 => IrInstr::BrFalse {
            cond: cur.u16()?,
            target: cur.u16()?,
        },
        15 => IrInstr::BrTrue {
            cond: cur.u16()?,
            target: cur.u16()?,
        },
        16 => IrInstr::Jmp { target: cur.u16()? },
        17 => IrInstr::Ret { src: cur.u16()? },
        other => return Err(Error::Corruption(format!("bad opcode {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{Date32, Dec};

    fn sample_program() -> IrProgram {
        // col0 > 1 ? (short-circuit) col1 >= 2 : ret false  — Listing 4 shape.
        IrProgram {
            instrs: vec![
                IrInstr::LoadCol { dst: 0, col: 0 },
                IrInstr::LoadConst { dst: 1, idx: 0 },
                IrInstr::Cmp {
                    op: CmpOp::Gt,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
                IrInstr::BrFalse { cond: 2, target: 7 },
                IrInstr::LoadCol { dst: 3, col: 1 },
                IrInstr::LoadConst { dst: 4, idx: 1 },
                IrInstr::Cmp {
                    op: CmpOp::Ge,
                    dst: 5,
                    a: 3,
                    b: 4,
                },
                IrInstr::Ret { src: 5 },
            ],
            consts: vec![Value::Int(1), Value::Int(2)],
            n_regs: 6,
        }
    }

    #[test]
    fn bitcode_roundtrip() {
        let p = sample_program();
        let bytes = p.encode_bitcode().unwrap();
        let back = IrProgram::decode_bitcode(&bytes).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn value_encoding_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Int(-7),
            Value::Decimal(Dec::parse("123.45").unwrap()),
            Value::Date(Date32::parse("1994-01-01").unwrap()),
            Value::str("FOB"),
            Value::Double(2.5),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value16(&mut buf, v).unwrap();
        }
        let mut cur = Cursor::new(&buf);
        for v in &vals {
            assert_eq!(&cur.value16().unwrap(), v);
        }
        cur.done().unwrap();
    }

    #[test]
    fn validate_rejects_bad_programs() {
        let mut p = sample_program();
        p.instrs[0] = IrInstr::LoadCol { dst: 99, col: 0 };
        assert!(p.validate().is_err());

        let mut p = sample_program();
        p.instrs[1] = IrInstr::LoadConst { dst: 1, idx: 9 };
        assert!(p.validate().is_err());

        let mut p = sample_program();
        p.instrs[3] = IrInstr::BrFalse {
            cond: 2,
            target: 200,
        };
        assert!(p.validate().is_err());

        let mut p = sample_program();
        p.instrs.pop(); // no Ret
        assert!(p.validate().is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(IrProgram::decode_bitcode(b"XXXX").is_err());
        assert!(IrProgram::decode_bitcode(b"NDP1").is_err());
        let mut bytes = sample_program().encode_bitcode().unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(IrProgram::decode_bitcode(&bytes).is_err());
    }

    /// A string constant past the u16 length fails to encode rather than
    /// wrap its length, which would decode the literal's own bytes as
    /// instructions.
    #[test]
    fn long_string_constants_fail_closed() {
        let long = "a".repeat(70_000);
        let p = crate::compile::lower(&crate::Expr::eq(
            crate::Expr::col(0),
            crate::Expr::str(&long),
        ))
        .unwrap();
        assert!(p.encode_bitcode().is_err());
        let fits = "a".repeat(u16::MAX as usize);
        let p = crate::compile::lower(&crate::Expr::eq(
            crate::Expr::col(0),
            crate::Expr::str(&fits),
        ))
        .unwrap();
        let back = IrProgram::decode_bitcode(&p.encode_bitcode().unwrap()).unwrap();
        assert_eq!(back, p);
    }

    /// `negated` is a flag byte (0 or 1), and bitcode is all of its bytes.
    #[test]
    fn negated_flags_are_strict_and_trailing_bytes_refused() {
        let negating = [
            IrInstr::IsNull {
                dst: 0,
                a: 0,
                negated: true,
            },
            IrInstr::Like {
                dst: 0,
                a: 0,
                pattern: 0,
                negated: false,
            },
            IrInstr::InList {
                dst: 0,
                a: 0,
                first: 0,
                count: 1,
                negated: true,
            },
        ];
        for ins in negating {
            let p = IrProgram {
                instrs: vec![ins, IrInstr::Ret { src: 0 }],
                consts: vec![Value::str("a%")],
                n_regs: 1,
            };
            let bytes = p.encode_bitcode().unwrap();
            assert_eq!(IrProgram::decode_bitcode(&bytes).unwrap(), p);
            // Magic, registers, one constant (tag, u16 length, 2 bytes),
            // instruction count, then the opcode: the flag follows.
            let flag = 4 + 2 + 2 + 5 + 2 + 1;
            let mut bad = bytes.clone();
            bad[flag] = 2;
            assert!(
                matches!(IrProgram::decode_bitcode(&bad), Err(Error::Corruption(_))),
                "{ins:?}"
            );
            let longer = [&bytes[..], &[0]].concat();
            assert!(IrProgram::decode_bitcode(&longer).is_err(), "{ins:?}");
        }
    }

    #[test]
    fn columns_used_deduplicates() {
        let p = sample_program();
        assert_eq!(p.columns_used(), vec![0, 1]);
    }
}
