//! The linear register IR — this reproduction's "LLVM bitcode" (§V-B2).
//!
//! Predicates are lowered (on the compute node) into a branch-capable,
//! register-based program mirroring the paper's Listing 4: comparisons
//! write boolean registers, `BrFalse`/`BrTrue` implement AND/OR
//! short-circuiting, and complex operations call into the pre-compiled
//! utility library ([`crate::util`]). The program serializes to a compact
//! byte string that travels inside the NDP descriptor and is decoded and
//! "JIT-compiled" ([`crate::vm`]) on the Page Store.

use taurus_common::{Date32, Dec, Error, Result, Value};

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

// --- value (de)serialization — shared with aggregate-state payloads -------

/// Append a tagged binary encoding of `v`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Decimal(d) => {
            out.push(2);
            out.extend_from_slice(&d.raw.to_le_bytes());
            out.push(d.scale);
        }
        Value::Date(d) => {
            out.push(3);
            out.extend_from_slice(&d.0.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Double(x) => {
            out.push(5);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// Decode a value written by [`encode_value`], advancing `at`.
pub fn decode_value(buf: &[u8], at: &mut usize) -> Result<Value> {
    let err = || Error::Corruption("truncated value encoding".into());
    let tag = *buf.get(*at).ok_or_else(err)?;
    *at += 1;
    let take = |at: &mut usize, n: usize| -> Result<&[u8]> {
        let s = buf.get(*at..*at + n).ok_or_else(err)?;
        *at += n;
        Ok(s)
    };
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Int(i64::from_le_bytes(take(at, 8)?.try_into().unwrap())),
        2 => {
            let raw = i128::from_le_bytes(take(at, 16)?.try_into().unwrap());
            let scale = take(at, 1)?[0];
            Value::Decimal(Dec { raw, scale })
        }
        3 => Value::Date(Date32(i32::from_le_bytes(take(at, 4)?.try_into().unwrap()))),
        4 => {
            let len = u16::from_le_bytes(take(at, 2)?.try_into().unwrap()) as usize;
            let bytes = take(at, len)?;
            Value::Str(std::str::from_utf8(bytes).map_err(|_| err())?.into())
        }
        5 => Value::Double(f64::from_bits(u64::from_le_bytes(
            take(at, 8)?.try_into().unwrap(),
        ))),
        other => return Err(Error::Corruption(format!("bad value tag {other}"))),
    })
}

// --- bitcode (de)serialization ---------------------------------------------

const MAGIC: &[u8; 4] = b"NDP1";

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u16(buf: &[u8], at: &mut usize) -> Result<u16> {
    let s = buf
        .get(*at..*at + 2)
        .ok_or_else(|| Error::Corruption("truncated bitcode".into()))?;
    *at += 2;
    Ok(u16::from_le_bytes(s.try_into().unwrap()))
}

impl IrProgram {
    /// Serialize to the descriptor's bitcode byte string. Counts and
    /// string lengths are u16 on the wire: a program past either fails
    /// here rather than wrapping into bytes that decode as something else.
    pub fn encode_bitcode(&self) -> Result<Vec<u8>> {
        let count = |n: usize, what: &str| {
            u16::try_from(n).map_err(|_| {
                Error::InvalidState(format!("bitcode: {n} {what} exceed the u16 encoding"))
            })
        };
        let mut out = Vec::with_capacity(64 + self.instrs.len() * 8);
        out.extend_from_slice(MAGIC);
        push_u16(&mut out, self.n_regs);
        push_u16(&mut out, count(self.consts.len(), "constants")?);
        for c in &self.consts {
            if let Value::Str(s) = c {
                count(s.len(), "string constant bytes")?;
            }
            encode_value(c, &mut out);
        }
        push_u16(&mut out, count(self.instrs.len(), "instructions")?);
        for ins in &self.instrs {
            encode_instr(ins, &mut out);
        }
        Ok(out)
    }

    /// Decode bitcode received inside an NDP descriptor.
    pub fn decode_bitcode(buf: &[u8]) -> Result<IrProgram> {
        if buf.len() < 4 || &buf[..4] != MAGIC {
            return Err(Error::Corruption("bad bitcode magic".into()));
        }
        let mut at = 4usize;
        let n_regs = read_u16(buf, &mut at)?;
        let n_consts = read_u16(buf, &mut at)? as usize;
        let mut consts = Vec::with_capacity(n_consts);
        for _ in 0..n_consts {
            consts.push(decode_value(buf, &mut at)?);
        }
        let n_instrs = read_u16(buf, &mut at)? as usize;
        let mut instrs = Vec::with_capacity(n_instrs);
        for _ in 0..n_instrs {
            instrs.push(decode_instr(buf, &mut at)?);
        }
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
            match *ins {
                IrInstr::LoadCol { dst, .. } => reg(dst)?,
                IrInstr::LoadConst { dst, idx } => {
                    reg(dst)?;
                    cst(idx)?;
                }
                IrInstr::Mov { dst, src } => {
                    reg(dst)?;
                    reg(src)?;
                }
                IrInstr::Cmp { dst, a, b, .. }
                | IrInstr::And { dst, a, b }
                | IrInstr::Or { dst, a, b }
                | IrInstr::Arith { dst, a, b, .. } => {
                    reg(dst)?;
                    reg(a)?;
                    reg(b)?;
                }
                IrInstr::Not { dst, a }
                | IrInstr::Neg { dst, a }
                | IrInstr::IsNull { dst, a, .. }
                | IrInstr::ExtractYear { dst, a }
                | IrInstr::Substr { dst, a, .. } => {
                    reg(dst)?;
                    reg(a)?;
                }
                IrInstr::Like {
                    dst, a, pattern, ..
                } => {
                    reg(dst)?;
                    reg(a)?;
                    cst(pattern)?;
                }
                IrInstr::InList {
                    dst,
                    a,
                    first,
                    count,
                    ..
                } => {
                    reg(dst)?;
                    reg(a)?;
                    if count == 0 || first as u32 + count as u32 > nc as u32 {
                        return Err(Error::Corruption("IN list out of const range".into()));
                    }
                }
                IrInstr::BrFalse { cond, target } | IrInstr::BrTrue { cond, target } => {
                    reg(cond)?;
                    tgt(target)?;
                }
                IrInstr::Jmp { target } => tgt(target)?,
                IrInstr::Ret { src } => reg(src)?,
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
            push_u16(out, dst);
            push_u16(out, col);
        }
        IrInstr::LoadConst { dst, idx } => {
            out.push(1);
            push_u16(out, dst);
            push_u16(out, idx);
        }
        IrInstr::Mov { dst, src } => {
            out.push(2);
            push_u16(out, dst);
            push_u16(out, src);
        }
        IrInstr::Cmp { op, dst, a, b } => {
            out.push(3);
            out.push(cmp_code(op));
            push_u16(out, dst);
            push_u16(out, a);
            push_u16(out, b);
        }
        IrInstr::And { dst, a, b } => {
            out.push(4);
            push_u16(out, dst);
            push_u16(out, a);
            push_u16(out, b);
        }
        IrInstr::Or { dst, a, b } => {
            out.push(5);
            push_u16(out, dst);
            push_u16(out, a);
            push_u16(out, b);
        }
        IrInstr::Not { dst, a } => {
            out.push(6);
            push_u16(out, dst);
            push_u16(out, a);
        }
        IrInstr::Arith { op, dst, a, b } => {
            out.push(7);
            out.push(arith_code(op));
            push_u16(out, dst);
            push_u16(out, a);
            push_u16(out, b);
        }
        IrInstr::Neg { dst, a } => {
            out.push(8);
            push_u16(out, dst);
            push_u16(out, a);
        }
        IrInstr::IsNull { dst, a, negated } => {
            out.push(9);
            out.push(negated as u8);
            push_u16(out, dst);
            push_u16(out, a);
        }
        IrInstr::Like {
            dst,
            a,
            pattern,
            negated,
        } => {
            out.push(10);
            out.push(negated as u8);
            push_u16(out, dst);
            push_u16(out, a);
            push_u16(out, pattern);
        }
        IrInstr::InList {
            dst,
            a,
            first,
            count,
            negated,
        } => {
            out.push(11);
            out.push(negated as u8);
            push_u16(out, dst);
            push_u16(out, a);
            push_u16(out, first);
            push_u16(out, count);
        }
        IrInstr::ExtractYear { dst, a } => {
            out.push(12);
            push_u16(out, dst);
            push_u16(out, a);
        }
        IrInstr::Substr { dst, a, from, len } => {
            out.push(13);
            push_u16(out, dst);
            push_u16(out, a);
            push_u16(out, from);
            push_u16(out, len);
        }
        IrInstr::BrFalse { cond, target } => {
            out.push(14);
            push_u16(out, cond);
            push_u16(out, target);
        }
        IrInstr::BrTrue { cond, target } => {
            out.push(15);
            push_u16(out, cond);
            push_u16(out, target);
        }
        IrInstr::Jmp { target } => {
            out.push(16);
            push_u16(out, target);
        }
        IrInstr::Ret { src } => {
            out.push(17);
            push_u16(out, src);
        }
    }
}

fn decode_instr(buf: &[u8], at: &mut usize) -> Result<IrInstr> {
    let err = || Error::Corruption("truncated bitcode instr".into());
    let op = *buf.get(*at).ok_or_else(err)?;
    *at += 1;
    let mut flag = 0u8;
    if matches!(op, 3 | 7 | 9 | 10 | 11) {
        flag = *buf.get(*at).ok_or_else(err)?;
        *at += 1;
    }
    Ok(match op {
        0 => IrInstr::LoadCol {
            dst: read_u16(buf, at)?,
            col: read_u16(buf, at)?,
        },
        1 => IrInstr::LoadConst {
            dst: read_u16(buf, at)?,
            idx: read_u16(buf, at)?,
        },
        2 => IrInstr::Mov {
            dst: read_u16(buf, at)?,
            src: read_u16(buf, at)?,
        },
        3 => IrInstr::Cmp {
            op: cmp_from(flag)?,
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
            b: read_u16(buf, at)?,
        },
        4 => IrInstr::And {
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
            b: read_u16(buf, at)?,
        },
        5 => IrInstr::Or {
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
            b: read_u16(buf, at)?,
        },
        6 => IrInstr::Not {
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
        },
        7 => IrInstr::Arith {
            op: arith_from(flag)?,
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
            b: read_u16(buf, at)?,
        },
        8 => IrInstr::Neg {
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
        },
        9 => IrInstr::IsNull {
            negated: flag != 0,
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
        },
        10 => IrInstr::Like {
            negated: flag != 0,
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
            pattern: read_u16(buf, at)?,
        },
        11 => IrInstr::InList {
            negated: flag != 0,
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
            first: read_u16(buf, at)?,
            count: read_u16(buf, at)?,
        },
        12 => IrInstr::ExtractYear {
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
        },
        13 => IrInstr::Substr {
            dst: read_u16(buf, at)?,
            a: read_u16(buf, at)?,
            from: read_u16(buf, at)?,
            len: read_u16(buf, at)?,
        },
        14 => IrInstr::BrFalse {
            cond: read_u16(buf, at)?,
            target: read_u16(buf, at)?,
        },
        15 => IrInstr::BrTrue {
            cond: read_u16(buf, at)?,
            target: read_u16(buf, at)?,
        },
        16 => IrInstr::Jmp {
            target: read_u16(buf, at)?,
        },
        17 => IrInstr::Ret {
            src: read_u16(buf, at)?,
        },
        other => return Err(Error::Corruption(format!("bad opcode {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            encode_value(v, &mut buf);
        }
        let mut at = 0;
        for v in &vals {
            assert_eq!(&decode_value(&buf, &mut at).unwrap(), v);
        }
        assert_eq!(at, buf.len());
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

    #[test]
    fn columns_used_deduplicates() {
        let p = sample_program();
        assert_eq!(p.columns_used(), vec![0, 1]);
    }
}
