//! Aggregation functions and partial-aggregation state (§V-C).
//!
//! NDP aggregation is *partial*: Page Stores fold visible rows into an
//! [`AggState`] attached to the group's last surviving record (the paper's
//! `((5,2), 9)` example), and the compute node merges partials — including
//! across PQ workers, where "AVG is computed by keeping SUM and COUNT
//! values per thread" (§III). AVG therefore never ships as a state of its
//! own: the planner decomposes it into SUM + COUNT and divides at finalize.
//! States serialize into the aggregate-record payload using the same value
//! encoding as the descriptor bitcode.

use taurus_common::{DataType, Dec, Error, Result, Value};

use crate::ir::{decode_value, encode_value};

/// Aggregate functions a descriptor can request. (AVG is decomposed by the
/// optimizer before it reaches a descriptor.)
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum AggFunc {
    /// COUNT(*) — counts rows, NULLs included.
    CountStar = 0,
    /// COUNT(col) — counts non-NULL inputs.
    Count = 1,
    Sum = 2,
    Min = 3,
    Max = 4,
}

impl AggFunc {
    pub fn from_u8(v: u8) -> Result<AggFunc> {
        Ok(match v {
            0 => AggFunc::CountStar,
            1 => AggFunc::Count,
            2 => AggFunc::Sum,
            3 => AggFunc::Min,
            4 => AggFunc::Max,
            other => return Err(Error::Corruption(format!("bad agg func {other}"))),
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// What an aggregate of a descriptor folds, per record: nothing (COUNT(*)
/// counts the record), one column's value, or the value of an IR program
/// (`crate::ir` bitcode) over the record. Column references are record
/// positions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AggInput {
    Star,
    Col(u16),
    Program(Vec<u8>),
}

/// One aggregate requested over a table access: the function and its
/// input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AggSpec {
    pub func: AggFunc,
    pub input: AggInput,
}

/// Encoded input kinds: one byte behind the function byte.
const INPUT_STAR: u8 = 0;
const INPUT_COL: u8 = 1;
const INPUT_PROGRAM: u8 = 2;

impl AggSpec {
    pub fn count_star() -> AggSpec {
        AggSpec {
            func: AggFunc::CountStar,
            input: AggInput::Star,
        }
    }

    /// `func` over the column at record position `col`.
    pub fn of_col(func: AggFunc, col: u16) -> AggSpec {
        AggSpec {
            func,
            input: AggInput::Col(col),
        }
    }

    pub fn sum(col: u16) -> AggSpec {
        AggSpec::of_col(AggFunc::Sum, col)
    }

    pub fn min(col: u16) -> AggSpec {
        AggSpec::of_col(AggFunc::Min, col)
    }

    pub fn max(col: u16) -> AggSpec {
        AggSpec::of_col(AggFunc::Max, col)
    }

    pub fn count(col: u16) -> AggSpec {
        AggSpec::of_col(AggFunc::Count, col)
    }

    /// The function byte, the input kind, then the column (`u16`) or the
    /// program (its `u16` length, then its bitcode).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.func as u8);
        match &self.input {
            AggInput::Star => out.push(INPUT_STAR),
            AggInput::Col(c) => {
                out.push(INPUT_COL);
                out.extend_from_slice(&c.to_le_bytes());
            }
            AggInput::Program(bc) => {
                out.push(INPUT_PROGRAM);
                out.extend_from_slice(&(bc.len() as u16).to_le_bytes());
                out.extend_from_slice(bc);
            }
        }
    }

    /// How many bytes the spec at `at` takes, by its kind and length
    /// fields alone (a descriptor's section walk; nothing is checked
    /// against the bytes' end).
    pub fn encoded_len(buf: &[u8], at: usize) -> Result<usize> {
        let err = || Error::Corruption("truncated agg spec".into());
        let u16_at = |i: usize| {
            buf.get(i..i + 2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
                .ok_or_else(err)
        };
        Ok(match *buf.get(at + 1).ok_or_else(err)? {
            INPUT_STAR => 2,
            INPUT_COL => 4,
            INPUT_PROGRAM => 4 + u16_at(at + 2)?,
            other => return Err(Error::Corruption(format!("bad agg input kind {other}"))),
        })
    }

    pub fn decode(buf: &[u8], at: &mut usize) -> Result<AggSpec> {
        let err = || Error::Corruption("truncated agg spec".into());
        let func = AggFunc::from_u8(*buf.get(*at).ok_or_else(err)?)?;
        let kind = *buf.get(*at + 1).ok_or_else(err)?;
        let len = AggSpec::encoded_len(buf, *at)?;
        let body = buf.get(*at + 2..*at + len).ok_or_else(err)?;
        *at += len;
        let input = match kind {
            INPUT_STAR => AggInput::Star,
            INPUT_COL => AggInput::Col(u16::from_le_bytes([body[0], body[1]])),
            _ => AggInput::Program(body[2..].to_vec()),
        };
        if (input == AggInput::Star) != (func == AggFunc::CountStar) {
            return Err(Error::Corruption(format!(
                "{} with input {input:?}",
                func.name()
            )));
        }
        Ok(AggSpec { func, input })
    }
}

/// Running state of one aggregate. Sums over integers and decimals share a
/// scaled-i128 representation so partial aggregation can never produce a
/// different result than compute-side aggregation (§V-B2's bit-match rule).
#[derive(Clone, Debug, PartialEq)]
pub enum AggState {
    Count(i64),
    SumDec { raw: i128, scale: u8, seen: bool },
    SumF64 { sum: f64, seen: bool },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    /// Fresh state for `func` over an input of type `dtype` (`None` for
    /// COUNT(*), and for an input whose type is left to its first value).
    pub fn new(func: AggFunc, dtype: Option<DataType>) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => match dtype {
                Some(DataType::Double) => AggState::SumF64 {
                    sum: 0.0,
                    seen: false,
                },
                Some(DataType::Decimal { scale, .. }) => AggState::SumDec {
                    raw: 0,
                    scale,
                    seen: false,
                },
                _ => AggState::SumDec {
                    raw: 0,
                    scale: 0,
                    seen: false,
                },
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold one input value in. For COUNT(*) callers pass `Value::Int(1)`.
    pub fn update(&mut self, v: &Value) {
        match self {
            AggState::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            // A sum typed by its first value (see `new`) that meets a
            // double sums doubles.
            AggState::SumDec { seen: false, .. } if matches!(v, Value::Double(_)) => {
                *self = AggState::SumF64 {
                    sum: 0.0,
                    seen: false,
                };
                self.update(v);
            }
            AggState::SumDec { raw, scale, seen } => {
                if let Ok(d) = v.as_dec() {
                    // Adopt a finer scale on first contact (generic
                    // executor aggregates start at scale 0).
                    if d.scale > *scale {
                        *raw = Dec {
                            raw: *raw,
                            scale: *scale,
                        }
                        .rescale(d.scale)
                        .raw;
                        *scale = d.scale;
                    }
                    *raw += d.rescale(*scale).raw;
                    *seen = true;
                }
            }
            AggState::SumF64 { sum, seen } => {
                if let Ok(x) = v.as_f64() {
                    *sum += x;
                    *seen = true;
                }
            }
            AggState::Min(cur) => {
                if !v.is_null()
                    && cur
                        .as_ref()
                        .map(|c| v.cmp_sql(c) == Some(std::cmp::Ordering::Less))
                        .unwrap_or(true)
                {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                if !v.is_null()
                    && cur
                        .as_ref()
                        .map(|c| v.cmp_sql(c) == Some(std::cmp::Ordering::Greater))
                        .unwrap_or(true)
                {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    /// Merge another partial state (Page Store partial, PQ worker partial).
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::SumDec {
                    raw: a,
                    scale: sa,
                    seen: za,
                },
                AggState::SumDec {
                    raw: b,
                    scale: sb,
                    seen: zb,
                },
            ) => {
                // Align scales (PQ workers may have seen different inputs).
                if *sb > *sa {
                    *a = Dec {
                        raw: *a,
                        scale: *sa,
                    }
                    .rescale(*sb)
                    .raw;
                    *sa = *sb;
                }
                let b_aligned = Dec {
                    raw: *b,
                    scale: *sb,
                }
                .rescale(*sa)
                .raw;
                *a += b_aligned;
                *za |= zb;
            }
            (AggState::SumF64 { sum: a, seen: za }, AggState::SumF64 { sum: b, seen: zb }) => {
                *a += b;
                *za |= zb;
            }
            // A sum that has seen no value is the identity, whichever kind
            // it is: a state typed by its first value (see `new`) that met
            // none is still a `SumDec`, while its peer may be typed a
            // double by its input's type.
            (AggState::SumF64 { .. }, AggState::SumDec { seen: false, .. })
            | (AggState::SumDec { .. }, AggState::SumF64 { seen: false, .. }) => {}
            (a @ AggState::SumDec { seen: false, .. }, b @ AggState::SumF64 { .. }) => {
                *a = b.clone();
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(v) = b {
                    if a.as_ref()
                        .map(|c| v.cmp_sql(c) == Some(std::cmp::Ordering::Less))
                        .unwrap_or(true)
                    {
                        *a = Some(v.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref()
                        .map(|c| v.cmp_sql(c) == Some(std::cmp::Ordering::Greater))
                        .unwrap_or(true)
                    {
                        *a = Some(v.clone());
                    }
                }
            }
            (a, b) => {
                return Err(Error::Internal(format!(
                    "merging mismatched aggregate states {a:?} vs {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Final SQL value.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n),
            AggState::SumDec { raw, scale, seen } => {
                if *seen {
                    if *scale == 0 && i64::try_from(*raw).is_ok() {
                        Value::Int(*raw as i64)
                    } else {
                        Value::Decimal(Dec {
                            raw: *raw,
                            scale: *scale,
                        })
                    }
                } else {
                    Value::Null
                }
            }
            AggState::SumF64 { sum, seen } => {
                if *seen {
                    Value::Double(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }

    // --- payload serialization (aggregate-record suffix) -------------------

    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AggState::Count(n) => {
                out.push(0);
                out.extend_from_slice(&n.to_le_bytes());
            }
            AggState::SumDec { raw, scale, seen } => {
                out.push(1);
                out.extend_from_slice(&raw.to_le_bytes());
                out.push(*scale);
                out.push(*seen as u8);
            }
            AggState::SumF64 { sum, seen } => {
                out.push(2);
                out.extend_from_slice(&sum.to_bits().to_le_bytes());
                out.push(*seen as u8);
            }
            AggState::Min(v) => {
                out.push(3);
                encode_value(&v.clone().unwrap_or(Value::Null), out);
            }
            AggState::Max(v) => {
                out.push(4);
                encode_value(&v.clone().unwrap_or(Value::Null), out);
            }
        }
    }

    pub fn decode(buf: &[u8], at: &mut usize) -> Result<AggState> {
        let err = || Error::Corruption("truncated agg state".into());
        let tag = *buf.get(*at).ok_or_else(err)?;
        *at += 1;
        Ok(match tag {
            0 => {
                let n =
                    i64::from_le_bytes(buf.get(*at..*at + 8).ok_or_else(err)?.try_into().unwrap());
                *at += 8;
                AggState::Count(n)
            }
            1 => {
                let raw = i128::from_le_bytes(
                    buf.get(*at..*at + 16).ok_or_else(err)?.try_into().unwrap(),
                );
                *at += 16;
                let scale = *buf.get(*at).ok_or_else(err)?;
                let seen = *buf.get(*at + 1).ok_or_else(err)? != 0;
                *at += 2;
                AggState::SumDec { raw, scale, seen }
            }
            2 => {
                let bits =
                    u64::from_le_bytes(buf.get(*at..*at + 8).ok_or_else(err)?.try_into().unwrap());
                *at += 8;
                let seen = *buf.get(*at).ok_or_else(err)? != 0;
                *at += 1;
                AggState::SumF64 {
                    sum: f64::from_bits(bits),
                    seen,
                }
            }
            3 => {
                let v = decode_value(buf, at)?;
                AggState::Min(if v.is_null() { None } else { Some(v) })
            }
            4 => {
                let v = decode_value(buf, at)?;
                AggState::Max(if v.is_null() { None } else { Some(v) })
            }
            other => return Err(Error::Corruption(format!("bad agg state tag {other}"))),
        })
    }
}

/// Serialize a full set of partial states (one aggregate record payload),
/// appended to `out`.
pub fn encode_states(states: &[AggState], out: &mut Vec<u8>) {
    out.push(states.len() as u8);
    for s in states {
        s.encode(out);
    }
}

/// Decode a payload written by [`encode_states`].
pub fn decode_states(buf: &[u8]) -> Result<Vec<AggState>> {
    let err = || Error::Corruption("truncated agg payload".into());
    let n = *buf.first().ok_or_else(err)? as usize;
    let mut at = 1usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(AggState::decode(buf, &mut at)?);
    }
    if at != buf.len() {
        return Err(Error::Corruption("trailing bytes in agg payload".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(s: &str) -> Value {
        Value::Decimal(Dec::parse(s).unwrap())
    }

    #[test]
    fn paper_example_page_p1() {
        // §V-C: P1 = {(1,2),(2,10)?,(3,7),(4,8)?,(5,2)}; visible rows
        // 2 + 7 + 2, with the sum attached to the last visible record.
        let mut st = AggState::new(AggFunc::Sum, Some(DataType::BigInt));
        for v in [2i64, 7, 2] {
            st.update(&Value::Int(v));
        }
        // Paper folds all-but-last then attaches to the last record; the
        // arithmetic is the same either way: 2 + 7 + 2 = 11... the paper's
        // "9" excludes the carrier record's own value (2), which is added
        // when the carrier row itself is consumed. Both conventions agree
        // on the final result; we fold everything into the payload.
        assert_eq!(st.finalize(), Value::Int(11));
    }

    #[test]
    fn cross_page_merge_matches_paper_numbers() {
        // §V-C cross-page example: NDP(P1) partial = 2+7+2 = 11,
        // NDP(P2) partial = 10+5+9 = 24, total visible sum = 35.
        let mut p1 = AggState::new(AggFunc::Sum, Some(DataType::BigInt));
        for v in [2i64, 7, 2] {
            p1.update(&Value::Int(v));
        }
        let mut p2 = AggState::new(AggFunc::Sum, Some(DataType::BigInt));
        for v in [10i64, 5, 9] {
            p2.update(&Value::Int(v));
        }
        p1.merge(&p2).unwrap();
        assert_eq!(p1.finalize(), Value::Int(35));
    }

    #[test]
    fn count_star_vs_count_nulls() {
        let mut star = AggState::new(AggFunc::CountStar, None);
        let mut cnt = AggState::new(AggFunc::Count, Some(DataType::Int));
        for v in [Value::Int(1), Value::Null, Value::Int(3)] {
            star.update(&Value::Int(1)); // row counter
            cnt.update(&v);
        }
        assert_eq!(star.finalize(), Value::Int(3));
        assert_eq!(cnt.finalize(), Value::Int(2));
    }

    #[test]
    fn sum_decimal_scale_preserved() {
        let mut st = AggState::new(
            AggFunc::Sum,
            Some(DataType::Decimal {
                precision: 15,
                scale: 2,
            }),
        );
        st.update(&dec("1.25"));
        st.update(&dec("2.50"));
        st.update(&Value::Null);
        assert_eq!(st.finalize(), dec("3.75"));
    }

    #[test]
    fn sum_of_nothing_is_null() {
        let st = AggState::new(
            AggFunc::Sum,
            Some(DataType::Decimal {
                precision: 15,
                scale: 2,
            }),
        );
        assert_eq!(st.finalize(), Value::Null);
    }

    #[test]
    fn min_max_with_merge() {
        let mut mn = AggState::new(AggFunc::Min, Some(DataType::Varchar(10)));
        let mut mx = AggState::new(AggFunc::Max, Some(DataType::Varchar(10)));
        for s in ["pear", "apple", "melon"] {
            mn.update(&Value::str(s));
            mx.update(&Value::str(s));
        }
        let mut mn2 = AggState::new(AggFunc::Min, Some(DataType::Varchar(10)));
        mn2.update(&Value::str("aardvark"));
        mn.merge(&mn2).unwrap();
        assert_eq!(mn.finalize(), Value::str("aardvark"));
        assert_eq!(mx.finalize(), Value::str("pear"));
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = AggState::Count(1);
        let b = AggState::Min(None);
        assert!(a.merge(&b).is_err());
        // Different scales now align instead of erroring.
        let mut s1 = AggState::SumDec {
            raw: 150,
            scale: 2,
            seen: true,
        };
        let s2 = AggState::SumDec {
            raw: 25000,
            scale: 4,
            seen: true,
        };
        s1.merge(&s2).unwrap();
        assert_eq!(s1.finalize(), Value::Decimal(Dec::parse("4.0000").unwrap()));
    }

    /// A sum typed by its first value that met none merges with a sum
    /// typed a double, in either direction, and a sum that met a value
    /// is never replaced.
    #[test]
    fn unseen_sums_merge_as_identity_across_kinds() {
        let untyped = AggState::new(AggFunc::Sum, None);
        let mut doubles = AggState::new(AggFunc::Sum, Some(DataType::Double));
        doubles.update(&Value::Double(1.5));
        let mut a = doubles.clone();
        a.merge(&untyped).unwrap();
        assert_eq!(a, doubles);
        let mut b = untyped.clone();
        b.merge(&doubles).unwrap();
        assert_eq!(b, doubles);
        let mut empty = AggState::new(AggFunc::Sum, Some(DataType::Double));
        empty.merge(&untyped).unwrap();
        assert_eq!(empty.finalize(), Value::Null);
        let mut ints = AggState::new(AggFunc::Sum, None);
        ints.update(&Value::Int(2));
        let before = ints.clone();
        ints.merge(&AggState::new(AggFunc::Sum, Some(DataType::Double)))
            .unwrap();
        assert_eq!(ints, before);
        assert!(ints.clone().merge(&doubles).is_err(), "seen on both sides");
    }

    #[test]
    fn payload_roundtrip() {
        let states = vec![
            AggState::Count(42),
            AggState::SumDec {
                raw: 123456,
                scale: 2,
                seen: true,
            },
            AggState::SumF64 {
                sum: 2.5,
                seen: true,
            },
            AggState::Min(Some(Value::str("ACME"))),
            AggState::Max(None),
        ];
        let mut buf = Vec::new();
        encode_states(&states, &mut buf);
        assert_eq!(decode_states(&buf).unwrap(), states);
        assert!(decode_states(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn agg_spec_roundtrip() {
        let specs = [
            AggSpec::count_star(),
            AggSpec::sum(5),
            AggSpec::min(0),
            AggSpec::max(9),
            AggSpec::count(2),
            AggSpec {
                func: AggFunc::Sum,
                input: AggInput::Program(vec![7, 8, 9]),
            },
        ];
        let mut buf = Vec::new();
        for s in &specs {
            let at = buf.len();
            s.encode(&mut buf);
            assert_eq!(AggSpec::encoded_len(&buf, at).unwrap(), buf.len() - at);
        }
        let mut at = 0;
        for s in &specs {
            assert_eq!(&AggSpec::decode(&buf, &mut at).unwrap(), s);
        }
        assert_eq!(at, buf.len());
        for cut in 0..buf.len() {
            let mut at = 0;
            let whole = (0..specs.len()).all(|_| AggSpec::decode(&buf[..cut], &mut at).is_ok());
            assert!(!whole, "{cut}");
        }
    }

    #[test]
    fn agg_spec_refuses_inputs_its_function_cannot_take() {
        for (func, input) in [
            (AggFunc::Sum, AggInput::Star),
            (AggFunc::CountStar, AggInput::Col(1)),
        ] {
            let mut buf = Vec::new();
            AggSpec { func, input }.encode(&mut buf);
            assert!(matches!(
                AggSpec::decode(&buf, &mut 0),
                Err(Error::Corruption(_))
            ));
        }
        assert!(
            AggSpec::decode(&[2, 9, 0, 0], &mut 0).is_err(),
            "unknown kind"
        );
    }
}
