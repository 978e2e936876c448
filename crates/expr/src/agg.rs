//! Aggregation functions and partial-aggregation state (§V-C).
//!
//! NDP aggregation is *partial*: Page Stores fold visible rows into an
//! [`AggState`] attached to the group's last surviving record (the paper's
//! `((5,2), 9)` example), and the compute node merges partials — including
//! across PQ workers, where "AVG is computed by keeping SUM and COUNT
//! values per thread" (§III). AVG therefore has no function or state of its
//! own: the SQL binder writes it as a SUM and a COUNT of its input and
//! divides them above the aggregation.
//! States serialize into the aggregate-record payload using the same value
//! layout as the descriptor bitcode (`taurus_common::codec`, `u16` string
//! lengths).

use std::cmp::Ordering;

use taurus_common::codec::{
    put_bytes16, put_f64, put_flag, put_i128, put_i64, put_u16, put_u8, put_value16, Cursor,
};
use taurus_common::{DataType, Dec, Error, Result, Value};

use crate::vm::{slot_cmp, slot_value, value_slot, Slot};

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

    /// The type of what [`AggState::finalize`] gives over inputs of type
    /// `input` (`None`: not known), where the input fixes it. A sum at
    /// scale 0 finalizes as an integer (one past `i64` fails).
    pub fn output_type(self, input: Option<DataType>) -> Option<DataType> {
        match (self, input) {
            (AggFunc::CountStar | AggFunc::Count, _) => Some(DataType::BigInt),
            (AggFunc::Sum, Some(DataType::Int | DataType::BigInt))
            | (AggFunc::Sum, Some(DataType::Decimal { scale: 0, .. })) => Some(DataType::BigInt),
            (AggFunc::Sum, Some(d @ (DataType::Decimal { .. } | DataType::Double))) => Some(d),
            (AggFunc::Sum, _) => None,
            (AggFunc::Min | AggFunc::Max, input) => input,
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
    /// program (its `u16` length, then its bitcode). A program past the
    /// `u16` length is a typed error.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        put_u8(out, self.func as u8);
        match &self.input {
            AggInput::Star => put_u8(out, INPUT_STAR),
            AggInput::Col(c) => {
                put_u8(out, INPUT_COL);
                put_u16(out, *c);
            }
            AggInput::Program(bc) => {
                put_u8(out, INPUT_PROGRAM);
                put_bytes16(out, bc, "aggregate input program bytes")?;
            }
        }
        Ok(())
    }

    /// Step over one spec by its kind and length fields alone (a
    /// descriptor's section walk).
    pub fn skip(cur: &mut Cursor<'_>) -> Result<()> {
        cur.u8()?;
        match cur.u8()? {
            INPUT_STAR => {}
            INPUT_COL => {
                cur.u16()?;
            }
            INPUT_PROGRAM => {
                cur.bytes16()?;
            }
            other => return Err(Error::Corruption(format!("bad agg input kind {other}"))),
        }
        Ok(())
    }

    pub fn decode(cur: &mut Cursor<'_>) -> Result<AggSpec> {
        let func = AggFunc::from_u8(cur.u8()?)?;
        let input = match cur.u8()? {
            INPUT_STAR => AggInput::Star,
            INPUT_COL => AggInput::Col(cur.u16()?),
            INPUT_PROGRAM => AggInput::Program(cur.bytes16()?.to_vec()),
            other => return Err(Error::Corruption(format!("bad agg input kind {other}"))),
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

/// Add `d` to a decimal sum, adopting a finer scale on first contact
/// (generic executor aggregates start at scale 0).
#[inline]
fn sum_dec(raw: &mut i128, scale: &mut u8, seen: &mut bool, d: Dec) {
    if d.scale == *scale {
        *raw += d.raw;
        *seen = true;
        return;
    }
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

/// A MIN's or MAX's fold of register `s`: it replaces the extreme `cur`
/// holds when it compares `beats` it (or `cur` holds none), as
/// [`AggState::update`] folds its value; a NULL never does. The value is
/// built only then.
#[inline]
fn replace_extreme(cur: &mut Option<Value>, s: &Slot<'_>, beats: Ordering) {
    if matches!(s, Slot::Null) {
        return;
    }
    let replaces = match cur {
        None => true,
        Some(c) => slot_cmp(s, &value_slot(c)) == Some(beats),
    };
    if replaces {
        *cur = Some(slot_value(*s));
    }
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
            // What `Value::as_dec` takes: a decimal or an integer.
            AggState::SumDec { raw, scale, seen } => match v {
                Value::Decimal(d) => sum_dec(raw, scale, seen, *d),
                Value::Int(x) => sum_dec(raw, scale, seen, Dec::from_int(*x)),
                _ => {}
            },
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

    /// [`AggState::update`] with the value a VM register holds: the same
    /// fold, with no [`Value`] built for a count or a sum, and for a MIN
    /// or MAX only when the register replaces the extreme it holds.
    pub(crate) fn update_slot(&mut self, s: &Slot<'_>) {
        match (self, s) {
            (AggState::Count(n), s) => {
                if !matches!(s, Slot::Null) {
                    *n += 1;
                }
            }
            (AggState::SumDec { raw, scale, seen }, Slot::Dec(r, s)) => {
                sum_dec(raw, scale, seen, Dec::new(*r, *s))
            }
            (AggState::SumDec { raw, scale, seen }, Slot::Int(x)) => {
                sum_dec(raw, scale, seen, Dec::from_int(*x))
            }
            (AggState::SumF64 { sum, seen }, Slot::F64(x)) => {
                *sum += x;
                *seen = true;
            }
            (AggState::SumDec { .. } | AggState::SumF64 { .. }, Slot::Null) => {}
            (AggState::Min(cur), s) => replace_extreme(cur, s, Ordering::Less),
            (AggState::Max(cur), s) => replace_extreme(cur, s, Ordering::Greater),
            (state, s) => state.update(&slot_value(*s)),
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

    /// Final SQL value, of the type [`AggFunc::output_type`] gives: a sum
    /// at scale 0 is an integer, and one past `i64` the integer overflow
    /// integer arithmetic fails with.
    pub fn finalize(&self) -> Result<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int(*n),
            AggState::SumDec { seen: false, .. } | AggState::SumF64 { seen: false, .. } => {
                Value::Null
            }
            AggState::SumDec { raw, scale: 0, .. } => Value::Int(
                i64::try_from(*raw).map_err(|_| Error::Arithmetic("integer overflow".into()))?,
            ),
            AggState::SumDec { raw, scale, .. } => Value::Decimal(Dec {
                raw: *raw,
                scale: *scale,
            }),
            AggState::SumF64 { sum, .. } => Value::Double(*sum),
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        })
    }

    // --- payload serialization (aggregate-record suffix) -------------------

    /// A kind tag, then the state; a MIN/MAX string past the `u16` length
    /// is a typed error.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                put_u8(out, 0);
                put_i64(out, *n);
            }
            AggState::SumDec { raw, scale, seen } => {
                put_u8(out, 1);
                put_i128(out, *raw);
                put_u8(out, *scale);
                put_flag(out, *seen);
            }
            AggState::SumF64 { sum, seen } => {
                put_u8(out, 2);
                put_f64(out, *sum);
                put_flag(out, *seen);
            }
            AggState::Min(v) => {
                put_u8(out, 3);
                put_value16(out, v.as_ref().unwrap_or(&Value::Null))?;
            }
            AggState::Max(v) => {
                put_u8(out, 4);
                put_value16(out, v.as_ref().unwrap_or(&Value::Null))?;
            }
        }
        Ok(())
    }

    pub fn decode(cur: &mut Cursor<'_>) -> Result<AggState> {
        let extreme = |v: Value| if v.is_null() { None } else { Some(v) };
        Ok(match cur.u8()? {
            0 => AggState::Count(cur.i64()?),
            1 => AggState::SumDec {
                raw: cur.i128()?,
                scale: cur.u8()?,
                seen: cur.flag()?,
            },
            2 => AggState::SumF64 {
                sum: cur.f64()?,
                seen: cur.flag()?,
            },
            3 => AggState::Min(extreme(cur.value16()?)),
            4 => AggState::Max(extreme(cur.value16()?)),
            other => return Err(Error::Corruption(format!("bad agg state tag {other}"))),
        })
    }
}

/// Serialize a full set of partial states (one aggregate record payload),
/// appended to `out`: a `u8` count, then the states. More than 255
/// states, or a state [`AggState::encode`] refuses, is a typed error.
pub fn encode_states(states: &[AggState], out: &mut Vec<u8>) -> Result<()> {
    let n = u8::try_from(states.len()).map_err(|_| {
        Error::InvalidState(format!(
            "{} aggregate states exceed the u8 encoding",
            states.len()
        ))
    })?;
    put_u8(out, n);
    states.iter().try_for_each(|s| s.encode(out))
}

/// Decode a payload written by [`encode_states`]: all of `buf`.
pub fn decode_states(buf: &[u8]) -> Result<Vec<AggState>> {
    let mut cur = Cursor::new(buf);
    let n = cur.u8()?;
    let out = cur.list(n as usize, AggState::decode)?;
    cur.done()?;
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
        assert_eq!(st.finalize().unwrap(), Value::Int(11));
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
        assert_eq!(p1.finalize().unwrap(), Value::Int(35));
    }

    #[test]
    fn count_star_vs_count_nulls() {
        let mut star = AggState::new(AggFunc::CountStar, None);
        let mut cnt = AggState::new(AggFunc::Count, Some(DataType::Int));
        for v in [Value::Int(1), Value::Null, Value::Int(3)] {
            star.update(&Value::Int(1)); // row counter
            cnt.update(&v);
        }
        assert_eq!(star.finalize().unwrap(), Value::Int(3));
        assert_eq!(cnt.finalize().unwrap(), Value::Int(2));
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
        assert_eq!(st.finalize().unwrap(), dec("3.75"));
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
        assert_eq!(st.finalize().unwrap(), Value::Null);
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
        assert_eq!(mn.finalize().unwrap(), Value::str("aardvark"));
        assert_eq!(mx.finalize().unwrap(), Value::str("pear"));
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
        assert_eq!(
            s1.finalize().unwrap(),
            Value::Decimal(Dec::parse("4.0000").unwrap())
        );
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
        assert_eq!(empty.finalize().unwrap(), Value::Null);
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
        encode_states(&states, &mut buf).unwrap();
        assert_eq!(decode_states(&buf).unwrap(), states);
        assert!(decode_states(&buf[..buf.len() - 1]).is_err());
    }

    /// `seen` is a flag byte (0 or 1).
    #[test]
    fn seen_flags_are_strict() {
        for state in [
            AggState::SumDec {
                raw: 5,
                scale: 1,
                seen: true,
            },
            AggState::SumF64 {
                sum: 1.0,
                seen: false,
            },
        ] {
            let mut buf = Vec::new();
            encode_states(std::slice::from_ref(&state), &mut buf).unwrap();
            assert_eq!(decode_states(&buf).unwrap(), std::slice::from_ref(&state));
            let last = buf.len() - 1;
            buf[last] = 2;
            assert!(
                matches!(decode_states(&buf), Err(Error::Corruption(_))),
                "{state:?}"
            );
        }
    }

    /// Counts and lengths past their width are typed errors, not wraps.
    #[test]
    fn oversize_states_and_programs_fail_closed() {
        let mut buf = Vec::new();
        let many = vec![AggState::Count(1); 256];
        assert!(matches!(
            encode_states(&many, &mut buf),
            Err(Error::InvalidState(_))
        ));
        encode_states(&many[..255], &mut buf).unwrap();
        assert_eq!(decode_states(&buf).unwrap().len(), 255);
        let long = Value::str("x".repeat(70_000));
        for state in [AggState::Min(Some(long.clone())), AggState::Max(Some(long))] {
            assert!(matches!(
                encode_states(&[state], &mut Vec::new()),
                Err(Error::InvalidState(_))
            ));
        }
        let program = AggSpec {
            func: AggFunc::Sum,
            input: AggInput::Program(vec![0; 70_000]),
        };
        assert!(matches!(
            program.encode(&mut Vec::new()),
            Err(Error::InvalidState(_))
        ));
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
            s.encode(&mut buf).unwrap();
        }
        let mut walk = Cursor::new(&buf);
        let mut cur = Cursor::new(&buf);
        for s in &specs {
            AggSpec::skip(&mut walk).unwrap();
            assert_eq!(&AggSpec::decode(&mut cur).unwrap(), s);
            assert_eq!(walk.pos(), cur.pos());
        }
        cur.done().unwrap();
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            let whole = (0..specs.len()).all(|_| AggSpec::decode(&mut cur).is_ok());
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
            AggSpec { func, input }.encode(&mut buf).unwrap();
            assert!(matches!(
                AggSpec::decode(&mut Cursor::new(&buf)),
                Err(Error::Corruption(_))
            ));
        }
        assert!(
            AggSpec::decode(&mut Cursor::new(&[2, 9, 0, 0])).is_err(),
            "unknown kind"
        );
    }
}
