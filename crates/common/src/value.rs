//! SQL values, data types, and their binary encodings.
//!
//! The set of types is exactly what TPC-H plus the paper's examples need:
//! integers, fixed-point decimals, dates, fixed/variable-length strings and
//! doubles. Decimals are the workhorse (`l_extendedprice * (1 - l_discount)`
//! style arithmetic) and are implemented as a scaled `i128` so partial
//! aggregation in Page Stores can never overflow what the compute node
//! would have produced — the paper's §V-B2 correctness requirement that
//! storage-side evaluation bit-match compute-side evaluation.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};

/// Column data type. Fixed-width types report `Some(width)` from
/// [`DataType::fixed_width`]; `Varchar` is the only variable-width type and
/// its byte length is stored in the record header (see `taurus-page`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataType {
    /// 32-bit signed integer (stored as 4 bytes).
    Int,
    /// 64-bit signed integer (stored as 8 bytes).
    BigInt,
    /// Fixed-point decimal with the given scale, stored as a scaled i64.
    Decimal { precision: u8, scale: u8 },
    /// Days since 1970-01-01, stored as 4 bytes.
    Date,
    /// Fixed-length character string, space padded to `n` bytes.
    Char(u16),
    /// Variable-length string with maximum length `n`.
    Varchar(u16),
    /// IEEE-754 double.
    Double,
}

impl DataType {
    /// On-disk width for fixed-width types; `None` for `Varchar`.
    pub fn fixed_width(&self) -> Option<usize> {
        match self {
            DataType::Int => Some(4),
            DataType::BigInt => Some(8),
            DataType::Decimal { .. } => Some(8),
            DataType::Date => Some(4),
            DataType::Char(n) => Some(*n as usize),
            DataType::Varchar(_) => None,
            DataType::Double => Some(8),
        }
    }

    /// Average width used by the optimizer's projection-benefit estimate
    /// (§V-A: fixed widths from the dictionary, average width from stats
    /// for variable columns — we use half the declared max as the default
    /// prior before real stats are collected).
    pub fn estimated_width(&self) -> usize {
        match self {
            DataType::Varchar(n) => (*n as usize) / 2 + 1,
            other => other.fixed_width().unwrap(),
        }
    }

    /// Compact tag used when serializing descriptors.
    pub fn tag(&self) -> u8 {
        match self {
            DataType::Int => 0,
            DataType::BigInt => 1,
            DataType::Decimal { .. } => 2,
            DataType::Date => 3,
            DataType::Char(_) => 4,
            DataType::Varchar(_) => 5,
            DataType::Double => 6,
        }
    }
}

/// Fixed-point decimal: `raw * 10^-scale`.
///
/// Arithmetic follows MySQL-ish rules: add/sub align to the larger scale,
/// multiply adds scales, divide extends the scale by 4. All intermediates
/// are i128 so TPC-H SUM() aggregates cannot overflow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Dec {
    pub raw: i128,
    pub scale: u8,
}

const POW10: [i128; 31] = {
    let mut t = [1i128; 31];
    let mut i = 1;
    while i < 31 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// The finest scale decimal arithmetic produces: what `POW10` can rescale
/// to.
pub const DEC_MAX_SCALE: u8 = 30;

fn dec_overflow() -> Error {
    Error::Arithmetic("decimal overflow".into())
}

/// `a * b` unless it overflows. Raws that fit in `i64` (every decimal
/// column and most results) cannot, and skip the 128-bit overflow check.
fn mul_raw(a: i128, b: i128) -> Option<i128> {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => Some(a as i128 * b as i128),
        _ => a.checked_mul(b),
    }
}

fn dec_or_overflow(raw: Option<i128>, scale: u8) -> Result<Dec> {
    raw.map(|raw| Dec { raw, scale }).ok_or_else(dec_overflow)
}

impl Dec {
    pub fn new(raw: i128, scale: u8) -> Self {
        Dec { raw, scale }
    }

    pub fn from_int(v: i64) -> Self {
        Dec {
            raw: v as i128,
            scale: 0,
        }
    }

    /// Parse `-123.45` style literals.
    pub fn parse(s: &str) -> Result<Self> {
        let s = s.trim();
        let (neg, s) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let (int_part, frac_part) = match s.split_once('.') {
            Some((i, f)) => (i, f),
            None => (s, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(Error::Parse(format!("bad decimal: {s:?}")));
        }
        let mut raw: i128 = 0;
        for c in int_part.chars().chain(frac_part.chars()) {
            let d = c
                .to_digit(10)
                .ok_or_else(|| Error::Parse(format!("bad decimal digit {c:?}")))?;
            raw = raw * 10 + d as i128;
        }
        if neg {
            raw = -raw;
        }
        Ok(Dec {
            raw,
            scale: frac_part.len() as u8,
        })
    }

    /// Rescale to `scale`, truncating toward zero if narrowing.
    pub fn rescale(self, scale: u8) -> Self {
        match scale.cmp(&self.scale) {
            Ordering::Equal => self,
            Ordering::Greater => Dec {
                raw: self.raw * POW10[(scale - self.scale) as usize],
                scale,
            },
            Ordering::Less => Dec {
                raw: self.raw / POW10[(self.scale - scale) as usize],
                scale,
            },
        }
    }

    fn align(a: Dec, b: Dec) -> (i128, i128, u8) {
        let scale = a.scale.max(b.scale);
        (a.rescale(scale).raw, b.rescale(scale).raw, scale)
    }

    pub fn add(self, o: Dec) -> Dec {
        let (a, b, s) = Dec::align(self, o);
        Dec {
            raw: a + b,
            scale: s,
        }
    }

    pub fn sub(self, o: Dec) -> Dec {
        let (a, b, s) = Dec::align(self, o);
        Dec {
            raw: a - b,
            scale: s,
        }
    }

    pub fn mul(self, o: Dec) -> Dec {
        Dec {
            raw: self.raw * o.raw,
            scale: self.scale + o.scale,
        }
    }

    /// Division extends the dividend scale by 4 digits (MySQL's
    /// `div_precision_increment` default).
    pub fn div(self, o: Dec) -> Result<Dec> {
        if o.raw == 0 {
            return Err(Error::Arithmetic("decimal division by zero".into()));
        }
        let target = self.scale + 4;
        let num = self.raw * POW10[(target - self.scale + o.scale) as usize];
        Ok(Dec {
            raw: num / o.raw,
            scale: target,
        })
    }

    pub fn neg(self) -> Dec {
        Dec {
            raw: -self.raw,
            scale: self.scale,
        }
    }

    // The `checked_*` forms are SQL arithmetic as the expression
    // evaluators run it: a result whose scale passes [`DEC_MAX_SCALE`] or
    // whose raw value leaves `i128` is an `Error::Arithmetic` rather than
    // a wrapped value or a panic, so every evaluator fails the same row
    // the same way.

    pub fn checked_add(self, o: Dec) -> Result<Dec> {
        let (a, b, scale) = Dec::checked_align(self, o)?;
        dec_or_overflow(a.checked_add(b), scale)
    }

    pub fn checked_sub(self, o: Dec) -> Result<Dec> {
        let (a, b, scale) = Dec::checked_align(self, o)?;
        dec_or_overflow(a.checked_sub(b), scale)
    }

    pub fn checked_mul(self, o: Dec) -> Result<Dec> {
        let scale = self.scale as usize + o.scale as usize;
        if scale > DEC_MAX_SCALE as usize {
            return Err(dec_overflow());
        }
        dec_or_overflow(mul_raw(self.raw, o.raw), scale as u8)
    }

    pub fn checked_div(self, o: Dec) -> Result<Dec> {
        if o.raw == 0 {
            return Err(Error::Arithmetic("decimal division by zero".into()));
        }
        if self.scale.max(o.scale) as usize + 4 > DEC_MAX_SCALE as usize {
            return Err(dec_overflow());
        }
        let num = mul_raw(self.raw, POW10[4 + o.scale as usize]);
        dec_or_overflow(num.and_then(|n| n.checked_div(o.raw)), self.scale + 4)
    }

    fn checked_align(a: Dec, b: Dec) -> Result<(i128, i128, u8)> {
        let scale = a.scale.max(b.scale);
        if scale > DEC_MAX_SCALE {
            return Err(dec_overflow());
        }
        let up = |d: Dec| match scale - d.scale {
            0 => Some(d.raw),
            by => mul_raw(d.raw, POW10[by as usize]),
        };
        match (up(a), up(b)) {
            (Some(a), Some(b)) => Ok((a, b, scale)),
            _ => Err(dec_overflow()),
        }
    }

    /// Total order across scales, *without* the silent wrap `align` would
    /// risk: upscaling multiplies the raw value by up to 10^30, which can
    /// exceed `i128`. If the upscale of one side overflows, that side's
    /// magnitude provably exceeds any representable value of the other,
    /// so its sign decides the ordering. The vector kernels' deferral
    /// path and the scalar VM both land here, keeping the two evaluators
    /// bit-identical even on extreme operands.
    pub fn cmp_dec(self, o: Dec) -> Ordering {
        let scale = self.scale.max(o.scale);
        let up = |d: Dec| match scale - d.scale {
            0 => Some(d.raw),
            by => mul_raw(d.raw, POW10[by as usize]),
        };
        match (up(self), up(o)) {
            (Some(a), Some(b)) => a.cmp(&b),
            // `self` overflowed: |self| > i128::MAX ≥ |b upscaled|.
            (None, _) => {
                if self.raw > 0 {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (_, None) => {
                if o.raw > 0 {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
        }
    }

    pub fn to_f64(self) -> f64 {
        self.raw as f64 / POW10[self.scale as usize] as f64
    }

    pub fn is_zero(self) -> bool {
        self.raw == 0
    }
}

impl fmt::Display for Dec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.raw);
        }
        let p = POW10[self.scale as usize];
        let neg = self.raw < 0;
        let abs = self.raw.unsigned_abs();
        let int = abs / p.unsigned_abs();
        let frac = abs % p.unsigned_abs();
        if neg {
            write!(f, "-")?;
        }
        write!(f, "{}.{:0width$}", int, frac, width = self.scale as usize)
    }
}

/// Days since 1970-01-01 (can be negative).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Date32(pub i32);

impl Date32 {
    /// Howard Hinnant's `days_from_civil`.
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Self {
        let y = if m <= 2 { y - 1 } else { y };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64;
        let mp = ((m as i64) + 9) % 12;
        let doy = (153 * mp + 2) / 5 + (d as i64) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Date32((era as i64 * 146_097 + doe - 719_468) as i32)
    }

    /// Howard Hinnant's `civil_from_days`.
    pub fn to_ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
        ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Result<Self> {
        let mut it = s.split('-');
        let bad = || Error::Parse(format!("bad date: {s:?}"));
        let y: i32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let m: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let d: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return Err(bad());
        }
        Ok(Date32::from_ymd(y, m, d))
    }

    pub fn year(self) -> i32 {
        self.to_ymd().0
    }

    pub fn month(self) -> u32 {
        self.to_ymd().1
    }

    pub fn add_days(self, n: i32) -> Self {
        Date32(self.0 + n)
    }

    /// `DATE + INTERVAL n MONTH` with day clamping (MySQL semantics).
    pub fn add_months(self, n: i32) -> Self {
        let (y, m, d) = self.to_ymd();
        let total = y as i64 * 12 + (m as i64 - 1) + n as i64;
        let ny = (total.div_euclid(12)) as i32;
        let nm = (total.rem_euclid(12)) as u32 + 1;
        let max_d = days_in_month(ny, nm);
        Date32::from_ymd(ny, nm, d.min(max_d))
    }

    pub fn add_years(self, n: i32) -> Self {
        self.add_months(n * 12)
    }
}

fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => unreachable!("bad month {m}"),
    }
}

impl fmt::Display for Date32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A runtime SQL value. `Null` participates in three-valued logic in the
/// expression layer; comparisons involving `Null` return `None`.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    Null,
    Int(i64),
    Decimal(Dec),
    Date(Date32),
    Str(Arc<str>),
    Double(f64),
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::str(v)
    }
}

impl From<Date32> for Value {
    fn from(v: Date32) -> Value {
        Value::Date(v)
    }
}

impl From<Dec> for Value {
    fn from(v: Dec) -> Value {
        Value::Decimal(v)
    }
}

impl Value {
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(Error::Type(format!("expected int, got {other:?}"))),
        }
    }

    pub fn as_dec(&self) -> Result<Dec> {
        match self {
            Value::Decimal(d) => Ok(*d),
            Value::Int(v) => Ok(Dec::from_int(*v)),
            other => Err(Error::Type(format!("expected decimal, got {other:?}"))),
        }
    }

    pub fn as_date(&self) -> Result<Date32> {
        match self {
            Value::Date(d) => Ok(*d),
            other => Err(Error::Type(format!("expected date, got {other:?}"))),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::Type(format!("expected string, got {other:?}"))),
        }
    }

    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Double(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            Value::Decimal(d) => Ok(d.to_f64()),
            other => Err(Error::Type(format!("expected double, got {other:?}"))),
        }
    }

    /// SQL comparison: `None` if either side is NULL or the types are
    /// incomparable. Numeric types cross-compare (int vs decimal vs double);
    /// strings compare ignoring `CHAR` trailing-space padding, matching
    /// MySQL's PAD SPACE collation behaviour.
    pub fn cmp_sql(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Decimal(a), Decimal(b)) => Some(a.cmp_dec(*b)),
            (Int(a), Decimal(b)) => Some(Dec::from_int(*a).cmp_dec(*b)),
            (Decimal(a), Int(b)) => Some(a.cmp_dec(Dec::from_int(*b))),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.trim_end_matches(' ').cmp(b.trim_end_matches(' '))),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Decimal(b)) => a.partial_cmp(&b.to_f64()),
            (Decimal(a), Double(b)) => a.to_f64().partial_cmp(b),
            _ => None,
        }
    }

    /// Total ordering for sort operators / group keys: NULL first, then by
    /// `cmp_sql`; incomparable pairs order by type tag (never expected for
    /// well-typed plans, but keeps sorting total).
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self
                .cmp_sql(other)
                .unwrap_or_else(|| self.type_tag().cmp(&other.type_tag())),
        }
    }

    fn type_tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Decimal(_) => 2,
            Value::Date(_) => 3,
            Value::Str(_) => 4,
            Value::Double(_) => 5,
        }
    }

    /// Encode into a record-column byte image for the given declared type.
    /// Fixed-width types produce exactly `fixed_width()` bytes; `Varchar`
    /// produces the raw bytes (its length lives in the record header).
    pub fn encode_column(&self, dtype: &DataType, out: &mut Vec<u8>) -> Result<()> {
        match (dtype, self) {
            (DataType::Int, Value::Int(v)) => {
                let v = i32::try_from(*v).map_err(|_| Error::Type(format!("int overflow: {v}")))?;
                out.extend_from_slice(&v.to_le_bytes());
            }
            (DataType::BigInt, Value::Int(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (DataType::Decimal { scale, .. }, v) => {
                let d = v.as_dec()?.rescale(*scale);
                let raw = i64::try_from(d.raw)
                    .map_err(|_| Error::Type(format!("decimal overflow: {d}")))?;
                out.extend_from_slice(&raw.to_le_bytes());
            }
            (DataType::Date, Value::Date(d)) => out.extend_from_slice(&d.0.to_le_bytes()),
            (DataType::Char(n), Value::Str(s)) => {
                let n = *n as usize;
                let b = s.as_bytes();
                if b.len() > n {
                    return Err(Error::Type(format!("CHAR({n}) overflow: {s:?}")));
                }
                out.extend_from_slice(b);
                out.resize(out.len() + (n - b.len()), b' ');
            }
            (DataType::Varchar(n), Value::Str(s)) => {
                if s.len() > *n as usize {
                    return Err(Error::Type(format!("VARCHAR({n}) overflow")));
                }
                out.extend_from_slice(s.as_bytes());
            }
            (DataType::Double, v) => out.extend_from_slice(&v.as_f64()?.to_le_bytes()),
            (dt, v) => return Err(Error::Type(format!("cannot store {v:?} as {dt:?}"))),
        }
        Ok(())
    }

    /// Decode a column byte image produced by [`Value::encode_column`].
    pub fn decode_column(dtype: &DataType, bytes: &[u8]) -> Value {
        match dtype {
            DataType::Int => Value::Int(i32::from_le_bytes(bytes[..4].try_into().unwrap()) as i64),
            DataType::BigInt => Value::Int(i64::from_le_bytes(bytes[..8].try_into().unwrap())),
            DataType::Decimal { scale, .. } => Value::Decimal(Dec {
                raw: i64::from_le_bytes(bytes[..8].try_into().unwrap()) as i128,
                scale: *scale,
            }),
            DataType::Date => {
                Value::Date(Date32(i32::from_le_bytes(bytes[..4].try_into().unwrap())))
            }
            // CHAR columns strip their space padding on read (MySQL
            // semantics), so compute-node rows and storage-side byte slices
            // compare identically.
            DataType::Char(_) => {
                // Trailing spaces are ASCII, so dropping them first leaves
                // the rest valid UTF-8 exactly when the whole image was.
                let len = bytes.iter().rposition(|&b| b != b' ').map_or(0, |p| p + 1);
                Value::Str(Arc::from(
                    std::str::from_utf8(&bytes[..len]).unwrap_or("\u{fffd}"),
                ))
            }
            DataType::Varchar(_) => {
                Value::Str(Arc::from(std::str::from_utf8(bytes).unwrap_or("\u{fffd}")))
            }
            DataType::Double => Value::Double(f64::from_le_bytes(bytes[..8].try_into().unwrap())),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Decimal(d) => write!(f, "{d}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{}", s.trim_end_matches(' ')),
            Value::Double(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parse_display_roundtrip() {
        for s in ["0.00", "123.45", "-7.07", "1000000.99", "42"] {
            let d = Dec::parse(s).unwrap();
            let back = Dec::parse(&d.to_string()).unwrap();
            assert_eq!(d.cmp_dec(back), Ordering::Equal, "{s}");
        }
        assert_eq!(Dec::parse("123.45").unwrap().raw, 12345);
        assert_eq!(Dec::parse("-0.05").unwrap().raw, -5);
        assert!(Dec::parse("").is_err());
        assert!(Dec::parse("1.2.3").is_err());
    }

    #[test]
    fn decimal_arithmetic_matches_hand_results() {
        let a = Dec::parse("10.50").unwrap();
        let b = Dec::parse("2.5").unwrap();
        assert_eq!(a.add(b).to_string(), "13.00");
        assert_eq!(a.sub(b).to_string(), "8.00");
        assert_eq!(a.mul(b).to_string(), "26.250");
        assert_eq!(a.div(b).unwrap().to_string(), "4.200000");
        // The TPC-H Q1 shape: price * (1 - disc) * (1 + tax).
        let price = Dec::parse("901.00").unwrap();
        let disc = Dec::parse("0.05").unwrap();
        let tax = Dec::parse("0.02").unwrap();
        let one = Dec::from_int(1);
        let v = price.mul(one.sub(disc)).mul(one.add(tax));
        assert_eq!(v.to_string(), "873.069000");
    }

    #[test]
    fn decimal_div_by_zero_is_error() {
        assert!(Dec::from_int(1).div(Dec::from_int(0)).is_err());
    }

    #[test]
    fn date_roundtrip_and_epoch() {
        assert_eq!(Date32::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(Date32::from_ymd(1998, 12, 1).to_ymd(), (1998, 12, 1));
        for &(y, m, d) in &[(1992, 1, 1), (1998, 12, 31), (2000, 2, 29), (1996, 2, 29)] {
            assert_eq!(Date32::from_ymd(y, m, d).to_ymd(), (y, m, d));
        }
    }

    #[test]
    fn date_parse_and_display() {
        let d = Date32::parse("2010-01-01").unwrap();
        assert_eq!(d.to_string(), "2010-01-01");
        assert!(Date32::parse("2010-13-01").is_err());
        assert!(Date32::parse("2010-01").is_err());
    }

    #[test]
    fn date_interval_arithmetic() {
        // The paper's Listing 1 predicate: joindate < DATE'2010-01-01' + INTERVAL 1 YEAR.
        let d = Date32::parse("2010-01-01").unwrap();
        assert_eq!(d.add_years(1).to_string(), "2011-01-01");
        assert_eq!(
            Date32::parse("1995-03-31")
                .unwrap()
                .add_months(1)
                .to_string(),
            "1995-04-30"
        );
        assert_eq!(
            Date32::parse("1998-07-01")
                .unwrap()
                .add_days(-90)
                .to_string(),
            "1998-04-02"
        );
        assert_eq!(
            Date32::parse("1996-01-31")
                .unwrap()
                .add_months(13)
                .to_string(),
            "1997-02-28"
        );
    }

    #[test]
    fn value_cross_type_comparison() {
        assert_eq!(
            Value::Int(3).cmp_sql(&Value::Decimal(Dec::parse("3.00").unwrap())),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Decimal(Dec::parse("2.99").unwrap()).cmp_sql(&Value::Int(3)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.cmp_sql(&Value::Int(1)), None);
        // CHAR pad-space semantics.
        assert_eq!(
            Value::str("FOB  ").cmp_sql(&Value::str("FOB")),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn column_encode_decode_roundtrip() {
        let cases: Vec<(DataType, Value)> = vec![
            (DataType::Int, Value::Int(-42)),
            (DataType::BigInt, Value::Int(1 << 40)),
            (
                DataType::Decimal {
                    precision: 15,
                    scale: 2,
                },
                Value::Decimal(Dec::parse("90449.25").unwrap()),
            ),
            (
                DataType::Date,
                Value::Date(Date32::parse("1994-01-01").unwrap()),
            ),
            (DataType::Char(10), Value::str("BUILDING")),
            (DataType::Varchar(44), Value::str("deposits sleep quickly")),
            (DataType::Double, Value::Double(3.25)),
        ];
        for (dt, v) in cases {
            let mut buf = Vec::new();
            v.encode_column(&dt, &mut buf).unwrap();
            if let Some(w) = dt.fixed_width() {
                assert_eq!(buf.len(), w, "{dt:?}");
            }
            let back = Value::decode_column(&dt, &buf);
            assert_eq!(back.cmp_sql(&v), Some(Ordering::Equal), "{dt:?} {v:?}");
        }
    }

    #[test]
    fn char_overflow_rejected() {
        let mut buf = Vec::new();
        assert!(Value::str("TOOLONGVALUE")
            .encode_column(&DataType::Char(4), &mut buf)
            .is_err());
    }
}
