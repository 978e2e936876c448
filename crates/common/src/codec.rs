//! The one byte codec: little-endian writers and a bounds-checked reader
//! for every format that crosses a tier — wire frames, redo records and
//! batches, replication payloads, the NDP descriptor's sections, IR
//! bitcode and aggregate partial states.
//!
//! Writers append to a `Vec<u8>`. There is one tagged-[`Value`] layout
//! (tags 0-5, append-only) with one per-format parameter, the width of a
//! string's length: `u32` on the wire ([`put_value`]), `u16` in the IR
//! and everything that shares its layout ([`put_value16`]).
//!
//! Four rules keep decoding fail-closed, whatever the bytes:
//! 1. **Bounds.** Every read is length-checked; a short buffer is
//!    [`Error::Corruption`] naming the offset, never a panic.
//! 2. **Counts.** [`Cursor::count`] refuses an item count the remaining
//!    bytes cannot hold before anything is sized by it.
//! 3. **Flags.** A boolean or presence byte is `0` or `1`
//!    ([`Cursor::flag`]), so whatever decodes re-encodes to itself.
//! 4. **Ends.** A whole-buffer decode ends with [`Cursor::done`]:
//!    trailing bytes are an encoder/decoder disagreement.
//!
//! On the writing side a `u16` length or count past its width is a typed
//! error ([`len16`]) instead of a wrap. `u32` lengths are written as they
//! are: every format that carries one is bounded far below 4 GiB (a wire
//! frame by its 64 MiB cap, which the frame writer enforces; a redo
//! record by its page; a catalog payload by its names).

use crate::value::{DataType, Date32, Dec, Value};
use crate::{Error, Result};

/// Value tags. Stable contract shared by every format — append-only,
/// never renumber.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DECIMAL: u8 = 2;
const TAG_DATE: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_DOUBLE: u8 = 5;

#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_i128(buf: &mut Vec<u8>, v: i128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A `0`/`1` flag byte.
#[inline]
pub fn put_flag(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// `n` as a `u16` length or count, or a typed error naming `what` when
/// it does not fit.
#[inline]
pub fn len16(n: usize, what: &str) -> Result<u16> {
    u16::try_from(n)
        .map_err(|_| Error::InvalidState(format!("{what}: {n} exceeds the u16 encoding")))
}

/// `u32` length + bytes.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// `u16` length + bytes; longer is a typed error naming `what`.
#[inline]
pub fn put_bytes16(buf: &mut Vec<u8>, b: &[u8], what: &str) -> Result<()> {
    put_u16(buf, len16(b.len(), what)?);
    buf.extend_from_slice(b);
    Ok(())
}

/// `u32` length + UTF-8 bytes.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Tagged value with a `u32` string length (wire frames).
#[inline]
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, TAG_NULL),
        Value::Int(i) => {
            put_u8(buf, TAG_INT);
            put_i64(buf, *i);
        }
        Value::Decimal(d) => {
            put_u8(buf, TAG_DECIMAL);
            put_i128(buf, d.raw);
            put_u8(buf, d.scale);
        }
        Value::Date(d) => {
            put_u8(buf, TAG_DATE);
            put_i32(buf, d.0);
        }
        Value::Str(s) => {
            put_u8(buf, TAG_STR);
            put_str(buf, s);
        }
        Value::Double(x) => {
            put_u8(buf, TAG_DOUBLE);
            put_f64(buf, *x);
        }
    }
}

/// Tagged value with a `u16` string length (IR constants, aggregate
/// partials, hash keys, replicated statistics); a longer string is a
/// typed error. Every other value is laid out as [`put_value`] lays it.
#[inline]
pub fn put_value16(buf: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Str(s) => {
            put_u8(buf, TAG_STR);
            put_bytes16(buf, s.as_bytes(), "string value bytes")
        }
        other => {
            put_value(buf, other);
            Ok(())
        }
    }
}

/// [`put_value16`] of `v` as SQL equality takes it, for a hash key: a
/// string without its trailing spaces (PAD SPACE, as comparisons and
/// index keys take it), a zero double without its sign. Equal values key
/// alike.
#[inline]
pub fn put_key16(buf: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Str(s) => {
            put_u8(buf, TAG_STR);
            put_bytes16(
                buf,
                s.trim_end_matches(' ').as_bytes(),
                "string value bytes",
            )
        }
        Value::Double(x) if *x == 0.0 => put_value16(buf, &Value::Double(0.0)),
        other => put_value16(buf, other),
    }
}

/// A column type: its tag, then the decimal's precision and scale or the
/// string's `u16` length.
#[inline]
pub fn put_dtype(buf: &mut Vec<u8>, dt: DataType) {
    put_u8(buf, dt.tag());
    match dt {
        DataType::Decimal { precision, scale } => {
            put_u8(buf, precision);
            put_u8(buf, scale);
        }
        DataType::Char(n) | DataType::Varchar(n) => put_u16(buf, n),
        _ => {}
    }
}

/// The width of a string's length prefix inside a tagged value.
#[derive(Clone, Copy)]
enum StrLen {
    U16,
    U32,
}

/// A bounds-checked reader over one buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Offset of the next byte from the start of the buffer.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[cold]
    fn corrupt(&self, what: String) -> Error {
        Error::Corruption(format!("{what} at offset {}", self.pos))
    }

    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> Error {
        self.corrupt(format!(
            "truncated: need {n} bytes, have {}",
            self.remaining()
        ))
    }

    /// The byte just read is not one `what` may take.
    #[cold]
    #[inline(never)]
    fn bad_byte(&mut self, what: &str) -> Error {
        self.pos -= 1;
        let b = self.buf[self.pos];
        self.corrupt(format!("{what} {b}"))
    }

    /// The next `n` bytes, borrowed from the buffer.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn i32(&mut self) -> Result<i32> {
        self.array().map(i32::from_le_bytes)
    }

    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    #[inline]
    pub fn i128(&mut self) -> Result<i128> {
        self.array().map(i128::from_le_bytes)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A boolean or an option's presence byte: `0` or `1`, nothing else,
    /// so every buffer that decodes re-encodes to the same bytes.
    #[inline]
    pub fn flag(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.bad_byte("flag byte")),
        }
    }

    /// A `u32` item count, refused when the remaining bytes cannot hold
    /// that many items of at least `min_item_bytes` each (at least 1), so
    /// a hostile count never sizes an allocation or drives a long loop.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_item_bytes.max(1) {
            return Err(self.corrupt(format!(
                "count {n} of {min_item_bytes}-byte items past the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// `n` items read by `item`, into a vector sized once: `n` is a `u16`
    /// or comes from [`Cursor::count`].
    #[inline]
    pub fn list<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Cursor<'a>) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// The given magic bytes, or corruption naming `what`.
    #[inline]
    pub fn magic(&mut self, magic: &[u8; 4], what: &str) -> Result<()> {
        if self.buf.get(self.pos..self.pos + 4) != Some(&magic[..]) {
            return Err(self.corrupt(format!("bad {what} magic")));
        }
        self.pos += 4;
        Ok(())
    }

    /// `u32` length + bytes, borrowed.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// `u16` length + bytes, borrowed.
    #[inline]
    pub fn bytes16(&mut self) -> Result<&'a [u8]> {
        let n = self.u16()? as usize;
        self.take(n)
    }

    #[inline]
    fn utf8(&self, b: &'a [u8]) -> Result<&'a str> {
        std::str::from_utf8(b).map_err(|_| self.corrupt("invalid UTF-8 in string".into()))
    }

    /// `u32` length + UTF-8 bytes.
    #[inline]
    pub fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        self.utf8(b).map(str::to_string)
    }

    /// A value written by [`put_value`].
    #[inline]
    pub fn value(&mut self) -> Result<Value> {
        self.tagged(StrLen::U32)
    }

    /// A value written by [`put_value16`].
    #[inline]
    pub fn value16(&mut self) -> Result<Value> {
        self.tagged(StrLen::U16)
    }

    #[inline]
    fn tagged(&mut self, len: StrLen) -> Result<Value> {
        Ok(match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(self.i64()?),
            TAG_DECIMAL => {
                let raw = self.i128()?;
                let scale = self.u8()?;
                Value::Decimal(Dec::new(raw, scale))
            }
            TAG_DATE => Value::Date(Date32(self.i32()?)),
            TAG_STR => {
                let b = match len {
                    StrLen::U16 => self.bytes16()?,
                    StrLen::U32 => self.bytes()?,
                };
                Value::str(self.utf8(b)?)
            }
            TAG_DOUBLE => Value::Double(self.f64()?),
            _ => return Err(self.bad_byte("unknown value tag")),
        })
    }

    /// A column type written by [`put_dtype`].
    #[inline]
    pub fn dtype(&mut self) -> Result<DataType> {
        Ok(match self.u8()? {
            0 => DataType::Int,
            1 => DataType::BigInt,
            2 => DataType::Decimal {
                precision: self.u8()?,
                scale: self.u8()?,
            },
            3 => DataType::Date,
            4 => DataType::Char(self.u16()?),
            5 => DataType::Varchar(self.u16()?),
            6 => DataType::Double,
            _ => return Err(self.bad_byte("bad dtype tag")),
        })
    }

    /// Assert the whole buffer was consumed — trailing garbage means
    /// encoder/decoder disagreement, which must not pass silently.
    #[inline]
    pub fn done(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        put_value(&mut buf, v);
        let mut cur = Cursor::new(&buf);
        let out = cur.value().unwrap();
        cur.done().unwrap();
        out
    }

    fn values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Decimal(Dec::new(-123456789012345678901234567890i128, 7)),
            Value::Decimal(Dec::new(0, 0)),
            Value::Date(Date32(-719468)),
            Value::Str(std::sync::Arc::from("")),
            Value::str("héllo wörld ✓"),
            Value::Double(-0.0),
            Value::Double(f64::MAX),
        ]
    }

    #[test]
    fn value_roundtrips() {
        for v in values() {
            assert_eq!(roundtrip(&v), v, "{v:?}");
        }
        // NaN round-trips bit-exactly even though NaN != NaN.
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Double(f64::NAN));
        match Cursor::new(&buf).value().unwrap() {
            Value::Double(x) => assert!(x.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    /// The two value widths differ in the string length alone.
    #[test]
    fn value16_differs_only_in_string_length_width() {
        for v in values() {
            let (mut wide, mut narrow) = (Vec::new(), Vec::new());
            put_value(&mut wide, &v);
            put_value16(&mut narrow, &v).unwrap();
            match &v {
                Value::Str(s) => {
                    assert_eq!(wide.len(), narrow.len() + 2);
                    assert_eq!(narrow[1..3], (s.len() as u16).to_le_bytes());
                }
                _ => assert_eq!(wide, narrow),
            }
            let mut cur = Cursor::new(&narrow);
            assert_eq!(cur.value16().unwrap(), v);
            cur.done().unwrap();
        }
    }

    #[test]
    fn u16_lengths_fail_closed_instead_of_wrapping() {
        let long = Value::str("x".repeat(70_000));
        let mut buf = Vec::new();
        let err = put_value16(&mut buf, &long).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "{err}");
        let fits = Value::str("x".repeat(u16::MAX as usize));
        buf.clear();
        put_value16(&mut buf, &fits).unwrap();
        assert_eq!(Cursor::new(&buf).value16().unwrap(), fits);
        assert!(len16(65_536, "keys").is_err() && len16(65_535, "keys").is_ok());
    }

    #[test]
    fn truncation_is_corruption_not_panic() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::str("abcdef"));
        for cut in 0..buf.len() {
            let err = Cursor::new(&buf[..cut]).value().unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_rejected() {
        let err = Cursor::new(&[99]).value().unwrap_err();
        assert!(err.to_string().contains("unknown value tag"), "{err}");
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Null);
        buf.push(0);
        let mut cur = Cursor::new(&buf);
        cur.value().unwrap();
        assert!(cur.done().is_err());
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = Vec::new();
        put_u8(&mut buf, TAG_STR);
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = Cursor::new(&buf).value().unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn flags_are_zero_or_one() {
        assert!(!Cursor::new(&[0]).flag().unwrap());
        assert!(Cursor::new(&[1]).flag().unwrap());
        let err = Cursor::new(&[2]).flag().unwrap_err();
        assert_eq!(err.to_string(), "corruption: flag byte 2 at offset 0");
    }

    #[test]
    fn counts_the_bytes_cannot_hold_are_refused() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(Cursor::new(&buf).count(8).unwrap(), 3);
        assert!(Cursor::new(&buf).count(9).is_err());
        let hostile = [0xff; 4];
        assert!(matches!(
            Cursor::new(&hostile).count(1),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn dtypes_roundtrip() {
        for dt in [
            DataType::Int,
            DataType::BigInt,
            DataType::Decimal {
                precision: 15,
                scale: 2,
            },
            DataType::Date,
            DataType::Char(1),
            DataType::Varchar(300),
            DataType::Double,
        ] {
            let mut buf = Vec::new();
            put_dtype(&mut buf, dt);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.dtype().unwrap(), dt);
            cur.done().unwrap();
        }
        assert!(Cursor::new(&[7]).dtype().is_err());
    }
}
