//! Primitive wire codecs: little-endian scalars, strings and
//! [`Value`]s, plus a bounds-checked [`Cursor`] for decoding.
//!
//! Decoding never trusts the peer: every read is length-checked and a
//! short buffer surfaces as [`Error::Corruption`] naming the offset, so
//! a truncated or malicious frame can neither panic the server nor read
//! out of bounds.

use taurus_common::value::{Date32, Dec};
use taurus_common::{Error, Result, Value};

/// Value tags. Stable wire contract — append-only, never renumber.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DECIMAL: u8 = 2;
const TAG_DATE: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_DOUBLE: u8 = 5;

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i128(buf: &mut Vec<u8>, v: i128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// `u32` length + UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Tagged value: `u8` tag + fixed-width or length-prefixed payload.
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

/// A bounds-checked reader over one frame's payload.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corruption(format!(
                "wire: truncated frame (need {n} bytes at offset {}, have {})",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    // lint:allow(panic) notes: each `try_into().unwrap()` below converts
    // a slice `take(N)?` just produced with exactly N bytes — infallible.
    pub fn u16(&mut self) -> Result<u16> {
        // lint:allow(panic): take(2) returned exactly 2 bytes
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32> {
        // lint:allow(panic): take(4) returned exactly 4 bytes
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        // lint:allow(panic): take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i32(&mut self) -> Result<i32> {
        // lint:allow(panic): take(4) returned exactly 4 bytes
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64> {
        // lint:allow(panic): take(8) returned exactly 8 bytes
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i128(&mut self) -> Result<i128> {
        // lint:allow(panic): take(16) returned exactly 16 bytes
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A boolean or an option's presence byte: `0` or `1`, nothing else,
    /// so every payload that decodes re-encodes to the same bytes.
    pub fn flag(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Corruption(format!(
                "wire: flag byte {b} at offset {}",
                self.pos - 1
            ))),
        }
    }

    /// A length-prefixed UTF-8 string, borrowed from the frame.
    fn str_ref(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| Error::Corruption("wire: invalid UTF-8 in string".into()))
    }

    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_string)
    }

    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(self.i64()?),
            TAG_DECIMAL => {
                let raw = self.i128()?;
                let scale = self.u8()?;
                Value::Decimal(Dec::new(raw, scale))
            }
            TAG_DATE => Value::Date(Date32(self.i32()?)),
            TAG_STR => Value::str(self.str_ref()?),
            TAG_DOUBLE => Value::Double(self.f64()?),
            t => {
                return Err(Error::Corruption(format!(
                    "wire: unknown value tag {t} at offset {}",
                    self.pos - 1
                )))
            }
        })
    }

    /// Assert the whole payload was consumed — trailing garbage means
    /// encoder/decoder disagreement, which must not pass silently.
    pub fn done(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Corruption(format!(
                "wire: {} trailing bytes after frame payload",
                self.remaining()
            )));
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

    #[test]
    fn value_roundtrips() {
        for v in [
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
        ] {
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
        put_u8(&mut buf, 4); // TAG_STR
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = Cursor::new(&buf).value().unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }
}
