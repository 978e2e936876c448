//! The "shared library of pre-compiled complex functions" (§V-B2).
//!
//! In Taurus, utility routines like `bin2decimal` are pre-compiled native
//! code installed on every Page Store so that the LLVM bitcode shipped in
//! descriptors stays small: generated code *calls* these helpers instead of
//! inlining them. Here the analogue is this module: ordinary Rust functions
//! reached through [`UtilFn`] ids from VM instructions, used identically by
//! the compute-node interpreter so both sides produce bit-identical results
//! (the paper's §V-B2 correctness requirement).

use taurus_common::{Date32, Dec, Error, Result};

/// Identifiers of library functions callable from the IR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum UtilFn {
    LikeMatch = 0,
    ExtractYear = 1,
    Substr = 2,
    DecimalCmp = 3,
}

impl UtilFn {
    pub fn from_u8(v: u8) -> Option<UtilFn> {
        Some(match v {
            0 => UtilFn::LikeMatch,
            1 => UtilFn::ExtractYear,
            2 => UtilFn::Substr,
            3 => UtilFn::DecimalCmp,
            _ => return None,
        })
    }
}

/// SQL LIKE over bytes: `%` matches any run (including empty), `_` matches
/// exactly one byte. Iterative two-pointer algorithm with backtracking to
/// the last `%`.
pub fn like_match(text: &[u8], pattern: &[u8]) -> bool {
    let (mut t, mut p) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while t < text.len() {
        if p < pattern.len() && (pattern[p] == b'_' || pattern[p] == text[t]) {
            t += 1;
            p += 1;
        } else if p < pattern.len() && pattern[p] == b'%' {
            star = Some((p + 1, t));
            p += 1;
        } else if let Some((sp, st)) = star {
            // Backtrack: let the last % absorb one more byte.
            p = sp;
            t = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while p < pattern.len() && pattern[p] == b'%' {
        p += 1;
    }
    p == pattern.len()
}

/// EXTRACT(YEAR FROM d) for a raw day count.
pub fn extract_year(days: i32) -> i64 {
    Date32(days).year() as i64
}

/// SUBSTRING over bytes, 1-based `from`, clamped to the text bounds. A
/// cut through a multi-byte character gives the empty string.
pub fn substr(text: &[u8], from: usize, len: usize) -> &[u8] {
    let start = from.saturating_sub(1).min(text.len());
    let end = start.saturating_add(len).min(text.len());
    let cut = &text[start..end];
    match std::str::from_utf8(cut) {
        Ok(_) => cut,
        Err(_) => &[],
    }
}

/// `date + n` days over a raw day count; a result outside the date range
/// is an arithmetic error.
pub fn add_days(days: i32, n: i64) -> Result<i32> {
    i32::try_from(n)
        .ok()
        .and_then(|n| days.checked_add(n))
        .ok_or_else(|| Error::Arithmetic("date out of range".into()))
}

/// Integer negation; `-i64::MIN` is an overflow.
pub fn neg_int(v: i64) -> Result<i64> {
    v.checked_neg()
        .ok_or_else(|| Error::Arithmetic("integer overflow".into()))
}

/// Compare two decimals with potentially different scales — the analogue of
/// the paper's `bin2decimal`-style helpers used during predicate evaluation.
pub fn decimal_cmp(a: Dec, b: Dec) -> std::cmp::Ordering {
    a.cmp_dec(b)
}

/// Trim trailing spaces for CHAR pad-space comparisons.
pub fn trim_pad(b: &[u8]) -> &[u8] {
    let mut end = b.len();
    while end > 0 && b[end - 1] == b' ' {
        end -= 1;
    }
    &b[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_basic_wildcards() {
        assert!(like_match(b"PROMO BURNISHED", b"PROMO%"));
        assert!(like_match(b"shipping containers", b"%containers%"));
        assert!(!like_match(b"shipping crate", b"%containers%"));
        assert!(like_match(b"abc", b"a_c"));
        assert!(!like_match(b"abbc", b"a_c"));
        assert!(like_match(b"", b"%"));
        assert!(!like_match(b"", b"_"));
        assert!(like_match(b"x", b"x"));
    }

    #[test]
    fn like_backtracking_cases() {
        // Needs the % to absorb a partial later match.
        assert!(like_match(b"aXbXcXd", b"%X%d"));
        assert!(like_match(b"special requests", b"%special%requests%"));
        assert!(!like_match(b"special packages", b"%special%requests%"));
        // Q13 shape: NOT LIKE '%special%requests%'.
        assert!(like_match(
            b"aaa special bbb requests ccc",
            b"%special%requests%"
        ));
        // Multiple consecutive %.
        assert!(like_match(b"abc", b"%%c"));
    }

    #[test]
    fn substr_bounds() {
        assert_eq!(substr(b"13-HIGH", 1, 2), b"13");
        assert_eq!(substr(b"abc", 3, 10), b"c");
        assert_eq!(substr(b"abc", 9, 2), b"");
        assert_eq!(substr(b"abc", 1, 0), b"");
    }

    #[test]
    fn extract_year_matches_date32() {
        let d = Date32::parse("1995-12-31").unwrap();
        assert_eq!(extract_year(d.0), 1995);
    }

    #[test]
    fn trim_pad_only_trailing() {
        assert_eq!(trim_pad(b"ab  "), b"ab");
        assert_eq!(trim_pad(b"  ab"), b"  ab");
        assert_eq!(trim_pad(b"   "), b"");
    }

    #[test]
    fn utilfn_roundtrip() {
        for f in [
            UtilFn::LikeMatch,
            UtilFn::ExtractYear,
            UtilFn::Substr,
            UtilFn::DecimalCmp,
        ] {
            assert_eq!(UtilFn::from_u8(f as u8), Some(f));
        }
        assert_eq!(UtilFn::from_u8(77), None);
    }
}
