//! Expected results, computed before the measured window opens, and the
//! check every reply goes through.
//!
//! A reply is compared by row count plus an order-insensitive hash of its
//! rows. The expected side never comes from the path being measured: the
//! TPC-H statements use the hand-built registry plans (`taurus_tpch`'s
//! `qN_plan`) run in-process, the two plain `lineitem` statements and the
//! point lookups use the generator's rows.

use taurus_common::{Dec, Row, Value};

/// Row count and order-insensitive content hash of a result.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash one value by meaning, not by representation: a decimal ignores
/// trailing zeros of its scale, a string its CHAR padding, and a double
/// is taken to four decimals (storage-side partial aggregation may add
/// in another order than the SQL node does).
fn hash_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => fnv(h, &[0]),
        Value::Int(i) => fnv(fnv(h, &[1]), &i.to_le_bytes()),
        Value::Decimal(d) => {
            let Dec { mut raw, mut scale } = *d;
            while scale > 0 && raw % 10 == 0 {
                raw /= 10;
                scale -= 1;
            }
            fnv(fnv(fnv(h, &[2]), &raw.to_le_bytes()), &[scale])
        }
        Value::Date(d) => fnv(fnv(h, &[3]), &d.0.to_le_bytes()),
        Value::Str(s) => fnv(fnv(h, &[4]), s.trim_end_matches(' ').as_bytes()),
        Value::Double(f) => fnv(fnv(h, &[5]), &((f * 1e4).round() as i64).to_le_bytes()),
    }
}

fn hash_row<'a>(row: impl IntoIterator<Item = &'a Value>) -> u64 {
    row.into_iter().fold(FNV_OFFSET, hash_value)
}

/// Digest of rows given as slices of values.
pub fn digest<'a, R>(rows: impl IntoIterator<Item = R>) -> Digest
where
    R: IntoIterator<Item = &'a Value>,
{
    let mut d = Digest::default();
    for row in rows {
        d.rows += 1;
        // Wrapping sum: any order of the same rows gives the same hash,
        // and a repeated row still changes it.
        d.hash = d.hash.wrapping_add(hash_row(row));
    }
    d
}

pub fn digest_rows(rows: &[Row]) -> Digest {
    digest(rows.iter().map(|r| r.iter()))
}

/// Does a point-lookup reply carry `expected`, leaving out the one column
/// the write connection rewrites? That column must hold either the
/// generator's value or one the benchmark wrote.
pub fn lookup_matches(
    got: Option<&Row>,
    expected: &Row,
    rewritten_col: usize,
    written_prefix: &str,
) -> bool {
    let Some(got) = got else { return false };
    if got.len() != expected.len() {
        return false;
    }
    got.iter().zip(expected).enumerate().all(|(i, (g, e))| {
        if i == rewritten_col {
            hash_value(0, g) == hash_value(0, e)
                || g.as_str().is_ok_and(|s| s.starts_with(written_prefix))
        } else {
            hash_value(0, g) == hash_value(0, e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::Date32;

    fn sample() -> Vec<Row> {
        vec![
            vec![
                Value::Int(1),
                Value::Decimal(Dec::new(1250, 2)),
                Value::str("ab  "),
            ],
            vec![
                Value::Int(2),
                Value::Decimal(Dec::new(700, 2)),
                Value::Date(Date32(9000)),
            ],
            vec![Value::Int(2), Value::Null, Value::Double(0.25)],
        ]
    }

    #[test]
    fn order_and_representation_do_not_matter() {
        let a = sample();
        let mut b = sample();
        b.reverse();
        b[2][1] = Value::Decimal(Dec::new(125, 1));
        b[2][2] = Value::str("ab");
        assert_eq!(digest_rows(&a), digest_rows(&b));
    }

    /// The correctness gate: a reply that lost a row, gained a duplicate
    /// or changed one value does not pass for the golden.
    #[test]
    fn a_corrupted_reply_is_caught() {
        let golden = digest_rows(&sample());

        let mut dropped = sample();
        dropped.pop();
        assert_ne!(digest_rows(&dropped), golden);

        let mut duplicated = sample();
        duplicated[2] = duplicated[1].clone();
        assert_ne!(digest_rows(&duplicated), golden);

        let mut flipped = sample();
        flipped[0][1] = Value::Decimal(Dec::new(1251, 2));
        assert_ne!(digest_rows(&flipped), golden);

        let mut swapped_cells = sample();
        swapped_cells[0].swap(0, 1);
        assert_ne!(digest_rows(&swapped_cells), golden);
    }

    #[test]
    fn lookup_check_allows_only_the_rewritten_column_to_differ() {
        let expected: Row = vec![Value::Int(7), Value::str("Clerk#000000001"), Value::Int(3)];
        let mut got = expected.clone();
        assert!(lookup_matches(Some(&got), &expected, 1, "Clerk#b"));
        got[1] = Value::str("Clerk#b00000042");
        assert!(lookup_matches(Some(&got), &expected, 1, "Clerk#b"));
        got[1] = Value::str("someone else");
        assert!(!lookup_matches(Some(&got), &expected, 1, "Clerk#b"));
        got[1] = expected[1].clone();
        got[2] = Value::Int(4);
        assert!(!lookup_matches(Some(&got), &expected, 1, "Clerk#b"));
        assert!(!lookup_matches(None, &expected, 1, "Clerk#b"));
    }
}
