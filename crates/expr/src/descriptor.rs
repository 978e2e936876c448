//! The NDP descriptor (§IV-C1): everything a Page Store needs to process
//! pages on behalf of one table access.
//!
//! Contents mirror the paper's list: "the number and data types of the
//! index columns and the lengths of the fixed-length columns; the columns
//! to be projected, if any; the encoded filtering predicates in the LLVM IR
//! format, if any; the aggregation functions to call and the GROUP BY
//! columns, if any; a transaction ID that represents an MVCC read-view low
//! watermark."
//!
//! All column references are *record positions* (the compute node resolves
//! table columns to physical positions when building the descriptor), so
//! the Page Store plugin needs no table schema. The descriptor crosses the
//! network as "a type-less byte stream" that the DBMS-specific plugin
//! interprets; [`NdpDescriptor::encode`]/[`NdpDescriptor::decode`] define
//! the InnoDB plugin's interpretation, and [`fnv64`] provides the
//! descriptor-cache key (§IV-D1).
//!
//! The stream starts with the `DESC` section, the descriptor proper: the
//! same bytes for every request of one table access, which is what makes
//! it cacheable. Behind it come the sections of one request, each
//! optional, each at most once, in this order ([`Sections`]):
//!
//! * a **key-set section** ([`encode_key_set`], [`KeySet`]): a lookup
//!   join's NDP key read sends the chunk's sorted probe keys;
//! * a **join-filter section** ([`encode_join_filter`],
//!   [`JoinFilterSection`]): a hash join's probe scan sends a Bloom filter
//!   over its build side's keys ([`KeyBloom`]; one hash, [`key_hash`], on
//!   both sides of the wire) and the record position of its key column.
//!
//! They travel beside the descriptor, not in it: the Page Store finds
//! where `DESC` ends ([`NdpDescriptor::section_len`]), hashes and caches
//! that part alone, and parses and validates the rest per request.
//!
//! The aggregation section may end with a **pushed HAVING**
//! ([`NdpAggSpec::having`]): a program over a group's outputs that the
//! plugin runs once per group complete on its page. Its presence is the
//! value 2 of the aggregation flag byte, so a descriptor without one keeps
//! its bytes, and its cache key, exactly.

use std::sync::Arc;

use taurus_common::codec::{
    len16, put_bytes16, put_dtype, put_flag, put_u16, put_u32, put_u64, put_u8, Cursor,
};
use taurus_common::{DataType, Error, Result, TrxId};

use crate::agg::{AggInput, AggSpec};
use crate::ir::IrProgram;

/// Aggregation request within a descriptor.
#[derive(Clone, Debug, PartialEq)]
pub struct NdpAggSpec {
    /// Aggregates to maintain; their inputs read record positions.
    pub specs: Vec<AggSpec>,
    /// GROUP BY columns as record positions, in any order: a page keeps a
    /// table of its groups (see the plugin). Empty = scalar aggregation,
    /// which also enables cross-page aggregation within a batch request.
    pub group_cols: Vec<u16>,
    /// Pushed HAVING conjuncts as IR bitcode over a group's outputs: the
    /// group columns' values in `group_cols` order, then each of `specs`'
    /// final values. Only for a GROUP BY that is a prefix of the index key
    /// (groups then arrive one after another); a group complete on its
    /// page that does not make it `True` is dropped there.
    pub having: Option<Vec<u8>>,
}

/// The aggregation flag byte: no aggregation, aggregation, aggregation
/// with a pushed HAVING.
const AGG_NONE: u8 = 0;
const AGG_GROUPS: u8 = 1;
const AGG_HAVING: u8 = 2;

/// The descriptor shipped with every NDP batch read.
#[derive(Clone, Debug, PartialEq)]
pub struct NdpDescriptor {
    /// Index identity (sanity check against the page header).
    pub index_id: u64,
    /// Data types of the columns stored in leaf records, in record order.
    pub record_dtypes: Vec<DataType>,
    /// Record positions of the index key columns, in key order. Projection
    /// always retains these (InnoDB needs them for cursor re-positioning,
    /// §V-A).
    pub key_positions: Vec<u16>,
    /// Record positions to keep, ascending, superset of `key_positions`;
    /// `None` = no NDP column projection.
    pub projection: Option<Vec<u16>>,
    /// Serialized predicate IR (see `crate::ir`); `None` = no NDP filtering.
    pub predicate_bitcode: Option<Vec<u8>>,
    /// Aggregation request; `None` = no NDP aggregation.
    pub aggregation: Option<NdpAggSpec>,
    /// MVCC low watermark: records with `trx_id <` this are visible;
    /// the rest are ambiguous and returned unmodified.
    pub low_watermark: TrxId,
}

const DESC_MAGIC: &[u8; 4] = b"DESC";

impl NdpDescriptor {
    /// Does this descriptor request any NDP work at all?
    pub fn requests_work(&self) -> bool {
        self.projection.is_some() || self.predicate_bitcode.is_some() || self.aggregation.is_some()
    }

    /// The record positions the NDP records a Page Store writes under this
    /// descriptor keep, in record order: the projection, or every column
    /// when it does not project.
    pub fn kept_positions(&self) -> Vec<usize> {
        match &self.projection {
            Some(keep) => keep.iter().map(|&k| k as usize).collect(),
            None => (0..self.record_dtypes.len()).collect(),
        }
    }

    /// Length of the `DESC` section at the head of `buf`, by a walk over
    /// its counts that decodes nothing: what precedes an optional key-set
    /// section, and all the descriptor cache hashes. Agrees with
    /// [`NdpDescriptor::encode`] on every stream `decode` accepts.
    pub fn section_len(buf: &[u8]) -> Result<usize> {
        let mut cur = Cursor::new(buf);
        cur.magic(DESC_MAGIC, "descriptor")?;
        cur.take(16)?; // index id, low watermark
        for _ in 0..cur.u16()? {
            cur.dtype()?;
        }
        let n_keys = cur.u16()? as usize;
        cur.take(2 * n_keys)?;
        if cur.flag()? {
            let n = cur.u16()? as usize;
            cur.take(2 * n)?;
        }
        if cur.flag()? {
            cur.bytes16()?;
        }
        let agg = agg_flag(&mut cur)?;
        if agg != AGG_NONE {
            for _ in 0..cur.u16()? {
                AggSpec::skip(&mut cur)?;
            }
            let n = cur.u16()? as usize;
            cur.take(2 * n)?;
        }
        if agg == AGG_HAVING {
            cur.bytes16()?;
        }
        Ok(cur.pos())
    }

    /// Serialize to the type-less byte stream carried by batch reads.
    /// Counts and lengths are `u16`s; [`NdpDescriptor::validate`] refuses
    /// a descriptor with one past that, and encoding one anyway stops at
    /// the field that does not fit: a truncated stream every decoder
    /// refuses, never a wrapped length.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        let _ = self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        let u16s = |out: &mut Vec<u8>, v: &[u16], what: &str| -> Result<()> {
            put_u16(out, len16(v.len(), what)?);
            v.iter().for_each(|&x| put_u16(out, x));
            Ok(())
        };
        out.extend_from_slice(DESC_MAGIC);
        put_u64(out, self.index_id);
        put_u64(out, self.low_watermark);
        put_u16(out, len16(self.record_dtypes.len(), "descriptor columns")?);
        for &dt in &self.record_dtypes {
            put_dtype(out, dt);
        }
        u16s(out, &self.key_positions, "descriptor key columns")?;
        put_flag(out, self.projection.is_some());
        if let Some(keep) = &self.projection {
            u16s(out, keep, "descriptor projection")?;
        }
        put_flag(out, self.predicate_bitcode.is_some());
        if let Some(bc) = &self.predicate_bitcode {
            put_bytes16(out, bc, "predicate bitcode bytes")?;
        }
        put_u8(
            out,
            match &self.aggregation {
                None => AGG_NONE,
                Some(NdpAggSpec { having: None, .. }) => AGG_GROUPS,
                Some(NdpAggSpec {
                    having: Some(_), ..
                }) => AGG_HAVING,
            },
        );
        if let Some(agg) = &self.aggregation {
            put_u16(out, len16(agg.specs.len(), "descriptor aggregates")?);
            for s in &agg.specs {
                s.encode(out)?;
            }
            u16s(out, &agg.group_cols, "descriptor group columns")?;
            if let Some(having) = &agg.having {
                put_bytes16(out, having, "HAVING bitcode bytes")?;
            }
        }
        Ok(())
    }

    /// Decode and structurally validate a descriptor byte stream: all of
    /// `buf`, which is one `DESC` section.
    pub fn decode(buf: &[u8]) -> Result<NdpDescriptor> {
        let mut cur = Cursor::new(buf);
        cur.magic(DESC_MAGIC, "descriptor")?;
        let index_id = cur.u64()?;
        let low_watermark = cur.u64()?;
        let u16s = |cur: &mut Cursor<'_>| -> Result<Vec<u16>> {
            let n = cur.u16()?;
            cur.list(n as usize, Cursor::u16)
        };
        let n_cols = cur.u16()?;
        let record_dtypes = cur.list(n_cols as usize, Cursor::dtype)?;
        let key_positions = u16s(&mut cur)?;
        let projection = match cur.flag()? {
            true => Some(u16s(&mut cur)?),
            false => None,
        };
        let predicate_bitcode = match cur.flag()? {
            true => Some(cur.bytes16()?.to_vec()),
            false => None,
        };
        let aggregation = match agg_flag(&mut cur)? {
            AGG_NONE => None,
            flag => {
                let n = cur.u16()?;
                let specs = cur.list(n as usize, AggSpec::decode)?;
                let group_cols = u16s(&mut cur)?;
                let having = match flag {
                    AGG_HAVING => Some(cur.bytes16()?.to_vec()),
                    _ => None,
                };
                Some(NdpAggSpec {
                    specs,
                    group_cols,
                    having,
                })
            }
        };
        cur.done()?;
        let d = NdpDescriptor {
            index_id,
            record_dtypes,
            key_positions,
            projection,
            predicate_bitcode,
            aggregation,
            low_watermark,
        };
        d.validate()?;
        Ok(d)
    }

    /// Cross-field validation (the plugin's defensive checks).
    /// Every count and length must fit the `u16` it is encoded in.
    pub fn validate(&self) -> Result<()> {
        let n = len16(self.record_dtypes.len(), "descriptor columns")?;
        len16(self.key_positions.len(), "descriptor key columns")?;
        if let Some(keep) = &self.projection {
            len16(keep.len(), "descriptor projection")?;
        }
        if let Some(bc) = &self.predicate_bitcode {
            len16(bc.len(), "predicate bitcode bytes")?;
        }
        let in_range = |c: u16| -> Result<()> {
            if c >= n {
                return Err(Error::Corruption(format!(
                    "descriptor column {c} out of record range {n}"
                )));
            }
            Ok(())
        };
        for &k in &self.key_positions {
            in_range(k)?;
        }
        if let Some(keep) = &self.projection {
            if keep.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Error::Corruption(
                    "projection not strictly ascending".into(),
                ));
            }
            for &k in keep {
                in_range(k)?;
            }
            for &k in &self.key_positions {
                if !keep.contains(&k) {
                    return Err(Error::Corruption(format!(
                        "projection drops key column {k} (cursor repositioning needs it)"
                    )));
                }
            }
        }
        if let Some(agg) = &self.aggregation {
            len16(agg.specs.len(), "descriptor aggregates")?;
            len16(agg.group_cols.len(), "descriptor group columns")?;
            for s in &agg.specs {
                let cols = match &s.input {
                    AggInput::Star => Vec::new(),
                    AggInput::Col(c) => vec![*c],
                    AggInput::Program(bc) => {
                        len16(bc.len(), "aggregate input program bytes")?;
                        IrProgram::decode_bitcode(bc)?.columns_used()
                    }
                };
                for c in cols {
                    in_range(c)?;
                    // What an input reads must survive projection: the
                    // carrier record's own values are folded by the SQL
                    // node.
                    if self.projection.as_ref().is_some_and(|k| !k.contains(&c)) {
                        return Err(Error::Corruption(format!(
                            "aggregate input column {c} dropped by projection"
                        )));
                    }
                }
            }
            for &g in &agg.group_cols {
                in_range(g)?;
                if self.projection.as_ref().is_some_and(|k| !k.contains(&g)) {
                    return Err(Error::Corruption(format!(
                        "group column {g} dropped by projection"
                    )));
                }
            }
            if let Some(having) = &agg.having {
                self.validate_having(agg, having)?;
            }
        }
        Ok(())
    }

    /// A pushed HAVING needs groups that arrive one after another (a
    /// GROUP BY that is a non-empty prefix of the index key) and reads
    /// only a group's outputs.
    fn validate_having(&self, agg: &NdpAggSpec, having: &[u8]) -> Result<()> {
        len16(having.len(), "HAVING bitcode bytes")?;
        if agg.group_cols.is_empty() || !self.key_positions.starts_with(&agg.group_cols) {
            return Err(Error::Corruption(format!(
                "HAVING over groups {:?} that do not follow the key {:?}",
                agg.group_cols, self.key_positions
            )));
        }
        let outputs = agg.group_cols.len() + agg.specs.len();
        let program = IrProgram::decode_bitcode(having)?;
        if let Some(c) = program
            .columns_used()
            .into_iter()
            .find(|&c| c as usize >= outputs)
        {
            return Err(Error::Corruption(format!(
                "HAVING reads output {c} of a group's {outputs}"
            )));
        }
        Ok(())
    }
}

/// The aggregation flag byte, refused past [`AGG_HAVING`].
fn agg_flag(cur: &mut Cursor<'_>) -> Result<u8> {
    match cur.u8()? {
        flag @ (AGG_NONE | AGG_GROUPS | AGG_HAVING) => Ok(flag),
        other => Err(Error::Corruption(format!("aggregation flag byte {other}"))),
    }
}

const KEYS_MAGIC: &[u8; 4] = b"KEYS";

/// Append a key-set section to a stream that ends with a `DESC` section:
/// the magic, the count, then each key behind its `u16` length (a longer
/// key is a typed error). `keys` must be non-empty encoded keys, strictly
/// ascending, none a prefix of another (what [`KeySet::parse`] checks on
/// the other side of the wire).
pub fn encode_key_set<'k>(
    keys: impl ExactSizeIterator<Item = &'k [u8]>,
    out: &mut Vec<u8>,
) -> Result<()> {
    out.extend_from_slice(KEYS_MAGIC);
    put_u32(out, keys.len() as u32);
    keys.into_iter()
        .try_for_each(|key| put_bytes16(out, key, "key-set key bytes"))
}

/// The key set of one batched key access, validated: a record qualifies
/// when its encoded key starts with one of these keys (a full key, or a
/// prefix and its key group). The keys stay in the request's byte stream.
pub struct KeySet {
    stream: Arc<Vec<u8>>,
    /// Start and end of each key within `stream`.
    spans: Vec<(u32, u32)>,
}

impl KeySet {
    /// Parse the key-set section that starts at `at` in `stream`; returns
    /// the set and where the section ends. Input from the wire: every
    /// count is checked against the bytes that are there before anything
    /// is sized by it, and a set that is not strictly ascending and
    /// prefix-free is refused, since the plugin's merge relies on both.
    pub fn parse(stream: &Arc<Vec<u8>>, at: usize) -> Result<(KeySet, usize)> {
        let mut cur = Cursor::new(stream);
        cur.take(at)?;
        cur.magic(KEYS_MAGIC, "key set")?;
        // A key takes its length and one byte at the least.
        let count = cur.count(3)?;
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(count);
        let mut prev: &[u8] = &[];
        for _ in 0..count {
            let key = cur.bytes16()?;
            if key.is_empty() || key <= prev || (!prev.is_empty() && key.starts_with(prev)) {
                return Err(Error::Corruption(
                    "key set: keys not strictly ascending and prefix-free".into(),
                ));
            }
            spans.push(((cur.pos() - key.len()) as u32, cur.pos() as u32));
            prev = key;
        }
        let set = KeySet {
            stream: stream.clone(),
            spans,
        };
        Ok((set, cur.pos()))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let (start, end) = self.spans[i];
        &self.stream[start as usize..end as usize]
    }

    /// Does listed key `i` sort before `record_key` without being a
    /// prefix of it? Then it is before every later record's key too.
    pub fn is_before(&self, i: usize, record_key: &[u8]) -> bool {
        let key = self.get(i);
        key < record_key && !record_key.starts_with(key)
    }

    /// The first listed key that is not [`KeySet::is_before`]
    /// `record_key`, by binary search (`len()` when all are).
    pub fn seek(&self, record_key: &[u8]) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.is_before(mid, record_key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The hash a join filter sets and tests its bits by, over an integer key
/// (`Int` and `BigInt` images decode to the same `i64`): the SQL node that
/// builds the filter and the Page Store that probes it must agree on it
/// bit for bit. The splitmix64 finalizer.
pub fn key_hash(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Bloom filter over integer keys: `probes` bits a key in whole 64-bit
/// words, the bits of a key [`key_hash`] and a second hash derived from
/// it (double hashing), each mapped onto the bit range by a multiply,
/// not a division. No false negatives: a key that went in is always
/// found.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyBloom {
    probes: u32,
    words: Vec<u64>,
}

impl KeyBloom {
    /// An empty filter of `words` words (at least one).
    pub fn new(words: usize, probes: u32) -> KeyBloom {
        KeyBloom {
            probes,
            words: vec![0; words.max(1)],
        }
    }

    /// The bit numbers of `key`.
    fn bits(&self, key: i64) -> impl Iterator<Item = usize> {
        let h = key_hash(key);
        let step = h.rotate_left(32) | 1;
        let range = self.words.len() as u128 * 64;
        (0..self.probes as u64)
            .map(move |i| ((h.wrapping_add(i.wrapping_mul(step)) as u128 * range) >> 64) as usize)
    }

    pub fn insert(&mut self, key: i64) {
        for bit in self.bits(key) {
            self.words[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Can `key` have gone in? False means it did not.
    pub fn may_contain(&self, key: i64) -> bool {
        self.bits(key)
            .all(|bit| self.words[bit / 64] & (1 << (bit % 64)) != 0)
    }
}

const JOIN_FILTER_MAGIC: &[u8; 4] = b"JFLT";

/// The most probes a join-filter section may ask for of every record.
pub const JOIN_FILTER_PROBES_MAX: u32 = 8;

/// Append a join-filter section: the magic, the record position of the
/// probe scan's key column, the probe count, the word count, then the
/// words.
pub fn encode_join_filter(pos: u16, bloom: &KeyBloom, out: &mut Vec<u8>) {
    out.extend_from_slice(JOIN_FILTER_MAGIC);
    put_u16(out, pos);
    put_u8(out, bloom.probes as u8);
    put_u32(out, bloom.words.len() as u32);
    bloom.words.iter().for_each(|&w| put_u64(out, w));
}

/// A request's join filter, validated against the descriptor's record
/// layout: a definitely visible record qualifies when its key column is
/// not NULL and its value may be in the filter.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinFilterSection {
    /// Record position of the key column, an `Int` (`width` 4) or a
    /// `BigInt` (`width` 8).
    pub pos: usize,
    pub width: usize,
    pub bloom: KeyBloom,
}

impl JoinFilterSection {
    /// Parse the join-filter section that starts at `at` in `stream`, for
    /// records of `record_dtypes`; returns it and where it ends. Every
    /// count is checked against the bytes behind it before anything is
    /// sized by it.
    pub fn parse(
        stream: &[u8],
        at: usize,
        record_dtypes: &[DataType],
    ) -> Result<(JoinFilterSection, usize)> {
        let err = |what: &str| Error::Corruption(format!("join filter: {what}"));
        let mut cur = Cursor::new(stream);
        cur.take(at)?;
        cur.magic(JOIN_FILTER_MAGIC, "join filter")?;
        let pos = cur.u16()? as usize;
        let probes = cur.u8()? as u32;
        let n_words = cur.count(8)?;
        let width = match record_dtypes.get(pos) {
            Some(DataType::Int) => 4,
            Some(DataType::BigInt) => 8,
            Some(other) => return Err(err(&format!("key column {pos} is {other:?}"))),
            None => return Err(err(&format!("key column {pos} past the record"))),
        };
        if probes == 0 || probes > JOIN_FILTER_PROBES_MAX {
            return Err(err(&format!("{probes} probes")));
        }
        if n_words == 0 {
            return Err(err("no words"));
        }
        let words = cur.list(n_words, Cursor::u64)?;
        let section = JoinFilterSection {
            pos,
            width,
            bloom: KeyBloom { probes, words },
        };
        Ok((section, cur.pos()))
    }
}

/// What follows a request's `DESC` section: each section optional, at
/// most once, in this order.
#[derive(Default)]
pub struct Sections {
    pub keys: Option<KeySet>,
    pub join_filter: Option<JoinFilterSection>,
}

impl Sections {
    /// Parse everything from `at`, where the `DESC` section ends, to the
    /// end of `stream`, for records of `record_dtypes`. A section that is
    /// unknown, damaged, repeated or out of order, and bytes that are no
    /// section, are [`Error::Corruption`].
    pub fn parse(
        stream: &Arc<Vec<u8>>,
        mut at: usize,
        record_dtypes: &[DataType],
    ) -> Result<Sections> {
        let mut out = Sections::default();
        while at < stream.len() {
            let magic = stream.get(at..at + 4);
            if magic == Some(KEYS_MAGIC) && out.keys.is_none() && out.join_filter.is_none() {
                let (keys, end) = KeySet::parse(stream, at)?;
                out.keys = Some(keys);
                at = end;
            } else if magic == Some(JOIN_FILTER_MAGIC) && out.join_filter.is_none() {
                let (filter, end) = JoinFilterSection::parse(stream, at, record_dtypes)?;
                out.join_filter = Some(filter);
                at = end;
            } else {
                return Err(Error::Corruption(format!(
                    "unknown, repeated or out-of-order section at byte {at}"
                )));
            }
        }
        Ok(out)
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_none() && self.join_filter.is_none()
    }
}

/// FNV-1a over the descriptor bytes — the Page Store descriptor-cache key
/// ("computed by applying a hash function to the NDP descriptor fields",
/// §IV-D1).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::compile::lower;

    fn sample() -> NdpDescriptor {
        let pred = lower(&Expr::and(vec![
            Expr::ge(Expr::col(2), Expr::date("1994-01-01")),
            Expr::lt(Expr::col(2), Expr::date("1995-01-01")),
        ]))
        .unwrap();
        NdpDescriptor {
            index_id: 42,
            record_dtypes: vec![
                DataType::BigInt,
                DataType::Int,
                DataType::Date,
                DataType::Decimal {
                    precision: 15,
                    scale: 2,
                },
                DataType::Varchar(44),
            ],
            key_positions: vec![0, 1],
            projection: Some(vec![0, 1, 2, 3]),
            predicate_bitcode: Some(pred.encode_bitcode().unwrap()),
            aggregation: Some(NdpAggSpec {
                specs: vec![AggSpec::sum(3), AggSpec::count_star()],
                group_cols: vec![],
                having: None,
            }),
            low_watermark: 17,
        }
    }

    #[test]
    fn roundtrip_full() {
        let d = sample();
        let bytes = d.encode();
        let back = NdpDescriptor::decode(&bytes).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn roundtrip_minimal() {
        let d = NdpDescriptor {
            index_id: 1,
            record_dtypes: vec![DataType::Int],
            key_positions: vec![0],
            projection: None,
            predicate_bitcode: None,
            aggregation: None,
            low_watermark: 2,
        };
        assert_eq!(NdpDescriptor::decode(&d.encode()).unwrap(), d);
        assert!(!d.requests_work());
        assert!(sample().requests_work());
    }

    #[test]
    fn validation_catches_dropped_key_column() {
        let mut d = sample();
        d.projection = Some(vec![0, 2, 3]); // drops key col 1
        assert!(d.validate().is_err());
    }

    #[test]
    fn group_columns_need_not_follow_the_key_but_must_survive_projection() {
        let mut d = sample();
        d.aggregation = Some(NdpAggSpec {
            specs: vec![AggSpec::count_star()],
            group_cols: vec![2, 0],
            having: None,
        });
        d.validate().unwrap();
        d.aggregation = Some(NdpAggSpec {
            specs: vec![AggSpec::count_star()],
            group_cols: vec![4],
            having: None,
        });
        assert!(d.validate().is_err(), "col 4 is not in the projection");
    }

    #[test]
    fn validation_catches_aggregate_dropped_by_projection() {
        let mut d = sample();
        d.aggregation = Some(NdpAggSpec {
            specs: vec![AggSpec::sum(4)],
            group_cols: vec![],
            having: None,
        });
        assert!(d.validate().is_err(), "col 4 is not in the projection");
        // A program's columns are checked the same way.
        let program = |e: &Expr| AggSpec {
            func: crate::agg::AggFunc::Sum,
            input: AggInput::Program(lower(e).unwrap().encode_bitcode().unwrap()),
        };
        let over = |c| Expr::mul(Expr::col(3), Expr::col(c));
        for (c, ok) in [(1, true), (4, false), (9, false)] {
            d.aggregation = Some(NdpAggSpec {
                specs: vec![program(&over(c))],
                group_cols: vec![],
                having: None,
            });
            assert_eq!(d.validate().is_ok(), ok, "col {c}");
        }
    }

    #[test]
    fn program_inputs_roundtrip_and_are_walked_by_their_length() {
        let mut d = sample();
        let bc = lower(&Expr::mul(
            Expr::col(3),
            Expr::sub(Expr::int(1), Expr::col(1)),
        ))
        .unwrap()
        .encode_bitcode()
        .unwrap();
        d.aggregation = Some(NdpAggSpec {
            specs: vec![
                AggSpec {
                    func: crate::agg::AggFunc::Sum,
                    input: AggInput::Program(bc.clone()),
                },
                AggSpec::count_star(),
                AggSpec {
                    func: crate::agg::AggFunc::Max,
                    input: AggInput::Program(bc),
                },
            ],
            group_cols: vec![2],
            having: None,
        });
        let bytes = d.encode();
        assert_eq!(NdpDescriptor::decode(&bytes).unwrap(), d);
        assert_eq!(NdpDescriptor::section_len(&bytes).unwrap(), bytes.len());
        // Damaged bitcode inside a valid frame is refused by decode.
        let mut damaged = bytes.clone();
        let magic = damaged.windows(4).position(|w| w == b"NDP1").unwrap();
        let spec = damaged[magic + 4..]
            .windows(4)
            .position(|w| w == b"NDP1")
            .unwrap();
        damaged[magic + 4 + spec] = b'X';
        assert!(NdpDescriptor::decode(&damaged).is_err());
    }

    /// A section past a `u16` count or length is refused by `validate`,
    /// and `encode` stops at it: a truncated stream, never a wrapped
    /// length that decodes as something else.
    #[test]
    fn oversize_sections_are_refused_before_they_wrap() {
        let mut d = sample();
        d.predicate_bitcode = Some(vec![0; 70_000]);
        assert!(matches!(d.validate(), Err(Error::InvalidState(_))));
        assert!(NdpDescriptor::decode(&d.encode()).is_err());
        assert!(NdpDescriptor::section_len(&d.encode()).is_err());
        let mut d = sample();
        d.projection = None;
        d.key_positions = vec![0; 70_000];
        assert!(matches!(d.validate(), Err(Error::InvalidState(_))));
        assert!(NdpDescriptor::decode(&d.encode()).is_err());
        let long = vec![b'k'; 70_000];
        let mut out = Vec::new();
        let err = encode_key_set([&long[..]].into_iter(), &mut out).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "{err}");
    }

    /// A descriptor grouped by its key's first column, with a HAVING over
    /// (group, SUM).
    fn with_having() -> NdpDescriptor {
        let mut d = sample();
        d.aggregation = Some(NdpAggSpec {
            specs: vec![AggSpec::sum(3)],
            group_cols: vec![0],
            having: Some(
                lower(&Expr::gt(Expr::col(1), Expr::int(300)))
                    .unwrap()
                    .encode_bitcode()
                    .unwrap(),
            ),
        });
        d
    }

    #[test]
    fn a_having_rides_behind_the_group_columns_and_only_on_key_groups() {
        let d = with_having();
        let bytes = d.encode();
        assert_eq!(NdpDescriptor::decode(&bytes).unwrap(), d);
        assert_eq!(NdpDescriptor::section_len(&bytes).unwrap(), bytes.len());
        // Without it, the bytes are the descriptor's without a HAVING:
        // the flag byte says 1 instead of 2, and nothing follows.
        let mut plain = d.clone();
        plain.aggregation.as_mut().unwrap().having = None;
        let plain_bytes = plain.encode();
        let having_len = 2 + d
            .aggregation
            .as_ref()
            .unwrap()
            .having
            .as_ref()
            .unwrap()
            .len();
        assert_eq!(plain_bytes.len() + having_len, bytes.len());
        // Behind the flag: the spec count, the spec, the group count and
        // the group column.
        let flag = plain_bytes.len() - 1 - 2 - AGG_SPEC_SUM_LEN - 2 - 2;
        assert_eq!((plain_bytes[flag], bytes[flag]), (AGG_GROUPS, AGG_HAVING));
        // A flag past 2, groups off the key, no groups, and an output past
        // the group's are refused.
        let mut flag3 = bytes.clone();
        flag3[flag] = 3;
        assert!(matches!(
            NdpDescriptor::decode(&flag3),
            Err(Error::Corruption(_))
        ));
        assert!(NdpDescriptor::section_len(&flag3).is_err());
        for group_cols in [vec![1], vec![], vec![1, 0]] {
            let mut bad = d.clone();
            bad.aggregation.as_mut().unwrap().group_cols = group_cols;
            assert!(matches!(bad.validate(), Err(Error::Corruption(_))));
        }
        let mut past = d.clone();
        past.aggregation.as_mut().unwrap().having =
            Some(lower(&Expr::col(2)).unwrap().encode_bitcode().unwrap());
        assert!(matches!(past.validate(), Err(Error::Corruption(_))));
        // The whole key groups too.
        let mut whole = d;
        whole.aggregation.as_mut().unwrap().group_cols = vec![0, 1];
        whole.validate().unwrap();
    }

    /// An encoded `SUM(col)` spec: function, input kind, column.
    const AGG_SPEC_SUM_LEN: usize = 4;

    #[test]
    fn decode_rejects_garbage() {
        assert!(NdpDescriptor::decode(b"????????").is_err());
        let longer = [&sample().encode()[..], &[0]].concat();
        assert!(NdpDescriptor::decode(&longer).is_err(), "trailing bytes");
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() / 2);
        assert!(NdpDescriptor::decode(&bytes).is_err());
    }

    #[test]
    fn section_len_is_the_encoded_length() {
        let minimal = NdpDescriptor {
            index_id: 1,
            record_dtypes: vec![DataType::Int],
            key_positions: vec![0],
            projection: None,
            predicate_bitcode: None,
            aggregation: None,
            low_watermark: 2,
        };
        for d in [sample(), minimal] {
            let mut bytes = d.encode();
            let len = bytes.len();
            assert_eq!(NdpDescriptor::section_len(&bytes).unwrap(), len);
            // Whatever follows the section is not part of it.
            encode_key_set([&b"k"[..]].into_iter(), &mut bytes).unwrap();
            assert_eq!(NdpDescriptor::section_len(&bytes).unwrap(), len);
            for cut in 0..len {
                assert!(NdpDescriptor::section_len(&bytes[..cut]).is_err(), "{cut}");
            }
        }
    }

    fn key_set_of(keys: &[&[u8]]) -> Result<Option<KeySet>> {
        let mut stream = sample().encode();
        let at = stream.len();
        encode_key_set(keys.iter().copied(), &mut stream).unwrap();
        Ok(Sections::parse(&Arc::new(stream), at, &sample().record_dtypes)?.keys)
    }

    #[test]
    fn key_set_roundtrip_and_seek() {
        let keys: [&[u8]; 3] = [b"b", b"d1", b"f"];
        let set = key_set_of(&keys).unwrap().unwrap();
        assert_eq!(set.len(), 3);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(set.get(i), *k);
        }
        // A record qualifies by prefix: "d10" extends "d1", "d2" does not.
        assert_eq!(set.seek(b"a"), 0);
        assert_eq!(set.seek(b"b7"), 0);
        assert_eq!(set.seek(b"c"), 1);
        assert_eq!(set.seek(b"d10"), 1);
        assert_eq!(set.seek(b"d2"), 2);
        assert_eq!(set.seek(b"g"), 3);
        // No section at all, and an empty set, are both fine.
        let stream = Arc::new(sample().encode());
        let none = Sections::parse(&stream, stream.len(), &sample().record_dtypes).unwrap();
        assert!(none.is_empty());
        assert!(key_set_of(&[]).unwrap().unwrap().is_empty());
    }

    #[test]
    fn key_set_rejects_what_the_merge_cannot_take() {
        for bad in [
            &[&b"b"[..], b"a"][..], // descending
            &[b"a", b"a"],          // duplicate
            &[b"a", b"ab"],         // one a prefix of another
            &[b"", b"a"],           // empty key
        ] {
            assert!(matches!(key_set_of(bad), Err(Error::Corruption(_))));
        }
        let mut stream = sample().encode();
        let at = stream.len();
        encode_key_set([&b"a"[..], b"b"].into_iter(), &mut stream).unwrap();
        let parse = |s: Vec<u8>| Sections::parse(&Arc::new(s), at, &sample().record_dtypes);
        // Truncated, trailing bytes, wrong magic, a count nothing backs.
        assert!(parse(stream[..stream.len() - 1].to_vec()).is_err());
        let mut longer = stream.clone();
        longer.push(0);
        assert!(parse(longer).is_err());
        let mut magic = stream.clone();
        magic[at] = b'X';
        assert!(parse(magic).is_err());
        let mut count = stream.clone();
        count[at + 4..at + 8].copy_from_slice(&1_000_000u32.to_le_bytes());
        assert!(parse(count).is_err());
    }

    #[test]
    fn bloom_finds_every_key_and_few_others() {
        let keys: Vec<i64> = (0..1000).map(|i| i * 7919 - 300_000).collect();
        // 10 bits a key, 3 probes: about 1.7 % false positives.
        let mut bloom = KeyBloom::new(1000 * 10 / 64 + 1, 3);
        for &k in &keys {
            bloom.insert(k);
        }
        assert!(keys.iter().all(|&k| bloom.may_contain(k)));
        let others = (0..100_000i64).map(|i| i * 7919 + 1);
        let false_positives = others.filter(|&k| bloom.may_contain(k)).count();
        assert!(false_positives < 3_000, "{false_positives}");
        // A single word still works.
        let mut tiny = KeyBloom::new(0, 3);
        tiny.insert(i64::MIN);
        assert!(tiny.may_contain(i64::MIN) && tiny.words.len() == 1);
    }

    /// `DESC`, then `sections` (raw bytes), through [`Sections::parse`].
    fn sections_of(sections: &[u8]) -> Result<Sections> {
        let mut stream = sample().encode();
        let at = stream.len();
        stream.extend_from_slice(sections);
        Sections::parse(&Arc::new(stream), at, &sample().record_dtypes)
    }

    fn filter_section(pos: u16, keys: &[i64]) -> Vec<u8> {
        let mut bloom = KeyBloom::new(2, 3);
        for &k in keys {
            bloom.insert(k);
        }
        let mut out = Vec::new();
        encode_join_filter(pos, &bloom, &mut out);
        out
    }

    #[test]
    fn join_filter_roundtrip_alone_and_behind_a_key_set() {
        let filter = filter_section(1, &[4, -9]);
        let alone = sections_of(&filter).unwrap();
        let f = alone.join_filter.unwrap();
        assert_eq!((f.pos, f.width, f.bloom.words.len()), (1, 4, 2));
        assert!(f.bloom.may_contain(4) && f.bloom.may_contain(-9));
        assert!(alone.keys.is_none());
        let mut both = Vec::new();
        encode_key_set([&b"a"[..]].into_iter(), &mut both).unwrap();
        both.extend_from_slice(&filter_section(0, &[1]));
        let both = sections_of(&both).unwrap();
        assert_eq!(both.keys.unwrap().len(), 1);
        assert_eq!(both.join_filter.unwrap().width, 8);
    }

    #[test]
    fn join_filter_sections_refuse_what_they_cannot_vouch_for() {
        let good = filter_section(0, &[1, 2, 3]);
        let mut keys = Vec::new();
        encode_key_set([&b"a"[..]].into_iter(), &mut keys).unwrap();
        let with = |at: usize, byte: u8| {
            let mut s = good.clone();
            s[at] = byte;
            s
        };
        let words = |n: u32| {
            let mut s = good.clone();
            s[7..11].copy_from_slice(&n.to_le_bytes());
            s
        };
        let bad: Vec<(&str, Vec<u8>)> = vec![
            ("truncated", good[..good.len() - 1].to_vec()),
            ("truncated header", good[..9].to_vec()),
            ("more words than bytes", words(3)),
            ("four billion words", words(u32::MAX)),
            ("no words", words(0)),
            ("no probes", with(6, 0)),
            ("nine probes", with(6, 9)),
            ("a date column", with(4, 2)),
            ("past the record", with(4, 5)),
            ("repeated", [&good[..], &good[..]].concat()),
            ("out of order", [&good[..], &keys[..]].concat()),
            ("key set twice", [&keys[..], &keys[..]].concat()),
            ("unknown magic", with(0, b'X')),
            ("trailing bytes", [&good[..], &[0u8][..]].concat()),
        ];
        for (what, bytes) in bad {
            assert!(
                matches!(sections_of(&bytes), Err(Error::Corruption(_))),
                "{what}"
            );
        }
        assert!(sections_of(&good).is_ok());
        assert!(sections_of(&[&keys[..], &good[..]].concat()).is_ok());
    }

    #[test]
    fn fnv_hash_distinguishes_descriptors() {
        let a = sample();
        let mut b = sample();
        b.low_watermark += 1;
        assert_ne!(fnv64(&a.encode()), fnv64(&b.encode()));
        assert_eq!(fnv64(&a.encode()), fnv64(&sample().encode()));
    }
}
