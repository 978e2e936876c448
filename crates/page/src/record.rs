//! The record (row) format.
//!
//! A record has one of two header shapes. A stored record (the B+ tree's
//! own pages, the redo log, and the ambiguous `Ordinary` records an NDP
//! page passes through) carries the full 13-byte header:
//!
//! ```text
//! +--------+---------+----------+---------+-------------+------------------+
//! | info   | next    | heap_no  | trx_id  | null bitmap | var-length array |
//! | 1 byte | 2 bytes | 2 bytes  | 8 bytes | ceil(n/8)   | 2 bytes per      |
//! |        |         |          |         |             | varchar column   |
//! +--------+---------+----------+---------+-------------+------------------+
//! | column images (fixed-width columns occupy their width even when NULL) |
//! +------------------------------------------------------------------------+
//! ```
//!
//! An NDP record (`NdpProjection`, `NdpAggregate`) is what a Page Store
//! writes for a visible survivor or a group's carrier. Visibility was
//! judged against the read view's low watermark where it was written, so
//! it ships without heap number and trx id, in a 3-byte header:
//!
//! ```text
//! +--------+---------+-------------+------------------+
//! | info   | next    | null bitmap | var-length array |
//! | 1 byte | 2 bytes | ceil(n/8)   | 2 bytes per      |
//! |        |         |             | varchar column   |
//! +--------+---------+-------------+------------------+
//! | column images, as above                           |
//! +---------------------------------------------------+
//! | [NdpAggregate only] u16 payload length + payload  |
//! +---------------------------------------------------+
//! ```
//!
//! `info` packs the record type in its low 3 bits — the values of the
//! paper's Listing 3 (`REC_STATUS_ORDINARY` … `REC_STATUS_NDP_AGGREGATE`)
//! — and the delete mark in bit 3; the type says which header follows.
//! `next` is the in-page offset of the next record in key order (0 = end
//! of chain), which is what keeps NDP pages consumable by the unchanged
//! page-cursor code path (§IV-C2). A [`RecordLayout`] knows its header
//! shape: [`RecordLayout::new`] describes stored records,
//! [`RecordLayout::project`] NDP records.

use taurus_common::schema::encode_key_part_image;
use taurus_common::{DataType, Error, Result, Value};

/// Record type codes, numerically identical to the paper's Listing 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum RecType {
    /// `REC_STATUS_ORDINARY`: a regular user record (full layout).
    Ordinary = 0,
    /// `REC_STATUS_NODE_PTR`: B+ tree internal entry (key bytes + child).
    NodePtr = 1,
    /// `REC_STATUS_INFIMUM` (kept for format parity; this implementation
    /// uses a header chain pointer instead of a materialized infimum).
    Infimum = 2,
    /// `REC_STATUS_SUPREMUM` (see [`RecType::Infimum`]).
    Supremum = 3,
    /// `REC_STATUS_NDP_PROJECTION`: columns were projected away in the
    /// Page Store; the record uses the *projected* layout.
    NdpProjection = 4,
    /// `REC_STATUS_NDP_AGGREGATE`: the record carries an aggregation
    /// payload covering itself and previously-aggregated rows.
    NdpAggregate = 5,
}

impl RecType {
    pub fn from_u8(v: u8) -> Result<RecType> {
        Ok(match v {
            0 => RecType::Ordinary,
            1 => RecType::NodePtr,
            2 => RecType::Infimum,
            3 => RecType::Supremum,
            4 => RecType::NdpProjection,
            5 => RecType::NdpAggregate,
            other => return Err(Error::Corruption(format!("bad record type {other}"))),
        })
    }

    /// Is this one of the two types a Page Store writes, in the NDP header?
    #[inline]
    pub fn is_ndp(self) -> bool {
        matches!(self, RecType::NdpProjection | RecType::NdpAggregate)
    }
}

const DELETE_MARK_BIT: u8 = 0x08;
/// Fixed header length of a stored record, before the null bitmap.
pub const REC_HDR_LEN: usize = 13;
/// Fixed header length of an NDP record: the info byte and `next`.
pub const NDP_REC_HDR_LEN: usize = 3;

/// Non-column metadata carried by every record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecordMeta {
    pub rec_type: RecType,
    pub delete_mark: bool,
    pub heap_no: u16,
    pub trx_id: u64,
}

impl RecordMeta {
    pub fn ordinary(trx_id: u64) -> Self {
        RecordMeta {
            rec_type: RecType::Ordinary,
            delete_mark: false,
            heap_no: 0,
            trx_id,
        }
    }
}

/// Describes the columns physically present in a record, in record order,
/// and the header in front of them.
///
/// A full-table layout describes stored records; a *projected* layout
/// (any subset of the columns, all of them included) describes NDP records.
/// Both kinds coexist in one NDP page, disambiguated by the record type
/// (§IV-C2).
#[derive(Clone, Debug, PartialEq)]
pub struct RecordLayout {
    pub dtypes: Vec<DataType>,
    pub n_var: usize,
    /// [`REC_HDR_LEN`] or [`NDP_REC_HDR_LEN`]: where the null bitmap starts.
    hdr_len: usize,
    bitmap_len: usize,
    /// Where the var-length array starts: `hdr_len + bitmap_len`.
    varlen_at: usize,
    /// For each column, plus one entry for the end of the data: where its
    /// image starts when every varchar before it is empty (header
    /// included). A column's real offset adds the lengths of the
    /// `var_before` varchars in front of it, so columns ahead of the first
    /// varchar sit at a constant offset.
    fixed_off: Vec<u32>,
    /// For each column, plus one entry for the end of the data: how many
    /// varchar columns precede it (for a varchar column, its own entry in
    /// the var-length array).
    var_before: Vec<u16>,
    /// Declared maximum length of each varchar column, in varchar order.
    var_max: Vec<u16>,
}

impl RecordLayout {
    /// The layout of stored records of these columns.
    pub fn new(dtypes: Vec<DataType>) -> Self {
        RecordLayout::with_header(dtypes, REC_HDR_LEN)
    }

    fn with_header(dtypes: Vec<DataType>, hdr_len: usize) -> Self {
        let var_max: Vec<u16> = dtypes
            .iter()
            .filter_map(|dt| match dt {
                DataType::Varchar(n) => Some(*n),
                _ => None,
            })
            .collect();
        let n_var = var_max.len();
        let bitmap_len = dtypes.len().div_ceil(8);
        let mut fixed_off = Vec::with_capacity(dtypes.len() + 1);
        let mut var_before = Vec::with_capacity(dtypes.len() + 1);
        let mut off = (hdr_len + bitmap_len + 2 * n_var) as u32;
        let mut vars = 0u16;
        for dt in &dtypes {
            fixed_off.push(off);
            var_before.push(vars);
            match dt.fixed_width() {
                Some(w) => off += w as u32,
                None => vars += 1,
            }
        }
        fixed_off.push(off);
        var_before.push(vars);
        RecordLayout {
            dtypes,
            n_var,
            hdr_len,
            bitmap_len,
            varlen_at: hdr_len + bitmap_len,
            fixed_off,
            var_before,
            var_max,
        }
    }

    /// Header length = fixed header + null bitmap + var-length array.
    #[inline]
    pub fn header_len(&self) -> usize {
        self.varlen_at + 2 * self.n_var
    }

    /// Does this layout describe NDP records (the 3-byte header)?
    #[inline]
    pub fn is_ndp(&self) -> bool {
        self.hdr_len == NDP_REC_HDR_LEN
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.dtypes.len()
    }

    /// Where column `col`'s image starts in every record of this layout
    /// (header included), if no varchar precedes it: a program compiled
    /// against the layout reads such a field at a constant offset.
    pub fn fixed_offset(&self, col: usize) -> Option<usize> {
        (self.var_before[col] == 0).then_some(self.fixed_off[col] as usize)
    }

    /// Column `col`'s entry in the var-length array, if it is a varchar.
    #[inline]
    fn var_slot(&self, col: usize) -> Option<usize> {
        match self.dtypes[col] {
            DataType::Varchar(_) => Some(self.var_before[col] as usize),
            _ => None,
        }
    }

    /// The layout of the NDP records a Page Store writes of these records
    /// when it keeps the columns `keep` (positions into this layout, in
    /// record order; every position keeps every column).
    pub fn project(&self, keep: &[usize]) -> RecordLayout {
        RecordLayout::with_header(
            keep.iter().map(|&i| self.dtypes[i]).collect(),
            NDP_REC_HDR_LEN,
        )
    }
}

/// Encode a record. `agg_payload` must be `Some` iff
/// `meta.rec_type == RecType::NdpAggregate`, and the record type must fit
/// the layout's header: an NDP type under an NDP layout, which writes no
/// heap number or trx id, any other under a stored one.
pub fn encode_record(
    layout: &RecordLayout,
    values: &[Value],
    meta: RecordMeta,
    agg_payload: Option<&[u8]>,
    out: &mut Vec<u8>,
) -> Result<()> {
    assert_eq!(values.len(), layout.n_cols(), "value count != layout width");
    debug_assert_eq!(
        agg_payload.is_some(),
        meta.rec_type == RecType::NdpAggregate,
        "aggregate payload presence must match record type"
    );
    debug_assert_eq!(
        meta.rec_type.is_ndp(),
        layout.is_ndp(),
        "record type must match the layout's header"
    );
    let start = out.len();
    let info = (meta.rec_type as u8) | if meta.delete_mark { DELETE_MARK_BIT } else { 0 };
    out.push(info);
    out.extend_from_slice(&0u16.to_le_bytes()); // next: fixed up by the page
    if !layout.is_ndp() {
        out.extend_from_slice(&meta.heap_no.to_le_bytes());
        out.extend_from_slice(&meta.trx_id.to_le_bytes());
    }
    // Null bitmap.
    let bitmap_at = out.len();
    out.resize(bitmap_at + layout.bitmap_len, 0);
    for (i, v) in values.iter().enumerate() {
        if v.is_null() {
            out[bitmap_at + i / 8] |= 1 << (i % 8);
        }
    }
    // Var-length array (filled in as we encode the data below).
    let varlen_at = out.len();
    out.resize(varlen_at + 2 * layout.n_var, 0);
    // Column images.
    for (i, (v, dt)) in values.iter().zip(&layout.dtypes).enumerate() {
        let col_start = out.len();
        if v.is_null() {
            if let Some(w) = dt.fixed_width() {
                out.resize(col_start + w, 0);
            }
            // NULL varchar: zero length, nothing to write.
        } else {
            v.encode_column(dt, out)?;
        }
        if let Some(vi) = layout.var_slot(i) {
            let len = (out.len() - col_start) as u16;
            out[varlen_at + 2 * vi..varlen_at + 2 * vi + 2].copy_from_slice(&len.to_le_bytes());
        }
    }
    if let Some(p) = agg_payload {
        let len = u16::try_from(p.len())
            .map_err(|_| Error::Internal("aggregate payload too large".into()))?;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(p);
    }
    debug_assert!(out.len() - start >= layout.header_len());
    Ok(())
}

/// Zero-copy reader over one encoded record.
#[derive(Clone, Copy)]
pub struct RecordView<'a> {
    bytes: &'a [u8],
    layout: &'a RecordLayout,
}

fn corrupt(what: std::fmt::Arguments<'_>) -> Error {
    Error::Corruption(format!("record: {what}"))
}

impl<'a> RecordView<'a> {
    /// A view over bytes this process encoded itself (or already
    /// validated). `bytes` must begin at the record header; it may extend
    /// past the record's end (e.g. the rest of the page). Field accessors
    /// index without checking, so bytes read from a page go through
    /// [`RecordView::parse`] instead.
    pub fn new(bytes: &'a [u8], layout: &'a RecordLayout) -> Self {
        RecordView { bytes, layout }
    }

    /// A view over bytes read from a page, checked once: the header fits,
    /// the info byte holds a known record type whose header is the
    /// layout's (an NDP type under an NDP layout, any other under a stored
    /// one) and no stray bits, every varchar length is within its declared
    /// maximum, and the column images (plus an aggregate payload) end
    /// inside `bytes`. After this every accessor stays in bounds; a
    /// damaged record is [`Error::Corruption`], never a panic.
    pub fn parse(bytes: &'a [u8], layout: &'a RecordLayout) -> Result<Self> {
        if bytes.len() < layout.header_len() {
            return Err(corrupt(format_args!(
                "{} bytes left, header needs {}",
                bytes.len(),
                layout.header_len()
            )));
        }
        let v = RecordView { bytes, layout };
        if bytes[0] & !(0x07 | DELETE_MARK_BIT) != 0 {
            return Err(corrupt(format_args!("info byte {:#04x}", bytes[0])));
        }
        let rec_type = v.rec_type()?;
        if rec_type.is_ndp() != layout.is_ndp() {
            return Err(corrupt(format_args!(
                "{rec_type:?} record read with a {} layout",
                if layout.is_ndp() { "NDP" } else { "stored" }
            )));
        }
        let mut end = layout.fixed_off[layout.n_cols()] as usize;
        for (vi, &max) in layout.var_max.iter().enumerate() {
            let len = v.var_len(vi);
            if len > max as usize {
                return Err(corrupt(format_args!(
                    "varchar {vi} claims {len} bytes, declared maximum {max}"
                )));
            }
            end += len;
        }
        if rec_type == RecType::NdpAggregate {
            if end + 2 > bytes.len() {
                return Err(corrupt(format_args!("aggregate payload length cut off")));
            }
            end += 2 + u16::from_le_bytes([bytes[end], bytes[end + 1]]) as usize;
        }
        if end > bytes.len() {
            return Err(corrupt(format_args!(
                "ends at byte {end} of {}",
                bytes.len()
            )));
        }
        Ok(v)
    }

    #[inline]
    pub fn rec_type(&self) -> Result<RecType> {
        RecType::from_u8(self.bytes[0] & 0x07)
    }

    /// The type of the record `bytes` begins with, which says the layout
    /// to parse it with: read from the info byte alone.
    #[inline]
    pub fn peek_type(bytes: &[u8]) -> Result<RecType> {
        match bytes.first() {
            Some(&info) => RecType::from_u8(info & 0x07),
            None => Err(corrupt(format_args!("no info byte"))),
        }
    }

    #[inline]
    fn is_aggregate(&self) -> bool {
        self.bytes[0] & 0x07 == RecType::NdpAggregate as u8
    }

    #[inline]
    pub fn delete_mark(&self) -> bool {
        self.bytes[0] & DELETE_MARK_BIT != 0
    }

    #[inline]
    pub fn next_offset(&self) -> u16 {
        u16::from_le_bytes([self.bytes[1], self.bytes[2]])
    }

    /// The heap number of a stored record (an NDP record has none).
    #[inline]
    pub fn heap_no(&self) -> u16 {
        debug_assert!(!self.layout.is_ndp(), "an NDP record has no heap number");
        u16::from_le_bytes([self.bytes[3], self.bytes[4]])
    }

    /// The trx id of a stored record (an NDP record has none).
    #[inline]
    pub fn trx_id(&self) -> u64 {
        debug_assert!(!self.layout.is_ndp(), "an NDP record has no trx id");
        u64::from_le_bytes(self.bytes[5..13].try_into().unwrap())
    }

    #[inline]
    pub fn is_null(&self, col: usize) -> bool {
        self.bytes[self.layout.hdr_len + col / 8] & (1 << (col % 8)) != 0
    }

    #[inline]
    fn var_len(&self, vi: usize) -> usize {
        let at = self.layout.varlen_at + 2 * vi;
        u16::from_le_bytes([self.bytes[at], self.bytes[at + 1]]) as usize
    }

    /// Byte offset (within the record) where column `col`'s image starts;
    /// `col == n_cols` gives the end of the column data. Constant for
    /// columns ahead of the first varchar.
    #[inline]
    fn col_offset(&self, col: usize) -> usize {
        let vars: usize = (0..self.layout.var_before[col] as usize)
            .map(|vi| self.var_len(vi))
            .sum();
        self.layout.fixed_off[col] as usize + vars
    }

    #[inline]
    fn col_len(&self, col: usize) -> usize {
        match self.layout.var_slot(col) {
            Some(vi) => self.var_len(vi),
            None => (self.layout.fixed_off[col + 1] - self.layout.fixed_off[col]) as usize,
        }
    }

    /// Raw image of column `col` (empty for NULL varchar; zeroed bytes for
    /// NULL fixed-width columns — check [`RecordView::is_null`] first).
    #[inline]
    pub fn field_bytes(&self, col: usize) -> &'a [u8] {
        let off = self.col_offset(col);
        &self.bytes[off..off + self.col_len(col)]
    }

    /// Decode column `col` into a [`Value`] (NULL-aware).
    pub fn value(&self, col: usize) -> Value {
        if self.is_null(col) {
            Value::Null
        } else {
            Value::decode_column(&self.layout.dtypes[col], self.field_bytes(col))
        }
    }

    /// Decode all columns.
    pub fn values(&self) -> Vec<Value> {
        (0..self.layout.n_cols()).map(|c| self.value(c)).collect()
    }

    /// Length of the column-data portion (header through last column).
    #[inline]
    fn data_end(&self) -> usize {
        self.col_offset(self.layout.n_cols())
    }

    /// Aggregate payload of an `NdpAggregate` record.
    pub fn agg_payload(&self) -> Option<&'a [u8]> {
        if !self.is_aggregate() {
            return None;
        }
        let at = self.data_end();
        let len = u16::from_le_bytes([self.bytes[at], self.bytes[at + 1]]) as usize;
        Some(&self.bytes[at + 2..at + 2 + len])
    }

    /// Total encoded length of this record, including any aggregate suffix.
    pub fn total_len(&self) -> usize {
        let end = self.data_end();
        if self.is_aggregate() {
            let len = u16::from_le_bytes([self.bytes[end], self.bytes[end + 1]]) as usize;
            end + 2 + len
        } else {
            end
        }
    }

    pub fn raw(&self) -> &'a [u8] {
        &self.bytes[..self.total_len()]
    }

    /// The backing slice this view was constructed over (starts at the
    /// record header, may extend past the record's end). Offsets from
    /// [`RecordLayout::fixed_offset`] index into this slice.
    #[inline]
    pub fn backing(&self) -> &'a [u8] {
        self.bytes
    }

    #[inline]
    pub fn layout(&self) -> &'a RecordLayout {
        self.layout
    }
}

impl RecordView<'_> {
    /// Append the memcomparable key formed by the columns at `key_pos` to
    /// `out`, encoded straight from the column images: the bytes
    /// `encode_key` gives for the decoded values, with no `Value` built.
    pub fn key_into(&self, key_pos: &[usize], out: &mut Vec<u8>) {
        for &p in key_pos {
            let image = (!self.is_null(p)).then(|| self.field_bytes(p));
            encode_key_part_image(&self.layout.dtypes[p], image, out);
        }
    }

    /// Append the group key of the columns at `cols` to `out`: for each,
    /// its NULL flag, then a non-NULL column's image length (`u16`) and
    /// image, as SQL equality takes it: a string's without its trailing
    /// spaces (PAD SPACE, as comparisons and index keys take it), a zero
    /// double's without its sign. Images are what a record of any layout
    /// holds for a value (an NDP projection copies them), so two records
    /// key a column alike exactly when their values are equal. The Page
    /// Store's aggregation and the SQL node's folded scans key their
    /// groups with it.
    pub fn group_key(&self, cols: impl IntoIterator<Item = usize>, out: &mut Vec<u8>) {
        const ZERO: [u8; 8] = [0; 8];
        for col in cols {
            if self.is_null(col) {
                out.push(0);
            } else {
                let mut image = self.field_bytes(col);
                match self.layout.dtypes[col] {
                    DataType::Char(_) | DataType::Varchar(_) => {
                        while let [rest @ .., b' '] = image {
                            image = rest;
                        }
                    }
                    // A zero, whatever its sign bit (the image's last).
                    DataType::Double if image[..7] == ZERO[..7] && image[7] & 0x7f == 0 => {
                        image = &ZERO
                    }
                    _ => {}
                }
                out.push(1);
                out.extend_from_slice(&(image.len() as u16).to_le_bytes());
                out.extend_from_slice(image);
            }
        }
    }
}

/// Where a scan finds the columns it delivers, resolved once per scan so
/// a record is decoded in one pass: columns ahead of the layout's first
/// varchar sit at constant offsets, and the ones behind it share one
/// running sum of the varchar lengths in front of them.
#[derive(Clone, Debug)]
pub struct DecodePlan {
    cols: Vec<PlanCol>,
}

#[derive(Clone, Copy, Debug)]
struct PlanCol {
    pos: usize,
    dtype: DataType,
    /// Offset with every preceding varchar empty.
    fixed_off: usize,
    /// Varchars in front of the column.
    var_before: usize,
    /// Fixed width, or `None` for a varchar (its length is entry
    /// `var_before` of the var-length array).
    width: Option<usize>,
}

impl PlanCol {
    fn of(layout: &RecordLayout, pos: usize) -> PlanCol {
        PlanCol {
            pos,
            dtype: layout.dtypes[pos],
            fixed_off: layout.fixed_off[pos] as usize,
            var_before: layout.var_before[pos] as usize,
            width: layout.dtypes[pos].fixed_width(),
        }
    }
}

/// Running sum of a record's leading varchar lengths, shared by the
/// columns of a plan: asked for in record order it only moves forward.
#[derive(Default)]
struct VarPrefix {
    sum: usize,
    seen: usize,
}

impl VarPrefix {
    /// Total length of `rec`'s first `n` varchars.
    fn upto(&mut self, rec: &RecordView<'_>, n: usize) -> usize {
        if n < self.seen {
            *self = VarPrefix::default();
        }
        while self.seen < n {
            self.sum += rec.var_len(self.seen);
            self.seen += 1;
        }
        self.sum
    }
}

impl DecodePlan {
    /// Plan the decode of the columns at positions `cols` of `layout`, in
    /// that order.
    pub fn new(layout: &RecordLayout, cols: &[usize]) -> DecodePlan {
        DecodePlan {
            cols: cols.iter().map(|&pos| PlanCol::of(layout, pos)).collect(),
        }
    }

    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// The planned columns of `rec` (a view over the layout the plan was
    /// built for), NULL-aware, equal to `rec.value(pos)` for each.
    pub fn values<'a>(&'a self, rec: RecordView<'a>) -> impl ExactSizeIterator<Item = Value> + 'a {
        self.images(rec).map(|(c, image)| match image {
            None => Value::Null,
            Some(bytes) => Value::decode_column(&c.dtype, bytes),
        })
    }

    /// [`DecodePlan::values`] for one record of a run: `prev` holds each
    /// planned column's last string, which a repeat shares
    /// ([`Value::decode_column_after`]).
    pub fn values_after<'a>(
        &'a self,
        rec: RecordView<'a>,
        prev: &'a mut [Value],
    ) -> impl ExactSizeIterator<Item = Value> + 'a {
        self.images(rec)
            .zip(prev)
            .map(|((c, image), prev)| match image {
                None => Value::Null,
                Some(bytes) => Value::decode_column_after(&c.dtype, bytes, prev),
            })
    }

    /// Each planned column of `rec` with its byte image (`None`: NULL).
    fn images<'a>(
        &'a self,
        rec: RecordView<'a>,
    ) -> impl ExactSizeIterator<Item = (&'a PlanCol, Option<&'a [u8]>)> + 'a {
        let mut vars = VarPrefix::default();
        self.cols.iter().map(move |c| {
            if rec.is_null(c.pos) {
                return (c, None);
            }
            let at = c.fixed_off + vars.upto(&rec, c.var_before);
            let len = c.width.unwrap_or_else(|| rec.var_len(c.var_before));
            (c, Some(&rec.bytes[at..at + len]))
        })
    }
}

/// How a Page Store writes a surviving record into an NDP page without
/// decoding it: an NDP header, a re-packed NULL bitmap, the kept
/// varchars' length entries and the kept column images copied from the
/// source record's bytes. The result is byte for byte what
/// [`encode_record`] gives for the kept columns' decoded values under
/// [`RecordLayout::project`]: a NULL fixed-width column is written as
/// zeros and a NULL varchar with no bytes, whatever the source holds
/// there. (A CHAR or varchar image that is not UTF-8 is copied as it is,
/// where a decode would have replaced it; no record this system writes
/// holds one.)
#[derive(Clone, Debug)]
pub struct ProjectionPlan {
    src_bitmap_len: usize,
    out_bitmap_len: usize,
    /// The kept columns, in output order.
    cols: Vec<PlanCol>,
    /// For each kept varchar, in output order: its entry in the source
    /// record's var-length array.
    var_slots: Vec<usize>,
    /// Maximal runs of kept columns that are neighbours in the source
    /// record, so a record without NULLs is copied run by run.
    runs: Vec<Run>,
    /// Every column is kept: a record without NULLs keeps its body whole.
    identity: bool,
}

/// Source columns `first..end`, all kept.
#[derive(Clone, Copy, Debug)]
struct Run {
    /// Where the run starts and ends when every varchar is empty.
    fixed_start: usize,
    fixed_end: usize,
    /// Varchars in front of the run's start and of its end.
    vars_start: usize,
    vars_end: usize,
}

impl ProjectionPlan {
    /// Plan writing the columns `keep` (positions in `layout`, a stored
    /// layout, in output order) of records shaped by `layout`.
    pub fn new(layout: &RecordLayout, keep: &[usize]) -> ProjectionPlan {
        debug_assert!(!layout.is_ndp(), "a Page Store projects stored records");
        let mut runs: Vec<Run> = Vec::new();
        for (i, &pos) in keep.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if i > 0 && keep[i - 1] + 1 == pos => {
                    run.fixed_end = layout.fixed_off[pos + 1] as usize;
                    run.vars_end = layout.var_before[pos + 1] as usize;
                }
                _ => runs.push(Run {
                    fixed_start: layout.fixed_off[pos] as usize,
                    fixed_end: layout.fixed_off[pos + 1] as usize,
                    vars_start: layout.var_before[pos] as usize,
                    vars_end: layout.var_before[pos + 1] as usize,
                }),
            }
        }
        ProjectionPlan {
            src_bitmap_len: layout.bitmap_len,
            out_bitmap_len: keep.len().div_ceil(8),
            cols: keep.iter().map(|&pos| PlanCol::of(layout, pos)).collect(),
            var_slots: keep
                .iter()
                .filter_map(|&pos| layout.var_slot(pos))
                .collect(),
            runs,
            identity: keep.iter().copied().eq(0..layout.n_cols()),
        }
    }

    /// Append `rec` (a view over the layout the plan was built for),
    /// reduced to the kept columns, to `out` as an
    /// [`RecType::NdpProjection`] record, or with `agg_payload` as an
    /// [`RecType::NdpAggregate`] carrier. The delete mark is not carried
    /// over: only visible, live records survive NDP processing.
    pub fn write(
        &self,
        rec: RecordView<'_>,
        agg_payload: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        debug_assert_eq!(rec.layout.bitmap_len, self.src_bitmap_len);
        let (rec_type, payload) = match agg_payload {
            Some(p) => {
                let len = u16::try_from(p.len())
                    .map_err(|_| Error::Internal("aggregate payload too large".into()))?;
                (RecType::NdpAggregate, Some((len, p)))
            }
            None => (RecType::NdpProjection, None),
        };
        let src = rec.bytes;
        // `next` stays 0: the page chains the record when it places it.
        out.extend_from_slice(&[rec_type as u8, 0, 0]);
        let no_nulls = src[REC_HDR_LEN..REC_HDR_LEN + self.src_bitmap_len]
            .iter()
            .all(|&b| b == 0);
        if no_nulls && self.identity {
            out.extend_from_slice(&src[REC_HDR_LEN..rec.data_end()]);
        } else {
            let bitmap_at = out.len();
            out.resize(bitmap_at + self.out_bitmap_len, 0);
            let src_varlen_at = REC_HDR_LEN + self.src_bitmap_len;
            let mut vars = VarPrefix::default();
            if no_nulls {
                for &slot in &self.var_slots {
                    let at = src_varlen_at + 2 * slot;
                    out.extend_from_slice(&src[at..at + 2]);
                }
                for run in &self.runs {
                    let from = run.fixed_start + vars.upto(&rec, run.vars_start);
                    let to = run.fixed_end + vars.upto(&rec, run.vars_end);
                    out.extend_from_slice(&src[from..to]);
                }
            } else {
                let varlen_at = out.len();
                out.resize(varlen_at + 2 * self.var_slots.len(), 0);
                let mut var_entry = varlen_at;
                for (i, c) in self.cols.iter().enumerate() {
                    let null = rec.is_null(c.pos);
                    if null {
                        out[bitmap_at + i / 8] |= 1 << (i % 8);
                    }
                    match c.width {
                        Some(w) if null => out.resize(out.len() + w, 0),
                        Some(w) => {
                            let at = c.fixed_off + vars.upto(&rec, c.var_before);
                            out.extend_from_slice(&src[at..at + w]);
                        }
                        None => {
                            if !null {
                                let at = c.fixed_off + vars.upto(&rec, c.var_before);
                                let len = rec.var_len(c.var_before);
                                out.extend_from_slice(&src[at..at + len]);
                                out[var_entry..var_entry + 2]
                                    .copy_from_slice(&(len as u16).to_le_bytes());
                            }
                            var_entry += 2;
                        }
                    }
                }
            }
        }
        if let Some((len, p)) = payload {
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(p);
        }
        Ok(())
    }
}

/// Rewrite a record's `next` chain pointer in place.
pub fn set_next_offset(page: &mut [u8], rec_at: usize, next: u16) {
    page[rec_at + 1..rec_at + 3].copy_from_slice(&next.to_le_bytes());
}

/// Set or clear a record's delete mark in place.
pub fn set_delete_mark(page: &mut [u8], rec_at: usize, mark: bool) {
    if mark {
        page[rec_at] |= DELETE_MARK_BIT;
    } else {
        page[rec_at] &= !DELETE_MARK_BIT;
    }
}

/// Overwrite a record's trx_id in place (update-in-place path).
pub fn set_trx_id(page: &mut [u8], rec_at: usize, trx_id: u64) {
    page[rec_at + 5..rec_at + 13].copy_from_slice(&trx_id.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taurus_common::{Date32, Dec};

    fn lineitem_ish_layout() -> RecordLayout {
        RecordLayout::new(vec![
            DataType::BigInt, // orderkey
            DataType::Int,    // linenumber
            DataType::Decimal {
                precision: 15,
                scale: 2,
            }, // price
            DataType::Date,   // shipdate
            DataType::Char(1), // returnflag
            DataType::Varchar(44), // comment
        ])
    }

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Int(42),
            Value::Int(3),
            Value::Decimal(Dec::parse("901.00").unwrap()),
            Value::Date(Date32::parse("1994-02-01").unwrap()),
            Value::str("R"),
            Value::str("carefully final packages"),
        ]
    }

    #[test]
    fn roundtrip_ordinary_record() {
        let layout = lineitem_ish_layout();
        let vals = sample_values();
        let mut buf = Vec::new();
        encode_record(&layout, &vals, RecordMeta::ordinary(77), None, &mut buf).unwrap();
        let view = RecordView::new(&buf, &layout);
        assert_eq!(view.rec_type(), Ok(RecType::Ordinary));
        assert!(!view.delete_mark());
        assert_eq!(view.trx_id(), 77);
        assert_eq!(view.values(), vals);
        assert_eq!(view.total_len(), buf.len());
    }

    #[test]
    fn roundtrip_with_nulls() {
        let layout = lineitem_ish_layout();
        let vals = vec![
            Value::Int(1),
            Value::Null,
            Value::Null,
            Value::Date(Date32::parse("1994-02-01").unwrap()),
            Value::Null,
            Value::Null,
        ];
        let mut buf = Vec::new();
        encode_record(&layout, &vals, RecordMeta::ordinary(1), None, &mut buf).unwrap();
        let view = RecordView::new(&buf, &layout);
        assert_eq!(view.values(), vals);
        assert!(view.is_null(1) && view.is_null(2) && view.is_null(4) && view.is_null(5));
        assert!(!view.is_null(0));
    }

    /// A run of records decoded with the previous strings kept gives what
    /// decoding each alone gives, NULLs and CHAR padding included, and a
    /// repeated string is the previous record's `Arc`, not a copy.
    #[test]
    fn decoding_a_run_shares_repeated_strings() {
        let layout = lineitem_ish_layout();
        let plan = DecodePlan::new(&layout, &[4, 0, 5]);
        let rows = [
            ("R", Some("carefully final packages")),
            ("R", Some("carefully final packages")),
            ("N", None),
            ("N", Some("carefully final packages")),
            ("N", Some("carefully final")),
        ];
        let mut prev = vec![Value::Null; plan.n_cols()];
        let mut last: Option<Vec<Value>> = None;
        for (i, (flag, comment)) in rows.into_iter().enumerate() {
            let mut vals = sample_values();
            vals[0] = Value::Int(i as i64);
            vals[4] = Value::str(flag);
            vals[5] = comment.map_or(Value::Null, Value::str);
            let mut buf = Vec::new();
            encode_record(&layout, &vals, RecordMeta::ordinary(1), None, &mut buf).unwrap();
            let view = RecordView::new(&buf, &layout);
            let got: Vec<Value> = plan.values_after(view, &mut prev).collect();
            assert_eq!(got, plan.values(view).collect::<Vec<_>>(), "record {i}");
            if let Some(last) = &last {
                for c in [0, 2] {
                    if let (Value::Str(a), Value::Str(b)) = (&got[c], &last[c]) {
                        assert_eq!(a == b, Arc::ptr_eq(a, b), "record {i} column {c}");
                    }
                }
            }
            last = Some(got);
        }
    }

    #[test]
    fn aggregate_record_carries_payload() {
        let layout = lineitem_ish_layout().project(&[0, 1, 2, 3, 4, 5]);
        let vals = sample_values();
        let meta = RecordMeta {
            rec_type: RecType::NdpAggregate,
            delete_mark: false,
            heap_no: 9,
            trx_id: 5,
        };
        let payload = vec![1u8, 2, 3, 4, 5];
        let mut buf = Vec::new();
        encode_record(&layout, &vals, meta, Some(&payload), &mut buf).unwrap();
        // Tack extra bytes on to prove total_len isolates the record.
        buf.extend_from_slice(&[0xAA; 7]);
        let view = RecordView::new(&buf, &layout);
        assert_eq!(view.rec_type(), Ok(RecType::NdpAggregate));
        assert_eq!(view.agg_payload().unwrap(), &payload[..]);
        assert_eq!(view.total_len(), buf.len() - 7);
        assert_eq!(view.values(), vals);
    }

    #[test]
    fn projected_layout_reads_subset() {
        let full = lineitem_ish_layout();
        let keep = [2usize, 3];
        let proj = full.project(&keep);
        let vals = sample_values();
        let pvals: Vec<Value> = keep.iter().map(|&i| vals[i].clone()).collect();
        let meta = RecordMeta {
            rec_type: RecType::NdpProjection,
            delete_mark: false,
            heap_no: 0,
            trx_id: 5,
        };
        let mut buf = Vec::new();
        encode_record(&proj, &pvals, meta, None, &mut buf).unwrap();
        let view = RecordView::new(&buf, &proj);
        assert_eq!(view.rec_type(), Ok(RecType::NdpProjection));
        assert_eq!(view.values(), pvals);
        // Projection dropped the varchar: narrower record.
        let mut fullbuf = Vec::new();
        encode_record(&full, &vals, RecordMeta::ordinary(5), None, &mut fullbuf).unwrap();
        assert!(buf.len() < fullbuf.len());
        // Every column kept: the same body behind a 10-byte shorter header.
        let all = full.project(&[0, 1, 2, 3, 4, 5]);
        let mut ndp = Vec::new();
        encode_record(&all, &vals, meta, None, &mut ndp).unwrap();
        assert_eq!(ndp.len() + REC_HDR_LEN - NDP_REC_HDR_LEN, fullbuf.len());
        assert_eq!(ndp[NDP_REC_HDR_LEN..], fullbuf[REC_HDR_LEN..]);
        assert_eq!(RecordView::parse(&ndp, &all).unwrap().values(), vals);
    }

    #[test]
    fn in_place_mutators() {
        let layout = lineitem_ish_layout();
        let mut buf = Vec::new();
        encode_record(
            &layout,
            &sample_values(),
            RecordMeta::ordinary(7),
            None,
            &mut buf,
        )
        .unwrap();
        set_next_offset(&mut buf, 0, 1234);
        set_delete_mark(&mut buf, 0, true);
        set_trx_id(&mut buf, 0, 99);
        let view = RecordView::new(&buf, &layout);
        assert_eq!(view.next_offset(), 1234);
        assert!(view.delete_mark());
        assert_eq!(view.trx_id(), 99);
        set_delete_mark(&mut buf, 0, false);
        assert!(!RecordView::new(&buf, &layout).delete_mark());
    }

    /// `parse` accepts what `encode_record` wrote and rejects, with a
    /// typed error, every way a record can overrun its bytes.
    #[test]
    fn parse_checks_the_record_against_its_bytes() {
        let layout = lineitem_ish_layout();
        let mut buf = Vec::new();
        encode_record(
            &layout,
            &sample_values(),
            RecordMeta::ordinary(7),
            None,
            &mut buf,
        )
        .unwrap();
        assert_eq!(
            RecordView::parse(&buf, &layout).unwrap().values(),
            sample_values()
        );
        let rejected =
            |bytes: &[u8]| matches!(RecordView::parse(bytes, &layout), Err(Error::Corruption(_)));
        // Cut anywhere: header, var-length array, column images.
        for cut in 0..buf.len() {
            assert!(rejected(&buf[..cut]), "cut at {cut}");
        }
        // Undefined type codes and stray info bits.
        for info in [6u8, 7, 0x10, 0x80] {
            let mut bad = buf.clone();
            bad[0] = info;
            assert!(rejected(&bad), "info byte {info:#x}");
        }
        // A varchar longer than its declared maximum, or than the bytes.
        let varlen_at = REC_HDR_LEN + 1;
        for len in [45u16, u16::MAX] {
            let mut bad = buf.clone();
            bad[varlen_at..varlen_at + 2].copy_from_slice(&len.to_le_bytes());
            assert!(rejected(&bad), "varchar length {len}");
        }
        // An aggregate record whose payload overruns.
        let ndp = layout.project(&[0, 1, 2, 3, 4, 5]);
        let ndp_rejected =
            |bytes: &[u8]| matches!(RecordView::parse(bytes, &ndp), Err(Error::Corruption(_)));
        let mut agg = Vec::new();
        let meta = RecordMeta {
            rec_type: RecType::NdpAggregate,
            ..RecordMeta::ordinary(7)
        };
        encode_record(&ndp, &sample_values(), meta, Some(&[1, 2, 3]), &mut agg).unwrap();
        assert!(RecordView::parse(&agg, &ndp).is_ok());
        assert!(ndp_rejected(&agg[..agg.len() - 1]));
        assert!(ndp_rejected(&agg[..agg.len() - 4]));
        // The type decides the header: neither layout reads the other's
        // records.
        assert!(rejected(&agg));
        assert!(ndp_rejected(&buf));
    }

    #[test]
    fn fixed_offset_matches_field_bytes() {
        // A varchar in the middle: the columns behind it move with its
        // length, the ones up to it do not.
        let layout = RecordLayout::new(vec![
            DataType::BigInt,
            DataType::Varchar(10),
            DataType::Int,
            DataType::Date,
        ]);
        let values = [
            Value::Int(42),
            Value::str("abc"),
            Value::Int(3),
            Value::Date(Date32::parse("1994-02-01").unwrap()),
        ];
        let mut buf = Vec::new();
        encode_record(&layout, &values, RecordMeta::ordinary(7), None, &mut buf).unwrap();
        let view = RecordView::new(&buf, &layout);
        let start = |c: usize| view.field_bytes(c).as_ptr() as usize - buf.as_ptr() as usize;
        assert_eq!(layout.fixed_offset(0), Some(start(0)));
        assert_eq!(layout.fixed_offset(1), Some(start(1)));
        assert_eq!(
            (layout.fixed_offset(2), layout.fixed_offset(3)),
            (None, None)
        );
        assert_eq!(start(2), start(1) + 3);
    }

    #[test]
    fn rec_type_codes_match_listing_3() {
        assert_eq!(RecType::Ordinary as u8, 0);
        assert_eq!(RecType::NodePtr as u8, 1);
        assert_eq!(RecType::Infimum as u8, 2);
        assert_eq!(RecType::Supremum as u8, 3);
        assert_eq!(RecType::NdpProjection as u8, 4);
        assert_eq!(RecType::NdpAggregate as u8, 5);
        assert!(RecType::from_u8(6).is_err());
    }
}
