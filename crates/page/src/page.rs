//! Fixed-size index pages.
//!
//! ```text
//! 0    4     8     12    20      22     24       32    36    40      42        44         46      48
//! +----+-----+-----+-----+-------+------+--------+-----+-----+-------+---------+----------+-------+
//! |cksm|page#|space| lsn |ptype  |level |index_id|prev |next |n_recs |heap_top |first_rec |n_slots|
//! +----+-----+-----+-----+-------+------+--------+-----+-----+-------+---------+----------+-------+
//! | record heap, growing upward ...                                                               |
//! | ... free space ...                                                                            |
//! | slot directory (2 bytes per record, key order), growing downward from the page end            |
//! +------------------------------------------------------------------------------------------------+
//! ```
//!
//! Records are chained in key order (`first_rec` + per-record `next`
//! pointers) exactly so that the *same iteration code* works on regular and
//! NDP pages (§IV-C2). The dense slot directory exists only on regular
//! pages and supports in-page binary search during B+ tree descent.

use std::borrow::Cow;
use std::cmp::Ordering;

use taurus_common::{Error, Lsn, PageNo, Result, SpaceId};

use crate::record::{RecordView, REC_HDR_LEN};

/// Sentinel for "no neighbour page".
pub const NO_PAGE: PageNo = u32::MAX;
/// Sentinel for an empty record chain.
pub const FIRST_REC_NONE: u16 = 0;
/// First byte of the record heap.
pub const HEADER_LEN: usize = 48;

/// Page kinds (`page_type` header field).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u16)]
pub enum PageType {
    /// Regular B+ tree page (leaf when `level == 0`).
    Index = 0,
    /// Variable-length NDP result page produced by a Page Store.
    Ndp = 1,
    /// "All records filtered out" marker: header only, no materialized body.
    NdpEmpty = 2,
}

impl PageType {
    pub fn from_u16(v: u16) -> Result<PageType> {
        Ok(match v {
            0 => PageType::Index,
            1 => PageType::Ndp,
            2 => PageType::NdpEmpty,
            other => return Err(Error::Corruption(format!("bad page type {other}"))),
        })
    }
}

/// One database page. Regular pages own exactly `page_size` bytes; NDP
/// pages own only as many bytes as their surviving records need.
#[derive(Clone, Debug, PartialEq)]
pub struct Page {
    buf: Vec<u8>,
}

macro_rules! field_u16 {
    ($get:ident, $set:ident, $at:expr) => {
        pub fn $get(&self) -> u16 {
            u16::from_le_bytes([self.buf[$at], self.buf[$at + 1]])
        }
        pub fn $set(&mut self, v: u16) {
            self.buf[$at..$at + 2].copy_from_slice(&v.to_le_bytes());
        }
    };
}

macro_rules! field_u32 {
    ($get:ident, $set:ident, $at:expr) => {
        pub fn $get(&self) -> u32 {
            u32::from_le_bytes(self.buf[$at..$at + 4].try_into().unwrap())
        }
        pub fn $set(&mut self, v: u32) {
            self.buf[$at..$at + 4].copy_from_slice(&v.to_le_bytes());
        }
    };
}

impl Page {
    /// Allocate an empty regular index page.
    pub fn new_index(
        page_size: usize,
        space: SpaceId,
        page_no: PageNo,
        index_id: u64,
        level: u16,
    ) -> Page {
        assert!(page_size >= 1024 && page_size <= u16::MAX as usize + 1);
        let mut p = Page {
            buf: vec![0; page_size],
        };
        p.set_page_no(page_no);
        p.set_space_raw(space.0);
        p.set_page_type_raw(PageType::Index as u16);
        p.set_level(level);
        p.set_index_id(index_id);
        p.set_prev(NO_PAGE);
        p.set_next(NO_PAGE);
        p.set_heap_top(HEADER_LEN as u16);
        p.set_first_rec(FIRST_REC_NONE);
        p
    }

    /// Wrap raw bytes received from storage.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Page> {
        if buf.len() < HEADER_LEN {
            return Err(Error::Corruption(format!("page too short: {}", buf.len())));
        }
        let p = Page { buf };
        PageType::from_u16(p.page_type_raw())?;
        Ok(p)
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Mutable raw bytes — used by redo application (physical byte
    /// rewrites) and in-place record mutators.
    pub fn raw_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    field_u32!(page_no, set_page_no, 4);
    field_u32!(space_raw, set_space_raw, 8);
    field_u16!(page_type_raw, set_page_type_raw, 20);
    field_u16!(level, set_level, 22);
    field_u32!(prev, set_prev, 32);
    field_u32!(next, set_next, 36);
    field_u16!(n_recs, set_n_recs, 40);
    field_u16!(heap_top, set_heap_top, 42);
    field_u16!(first_rec, set_first_rec, 44);
    field_u16!(n_slots, set_n_slots, 46);

    pub fn space(&self) -> SpaceId {
        SpaceId(self.space_raw())
    }

    pub fn lsn(&self) -> Lsn {
        u64::from_le_bytes(self.buf[12..20].try_into().unwrap())
    }

    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.buf[12..20].copy_from_slice(&lsn.to_le_bytes());
    }

    pub fn index_id(&self) -> u64 {
        u64::from_le_bytes(self.buf[24..32].try_into().unwrap())
    }

    pub fn set_index_id(&mut self, v: u64) {
        self.buf[24..32].copy_from_slice(&v.to_le_bytes());
    }

    pub fn page_type(&self) -> PageType {
        PageType::from_u16(self.page_type_raw()).expect("validated")
    }

    pub fn is_leaf(&self) -> bool {
        self.level() == 0
    }

    // --- checksum ---------------------------------------------------------

    fn compute_checksum(&self) -> u32 {
        // Fletcher-32 over everything after the checksum field.
        fletcher32(&self.buf[4..])
    }

    /// Stamp the checksum (done when a page crosses the network boundary).
    pub fn seal(&mut self) {
        let c = self.compute_checksum();
        self.buf[0..4].copy_from_slice(&c.to_le_bytes());
    }

    /// Verify the checksum stamped by [`Page::seal`].
    pub fn verify_checksum(&self) -> Result<()> {
        let stored = u32::from_le_bytes(self.buf[0..4].try_into().unwrap());
        let actual = self.compute_checksum();
        if stored != actual {
            return Err(Error::Corruption(format!(
                "checksum mismatch on page {}:{} (stored {stored:#x}, actual {actual:#x})",
                self.space_raw(),
                self.page_no()
            )));
        }
        Ok(())
    }

    // --- slots ------------------------------------------------------------

    fn slot_at(&self, i: usize) -> u16 {
        let at = self.buf.len() - 2 * (i + 1);
        u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
    }

    fn set_slot(&mut self, i: usize, v: u16) {
        let at = self.buf.len() - 2 * (i + 1);
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Record offsets in key order, via the slot directory.
    pub fn slot_offsets(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.n_slots() as usize).map(|i| self.slot_at(i))
    }

    /// Bytes still available for one more record (including its slot).
    pub fn free_space(&self) -> usize {
        let slots_start = self.buf.len() - 2 * self.n_slots() as usize;
        slots_start - self.heap_top() as usize
    }

    /// Would a record of `rec_len` bytes fit (record + one slot entry)?
    pub fn fits(&self, rec_len: usize) -> bool {
        self.free_space() >= rec_len + 2
    }

    /// Raw bytes of the record starting at `off`, extending to page end
    /// (wrap in [`RecordView`] to find the real length).
    pub fn record_at(&self, off: u16) -> &[u8] {
        &self.buf[off as usize..]
    }

    // --- record insertion ---------------------------------------------------

    /// Append a record known to sort after every existing record (bulk-build
    /// path). Returns the record's offset.
    pub fn append_record(&mut self, rec: &[u8]) -> Result<u16> {
        if !self.fits(rec.len()) {
            return Err(Error::InvalidState("page full".into()));
        }
        let n = self.n_slots() as usize;
        let off = self.place_record(rec)?;
        // Chain: previous tail -> new record.
        if n == 0 {
            self.set_first_rec(off);
        } else {
            let tail = self.slot_at(n - 1) as usize;
            crate::record::set_next_offset(&mut self.buf, tail, off);
        }
        self.set_n_slots(n as u16 + 1);
        self.set_slot(n, off);
        Ok(off)
    }

    /// Insert a record at its sorted position. `slot_idx` must come from
    /// [`Page::lower_bound`] (the number of existing records with keys
    /// strictly less than the new record's).
    pub fn insert_at_slot(&mut self, slot_idx: usize, rec: &[u8]) -> Result<u16> {
        if !self.fits(rec.len()) {
            return Err(Error::InvalidState("page full".into()));
        }
        let n = self.n_slots() as usize;
        assert!(slot_idx <= n, "slot index out of range");
        let off = self.place_record(rec)?;
        // Chain splice.
        if slot_idx == 0 {
            let old_first = self.first_rec();
            crate::record::set_next_offset(&mut self.buf, off as usize, old_first);
            self.set_first_rec(off);
        } else {
            let pred = self.slot_at(slot_idx - 1) as usize;
            let succ = RecordView::peek_next(&self.buf, pred);
            crate::record::set_next_offset(&mut self.buf, off as usize, succ);
            crate::record::set_next_offset(&mut self.buf, pred, off);
        }
        // Shift slots [slot_idx..n) one position toward the page start.
        for i in (slot_idx..n).rev() {
            let v = self.slot_at(i);
            self.set_slot(i + 1, v);
        }
        self.set_n_slots(n as u16 + 1);
        self.set_slot(slot_idx, off);
        Ok(off)
    }

    /// Copy `rec` into the heap, assign heap_no, bump counters.
    fn place_record(&mut self, rec: &[u8]) -> Result<u16> {
        let off = self.heap_top() as usize;
        let heap_no = self.n_recs();
        self.buf[off..off + rec.len()].copy_from_slice(rec);
        // heap_no lives at record offset +3.
        self.buf[off + 3..off + 5].copy_from_slice(&heap_no.to_le_bytes());
        // next starts as end-of-chain; splicing fixes it.
        crate::record::set_next_offset(&mut self.buf, off, FIRST_REC_NONE);
        self.set_heap_top((off + rec.len()) as u16);
        self.set_n_recs(heap_no + 1);
        Ok(off as u16)
    }

    /// Binary search the slot directory. `key_of` maps record bytes to an
    /// encoded key. Returns `(slot_idx, exact)`: the first slot whose key is
    /// `>=` the search key.
    pub fn lower_bound<'a>(
        &'a self,
        key: &[u8],
        key_of: impl Fn(&'a [u8]) -> Cow<'a, [u8]>,
    ) -> (usize, bool) {
        let n = self.n_slots() as usize;
        let (mut lo, mut hi) = (0usize, n);
        let mut exact = false;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let rec = self.record_at(self.slot_at(mid));
            match key_of(rec).as_ref().cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => {
                    exact = true;
                    hi = mid;
                }
                Ordering::Greater => hi = mid,
            }
        }
        (lo, exact)
    }

    /// Iterate records in key order by following the chain — the code
    /// path shared by regular and NDP pages. Each item is one record's
    /// bytes, from its header to the end of the record heap (wrap them in
    /// a [`RecordView`] to find the real length).
    ///
    /// The walk fails closed on a damaged page: a pointer outside the
    /// heap, a chain that does not visit exactly `n_recs` records (a cycle
    /// included) or, on a regular page, strays from the slot directory's
    /// key order yields one [`Error::Corruption`] and ends the iteration.
    pub fn iter_chain(&self) -> ChainIter<'_> {
        self.iter_chain_from(0)
    }

    /// [`Page::iter_chain`] from the record in slot `slot` of a regular
    /// page on (`slot == n_slots` yields nothing).
    pub fn iter_chain_from(&self, slot: usize) -> ChainIter<'_> {
        let n_recs = self.n_recs() as usize;
        let has_slots = self.page_type() == PageType::Index;
        let slots_len = if has_slots { 2 * n_recs } else { 0 };
        let well_formed = HEADER_LEN + slots_len <= self.buf.len()
            && (!has_slots || self.n_slots() as usize == n_recs);
        ChainIter {
            page: self,
            state: if well_formed {
                ChainState::Walking
            } else {
                ChainState::Malformed
            },
            next: match slot {
                0 => self.first_rec(),
                s if well_formed && has_slots && s < n_recs => self.slot_at(s),
                _ => FIRST_REC_NONE,
            },
            seen: slot.min(n_recs),
            n_recs,
            has_slots,
            heap_end: (self.heap_top() as usize).min(self.buf.len().saturating_sub(slots_len)),
        }
    }
}

/// Fletcher-32 over `bytes` as little-endian 16-bit words (an odd last
/// byte counts as a word of its own). The sums are reduced once per block
/// instead of once per word: from values below 65535, `FLETCHER_BLOCK`
/// words leave the first sum under 2^29 and the second under 2^41, far
/// inside a `u64`, and reducing late gives the same residues.
fn fletcher32(bytes: &[u8]) -> u32 {
    const FLETCHER_BLOCK: usize = 4096;
    let (mut a, mut b) = (0u64, 0u64);
    for block in bytes.chunks(2 * FLETCHER_BLOCK) {
        let mut words = block.chunks_exact(2);
        for w in &mut words {
            a += u16::from_le_bytes([w[0], w[1]]) as u64;
            b += a;
        }
        if let [last] = words.remainder() {
            a += *last as u64;
            b += a;
        }
        a %= 65535;
        b %= 65535;
    }
    ((b as u32) << 16) | a as u32
}

enum ChainState {
    Walking,
    /// The header's record count and slot directory contradict each other
    /// or the page length; reported as the first item.
    Malformed,
    Done,
}

/// Iterator over the in-page record chain; see [`Page::iter_chain`].
pub struct ChainIter<'a> {
    page: &'a Page,
    state: ChainState,
    next: u16,
    /// Records yielded (or skipped by `iter_chain_from`) so far.
    seen: usize,
    n_recs: usize,
    has_slots: bool,
    /// End of the record heap: no record header starts past it.
    heap_end: usize,
}

impl<'a> ChainIter<'a> {
    fn step(&mut self) -> std::result::Result<Option<&'a [u8]>, String> {
        let (cur, seen, n) = (self.next as usize, self.seen, self.n_recs);
        if self.next == FIRST_REC_NONE {
            return if seen == n {
                Ok(None)
            } else {
                Err(format!("record chain ends after {seen} of {n} records"))
            };
        }
        if seen == n {
            return Err(format!("record chain runs past the page's {n} records"));
        }
        if cur < HEADER_LEN || cur + REC_HDR_LEN > self.heap_end {
            return Err(format!("record pointer {cur} outside the record heap"));
        }
        if self.has_slots && self.page.slot_at(seen) as usize != cur {
            return Err(format!("record chain leaves slot order at record {seen}"));
        }
        self.seen += 1;
        self.next = RecordView::peek_next(&self.page.buf, cur);
        Ok(Some(&self.page.buf[cur..self.heap_end]))
    }
}

impl<'a> Iterator for ChainIter<'a> {
    type Item = Result<&'a [u8]>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = match self.state {
            ChainState::Done => return None,
            ChainState::Malformed => Err("record count and slot directory disagree".to_string()),
            ChainState::Walking => self.step(),
        };
        match step {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => {
                self.state = ChainState::Done;
                None
            }
            Err(what) => {
                self.state = ChainState::Done;
                Some(Err(Error::Corruption(format!(
                    "page {}:{}: {what}",
                    self.page.space_raw(),
                    self.page.page_no()
                ))))
            }
        }
    }
}

impl RecordView<'_> {
    /// Read a record's `next` pointer without constructing a view.
    pub fn peek_next(page: &[u8], rec_at: usize) -> u16 {
        u16::from_le_bytes([page[rec_at + 1], page[rec_at + 2]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, RecordLayout, RecordMeta};
    use taurus_common::{DataType, Value};

    fn layout() -> RecordLayout {
        RecordLayout::new(vec![DataType::BigInt, DataType::Varchar(32)])
    }

    fn rec(l: &RecordLayout, k: i64, s: &str) -> Vec<u8> {
        let mut b = Vec::new();
        encode_record(
            l,
            &[Value::Int(k), Value::str(s)],
            RecordMeta::ordinary(1),
            None,
            &mut b,
        )
        .unwrap();
        b
    }

    fn key_of<'a>(l: &'a RecordLayout) -> impl Fn(&'a [u8]) -> Cow<'a, [u8]> {
        move |bytes: &[u8]| {
            let v = RecordView::new(bytes, l);
            Cow::Owned(taurus_common::schema::encode_key(
                &[v.value(0)],
                &[DataType::BigInt],
            ))
        }
    }

    fn chain_keys(p: &Page, l: &RecordLayout) -> Vec<i64> {
        p.iter_chain()
            .map(|rec| {
                RecordView::parse(rec.unwrap(), l)
                    .unwrap()
                    .value(0)
                    .as_int()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn header_roundtrip() {
        let mut p = Page::new_index(4096, SpaceId(3), 17, 99, 1);
        p.set_lsn(123456);
        p.set_prev(16);
        p.set_next(18);
        assert_eq!(p.page_no(), 17);
        assert_eq!(p.space(), SpaceId(3));
        assert_eq!(p.lsn(), 123456);
        assert_eq!(p.level(), 1);
        assert!(!p.is_leaf());
        assert_eq!(p.index_id(), 99);
        assert_eq!((p.prev(), p.next()), (16, 18));
        assert_eq!(p.n_recs(), 0);
        assert_eq!(p.page_type(), PageType::Index);
    }

    #[test]
    fn append_maintains_chain_and_slots() {
        let l = layout();
        let mut p = Page::new_index(4096, SpaceId(1), 0, 1, 0);
        for k in [10i64, 20, 30] {
            p.append_record(&rec(&l, k, "x")).unwrap();
        }
        assert_eq!(p.n_recs(), 3);
        assert_eq!(chain_keys(&p, &l), vec![10, 20, 30]);
        let slot_keys: Vec<i64> = p
            .slot_offsets()
            .map(|off| {
                RecordView::new(p.record_at(off), &l)
                    .value(0)
                    .as_int()
                    .unwrap()
            })
            .collect();
        assert_eq!(slot_keys, vec![10, 20, 30]);
    }

    #[test]
    fn sorted_insert_any_order() {
        let l = layout();
        let mut p = Page::new_index(4096, SpaceId(1), 0, 1, 0);
        let keys = [50i64, 10, 30, 20, 40, 5, 60];
        for &k in &keys {
            let r = rec(&l, k, "v");
            let kb = taurus_common::schema::encode_key(&[Value::Int(k)], &[DataType::BigInt]);
            let (idx, exact) = p.lower_bound(&kb, key_of(&l));
            assert!(!exact);
            p.insert_at_slot(idx, &r).unwrap();
        }
        assert_eq!(chain_keys(&p, &l), vec![5, 10, 20, 30, 40, 50, 60]);
        // heap numbers are assigned in arrival order and stay unique.
        let mut heap_nos: Vec<u16> = p
            .iter_chain()
            .map(|rec| RecordView::new(rec.unwrap(), &l).heap_no())
            .collect();
        heap_nos.sort_unstable();
        assert_eq!(heap_nos, (0..7).collect::<Vec<u16>>());
    }

    /// A damaged chain ends in one typed error, whatever the damage: a
    /// cycle, a pointer off the heap, a chain shorter than the page's
    /// record count, a record count the slot directory contradicts.
    #[test]
    fn chain_walk_fails_closed_on_damage() {
        let l = layout();
        let mut p = Page::new_index(4096, SpaceId(1), 0, 1, 0);
        let offs: Vec<u16> = [10i64, 20, 30, 40]
            .iter()
            .map(|&k| p.append_record(&rec(&l, k, "x")).unwrap())
            .collect();
        assert_eq!(p.iter_chain().filter(|r| r.is_ok()).count(), 4);
        assert_eq!(chain_keys(&p, &l), vec![10, 20, 30, 40]);
        // From a slot on, and past the last slot.
        assert_eq!(p.iter_chain_from(2).count(), 2);
        assert_eq!(p.iter_chain_from(4).count(), 0);

        let outcome = |p: &Page| -> (usize, bool) {
            let items: Vec<_> = p.iter_chain().collect();
            let errs = items.iter().filter(|r| r.is_err()).count();
            assert!(errs <= 1, "one error ends the walk");
            assert!(items.len() <= 5, "the walk is bounded by the record count");
            (items.len() - errs, errs == 1)
        };
        let damaged = |at: u16, next: u16| {
            let mut q = p.clone();
            crate::record::set_next_offset(q.raw_mut(), at as usize, next);
            q
        };
        // A cycle back to the first record, and onto itself.
        assert_eq!(outcome(&damaged(offs[2], offs[0])), (3, true));
        assert_eq!(outcome(&damaged(offs[1], offs[1])), (2, true));
        // Off the heap, into the header, ending early, skipping a record.
        assert_eq!(outcome(&damaged(offs[1], 4000)), (2, true));
        assert_eq!(outcome(&damaged(offs[1], 8)), (2, true));
        assert_eq!(outcome(&damaged(offs[1], FIRST_REC_NONE)), (2, true));
        assert_eq!(outcome(&damaged(offs[0], offs[2])), (1, true));
        // The header's counts contradict each other or the page.
        let mut q = p.clone();
        q.set_n_recs(3);
        assert_eq!(outcome(&q), (0, true));
        let mut q = p.clone();
        q.set_n_recs(60_000);
        q.set_n_slots(60_000);
        assert_eq!(outcome(&q), (0, true));
    }

    #[test]
    fn lower_bound_finds_existing_and_gap() {
        let l = layout();
        let mut p = Page::new_index(4096, SpaceId(1), 0, 1, 0);
        for k in [10i64, 20, 30] {
            p.append_record(&rec(&l, k, "x")).unwrap();
        }
        let kb = |k: i64| taurus_common::schema::encode_key(&[Value::Int(k)], &[DataType::BigInt]);
        assert_eq!(p.lower_bound(&kb(20), key_of(&l)), (1, true));
        assert_eq!(p.lower_bound(&kb(25), key_of(&l)), (2, false));
        assert_eq!(p.lower_bound(&kb(5), key_of(&l)), (0, false));
        assert_eq!(p.lower_bound(&kb(35), key_of(&l)), (3, false));
    }

    #[test]
    fn page_fills_up_and_rejects() {
        let l = layout();
        let mut p = Page::new_index(1024, SpaceId(1), 0, 1, 0);
        let r = rec(&l, 1, "abcdefghijklmnop");
        let mut inserted = 0;
        while p.fits(r.len()) {
            p.append_record(&r).unwrap();
            inserted += 1;
        }
        assert!(inserted > 5);
        assert!(p.append_record(&r).is_err());
        // Free space accounting never goes negative.
        assert!(p.free_space() < r.len() + 2);
    }

    #[test]
    fn checksum_seal_verify_and_corruption() {
        let l = layout();
        let mut p = Page::new_index(2048, SpaceId(1), 7, 1, 0);
        p.append_record(&rec(&l, 42, "hello")).unwrap();
        p.seal();
        assert!(p.verify_checksum().is_ok());
        let mut bytes = p.clone().into_bytes();
        bytes[HEADER_LEN + 20] ^= 0xFF;
        let bad = Page::from_bytes(bytes).unwrap();
        assert!(matches!(bad.verify_checksum(), Err(Error::Corruption(_))));
    }

    /// The blocked sum stamps what the word-at-a-time loop stamped: on
    /// even and odd lengths, across block boundaries, on all-ones input.
    #[test]
    fn fletcher32_equals_the_word_at_a_time_sum() {
        fn reference(bytes: &[u8]) -> u32 {
            let (mut a, mut b) = (0u32, 0u32);
            for chunk in bytes.chunks(2) {
                let w = if chunk.len() == 2 {
                    u16::from_le_bytes([chunk[0], chunk[1]]) as u32
                } else {
                    chunk[0] as u32
                };
                a = (a + w) % 65535;
                b = (b + a) % 65535;
            }
            (b << 16) | a
        }
        // xorshift64: deterministic, no dependency.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [
            0usize, 1, 2, 3, 44, 45, 6135, 8191, 8192, 8193, 16380, 16381, 65535,
        ] {
            let random: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                fletcher32(&random),
                reference(&random),
                "random, {len} bytes"
            );
            let ones = vec![0xFFu8; len];
            assert_eq!(fletcher32(&ones), reference(&ones), "0xFF, {len} bytes");
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Page::from_bytes(vec![0; 10]).is_err());
        let mut buf = vec![0; 4096];
        buf[20] = 0xEE; // invalid page type
        assert!(Page::from_bytes(buf).is_err());
    }
}
