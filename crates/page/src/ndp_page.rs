//! Building the variable-length NDP pages a Page Store returns (§IV-C2).
//!
//! An NDP page "resembles a regular InnoDB page": identical header layout,
//! records chained in key order, so the regular page-cursor code iterates
//! it unchanged. Differences: the body holds only surviving (possibly
//! projected / aggregated) records, there is no slot directory (NDP pages
//! are consumed sequentially, never searched), and a page whose records
//! were all filtered out is shipped as a header-only [`PageType::NdpEmpty`]
//! marker "without requiring explicit materialization".
//!
//! Its records come in two shapes, told apart by the record type:
//! * `NdpProjection` and `NdpAggregate` records, every visible survivor
//!   and every group's carrier, in the 3-byte NDP header over the columns
//!   the descriptor keeps (all of them when it does not project): the
//!   reader parses them under the descriptor's projected layout
//!   ([`RecordLayout::project`](crate::RecordLayout::project));
//! * `Ordinary` records, byte for byte the stored records the Page Store
//!   could not judge against the low watermark. On an NDP page `Ordinary`
//!   means ambiguous: the reader parses it under the stored layout and
//!   completes visibility, undo and the predicate itself.

use taurus_common::{Lsn, Result};

use crate::page::{Page, PageType, FIRST_REC_NONE, HEADER_LEN};
use crate::record::{set_next_offset, ProjectionPlan, RecordView};

/// Assembles an NDP page from records that survive NDP processing.
/// Records must be pushed in key order (the Page Store iterates the source
/// page's chain, which is already in key order).
pub struct NdpPageBuilder {
    buf: Vec<u8>,
    last_rec: u16,
    n_recs: u16,
}

impl NdpPageBuilder {
    /// Start an NDP page mirroring `src`'s identity (page_no, space, LSN,
    /// index id, level, neighbours).
    pub fn new(src: &Page) -> NdpPageBuilder {
        // What survives is at most the source's record heap (plus any
        // aggregate payloads), so the buffer is sized once.
        let heap = (src.heap_top() as usize).clamp(HEADER_LEN, src.byte_len());
        let mut buf = Vec::with_capacity(heap);
        buf.extend_from_slice(&src.bytes()[..HEADER_LEN]);
        let mut b = NdpPageBuilder {
            buf,
            last_rec: FIRST_REC_NONE,
            n_recs: 0,
        };
        b.write_u16(20, PageType::Ndp as u16);
        b.write_u16(40, 0); // n_recs
        b.write_u16(42, HEADER_LEN as u16); // heap_top
        b.write_u16(44, FIRST_REC_NONE); // first_rec
        b.write_u16(46, 0); // n_slots: NDP pages carry none
        b
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Append one surviving record (already encoded, any `RecType`).
    pub fn push_record(&mut self, rec: &[u8]) {
        let off = self.buf.len();
        self.buf.extend_from_slice(rec);
        self.chain(off);
    }

    /// Append the survivor `rec` of the source page as `plan` writes it,
    /// straight from its bytes into the page; see
    /// [`ProjectionPlan::write`].
    pub fn push_projected(
        &mut self,
        plan: &ProjectionPlan,
        rec: RecordView<'_>,
        agg_payload: Option<&[u8]>,
    ) -> Result<()> {
        let off = self.buf.len();
        plan.write(rec, agg_payload, &mut self.buf)?;
        self.chain(off);
        Ok(())
    }

    /// Link the record just placed at `off` to the end of the chain.
    fn chain(&mut self, off: usize) {
        set_next_offset(&mut self.buf, off, FIRST_REC_NONE);
        let off = off as u16;
        if self.last_rec == FIRST_REC_NONE {
            self.write_u16(44, off);
        } else {
            let last = self.last_rec as usize;
            set_next_offset(&mut self.buf, last, off);
        }
        self.last_rec = off;
        self.n_recs += 1;
    }

    pub fn n_recs(&self) -> u16 {
        self.n_recs
    }

    /// Finalize. If no record survived, emit the header-only empty marker.
    pub fn finish(mut self, lsn: Lsn) -> Page {
        let n = self.n_recs;
        let top = self.buf.len() as u16;
        self.write_u16(40, n);
        self.write_u16(42, top);
        if n == 0 {
            self.buf.truncate(HEADER_LEN);
            self.write_u16(20, PageType::NdpEmpty as u16);
        }
        let mut page = Page::from_bytes(self.buf).expect("builder produces valid pages");
        page.set_lsn(lsn);
        page.seal();
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, RecType, RecordLayout, RecordMeta, RecordView};
    use taurus_common::{DataType, SpaceId, Value};

    fn src_page() -> Page {
        let mut p = Page::new_index(4096, SpaceId(5), 33, 7, 0);
        p.set_prev(32);
        p.set_next(34);
        p
    }

    /// One record of type `t` over a BIGINT column `l` describes: NDP
    /// types under the NDP layout.
    fn small_rec(l: &RecordLayout, k: i64, t: RecType) -> Vec<u8> {
        let ndp = l.project(&[0]);
        let mut b = Vec::new();
        encode_record(
            if t.is_ndp() { &ndp } else { l },
            &[Value::Int(k)],
            RecordMeta {
                rec_type: t,
                delete_mark: false,
                heap_no: 0,
                trx_id: 3,
            },
            if t == RecType::NdpAggregate {
                Some(&[9, 9])
            } else {
                None
            },
            &mut b,
        )
        .unwrap();
        b
    }

    #[test]
    fn ndp_page_preserves_identity_and_order() {
        let l = RecordLayout::new(vec![DataType::BigInt]);
        let ndp = l.project(&[0]);
        let mut b = NdpPageBuilder::new(&src_page());
        for k in [1i64, 5, 9] {
            b.push_record(&small_rec(&l, k, RecType::NdpProjection));
        }
        let p = b.finish(777);
        assert_eq!(p.page_type(), PageType::Ndp);
        assert_eq!(p.page_no(), 33);
        assert_eq!(p.space(), SpaceId(5));
        assert_eq!((p.prev(), p.next()), (32, 34));
        assert_eq!(p.lsn(), 777);
        assert_eq!(p.n_recs(), 3);
        assert!(p.verify_checksum().is_ok());
        let keys: Vec<i64> = p
            .iter_chain()
            .map(|rec| {
                RecordView::parse(rec.unwrap(), &ndp)
                    .unwrap()
                    .value(0)
                    .as_int()
                    .unwrap()
            })
            .collect();
        assert_eq!(keys, vec![1, 5, 9]);
        // Narrower than the 4 KB source.
        assert!(p.byte_len() < 4096 / 4);
    }

    #[test]
    fn mixed_record_types_coexist() {
        // §IV-C2: "A mix of regular records and NDP records can co-exist
        // in an NDP page."
        let l = RecordLayout::new(vec![DataType::BigInt]);
        let ndp = l.project(&[0]);
        let mut b = NdpPageBuilder::new(&src_page());
        b.push_record(&small_rec(&l, 1, RecType::Ordinary));
        b.push_record(&small_rec(&l, 2, RecType::NdpProjection));
        b.push_record(&small_rec(&l, 3, RecType::NdpAggregate));
        let p = b.finish(1);
        // The type says the layout: the stored header on the ordinary
        // record, the NDP header on the others.
        let records: Vec<(RecType, usize, i64)> = p
            .iter_chain()
            .map(|rec| {
                let bytes = rec.unwrap();
                let t = RecordView::peek_type(bytes).unwrap();
                let v = RecordView::parse(bytes, if t.is_ndp() { &ndp } else { &l }).unwrap();
                (t, v.total_len(), v.value(0).as_int().unwrap())
            })
            .collect();
        assert_eq!(
            records,
            vec![
                (RecType::Ordinary, 13 + 1 + 8, 1),
                (RecType::NdpProjection, 3 + 1 + 8, 2),
                (RecType::NdpAggregate, 3 + 1 + 8 + 2 + 2, 3)
            ]
        );
    }

    #[test]
    fn empty_result_is_header_only_marker() {
        let b = NdpPageBuilder::new(&src_page());
        let p = b.finish(42);
        assert_eq!(p.page_type(), PageType::NdpEmpty);
        assert_eq!(p.byte_len(), HEADER_LEN);
        assert_eq!(p.n_recs(), 0);
        assert_eq!(p.iter_chain().count(), 0);
        assert!(p.verify_checksum().is_ok());
    }
}
