//! Redo log records.
//!
//! Taurus masters never write pages — only log records (§II). Page Stores
//! apply these records to keep pages up to date; every application creates
//! a new page *version* stamped with the record's LSN, which is what lets
//! NDP batch reads request "page versions matching the LSN value"
//! (§IV-C4) while the B+ tree keeps changing.

use taurus_common::{Error, Lsn, PageNo, Result, SliceId, SpaceId, TrxId};
use taurus_page::Page;

/// Physical redo operations. Record-level bodies keep log volume small;
/// `NewPage` carries a full image (page creation, bulk load, splits).
///
/// The `Sys*` variants are **system records**: they target no page and are
/// never distributed to Page Stores — they exist because the log is the
/// only cross-node channel the architecture allows, and read replicas need
/// more than page deltas to serve queries: the catalog (`SysCatalog`,
/// `SysLoaded`, `SysShape`), the undo images that make replica MVCC exact
/// (`SysUndo`), and the transaction boundaries that gate visible-LSN
/// advancement (`SysTrxEnd`). Payload encodings for the catalog records
/// live with the engine (`taurus-ndp::replication`); this layer treats
/// them as bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum RedoBody {
    /// Install a complete page image.
    NewPage(Vec<u8>),
    /// Insert an encoded record at the given slot position.
    InsertRecord {
        slot_idx: u16,
        rec: Vec<u8>,
    },
    /// Set or clear the delete mark of the record at `rec_at`.
    SetDeleteMark {
        rec_at: u16,
        mark: bool,
    },
    /// Overwrite bytes at an offset (update-in-place of fixed-width
    /// columns and header fields).
    WriteBytes {
        at: u16,
        bytes: Vec<u8>,
    },
    /// Update the leaf chain neighbour pointers.
    SetNext(PageNo),
    SetPrev(PageNo),
    /// Drop the page (space deallocation).
    FreePage,
    /// DDL: a table was created (opaque schema + index-definition payload;
    /// `space`/`page_no` on the record are 0).
    SysCatalog(Vec<u8>),
    /// Bulk-load completion: table statistics + per-index tree shapes
    /// (opaque payload). Doubles as a transaction-consistent boundary.
    SysLoaded(Vec<u8>),
    /// Write-ahead undo: the previous image of the row at `key` (record
    /// `space` = the index's space), pushed *before* the corresponding
    /// tree redo so a replica that has applied a write has always already
    /// applied its undo. `prev = None` marks an insertion.
    SysUndo {
        key: Vec<u8>,
        writer: TrxId,
        prev: Option<Vec<u8>>,
    },
    /// Commit watermark: transaction `trx` ended (committed, or rolled
    /// back with `aborted`). The LSN of this record is a
    /// transaction-consistent boundary replicas may advance their visible
    /// LSN to. It carries the master's read-view ingredients at that
    /// boundary — the still-active transaction ids and the id allocation
    /// cursor — so a replica's boundary view is an *exact* master view:
    /// tracking writers only by their replicated undo would miss a
    /// low-id transaction that begins before a boundary but first writes
    /// after it (its id would fall below the inferred watermark and its
    /// uncommitted writes would leak).
    SysTrxEnd {
        trx: TrxId,
        aborted: bool,
        /// Ids active on the master at this boundary (sorted, `trx`
        /// itself excluded) — invisible to replica readers.
        active: Vec<TrxId>,
        /// The master's next transaction id: everything at or above is
        /// invisible.
        low_limit: TrxId,
    },
    /// B+ tree shape change (root split / leaf count) for the index owning
    /// record `space`; replicas publish it at the next boundary.
    SysShape {
        root: PageNo,
        height: u32,
        n_leaves: u32,
    },
}

impl RedoBody {
    /// System records carry replication state, not page deltas: Log Stores
    /// persist them, Page Stores never see them.
    pub fn is_system(&self) -> bool {
        matches!(
            self,
            RedoBody::SysCatalog(_)
                | RedoBody::SysLoaded(_)
                | RedoBody::SysUndo { .. }
                | RedoBody::SysTrxEnd { .. }
                | RedoBody::SysShape { .. }
        )
    }
}

/// One redo record: target page + operation + LSN.
#[derive(Clone, Debug, PartialEq)]
pub struct RedoRecord {
    pub lsn: Lsn,
    pub space: SpaceId,
    pub page_no: PageNo,
    pub body: RedoBody,
}

impl RedoRecord {
    pub fn slice(&self, slice_pages: u32) -> SliceId {
        SliceId::of(self.space, self.page_no, slice_pages)
    }

    /// Apply to a page image, stamping the LSN. `None` result = page freed.
    /// System records must be filtered out by the caller.
    pub fn apply(&self, page: &mut Option<Page>) -> Result<()> {
        match &self.body {
            RedoBody::NewPage(img) => {
                let mut p = Page::from_bytes(img.clone())?;
                p.set_lsn(self.lsn);
                *page = Some(p);
                Ok(())
            }
            RedoBody::FreePage => {
                *page = None;
                Ok(())
            }
            body if body.is_system() => Err(Error::Internal(format!(
                "system record {body:?} applied to a page"
            ))),
            body => {
                let p = page.as_mut().ok_or_else(|| {
                    Error::Corruption(format!(
                        "redo {body:?} for missing page {:?}:{}",
                        self.space, self.page_no
                    ))
                })?;
                self.apply_to(p)
            }
        }
    }

    /// Apply one in-place change to a page image, stamping the LSN. The
    /// change is checked against the page before it touches it: one that
    /// does not fit is `Corruption` and leaves the page as it was.
    /// `NewPage`, `FreePage` and system records have no in-place form.
    pub fn apply_to(&self, p: &mut Page) -> Result<()> {
        let misfit = |what: &str| {
            Err(Error::Corruption(format!(
                "redo {what} at lsn {} does not fit page {:?}:{}",
                self.lsn, self.space, self.page_no
            )))
        };
        match &self.body {
            RedoBody::InsertRecord { slot_idx, rec } => {
                if *slot_idx > p.n_slots() {
                    return misfit("InsertRecord");
                }
                p.insert_at_slot(*slot_idx as usize, rec)?;
            }
            RedoBody::SetDeleteMark { rec_at, mark } => {
                if *rec_at as usize >= p.byte_len() {
                    return misfit("SetDeleteMark");
                }
                taurus_page::record::set_delete_mark(p.raw_mut(), *rec_at as usize, *mark);
            }
            RedoBody::WriteBytes { at, bytes } => {
                let at = *at as usize;
                if at + bytes.len() > p.byte_len() {
                    return misfit("WriteBytes");
                }
                p.raw_mut()[at..at + bytes.len()].copy_from_slice(bytes);
            }
            RedoBody::SetNext(n) => p.set_next(*n),
            RedoBody::SetPrev(n) => p.set_prev(*n),
            body => {
                return Err(Error::Internal(format!(
                    "redo {body:?} has no in-place form"
                )))
            }
        }
        p.set_lsn(self.lsn);
        Ok(())
    }

    // --- wire encoding (for Log Stores and network byte accounting) -------

    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.lsn.to_le_bytes());
        out.extend_from_slice(&self.space.0.to_le_bytes());
        out.extend_from_slice(&self.page_no.to_le_bytes());
        match &self.body {
            RedoBody::NewPage(img) => {
                out.push(0);
                out.extend_from_slice(&(img.len() as u32).to_le_bytes());
                out.extend_from_slice(img);
            }
            RedoBody::InsertRecord { slot_idx, rec } => {
                out.push(1);
                out.extend_from_slice(&slot_idx.to_le_bytes());
                out.extend_from_slice(&(rec.len() as u32).to_le_bytes());
                out.extend_from_slice(rec);
            }
            RedoBody::SetDeleteMark { rec_at, mark } => {
                out.push(2);
                out.extend_from_slice(&rec_at.to_le_bytes());
                out.push(*mark as u8);
            }
            RedoBody::WriteBytes { at, bytes } => {
                out.push(3);
                out.extend_from_slice(&at.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            RedoBody::SetNext(n) => {
                out.push(4);
                out.extend_from_slice(&n.to_le_bytes());
            }
            RedoBody::SetPrev(n) => {
                out.push(5);
                out.extend_from_slice(&n.to_le_bytes());
            }
            RedoBody::FreePage => out.push(6),
            RedoBody::SysCatalog(p) => {
                out.push(7);
                out.extend_from_slice(&(p.len() as u32).to_le_bytes());
                out.extend_from_slice(p);
            }
            RedoBody::SysLoaded(p) => {
                out.push(8);
                out.extend_from_slice(&(p.len() as u32).to_le_bytes());
                out.extend_from_slice(p);
            }
            RedoBody::SysUndo { key, writer, prev } => {
                out.push(9);
                out.extend_from_slice(&writer.to_le_bytes());
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
                match prev {
                    None => out.push(0),
                    Some(img) => {
                        out.push(1);
                        out.extend_from_slice(&(img.len() as u32).to_le_bytes());
                        out.extend_from_slice(img);
                    }
                }
            }
            RedoBody::SysTrxEnd {
                trx,
                aborted,
                active,
                low_limit,
            } => {
                out.push(10);
                out.extend_from_slice(&trx.to_le_bytes());
                out.push(*aborted as u8);
                out.extend_from_slice(&low_limit.to_le_bytes());
                out.extend_from_slice(&(active.len() as u32).to_le_bytes());
                for a in active {
                    out.extend_from_slice(&a.to_le_bytes());
                }
            }
            RedoBody::SysShape {
                root,
                height,
                n_leaves,
            } => {
                out.push(11);
                out.extend_from_slice(&root.to_le_bytes());
                out.extend_from_slice(&height.to_le_bytes());
                out.extend_from_slice(&n_leaves.to_le_bytes());
            }
        }
    }

    pub fn decode(buf: &[u8], at: &mut usize) -> Result<RedoRecord> {
        let err = || Error::Corruption("truncated redo record".into());
        let take = |at: &mut usize, n: usize| -> Result<&[u8]> {
            let s = buf.get(*at..*at + n).ok_or_else(err)?;
            *at += n;
            Ok(s)
        };
        // Fixed-width readers: `take(n)` sliced exactly n bytes, so the
        // array conversions below cannot fail.
        let r_u16 = |at: &mut usize| -> Result<u16> {
            // lint:allow(panic): take(2) returned exactly 2 bytes
            Ok(u16::from_le_bytes(take(at, 2)?.try_into().unwrap()))
        };
        let r_u32 = |at: &mut usize| -> Result<u32> {
            // lint:allow(panic): take(4) returned exactly 4 bytes
            Ok(u32::from_le_bytes(take(at, 4)?.try_into().unwrap()))
        };
        let r_u64 = |at: &mut usize| -> Result<u64> {
            // lint:allow(panic): take(8) returned exactly 8 bytes
            Ok(u64::from_le_bytes(take(at, 8)?.try_into().unwrap()))
        };
        let lsn = r_u64(at)?;
        let space = SpaceId(r_u32(at)?);
        let page_no = r_u32(at)?;
        let tag = take(at, 1)?[0];
        let body = match tag {
            0 => {
                let n = r_u32(at)? as usize;
                RedoBody::NewPage(take(at, n)?.to_vec())
            }
            1 => {
                let slot_idx = r_u16(at)?;
                let n = r_u32(at)? as usize;
                RedoBody::InsertRecord {
                    slot_idx,
                    rec: take(at, n)?.to_vec(),
                }
            }
            2 => {
                let rec_at = r_u16(at)?;
                let mark = take(at, 1)?[0] != 0;
                RedoBody::SetDeleteMark { rec_at, mark }
            }
            3 => {
                let a = r_u16(at)?;
                let n = r_u32(at)? as usize;
                RedoBody::WriteBytes {
                    at: a,
                    bytes: take(at, n)?.to_vec(),
                }
            }
            4 => RedoBody::SetNext(r_u32(at)?),
            5 => RedoBody::SetPrev(r_u32(at)?),
            6 => RedoBody::FreePage,
            7 => {
                let n = r_u32(at)? as usize;
                RedoBody::SysCatalog(take(at, n)?.to_vec())
            }
            8 => {
                let n = r_u32(at)? as usize;
                RedoBody::SysLoaded(take(at, n)?.to_vec())
            }
            9 => {
                let writer = r_u64(at)?;
                let kn = r_u32(at)? as usize;
                let key = take(at, kn)?.to_vec();
                let prev = match take(at, 1)?[0] {
                    0 => None,
                    _ => {
                        let pn = r_u32(at)? as usize;
                        Some(take(at, pn)?.to_vec())
                    }
                };
                RedoBody::SysUndo { key, writer, prev }
            }
            10 => {
                let trx = r_u64(at)?;
                let aborted = take(at, 1)?[0] != 0;
                let low_limit = r_u64(at)?;
                let n = r_u32(at)? as usize;
                let active = (0..n).map(|_| r_u64(at)).collect::<Result<_>>()?;
                RedoBody::SysTrxEnd {
                    trx,
                    aborted,
                    active,
                    low_limit,
                }
            }
            11 => {
                let root = r_u32(at)?;
                let height = r_u32(at)?;
                let n_leaves = r_u32(at)?;
                RedoBody::SysShape {
                    root,
                    height,
                    n_leaves,
                }
            }
            other => return Err(Error::Corruption(format!("bad redo tag {other}"))),
        };
        Ok(RedoRecord {
            lsn,
            space,
            page_no,
            body,
        })
    }

    /// Serialize a batch (one Log Store append / one SAL distribution).
    pub fn encode_batch(records: &[RedoRecord]) -> Vec<u8> {
        let mut out = Vec::with_capacity(records.len() * 32);
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for r in records {
            r.encode(&mut out);
        }
        out
    }

    pub fn decode_batch(buf: &[u8]) -> Result<Vec<RedoRecord>> {
        if buf.len() < 4 {
            return Err(Error::Corruption("truncated redo batch".into()));
        }
        // lint:allow(panic): length >= 4 checked above
        let n = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        let mut at = 4usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(RedoRecord::decode(buf, &mut at)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{DataType, Value};
    use taurus_page::{encode_record, RecordLayout, RecordMeta};

    fn rec(k: i64) -> Vec<u8> {
        let l = RecordLayout::new(vec![DataType::BigInt]);
        let mut b = Vec::new();
        encode_record(&l, &[Value::Int(k)], RecordMeta::ordinary(1), None, &mut b).unwrap();
        b
    }

    #[test]
    fn batch_roundtrip() {
        let records = vec![
            RedoRecord {
                lsn: 10,
                space: SpaceId(1),
                page_no: 5,
                body: RedoBody::NewPage(Page::new_index(1024, SpaceId(1), 5, 9, 0).into_bytes()),
            },
            RedoRecord {
                lsn: 11,
                space: SpaceId(1),
                page_no: 5,
                body: RedoBody::InsertRecord {
                    slot_idx: 0,
                    rec: rec(7),
                },
            },
            RedoRecord {
                lsn: 12,
                space: SpaceId(1),
                page_no: 5,
                body: RedoBody::SetDeleteMark {
                    rec_at: 48,
                    mark: true,
                },
            },
            RedoRecord {
                lsn: 13,
                space: SpaceId(1),
                page_no: 5,
                body: RedoBody::SetNext(6),
            },
            RedoRecord {
                lsn: 14,
                space: SpaceId(1),
                page_no: 9,
                body: RedoBody::FreePage,
            },
            RedoRecord {
                lsn: 15,
                space: SpaceId(0),
                page_no: 0,
                body: RedoBody::SysCatalog(vec![1, 2, 3]),
            },
            RedoRecord {
                lsn: 16,
                space: SpaceId(0),
                page_no: 0,
                body: RedoBody::SysLoaded(vec![9; 40]),
            },
            RedoRecord {
                lsn: 17,
                space: SpaceId(1),
                page_no: 0,
                body: RedoBody::SysUndo {
                    key: vec![1, 0, 0, 7],
                    writer: 42,
                    prev: Some(rec(3)),
                },
            },
            RedoRecord {
                lsn: 18,
                space: SpaceId(1),
                page_no: 0,
                body: RedoBody::SysUndo {
                    key: vec![1],
                    writer: 43,
                    prev: None,
                },
            },
            RedoRecord {
                lsn: 19,
                space: SpaceId(0),
                page_no: 0,
                body: RedoBody::SysTrxEnd {
                    trx: 42,
                    aborted: true,
                    active: vec![40, 44],
                    low_limit: 45,
                },
            },
            RedoRecord {
                lsn: 20,
                space: SpaceId(1),
                page_no: 0,
                body: RedoBody::SysShape {
                    root: 7,
                    height: 2,
                    n_leaves: 5,
                },
            },
        ];
        let bytes = RedoRecord::encode_batch(&records);
        assert_eq!(RedoRecord::decode_batch(&bytes).unwrap(), records);
        // System records are replication metadata, never page deltas.
        for r in &records {
            assert_eq!(r.body.is_system(), r.lsn >= 15);
            if r.body.is_system() {
                let mut page = None;
                assert!(r.apply(&mut page).is_err());
            }
        }
    }

    #[test]
    fn apply_sequence_builds_page() {
        let img = Page::new_index(1024, SpaceId(1), 5, 9, 0).into_bytes();
        let mut page: Option<Page> = None;
        RedoRecord {
            lsn: 1,
            space: SpaceId(1),
            page_no: 5,
            body: RedoBody::NewPage(img),
        }
        .apply(&mut page)
        .unwrap();
        RedoRecord {
            lsn: 2,
            space: SpaceId(1),
            page_no: 5,
            body: RedoBody::InsertRecord {
                slot_idx: 0,
                rec: rec(7),
            },
        }
        .apply(&mut page)
        .unwrap();
        RedoRecord {
            lsn: 3,
            space: SpaceId(1),
            page_no: 5,
            body: RedoBody::InsertRecord {
                slot_idx: 1,
                rec: rec(9),
            },
        }
        .apply(&mut page)
        .unwrap();
        let p = page.as_ref().unwrap();
        assert_eq!(p.n_recs(), 2);
        assert_eq!(p.lsn(), 3);
        RedoRecord {
            lsn: 4,
            space: SpaceId(1),
            page_no: 5,
            body: RedoBody::FreePage,
        }
        .apply(&mut page)
        .unwrap();
        assert!(page.is_none());
    }

    #[test]
    fn apply_to_missing_page_is_corruption() {
        let mut page: Option<Page> = None;
        let r = RedoRecord {
            lsn: 2,
            space: SpaceId(1),
            page_no: 5,
            body: RedoBody::SetNext(6),
        };
        assert!(matches!(r.apply(&mut page), Err(Error::Corruption(_))));
    }
}
