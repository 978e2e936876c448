//! Redo log records.
//!
//! Taurus masters never write pages — only log records (§II). Page Stores
//! apply these records to keep pages up to date; every application creates
//! a new page *version* stamped with the record's LSN, which is what lets
//! NDP batch reads request "page versions matching the LSN value"
//! (§IV-C4) while the B+ tree keeps changing.

use taurus_common::codec::{put_bytes, put_flag, put_u16, put_u32, put_u64, put_u8, Cursor};
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

    /// Header (LSN, space, page), a body tag, then the body; byte payloads
    /// carry `u32` lengths (a page image at most).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.lsn);
        put_u32(out, self.space.0);
        put_u32(out, self.page_no);
        match &self.body {
            RedoBody::NewPage(img) => {
                put_u8(out, 0);
                put_bytes(out, img);
            }
            RedoBody::InsertRecord { slot_idx, rec } => {
                put_u8(out, 1);
                put_u16(out, *slot_idx);
                put_bytes(out, rec);
            }
            RedoBody::SetDeleteMark { rec_at, mark } => {
                put_u8(out, 2);
                put_u16(out, *rec_at);
                put_flag(out, *mark);
            }
            RedoBody::WriteBytes { at, bytes } => {
                put_u8(out, 3);
                put_u16(out, *at);
                put_bytes(out, bytes);
            }
            RedoBody::SetNext(n) => {
                put_u8(out, 4);
                put_u32(out, *n);
            }
            RedoBody::SetPrev(n) => {
                put_u8(out, 5);
                put_u32(out, *n);
            }
            RedoBody::FreePage => put_u8(out, 6),
            RedoBody::SysCatalog(p) => {
                put_u8(out, 7);
                put_bytes(out, p);
            }
            RedoBody::SysLoaded(p) => {
                put_u8(out, 8);
                put_bytes(out, p);
            }
            RedoBody::SysUndo { key, writer, prev } => {
                put_u8(out, 9);
                put_u64(out, *writer);
                put_bytes(out, key);
                put_flag(out, prev.is_some());
                if let Some(img) = prev {
                    put_bytes(out, img);
                }
            }
            RedoBody::SysTrxEnd {
                trx,
                aborted,
                active,
                low_limit,
            } => {
                put_u8(out, 10);
                put_u64(out, *trx);
                put_flag(out, *aborted);
                put_u64(out, *low_limit);
                put_u32(out, active.len() as u32);
                active.iter().for_each(|a| put_u64(out, *a));
            }
            RedoBody::SysShape {
                root,
                height,
                n_leaves,
            } => {
                put_u8(out, 11);
                put_u32(out, *root);
                put_u32(out, *height);
                put_u32(out, *n_leaves);
            }
        }
    }

    /// Decode one record written by [`RedoRecord::encode`].
    pub fn decode(cur: &mut Cursor<'_>) -> Result<RedoRecord> {
        let lsn = cur.u64()?;
        let space = SpaceId(cur.u32()?);
        let page_no = cur.u32()?;
        let bytes = |cur: &mut Cursor<'_>| cur.bytes().map(<[u8]>::to_vec);
        let body = match cur.u8()? {
            0 => RedoBody::NewPage(bytes(cur)?),
            1 => RedoBody::InsertRecord {
                slot_idx: cur.u16()?,
                rec: bytes(cur)?,
            },
            2 => RedoBody::SetDeleteMark {
                rec_at: cur.u16()?,
                mark: cur.flag()?,
            },
            3 => RedoBody::WriteBytes {
                at: cur.u16()?,
                bytes: bytes(cur)?,
            },
            4 => RedoBody::SetNext(cur.u32()?),
            5 => RedoBody::SetPrev(cur.u32()?),
            6 => RedoBody::FreePage,
            7 => RedoBody::SysCatalog(bytes(cur)?),
            8 => RedoBody::SysLoaded(bytes(cur)?),
            9 => RedoBody::SysUndo {
                writer: cur.u64()?,
                key: bytes(cur)?,
                prev: match cur.flag()? {
                    false => None,
                    true => Some(bytes(cur)?),
                },
            },
            10 => {
                let trx = cur.u64()?;
                let aborted = cur.flag()?;
                let low_limit = cur.u64()?;
                let n = cur.count(8)?;
                RedoBody::SysTrxEnd {
                    trx,
                    aborted,
                    active: cur.list(n, Cursor::u64)?,
                    low_limit,
                }
            }
            11 => RedoBody::SysShape {
                root: cur.u32()?,
                height: cur.u32()?,
                n_leaves: cur.u32()?,
            },
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
        put_u32(&mut out, records.len() as u32);
        for r in records {
            r.encode(&mut out);
        }
        out
    }

    /// Decode a whole batch written by [`RedoRecord::encode_batch`]. A
    /// record takes its 17-byte header at the least, so a count the bytes
    /// cannot hold is refused before anything is sized by it.
    pub fn decode_batch(buf: &[u8]) -> Result<Vec<RedoRecord>> {
        let mut cur = Cursor::new(buf);
        let n = cur.count(REDO_HEADER_BYTES)?;
        let out = cur.list(n, RedoRecord::decode)?;
        cur.done()?;
        Ok(out)
    }
}

/// LSN, space, page number and body tag: the least a record takes.
const REDO_HEADER_BYTES: usize = 8 + 4 + 4 + 1;

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

    fn one(body: RedoBody) -> Vec<u8> {
        RedoRecord::encode_batch(&[RedoRecord {
            lsn: 1,
            space: SpaceId(1),
            page_no: 2,
            body,
        }])
    }

    fn corrupt(bytes: &[u8]) -> bool {
        matches!(RedoRecord::decode_batch(bytes), Err(Error::Corruption(_)))
    }

    /// A count the bytes cannot hold is refused before anything is sized
    /// by it (four bytes used to ask for a 309 GB allocation).
    #[test]
    fn hostile_counts_are_corruption_not_an_abort() {
        assert!(corrupt(&[0xff; 4]));
        assert!(corrupt(&[2, 0, 0, 0]));
        let mut end = one(RedoBody::SysTrxEnd {
            trx: 1,
            aborted: false,
            active: vec![],
            low_limit: 2,
        });
        let n = end.len();
        end[n - 4..].copy_from_slice(&[0xff; 4]);
        assert!(corrupt(&end));
    }

    /// Flag bytes are 0 or 1, and a batch is all of its bytes.
    #[test]
    fn flags_are_strict_and_trailing_bytes_refused() {
        // Batch count (4) + LSN, space, page (16) + tag (1) go first.
        let mark = one(RedoBody::SetDeleteMark {
            rec_at: 9,
            mark: true,
        });
        let undo = one(RedoBody::SysUndo {
            key: vec![1],
            writer: 3,
            prev: None,
        });
        let end = one(RedoBody::SysTrxEnd {
            trx: 1,
            aborted: true,
            active: vec![],
            low_limit: 2,
        });
        for (mut bytes, flag_at) in [(mark.clone(), 23), (undo.clone(), 34), (end, 29)] {
            assert!(RedoRecord::decode_batch(&bytes).is_ok());
            assert!(bytes[flag_at] <= 1);
            bytes[flag_at] = 2;
            assert!(corrupt(&bytes), "flag at {flag_at}");
        }
        for mut bytes in [mark, undo] {
            bytes.push(0);
            assert!(corrupt(&bytes));
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
