//! Bottom-up bulk build (the TPC-H load path).
//!
//! Rows must arrive in key order. Leaves are packed to a fill factor that
//! leaves headroom for later inserts, chained left-to-right, then internal
//! levels are built bottom-up with first-key separators. All pages are
//! emitted through [`TreeStore::write`] as `NewPage` redo — exactly how a
//! Taurus master materializes pages in Page Stores (it never writes pages,
//! only log records).

use taurus_common::{Result, TrxId, Value};
use taurus_page::{encode_record, Page, RecordMeta, RecordView};

use crate::{encode_node_ptr, BTree, RedoOp, TreeStore};

/// How many `NewPage` ops to buffer per `TreeStore::write` call.
const WRITE_BATCH: usize = 64;

/// Free bytes to leave per leaf for future point inserts (~6 %).
fn fill_reserve(page_size: usize) -> usize {
    page_size / 16
}

struct LevelBuilder<'a> {
    store: &'a dyn TreeStore,
    pending: Vec<RedoOp>,
}

impl<'a> LevelBuilder<'a> {
    fn flush_if_full(&mut self) -> Result<()> {
        if self.pending.len() >= WRITE_BATCH {
            let ops = std::mem::take(&mut self.pending);
            self.store.write(ops)?;
        }
        Ok(())
    }

    fn emit(&mut self, page: Page) -> Result<()> {
        self.pending.push(RedoOp::NewPage(page));
        self.flush_if_full()
    }

    fn finish(mut self) -> Result<()> {
        if !self.pending.is_empty() {
            self.store.write(std::mem::take(&mut self.pending))?;
        }
        Ok(())
    }
}

/// Build the tree from sorted rows (leaf-record column order). Replaces
/// any previous content. Returns the number of leaf pages.
pub fn bulk_build(
    tree: &BTree,
    store: &dyn TreeStore,
    page_size: usize,
    rows: impl Iterator<Item = Vec<Value>>,
    trx_id: TrxId,
) -> Result<u32> {
    let _x = store.structure_latch().write();
    let reserve = fill_reserve(page_size);
    let mut lb = LevelBuilder {
        store,
        pending: Vec::new(),
    };

    // --- leaves -----------------------------------------------------------
    // (first_key, page_no) of each completed leaf.
    let mut leaf_index: Vec<(Vec<u8>, u32)> = Vec::new();
    let mut cur: Option<Page> = None;
    let mut cur_first_key: Vec<u8> = Vec::new();
    let mut prev_no: Option<u32> = None;
    let mut rec_buf: Vec<u8> = Vec::new();

    for row in rows {
        rec_buf.clear();
        encode_record(
            &tree.leaf_layout,
            &row,
            RecordMeta::ordinary(trx_id),
            None,
            &mut rec_buf,
        )?;
        let needs_new = match &cur {
            None => true,
            Some(p) => !p.fits(rec_buf.len() + reserve),
        };
        if needs_new {
            if let Some(mut done) = cur.take() {
                let no = done.page_no();
                if let Some(prev) = prev_no {
                    done.set_prev(prev);
                    // Fix the previous page's next pointer after the fact.
                    lb.pending.push(RedoOp::WriteBytes {
                        page_no: prev,
                        at: 36,
                        bytes: no.to_le_bytes().to_vec(),
                    });
                }
                prev_no = Some(no);
                leaf_index.push((std::mem::take(&mut cur_first_key), no));
                lb.emit(done)?;
            }
            let no = store.allocate();
            cur = Some(Page::new_index(
                page_size,
                tree.def.space,
                no,
                tree.def.index_id.0,
                0,
            ));
            cur_first_key = tree.key_of_row(&row);
        }
        cur.as_mut().unwrap().append_record(&rec_buf)?;
    }
    if let Some(mut done) = cur.take() {
        let no = done.page_no();
        if let Some(prev) = prev_no {
            done.set_prev(prev);
            lb.pending.push(RedoOp::WriteBytes {
                page_no: prev,
                at: 36,
                bytes: no.to_le_bytes().to_vec(),
            });
        }
        leaf_index.push((std::mem::take(&mut cur_first_key), no));
        lb.emit(done)?;
    }

    // Empty table: a single empty leaf root.
    if leaf_index.is_empty() {
        let no = store.allocate();
        let root = Page::new_index(page_size, tree.def.space, no, tree.def.index_id.0, 0);
        lb.emit(root)?;
        lb.finish()?;
        tree.set_shape(no, 1, 0);
        return Ok(0);
    }
    let n_leaves = leaf_index.len() as u32;

    // --- internal levels ----------------------------------------------------
    let mut level: u16 = 1;
    let mut entries = leaf_index;
    while entries.len() > 1 {
        let mut next_entries: Vec<(Vec<u8>, u32)> = Vec::new();
        let mut cur: Option<Page> = None;
        let mut cur_first: Vec<u8> = Vec::new();
        let mut prev_no: Option<u32> = None;
        let mut node_buf: Vec<u8> = Vec::new();
        for (sep, child) in entries {
            node_buf.clear();
            encode_node_ptr(&sep, child, &mut node_buf);
            let needs_new = match &cur {
                None => true,
                Some(p) => !p.fits(node_buf.len() + reserve),
            };
            if needs_new {
                if let Some(mut done) = cur.take() {
                    let no = done.page_no();
                    if let Some(prev) = prev_no {
                        done.set_prev(prev);
                        lb.pending.push(RedoOp::WriteBytes {
                            page_no: prev,
                            at: 36,
                            bytes: no.to_le_bytes().to_vec(),
                        });
                    }
                    prev_no = Some(no);
                    next_entries.push((std::mem::take(&mut cur_first), no));
                    lb.emit(done)?;
                }
                let no = store.allocate();
                cur = Some(Page::new_index(
                    page_size,
                    tree.def.space,
                    no,
                    tree.def.index_id.0,
                    level,
                ));
                cur_first = sep.clone();
            }
            cur.as_mut().unwrap().append_record(&node_buf)?;
        }
        if let Some(mut done) = cur.take() {
            let no = done.page_no();
            if let Some(prev) = prev_no {
                done.set_prev(prev);
                lb.pending.push(RedoOp::WriteBytes {
                    page_no: prev,
                    at: 36,
                    bytes: no.to_le_bytes().to_vec(),
                });
            }
            next_entries.push((std::mem::take(&mut cur_first), no));
            lb.emit(done)?;
        }
        entries = next_entries;
        level += 1;
    }
    lb.finish()?;
    let root = entries[0].1;
    tree.set_shape(root, level as u32, n_leaves);
    Ok(n_leaves)
}

/// Count rows by walking the leaf chain (diagnostics / tests).
pub fn count_rows(tree: &BTree, store: &dyn TreeStore) -> Result<u64> {
    let mut n = 0u64;
    let mut page = match tree.seek_leaf(store, &crate::ScanRange::full())? {
        Some(p) => p,
        None => return Ok(0),
    };
    loop {
        for rec in page.iter_chain() {
            let v = RecordView::parse(rec?, &tree.leaf_layout)?;
            if !v.delete_mark() {
                n += 1;
            }
        }
        match page.next() {
            taurus_page::NO_PAGE => break,
            next => page = store.read(next)?,
        }
    }
    Ok(n)
}
