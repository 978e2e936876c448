//! B+ tree behaviour: build, lookup, insert/split, delete-mark, update,
//! leaf scans, and §IV-C4 batch extraction with range boundaries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use taurus_btree::builder::{bulk_build, count_rows};
use taurus_btree::{BTree, RedoOp, ScanRange, TreeStore};
use taurus_common::schema::{Column, IndexDef, TableSchema};
use taurus_common::{DataType, Error, IndexId, PageNo, Result, SpaceId, Value};
use taurus_page::{Page, RecordView};

/// In-memory TreeStore applying ops exactly like the engine would.
struct MemStore {
    pages: RwLock<HashMap<PageNo, Arc<Page>>>,
    next: AtomicU32,
    latch: RwLock<()>,
    lsn: AtomicU64,
}

impl MemStore {
    fn new() -> MemStore {
        MemStore {
            pages: RwLock::new(HashMap::new()),
            next: AtomicU32::new(0),
            latch: RwLock::new(()),
            lsn: AtomicU64::new(1),
        }
    }
}

impl TreeStore for MemStore {
    fn read(&self, page_no: PageNo) -> Result<Arc<Page>> {
        self.pages
            .read()
            .get(&page_no)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("page {page_no}")))
    }

    fn allocate(&self) -> PageNo {
        self.next.fetch_add(1, Ordering::SeqCst)
    }

    fn write(&self, ops: Vec<RedoOp>) -> Result<()> {
        let mut pages = self.pages.write();
        self.lsn.fetch_add(1, Ordering::SeqCst);
        for op in ops {
            match op {
                RedoOp::NewPage(p) => {
                    pages.insert(p.page_no(), Arc::new(p));
                }
                RedoOp::InsertRecord {
                    page_no,
                    slot_idx,
                    rec,
                } => {
                    let p = pages.get_mut(&page_no).unwrap();
                    Arc::make_mut(p).insert_at_slot(slot_idx as usize, &rec)?;
                }
                RedoOp::SetDeleteMark {
                    page_no,
                    rec_at,
                    mark,
                } => {
                    let p = pages.get_mut(&page_no).unwrap();
                    taurus_page::record::set_delete_mark(
                        Arc::make_mut(p).raw_mut(),
                        rec_at as usize,
                        mark,
                    );
                }
                RedoOp::WriteBytes { page_no, at, bytes } => {
                    let p = pages.get_mut(&page_no).unwrap();
                    let raw = Arc::make_mut(p).raw_mut();
                    raw[at as usize..at as usize + bytes.len()].copy_from_slice(&bytes);
                }
                RedoOp::SetPrev { page_no, prev } => {
                    let p = pages.get_mut(&page_no).unwrap();
                    Arc::make_mut(p).set_prev(prev);
                }
            }
        }
        Ok(())
    }

    fn structure_latch(&self) -> &RwLock<()> {
        &self.latch
    }

    fn current_lsn(&self) -> u64 {
        self.lsn.load(Ordering::SeqCst)
    }
}

fn test_tree() -> BTree {
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("val", DataType::Int),
            Column::new("name", DataType::Varchar(32)),
        ],
        vec![0],
    );
    BTree::new(IndexDef {
        name: "pk".into(),
        index_id: IndexId(1),
        space: SpaceId(1),
        table: schema,
        key_cols: vec![0],
        is_primary: true,
    })
}

fn row(id: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(id * 7 % 100),
        Value::str(format!("name-{id}")),
    ]
}

const PAGE: usize = 1024;

fn build(n: i64) -> (BTree, MemStore) {
    let tree = test_tree();
    let store = MemStore::new();
    bulk_build(&tree, &store, PAGE, (0..n).map(|i| row(i * 2)), 1).unwrap();
    (tree, store)
}

/// All keys by walking the leaf chain.
fn scan_keys(tree: &BTree, store: &MemStore) -> Vec<i64> {
    let mut out = Vec::new();
    let mut page = tree.seek_leaf(store, &ScanRange::full()).unwrap().unwrap();
    loop {
        for rec in page.iter_chain() {
            let v = RecordView::parse(rec.unwrap(), &tree.leaf_layout).unwrap();
            if !v.delete_mark() {
                out.push(v.value(0).as_int().unwrap());
            }
        }
        match page.next() {
            taurus_page::NO_PAGE => break,
            n => page = store.read(n).unwrap(),
        }
    }
    out
}

#[test]
fn bulk_build_preserves_order_and_counts() {
    let (tree, store) = build(500);
    assert!(
        tree.height() >= 2,
        "500 rows on 1 KB pages must not fit one leaf"
    );
    assert!(tree.n_leaves() > 4);
    let keys = scan_keys(&tree, &store);
    assert_eq!(keys.len(), 500);
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(count_rows(&tree, &store).unwrap(), 500);
}

#[test]
fn bulk_build_deep_tree() {
    let (tree, store) = build(5000);
    assert!(
        tree.height() >= 3,
        "expected a level-2 tree, got {}",
        tree.height()
    );
    let keys = scan_keys(&tree, &store);
    assert_eq!(keys.len(), 5000);
    assert_eq!(keys[0], 0);
    assert_eq!(*keys.last().unwrap(), 9998);
}

#[test]
fn empty_build_then_insert() {
    let tree = test_tree();
    let store = MemStore::new();
    bulk_build(&tree, &store, PAGE, std::iter::empty(), 1).unwrap();
    assert_eq!(tree.n_leaves(), 0);
    tree.insert(&store, &row(42), 2).unwrap();
    tree.insert(&store, &row(7), 2).unwrap();
    assert_eq!(scan_keys(&tree, &store), vec![7, 42]);
}

#[test]
fn point_lookup_hit_and_miss() {
    let (tree, store) = build(200);
    let hit = tree
        .get(&store, &tree.encode_search_key(&[Value::Int(42 * 2)]))
        .unwrap();
    assert!(hit.is_some());
    let rec = hit.unwrap();
    let v = RecordView::new(&rec.bytes, &tree.leaf_layout);
    assert_eq!(v.value(0), Value::Int(84));
    // Odd keys were never inserted.
    let miss = tree
        .get(&store, &tree.encode_search_key(&[Value::Int(85)]))
        .unwrap();
    assert!(miss.is_none());
}

#[test]
fn inserts_with_splits_keep_everything() {
    let (tree, store) = build(300); // even keys 0..598
    let leaves_before = tree.n_leaves();
    // Insert all the odd keys (forces many splits).
    for i in 0..300 {
        tree.insert(&store, &row(i * 2 + 1), 5).unwrap();
    }
    assert!(tree.n_leaves() > leaves_before);
    let keys = scan_keys(&tree, &store);
    assert_eq!(keys.len(), 600);
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    // Every key findable by point lookup (exercises parent separators).
    for k in [0i64, 1, 299, 300, 597, 598, 599] {
        assert!(
            tree.get(&store, &tree.encode_search_key(&[Value::Int(k)]))
                .unwrap()
                .is_some(),
            "key {k} lost after splits"
        );
    }
}

#[test]
fn duplicate_insert_rejected() {
    let (tree, store) = build(10);
    assert!(tree.insert(&store, &row(4), 5).is_err());
}

#[test]
fn delete_mark_stamps_writer() {
    let (tree, store) = build(50);
    let key = tree.encode_search_key(&[Value::Int(20)]);
    let old = tree.set_delete_mark(&store, &key, 99, true).unwrap();
    let old_view_trx = {
        let v = RecordView::new(&old, &tree.leaf_layout);
        v.trx_id()
    };
    assert_eq!(old_view_trx, 1, "previous image keeps the old writer");
    let loc = tree.get(&store, &key).unwrap().unwrap();
    let v = RecordView::new(&loc.bytes, &tree.leaf_layout);
    assert!(v.delete_mark());
    assert_eq!(v.trx_id(), 99);
    assert_eq!(count_rows(&tree, &store).unwrap(), 49);
    // Unmark (rollback path).
    tree.set_delete_mark(&store, &key, 1, false).unwrap();
    assert_eq!(count_rows(&tree, &store).unwrap(), 50);
}

#[test]
fn update_in_place_fixed_width() {
    let (tree, store) = build(50);
    let mut r = row(20);
    r[1] = Value::Int(-12345);
    let old = tree.update_in_place(&store, &r, 42).unwrap();
    assert!(!old.is_empty());
    let key = tree.encode_search_key(&[Value::Int(20)]);
    let loc = tree.get(&store, &key).unwrap().unwrap();
    let v = RecordView::new(&loc.bytes, &tree.leaf_layout);
    assert_eq!(v.value(1), Value::Int(-12345));
    assert_eq!(v.trx_id(), 42);
    // Changing a varchar's length is rejected.
    let mut r2 = row(20);
    r2[1] = Value::Int(-12345);
    r2[2] = Value::str("this-name-is-much-longer-now!!");
    assert!(tree.update_in_place(&store, &r2, 43).is_err());
}

#[test]
fn batch_extraction_covers_all_leaves_in_order() {
    let (tree, store) = build(2000);
    let mut collected: Vec<PageNo> = Vec::new();
    let mut resume: Option<Vec<u8>> = None;
    let mut rounds = 0;
    loop {
        let (pages, lsn, next) = tree
            .collect_leaf_batch(&store, &ScanRange::full(), resume.as_deref(), 7)
            .unwrap();
        assert!(lsn > 0);
        assert!(pages.len() <= 7);
        collected.extend(&pages);
        rounds += 1;
        match next {
            Some(k) => resume = Some(k),
            None => break,
        }
    }
    assert!(rounds > 3, "expected multiple batches");
    // The batches must enumerate exactly the leaf chain, in order.
    let mut chain: Vec<PageNo> = Vec::new();
    let mut page = tree.seek_leaf(&store, &ScanRange::full()).unwrap().unwrap();
    loop {
        chain.push(page.page_no());
        match page.next() {
            taurus_page::NO_PAGE => break,
            n => page = store.read(n).unwrap(),
        }
    }
    assert_eq!(collected, chain);
}

#[test]
fn batch_extraction_respects_range_boundaries() {
    let (tree, store) = build(2000); // keys 0..3998 even
    let lo = tree.encode_search_key(&[Value::Int(1000)]);
    let hi = tree.encode_search_key(&[Value::Int(1400)]);
    let range = ScanRange {
        lower: Some((lo, true)),
        upper: Some((hi, true)),
    };
    let (pages, _, resume) = tree
        .collect_leaf_batch(&store, &range, None, 10_000)
        .unwrap();
    assert!(resume.is_none());
    // The selected leaves must cover [1000,1400] and little more.
    let full = tree
        .collect_leaf_batch(&store, &ScanRange::full(), None, 10_000)
        .unwrap()
        .0;
    assert!(
        pages.len() < full.len() / 2,
        "{} vs {}",
        pages.len(),
        full.len()
    );
    // All keys in range appear in the collected pages.
    let mut seen = Vec::new();
    for no in &pages {
        let p = store.read(*no).unwrap();
        for rec in p.iter_chain() {
            let v = RecordView::parse(rec.unwrap(), &tree.leaf_layout).unwrap();
            let k = v.value(0).as_int().unwrap();
            if (1000..=1400).contains(&k) {
                seen.push(k);
            }
        }
    }
    seen.sort_unstable();
    let expect: Vec<i64> = (1000..=1400).filter(|k| k % 2 == 0).collect();
    assert_eq!(seen, expect);
}

#[test]
fn batch_extraction_single_leaf_tree() {
    let (tree, store) = build(5);
    assert_eq!(tree.height(), 1);
    let (pages, _, resume) = tree
        .collect_leaf_batch(&store, &ScanRange::full(), None, 10)
        .unwrap();
    assert_eq!(pages, vec![tree.root()]);
    assert!(resume.is_none());
}

#[test]
fn scan_range_semantics() {
    let k = |v: i64| taurus_common::schema::encode_key(&[Value::Int(v)], &[DataType::BigInt]);
    let r = ScanRange {
        lower: Some((k(10), true)),
        upper: Some((k(20), false)),
    };
    assert!(!r.contains(&k(9)));
    assert!(r.contains(&k(10)));
    assert!(r.contains(&k(19)));
    assert!(!r.contains(&k(20)));
    assert!(r.past_upper(&k(20)));
    assert!(!r.past_upper(&k(19)));
    // Prefix semantics on a composite key.
    let dts = [DataType::BigInt, DataType::BigInt];
    let prefix = taurus_common::schema::encode_key(&[Value::Int(5)], &dts[..1]);
    let full_key = taurus_common::schema::encode_key(&[Value::Int(5), Value::Int(99)], &dts);
    let pr = ScanRange {
        lower: Some((prefix.clone(), true)),
        upper: Some((prefix.clone(), true)),
    };
    assert!(
        pr.contains(&full_key),
        "key extending an inclusive prefix bound matches"
    );
    assert!(!pr.past_upper(&full_key));
}
