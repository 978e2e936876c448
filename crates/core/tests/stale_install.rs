//! A page fetched from storage goes into the buffer pool only if it cannot
//! predate a write.
//!
//! A reader that missed a page holds its image for as long as the reply is
//! on the wire (a lookup join's prefetch, for a whole chunk's reply).
//! Meanwhile a writer can cache the same page, update it (mirrored onto
//! the cached copy) and ship the redo. The reader's image must then not
//! replace the cached copy: the pool would serve a page older than the
//! Page Stores', and later mirrored operations would land on the stale
//! image. Nor may it go in when the writer found no copy to mirror onto.
//! The interleaving is forced at the seam the read path itself uses:
//! [`SpaceStore::begin_fetch`], the fetch, [`SpaceStore::install`].

use std::sync::Arc;

use taurus_btree::{RedoOp, TreeStore};
use taurus_common::schema::{Column, TableSchema};
use taurus_common::{ClusterConfig, DataType, PageRef, QueryCtx, Value};
use taurus_ndp::{Table, TaurusDb};

const KEY: i64 = 7;

fn build() -> (Arc<TaurusDb>, Arc<Table>) {
    let db = TaurusDb::new(ClusterConfig::small_for_tests());
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("v", DataType::BigInt),
        ],
        vec![0],
    );
    let t = db.create_table(schema, &[]).unwrap();
    let rows = (0..40)
        .map(|i| vec![Value::Int(i), Value::Int(i)])
        .collect();
    db.bulk_load(&t, rows).unwrap();
    (db, t)
}

fn value_of_key(db: &TaurusDb, t: &Table) -> Option<Value> {
    db.lookup_row(t, &db.read_view(0), &[Value::Int(KEY)])
        .unwrap()
        .map(|row| row[1].clone())
}

#[test]
fn a_fetched_image_never_replaces_a_copy_a_write_was_mirrored_onto() {
    let (db, t) = build();
    let store = t.primary.store.as_ref();
    let key = t.primary.tree.encode_search_key(&[Value::Int(KEY)]);
    let leaf = t.primary.tree.get(store, &key).unwrap().unwrap().page_no;
    let pref = PageRef::new(store.space, leaf);
    db.buffer_pool().clear();

    // A reader misses the leaf and fetches it: image V0, reply on the wire.
    let token = store.begin_fetch();
    let v0 = store
        .sal()
        .read_page_ctx(pref, None, &QueryCtx::new())
        .unwrap();
    // A writer caches the leaf and updates a row on it.
    store.read(leaf).unwrap();
    let trx = db.begin();
    db.update_row(&t, trx, &vec![Value::Int(KEY), Value::Int(1000)])
        .unwrap();
    db.commit(trx);
    let updated = store.read(leaf).unwrap();
    assert_ne!(updated.bytes(), v0.bytes());
    // The reader's reply arrives.
    store.install(&token, [v0]);

    let resident = store.read(leaf).unwrap();
    assert_eq!(
        resident.bytes(),
        updated.bytes(),
        "the resident page lost the update to a stale fetched image"
    );
    assert_eq!(value_of_key(&db, &t), Some(Value::Int(1000)));
}

#[test]
fn a_fetched_image_stays_out_when_a_write_found_no_copy_to_mirror_onto() {
    let (db, t) = build();
    let store = t.primary.store.as_ref();
    let key = t.primary.tree.encode_search_key(&[Value::Int(KEY)]);
    let loc = t.primary.tree.get(store, &key).unwrap().unwrap();
    let pref = PageRef::new(store.space, loc.page_no);
    db.buffer_pool().clear();

    let token = store.begin_fetch();
    let before_write = store
        .sal()
        .read_page_ctx(pref, None, &QueryCtx::new())
        .unwrap();
    // The leaf is not cached: this write reaches the Page Stores only.
    store
        .write(vec![RedoOp::SetDeleteMark {
            page_no: loc.page_no,
            rec_at: loc.rec_at,
            mark: true,
        }])
        .unwrap();
    store.install(&token, [before_write]);
    assert!(
        !store.is_resident(loc.page_no),
        "an image older than the Page Stores' was cached"
    );
    // The next reader fetches the page as it now is.
    assert_eq!(value_of_key(&db, &t), None);
    assert!(store.is_resident(loc.page_no));
}

#[test]
fn an_undisturbed_fetch_is_cached() {
    let (db, t) = build();
    let store = t.primary.store.as_ref();
    let root = t.primary.tree.root();
    db.buffer_pool().clear();
    let token = store.begin_fetch();
    let page = store
        .sal()
        .read_page_ctx(PageRef::new(store.space, root), None, &QueryCtx::new())
        .unwrap();
    store.install(&token, [page]);
    assert!(store.is_resident(root));
}
