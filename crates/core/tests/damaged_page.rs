//! A scan over a damaged leaf fails closed.
//!
//! Bytes of one record's info byte, `next` pointer and var-length array
//! are flipped in a loaded leaf (through the engine's own byte-rewrite
//! redo, so the buffer pool and the Page Stores both hold the damage).
//! Every scan of it — classical, and NDP with the Page Stores walking the
//! same page — must end, on its own thread and in bounded time, in a typed
//! `Error::Corruption` or in rows the damage provably did not touch. Never
//! a panic, never a hang (a `next` pointer that closes a cycle included).

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use taurus_btree::{RedoOp, TreeStore};
use taurus_common::schema::{Column, Row, TableSchema};
use taurus_common::{ClusterConfig, DataType, Error, Result, Value};
use taurus_ndp::{scan, NdpChoice, ScanConsumer, ScanRange, ScanSpec, Table, TaurusDb};

const ROWS: i64 = 400;
/// Position (in key order) of the damaged record within the first leaf.
const VICTIM: usize = 3;

fn build() -> (Arc<TaurusDb>, Arc<Table>) {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.page_size = 2048;
    cfg.ndp.min_io_pages = 0;
    let db = TaurusDb::new(cfg);
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("name", DataType::Varchar(20)),
            Column::new("n", DataType::Int),
        ],
        vec![0],
    );
    let t = db.create_table(schema, &[]).unwrap();
    let rows = (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(format!("name-{i:04}")),
                Value::Int(i * 3),
            ]
        })
        .collect();
    db.bulk_load(&t, rows).unwrap();
    (db, t)
}

#[derive(Default)]
struct Rows(Vec<Row>);

impl ScanConsumer for Rows {
    fn on_row(&mut self, row: &[Value]) -> Result<bool> {
        self.0.push(row.to_vec());
        Ok(true)
    }

    fn on_partial(&mut self, _states: Vec<taurus_ndp::AggState>) -> Result<bool> {
        unreachable!("no aggregation requested")
    }
}

/// Run one scan on its own thread. A panic or a scan still running after
/// ten seconds fails the test; otherwise the scan's own result comes back.
fn scan_guarded(
    db: &Arc<TaurusDb>,
    t: &Arc<Table>,
    spec: &ScanSpec,
    what: &str,
) -> Result<Vec<Row>> {
    let (tx, rx) = channel();
    let (db, t, spec) = (db.clone(), t.clone(), spec.clone());
    let worker = std::thread::spawn(move || {
        let view = db.read_view(0);
        let mut rows = Rows::default();
        let outcome = scan(&db, &t, &spec, &view, &mut rows).map(|_| rows.0);
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(outcome) => {
            worker.join().unwrap();
            outcome
        }
        Err(_) => match worker.is_finished() {
            true => panic!("{what}: the scan panicked: {:?}", worker.join().err()),
            false => panic!("{what}: the scan hangs"),
        },
    }
}

/// How a scan of the damaged leaf may end.
enum Expect {
    /// The damage is structural: a typed error, nothing else.
    Corruption,
    /// The bytes are a legitimate delete mark: the victim's row is gone.
    VictimDeleted,
    /// The record is still well-formed but reads differently: an error, or
    /// every other row exact and the victim's key intact (its other
    /// columns may differ, and a predicate over them may drop the row).
    VictimMayDiffer,
}

struct Fixture {
    db: Arc<TaurusDb>,
    t: Arc<Table>,
    page_no: u32,
    /// Offset of the victim record in its page, and its original header
    /// (fixed part, null bitmap, var-length array).
    rec_at: u16,
    original: Vec<u8>,
    specs: Vec<(&'static str, ScanSpec, Vec<Row>)>,
}

impl Fixture {
    fn new() -> Fixture {
        let (db, t) = build();
        let store = t.primary.store.clone();
        let leaf = t
            .primary
            .tree
            .seek_leaf(store.as_ref(), &ScanRange::full())
            .unwrap()
            .unwrap();
        assert!(leaf.n_recs() as usize > VICTIM + 2, "victim is mid-page");
        let rec_at = leaf.slot_offsets().nth(VICTIM).unwrap();
        // 13 fixed bytes + 1 bitmap byte + one var-length entry.
        let original = leaf.record_at(rec_at)[..16].to_vec();
        let classical = ScanSpec {
            index: 0,
            range: ScanRange::full(),
            ndp: None,
            output_cols: vec![0, 1, 2],
        };
        let specs = vec![
            ("classical", classical.clone()),
            (
                "classical, key only",
                ScanSpec {
                    output_cols: vec![0],
                    ..classical.clone()
                },
            ),
            (
                "ndp",
                ScanSpec {
                    ndp: Some(NdpChoice {
                        projection: Some(vec![0, 1, 2]),
                        predicate: Some(taurus_expr::ast::Expr::ge(
                            taurus_expr::ast::Expr::col(2),
                            taurus_expr::ast::Expr::int(0),
                        )),
                        aggregation: None,
                    }),
                    ..classical
                },
            ),
        ];
        let specs = specs
            .into_iter()
            .map(|(name, spec)| {
                db.buffer_pool().clear();
                let healthy = scan_guarded(&db, &t, &spec, name).unwrap();
                assert_eq!(healthy.len(), ROWS as usize, "{name}");
                (name, spec, healthy)
            })
            .collect();
        Fixture {
            db,
            t,
            page_no: leaf.page_no(),
            rec_at,
            original,
            specs,
        }
    }

    fn write(&self, at: usize, bytes: &[u8]) {
        self.t
            .primary
            .store
            .write(vec![RedoOp::WriteBytes {
                page_no: self.page_no,
                at: self.rec_at + at as u16,
                bytes: bytes.to_vec(),
            }])
            .unwrap();
    }

    /// Overwrite `bytes.len()` header bytes of the victim at `at`, scan
    /// every way (buffer pool warm, then cold so the page comes back from
    /// a Page Store), check, restore.
    fn damage(&self, at: usize, bytes: &[u8], expect: Expect) {
        self.write(at, bytes);
        for cold in [false, true] {
            for (name, spec, healthy) in &self.specs {
                if cold {
                    self.db.buffer_pool().clear();
                }
                let what = format!("{name}, header[{at}..] = {bytes:02x?}, cold = {cold}");
                let outcome = scan_guarded(&self.db, &self.t, spec, &what);
                let rows = match (outcome, &expect) {
                    (Err(Error::Corruption(_)), _) => continue,
                    (Err(e), _) => panic!("{what}: untyped failure {e:?}"),
                    (Ok(_), Expect::Corruption) => panic!("{what}: the damage went unnoticed"),
                    (Ok(rows), _) => rows,
                };
                match expect {
                    Expect::Corruption => unreachable!(),
                    Expect::VictimDeleted => {
                        let mut want = healthy.clone();
                        want.remove(VICTIM);
                        assert_eq!(rows, want, "{what}");
                    }
                    Expect::VictimMayDiffer => {
                        // Every other row is exact; the victim keeps its
                        // key, and a predicate reading its damaged columns
                        // may drop it.
                        let key = &healthy[VICTIM][0];
                        let others = |rows: &[Row]| -> Vec<Row> {
                            rows.iter().filter(|r| &r[0] != key).cloned().collect()
                        };
                        assert_eq!(others(&rows), others(healthy), "{what}");
                        assert!(rows.len() + 1 >= healthy.len(), "{what}");
                        if spec.output_cols == [0] {
                            assert_eq!(&rows, healthy, "{what}: no damaged column is read");
                        }
                    }
                }
            }
        }
        self.write(at, &self.original[at..at + bytes.len()]);
    }
}

#[test]
fn damaged_info_byte_is_corruption_or_a_delete_mark() {
    let f = Fixture::new();
    let info = f.original[0];
    assert_eq!(info, 0, "an ordinary, live record");
    for bit in 0..8u8 {
        let expect = match bit {
            3 => Expect::VictimDeleted,
            _ => Expect::Corruption, // another record type, or stray bits
        };
        f.damage(0, &[info ^ (1 << bit)], expect);
    }
    // The two type codes Listing 3 does not define.
    f.damage(0, &[6], Expect::Corruption);
    f.damage(0, &[7], Expect::Corruption);
}

#[test]
fn damaged_next_pointer_is_corruption_never_a_hang() {
    let f = Fixture::new();
    let next = u16::from_le_bytes([f.original[1], f.original[2]]);
    for bit in 0..16 {
        f.damage(1, &(next ^ (1 << bit)).to_le_bytes(), Expect::Corruption);
    }
    // Off the page, end of chain too early, and two cycles: onto itself
    // and back to the first record of the page.
    let first = {
        let leaf = f.t.primary.store.read(f.page_no).unwrap();
        leaf.first_rec()
    };
    for target in [u16::MAX, 0, f.rec_at, first] {
        f.damage(1, &target.to_le_bytes(), Expect::Corruption);
    }
}

#[test]
fn damaged_var_length_entry_is_corruption_or_contained_to_its_record() {
    let f = Fixture::new();
    let len = u16::from_le_bytes([f.original[14], f.original[15]]);
    assert_eq!(len, 9, "name-0003");
    for bit in 0..16 {
        let damaged = len ^ (1 << bit);
        // Beyond the declared VARCHAR(20) the record is malformed; within
        // it the record merely reads differently.
        let expect = match damaged > 20 {
            true => Expect::Corruption,
            false => Expect::VictimMayDiffer,
        };
        f.damage(14, &damaged.to_le_bytes(), expect);
    }
    f.damage(14, &u16::MAX.to_le_bytes(), Expect::Corruption);
}
