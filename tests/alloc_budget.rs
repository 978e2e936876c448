//! Allocation budget of the SQL node's row path.
//!
//! A counting `#[global_allocator]` (which is why this is a test binary of
//! its own, with a single test so nothing else allocates meanwhile) counts
//! every allocation of every thread while a query runs. Between page bytes
//! and the consumer the row path allocates per scan, per batch and per new
//! group, never per row: a full scan of fixed-width columns and a hash
//! aggregation over four groups each stay under 0.05 allocations per input
//! row, where one `Vec` per row alone would be 1.0. The counts repeat from
//! run to run to within a handful (long-lived structures such as the
//! buffer pool's bookkeeping grow now and then), so a per-row allocation
//! cannot creep back in unnoticed. (String columns are outside the budget:
//! a `Value::Str` owns its bytes.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use taurus::common::schema::{Column, TableSchema};
use taurus::common::{BatchLayout, ClusterConfig, DataType, Dec, Result, RowBatch, Value};
use taurus::expr::ast::Expr;
use taurus::ndp::{scan, AggState, ScanConsumer, ScanRange, ScanSpec, TaurusDb};
use taurus::optimizer::plan::{AggFuncEx, AggItem, HashAggNode, Plan, ScanNode};
use taurus::prelude::Session;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic and
// allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: u64 = 12_000;
const PER_ROW_BUDGET: f64 = 0.05;
/// How far the counts of identical runs may differ.
const REPEAT_SLACK: u64 = 16;

/// Run `query` once to warm up (pages cached, batch buffers pooled), then
/// five times counting the allocations of all threads: every run must
/// stay within the per-row budget and the runs must agree.
fn assert_within_budget(what: &str, query: impl Fn()) {
    query();
    let counts: Vec<u64> = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            query();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    let budget = (ROWS as f64 * PER_ROW_BUDGET) as u64;
    assert!(
        *max < budget,
        "{what}: {counts:?} allocations for {ROWS} rows"
    );
    assert!(
        max - min <= REPEAT_SLACK,
        "{what}: counts do not repeat: {counts:?}"
    );
}

struct CountRows(u64);

impl ScanConsumer for CountRows {
    fn on_row(&mut self, _row: &[Value]) -> Result<bool> {
        self.0 += 1;
        Ok(true)
    }

    fn on_batch(&mut self, batch: &RowBatch) -> Result<bool> {
        self.0 += batch.len() as u64;
        Ok(true)
    }

    fn on_partial(&mut self, _states: Vec<AggState>) -> Result<bool> {
        unreachable!("no aggregation requested")
    }
}

#[test]
fn the_row_path_allocates_per_batch_never_per_row() {
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = 4096; // everything stays cached
                                  // The budget is the default row path's, whatever a CI leg's
                                  // environment overrides ask of other tests.
    cfg.batch_layout = BatchLayout::Row;
    cfg.scan_batch_rows = taurus::common::batch::DEFAULT_SCAN_BATCH_ROWS;
    let db = TaurusDb::new(cfg);
    let dec = DataType::Decimal {
        precision: 15,
        scale: 2,
    };
    let schema = TableSchema::new(
        "facts",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("grp", DataType::Int),
            Column::new("amount", dec),
            Column::new("day", DataType::Date),
        ],
        vec![0],
    );
    let table = db.create_table(schema, &[]).unwrap();
    let rows = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 4),
                Value::Decimal(Dec::new((i % 1000) as i128, 2)),
                Value::Date(taurus::common::Date32(9000 + (i % 365) as i32)),
            ]
        })
        .collect();
    db.bulk_load(&table, rows).unwrap();

    // --- the scan core: page bytes -> batches -------------------------------
    let spec = ScanSpec {
        index: 0,
        range: ScanRange::full(),
        ndp: None,
        output_cols: vec![0, 1, 2, 3],
    };
    let view = db.read_view(0);
    assert_within_budget("scan core", || {
        let mut rows = CountRows(0);
        scan(&db, &table, &spec, &view, &mut rows).unwrap();
        assert_eq!(rows.0, ROWS);
    });

    // --- the served path: producer thread, channel, drained batches ---------
    let session = Session::new(&db).with_ndp(false);
    assert_within_budget("streamed scan", || {
        let mut stream = session.stream_plan(Plan::Scan(ScanNode::new("facts", vec![0, 1, 2, 3])));
        let mut rows = 0;
        while let Some(batch) = stream.next_batch() {
            let batch = batch.unwrap();
            rows += batch.len() as u64;
        }
        assert_eq!(rows, ROWS);
    });

    // --- a breaker: hash aggregation over four groups -----------------------
    let agg = Plan::HashAgg(HashAggNode {
        input: Box::new(Plan::Scan(ScanNode::new("facts", vec![1, 2]))),
        group: vec![Expr::col(0)],
        aggs: vec![
            AggItem {
                func: AggFuncEx::Sum,
                input: Some(Expr::col(1)),
            },
            AggItem {
                func: AggFuncEx::CountStar,
                input: None,
            },
        ],
    });
    assert_within_budget("hash aggregation", || {
        let groups = session.execute_plan(&agg).unwrap();
        assert_eq!(groups.len(), 4);
        let counted: i64 = groups.iter().map(|g| g[2].as_int().unwrap()).sum();
        assert_eq!(counted as u64, ROWS);
    });
}
