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
//! cannot creep back in unnoticed. (String columns a scan delivers as
//! rows are outside the budget: a `Value::Str` owns its bytes. A scan a
//! `HashAgg` folds decodes no row, so its string group columns are in.)
//!
//! A `HashAgg` over a bare scan folds its records: group keys from the
//! field images, aggregate inputs as programs over the record bytes, and
//! groups in flat arenas that finalize straight into output batches. A
//! GROUP BY of two CHAR(1) columns whose values change from row to row
//! (TPC-H Q1's shape) makes 96 allocations for 12,000 rows; one that
//! follows the index with a group every four rows (Q18's inner `group by
//! l_orderkey`, 3,000 groups) makes 109, so a group costs none. The row
//! decode and per-group `Vec`s they replaced made 13,782 and 9,041 (parent
//! commit a619beb, these same cases).
//!
//! A hash join builds per input batch, never per build row: the build
//! rows move into one flat batch and its index chains each key's rows, so
//! a join of 12,000 build rows on a unique integer key and its probe make
//! 62 allocations, under the same 0.05 a build row. The build it replaced
//! made a `Row`, a key copy and a match list per build row (parent commit
//! a5f1ff4, this same case: 36,072 for 12,000 build rows).
//!
//! A lookup join probes through an index access prepared once per
//! operator, with its keys encoded into one buffer per outer batch: a
//! probe of a fixed-width covering inner allocates once (the descent's
//! path to the leaf; 12,087 allocations for 12,000 probes), under a budget
//! of 3. The per-row path it replaced ran a whole scan set-up per outer
//! row and made 14 allocations a probe (parent commit f0e3577, this same
//! case: 168,056 for 12,000 probes).
//!
//! The Page Store's plugin has the same budget on the other side of the
//! wire: a page costs it the NDP page's buffer and the predicate's offset
//! scratch, whatever survives (TPC-H Q1 keeps every `lineitem` record and
//! folds them into three groups a page, Q6 keeps one record in fifty and
//! folds them into one), so an aggregated page costs at most two
//! allocations, and a join filter on top of either keeps it there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use taurus::btree::TreeStore;
use taurus::common::schema::{Column, TableSchema};
use taurus::common::{ClusterConfig, DataType, Dec, Result, RowBatch, Value};
use taurus::expr::ast::Expr;
use taurus::expr::descriptor::{encode_join_filter, KeyBloom, NdpDescriptor, Sections};
use taurus::ndp::{scan, AggState, ScanConsumer, ScanRange, ScanSpec, TaurusDb};
use taurus::optimizer::plan::{
    AggFunc, AggItem, HashAggNode, HashJoinNode, JoinType, LookupJoinNode, Plan, ScanNode,
};
use taurus::page::NO_PAGE;
use taurus::pagestore::{CachedDescriptor, InnodbNdpPlugin, NdpPlugin};
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
const PER_PROBE_BUDGET: f64 = 3.0;
/// How far the counts of identical runs may differ.
const REPEAT_SLACK: u64 = 16;

/// Run `query` (over `rows` input rows) once to warm up (pages cached,
/// batch buffers pooled), then five times counting the allocations of all
/// threads: every run must stay within `per_row` allocations a row and the
/// runs must agree.
fn assert_within_budget(what: &str, rows: u64, per_row: f64, query: impl Fn()) {
    query();
    let counts: Vec<u64> = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            query();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    let budget = (rows as f64 * per_row) as u64;
    assert!(
        *max < budget,
        "{what}: {counts:?} allocations for {rows} rows"
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
                                  // The budget is the default batch size's, whatever a CI leg's
                                  // environment overrides ask of other tests.
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
    assert_within_budget("scan core", ROWS, PER_ROW_BUDGET, || {
        let mut rows = CountRows(0);
        scan(&db, &table, &spec, &view, &mut rows).unwrap();
        assert_eq!(rows.0, ROWS);
    });

    // --- the served path: scan producer, channel, batches into a sink -----
    let session = Session::new(&db).with_ndp(false);
    let scan = Plan::Scan(ScanNode::new("facts", vec![0, 1, 2, 3]));
    assert_within_budget("streamed scan", ROWS, PER_ROW_BUDGET, || {
        assert_eq!(sink_rows(&session, &scan), ROWS);
    });

    // --- a breaker: hash aggregation over four groups -----------------------
    let agg = Plan::HashAgg(HashAggNode {
        input: Box::new(Plan::Scan(ScanNode::new("facts", vec![1, 2]))),
        group: vec![Expr::col(0)],
        aggs: vec![
            AggItem {
                func: AggFunc::Sum,
                input: Some(Expr::col(1)),
            },
            AggItem {
                func: AggFunc::CountStar,
                input: None,
            },
        ],
    });
    assert_within_budget("hash aggregation", ROWS, PER_ROW_BUDGET, || {
        let groups = session.execute_plan(&agg).unwrap();
        assert_eq!(groups.len(), 4);
        let counted: i64 = groups.iter().map(|g| g[2].as_int().unwrap()).sum();
        assert_eq!(counted as u64, ROWS);
    });

    // --- a lookup join: one probe of the primary key per outer row ----------
    let join = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(ScanNode::new("facts", vec![0, 1]))),
        table: "facts".into(),
        index: 0,
        outer_key_cols: vec![0],
        on: None,
        inner_output: vec![2, 3],
        join: JoinType::Inner,
        inner_predicate: vec![],
        inner_ndp: None,
    });
    assert_within_budget("lookup join", ROWS, PER_PROBE_BUDGET, || {
        assert_eq!(sink_rows(&session, &join), ROWS);
    });

    // --- a hash join: a unique integer key, every build row matched ------
    let hash_join = Plan::HashJoin(HashJoinNode {
        left: Box::new(Plan::Scan(ScanNode::new("facts", vec![0, 1]))),
        right: Box::new(Plan::Scan(ScanNode::new("facts", vec![0, 2]))),
        left_keys: vec![0],
        right_keys: vec![0],
        join: JoinType::Inner,
        filter: None,
    });
    assert_within_budget("hash join", ROWS, PER_ROW_BUDGET, || {
        assert_eq!(sink_rows(&session, &hash_join), ROWS);
    });

    folded_scans_allocate_per_batch(&db, &session);
    key_reads_allocate_per_chunk(&join);
    page_store_plugin_allocates_per_page();
}

/// Two `HashAgg`s that fold their scans' records: TPC-H Q1's shape, two
/// CHAR(1) group columns with values that change from row to row, and
/// Q18's inner `group by l_orderkey`, a GROUP BY that follows the index
/// with a group every four rows. (Called from the one test.)
fn folded_scans_allocate_per_batch(db: &Arc<TaurusDb>, session: &Session) {
    let dec = DataType::Decimal {
        precision: 15,
        scale: 2,
    };
    let flags = TableSchema::new(
        "flags",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("flag", DataType::Char(1)),
            Column::new("status", DataType::Char(1)),
            Column::new("amount", dec),
        ],
        vec![0],
    );
    let table = db.create_table(flags, &[]).unwrap();
    let rows = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(["A", "N", "R"][(i % 3) as usize]),
                Value::str(["F", "O"][(i / 7 % 2) as usize]),
                Value::Decimal(Dec::new((i % 1000) as i128, 2)),
            ]
        })
        .collect();
    db.bulk_load(&table, rows).unwrap();
    let by_flags = Plan::HashAgg(HashAggNode {
        input: Box::new(Plan::Scan(ScanNode::new("flags", vec![1, 2, 3]))),
        group: vec![Expr::col(0), Expr::col(1)],
        aggs: vec![
            AggItem {
                func: AggFunc::Sum,
                input: Some(Expr::col(2)),
            },
            AggItem {
                func: AggFunc::CountStar,
                input: None,
            },
        ],
    });
    assert_within_budget("CHAR group columns", ROWS, PER_ROW_BUDGET, || {
        let groups = session.execute_plan(&by_flags).unwrap();
        assert_eq!(groups.len(), 6);
        let counted: i64 = groups.iter().map(|g| g[3].as_int().unwrap()).sum();
        assert_eq!(counted as u64, ROWS);
    });

    let lines = TableSchema::new(
        "lines",
        vec![
            Column::new("orderkey", DataType::BigInt),
            Column::new("linenumber", DataType::Int),
            Column::new("quantity", dec),
        ],
        vec![0, 1],
    );
    let table = db.create_table(lines, &[]).unwrap();
    let rows = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(i / 4),
                Value::Int(i % 4),
                Value::Decimal(Dec::new((i % 50) as i128 * 100, 2)),
            ]
        })
        .collect();
    db.bulk_load(&table, rows).unwrap();
    let by_order = Plan::HashAgg(HashAggNode {
        input: Box::new(Plan::Scan(ScanNode::new("lines", vec![0, 2]))),
        group: vec![Expr::col(0)],
        aggs: vec![AggItem {
            func: AggFunc::Sum,
            input: Some(Expr::col(1)),
        }],
    });
    assert_within_budget("index-ordered groups", ROWS, PER_ROW_BUDGET, || {
        assert_eq!(sink_rows(session, &by_order), ROWS / 4);
    });
}

/// How many rows `plan` hands a sink that counts them.
fn sink_rows(session: &Session, plan: &Plan) -> u64 {
    let mut rows = 0;
    session
        .run_plan(plan, |batch| {
            rows += batch.len() as u64;
            Ok(true)
        })
        .unwrap();
    rows
}

/// The same join through NDP key reads (a pool the table does not fit, so
/// every chunk reads): a probe is answered from the chunk's buffer by its
/// position, so what is allocated is per chunk of 16 leaves (the request's
/// byte stream, the batch read's dispatch, an NDP page a leaf) and per
/// page on the Page Store's side, not per probe: 1,857 allocations for
/// 12,000 probes over 100-odd leaves.
fn key_reads_allocate_per_chunk(join: &Plan) {
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = 64;
    cfg.ndp.enabled = true;
    cfg.ndp.min_io_pages = 8;
    cfg.scan_batch_rows = taurus::common::batch::DEFAULT_SCAN_BATCH_ROWS;
    let db = TaurusDb::new(cfg);
    let facts = TableSchema::new(
        "facts",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("grp", DataType::Int),
            Column::new("amount", DataType::BigInt),
            Column::new("day", DataType::Date),
            // Not delivered: it makes the table outgrow the pool.
            Column::new("pad", DataType::Char(100)),
        ],
        vec![0],
    );
    let table = db.create_table(facts, &[]).unwrap();
    let rows = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 4),
                Value::Int(i * 3),
                Value::Date(taurus::common::Date32(9000 + (i % 365) as i32)),
                Value::str("p"),
            ]
        })
        .collect();
    db.bulk_load(&table, rows).unwrap();
    assert!(table.primary.tree.n_leaves() > 64);
    let mut join = join.clone();
    taurus::optimizer::ndp_post_process(&mut join, &db).unwrap();
    let Plan::LookupJoin(node) = &join else {
        unreachable!()
    };
    assert!(node.inner_ndp.is_some(), "covering and over the gate");
    let session = Session::new(&db);
    let run = || {
        db.buffer_pool().clear();
        let before = db.metrics().snapshot();
        assert_eq!(sink_rows(&session, &join), ROWS);
        assert!(db.metrics().snapshot().since(&before).lookup_ndp_reads > 0);
    };
    run();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        (allocations as f64) < ROWS as f64 * 0.25,
        "key reads: {allocations} allocations for {ROWS} probes"
    );
}

/// Q1's and Q6's `lineitem` descriptors through the plugin, over 100
/// leaves. (Called from the one test: a second test would allocate while
/// the first one counts.)
fn page_store_plugin_allocates_per_page() {
    // A pool far smaller than `lineitem` and a low gate: both scans push.
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = 70;
    cfg.ndp.enabled = true;
    cfg.ndp.min_io_pages = 8;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.002, 42).unwrap();
    db.buffer_pool().clear();
    let table = db.table("lineitem").unwrap();
    let index = &table.primary;
    let mut leaves = Vec::new();
    let mut page = index
        .tree
        .seek_leaf(index.store.as_ref(), &ScanRange::full())
        .unwrap()
        .unwrap();
    while leaves.len() < 100 {
        let next = page.next();
        leaves.push(page);
        assert_ne!(next, NO_PAGE, "lineitem has more than 100 leaves");
        page = index.store.read(next).unwrap();
    }
    let records: u64 = leaves.iter().map(|p| p.n_recs() as u64).sum();

    let session = Session::new(&db).with_ndp(true);
    for (name, text) in taurus::sql::tpch_sql::all() {
        if !matches!(name, "Q1" | "Q6") {
            continue;
        }
        let taurus::sql::Statement::Select(select) = taurus::sql::parse(text).unwrap() else {
            panic!("{name} is a SELECT");
        };
        let mut plan = &taurus::sql::bind(&session, &select).unwrap();
        let scan = loop {
            plan = match plan {
                Plan::Scan(scan) => break scan,
                Plan::HashAgg(a) => &a.input,
                Plan::Project(p) => &p.input,
                Plan::Filter(f) => &f.input,
                Plan::Sort(s) => &s.input,
                other => panic!("{name} is a pipeline over one scan: {other:?}"),
            };
        };
        let choice = &scan.ndp.as_ref().expect("the scan is pushed").choice;
        let descriptor = taurus::ndp::build_descriptor(index, choice, u64::MAX).unwrap();
        assert!(descriptor.predicate_bitcode.is_some() && descriptor.projection.is_some());
        assert!(
            descriptor.aggregation.is_some(),
            "{name} aggregates in storage"
        );
        let cd = CachedDescriptor::prepare(&descriptor.encode()).unwrap();
        let none = Sections::default();
        // An aggregated page costs the NDP page's buffer (the VM reads
        // fields in place, with no offset scratch): the group table, the
        // carriers' bytes and the payload buffer are the descriptor's,
        // reused from page to page.
        let run = || {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for leaf in leaves.chunks(1) {
                InnodbNdpPlugin
                    .run(&cd, &none, leaf, &mut |_, _| ())
                    .unwrap();
            }
            ALLOCATIONS.load(Ordering::Relaxed) - before
        };
        run();
        let counts: Vec<u64> = (0..5).map(|_| run()).collect();
        assert!(
            counts.iter().all(|&n| n <= 2 * leaves.len() as u64),
            "page store, {name}: {counts:?} allocations for {} aggregated pages",
            leaves.len()
        );
        assert_within_budget(
            &format!("page store, {name}"),
            records,
            PER_ROW_BUDGET,
            || {
                let mut seen = 0;
                for leaf in leaves.chunks(1) {
                    let mut recs = 0;
                    let stats = InnodbNdpPlugin
                        .run(&cd, &none, leaf, &mut |_, ndp| recs = ndp.n_recs())
                        .unwrap();
                    seen += stats.records_in;
                    assert!(recs as u64 <= stats.records_in);
                }
                assert_eq!(seen, records);
            },
        );
        page_store_join_filter_allocates_per_page(&descriptor, &leaves, name);
    }
}

/// The same descriptor and leaves with a join filter over every tenth
/// `l_orderkey`, as a hash join's probe scan sends it: the filter test is
/// one more look at each record's bytes, so a page still costs at most
/// two allocations.
fn page_store_join_filter_allocates_per_page(
    descriptor: &NdpDescriptor,
    leaves: &[Arc<taurus::page::Page>],
    name: &str,
) {
    let pos = descriptor.key_positions[0];
    let keys: Vec<i64> = (0..2_000).map(|k| k * 10).collect();
    let mut bloom = KeyBloom::new(keys.len() * 10 / 64 + 1, 3);
    for &k in &keys {
        bloom.insert(k);
    }
    let mut stream = descriptor.encode();
    let at = stream.len();
    encode_join_filter(pos, &bloom, &mut stream);
    let sections = Sections::parse(&Arc::new(stream), at, &descriptor.record_dtypes).unwrap();
    let cd = CachedDescriptor::prepare(&descriptor.encode()).unwrap();
    let run = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut join_filtered = 0;
        for leaf in leaves.chunks(1) {
            let stats = InnodbNdpPlugin
                .run(&cd, &sections, leaf, &mut |_, _| ())
                .unwrap();
            join_filtered += stats.records_join_filtered;
        }
        assert!(join_filtered > 0);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    run();
    let counts: Vec<u64> = (0..5).map(|_| run()).collect();
    assert!(
        counts.iter().all(|&n| n <= 2 * leaves.len() as u64),
        "page store with a join filter, {name}: {counts:?} allocations for {} pages",
        leaves.len()
    );
}
