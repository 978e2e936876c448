//! The storage tier's read path, pinned: one fixed slice read through the
//! SAL under every way a Page Store can answer it — no work asked, each
//! kind of NDP work, each skip policy, a forced shed and a tenant-quota
//! refusal (and a pushed HAVING, healthy and under a skip policy). For
//! each outcome the table pins every page's payload kind
//! (`R`aw, `N`DP, `E`mpty marker), a digest of the reply's bytes, and
//! what the read moved in the Page-Store and SAL counters; and that
//! `ps_ndp_records_shipped` counts exactly the records on the reply's NDP
//! pages.
//!
//! Each outcome runs on a fresh two-store cluster whose slice has its
//! first replica down, so every read also fails over once. A change to
//! this table changes what the storage tier ships or counts, so it must
//! be deliberate. A panicking plugin, which only the Page Store's own
//! tests can load, is pinned there
//! (`a_panicking_plugin_degrades_to_raw_pages_and_keeps_the_pool`).

use std::sync::Arc;
use std::time::Duration;

use taurus::common::schema::encode_key;
use taurus::common::{
    ClusterConfig, DataType, Metrics, MetricsSnapshot, PageNo, QueryCtx, SliceId, SpaceId, Value,
};
use taurus::expr::agg::{AggFunc, AggInput, AggSpec};
use taurus::expr::ast::Expr;
use taurus::expr::compile::lower;
use taurus::expr::descriptor::{
    encode_join_filter, encode_key_set, fnv64, KeyBloom, NdpAggSpec, NdpDescriptor,
};
use taurus::page::{encode_record, Page, PageType, RecordLayout, RecordMeta};
use taurus::pagestore::{FaultPolicy, PagePayload, RedoBody, RedoRecord, SkipPolicy};
use taurus::sal::Sal;

const SPACE: SpaceId = SpaceId(40);
const PAGES: u32 = 6;
const ROWS_PER_PAGE: i64 = 12;
const WATERMARK: u64 = 100;
const TENANT: u32 = 9;

/// (orderkey, linenumber) key, then flag, quantity, price.
fn dtypes() -> Vec<DataType> {
    vec![DataType::BigInt; 5]
}

/// Three lines an order, orders running across page boundaries. Page 4
/// holds only large quantities and no ambiguous or deleted record, so a
/// `quantity < 25` filter empties it.
fn leaf(page_no: u32) -> Vec<u8> {
    let layout = RecordLayout::new(dtypes());
    let mut page = Page::new_index(4096, SPACE, page_no, 7, 0);
    for r in 0..ROWS_PER_PAGE {
        let i = page_no as i64 * ROWS_PER_PAGE + r;
        let (order, line) = (i / 3, i % 3);
        let plain = page_no == 4;
        let qty = if plain {
            40 + r % 10
        } else {
            (i * 13) % 50 + 1
        };
        let values = [order, line, (order * 7 + line) % 3, qty, i * 100 + 7].map(Value::Int);
        let trx = if !plain && i % 7 == 3 {
            WATERMARK + 1
        } else {
            1
        };
        let meta = RecordMeta {
            delete_mark: !plain && i % 11 == 5,
            ..RecordMeta::ordinary(trx)
        };
        let mut rec = Vec::new();
        encode_record(&layout, &values, meta, None, &mut rec).unwrap();
        page.append_record(&rec).unwrap();
    }
    page.into_bytes()
}

fn descriptor(
    projection: Option<Vec<u16>>,
    predicate: Option<Expr>,
    aggregation: Option<NdpAggSpec>,
) -> Vec<u8> {
    NdpDescriptor {
        index_id: 7,
        record_dtypes: dtypes(),
        key_positions: vec![0, 1],
        projection,
        predicate_bitcode: predicate.map(|e| lower(&e).unwrap().encode_bitcode().unwrap()),
        aggregation,
        low_watermark: WATERMARK,
    }
    .encode()
}

fn qty_below(n: i64) -> Option<Expr> {
    Some(Expr::lt(Expr::col(3), Expr::int(n)))
}

fn filter_and_project() -> Vec<u8> {
    descriptor(Some(vec![0, 1, 3]), qty_below(25), None)
}

/// How a fresh cluster is set up before the one read of an outcome.
#[derive(Clone, Copy)]
enum Setup {
    Healthy,
    Skip(u64),
    SkipAll,
    Shed,
    /// Tenant quota 1 with the serving store's workers held until every
    /// page but the first has been refused.
    Quota,
}

/// A two-store cluster holding the slice, its first replica down.
fn cluster(metrics: &Arc<Metrics>) -> Arc<Sal> {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.slice_pages = 8;
    cfg.n_page_stores = 2;
    cfg.replication = 2;
    cfg.pagestore_ndp_threads = 2;
    cfg.pagestore_ndp_queue = 16;
    cfg.fault.store = None;
    cfg.fault.latency_ms = 0;
    cfg.fault.skip_every_nth = 0;
    let sal = Sal::new(cfg, metrics.clone());
    let replicas = sal.ensure_slice(SliceId::of(SPACE, 0, 8));
    let redo = (0..PAGES)
        .map(|no| RedoRecord {
            lsn: 0,
            space: SPACE,
            page_no: no,
            body: RedoBody::NewPage(leaf(no)),
        })
        .collect();
    sal.write_log(redo).unwrap();
    sal.page_stores()[replicas[0]].set_fault(FaultPolicy::Poison);
    sal
}

/// One outcome's row of the table.
fn serve(name: &str, setup: Setup, stream: Vec<u8>) -> String {
    let metrics = Metrics::shared();
    let sal = cluster(&metrics);
    for ps in sal.page_stores() {
        match setup {
            Setup::Healthy | Setup::Quota => {}
            Setup::Skip(k) => ps.set_skip_policy(SkipPolicy::EveryNth(k)),
            Setup::SkipAll => ps.set_skip_policy(SkipPolicy::All),
            Setup::Shed => ps.set_force_shed(true),
        }
    }
    let pages: Vec<PageNo> = (0..PAGES).collect();
    let read_lsn = sal.current_lsn();
    let before = metrics.snapshot();
    let read = {
        let (sal, stream) = (sal.clone(), Arc::new(stream));
        move || {
            let ctx = QueryCtx::for_tenant(TENANT);
            sal.batch_read_ctx(SPACE, &pages, read_lsn, stream, &ctx)
                .unwrap()
        }
    };
    let reply = match setup {
        Setup::Quota => {
            let server = &sal.page_stores()[sal.replicas_of(SliceId::of(SPACE, 0, 8)).unwrap()[1]];
            server.set_ndp_tenant_quota(1);
            let hold = server.hold_ndp_workers();
            let reader = std::thread::spawn(read);
            let refused = PAGES as u64 - 1;
            for _ in 0..10_000 {
                if metrics.snapshot().ps_ndp_quota_rejected >= refused {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(metrics.snapshot().ps_ndp_quota_rejected, refused);
            drop(hold);
            reader.join().unwrap()
        }
        _ => read(),
    };
    let d = metrics.snapshot().since(&before);
    let mut kinds = String::new();
    let mut bytes = Vec::new();
    // Every record on an NDP page that reached the reply, and no other.
    let shipped: u64 = reply
        .iter()
        .map(|r| match &r.payload {
            PagePayload::Ndp(p) => p.n_recs() as u64,
            PagePayload::Raw(_) => 0,
        })
        .sum();
    assert_eq!(d.ps_ndp_records_shipped, shipped, "{name}");
    for r in &reply {
        bytes.extend_from_slice(&r.page_no.to_le_bytes());
        let page = match &r.payload {
            PagePayload::Raw(p) => {
                kinds.push('R');
                p
            }
            PagePayload::Ndp(p) if p.page_type() == PageType::NdpEmpty => {
                kinds.push('E');
                p
            }
            PagePayload::Ndp(p) => {
                kinds.push('N');
                p
            }
        };
        bytes.push(kinds.as_bytes()[kinds.len() - 1]);
        bytes.extend_from_slice(page.bytes());
    }
    format!("{name:<14} {kinds} {:016x} {}", fnv64(&bytes), counters(&d))
}

fn counters(d: &MetricsSnapshot) -> String {
    format!(
        "skipped={} shed={} processed={} filtered={} aggregated={} key_filtered={} \
         join_filtered={} requests={} retries={} raw={} ndp={} empty={} having_dropped={}",
        d.ps_ndp_skipped,
        d.ps_ndp_shed,
        d.ps_pages_processed,
        d.ps_records_filtered,
        d.ps_records_aggregated,
        d.ps_records_key_filtered,
        d.ps_records_join_filtered,
        d.net_read_requests,
        d.read_retries,
        d.pages_shipped_raw,
        d.pages_shipped_ndp,
        d.pages_shipped_empty,
        d.ps_groups_dropped_by_having,
    )
}

const PINNED: &str = "\
no-work        RRRRRR 0c722649af58ac8c skipped=0 shed=0 processed=0 filtered=0 aggregated=0 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=6 ndp=0 empty=0 having_dropped=0
filter+project NNNNEN cf4066678edfe69c skipped=0 shed=0 processed=6 filtered=37 aggregated=0 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=0 ndp=5 empty=1 having_dropped=0
key-set        NNNEEN 5c24e532ffa32378 skipped=0 shed=0 processed=6 filtered=0 aggregated=0 key_filtered=62 join_filtered=0 requests=2 retries=1 raw=0 ndp=4 empty=2 having_dropped=0
join-filter    NNNNNN 1399dc0230eec576 skipped=0 shed=0 processed=6 filtered=6 aggregated=0 key_filtered=0 join_filtered=36 requests=2 retries=1 raw=0 ndp=6 empty=0 having_dropped=0
hash-agg       NNNNNN 5b8e4b95e7be8781 skipped=0 shed=0 processed=6 filtered=12 aggregated=47 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=0 ndp=6 empty=0 having_dropped=0
index-agg      NNNNNN ebd0fc26eaef1170 skipped=0 shed=0 processed=6 filtered=0 aggregated=59 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=0 ndp=6 empty=0 having_dropped=0
index-having   NNNNNN 76d7b8d91e6604ea skipped=0 shed=0 processed=6 filtered=0 aggregated=59 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=0 ndp=6 empty=0 having_dropped=6
having-skip-3  RNNRNN 6a7fb4a167d53bd2 skipped=2 shed=0 processed=4 filtered=0 aggregated=40 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=2 ndp=4 empty=0 having_dropped=3
scalar-agg     NNNNEN 87bc75b71fe1093c skipped=0 shed=0 processed=6 filtered=37 aggregated=22 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=0 ndp=5 empty=1 having_dropped=0
scalar-skip-3  RRRRRR 0c722649af58ac8c skipped=6 shed=0 processed=0 filtered=0 aggregated=0 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=6 ndp=0 empty=0 having_dropped=0
skip-3         RNNREN 6bba7e2c6e97f27a skipped=2 shed=0 processed=4 filtered=29 aggregated=0 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=2 ndp=3 empty=1 having_dropped=0
skip-all       RRRRRR 0c722649af58ac8c skipped=6 shed=0 processed=0 filtered=0 aggregated=0 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=6 ndp=0 empty=0 having_dropped=0
shed           RRRRRR 0c722649af58ac8c skipped=0 shed=6 processed=0 filtered=0 aggregated=0 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=6 ndp=0 empty=0 having_dropped=0
quota          NRRRRR 3a42bb3d23c1d361 skipped=5 shed=0 processed=1 filtered=4 aggregated=0 key_filtered=0 join_filtered=0 requests=2 retries=1 raw=5 ndp=1 empty=0 having_dropped=0
";

#[test]
fn every_outcome_of_a_slice_read_is_pinned() {
    let no_work = descriptor(None, None, None);
    let mut key_set = no_work.clone();
    let keys: Vec<Vec<u8>> = [(2, None), (7, Some(1)), (11, None), (20, None)]
        .into_iter()
        .map(|(order, line)| {
            let mut values = vec![Value::Int(order)];
            values.extend(line.map(Value::Int));
            encode_key(&values, &dtypes()[..values.len()])
        })
        .collect();
    encode_key_set(keys.iter().map(Vec::as_slice), &mut key_set).unwrap();
    let mut join_filter = descriptor(None, qty_below(45), None);
    let mut bloom = KeyBloom::new(2, 3);
    for order in (0..30).step_by(3) {
        bloom.insert(order);
    }
    encode_join_filter(0, &bloom, &mut join_filter);
    let revenue = AggSpec {
        func: AggFunc::Sum,
        input: AggInput::Program(
            lower(&Expr::mul(Expr::col(3), Expr::col(4)))
                .unwrap()
                .encode_bitcode()
                .unwrap(),
        ),
    };
    let hashed = descriptor(
        None,
        qty_below(45),
        Some(NdpAggSpec {
            specs: vec![AggSpec::sum(3), revenue.clone(), AggSpec::count_star()],
            group_cols: vec![2],
            having: None,
        }),
    );
    let index_order = descriptor(
        Some(vec![0, 1, 3]),
        None,
        Some(NdpAggSpec {
            specs: vec![AggSpec::sum(3)],
            group_cols: vec![0],
            having: None,
        }),
    );
    // Orders end with their pages; the two inside each page are complete
    // there unless an ambiguous record carries them.
    let index_having = descriptor(
        Some(vec![0, 1, 3]),
        None,
        Some(NdpAggSpec {
            specs: vec![AggSpec::sum(3)],
            group_cols: vec![0],
            having: Some(
                lower(&Expr::gt(Expr::col(1), Expr::int(100)))
                    .unwrap()
                    .encode_bitcode()
                    .unwrap(),
            ),
        }),
    );
    let scalar = descriptor(
        Some(vec![0, 1, 3, 4]),
        qty_below(25),
        Some(NdpAggSpec {
            specs: vec![revenue, AggSpec::count_star()],
            group_cols: vec![],
            having: None,
        }),
    );
    let table = [
        serve("no-work", Setup::Healthy, no_work),
        serve("filter+project", Setup::Healthy, filter_and_project()),
        serve("key-set", Setup::Healthy, key_set),
        serve("join-filter", Setup::Healthy, join_filter),
        serve("hash-agg", Setup::Healthy, hashed),
        serve("index-agg", Setup::Healthy, index_order),
        serve("index-having", Setup::Healthy, index_having.clone()),
        serve("having-skip-3", Setup::Skip(3), index_having),
        serve("scalar-agg", Setup::Healthy, scalar.clone()),
        serve("scalar-skip-3", Setup::Skip(3), scalar),
        serve("skip-3", Setup::Skip(3), filter_and_project()),
        serve("skip-all", Setup::SkipAll, filter_and_project()),
        serve("shed", Setup::Shed, filter_and_project()),
        serve("quota", Setup::Quota, filter_and_project()),
    ]
    .map(|row| row + "\n")
    .concat();
    assert!(table == PINNED, "storage replies moved:\n{table}");
}
