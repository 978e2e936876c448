//! Behavioural tests for the InnoDB NDP plugin, including a faithful
//! replay of the paper's §V-C worked examples (pages P1/P2).

use std::sync::Arc;

use taurus_common::{DataType, Metrics, SliceId, SpaceId, TrxId, Value};
use taurus_expr::agg::{decode_states, AggSpec, AggState};
use taurus_expr::ast::Expr;
use taurus_expr::compile::lower;
use taurus_expr::descriptor::{NdpAggSpec, NdpDescriptor, Sections};
use taurus_page::{encode_record, Page, RecType, RecordLayout, RecordMeta, RecordView};
use taurus_pagestore::{
    CachedDescriptor, InnodbNdpPlugin, NdpBatchRequest, NdpPlugin, PagePayload, PageStore,
    PageStoreConfig, RedoBody, RedoRecord, SkipPolicy,
};

const WATERMARK: TrxId = 100;

/// Two-column records: (id BIGINT key, val BIGINT).
fn layout() -> RecordLayout {
    RecordLayout::new(vec![DataType::BigInt, DataType::BigInt])
}

fn dtypes() -> Vec<DataType> {
    vec![DataType::BigInt, DataType::BigInt]
}

/// Build a leaf page from (id, val, ambiguous?) triples, in key order.
fn build_page(space: u32, page_no: u32, rows: &[(i64, i64, bool)]) -> Page {
    let l = layout();
    let mut p = Page::new_index(4096, SpaceId(space), page_no, 7, 0);
    for &(id, val, ambiguous) in rows {
        let trx = if ambiguous { WATERMARK + 5 } else { 1 };
        let mut b = Vec::new();
        encode_record(
            &l,
            &[Value::Int(id), Value::Int(val)],
            RecordMeta::ordinary(trx),
            None,
            &mut b,
        )
        .unwrap();
        p.append_record(&b).unwrap();
    }
    p
}

fn descriptor(
    projection: Option<Vec<u16>>,
    predicate: Option<&Expr>,
    aggregation: Option<NdpAggSpec>,
) -> Vec<u8> {
    NdpDescriptor {
        index_id: 7,
        record_dtypes: dtypes(),
        key_positions: vec![0],
        projection,
        predicate_bitcode: predicate.map(|e| lower(e).unwrap().encode_bitcode().unwrap()),
        aggregation,
        low_watermark: WATERMARK,
    }
    .encode()
}

fn cached(bytes: &[u8]) -> CachedDescriptor {
    CachedDescriptor::prepare(bytes).unwrap()
}

/// Decode an NDP page into (rec_type, id, val?, agg_payload) tuples for
/// assertions. `val` is None for records whose layout dropped it.
fn read_ndp_page(
    page: &Page,
    full: &RecordLayout,
    proj: Option<&RecordLayout>,
) -> Vec<(RecType, i64, Option<i64>, Option<Vec<AggState>>)> {
    page.iter_chain()
        .map(|rec| {
            let bytes = rec.unwrap();
            let probe = RecordView::new(bytes, full);
            let rt = probe.rec_type().unwrap();
            let l = match rt {
                RecType::Ordinary => full,
                RecType::NdpProjection | RecType::NdpAggregate => proj.unwrap_or(full),
                other => panic!("unexpected record type {other:?}"),
            };
            let v = RecordView::parse(bytes, l).unwrap();
            let id = v.value(0).as_int().unwrap();
            let val = if l.n_cols() > 1 {
                v.value(1).as_int().ok()
            } else {
                None
            };
            let agg = v.agg_payload().map(|p| decode_states(p).unwrap());
            (rt, id, val, agg)
        })
        .collect()
}

#[test]
fn paper_example_page_p1_grouped_scalar_single_page() {
    // §V-C: P1 = {(1,2),(2,10)?,(3,7),(4,8)?,(5,2)}, SUM over val.
    // Expected NDP(P1) = {(2,10)?, (4,8)?, ((5,2), 9)} with 9 = 2 + 7.
    let p1 = build_page(
        1,
        0,
        &[
            (1, 2, false),
            (2, 10, true),
            (3, 7, false),
            (4, 8, true),
            (5, 2, false),
        ],
    );
    let desc = descriptor(
        None,
        None,
        Some(NdpAggSpec {
            specs: vec![AggSpec::sum(1)],
            group_cols: vec![],
        }),
    );
    let cd = cached(&desc);
    let (results, stats) = InnodbNdpPlugin
        .process_batch(&cd, &Sections::default(), &[(0, Arc::new(p1))])
        .unwrap();
    assert_eq!(results.len(), 1);
    let rows = read_ndp_page(&results[0].1, &cd.layout, cd.proj_layout.as_ref());
    assert_eq!(rows.len(), 3);
    assert_eq!(
        (rows[0].0, rows[0].1, rows[0].2),
        (RecType::Ordinary, 2, Some(10))
    );
    assert_eq!(
        (rows[1].0, rows[1].1, rows[1].2),
        (RecType::Ordinary, 4, Some(8))
    );
    assert_eq!(
        (rows[2].0, rows[2].1, rows[2].2),
        (RecType::NdpAggregate, 5, Some(2))
    );
    let payload = rows[2].3.as_ref().unwrap();
    assert_eq!(
        payload[0].finalize(),
        Value::Int(9),
        "payload excludes the carrier's own 2"
    );
    assert_eq!(stats.ambiguous, 2);
}

#[test]
fn paper_example_cross_page_p1_p2() {
    // §V-C: P2 = {(11,10),(12,2)?,(13,5),(14,9)}.
    // NDP(P1,P2) = {(2,10)?,(4,8)?,(12,2)?,((14,9),26)}, 26 = 2+9+15.
    let p1 = build_page(
        1,
        0,
        &[
            (1, 2, false),
            (2, 10, true),
            (3, 7, false),
            (4, 8, true),
            (5, 2, false),
        ],
    );
    let p2 = build_page(
        1,
        1,
        &[
            (11, 10, false),
            (12, 2, true),
            (13, 5, false),
            (14, 9, false),
        ],
    );
    let desc = descriptor(
        None,
        None,
        Some(NdpAggSpec {
            specs: vec![AggSpec::sum(1)],
            group_cols: vec![],
        }),
    );
    let cd = cached(&desc);
    let (results, _) = InnodbNdpPlugin
        .process_batch(
            &cd,
            &Sections::default(),
            &[(0, Arc::new(p1)), (1, Arc::new(p2))],
        )
        .unwrap();
    assert_eq!(results.len(), 2);
    let by_no: std::collections::HashMap<u32, &Page> =
        results.iter().map(|(no, p)| (*no, p)).collect();
    // Page 0 kept only its ambiguous rows.
    let rows0 = read_ndp_page(by_no[&0], &cd.layout, None);
    assert_eq!(
        rows0.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
        vec![(RecType::Ordinary, 2), (RecType::Ordinary, 4)]
    );
    // Page 1 holds the carrier with the cross-page partial.
    let rows1 = read_ndp_page(by_no[&1], &cd.layout, None);
    assert_eq!(rows1.len(), 2);
    assert_eq!((rows1[0].0, rows1[0].1), (RecType::Ordinary, 12));
    assert_eq!(
        (rows1[1].0, rows1[1].1, rows1[1].2),
        (RecType::NdpAggregate, 14, Some(9))
    );
    let payload = rows1[1].3.as_ref().unwrap();
    assert_eq!(
        payload[0].finalize(),
        Value::Int(26),
        "2 (P1) + 9 (P1) + 15 (P2)"
    );
}

#[test]
fn filtering_drops_only_visible_false_rows() {
    // §V-B1: "A Page Store can only safely discard 'false' visible records."
    let p = build_page(
        1,
        0,
        &[
            (1, 100, false),
            (2, 1, false),
            (3, 100, true),
            (4, 1, true),
            (5, 100, false),
        ],
    );
    let pred = Expr::gt(Expr::col(1), Expr::int(50));
    let desc = descriptor(None, Some(&pred), None);
    let cd = cached(&desc);
    let (out, stats) = InnodbNdpPlugin
        .process_page(&cd, &Sections::default(), &p)
        .unwrap();
    let rows = read_ndp_page(&out, &cd.layout, None);
    // Visible true: 1, 5. Ambiguous (any value): 3, 4. Visible false 2: gone.
    assert_eq!(
        rows.iter().map(|r| r.1).collect::<Vec<_>>(),
        vec![1, 3, 4, 5]
    );
    assert_eq!(stats.records_filtered, 1);
    // Ambiguous rows keep their Ordinary type and full bytes.
    assert!(rows.iter().all(|r| r.0 == RecType::Ordinary));
}

#[test]
fn projection_narrows_visible_rows_only() {
    // §V-A: "Only visible records are projected. Ambiguous records are
    // returned unchanged."
    let p = build_page(1, 0, &[(1, 7, false), (2, 8, true), (3, 9, false)]);
    let desc = descriptor(Some(vec![0]), None, None);
    let cd = cached(&desc);
    let (out, _) = InnodbNdpPlugin
        .process_page(&cd, &Sections::default(), &p)
        .unwrap();
    let rows = read_ndp_page(&out, &cd.layout, cd.proj_layout.as_ref());
    assert_eq!(rows.len(), 3);
    assert_eq!(
        (rows[0].0, rows[0].1, rows[0].2),
        (RecType::NdpProjection, 1, None)
    );
    assert_eq!(
        (rows[1].0, rows[1].1, rows[1].2),
        (RecType::Ordinary, 2, Some(8))
    );
    assert_eq!(
        (rows[2].0, rows[2].1, rows[2].2),
        (RecType::NdpProjection, 3, None)
    );
    // The projected page is narrower than the source.
    assert!(out.byte_len() < p.byte_len());
}

#[test]
fn delete_marked_visible_rows_are_skipped() {
    let l = layout();
    let mut p = Page::new_index(4096, SpaceId(1), 0, 7, 0);
    for (id, deleted) in [(1i64, false), (2, true), (3, false)] {
        let mut b = Vec::new();
        encode_record(
            &l,
            &[Value::Int(id), Value::Int(id * 10)],
            RecordMeta {
                rec_type: RecType::Ordinary,
                delete_mark: deleted,
                heap_no: 0,
                trx_id: 1,
            },
            None,
            &mut b,
        )
        .unwrap();
        p.append_record(&b).unwrap();
    }
    let desc = descriptor(None, Some(&Expr::gt(Expr::col(1), Expr::int(0))), None);
    let cd = cached(&desc);
    let (out, _) = InnodbNdpPlugin
        .process_page(&cd, &Sections::default(), &p)
        .unwrap();
    let rows = read_ndp_page(&out, &cd.layout, None);
    assert_eq!(rows.iter().map(|r| r.1).collect::<Vec<_>>(), vec![1, 3]);
}

#[test]
fn grouped_aggregation_one_carrier_per_group() {
    // GROUP BY id-prefix: here key col 0 itself; 2 rows per group value.
    let p = build_page(
        1,
        0,
        &[
            (1, 10, false),
            (1, 20, false),
            (2, 5, false),
            (2, 6, true),
            (3, 1, false),
        ],
    );
    let desc = descriptor(
        None,
        None,
        Some(NdpAggSpec {
            specs: vec![AggSpec::sum(1), AggSpec::count_star()],
            group_cols: vec![0],
        }),
    );
    let cd = cached(&desc);
    let (out, _) = InnodbNdpPlugin
        .process_page(&cd, &Sections::default(), &p)
        .unwrap();
    let rows = read_ndp_page(&out, &cd.layout, None);
    // Group 1: carrier (1,20) payload SUM=10,COUNT=1.
    // Group 2: ambiguous (2,6) passes; carrier (2,5) payload empty partial.
    // Group 3: carrier (3,1).
    assert_eq!(rows.len(), 4);
    assert_eq!(
        (rows[0].0, rows[0].1, rows[0].2),
        (RecType::NdpAggregate, 1, Some(20))
    );
    let pay0 = rows[0].3.as_ref().unwrap();
    assert_eq!(pay0[0].finalize(), Value::Int(10));
    assert_eq!(pay0[1].finalize(), Value::Int(1));
    assert_eq!(
        (rows[1].0, rows[1].1, rows[1].2),
        (RecType::NdpAggregate, 2, Some(5))
    );
    let pay1 = rows[1].3.as_ref().unwrap();
    assert_eq!(
        pay1[1].finalize(),
        Value::Int(0),
        "no other visible rows in group 2"
    );
    assert_eq!((rows[2].0, rows[2].1), (RecType::Ordinary, 2));
    assert_eq!(
        (rows[3].0, rows[3].1, rows[3].2),
        (RecType::NdpAggregate, 3, Some(1))
    );
}

#[test]
fn all_rows_filtered_yields_empty_marker() {
    let p = build_page(1, 0, &[(1, 1, false), (2, 2, false)]);
    let pred = Expr::gt(Expr::col(1), Expr::int(1000));
    let desc = descriptor(None, Some(&pred), None);
    let cd = cached(&desc);
    let (out, stats) = InnodbNdpPlugin
        .process_page(&cd, &Sections::default(), &p)
        .unwrap();
    assert_eq!(out.page_type(), taurus_page::PageType::NdpEmpty);
    assert_eq!(out.byte_len(), taurus_page::HEADER_LEN);
    assert_eq!(stats.records_filtered, 2);
}

#[test]
fn store_end_to_end_batch_with_skip_policy() {
    let metrics = Metrics::shared();
    let ps = PageStore::new(
        0,
        PageStoreConfig {
            slice_pages: 64,
            ..Default::default()
        },
        metrics.clone(),
    );
    let sid = SliceId::of(SpaceId(1), 0, 64);
    ps.create_slice(sid);
    // Install 4 pages via redo.
    for no in 0..4u32 {
        let rows: Vec<(i64, i64, bool)> = (0..10).map(|i| (no as i64 * 10 + i, i, false)).collect();
        let img = build_page(1, no, &rows).into_bytes();
        ps.apply_redo(&[RedoRecord {
            lsn: no as u64 + 1,
            space: SpaceId(1),
            page_no: no,
            body: RedoBody::NewPage(img),
        }])
        .unwrap();
    }
    ps.set_skip_policy(SkipPolicy::EveryNth(2)); // skip pages 0, 2
    let pred = Expr::ge(Expr::col(1), Expr::int(5));
    let req = NdpBatchRequest {
        slice: sid,
        pages: vec![0, 1, 2, 3],
        read_lsn: 10,
        descriptor: Arc::new(descriptor(None, Some(&pred), None)),
        tenant: taurus_common::DEFAULT_TENANT,
    };
    let results = ps.serve_ndp_batch(&req).unwrap();
    assert_eq!(results.len(), 4);
    let kinds: Vec<bool> = results
        .iter()
        .map(|r| matches!(r.payload, PagePayload::Ndp(_)))
        .collect();
    assert_eq!(kinds, vec![false, true, false, true], "every-2nd skipped");
    // NDP pages kept only val >= 5 (5 of 10 rows); raw pages are full size.
    for r in &results {
        match &r.payload {
            PagePayload::Ndp(p) => assert_eq!(p.n_recs(), 5),
            PagePayload::Raw(p) => assert_eq!(p.n_recs(), 10),
        }
    }
    let s = metrics.snapshot();
    assert_eq!(s.ps_ndp_skipped, 2);
    assert_eq!(s.ps_pages_processed, 2);
    assert_eq!(s.ps_desc_cache_misses, 1);
    // Second identical batch hits the descriptor cache.
    ps.set_skip_policy(SkipPolicy::None);
    ps.serve_ndp_batch(&req).unwrap();
    assert!(metrics.snapshot().ps_desc_cache_hits >= 1);
}

#[test]
fn batch_without_work_returns_raw_pages() {
    let ps = PageStore::new(
        0,
        PageStoreConfig {
            slice_pages: 64,
            ..Default::default()
        },
        Metrics::shared(),
    );
    let sid = SliceId::of(SpaceId(1), 0, 64);
    ps.create_slice(sid);
    let img = build_page(1, 0, &[(1, 1, false)]).into_bytes();
    ps.apply_redo(&[RedoRecord {
        lsn: 1,
        space: SpaceId(1),
        page_no: 0,
        body: RedoBody::NewPage(img),
    }])
    .unwrap();
    let req = NdpBatchRequest {
        slice: sid,
        pages: vec![0],
        read_lsn: 5,
        descriptor: Arc::new(descriptor(None, None, None)),
        tenant: taurus_common::DEFAULT_TENANT,
    };
    let results = ps.serve_ndp_batch(&req).unwrap();
    assert!(matches!(results[0].payload, PagePayload::Raw(_)));
}

/// A source page is a regular leaf: a record of any other type on it is
/// corruption, whichever way the page reaches the plugin. Nothing of such
/// a page is folded into an aggregate, and the store ships it raw.
#[test]
fn non_ordinary_source_record_is_rejected_on_both_entry_points() {
    let l = layout();
    let mut p = build_page(1, 0, &[(1, 10, false), (2, 20, false)]);
    let mut b = Vec::new();
    encode_record(
        &l,
        &[Value::Int(3), Value::Int(30)],
        RecordMeta {
            rec_type: RecType::NdpProjection,
            ..RecordMeta::ordinary(1)
        },
        None,
        &mut b,
    )
    .unwrap();
    p.append_record(&b).unwrap();
    let scalar_sum = descriptor(
        None,
        None,
        Some(NdpAggSpec {
            specs: vec![AggSpec::sum(1)],
            group_cols: vec![],
        }),
    );
    let filter = descriptor(None, Some(&Expr::gt(Expr::col(1), Expr::int(0))), None);
    for desc in [&filter, &scalar_sum] {
        let cd = cached(desc);
        assert!(matches!(
            InnodbNdpPlugin.process_page(&cd, &Sections::default(), &p),
            Err(taurus_common::Error::Corruption(_))
        ));
        assert!(matches!(
            InnodbNdpPlugin.process_batch(&cd, &Sections::default(), &[(0, Arc::new(p.clone()))]),
            Err(taurus_common::Error::Corruption(_))
        ));
    }

    let metrics = Metrics::shared();
    let ps = PageStore::new(
        0,
        PageStoreConfig {
            slice_pages: 64,
            ..Default::default()
        },
        metrics.clone(),
    );
    let sid = SliceId::of(SpaceId(1), 0, 64);
    ps.create_slice(sid);
    ps.apply_redo(&[RedoRecord {
        lsn: 1,
        space: SpaceId(1),
        page_no: 0,
        body: RedoBody::NewPage(p.clone().into_bytes()),
    }])
    .unwrap();
    for (served, desc) in [filter, scalar_sum].into_iter().enumerate() {
        let results = ps
            .serve_ndp_batch(&NdpBatchRequest {
                slice: sid,
                pages: vec![0],
                read_lsn: 5,
                descriptor: Arc::new(desc),
                tenant: taurus_common::DEFAULT_TENANT,
            })
            .unwrap();
        match &results[0].payload {
            PagePayload::Raw(raw) => assert_eq!(
                (raw.page_type(), raw.n_recs()),
                (taurus_page::PageType::Index, 3)
            ),
            PagePayload::Ndp(_) => panic!("a damaged page is not NDP-processed"),
        }
        let s = metrics.snapshot();
        assert_eq!(s.ps_ndp_skipped, served as u64 + 1);
        assert_eq!((s.ps_pages_processed, s.ps_records_aggregated), (0, 0));
    }
}
