//! Unit tests for the §IV-B NDP post-processing decisions: the I/O gate,
//! buffer-pool awareness, the predicate allow-list, the width threshold,
//! the §V-C aggregation rules, lookup joins' key reads and hash joins'
//! join filters.

use std::sync::Arc;

use taurus_common::schema::{Column, TableSchema};
use taurus_common::{ClusterConfig, DataType, Dec, Value};
use taurus_expr::ast::Expr;
use taurus_ndp::TaurusDb;
use taurus_optimizer::ndp_post::ndp_post_process;
use taurus_optimizer::plan::{
    AggFunc, AggItem, HashAggNode, HashJoinNode, JoinFilterDecision, JoinType, LookupJoinNode,
    Plan, ScanNode,
};

/// A `HashAgg` folding `scan`, grouped by the table columns `group_cols`
/// and aggregating `aggs` over table columns, written over the scan's
/// output positions.
fn folding(scan: ScanNode, group_cols: Vec<usize>, aggs: Vec<AggItem>) -> Plan {
    let pos = |c: usize| scan.output.iter().position(|&o| o == c).unwrap();
    Plan::HashAgg(HashAggNode {
        group: group_cols.iter().map(|&c| Expr::col(pos(c))).collect(),
        aggs: aggs
            .into_iter()
            .map(|a| AggItem {
                func: a.func,
                input: a.input.map(|e| e.remap_columns(&pos)),
            })
            .collect(),
        input: Box::new(Plan::Scan(scan)),
    })
}

fn wide_schema() -> Arc<TableSchema> {
    TableSchema::new(
        "t",
        vec![
            Column::new("id", DataType::BigInt),
            Column::new("v", DataType::Int),
            Column::new(
                "price",
                DataType::Decimal {
                    precision: 15,
                    scale: 2,
                },
            ),
            Column::new("pad1", DataType::Varchar(100)),
            Column::new("pad2", DataType::Varchar(100)),
        ],
        vec![0],
    )
}

fn load(db: &Arc<TaurusDb>, rows: i64) -> Arc<taurus_ndp::Table> {
    let t = db.create_table(wide_schema(), &[]).unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::Decimal(Dec::new((i % 500) as i128, 2)),
                Value::str(format!("{:0>90}", i)),
                Value::str(format!("{:0>90}", i)),
            ]
        })
        .collect();
    db.bulk_load(&t, data).unwrap();
    db.buffer_pool().clear();
    t
}

fn mk_db(min_io: u64) -> Arc<TaurusDb> {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.min_io_pages = min_io;
    cfg.buffer_pool_pages = 64;
    TaurusDb::new(cfg)
}

#[test]
fn io_gate_blocks_small_scans() {
    let db = mk_db(10_000);
    load(&db, 2000);
    let mut plan = Plan::Scan(
        ScanNode::new("t", vec![0, 1]).with_predicate(vec![Expr::lt(Expr::col(1), Expr::int(5))]),
    );
    let reports = ndp_post_process(&mut plan, &db).unwrap();
    assert!(reports[0].gated_by_io);
    match &plan {
        Plan::Scan(s) => assert!(s.ndp.is_none()),
        _ => unreachable!(),
    }
}

#[test]
fn cached_pages_reduce_estimated_io() {
    // The §VII-C footnote-4 effect: a fully cached table does not qualify.
    let db = mk_db(4);
    let t = load(&db, 800);
    // Warm ALL pages via a classical full read.
    let view = db.read_view(0);
    let spec = taurus_ndp::ScanSpec {
        index: 0,
        range: taurus_ndp::ScanRange::full(),
        ndp: None,
        output_cols: vec![0],
    };
    struct Sink;
    impl taurus_ndp::ScanConsumer for Sink {
        fn on_row(&mut self, _r: &[Value]) -> taurus_common::Result<bool> {
            Ok(true)
        }
        fn on_partial(&mut self, _s: Vec<taurus_ndp::AggState>) -> taurus_common::Result<bool> {
            Ok(true)
        }
    }
    // Grow the pool so everything fits, then warm it.
    let leaves = t.primary.tree.n_leaves();
    assert!(leaves > 4);
    let mut cfg = db.config().clone();
    cfg.buffer_pool_pages = leaves as usize * 4;
    let db2 = TaurusDb::new(cfg);
    let t2 = load(&db2, 800);
    taurus_ndp::scan(&db2, &t2, &spec, &view, &mut Sink).unwrap();
    let mut plan = Plan::Scan(
        ScanNode::new("t", vec![0, 1]).with_predicate(vec![Expr::lt(Expr::col(1), Expr::int(5))]),
    );
    let reports = ndp_post_process(&mut plan, &db2).unwrap();
    assert!(reports[0].cached_pages > 0);
    assert!(
        reports[0].gated_by_io,
        "warm buffer pool must disqualify the scan: {:?}",
        reports[0]
    );
}

#[test]
fn unselective_predicate_not_pushed_but_projection_is() {
    // Tighten the filter-factor gate (default is open, 1.0) to exercise
    // the §V-B1 selectivity rule.
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.min_io_pages = 1;
    cfg.ndp.predicate_max_filter_factor = 0.95;
    cfg.buffer_pool_pages = 64;
    let db = TaurusDb::new(cfg);
    load(&db, 2000);
    // v < 99 keeps ~99 % of rows: above the 0.95 filter-factor threshold.
    let mut plan = Plan::Scan(
        ScanNode::new("t", vec![0, 1]).with_predicate(vec![Expr::lt(Expr::col(1), Expr::int(99))]),
    );
    let reports = ndp_post_process(&mut plan, &db).unwrap();
    assert!(reports[0].filter_factor > 0.9);
    match &plan {
        Plan::Scan(s) => {
            let d = s.ndp.as_ref().expect("projection should still fire");
            assert!(d.choice.predicate.is_none(), "predicate must not be pushed");
            assert!(
                d.choice.projection.is_some(),
                "narrow outputs on a wide row"
            );
            // Unpushed conjunct stays residual.
            assert_eq!(s.residual_conjuncts().len(), 1);
        }
        _ => unreachable!(),
    }
}

/// A scan's projection keeps its output, its residual conjuncts' columns
/// and the key, and drops a column only its pushed conjuncts read (the
/// Page Store has judged those): the plan above reads neither predicate
/// column, so neither is in the scan's output.
#[test]
fn scan_projection_keeps_residual_columns_and_drops_pushed_only_ones() {
    let db = mk_db(1);
    load(&db, 2000);
    let pushed = Expr::lt(Expr::col(1), Expr::int(5));
    let residual = Expr::gt(
        Expr::Case {
            branches: vec![(Expr::lt(Expr::col(2), Expr::dec("1.00")), Expr::int(1))],
            else_: Box::new(Expr::int(0)),
        },
        Expr::int(0),
    );
    let mut plan = Plan::Scan(ScanNode::new("t", vec![3]).with_predicate(vec![pushed, residual]));
    ndp_post_process(&mut plan, &db).unwrap();
    let Plan::Scan(s) = &plan else { unreachable!() };
    let d = s.ndp.as_ref().expect("ndp fires");
    assert_eq!(d.pushed, [0]);
    // id (the key), price (the residual's), pad1 (the output); not v.
    assert_eq!(d.choice.projection.as_deref(), Some(&[0, 2, 3][..]));
    let t = db.table("t").unwrap();
    let desc = taurus_ndp::build_descriptor(t.index(0), &d.choice, 0).unwrap();
    assert_eq!(desc.kept_positions(), [0, 2, 3]);
}

#[test]
fn case_predicate_stays_residual() {
    let db = mk_db(1);
    load(&db, 2000);
    let case = Expr::gt(
        Expr::Case {
            branches: vec![(Expr::lt(Expr::col(1), Expr::int(10)), Expr::int(1))],
            else_: Box::new(Expr::int(0)),
        },
        Expr::int(0),
    );
    let selective = Expr::lt(Expr::col(1), Expr::int(3));
    let mut plan = Plan::Scan(ScanNode::new("t", vec![0, 1]).with_predicate(vec![case, selective]));
    ndp_post_process(&mut plan, &db).unwrap();
    match &plan {
        Plan::Scan(s) => {
            let d = s.ndp.as_ref().expect("ndp fires");
            assert_eq!(d.pushed.len(), 1, "only the allow-listed conjunct goes");
            assert_eq!(
                s.residual_conjuncts().len(),
                1,
                "CASE stays with the executor"
            );
        }
        _ => unreachable!(),
    }
}

#[test]
fn aggregation_requires_no_residual() {
    let db = mk_db(1);
    load(&db, 2000);
    let case = Expr::gt(
        Expr::Case {
            branches: vec![(Expr::lt(Expr::col(1), Expr::int(10)), Expr::int(1))],
            else_: Box::new(Expr::int(0)),
        },
        Expr::int(0),
    );
    let mut plan = folding(
        ScanNode::new("t", vec![1, 2]).with_predicate(vec![case]),
        vec![],
        vec![AggItem {
            func: AggFunc::Sum,
            input: Some(Expr::col(2)),
        }],
    );
    let reports = ndp_post_process(&mut plan, &db).unwrap();
    assert!(
        !reports[0].aggregation,
        "residual CASE must block aggregation pushdown (§V-C)"
    );
}

/// `g(batch, id, tag, slot, pad)` keyed on (batch, id): 2000 narrow rows
/// (over 48 a leaf), 40 batches of 50 in key order, 3 tags and 24 slots
/// scattered over every leaf.
fn load_grouped(db: &Arc<TaurusDb>) -> Arc<taurus_ndp::Table> {
    let schema = TableSchema::new(
        "g",
        vec![
            Column::new("batch", DataType::BigInt),
            Column::new("id", DataType::BigInt),
            Column::new("tag", DataType::Int),
            Column::new("slot", DataType::Int),
            Column::new("pad", DataType::Varchar(100)),
        ],
        vec![0, 1],
    );
    let g = db.create_table(schema, &[]).unwrap();
    let rows = (0..2000i64)
        .map(|i| {
            vec![
                Value::Int(i / 50),
                Value::Int(i),
                Value::Int(i % 3),
                Value::Int(i % 24),
                Value::str(format!("{:0>10}", i)),
            ]
        })
        .collect();
    db.bulk_load(&g, rows).unwrap();
    db.buffer_pool().clear();
    g
}

/// Aggregation goes to storage when the catalog estimates few groups a
/// leaf: a GROUP BY that follows the index spreads its groups over the
/// leaves, any other can meet all of them on every leaf.
#[test]
fn grouping_pushes_by_the_estimated_groups_per_leaf() {
    let db = mk_db(1);
    load_grouped(&db);
    let decide = |group_cols: Vec<usize>| {
        let mut plan = folding(
            ScanNode::new("g", vec![0, 1, 2, 3]),
            group_cols,
            vec![
                AggItem {
                    func: AggFunc::CountStar,
                    input: None,
                },
                AggItem {
                    func: AggFunc::Sum,
                    input: Some(Expr::mul(Expr::col(1), Expr::int(2))),
                },
            ],
        );
        let report = ndp_post_process(&mut plan, &db).unwrap().remove(0);
        assert!(report.group_limit > 0.0, "{report:?}");
        assert!(
            (report.groups_per_leaf <= report.group_limit) == report.aggregation,
            "{report:?}"
        );
        report
    };
    // 40 batches in key order: a leaf holds few of them.
    let r = decide(vec![0]);
    assert!(r.aggregation, "{r:?}");
    // 3 tags on every leaf: hashed per page.
    let r = decide(vec![2]);
    assert!(r.aggregation, "{r:?}");
    assert_eq!(r.groups_per_leaf, 3.0, "{r:?}");
    // 24 slots on every leaf: under half a leaf's rows, but more than a
    // page's group table holds, so each page would send carriers and
    // partials for most of its rows.
    let r = decide(vec![3]);
    assert!(!r.aggregation, "{r:?}");
    assert_eq!(r.groups_per_leaf, 24.0, "{r:?}");
    assert_eq!(
        r.group_limit,
        taurus_ndp::GROUP_TABLE_GROUPS as f64,
        "{r:?}"
    );
    // The table's capacity bounds hashed grouping only.
    assert!(decide(vec![0]).group_limit > 24.0);
    // A group a record, in key order or not: refused.
    for group_cols in [vec![0, 1], vec![1, 0]] {
        let r = decide(group_cols);
        assert!(!r.aggregation, "{r:?}");
    }
}

/// An input off the §V-B1 allow-list keeps the aggregation home.
#[test]
fn aggregation_needs_inputs_storage_can_compute() {
    let db = mk_db(1);
    load(&db, 2000);
    let case = Expr::Case {
        branches: vec![(Expr::lt(Expr::col(1), Expr::int(10)), Expr::col(2))],
        else_: Box::new(Expr::dec("0")),
    };
    for (input, pushed) in [(Expr::mul(Expr::col(2), Expr::col(1)), true), (case, false)] {
        let mut plan = folding(
            ScanNode::new("t", vec![1, 2]),
            vec![],
            vec![AggItem {
                func: AggFunc::Sum,
                input: Some(input),
            }],
        );
        let reports = ndp_post_process(&mut plan, &db).unwrap();
        assert_eq!(reports[0].aggregation, pushed, "{:?}", reports[0]);
    }
}

#[test]
fn ndp_disabled_config_disables_everything() {
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.enabled = false;
    cfg.ndp.min_io_pages = 1;
    let db = TaurusDb::new(cfg);
    load(&db, 2000);
    let mut plan = Plan::Scan(
        ScanNode::new("t", vec![0, 1]).with_predicate(vec![Expr::lt(Expr::col(1), Expr::int(5))]),
    );
    ndp_post_process(&mut plan, &db).unwrap();
    match &plan {
        Plan::Scan(s) => assert!(s.ndp.is_none()),
        _ => unreachable!(),
    }
}

// --- the inner side of a lookup join -----------------------------------------

/// `t` joined to itself through its primary key (or `index`): the join
/// wants `price`, the inner predicate is one pushable conjunct (`v < 50`)
/// and one that is not (a CASE over `id`, off the §V-B1 allow-list).
fn self_join(index: usize, inner_output: Vec<usize>) -> Plan {
    Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(ScanNode::new("t", vec![0]))),
        table: "t".into(),
        index,
        outer_key_cols: vec![0],
        on: None,
        inner_output,
        join: JoinType::Inner,
        inner_predicate: vec![
            Expr::lt(Expr::col(1), Expr::int(50)),
            Expr::gt(
                Expr::Case {
                    branches: vec![(Expr::lt(Expr::col(0), Expr::int(10)), Expr::int(0))],
                    else_: Box::new(Expr::int(1)),
                },
                Expr::int(0),
            ),
        ],
        inner_ndp: None,
    })
}

fn inner_decision(plan: &Plan) -> Option<&taurus_optimizer::plan::NdpDecision> {
    match plan {
        Plan::LookupJoin(j) => j.inner_ndp.as_ref(),
        _ => unreachable!(),
    }
}

#[test]
fn lookup_inner_side_is_decided_by_the_scan_rules() {
    let db = mk_db(4);
    load(&db, 2000);
    let mut plan = self_join(0, vec![2]);
    let reports = ndp_post_process(&mut plan, &db).unwrap();
    // The outer scan's report, then the inner side's.
    assert_eq!(reports.len(), 2);
    let r = &reports[1];
    assert!(!r.gated_by_io && r.est_io_pages >= 4.0, "{r:?}");
    let d = inner_decision(&plan).expect("covering and over the gate");
    assert_eq!(d.pushed, vec![0], "{d:?}");
    assert_eq!(r.pushed_predicates, 1);
    // Output, the residual conjunct's columns and the key: narrow against
    // two 90-byte pads.
    assert!(r.projection && r.width_ratio < 0.2, "{r:?}");
    let keep = d.choice.projection.as_ref().unwrap();
    for c in [0, 2] {
        assert!(keep.contains(&c), "{keep:?}");
    }
    assert!(!keep.contains(&3) && !keep.contains(&4), "{keep:?}");
    let text = taurus_optimizer::explain(&plan, &db);
    assert!(text.contains("Using NDP key reads"), "{text}");
    assert!(
        text.contains("[ndp key read: keys+predicate+projection]"),
        "{text}"
    );
}

#[test]
fn lookup_inner_side_under_the_gate_or_not_covering_keeps_the_prefetch() {
    // Under the gate.
    let db = mk_db(10_000);
    load(&db, 2000);
    let mut plan = self_join(0, vec![2]);
    let reports = ndp_post_process(&mut plan, &db).unwrap();
    assert!(reports[1].gated_by_io);
    assert!(inner_decision(&plan).is_none());
    assert!(taurus_optimizer::explain(&plan, &db).contains("[leaf prefetch]"));

    // Resident leaves do not count towards the gate.
    let db = mk_db(70);
    let t = load(&db, 2000);
    let leaves = t.primary.tree.n_leaves();
    assert!((90..=130).contains(&leaves), "{leaves} leaves");
    let mut plan = self_join(0, vec![2]);
    ndp_post_process(&mut plan, &db).unwrap();
    assert!(inner_decision(&plan).is_some());
    struct Sink;
    impl taurus_ndp::ScanConsumer for Sink {
        fn on_row(&mut self, _r: &[Value]) -> taurus_common::Result<bool> {
            Ok(true)
        }
        fn on_partial(&mut self, _s: Vec<taurus_ndp::AggState>) -> taurus_common::Result<bool> {
            Ok(true)
        }
    }
    let lower_half = taurus_ndp::ScanSpec {
        index: 0,
        range: taurus_ndp::ScanRange {
            lower: None,
            upper: Some((t.primary.tree.encode_search_key(&[Value::Int(1000)]), false)),
        },
        ndp: None,
        output_cols: vec![0],
    };
    taurus_ndp::scan(&db, &t, &lower_half, &db.read_view(0), &mut Sink).unwrap();
    let reports = ndp_post_process(&mut plan, &db).unwrap();
    assert!(
        reports[1].cached_pages >= 40 && reports[1].gated_by_io,
        "{:?}",
        reports[1]
    );
    assert!(
        inner_decision(&plan).is_none(),
        "a stale decision is cleared"
    );

    // A secondary that does not store what the join wants.
    let db = mk_db(1);
    let t = db.create_table(wide_schema(), &[("t_v", vec![1])]).unwrap();
    db.bulk_load(
        &t,
        (0..2000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::Decimal(Dec::new(i as i128, 2)),
                    Value::str("p"),
                    Value::str("q"),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.buffer_pool().clear();
    let mut plan = self_join(1, vec![2]);
    ndp_post_process(&mut plan, &db).unwrap();
    assert!(inner_decision(&plan).is_none());
}

/// With nothing to push and nothing to project the decision still stands:
/// the probe keys alone keep the rest of every leaf off the wire.
#[test]
fn lookup_decision_with_an_empty_choice_is_still_a_decision() {
    let db = mk_db(1);
    let t = db.create_table(wide_schema(), &[("t_v", vec![1])]).unwrap();
    db.bulk_load(
        &t,
        (0..4000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::Decimal(Dec::new(i as i128, 2)),
                    Value::str("p"),
                    Value::str("q"),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.buffer_pool().clear();
    // Through the secondary on `v`, which stores (v, id): wanting `id`
    // only is covering, and there is nothing narrower to keep.
    let mut plan = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(ScanNode::new("t", vec![1]))),
        table: "t".into(),
        index: 1,
        outer_key_cols: vec![0],
        on: None,
        inner_output: vec![0],
        join: JoinType::Semi,
        inner_predicate: vec![],
        inner_ndp: None,
    });
    let reports = ndp_post_process(&mut plan, &db).unwrap();
    let d = inner_decision(&plan).expect("over the gate");
    assert!(d.choice.is_empty() && d.pushed.is_empty(), "{d:?}");
    assert!(!reports[1].projection);
    assert!(taurus_optimizer::explain(&plan, &db).contains("[ndp key read: keys]"));
}

// --- a hash join's join filter -------------------------------------------------

/// `b(id, tag)`: fifty build rows, five tags.
fn load_build(db: &Arc<TaurusDb>) {
    let b = db
        .create_table(
            TableSchema::new(
                "b",
                vec![
                    Column::new("id", DataType::BigInt),
                    Column::new("tag", DataType::Int),
                ],
                vec![0],
            ),
            &[],
        )
        .unwrap();
    db.bulk_load(
        &b,
        (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    db.buffer_pool().clear();
}

/// `t` (id, v, price) probing `b` (id, tag) on `t`'s output position
/// `probe_key` = `b.id`, the build kept by `build_pred`.
fn hash_join(probe_key: usize, join: JoinType, build_pred: Vec<Expr>) -> Plan {
    Plan::HashJoin(HashJoinNode {
        left: Box::new(Plan::Scan(ScanNode::new("t", vec![0, 1, 2]))),
        right: Box::new(Plan::Scan(
            ScanNode::new("b", vec![0, 1]).with_predicate(build_pred),
        )),
        left_keys: vec![probe_key],
        right_keys: vec![0],
        join,
        filter: None,
    })
}

fn tag_is_zero() -> Vec<Expr> {
    vec![Expr::eq(Expr::col(1), Expr::int(0))]
}

fn join_filter(plan: &Plan) -> Option<JoinFilterDecision> {
    match plan {
        Plan::HashJoin(j) => j.filter,
        _ => None,
    }
}

#[test]
fn join_filter_marks_inner_and_semi_joins_on_an_integer_key_over_a_filtered_build() {
    let db = mk_db(1);
    load(&db, 2000);
    load_build(&db);
    for (join, marked) in [
        (JoinType::Inner, true),
        (JoinType::Semi, true),
        (JoinType::LeftOuter, false),
        (JoinType::Anti, false),
    ] {
        let mut plan = hash_join(1, join, tag_is_zero());
        ndp_post_process(&mut plan, &db).unwrap();
        assert_eq!(join_filter(&plan).is_some(), marked, "{join:?}");
    }
    // `v` is an Int with 100 distinct values; `id` a BigInt.
    let mut plan = hash_join(1, JoinType::Inner, tag_is_zero());
    ndp_post_process(&mut plan, &db).unwrap();
    assert_eq!(
        join_filter(&plan),
        Some(JoinFilterDecision {
            column: 1,
            ndv: 100
        })
    );
    let text = taurus_optimizer::explain(&plan, &db);
    assert!(
        text.contains("HashJoin (Inner, build right, streamed probe) [join filter -> t.v]"),
        "{text}"
    );
    assert!(
        text.contains("Hash Inner join [join filter -> t.v]"),
        "{text}"
    );
    let mut plan = hash_join(0, JoinType::Inner, tag_is_zero());
    ndp_post_process(&mut plan, &db).unwrap();
    assert_eq!(join_filter(&plan).map(|d| d.column), Some(0));
}

#[test]
fn join_filter_needs_every_property_and_a_stale_one_is_cleared() {
    let db = mk_db(1);
    load(&db, 2000);
    load_build(&db);
    let undecided = |mut plan: Plan, db: &Arc<TaurusDb>, what: &str| {
        ndp_post_process(&mut plan, db).unwrap();
        assert!(join_filter(&plan).is_none(), "{what}");
        let text = taurus_optimizer::explain(&plan, db);
        assert!(!text.contains("join filter"), "{what}: {text}");
    };
    undecided(
        hash_join(1, JoinType::Inner, vec![]),
        &db,
        "a build without a predicate holds every key",
    );
    undecided(
        hash_join(2, JoinType::Inner, tag_is_zero()),
        &db,
        "a decimal key",
    );
    let mut two_keys = hash_join(1, JoinType::Inner, tag_is_zero());
    if let Plan::HashJoin(j) = &mut two_keys {
        j.left_keys.push(0);
        j.right_keys.push(1);
    }
    undecided(two_keys, &db, "two keys");
    let mut behind_a_filter = hash_join(1, JoinType::Inner, tag_is_zero());
    if let Plan::HashJoin(j) = &mut behind_a_filter {
        *j.left = (*j.left)
            .clone()
            .filter(Expr::gt(Expr::col(0), Expr::int(5)));
    }
    undecided(behind_a_filter, &db, "a probe that is not a scan");

    // Under the I/O gate, and with NDP off: a decision an earlier pass
    // left on the node goes.
    let stale = || {
        let mut plan = hash_join(1, JoinType::Inner, tag_is_zero());
        if let Plan::HashJoin(j) = &mut plan {
            j.filter = Some(JoinFilterDecision {
                column: 1,
                ndv: 100,
            });
        }
        plan
    };
    let gated = mk_db(10_000);
    load(&gated, 2000);
    load_build(&gated);
    undecided(stale(), &gated, "a probe under the gate");
    let mut cfg = ClusterConfig::small_for_tests();
    cfg.ndp.enabled = false;
    let off = TaurusDb::new(cfg);
    load(&off, 2000);
    load_build(&off);
    undecided(stale(), &off, "NDP off");
}
