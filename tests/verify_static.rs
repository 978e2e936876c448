//! Pinning tests for the static verifier (PR 9).
//!
//! One test per `DiagKind`: each malformed plan/program shape must
//! produce its specific structured diagnostic, and error-severity kinds
//! must reject the plan at the pre-execution gate (before any operator
//! opens).

use std::sync::{Arc, OnceLock};

use taurus::common::config::ClusterConfig;
use taurus::common::{Error, Value};
use taurus::expr::ast::{CmpOp, Expr};
use taurus::expr::ir::{IrInstr, IrProgram};
use taurus::ndp::TaurusDb;
use taurus::ndp::{AggFunc, NdpChoice, ScanAggregation};
use taurus::optimizer::plan::{
    AggItem, HashAggNode, HashJoinNode, JoinFilterDecision, JoinType, LookupJoinNode, NdpDecision,
    Plan, RangeSpec, ScanNode, SortNode,
};
use taurus::prelude::Session;
use taurus::verify::{verify_plan, DiagKind, Severity};

/// A catalog-only TPC-H cluster (schemas, no rows): plenty for the
/// structural diagnostics, and cheap enough to share across tests.
fn catalog() -> &'static Arc<TaurusDb> {
    static DB: OnceLock<Arc<TaurusDb>> = OnceLock::new();
    DB.get_or_init(|| {
        let db = TaurusDb::new(ClusterConfig::default());
        taurus::tpch::schema::create_all(&db).unwrap();
        db
    })
}

/// All (kind, severity) pairs a plan verifies to.
fn kinds(plan: &Plan) -> Vec<(DiagKind, Severity)> {
    verify_plan(plan, catalog())
        .iter()
        .map(|d| (d.kind, d.severity))
        .collect()
}

fn has_error(plan: &Plan, kind: DiagKind) -> bool {
    kinds(plan).contains(&(kind, Severity::Error))
}

#[test]
fn unknown_table_is_pinned() {
    let plan = Plan::Scan(ScanNode::new("no_such_table", vec![0]));
    assert!(has_error(&plan, DiagKind::UnknownTable));
}

#[test]
fn unknown_index_is_pinned() {
    let plan = Plan::Scan(ScanNode::new("lineitem", vec![0]).with_index(9));
    assert!(has_error(&plan, DiagKind::UnknownIndex));
}

#[test]
fn column_out_of_range_is_pinned() {
    let plan = Plan::Scan(ScanNode::new("lineitem", vec![0, 99]));
    assert!(has_error(&plan, DiagKind::ColumnOutOfRange));
}

/// `lineitem` through `index`, delivering `l_suppkey` (col 2), with a
/// residual conjunct over `l_quantity` (col 4) that nothing above reads.
fn scan_with_residual(index: usize) -> Plan {
    Plan::Scan(
        ScanNode::new("lineitem", vec![2])
            .with_index(index)
            .with_predicate(vec![Expr::lt(Expr::col(4), Expr::dec("24"))]),
    )
}

#[test]
fn a_residual_outside_the_output_verifies() {
    // The scan runs the residual on the primary index's record bytes,
    // which store every column.
    let plan = scan_with_residual(0);
    assert!(
        verify_plan(&plan, catalog()).is_empty(),
        "{:?}",
        kinds(&plan)
    );
    assert!(Session::new(catalog())
        .execute_plan(&plan)
        .unwrap()
        .is_empty());
}

#[test]
fn predicate_not_stored_is_pinned() {
    // `i_l_suppkey` stores l_suppkey and the primary key, not l_quantity.
    let plan = scan_with_residual(taurus::tpch::schema::idx::L_SUPPKEY);
    assert!(has_error(&plan, DiagKind::PredicateNotStored));
}

/// A `HashAgg` folding `scan`, grouped by the table columns `group_cols`
/// and aggregating `aggs` over table columns, as the binder writes them:
/// over the scan's output positions.
fn folding(scan: ScanNode, group_cols: &[usize], aggs: Vec<AggItem>) -> Plan {
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

#[test]
fn group_col_not_in_output_is_pinned() {
    let plan = Plan::HashAgg(HashAggNode {
        input: Box::new(Plan::Scan(ScanNode::new("lineitem", vec![0]))),
        group: vec![Expr::col(8)],
        aggs: vec![],
    });
    assert!(has_error(&plan, DiagKind::GroupColNotInOutput));
}

#[test]
fn agg_input_not_in_output_is_pinned() {
    let plan = Plan::HashAgg(HashAggNode {
        input: Box::new(Plan::Scan(ScanNode::new("lineitem", vec![0]))),
        group: vec![Expr::col(0)],
        aggs: vec![AggItem {
            func: AggFunc::Sum,
            input: Some(Expr::col(5)),
        }],
    });
    assert!(has_error(&plan, DiagKind::AggInputNotInOutput));
}

#[test]
fn key_prefix_too_long_is_pinned() {
    let range = RangeSpec {
        lower: Some((vec![Value::Int(1); 17], true)),
        upper: None,
    };
    let plan = Plan::Scan(ScanNode::new("lineitem", vec![0]).with_range(range));
    assert!(has_error(&plan, DiagKind::KeyPrefixTooLong));
}

#[test]
fn key_out_of_range_is_pinned() {
    let plan = Plan::Sort(SortNode {
        input: Box::new(Plan::Scan(ScanNode::new("lineitem", vec![0]))),
        keys: vec![(99, false)],
        limit: None,
    });
    assert!(has_error(&plan, DiagKind::KeyOutOfRange));
}

#[test]
fn arity_mismatch_is_pinned() {
    let plan = Plan::HashJoin(HashJoinNode {
        left: Box::new(Plan::Scan(ScanNode::new("lineitem", vec![0]))),
        right: Box::new(Plan::Scan(ScanNode::new("orders", vec![0]))),
        left_keys: vec![0],
        right_keys: vec![],
        join: JoinType::Inner,
        filter: None,
    });
    assert!(has_error(&plan, DiagKind::ArityMismatch));
}

#[test]
fn pushed_out_of_range_is_pinned() {
    let mut scan = ScanNode::new("lineitem", vec![0]);
    scan.ndp = Some(NdpDecision {
        pushed: vec![7], // ... but the predicate has zero conjuncts
        ..Default::default()
    });
    let plan = Plan::Scan(scan);
    assert!(has_error(&plan, DiagKind::PushedOutOfRange));
}

#[test]
fn type_mismatch_is_a_warning_not_an_error() {
    // l_shipdate (Date) compared against an integer literal: the VM
    // refuses to compile it, with a typed `Error::Verify` of its own, so
    // the verifier only warns and the gate lets the plan through.
    let plan = Plan::Scan(
        ScanNode::new("lineitem", vec![10])
            .with_predicate(vec![Expr::lt(Expr::col(10), Expr::lit(Value::Int(7)))]),
    );
    let ks = kinds(&plan);
    assert!(ks.contains(&(DiagKind::TypeMismatch, Severity::Warning)));
    assert!(taurus::verify::check_plan(&plan, catalog()).is_ok());
}

/// A CASE whose values are a date and a string has no type (a register
/// holds one class): the gate rejects the plan with a `TypeMismatch`
/// error, before any operator opens.
#[test]
fn a_case_mixing_a_date_and_a_string_is_rejected() {
    // l_quantity, l_shipdate and l_shipmode.
    let case = Expr::Case {
        branches: vec![(Expr::gt(Expr::col(0), Expr::int(5)), Expr::col(1))],
        else_: Box::new(Expr::col(2)),
    };
    let plan = Plan::Scan(ScanNode::new("lineitem", vec![4, 10, 14])).project(vec![case]);
    assert_rejected(&plan, DiagKind::TypeMismatch);
}

/// A descriptor whose predicate compares a CHAR field (`l_returnflag`)
/// with an integer does not type: a Page Store refuses to prepare it,
/// with a typed error, not an internal one.
#[test]
fn a_descriptor_predicate_that_does_not_type_is_refused() {
    let table = catalog().table("lineitem").unwrap();
    let choice = NdpChoice {
        predicate: Some(Expr::eq(Expr::col(8), Expr::int(1))),
        ..Default::default()
    };
    let descriptor = taurus::ndp::build_descriptor(&table.primary, &choice, u64::MAX).unwrap();
    let err = taurus::pagestore::CachedDescriptor::prepare(&descriptor.encode()).err();
    assert!(matches!(err, Some(Error::Verify(_))), "{err:?}");
}

/// A bounds-valid program that reads a register nothing ever wrote.
fn read_before_write_ir() -> IrProgram {
    IrProgram {
        instrs: vec![
            IrInstr::Cmp {
                op: CmpOp::Eq,
                dst: 1,
                a: 0,
                b: 0,
            },
            IrInstr::Ret { src: 1 },
        ],
        consts: vec![],
        n_regs: 2,
    }
}

#[test]
fn ir_shape_is_pinned() {
    let diags = taurus::verify::check_ir(&read_before_write_ir(), "test");
    assert!(diags
        .iter()
        .any(|d| d.kind == DiagKind::IrShape && d.severity == Severity::Error));
}

// --- a lookup join's NDP key-read decision ----------------------------------

/// `orders` semi-joined to `lineitem` through `index`, Q4's shape: the
/// inner predicate reads `l_commitdate` and `l_receiptdate`, the join
/// wants `l_suppkey`.
fn lookup_with_decision(index: usize, decision: NdpDecision) -> Plan {
    Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(ScanNode::new("orders", vec![0]))),
        table: "lineitem".into(),
        index,
        outer_key_cols: vec![0],
        on: None,
        inner_output: vec![2],
        join: JoinType::Semi,
        inner_predicate: vec![
            Expr::lt(Expr::col(11), Expr::col(12)),
            Expr::lt(Expr::col(4), Expr::dec("24")),
        ],
        inner_ndp: Some(decision),
    })
}

/// What the optimizer would decide: the date test pushed, and a
/// projection of the output, the residual's column and the key.
fn sound_decision() -> NdpDecision {
    NdpDecision {
        choice: NdpChoice {
            projection: Some(vec![0, 2, 3, 4]),
            predicate: Some(Expr::lt(Expr::col(11), Expr::col(12))),
            aggregation: None,
        },
        pushed: vec![0],
    }
}

/// Every way in is gated, in every build profile (run this file with
/// `--release` too): collect and a sink both answer a malformed decision
/// with the typed error, before anything runs.
fn assert_rejected(plan: &Plan, kind: DiagKind) {
    assert!(has_error(plan, kind), "{:?}", kinds(plan));
    let session = Session::new(catalog());
    let err = session.execute_plan(plan).unwrap_err();
    assert!(
        matches!(&err, Error::Verify(m) if m.contains(&format!("{kind:?}"))),
        "{err:?}"
    );
    let err = session
        .run_plan(plan, |_| panic!("a rejected plan hands its sink nothing"))
        .unwrap_err();
    assert!(matches!(err, Error::Verify(_)), "{err:?}");
}

#[test]
fn a_sound_key_read_decision_passes() {
    let plan = lookup_with_decision(0, sound_decision());
    assert!(
        !kinds(&plan).iter().any(|(_, s)| *s == Severity::Error),
        "{:?}",
        verify_plan(&plan, catalog())
    );
    assert!(Session::new(catalog())
        .execute_plan(&plan)
        .unwrap()
        .is_empty());
}

#[test]
fn key_read_pushed_index_out_of_range_is_pinned() {
    let mut d = sound_decision();
    d.pushed = vec![0, 2];
    assert_rejected(&lookup_with_decision(0, d), DiagKind::PushedOutOfRange);
}

#[test]
fn key_read_projection_must_keep_output_residual_and_key() {
    // The join's output, the residual conjunct's column, a key column.
    for dropped in [2, 4, 3] {
        let mut d = sound_decision();
        d.choice
            .projection
            .as_mut()
            .unwrap()
            .retain(|&c| c != dropped);
        assert_rejected(
            &lookup_with_decision(0, d),
            DiagKind::NdpProjectionDropsColumn,
        );
    }
    // Pushing the second conjunct too frees its column.
    let mut d = sound_decision();
    d.pushed = vec![0, 1];
    d.choice.projection = Some(vec![0, 2, 3]);
    assert!(!has_error(
        &lookup_with_decision(0, d),
        DiagKind::NdpProjectionDropsColumn
    ));
}

#[test]
fn scan_projection_must_keep_output_residual_and_key() {
    // `lineitem` delivering l_suppkey: the date test pushed, l_quantity's
    // residual kept, and a projection of the output, the residual's
    // column and the key.
    let scan = |projection: Vec<usize>, pushed: Vec<usize>| {
        let mut s = ScanNode::new("lineitem", vec![2]).with_predicate(vec![
            Expr::lt(Expr::col(11), Expr::col(12)),
            Expr::lt(Expr::col(4), Expr::dec("24")),
        ]);
        s.ndp = Some(NdpDecision {
            choice: NdpChoice {
                projection: Some(projection),
                predicate: Some(Expr::lt(Expr::col(11), Expr::col(12))),
                aggregation: None,
            },
            pushed,
        });
        Plan::Scan(s)
    };
    assert!(verify_plan(&scan(vec![0, 2, 3, 4], vec![0]), catalog()).is_empty());
    // The scan's output, the residual conjunct's column, a key column.
    for dropped in [2, 4, 3] {
        let mut keep = vec![0, 2, 3, 4];
        keep.retain(|&c| c != dropped);
        assert_rejected(&scan(keep, vec![0]), DiagKind::NdpProjectionDropsColumn);
    }
    // Pushing the second conjunct too frees its column.
    assert!(!has_error(
        &scan(vec![0, 2, 3], vec![0, 1]),
        DiagKind::NdpProjectionDropsColumn
    ));
}

#[test]
fn key_read_on_a_non_covering_access_is_pinned() {
    // `i_l_suppkey` stores l_suppkey and the primary key, not the dates.
    let d = NdpDecision {
        choice: NdpChoice::default(),
        pushed: vec![],
    };
    assert_rejected(
        &lookup_with_decision(taurus::tpch::schema::idx::L_SUPPKEY, d),
        DiagKind::NdpOnNonCovering,
    );
}

/// A pushed inner conjunct is compiled like a scan's: its program gets the
/// same IR checks (here: an operand no comparison takes).
#[test]
fn key_read_pushed_conjuncts_get_the_scan_predicate_checks() {
    let mut plan = lookup_with_decision(0, sound_decision());
    if let Plan::LookupJoin(j) = &mut plan {
        j.inner_predicate[0] = Expr::lt(Expr::col(15), Expr::int(5));
    }
    let diags = verify_plan(&plan, catalog());
    assert!(
        diags.iter().any(|d| d.kind == DiagKind::TypeMismatch),
        "{diags:?}"
    );
}

// --- the gate: rejected plans fail before any operator opens ---------------

#[test]
fn rejected_plan_fails_collect_before_execution() {
    let plan = scan_with_residual(taurus::tpch::schema::idx::L_SUPPKEY);
    let session = Session::new(catalog());
    let err = session.execute_plan(&plan).unwrap_err();
    assert!(matches!(err, Error::Verify(_)), "got {err:?}");
}

#[test]
fn rejected_plan_fails_stream_before_any_producer_spawns() {
    let plan = scan_with_residual(taurus::tpch::schema::idx::L_SUPPKEY);
    // A catalog of its own: no other test's query moves its counters.
    let db = TaurusDb::new(ClusterConfig::default());
    taurus::tpch::schema::create_all(&db).unwrap();
    let session = Session::new(&db);
    // The verifier's rejection is the run's error: the sink sees nothing
    // and no thread is spawned.
    match session.run_plan(&plan, |_| panic!("a rejected plan hands its sink nothing")) {
        Err(Error::Verify(msg)) => assert!(msg.contains("PredicateNotStored")),
        other => panic!("expected Err(Verify), got {other:?}"),
    }
    assert_eq!(db.metrics().snapshot().sql_threads_spawned, 0);
}

// --- a hash join's join-filter decision ---------------------------------------

/// `lineitem` (l_orderkey, l_partkey, l_quantity) probing `part` built
/// over `p_size < 10` on `l_partkey`, Q8's shape, with a join-filter
/// decision naming the probe table's `column`.
fn hash_join_with_filter(join: JoinType, column: usize) -> Plan {
    Plan::HashJoin(HashJoinNode {
        left: Box::new(Plan::Scan(ScanNode::new("lineitem", vec![0, 1, 4]))),
        right: Box::new(Plan::Scan(
            ScanNode::new("part", vec![0, 5])
                .with_predicate(vec![Expr::lt(Expr::col(5), Expr::int(10))]),
        )),
        left_keys: vec![1],
        right_keys: vec![0],
        join,
        filter: Some(JoinFilterDecision { column, ndv: 1000 }),
    })
}

fn edit_join(mut plan: Plan, f: impl FnOnce(&mut HashJoinNode)) -> Plan {
    if let Plan::HashJoin(j) = &mut plan {
        f(j);
    }
    plan
}

#[test]
fn a_sound_join_filter_decision_passes() {
    for join in [JoinType::Inner, JoinType::Semi] {
        let plan = hash_join_with_filter(join, 1);
        assert!(
            !kinds(&plan).iter().any(|(_, s)| *s == Severity::Error),
            "{:?}",
            verify_plan(&plan, catalog())
        );
        assert!(Session::new(catalog())
            .execute_plan(&plan)
            .unwrap()
            .is_empty());
    }
}

/// An outer or anti join keeps the probe rows no build key matches: a
/// filter would drop rows of its result.
#[test]
fn join_filter_on_an_outer_or_anti_join_is_pinned() {
    for join in [JoinType::LeftOuter, JoinType::Anti] {
        assert_rejected(
            &hash_join_with_filter(join, 1),
            DiagKind::JoinFilterIneligible,
        );
    }
}

#[test]
fn join_filter_must_name_the_probe_key_column() {
    assert_rejected(
        &hash_join_with_filter(JoinType::Inner, 0),
        DiagKind::JoinFilterIneligible,
    );
}

#[test]
fn join_filter_needs_an_integer_key_one_key_a_probe_scan_and_a_filtered_build() {
    let sound = || hash_join_with_filter(JoinType::Inner, 1);
    let ineligible = [
        // l_quantity, a decimal.
        edit_join(hash_join_with_filter(JoinType::Inner, 4), |j| {
            j.left_keys = vec![2]
        }),
        edit_join(sound(), |j| {
            j.left_keys.push(0);
            j.right_keys.push(1);
        }),
        edit_join(sound(), |j| {
            *j.left = (*j.left)
                .clone()
                .filter(Expr::gt(Expr::col(0), Expr::int(5)))
        }),
        edit_join(sound(), |j| {
            if let Plan::Scan(s) = &mut *j.right {
                s.predicate.clear();
            }
        }),
    ];
    for plan in &ineligible {
        assert_rejected(plan, DiagKind::JoinFilterIneligible);
    }
}

// --- a pushed aggregation against the HashAgg that folds its scan -------------

/// Q1's aggregates over `lineitem` as the binder writes them: a
/// bare-column SUM, an AVG as a SUM and a COUNT of its input, an
/// expression input and a COUNT(*).
fn q1_aggs() -> Vec<AggItem> {
    let disc_price = Expr::mul(Expr::col(5), Expr::sub(Expr::int(1), Expr::col(6)));
    let agg = |func, input| AggItem { func, input };
    vec![
        agg(AggFunc::Sum, Some(Expr::col(4))),
        agg(AggFunc::Sum, Some(Expr::col(5))),
        agg(AggFunc::Count, Some(Expr::col(5))),
        agg(AggFunc::Sum, Some(disc_price)),
        agg(AggFunc::CountStar, None),
    ]
}

/// Q1's `lineitem` scan, pushing `pushed`.
fn q1_scan(pushed: ScanAggregation) -> ScanNode {
    ScanNode {
        ndp: Some(NdpDecision {
            choice: NdpChoice {
                aggregation: Some(pushed),
                ..NdpChoice::default()
            },
            pushed: vec![],
        }),
        ..ScanNode::new("lineitem", vec![4, 5, 6, 8, 9])
    }
}

/// Q1's shape: a `HashAgg` of [`q1_aggs`] grouped by (l_returnflag,
/// l_linestatus) folding [`q1_scan`].
fn q1_like(pushed: ScanAggregation) -> Plan {
    folding(q1_scan(pushed), &[8, 9], q1_aggs())
}

/// What storage is asked for `q1_like`: its aggregates, one for one.
fn q1_storage_form() -> ScanAggregation {
    ScanAggregation {
        specs: q1_aggs(),
        group_cols: vec![8, 9],
        having: None,
    }
}

#[test]
fn a_pushed_aggregation_in_storage_form_passes() {
    // The AVG is its SUM over its COUNT, above the aggregation.
    let plan = q1_like(q1_storage_form()).project(vec![
        Expr::col(0),
        Expr::col(1),
        Expr::col(2),
        Expr::div(Expr::col(3), Expr::col(4)),
        Expr::col(5),
        Expr::col(6),
    ]);
    assert!(
        !kinds(&plan).iter().any(|(_, s)| *s == Severity::Error),
        "{:?}",
        verify_plan(&plan, catalog())
    );
    assert!(Session::new(catalog())
        .execute_plan(&plan)
        .unwrap()
        .is_empty());
}

#[test]
fn a_pushed_aggregation_that_is_not_the_storage_form_is_pinned() {
    let mutated = |f: fn(&mut ScanAggregation)| {
        let mut pushed = q1_storage_form();
        f(&mut pushed);
        q1_like(pushed)
    };
    // The AVG's COUNT dropped: storage would send one state fewer than
    // the SQL node merges.
    assert_rejected(
        &mutated(|p| {
            p.specs.remove(2);
        }),
        DiagKind::AggPushdownMismatch,
    );
    // Two inputs swapped: each SUM would fold the other's column.
    assert_rejected(
        &mutated(|p| p.specs.swap(0, 1)),
        DiagKind::AggPushdownMismatch,
    );
    // A function changed under the same input.
    assert_rejected(
        &mutated(|p| p.specs[1].func = AggFunc::Max),
        DiagKind::AggPushdownMismatch,
    );
    // An extra group column: storage would split the SQL node's groups.
    assert_rejected(
        &mutated(|p| p.group_cols.push(10)),
        DiagKind::AggPushdownMismatch,
    );
    // The SQL node groups by an expression: storage has no group columns
    // that are it.
    let Plan::HashAgg(mut by_expr) = q1_like(q1_storage_form()) else {
        unreachable!("a HashAgg")
    };
    by_expr.group[1] = Expr::add(Expr::col(4), Expr::int(0));
    assert_rejected(&Plan::HashAgg(by_expr), DiagKind::AggPushdownMismatch);
}

/// A scan whose decision carries an aggregation sends carriers followed
/// by partials: only the `HashAgg` folding it directly can take them, so
/// the scan anywhere else is rejected, whatever sits above it.
#[test]
fn a_pushed_aggregation_no_hash_agg_folds_is_pinned() {
    let scan = || Plan::Scan(q1_scan(q1_storage_form()));
    let over_filter = Plan::HashAgg(HashAggNode {
        input: Box::new(scan().filter(Expr::gt(Expr::col(0), Expr::int(0)))),
        group: vec![Expr::col(3), Expr::col(4)],
        aggs: vec![],
    });
    let over_project = Plan::HashAgg(HashAggNode {
        input: Box::new(scan().project((0..5).map(Expr::col).collect())),
        group: vec![Expr::col(3), Expr::col(4)],
        aggs: vec![],
    });
    let join = Plan::HashJoin(HashJoinNode {
        left: Box::new(scan()),
        right: Box::new(Plan::Scan(ScanNode::new("orders", vec![0]))),
        left_keys: vec![0],
        right_keys: vec![0],
        join: JoinType::Inner,
        filter: None,
    });
    for plan in [scan(), over_filter, over_project, join] {
        assert_rejected(&plan, DiagKind::AggPushdownMisplaced);
    }
    // Under an Exchange, the HashAgg still folds it.
    let parallel = q1_like(q1_storage_form()).exchange(2);
    assert!(!has_error(&parallel, DiagKind::AggPushdownMisplaced));
}

// --- a pushed HAVING against its HashAgg and the Filter above it -------------

/// Q18's derived table: `lineitem` grouped by `l_orderkey` (the key's
/// first column, so in index order) with `sum(l_quantity)`, pushed with
/// `having`, under `Filter(sum > 300)` when `filtered`.
fn q18_like(having: Option<Expr>, filtered: bool) -> Plan {
    let over_300 = Expr::gt(Expr::col(1), Expr::int(300));
    let sum = || AggItem {
        func: AggFunc::Sum,
        input: Some(Expr::col(4)),
    };
    let scan = ScanNode {
        ndp: Some(NdpDecision {
            choice: NdpChoice {
                aggregation: Some(ScanAggregation {
                    specs: vec![sum()],
                    group_cols: vec![0],
                    having,
                }),
                ..NdpChoice::default()
            },
            pushed: vec![],
        }),
        ..ScanNode::new("lineitem", vec![0, 4])
    };
    let scan = folding(scan, &[0], vec![sum()]);
    match filtered {
        true => scan.filter(over_300),
        false => scan,
    }
}

#[test]
fn a_pushed_having_the_filter_above_implies_passes() {
    let plan = q18_like(Some(Expr::gt(Expr::col(1), Expr::int(300))), true);
    assert!(
        !kinds(&plan).iter().any(|(_, s)| *s == Severity::Error),
        "{:?}",
        verify_plan(&plan, catalog())
    );
    assert!(Session::new(catalog())
        .execute_plan(&plan)
        .unwrap()
        .is_empty());
}

#[test]
fn a_pushed_having_it_may_not_carry_is_pinned() {
    // On a hashed aggregation (Q1's groups, off the index): no group is ever
    // complete on its page.
    let mut hashed = q1_storage_form();
    hashed.having = Some(Expr::gt(Expr::col(2), Expr::int(0)));
    let hashed = q1_like(hashed).filter(Expr::gt(Expr::col(2), Expr::int(0)));
    assert_rejected(&hashed, DiagKind::HavingPushdownIneligible);
    // Stricter than the Filter above: storage would drop groups the SQL
    // node keeps.
    let stricter = q18_like(Some(Expr::gt(Expr::col(1), Expr::int(400))), true);
    assert_rejected(&stricter, DiagKind::HavingPushdownIneligible);
    // No Filter above at all.
    let bare = q18_like(Some(Expr::gt(Expr::col(1), Expr::int(300))), false);
    assert_rejected(&bare, DiagKind::HavingPushdownIneligible);
    // Past a group's outputs (the group column, then one SUM).
    let past = q18_like(Some(Expr::gt(Expr::col(2), Expr::int(300))), true);
    assert_rejected(&past, DiagKind::HavingPushdownIneligible);
}
