//! The record-VM filter a scan runs on record bytes agrees with the
//! tree-walking evaluator it replaced, verdict *and* error.
//!
//! Every predicate the 22 TPC-H statements put on a table access (scan
//! conjuncts and lookup-join inner predicates) is evaluated over every
//! record of its table both ways: `RecordFilter::passes` on the raw leaf
//! record, and the conjuncts in order through `eval_pred` on the decoded
//! row, which is what the scan consumers did one layer up before the scan
//! took the residual over. A guarded and an unguarded division cover the
//! error side: a record the VM cannot decide must surface exactly the
//! tree-walker's error, and a guard must keep it from surfacing at all.
//!
//! The value-returning entry of the same VM, which a Page Store folds
//! aggregate inputs with, agrees with the tree-walker value for value on
//! every aggregate input of the TPC-H statements, and on NULL inputs and
//! decimal overflow.

use std::sync::Arc;

use taurus::btree::{ScanRange, TreeStore};
use taurus::common::schema::{Column, TableSchema};
use taurus::common::{ClusterConfig, DataType, Dec, Error, Result, Value};
use taurus::expr::ast::Expr;
use taurus::expr::compile::lower;
use taurus::expr::eval::{eval, eval_pred};
use taurus::expr::ir::encode_value;
use taurus::expr::vm::{CompiledPredicate, FilterScratch, RecordFilter};
use taurus::ndp::{Table, TaurusDb};
use taurus::optimizer::plan::Plan;
use taurus::page::{RecordView, NO_PAGE};
use taurus::prelude::Session;

/// What the consumers did before: conjuncts in order, stop at the first
/// that is not TRUE.
fn by_tree_walker(conjuncts: &[Expr], row: &[Value]) -> Result<bool> {
    for c in conjuncts {
        if eval_pred(c, row)? != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Compare both evaluators over every record of `table`'s primary index
/// (which stores every column, so record positions are table columns).
/// Returns (records, survivors, errors).
fn compare(table: &Table, conjuncts: &[Expr], what: &str) -> (usize, usize, usize) {
    let index = &table.primary;
    let layout = &index.tree.leaf_layout;
    let filter = RecordFilter::new(conjuncts, layout);
    let mut scratch = FilterScratch::default();
    let (mut records, mut survivors, mut errors) = (0, 0, 0);
    let mut page = index
        .tree
        .seek_leaf(index.store.as_ref(), &ScanRange::full())
        .unwrap()
        .unwrap();
    loop {
        for rec in page.iter_chain() {
            let rec = RecordView::parse(rec.unwrap(), layout).unwrap();
            let vm = filter.passes(&rec, &mut scratch);
            let tree = by_tree_walker(conjuncts, &rec.values());
            assert_eq!(vm, tree, "{what}: record {records} {:?}", rec.values());
            records += 1;
            survivors += matches!(vm, Ok(true)) as usize;
            errors += vm.is_err() as usize;
        }
        match page.next() {
            NO_PAGE => return (records, survivors, errors),
            next => page = index.store.read(next).unwrap(),
        }
    }
}

/// Every (table, conjuncts) pair a plan puts on a table access.
fn access_predicates(plan: &Plan, out: &mut Vec<(String, Vec<Expr>)>) {
    match plan {
        Plan::Scan(s) => out.push((s.table.clone(), s.predicate.clone())),
        Plan::AggScan(a) => out.push((a.scan.table.clone(), a.scan.predicate.clone())),
        Plan::LookupJoin(j) => {
            out.push((j.table.clone(), j.inner_predicate.clone()));
            access_predicates(&j.outer, out);
        }
        Plan::HashJoin(j) => {
            access_predicates(&j.left, out);
            access_predicates(&j.right, out);
        }
        Plan::HashAgg(a) => access_predicates(&a.input, out),
        Plan::Project(p) => access_predicates(&p.input, out),
        Plan::Filter(f) => access_predicates(&f.input, out),
        Plan::Sort(s) => access_predicates(&s.input, out),
        Plan::Limit { input, .. } => access_predicates(input, out),
        Plan::Exchange(e) => access_predicates(&e.child, out),
    }
}

#[test]
fn every_tpch_access_predicate_agrees_on_every_record() {
    let db = TaurusDb::new(ClusterConfig::default());
    taurus::tpch::load(&db, 0.002, 11).unwrap();
    let session = Session::new(&db).with_ndp(false);
    let mut predicates = Vec::new();
    for (name, text) in taurus::sql::tpch_sql::all() {
        let taurus::sql::Statement::Select(select) = taurus::sql::parse(text).unwrap() else {
            panic!("{name} is a SELECT");
        };
        let plan = taurus::sql::bind(&session, &select).unwrap();
        let before = predicates.len();
        access_predicates(&plan, &mut predicates);
        for (table, _) in &mut predicates[before..] {
            *table = format!("{name}:{table}");
        }
    }
    predicates.retain(|(_, conjuncts)| !conjuncts.is_empty());
    assert!(
        predicates.len() >= 22,
        "the 22 statements filter at least one access each on average: {}",
        predicates.len()
    );
    let (mut survivors, mut rejected) = (0, 0);
    for (what, conjuncts) in &predicates {
        let table = db.table(what.split_once(':').unwrap().1).unwrap();
        let (records, passed, errors) = compare(&table, conjuncts, what);
        assert_eq!(errors, 0, "{what}: TPC-H predicates do not fail");
        survivors += passed;
        rejected += records - passed;
    }
    // Both verdicts were exercised, many times over.
    assert!(
        survivors > 1000 && rejected > 1000,
        "{survivors} / {rejected}"
    );
}

fn division_table() -> (Arc<TaurusDb>, Arc<Table>) {
    let db = TaurusDb::new(ClusterConfig::small_for_tests());
    let dec = DataType::Decimal {
        precision: 15,
        scale: 2,
    };
    let schema = TableSchema::new(
        "d",
        vec![
            Column::new("id", DataType::BigInt),
            Column::nullable("a", DataType::Int),
            Column::nullable("b", dec),
        ],
        vec![0],
    );
    let t = db.create_table(schema, &[]).unwrap();
    // Divisors cycle through 0, NULL and small integers.
    let rows = (0..300i64)
        .map(|i| {
            let a = match i % 5 {
                0 => Value::Int(0),
                1 => Value::Null,
                k => Value::Int(k - 2),
            };
            let b = match i % 7 {
                0 => Value::Null,
                _ => Value::Decimal(Dec::new((i * 37 % 900 - 300) as i128, 2)),
            };
            vec![Value::Int(i), a, b]
        })
        .collect();
    db.bulk_load(&t, rows).unwrap();
    (db, t)
}

#[test]
fn guarded_division_never_fails_and_unguarded_division_fails_alike() {
    let (_db, t) = division_table();
    let ratio_small = || Expr::lt(Expr::div(Expr::col(2), Expr::col(1)), Expr::dec("1.50"));
    let nonzero = || Expr::ne(Expr::col(1), Expr::int(0));

    // Guarded by an earlier conjunct: the division never sees a zero.
    let (records, passed, errors) = compare(&t, &[nonzero(), ratio_small()], "guard conjunct");
    assert_eq!((records, errors), (300, 0));
    assert!(passed > 0 && passed < records);

    // Guarded inside one conjunct: AND stops at the FALSE guard, but a
    // NULL guard does not stop it, and then the division has to run.
    let guarded = Expr::and(vec![nonzero(), ratio_small()]);
    let (_, passed_and, errors) = compare(&t, &[guarded], "guard inside AND");
    assert_eq!((passed_and, errors), (passed, 0));
    let guarded_or = Expr::or(vec![Expr::eq(Expr::col(1), Expr::int(0)), ratio_small()]);
    let (_, _, errors) = compare(&t, &[guarded_or], "guard inside OR");
    assert_eq!(errors, 0);

    // Unguarded: every zero divisor under a non-NULL dividend is the
    // tree-walker's error, record by record (`compare` checked equality).
    let (_, _, errors) = compare(&t, &[ratio_small()], "unguarded");
    assert!(errors > 0, "zero divisors exist");
    // And the error is the arithmetic one, not a VM artefact.
    let row = [
        Value::Int(0),
        Value::Int(0),
        Value::Decimal(Dec::new(100, 2)),
    ];
    assert!(matches!(
        by_tree_walker(&[ratio_small()], &row),
        Err(Error::Arithmetic(_))
    ));
}

/// The aggregate inputs `plan`'s scans aggregate (over table columns).
fn agg_inputs(plan: &Plan, out: &mut Vec<(String, Expr)>) {
    match plan {
        Plan::AggScan(a) => {
            let inputs = a.aggs.iter().filter_map(|i| i.input.clone());
            out.extend(inputs.map(|e| (a.scan.table.clone(), e)));
        }
        Plan::Scan(_) => {}
        Plan::LookupJoin(j) => agg_inputs(&j.outer, out),
        Plan::HashJoin(j) => {
            agg_inputs(&j.left, out);
            agg_inputs(&j.right, out);
        }
        Plan::HashAgg(a) => agg_inputs(&a.input, out),
        Plan::Project(p) => agg_inputs(&p.input, out),
        Plan::Filter(f) => agg_inputs(&f.input, out),
        Plan::Sort(s) => agg_inputs(&s.input, out),
        Plan::Limit { input, .. } => agg_inputs(input, out),
        Plan::Exchange(e) => agg_inputs(&e.child, out),
    }
}

/// `e`'s value on every record of `table`'s primary index through the
/// value-returning VM a Page Store folds inputs with, against the
/// tree-walker on the decoded record: the same value, encoded byte for
/// byte the same, or the same class of error. Returns (records, NULLs,
/// errors).
fn compare_values(table: &Table, e: &Expr, what: &str) -> (usize, usize, usize) {
    let index = &table.primary;
    let layout = &index.tree.leaf_layout;
    let identity: Vec<u16> = (0..layout.n_cols() as u16).collect();
    let program = CompiledPredicate::compile(&lower(e).unwrap(), layout, &identity).unwrap();
    let mut offsets = Vec::new();
    let (mut records, mut nulls, mut errors) = (0, 0, 0);
    let mut page = index
        .tree
        .seek_leaf(index.store.as_ref(), &ScanRange::full())
        .unwrap()
        .unwrap();
    loop {
        for rec in page.iter_chain() {
            let rec = RecordView::parse(rec.unwrap(), layout).unwrap();
            rec.fill_offsets(&mut offsets);
            let vm = program.eval_value(&rec, &offsets);
            let tree = eval(e, &rec.values());
            match (&vm, &tree) {
                (Ok(a), Ok(b)) => {
                    let (mut x, mut y) = (Vec::new(), Vec::new());
                    encode_value(a, &mut x);
                    encode_value(b, &mut y);
                    assert_eq!(x, y, "{what}: record {records}: {a:?} vs {b:?}");
                    nulls += a.is_null() as usize;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(
                        std::mem::discriminant(a),
                        std::mem::discriminant(b),
                        "{what}: record {records}"
                    );
                    errors += 1;
                }
                _ => panic!("{what}: record {records}: {vm:?} vs {tree:?}"),
            }
            records += 1;
        }
        match page.next() {
            NO_PAGE => return (records, nulls, errors),
            next => page = index.store.read(next).unwrap(),
        }
    }
}

#[test]
fn the_value_vm_agrees_with_the_tree_walker_on_every_aggregate_input() {
    let db = TaurusDb::new(ClusterConfig::default());
    taurus::tpch::load(&db, 0.002, 11).unwrap();
    let session = Session::new(&db).with_ndp(false);
    let mut inputs = Vec::new();
    for (name, text) in taurus::sql::tpch_sql::all() {
        let taurus::sql::Statement::Select(select) = taurus::sql::parse(text).unwrap() else {
            panic!("{name} is a SELECT");
        };
        agg_inputs(&taurus::sql::bind(&session, &select).unwrap(), &mut inputs);
    }
    let programs = inputs
        .iter()
        .filter(|(_, e)| !matches!(e, Expr::Col(_)))
        .count();
    // Q1's two products, Q6's, Q15's.
    assert!(programs >= 4, "{inputs:?}");
    for (table, e) in &inputs {
        let (records, _, errors) = compare_values(&db.table(table).unwrap(), e, &format!("{e}"));
        assert!(
            records > 1000 && errors == 0,
            "{e}: {records} records, {errors} errors"
        );
    }

    // NULL inputs, and decimals that leave `i128` or the finest scale:
    // NULL on both sides, an `Arithmetic` error on both sides.
    let (_db, t) = division_table();
    let b = || Expr::col(2);
    let huge = Expr::lit(Value::Decimal(Dec::new(10i128.pow(37), 0)));
    let scale_32 = (0..15).fold(b(), |p, _| Expr::mul(p, b()));
    for (e, nulls, overflows) in [
        (Expr::mul(b(), Expr::col(1)), true, false),
        (Expr::mul(b(), Expr::sub(Expr::int(1), b())), true, false),
        (Expr::mul(huge, b()), true, true),
        (scale_32, true, true),
        (Expr::div(b(), Expr::col(1)), true, true),
    ] {
        let (records, null, errors) = compare_values(&t, &e, &format!("{e}"));
        assert_eq!(records, 300);
        assert_eq!(null > 0, nulls, "{e}");
        assert_eq!(errors > 0, overflows, "{e}");
    }
}
