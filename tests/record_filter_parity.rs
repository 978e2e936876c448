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
use taurus::expr::vm::{CompiledPredicate, RecordFilter};
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
    let filter = RecordFilter::new(conjuncts, layout).unwrap();
    let mut offsets = Vec::new();
    let (mut records, mut survivors, mut errors) = (0, 0, 0);
    let mut page = index
        .tree
        .seek_leaf(index.store.as_ref(), &ScanRange::full())
        .unwrap()
        .unwrap();
    loop {
        for rec in page.iter_chain() {
            let rec = RecordView::parse(rec.unwrap(), layout).unwrap();
            let vm = filter.passes(&rec, &mut offsets);
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

/// A small deterministic generator (xorshift), so every run draws the same
/// expressions and rows.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// A value of any type: NULLs, Int/Decimal/Double near zero and at
    /// their extremes, dates, and strings with pad spaces and multi-byte
    /// characters.
    fn value(&mut self) -> Value {
        match self.below(12) {
            0 => Value::Null,
            1 => Value::Int(self.below(7) as i64 - 3),
            2 => Value::Int([i64::MAX, i64::MIN, 1 << 40][self.below(3)]),
            3 => Value::Decimal(Dec::new(self.below(2001) as i128 - 1000, 2)),
            4 => Value::Decimal(Dec::new(
                [10i128.pow(37), -(10i128.pow(30)), 7][self.below(3)],
                [0, 4, 9][self.below(3)],
            )),
            5 => Value::Double([0.0, -2.5, 1e300, 3.25][self.below(4)]),
            6 => Value::Date(taurus::common::Date32(9000 + self.below(400) as i32)),
            7 => Value::Date(taurus::common::Date32([i32::MAX, i32::MIN][self.below(2)])),
            _ => Value::str(["AB", "AB  ", "", "éa", "aé", "MAIL", "%x_"][self.below(7)]),
        }
    }

    fn pattern(&mut self) -> String {
        ["%", "A%", "%B", "_B%", "é%", "%a_", "AB", ""][self.below(8)].to_string()
    }

    /// A random expression over an 8-column row, `depth` levels deep at
    /// most: every node kind, any operand type.
    fn expr(&mut self, depth: usize) -> Expr {
        if depth == 0 || self.chance(25) {
            return match self.below(3) {
                0 => Expr::lit(self.value()),
                _ => Expr::col(self.below(8)),
            };
        }
        let d = depth - 1;
        let cmp = [Expr::eq, Expr::ne, Expr::lt, Expr::le, Expr::gt, Expr::ge];
        let arith = [Expr::add, Expr::sub, Expr::mul, Expr::div];
        match self.below(14) {
            0 | 1 => cmp[self.below(6)](self.expr(d), self.expr(d)),
            2 => {
                let parts = (0..1 + self.below(3)).map(|_| self.expr(d)).collect();
                match self.chance(50) {
                    true => Expr::and(parts),
                    false => Expr::or(parts),
                }
            }
            3 => Expr::not(self.expr(d)),
            4 | 5 => arith[self.below(4)](self.expr(d), self.expr(d)),
            6 => Expr::Neg(Box::new(self.expr(d))),
            7 => Expr::Like {
                expr: Box::new(self.expr(d)),
                pattern: self.pattern(),
                negated: self.chance(50),
            },
            8 => Expr::InList {
                expr: Box::new(self.expr(d)),
                list: (0..1 + self.below(4)).map(|_| self.value()).collect(),
                negated: self.chance(50),
            },
            9 => Expr::between(self.expr(d), self.expr(d), self.expr(d)),
            10 => Expr::IsNull {
                expr: Box::new(self.expr(d)),
                negated: self.chance(50),
            },
            11 => Expr::ExtractYear(Box::new(self.expr(d))),
            12 => Expr::Substr {
                expr: Box::new(self.expr(d)),
                from: self.below(4),
                len: self.below(4),
            },
            _ => Expr::Case {
                branches: (0..1 + self.below(3))
                    .map(|_| (self.expr(d), self.expr(d)))
                    .collect(),
                else_: Box::new(self.expr(d)),
            },
        }
    }
}

/// The kind of an outcome: the value's encoding, or the error's variant.
fn outcome(r: &Result<Value>) -> std::result::Result<Vec<u8>, std::mem::Discriminant<Error>> {
    match r {
        Ok(v) => {
            let mut b = Vec::new();
            encode_value(v, &mut b);
            Ok(b)
        }
        Err(e) => Err(std::mem::discriminant(e)),
    }
}

/// The operators' engine on decoded rows: random expressions over random
/// rows give, on the record VM, the value the tree-walker gives, or an
/// error of the same kind, as values and as predicates. The draw covers
/// NULLs, Int/Decimal/Double mixes, incomparable types, integer and
/// decimal overflow, division by zero, LIKE, IN (with NULL items),
/// SUBSTRING through multi-byte characters, EXTRACT, and CASE whose
/// conditions are NULL, FALSE or never TRUE.
#[test]
fn the_row_vm_agrees_with_the_tree_walker_on_random_expressions() {
    let mut draw = Draw(0x7a0c_91d3_55e1_0b27);
    let rows: Vec<Vec<Value>> = (0..24)
        .map(|_| (0..8).map(|_| draw.value()).collect())
        .collect();
    let (mut values, mut nulls, mut arithmetic, mut typed, mut cases) = (0, 0, 0, 0, 0);
    for _ in 0..4000 {
        let e = draw.expr(4);
        let program = CompiledPredicate::for_rows(&e).unwrap();
        cases += matches!(e, Expr::Case { .. }) as usize;
        for row in &rows {
            let (vm, tree) = (program.eval_row(row), eval(&e, row));
            assert_eq!(
                outcome(&vm),
                outcome(&tree),
                "{e} on {row:?}: {vm:?} vs {tree:?}"
            );
            let (vm_pass, tree_pass) = (program.row_passes(row), eval_pred(&e, row));
            assert_eq!(
                vm_pass.map_err(|e| std::mem::discriminant(&e)),
                tree_pass
                    .map(|p| p == Some(true))
                    .map_err(|e| std::mem::discriminant(&e)),
                "{e} as a predicate on {row:?}"
            );
            match tree {
                Ok(Value::Null) => nulls += 1,
                Ok(_) => values += 1,
                Err(Error::Arithmetic(_)) => arithmetic += 1,
                Err(Error::Type(_)) => typed += 1,
                Err(_) => {}
            }
        }
    }
    // Every outcome class was drawn, many times over.
    for (what, n) in [
        ("values", values),
        ("NULLs", nulls),
        ("arithmetic errors", arithmetic),
        ("type errors", typed),
        ("CASE roots", cases),
    ] {
        assert!(n > 50, "{what}: {n}");
    }
}

/// Every expression the operators of `plan` evaluate or read at run time:
/// each scan conjunct (a residual one on every record, a pushed one on
/// the records storage did not filter), aggregate inputs and group keys,
/// lookup-join `on` residuals and inner predicates, filter predicates and
/// projections. Bare columns count: they compile too, though an operator
/// reads them in place.
fn operator_exprs<'p>(plan: &'p Plan, out: &mut Vec<&'p Expr>) {
    match plan {
        Plan::Scan(s) => out.extend(&s.predicate),
        Plan::AggScan(a) => {
            out.extend(&a.scan.predicate);
            out.extend(a.aggs.iter().filter_map(|i| i.input.as_ref()));
        }
        Plan::LookupJoin(j) => {
            out.extend(j.on.iter().chain(&j.inner_predicate));
            operator_exprs(&j.outer, out);
        }
        Plan::HashJoin(j) => {
            operator_exprs(&j.left, out);
            operator_exprs(&j.right, out);
        }
        Plan::HashAgg(a) => {
            out.extend(&a.group);
            out.extend(a.aggs.iter().filter_map(|i| i.input.as_ref()));
            operator_exprs(&a.input, out);
        }
        Plan::Project(p) => {
            out.extend(&p.exprs);
            operator_exprs(&p.input, out);
        }
        Plan::Filter(f) => {
            out.push(&f.predicate);
            operator_exprs(&f.input, out);
        }
        Plan::Sort(s) => operator_exprs(&s.input, out),
        Plan::Limit { input, .. } => operator_exprs(input, out),
        Plan::Exchange(e) => operator_exprs(&e.child, out),
    }
}

/// The census behind "one engine at run time": with NDP off and on, every
/// expression an operator of the 22 TPC-H statements evaluates compiles
/// to a record-VM program, 157 of 157 (SF 0.005). Four of them are CASE
/// (Q8's projection, Q12's two SUM inputs, Q14's SUM input). The largest
/// program is Q19's.
#[test]
fn every_tpch_operator_expression_compiles() {
    let db = TaurusDb::new(ClusterConfig::small_for_tests());
    taurus::tpch::load(&db, 0.005, 7).unwrap();
    for ndp in [false, true] {
        let session = Session::new(&db).with_ndp(ndp);
        let (mut exprs, mut cases, mut max_regs) = (0, 0, 0);
        for (name, text) in taurus::sql::tpch_sql::all() {
            let taurus::sql::Statement::Select(select) = taurus::sql::parse(text).unwrap() else {
                panic!("{name} is a SELECT");
            };
            let plan = taurus::sql::bind(&session, &select).unwrap();
            let mut found = Vec::new();
            operator_exprs(&plan, &mut found);
            for e in found {
                let program = CompiledPredicate::for_rows(e)
                    .unwrap_or_else(|err| panic!("{name} (ndp {ndp}): {e}: {err}"));
                exprs += 1;
                let mut case = false;
                e.walk(&mut |x| case |= matches!(x, Expr::Case { .. }));
                cases += case as usize;
                max_regs = max_regs.max(program.n_regs);
            }
        }
        eprintln!("ndp {ndp}: {exprs} of {exprs} operator expressions compiled ({cases} CASE, at most {max_regs} registers)");
        assert_eq!((exprs, cases), (157, 4), "ndp {ndp}");
        assert!(max_regs <= 64, "ndp {ndp}: {max_regs} registers");
    }
}
