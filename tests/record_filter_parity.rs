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
//! The value-returning entry of the same VM agrees with the tree-walker
//! value for value on every aggregate input of the TPC-H statements, and
//! on NULL inputs and decimal overflow; on columns of fixed types, the
//! typed programs' record entry, row entry and folds into aggregate
//! states (what a Page Store and the SQL node fold inputs with) agree
//! with it on random expressions and on every operation over the edges
//! of each type's range.

use std::sync::Arc;

use taurus::btree::{ScanRange, TreeStore};
use taurus::common::codec::put_value;
use taurus::common::schema::{Column, TableSchema};
use taurus::common::{ClusterConfig, DataType, Dec, Error, Result, Value, DEC_MAX_SCALE};
use taurus::expr::agg::{AggFunc, AggState};
use taurus::expr::ast::Expr;
use taurus::expr::compile::lower;
use taurus::expr::eval::{eval, eval_pred};
use taurus::expr::vm::{CompiledPredicate, RecordFilter};
use taurus::ndp::{Table, TaurusDb};
use taurus::optimizer::plan::Plan;
use taurus::page::{encode_record, RecordLayout, RecordMeta, RecordView, NO_PAGE};
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
    let (mut records, mut survivors, mut errors) = (0, 0, 0);
    let mut page = index
        .tree
        .seek_leaf(index.store.as_ref(), &ScanRange::full())
        .unwrap()
        .unwrap();
    loop {
        for rec in page.iter_chain() {
            let rec = RecordView::parse(rec.unwrap(), layout).unwrap();
            let vm = filter.passes(&rec);
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

/// The aggregate inputs `plan`'s scans fold (over table columns).
fn agg_inputs(plan: &Plan, out: &mut Vec<(String, Expr)>) {
    match plan {
        Plan::Scan(_) => {}
        Plan::LookupJoin(j) => agg_inputs(&j.outer, out),
        Plan::HashJoin(j) => {
            agg_inputs(&j.left, out);
            agg_inputs(&j.right, out);
        }
        Plan::HashAgg(a) => match (a.scan(), a.table_aggs()) {
            (Some(scan), Some(aggs)) => {
                let inputs = aggs.into_iter().filter_map(|i| i.input);
                out.extend(inputs.map(|e| (scan.table.clone(), e)));
            }
            _ => agg_inputs(&a.input, out),
        },
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
    let (mut records, mut nulls, mut errors) = (0, 0, 0);
    let mut page = index
        .tree
        .seek_leaf(index.store.as_ref(), &ScanRange::full())
        .unwrap()
        .unwrap();
    loop {
        for rec in page.iter_chain() {
            let rec = RecordView::parse(rec.unwrap(), layout).unwrap();
            let vm = program.eval_value(&rec);
            let tree = eval(e, &rec.values());
            match (&vm, &tree) {
                (Ok(a), Ok(b)) => {
                    let (mut x, mut y) = (Vec::new(), Vec::new());
                    put_value(&mut x, a);
                    put_value(&mut y, b);
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
    /// their extremes (decimals at the edges of `i64` and `i128`, and at
    /// scales up to `DEC_MAX_SCALE`), dates, and strings with pad spaces
    /// and multi-byte characters.
    fn value(&mut self) -> Value {
        match self.below(13) {
            0 => Value::Null,
            1 => Value::Int(self.below(7) as i64 - 3),
            2 => Value::Int([i64::MAX, i64::MIN, 1 << 40][self.below(3)]),
            3 => Value::Decimal(Dec::new(self.below(2001) as i128 - 1000, 2)),
            4 => Value::Decimal(Dec::new(
                [10i128.pow(37), -(10i128.pow(30)), 7][self.below(3)],
                [0, 4, 9][self.below(3)],
            )),
            5 => Value::Decimal(Dec::new(
                [
                    i64::MAX as i128,
                    i64::MIN as i128,
                    i128::MAX,
                    i128::MIN + 1,
                    self.below(2001) as i128 - 1000,
                ][self.below(5)],
                [0, 2, DEC_MAX_SCALE - 4, DEC_MAX_SCALE][self.below(4)],
            )),
            6 => Value::Double([0.0, -2.5, 1e300, 3.25][self.below(4)]),
            7 => Value::Date(taurus::common::Date32(9000 + self.below(400) as i32)),
            8 => Value::Date(taurus::common::Date32([i32::MAX, i32::MIN][self.below(2)])),
            _ => Value::str(["AB", "AB  ", "", "éa", "aé", "MAIL", "%x_"][self.below(7)]),
        }
    }

    /// A value of column type `dtype` a record can store (NULL in one
    /// draw of eight): near zero and at the edges of its range.
    fn of_type(&mut self, dtype: DataType) -> Value {
        if self.chance(12) {
            return Value::Null;
        }
        let small = self.below(2001) as i64 - 1000;
        match dtype {
            DataType::Int => Value::Int([small, i32::MAX as i64, i32::MIN as i64][self.below(3)]),
            DataType::BigInt => Value::Int([small, i64::MAX, i64::MIN, 1 << 40][self.below(4)]),
            DataType::Decimal { scale, .. } => Value::Decimal(Dec::new(
                [small, i64::MAX, i64::MIN, 1][self.below(4)] as i128,
                scale,
            )),
            DataType::Date => Value::Date(taurus::common::Date32(
                [9000 + self.below(400) as i32, i32::MAX, i32::MIN][self.below(3)],
            )),
            DataType::Char(_) => Value::str(["AB", "AB  ", "", "éa", "MAIL"][self.below(5)]),
            DataType::Varchar(_) => Value::str(["AB", "", "aé", "%x_", "MAIL"][self.below(5)]),
            DataType::Double => Value::Double([0.0, -2.5, 1e300, 3.25][self.below(4)]),
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
            put_value(&mut b, v);
            Ok(b)
        }
        Err(e) => Err(std::mem::discriminant(e)),
    }
}

/// The type a row's value gives its column: a NULL takes one of every
/// family in turn, by the column's position.
fn type_of(v: &Value, col: usize) -> DataType {
    let dec = |scale| DataType::Decimal {
        precision: 38,
        scale,
    };
    match v {
        Value::Null => [
            DataType::BigInt,
            DataType::Varchar(8),
            DataType::Date,
            dec(2),
        ][col % 4],
        Value::Int(_) => DataType::BigInt,
        Value::Decimal(d) => dec(d.scale),
        Value::Date(_) => DataType::Date,
        Value::Str(s) => DataType::Varchar(s.len() as u16),
        Value::Double(_) => DataType::Double,
    }
}

/// The operators' engine on decoded rows: random expressions over random
/// rows, each row's columns typed by its values. A program compiles
/// exactly where `Expr::dtype` types the expression, and one that
/// compiles gives, on the record VM, the value the tree-walker gives, or
/// an error of the same kind, as values and as predicates. The draw
/// covers NULLs, Int/Decimal/Double mixes, incomparable types (rejected
/// when they compile), integer and decimal overflow, division by zero,
/// LIKE, IN (with NULL items), SUBSTRING through multi-byte characters,
/// EXTRACT, and CASE whose conditions are NULL, FALSE or never TRUE.
#[test]
fn the_row_vm_agrees_with_the_tree_walker_on_random_expressions() {
    let mut draw = Draw(0x7a0c_91d3_55e1_0b27);
    let rows: Vec<(Vec<Value>, Vec<DataType>)> = (0..24)
        .map(|_| {
            let row: Vec<Value> = (0..8).map(|_| draw.value()).collect();
            let types = row.iter().enumerate().map(|(i, v)| type_of(v, i)).collect();
            (row, types)
        })
        .collect();
    let (mut values, mut nulls, mut arithmetic, mut rejected, mut cases) = (0, 0, 0, 0, 0);
    for _ in 0..4000 {
        let drawn = draw.expr(4);
        for (row, types) in &rows {
            // A CASE also as the binder writes it, its values converted
            // to one type.
            let bound = match &drawn {
                Expr::Case { branches, else_ } => {
                    Expr::typed_case(branches.clone(), (**else_).clone(), types).ok()
                }
                _ => None,
            };
            for e in std::iter::once(&drawn).chain(&bound) {
                let program = match (CompiledPredicate::for_rows(e, types), e.dtype(types)) {
                    (Ok(program), Ok(_)) => program,
                    (Err(Error::Verify(_)), Err(Error::Type(_))) => {
                        rejected += 1;
                        continue;
                    }
                    (program, dtype) => panic!(
                        "{e} over {types:?}: compiles {:?}, types {dtype:?}",
                        program.err()
                    ),
                };
                cases += matches!(e, Expr::Case { .. }) as usize;
                let (vm, tree) = (program.eval_row(row), eval(e, row));
                assert_eq!(
                    outcome(&vm),
                    outcome(&tree),
                    "{e} on {row:?}: {vm:?} vs {tree:?}"
                );
                let (vm_pass, tree_pass) = (program.row_passes(row), eval_pred(e, row));
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
                    Err(_) => {}
                }
            }
        }
    }
    // Every outcome class was drawn, many times over.
    for (what, n) in [
        ("values", values),
        ("NULLs", nulls),
        ("arithmetic errors", arithmetic),
        ("rejected at compile", rejected),
        ("compiled CASE roots", cases),
    ] {
        assert!(n > 50, "{what}: {n}");
    }
}

/// A fold's outcome: the state's encoding, or the error's variant.
fn folded(r: Result<AggState>) -> std::result::Result<Vec<u8>, std::mem::Discriminant<Error>> {
    match r {
        Ok(state) => {
            let mut b = Vec::new();
            state.encode(&mut b).unwrap();
            Ok(b)
        }
        Err(e) => Err(std::mem::discriminant(&e)),
    }
}

/// Columns of fixed types: integers, decimals at scale 2 and at
/// `DEC_MAX_SCALE`, dates, strings, doubles.
const TYPED_COLUMNS: [DataType; 8] = [
    DataType::Int,
    DataType::BigInt,
    DataType::Decimal {
        precision: 15,
        scale: 2,
    },
    DataType::Decimal {
        precision: 18,
        scale: DEC_MAX_SCALE,
    },
    DataType::Date,
    DataType::Char(4),
    DataType::Varchar(6),
    DataType::Double,
];

/// Is `v` a value of type `t`? A decimal must be at `t`'s scale.
fn has_type(v: &Value, t: DataType) -> bool {
    match (v, t) {
        (Value::Int(_), DataType::Int | DataType::BigInt) => true,
        (Value::Decimal(d), DataType::Decimal { scale, .. }) => d.scale == scale,
        (Value::Date(_), DataType::Date) => true,
        (Value::Str(_), DataType::Char(_) | DataType::Varchar(_)) => true,
        (Value::Double(_), DataType::Double) => true,
        _ => false,
    }
}

/// The typed VM against the tree-walker, on columns of fixed types: the
/// programs are typed by the columns (integers, decimals at scale 2 and
/// at `DEC_MAX_SCALE`, dates, strings, doubles), so integer/decimal,
/// date/integer and decimal/double mixes meet typed ops, compile-time
/// conversions and constants taken into ops, with NULLs in every column.
/// Every entry gives what `eval` gives, errors included: the record entry
/// over the encoded row ([`CompiledPredicate::eval_value`], as a Page
/// Store and a scan run it), the row entry ([`CompiledPredicate::eval_row`],
/// [`CompiledPredicate::row_passes`]), and the typed folds into an
/// aggregate state of each function ([`CompiledPredicate::fold_row`],
/// [`CompiledPredicate::fold_record`]) against `AggState::update` of the
/// value. A program compiles where `Expr::dtype` types its expression.
/// One row in seven holds a value off its column's type: a program that
/// loads it fails with [`Error::Type`], never a NULL or another value.
#[test]
fn typed_programs_agree_with_the_tree_walker_on_typed_columns() {
    let types = TYPED_COLUMNS;
    let layout = RecordLayout::new(types.to_vec());
    let identity: Vec<u16> = (0..types.len() as u16).collect();
    let mut draw = Draw(0x51ed_2701_c0de_4a11);
    // Rows of the columns' types, each with its record; then rows with
    // one value off its column's type, which have none.
    let mut rows: Vec<(Vec<Value>, Option<Vec<u8>>, Option<usize>)> = (0..24)
        .map(|_| {
            let row: Vec<Value> = types.iter().map(|&t| draw.of_type(t)).collect();
            let mut rec = Vec::new();
            encode_record(&layout, &row, RecordMeta::ordinary(1), None, &mut rec).unwrap();
            (row, Some(rec), None)
        })
        .collect();
    for i in 0..4 {
        let mut row = rows[i].0.clone();
        let at = draw.below(types.len());
        row[at] = [
            Value::Int(5),
            Value::Decimal(Dec::new(5, 1)),
            Value::str("x"),
        ][i % 3]
            .clone();
        if has_type(&row[at], types[at]) {
            row[at] = Value::Date(taurus::common::Date32(7));
        }
        rows.push((row, None, Some(at)));
    }
    let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];
    let (mut compiled, mut values, mut nulls, mut arithmetic, mut folds) = (0, 0, 0, 0, 0);
    let (mut rejected, mut off_type) = (0, 0);
    // Random expressions, then every binary arithmetic and comparison
    // and every negation over the columns and literals at the edges of
    // their ranges, so each typed op meets each edge its checks guard.
    let edges = || {
        let lits = [
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Int(1),
            Value::Decimal(Dec::new(i128::MAX, 2)),
            Value::Decimal(Dec::new(i128::MIN + 1, 2)),
            Value::Decimal(Dec::new(i64::MAX as i128, 2)),
            Value::Decimal(Dec::new(7, DEC_MAX_SCALE)),
            Value::Decimal(Dec::new(-3, 0)),
            Value::Double(1e300),
            Value::Date(taurus::common::Date32(i32::MAX)),
            Value::Null,
        ];
        let leaves: Vec<Expr> = (0..types.len())
            .map(Expr::col)
            .chain(lits.into_iter().map(Expr::lit))
            .collect();
        let mut out = Vec::new();
        for a in &leaves {
            out.push(Expr::Neg(Box::new(a.clone())));
            for b in &leaves {
                for op in [
                    Expr::add,
                    Expr::sub,
                    Expr::mul,
                    Expr::div,
                    Expr::lt,
                    Expr::eq,
                ] {
                    out.push(op(a.clone(), b.clone()));
                }
            }
        }
        out
    };
    let drawn: Vec<Expr> = (0..3000).map(|_| draw.expr(4)).collect();
    let n_drawn = drawn.len();
    for (k, e) in drawn.into_iter().chain(edges()).enumerate() {
        let row_program = CompiledPredicate::for_rows(&e, &types);
        let record_program = CompiledPredicate::compile(&lower(&e).unwrap(), &layout, &identity);
        let (row_program, record_program) = match (row_program, record_program, e.dtype(&types)) {
            (Ok(row), Ok(record), Ok(_)) => (row, record),
            (Err(Error::Verify(_)), Err(Error::Verify(_)), Err(Error::Type(_))) => {
                rejected += 1;
                continue;
            }
            (row, record, dtype) => panic!(
                "{e}: compiles for rows {:?}, for records {:?}, types {dtype:?}",
                row.err(),
                record.err()
            ),
        };
        compiled += 1;
        // An edge reads its columns unconditionally.
        let edge = k >= n_drawn;
        for (row, rec, off) in &rows {
            let tree = eval(&e, row);
            let vm = row_program.eval_row(row);
            if let Some(at) = *off {
                // A row off its types: a load of the off value fails.
                match &vm {
                    Err(Error::Type(_)) => off_type += 1,
                    vm => assert!(
                        !(edge && e.columns().contains(&at)) && outcome(vm) == outcome(&tree),
                        "{e} on {row:?} (value {at} off its type): {vm:?} vs {tree:?}"
                    ),
                }
                continue;
            }
            assert_eq!(
                outcome(&vm),
                outcome(&tree),
                "{e} on {row:?}: {vm:?} vs {tree:?}"
            );
            assert_eq!(
                row_program
                    .row_passes(row)
                    .map_err(|e| std::mem::discriminant(&e)),
                eval_pred(&e, row)
                    .map(|p| p == Some(true))
                    .map_err(|e| std::mem::discriminant(&e)),
                "{e} as a predicate on {row:?}"
            );
            match &tree {
                Ok(Value::Null) => nulls += 1,
                Ok(_) => values += 1,
                Err(Error::Arithmetic(_)) => arithmetic += 1,
                Err(_) => {}
            }
            let record = rec.as_ref().map(|r| RecordView::new(r, &layout));
            let decoded = record.map(|r| r.values());
            if let (Some(rec), Some(decoded)) = (&record, &decoded) {
                let (vm, tree) = (record_program.eval_value(rec), eval(&e, decoded));
                assert_eq!(outcome(&vm), outcome(&tree), "{e} on record {decoded:?}");
            }
            for func in funcs {
                let by_value = |row: &[Value]| {
                    let mut state = AggState::new(func, None);
                    eval(&e, row).map(|v| {
                        state.update(&v);
                        state
                    })
                };
                let mut state = AggState::new(func, None);
                let typed_fold = row_program.fold_row(row, &mut state).map(|_| state);
                assert_eq!(
                    folded(typed_fold),
                    folded(by_value(row)),
                    "{func:?} of {e} on {row:?}"
                );
                if let (Some(rec), Some(decoded)) = (&record, &decoded) {
                    let mut state = AggState::new(func, None);
                    let typed_fold = record_program.fold_record(rec, &mut state).map(|_| state);
                    assert_eq!(
                        folded(typed_fold),
                        folded(by_value(decoded)),
                        "{func:?} of {e} on record {decoded:?}"
                    );
                }
                folds += 1;
            }
        }
    }
    for (what, n) in [
        ("compiled programs", compiled),
        ("rejected at compile", rejected),
        ("values", values),
        ("NULLs", nulls),
        ("arithmetic errors", arithmetic),
        ("folds", folds),
        ("loads off their type", off_type),
    ] {
        assert!(n > 50, "{what}: {n}");
    }
}

/// The types plans are typed by are the types values have, on the typed
/// columns. `Expr::dtype`, where it gives a type, gives that of every
/// non-NULL value `eval` returns, decimal scale included: over random
/// expressions (CASE among them), every binary arithmetic between two
/// columns (an integer over a decimal among them), and a CASE over every
/// two columns whose types join (a decimal at scale 0 among them), its
/// values converted to the join (`Expr::typed_case`, as the binder writes
/// it). `AggFunc::output_type` gives the type of what
/// `AggState::finalize` returns after a state typed by its input's type
/// folds drawn values of that type, for each function and column type (a
/// decimal at scale 0 too), within `i64`; a sum past it fails.
#[test]
fn plan_types_are_the_types_values_have() {
    let mut draw = Draw(0x3c6e_f372_fe94_f82b);
    // The typed columns and a decimal at scale 0, which an integer joins
    // to at its own scale.
    let mut columns = TYPED_COLUMNS.to_vec();
    columns.push(DataType::Decimal {
        precision: 18,
        scale: 0,
    });
    let rows: Vec<Vec<Value>> = (0..24)
        .map(|_| columns.iter().map(|&t| draw.of_type(t)).collect())
        .collect();
    let n = columns.len();
    let arith = [Expr::add, Expr::sub, Expr::mul, Expr::div];
    let pairs = (0..n)
        .flat_map(|a| (0..n).flat_map(move |b| arith.map(|op| op(Expr::col(a), Expr::col(b)))));
    let mut cases = Vec::new();
    for (a, &ta) in columns.iter().enumerate() {
        for (b, &tb) in columns.iter().enumerate() {
            let (ta, tb) = (Some(ta), Some(tb));
            let branches = vec![(Expr::lt(Expr::col(0), Expr::int(0)), Expr::col(a))];
            let case = Expr::typed_case(branches, Expr::col(b), &columns);
            match taurus::expr::ast::join_types(ta, tb) {
                Ok(Some(joined)) => {
                    let case = case.unwrap_or_else(|e| panic!("{ta:?} and {tb:?}: {e}"));
                    assert_eq!(case.dtype(&columns).unwrap(), joined, "{case}");
                    cases.push(case);
                }
                _ => assert!(case.is_err(), "{ta:?} and {tb:?} do not join"),
            }
        }
    }
    let drawn: Vec<Expr> = (0..3000).map(|_| draw.expr(4)).collect();
    let (mut checked, mut case_values) = (0, 0);
    for e in drawn.into_iter().chain(pairs).chain(cases) {
        let Ok(dtype) = e.dtype(&columns) else {
            continue;
        };
        let mut case = false;
        e.walk(&mut |x| case |= matches!(x, Expr::Case { .. }));
        for row in &rows {
            match eval(&e, row) {
                Ok(v) if !v.is_null() => {
                    assert!(
                        has_type(&v, dtype),
                        "{e} is {dtype:?}, on {row:?} gives {v:?}"
                    );
                    checked += 1;
                    case_values += case as usize;
                }
                _ => {}
            }
        }
    }
    assert!(
        checked > 1000 && case_values > 100,
        "{checked}, {case_values}"
    );

    // Two strings join to a VARCHAR as wide as the wider.
    assert_eq!(
        taurus::expr::ast::join_types(Some(DataType::Char(4)), Some(DataType::Varchar(6))).unwrap(),
        Some(DataType::Varchar(6))
    );
    let funcs = [
        AggFunc::CountStar,
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
    ];
    for t in columns {
        for func in funcs {
            let mut state = AggState::new(func, Some(t));
            for _ in 0..16 {
                let v = draw.of_type(t);
                let past_i64 = match &v {
                    Value::Int(x) => x.unsigned_abs() > 1 << 40,
                    Value::Decimal(d) => d.raw.unsigned_abs() > 1 << 40,
                    _ => false,
                };
                if !past_i64 {
                    state.update(&v);
                }
            }
            let out = state.finalize().unwrap();
            match func.output_type(Some(t)) {
                Some(want) => assert!(
                    out.is_null() || has_type(&out, want),
                    "{func:?} over {t:?} is {want:?}, finalizes {out:?}"
                ),
                None => assert!(out.is_null(), "{func:?} over {t:?}: {out:?}"),
            }
            // An integer sum past `i64` fails as integer arithmetic does.
            if func == AggFunc::Sum && func.output_type(Some(t)) == Some(DataType::BigInt) {
                let mut state = AggState::new(func, Some(t));
                let max = match t {
                    DataType::Decimal { .. } => Value::Decimal(Dec::new(i64::MAX as i128, 0)),
                    _ => Value::Int(i64::MAX),
                };
                state.update(&max);
                assert_eq!(state.finalize().unwrap(), Value::Int(i64::MAX));
                state.update(&Value::Int(1));
                assert!(
                    matches!(state.finalize(), Err(Error::Arithmetic(_))),
                    "{t:?}: {:?}",
                    state.finalize()
                );
            }
        }
    }
}

/// Every expression the operators of `plan` evaluate or read at run time,
/// with the types of the values it reads: each scan conjunct (a residual
/// one on every record, a pushed one on the records storage did not
/// filter) and lookup-join inner predicate over its table's columns,
/// aggregate inputs and group keys, lookup-join `on` residuals, filter
/// predicates and projections over their input rows, typed as the
/// executor types them (the verifier's inference). Bare columns count:
/// they compile too, though an operator reads them in place.
fn operator_exprs<'p>(plan: &'p Plan, db: &TaurusDb, out: &mut Vec<(&'p Expr, Vec<DataType>)>) {
    let table = |name: &str| -> Vec<DataType> { db.table(name).unwrap().schema.dtypes() };
    // A scan an aggregation folds is typed by its columns (alone, one
    // carrying an aggregation decision infers no schema).
    let rows = |input: &Plan| -> Vec<DataType> {
        if let Plan::Scan(s) = input {
            return s.output.iter().map(|&c| table(&s.table)[c]).collect();
        }
        let schema = taurus::verify::infer_plan(input, db).schema.unwrap();
        schema.iter().map(|c| c.dtype).collect()
    };
    match plan {
        Plan::Scan(s) => out.extend(s.predicate.iter().map(|e| (e, table(&s.table)))),
        Plan::LookupJoin(j) => {
            let inner = table(&j.table);
            let mut joined = rows(&j.outer);
            joined.extend(j.inner_output.iter().map(|&c| inner[c]));
            out.extend(j.on.iter().map(|e| (e, joined.clone())));
            out.extend(j.inner_predicate.iter().map(|e| (e, inner.clone())));
            operator_exprs(&j.outer, db, out);
        }
        Plan::HashJoin(j) => {
            operator_exprs(&j.left, db, out);
            operator_exprs(&j.right, db, out);
        }
        Plan::HashAgg(a) => {
            let input = rows(&a.input);
            out.extend(a.group.iter().map(|e| (e, input.clone())));
            let inputs = a.aggs.iter().filter_map(|i| i.input.as_ref());
            out.extend(inputs.map(|e| (e, input.clone())));
            operator_exprs(&a.input, db, out);
        }
        Plan::Project(p) => {
            let input = rows(&p.input);
            out.extend(p.exprs.iter().map(|e| (e, input.clone())));
            operator_exprs(&p.input, db, out);
        }
        Plan::Filter(f) => {
            // Its rows are its input's; a pushed HAVING checks only under
            // the Filter it is the storage form of.
            out.push((&f.predicate, rows(plan)));
            operator_exprs(&f.input, db, out);
        }
        Plan::Sort(s) => operator_exprs(&s.input, db, out),
        Plan::Limit { input, .. } => operator_exprs(input, db, out),
        Plan::Exchange(e) => operator_exprs(&e.child, db, out),
    }
}

/// Do `a` and `b` type values of one class (integers, decimals at one
/// scale, dates, doubles, strings)?
fn same_class(a: DataType, b: DataType) -> bool {
    use DataType::*;
    match (a, b) {
        (Int | BigInt, Int | BigInt) | (Char(_) | Varchar(_), Char(_) | Varchar(_)) => true,
        (Decimal { scale: s, .. }, Decimal { scale: t, .. }) => s == t,
        _ => a == b,
    }
}

/// The census behind "one engine at run time": with NDP off and on, every
/// expression an operator of the 22 TPC-H statements evaluates compiles
/// to a record-VM program, 174 of 174 (SF 0.005), typed by the values it
/// reads, and its result is of the type `infer_plan` gives it (its
/// `Expr::dtype` over its input). Q1 has 18 of them: its predicate, its
/// five aggregate inputs (its SUMs; each AVG's COUNT is over a NOT NULL
/// column, so it is the `COUNT(*)`), its two group keys and the ten
/// columns of its Project, three of them an AVG's division. Q15's and
/// Q18's aggregations have one group key each, and Q16's
/// `COUNT(DISTINCT ps_suppkey)` counts its deduplicated argument. Four
/// are CASE (Q8's projection, Q12's two SUM inputs, Q14's SUM input), and
/// four are predicates the binder implies from a residual OR (one on each
/// of Q7's `nation` scans, Q19's `part` scan and its `lineitem` lookup).
/// The largest program is Q19's.
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
            operator_exprs(&plan, &db, &mut found);
            for (e, input) in found {
                let program = CompiledPredicate::for_rows(e, &input)
                    .unwrap_or_else(|err| panic!("{name} (ndp {ndp}): {e}: {err}"));
                let inferred = e.dtype(&input).unwrap();
                let result = program.result_type().unwrap();
                assert!(
                    same_class(result, inferred),
                    "{name} (ndp {ndp}): {e} gives {result:?}, is inferred {inferred:?}"
                );
                exprs += 1;
                let mut case = false;
                e.walk(&mut |x| case |= matches!(x, Expr::Case { .. }));
                cases += case as usize;
                max_regs = max_regs.max(program.n_regs);
            }
        }
        eprintln!("ndp {ndp}: {exprs} of {exprs} operator expressions compiled ({cases} CASE, at most {max_regs} registers)");
        assert_eq!((exprs, cases), (174, 4), "ndp {ndp}");
        assert!(max_regs <= 64, "ndp {ndp}: {max_regs} registers");
    }
}
