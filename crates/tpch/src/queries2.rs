//! TPC-H queries 12–22, the §VII-A micro-benchmark queries (Listing 5),
//! and the query registry used by the benchmark harnesses.

use std::collections::HashMap;

use taurus_common::schema::Row;
use taurus_common::{Dec, Result, Value};
use taurus_expr::ast::Expr;
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::{JoinType, LookupJoinNode, Plan, RangeSpec, ScanNode};

use crate::queries1::{
    count, count_star, finish, hash_agg, hash_join, optimized, run_plan, sum, volume,
};
use crate::schema::idx;

// --- Q12: shipping modes and order priority ------------------------------------

pub fn q12(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q12_plan(db, pq)?, db)
}

/// The optimized plan q12 executes.
pub fn q12_plan(db: &TaurusDb, _pq: Option<usize>) -> Result<Plan> {
    let lineitem = Plan::Scan(
        ScanNode::new("lineitem", vec![0, 10, 11, 12, 14]).with_predicate(vec![
            Expr::in_list(Expr::col(14), vec![Value::str("MAIL"), Value::str("SHIP")]),
            Expr::lt(Expr::col(11), Expr::col(12)),
            Expr::lt(Expr::col(10), Expr::col(11)),
            Expr::ge(Expr::col(12), Expr::date("1994-01-01")),
            Expr::lt(Expr::col(12), Expr::date("1995-01-01")),
        ]),
    );
    // + [o_ok5, o_op6]
    let orders = Plan::Scan(ScanNode::new("orders", vec![0, 5]));
    let j = hash_join(lineitem, orders, vec![0], vec![0], JoinType::Inner);
    let p = j.project(vec![
        Expr::col(4),
        Expr::Case {
            branches: vec![(
                Expr::in_list(
                    Expr::col(6),
                    vec![Value::str("1-URGENT"), Value::str("2-HIGH")],
                ),
                Expr::int(1),
            )],
            else_: Box::new(Expr::int(0)),
        },
        Expr::Case {
            branches: vec![(
                Expr::in_list(
                    Expr::col(6),
                    vec![Value::str("1-URGENT"), Value::str("2-HIGH")],
                ),
                Expr::int(0),
            )],
            else_: Box::new(Expr::int(1)),
        },
    ]);
    let g = hash_agg(
        p,
        vec![Expr::col(0)],
        vec![sum(Expr::col(1)), sum(Expr::col(2))],
    );
    optimized(g.sort(vec![(0, false)]), db)
}

// --- Q13: customer distribution ----------------------------------------------

pub fn q13(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q13_plan(db, pq)?, db)
}

/// The optimized plan q13 executes.
pub fn q13_plan(db: &TaurusDb, _pq: Option<usize>) -> Result<Plan> {
    let customer = Plan::Scan(ScanNode::new("customer", vec![0]));
    let orders = Plan::Scan(
        ScanNode::new("orders", vec![0, 1, 8])
            .with_predicate(vec![Expr::not_like(Expr::col(8), "%special%requests%")]),
    );
    // LEFT OUTER: [c_ck0, o_ok1, o_ck2, o_comment3]
    let j = hash_join(customer, orders, vec![0], vec![1], JoinType::LeftOuter);
    let per_cust = hash_agg(j, vec![Expr::col(0)], vec![count(Expr::col(1))]);
    let dist = hash_agg(per_cust, vec![Expr::col(1)], vec![count_star()]);
    optimized(dist.sort(vec![(1, true), (0, true)]), db)
}

// --- Q14: promotion effect -----------------------------------------------------

pub fn q14(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q14_plan(db, pq)?, db)
}

/// The optimized plan q14 executes.
pub fn q14_plan(db: &TaurusDb, pq: Option<usize>) -> Result<Plan> {
    let lineitem = ScanNode::new("lineitem", vec![1, 5, 6, 10]).with_predicate(vec![
        Expr::ge(Expr::col(10), Expr::date("1995-09-01")),
        Expr::lt(Expr::col(10), Expr::date("1995-10-01")),
    ]);
    // NL join to part (the paper's Q14 plan): + [p_type4]
    let j = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(lineitem)),
        table: "part".into(),
        index: 0,
        outer_key_cols: vec![0],
        on: None,
        inner_output: vec![4],
        join: JoinType::Inner,
        inner_predicate: vec![],
        inner_ndp: None,
    });
    let j = match pq {
        Some(d) => j.exchange(d),
        None => j,
    };
    let p = j.project(vec![
        Expr::Case {
            branches: vec![(Expr::like(Expr::col(4), "PROMO%"), volume(1, 2))],
            else_: Box::new(Expr::dec("0.0000")),
        },
        volume(1, 2),
    ]);
    let g = hash_agg(p, vec![], vec![sum(Expr::col(0)), sum(Expr::col(1))]);
    let out = g.project(vec![Expr::div(
        Expr::mul(Expr::dec("100.00"), Expr::col(0)),
        Expr::col(1),
    )]);
    optimized(out, db)
}

// --- Q15: top supplier ----------------------------------------------------------

/// The optimized main-stage plan q15 executes (the revenue view:
/// per-supplier Q1'96 revenue; the max-revenue filter and the serial
/// supplier join run on top of it).
pub fn q15_plan(db: &TaurusDb, pq: Option<usize>) -> Result<Plan> {
    let lineitem = ScanNode::new("lineitem", vec![2, 5, 6, 10]).with_predicate(vec![
        Expr::ge(Expr::col(10), Expr::date("1996-01-01")),
        Expr::lt(Expr::col(10), Expr::date("1996-04-01")),
    ]);
    // revenue per supplier (positions: sk0 ep1 disc2 sd3).
    let rev = hash_agg(
        Plan::Scan(lineitem),
        vec![Expr::col(0)],
        vec![sum(volume(1, 2))],
    );
    let rev = match pq {
        Some(d) => rev.exchange(d),
        None => rev,
    };
    optimized(rev, db)
}

pub fn q15(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    let rev_rows = run_plan(&q15_plan(db, pq)?, db)?;
    // max(total_revenue) — the view's outer scalar subquery.
    let max_rev = rev_rows
        .iter()
        .map(|r| r[1].as_dec().unwrap())
        .max_by(|a, b| a.cmp_dec(*b))
        .unwrap_or(Dec::new(0, 2));
    let winners: HashMap<i64, Dec> = rev_rows
        .iter()
        .filter(|r| r[1].as_dec().unwrap().cmp_dec(max_rev).is_eq())
        .map(|r| (r[0].as_int().unwrap(), r[1].as_dec().unwrap()))
        .collect();
    // The paper's Q15 joins supplier serially (the NL stage limiting PQ).
    let suppliers = finish(Plan::Scan(ScanNode::new("supplier", vec![0, 1, 2, 4])), db)?;
    let mut out: Vec<Row> = suppliers
        .into_iter()
        .filter_map(|s| {
            let sk = s[0].as_int().ok()?;
            winners.get(&sk).map(|rev| {
                vec![
                    s[0].clone(),
                    s[1].clone(),
                    s[2].clone(),
                    s[3].clone(),
                    Value::Decimal(*rev),
                ]
            })
        })
        .collect();
    out.sort_by(|a, b| a[0].cmp_total(&b[0]));
    Ok(out)
}

// --- Q16: parts/supplier relationship --------------------------------------------

pub fn q16(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q16_plan(db, pq)?, db)
}

/// The optimized plan q16 executes.
pub fn q16_plan(db: &TaurusDb, _pq: Option<usize>) -> Result<Plan> {
    let part = Plan::Scan(ScanNode::new("part", vec![0, 3, 4, 5]).with_predicate(vec![
        Expr::ne(Expr::col(3), Expr::str("Brand#45")),
        Expr::not_like(Expr::col(4), "MEDIUM POLISHED%"),
        Expr::in_list(
            Expr::col(5),
            [49, 14, 23, 45, 19, 3, 36, 9].iter().map(|&v| Value::Int(v)).collect(),
        ),
    ]));
    let ps = Plan::Scan(ScanNode::new("partsupp", vec![0, 1]));
    // [p_pk0, brand1, type2, size3, ps_pk4, ps_sk5]
    let j = hash_join(part, ps, vec![0], vec![0], JoinType::Inner);
    // Anti-join suppliers with complaints.
    let bad_supp = Plan::Scan(
        ScanNode::new("supplier", vec![0, 6])
            .with_predicate(vec![Expr::like(Expr::col(6), "%Customer%Complaints%")]),
    );
    let clean = hash_join(j, bad_supp, vec![5], vec![0], JoinType::Anti);
    // COUNT(DISTINCT ps_suppkey): dedup via a first grouping level.
    let dedup = hash_agg(
        clean,
        vec![Expr::col(1), Expr::col(2), Expr::col(3), Expr::col(5)],
        vec![count_star()],
    );
    let g = hash_agg(
        dedup,
        vec![Expr::col(0), Expr::col(1), Expr::col(2)],
        vec![count_star()],
    );
    optimized(
        g.sort(vec![(3, true), (0, false), (1, false), (2, false)]),
        db,
    )
}

// --- Q17: small-quantity-order revenue --------------------------------------------

/// The optimized main-stage plan q17 executes (part→lineitem lookups;
/// the correlated-average filter runs in memory on its output).
pub fn q17_plan(db: &TaurusDb, _pq: Option<usize>) -> Result<Plan> {
    let part = ScanNode::new("part", vec![0, 3, 6]).with_predicate(vec![
        Expr::eq(Expr::col(3), Expr::str("Brand#23")),
        Expr::eq(Expr::col(6), Expr::str("MED BOX")),
    ]);
    // Lookup lineitem per part (secondary index on l_partkey):
    // [p_pk0, brand1, cont2, l_qty3, l_ep4]
    let j = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(part)),
        table: "lineitem".into(),
        index: idx::L_PARTKEY,
        outer_key_cols: vec![0],
        on: None,
        inner_output: vec![4, 5],
        join: JoinType::Inner,
        inner_predicate: vec![],
        inner_ndp: None,
    });
    optimized(j, db)
}

pub fn q17(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    let rows = run_plan(&q17_plan(db, pq)?, db)?;
    // Correlated avg: qty < 0.2 * avg(qty) per part.
    let mut sums: HashMap<i64, (f64, u64)> = HashMap::new();
    for r in &rows {
        let e = sums.entry(r[0].as_int()?).or_insert((0.0, 0));
        e.0 += r[3].as_dec()?.to_f64();
        e.1 += 1;
    }
    let mut total = 0.0f64;
    for r in &rows {
        let (s, n) = sums[&r[0].as_int()?];
        let avg_q = s / n as f64;
        if r[3].as_dec()?.to_f64() < 0.2 * avg_q {
            total += r[4].as_dec()?.to_f64();
        }
    }
    Ok(vec![vec![Value::Double(total / 7.0)]])
}

// --- Q18: large volume customers ----------------------------------------------------

pub fn q18(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q18_plan(db, pq)?, db)
}

/// The optimized plan q18 executes.
pub fn q18_plan(db: &TaurusDb, _pq: Option<usize>) -> Result<Plan> {
    let big = hash_agg(
        Plan::Scan(ScanNode::new("lineitem", vec![0, 4])),
        vec![Expr::col(0)],
        vec![sum(Expr::col(1))],
    )
    .filter(Expr::gt(Expr::col(1), Expr::int(300)));
    // + [o_ok2, o_ck3, o_tp4, o_od5]
    let orders = Plan::Scan(ScanNode::new("orders", vec![0, 1, 3, 4]));
    let j1 = hash_join(big, orders, vec![0], vec![0], JoinType::Inner);
    // + [c_ck6, c_name7]
    let customer = Plan::Scan(ScanNode::new("customer", vec![0, 1]));
    let j2 = hash_join(j1, customer, vec![3], vec![0], JoinType::Inner);
    // Output: c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(qty).
    let p = j2.project(vec![
        Expr::col(7),
        Expr::col(6),
        Expr::col(2),
        Expr::col(5),
        Expr::col(4),
        Expr::col(1),
    ]);
    optimized(p.top_n(vec![(4, true), (3, false)], 100), db)
}

// --- Q19: discounted revenue ---------------------------------------------------------

pub fn q19(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q19_plan(db, pq)?, db)
}

/// The optimized plan q19 executes.
pub fn q19_plan(db: &TaurusDb, pq: Option<usize>) -> Result<Plan> {
    let sm_containers: Vec<Value> = ["SM CASE", "SM BOX", "SM PACK", "SM PKG"]
        .iter()
        .map(|s| Value::str(*s))
        .collect();
    let med_containers: Vec<Value> = ["MED BAG", "MED BOX", "MED PKG", "MED PACK"]
        .iter()
        .map(|s| Value::str(*s))
        .collect();
    let lg_containers: Vec<Value> = ["LG CASE", "LG BOX", "LG PACK", "LG PKG"]
        .iter()
        .map(|s| Value::str(*s))
        .collect();
    // Part-side union of the three branches.
    let part_pred = Expr::or(vec![
        Expr::and(vec![
            Expr::eq(Expr::col(3), Expr::str("Brand#12")),
            Expr::in_list(Expr::col(6), sm_containers.clone()),
            Expr::between(Expr::col(5), Expr::int(1), Expr::int(5)),
        ]),
        Expr::and(vec![
            Expr::eq(Expr::col(3), Expr::str("Brand#23")),
            Expr::in_list(Expr::col(6), med_containers.clone()),
            Expr::between(Expr::col(5), Expr::int(1), Expr::int(10)),
        ]),
        Expr::and(vec![
            Expr::eq(Expr::col(3), Expr::str("Brand#34")),
            Expr::in_list(Expr::col(6), lg_containers.clone()),
            Expr::between(Expr::col(5), Expr::int(1), Expr::int(15)),
        ]),
    ]);
    // Outer part scan: [p_pk0, brand1, size2, cont3] (paper: NL join with
    // lineitem inner via the l_partkey index, ~28 rows per part).
    let part = ScanNode::new("part", vec![0, 3, 5, 6]).with_predicate(vec![part_pred]);
    // Combined row: + [l_qty4, l_ep5, l_disc6, l_si7, l_sm8]
    let on = Expr::or(vec![
        Expr::and(vec![
            Expr::eq(Expr::col(1), Expr::str("Brand#12")),
            Expr::in_list(Expr::col(3), sm_containers),
            Expr::between(Expr::col(4), Expr::int(1), Expr::int(11)),
        ]),
        Expr::and(vec![
            Expr::eq(Expr::col(1), Expr::str("Brand#23")),
            Expr::in_list(Expr::col(3), med_containers),
            Expr::between(Expr::col(4), Expr::int(10), Expr::int(20)),
        ]),
        Expr::and(vec![
            Expr::eq(Expr::col(1), Expr::str("Brand#34")),
            Expr::in_list(Expr::col(3), lg_containers),
            Expr::between(Expr::col(4), Expr::int(20), Expr::int(30)),
        ]),
    ]);
    let j = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(Plan::Scan(part)),
        table: "lineitem".into(),
        index: idx::L_PARTKEY,
        outer_key_cols: vec![0],
        on: Some(on),
        inner_output: vec![4, 5, 6, 13, 14],
        join: JoinType::Inner,
        inner_predicate: vec![
            Expr::eq(Expr::col(13), Expr::str("DELIVER IN PERSON")),
            Expr::in_list(
                Expr::col(14),
                vec![Value::str("AIR"), Value::str("AIR REG")],
            ),
        ],
        inner_ndp: None,
    });
    let j = match pq {
        Some(d) => j.exchange(d),
        None => j,
    };
    let g = hash_agg(j, vec![], vec![sum(volume(5, 6))]);
    optimized(g, db)
}

// --- Q20: potential part promotion -----------------------------------------------------

/// The optimized main-stage plan q20 executes (Canadian suppliers; the
/// forest-part / half-quantity stages feed the in-memory filter above
/// this plan's output).
pub fn q20_plan(db: &TaurusDb, _pq: Option<usize>) -> Result<Plan> {
    optimized(
        hash_join(
            Plan::Scan(ScanNode::new("supplier", vec![0, 1, 2, 3])),
            Plan::Scan(
                ScanNode::new("nation", vec![0, 1])
                    .with_predicate(vec![Expr::eq(Expr::col(1), Expr::str("CANADA"))]),
            ),
            vec![3],
            vec![0],
            JoinType::Inner,
        ),
        db,
    )
}

pub fn q20(db: &TaurusDb, _pq: Option<usize>) -> Result<Vec<Row>> {
    // Forest parts.
    let parts = finish(
        Plan::Scan(
            ScanNode::new("part", vec![0, 1])
                .with_predicate(vec![Expr::like(Expr::col(1), "forest%")]),
        ),
        db,
    )?;
    let forest: std::collections::HashSet<i64> =
        parts.iter().map(|r| r[0].as_int().unwrap()).collect();
    // Half of 1994's shipped quantity per (part, supp).
    let qty = finish(
        hash_agg(
            Plan::Scan(
                ScanNode::new("lineitem", vec![1, 2, 4, 10]).with_predicate(vec![
                    Expr::ge(Expr::col(10), Expr::date("1994-01-01")),
                    Expr::lt(Expr::col(10), Expr::date("1995-01-01")),
                ]),
            ),
            vec![Expr::col(0), Expr::col(1)],
            vec![sum(Expr::col(2))],
        ),
        db,
    )?;
    let half_qty: HashMap<(i64, i64), f64> = qty
        .iter()
        .map(|r| {
            (
                (r[0].as_int().unwrap(), r[1].as_int().unwrap()),
                r[2].as_dec().unwrap().to_f64() * 0.5,
            )
        })
        .collect();
    // Partsupp availability.
    let ps = finish(Plan::Scan(ScanNode::new("partsupp", vec![0, 1, 2])), db)?;
    let mut good_suppliers: std::collections::HashSet<i64> = Default::default();
    for r in &ps {
        let pk = r[0].as_int()?;
        let sk = r[1].as_int()?;
        if !forest.contains(&pk) {
            continue;
        }
        let avail = r[2].as_int()? as f64;
        if let Some(&h) = half_qty.get(&(pk, sk)) {
            if avail > h {
                good_suppliers.insert(sk);
            }
        }
    }
    // Canadian suppliers among them.
    let sn = run_plan(&q20_plan(db, _pq)?, db)?;
    let mut out: Vec<Row> = sn
        .into_iter()
        .filter(|r| good_suppliers.contains(&r[0].as_int().unwrap()))
        .map(|r| vec![r[1].clone(), r[2].clone()])
        .collect();
    out.sort_by(|a, b| a[0].cmp_total(&b[0]));
    Ok(out)
}

// --- Q21: suppliers who kept orders waiting ----------------------------------------------

pub fn q21(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q21_plan(db, pq)?, db)
}

/// The optimized plan q21 executes.
pub fn q21_plan(db: &TaurusDb, _pq: Option<usize>) -> Result<Plan> {
    // l1: late lines. [l_ok0, l_sk1, l_cd2, l_rd3]
    let l1 = Plan::Scan(
        ScanNode::new("lineitem", vec![0, 2, 11, 12])
            .with_predicate(vec![Expr::gt(Expr::col(12), Expr::col(11))]),
    );
    // + [o_ok4, o_os5] (status F).
    let orders = Plan::Scan(
        ScanNode::new("orders", vec![0, 2])
            .with_predicate(vec![Expr::eq(Expr::col(2), Expr::str("F"))]),
    );
    let j1 = hash_join(l1, orders, vec![0], vec![0], JoinType::Inner);
    // + [s_sk6, s_name7, s_nk8]
    let s = Plan::Scan(ScanNode::new("supplier", vec![0, 1, 3]));
    let j2 = hash_join(j1, s, vec![1], vec![0], JoinType::Inner);
    // + [n_nk9, n_name10] (SAUDI ARABIA).
    let n = Plan::Scan(
        ScanNode::new("nation", vec![0, 1])
            .with_predicate(vec![Expr::eq(Expr::col(1), Expr::str("SAUDI ARABIA"))]),
    );
    let j3 = hash_join(j2, n, vec![8], vec![0], JoinType::Inner);
    // EXISTS l2: another supplier in the same order.
    let semi = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(j3),
        table: "lineitem".into(),
        index: 0,
        outer_key_cols: vec![0],
        // combined: outer(11 cols) ++ [l2_sk at 11]
        on: Some(Expr::ne(Expr::col(11), Expr::col(1))),
        inner_output: vec![2],
        join: JoinType::Semi,
        inner_predicate: vec![],
        inner_ndp: None,
    });
    // NOT EXISTS l3: another supplier late in the same order.
    let anti = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(semi),
        table: "lineitem".into(),
        index: 0,
        outer_key_cols: vec![0],
        on: Some(Expr::ne(Expr::col(11), Expr::col(1))),
        inner_output: vec![2],
        join: JoinType::Anti,
        inner_predicate: vec![Expr::gt(Expr::col(12), Expr::col(11))],
        inner_ndp: None,
    });
    let g = hash_agg(anti, vec![Expr::col(7)], vec![count_star()]);
    optimized(g.top_n(vec![(1, true), (0, false)], 100), db)
}

// --- Q22: global sales opportunity ---------------------------------------------------------

pub fn q22(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q22_plan(db, pq)?, db)
}

/// The optimized main-stage plan q22 executes. Phase 1 (the scalar
/// average-balance subquery) runs eagerly here — its result is a literal
/// inside the returned phase-2 plan, exactly how MySQL executes the
/// uncorrelated scalar subquery once.
pub fn q22_plan(db: &TaurusDb, _pq: Option<usize>) -> Result<Plan> {
    let codes: Vec<Value> = ["13", "31", "23", "29", "30", "18", "17"]
        .iter()
        .map(|s| Value::str(*s))
        .collect();
    let cntry = |col: usize| Expr::Substr {
        expr: Box::new(Expr::col(col)),
        from: 1,
        len: 2,
    };
    // Phase 1: average positive balance among the country codes, its
    // SUM over its COUNT.
    let avg_bal = finish(
        hash_agg(
            Plan::Scan(ScanNode::new("customer", vec![4, 5]).with_predicate(vec![
                Expr::gt(Expr::col(5), Expr::dec("0.00")),
                Expr::in_list(cntry(4), codes.clone()),
            ])),
            vec![],
            vec![sum(Expr::col(1)), count(Expr::col(1))],
        )
        .project(vec![Expr::div(Expr::col(0), Expr::col(1))]),
        db,
    )?;
    let threshold = avg_bal[0][0].clone();
    // Phase 2: rich customers with no orders.
    let rich = Plan::Scan(
        ScanNode::new("customer", vec![0, 4, 5]).with_predicate(vec![
            Expr::in_list(cntry(4), codes),
            Expr::gt(Expr::col(5), Expr::lit(threshold)),
        ]),
    );
    let anti = Plan::LookupJoin(LookupJoinNode {
        outer: Box::new(rich),
        table: "orders".into(),
        index: idx::O_CUSTKEY,
        outer_key_cols: vec![0],
        on: None,
        inner_output: vec![],
        join: JoinType::Anti,
        inner_predicate: vec![],
        inner_ndp: None,
    });
    let p = anti.project(vec![cntry(1), Expr::col(2)]);
    let g = hash_agg(p, vec![Expr::col(0)], vec![count_star(), sum(Expr::col(1))]);
    optimized(g.sort(vec![(0, false)]), db)
}

// --- §VII-A micro-benchmark (Listing 5) -------------------------------------------------

/// Q0: `SELECT COUNT(*) FROM lineitem` — full NDP aggregation pushdown.
pub fn q0(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q0_plan(db, pq)?, db)
}

/// The optimized plan q0 executes.
pub fn q0_plan(db: &TaurusDb, pq: Option<usize>) -> Result<Plan> {
    let scan = Plan::Scan(ScanNode::new("lineitem", vec![0]));
    let plan = hash_agg(scan, vec![], vec![count_star()]);
    let plan = match pq {
        Some(d) => plan.exchange(d),
        None => plan,
    };
    optimized(plan, db)
}

/// Q001: COUNT(*) with a shipdate filter — table (primary) scan.
pub fn q001(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q001_plan(db, pq)?, db)
}

/// The optimized plan q001 executes.
pub fn q001_plan(db: &TaurusDb, pq: Option<usize>) -> Result<Plan> {
    let scan = Plan::Scan(
        ScanNode::new("lineitem", vec![10])
            .with_predicate(vec![Expr::lt(Expr::col(10), Expr::date("1998-07-01"))]),
    );
    let plan = hash_agg(scan, vec![], vec![count_star()]);
    let plan = match pq {
        Some(d) => plan.exchange(d),
        None => plan,
    };
    optimized(plan, db)
}

/// Q002: COUNT(*) over a suppkey range — secondary index scan.
pub fn q002(db: &TaurusDb, pq: Option<usize>) -> Result<Vec<Row>> {
    run_plan(&q002_plan(db, pq)?, db)
}

/// The optimized plan q002 executes.
pub fn q002_plan(db: &TaurusDb, pq: Option<usize>) -> Result<Plan> {
    let n_supp = db.table("supplier")?.stats.read().row_count.max(2) as i64;
    let k = n_supp / 2;
    let scan = Plan::Scan(
        ScanNode::new("lineitem", vec![2])
            .with_index(idx::L_SUPPKEY)
            .with_range(RangeSpec {
                lower: None,
                upper: Some((vec![Value::Int(k)], true)),
            })
            .with_predicate(vec![Expr::le(Expr::col(2), Expr::int(k))]),
    );
    let plan = hash_agg(scan, vec![], vec![count_star()]);
    let plan = match pq {
        Some(d) => plan.exchange(d),
        None => plan,
    };
    optimized(plan, db)
}

// --- registry ----------------------------------------------------------------------------

/// A registered query: name, runner, and whether the optimizer produces a
/// parallel plan for it (§VII-E: seven queries benefit from PQ).
pub struct Query {
    pub name: &'static str,
    pub run: fn(&TaurusDb, Option<usize>) -> Result<Vec<Row>>,
    /// The query's optimized **main-stage** plan. For single-plan queries
    /// (most of the suite) `run` is exactly a collect over this plan; the
    /// multi-phase queries (Q11, Q15, Q17, Q20, Q22) post-process its
    /// output (or, for Q22, bake an eagerly-computed scalar subquery into
    /// it). Stream-vs-collect parity tests run this plan through both
    /// executor terminals.
    pub plan: fn(&TaurusDb, Option<usize>) -> Result<Plan>,
    pub pq_capable: bool,
}

/// The 22 TPC-H queries.
pub fn tpch_queries() -> Vec<Query> {
    use crate::queries1::*;
    vec![
        Query {
            name: "Q1",
            run: q1,
            plan: q1_plan,
            pq_capable: true,
        },
        Query {
            name: "Q2",
            run: q2,
            plan: q2_plan,
            pq_capable: false,
        },
        Query {
            name: "Q3",
            run: q3,
            plan: q3_plan,
            pq_capable: false,
        },
        Query {
            name: "Q4",
            run: q4,
            plan: q4_plan,
            pq_capable: true,
        },
        Query {
            name: "Q5",
            run: q5,
            plan: q5_plan,
            pq_capable: true,
        },
        Query {
            name: "Q6",
            run: q6,
            plan: q6_plan,
            pq_capable: true,
        },
        Query {
            name: "Q7",
            run: q7,
            plan: q7_plan,
            pq_capable: false,
        },
        Query {
            name: "Q8",
            run: q8,
            plan: q8_plan,
            pq_capable: false,
        },
        Query {
            name: "Q9",
            run: q9,
            plan: q9_plan,
            pq_capable: false,
        },
        Query {
            name: "Q10",
            run: q10,
            plan: q10_plan,
            pq_capable: false,
        },
        Query {
            name: "Q11",
            run: q11,
            plan: q11_plan,
            pq_capable: false,
        },
        Query {
            name: "Q12",
            run: q12,
            plan: q12_plan,
            pq_capable: false,
        },
        Query {
            name: "Q13",
            run: q13,
            plan: q13_plan,
            pq_capable: false,
        },
        Query {
            name: "Q14",
            run: q14,
            plan: q14_plan,
            pq_capable: true,
        },
        Query {
            name: "Q15",
            run: q15,
            plan: q15_plan,
            pq_capable: true,
        },
        Query {
            name: "Q16",
            run: q16,
            plan: q16_plan,
            pq_capable: false,
        },
        Query {
            name: "Q17",
            run: q17,
            plan: q17_plan,
            pq_capable: false,
        },
        Query {
            name: "Q18",
            run: q18,
            plan: q18_plan,
            pq_capable: false,
        },
        Query {
            name: "Q19",
            run: q19,
            plan: q19_plan,
            pq_capable: true,
        },
        Query {
            name: "Q20",
            run: q20,
            plan: q20_plan,
            pq_capable: false,
        },
        Query {
            name: "Q21",
            run: q21,
            plan: q21_plan,
            pq_capable: false,
        },
        Query {
            name: "Q22",
            run: q22,
            plan: q22_plan,
            pq_capable: false,
        },
    ]
}

/// The §VII-A micro-benchmark queries (Listing 5 + Q1 + Q6).
pub fn micro_queries() -> Vec<Query> {
    use crate::queries1::{q1, q1_plan, q6, q6_plan};
    vec![
        Query {
            name: "Q0",
            run: q0,
            plan: q0_plan,
            pq_capable: true,
        },
        Query {
            name: "Q001",
            run: q001,
            plan: q001_plan,
            pq_capable: true,
        },
        Query {
            name: "Q002",
            run: q002,
            plan: q002_plan,
            pq_capable: true,
        },
        Query {
            name: "Q1",
            run: q1,
            plan: q1_plan,
            pq_capable: true,
        },
        Query {
            name: "Q6",
            run: q6,
            plan: q6_plan,
            pq_capable: true,
        },
    ]
}
