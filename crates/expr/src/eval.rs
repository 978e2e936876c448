//! The classical tree-walking interpreter.
//!
//! This is the paper's "Classical (non-LLVM) MySQL predicate evaluation
//! [that] proceeds by traversing a tree of various expression nodes"
//! (§V-B2). Nothing runs it while a query runs: scans, operators and Page
//! Stores all run the record VM ([`crate::vm`]). It is the semantic
//! reference — the oracle the VM's parity tests compare against.

use std::cmp::Ordering;

use taurus_common::{Date32, Dec, Error, Result, Value};

use crate::ast::{ArithOp, CmpOp, Expr};
use crate::util;

/// Evaluate an expression against a row. SQL three-valued logic: boolean
/// results are `Value::Int(0|1)` or `Value::Null`.
pub fn eval(expr: &Expr, row: &[Value]) -> Result<Value> {
    Ok(match expr {
        Expr::Col(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Internal(format!("column {i} out of row range")))?,
        Expr::Lit(v) => v.clone(),
        Expr::Cmp(op, a, b) => {
            let (va, vb) = (eval(a, row)?, eval(b, row)?);
            match va.cmp_sql(&vb) {
                None => Value::Null,
                Some(ord) => bool_val(cmp_holds(*op, ord)),
            }
        }
        Expr::And(xs) => {
            let mut saw_null = false;
            for x in xs {
                match eval_pred(x, row)? {
                    Some(false) => return Ok(bool_val(false)),
                    None => saw_null = true,
                    Some(true) => {}
                }
            }
            if saw_null {
                Value::Null
            } else {
                bool_val(true)
            }
        }
        Expr::Or(xs) => {
            let mut saw_null = false;
            for x in xs {
                match eval_pred(x, row)? {
                    Some(true) => return Ok(bool_val(true)),
                    None => saw_null = true,
                    Some(false) => {}
                }
            }
            if saw_null {
                Value::Null
            } else {
                bool_val(false)
            }
        }
        Expr::Not(a) => match eval_pred(a, row)? {
            None => Value::Null,
            Some(b) => bool_val(!b),
        },
        Expr::Arith(op, a, b) => {
            let (va, vb) = (eval(a, row)?, eval(b, row)?);
            arith(*op, &va, &vb)?
        }
        Expr::Neg(a) => match eval(a, row)? {
            Value::Null => Value::Null,
            Value::Int(v) => Value::Int(util::neg_int(v)?),
            Value::Decimal(d) => Value::Decimal(d.neg()),
            Value::Double(d) => Value::Double(-d),
            other => return Err(Error::Type(format!("cannot negate {other:?}"))),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match eval(expr, row)? {
            Value::Null => Value::Null,
            Value::Str(s) => {
                let m = util::like_match(s.as_bytes(), pattern.as_bytes());
                bool_val(m != *negated)
            }
            other => return Err(Error::Type(format!("LIKE on {other:?}"))),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            let mut found = false;
            for item in list {
                match v.cmp_sql(item) {
                    Some(Ordering::Equal) => {
                        found = true;
                        break;
                    }
                    None if item.is_null() => saw_null = true,
                    _ => {}
                }
            }
            if found {
                bool_val(!*negated)
            } else if saw_null {
                Value::Null
            } else {
                bool_val(*negated)
            }
        }
        Expr::Between { expr, lo, hi } => {
            let v = eval(expr, row)?;
            let l = eval(lo, row)?;
            let h = eval(hi, row)?;
            // `lo <= v AND v <= hi` (MySQL's definition): a definite
            // FALSE on either side is FALSE even when the other is NULL.
            let ge = v.cmp_sql(&l).map(|o| o != Ordering::Less);
            let le = v.cmp_sql(&h).map(|o| o != Ordering::Greater);
            match (ge, le) {
                (Some(false), _) | (_, Some(false)) => bool_val(false),
                (Some(true), Some(true)) => bool_val(true),
                _ => Value::Null,
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row)?;
            bool_val(v.is_null() != *negated)
        }
        Expr::Case { branches, else_ } => {
            for (cond, val) in branches {
                if eval_pred(cond, row)? == Some(true) {
                    return eval(val, row);
                }
            }
            eval(else_, row)?
        }
        Expr::ExtractYear(a) => match eval(a, row)? {
            Value::Null => Value::Null,
            Value::Date(d) => Value::Int(util::extract_year(d.0)),
            other => return Err(Error::Type(format!("EXTRACT(YEAR) on {other:?}"))),
        },
        Expr::Substr { expr, from, len } => match eval(expr, row)? {
            Value::Null => Value::Null,
            Value::Str(s) => {
                let b = util::substr(s.as_bytes(), *from, *len);
                Value::str(std::str::from_utf8(b).unwrap_or(""))
            }
            other => return Err(Error::Type(format!("SUBSTRING on {other:?}"))),
        },
    })
}

/// Evaluate as a predicate: `Some(bool)` or `None` for NULL.
pub fn eval_pred(expr: &Expr, row: &[Value]) -> Result<Option<bool>> {
    Ok(match eval(expr, row)? {
        Value::Null => None,
        Value::Int(v) => Some(v != 0),
        other => return Err(Error::Type(format!("predicate produced {other:?}"))),
    })
}

fn bool_val(b: bool) -> Value {
    Value::Int(b as i64)
}

fn cmp_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Typed arithmetic with SQL NULL propagation. Numeric pairs promote:
/// double > decimal > int. `date ± int` means day arithmetic.
pub fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    use Value::*;
    if a.is_null() || b.is_null() {
        return Ok(Null);
    }
    Ok(match (a, b) {
        (Double(_), _) | (_, Double(_)) => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Double(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => {
                    if y == 0.0 {
                        return Err(Error::Arithmetic("division by zero".into()));
                    }
                    x / y
                }
            })
        }
        (Date(d), Int(n)) => match op {
            ArithOp::Add => Date(Date32(util::add_days(d.0, *n)?)),
            ArithOp::Sub => Date(Date32(util::add_days(d.0, n.wrapping_neg())?)),
            _ => return Err(Error::Type("date arithmetic supports +/- days".into())),
        },
        (Int(x), Int(y)) if matches!(op, ArithOp::Add | ArithOp::Sub | ArithOp::Mul) => {
            let r = match op {
                ArithOp::Add => x.checked_add(*y),
                ArithOp::Sub => x.checked_sub(*y),
                ArithOp::Mul => x.checked_mul(*y),
                ArithOp::Div => unreachable!(),
            };
            Int(r.ok_or_else(|| Error::Arithmetic("integer overflow".into()))?)
        }
        _ => {
            let (x, y) = (a.as_dec()?, b.as_dec()?);
            Decimal(match op {
                ArithOp::Add => x.checked_add(y)?,
                ArithOp::Sub => x.checked_sub(y)?,
                ArithOp::Mul => x.checked_mul(y)?,
                ArithOp::Div => x.checked_div(y)?,
            })
        }
    })
}

/// Convenience: decimal helper used in tests.
pub fn dec(s: &str) -> Dec {
    Dec::parse(s).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::Date32;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(35),                                    // 0: age
            Value::Date(Date32::parse("2010-06-15").unwrap()), // 1: joindate
            Value::Decimal(dec("5500.00")),                    // 2: salary
            Value::str("MAIL"),                                // 3: shipmode
            Value::Null,                                       // 4: always null
        ]
    }

    #[test]
    fn paper_listing_1_predicate() {
        // age < 40 AND joindate >= DATE'2010-01-01'
        //            AND joindate < DATE'2010-01-01' + INTERVAL 1 YEAR
        let start = Date32::parse("2010-01-01").unwrap();
        let p = Expr::and(vec![
            Expr::lt(Expr::col(0), Expr::int(40)),
            Expr::ge(Expr::col(1), Expr::lit(Value::Date(start))),
            Expr::lt(Expr::col(1), Expr::lit(Value::Date(start.add_years(1)))),
        ]);
        assert_eq!(eval_pred(&p, &row()).unwrap(), Some(true));
        let mut r2 = row();
        r2[0] = Value::Int(41);
        assert_eq!(eval_pred(&p, &r2).unwrap(), Some(false));
    }

    #[test]
    fn three_valued_logic() {
        // NULL AND false = false; NULL AND true = NULL; NULL OR true = true.
        let null_cmp = Expr::eq(Expr::col(4), Expr::int(1));
        let t = Expr::eq(Expr::int(1), Expr::int(1));
        let f = Expr::eq(Expr::int(1), Expr::int(2));
        let r = row();
        assert_eq!(
            eval_pred(&Expr::and(vec![null_cmp.clone(), f.clone()]), &r).unwrap(),
            Some(false)
        );
        assert_eq!(
            eval_pred(&Expr::and(vec![null_cmp.clone(), t.clone()]), &r).unwrap(),
            None
        );
        assert_eq!(
            eval_pred(&Expr::or(vec![null_cmp.clone(), t]), &r).unwrap(),
            Some(true)
        );
        assert_eq!(
            eval_pred(&Expr::or(vec![null_cmp.clone(), f]), &r).unwrap(),
            None
        );
        assert_eq!(eval_pred(&Expr::not(null_cmp), &r).unwrap(), None);
    }

    #[test]
    fn in_list_and_between() {
        let r = row();
        let e = Expr::in_list(Expr::col(3), vec![Value::str("MAIL"), Value::str("SHIP")]);
        assert_eq!(eval_pred(&e, &r).unwrap(), Some(true));
        let e2 = Expr::in_list(Expr::col(3), vec![Value::str("AIR")]);
        assert_eq!(eval_pred(&e2, &r).unwrap(), Some(false));
        let b = Expr::between(Expr::col(0), Expr::int(30), Expr::int(40));
        assert_eq!(eval_pred(&b, &r).unwrap(), Some(true));
        let b2 = Expr::between(Expr::col(0), Expr::int(36), Expr::int(40));
        assert_eq!(eval_pred(&b2, &r).unwrap(), Some(false));
    }

    #[test]
    fn q6_style_decimal_between() {
        // l_discount BETWEEN 0.05 AND 0.07 on a decimal column.
        let row = vec![Value::Decimal(dec("0.06"))];
        let p = Expr::between(Expr::col(0), Expr::dec("0.05"), Expr::dec("0.07"));
        assert_eq!(eval_pred(&p, &row).unwrap(), Some(true));
        let row2 = vec![Value::Decimal(dec("0.08"))];
        assert_eq!(eval_pred(&p, &row2).unwrap(), Some(false));
    }

    #[test]
    fn case_expression() {
        // Q12 shape: CASE WHEN shipmode IN ('MAIL','SHIP') THEN 1 ELSE 0 END.
        let e = Expr::Case {
            branches: vec![(
                Expr::in_list(Expr::col(3), vec![Value::str("MAIL"), Value::str("SHIP")]),
                Expr::int(1),
            )],
            else_: Box::new(Expr::int(0)),
        };
        assert_eq!(eval(&e, &row()).unwrap(), Value::Int(1));
    }

    #[test]
    fn projection_arithmetic_q1_shape() {
        // price * (1 - disc) * (1 + tax)
        let r = vec![
            Value::Decimal(dec("901.00")),
            Value::Decimal(dec("0.05")),
            Value::Decimal(dec("0.02")),
        ];
        let e = Expr::mul(
            Expr::mul(Expr::col(0), Expr::sub(Expr::int(1), Expr::col(1))),
            Expr::add(Expr::int(1), Expr::col(2)),
        );
        assert_eq!(eval(&e, &r).unwrap(), Value::Decimal(dec("873.069000")));
    }

    #[test]
    fn extract_year_and_substr() {
        let r = row();
        assert_eq!(
            eval(&Expr::ExtractYear(Box::new(Expr::col(1))), &r).unwrap(),
            Value::Int(2010)
        );
        let s = Expr::Substr {
            expr: Box::new(Expr::col(3)),
            from: 1,
            len: 2,
        };
        assert_eq!(eval(&s, &r).unwrap(), Value::str("MA"));
    }

    #[test]
    fn date_day_arithmetic() {
        let r = row();
        let e = Expr::sub(Expr::col(1), Expr::int(90));
        assert_eq!(
            eval(&e, &r).unwrap(),
            Value::Date(Date32::parse("2010-03-17").unwrap())
        );
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(eval(&Expr::div(Expr::int(1), Expr::int(0)), &[]).is_err());
    }
}
