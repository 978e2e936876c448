//! Expression trees.
//!
//! Column references are positions into the *table* schema; the executor
//! and the NDP descriptor rebind them to physical record positions when
//! needed. The node set covers everything the TPC-H predicates and
//! projections require, plus the paper's worked examples.

use std::fmt;

use taurus_common::{DataType, Error, Result, Value};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// An expression over one input row.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference (position in the table schema).
    Col(usize),
    Lit(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// Searched CASE: first branch whose condition is TRUE wins.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_: Box<Expr>,
    },
    /// EXTRACT(YEAR FROM date).
    ExtractYear(Box<Expr>),
    /// SUBSTRING(expr FROM `from` FOR `len`) — 1-based, byte semantics.
    Substr {
        expr: Box<Expr>,
        from: usize,
        len: usize,
    },
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }

    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    pub fn str(s: &str) -> Expr {
        Expr::Lit(Value::str(s))
    }

    pub fn dec(s: &str) -> Expr {
        Expr::Lit(Value::Decimal(
            taurus_common::Dec::parse(s).expect("literal decimal"),
        ))
    }

    pub fn date(s: &str) -> Expr {
        Expr::Lit(Value::Date(
            taurus_common::Date32::parse(s).expect("literal date"),
        ))
    }

    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, a, b)
    }

    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Lt, a, b)
    }

    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Le, a, b)
    }

    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Gt, a, b)
    }

    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Ge, a, b)
    }

    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Ne, a, b)
    }

    pub fn and(parts: Vec<Expr>) -> Expr {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Expr::And(xs) => flat.extend(xs),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().unwrap()
        } else {
            Expr::And(flat)
        }
    }

    pub fn or(parts: Vec<Expr>) -> Expr {
        if parts.len() == 1 {
            return parts.into_iter().next().unwrap();
        }
        Expr::Or(parts)
    }

    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(a), Box::new(b))
    }

    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(a), Box::new(b))
    }

    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(a), Box::new(b))
    }

    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(a), Box::new(b))
    }

    pub fn like(e: Expr, pattern: &str) -> Expr {
        Expr::Like {
            expr: Box::new(e),
            pattern: pattern.to_string(),
            negated: false,
        }
    }

    pub fn not_like(e: Expr, pattern: &str) -> Expr {
        Expr::Like {
            expr: Box::new(e),
            pattern: pattern.to_string(),
            negated: true,
        }
    }

    pub fn in_list(e: Expr, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(e),
            list,
            negated: false,
        }
    }

    pub fn between(e: Expr, lo: Expr, hi: Expr) -> Expr {
        Expr::Between {
            expr: Box::new(e),
            lo: Box::new(lo),
            hi: Box::new(hi),
        }
    }

    /// Collect all referenced column positions (sorted, deduplicated).
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Col(i) = e {
                out.push(*i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Pre-order traversal.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Col(_) | Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::And(xs) | Expr::Or(xs) => {
                for x in xs {
                    x.walk(f);
                }
            }
            Expr::Not(a) | Expr::Neg(a) | Expr::ExtractYear(a) => a.walk(f),
            Expr::Like { expr, .. }
            | Expr::InList { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Substr { expr, .. } => expr.walk(f),
            Expr::Between { expr, lo, hi } => {
                expr.walk(f);
                lo.walk(f);
                hi.walk(f);
            }
            Expr::Case { branches, else_ } => {
                for (c, v) in branches {
                    c.walk(f);
                    v.walk(f);
                }
                else_.walk(f);
            }
        }
    }

    /// Rewrite column references through `map` (old position -> new).
    pub fn remap_columns(&self, map: &impl Fn(usize) -> usize) -> Expr {
        self.substitute_columns(&|i| Expr::Col(map(i)))
    }

    /// Replace each column reference `i` with the expression `map(i)`.
    pub fn substitute_columns(&self, map: &impl Fn(usize) -> Expr) -> Expr {
        let rebox = |e: &Expr| Box::new(e.substitute_columns(map));
        match self {
            Expr::Col(i) => map(*i),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, rebox(a), rebox(b)),
            Expr::And(xs) => Expr::And(xs.iter().map(|x| x.substitute_columns(map)).collect()),
            Expr::Or(xs) => Expr::Or(xs.iter().map(|x| x.substitute_columns(map)).collect()),
            Expr::Not(a) => Expr::Not(rebox(a)),
            Expr::Arith(op, a, b) => Expr::Arith(*op, rebox(a), rebox(b)),
            Expr::Neg(a) => Expr::Neg(rebox(a)),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: rebox(expr),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: rebox(expr),
                list: list.clone(),
                negated: *negated,
            },
            Expr::Between { expr, lo, hi } => Expr::Between {
                expr: rebox(expr),
                lo: rebox(lo),
                hi: rebox(hi),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: rebox(expr),
                negated: *negated,
            },
            Expr::Case { branches, else_ } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.substitute_columns(map), v.substitute_columns(map)))
                    .collect(),
                else_: rebox(else_),
            },
            Expr::ExtractYear(a) => Expr::ExtractYear(rebox(a)),
            Expr::Substr { expr, from, len } => Expr::Substr {
                expr: rebox(expr),
                from: *from,
                len: *len,
            },
        }
    }

    /// Result type of this expression over `input` column types: that of
    /// every non-NULL value it evaluates to, decimal scale included (the
    /// VM's scale rule), unless a CASE's branches differ in type.
    pub fn dtype(&self, input: &[DataType]) -> Result<DataType> {
        let boolean = DataType::Int;
        Ok(match self {
            Expr::Col(i) => *input
                .get(*i)
                .ok_or_else(|| Error::Internal(format!("column {i} out of range")))?,
            Expr::Lit(v) => match v {
                Value::Null => DataType::Int,
                Value::Int(_) => DataType::BigInt,
                Value::Decimal(d) => DataType::Decimal {
                    precision: 30,
                    scale: d.scale,
                },
                Value::Date(_) => DataType::Date,
                Value::Str(s) => DataType::Varchar(s.len() as u16),
                Value::Double(_) => DataType::Double,
            },
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Like { .. }
            | Expr::InList { .. }
            | Expr::Between { .. }
            | Expr::IsNull { .. } => boolean,
            Expr::Arith(op, a, b) => {
                let (ta, tb) = (a.dtype(input)?, b.dtype(input)?);
                let scale = |t: DataType| match t {
                    DataType::Int | DataType::BigInt => Some(0),
                    DataType::Decimal { scale, .. } => Some(scale),
                    _ => None,
                };
                match (ta, tb) {
                    (DataType::Double, _) | (_, DataType::Double) => DataType::Double,
                    (DataType::Date, _) | (_, DataType::Date) => DataType::Date,
                    (DataType::Int | DataType::BigInt, DataType::Int | DataType::BigInt)
                        if *op != ArithOp::Div =>
                    {
                        DataType::BigInt
                    }
                    _ => match (scale(ta), scale(tb)) {
                        (Some(sa), Some(sb)) => DataType::Decimal {
                            precision: 30,
                            scale: crate::vm::dec_result_scale(*op, sa, sb).ok_or_else(|| {
                                Error::Arithmetic("decimal scale overflow".into())
                            })?,
                        },
                        _ => DataType::BigInt,
                    },
                }
            }
            Expr::Neg(a) => a.dtype(input)?,
            Expr::Case { branches, else_ } => {
                if let Some((_, v)) = branches.first() {
                    v.dtype(input)?
                } else {
                    else_.dtype(input)?
                }
            }
            Expr::ExtractYear(_) => DataType::BigInt,
            Expr::Substr { len, .. } => DataType::Varchar(*len as u16),
        })
    }

    /// Can this predicate be evaluated by the Page Store LLVM engine?
    /// The optimizer "maintains explicit lists of allowed data types,
    /// operators, and functions" (§V-B1); this is that list. CASE and
    /// arbitrary arithmetic on the storage side are excluded, mirroring the
    /// paper's conservative stance (user-defined functions are the paper's
    /// example; we exclude the constructs our VM does not implement).
    ///
    /// A string constant must fit the bitcode's u16 length: a longer one
    /// stays with the SQL node.
    pub fn is_ndp_supported(&self, input: &[DataType]) -> bool {
        let fits = |v: &Value| !matches!(v, Value::Str(s) if s.len() > u16::MAX as usize);
        match self {
            Expr::Col(i) => input.get(*i).is_some(),
            Expr::Lit(v) => fits(v),
            Expr::Cmp(_, a, b) => a.is_ndp_supported(input) && b.is_ndp_supported(input),
            Expr::And(xs) | Expr::Or(xs) => xs.iter().all(|x| x.is_ndp_supported(input)),
            Expr::Not(a) | Expr::Neg(a) => a.is_ndp_supported(input),
            Expr::Arith(_, a, b) => a.is_ndp_supported(input) && b.is_ndp_supported(input),
            Expr::Like { expr, pattern, .. } => {
                pattern.len() <= u16::MAX as usize && expr.is_ndp_supported(input)
            }
            Expr::InList { expr, list, .. } => {
                list.iter().all(fits) && expr.is_ndp_supported(input)
            }
            Expr::Between { expr, lo, hi } => {
                expr.is_ndp_supported(input)
                    && lo.is_ndp_supported(input)
                    && hi.is_ndp_supported(input)
            }
            Expr::IsNull { expr, .. } => expr.is_ndp_supported(input),
            Expr::ExtractYear(a) => a.is_ndp_supported(input),
            Expr::Substr { expr, .. } => expr.is_ndp_supported(input),
            // Not on the allow-list: evaluated by the SQL executor only.
            Expr::Case { .. } => false,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "col{i}"),
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                Value::Date(d) => write!(f, "DATE'{d}'"),
                other => write!(f, "{other}"),
            },
            Expr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::And(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Or(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(
                    f,
                    "({expr} {}LIKE '{pattern}')",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            Expr::Between { expr, lo, hi } => write!(f, "({expr} BETWEEN {lo} AND {hi})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Case { branches, else_ } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                write!(f, " ELSE {else_} END")
            }
            Expr::ExtractYear(a) => write!(f, "EXTRACT(YEAR FROM {a})"),
            Expr::Substr { expr, from, len } => {
                write!(f, "SUBSTRING({expr} FROM {from} FOR {len})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_collects_sorted_unique() {
        let e = Expr::and(vec![
            Expr::gt(Expr::col(4), Expr::int(1)),
            Expr::lt(Expr::col(2), Expr::col(4)),
        ]);
        assert_eq!(e.columns(), vec![2, 4]);
    }

    #[test]
    fn and_flattens_nested() {
        let e = Expr::and(vec![
            Expr::and(vec![Expr::int(1), Expr::int(2)]),
            Expr::int(3),
        ]);
        match e {
            Expr::And(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn remap_columns_rewrites_refs() {
        let e = Expr::gt(Expr::col(10), Expr::col(11));
        let r = e.remap_columns(&|c| c - 10);
        assert_eq!(r.columns(), vec![0, 1]);
    }

    #[test]
    fn dtype_decimal_arithmetic_scales() {
        let input = [
            DataType::Decimal {
                precision: 15,
                scale: 2,
            },
            DataType::Decimal {
                precision: 15,
                scale: 2,
            },
        ];
        let e = Expr::mul(Expr::col(0), Expr::sub(Expr::int(1), Expr::col(1)));
        match e.dtype(&input).unwrap() {
            DataType::Decimal { scale, .. } => assert_eq!(scale, 4),
            other => panic!("expected decimal, got {other:?}"),
        }
    }

    #[test]
    fn case_is_not_ndp_supported() {
        let input = [DataType::Int];
        let c = Expr::Case {
            branches: vec![(Expr::eq(Expr::col(0), Expr::int(1)), Expr::int(1))],
            else_: Box::new(Expr::int(0)),
        };
        assert!(!c.is_ndp_supported(&input));
        assert!(Expr::gt(Expr::col(0), Expr::int(3)).is_ndp_supported(&input));
    }

    #[test]
    fn display_matches_paper_style() {
        // The paper's Listing 2 shape: (joindate >= DATE'2010-01-01').
        let e = Expr::ge(Expr::col(0), Expr::date("2010-01-01"));
        assert_eq!(e.to_string(), "(col0 >= DATE'2010-01-01')");
    }
}
