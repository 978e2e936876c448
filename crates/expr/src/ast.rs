//! Expression trees.
//!
//! Column references are positions into the *table* schema; the executor
//! and the NDP descriptor rebind them to physical record positions when
//! needed. The node set covers everything the TPC-H predicates and
//! projections require, plus the paper's worked examples.

use std::fmt;

use taurus_common::{DataType, Dec, Error, Result, Value};

use crate::vm::{self, Ty};

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
    /// every non-NULL value it evaluates to, decimal scale included. It
    /// types by the record VM's classes and rules (`crate::vm`), so it
    /// types exactly what compiles: anything else (a date minus a date, a
    /// string in arithmetic, a comparison across families, a CASE whose
    /// branches are not of one type) is an [`Error::Type`]. An expression
    /// that is NULL on every row (a NULL literal) is typed `Int`.
    pub fn dtype(&self, input: &[DataType]) -> Result<DataType> {
        Ok(self.typed(input)?.unwrap_or(DataType::Int))
    }

    /// [`Expr::dtype`], `None` for an expression NULL on every row.
    fn typed(&self, input: &[DataType]) -> Result<Option<DataType>> {
        let class = |e: &Expr| Ok::<_, Error>(e.typed(input)?.map_or(Ty::Null, Ty::of_dtype));
        let fail = |classes: &[Ty]| Error::Type(format!("{self} does not type over {classes:?}"));
        // The class the VM's rule gives over the operands' classes.
        let unary = |e: &Expr, rule: &dyn Fn(Ty) -> Option<Ty>| {
            let t = class(e)?;
            rule(t).ok_or_else(|| fail(&[t]))
        };
        let binary = |a: &Expr, b: &Expr, rule: &dyn Fn(Ty, Ty) -> Option<Ty>| {
            let (ta, tb) = (class(a)?, class(b)?);
            rule(ta, tb).ok_or_else(|| fail(&[ta, tb]))
        };
        let truth = |t: Ty| t.boolish().then_some(Ty::Bool);
        let boolean = Some(DataType::Int);
        Ok(match self {
            Expr::Col(i) => Some(
                *input
                    .get(*i)
                    .ok_or_else(|| Error::Internal(format!("column {i} out of range")))?,
            ),
            Expr::Lit(Value::Str(s)) => Some(DataType::Varchar(s.len() as u16)),
            Expr::Lit(v) => Ty::of_value(v).dtype(),
            Expr::Cmp(_, a, b) => binary(a, b, &vm::cmp_class).and(Ok(boolean))?,
            Expr::And(xs) | Expr::Or(xs) => {
                for x in xs {
                    unary(x, &truth)?;
                }
                boolean
            }
            Expr::Not(a) => unary(a, &truth).and(Ok(boolean))?,
            Expr::Arith(op, a, b) => binary(a, b, &|x, y| vm::arith_ty(*op, x, y))?.dtype(),
            Expr::Neg(a) => unary(a, &vm::neg_ty).and(a.typed(input))?,
            Expr::Like { expr, .. } => unary(expr, &vm::text_ty).and(Ok(boolean))?,
            Expr::InList { expr, list, .. } => {
                unary(expr, &|t| vm::in_list_class(t, list)).and(Ok(boolean))?
            }
            Expr::Between { expr, lo, hi } => {
                binary(expr, lo, &vm::cmp_class)?;
                binary(expr, hi, &vm::cmp_class).and(Ok(boolean))?
            }
            Expr::IsNull { expr, .. } => expr.typed(input).and(Ok(boolean))?,
            Expr::Case { branches, else_ } => {
                let mut types = vec![else_.typed(input)?];
                for (c, v) in branches {
                    unary(c, &truth)?;
                    types.push(v.typed(input)?);
                }
                // The binder converts each value to the join
                // ([`Expr::typed_case`]): a register holds one class.
                let classes: Vec<Ty> = types
                    .iter()
                    .map(|t| t.map_or(Ty::Null, Ty::of_dtype))
                    .collect();
                let one = classes.iter().try_fold(Ty::Null, |a, &b| a.join(b));
                one.ok_or_else(|| fail(&classes))?;
                types.into_iter().try_fold(None, join_types)?
            }
            Expr::ExtractYear(a) => unary(a, &vm::year_ty)?.dtype(),
            Expr::Substr { expr, len, .. } => unary(expr, &vm::text_ty)?
                .dtype()
                .and(Some(DataType::Varchar(*len as u16))),
        })
    }

    /// A searched CASE whose values are converted to the type their types
    /// join to ([`join_types`]), so that it has one type
    /// ([`Expr::dtype`]): a literal is converted in place, any other value
    /// by an exact conversion `eval` and the VM both compute (times 1 at
    /// the target scale, or times `1e0`). `input` types the columns.
    pub fn typed_case(
        branches: Vec<(Expr, Expr)>,
        else_: Expr,
        input: &[DataType],
    ) -> Result<Expr> {
        let of = |v: &Expr| v.typed(input);
        let to = (branches.iter().map(|(_, v)| v).chain([&else_]))
            .try_fold(None, |joined, v| join_types(joined, of(v)?))?;
        let convert = |v: Expr| convert(of(&v)?, v, to);
        Ok(Expr::Case {
            branches: branches
                .into_iter()
                .map(|(c, v)| Ok((c, convert(v)?)))
                .collect::<Result<_>>()?,
            else_: Box::new(convert(else_)?),
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

/// The type CASE values of types `a` and `b` join to (`None`: NULL on
/// every row). NULL is the identity; integers and decimals join to a
/// decimal at the widest scale, any number and a double to a double, strings
/// to a VARCHAR of the wider width; any other mix is an [`Error::Type`].
pub fn join_types(a: Option<DataType>, b: Option<DataType>) -> Result<Option<DataType>> {
    let (Some(a), Some(b)) = (a, b) else {
        return Ok(a.or(b));
    };
    use DataType::{Char, Varchar};
    let (ta, tb) = (Ty::of_dtype(a), Ty::of_dtype(b));
    let joined = match ((a, b), ta.dec_scale(), tb.dec_scale()) {
        _ if a == b => return Ok(Some(a)),
        ((Char(n) | Varchar(n), Char(m) | Varchar(m)), ..) => return Ok(Some(Varchar(n.max(m)))),
        _ if ta == tb => ta,
        (_, Some(s), Some(t)) => Ty::Dec(s.max(t)),
        _ if ta.numeric() && tb.numeric() => Ty::F64,
        _ => return Err(Error::Type(format!("CASE mixes {a:?} and {b:?}"))),
    };
    Ok(joined.dtype())
}

/// `e`, of type `from`, as a value of type `to`, which its type joins to
/// (`None`: NULL on every row, which needs none): unchanged where the
/// two are of one class, a literal converted, any other value times 1 at
/// `to`'s scale (an integer at scale 0 too) or times `1e0`.
fn convert(from: Option<DataType>, e: Expr, to: Option<DataType>) -> Result<Expr> {
    let (Some(from), Some(to)) = (from, to) else {
        return Ok(e);
    };
    let fail = || Error::Type(format!("cannot convert a {from:?} value to {to:?}"));
    Ok(match (Ty::of_dtype(from), Ty::of_dtype(to), e) {
        (tf, tt, e) if tf == tt => e,
        (_, Ty::F64, Expr::Lit(v)) => Expr::Lit(Value::Double(v.as_f64()?)),
        (_, Ty::F64, e) => Expr::mul(e, Expr::Lit(Value::Double(1.0))),
        (tf, Ty::Dec(t), e) => match (tf.dec_scale(), e) {
            (Some(_), Expr::Lit(v)) => {
                Expr::Lit(Value::Decimal(v.as_dec()?.checked_add(Dec::new(0, t))?))
            }
            (Some(s), e) if s < t || tf.int() => {
                let one = Dec::new(10i128.pow((t - s) as u32), t - s);
                Expr::mul(e, Expr::Lit(Value::Decimal(one)))
            }
            _ => return Err(fail()),
        },
        _ => return Err(fail()),
    })
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
