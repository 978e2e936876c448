//! Recursive-descent parser: positioned tokens → [`Statement`].
//!
//! The grammar is the TPC-H-complete SELECT subset (joins with ON,
//! FORCE INDEX, derived tables, WHERE/GROUP BY/HAVING/ORDER BY/LIMIT,
//! EXISTS / IN / scalar subqueries, CASE, EXTRACT, SUBSTRING, and the
//! aggregate functions). Precedence, loosest first:
//! `OR < AND < NOT < comparison/IS/IN/LIKE/BETWEEN < +- < */ < unary -`.
//!
//! Every failure is a positioned [`taurus_common::Error::Parse`]; a
//! recursion-depth guard keeps adversarial nesting from overflowing the
//! stack (the fuzz tests drive this with random token streams).

use taurus_common::{Date32, Dec, Error, Result, Value};
use taurus_expr::ast::{ArithOp, CmpOp};

use crate::ast::*;
use crate::lexer::{lex, parse_err, Pos, Tok, Token};

/// Nesting bound for expressions and subqueries. SQL text is the only
/// expression language a wire client sends, so this is the guard that
/// keeps hostile nesting from overflowing a serving thread's stack.
const MAX_DEPTH: usize = 64;

/// Parse one statement (`SELECT ...` or `EXPLAIN SELECT ...`, with an
/// optional trailing `;`).
pub fn parse(text: &str) -> Result<Statement> {
    let tokens = lex(text)?;
    let mut p = Parser {
        tokens,
        at: 0,
        depth: 0,
    };
    let explain = p.eat_kw("explain");
    let select = p.select_stmt()?;
    let _ = p.eat(&Tok::Semi);
    if let Some(t) = p.peek() {
        return Err(parse_err(
            t.pos,
            format!("unexpected {} after statement", t.tok.describe()),
        ));
    }
    Ok(if explain {
        Statement::Explain(select)
    } else {
        Statement::Select(select)
    })
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.at)
    }

    fn pos(&self) -> Pos {
        self.peek()
            .map(|t| t.pos)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.pos).unwrap_or_else(Pos::start))
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.at).cloned();
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    /// Consume `tok` if it is next.
    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek().map(|t| &t.tok) == Some(tok) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    /// Is the next token the keyword `kw`?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s == kw)
    }

    /// Consume the keyword `kw` if it is next.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<Pos> {
        let pos = self.pos();
        if self.eat(tok) {
            Ok(pos)
        } else {
            Err(self.unexpected(what))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{kw}`")))
        }
    }

    fn unexpected(&self, wanted: &str) -> Error {
        match self.peek() {
            Some(t) => parse_err(
                t.pos,
                format!("expected {wanted}, found {}", t.tok.describe()),
            ),
            None => parse_err(self.pos(), format!("expected {wanted}, found end of input")),
        }
    }

    fn ident(&mut self, what: &str) -> Result<Ident> {
        match self.peek() {
            Some(Token {
                tok: Tok::Ident(s),
                pos,
            }) if !is_reserved(s) => {
                let id = Ident {
                    name: s.clone(),
                    pos: *pos,
                };
                self.at += 1;
                Ok(id)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn descend<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_DEPTH {
            return Err(parse_err(self.pos(), "expression nesting too deep"));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    // ---- statements ----------------------------------------------------

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        self.descend(|p| p.select_stmt_inner())
    }

    fn select_stmt_inner(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let mut items = Vec::new();
        loop {
            if let Some(Token {
                tok: Tok::Star,
                pos,
            }) = self.peek()
            {
                let pos = *pos;
                self.at += 1;
                items.push(SelectItem::Wildcard(pos));
            } else {
                let expr = self.expr()?;
                let alias = self.opt_alias()?;
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            from.push(self.table_ref()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let where_ = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    let _ = self.eat_kw("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Some(Token {
                    tok: Tok::Int(n), ..
                }) if n >= 0 => Some(n as u64),
                Some(t) => {
                    return Err(parse_err(
                        t.pos,
                        format!("expected row count after LIMIT, found {}", t.tok.describe()),
                    ))
                }
                None => return Err(self.unexpected("row count after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// `[AS] ident` if present.
    fn opt_alias(&mut self) -> Result<Option<Ident>> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident("alias after AS")?));
        }
        match self.peek() {
            Some(Token {
                tok: Tok::Ident(s), ..
            }) if !is_reserved(s) => Ok(Some(self.ident("alias")?)),
            _ => Ok(None),
        }
    }

    // ---- FROM ----------------------------------------------------------

    /// A factor followed by any number of `[left] join ... on ...`.
    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            let kind = if self.eat_kw("left") {
                let _ = self.eat_kw("outer");
                JoinKind::Left
            } else if self.eat_kw("inner") || self.at_kw("join") {
                JoinKind::Inner
            } else {
                break;
            };
            self.expect_kw("join")?;
            let right = self.table_factor()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                kind,
                right: Box::new(right),
                on,
            };
        }
        Ok(left)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.eat(&Tok::LParen) {
            if self.at_kw("select") {
                let select = self.select_stmt()?;
                self.expect(&Tok::RParen, "`)` closing derived table")?;
                let _ = self.eat_kw("as");
                let alias = self.ident("alias for derived table")?;
                return Ok(TableRef::Derived {
                    select: Box::new(select),
                    alias,
                });
            }
            // Parenthesized join tree.
            let inner = self.descend(|p| p.table_ref())?;
            self.expect(&Tok::RParen, "`)` closing join group")?;
            return Ok(inner);
        }
        let name = self.ident("table name")?;
        let force_index = if self.eat_kw("force") {
            self.expect_kw("index")?;
            self.expect(&Tok::LParen, "`(` after FORCE INDEX")?;
            let ix = match self.peek() {
                // `primary` is otherwise an ordinary identifier; accept it
                // here explicitly so `FORCE INDEX (primary)` works.
                Some(Token {
                    tok: Tok::Ident(s),
                    pos,
                }) => {
                    let id = Ident {
                        name: s.clone(),
                        pos: *pos,
                    };
                    self.at += 1;
                    id
                }
                _ => return Err(self.unexpected("index name")),
            };
            self.expect(&Tok::RParen, "`)` after index name")?;
            Some(ix)
        } else {
            None
        };
        let alias = self.opt_alias()?;
        Ok(TableRef::Table {
            name,
            alias,
            force_index,
        })
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<SqlExpr> {
        self.descend(|p| p.or_expr())
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.and_expr()?;
        while self.at_kw("or") {
            let pos = self.pos();
            self.at += 1;
            let right = self.and_expr()?;
            left = SqlExpr::new(ExprKind::Or(Box::new(left), Box::new(right)), pos);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.not_expr()?;
        while self.at_kw("and") {
            let pos = self.pos();
            self.at += 1;
            let right = self.not_expr()?;
            left = SqlExpr::new(ExprKind::And(Box::new(left), Box::new(right)), pos);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.at_kw("not") && !self.next_is_exists() {
            let pos = self.pos();
            self.at += 1;
            let inner = self.descend(|p| p.not_expr())?;
            return Ok(SqlExpr::new(ExprKind::Not(Box::new(inner)), pos));
        }
        self.cmp_expr()
    }

    /// `NOT EXISTS` is handled in primary position, not as a generic NOT.
    fn next_is_exists(&self) -> bool {
        matches!(
            self.tokens.get(self.at + 1),
            Some(Token { tok: Tok::Ident(s), .. }) if s == "exists"
        )
    }

    fn cmp_expr(&mut self) -> Result<SqlExpr> {
        let left = self.add_expr()?;
        // Comparison and the SQL predicate suffixes are non-associative.
        let pos = self.pos();
        let op = match self.peek().map(|t| &t.tok) {
            Some(Tok::Eq) => Some(CmpOp::Eq),
            Some(Tok::Ne) => Some(CmpOp::Ne),
            Some(Tok::Lt) => Some(CmpOp::Lt),
            Some(Tok::Le) => Some(CmpOp::Le),
            Some(Tok::Gt) => Some(CmpOp::Gt),
            Some(Tok::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.at += 1;
            let right = self.add_expr()?;
            return Ok(SqlExpr::new(
                ExprKind::Cmp(op, Box::new(left), Box::new(right)),
                pos,
            ));
        }
        let negated = {
            let save = self.at;
            if self.eat_kw("not") {
                if self.at_kw("like") || self.at_kw("in") || self.at_kw("between") {
                    true
                } else {
                    self.at = save;
                    return Ok(left);
                }
            } else {
                false
            }
        };
        if self.eat_kw("like") {
            let pos = self.pos();
            match self.bump() {
                Some(Token {
                    tok: Tok::Str(pattern),
                    ..
                }) => {
                    return Ok(SqlExpr::new(
                        ExprKind::Like {
                            expr: Box::new(left),
                            pattern,
                            negated,
                        },
                        pos,
                    ))
                }
                _ => return Err(parse_err(pos, "expected string pattern after LIKE")),
            }
        }
        if self.eat_kw("in") {
            let pos = self.pos();
            self.expect(&Tok::LParen, "`(` after IN")?;
            if self.at_kw("select") {
                let select = self.select_stmt()?;
                self.expect(&Tok::RParen, "`)` closing IN subquery")?;
                return Ok(SqlExpr::new(
                    ExprKind::InSelect {
                        expr: Box::new(left),
                        select: Box::new(select),
                        negated,
                    },
                    pos,
                ));
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen, "`)` closing IN list")?;
            return Ok(SqlExpr::new(
                ExprKind::InList {
                    expr: Box::new(left),
                    list,
                    negated,
                },
                pos,
            ));
        }
        if self.eat_kw("between") {
            let pos = self.pos();
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            let between = SqlExpr::new(
                ExprKind::Between {
                    expr: Box::new(left),
                    lo: Box::new(lo),
                    hi: Box::new(hi),
                },
                pos,
            );
            return Ok(if negated {
                SqlExpr::new(ExprKind::Not(Box::new(between)), pos)
            } else {
                between
            });
        }
        if self.at_kw("is") {
            let pos = self.pos();
            self.at += 1;
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(SqlExpr::new(
                ExprKind::IsNull {
                    expr: Box::new(left),
                    negated,
                },
                pos,
            ));
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.tok) {
                Some(Tok::Plus) => ArithOp::Add,
                Some(Tok::Minus) => ArithOp::Sub,
                _ => break,
            };
            let pos = self.pos();
            self.at += 1;
            let right = self.mul_expr()?;
            left = SqlExpr::new(ExprKind::Arith(op, Box::new(left), Box::new(right)), pos);
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.tok) {
                Some(Tok::Star) => ArithOp::Mul,
                Some(Tok::Slash) => ArithOp::Div,
                _ => break,
            };
            let pos = self.pos();
            self.at += 1;
            let right = self.unary_expr()?;
            left = SqlExpr::new(ExprKind::Arith(op, Box::new(left), Box::new(right)), pos);
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<SqlExpr> {
        if let Some(Token {
            tok: Tok::Minus,
            pos,
        }) = self.peek()
        {
            let pos = *pos;
            self.at += 1;
            let inner = self.descend(|p| p.unary_expr())?;
            return Ok(SqlExpr::new(ExprKind::Neg(Box::new(inner)), pos));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        let Some(t) = self.peek().cloned() else {
            return Err(self.unexpected("an expression"));
        };
        let pos = t.pos;
        match t.tok {
            Tok::Int(v) => {
                self.at += 1;
                Ok(SqlExpr::new(ExprKind::Lit(Value::Int(v)), pos))
            }
            Tok::Dec(s) => {
                self.at += 1;
                let d = Dec::parse(&s)
                    .map_err(|e| parse_err(pos, format!("bad decimal literal `{s}`: {e}")))?;
                Ok(SqlExpr::new(ExprKind::Lit(Value::Decimal(d)), pos))
            }
            Tok::Str(s) => {
                self.at += 1;
                Ok(SqlExpr::new(ExprKind::Lit(Value::str(&s)), pos))
            }
            Tok::LParen => {
                self.at += 1;
                if self.at_kw("select") {
                    let select = self.select_stmt()?;
                    self.expect(&Tok::RParen, "`)` closing subquery")?;
                    return Ok(SqlExpr::new(ExprKind::Scalar(Box::new(select)), pos));
                }
                let inner = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Tok::Ident(word) => self.keyword_or_column(&word, pos),
            other => Err(parse_err(
                pos,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }

    fn keyword_or_column(&mut self, word: &str, pos: Pos) -> Result<SqlExpr> {
        match word {
            "case" => {
                self.at += 1;
                let mut branches = Vec::new();
                while self.eat_kw("when") {
                    let c = self.expr()?;
                    self.expect_kw("then")?;
                    let v = self.expr()?;
                    branches.push((c, v));
                }
                if branches.is_empty() {
                    return Err(parse_err(pos, "CASE needs at least one WHEN branch"));
                }
                self.expect_kw("else")?;
                let else_ = self.expr()?;
                self.expect_kw("end")?;
                Ok(SqlExpr::new(
                    ExprKind::Case {
                        branches,
                        else_: Box::new(else_),
                    },
                    pos,
                ))
            }
            "exists" => {
                self.at += 1;
                self.expect(&Tok::LParen, "`(` after EXISTS")?;
                let select = self.select_stmt()?;
                self.expect(&Tok::RParen, "`)` closing EXISTS subquery")?;
                Ok(SqlExpr::new(
                    ExprKind::Exists {
                        select: Box::new(select),
                        negated: false,
                    },
                    pos,
                ))
            }
            "not" if self.next_is_exists() => {
                self.at += 2; // not exists
                self.expect(&Tok::LParen, "`(` after NOT EXISTS")?;
                let select = self.select_stmt()?;
                self.expect(&Tok::RParen, "`)` closing EXISTS subquery")?;
                Ok(SqlExpr::new(
                    ExprKind::Exists {
                        select: Box::new(select),
                        negated: true,
                    },
                    pos,
                ))
            }
            "date" => {
                self.at += 1;
                match self.bump() {
                    Some(Token {
                        tok: Tok::Str(s),
                        pos: spos,
                    }) => {
                        let d = Date32::parse(&s)
                            .map_err(|e| parse_err(spos, format!("bad date literal '{s}': {e}")))?;
                        Ok(SqlExpr::new(ExprKind::Lit(Value::Date(d)), pos))
                    }
                    _ => Err(parse_err(pos, "expected string after DATE")),
                }
            }
            "extract" => {
                self.at += 1;
                self.expect(&Tok::LParen, "`(` after EXTRACT")?;
                self.expect_kw("year")?;
                self.expect_kw("from")?;
                let e = self.expr()?;
                self.expect(&Tok::RParen, "`)` closing EXTRACT")?;
                Ok(SqlExpr::new(ExprKind::ExtractYear(Box::new(e)), pos))
            }
            "substring" => {
                self.at += 1;
                self.expect(&Tok::LParen, "`(` after SUBSTRING")?;
                let e = self.expr()?;
                self.expect_kw("from")?;
                let from = self.small_uint("start position")?;
                self.expect_kw("for")?;
                let len = self.small_uint("length")?;
                self.expect(&Tok::RParen, "`)` closing SUBSTRING")?;
                Ok(SqlExpr::new(
                    ExprKind::Substr {
                        expr: Box::new(e),
                        from,
                        len,
                    },
                    pos,
                ))
            }
            "count" | "sum" | "min" | "max" | "avg" => {
                let func = match word {
                    "count" => AggName::Count,
                    "sum" => AggName::Sum,
                    "min" => AggName::Min,
                    "max" => AggName::Max,
                    _ => AggName::Avg,
                };
                self.at += 1;
                self.expect(&Tok::LParen, "`(` after aggregate name")?;
                if func == AggName::Count && self.eat(&Tok::Star) {
                    self.expect(&Tok::RParen, "`)` closing COUNT(*)")?;
                    return Ok(SqlExpr::new(
                        ExprKind::Agg {
                            func,
                            distinct: false,
                            arg: None,
                        },
                        pos,
                    ));
                }
                let distinct = self.eat_kw("distinct");
                let arg = self.expr()?;
                self.expect(&Tok::RParen, "`)` closing aggregate")?;
                Ok(SqlExpr::new(
                    ExprKind::Agg {
                        func,
                        distinct,
                        arg: Some(Box::new(arg)),
                    },
                    pos,
                ))
            }
            w if is_reserved(w) => Err(parse_err(
                pos,
                format!("expected an expression, found keyword `{w}`"),
            )),
            _ => {
                let first = self.ident("column")?;
                if self.eat(&Tok::Dot) {
                    let name = self.ident("column after `.`")?;
                    Ok(SqlExpr::new(
                        ExprKind::Column {
                            qualifier: Some(first),
                            name,
                        },
                        pos,
                    ))
                } else {
                    Ok(SqlExpr::new(
                        ExprKind::Column {
                            qualifier: None,
                            name: first,
                        },
                        pos,
                    ))
                }
            }
        }
    }

    fn small_uint(&mut self, what: &str) -> Result<u64> {
        match self.bump() {
            Some(Token {
                tok: Tok::Int(n), ..
            }) if n >= 0 => Ok(n as u64),
            Some(t) => Err(parse_err(
                t.pos,
                format!("expected {what}, found {}", t.tok.describe()),
            )),
            None => Err(self.unexpected(what)),
        }
    }
}

/// Keywords that cannot be bare identifiers (so `from`, `where`, ...
/// never parse as table aliases or column names).
fn is_reserved(s: &str) -> bool {
    matches!(
        s,
        "select"
            | "from"
            | "where"
            | "group"
            | "by"
            | "having"
            | "order"
            | "limit"
            | "as"
            | "join"
            | "inner"
            | "left"
            | "outer"
            | "on"
            | "and"
            | "or"
            | "not"
            | "in"
            | "like"
            | "between"
            | "is"
            | "null"
            | "case"
            | "when"
            | "then"
            | "else"
            | "end"
            | "exists"
            | "asc"
            | "desc"
            | "force"
            | "explain"
            | "distinct"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) -> String {
        let s1 = parse(sql).unwrap();
        let printed = s1.to_string();
        let s2 = parse(&printed).unwrap();
        assert_eq!(printed, s2.to_string(), "printer not a fixed point");
        printed
    }

    #[test]
    fn parses_basic_select() {
        let s = roundtrip("SELECT a, b + 1 AS c FROM t WHERE a > 5 ORDER BY a DESC LIMIT 3");
        assert!(s.contains("select a, (b + 1) as c from t"), "{s}");
        assert!(s.contains("order by a desc limit 3"), "{s}");
    }

    #[test]
    fn precedence_and_or_arith() {
        let s = roundtrip("select * from t where a = 1 or b = 2 and c < 3 + 4 * 5");
        assert!(
            s.contains("((a = 1) or ((b = 2) and (c < (3 + (4 * 5)))))"),
            "{s}"
        );
    }

    #[test]
    fn joins_force_index_and_derived_tables() {
        roundtrip(
            "select x.a from (select a from t group by a) as x \
             join u force index (primary) on u.a = x.a \
             left join v on v.b = x.a and v.c = 1",
        );
    }

    #[test]
    fn subqueries_exists_in_scalar() {
        roundtrip(
            "select a from t where exists (select * from u where u.a = t.a) \
             and b in (select b from v) and c > (select avg(c) from t) \
             and not exists (select * from w) and d not in (1, 2, 3)",
        );
    }

    #[test]
    fn case_extract_substring_aggregates() {
        roundtrip(
            "select case when a = 1 then 'x' else 'y' end, extract(year from d), \
             substring(p from 1 for 2), count(distinct k), count(*), sum(a * (1 - b)) \
             from t group by a",
        );
    }

    #[test]
    fn errors_are_positioned() {
        let err = parse("select from t").unwrap_err();
        match err {
            Error::Parse(m) => assert!(m.contains("line 1, col 8"), "{m}"),
            other => panic!("expected Parse, got {other:?}"),
        }
        let err = parse("select a from t where").unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err:?}");
    }

    #[test]
    fn depth_guard_refuses_deep_nesting() {
        let mut sql = String::from("select ");
        for _ in 0..200 {
            sql.push('(');
        }
        sql.push('1');
        for _ in 0..200 {
            sql.push(')');
        }
        sql.push_str(" from t");
        let err = parse(&sql).unwrap_err();
        match err {
            Error::Parse(m) => assert!(m.contains("too deep"), "{m}"),
            other => panic!("expected Parse, got {other:?}"),
        }
    }
}
