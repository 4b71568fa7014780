//! Recursive-descent parser for VQL.

use crate::ast::{CmpOp, Filter, Operand, OrderBy, Query, Term, TriplePattern};
use crate::error::{Result, VqlError};
use crate::lexer::{lex, Token};
use sqo_storage::triple::Value;

/// How deep `dist(..)` may nest in one operand. The parser, the planner and
/// the executor each recurse once per level, so without a bound a hostile
/// query could overflow the stack — an abort, not an error.
pub const MAX_DIST_DEPTH: usize = 32;

/// Parse a VQL query string into its AST.
pub fn parse(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> VqlError {
        VqlError::Parse { pos: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<()> {
        match self.next() {
            Some(t) if t == *tok => Ok(()),
            Some(t) => Err(self.err(format!("expected {what}, found {t:?}"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn var(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Var(v)) => Ok(v),
            other => Err(self.err(format!("expected variable, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect(&Token::Select, "SELECT")?;
        let mut select = vec![self.var()?];
        while self.peek() == Some(&Token::Comma) {
            self.next();
            select.push(self.var()?);
        }
        self.expect(&Token::Where, "WHERE")?;
        self.expect(&Token::LBrace, "'{'")?;

        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            match self.peek() {
                Some(Token::LParen) => patterns.push(self.pattern()?),
                Some(Token::Filter) => {
                    self.next();
                    self.expect(&Token::LParen, "'(' after FILTER")?;
                    filters.push(self.filter_body()?);
                    self.expect(&Token::RParen, "')' closing FILTER")?;
                }
                Some(Token::RBrace) => {
                    self.next();
                    break;
                }
                other => {
                    return Err(
                        self.err(format!("expected pattern, FILTER or '}}', found {other:?}"))
                    )
                }
            }
        }
        if patterns.is_empty() {
            return Err(self.err("WHERE block needs at least one triple pattern"));
        }

        let mut order = None;
        if self.peek() == Some(&Token::Order) {
            self.next();
            self.expect(&Token::By, "BY after ORDER")?;
            let var = self.var()?;
            order = Some(match self.peek() {
                Some(Token::Desc) => {
                    self.next();
                    OrderBy::Key { var, desc: true }
                }
                Some(Token::Asc) => {
                    self.next();
                    OrderBy::Key { var, desc: false }
                }
                Some(Token::Nn) => {
                    self.next();
                    let target = self.literal()?;
                    OrderBy::Nn { var, target }
                }
                _ => OrderBy::Key { var, desc: false },
            });
        }

        let mut limit = None;
        if self.peek() == Some(&Token::Limit) {
            self.next();
            limit = Some(self.unsigned("LIMIT")?);
        }
        let mut offset = None;
        if self.peek() == Some(&Token::Offset) {
            self.next();
            offset = Some(self.unsigned("OFFSET")?);
        }

        Ok(Query { select, patterns, filters, order, limit, offset })
    }

    fn unsigned(&mut self, what: &str) -> Result<usize> {
        match self.next() {
            Some(Token::Int(n)) if n >= 0 => Ok(n as usize),
            other => Err(self.err(format!("{what} needs a non-negative integer, found {other:?}"))),
        }
    }

    fn pattern(&mut self) -> Result<TriplePattern> {
        self.expect(&Token::LParen, "'('")?;
        let s = self.term()?;
        self.expect(&Token::Comma, "','")?;
        let p = self.term()?;
        self.expect(&Token::Comma, "','")?;
        let o = self.term()?;
        self.expect(&Token::RParen, "')'")?;
        Ok(TriplePattern { s, p, o })
    }

    fn term(&mut self) -> Result<Term> {
        match self.next() {
            Some(Token::Var(v)) => Ok(Term::Var(v)),
            Some(Token::Ident(id)) => Ok(Term::Const(Value::Str(id))),
            Some(Token::Str(s)) => Ok(Term::Const(Value::Str(s))),
            Some(Token::Int(i)) => Ok(Term::Const(Value::Int(i))),
            Some(Token::Float(x)) => Ok(Term::Const(Value::Float(x))),
            other => Err(self.err(format!("expected term, found {other:?}"))),
        }
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next() {
            Some(Token::Str(s)) => Ok(Value::Str(s)),
            Some(Token::Ident(id)) => Ok(Value::Str(id)),
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Float(x)) => Ok(Value::Float(x)),
            other => Err(self.err(format!("expected literal, found {other:?}"))),
        }
    }

    fn filter_body(&mut self) -> Result<Filter> {
        let left = self.operand(0)?;
        let op = match self.next() {
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            other => return Err(self.err(format!("expected comparison operator, found {other:?}"))),
        };
        let right = self.operand(0)?;
        Ok(Filter { left, op, right })
    }

    /// An operand inside `depth` enclosing `dist(..)`s.
    fn operand(&mut self, depth: usize) -> Result<Operand> {
        match self.next() {
            Some(Token::Var(v)) => Ok(Operand::Var(v)),
            Some(Token::Str(s)) => Ok(Operand::Lit(Value::Str(s))),
            Some(Token::Ident(id)) => Ok(Operand::Lit(Value::Str(id))),
            Some(Token::Int(i)) => Ok(Operand::Lit(Value::Int(i))),
            Some(Token::Float(x)) => Ok(Operand::Lit(Value::Float(x))),
            Some(Token::Dist) if depth == MAX_DIST_DEPTH => {
                Err(self.err(format!("dist() nested deeper than {MAX_DIST_DEPTH}")))
            }
            Some(Token::Dist) => {
                self.expect(&Token::LParen, "'(' after dist")?;
                let a = self.operand(depth + 1)?;
                self.expect(&Token::Comma, "',' in dist")?;
                let b = self.operand(depth + 1)?;
                self.expect(&Token::RParen, "')' closing dist")?;
                Ok(Operand::Dist(Box::new(a), Box::new(b)))
            }
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::OrderBy;

    /// The paper's first example query (§3).
    pub const PAPER_Q1: &str = "SELECT ?n,?h,?p \
        WHERE { (?o,name,?n) (?o,hp,?h) (?o,price,?p) \
        FILTER (?p < 50000) } \
        ORDER BY ?h DESC LIMIT 5";

    /// The paper's second example query (§3).
    pub const PAPER_Q2: &str = "SELECT ?n,?h,?p,?dn,?a \
        WHERE { (?x,dealer,?d) (?y,dlrid,?d) \
        (?x,name,?n) (?x,hp,?h) (?x,price,?p) \
        (?y,addr,?a) (?y,name,?dn) \
        FILTER (?p < 50000) \
        FILTER (dist(?n,'BMW') < 2)} \
        ORDER BY ?h DESC LIMIT 5";

    /// The paper's third example query (§3).
    pub const PAPER_Q3: &str = "SELECT ?n,?p,?dn,?ad \
        WHERE { (?d,?a,?id) (?d,name,?dn) (?d,addr,?ad) \
        (?o,name,?n) (?o,price,?p) \
        (?o,dealer,?cid) \
        FILTER (dist(?id,?cid) < 2) \
        FILTER (dist(?a,'dlrid') < 3)} \
        ORDER BY ?a NN 'dlrid'";

    #[test]
    fn parses_paper_query_1() {
        let q = parse(PAPER_Q1).unwrap();
        assert_eq!(q.select, vec!["n", "h", "p"]);
        assert_eq!(q.patterns.len(), 3);
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.order, Some(OrderBy::Key { var: "h".into(), desc: true }));
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, None);
    }

    #[test]
    fn parses_paper_query_2() {
        let q = parse(PAPER_Q2).unwrap();
        assert_eq!(q.select.len(), 5);
        assert_eq!(q.patterns.len(), 7);
        assert_eq!(q.filters.len(), 2);
        // The similarity filter survives intact.
        let f = &q.filters[1];
        assert!(matches!(&f.left, Operand::Dist(a, b)
            if matches!(a.as_ref(), Operand::Var(v) if v == "n")
            && matches!(b.as_ref(), Operand::Lit(Value::Str(s)) if s == "BMW")));
    }

    #[test]
    fn parses_paper_query_3_with_nn_order() {
        let q = parse(PAPER_Q3).unwrap();
        assert_eq!(q.patterns.len(), 6);
        assert_eq!(q.order, Some(OrderBy::Nn { var: "a".into(), target: Value::from("dlrid") }));
        // Variable attribute position.
        assert_eq!(q.patterns[0].p, Term::Var("a".into()));
    }

    #[test]
    fn roundtrip_print_parse() {
        for src in [PAPER_Q1, PAPER_Q2, PAPER_Q3] {
            let q1 = parse(src).unwrap();
            let printed = q1.to_string();
            let q2 = parse(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
            assert_eq!(q1, q2, "round-trip changed the AST for {src}");
        }
    }

    #[test]
    fn offset_and_default_asc() {
        let q = parse("SELECT ?x WHERE { (?x,a,?v) } ORDER BY ?v LIMIT 10 OFFSET 20").unwrap();
        assert_eq!(q.order, Some(OrderBy::Key { var: "v".into(), desc: false }));
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(20));
    }

    #[test]
    fn filters_may_interleave_with_patterns() {
        let q = parse("SELECT ?x WHERE { (?x,a,?v) FILTER (?v > 3) (?x,b,?w) }").unwrap();
        assert_eq!(q.patterns.len(), 2);
        assert_eq!(q.filters.len(), 1);
    }

    #[test]
    fn error_cases() {
        assert!(parse("SELECT ?x WHERE { }").is_err(), "no patterns");
        assert!(parse("SELECT WHERE { (?x,a,?v) }").is_err(), "missing select list");
        assert!(parse("SELECT ?x WHERE { (?x,a) }").is_err(), "binary tuple");
        assert!(parse("SELECT ?x WHERE { (?x,a,?v) } LIMIT -3").is_err(), "negative limit");
        assert!(parse("SELECT ?x WHERE { (?x,a,?v) } garbage").is_err(), "trailing tokens");
        assert!(parse("SELECT ?x WHERE { (?x,a,?v) FILTER (?v ?w) }").is_err(), "no operator");
    }

    #[test]
    fn quoted_attribute_names_allowed() {
        let q = parse("SELECT ?v WHERE { (?x,'strange attr',?v) }").unwrap();
        assert_eq!(q.patterns[0].p, Term::Const(Value::from("strange attr")));
    }
}
